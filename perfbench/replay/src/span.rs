//! In-memory span recorder: one span per call into a layer, kept until the
//! replay ends and then folded into per-layer call counts and self times.
//!
//! A span's self time is its duration minus the durations of its direct
//! children, so nested layer calls (a store load inside a triage bisection,
//! say) are never counted twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Record {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

struct Recorder {
    origin: Instant,
    records: Vec<Record>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        records: Vec::new(),
        open: Vec::new(),
    });
}

/// Run `work` inside a span named after the layer it calls into.
pub fn span<R>(name: &'static str, work: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|cell| {
        let mut recorder = cell.borrow_mut();
        let start = recorder.origin.elapsed();
        let parent = recorder.open.last().copied();
        recorder.records.push(Record {
            name,
            parent,
            start,
            end: start,
        });
        let id = recorder.records.len() - 1;
        recorder.open.push(id);
        id
    });
    let result = work();
    RECORDER.with(|cell| {
        let mut recorder = cell.borrow_mut();
        let end = recorder.origin.elapsed();
        recorder.records[id].end = end;
        recorder.open.pop();
    });
    result
}

/// Per-layer totals over every recorded span.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: usize,
    pub self_time: Duration,
}

/// Fold the recorded spans into per-layer totals, plus the time covered by
/// top-level spans (spans without a parent).
pub fn totals() -> (BTreeMap<&'static str, LayerTotals>, Duration) {
    RECORDER.with(|cell| {
        let recorder = cell.borrow();
        let mut child_time = vec![Duration::ZERO; recorder.records.len()];
        let mut covered = Duration::ZERO;
        for record in &recorder.records {
            let duration = record.end - record.start;
            match record.parent {
                Some(parent) => child_time[parent] += duration,
                None => covered += duration,
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (record, children) in recorder.records.iter().zip(&child_time) {
            let duration = record.end - record.start;
            let layer = layers.entry(record.name).or_default();
            layer.calls += 1;
            layer.self_time += duration.saturating_sub(*children);
        }
        (layers, covered)
    })
}
