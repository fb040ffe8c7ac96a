//! The oracle hot-path benchmark: precomputed stop plans versus per-stop
//! DIE traversal, and snapshot-derived budget compiles versus full
//! pipeline runs during triage bisection.
//!
//! The run asserts the two headline claims of the allocation-free oracle
//! and aborts loudly if one regresses:
//!
//! 1. servicing breakpoint stops from a cached [`StopPlan`]
//!    (`trace_with_plan`) sustains at least **2× the stops/sec** of the
//!    unplanned reference tracer, across both backends and both debugger
//!    personalities — with the planned and unplanned traces asserted
//!    equal;
//! 2. a triage bisection performs **zero full recompiles for non-trunk
//!    budgets**: every budget probe is derived from the recorded
//!    pass-prefix snapshots by code generation alone (`codegen_only`), and
//!    the only full compile is the unbudgeted endpoint probe.
//!
//! The measured numbers (stops/sec planned vs unplanned, speedup, triage
//! full-compile vs codegen-only counts) are written as a machine-readable
//! JSON report to `BENCH_pr5.json` (override with `HOLES_BENCH_OUT`),
//! which CI uploads as an artifact.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use holes_bench::{pool_campaign, pool_size};

use holes_compiler::{BackendKind, CompilerConfig, Executable, OptLevel, Personality};
use holes_core::json::Json;
use holes_debugger::{trace_unplanned, trace_with_plan, DebuggerKind, StopPlan};
use holes_pipeline::triage::bisect;
use holes_pipeline::Subject;

/// Every (executable, debugger) pair the trace throughput is measured on:
/// both personalities, both backends, both debugger kinds, at -O2.
fn trace_workload(base: u64) -> Vec<(Executable, DebuggerKind)> {
    let mut workload = Vec::new();
    for seed in base..base + pool_size() as u64 {
        let subject = Subject::from_seed(seed).with_fresh_cache();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for backend in BackendKind::ALL {
                let config = CompilerConfig::new(personality, OptLevel::O2).with_backend(backend);
                let exe = subject.compile(&config);
                for kind in [DebuggerKind::GdbLike, DebuggerKind::LldbLike] {
                    workload.push((exe.clone(), kind));
                }
            }
        }
    }
    workload
}

fn oracle_hot_path(c: &mut Criterion) {
    let workload = trace_workload(56_000);
    let repeats = 60u32;

    println!("== trace throughput: planned (stop plans) vs unplanned ==");
    // Planned path, as the artifact cache runs it: the plan is computed
    // once per (executable, debugger) — inside the timed region, amortized
    // over the repeats exactly like a cached plan amortizes over a
    // campaign's oracle queries.
    let started = Instant::now();
    let plans: Vec<StopPlan> = workload
        .iter()
        .map(|(exe, kind)| StopPlan::compute(exe, *kind))
        .collect();
    let mut planned_stops = 0u64;
    for _ in 0..repeats {
        for ((exe, _), plan) in workload.iter().zip(&plans) {
            planned_stops += black_box(trace_with_plan(exe, plan)).stops.len() as u64;
        }
    }
    let planned_elapsed = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut unplanned_stops = 0u64;
    for _ in 0..repeats {
        for (exe, kind) in &workload {
            unplanned_stops += black_box(trace_unplanned(exe, *kind)).stops.len() as u64;
        }
    }
    let unplanned_elapsed = started.elapsed().as_secs_f64();

    assert_eq!(planned_stops, unplanned_stops, "stop counts diverged");
    for ((exe, kind), plan) in workload.iter().zip(&plans) {
        assert_eq!(
            trace_with_plan(exe, plan),
            trace_unplanned(exe, *kind),
            "planned trace diverged from the reference"
        );
    }
    let planned_sps = planned_stops as f64 / planned_elapsed.max(f64::EPSILON);
    let unplanned_sps = unplanned_stops as f64 / unplanned_elapsed.max(f64::EPSILON);
    let speedup = planned_sps / unplanned_sps.max(f64::EPSILON);
    println!(
        "  planned {:.2}M stops/sec, unplanned {:.2}M stops/sec, speedup {speedup:.1}x \
         ({planned_stops} stops over {} executables x {repeats} repeats)",
        planned_sps / 1e6,
        unplanned_sps / 1e6,
        workload.len(),
    );
    assert!(
        speedup >= 2.0,
        "planned tracing should sustain at least 2x the unplanned stops/sec (got {speedup:.2}x)"
    );

    println!("== bisection: full compiles vs codegen-only derivations ==");
    let pool: Vec<Subject> = (56_000..56_000 + (pool_size() as u64).max(4))
        .map(Subject::from_seed)
        .collect();
    let personality = Personality::Lcc;
    let result = pool_campaign(&pool, personality, personality.trunk());
    assert!(
        !result.records.is_empty(),
        "campaign found no violations to bisect"
    );
    let mut full_compiles = 0usize;
    let mut codegen_only = 0usize;
    let mut bisections = 0usize;
    for record in result.records.iter().take(12) {
        let config =
            CompilerConfig::new(personality, record.level).with_version(personality.trunk());
        let fresh = pool[record.subject].with_fresh_cache();
        let outcome = bisect(&fresh, &config, &record.violation);
        assert!(!outcome.culprits.is_empty(), "bisection found no culprit");
        let stats = fresh.cache_stats();
        // The hard claim: zero full recompiles for non-trunk budgets. The
        // only pipeline run a bisection performs is the unbudgeted
        // endpoint probe; every budget probe is codegen-only.
        assert!(
            stats.compiles <= 1,
            "a budget probe ran the full pipeline: {stats:?}"
        );
        assert!(
            stats.codegen_only >= 1,
            "bisection derived nothing from snapshots: {stats:?}"
        );
        full_compiles += stats.compiles;
        codegen_only += stats.codegen_only;
        bisections += 1;
    }
    println!(
        "  {bisections} bisections: {full_compiles} full compiles \
         (at most one unbudgeted endpoint each), {codegen_only} codegen-only derivations"
    );
    assert!(
        full_compiles <= bisections,
        "more full compiles than bisections"
    );
    assert!(codegen_only > full_compiles, "snapshots saved no work");

    let report = Json::Obj(vec![
        ("format".to_owned(), Json::str("holes.bench/v1")),
        ("bench".to_owned(), Json::str("oracle_hot_path")),
        ("trace_pairs".to_owned(), Json::from_usize(workload.len())),
        ("trace_repeats".to_owned(), Json::from_u64(repeats.into())),
        ("stops".to_owned(), Json::from_u64(planned_stops)),
        (
            "planned_stops_per_sec".to_owned(),
            Json::Num(format!("{planned_sps:.0}")),
        ),
        (
            "unplanned_stops_per_sec".to_owned(),
            Json::Num(format!("{unplanned_sps:.0}")),
        ),
        (
            "trace_speedup".to_owned(),
            Json::Num(format!("{speedup:.2}")),
        ),
        ("bisections".to_owned(), Json::from_usize(bisections)),
        (
            "bisect_full_compiles".to_owned(),
            Json::from_usize(full_compiles),
        ),
        (
            "bisect_codegen_only".to_owned(),
            Json::from_usize(codegen_only),
        ),
    ]);
    let out = std::env::var("HOLES_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr5.json".to_owned());
    std::fs::write(&out, report.to_pretty()).expect("writing the bench report");
    println!("  report written to {out}");

    let mut group = c.benchmark_group("oracle_hot_path");
    group.sample_size(10);
    let (exe, kind) = workload[0].clone();
    let plan = StopPlan::compute(&exe, kind);
    group.bench_function("trace_planned", |b| b.iter(|| trace_with_plan(&exe, &plan)));
    group.bench_function("trace_unplanned", |b| {
        b.iter(|| trace_unplanned(&exe, kind))
    });
    group.finish();
}

criterion_group!(benches, oracle_hot_path);
criterion_main!(benches);
