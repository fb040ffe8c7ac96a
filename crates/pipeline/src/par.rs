//! Deterministic scoped-thread parallelism for the embarrassingly parallel
//! outer loops of the pipeline.
//!
//! The campaigns, triage sweeps, and regression studies evaluate independent
//! (subject, configuration) cells; [`par_map`] fans them out over a small
//! scoped worker pool and returns the results **in input order**, so every
//! aggregate built from them (Table 1, the Venn distributions, Table 4, the
//! Figure 4 grid) is byte-identical to a serial run. Work is handed out via
//! an atomic cursor, so uneven cell costs (a subject with many violations
//! next to a clean one) balance automatically.
//!
//! The worker count follows `std::thread::available_parallelism`, capped by
//! the `HOLES_THREADS` environment variable (`HOLES_THREADS=1` forces serial
//! execution, which is occasionally useful for profiling and debugging).
//! Parallelism is **single-level**: a [`par_map`] reached from inside
//! another `par_map`'s worker runs its items inline on that worker, so
//! composed stages (a parallel triage whose flag search is itself a
//! `par_map`, a campaign invoked from a caller's fan-out) never multiply
//! into workers × workers threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while the current thread is a `par_map` worker.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker-pool size used by [`par_map`].
pub fn max_workers() -> usize {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    match requested_workers() {
        Ok(Some(requested)) => requested.clamp(1, available.max(1)),
        _ => available,
    }
}

/// The worker count `HOLES_THREADS` asks for, if it is set. [`max_workers`]
/// ignores a malformed value; the CLI rejects it at start-up, so a typo
/// cannot silently run a single-thread measurement on every core.
///
/// # Errors
///
/// Returns a message naming the value when it is not an unsigned integer.
pub fn requested_workers() -> Result<Option<usize>, String> {
    let Some(raw) = std::env::var_os("HOLES_THREADS") else {
        return Ok(None);
    };
    match raw.to_str().and_then(|text| text.parse().ok()) {
        Some(requested) => Ok(Some(requested)),
        None => Err(format!(
            "HOLES_THREADS: `{}` is not a thread count (expected an unsigned integer, e.g. `1`)",
            raw.to_string_lossy()
        )),
    }
}

/// Apply `f` to every item on a scoped thread pool and return the results in
/// input order. `f` receives the item's index alongside the item.
///
/// # Panics
///
/// Re-raises the panic of any worker after the scope joins.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = max_workers().min(items.len());
    if workers <= 1 || IN_PAR_WORKER.get() {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_PAR_WORKER.set(true);
                    let mut chunk = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        chunk.push((index, f(index, item)));
                    }
                    chunk
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    debug_assert_eq!(indexed.len(), items.len());
    indexed.sort_unstable_by_key(|(index, _)| *index);
    indexed.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = par_map(&items, |index, &item| {
            assert_eq!(index, item);
            item * 2
        });
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[u8], |_, &b| b), Vec::<u8>::new());
        assert_eq!(par_map(&[7u8], |_, &b| b + 1), vec![8]);
    }

    #[test]
    fn matches_serial_map_on_uneven_workloads() {
        let items: Vec<u64> = (0..64).collect();
        let expensive = |_, &n: &u64| {
            // Uneven per-item cost to exercise the work-stealing cursor.
            (0..(n % 7) * 1000).fold(n, |acc, x| acc.wrapping_add(x))
        };
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, n)| expensive(i, n))
            .collect();
        assert_eq!(par_map(&items, expensive), serial);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(max_workers() >= 1);
    }

    #[test]
    fn nested_par_map_runs_inline_on_the_worker() {
        let outer: Vec<usize> = (0..16).collect();
        let results = par_map(&outer, |_, &o| {
            // If this inner call spawned workers, they would be fresh threads
            // with IN_PAR_WORKER unset; assert it stays inline instead.
            let inner: Vec<usize> = (0..8).collect();
            let inner_results = par_map(&inner, |_, &i| {
                assert!(
                    IN_PAR_WORKER.get() || max_workers() == 1,
                    "nested par_map escaped to a new thread"
                );
                o * 100 + i
            });
            inner_results.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..16).map(|o| (0..8).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(results, expected);
    }
}
