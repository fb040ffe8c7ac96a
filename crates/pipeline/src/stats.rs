//! The evaluation engine's activity counters: everything `--stats` prints,
//! defined, counted and rendered in one place.
//!
//! There is one plain struct per printed line:
//!
//! | line      | struct                               | counted by                 |
//! |-----------|--------------------------------------|----------------------------|
//! | `stats:`  | [`CacheStats`]                       | each subject's [`crate::ArtifactCache`] |
//! | `store:`  | [`StoreStats`]                       | the [`crate::ArtifactStore`] |
//! | `remote:` | [`RemoteStats`] ([`StoreStats::remote`]) | the store's [`crate::RemoteSource`] layer |
//!
//! Each struct's `Display` renders the text after its line's prefix, so a
//! counter is written down as a field, its doc and its label, and nowhere
//! else. The cache and the store hold their struct behind one lock
//! (`Counters`): the struct is both the storage and the snapshot. Every
//! counter is bumped at most once per artifact lookup, store operation or
//! trace (a trace's stop count is added in one call), never per VM step, so
//! the lock is taken far less often than the work it counts.

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cache activity counters, taken at one instant (see
/// [`crate::ArtifactCache::stats`]): the `stats:` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full compilations actually performed (executable-map misses the
    /// whole pipeline had to run for).
    pub compiles: usize,
    /// Debugger runs actually performed: trace-map misses, except that a
    /// budget sharing an already traced pass prefix counts a hit instead.
    pub traces: usize,
    /// Full conjecture sweeps actually performed (violation-map misses).
    pub checks: usize,
    /// Lookups answered from the cache across all three maps.
    pub hits: usize,
    /// In-memory misses answered by the persistent store instead of being
    /// recomputed (see [`crate::store`]); zero when no store is attached.
    pub disk_loads: usize,
    /// Distinct pass prefixes derived by **code generation alone**: the
    /// requested configuration was a pass-budget prefix of a recorded
    /// pipeline run, so its executable came from an IR checkpoint instead
    /// of re-running the pipeline (see [`holes_compiler::PassSnapshots`]).
    /// Budgets whose checkpoints are equal share one derivation; a
    /// budgeted executable requested directly counts one of its own.
    /// Proves a bisection performs no full recompiles for non-trunk
    /// budgets.
    pub codegen_only: usize,
    /// Breakpoint stops answered from a precomputed
    /// [`holes_debugger::StopPlan`] — a plan lookup plus machine reads —
    /// instead of a per-stop DIE traversal. Proves the tracing oracle ran
    /// on the allocation-free hot path.
    pub plan_hits: usize,
}

impl CacheStats {
    /// Fold another snapshot into this one (used to aggregate per-subject
    /// stats over a whole campaign pool).
    pub fn absorb(&mut self, other: CacheStats) {
        self.compiles += other.compiles;
        self.traces += other.traces;
        self.checks += other.checks;
        self.hits += other.hits;
        self.disk_loads += other.disk_loads;
        self.codegen_only += other.codegen_only;
        self.plan_hits += other.plan_hits;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiles {}, traces {}, checks {}, hits {}, disk loads {}, codegen-only {}, \
             plan stops {}",
            self.compiles,
            self.traces,
            self.checks,
            self.hits,
            self.disk_loads,
            self.codegen_only,
            self.plan_hits,
        )
    }
}

/// Store activity counters, taken at one instant (see
/// [`crate::ArtifactStore::stats`]): the `store:` line, plus the `remote:`
/// line in [`StoreStats::remote`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts successfully loaded from disk.
    pub loads: usize,
    /// Lookups whose file did not exist.
    pub misses: usize,
    /// Files that existed but were rejected (truncated, corrupted, wrong
    /// format, checksum or configuration mismatch) and recomputed instead.
    pub rejected: usize,
    /// Artifacts written (or rewritten) to disk.
    pub writes: usize,
    /// Transient I/O failures that were retried (each retry counts once).
    pub retries: usize,
    /// Rejected files moved aside into `<root>/quarantine/` for post-mortem
    /// inspection instead of being overwritten in place.
    pub quarantined: usize,
    /// Operations abandoned after exhausting their retries; each one
    /// degrades that lookup or write to memory-only behavior.
    pub store_errors: usize,
    /// The attached remote's counters; all zero when none is attached.
    pub remote: RemoteStats,
}

impl fmt::Display for StoreStats {
    /// The counters only: the `store:` line's leading `dir` is the store's
    /// root, not a counter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loads {}, misses {}, writes {}, rejected {}, retries {}, quarantined {}, \
             store errors {}",
            self.loads,
            self.misses,
            self.writes,
            self.rejected,
            self.retries,
            self.quarantined,
            self.store_errors,
        )
    }
}

/// Remote-layer counters of a store layered over a
/// [`crate::RemoteSource`]: the `remote:` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Local misses answered by a validated fetch from the remote (each one
    /// also written through to local disk).
    pub hits: usize,
    /// Local misses the remote also missed.
    pub misses: usize,
    /// Remote envelopes that failed the checksum/identity gates and were
    /// quarantined instead of trusted (the artifact is recomputed).
    pub rejected: usize,
    /// Remote operations skipped or failed because the remote was
    /// unavailable (transport error after retries, or an open circuit
    /// breaker) — the store degraded to local-only behavior for them.
    pub degraded: usize,
}

impl fmt::Display for RemoteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {}, misses {}, rejected {}, degraded {}",
            self.hits, self.misses, self.rejected, self.degraded,
        )
    }
}

/// Selects one counter of a stats struct `S`.
pub(crate) type Counter<S> = fn(&mut S) -> &mut usize;

/// A stats struct shared between threads behind one lock: bumped a counter
/// at a time, read out whole.
#[derive(Debug, Default)]
pub(crate) struct Counters<S>(Mutex<S>);

impl<S: Copy> Counters<S> {
    /// Add `n` to the selected counter.
    pub(crate) fn add(&self, counter: Counter<S>, n: usize) {
        *counter(&mut self.lock()) += n;
    }

    /// Add one to the selected counter.
    pub(crate) fn bump(&self, counter: Counter<S>) {
        self.add(counter, 1);
    }

    /// Every counter, taken at one instant.
    pub(crate) fn get(&self) -> S {
        *self.lock()
    }

    /// Every update is one `+=`, so a panic elsewhere cannot leave the
    /// counters half-written and a poisoned lock is still sound to use.
    fn lock(&self) -> MutexGuard<'_, S> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
