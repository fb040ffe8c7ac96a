//! The artifact cache: memoized compilation, tracing, and conjecture
//! checking per compiler configuration.
//!
//! The oracle behind every campaign, triage, and reduction step is
//! "compile + trace + check". Triage revisits the *same* configuration many
//! times (the full-pipeline endpoint of a bisection, the base configuration
//! of a flag search) and different pipeline stages revisit configurations
//! other stages already evaluated. The paper pays ~30 s per program per
//! conjecture for each of those queries; we make every revisit free.
//!
//! Each [`crate::Subject`] owns one [`ArtifactCache`], shared by all clones
//! of the subject. Artifacts are keyed by the full [`CompilerConfig`] (plus
//! the debugger personality for traces and violation sets) — never by a
//! lossy hash, so distinct configurations can never alias; the stable
//! [`holes_compiler::Fingerprint`] exists for display and for on-disk keys.
//! Artifacts are stored behind [`Arc`], so concurrent readers on the
//! parallel campaign paths share one copy. All maps are guarded by plain
//! mutexes held only to find or insert a key's **in-flight cell** — the
//! expensive work (compiling, tracing) fills that cell outside the map
//! lock, so parallel misses on *different* configurations never serialize.
//! A second thread that misses the *same* key waits on that one cell
//! instead of building it again, so every key is built exactly once and
//! the activity counters do not depend on thread timing. Builders only
//! wait on cells further down the order violations → trace → prefix trace
//! or executable → snapshots (a trace's stop plan is filled after its
//! executable), so no two threads can wait on each other. A build that
//! panics leaves its cell empty, and the next lookup builds it afresh — so
//! a fault that [`crate::fault::contain`] caught leaves no poisoned cell.
//!
//! The cache holds everything it has computed for the lifetime of the
//! subject — artifacts in this simulator are kilobytes, and the evaluation
//! loops revisit configurations heavily, so retention is the right default.
//! Long-lived subjects probing unbounded configuration streams should call
//! [`ArtifactCache::clear`] (via `Subject::clear_cache`) at phase
//! boundaries.
//!
//! A cache may additionally be bound to a persistent [`ArtifactStore`]
//! ([`ArtifactCache::attach_store`]) as a **write-through second level**:
//! in-memory misses first try to load the artifact from disk, and freshly
//! computed artifacts are spilled back, so later *processes* revisiting the
//! same configurations skip the work entirely (see [`crate::store`]).
//!
//! Three auxiliary maps make the oracle's remaining work cheap. **Stop
//! plans** ([`ArtifactCache::stop_plan`]) hold the per-(configuration,
//! debugger) [`StopPlan`]s the tracer services breakpoint stops from —
//! resolved once, reused by every later trace of that executable. **Pass
//! snapshots** ([`ArtifactCache::snapshots`]) hold the recorded IR
//! checkpoints of a base configuration's pipeline run, from which any
//! pass-budget sibling is derived by code generation alone — so a triage
//! bisection probing a dozen budgets runs the optimization pipeline once.
//! **Prefix traces** ([`ArtifactCache::prefix_trace`]) hold one trace per
//! (base configuration, canonical budget, debugger): budgets whose passes
//! left the IR unchanged share one derivation, one stop plan and one
//! debugger run, and the derived executable and plan are dropped once
//! traced. Budgeted executables and traces never reach the store: triage
//! keeps its answers there instead, one envelope per configuration,
//! written once when the subject's cache is dropped
//! ([`ArtifactCache::triage_answer`]).
//! [`CacheStats::codegen_only`] (distinct prefixes derived),
//! [`CacheStats::traces`] (debugger runs; a budget sharing a prefix counts
//! a hit) and [`CacheStats::plan_hits`] make the savings observable.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use holes_compiler::{CompilerConfig, Executable, PassSnapshots};
use holes_core::Violation;
use holes_debugger::{DebugTrace, DebuggerKind, StopPlan};

use crate::stats::{CacheStats, Counter, Counters};
use crate::store::{ArtifactStore, SubjectKey};
use crate::triage::{Site, TriageAnswers, TriageMethod};

/// Memoized artifacts for one subject across compiler configurations.
///
/// Cloning is shallow: clones share the same storage, which is what
/// [`crate::Subject`]'s `Clone` wants — a cloned subject re-uses everything
/// already computed for the original.
#[derive(Clone, Default)]
pub struct ArtifactCache {
    inner: Arc<CacheInner>,
}

/// One artifact slot: filled once, by the first thread to miss its key.
type Cell<V> = Arc<OnceLock<Arc<V>>>;

/// One shared, mutex-guarded artifact map.
type Shard<K, V> = Mutex<HashMap<K, Cell<V>>>;

/// The artifact stored under `key` if its cell is filled, else the cell
/// (inserted empty on a first miss) for the caller to fill outside the map
/// lock.
fn lookup<K: std::hash::Hash + Eq, V>(map: &Shard<K, V>, key: K) -> Result<Arc<V>, Cell<V>> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    let cell = map.entry(key).or_default();
    match cell.get() {
        Some(found) => Ok(Arc::clone(found)),
        None => Err(Arc::clone(cell)),
    }
}

/// The persistent second level a cache may be bound to: a shared store plus
/// the owning subject's stable on-disk identity.
struct StoreBinding {
    store: Arc<ArtifactStore>,
    subject: SubjectKey,
}

#[derive(Default)]
struct CacheInner {
    executables: Shard<CompilerConfig, Executable>,
    traces: Shard<(CompilerConfig, DebuggerKind), DebugTrace>,
    violations: Shard<(CompilerConfig, DebuggerKind), Vec<Violation>>,
    /// Precomputed stop plans, one per (configuration, debugger) — the
    /// per-executable resolution [`holes_debugger::trace_with_plan`] runs
    /// stops through.
    plans: Shard<(CompilerConfig, DebuggerKind), StopPlan>,
    /// Recorded pass-prefix checkpoints, keyed by the **budget-free** base
    /// configuration; any budgeted sibling derives from them.
    snapshots: Shard<CompilerConfig, PassSnapshots>,
    /// Traces of derived pass prefixes, keyed by (budget-free base
    /// configuration, canonical budget, debugger); see
    /// [`ArtifactCache::prefix_trace`].
    prefixes: Shard<(CompilerConfig, usize, DebuggerKind), DebugTrace>,
    /// Triage answer sets, one per configuration (under its native
    /// debugger), loaded from the store on first use; see
    /// [`ArtifactCache::triage_answer`].
    answers: Shard<CompilerConfig, Mutex<AnswerSet>>,
    counters: Counters<CacheStats>,
    store: OnceLock<StoreBinding>,
}

/// One configuration's triage answers, and whether it gained answers the
/// store's copy lacks.
#[derive(Default)]
struct AnswerSet {
    answers: TriageAnswers,
    unpublished: bool,
}

impl CacheInner {
    /// Write each of `sets` that gained answers to the store: one atomic
    /// rewrite per configuration, under the set's lock.
    fn publish(&self, sets: HashMap<CompilerConfig, Cell<Mutex<AnswerSet>>>) {
        let Some(b) = self.store.get() else {
            return;
        };
        for (config, cell) in sets {
            let Some(set) = cell.get() else {
                continue;
            };
            let mut set = set.lock().unwrap_or_else(PoisonError::into_inner);
            if set.unpublished {
                b.store
                    .save_triage_answers(b.subject, &config, &set.answers);
                set.unpublished = false;
            }
        }
    }
}

/// A subject's cache is dropped when its triage is done: its new answers
/// reach the store then, once per configuration.
impl Drop for CacheInner {
    fn drop(&mut self) {
        let sets = std::mem::take(
            self.answers
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.publish(sets);
    }
}

/// Look up `key`; on an in-memory miss try the persistent store (`load`),
/// then a cheap derivation (`derive`), and only then build — all inside
/// the key's cell, outside the map lock — writing the filled artifact
/// through to the store (`save`). The counters record work actually
/// performed: the thread that fills the cell counts a miss (the map's
/// `miss` counter) or a disk load; every other lookup of the key, including
/// one that waited for the fill, counts a hit. A derivation counts its own
/// work: it may hand back an artifact another cell already holds.
#[allow(clippy::too_many_arguments)] // counters + staged closures; a param struct would obscure more than it helps
fn memoize<K: std::hash::Hash + Eq, V>(
    map: &Shard<K, V>,
    key: K,
    counters: &Counters<CacheStats>,
    miss: Counter<CacheStats>,
    load: impl FnOnce() -> Option<V>,
    derive: impl FnOnce() -> Option<Arc<V>>,
    save: impl FnOnce(&V),
    build: impl FnOnce() -> V,
) -> Arc<V> {
    let cell = match lookup(map, key) {
        Ok(found) => {
            counters.bump(|s| &mut s.hits);
            return found;
        }
        Err(cell) => cell,
    };
    let mut filled_here = false;
    let value = cell.get_or_init(|| {
        filled_here = true;
        if let Some(loaded) = load() {
            counters.bump(|s| &mut s.disk_loads);
            return Arc::new(loaded);
        }
        let filled = derive().unwrap_or_else(|| {
            let built = build();
            counters.bump(miss);
            Arc::new(built)
        });
        save(&filled);
        filled
    });
    if !filled_here {
        counters.bump(|s| &mut s.hits);
    }
    Arc::clone(value)
}

/// Whether a configuration's executable and traces are written through to
/// the store: only campaign configurations are, not triage's bisection
/// budgets or flag-search probes, whose answers the store keeps instead.
fn persists(config: &CompilerConfig) -> bool {
    config.pass_budget.is_none() && config.disabled_passes.is_empty()
}

impl ArtifactCache {
    /// Bind this cache (and every clone sharing its storage) to a persistent
    /// store as its write-through second level. At most one binding takes
    /// effect per cache; later calls are no-ops.
    pub fn attach_store(&self, store: Arc<ArtifactStore>, subject: SubjectKey) {
        let _ = self.inner.store.set(StoreBinding { store, subject });
    }

    /// The store this cache is bound to, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.inner.store.get().map(|binding| &binding.store)
    }

    /// The executable for a configuration, built on a miss. An unbudgeted
    /// configuration is compiled (`compile`, counted by
    /// [`CacheStats::compiles`]) after consulting the persistent store,
    /// when one is attached. A budgeted one is derived from its base's
    /// pass snapshots (`derive`, counted by [`CacheStats::codegen_only`])
    /// and never touches the store: a derivation costs less than an
    /// envelope round trip. A flag-search probe (a configuration with
    /// `disabled_passes`) loads from the store but is not written to it:
    /// the store keeps the search's answer instead (see [`crate::triage`]).
    pub fn executable(
        &self,
        config: &CompilerConfig,
        derive: impl FnOnce() -> Executable,
        compile: impl FnOnce() -> Executable,
    ) -> Arc<Executable> {
        let budgeted = config.pass_budget.is_some();
        let binding = self.inner.store.get().filter(|_| !budgeted);
        memoize(
            &self.inner.executables,
            config.clone(),
            &self.inner.counters,
            if budgeted {
                |s| &mut s.codegen_only
            } else {
                |s| &mut s.compiles
            },
            || binding.and_then(|b| b.store.load_executable(b.subject, config)),
            || None,
            |built| {
                if let Some(b) = binding.filter(|_| persists(config)) {
                    b.store.save_executable(b.subject, built);
                }
            },
            || if budgeted { derive() } else { compile() },
        )
    }

    /// The debug trace for a configuration and debugger, after consulting
    /// the persistent store (when one is attached). On a miss `derive` may
    /// serve a trace another cell holds — `Subject` passes its pass-prefix
    /// path for budgeted configurations ([`ArtifactCache::prefix_trace`])
    /// — and `run` traces otherwise. An unbudgeted configuration's trace is
    /// written through to the store under its own key, unless it is a
    /// flag-search probe. A budgeted one or a probe is not: only triage
    /// reads it, and the store keeps triage's answer instead (see
    /// [`crate::triage`]). Such traces that an earlier build wrote still
    /// load.
    pub fn trace(
        &self,
        config: &CompilerConfig,
        kind: DebuggerKind,
        derive: impl FnOnce() -> Option<Arc<DebugTrace>>,
        run: impl FnOnce() -> DebugTrace,
    ) -> Arc<DebugTrace> {
        let binding = self.inner.store.get();
        memoize(
            &self.inner.traces,
            (config.clone(), kind),
            &self.inner.counters,
            |s| &mut s.traces,
            || binding.and_then(|b| b.store.load_trace(b.subject, config, kind)),
            derive,
            |built| {
                if let Some(b) = binding.filter(|_| persists(config)) {
                    b.store.save_trace(b.subject, config, kind, built);
                }
            },
            run,
        )
    }

    /// The trace of one derived pass prefix: one cell per (budget-free
    /// `base` configuration, `canonical` budget, debugger), shared by every
    /// budget whose checkpoint equals the canonical one (see
    /// [`PassSnapshots::canonical_budget`]). Filling it runs `derive` —
    /// code generation, the stop plan and the trace, whose executable and
    /// plan are dropped afterwards — and counts one
    /// [`CacheStats::codegen_only`] derivation and one trace; a budget that
    /// finds the cell filled counts a hit. Prefix cells live in memory
    /// only.
    pub fn prefix_trace(
        &self,
        base: &CompilerConfig,
        canonical: usize,
        kind: DebuggerKind,
        derive: impl FnOnce() -> DebugTrace,
    ) -> Arc<DebugTrace> {
        debug_assert!(base.pass_budget.is_none(), "prefix keys are budget-free");
        let counters = &self.inner.counters;
        memoize(
            &self.inner.prefixes,
            (base.clone(), canonical, kind),
            counters,
            |s| &mut s.traces,
            || None,
            || None,
            |_| (),
            || {
                let trace = derive();
                counters.bump(|s| &mut s.codegen_only);
                trace
            },
        )
    }

    /// The full violation set for a configuration and debugger, checking on
    /// a miss (after consulting the persistent store, when one is attached).
    pub fn violations(
        &self,
        config: &CompilerConfig,
        kind: DebuggerKind,
        check: impl FnOnce() -> Vec<Violation>,
    ) -> Arc<Vec<Violation>> {
        let binding = self.inner.store.get();
        memoize(
            &self.inner.violations,
            (config.clone(), kind),
            &self.inner.counters,
            |s| &mut s.checks,
            || binding.and_then(|b| b.store.load_violations(b.subject, config, kind)),
            || None,
            |built| {
                if let Some(b) = binding {
                    b.store.save_violations(b.subject, config, kind, built);
                }
            },
            check,
        )
    }

    /// The stop plan for a configuration and debugger, computing it on a
    /// miss. Plans live next to traces (same key) but carry no counters of
    /// their own: the per-stop reuse they enable is what
    /// [`CacheStats::plan_hits`] counts.
    pub fn stop_plan(
        &self,
        config: &CompilerConfig,
        kind: DebuggerKind,
        compute: impl FnOnce() -> StopPlan,
    ) -> Arc<StopPlan> {
        get_or_insert(&self.inner.plans, (config.clone(), kind), compute)
    }

    /// The recorded pass-prefix checkpoints for a **budget-free** base
    /// configuration, recording the pipeline once on a miss.
    pub fn snapshots(
        &self,
        base: &CompilerConfig,
        record: impl FnOnce() -> PassSnapshots,
    ) -> Arc<PassSnapshots> {
        debug_assert!(base.pass_budget.is_none(), "snapshot keys are budget-free");
        get_or_insert(&self.inner.snapshots, base.clone(), record)
    }

    /// The triage answer for `violation` under `config`, searched with the
    /// configuration's own method (bisection for lcc, flag search for ccg).
    /// With no store bound this is `search()`. With one, the answer comes
    /// from the configuration's answer set, loaded from the store once per
    /// configuration (one `store:` load or miss, not a
    /// [`CacheStats::disk_loads`]). When the set lacks the site, the
    /// per-site answer an earlier build wrote is read, else `search` runs,
    /// outside the set's lock; the answer is inserted into the set, and a
    /// search that panics inserts nothing. A set that gained answers is
    /// written to the store once, as one atomic rewrite, when the cache is
    /// dropped or cleared — not once per answer, which would rewrite a set
    /// of `n` sites `n` times.
    pub(crate) fn triage_answer(
        &self,
        config: &CompilerConfig,
        violation: &Violation,
        search: impl FnOnce() -> Vec<String>,
    ) -> Vec<String> {
        let Some(b) = self.inner.store.get() else {
            return search();
        };
        let set = get_or_insert(&self.inner.answers, config.clone(), || {
            Mutex::new(AnswerSet {
                answers: b
                    .store
                    .load_triage_answers(b.subject, config)
                    .unwrap_or_default(),
                unpublished: false,
            })
        });
        let lock = || set.lock().unwrap_or_else(PoisonError::into_inner);
        let site = Site::of(violation);
        if let Some(culprits) = lock().answers.get(&site) {
            return culprits.clone();
        }
        let method = TriageMethod::of(config.personality);
        let culprits = b
            .store
            .load_site_answer(b.subject, config, violation, method)
            .map_or_else(search, |outcome| outcome.culprits);
        let mut set = lock();
        set.answers.insert(site, culprits.clone());
        set.unpublished = true;
        culprits
    }

    /// Record breakpoint stops that were answered from a precomputed stop
    /// plan (see [`CacheStats::plan_hits`]).
    pub fn note_plan_hits(&self, stops: usize) {
        self.inner.counters.add(|s| &mut s.plan_hits, stops);
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.counters.get()
    }

    /// Drop every memoized artifact (counters are kept; they describe work
    /// performed, not storage), first writing new triage answers to the
    /// store.
    pub fn clear(&self) {
        fn empty<K, V>(map: &Shard<K, V>) {
            map.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
        let inner = &*self.inner;
        empty(&inner.executables);
        empty(&inner.traces);
        empty(&inner.violations);
        empty(&inner.plans);
        empty(&inner.snapshots);
        empty(&inner.prefixes);
        let sets =
            std::mem::take(&mut *inner.answers.lock().unwrap_or_else(PoisonError::into_inner));
        inner.publish(sets);
    }
}

/// Plain counter-free get-or-insert for the auxiliary maps (plans,
/// snapshots), built once per key like [`memoize`].
fn get_or_insert<K: std::hash::Hash + Eq, V>(
    map: &Shard<K, V>,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    match lookup(map, key) {
        Ok(found) => found,
        Err(cell) => Arc::clone(cell.get_or_init(|| Arc::new(build()))),
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_compiler::{OptLevel, Personality};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn key() -> (CompilerConfig, DebuggerKind) {
        let config = CompilerConfig::new(Personality::Lcc, OptLevel::O2);
        let kind = DebuggerKind::native_for(config.personality);
        (config, kind)
    }

    #[test]
    fn racing_misses_on_one_key_build_it_once() {
        let cache = ArtifactCache::default();
        let (config, kind) = key();
        let builds = AtomicUsize::new(0);
        let threads = 8;
        let start = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    start.wait();
                    cache.violations(&config, kind, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Hold the build open so every other thread misses
                        // while it is in flight.
                        std::thread::sleep(Duration::from_millis(20));
                        Vec::new()
                    });
                });
            }
        });
        assert_eq!(builds.into_inner(), 1);
        let stats = cache.stats();
        assert_eq!((stats.checks, stats.hits), (1, threads - 1), "{stats:?}");
    }

    #[test]
    fn concurrent_answers_of_one_configuration_all_reach_the_stored_set() {
        let dir = std::env::temp_dir().join(format!("holes-cache-answers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).expect("store opens"));
        let cache = ArtifactCache::default();
        cache.attach_store(Arc::clone(&store), SubjectKey(7));
        let (config, _) = key();
        let violation = |line: u32| Violation {
            conjecture: holes_core::Conjecture::C1,
            line,
            variable: "x".into(),
            function: holes_minic::ast::FunctionId(0),
            observed: holes_core::Observed::NotVisible,
        };
        let threads = 4;
        // Every search is in flight before any answer is written.
        let searching = Barrier::new(threads);
        std::thread::scope(|scope| {
            for line in 0..threads as u32 {
                let (cache, config, searching) = (&cache, &config, &searching);
                scope.spawn(move || {
                    cache.triage_answer(config, &violation(line), || {
                        searching.wait();
                        vec![format!("pass{line}")]
                    })
                });
            }
        });
        assert_eq!(store.stats().writes, 0, "answers wait for the cache's drop");
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "answers count no cache work"
        );
        drop(cache);
        let stored = store
            .load_triage_answers(SubjectKey(7), &config)
            .expect("the set was written");
        let _ = std::fs::remove_dir_all(&dir);
        let expected: TriageAnswers = (0..threads as u32)
            .map(|line| (Site::of(&violation(line)), vec![format!("pass{line}")]))
            .collect();
        assert_eq!(stored, expected);
        assert_eq!(store.stats().writes, 1, "one write for the configuration");
    }

    #[test]
    fn clearing_the_cache_writes_its_new_answers_once() {
        let dir = std::env::temp_dir().join(format!("holes-cache-clear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).expect("store opens"));
        let cache = ArtifactCache::default();
        cache.attach_store(Arc::clone(&store), SubjectKey(8));
        let (config, _) = key();
        let violation = Violation {
            conjecture: holes_core::Conjecture::C2,
            line: 3,
            variable: "y".into(),
            function: holes_minic::ast::FunctionId(0),
            observed: holes_core::Observed::NotVisible,
        };
        let answer = || vec!["dce".to_owned()];
        assert_eq!(cache.triage_answer(&config, &violation, answer), answer());
        cache.clear();
        assert_eq!(store.stats().writes, 1, "clearing writes the new answer");
        // The cleared cache reloads the set and answers without a search.
        let reloaded = cache.triage_answer(&config, &violation, || unreachable!());
        assert_eq!(reloaded, answer());
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(store.stats().writes, 1, "an unchanged set is not rewritten");
    }

    #[test]
    fn a_panicking_build_leaves_the_key_to_be_built_again() {
        let cache = ArtifactCache::default();
        let (config, kind) = key();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.violations(&config, kind, || panic!("build failed"))
        }));
        assert!(panicked.is_err());
        let built = cache.violations(&config, kind, Vec::new);
        assert!(built.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.checks, stats.hits), (1, 0), "{stats:?}");
    }
}
