//! The end-to-end testing pipeline of the paper: program generation,
//! compilation matrices, debugger tracing, conjecture checking, violation
//! triage, test-case reduction, and the aggregation that regenerates every
//! table and figure of the evaluation.
//!
//! The central type is [`Subject`]: one generated program together with its
//! analyses, compiled and traced on demand for any compiler configuration.
//! On top of it:
//!
//! * [`campaign`] runs the violation campaigns of §5.1/§5.2 (Table 1,
//!   Figures 2 and 3),
//! * [`triage`] pinpoints culprit optimizations via pass bisection (lcc) or
//!   per-flag disabling (ccg), as in §4.3 (Table 2),
//! * [`reduce`] shrinks a violating program while preserving both the
//!   violation and its culprit, as in §4.4,
//! * [`report`] classifies violations by DIE manifestation and debugger
//!   cross-check, as in §5.3 (Table 3),
//! * [`regression`] reruns pools across compiler versions for the §5.4
//!   regression study (Table 4, Figure 4) and the §2 quantitative study
//!   (Figure 1),
//! * [`baseline`] snapshots a run's unique-violation set and diffs later
//!   runs against it (known/new/fixed) — the §5.4 workflow as a CI gate,
//! * [`corpus`] persists distilled, replayable records of known violations
//!   (`holes.corpus/v1`) for fail-fast regression suites.
//!
//! # The evaluation engine: caching and parallelism
//!
//! The oracle the whole pipeline revolves around is *compile + trace +
//! check* — the stage the paper reports at ~30 s per program per conjecture
//! and ~20 min of triage per gcc program. Two mechanisms make our
//! reproduction of it fast:
//!
//! **Artifact caching.** Every [`Subject`] owns an [`ArtifactCache`] keyed
//! by the full compiler configuration (the stable [`Fingerprint`] names a
//! configuration in logs and on disk): executables, debug traces (per
//! debugger personality), and full violation sets are each computed at
//! most once per configuration, and every later oracle query against that
//! configuration is a hash lookup. Clones of a subject share the cache, so
//! triage and reduction re-querying a campaign's configurations get the
//! campaign's artifacts for free. On top of the cache sits a *targeted*
//! oracle, [`Subject::violation_occurs`]: instead of sweeping every
//! conjecture site with `check_all`, it re-checks only the one queried
//! `(conjecture, line, variable)` site against the memoized trace.
//!
//! **Stop plans and pass snapshots.** Two precomputations keep the oracle's
//! *misses* cheap, too. Tracing runs through a cached
//! [`holes_debugger::StopPlan`] — every scope walk, location-list scan, and
//! personality quirk resolved once per (executable, debugger), every stop a
//! plan lookup plus one batched machine read, every name interned as
//! `Arc<str>` ([`CacheStats::plan_hits`]). And a configuration with a pass
//! budget — the shape triage bisection probes dozens of times — is derived
//! from its base pipeline's recorded IR checkpoints by code generation
//! alone ([`holes_compiler::PassSnapshots`],
//! [`CacheStats::codegen_only`]): a bisection runs the optimization
//! pipeline once, not once per probed budget.
//!
//! **Persistence.** The cache can spill to and reload from a [`store`]
//! rooted at a cache directory (`HOLES_CACHE_DIR`, or the CLI's
//! `--cache-dir`): artifacts persist *across processes*, so a range that
//! was campaigned once is free for every later `triage`/`reduce`/`report`
//! invocation — the warm run performs zero compiles and zero traces. For
//! very large ranges, [`stream`] replaces the in-memory shard document
//! with a record-streaming JSON Lines format of bounded memory.
//!
//! **One evaluator, one entry point per operation.** Every campaign
//! operation — [`campaign::run_campaign`] over a prebuilt pool,
//! [`shard::run_shard`], [`stream::run_shard_streaming`],
//! [`stream::resume_shard_streaming`], [`triage::run_triage_shard`], and
//! the monolithic [`triage::triage_campaign`] — takes a
//! [`shard::CampaignSpec`] and a [`FaultPolicy`], returns its faults and
//! engine statistics, and runs on one subject evaluator: bounded parallel
//! chunks, each subject under [`fault::contain`] with the fuel limit riding
//! on it, outcomes delivered in subject order. The classic shard document
//! collects that outcome sequence; the JSON Lines writer streams it. The
//! monolithic triage samples each chunk against its running per-conjecture
//! quota, triages the sample (each violation contained on its own), and
//! drops the chunk, so no operation holds a whole range in memory.
//! [`reduce::reduce`] completes the set, and one validator checks the
//! record/fault sequence of both shard formats.
//!
//! **Deterministic parallelism.** The outer loops — subjects × levels in
//! the campaign evaluator, a chunk's sampled violations in
//! [`triage::triage_campaign`], flags in a gcc-style flag search, (version,
//! level) cells in the regression studies — are embarrassingly parallel and
//! fan out over scoped threads ([`par::par_map`]). Results are reassembled
//! **in input order**, so every rendered table and Venn distribution is
//! byte-identical to a serial run (the test suite holds the campaign to a
//! plain serial loop over the oracle); setting `HOLES_THREADS=1` forces
//! serial execution. Neither results nor engine statistics depend on
//! timing: compilation is a pure function of (program, configuration), and
//! threads that miss the same cache key wait for one build of it instead of
//! racing to duplicate it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod campaign;
pub mod chaos;
pub mod corpus;
pub mod fault;
pub mod reduce;
pub mod regression;
pub mod report;
pub mod serve;
pub mod shard;
pub mod store;
pub mod stream;
pub mod triage;

mod cache;
pub mod par;

pub use cache::{ArtifactCache, CacheStats};
pub use fault::{FaultPolicy, FaultStage, SubjectFault, SubjectOutcome};
pub use holes_compiler::{BackendKind, Fingerprint};
pub use store::{
    install_process_store, ArtifactStore, GcStats, RemoteFetch, RemoteSource, StoreStats,
    SubjectKey,
};

use std::sync::Arc;

use holes_compiler::{compile, CompilerConfig, Executable, OptLevel, PassSnapshots, Personality};
use holes_core::{SiteQuery, Violation};
use holes_debugger::{trace_with_plan_fuel, DebugTrace, DebuggerKind, StopPlan};
use holes_minic::analysis::ProgramAnalysis;
use holes_minic::ast::Program;
use holes_minic::lines::SourceMap;
use holes_progen::{GeneratedProgram, ProgramGenerator};

/// One test subject: a program plus everything needed to check conjectures
/// against any compiler configuration, with all derived artifacts memoized
/// per configuration (see the crate docs).
#[derive(Debug, Clone)]
pub struct Subject {
    /// The program (lines assigned).
    pub program: Program,
    /// Rendered source and line maps.
    pub source: SourceMap,
    /// Static analyses (conjecture sites).
    pub analysis: ProgramAnalysis,
    /// Seed that generated the program (0 for directed programs).
    pub seed: u64,
    /// Memoized executables, traces, and violation sets; shared by clones.
    cache: ArtifactCache,
    /// Step budget override for the virtual machines (see
    /// [`Subject::with_fuel_limit`]); `None` keeps the backend defaults.
    fuel_limit: Option<u64>,
}

impl Subject {
    /// Generate the subject for a seed — the single seed-to-subject mapping
    /// shared by [`subject_pool`], the sharded campaign driver, and the CLI.
    pub fn from_seed(seed: u64) -> Subject {
        Subject::from_generated(ProgramGenerator::from_seed(seed).generate())
    }

    /// Wrap a generated program.
    pub fn from_generated(generated: GeneratedProgram) -> Subject {
        let subject = Subject {
            program: generated.program,
            source: generated.source,
            analysis: generated.analysis,
            seed: generated.seed,
            cache: ArtifactCache::default(),
            fuel_limit: None,
        };
        subject.attach_env_store();
        subject
    }

    /// Wrap a hand-written program (lines are assigned here).
    pub fn from_program(mut program: Program) -> Subject {
        let source = program.assign_lines();
        let analysis = ProgramAnalysis::analyze(&program);
        let subject = Subject {
            program,
            source,
            analysis,
            seed: 0,
            cache: ArtifactCache::default(),
            fuel_limit: None,
        };
        subject.attach_env_store();
        subject
    }

    /// Override the virtual machines' step budget for this subject's traces
    /// (see [`fault::FaultPolicy::fuel_limit`]). With a limit set, a trace
    /// whose machine run ends in a terminal error — fuel exhaustion of a
    /// non-terminating program, or any other machine fault — raises a
    /// contained panic that [`fault::contain`] converts into a
    /// [`fault::SubjectFault`] at the [`fault::FaultStage::Trace`] stage.
    /// With `None` (the default), the backend's default budget applies and
    /// terminal errors keep the historical behavior of silently truncating
    /// the trace.
    pub fn with_fuel_limit(mut self, fuel_limit: Option<u64>) -> Subject {
        self.fuel_limit = fuel_limit;
        self
    }

    /// Bind this subject's cache to a persistent [`ArtifactStore`] as its
    /// write-through second level (see [`store`]). The subject's stable
    /// on-disk identity is derived from its seed and rendered source. At
    /// most one store takes effect per cache; later calls are no-ops.
    pub fn attach_store(&self, store: std::sync::Arc<ArtifactStore>) {
        let key = SubjectKey::derive(self.seed, &self.source.text);
        self.cache.attach_store(store, key);
    }

    /// Attach the process-wide store named by `HOLES_CACHE_DIR`, if any.
    fn attach_env_store(&self) {
        if let Some(store) = ArtifactStore::from_env() {
            self.attach_store(store);
        }
    }

    /// The persistent store this subject's cache is bound to, if any.
    pub fn store(&self) -> Option<&std::sync::Arc<ArtifactStore>> {
        self.cache.store()
    }

    /// Compile under a configuration (memoized; the returned artifact is
    /// shared with the cache). Budgeted configurations whose base pipeline
    /// has been (or can be) recorded are derived by code generation alone
    /// — see [`holes_compiler::PassSnapshots`] and
    /// [`CacheStats::codegen_only`].
    pub fn compile_shared(&self, config: &CompilerConfig) -> Arc<Executable> {
        fault::set_stage(fault::FaultStage::Compile);
        self.cache.executable(
            config,
            || self.derive_from_snapshots(config),
            || compile(&self.program, config),
        )
    }

    /// The snapshot codegen-only path: a configuration with a pass budget
    /// is a strict prefix of its budget-free base pipeline, so its
    /// executable falls out of the base's recorded IR checkpoints without
    /// re-running a single pass. Returns `None` for unbudgeted
    /// configurations (they *are* the base).
    fn derive_from_snapshots(&self, config: &CompilerConfig) -> Option<Executable> {
        config.pass_budget?;
        let mut base = config.clone();
        base.pass_budget = None;
        let snapshots = self
            .cache
            .snapshots(&base, || PassSnapshots::record(&self.program, &base));
        Some(snapshots.codegen_budget(&self.program, config))
    }

    /// Compile under a configuration.
    pub fn compile(&self, config: &CompilerConfig) -> Executable {
        (*self.compile_shared(config)).clone()
    }

    /// Compile and trace with a specific debugger (memoized). Tracing runs
    /// through the executable's cached [`holes_debugger::StopPlan`]: each
    /// stop is a plan lookup plus a batched machine read, counted by
    /// [`CacheStats::plan_hits`].
    pub fn trace_shared(&self, config: &CompilerConfig, kind: DebuggerKind) -> Arc<DebugTrace> {
        self.cache.trace(config, kind, || {
            let executable = self.compile_shared(config);
            let plan = self
                .cache
                .stop_plan(config, kind, || StopPlan::compute(&executable, kind));
            fault::set_stage(fault::FaultStage::Trace);
            let (trace, error) = trace_with_plan_fuel(&executable, &plan, self.fuel_limit);
            if let (Some(error), Some(_)) = (&error, self.fuel_limit) {
                // Under an explicit fuel limit a terminal machine error is a
                // containable fault, not a silently truncated trace.
                std::panic::panic_any(format!("machine error while tracing: {error}"));
            }
            self.cache.note_plan_hits(trace.stops.len());
            trace
        })
    }

    /// Compile and trace with the native debugger of the configuration's
    /// personality.
    pub fn trace(&self, config: &CompilerConfig) -> DebugTrace {
        (*self.trace_shared(config, DebuggerKind::native_for(config.personality))).clone()
    }

    /// Check all conjectures under a configuration with a specific debugger
    /// (memoized).
    pub fn violations_shared(
        &self,
        config: &CompilerConfig,
        kind: DebuggerKind,
    ) -> Arc<Vec<Violation>> {
        self.cache.violations(config, kind, || {
            let trace = self.trace_shared(config, kind);
            fault::set_stage(fault::FaultStage::Check);
            holes_core::check_all(&self.program, &self.analysis, &self.source, &trace)
        })
    }

    /// Check all conjectures under a configuration, using the native
    /// debugger.
    pub fn violations(&self, config: &CompilerConfig) -> Vec<Violation> {
        let kind = DebuggerKind::native_for(config.personality);
        (*self.violations_shared(config, kind)).clone()
    }

    /// Check whether a *specific* violation (same conjecture, line, variable)
    /// occurs under a configuration — the oracle used by triage and
    /// reduction. Checks only the queried site against the memoized trace,
    /// not every site of the program.
    pub fn violation_occurs(&self, config: &CompilerConfig, violation: &Violation) -> bool {
        self.query(config, &SiteQuery::for_violation(violation))
    }

    /// Run an arbitrary targeted oracle query (see [`SiteQuery`]) against
    /// the memoized native-debugger trace.
    pub fn query(&self, config: &CompilerConfig, query: &SiteQuery<'_>) -> bool {
        let kind = DebuggerKind::native_for(config.personality);
        let trace = self.trace_shared(config, kind);
        holes_core::query_violation(&self.program, &self.analysis, &self.source, &trace, query)
    }

    /// A snapshot of the subject's cache activity (compiles, traces, checks
    /// performed; lookups answered from the cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop the subject's memoized artifacts (used by benchmarks that must
    /// measure cold-cache behaviour).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// A copy of this subject with its own empty cache, detached from this
    /// subject's memoized artifacts and counters. The fresh cache has **no
    /// persistent store** attached either (so cold-cache measurements stay
    /// cold); call [`Subject::attach_store`] on the copy to rebind one.
    pub fn with_fresh_cache(&self) -> Subject {
        Subject {
            program: self.program.clone(),
            source: self.source.clone(),
            analysis: self.analysis.clone(),
            seed: self.seed,
            cache: ArtifactCache::default(),
            fuel_limit: self.fuel_limit,
        }
    }
}

/// Generate a pool of subjects from consecutive seeds.
///
/// Generation is seed-deterministic and per-seed independent, so the pool
/// is produced in parallel and returned in seed order — identical to the
/// serial [`holes_progen::generate_pool`] path.
pub fn subject_pool(base_seed: u64, count: usize) -> Vec<Subject> {
    let seeds: Vec<u64> = (0..count as u64)
        .map(|i| base_seed.wrapping_add(i))
        .collect();
    par::par_map(&seeds, |_, &seed| Subject::from_seed(seed))
}

/// The levels the paper evaluates for a personality (excluding `-O0`).
pub fn evaluated_levels(personality: Personality) -> Vec<OptLevel> {
    personality.levels().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subjects_compile_and_trace() {
        let subjects = subject_pool(900, 2);
        assert_eq!(subjects.len(), 2);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        for subject in &subjects {
            let trace = subject.trace(&config);
            assert!(trace.lines_reached() > 0);
        }
    }

    #[test]
    fn violation_oracle_is_consistent() {
        let subjects = subject_pool(901, 4);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        for subject in subjects {
            for violation in subject.violations(&config) {
                assert!(subject.violation_occurs(&config, &violation));
            }
        }
    }

    #[test]
    fn repeat_queries_are_answered_from_the_cache() {
        let subjects = subject_pool(902, 1);
        let subject = &subjects[0];
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let first = subject.violations(&config);
        let after_first = subject.cache_stats();
        assert_eq!(after_first.compiles, 1);
        assert_eq!(after_first.traces, 1);
        assert_eq!(after_first.checks, 1);
        let second = subject.violations(&config);
        let after_second = subject.cache_stats();
        assert_eq!(first, second);
        assert_eq!(after_second.compiles, 1, "second call recompiled");
        assert_eq!(after_second.traces, 1, "second call retraced");
        assert_eq!(after_second.checks, 1, "second call rechecked");
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn clones_share_the_cache_but_fresh_caches_are_cold() {
        let subjects = subject_pool(903, 1);
        let subject = &subjects[0];
        let config = CompilerConfig::new(Personality::Lcc, OptLevel::O2);
        let _ = subject.violations(&config);
        let clone = subject.clone();
        let _ = clone.violations(&config);
        assert_eq!(
            clone.cache_stats().compiles,
            1,
            "clone missed the shared cache"
        );
        let fresh = subject.with_fresh_cache();
        assert_eq!(fresh.cache_stats(), CacheStats::default());
        let _ = fresh.violations(&config);
        assert_eq!(fresh.cache_stats().compiles, 1);
        assert_eq!(subject.cache_stats().compiles, 1, "fresh cache leaked back");
    }

    #[test]
    fn distinct_configurations_do_not_alias_in_the_cache() {
        let subjects = subject_pool(904, 1);
        let subject = &subjects[0];
        let o2 = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        for budget in 0..=o2.pass_schedule().len() {
            let _ = subject.violations(&o2.clone().with_pass_budget(budget));
        }
        let stats = subject.cache_stats();
        // Every budget is a distinct cache entry — but all of them are
        // derived from one recorded pipeline by code generation alone, so
        // no full compile runs at all.
        assert_eq!(stats.codegen_only, o2.pass_schedule().len() + 1);
        assert_eq!(stats.compiles, 0);
        // Each budget's trace is serviced through its stop plan.
        assert!(stats.plan_hits > 0);
    }

    #[test]
    fn snapshot_derived_executables_match_from_scratch_budget_compiles() {
        // The cache-level counterpart of the compiler's snapshot tests:
        // a budgeted compile through `Subject` (codegen-only) must equal
        // the plain `compile()` of the same configuration, structurally.
        let subjects = subject_pool(906, 2);
        let config = CompilerConfig::new(Personality::Lcc, OptLevel::O2);
        for subject in &subjects {
            for budget in [0, 3, config.pass_schedule().len()] {
                let budgeted = config.clone().with_pass_budget(budget);
                let derived = subject.compile_shared(&budgeted);
                assert_eq!(
                    *derived,
                    compile(&subject.program, &budgeted),
                    "budget {budget}"
                );
            }
            let stats = subject.cache_stats();
            assert_eq!(stats.compiles, 0, "a budgeted compile ran the pipeline");
            assert_eq!(stats.codegen_only, 3);
        }
    }

    #[test]
    fn targeted_oracle_agrees_with_the_full_sweep() {
        let subjects = subject_pool(905, 4);
        for subject in &subjects {
            for personality in [Personality::Ccg, Personality::Lcc] {
                for &level in personality.levels() {
                    let config = CompilerConfig::new(personality, level);
                    for violation in subject.violations(&config).iter() {
                        assert!(subject.violation_occurs(&config, violation));
                    }
                    // A variable no program contains never violates.
                    let bogus = Violation {
                        variable: "no_such_variable".into(),
                        ..subject
                            .violations(&config)
                            .first()
                            .cloned()
                            .unwrap_or(Violation {
                                conjecture: holes_core::Conjecture::C1,
                                line: 1,
                                variable: "".into(),
                                function: subject.program.main(),
                                observed: holes_core::Observed::NotVisible,
                            })
                    };
                    assert!(!subject.violation_occurs(&config, &bogus));
                }
            }
        }
    }
}
