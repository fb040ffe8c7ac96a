//! Subject-level fault containment: panics and runaway programs become
//! structured, reportable outcomes instead of crashing a campaign.
//!
//! A campaign over a million seeds is only trustworthy if one pathological
//! subject cannot kill the whole process and silently truncate a result
//! table. This module provides the containment layer the campaign, triage,
//! and reduction drivers thread a [`FaultPolicy`] through:
//!
//! * every subject evaluation runs under [`std::panic::catch_unwind`], so a
//!   panic anywhere in generation, compilation, tracing, or checking is
//!   caught and converted into a [`SubjectFault`] naming the failing
//!   [`FaultStage`];
//! * a deterministic **fuel limit** ([`FaultPolicy::fuel_limit`]) bounds
//!   the virtual machines' step budgets, so a non-terminating program stops
//!   at exactly the same step on every run and faults instead of hanging;
//! * faulted subjects flow into campaign results, shard files, JSON Lines
//!   streams, and `holes report` as first-class records — they are counted,
//!   never dropped.
//!
//! The default policy ([`FaultPolicy::default`]) reproduces the historical
//! behavior byte for byte: no fuel override, no retries, and — since a
//! defect-free evaluation never panics — no observable change on the
//! no-fault path.

use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// How subject evaluation faults are contained and retried.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPolicy {
    /// Step budget for the virtual machines, overriding the default fuel.
    /// `None` keeps each backend's default budget and the historical
    /// behavior of silently truncating an out-of-fuel trace; `Some(fuel)`
    /// turns budget exhaustion (and any other terminal machine error) into
    /// a contained [`SubjectFault`] at the [`FaultStage::Trace`] stage.
    pub fuel_limit: Option<u64>,
    /// How many times a faulted evaluation is retried before the fault is
    /// recorded. Deterministic faults fault again; retries exist for
    /// transient causes (injected chaos, flaky I/O reached through a
    /// store-backed cache).
    pub max_retries: u32,
    /// Sleep between retries, multiplied by the attempt number.
    pub backoff: Duration,
    /// Seeds whose evaluation is made to panic on purpose — the fault
    /// injection seam the chaos tests and the CI smoke job drive through
    /// the [`crate::chaos::ChaosPlan`]'s fault seeds. Empty in normal
    /// operation.
    pub inject_seeds: BTreeSet<u64>,
}

impl FaultPolicy {
    /// Whether this policy can produce faults at all (so drivers on the
    /// default policy skip nothing and change nothing).
    pub fn is_default(&self) -> bool {
        *self == FaultPolicy::default()
    }
}

/// The pipeline stage a contained fault was attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultStage {
    /// Program generation (seed to subject).
    Generate,
    /// Compilation (or snapshot-derived code generation).
    Compile,
    /// Debugger tracing, including fuel exhaustion of the virtual machine.
    Trace,
    /// Conjecture checking against the trace.
    Check,
}

impl FaultStage {
    /// Every stage, in pipeline order.
    pub const ALL: [FaultStage; 4] = [
        FaultStage::Generate,
        FaultStage::Compile,
        FaultStage::Trace,
        FaultStage::Check,
    ];

    /// The stable spelling used in fault records (`generate`, `compile`,
    /// `trace`, `check`).
    pub fn name(self) -> &'static str {
        match self {
            FaultStage::Generate => "generate",
            FaultStage::Compile => "compile",
            FaultStage::Trace => "trace",
            FaultStage::Check => "check",
        }
    }
}

impl std::fmt::Display for FaultStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FaultStage {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultStage, String> {
        FaultStage::ALL
            .into_iter()
            .find(|stage| stage.name() == s)
            .ok_or_else(|| format!("unknown fault stage `{s}`"))
    }
}

/// One contained subject failure: the structured record a panic or a fuel
/// exhaustion becomes instead of crashing the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectFault {
    /// Seed of the subject that faulted.
    pub seed: u64,
    /// Global subject index in the campaign range.
    pub subject: usize,
    /// The pipeline stage the fault was attributed to.
    pub stage: FaultStage,
    /// Human-readable cause (the panic message or machine error).
    pub cause: String,
}

impl std::fmt::Display for SubjectFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "subject {} (seed {}) faulted during {}: {}",
            self.subject, self.seed, self.stage, self.cause
        )
    }
}

/// The outcome of one contained subject evaluation: either the subject's
/// violation records, or the fault that replaced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubjectOutcome<T> {
    /// The evaluation completed normally.
    Completed(T),
    /// The evaluation faulted; the fault carries seed, stage, and cause.
    Faulted(SubjectFault),
}

thread_local! {
    static STAGE: std::cell::Cell<FaultStage> = const { std::cell::Cell::new(FaultStage::Generate) };
    static CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Mark the pipeline stage the current thread is executing, for fault
/// attribution. Cheap (one thread-local store); called by the [`Subject`]
/// oracle methods as evaluation progresses.
///
/// [`Subject`]: crate::Subject
pub(crate) fn set_stage(stage: FaultStage) {
    STAGE.with(|cell| cell.set(stage));
}

/// Install (once, process-wide) a panic hook that stays silent for panics
/// the containment layer is about to catch, and delegates to the previous
/// hook for everything else — so contained faults do not spray backtraces
/// over campaign progress output.
fn silence_contained_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Extract a human-readable cause from a caught panic payload.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<String>() {
        return message.clone();
    }
    if let Some(message) = payload.downcast_ref::<&str>() {
        return (*message).to_owned();
    }
    "panic with a non-string payload".to_owned()
}

/// Run one subject evaluation under containment: catch panics (including
/// the fuel-exhaustion panic the tracing layer raises under a
/// [`FaultPolicy::fuel_limit`]), attribute them to the stage the thread
/// last entered, and retry per the policy. Returns the evaluation's value
/// or the final attempt's fault.
pub fn contain<T>(
    policy: &FaultPolicy,
    seed: u64,
    subject: usize,
    evaluate: impl Fn() -> T,
) -> SubjectOutcome<T> {
    silence_contained_panics();
    let mut fault = None;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            std::thread::sleep(policy.backoff * attempt);
        }
        set_stage(FaultStage::Generate);
        CONTAINED.with(|cell| cell.set(true));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if policy.inject_seeds.contains(&seed) {
                panic!("injected fault (HOLES_FAULT_SEEDS)");
            }
            evaluate()
        }));
        CONTAINED.with(|cell| cell.set(false));
        match caught {
            Ok(value) => return SubjectOutcome::Completed(value),
            Err(payload) => {
                fault = Some(SubjectFault {
                    seed,
                    subject,
                    stage: STAGE.with(std::cell::Cell::get),
                    cause: panic_cause(payload),
                });
            }
        }
    }
    SubjectOutcome::Faulted(fault.expect("at least one attempt ran"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_inert_and_completions_pass_through() {
        let policy = FaultPolicy::default();
        assert!(policy.is_default());
        assert_eq!(policy.fuel_limit, None);
        match contain(&policy, 7, 7, || 42) {
            SubjectOutcome::Completed(value) => assert_eq!(value, 42),
            SubjectOutcome::Faulted(fault) => panic!("spurious fault: {fault}"),
        }
    }

    #[test]
    fn panics_become_faults_with_stage_and_cause() {
        let policy = FaultPolicy::default();
        let outcome = contain(&policy, 3, 1, || {
            set_stage(FaultStage::Check);
            panic!("boom at {}", 9);
        });
        match outcome {
            SubjectOutcome::Completed(()) => panic!("panic escaped containment"),
            SubjectOutcome::Faulted(fault) => {
                assert_eq!(fault.seed, 3);
                assert_eq!(fault.subject, 1);
                assert_eq!(fault.stage, FaultStage::Check);
                assert_eq!(fault.cause, "boom at 9");
                assert!(fault.to_string().contains("during check"));
            }
        }
    }

    #[test]
    fn injected_seeds_fault_at_the_generate_stage() {
        let policy = FaultPolicy {
            inject_seeds: [11u64].into_iter().collect(),
            ..FaultPolicy::default()
        };
        assert!(!policy.is_default());
        match contain(&policy, 11, 0, || unreachable!("must be injected first")) {
            SubjectOutcome::Faulted(fault) => {
                assert_eq!(fault.stage, FaultStage::Generate);
                assert!(fault.cause.contains("HOLES_FAULT_SEEDS"), "{}", fault.cause);
            }
            SubjectOutcome::Completed(()) => panic!("injection did not fire"),
        }
        // Other seeds are untouched.
        assert!(matches!(
            contain(&policy, 12, 1, || 5),
            SubjectOutcome::Completed(5)
        ));
    }

    #[test]
    fn retries_rerun_the_evaluation_and_can_recover() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let policy = FaultPolicy {
            max_retries: 2,
            ..FaultPolicy::default()
        };
        let outcome = contain(&policy, 0, 0, || {
            if attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            "ok"
        });
        assert!(matches!(outcome, SubjectOutcome::Completed("ok")));
        assert_eq!(attempts.load(Ordering::SeqCst), 3);

        // A deterministic fault exhausts the retries and is recorded once.
        let exhausted = AtomicU32::new(0);
        let outcome = contain(&policy, 0, 0, || {
            exhausted.fetch_add(1, Ordering::SeqCst);
            panic!("permanent");
        });
        assert!(matches!(outcome, SubjectOutcome::Faulted(_)));
        assert_eq!(exhausted.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in FaultStage::ALL {
            assert_eq!(stage.name().parse::<FaultStage>(), Ok(stage));
        }
        assert!("link".parse::<FaultStage>().is_err());
    }

    #[test]
    fn env_policy_parses_seed_lists() {
        let plan = crate::chaos::plan_of("HOLES_FAULT_SEEDS", "3, 17,29,").expect("valid list");
        let policy = FaultPolicy {
            inject_seeds: plan.fault_seeds.clone(),
            ..FaultPolicy::default()
        };
        assert_eq!(policy.inject_seeds, [3u64, 17, 29].into_iter().collect());
        for seed in [3, 17, 29] {
            assert!(matches!(
                contain(&policy, seed, 0, || ()),
                SubjectOutcome::Faulted(_)
            ));
        }
        assert!(matches!(
            contain(&policy, 4, 0, || 4),
            SubjectOutcome::Completed(4)
        ));
        let unset = crate::chaos::plan_of("HOLES_FAULT_SEEDS", "").expect("blank list");
        assert_eq!(unset.fault_seeds, BTreeSet::new());
    }

    #[test]
    fn seed_list_typos_are_rejected_with_the_offending_entry() {
        for bad in ["x", "3,x,17", "3;17", "-1", "1.5"] {
            let err = crate::chaos::plan_of("HOLES_FAULT_SEEDS", bad).unwrap_err();
            assert!(
                err.starts_with("HOLES_FAULT_SEEDS: ")
                    && err.contains("is not a seed")
                    && err.contains("comma-separated"),
                "`{bad}` -> {err}"
            );
        }
        // The message names the entry, not the whole list.
        let err = crate::chaos::plan_of("HOLES_FAULT_SEEDS", "3,oops,17").unwrap_err();
        assert!(err.contains("`oops`") && !err.contains("3,oops"), "{err}");
    }

    #[test]
    fn zero_retries_means_exactly_one_attempt_and_no_backoff_sleep() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let policy = FaultPolicy {
            max_retries: 0,
            // A backoff that would stall the test if any retry slept.
            backoff: Duration::from_secs(3600),
            ..FaultPolicy::default()
        };
        let started = std::time::Instant::now();
        let outcome = contain(&policy, 5, 2, || {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("first and only attempt");
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        assert!(started.elapsed() < Duration::from_secs(60), "backoff slept");
        match outcome {
            SubjectOutcome::Faulted(fault) => assert_eq!(fault.cause, "first and only attempt"),
            SubjectOutcome::Completed(()) => panic!("panic escaped containment"),
        }
    }

    #[test]
    fn fuel_exhaustion_on_the_final_retry_records_the_last_attempt() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Every attempt exhausts its fuel (the trace-stage panic a
        // fuel-limited VM raises); the recorded fault must be the *final*
        // attempt's, after exactly max_retries + 1 attempts.
        let attempts = AtomicU32::new(0);
        let policy = FaultPolicy {
            fuel_limit: Some(10),
            max_retries: 2,
            ..FaultPolicy::default()
        };
        let outcome = contain(&policy, 9, 4, || {
            let attempt = attempts.fetch_add(1, Ordering::SeqCst);
            set_stage(FaultStage::Trace);
            panic!("fuel exhausted after 10 steps (attempt {attempt})");
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        match outcome {
            SubjectOutcome::Faulted(fault) => {
                assert_eq!(fault.stage, FaultStage::Trace);
                assert_eq!(fault.cause, "fuel exhausted after 10 steps (attempt 2)");
            }
            SubjectOutcome::Completed(()) => panic!("exhaustion escaped containment"),
        }
    }
}
