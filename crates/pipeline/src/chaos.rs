//! The chaos plan: the four fault-injection environment variables, parsed
//! and checked in one place, once per process.
//!
//! The chaos tests and the CI smoke hold that injected faults never change
//! a result byte. They inject them through four variables:
//!
//! | Variable | Value | Effect |
//! |---|---|---|
//! | `HOLES_FAULT_SEEDS` | `7,23` | these seeds' evaluations panic and are contained as fault records |
//! | `HOLES_STORE_CHAOS` | `N` | every `N`-th file operation of the environment's artifact store fails |
//! | `HOLES_SERVE_CHAOS` | `abort:N` | the process aborts (no unwinding, no flushes) right after its `N`-th streamed shard line, like `kill -9` mid-shard |
//! | | `preempt:N` | the worker's `N`-th lease runs without heartbeats, so the coordinator revokes it under a live worker and must discard its late result |
//! | `HOLES_CACHE_CHAOS` | `drop:N`, `corrupt:N`, `delay:N` | the coordinator drops, bit-flips or stalls its `N`-th cache reply |
//!
//! Every count is positive, and each `mode:N` event fires exactly once. An
//! unset or blank variable injects nothing. Any other value is an error
//! that names the variable and the bad entry: a typo'd schedule that
//! silently injected nothing would make a red chaos run look green.
//!
//! [`ChaosPlan::from_env`] is the only code that reads these variables. The
//! `holes` CLI calls it at start-up, exits 1 on an error, and
//! [`install`]s the plan; the pipeline's fault seams read [`installed`],
//! which is the empty plan in a process that installed none.

use std::collections::BTreeSet;
use std::ffi::OsString;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const FAULT_SEEDS_ENV: &str = "HOLES_FAULT_SEEDS";
const STORE_CHAOS_ENV: &str = "HOLES_STORE_CHAOS";
const SERVE_CHAOS_ENV: &str = "HOLES_SERVE_CHAOS";
const CACHE_CHAOS_ENV: &str = "HOLES_CACHE_CHAOS";

/// What `HOLES_SERVE_CHAOS` does to a campaign process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Abort after the `N`-th line written to a streaming shard file.
    Abort,
    /// Run the `N`-th lease a worker takes without heartbeats.
    Preempt,
}

/// What `HOLES_CACHE_CHAOS` does to the `N`-th `holes.cache-rpc/v1` reply
/// the coordinator sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Close the connection without replying — the client sees a torn
    /// exchange and must retry or degrade.
    Drop,
    /// Flip one bit of the reply line — either the line no longer parses
    /// (a transport-level failure) or it parses into an envelope the
    /// store's validation gates must quarantine. Both end in a recompute,
    /// never a wrong byte.
    Corrupt,
    /// Hold the reply past the client's read timeout before sending it.
    Delay,
}

/// A counted chaos event: a mode that fires on the `N`-th
/// [`fire`](Counted::fire) call, and on no other. Constructable directly so
/// in-process fleet tests can inject chaos without the environment.
#[derive(Debug)]
pub struct Counted<M> {
    /// What happens when the event fires.
    pub mode: M,
    /// Calls left until the event fires; stays at 0 once it has.
    remaining: AtomicUsize,
}

impl<M: Copy> Counted<M> {
    /// An event firing `mode` on the `count`-th call (1-based; a count of 0
    /// fires on the first call).
    pub fn new(mode: M, count: usize) -> Counted<M> {
        Counted {
            mode,
            remaining: AtomicUsize::new(count.max(1)),
        }
    }

    /// Count one occurrence; the mode on the `N`-th call only.
    pub fn fire(&self) -> Option<M> {
        let before = self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        (before == Ok(1)).then_some(self.mode)
    }
}

/// The parsed values of the four chaos variables. The default plan injects
/// nothing.
#[derive(Debug, Default)]
pub struct ChaosPlan {
    /// Seeds whose evaluation panics on purpose (`HOLES_FAULT_SEEDS`).
    pub fault_seeds: BTreeSet<u64>,
    /// Fail every `N`-th store file operation (`HOLES_STORE_CHAOS`).
    pub store_period: Option<NonZeroUsize>,
    /// The serve event (`HOLES_SERVE_CHAOS`).
    pub serve: Option<Counted<ServeMode>>,
    /// The cache-reply event (`HOLES_CACHE_CHAOS`), shared with the
    /// coordinator's reply threads.
    pub cache: Option<Arc<Counted<CacheMode>>>,
}

impl ChaosPlan {
    /// Parse the four chaos variables from the process environment.
    ///
    /// # Errors
    ///
    /// Returns `HOLES_X: <what is wrong>` for the first malformed variable,
    /// naming the bad entry.
    pub fn from_env() -> Result<ChaosPlan, String> {
        ChaosPlan::from_vars(|name| std::env::var_os(name))
    }

    fn from_vars(var: impl Fn(&str) -> Option<OsString>) -> Result<ChaosPlan, String> {
        Ok(ChaosPlan {
            fault_seeds: field(&var, FAULT_SEEDS_ENV, parse_seed_list)?.unwrap_or_default(),
            store_period: field(&var, STORE_CHAOS_ENV, parse_count)?,
            serve: field(&var, SERVE_CHAOS_ENV, |raw| {
                parse_counted(
                    raw,
                    &[("abort", ServeMode::Abort), ("preempt", ServeMode::Preempt)],
                )
            })?,
            cache: field(&var, CACHE_CHAOS_ENV, |raw| {
                parse_counted(
                    raw,
                    &[
                        ("drop", CacheMode::Drop),
                        ("corrupt", CacheMode::Corrupt),
                        ("delay", CacheMode::Delay),
                    ],
                )
            })?
            .map(Arc::new),
        })
    }
}

/// Parse variable `name` with `parse`: `None` when it is unset or blank,
/// an error prefixed with the variable's name when it is malformed. No
/// grammar accepts the replacement character, so a value that is not UTF-8
/// is malformed too.
fn field<T>(
    var: &impl Fn(&str) -> Option<OsString>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let raw = var(name).unwrap_or_default();
    let text = raw.to_string_lossy();
    let text = text.trim();
    if text.is_empty() {
        return Ok(None);
    }
    parse(text)
        .map(Some)
        .map_err(|error| format!("{name}: {error}"))
}

/// A comma-separated seed list. Empty entries — a trailing comma, doubled
/// separators — are tolerated.
fn parse_seed_list(list: &str) -> Result<BTreeSet<u64>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(|entry| {
            entry.parse().map_err(|_| {
                format!(
                    "`{entry}` is not a seed (expected a comma-separated list \
                     of unsigned integers, e.g. `7,23`)"
                )
            })
        })
        .collect()
}

fn parse_count(count: &str) -> Result<NonZeroUsize, String> {
    count
        .parse()
        .map_err(|_| format!("`{count}` is not a positive event count"))
}

/// The shared `mode:N` grammar of the serve and cache events.
fn parse_counted<M: Copy>(raw: &str, modes: &[(&str, M)]) -> Result<Counted<M>, String> {
    let (name, count) = raw.split_once(':').unwrap_or((raw, ""));
    let Some(&(_, mode)) = modes.iter().find(|(known, _)| *known == name) else {
        let known: Vec<String> = modes
            .iter()
            .map(|(known, _)| format!("`{known}:N`"))
            .collect();
        return Err(format!(
            "`{raw}` is not a chaos plan (expected {})",
            known.join(", ")
        ));
    };
    Ok(Counted::new(mode, parse_count(count)?.get()))
}

static INSTALLED: OnceLock<ChaosPlan> = OnceLock::new();

/// Make `plan` the one every fault seam of this process reads.
///
/// # Panics
///
/// When a plan is already in effect: installed before, or read through
/// [`installed`] before any was installed. Either means work began before
/// the plan was settled.
pub fn install(plan: ChaosPlan) {
    assert!(
        INSTALLED.set(plan).is_ok(),
        "the chaos plan is installed once, before it is read"
    );
}

/// The plan [`install`]ed for this process; the empty plan if none was.
pub fn installed() -> &'static ChaosPlan {
    INSTALLED.get_or_init(ChaosPlan::default)
}

/// Called by the streaming shard writer after every emitted line; under
/// `abort:N` the N-th call hard-kills the process (no unwinding, no
/// flushes), leaving a torn shard file behind.
pub(crate) fn on_line_emitted() {
    if let Some(event) = &installed().serve {
        if event.mode == ServeMode::Abort && event.fire().is_some() {
            std::process::abort();
        }
    }
}

/// Consulted by the worker once per lease: `true` when this lease is the
/// `preempt:N` victim that must run without heartbeats and submit a late
/// (discardable) result.
pub(crate) fn preempt_this_lease() -> bool {
    installed()
        .serve
        .as_ref()
        .is_some_and(|event| event.mode == ServeMode::Preempt && event.fire().is_some())
}

/// The plan parsed from exactly one variable set to `value`.
#[cfg(test)]
pub(crate) fn plan_of(name: &str, value: &str) -> Result<ChaosPlan, String> {
    ChaosPlan::from_vars(|var| (var == name).then(|| value.into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How often `event` fires over six calls, and on which.
    fn firings<M: Copy>(event: &Counted<M>) -> Vec<usize> {
        (1..=6).filter(|_| event.fire().is_some()).collect()
    }

    #[test]
    fn every_grammar_parses_rejects_typos_and_fires_once() {
        let unset = ChaosPlan::from_vars(|_| None).expect("no variables");
        assert!(unset.fault_seeds.is_empty() && unset.store_period.is_none());
        assert!(unset.serve.is_none() && unset.cache.is_none());

        // (variable, value, what the plan holds, or the bad entry an error names)
        let cases: &[(&str, &str, Result<&str, &str>)] = &[
            (FAULT_SEEDS_ENV, "3, 17,29,", Ok("seeds [3, 17, 29]")),
            (FAULT_SEEDS_ENV, " ", Ok("seeds []")),
            (FAULT_SEEDS_ENV, "3,oops,17", Err("`oops` is not a seed")),
            (FAULT_SEEDS_ENV, "3;17", Err("`3;17`")),
            (FAULT_SEEDS_ENV, "-1", Err("`-1`")),
            (FAULT_SEEDS_ENV, "1.5", Err("`1.5`")),
            (STORE_CHAOS_ENV, "3", Ok("store 3")),
            (STORE_CHAOS_ENV, "", Ok("store -")),
            (
                STORE_CHAOS_ENV,
                "0",
                Err("`0` is not a positive event count"),
            ),
            (STORE_CHAOS_ENV, "3x", Err("`3x`")),
            (STORE_CHAOS_ENV, "-2", Err("`-2`")),
            (SERVE_CHAOS_ENV, "abort:3", Ok("serve Abort fires [3]")),
            (SERVE_CHAOS_ENV, "preempt:1", Ok("serve Preempt fires [1]")),
            (SERVE_CHAOS_ENV, "  ", Ok("serve -")),
            (SERVE_CHAOS_ENV, "abort", Err("`` is not a positive")),
            (SERVE_CHAOS_ENV, "abort:", Err("`` is not a positive")),
            (SERVE_CHAOS_ENV, "abort:0", Err("`0`")),
            (SERVE_CHAOS_ENV, "abort:-2", Err("`-2`")),
            (SERVE_CHAOS_ENV, "abort:x", Err("`x`")),
            (
                SERVE_CHAOS_ENV,
                "abrt:5",
                Err("`abrt:5` is not a chaos plan"),
            ),
            (SERVE_CHAOS_ENV, "4", Err("`4` is not a chaos plan")),
            (CACHE_CHAOS_ENV, "drop:1", Ok("cache Drop fires [1]")),
            (CACHE_CHAOS_ENV, "corrupt:3", Ok("cache Corrupt fires [3]")),
            (CACHE_CHAOS_ENV, "delay:2", Ok("cache Delay fires [2]")),
            (CACHE_CHAOS_ENV, "drop", Err("`` is not a positive")),
            (CACHE_CHAOS_ENV, "corrupt:-1", Err("`-1`")),
            (
                CACHE_CHAOS_ENV,
                "corupt:3",
                Err("`corupt:3` is not a chaos"),
            ),
            (CACHE_CHAOS_ENV, "abort:3", Err("`abort:3`")),
        ];
        for &(name, value, expected) in cases {
            let parsed = plan_of(name, value).map(|plan| {
                let summary = match name {
                    FAULT_SEEDS_ENV => format!("seeds {:?}", Vec::from_iter(&plan.fault_seeds)),
                    STORE_CHAOS_ENV => match plan.store_period {
                        Some(period) => format!("store {period}"),
                        None => "store -".to_owned(),
                    },
                    SERVE_CHAOS_ENV => match &plan.serve {
                        Some(event) => format!("serve {:?} fires {:?}", event.mode, firings(event)),
                        None => "serve -".to_owned(),
                    },
                    _ => match &plan.cache {
                        Some(event) => format!("cache {:?} fires {:?}", event.mode, firings(event)),
                        None => "cache -".to_owned(),
                    },
                };
                // A plan holds only the variable that was set.
                let set = usize::from(!plan.fault_seeds.is_empty())
                    + usize::from(plan.store_period.is_some())
                    + usize::from(plan.serve.is_some())
                    + usize::from(plan.cache.is_some());
                assert!(set <= 1, "{name}={value} set {set} fields");
                summary
            });
            match (parsed, expected) {
                (Ok(summary), Ok(want)) => assert_eq!(summary, want, "{name}={value}"),
                (Err(message), Err(entry)) => {
                    assert!(
                        message.starts_with(&format!("{name}: ")) && message.contains(entry),
                        "{name}={value}: `{message}` should name {entry}"
                    );
                }
                (got, want) => panic!("{name}={value}: got {got:?}, want {want:?}"),
            }
        }

        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let message = ChaosPlan::from_vars(|var| {
                (var == STORE_CHAOS_ENV).then(|| OsString::from_vec(vec![b'3', 0xff]))
            })
            .expect_err("non-UTF-8 value");
            assert!(message.starts_with("HOLES_STORE_CHAOS: "), "{message}");
        }
        assert_eq!(firings(&Counted::new(CacheMode::Drop, 0)), [1]);
    }
}
