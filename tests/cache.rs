//! Acceptance tests for the fleet-wide artifact cache
//! (`holes.cache-rpc/v1`): byte-identity of the merged fleet stream under
//! every cache chaos schedule, zero compiles over a warm shared cache,
//! graceful local-only degradation when the cache server is unreachable,
//! and the proptest non-trust guarantee — a corrupted envelope served over
//! the cache RPC is rejected, quarantined, and recomputed, never believed.
//!
//! The fleet tests run a real TCP coordinator plus in-process `run_worker`
//! threads. Worker subjects bind their store through the process-wide
//! override ([`install_process_store`]), which is global state, so every
//! test in this file serializes on one mutex and uninstalls on exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use holes_compiler::{BackendKind, CompilerConfig, Fingerprint, OptLevel, Personality};
use holes_core::json::Json;
use holes_core::{Observed, Violation};
use holes_debugger::DebuggerKind;
use holes_pipeline::chaos::{CacheMode, Counted};
use holes_pipeline::corpus::CorpusEntry;
use holes_pipeline::fault::FaultPolicy;
use holes_pipeline::serve::{
    run_worker, Coordinator, LeaseConfig, RemoteStore, ServeConfig, WorkerConfig, WorkerOutcome,
};
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::store::{
    install_process_store, ArtifactStore, RemoteFetch, RemoteSource, SubjectKey,
};
use holes_pipeline::stream::run_shard_streaming;
use holes_pipeline::triage::{bisect, triage, triage_campaign, Site, TriageAnswers, TriageRun};
use holes_pipeline::{CacheStats, Subject};
use holes_progen::SeedRange;

/// Serializes every test here: the process-wide store override and the
/// worker threads' environment are shared process state.
static FLEET_LOCK: Mutex<()> = Mutex::new(());

fn spec(start: u64, len: u64) -> CampaignSpec {
    CampaignSpec::new(
        Personality::Ccg,
        Personality::Ccg.trunk(),
        SeedRange::new(start, start + len),
    )
}

/// The single-process stream the fleet must reproduce, evaluated with no
/// store attached (pure in-memory caching).
fn reference_stream(campaign: &CampaignSpec) -> Vec<u8> {
    install_process_store(None);
    let mut out = Vec::new();
    run_shard_streaming(campaign, &mut out, &FaultPolicy::default()).expect("reference run");
    out
}

/// A self-deleting scratch directory/file.
struct Scratch {
    path: PathBuf,
    dir: bool,
}

impl Scratch {
    fn file(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("holes-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Scratch { path, dir: false }
    }

    fn dir(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("holes-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::create_dir_all(&path);
        Scratch { path, dir: true }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.dir {
            let _ = std::fs::remove_dir_all(&self.path);
        } else {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Run a coordinator (optionally serving `cache` under `cache_chaos`) and
/// `workers` in-process worker threads whose subjects all bind to the
/// already-installed process store. Returns the merged campaign bytes and
/// each worker's outcome.
fn run_fleet(
    campaign: &CampaignSpec,
    cache: Option<Arc<ArtifactStore>>,
    cache_chaos: Option<Arc<Counted<CacheMode>>>,
    tag: &str,
    workers: usize,
) -> (Vec<u8>, Vec<WorkerOutcome>) {
    let journal = Scratch::file(&format!("{tag}-journal"));
    let config = ServeConfig {
        lease_shards: 4,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache,
        cache_chaos,
        quiet: true,
    };
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let drain = std::sync::atomic::AtomicBool::new(false);
    let (report, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let addr = addr.clone();
                let tag = tag.to_owned();
                scope.spawn(move || {
                    let work_dir = Scratch::dir(&format!("{tag}-w{i}"));
                    run_worker(&WorkerConfig {
                        connect: addr,
                        work_dir: work_dir.path.clone(),
                        policy: FaultPolicy::default(),
                        worker_id: format!("w{i}"),
                        patience: Duration::from_secs(10),
                        quiet: true,
                    })
                    .expect("worker runs")
                })
            })
            .collect();
        let report = coordinator
            .run(campaign, &config, &drain)
            .expect("coordinator runs");
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("worker joins"))
            .collect();
        (report, outcomes)
    });
    assert!(report.complete(), "every shard resolved");
    let mut merged = Vec::new();
    report.write_merged(&mut merged).expect("merge writes");
    (merged, outcomes)
}

/// Byte-identity under every cache chaos schedule: dropping, corrupting,
/// or stalling cache replies only ever costs retries or recomputes — the
/// merged fleet stream never moves a byte.
///
/// The clean schedule runs first against a cold coordinator store and
/// proves cold-fleet write-through (its puts warm the coordinator); the
/// chaos schedules then run cold workers over that warm store, so the
/// mutated replies are cache **hits** — the nastiest case, a corrupted
/// artifact envelope offered to the validation gates.
#[test]
fn fleet_stream_is_byte_identical_under_every_cache_chaos_schedule() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = spec(4710, 4);
    let reference = reference_stream(&campaign);

    let coord_dir = Scratch::dir("chaos-coord");
    let coord_store =
        Arc::new(ArtifactStore::open(&coord_dir.path).expect("coordinator store opens"));
    let schedules: [(&str, Option<(CacheMode, usize)>); 5] = [
        ("clean", None),
        ("drop", Some((CacheMode::Drop, 1))),
        ("corrupt1", Some((CacheMode::Corrupt, 1))),
        ("corrupt3", Some((CacheMode::Corrupt, 3))),
        ("delay", Some((CacheMode::Delay, 1))),
    ];
    for (tag, schedule) in schedules {
        let worker_dir = Scratch::dir(&format!("{tag}-local"));
        let chaos = schedule.map(|(mode, count)| Arc::new(Counted::new(mode, count)));

        let (merged, _) = run_fleet_with_remote(
            &campaign,
            Some(Arc::clone(&coord_store)),
            chaos,
            tag,
            &worker_dir,
        );
        assert_eq!(
            String::from_utf8(merged).expect("UTF-8"),
            String::from_utf8(reference.clone()).expect("UTF-8"),
            "schedule `{tag}` changed campaign bytes"
        );
        if schedule.is_none() {
            let stats = coord_store.stats();
            assert!(
                stats.writes > 0,
                "write-through puts warmed the coordinator store: {stats:?}"
            );
        }
        install_process_store(None);
    }
}

/// [`run_fleet`] for the common case where the worker store's remote tier
/// points at the coordinator being started (the address exists only after
/// bind, so the store is assembled inside).
fn run_fleet_with_remote(
    campaign: &CampaignSpec,
    cache: Option<Arc<ArtifactStore>>,
    cache_chaos: Option<Arc<Counted<CacheMode>>>,
    tag: &str,
    worker_dir: &Scratch,
) -> (Vec<u8>, Vec<WorkerOutcome>) {
    let journal = Scratch::file(&format!("{tag}-journal"));
    let config = ServeConfig {
        lease_shards: 4,
        lease: LeaseConfig {
            heartbeat: Duration::from_millis(100),
            max_attempts: 5,
        },
        journal: journal.path.clone(),
        cache,
        cache_chaos,
        quiet: true,
    };
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let local = Arc::new(ArtifactStore::open(&worker_dir.path).expect("worker store opens"));
    local.attach_remote(Arc::new(
        RemoteStore::new(addr.clone())
            .with_timeout(Duration::from_millis(500))
            .with_quiet(true),
    ));
    install_process_store(Some(local));
    let drain = std::sync::atomic::AtomicBool::new(false);
    let (report, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                let tag = tag.to_owned();
                scope.spawn(move || {
                    let work_dir = Scratch::dir(&format!("{tag}-w{i}"));
                    run_worker(&WorkerConfig {
                        connect: addr,
                        work_dir: work_dir.path.clone(),
                        policy: FaultPolicy::default(),
                        worker_id: format!("w{i}"),
                        patience: Duration::from_secs(10),
                        quiet: true,
                    })
                    .expect("worker runs")
                })
            })
            .collect();
        let report = coordinator
            .run(campaign, &config, &drain)
            .expect("coordinator runs");
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("worker joins"))
            .collect();
        (report, outcomes)
    });
    assert!(report.complete(), "every shard resolved");
    let mut merged = Vec::new();
    report.write_merged(&mut merged).expect("merge writes");
    (merged, outcomes)
}

/// The warm-cache guarantee: a fleet whose workers start cold but share
/// the coordinator's warmed cache performs **zero compiles** on any
/// worker, every miss answered by remote fetch, and still reproduces the
/// reference bytes exactly.
#[test]
fn a_warm_shared_cache_fleet_performs_zero_compiles() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = spec(4760, 4);

    // Warm the coordinator's store with a single-process run of the same
    // campaign; its output doubles as the byte-identity reference.
    let coord_dir = Scratch::dir("warm-coord");
    let coord_store =
        Arc::new(ArtifactStore::open(&coord_dir.path).expect("coordinator store opens"));
    install_process_store(Some(Arc::clone(&coord_store)));
    let mut reference = Vec::new();
    let warm_stats = run_shard_streaming(&campaign, &mut reference, &FaultPolicy::default())
        .expect("warming run")
        .stats;
    assert!(warm_stats.compiles > 0, "the warming run paid the compiles");
    install_process_store(None);

    let worker_dir = Scratch::dir("warm-local");
    let (merged, outcomes) = run_fleet_with_remote(
        &campaign,
        Some(Arc::clone(&coord_store)),
        None,
        "warm",
        &worker_dir,
    );
    install_process_store(None);

    assert_eq!(
        String::from_utf8(merged).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
        "warm fleet changed campaign bytes"
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.stats.compiles, 0,
            "worker {i} compiled over a warm shared cache: {:?}",
            outcome.stats
        );
    }
    assert!(
        outcomes.iter().any(|o| o.leases > 0),
        "the fleet actually worked"
    );
}

/// An unreachable cache server is never fatal: the circuit breaker trips,
/// the fleet degrades to local-only caching with the degradation counted,
/// and the merged bytes still match the reference.
#[test]
fn an_unreachable_cache_server_degrades_to_local_only() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let campaign = spec(4810, 4);
    let reference = reference_stream(&campaign);

    let worker_dir = Scratch::dir("degrade-local");
    let local = Arc::new(ArtifactStore::open(&worker_dir.path).expect("worker store opens"));
    // Port 1 refuses immediately; threshold 1 and a long probe window keep
    // the breaker open (and the test fast) for the whole run.
    local.attach_remote(Arc::new(
        RemoteStore::new("127.0.0.1:1")
            .with_timeout(Duration::from_millis(100))
            .with_failure_threshold(1)
            .with_probe_after(Duration::from_secs(600))
            .with_quiet(true),
    ));
    install_process_store(Some(Arc::clone(&local)));

    let (merged, outcomes) = run_fleet(&campaign, None, None, "degrade", 2);
    install_process_store(None);

    assert_eq!(
        String::from_utf8(merged).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
        "degraded fleet changed campaign bytes"
    );
    let stats = local.stats();
    assert!(
        stats.remote.degraded > 0,
        "degradation is observable in StoreStats: {stats:?}"
    );
    assert_eq!(stats.remote.hits, 0, "nothing was fetched: {stats:?}");
    assert!(
        outcomes.iter().map(|o| o.stats.compiles).sum::<usize>() > 0,
        "the fleet recomputed locally"
    );
}

/// A remote source that serves envelopes from a warm donor store with one
/// deterministic bit flipped in the compact wire text — the in-process
/// equivalent of `corrupt:N` hitting every reply. A flip that breaks JSON
/// parsing surfaces as a transport-level failure (`Unavailable`), exactly
/// as the TCP client treats an unparseable reply line.
#[derive(Debug)]
struct FlippingSource {
    donor: Arc<ArtifactStore>,
    flip: u64,
    /// Triage answer-set envelopes served (flipped).
    answers: AtomicUsize,
}

impl RemoteSource for FlippingSource {
    fn fetch(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str) -> RemoteFetch {
        let Some(envelope) = self.donor.fetch_envelope(subject, fingerprint, kind) else {
            return RemoteFetch::Miss;
        };
        if kind == "triage-gdb" {
            self.answers.fetch_add(1, Ordering::Relaxed);
        }
        let mut bytes = envelope.to_compact().into_bytes();
        let index = (self.flip as usize) % bytes.len();
        let bit = 1u8 << ((self.flip >> 48) % 8);
        bytes[index] ^= bit;
        match String::from_utf8(bytes)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
        {
            Some(corrupted) => RemoteFetch::Hit(corrupted),
            None => RemoteFetch::Unavailable,
        }
    }

    fn put(&self, _envelope: &Json) -> bool {
        true
    }
}

/// The flip proptest's triage: up to two violations per conjecture of the
/// campaign's range, flag-searched.
fn flip_triage() -> TriageRun {
    triage_campaign(&spec(4900, 2), 2, &FaultPolicy::default())
}

/// The flip proptest's warm donor store and reference bytes (the campaign
/// stream, then the triage table), built once: re-warming per case would
/// dominate the test. Initialized under [`FLEET_LOCK`] (it installs the
/// process store transiently); the directory lives in the temp dir for the
/// life of the test process.
fn flip_donor() -> &'static (Arc<ArtifactStore>, Vec<u8>) {
    static DONOR: OnceLock<(Arc<ArtifactStore>, Vec<u8>)> = OnceLock::new();
    DONOR.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("holes-cache-flip-donor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("donor dir");
        let store = Arc::new(ArtifactStore::open(&path).expect("donor store opens"));
        install_process_store(Some(Arc::clone(&store)));
        let mut reference = Vec::new();
        run_shard_streaming(&spec(4900, 2), &mut reference, &FaultPolicy::default())
            .expect("warming run");
        reference.extend(flip_triage().table.to_json().to_pretty().into_bytes());
        install_process_store(None);
        (store, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Single-byte-flip non-trust: whatever byte and bit of the served
    /// envelope is corrupted, the store either fails to parse it
    /// (transport failure → degradation counter) or rejects it through
    /// the validation gates (quarantine), and in both cases the subject
    /// is recomputed — campaign bytes never change. The triage that
    /// follows fetches flipped answer-set envelopes too; refused, their
    /// sites are searched again, and the table never changes either.
    #[test]
    fn corrupted_cache_envelopes_are_rejected_quarantined_and_recomputed(flip in any::<u64>()) {
        let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let campaign = spec(4900, 2);
        let (donor, reference) = {
            let (store, reference) = flip_donor();
            (Arc::clone(store), reference.clone())
        };

        // Victim: a cold store whose remote tier serves only flipped bytes.
        let victim_dir = Scratch::dir("flip-victim");
        let victim = Arc::new(ArtifactStore::open(&victim_dir.path).expect("victim store opens"));
        let source = Arc::new(FlippingSource { donor, flip, answers: AtomicUsize::new(0) });
        victim.attach_remote(Arc::clone(&source) as Arc<dyn RemoteSource>);
        install_process_store(Some(Arc::clone(&victim)));
        let mut out = Vec::new();
        let stats = run_shard_streaming(&campaign, &mut out, &FaultPolicy::default()).expect("corrupted-cache run").stats;
        let triage = flip_triage();
        out.extend(triage.table.to_json().to_pretty().into_bytes());
        install_process_store(None);

        prop_assert_eq!(
            String::from_utf8(out).expect("UTF-8"),
            String::from_utf8(reference).expect("UTF-8"),
            "a corrupted cache envelope changed campaign bytes (flip {})", flip
        );
        prop_assert!(stats.compiles > 0, "the subjects were recomputed: {:?}", stats);
        prop_assert!(source.answers.load(Ordering::Relaxed) > 0, "no answer envelope was served");
        prop_assert!(triage.stats.traces > 0, "the searches ran again: {:?}", triage.stats);
        let store_stats = victim.stats();
        prop_assert!(
            store_stats.remote.rejected + store_stats.remote.degraded > 0,
            "every flipped envelope was refused one way or the other: {:?}",
            store_stats
        );
        // A rejection (as opposed to a parse failure) leaves the evidence
        // in quarantine.
        if store_stats.remote.rejected > 0 {
            prop_assert!(
                store_stats.quarantined > 0,
                "rejected envelopes are quarantined: {:?}",
                store_stats
            );
        }
    }
}

/// A cold triage persists answers, not throwaway probes. It writes every
/// violation set, every campaign executable and trace, and one answer set
/// per triaged configuration, but no executable or trace of a probe and no
/// per-site answer: an lcc bisection's pass budgets are derived from pass
/// snapshots in memory, and a ccg flag search's `-fno-<pass>` compiles are
/// dropped once the search has its answer. Every file it writes has the
/// bytes that saving the from-scratch artifact writes, and every answer set
/// those that saving storeless searches' culprits for its sites writes. A
/// warm rerun computes nothing and prints the storeless table.
#[test]
fn a_cold_triage_persists_no_budgeted_executable() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for personality in [Personality::Lcc, Personality::Ccg] {
        cold_triage_persists_no_probe(personality);
    }
}

fn cold_triage_persists_no_probe(personality: Personality) {
    let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(2500, 2506));
    let dir = Scratch::dir(&format!("cold-triage-{personality}"));
    let (reference, warm_stats) = storeless_cold_and_warm(&spec, &FaultPolicy::default(), &dir);
    assert_eq!(
        (warm_stats.compiles, warm_stats.traces, warm_stats.checks),
        (0, 0, 0),
        "the warm {personality} triage recomputed: {warm_stats:?}"
    );

    // Every configuration the triage can probe, by fingerprint.
    let mut configs = std::collections::BTreeMap::new();
    for &level in personality.levels() {
        let config = CompilerConfig::new(personality, level).with_version(personality.trunk());
        for budget in 0..=config.effective_schedule().len() {
            let budgeted = config.clone().with_pass_budget(budget);
            configs.insert(budgeted.fingerprint(), budgeted);
        }
        for flag in config.triage_flags() {
            let probe = config.clone().with_disabled_pass(flag);
            configs.insert(probe.fingerprint(), probe);
        }
        configs.insert(config.fingerprint(), config);
    }
    let subjects: Vec<Subject> = spec.seeds.iter().map(Subject::from_seed).collect();
    let replica_dir = Scratch::dir(&format!("cold-triage-{personality}-replica"));
    let replica = ArtifactStore::open(&replica_dir.path).expect("replica opens");
    let cold = ArtifactStore::open(&dir.path).expect("the cold store opens");
    let kind = DebuggerKind::native_for(personality);
    let debugger = match kind {
        DebuggerKind::GdbLike => "gdb",
        DebuggerKind::LldbLike => "lldb",
    };
    let (mut executables, mut answers) = (0usize, 0usize);
    for subject_dir in std::fs::read_dir(&dir.path).expect("store").flatten() {
        let key: SubjectKey = subject_dir.file_name().to_str().unwrap().parse().unwrap();
        let subject = subjects
            .iter()
            .find(|s| SubjectKey::derive(s.seed, &s.source.text) == key)
            .expect("a triaged subject");
        for file in std::fs::read_dir(subject_dir.path()).unwrap().flatten() {
            let name = file.file_name().to_str().unwrap().to_owned();
            let (fingerprint, rest) = name.split_once('.').unwrap();
            let config = &configs[&fingerprint.parse::<Fingerprint>().unwrap()];
            let kind_name = rest.strip_suffix(".json").expect("a JSON envelope");
            assert!(
                !kind_name.starts_with(&format!("triage-{debugger}-")),
                "{name} is a per-site answer"
            );
            if kind_name == format!("triage-{debugger}") {
                let stored = cold
                    .load_triage_answers(key, config)
                    .expect("the answer set loads");
                assert!(!stored.is_empty(), "{name} holds no answer");
                let searched: TriageAnswers = stored
                    .keys()
                    .map(|site| {
                        let outcome = triage(subject, config, &violation_at(site));
                        (site.clone(), outcome.culprits)
                    })
                    .collect();
                replica.save_triage_answers(key, config, &searched);
                answers += stored.len();
            } else {
                let exe = holes_compiler::compile(&subject.program, config);
                let trace = holes_debugger::trace(&exe, kind);
                let probe = config.pass_budget.is_some() || !config.disabled_passes.is_empty();
                if kind_name == "exe" {
                    assert!(!probe, "{name} persists a probe's executable");
                    executables += 1;
                    replica.save_executable(key, &exe);
                } else if kind_name == format!("trace-{debugger}") {
                    assert!(!probe, "{name} persists a probe's trace");
                    replica.save_trace(key, config, kind, &trace);
                } else if kind_name == format!("viol-{debugger}") {
                    let violations = holes_core::check_all(
                        &subject.program,
                        &subject.analysis,
                        &subject.source,
                        &trace,
                    );
                    replica.save_violations(key, config, kind, &violations);
                } else {
                    panic!("unexpected artifact kind {kind_name}");
                }
            }
            let rewritten = replica_dir.path.join(subject_dir.file_name()).join(&name);
            assert!(
                std::fs::read(file.path()).unwrap() == std::fs::read(rewritten).unwrap(),
                "{name} differs from the from-scratch artifact's envelope"
            );
        }
    }
    assert!(executables > 0, "the {personality} triage compiled nothing");
    assert!(answers > 0, "the {personality} triage stored no answer");
    if personality == Personality::Lcc {
        // Each lcc bisection of an observed violation blames exactly one
        // pass, so the table counts one attribution per stored entry.
        let attributions: usize = reference
            .table
            .counts
            .values()
            .flat_map(|passes| passes.values())
            .sum();
        assert_eq!(answers, attributions, "one answer per triaged violation");
    }
}

/// A violation at `site`; its observed state is not part of the site.
fn violation_at(site: &Site) -> Violation {
    Violation {
        conjecture: site.conjecture,
        line: site.line,
        variable: Arc::clone(&site.variable),
        function: site.function,
        observed: Observed::NotVisible,
    }
}

/// The file text of a `holes.artifact/v1` envelope: its identity fields
/// and an FNV-1a checksum of the payload's compact rendering.
fn envelope_text(key: SubjectKey, config: &CompilerConfig, kind: &str, payload: Json) -> String {
    let checksum = payload
        .to_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
    let fields = [
        ("format", Json::str("holes.artifact/v1")),
        ("kind", Json::str(kind)),
        ("subject", Json::str(key.to_string())),
        ("fingerprint", Json::str(config.fingerprint().to_string())),
        ("checksum", Json::str(format!("{checksum:016x}"))),
        ("payload", payload),
    ];
    let fields = fields
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value));
    format!("{}\n", Json::Obj(fields.collect()).to_compact())
}

/// One answer of an answer set, or a per-site answer: the site, the
/// search method and the culprits.
fn answer_json(violation: &Violation, method: &str, culprits: &[String]) -> Json {
    let fields = [
        ("conjecture", Json::str(violation.conjecture.to_string())),
        ("function", Json::from_usize(violation.function.0)),
        ("line", Json::from_u64(violation.line.into())),
        ("variable", Json::str(violation.variable.as_ref())),
        ("method", Json::str(method)),
        (
            "culprits",
            Json::Arr(culprits.iter().map(Json::str).collect()),
        ),
    ];
    Json::Obj(
        fields
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect(),
    )
}

/// An intact per-site answer envelope, as earlier builds wrote them, filed
/// under another violation site's kind — right format, kind, subject,
/// fingerprint and checksum, but a payload that answers a different site —
/// is rejected like a corrupted file: it is counted, quarantined, and the
/// search runs again and writes its answer into the configuration's answer
/// set. So is a per-site answer of the other search method, and an intact
/// answer set that names a site twice, lists its sites out of order, or
/// holds an answer of the other search method.
#[test]
fn an_answer_naming_another_site_is_rejected_quarantined_and_recomputed() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_process_store(None);
    let personality = Personality::Lcc;
    let config = CompilerConfig::new(personality, OptLevel::O2).with_version(personality.trunk());
    let subject = Subject::from_seed(2501);
    let violations = subject.violations(&config);
    let [asked, other, ..] = &violations[..] else {
        panic!("seed 2501 has two lcc -O2 violations");
    };
    let expected = bisect(&subject, &config, asked);
    let other_culprits = bisect(&subject, &config, other).culprits;

    let dir = Scratch::dir("foreign-answer");
    let store = Arc::new(ArtifactStore::open(&dir.path).expect("store opens"));
    let key = SubjectKey::derive(subject.seed, &subject.source.text);
    let path_of = |kind: &str| {
        dir.path
            .join(key.to_string())
            .join(format!("{}.{kind}.json", config.fingerprint()))
    };
    // A refused envelope at `kind`: the bisection searches again, and the
    // answer set then holds its answer alone.
    let refused = |kind: &str, text: &str| {
        std::fs::create_dir_all(path_of(kind).parent().unwrap()).unwrap();
        std::fs::write(path_of(kind), text).unwrap();
        let warm = subject.with_fresh_cache();
        warm.attach_store(Arc::clone(&store));
        let before = store.stats();
        assert_eq!(bisect(&warm, &config, asked), expected, "{text}");
        let after = store.stats();
        assert_eq!(after.rejected - before.rejected, 1, "{text}: {after:?}");
        assert_eq!(after.quarantined - before.quarantined, 1, "{text}");
        assert!(warm.cache_stats().traces > 0, "the bisection ran again");
        // Dropping the subject writes its answer set.
        drop(warm);
        let quarantined = dir
            .path
            .join("quarantine")
            .join(key.to_string())
            .join(path_of(kind).file_name().unwrap());
        assert_eq!(std::fs::read_to_string(quarantined).unwrap(), text);
        let alone = TriageAnswers::from([(Site::of(asked), expected.culprits.clone())]);
        assert_eq!(store.load_triage_answers(key, &config), Some(alone));
        std::fs::remove_file(path_of("triage-lldb")).unwrap();
    };

    let site_kind = format!(
        "triage-lldb-{}-F{}-L{}-{}",
        asked.conjecture, asked.function.0, asked.line, asked.variable
    );
    let foreign = answer_json(other, "bisection", &expected.culprits);
    refused(
        &site_kind,
        &envelope_text(key, &config, &site_kind, foreign),
    );
    // A per-site answer the other search method stored is not this one's
    // either: earlier builds filed both methods' answers under one kind.
    let flags = answer_json(asked, "flag-search", &expected.culprits);
    refused(&site_kind, &envelope_text(key, &config, &site_kind, flags));

    let mut entries = [
        answer_json(asked, "bisection", &expected.culprits),
        answer_json(other, "bisection", &other_culprits),
    ];
    if Site::of(other) < Site::of(asked) {
        entries.reverse();
    }
    let set = |entries: Vec<Json>| envelope_text(key, &config, "triage-lldb", Json::Arr(entries));
    let repeated = vec![entries[0].clone(), entries[0].clone(), entries[1].clone()];
    refused("triage-lldb", &set(repeated));
    refused(
        "triage-lldb",
        &set(vec![entries[1].clone(), entries[0].clone()]),
    );
    let flags = vec![
        entries[0].clone(),
        answer_json(other, "flag-search", &other_culprits),
    ];
    refused("triage-lldb", &set(flags));

    // The same two answers, in order and by bisection, load.
    std::fs::write(path_of("triage-lldb"), set(entries.to_vec())).unwrap();
    let both = TriageAnswers::from([
        (Site::of(asked), expected.culprits.clone()),
        (Site::of(other), other_culprits),
    ]);
    assert_eq!(store.load_triage_answers(key, &config), Some(both));
}

/// Everything a triage run prints — its table and its faults — without the
/// engine counters, which differ between storeless, cold and warm runs.
fn printed(run: &TriageRun) -> TriageRun {
    TriageRun {
        stats: CacheStats::default(),
        ..run.clone()
    }
}

/// Run `triage_campaign` storeless, over a cold store in `dir`, and over
/// the same store warm. The cold and warm runs must print what the
/// storeless run prints; returns the storeless run and the warm run's
/// counters.
fn storeless_cold_and_warm(
    spec: &CampaignSpec,
    policy: &FaultPolicy,
    dir: &Scratch,
) -> (TriageRun, CacheStats) {
    install_process_store(None);
    let reference = triage_campaign(spec, 1000, policy);
    install_process_store(Some(Arc::new(
        ArtifactStore::open(&dir.path).expect("store opens"),
    )));
    let cold = triage_campaign(spec, 1000, policy);
    let warm = triage_campaign(spec, 1000, policy);
    install_process_store(None);
    assert_eq!(printed(&cold), printed(&reference), "cold run of {spec:?}");
    assert_eq!(printed(&warm), printed(&reference), "warm run of {spec:?}");
    (reference, warm.stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential oracle for the answer store: over a random seed range,
    /// personality and backend, a triage over a cold store and the rerun
    /// over the warm one print the storeless table, and the warm rerun
    /// compiles, traces and checks nothing.
    #[test]
    fn stored_triage_answers_agree_with_the_storeless_search(
        start in 0u64..1_000_000,
        personality in 0usize..2,
        backend in 0usize..3,
    ) {
        let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let personality = [Personality::Lcc, Personality::Ccg][personality];
        let backend = [BackendKind::Reg, BackendKind::Stack, BackendKind::Frame][backend];
        let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(start, start + 3))
            .with_backend(backend);
        let dir = Scratch::dir("differential");
        let (_, warm) = storeless_cold_and_warm(&spec, &FaultPolicy::default(), &dir);
        prop_assert_eq!((warm.compiles, warm.traces, warm.checks), (0, 0, 0), "{:?}", warm);
    }
}

/// The differential oracle under a fuel limit that faults some subjects'
/// campaigns and some triage searches: storeless, cold and warm runs print
/// the same table and the same faults. A faulted search stores no answer,
/// so the warm run faults at the same probe again.
#[test]
fn fuel_faulted_triage_prints_the_same_storeless_cold_and_warm() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for personality in [Personality::Lcc, Personality::Ccg] {
        let spec = CampaignSpec::new(personality, personality.trunk(), SeedRange::new(0, 12));
        let policy = FaultPolicy {
            fuel_limit: Some(1000),
            ..FaultPolicy::default()
        };
        let dir = Scratch::dir(&format!("fuel-{personality}"));
        let (reference, _) = storeless_cold_and_warm(&spec, &policy, &dir);
        assert!(
            !reference.table.counts.is_empty(),
            "{personality}: nothing was triaged"
        );
        assert!(
            !reference.campaign_faults.is_empty() || !reference.triage_faults.is_empty(),
            "{personality}: the fuel limit faulted nothing"
        );
    }
}

/// The configuration an executable envelope's payload records, decoded
/// from its `config` object through the public constructors.
fn recorded_config(payload: &Json) -> CompilerConfig {
    let config = payload
        .get("config")
        .expect("an executable records its config");
    let field = |key: &str| config.get(key).and_then(Json::as_str).expect(key);
    let personality: Personality = field("personality").parse().expect("personality");
    let level: OptLevel = field("level").parse().expect("level");
    let mut decoded = CompilerConfig::new(personality, level).with_version(
        personality
            .version_index(field("version"))
            .expect("version"),
    );
    for pass in config
        .get("disabled_passes")
        .and_then(Json::as_arr)
        .expect("passes")
    {
        decoded = decoded.with_disabled_pass(pass.as_str().expect("pass name"));
    }
    decoded.pass_budget = config.get("pass_budget").and_then(Json::as_usize);
    if config.get("disable_defects").and_then(Json::as_bool) == Some(true) {
        decoded = decoded.without_defects();
    }
    if let Some(backend) = config.get("backend").and_then(Json::as_str) {
        decoded = decoded.with_backend(backend.parse().expect("backend"));
    }
    decoded
}

/// A store written by an earlier build stays fully warm. The fixture under
/// `tests/golden/store-v1/` holds what a debug build of that earlier
/// `holes` wrote for `triage --personality lcc --seeds 2505..2506 --limit
/// 1` and `campaign --seeds 2501..2502`, plus the corpus entry `corpus add
/// --seed 2501` mirrors into the store: every artifact kind. (A debug
/// build's bisection also probes every pass budget to assert monotonicity,
/// so its store serves both build profiles warm.) Over a copy of it,
/// rerunning both computes nothing and prints what a storeless run prints,
/// and every artifact loads equal to its recomputation.
#[test]
fn a_committed_old_store_stays_fully_warm() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store-v1");
    let copy = Scratch::dir("store-v1");
    let mut files = Vec::new();
    for subject_dir in std::fs::read_dir(&fixture)
        .expect("fixture store")
        .flatten()
    {
        let into = copy.path.join(subject_dir.file_name());
        std::fs::create_dir_all(&into).unwrap();
        for file in std::fs::read_dir(subject_dir.path()).unwrap().flatten() {
            std::fs::copy(file.path(), into.join(file.file_name())).unwrap();
            files.push(into.join(file.file_name()));
        }
    }
    files.sort();
    let lcc = CampaignSpec::new(
        Personality::Lcc,
        Personality::Lcc.trunk(),
        SeedRange::new(2505, 2506),
    );
    let triage_run = || {
        let run = triage_campaign(&lcc, 1, &FaultPolicy::default());
        (run.table.to_json().to_pretty(), run.stats)
    };
    let campaign_run = || {
        let mut out = Vec::new();
        let run = run_shard_streaming(&spec(2501, 1), &mut out, &FaultPolicy::default())
            .expect("campaign");
        (out, run.stats)
    };
    install_process_store(None);
    let (triage_reference, _) = triage_run();
    let (campaign_reference, _) = campaign_run();

    let store = Arc::new(ArtifactStore::open(&copy.path).expect("fixture copy opens"));
    install_process_store(Some(Arc::clone(&store)));
    let (triage_warm, triage_stats) = triage_run();
    let (campaign_warm, campaign_stats) = campaign_run();
    install_process_store(None);
    assert_eq!(
        triage_warm, triage_reference,
        "warm triage changed its table"
    );
    assert_eq!(
        campaign_warm, campaign_reference,
        "warm campaign changed its bytes"
    );
    for stats in [triage_stats, campaign_stats] {
        assert_eq!(
            (stats.compiles, stats.traces, stats.checks),
            (0, 0, 0),
            "the old store went cold: {stats:?}"
        );
    }

    // Every artifact, loaded on its own, equals its recomputation.
    let subjects: Vec<Subject> = [2501, 2505].map(Subject::from_seed).into();
    let subject_of = |path: &std::path::Path| {
        let key: SubjectKey = path
            .parent()
            .unwrap()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .parse()
            .unwrap();
        let subject = subjects
            .iter()
            .find(|s| SubjectKey::derive(s.seed, &s.source.text) == key)
            .expect("a fixture subject");
        (key, subject)
    };
    let name = |path: &std::path::Path| path.file_name().unwrap().to_str().unwrap().to_owned();
    let payload = |path: &std::path::Path| {
        Json::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap()
            .get("payload")
            .unwrap()
            .clone()
    };
    let mut configs = std::collections::BTreeMap::new();
    for path in files
        .iter()
        .filter(|path| name(path).ends_with(".exe.json"))
    {
        let (key, subject) = subject_of(path);
        let config = recorded_config(&payload(path));
        assert_eq!(format!("{}.exe.json", config.fingerprint()), name(path));
        let loaded = store
            .load_executable(key, &config)
            .expect("executable loads");
        assert_eq!(loaded, subject.compile(&config), "{}", name(path));
        configs.insert(config.fingerprint().to_string(), config);
    }
    let (mut kinds, before) = (std::collections::BTreeSet::new(), store.stats());
    for path in &files {
        let (key, subject) = subject_of(path);
        let file = name(path);
        let (fingerprint, rest) = file.split_once('.').unwrap();
        let kind = rest.strip_suffix(".json").unwrap();
        kinds.insert(kind.split('-').next().unwrap().to_owned());
        if kind == "exe" {
            continue;
        }
        if let Some(site) = kind.strip_prefix("corpus-") {
            let entry = CorpusEntry::from_json(&payload(path)).expect("a corpus entry");
            assert_eq!(
                site,
                format!("{}-L{}-{}", entry.conjecture, entry.line, entry.variable)
            );
            let loaded = store
                .load_corpus_entry(
                    key,
                    &entry.config(),
                    entry.conjecture,
                    entry.line,
                    &entry.variable,
                )
                .expect("corpus entry loads");
            assert_eq!(CorpusEntry::from_json(&loaded).unwrap(), entry);
            continue;
        }
        let config = &configs[fingerprint];
        let debugger = DebuggerKind::native_for(config.personality);
        if kind.starts_with("trace-") {
            let loaded = store
                .load_trace(key, config, debugger)
                .expect("trace loads");
            assert_eq!(loaded, subject.trace(config), "{file}");
        } else {
            let loaded = store
                .load_violations(key, config, debugger)
                .expect("violations load");
            assert_eq!(loaded, subject.violations(config), "{file}");
        }
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["corpus", "exe", "trace", "viol"],
        "the fixture holds every artifact kind"
    );
    let after = store.stats();
    assert_eq!(after.rejected, before.rejected, "{after:?}");
}

/// A store of per-site triage answers stays warm. The fixture under
/// `tests/golden/store-answers-v1/` holds the violation sets and the
/// per-site answers an earlier build's cold `holes triage --personality lcc
/// --seeds 2500..2506 --cache-dir D` wrote (its executables and traces left
/// out). Over a copy of it, the triage prints the storeless table and
/// compiles, traces, checks and derives nothing.
#[test]
fn a_store_of_per_site_answers_stays_warm() {
    let _lock = FLEET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store-answers-v1");
    let copy = Scratch::dir("store-answers-v1");
    for subject_dir in std::fs::read_dir(&fixture)
        .expect("fixture store")
        .flatten()
    {
        let into = copy.path.join(subject_dir.file_name());
        std::fs::create_dir_all(&into).unwrap();
        for file in std::fs::read_dir(subject_dir.path()).unwrap().flatten() {
            std::fs::copy(file.path(), into.join(file.file_name())).unwrap();
        }
    }
    let lcc = CampaignSpec::new(
        Personality::Lcc,
        Personality::Lcc.trunk(),
        SeedRange::new(2500, 2506),
    );
    install_process_store(None);
    let reference = triage_campaign(&lcc, 10, &FaultPolicy::default());
    install_process_store(Some(Arc::new(
        ArtifactStore::open(&copy.path).expect("fixture copy opens"),
    )));
    let warm = triage_campaign(&lcc, 10, &FaultPolicy::default());
    install_process_store(None);
    assert_eq!(printed(&warm), printed(&reference), "warm triage changed");
    let stats = warm.stats;
    assert_eq!(
        (
            stats.compiles,
            stats.traces,
            stats.checks,
            stats.codegen_only
        ),
        (0, 0, 0, 0),
        "the per-site answers went cold: {stats:?}"
    );
}
