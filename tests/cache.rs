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
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use holes_compiler::{Fingerprint, Personality};
use holes_core::json::Json;
use holes_pipeline::fault::FaultPolicy;
use holes_pipeline::serve::chaos::{CacheMode, CachePlan};
use holes_pipeline::serve::{
    run_worker, Coordinator, LeaseConfig, RemoteStore, ServeConfig, WorkerConfig, WorkerOutcome,
};
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::store::{
    install_process_store, ArtifactStore, RemoteFetch, RemoteSource, SubjectKey,
};
use holes_pipeline::stream::run_shard_streaming;
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
    cache_chaos: Option<Arc<CachePlan>>,
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
    let schedules: [(&str, Option<(CacheMode, u32)>); 5] = [
        ("clean", None),
        ("drop", Some((CacheMode::Drop, 1))),
        ("corrupt1", Some((CacheMode::Corrupt, 1))),
        ("corrupt3", Some((CacheMode::Corrupt, 3))),
        ("delay", Some((CacheMode::Delay, 1))),
    ];
    for (tag, schedule) in schedules {
        let worker_dir = Scratch::dir(&format!("{tag}-local"));
        let chaos = schedule.map(|(mode, count)| Arc::new(CachePlan::new(mode, count)));

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
    cache_chaos: Option<Arc<CachePlan>>,
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
        stats.remote_degraded > 0,
        "degradation is observable in StoreStats: {stats:?}"
    );
    assert_eq!(stats.remote_hits, 0, "nothing was fetched: {stats:?}");
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
}

impl RemoteSource for FlippingSource {
    fn fetch(&self, subject: SubjectKey, fingerprint: Fingerprint, kind: &str) -> RemoteFetch {
        let Some(envelope) = self.donor.fetch_envelope(subject, fingerprint, kind) else {
            return RemoteFetch::Miss;
        };
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

/// The flip proptest's warm donor store and reference bytes, built once:
/// re-warming per case would dominate the test. Initialized under
/// [`FLEET_LOCK`] (it installs the process store transiently); the
/// directory lives in the temp dir for the life of the test process.
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
    /// is recomputed — campaign bytes never change.
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
        victim.attach_remote(Arc::new(FlippingSource { donor, flip }));
        install_process_store(Some(Arc::clone(&victim)));
        let mut out = Vec::new();
        let stats = run_shard_streaming(&campaign, &mut out, &FaultPolicy::default()).expect("corrupted-cache run").stats;
        install_process_store(None);

        prop_assert_eq!(
            String::from_utf8(out).expect("UTF-8"),
            String::from_utf8(reference).expect("UTF-8"),
            "a corrupted cache envelope changed campaign bytes (flip {})", flip
        );
        prop_assert!(stats.compiles > 0, "the subjects were recomputed: {:?}", stats);
        let store_stats = victim.stats();
        prop_assert!(
            store_stats.remote_rejected + store_stats.remote_degraded > 0,
            "every flipped envelope was refused one way or the other: {:?}",
            store_stats
        );
        // A rejection (as opposed to a parse failure) leaves the evidence
        // in quarantine.
        if store_stats.remote_rejected > 0 {
            prop_assert!(
                store_stats.quarantined > 0,
                "rejected envelopes are quarantined: {:?}",
                store_stats
            );
        }
    }
}
