//! The persistent-store benchmark: one campaign cold (empty cache
//! directory) versus the same campaign warm (fresh in-memory caches, same
//! store — i.e. what a second CLI process sees), plus a raw VM throughput
//! measurement for the hot-loop optimizations.
//!
//! The run asserts the store's headline claims and aborts loudly if one
//! regresses:
//!
//! 1. the warm campaign performs **zero** compiles, traces, and checks —
//!    everything loads from disk;
//! 2. the warm campaign's rendered Table 1 is byte-identical to the cold
//!    run's;
//! 3. warm wall-time beats cold wall-time.
//!
//! The measured numbers (cold/warm wall-times, speedup, VM steps/sec) are
//! additionally written as a machine-readable JSON report to
//! `BENCH_pr3.json` (override the path with `HOLES_BENCH_OUT`), which CI
//! uploads as an artifact.

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use holes_bench::{pool_campaign, pool_size};

use holes_compiler::{CompilerConfig, OptLevel, Personality};
use holes_core::json::Json;
use holes_pipeline::{ArtifactStore, CacheStats, Subject};

/// Fresh-cache subjects for `seeds`, optionally bound to `store`.
fn pool(base: u64, store: Option<&Arc<ArtifactStore>>) -> Vec<Subject> {
    (base..base + pool_size() as u64)
        .map(|seed| {
            let subject = Subject::from_seed(seed).with_fresh_cache();
            if let Some(store) = store {
                subject.attach_store(Arc::clone(store));
            }
            subject
        })
        .collect()
}

fn aggregate(subjects: &[Subject]) -> CacheStats {
    let mut stats = CacheStats::default();
    for subject in subjects {
        stats.absorb(subject.cache_stats());
    }
    stats
}

fn store_warm_vs_cold(c: &mut Criterion) {
    let base = 54_000u64;
    let personality = Personality::Ccg;
    let root = std::env::temp_dir().join(format!("holes-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Arc::new(ArtifactStore::open(&root).expect("open store"));

    println!("== persistent store: cold vs warm campaign ==");
    let cold_pool = pool(base, Some(&store));
    let started = Instant::now();
    let cold = pool_campaign(&cold_pool, personality, personality.trunk());
    let cold_elapsed = started.elapsed().as_secs_f64();
    let cold_stats = aggregate(&cold_pool);
    assert!(cold_stats.compiles > 0, "cold campaign compiled nothing");
    assert_eq!(cold_stats.disk_loads, 0, "cold store was somehow warm");

    // Fresh in-memory caches bound to the now-populated store: this is what
    // a second `holes` process over the same range experiences.
    let warm_pool = pool(base, Some(&store));
    let started = Instant::now();
    let warm = pool_campaign(&warm_pool, personality, personality.trunk());
    let warm_elapsed = started.elapsed().as_secs_f64();
    let warm_stats = aggregate(&warm_pool);
    assert_eq!(warm.table1(), cold.table1(), "warm table1 diverged");
    assert_eq!(warm.records, cold.records, "warm records diverged");
    assert_eq!(warm_stats.compiles, 0, "warm campaign recompiled");
    assert_eq!(warm_stats.traces, 0, "warm campaign retraced");
    assert_eq!(warm_stats.checks, 0, "warm campaign rechecked");
    assert!(warm_stats.disk_loads > 0, "warm campaign loaded nothing");
    let speedup = cold_elapsed / warm_elapsed.max(f64::EPSILON);
    println!(
        "  cold {:.1} ms, warm {:.1} ms, speedup {speedup:.1}x over {} programs \
         ({} disk loads, store at {})",
        cold_elapsed * 1e3,
        warm_elapsed * 1e3,
        cold_pool.len(),
        warm_stats.disk_loads,
        root.display(),
    );
    assert!(
        warm_elapsed < cold_elapsed,
        "warm-store campaign was not faster than cold ({warm_elapsed:.3}s vs {cold_elapsed:.3}s)"
    );

    // Raw VM throughput: run the O0 executables (the step-richest ones) to
    // completion repeatedly and count retired instructions per second.
    println!("== VM throughput (steps/sec) ==");
    let config = CompilerConfig::new(personality, OptLevel::O0);
    let executables: Vec<_> = cold_pool.iter().map(|s| s.compile(&config)).collect();
    let repeats = 20u64;
    let mut steps = 0u64;
    let started = Instant::now();
    for _ in 0..repeats {
        for exe in &executables {
            steps += black_box(exe.run().expect("program runs").steps);
        }
    }
    let vm_elapsed = started.elapsed().as_secs_f64();
    let steps_per_sec = steps as f64 / vm_elapsed.max(f64::EPSILON);
    println!(
        "  {steps} steps in {:.1} ms: {:.1}M steps/sec",
        vm_elapsed * 1e3,
        steps_per_sec / 1e6,
    );

    // The machine-readable report CI uploads.
    let report = Json::Obj(vec![
        ("format".to_owned(), Json::str("holes.bench/v1")),
        ("bench".to_owned(), Json::str("store_warm_vs_cold")),
        ("programs".to_owned(), Json::from_usize(cold_pool.len())),
        (
            "cold_ms".to_owned(),
            Json::Num(format!("{:.3}", cold_elapsed * 1e3)),
        ),
        (
            "warm_ms".to_owned(),
            Json::Num(format!("{:.3}", warm_elapsed * 1e3)),
        ),
        ("speedup".to_owned(), Json::Num(format!("{speedup:.2}"))),
        (
            "cold_compiles".to_owned(),
            Json::from_usize(cold_stats.compiles),
        ),
        (
            "warm_compiles".to_owned(),
            Json::from_usize(warm_stats.compiles),
        ),
        (
            "warm_disk_loads".to_owned(),
            Json::from_usize(warm_stats.disk_loads),
        ),
        ("vm_steps".to_owned(), Json::from_u64(steps)),
        (
            "vm_steps_per_sec".to_owned(),
            Json::Num(format!("{steps_per_sec:.0}")),
        ),
    ]);
    let out = std::env::var("HOLES_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr3.json".to_owned());
    std::fs::write(&out, report.to_pretty()).expect("writing the bench report");
    println!("  report written to {out}");

    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    group.bench_function("campaign_warm_store", |b| {
        b.iter(|| {
            let fresh = pool(base, Some(&store));
            pool_campaign(&fresh, personality, personality.trunk())
        })
    });
    group.bench_function("campaign_no_store", |b| {
        b.iter(|| {
            let fresh = pool(base, None);
            pool_campaign(&fresh, personality, personality.trunk())
        })
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, store_warm_vs_cold);
criterion_main!(benches);
