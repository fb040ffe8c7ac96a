//! Performance benchmarks for the evaluation engine itself: the artifact
//! cache, the targeted oracle, the binary-search bisection, and the parallel
//! campaign driver. The run asserts the engine's three headline claims (and
//! aborts loudly if one regresses):
//!
//! 1. binary-search bisection performs strictly fewer oracle compiles than
//!    the linear prefix scan on at least one triaged violation (and never
//!    meaningfully more on any),
//! 2. a repeat `violations()` query on a warm cache is at least 10× faster
//!    than the cold evaluation,
//! 3. the parallel campaign's records (and so every table rendered from
//!    them) are identical to a serial loop over the oracle.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::{bench_pool, pool_campaign};

use holes_compiler::{CompilerConfig, Personality};
use holes_pipeline::campaign::ViolationRecord;
use holes_pipeline::triage::{bisect, bisect_linear};
use holes_pipeline::Subject;

/// The serial reference campaign: a plain loop over the oracle, in
/// (subject, level) order.
fn serial_records(pool: &[Subject], personality: Personality) -> Vec<ViolationRecord> {
    let mut records = Vec::new();
    for (index, subject) in pool.iter().enumerate() {
        for &level in personality.levels() {
            let config = CompilerConfig::new(personality, level).with_version(personality.trunk());
            for violation in subject.violations(&config) {
                records.push(ViolationRecord {
                    seed: subject.seed,
                    subject: index,
                    level,
                    violation,
                });
            }
        }
    }
    records
}

fn compile_counts(c: &mut Criterion) {
    let pool = bench_pool(51_000);
    let personality = Personality::Lcc;
    let result = pool_campaign(&pool, personality, personality.trunk());
    println!("== bisection oracle evaluations (binary vs linear) ==");
    let mut strictly_fewer = 0usize;
    let mut compared = 0usize;
    for record in result.records.iter().take(16) {
        let config =
            CompilerConfig::new(personality, record.level).with_version(personality.trunk());
        // Budget probes derive from pass-prefix snapshots (codegen only),
        // so the work each strategy performs is compiles + codegen_only.
        let for_binary = pool[record.subject].with_fresh_cache();
        let binary = bisect(&for_binary, &config, &record.violation);
        let binary_stats = for_binary.cache_stats();
        let binary_work = binary_stats.compiles + binary_stats.codegen_only;
        let for_linear = pool[record.subject].with_fresh_cache();
        let linear = bisect_linear(&for_linear, &config, &record.violation);
        let linear_stats = for_linear.cache_stats();
        let linear_work = linear_stats.compiles + linear_stats.codegen_only;
        assert_eq!(binary, linear, "bisection strategies disagree on a culprit");
        assert!(
            binary_work <= linear_work.max(6),
            "binary search evaluated noticeably more than the scan: \
             {binary_work} vs {linear_work}"
        );
        assert!(
            binary_stats.compiles <= 1 && linear_stats.compiles <= 1,
            "a non-trunk budget probe ran a full compile: \
             binary {binary_stats:?}, linear {linear_stats:?}"
        );
        println!(
            "  {} line {:>3} {:<12} binary {:>2} evaluations ({} full compiles), linear {:>2} ({})",
            config.describe(),
            record.violation.line,
            record.violation.variable,
            binary_work,
            binary_stats.compiles,
            linear_work,
            linear_stats.compiles,
        );
        strictly_fewer += usize::from(binary_work < linear_work);
        compared += 1;
    }
    assert!(compared > 0, "campaign produced no violations to bisect");
    if cfg!(debug_assertions) {
        println!("  (debug build: the monotonicity assert probes every budget)");
    } else {
        assert!(
            strictly_fewer > 0,
            "binary search never evaluated strictly fewer budgets than the linear scan"
        );
    }
    println!("  strictly fewer on {strictly_fewer}/{compared} violations");

    let mut group = c.benchmark_group("triage_bisect");
    group.sample_size(10);
    if let Some(record) = result.records.first() {
        let config =
            CompilerConfig::new(personality, record.level).with_version(personality.trunk());
        group.bench_function("binary_cold_cache", |b| {
            b.iter(|| {
                let fresh = pool[record.subject].with_fresh_cache();
                bisect(&fresh, &config, &record.violation)
            })
        });
        group.bench_function("linear_cold_cache", |b| {
            b.iter(|| {
                let fresh = pool[record.subject].with_fresh_cache();
                bisect_linear(&fresh, &config, &record.violation)
            })
        });
    }
    group.finish();
}

fn cache_speedup(c: &mut Criterion) {
    let pool = bench_pool(52_000);
    let config = CompilerConfig::new(Personality::Ccg, holes_compiler::OptLevel::O2);
    println!("== warm-cache speedup of violations() ==");
    let mut cold_total = 0.0f64;
    let mut warm_total = 0.0f64;
    for subject in &pool {
        let fresh = subject.with_fresh_cache();
        let start = Instant::now();
        let cold = fresh.violations(&config);
        let cold_elapsed = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let warm = fresh.violations(&config);
        let warm_elapsed = start.elapsed().as_secs_f64();
        assert_eq!(cold, warm, "cached violations differ from the cold run");
        cold_total += cold_elapsed;
        warm_total += warm_elapsed;
    }
    let speedup = cold_total / warm_total.max(f64::EPSILON);
    println!(
        "  cold {:.3} ms, warm {:.3} ms, speedup {speedup:.0}x over {} subjects",
        cold_total * 1e3,
        warm_total * 1e3,
        pool.len()
    );
    assert!(
        speedup >= 10.0,
        "warm-cache violations() should be at least 10x faster (got {speedup:.1}x)"
    );

    let mut group = c.benchmark_group("oracle_cache");
    group.sample_size(10);
    let subject: &Subject = &pool[0];
    group.bench_function("violations_cold", |b| {
        b.iter(|| subject.with_fresh_cache().violations(&config))
    });
    let warm = subject.with_fresh_cache();
    let _ = warm.violations(&config);
    group.bench_function("violations_warm", |b| b.iter(|| warm.violations(&config)));
    group.finish();
}

fn parallel_determinism(c: &mut Criterion) {
    let pool = bench_pool(53_000);
    println!("== parallel vs serial campaign (determinism) ==");
    for personality in [Personality::Ccg, Personality::Lcc] {
        let fresh: Vec<Subject> = pool.iter().map(Subject::with_fresh_cache).collect();
        let parallel = pool_campaign(&fresh, personality, personality.trunk());
        assert_eq!(
            parallel.records,
            serial_records(&pool, personality),
            "{personality}: parallel records diverged from serial"
        );
        println!("  {personality}: identical records");
    }

    let mut group = c.benchmark_group("campaign_parallelism");
    group.sample_size(10);
    group.bench_function("run_campaign_parallel", |b| {
        b.iter(|| {
            let fresh: Vec<Subject> = pool.iter().map(Subject::with_fresh_cache).collect();
            pool_campaign(&fresh, Personality::Ccg, Personality::Ccg.trunk())
        })
    });
    group.bench_function("serial_oracle_loop", |b| {
        b.iter(|| {
            let fresh: Vec<Subject> = pool.iter().map(Subject::with_fresh_cache).collect();
            serial_records(&fresh, Personality::Ccg)
        })
    });
    group.finish();
}

criterion_group!(benches, compile_counts, cache_speedup, parallel_determinism);
criterion_main!(benches);
