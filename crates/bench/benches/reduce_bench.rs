use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::{bench_pool, pool_campaign};

use holes_compiler::{CompilerConfig, Personality};
use holes_pipeline::reduce::reduce;

/// §4.4: violation-preserving test-case reduction.
fn bench(c: &mut Criterion) {
    let pool = bench_pool(48_000);
    let personality = Personality::Ccg;
    let result = pool_campaign(&pool, personality, personality.trunk());
    if let Some(record) = result.records.first() {
        let config = CompilerConfig::new(personality, record.level);
        let reduced = reduce(&pool[record.subject], &config, &record.violation, None);
        println!(
            "== Reduction == {} -> {} statements ({} attempts, {:.0}% removed)",
            reduced.original_statements,
            reduced.reduced_statements,
            reduced.attempts,
            100.0 * reduced.reduction_ratio()
        );
        let mut group = c.benchmark_group("reduce");
        group.sample_size(10);
        group.bench_function("reduce_one_violation", |b| {
            b.iter(|| reduce(&pool[record.subject], &config, &record.violation, None))
        });
        group.finish();
    } else {
        println!("no violations found to reduce in this pool");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
