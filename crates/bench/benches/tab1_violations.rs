use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::{bench_pool, pool_campaign};

use holes_compiler::Personality;

/// Table 1: conjecture violations per optimization level (trunk compilers).
fn bench(c: &mut Criterion) {
    let pool = bench_pool(41_000);
    for personality in [Personality::Lcc, Personality::Ccg] {
        let result = pool_campaign(&pool, personality, personality.trunk());
        println!(
            "== Table 1 ({personality} trunk, {} programs) ==",
            pool.len()
        );
        println!("{}", result.table1());
        for conjecture in holes_core::Conjecture::ALL {
            println!(
                "programs with no {conjecture} violation: {}/{}",
                result.clean_programs(conjecture),
                pool.len()
            );
        }
    }
    let mut group = c.benchmark_group("tab1");
    group.sample_size(10);
    group.bench_function("campaign_one_program", |b| {
        b.iter(|| pool_campaign(&pool[..1], Personality::Ccg, 4))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
