use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::{bench_pool, pool_campaign, pool_spec};

use holes_compiler::Personality;
use holes_pipeline::triage::triage_campaign;
use holes_pipeline::FaultPolicy;

/// Table 2: the optimizations most frequently identified as culprits, per
/// conjecture and compiler personality.
fn bench(c: &mut Criterion) {
    let pool = bench_pool(43_000);
    for personality in [Personality::Ccg, Personality::Lcc] {
        let result = pool_campaign(&pool, personality, personality.trunk());
        let spec = pool_spec(&pool, personality, personality.trunk());
        let (table, _, _) = triage_campaign(&pool, &spec, &result, 4, &FaultPolicy::default());
        println!("== Table 2 ({personality}) — top culprit passes ==");
        println!("{}", table.render(5));
        println!("distinct culprits: {}", table.distinct_culprits());
    }
    let mut group = c.benchmark_group("tab2");
    group.sample_size(10);
    let result = pool_campaign(&pool[..1], Personality::Ccg, 4);
    let spec = pool_spec(&pool[..1], Personality::Ccg, 4);
    let policy = FaultPolicy::default();
    group.bench_function("triage_one_program", |b| {
        b.iter(|| triage_campaign(&pool[..1], &spec, &result, 1, &policy))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
