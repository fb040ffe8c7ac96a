use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::{bench_pool, pool_campaign};

use holes_compiler::Personality;
use holes_pipeline::report::build_report;

/// Table 3: issue classification by DIE manifestation (Missing / Hollow /
/// Incomplete / covered-but-undisplayable) and compiler-vs-debugger
/// attribution.
fn bench(c: &mut Criterion) {
    let pool = bench_pool(44_000);
    for personality in [Personality::Ccg, Personality::Lcc] {
        let result = pool_campaign(&pool, personality, personality.trunk());
        let report = build_report(
            &pool,
            &result,
            personality,
            personality.trunk(),
            holes_pipeline::BackendKind::Reg,
            40,
        );
        println!("== Table 3 ({personality}) ==");
        println!("{}", report.render());
    }
    let mut group = c.benchmark_group("tab3");
    group.sample_size(10);
    let result = pool_campaign(&pool[..1], Personality::Ccg, 4);
    group.bench_function("classify", |b| {
        b.iter(|| {
            build_report(
                &pool[..1],
                &result,
                Personality::Ccg,
                4,
                holes_pipeline::BackendKind::Reg,
                5,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
