use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::{bench_pool, pool_campaign};

use holes_compiler::Personality;

/// Figure 3: distribution of unique violations over the sets of
/// optimization levels they reproduce at.
fn bench(c: &mut Criterion) {
    let pool = bench_pool(42_000);
    let personality = Personality::Lcc;
    let result = pool_campaign(&pool, personality, personality.trunk());
    println!("== Venn distribution ({personality}) ==");
    for (levels, count) in result.venn() {
        let set: Vec<&str> = levels.iter().map(|l| l.flag()).collect();
        println!("{:<40} {count}", set.join("+"));
    }
    println!("violations at all levels: {}", result.at_all_levels());
    let mut group = c.benchmark_group("fig2_venn_lcc");
    group.sample_size(10);
    group.bench_function("venn", |b| b.iter(|| result.venn()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
