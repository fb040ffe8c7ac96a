use criterion::{criterion_group, criterion_main, Criterion};
use holes_bench::pool_size;

use holes_compiler::Personality;
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::triage::triage_campaign;
use holes_pipeline::FaultPolicy;
use holes_progen::SeedRange;

/// Table 2: the optimizations most frequently identified as culprits, per
/// conjecture and compiler personality.
fn bench(c: &mut Criterion) {
    let seeds = SeedRange::new(43_000, 43_000 + pool_size() as u64);
    let policy = FaultPolicy::default();
    for personality in [Personality::Ccg, Personality::Lcc] {
        let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
        let table = triage_campaign(&spec, 4, &policy).table;
        println!("== Table 2 ({personality}) — top culprit passes ==");
        println!("{}", table.render(5));
        println!("distinct culprits: {}", table.distinct_culprits());
    }
    let mut group = c.benchmark_group("tab2");
    group.sample_size(10);
    // One program end to end: generate, campaign, triage.
    let spec = CampaignSpec::new(Personality::Ccg, 4, SeedRange::new(43_000, 43_001));
    group.bench_function("triage_one_program", |b| {
        b.iter(|| triage_campaign(&spec, 1, &policy))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
