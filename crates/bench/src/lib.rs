//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the paper (see `benches/`). Each bench prints the regenerated
//! rows once (so `cargo bench` output doubles as the experiment log) and then
//! measures the cost of the underlying pipeline stage on a small pool.

#![forbid(unsafe_code)]

use holes_compiler::Personality;
use holes_pipeline::campaign::{run_campaign, CampaignResult};
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::{subject_pool, FaultPolicy, Subject};
use holes_progen::SeedRange;

/// Size of the program pool used by the benches. The paper uses 1000–5000
/// programs; the benches default to a small pool so that `cargo bench`
/// finishes quickly. Increase via the `HOLES_POOL` environment variable to
/// approach the paper's scale.
pub fn pool_size() -> usize {
    std::env::var("HOLES_POOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Build the shared benchmark pool.
pub fn bench_pool(seed: u64) -> Vec<Subject> {
    subject_pool(seed, pool_size())
}

/// The campaign spec a pool of consecutive seeds (as [`bench_pool`] builds)
/// stands for, at one `personality` version on the default backend.
pub fn pool_spec(pool: &[Subject], personality: Personality, version: usize) -> CampaignSpec {
    let start = pool.first().map_or(0, |subject| subject.seed);
    let seeds = SeedRange::new(start, start + pool.len() as u64);
    CampaignSpec::new(personality, version, seeds)
}

/// Run the campaign of [`pool_spec`] over `pool` under the default policy.
pub fn pool_campaign(pool: &[Subject], personality: Personality, version: usize) -> CampaignResult {
    let spec = pool_spec(pool, personality, version);
    run_campaign(pool, &spec, &FaultPolicy::default()).0
}
