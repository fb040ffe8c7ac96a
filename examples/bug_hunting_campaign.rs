//! A full bug-hunting campaign in miniature: generate a pool, check the
//! three conjectures across all optimization levels of both compiler
//! personalities, triage the culprit optimizations, classify the DIE
//! manifestations, and print Table 1/2/3-style summaries.
//!
//! ```sh
//! cargo run --release --example bug_hunting_campaign -- 25
//! ```

use holes_compiler::Personality;
use holes_pipeline::campaign::run_campaign;
use holes_pipeline::report::build_report;
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::triage::triage_campaign;
use holes_pipeline::{subject_pool, FaultPolicy};
use holes_progen::SeedRange;

fn main() {
    let count: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    println!("generating {count} programs...");
    let pool = subject_pool(99_000, count);
    let seeds = SeedRange::new(99_000, 99_000 + count as u64);
    let policy = FaultPolicy::default();
    for personality in [Personality::Lcc, Personality::Ccg] {
        let trunk = personality.trunk();
        let spec = CampaignSpec::new(personality, trunk, seeds);
        let (result, _) = run_campaign(&pool, &spec, &policy);
        println!("\n================ {personality} trunk ================");
        println!("--- Table 1: violations per level ---");
        println!("{}", result.table1());
        println!(
            "violations reproducing at every level: {}",
            result.at_all_levels()
        );

        println!("--- Table 2: top culprit optimizations ---");
        let triaged = triage_campaign(&spec, 5, &policy).table;
        println!("{}", triaged.render(5));

        println!("--- Table 3: DIE-level classification ---");
        let report = build_report(
            &pool,
            &result,
            personality,
            trunk,
            holes_pipeline::BackendKind::Reg,
            30,
        );
        println!("{}", report.render());
    }
}
