//! Golden-file tests for the CI-facing emitters: baseline documents,
//! baseline diffs (text/JSON/SARIF/JUnit), SARIF logs, JUnit XML, corpus
//! entries, the triage table and a reduce transcript are compared
//! byte-for-byte against checked-in fixtures under `tests/golden/`.
//!
//! When an emitter changes on purpose, re-bless the fixtures with
//! `HOLES_BLESS=1 cargo test --test golden` and review the diff like any
//! other code change.

use std::path::Path;

use holes::compiler::{BackendKind, CompilerConfig, OptLevel, Personality};
use holes::core::{Conjecture, Observed};
use holes::pipeline::baseline::Baseline;
use holes::pipeline::campaign::run_campaign;
use holes::pipeline::corpus::{Corpus, CorpusEntry};
use holes::pipeline::reduce::reduce;
use holes::pipeline::report::junit::{junit_xml, CaseOutcome, TestCase};
use holes::pipeline::report::sarif::{sarif_log, SarifResult};
use holes::pipeline::shard::{run_shard, CampaignSpec};
use holes::pipeline::triage::{triage, triage_campaign};
use holes::pipeline::{subject_pool, FaultPolicy, Subject};
use holes::progen::SeedRange;

/// Compare `actual` against the fixture `tests/golden/<name>`, or rewrite
/// the fixture when `HOLES_BLESS=1` is set.
fn check(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("HOLES_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with `HOLES_BLESS=1 cargo test --test golden`",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "`{name}` drifted from its golden fixture; if the change is \
         intended, re-bless with `HOLES_BLESS=1 cargo test --test golden`"
    );
}

/// Record a baseline from a real (deterministic) campaign run.
fn recorded_baseline(seeds: &str) -> Baseline {
    let range: SeedRange = seeds.parse().unwrap();
    let spec = CampaignSpec::new(Personality::Ccg, Personality::Ccg.trunk(), range);
    let (shard, _) = run_shard(&spec, &FaultPolicy::default()).unwrap();
    Baseline::from_tallies(&shard.spec, &shard.result.tallies())
}

#[test]
fn baseline_document_bytes_are_stable() {
    let baseline = recorded_baseline("2500..2503");
    check("baseline.json", &baseline.to_json().to_pretty());
}

#[test]
fn baseline_diff_renderings_are_stable() {
    let baseline = recorded_baseline("2500..2503");
    let run = recorded_baseline("2500..2504");
    let diff = baseline.diff(&run).unwrap();
    check("diff.txt", &diff.render());
    check("diff.json", &diff.to_json().to_pretty());
    check("diff.sarif.json", &diff.sarif().to_pretty());
    check("diff.junit.xml", &diff.junit());
}

#[test]
fn sarif_log_bytes_are_stable() {
    check("empty.sarif.json", &sarif_log(&[]).to_pretty());
    let results = vec![
        SarifResult {
            rule: Conjecture::C1,
            level: "warning",
            message: "C1 violation: variable `j17` at line 48 of seed 2500".to_owned(),
            uri: "seed-2500.minic".to_owned(),
            line: 48,
            fingerprint: "s2500:C1:L48:j17".to_owned(),
        },
        SarifResult {
            rule: Conjecture::C3,
            level: "error",
            message: "C3 violation: variable `g2` at line 7 of seed 41".to_owned(),
            uri: "seed-41.minic".to_owned(),
            line: 7,
            fingerprint: "s41:C3:L7:g2".to_owned(),
        },
    ];
    check("report.sarif.json", &sarif_log(&results).to_pretty());
}

#[test]
fn junit_xml_bytes_are_stable() {
    let cases = vec![
        TestCase {
            classname: "holes.C1".to_owned(),
            name: "s2500:C1:L48:j17".to_owned(),
            outcome: CaseOutcome::Passed,
        },
        TestCase {
            classname: "holes.C2".to_owned(),
            name: "s7:C2:L3:a0".to_owned(),
            outcome: CaseOutcome::Failed {
                message: "new violation, not in the baseline".to_owned(),
            },
        },
        TestCase {
            classname: "holes.C3".to_owned(),
            name: "s9:C3:L12:b1".to_owned(),
            outcome: CaseOutcome::Skipped {
                message: "fixed: in the baseline, absent from this run".to_owned(),
            },
        },
    ];
    check("report.junit.xml", &junit_xml("baseline-diff", &cases));
}

#[test]
fn corpus_document_bytes_are_stable() {
    let mut corpus = Corpus::new();
    corpus.add(CorpusEntry {
        seed: 2500,
        personality: Personality::Ccg,
        version: Personality::Ccg.trunk(),
        level: OptLevel::Og,
        backend: BackendKind::Reg,
        conjecture: Conjecture::C1,
        line: 48,
        variable: "j17".to_owned(),
        observed: Observed::OptimizedOut,
        culprit: Some("tree-ccp".to_owned()),
        original_statements: 41,
        reduced_statements: 12,
        reduced_source: "int j17 = 1;\nreturn j17;\n".to_owned(),
    });
    corpus.add(CorpusEntry {
        seed: 9,
        personality: Personality::Lcc,
        version: 2,
        level: OptLevel::O2,
        backend: BackendKind::Stack,
        conjecture: Conjecture::C2,
        line: 3,
        variable: "a0".to_owned(),
        observed: Observed::NotVisible,
        culprit: None,
        original_statements: 17,
        reduced_statements: 17,
        reduced_source: "int a0 = 0;\n".to_owned(),
    });
    check("corpus.json", &corpus.to_json().to_pretty());
}

/// The bytes of `holes triage --personality lcc --seeds 2500..2506 --limit
/// 1000000 --json`. Every bisection probe traces through a freshly built
/// stop plan, so this pins the debugger's planning on the triage path.
#[test]
fn triage_table_bytes_are_stable() {
    let seeds: SeedRange = "2500..2506".parse().unwrap();
    let spec = CampaignSpec::new(Personality::Lcc, Personality::Lcc.trunk(), seeds);
    let subjects = subject_pool(seeds.start, seeds.len() as usize);
    let policy = FaultPolicy::default();
    let (result, _) = run_campaign(&subjects, &spec, &policy);
    let (table, faults, _) = triage_campaign(&subjects, &spec, &result, 1_000_000, &policy);
    assert!(faults.is_empty());
    check(
        "cli-triage-2500-2506-lcc.json",
        &table.to_json().to_pretty(),
    );
}

/// The transcript of `holes reduce --personality lcc --seed 2501`, whose
/// reduction shrinks the program: the first violating level, the bisected
/// culprit, and the reduced source the reducer's re-queries converge on.
#[test]
fn reduce_transcript_bytes_are_stable() {
    let seed = 2501;
    let subject = Subject::from_seed(seed);
    let (config, violation) = Personality::Lcc
        .levels()
        .iter()
        .find_map(|&level| {
            let config = CompilerConfig::new(Personality::Lcc, level);
            let violation = subject.violations(&config).first().cloned()?;
            Some((config, violation))
        })
        .expect("seed 2501 violates under lcc");
    let outcome = triage(&subject, &config, &violation);
    let culprit = outcome.culprits.first().expect("bisection names a culprit");
    let reduced = reduce(&subject, &config, &violation, Some(culprit));
    assert!(reduced.reduced_statements < reduced.original_statements);
    let transcript = format!(
        "seed {seed}: {} violation at {} — variable `{}` at line {}, observed {}\n\
         culprit: {culprit} (of {:?})\n\
         reduced {} -> {} statements ({:.0}% smaller) in {} attempts\n\
         \n\
         // reduced program (seed {seed})\n\
         {}",
        violation.conjecture,
        config.describe(),
        violation.variable,
        violation.line,
        violation.observed,
        outcome.culprits,
        reduced.original_statements,
        reduced.reduced_statements,
        reduced.reduction_ratio() * 100.0,
        reduced.attempts,
        reduced.subject.source.text,
    );
    check("cli-reduce-2501-lcc.txt", &transcript);
}
