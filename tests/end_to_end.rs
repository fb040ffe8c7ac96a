//! Cross-crate integration tests: generation → compilation → execution →
//! debugging → conjecture checking → triage → reduction, end to end.

use holes_compiler::{compile, CompilerConfig, OptLevel, Personality};
use holes_debugger::{trace, DebuggerKind};
use holes_minic::interp::Interpreter;
use holes_pipeline::campaign::run_campaign;
use holes_pipeline::report::build_report;
use holes_pipeline::shard::CampaignSpec;
use holes_pipeline::triage::triage;
use holes_pipeline::{subject_pool, FaultPolicy, Subject};
use holes_progen::{ProgramGenerator, SeedRange};

/// Every stage of the pipeline agrees on semantics: the interpreter, the
/// unoptimized executable, and every optimized executable of both
/// personalities produce the same observable outcome.
#[test]
fn semantics_agree_across_the_whole_matrix() {
    for seed in 100..106 {
        let generated = ProgramGenerator::from_seed(seed).generate();
        let reference = Interpreter::new(&generated.program)
            .run()
            .expect("interpreter");
        for personality in [Personality::Ccg, Personality::Lcc] {
            for version in [0, personality.trunk(), 5] {
                for &level in personality.levels() {
                    let config = CompilerConfig::new(personality, level).with_version(version);
                    let exe = compile(&generated.program, &config);
                    let outcome = exe.run().expect("vm execution");
                    assert!(
                        outcome.matches(&reference),
                        "seed {seed} {personality} v{version} {level} diverged"
                    );
                }
            }
        }
    }
}

/// The `-O0` baseline never violates any conjecture, for either debugger.
#[test]
fn o0_baseline_is_always_clean() {
    let pool = subject_pool(60_000, 6);
    for subject in &pool {
        for personality in [Personality::Ccg, Personality::Lcc] {
            let exe = subject.compile(&CompilerConfig::new(personality, OptLevel::O0));
            for kind in [DebuggerKind::GdbLike, DebuggerKind::LldbLike] {
                let t = trace(&exe, kind);
                let violations =
                    holes_core::check_all(&subject.program, &subject.analysis, &subject.source, &t);
                assert!(
                    violations.is_empty(),
                    "{personality} {kind:?}: {violations:?}"
                );
            }
        }
    }
}

/// Defect-free optimized compilation never violates a conjecture: every
/// violation the campaign finds is attributable to a catalogued defect.
#[test]
fn violations_only_come_from_catalogued_defects() {
    let pool = subject_pool(61_000, 5);
    for subject in &pool {
        for personality in [Personality::Ccg, Personality::Lcc] {
            for &level in personality.levels() {
                let clean = CompilerConfig::new(personality, level).without_defects();
                assert!(
                    subject.violations(&clean).is_empty(),
                    "defect-free {personality} {level} produced a violation"
                );
            }
        }
    }
}

/// A campaign on the trunk compilers finds violations, they can be triaged,
/// and their DIE-level classification is consistent.
#[test]
fn campaign_triage_and_report_work_together() {
    let pool = subject_pool(62_000, 8);
    let mut total_violations = 0usize;
    for personality in [Personality::Ccg, Personality::Lcc] {
        let seeds = SeedRange::new(62_000, 62_008);
        let spec = CampaignSpec::new(personality, personality.trunk(), seeds);
        let (result, _) = run_campaign(&pool, &spec, &FaultPolicy::default());
        total_violations += result.records.len();
        let report = build_report(
            &pool,
            &result,
            personality,
            personality.trunk(),
            holes_pipeline::BackendKind::Reg,
            20,
        );
        assert!(report.rows.len() <= 20);
        if let Some(record) = result.records.first() {
            let config =
                CompilerConfig::new(personality, record.level).with_version(personality.trunk());
            let outcome = triage(&pool[record.subject], &config, &record.violation);
            if personality == Personality::Lcc {
                assert!(!outcome.culprits.is_empty());
            }
        }
    }
    assert!(
        total_violations > 0,
        "the trunk defect catalogue should produce violations on an 8-program pool"
    );
}

/// The debugger-friendly level preserves at least as much debugging
/// experience as the aggressive levels, on average (the headline shape of
/// Figure 1).
#[test]
fn og_dominates_o3_in_the_product_metric() {
    let pool = subject_pool(63_000, 6);
    let mut og_product = 0.0f64;
    let mut o3_product = 0.0f64;
    for subject in &pool {
        let baseline = subject.trace(&CompilerConfig::new(Personality::Ccg, OptLevel::O0));
        let og = subject.trace(&CompilerConfig::new(Personality::Ccg, OptLevel::Og));
        let o3 = subject.trace(&CompilerConfig::new(Personality::Ccg, OptLevel::O3));
        og_product += holes_core::metrics::Metrics::compute(&og, &baseline).product;
        o3_product += holes_core::metrics::Metrics::compute(&o3, &baseline).product;
    }
    assert!(
        og_product >= o3_product,
        "-Og should retain at least as much debug information as -O3 ({og_product} vs {o3_product})"
    );
}

/// Directed reproduction of the paper's LSR case study (§3.3): with the
/// clang-like trunk, the loop induction variable indexing global memory
/// becomes unavailable at the store line; with the partially fixed
/// "trunk-star" profile it is available again at most levels.
#[test]
fn lsr_case_study_reproduces() {
    use holes_minic::ast::{BinOp, Expr, LValue, Stmt, Ty, VarRef};
    use holes_minic::build::ProgramBuilder;
    let mut b = ProgramBuilder::new();
    let arr = b.global_array("a", Ty::I32, false, vec![10], (0..10).collect());
    let c = b.global("c", Ty::I32, true, vec![0]);
    let main = b.function("main", Ty::I32);
    let i = b.local(main, "i", Ty::I32);
    b.push(
        main,
        Stmt::for_loop(
            Some(Stmt::assign(LValue::local(i), Expr::lit(0))),
            Some(Expr::binary(BinOp::Lt, Expr::local(i), Expr::lit(10))),
            Some(Stmt::assign(
                LValue::local(i),
                Expr::binary(BinOp::Add, Expr::local(i), Expr::lit(1)),
            )),
            vec![Stmt::assign(
                LValue::global(c),
                Expr::index(VarRef::Global(arr), vec![Expr::local(i)]),
            )],
        ),
    );
    b.push(main, Stmt::ret(Some(Expr::lit(0))));
    let subject = Subject::from_program(b.finish());
    // Disable the scheduler pass so that only the LSR defect can affect this
    // program (mirroring the paper's flag-based isolation of a culprit).
    let trunk =
        CompilerConfig::new(Personality::Lcc, OptLevel::O2).with_disabled_pass("machine-scheduler");
    let violations = subject.violations(&trunk);
    assert!(
        violations
            .iter()
            .any(|v| v.conjecture == holes_core::Conjecture::C2 && v.variable.as_ref() == "i"),
        "the LSR defect should make the induction variable unavailable: {violations:?}"
    );
    let fixed = trunk.clone().with_version(5);
    let after_fix = subject.violations(&fixed);
    assert!(
        !after_fix
            .iter()
            .any(|v| v.conjecture == holes_core::Conjecture::C2 && v.variable.as_ref() == "i"),
        "the trunk-star profile should fix the O2 LSR violation: {after_fix:?}"
    );
}

/// The frame-layout defect class (stale frame-base rule, missing
/// callee-saved save-slot rule) surfaces violations at sites no
/// pre-existing class reaches: over a seed range, the frame-backend
/// campaign's violation set minus the register- and stack-backend sets
/// (same seeds, same levels) is non-empty, and the frame defects verifiably
/// fired (they appear in the pipeline report like pass-level defects).
#[test]
fn frame_defect_class_surfaces_violations_no_preexisting_class_produces() {
    use holes_compiler::BackendKind;
    use std::collections::HashSet;

    let key = |v: holes_core::Violation| (v.conjecture, v.line, v.variable.as_ref().to_owned());
    let mut frame_only = 0usize;
    let mut frame_defects_fired = false;
    for seed in 0u64..8 {
        let subject = Subject::from_seed(seed);
        for &level in Personality::Ccg.levels() {
            let base = CompilerConfig::new(Personality::Ccg, level);
            let preexisting: HashSet<_> = [BackendKind::Reg, BackendKind::Stack]
                .into_iter()
                .flat_map(|backend| {
                    subject
                        .violations(&base.clone().with_backend(backend))
                        .into_iter()
                        .map(key)
                })
                .collect();
            let frame_config = base.with_backend(BackendKind::Frame);
            frame_defects_fired |= subject
                .compile(&frame_config)
                .report
                .defects_applied
                .iter()
                .any(|id| id.contains("-frame-"));
            frame_only += subject
                .violations(&frame_config)
                .into_iter()
                .map(key)
                .filter(|site| !preexisting.contains(site))
                .count();
        }
    }
    assert!(
        frame_defects_fired,
        "no frame-layout defect fired over the probed seed range"
    );
    assert!(
        frame_only > 0,
        "the frame-layout defect class exposed no new violation sites"
    );
}

#[test]
fn corpus_entries_distill_and_replay_deterministically_on_every_backend() {
    use holes_compiler::BackendKind;
    use holes_core::SiteQuery;
    use holes_pipeline::corpus::distill;

    for backend in [BackendKind::Reg, BackendKind::Stack, BackendKind::Frame] {
        // Find a violating site under this backend.
        let found = (2500u64..2520).find_map(|seed| {
            let subject = Subject::from_seed(seed);
            Personality::Ccg.levels().iter().find_map(|&level| {
                let config = CompilerConfig::new(Personality::Ccg, level).with_backend(backend);
                let violation = subject.violations(&config).first().cloned()?;
                Some((seed, config, violation))
            })
        });
        let (seed, config, violation) =
            found.unwrap_or_else(|| panic!("no violation found under {}", backend.name()));

        let subject = Subject::from_seed(seed);
        let entry = distill(&subject, &config, &violation);
        assert_eq!(entry.backend, backend);
        assert!(
            entry.reduced_statements <= entry.original_statements,
            "reduction grew the program"
        );

        // Replay re-verifies, and a second replay over a freshly built
        // subject is outcome-identical (determinism across processes).
        let first = entry.replay(&subject);
        assert!(
            first.passed(),
            "freshly distilled entry failed replay under {}: {first:?}",
            backend.name()
        );
        let again = entry.replay(&Subject::from_seed(entry.seed));
        assert_eq!(first, again, "replay is nondeterministic");

        // Culprit semantics hold at the recorded site: disabling a
        // pass-level culprit makes the violation vanish, while a
        // codegen-level ("isel") culprit survives an empty pass pipeline.
        let site = SiteQuery {
            conjecture: entry.conjecture,
            line: Some(entry.line),
            variable: &entry.variable,
            function: None,
        };
        match entry.culprit.as_deref() {
            Some("isel") => assert!(
                subject.query(&entry.config().with_pass_budget(0), &site),
                "isel-attributed violation vanished without any passes"
            ),
            Some(culprit) => assert!(
                !subject.query(&entry.config().with_disabled_pass(culprit), &site),
                "violation survived disabling its culprit `{culprit}`"
            ),
            None => {}
        }
    }
}
