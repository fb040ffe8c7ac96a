//! The optimization pass pipeline.
//!
//! Passes are plain functions over [`IrFunction`]s registered by name; the
//! pipeline runner executes the schedule selected by the
//! [`crate::config::CompilerConfig`] (personality, level,
//! version), honouring the two triage mechanisms of the paper's §4.3:
//! `-fno-<pass>`-style disabling and `-opt-bisect-limit`-style pass budgets.
//! After each pass runs, the runner applies the injected defects attached to
//! that pass (see [`crate::defects`]), which corrupt only debug bindings and
//! never generated code.

pub mod scalar;
pub mod structure;

use std::collections::HashSet;
use std::sync::Arc;

use holes_minic::ast::{GlobalId, Program};

use crate::config::CompilerConfig;
use crate::defects::{active_defects, apply_defect, Defect};
use crate::ir::{IrFunction, IrProgram, Op};

/// Shared context available to every pass.
#[derive(Debug)]
pub struct PassContext {
    /// Globals that are never written (and not volatile) anywhere in the
    /// program: loads from them may be replaced by their initializer.
    pub never_written_globals: HashSet<GlobalId>,
    /// Snapshot of the lowered (pre-optimization) program, used by the
    /// inliner and the inter-procedural constant pass.
    pub inline_sources: IrProgram,
    /// Whether the source global is volatile, by id.
    pub global_volatile: Vec<bool>,
    /// First initializer element of every global, by id (used when folding
    /// loads from never-written globals).
    pub global_inits: Vec<i64>,
}

impl PassContext {
    /// Lower `source` and build its context, keeping the lowered program as
    /// [`PassContext::inline_sources`] — the one lowering every
    /// configuration of the program starts from (see
    /// [`crate::compile_lowered`] and [`crate::PassSnapshots::record_lowered`]).
    pub fn lower(source: &Program) -> PassContext {
        let lowered = crate::lower::lower_program(source);
        PassContext::from_lowered(source, lowered)
    }

    /// Build the context from the source program and its lowered IR.
    pub fn new(source: &Program, lowered: &IrProgram) -> PassContext {
        PassContext::from_lowered(source, lowered.clone())
    }

    fn from_lowered(source: &Program, lowered: IrProgram) -> PassContext {
        let mut written: HashSet<GlobalId> = HashSet::new();
        for func in &lowered.functions {
            for inst in &func.insts {
                match inst.op {
                    Op::StoreGlobal { global, .. } | Op::AddrGlobal { global, .. } => {
                        written.insert(global);
                    }
                    _ => {}
                }
            }
        }
        let never_written = source
            .globals
            .iter()
            .enumerate()
            .filter(|(i, g)| !g.is_volatile && !written.contains(&GlobalId(*i)))
            .map(|(i, _)| GlobalId(i))
            .collect();
        PassContext {
            never_written_globals: never_written,
            inline_sources: lowered,
            global_volatile: source.globals.iter().map(|g| g.is_volatile).collect(),
            global_inits: source.globals.iter().map(|g| g.init[0]).collect(),
        }
    }
}

/// A report of what the pipeline did, used by triage and the benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Pass names that actually ran, in order.
    pub passes_run: Vec<String>,
    /// Defect ids that were applied, in order.
    pub defects_applied: Vec<String>,
}

/// Run one named pass over a function.
fn run_pass(name: &str, func: &mut IrFunction, cx: &PassContext) {
    match name {
        // Constant folding / propagation family.
        "instcombine" | "tree-ccp" | "ipsccp" | "tree-vrp" => scalar::constant_fold(func),
        "evrp" => {
            structure::fold_quiescent_globals(func, cx);
            scalar::constant_fold(func);
        }
        // Copy propagation family.
        "gvn" | "tree-fre" | "cprop-registers" => scalar::copy_propagate(func),
        // Dead code / store elimination.
        "dce" | "tree-dce" => scalar::dead_code_eliminate(func),
        "dse" | "tree-dse" => scalar::dead_store_eliminate(func),
        // Control-flow cleanup.
        "simplifycfg" | "simplifycfg-late" | "cfg-cleanup" => structure::cfg_cleanup(func),
        // Inter-procedural passes.
        "inline" => structure::inline_calls(func, cx),
        "ipa-pure-const" => structure::fold_pure_calls(func, cx),
        // Memory passes.
        "sroa" | "ipa-sra" => structure::promote_slots(func),
        // Loop passes.
        "loop-unroll" | "cunroll" => structure::unroll_loops(func),
        "loop-rotate" | "indvars" | "lsr" | "ivopts" => structure::loop_bookkeeping(func),
        // Scheduling and layout.
        "machine-scheduler" | "schedule-insns2" => structure::schedule_loads(func),
        "toplevel-reorder" => {}
        other => debug_assert!(false, "unknown pass {other}"),
    }
}

/// Run the configured pipeline over a whole program, applying injected
/// defects after the pass they belong to.
pub fn run_pipeline(
    ir: &mut IrProgram,
    source: &Program,
    config: &CompilerConfig,
) -> PipelineReport {
    run_pipeline_in(ir, &PassContext::new(source, ir), config)
}

/// [`run_pipeline`] over a context built once for the program: `ir` must be
/// a fresh copy of `cx`'s lowered program ([`PassContext::inline_sources`]).
pub(crate) fn run_pipeline_in(
    ir: &mut IrProgram,
    cx: &PassContext,
    config: &CompilerConfig,
) -> PipelineReport {
    run_pipeline_observed(ir, cx, config, |_, _| ())
}

/// The recorded execution of one pipeline run: the report, plus the whole
/// IR program after each scheduled pass (and its injected defects) — the
/// raw material of `holes_compiler::PassSnapshots`, which derives any
/// pass-budget prefix of the run by code generation alone.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoints {
    /// The full run's report: every pass, then the pass-level defects in
    /// application order, then the `isel` (code-generation stage) defects.
    pub report: PipelineReport,
    /// `checkpoints[k]` is the IR after the first `k` scheduled passes and
    /// their defects; `checkpoints[0]` is the freshly lowered program. A
    /// pass that left the IR unchanged shares its predecessor's checkpoint
    /// instead of cloning it. The code-generation stage's defects are
    /// **not** applied to any checkpoint — they belong to codegen, which
    /// every budget re-runs.
    pub checkpoints: Vec<Arc<IrProgram>>,
    /// `canonical[k]` is the first budget of the run of unchanged passes
    /// that ends at `k`: the smallest budget whose checkpoint `k` shares.
    pub canonical: Vec<usize>,
    /// `defect_counts[k]` is how many entries of `report.defects_applied`
    /// were applied within the first `k` passes (so the tail beyond
    /// `defect_counts[checkpoints.len() - 1]` is the isel stage's).
    pub defect_counts: Vec<usize>,
}

/// [`run_pipeline`], additionally recording a checkpoint of the IR after
/// every pass: each pass's IR is compared with the previous checkpoint and
/// cloned only when it differs. The final state of `ir` and the returned
/// report are identical to the unrecorded run.
pub fn run_pipeline_with_checkpoints(
    ir: &mut IrProgram,
    source: &Program,
    config: &CompilerConfig,
) -> PipelineCheckpoints {
    run_pipeline_with_checkpoints_in(ir, &PassContext::new(source, ir), config)
}

/// [`run_pipeline_with_checkpoints`] over a context built once for the
/// program: `ir` must be a fresh copy of `cx`'s lowered program.
pub(crate) fn run_pipeline_with_checkpoints_in(
    ir: &mut IrProgram,
    cx: &PassContext,
    config: &CompilerConfig,
) -> PipelineCheckpoints {
    let mut checkpoints = vec![Arc::new(ir.clone())];
    let mut canonical = vec![0usize];
    let mut defect_counts = vec![0usize];
    let report = run_pipeline_observed(ir, cx, config, |ir, defects_so_far| {
        let previous = checkpoints.last().expect("the lowered program");
        if **previous == *ir {
            canonical.push(canonical[canonical.len() - 1]);
            checkpoints.push(Arc::clone(previous));
        } else {
            canonical.push(checkpoints.len());
            checkpoints.push(Arc::new(ir.clone()));
        }
        defect_counts.push(defects_so_far);
    });
    PipelineCheckpoints {
        report,
        checkpoints,
        canonical,
        defect_counts,
    }
}

/// The shared pipeline loop: `observe` is called after each pass and its
/// defects with the current IR and the number of defects applied so far
/// (the recording run records checkpoints there; the plain run passes a
/// no-op that compiles away).
fn run_pipeline_observed(
    ir: &mut IrProgram,
    cx: &PassContext,
    config: &CompilerConfig,
    mut observe: impl FnMut(&IrProgram, usize),
) -> PipelineReport {
    let mut report = PipelineReport::default();
    let mut schedule = config.effective_schedule();
    if let Some(budget) = config.pass_budget {
        schedule.truncate(budget);
    }
    // Resolve the configuration's defects once; each pass then takes its
    // own in catalogue order.
    let active = active_defects(config);
    for pass in schedule {
        for func in &mut ir.functions {
            run_pass(pass, func, cx);
        }
        report.passes_run.push(pass.to_owned());
        apply_stage_defects(ir, &active, pass, &mut report);
        observe(ir, report.defects_applied.len());
    }
    // The always-on code-generation stage hosts its own defects.
    apply_stage_defects(ir, &active, "isel", &mut report);
    report
}

/// Apply the defects of `active` that live in `stage` (a pass name, or
/// `"isel"`) to every function, recording them in `report`.
pub(crate) fn apply_stage_defects(
    ir: &mut IrProgram,
    active: &[&Defect],
    stage: &str,
    report: &mut PipelineReport,
) {
    for defect in active.iter().filter(|d| d.pass == stage) {
        for func in &mut ir.functions {
            apply_defect(func, defect);
        }
        report.defects_applied.push(defect.id.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, OptLevel, Personality};
    use crate::defects::{self, frame_defect_plan, spill_loss_victims};
    use crate::ir::DebugVarId;
    use crate::lower::lower_program;
    use holes_minic::ast::{Expr, LValue, Stmt, Ty};
    use holes_minic::build::ProgramBuilder;
    use holes_progen::ProgramGenerator;
    use proptest::prelude::*;

    /// [`run_pass`] with the scalar kernels' oracles in place of the linear
    /// kernels; every other pass is the production one.
    fn run_oracle_pass(name: &str, func: &mut IrFunction, cx: &PassContext) {
        match name {
            "instcombine" | "tree-ccp" | "ipsccp" | "tree-vrp" => {
                scalar::oracle::constant_fold(func)
            }
            "evrp" => {
                structure::fold_quiescent_globals(func, cx);
                scalar::oracle::constant_fold(func);
            }
            "gvn" | "tree-fre" | "cprop-registers" => scalar::oracle::copy_propagate(func),
            other => run_pass(other, func, cx),
        }
    }

    /// The oracle's variables of `func` that `config`'s active `isel`
    /// defects of `action` select (the set the code generators consult).
    fn oracle_victims(
        config: &CompilerConfig,
        catalogue: &[Defect],
        func: &IrFunction,
        action: crate::defects::DefectAction,
    ) -> Vec<DebugVarId> {
        (0..func.vars.len() as u32)
            .map(DebugVarId)
            .filter(|&var| {
                catalogue.iter().any(|d| {
                    d.action == action
                        && d.active_in(config)
                        && defects::oracle::selects(func, d.selector, var)
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The linear kernels (dense-table constant folding and copy
        /// propagation, one-pass defect selection and vector rebuilds)
        /// leave the same IR as their oracles after every pass and after
        /// every stage's defects, at every level of both personalities;
        /// the code generators' defect victims agree too.
        #[test]
        fn linear_kernels_match_their_oracles_after_every_pass(seed in 0u64..1_000_000) {
            let program = ProgramGenerator::from_seed(seed).generate().program;
            let cx = PassContext::lower(&program);
            for personality in [Personality::Ccg, Personality::Lcc] {
                for &level in [OptLevel::O0].iter().chain(personality.levels()) {
                    let config = CompilerConfig::new(personality, level);
                    let active = active_defects(&config);
                    let mut fast = cx.inline_sources.clone();
                    let mut slow = fast.clone();
                    let mut report = PipelineReport::default();
                    let stages = config.effective_schedule().into_iter().map(Some);
                    for stage in stages.chain([None]) {
                        if let Some(pass) = stage {
                            for func in &mut fast.functions {
                                run_pass(pass, func, &cx);
                            }
                            for func in &mut slow.functions {
                                run_oracle_pass(pass, func, &cx);
                            }
                            prop_assert_eq!(&fast, &slow, "seed {} {} {}: pass {}", seed, personality, level, pass);
                        }
                        let stage = stage.unwrap_or("isel");
                        apply_stage_defects(&mut fast, &active, stage, &mut report);
                        for defect in active.iter().filter(|d| d.pass == stage) {
                            for func in &mut slow.functions {
                                defects::oracle::apply_defect(func, defect);
                            }
                        }
                        prop_assert_eq!(&fast, &slow, "seed {} {} {}: defects of {}", seed, personality, level, stage);
                    }
                    // The loop above is the pipeline's: same IR, same report.
                    let mut piped = cx.inline_sources.clone();
                    let piped_report = run_pipeline_in(&mut piped, &cx, &config);
                    prop_assert_eq!(&piped, &fast);
                    prop_assert_eq!(&piped_report.defects_applied, &report.defects_applied);
                    for func in &fast.functions {
                        let stack = config.clone().with_backend(BackendKind::Stack);
                        prop_assert_eq!(
                            spill_loss_victims(&stack, func),
                            oracle_victims(&stack, defects::stack_catalogue(personality), func, defects::DefectAction::DropSpillLoc)
                        );
                        let frame = config.clone().with_backend(BackendKind::Frame);
                        let plan = frame_defect_plan(&frame, func);
                        let frame_catalogue = defects::frame_catalogue(personality);
                        prop_assert_eq!(
                            plan.stale_fbreg,
                            oracle_victims(&frame, frame_catalogue, func, defects::DefectAction::StaleFrameBase)
                        );
                        prop_assert_eq!(
                            plan.callee_clobber,
                            oracle_victims(&frame, frame_catalogue, func, defects::DefectAction::ClobberCalleeSaved)
                        );
                    }
                }
            }
        }
    }

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(3))));
        b.push(main, Stmt::assign(LValue::global(g), Expr::local(x)));
        b.push(main, Stmt::call_opaque(vec![Expr::local(x)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        p.assign_lines();
        p
    }

    #[test]
    fn pipeline_runs_scheduled_passes() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let report = run_pipeline(&mut ir, &p, &config);
        assert_eq!(report.passes_run.len(), config.pass_schedule().len());
    }

    #[test]
    fn disabled_passes_are_skipped() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config =
            CompilerConfig::new(Personality::Ccg, OptLevel::O2).with_disabled_pass("tree-ccp");
        let report = run_pipeline(&mut ir, &p, &config);
        assert!(!report.passes_run.iter().any(|p| p == "tree-ccp"));
    }

    #[test]
    fn pass_budget_truncates_the_pipeline() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Lcc, OptLevel::O2).with_pass_budget(2);
        let report = run_pipeline(&mut ir, &p, &config);
        assert_eq!(report.passes_run.len(), 2);
    }

    #[test]
    fn defect_free_configuration_applies_no_defects() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2).without_defects();
        let report = run_pipeline(&mut ir, &p, &config);
        assert!(report.defects_applied.is_empty());
    }

    #[test]
    fn trunk_applies_defects_at_o2() {
        let p = sample();
        let mut ir = lower_program(&p);
        let config = CompilerConfig::new(Personality::Ccg, OptLevel::O2);
        let report = run_pipeline(&mut ir, &p, &config);
        assert!(!report.defects_applied.is_empty());
    }

    #[test]
    fn context_identifies_never_written_globals() {
        let mut b = ProgramBuilder::new();
        let quiet = b.global("quiet", Ty::I32, false, vec![0]);
        let noisy = b.global("noisy", Ty::I32, false, vec![0]);
        let volat = b.global("vol", Ty::I32, true, vec![0]);
        let main = b.function("main", Ty::I32);
        b.push(main, Stmt::assign(LValue::global(noisy), Expr::lit(1)));
        b.push(main, Stmt::ret(Some(Expr::global(quiet))));
        let mut p = b.finish();
        p.assign_lines();
        let ir = lower_program(&p);
        let cx = PassContext::new(&p, &ir);
        assert!(cx.never_written_globals.contains(&quiet));
        assert!(!cx.never_written_globals.contains(&noisy));
        assert!(!cx.never_written_globals.contains(&volat));
    }
}
