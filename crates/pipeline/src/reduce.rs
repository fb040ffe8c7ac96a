//! Violation-preserving test-case reduction (§4.4).
//!
//! The paper builds on C-Reduce and adds an oracle that keeps both the
//! conjecture violation *and* the culprit optimization alive at every
//! reduction step. Our reducer works directly on the MiniC AST: it repeatedly
//! tries to delete statements (outermost first) and accepts a deletion only
//! when
//!
//! 1. the program still validates and terminates,
//! 2. the same violation (conjecture + variable) still occurs when compiling
//!    with the original configuration, and
//! 3. — when a culprit pass is supplied — the violation still *disappears*
//!    when that pass is disabled, so a different, more dominant defect cannot
//!    silently take over (the paper's §4.4 refinement).

use holes_compiler::CompilerConfig;
use holes_core::{Conjecture, SiteQuery, Violation};
use holes_minic::ast::{Program, Stmt, StmtKind};
use holes_minic::interp::Interpreter;
use holes_minic::lines::SourceMap;
use holes_minic::validate::validate;

use crate::Subject;

/// The result of reducing a violating program.
#[derive(Debug, Clone)]
pub struct ReducedCase {
    /// The reduced subject.
    pub subject: Subject,
    /// Number of statements in the original program.
    pub original_statements: usize,
    /// Number of statements after reduction.
    pub reduced_statements: usize,
    /// Number of reduction attempts performed.
    pub attempts: usize,
}

impl ReducedCase {
    /// Fraction of statements removed.
    pub fn reduction_ratio(&self) -> f64 {
        if self.original_statements == 0 {
            return 0.0;
        }
        1.0 - self.reduced_statements as f64 / self.original_statements as f64
    }
}

/// The oracle: does `program` still exhibit the violation (and, if a culprit
/// is given, does disabling the culprit still make it disappear)? `source`
/// is what assigning the program's lines returned. Returns the program back
/// when it does.
fn still_violates(
    program: Program,
    source: SourceMap,
    config: &CompilerConfig,
    conjecture: Conjecture,
    variable: &str,
    culprit: Option<&str>,
    fuel_limit: Option<u64>,
) -> Option<Program> {
    if validate(&program).is_err() {
        return None;
    }
    if Interpreter::new(&program).run().is_err() {
        return None;
    }
    let subject = Subject::from_rendered(program, source).with_fuel_limit(fuel_limit);
    // Reduction moves lines around, so the oracle matches the violation by
    // (conjecture, variable) at *any* line — a targeted query that stops at
    // the first matching site instead of sweeping every conjecture.
    let query = SiteQuery {
        conjecture,
        line: None,
        variable,
        function: None,
    };
    if !subject.query(config, &query) {
        return None;
    }
    if let Some(pass) = culprit {
        let disabled = config.clone().with_disabled_pass(pass);
        if subject.query(&disabled, &query) {
            // The violation survives without the culprit: a different defect
            // took over, reject the step to keep triage sound.
            return None;
        }
    }
    Some(subject.program)
}

/// Reduce a violating subject. `culprit` is the pass identified by triage
/// (pass `None` to reduce without culprit preservation).
///
/// Every oracle probe's virtual machines run under the subject's fuel limit
/// (see [`Subject::with_fuel_limit`]), as in the campaign drivers; under a
/// limit, a candidate that never terminates panics instead of hanging, so
/// callers wrap the reduction in [`crate::fault::contain`] to turn that
/// into a [`crate::fault::SubjectFault`].
pub fn reduce(
    subject: &Subject,
    config: &CompilerConfig,
    violation: &Violation,
    culprit: Option<&str>,
) -> ReducedCase {
    let fuel_limit = subject.fuel_limit;
    let conjecture = violation.conjecture;
    let variable = violation.variable.clone();
    let mut best = subject.program.clone();
    let original_statements = best.stmt_count();
    let mut attempts = 0usize;
    let mut progress = true;
    while progress {
        progress = false;
        let main = best.main();
        let body_len = best.function(main).body.len();
        for index in (0..body_len).rev() {
            let mut candidate = best.clone();
            let removed = candidate.functions[main.0].body.remove(index);
            // Never remove the statement hosting the violating construct
            // trivially: removal is attempted anyway and rejected by the
            // oracle when the violation disappears.
            if matches!(removed.kind, StmtKind::Return(_)) && index == body_len - 1 {
                continue;
            }
            attempts += 1;
            // One candidate per attempt: mutate it, re-assign its lines in
            // place (rendering it once), and keep it directly on oracle
            // success (line assignment is a pure function of program
            // structure, so the next round's re-assignment sees the same
            // program either way).
            let source = candidate.assign_lines();
            if let Some(kept) = still_violates(
                candidate, source, config, conjecture, &variable, culprit, fuel_limit,
            ) {
                best = kept;
                progress = true;
            }
        }
        // Also try hollowing out loop and branch bodies.
        let main = best.main();
        for index in 0..best.function(main).body.len() {
            let mut candidate = best.clone();
            let stmt = &mut candidate.functions[main.0].body[index];
            let simplified = simplify_stmt(stmt);
            if !simplified {
                continue;
            }
            attempts += 1;
            let source = candidate.assign_lines();
            if let Some(kept) = still_violates(
                candidate, source, config, conjecture, &variable, culprit, fuel_limit,
            ) {
                best = kept;
                progress = true;
            }
        }
    }
    let mut final_program = best;
    let source = final_program.assign_lines();
    let reduced_statements = final_program.stmt_count();
    ReducedCase {
        subject: Subject::from_rendered(final_program, source),
        original_statements,
        reduced_statements,
        attempts,
    }
}

/// Try to shrink a compound statement in place; returns whether anything
/// changed.
fn simplify_stmt(stmt: &mut Stmt) -> bool {
    match &mut stmt.kind {
        StmtKind::For { body, .. } if body.len() > 1 => {
            body.truncate(1);
            true
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } if !else_branch.is_empty() || then_branch.len() > 1 => {
            else_branch.clear();
            then_branch.truncate(1);
            true
        }
        StmtKind::Block(body) if body.len() > 1 => {
            body.truncate(1);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trunk_campaign;
    use crate::subject_pool;
    use holes_compiler::Personality;

    #[test]
    fn reduction_preserves_the_violation_and_shrinks_the_program() {
        let subjects = subject_pool(1300, 6);
        let personality = Personality::Ccg;
        let result = trunk_campaign(&subjects, personality);
        let Some(record) = result.records.first() else {
            // Extremely unlikely with the trunk defect catalogue; nothing to
            // reduce in that case.
            return;
        };
        let config = CompilerConfig::new(personality, record.level);
        let subject = &subjects[record.subject];
        let reduced = reduce(subject, &config, &record.violation, None);
        assert!(reduced.reduced_statements <= reduced.original_statements);
        // The reduced program still violates the same conjecture for the same
        // variable.
        let still = reduced.subject.violations(&config).iter().any(|v| {
            v.conjecture == record.violation.conjecture && v.variable == record.violation.variable
        });
        assert!(still, "reduction lost the violation");
        assert!(reduced.attempts > 0);
        let _ = reduced.reduction_ratio();
    }
}
