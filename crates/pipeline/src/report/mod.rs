//! Issue classification and reporting (§5.3, Table 3).
//!
//! For every unique violation the reporter determines:
//!
//! * the **DIE-level manifestation** — Missing, Hollow, Incomplete or
//!   covered-but-undisplayable DIE — by inspecting the executable's debug
//!   information at the violating program point, and
//! * whether the issue lies in the **compiler or the debugger**, by repeating
//!   the inspection in the *other* debugger personality, exactly as the paper
//!   validates violations "also in a different debugger" (§4.2).
//!
//! The [`sarif`] and [`junit`] submodules render violation sets in the two
//! CI-native interchange formats — SARIF 2.1.0 for code-scanning uploads
//! and JUnit XML for test-summary UIs — consumed by `holes report --format`
//! and `holes baseline diff --format` (see [`crate::baseline`]).

pub mod junit;
pub mod sarif;

use std::collections::{BTreeMap, BTreeSet};

use holes_compiler::CompilerConfig;
use holes_core::json::Json;
use holes_core::{Conjecture, Violation};
use holes_debugger::DebuggerKind;
use holes_debuginfo::{categorize_variable, DieCategory};

use crate::campaign::{unique_key, CampaignResult, UniqueKey};
use crate::Subject;

/// Whether a violation is attributed to the compiler or to the native
/// debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IssueComponent {
    /// The debug information itself is incomplete: a compiler issue.
    Compiler,
    /// The debug information is sufficient and another debugger displays the
    /// value, but the native debugger does not: a debugger issue.
    Debugger,
}

/// One row of the issue report (the reproduction's Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueRow {
    /// Seed of the exposing program.
    pub seed: u64,
    /// The conjecture that exposed the issue.
    pub conjecture: Conjecture,
    /// The affected variable (shared with the violation record's name).
    pub variable: std::sync::Arc<str>,
    /// The violating line.
    pub line: u32,
    /// DIE-level manifestation.
    pub category: DieCategory,
    /// Compiler or debugger issue.
    pub component: IssueComponent,
}

/// The full issue report.
#[derive(Debug, Clone, Default)]
pub struct IssueReport {
    /// All rows.
    pub rows: Vec<IssueRow>,
}

impl IssueReport {
    /// Number of rows with a given DIE category.
    pub fn count_category(&self, category: DieCategory) -> usize {
        self.rows.iter().filter(|r| r.category == category).count()
    }

    /// Number of rows attributed to the debugger.
    pub fn debugger_issues(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.component == IssueComponent::Debugger)
            .count()
    }

    /// Number of rows attributed to the compiler.
    pub fn compiler_issues(&self) -> usize {
        self.rows.len() - self.debugger_issues()
    }

    /// Render as plain text, one row per issue plus a category summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("seed  conj  variable        line  category          component\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<5} {:<5} {:<15} {:<5} {:<17} {:?}\n",
                row.seed,
                row.conjecture.to_string(),
                row.variable,
                row.line,
                row.category.to_string(),
                row.component
            ));
        }
        out.push_str(&format!(
            "\nMissing: {}  Hollow: {}  Incomplete: {}  Covered: {}  (compiler {}, debugger {})\n",
            self.count_category(DieCategory::MissingDie),
            self.count_category(DieCategory::HollowDie),
            self.count_category(DieCategory::IncompleteDie),
            self.count_category(DieCategory::Covered),
            self.compiler_issues(),
            self.debugger_issues(),
        ));
        out
    }

    /// The machine-readable issue report: one entry per row plus the
    /// category and component summaries. Deterministic — equal reports
    /// always serialize to equal bytes.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("seed".to_owned(), Json::from_u64(row.seed)),
                    (
                        "conjecture".to_owned(),
                        Json::str(row.conjecture.to_string()),
                    ),
                    ("variable".to_owned(), Json::str(row.variable.as_ref())),
                    ("line".to_owned(), Json::from_u64(row.line.into())),
                    ("category".to_owned(), Json::str(row.category.to_string())),
                    (
                        "component".to_owned(),
                        Json::str(match row.component {
                            IssueComponent::Compiler => "compiler",
                            IssueComponent::Debugger => "debugger",
                        }),
                    ),
                ])
            })
            .collect();
        let categories = [
            ("missing", DieCategory::MissingDie),
            ("hollow", DieCategory::HollowDie),
            ("incomplete", DieCategory::IncompleteDie),
            ("covered", DieCategory::Covered),
        ]
        .into_iter()
        .map(|(name, category)| {
            (
                name.to_owned(),
                Json::from_usize(self.count_category(category)),
            )
        })
        .collect::<Vec<_>>();
        Json::Obj(vec![
            ("format".to_owned(), Json::str("holes.issues/v1")),
            ("rows".to_owned(), Json::Arr(rows)),
            ("categories".to_owned(), Json::Obj(categories)),
            (
                "compiler_issues".to_owned(),
                Json::from_usize(self.compiler_issues()),
            ),
            (
                "debugger_issues".to_owned(),
                Json::from_usize(self.debugger_issues()),
            ),
        ])
    }
}

/// Classify one violation.
pub fn classify(
    subject: &Subject,
    config: &CompilerConfig,
    violation: &Violation,
) -> (DieCategory, IssueComponent) {
    let exe = subject.compile_shared(config);
    let address = exe
        .debug
        .line_table
        .first_address_of_line(violation.line)
        .unwrap_or(0);
    let category = categorize_variable(&exe.debug, &violation.variable, address);
    // Cross-check with the other debugger personality (memoized per
    // configuration, like the native trace).
    let native = DebuggerKind::native_for(config.personality);
    let other = match native {
        DebuggerKind::GdbLike => DebuggerKind::LldbLike,
        DebuggerKind::LldbLike => DebuggerKind::GdbLike,
    };
    let other_trace = subject.trace_shared(config, other);
    let other_shows_it = other_trace
        .var_at(violation.line, &violation.variable)
        .map(|s| s.is_available())
        .unwrap_or(false);
    let component = if other_shows_it {
        IssueComponent::Debugger
    } else {
        IssueComponent::Compiler
    };
    (category, component)
}

/// Build the issue report for (a sample of) a campaign's unique violations.
/// The `backend` must be the one the campaign ran on, so the classified
/// executables carry the location descriptions the violations were
/// observed against.
pub fn build_report(
    subjects: &[Subject],
    result: &CampaignResult,
    personality: holes_compiler::Personality,
    version: usize,
    backend: holes_compiler::BackendKind,
    limit: usize,
) -> IssueReport {
    let mut report = IssueReport::default();
    let mut seen: BTreeSet<UniqueKey> = BTreeSet::new();
    for record in &result.records {
        if report.rows.len() >= limit {
            break;
        }
        if !seen.insert(unique_key(record)) {
            continue;
        }
        let config = CompilerConfig::new(personality, record.level)
            .with_version(version)
            .with_backend(backend);
        let (category, component) = classify(&subjects[record.subject], &config, &record.violation);
        report.rows.push(IssueRow {
            seed: record.seed,
            conjecture: record.violation.conjecture,
            variable: record.violation.variable.clone(),
            line: record.violation.line,
            category,
            component,
        });
    }
    report
}

/// [`build_report`] without a pre-generated pool: subjects are regenerated
/// from the records' seeds, and only for the (at most `limit`) programs the
/// report actually classifies — the right entry point for drivers holding a
/// merged campaign over a large seed range.
///
/// Requires records whose `seed` fields are the generator seeds of their
/// programs (true for every generated campaign; not for hand-written
/// subjects, whose seed is 0). Produces exactly the rows `build_report`
/// would.
pub fn build_report_from_seeds(
    result: &CampaignResult,
    personality: holes_compiler::Personality,
    version: usize,
    backend: holes_compiler::BackendKind,
    limit: usize,
) -> IssueReport {
    let mut report = IssueReport::default();
    let mut seen: BTreeSet<UniqueKey> = BTreeSet::new();
    let mut subjects: BTreeMap<usize, Subject> = BTreeMap::new();
    for record in &result.records {
        if report.rows.len() >= limit {
            break;
        }
        if !seen.insert(unique_key(record)) {
            continue;
        }
        let subject = subjects
            .entry(record.subject)
            .or_insert_with(|| Subject::from_seed(record.seed));
        let config = CompilerConfig::new(personality, record.level)
            .with_version(version)
            .with_backend(backend);
        let (category, component) = classify(subject, &config, &record.violation);
        report.rows.push(IssueRow {
            seed: record.seed,
            conjecture: record.violation.conjecture,
            variable: record.violation.variable.clone(),
            line: record.violation.line,
            category,
            component,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::trunk_campaign;
    use crate::subject_pool;
    use holes_compiler::Personality;

    #[test]
    fn seed_driven_report_matches_the_pool_driven_report() {
        let subjects = subject_pool(1510, 6);
        let personality = Personality::Ccg;
        let result = trunk_campaign(&subjects, personality);
        let from_pool = build_report(
            &subjects,
            &result,
            personality,
            personality.trunk(),
            holes_compiler::BackendKind::Reg,
            10,
        );
        let from_seeds = build_report_from_seeds(
            &result,
            personality,
            personality.trunk(),
            holes_compiler::BackendKind::Reg,
            10,
        );
        assert_eq!(from_pool.rows, from_seeds.rows);
    }

    #[test]
    fn report_classifies_violations_into_categories() {
        let subjects = subject_pool(1500, 6);
        let personality = Personality::Ccg;
        let result = trunk_campaign(&subjects, personality);
        let report = build_report(
            &subjects,
            &result,
            personality,
            personality.trunk(),
            holes_compiler::BackendKind::Reg,
            25,
        );
        if result.records.is_empty() {
            return;
        }
        assert!(!report.rows.is_empty());
        let rendered = report.render();
        assert!(rendered.contains("category"));
        // Every row has a sensible category (covered DIEs correspond to the
        // paper's "Incorrect DIE" / debugger cases).
        assert_eq!(
            report.rows.len(),
            report.count_category(DieCategory::MissingDie)
                + report.count_category(DieCategory::HollowDie)
                + report.count_category(DieCategory::IncompleteDie)
                + report.count_category(DieCategory::Covered)
        );
    }
}
