//! The paper's core contribution: conjecture-based detection of incomplete
//! debug information, plus the quantitative metrics of §2.
//!
//! Three empirically derived conjectures predict when a variable *should* be
//! available while debugging optimized code:
//!
//! * **Conjecture 1** ([`check_conjecture1`]): a variable passed as an
//!   argument to a call to an opaque function must be available at the call
//!   line.
//! * **Conjecture 2** ([`check_conjecture2`]): at a line assigning global
//!   storage through a non-simplifiable expression, constituent variables
//!   that are constants, address constants, or unalterable loop indices that
//!   stay live must be available.
//! * **Conjecture 3** ([`check_conjecture3`]): after a local variable is
//!   assigned, its availability may only stay the same or decay until the
//!   next reassignment; it must never improve.
//!
//! A deviation is a [`Violation`]; the campaign pipeline
//! (`holes-pipeline`) aggregates violations across programs, optimization
//! levels and compiler versions to regenerate the paper's tables and figures.
//! The [`metrics`] module computes the line-coverage and
//! availability-of-variables metrics of the preliminary study (Figure 1).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod metrics;

use std::sync::Arc;

use holes_debugger::{DebugTrace, VarStatus};
use holes_minic::analysis::{ConstituentKind, ProgramAnalysis};
use holes_minic::ast::{FunctionId, Program, VarRef};
use holes_minic::lines::SourceMap;

/// Which conjecture a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Conjecture {
    /// Visibility of call argument sources.
    C1,
    /// Availability of constituents of global stores.
    C2,
    /// Decaying visibility of a variable.
    C3,
}

impl Conjecture {
    /// All conjectures.
    pub const ALL: [Conjecture; 3] = [Conjecture::C1, Conjecture::C2, Conjecture::C3];

    /// 1-based index as used in the paper's tables.
    pub fn index(self) -> u8 {
        match self {
            Conjecture::C1 => 1,
            Conjecture::C2 => 2,
            Conjecture::C3 => 3,
        }
    }

    /// The spelling used in tables and report files: `C1`, `C2` or `C3`.
    pub fn name(self) -> &'static str {
        match self {
            Conjecture::C1 => "C1",
            Conjecture::C2 => "C2",
            Conjecture::C3 => "C3",
        }
    }
}

impl std::fmt::Display for Conjecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Failed parse of a [`Conjecture`] or [`Observed`] spelling, as used in
/// report files and CLI flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEnumError {
    what: &'static str,
    input: String,
}

impl ParseEnumError {
    fn new(what: &'static str, input: &str) -> ParseEnumError {
        ParseEnumError {
            what,
            input: input.to_owned(),
        }
    }
}

impl std::fmt::Display for ParseEnumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown {}: `{}`", self.what, self.input)
    }
}

impl std::error::Error for ParseEnumError {}

impl std::str::FromStr for Conjecture {
    type Err = ParseEnumError;

    /// Parse a conjecture from its table spelling (`C1`/`c1`) or bare index
    /// (`1`).
    fn from_str(s: &str) -> Result<Conjecture, ParseEnumError> {
        let index = s.strip_prefix(['C', 'c']).unwrap_or(s);
        Conjecture::ALL
            .into_iter()
            .find(|c| c.index().to_string() == index)
            .ok_or_else(|| ParseEnumError::new("conjecture", s))
    }
}

/// One conjecture violation: at `line`, `variable` was expected to be
/// available but was observed as `observed`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Violation {
    /// The violated conjecture.
    pub conjecture: Conjecture,
    /// The source line where availability was expected.
    pub line: u32,
    /// The variable's source name. Shared (`Arc<str>`) so that campaign
    /// records, unique-violation keys, and triage selections dedup and
    /// clone violations without re-allocating the name.
    pub variable: Arc<str>,
    /// The function containing the line.
    pub function: FunctionId,
    /// What the debugger actually showed.
    pub observed: Observed,
}

/// The observed state of a variable behind a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Observed {
    /// The variable was not listed in the frame at all.
    NotVisible,
    /// The variable was listed but `<optimized out>`.
    OptimizedOut,
    /// The variable's availability *improved* during its lifetime
    /// (Conjecture 3 only).
    Reappeared,
}

impl Observed {
    /// All observations.
    pub const ALL: [Observed; 3] = [
        Observed::NotVisible,
        Observed::OptimizedOut,
        Observed::Reappeared,
    ];

    /// The stable spelling used in report files (`not-visible`,
    /// `optimized-out`, `reappeared`).
    pub fn name(self) -> &'static str {
        match self {
            Observed::NotVisible => "not-visible",
            Observed::OptimizedOut => "optimized-out",
            Observed::Reappeared => "reappeared",
        }
    }
}

impl std::fmt::Display for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Observed {
    type Err = ParseEnumError;

    /// Parse an observation from its [`Observed::name`] spelling.
    fn from_str(s: &str) -> Result<Observed, ParseEnumError> {
        Observed::ALL
            .into_iter()
            .find(|o| o.name() == s)
            .ok_or_else(|| ParseEnumError::new("observation", s))
    }
}

/// A key identifying a violation independently of the optimization level, as
/// the paper counts "unique" violations (Table 1's last row). Cloning the
/// shared name is a reference-count bump, not an allocation.
pub fn violation_key(v: &Violation) -> (Conjecture, u32, Arc<str>) {
    (v.conjecture, v.line, v.variable.clone())
}

/// A targeted oracle query: does a *specific* site violate a conjecture?
///
/// Triage and reduction re-query the oracle many times per violation; running
/// [`check_all`] over every site of the program for each query is the
/// paper's ~30 s-per-conjecture cost. A `SiteQuery` restricts checking to one
/// `(conjecture, line, variable)` site — or, with `line`/`function` left
/// `None`, to one variable anywhere — and short-circuits on the first match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteQuery<'a> {
    /// The conjecture to check.
    pub conjecture: Conjecture,
    /// Restrict to this source line (`None`: any line).
    pub line: Option<u32>,
    /// The variable's source name.
    pub variable: &'a str,
    /// Restrict to this function (`None`: any function).
    pub function: Option<FunctionId>,
}

impl<'a> SiteQuery<'a> {
    /// The query matching exactly one observed violation's site.
    pub fn for_violation(violation: &'a Violation) -> SiteQuery<'a> {
        SiteQuery {
            conjecture: violation.conjecture,
            line: Some(violation.line),
            variable: &violation.variable,
            function: Some(violation.function),
        }
    }

    fn wants_line(&self, line: u32) -> bool {
        self.line.is_none_or(|l| l == line)
    }

    fn wants_function(&self, function: FunctionId) -> bool {
        self.function.is_none_or(|f| f == function)
    }
}

/// Check whether the queried site violates its conjecture under a trace.
///
/// Equivalent to running [`check_all`] and filtering for the site, but visits
/// only the sites the query selects and stops at the first hit.
pub fn query_violation(
    program: &Program,
    analysis: &ProgramAnalysis,
    source: &SourceMap,
    trace: &DebugTrace,
    query: &SiteQuery<'_>,
) -> bool {
    match query.conjecture {
        Conjecture::C1 => query_conjecture1(program, analysis, trace, query),
        Conjecture::C2 => query_conjecture2(program, analysis, trace, query),
        Conjecture::C3 => query_conjecture3(program, analysis, source, trace, query),
    }
}

fn query_conjecture1(
    program: &Program,
    analysis: &ProgramAnalysis,
    trace: &DebugTrace,
    query: &SiteQuery<'_>,
) -> bool {
    for site in &analysis.opaque_calls {
        if !query.wants_line(site.line)
            || !query.wants_function(site.function)
            || trace.stop_at(site.line).is_none()
        {
            continue;
        }
        for &arg in &site.arg_vars {
            let Some(name) = local_name(program, site.function, arg) else {
                continue;
            };
            if name != query.variable {
                continue;
            }
            let status = trace
                .var_at(site.line, &name)
                .unwrap_or(VarStatus::NotVisible);
            if !status.is_available() {
                return true;
            }
        }
    }
    false
}

fn query_conjecture2(
    program: &Program,
    analysis: &ProgramAnalysis,
    trace: &DebugTrace,
    query: &SiteQuery<'_>,
) -> bool {
    for site in &analysis.global_stores {
        if site.simplifiable
            || !query.wants_line(site.line)
            || !query.wants_function(site.function)
            || trace.stop_at(site.line).is_none()
        {
            continue;
        }
        for constituent in &site.constituents {
            let expected = match constituent.kind {
                ConstituentKind::ConstantValued | ConstituentKind::AddressConstant => true,
                ConstituentKind::UnalterableIndex => constituent.live_after,
            };
            if !expected {
                continue;
            }
            let name = &program.function(site.function).local(constituent.var).name;
            if name != query.variable {
                continue;
            }
            let status = trace
                .var_at(site.line, name)
                .unwrap_or(VarStatus::NotVisible);
            if !status.is_available() {
                return true;
            }
        }
    }
    false
}

fn query_conjecture3(
    program: &Program,
    analysis: &ProgramAnalysis,
    source: &SourceMap,
    trace: &DebugTrace,
    query: &SiteQuery<'_>,
) -> bool {
    use std::collections::BTreeMap;
    // Mirror `check_conjecture3`'s walk, restricted to matching
    // (function, local) groups; availability tracking must replay the whole
    // line sequence of a group even when only one line is queried, because
    // the rank comparison is stateful.
    let mut assignments: BTreeMap<(FunctionId, usize), Vec<u32>> = BTreeMap::new();
    for site in &analysis.local_assignments {
        if !query.wants_function(site.function) {
            continue;
        }
        assignments
            .entry((site.function, site.local.0))
            .or_default()
            .push(site.line);
    }
    for ((function, local), mut assign_lines) in assignments {
        let name = &program
            .function(function)
            .local(holes_minic::ast::LocalId(local))
            .name;
        if name != query.variable {
            continue;
        }
        assign_lines.sort_unstable();
        assign_lines.dedup();
        let first = assign_lines[0];
        let mut current_rank: Option<u8> = None;
        for &line in source.lines_of(function).iter().filter(|&&l| l >= first) {
            if assign_lines.contains(&line) {
                current_rank = None;
                continue;
            }
            if trace.stop_at(line).is_none() {
                continue;
            }
            let status = trace.var_at(line, name).unwrap_or(VarStatus::NotVisible);
            let rank = status.rank();
            if let Some(previous) = current_rank {
                if rank > previous && query.wants_line(line) {
                    return true;
                }
            }
            current_rank = Some(rank);
        }
    }
    false
}

fn status_to_observed(status: VarStatus) -> Observed {
    match status {
        VarStatus::NotVisible => Observed::NotVisible,
        _ => Observed::OptimizedOut,
    }
}

fn local_name(program: &Program, function: FunctionId, var: VarRef) -> Option<String> {
    match var {
        VarRef::Local(l) => Some(program.function(function).local(l).name.clone()),
        VarRef::Global(_) => None,
    }
}

/// Check Conjecture 1 against a debugger trace.
pub fn check_conjecture1(
    program: &Program,
    analysis: &ProgramAnalysis,
    trace: &DebugTrace,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for site in &analysis.opaque_calls {
        if trace.stop_at(site.line).is_none() {
            continue;
        }
        for &arg in &site.arg_vars {
            let Some(name) = local_name(program, site.function, arg) else {
                continue;
            };
            let status = trace
                .var_at(site.line, &name)
                .unwrap_or(VarStatus::NotVisible);
            if !status.is_available() {
                out.push(Violation {
                    conjecture: Conjecture::C1,
                    line: site.line,
                    variable: Arc::from(name.as_str()),
                    function: site.function,
                    observed: status_to_observed(status),
                });
            }
        }
    }
    out
}

/// Check Conjecture 2 against a debugger trace.
pub fn check_conjecture2(
    program: &Program,
    analysis: &ProgramAnalysis,
    trace: &DebugTrace,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for site in &analysis.global_stores {
        if site.simplifiable || trace.stop_at(site.line).is_none() {
            continue;
        }
        for constituent in &site.constituents {
            let expected = match constituent.kind {
                ConstituentKind::ConstantValued | ConstituentKind::AddressConstant => true,
                ConstituentKind::UnalterableIndex => constituent.live_after,
            };
            if !expected {
                continue;
            }
            let name = program
                .function(site.function)
                .local(constituent.var)
                .name
                .clone();
            let status = trace
                .var_at(site.line, &name)
                .unwrap_or(VarStatus::NotVisible);
            if !status.is_available() {
                out.push(Violation {
                    conjecture: Conjecture::C2,
                    line: site.line,
                    variable: Arc::from(name.as_str()),
                    function: site.function,
                    observed: status_to_observed(status),
                });
            }
        }
    }
    out
}

/// Check Conjecture 3 against a debugger trace.
pub fn check_conjecture3(
    program: &Program,
    analysis: &ProgramAnalysis,
    source: &SourceMap,
    trace: &DebugTrace,
) -> Vec<Violation> {
    use std::collections::BTreeMap;
    let mut out = Vec::new();
    // Group assignment lines per (function, local).
    let mut assignments: BTreeMap<(FunctionId, usize), Vec<u32>> = BTreeMap::new();
    for site in &analysis.local_assignments {
        assignments
            .entry((site.function, site.local.0))
            .or_default()
            .push(site.line);
    }
    for ((function, local), mut assign_lines) in assignments {
        assign_lines.sort_unstable();
        assign_lines.dedup();
        let first = assign_lines[0];
        let name = program
            .function(function)
            .local(holes_minic::ast::LocalId(local))
            .name
            .clone();
        // All lines of this function at or after the first assignment. Lines
        // the debugger cannot step on are skipped, but reassignment lines
        // always start a fresh variable instance even when their code was
        // optimized away — the refresh is legitimate either way.
        let lines: Vec<u32> = source
            .lines_of(function)
            .iter()
            .copied()
            .filter(|&l| l >= first)
            .collect();
        let mut current_rank: Option<u8> = None;
        for line in lines {
            if assign_lines.contains(&line) {
                // A reassignment legitimately refreshes visibility: it starts
                // a new variable instance. The breakpoint sits *before* the
                // assignment executes, so the rank observed at this very line
                // is not meaningful either way — restart tracking afterwards.
                current_rank = None;
                continue;
            }
            if trace.stop_at(line).is_none() {
                continue;
            }
            let status = trace.var_at(line, &name).unwrap_or(VarStatus::NotVisible);
            let rank = status.rank();
            match current_rank {
                None => current_rank = Some(rank),
                Some(previous) if rank > previous => {
                    out.push(Violation {
                        conjecture: Conjecture::C3,
                        line,
                        variable: Arc::from(name.as_str()),
                        function,
                        observed: Observed::Reappeared,
                    });
                    current_rank = Some(rank);
                }
                Some(_) => current_rank = Some(rank),
            }
        }
    }
    out
}

/// Check all three conjectures and return the combined violation list.
pub fn check_all(
    program: &Program,
    analysis: &ProgramAnalysis,
    source: &SourceMap,
    trace: &DebugTrace,
) -> Vec<Violation> {
    let mut out = check_conjecture1(program, analysis, trace);
    out.extend(check_conjecture2(program, analysis, trace));
    out.extend(check_conjecture3(program, analysis, source, trace));
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_compiler::{compile, CompilerConfig, OptLevel, Personality};
    use holes_debugger::{native_trace, trace, DebuggerKind};
    use holes_minic::ast::{BinOp, Expr, LValue, Stmt, Ty, VarRef};
    use holes_minic::build::ProgramBuilder;
    use holes_progen::ProgramGenerator;

    /// Program mirroring the paper's Conjecture 1 setting: a constant local
    /// passed to the opaque sink.
    fn c1_program() -> (holes_minic::ast::Program, SourceMap, ProgramAnalysis) {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        let v2 = b.local(main, "v2", Ty::I32);
        b.push(main, Stmt::decl(v2, Some(Expr::lit(4))));
        b.push(main, Stmt::assign(LValue::global(g), Expr::local(v2)));
        b.push(main, Stmt::call_opaque(vec![Expr::local(v2)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let source = p.assign_lines();
        let analysis = ProgramAnalysis::analyze(&p);
        (p, source, analysis)
    }

    #[test]
    fn defect_free_compilation_has_no_violations() {
        let (p, source, analysis) = c1_program();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for level in personality.levels() {
                let exe = compile(
                    &p,
                    &CompilerConfig::new(personality, *level).without_defects(),
                );
                let t = native_trace(&exe);
                let violations = check_all(&p, &analysis, &source, &t);
                assert!(
                    violations.is_empty(),
                    "{personality} {level}: unexpected violations {violations:?}"
                );
            }
        }
    }

    #[test]
    fn o0_baseline_has_no_violations_on_generated_programs() {
        for seed in 0..8 {
            let generated = ProgramGenerator::from_seed(seed).generate();
            let exe = compile(
                &generated.program,
                &CompilerConfig::new(Personality::Ccg, OptLevel::O0),
            );
            let t = trace(&exe, DebuggerKind::GdbLike);
            let violations = check_all(
                &generated.program,
                &generated.analysis,
                &generated.source,
                &t,
            );
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn trunk_compilers_produce_violations_somewhere() {
        // With the injected defect catalogue active, a pool of generated
        // programs must expose violations — this is the heart of the paper.
        let mut found = 0usize;
        for seed in 0..10 {
            let generated = ProgramGenerator::from_seed(seed).generate();
            for personality in [Personality::Ccg, Personality::Lcc] {
                for level in personality.levels() {
                    let exe = compile(
                        &generated.program,
                        &CompilerConfig::new(personality, *level),
                    );
                    let t = native_trace(&exe);
                    found += check_all(
                        &generated.program,
                        &generated.analysis,
                        &generated.source,
                        &t,
                    )
                    .len();
                }
            }
        }
        assert!(found > 0, "no violations found across the pool");
    }

    #[test]
    fn conjecture3_detects_reappearing_variables() {
        // Build a trace by compiling with a defect that delays bindings
        // (Conjecture 3's typical cause) and check on a directed program.
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, true, vec![0]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(3))));
        for _ in 0..6 {
            b.push(
                main,
                Stmt::assign(
                    LValue::global(g),
                    Expr::binary(BinOp::Add, Expr::global(g), Expr::lit(1)),
                ),
            );
        }
        b.push(main, Stmt::call_opaque(vec![Expr::local(x)]));
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        let source = p.assign_lines();
        let analysis = ProgramAnalysis::analyze(&p);
        // ccg at -Og carries DelayDbg defects (modelling gcc bug 104938).
        let exe = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::Og));
        let t = native_trace(&exe);
        let violations = check_conjecture3(&p, &analysis, &source, &t);
        // The delayed binding makes x unavailable right after its declaration
        // and available again later, which the conjecture flags.
        assert!(
            violations.iter().all(|v| v.variable.as_ref() == "x"),
            "unexpected variables in {violations:?}"
        );
    }

    #[test]
    fn violations_identify_line_and_variable() {
        let (p, source, analysis) = c1_program();
        // Force a C1 violation by compiling with the ccg trunk at O2 where the
        // cfg-cleanup defect (modelling gcc bug 105158) drops bindings.
        let exe = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O2));
        let t = native_trace(&exe);
        let violations = check_all(&p, &analysis, &source, &t);
        for v in &violations {
            assert!(!v.variable.is_empty());
            assert!(v.line > 0);
            let _ = violation_key(v);
        }
    }

    #[test]
    fn targeted_query_agrees_with_check_all() {
        // Every violation check_all finds must be confirmed by the targeted
        // query, and a query for an untouched variable must come back false.
        for seed in 0..12u64 {
            let generated = ProgramGenerator::from_seed(seed).generate();
            for personality in [Personality::Ccg, Personality::Lcc] {
                for level in personality.levels() {
                    let exe = compile(
                        &generated.program,
                        &CompilerConfig::new(personality, *level),
                    );
                    let t = native_trace(&exe);
                    let violations = check_all(
                        &generated.program,
                        &generated.analysis,
                        &generated.source,
                        &t,
                    );
                    for v in &violations {
                        assert!(
                            query_violation(
                                &generated.program,
                                &generated.analysis,
                                &generated.source,
                                &t,
                                &SiteQuery::for_violation(v),
                            ),
                            "seed {seed} {personality} {level}: targeted query missed {v:?}"
                        );
                        // Anywhere-queries subsume exact-site queries.
                        assert!(query_violation(
                            &generated.program,
                            &generated.analysis,
                            &generated.source,
                            &t,
                            &SiteQuery {
                                conjecture: v.conjecture,
                                line: None,
                                variable: &v.variable,
                                function: None,
                            },
                        ));
                    }
                    for conjecture in Conjecture::ALL {
                        assert!(
                            !query_violation(
                                &generated.program,
                                &generated.analysis,
                                &generated.source,
                                &t,
                                &SiteQuery {
                                    conjecture,
                                    line: None,
                                    variable: "no_such_variable",
                                    function: None,
                                },
                            ),
                            "query for a nonexistent variable matched"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn targeted_query_rejects_sites_without_violations() {
        // The inverse direction on a directed program: for sites check_all
        // does NOT flag, the targeted query must also come back false.
        let (p, source, analysis) = c1_program();
        let exe = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O2));
        let t = native_trace(&exe);
        let violations = check_all(&p, &analysis, &source, &t);
        for conjecture in Conjecture::ALL {
            for line in 1..=10u32 {
                let hit = query_violation(
                    &p,
                    &analysis,
                    &source,
                    &t,
                    &SiteQuery {
                        conjecture,
                        line: Some(line),
                        variable: "v2",
                        function: None,
                    },
                );
                let expected = violations.iter().any(|v| {
                    v.conjecture == conjecture && v.line == line && v.variable.as_ref() == "v2"
                });
                assert_eq!(hit, expected, "{conjecture} line {line}");
            }
        }
    }

    #[test]
    fn conjecture_display_and_index() {
        assert_eq!(Conjecture::C1.to_string(), "C1");
        assert_eq!(Conjecture::C3.index(), 3);
        assert_eq!(Conjecture::ALL.len(), 3);
        let _ = VarRef::Local(holes_minic::ast::LocalId(0));
    }

    #[test]
    fn conjecture_and_observation_spellings_round_trip() {
        for conjecture in Conjecture::ALL {
            assert_eq!(conjecture.to_string().parse(), Ok(conjecture));
            assert_eq!(conjecture.index().to_string().parse(), Ok(conjecture));
        }
        assert!("C4".parse::<Conjecture>().is_err());
        for observed in Observed::ALL {
            assert_eq!(observed.name().parse(), Ok(observed));
            assert_eq!(observed.to_string(), observed.name());
        }
        assert!("visible".parse::<Observed>().is_err());
        assert!("C4"
            .parse::<Conjecture>()
            .unwrap_err()
            .to_string()
            .contains("C4"));
    }
}
