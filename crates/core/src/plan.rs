//! The per-program check plan: every conjecture site of a program resolved
//! once, so that checking a trace is a walk over precomputed sites.
//!
//! [`check_all`](crate::check_all) rebuilds the same per-program state on
//! every call: the local names of every site, the grouped and sorted
//! assignment lines of every local, and the filtered line walk of
//! Conjecture 3, and it resolves every line through the trace's
//! `BTreeMap`. A [`CheckPlan`] holds the sites with their names interned
//! and the Conjecture 3 walks with their reassignment flags, built once per
//! program; per trace, [`CheckPlan::check`] resolves lines through a dense
//! line-to-stop index. Its results equal `check_all`'s and
//! [`query_violation`](crate::query_violation)'s, which stay as the
//! differential oracles.

use std::collections::BTreeMap;
use std::sync::Arc;

use holes_debugger::{DebugTrace, LineStop, VarStatus};
use holes_minic::analysis::{ConstituentKind, ProgramAnalysis};
use holes_minic::ast::{FunctionId, LocalId, Program, VarRef};
use holes_minic::lines::SourceMap;

use crate::{status_to_observed, Conjecture, Observed, SiteQuery, Violation};

/// A variable a conjecture expects to be available at a line.
#[derive(Debug, Clone)]
struct Site {
    line: u32,
    function: FunctionId,
    name: Arc<str>,
}

/// The Conjecture 3 walk of one `(function, local)`: the function's lines
/// at or after the local's first assignment, in ascending order, each
/// flagged when it (re)assigns the local.
#[derive(Debug, Clone)]
struct Group {
    function: FunctionId,
    name: Arc<str>,
    walk: Vec<(u32, bool)>,
}

/// Every conjecture site of one program, resolved once (see the module
/// docs). Build it with [`CheckPlan::new`] and check any number of traces
/// of the program's executables with [`CheckPlan::check`] and
/// [`CheckPlan::query`].
#[derive(Debug, Clone)]
pub struct CheckPlan {
    /// Conjecture 1 sites, in `check_conjecture1`'s order.
    c1: Vec<Site>,
    /// Conjecture 2 sites, in `check_conjecture2`'s order.
    c2: Vec<Site>,
    /// Conjecture 3 groups, in `check_conjecture3`'s `(function, local)`
    /// order.
    c3: Vec<Group>,
    /// One past the highest line a site or walk visits: the length of the
    /// dense stop index.
    lines: usize,
}

impl CheckPlan {
    /// Resolve every conjecture site of `program`.
    pub fn new(program: &Program, analysis: &ProgramAnalysis, source: &SourceMap) -> CheckPlan {
        // One shared name per (function, local).
        let mut names: BTreeMap<(FunctionId, LocalId), Arc<str>> = BTreeMap::new();
        let mut name_of = |function: FunctionId, local: LocalId| {
            names
                .entry((function, local))
                .or_insert_with(|| Arc::from(program.function(function).local(local).name.as_str()))
                .clone()
        };

        let mut c1 = Vec::new();
        for site in &analysis.opaque_calls {
            for &arg in &site.arg_vars {
                if let VarRef::Local(local) = arg {
                    c1.push(Site {
                        line: site.line,
                        function: site.function,
                        name: name_of(site.function, local),
                    });
                }
            }
        }

        let mut c2 = Vec::new();
        for site in analysis.global_stores.iter().filter(|s| !s.simplifiable) {
            for constituent in &site.constituents {
                let expected = match constituent.kind {
                    ConstituentKind::ConstantValued | ConstituentKind::AddressConstant => true,
                    ConstituentKind::UnalterableIndex => constituent.live_after,
                };
                if expected {
                    c2.push(Site {
                        line: site.line,
                        function: site.function,
                        name: name_of(site.function, constituent.var),
                    });
                }
            }
        }

        let mut assignments: BTreeMap<(FunctionId, usize), Vec<u32>> = BTreeMap::new();
        for site in &analysis.local_assignments {
            assignments
                .entry((site.function, site.local.0))
                .or_default()
                .push(site.line);
        }
        let c3: Vec<Group> = assignments
            .into_iter()
            .map(|((function, local), mut assign_lines)| {
                assign_lines.sort_unstable();
                assign_lines.dedup();
                let first = assign_lines[0];
                let walk = source
                    .lines_of(function)
                    .iter()
                    .filter(|&&line| line >= first)
                    .map(|&line| (line, assign_lines.binary_search(&line).is_ok()))
                    .collect();
                Group {
                    function,
                    name: name_of(function, LocalId(local)),
                    walk,
                }
            })
            .collect();

        let lines = c1
            .iter()
            .chain(&c2)
            .map(|site| site.line)
            .chain(
                c3.iter()
                    .flat_map(|group| group.walk.iter().map(|&(line, _)| line)),
            )
            .max()
            .map_or(0, |line| line as usize + 1);
        CheckPlan { c1, c2, c3, lines }
    }

    /// Check all three conjectures against a trace: the same sorted,
    /// deduplicated list as [`check_all`](crate::check_all).
    pub fn check(&self, trace: &DebugTrace) -> Vec<Violation> {
        let stops = StopIndex::new(self.lines, trace);
        let mut out = Vec::new();
        for (conjecture, sites) in [(Conjecture::C1, &self.c1), (Conjecture::C2, &self.c2)] {
            for site in sites {
                match stops.status(site.line, &site.name) {
                    Some(status) if !status.is_available() => out.push(Violation {
                        conjecture,
                        line: site.line,
                        variable: site.name.clone(),
                        function: site.function,
                        observed: status_to_observed(status),
                    }),
                    _ => {}
                }
            }
        }
        for group in &self.c3 {
            group.reappears(&stops, |line| {
                out.push(Violation {
                    conjecture: Conjecture::C3,
                    line,
                    variable: group.name.clone(),
                    function: group.function,
                    observed: Observed::Reappeared,
                });
                false
            });
        }
        out.sort();
        out.dedup();
        out
    }

    /// Whether the queried site violates its conjecture under a trace: the
    /// answer of [`query_violation`](crate::query_violation).
    pub fn query(&self, trace: &DebugTrace, query: &SiteQuery<'_>) -> bool {
        let violates = |site: &Site| {
            query.wants_line(site.line)
                && query.wants_function(site.function)
                && *site.name == *query.variable
                && trace
                    .stop_at(site.line)
                    .is_some_and(|stop| !stop.var_status(&site.name).is_available())
        };
        match query.conjecture {
            Conjecture::C1 => self.c1.iter().any(violates),
            Conjecture::C2 => self.c2.iter().any(violates),
            Conjecture::C3 => {
                let stops = StopIndex::new(self.lines, trace);
                self.c3
                    .iter()
                    .filter(|group| {
                        query.wants_function(group.function) && *group.name == *query.variable
                    })
                    .any(|group| group.reappears(&stops, |line| query.wants_line(line)))
            }
        }
    }
}

impl Group {
    /// Walk the group's lines and call `found` at every line where the
    /// variable's availability improves since the last stop of its current
    /// instance. Returns `true` as soon as `found` does.
    fn reappears(&self, stops: &StopIndex<'_>, mut found: impl FnMut(u32) -> bool) -> bool {
        let mut current_rank: Option<u8> = None;
        for &(line, assigns) in &self.walk {
            if assigns {
                // A reassignment starts a new instance (see
                // `check_conjecture3`).
                current_rank = None;
                continue;
            }
            let Some(status) = stops.status(line, &self.name) else {
                continue;
            };
            let rank = status.rank();
            if current_rank.is_some_and(|previous| rank > previous) && found(line) {
                return true;
            }
            current_rank = Some(rank);
        }
        false
    }
}

/// A trace's stops indexed densely by line.
struct StopIndex<'t> {
    stops: &'t [LineStop],
    /// `stop_of[line]`: the index of the line's stop, if it was reached.
    stop_of: Vec<Option<u32>>,
}

impl<'t> StopIndex<'t> {
    /// Index the stops of `trace` at lines below `lines`.
    fn new(lines: usize, trace: &'t DebugTrace) -> StopIndex<'t> {
        let mut stop_of = vec![None; lines];
        for (&line, &stop) in trace.reached.range(..lines as u32) {
            stop_of[line as usize] = Some(stop as u32);
        }
        StopIndex {
            stops: &trace.stops,
            stop_of,
        }
    }

    /// The status of `name` at `line`; `None` when the line was not
    /// reached.
    fn status(&self, line: u32, name: &str) -> Option<VarStatus> {
        let stop = self.stop_of[line as usize]?;
        Some(self.stops[stop as usize].var_status(name))
    }
}
