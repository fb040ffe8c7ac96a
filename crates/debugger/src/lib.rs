//! A source-level debugger for compiled MiniC executables.
//!
//! This is the reproduction's substitute for gdb and lldb. Following the
//! paper's methodology (§4.2), [`trace`] places a **one-shot breakpoint on
//! the first address of every steppable source line**, runs the program, and
//! records — for each line the execution actually reaches — the variables
//! visible in the current frame and, when debug information permits, their
//! values.
//!
//! Two debugger personalities are provided, reproducing the debugger-side
//! bugs of the paper:
//!
//! * [`DebuggerKind::GdbLike`] mishandles location lists that contain
//!   empty (`start == end`) ranges before the covering entry (gdb bug 28987);
//! * [`DebuggerKind::LldbLike`] cannot display variables of inlined
//!   subroutines whose location lives only in the abstract origin
//!   (lldb bug 50076).
//!
//! Cross-checking the two personalities is how the campaign pipeline decides
//! whether a violation is a compiler or a debugger issue, exactly as the
//! paper repeats each test "in a different debugger".
//!
//! # The allocation-free hot path: stop plans
//!
//! Every breakpoint address of an executable is known before the program
//! runs (the first `is_stmt` address of each steppable line), and debug
//! information never changes while it runs. [`StopPlan`] exploits that:
//! computed once per (executable, debugger personality), it maps each
//! breakpoint address to its function name, its visible variables, and a
//! **pre-resolved location decision** per variable — constant, machine
//! read ([`holes_machine::MachineRead`]), or optimized-out.
//!
//! Building a plan resolves each variable **once per DIE**, not once per
//! breakpoint address. Its name, constant value, own location list,
//! abstract-origin fallback and the lldb-like inlined-scope quirk do not
//! depend on the address: they are decided the first time a frame lists
//! the DIE, and the name is interned then as an `Arc<str>` shared by the
//! whole plan. Only the location-list lookup (with the gdb-like
//! empty-range quirk) runs per address. The scope walk reruns only where
//! a subprogram, lexical block or inlined subroutine starts or ends, and
//! one pass over the line table yields the breakpoint addresses in order.
//! In the benchmark's traced campaign replay (800 ccg seeds × 6 levels,
//! one trace per plan, 2-vCPU VM), building plans takes 4.8–4.9% of the
//! replay's time against 5.8–6.2% for the traces they serve.
//!
//! [`trace_with_plan`] then services each stop with a binary search plus
//! one batched machine read: no DIE traversal and no per-stop `String`
//! allocation (every [`VarView`] and [`LineStop`] shares the plan's
//! names). [`trace`] builds a plan and runs it; [`trace_unplanned`] keeps
//! per-stop resolution as the reference implementation, and the property
//! suite holds the two paths to full [`DebugTrace`] equality. Both paths
//! run the same two-step decision (`decide` per DIE, `resolve` per
//! address), so the property guards the planning machinery — the per-DIE
//! memo, the scope-walk reuse, the line-table pass and the batched reads;
//! the decisions themselves are pinned by the personality-quirk unit
//! tests.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use holes_compiler::Executable;
use holes_debuginfo::{Attr, AttrValue, DebugInfo, DieId, LocListEntry, Location, ScopeIndex};
use holes_machine::{BreakpointSet, MachineError, MachineRead, StopReason, Vm};

/// The debugger personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DebuggerKind {
    /// Mishandles empty location-list ranges (models gdb).
    GdbLike,
    /// Ignores abstract-origin-only locations of inlined variables
    /// (models lldb).
    LldbLike,
}

impl DebuggerKind {
    /// The debugger a compiler personality's users would reach for, as in the
    /// paper (gdb for gcc, lldb for clang).
    pub fn native_for(personality: holes_compiler::Personality) -> DebuggerKind {
        match personality {
            holes_compiler::Personality::Ccg => DebuggerKind::GdbLike,
            holes_compiler::Personality::Lcc => DebuggerKind::LldbLike,
        }
    }
}

/// How a variable shows up in the frame at a stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// The variable is listed and its value can be displayed.
    Available(i64),
    /// The variable is listed but its value cannot be produced
    /// (`<optimized out>`).
    OptimizedOut,
}

/// One variable of a frame listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarView {
    /// Source-level name, interned per executable: every stop listing the
    /// variable shares one allocation.
    pub name: Arc<str>,
    /// Whether a value could be displayed.
    pub availability: Availability,
}

/// One debugger stop: the first time a source line is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineStop {
    /// The source line.
    pub line: u32,
    /// The breakpoint address.
    pub address: u64,
    /// Name of the function whose frame is shown (interned per executable).
    pub function: Arc<str>,
    /// The frame's variable listing.
    pub variables: Vec<VarView>,
}

impl LineStop {
    /// Status of a named variable in this stop's frame listing (see
    /// [`VarStatus`]).
    pub fn var_status(&self, name: &str) -> VarStatus {
        self.variables
            .iter()
            .find(|v| &*v.name == name)
            .map(|v| match v.availability {
                Availability::Available(value) => VarStatus::Available(value),
                Availability::OptimizedOut => VarStatus::OptimizedOut,
            })
            .unwrap_or(VarStatus::NotVisible)
    }
}

/// Status of a named variable at a line, as the conjecture checkers consume
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// The variable is not listed in the frame at all.
    NotVisible,
    /// Listed but `<optimized out>`.
    OptimizedOut,
    /// Listed with a value.
    Available(i64),
}

impl VarStatus {
    /// Rank used by Conjecture 3: availability may only decay.
    pub fn rank(self) -> u8 {
        match self {
            VarStatus::NotVisible => 0,
            VarStatus::OptimizedOut => 1,
            VarStatus::Available(_) => 2,
        }
    }

    /// Whether a value is displayed.
    pub fn is_available(self) -> bool {
        matches!(self, VarStatus::Available(_))
    }
}

/// A whole debugging session: one stop per executed steppable line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DebugTrace {
    /// Stops in execution order.
    pub stops: Vec<LineStop>,
    /// All steppable lines of the executable (whether executed or not).
    pub steppable_lines: Vec<u32>,
    /// Lines that were actually reached, mapped to their stop index.
    pub reached: BTreeMap<u32, usize>,
}

impl DebugTrace {
    /// The stop for a line, if the line was reached.
    pub fn stop_at(&self, line: u32) -> Option<&LineStop> {
        self.reached.get(&line).map(|&i| &self.stops[i])
    }

    /// Status of a variable at a line (see [`VarStatus`]); `None` when the
    /// line was never reached.
    pub fn var_at(&self, line: u32, name: &str) -> Option<VarStatus> {
        Some(self.stop_at(line)?.var_status(name))
    }

    /// Number of distinct lines reached.
    pub fn lines_reached(&self) -> usize {
        self.reached.len()
    }

    /// Number of available variables at a line (0 when not reached).
    pub fn available_count(&self, line: u32) -> usize {
        self.stop_at(line)
            .map(|s| {
                s.variables
                    .iter()
                    .filter(|v| matches!(v.availability, Availability::Available(_)))
                    .count()
            })
            .unwrap_or(0)
    }
}

/// A variable's pre-resolved location decision at one breakpoint address:
/// everything the debugger would derive from debug information, with only
/// the machine-state read left for stop time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValuePlan {
    /// The value is this compile-time constant (`DW_AT_const_value` or a
    /// `DW_OP_constu`-style location).
    Const(i64),
    /// The value comes from machine state, read as planned.
    Read(MachineRead),
    /// No resolvable location covers the address (or a personality quirk
    /// suppresses it): the variable is `<optimized out>` at this stop.
    OptimizedOut,
}

/// One variable of a precomputed frame plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarPlan {
    /// Interned source-level name, shared with every [`VarView`] built from
    /// this plan.
    pub name: Arc<str>,
    /// The pre-resolved location decision.
    pub value: ValuePlan,
}

/// The precomputed frame listing of one breakpoint address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePlan {
    /// The source line the breakpoint represents.
    pub line: u32,
    /// Interned name of the covering function (empty when none covers the
    /// address).
    pub function: Arc<str>,
    /// The visible variables, in frame-listing order.
    pub vars: Vec<VarPlan>,
}

/// A precomputed debugging session plan for one (executable, debugger
/// personality) pair.
///
/// Construction ([`StopPlan::compute`]) performs every piece of frame
/// inspection ahead of time — subprogram lookup (via [`ScopeIndex`]),
/// scope and inlined-subroutine walks, abstract-origin chasing,
/// location-list resolution, and the personality quirks — resolving each
/// DIE once and only its location lookup once per breakpoint address, and
/// interns every name as an `Arc<str>`. Servicing a stop with
/// [`trace_with_plan`] is then a binary search over the address table plus
/// one batched machine read; nothing is re-derived and no per-stop strings
/// are allocated. Plans depend only on the executable's debug information,
/// so the evaluation pipeline caches them alongside traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StopPlan {
    kind: DebuggerKind,
    /// All steppable lines of the executable (the trace's line universe).
    steppable_lines: Vec<u32>,
    /// `(breakpoint address, frame plan)` sorted by address.
    frames: Vec<(u64, FramePlan)>,
}

impl StopPlan {
    /// Precompute the stop plan of an executable for one debugger
    /// personality.
    pub fn compute(executable: &Executable, kind: DebuggerKind) -> StopPlan {
        let debug = &executable.debug;
        let (sites, steppable_lines) = debug.line_table.first_stmt_addresses();
        let mut planner = Planner {
            debug,
            kind,
            index: ScopeIndex::new(debug),
            names: HashMap::new(),
            memo: vec![Memo::Unseen; debug.len()],
            scope: None,
            dies: Vec::new(),
            outer: 0,
            stack: Vec::new(),
        };
        let frames = sites
            .into_iter()
            .map(|(address, line)| (address, planner.frame(address, line)))
            .collect();
        StopPlan {
            kind,
            steppable_lines,
            frames,
        }
    }

    /// The debugger personality the plan was resolved for.
    pub fn kind(&self) -> DebuggerKind {
        self.kind
    }

    /// The precomputed frame for a breakpoint address, if the address hosts
    /// one.
    pub fn frame(&self, address: u64) -> Option<&FramePlan> {
        self.frames
            .binary_search_by_key(&address, |&(addr, _)| addr)
            .ok()
            .map(|i| &self.frames[i].1)
    }

    /// Number of planned breakpoint addresses.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the executable has no breakpoint address at all.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// The working state of one [`StopPlan::compute`]: each data DIE's
/// address-independent half is resolved once and reused at every
/// breakpoint address that lists it.
struct Planner<'a> {
    debug: &'a DebugInfo,
    kind: DebuggerKind,
    index: ScopeIndex,
    /// One shared allocation per distinct name.
    names: HashMap<&'a str, Arc<str>>,
    /// Indexed by [`DieId`]. A data DIE is reached either from the
    /// subprogram's scope or from an inlined subroutine's, never both — its
    /// nearest non-block ancestor decides — so `in_inlined_scope` is fixed
    /// per DIE and so is its [`Decision`].
    memo: Vec<Memo<'a>>,
    /// The segment the scope fields below were walked for, and the
    /// covering function's name there.
    scope: Option<(usize, Arc<str>)>,
    /// The data DIEs in scope, in frame-listing order; those from
    /// position `outer` on belong to the innermost inlined subroutine.
    dies: Vec<DieId>,
    outer: usize,
    /// Scope-walk scratch.
    stack: Vec<DieId>,
}

/// A DIE's entry in the plan's per-DIE memo.
#[derive(Clone)]
enum Memo<'a> {
    /// No frame has listed the DIE yet.
    Unseen,
    /// The DIE has no name, so no frame lists it.
    Nameless,
    /// The DIE's interned name and address-independent decision.
    Var(Arc<str>, Decision<'a>),
}

impl<'a> Planner<'a> {
    /// The interned allocation of a name.
    fn name(&mut self, name: &'a str) -> Arc<str> {
        Arc::clone(self.names.entry(name).or_insert_with(|| Arc::from(name)))
    }

    /// Precompute the frame listing of one breakpoint address. The scope
    /// walk runs only when the address enters a new segment
    /// ([`ScopeIndex::segment`]); the location-list lookups run for every
    /// address; everything else comes from the per-DIE memo.
    fn frame(&mut self, address: u64, line: u32) -> FramePlan {
        let segment = self.index.segment(address);
        let function = match &self.scope {
            Some((walked, function)) if *walked == segment => Arc::clone(function),
            _ => {
                let function = self.walk_scopes(address);
                self.scope = Some((segment, Arc::clone(&function)));
                function
            }
        };
        let mut vars = Vec::with_capacity(self.dies.len());
        for position in 0..self.dies.len() {
            let die = self.dies[position];
            if let Memo::Unseen = self.memo[die.0] {
                let debug = self.debug;
                self.memo[die.0] = match debug.die(die).name() {
                    Some(name) => {
                        let decision = decide(debug, self.kind, die, position >= self.outer);
                        Memo::Var(self.name(name), decision)
                    }
                    None => Memo::Nameless,
                };
            }
            if let Memo::Var(name, decision) = &self.memo[die.0] {
                vars.push(VarPlan {
                    name: Arc::clone(name),
                    value: resolve(*decision, self.kind, address),
                });
            }
        }
        FramePlan {
            line,
            function,
            vars,
        }
    }

    /// Walk the scopes covering `address` into `dies` and `outer`, and
    /// return the interned name of the covering function (empty when none
    /// covers it).
    fn walk_scopes(&mut self, address: u64) -> Arc<str> {
        let debug = self.debug;
        self.dies.clear();
        self.outer = 0;
        let Some(subprogram) = self.index.subprogram_at(address) else {
            return self.name("");
        };
        debug.append_data_dies_in_scope(subprogram, address, &mut self.stack, &mut self.dies);
        self.outer = self.dies.len();
        if let Some(inlined) = debug.innermost_inlined_at_with(subprogram, address, &mut self.stack)
        {
            debug.append_data_dies_in_scope(inlined, address, &mut self.stack, &mut self.dies);
        }
        self.name(debug.die(subprogram).name().unwrap_or("?"))
    }
}

/// Debug an executable: place one-shot breakpoints on every steppable line,
/// run to completion, and record the frame at each first hit.
///
/// The executable's backend decides which virtual machine is stepped: the
/// debugger drives it purely through the [`Vm`] trait, so the same
/// breakpoint-and-inspect protocol covers the register VM and the stack VM.
/// Frame inspection runs through a freshly computed [`StopPlan`]; callers
/// that trace the same executable repeatedly should compute (or cache) the
/// plan themselves and call [`trace_with_plan`].
pub fn trace(executable: &Executable, kind: DebuggerKind) -> DebugTrace {
    trace_with_plan(executable, &StopPlan::compute(executable, kind))
}

/// Debug an executable through a precomputed [`StopPlan`] — the
/// allocation-free hot path.
///
/// Each stop is a plan lookup plus one batched machine read
/// ([`Vm::read_batch`]); names are `Arc` clones of the plan's interned
/// strings. The plan must have been computed for this executable (plans
/// key on the executable's debug information); a foreign plan would
/// produce a trace for the wrong program.
pub fn trace_with_plan(executable: &Executable, plan: &StopPlan) -> DebugTrace {
    trace_with_plan_fuel(executable, plan, None).0
}

/// [`trace_with_plan`] with an explicit step budget, surfacing how the
/// session ended.
///
/// When `fuel` is `Some`, the machine is spawned with that budget instead of
/// its default; a program that exceeds it stops with
/// [`MachineError::OutOfFuel`]. The second component of the return value is
/// the terminal machine error, if the run ended in one (`None` for a normal
/// finish). [`trace_with_plan`] is this function with `fuel: None` and the
/// error discarded, which is the historical behavior.
pub fn trace_with_plan_fuel(
    executable: &Executable,
    plan: &StopPlan,
    fuel: Option<u64>,
) -> (DebugTrace, Option<MachineError>) {
    let mut breakpoints: BreakpointSet = plan.frames.iter().map(|&(address, _)| address).collect();
    let mut machine = match fuel {
        Some(budget) => executable.machine.spawn_with_fuel(budget),
        None => executable.machine.spawn(),
    };
    let mut trace = DebugTrace {
        stops: Vec::new(),
        steppable_lines: plan.steppable_lines.clone(),
        reached: BTreeMap::new(),
    };
    let mut reads: Vec<MachineRead> = Vec::new();
    let mut values: Vec<Option<i64>> = Vec::new();
    let error = loop {
        let address = match machine.run(&breakpoints) {
            StopReason::Breakpoint { address } => address,
            StopReason::Finished { .. } => break None,
            StopReason::Error(error) => break Some(error),
        };
        breakpoints.remove(address);
        let frame = plan
            .frame(address)
            .expect("breakpoints are placed only on planned addresses");
        reads.clear();
        for var in &frame.vars {
            if let ValuePlan::Read(read) = var.value {
                reads.push(read);
            }
        }
        values.clear();
        machine.read_batch(&reads, &mut values);
        let mut next_value = values.iter();
        let variables = frame
            .vars
            .iter()
            .map(|var| VarView {
                name: Arc::clone(&var.name),
                availability: match var.value {
                    ValuePlan::Const(c) => Availability::Available(c),
                    ValuePlan::OptimizedOut => Availability::OptimizedOut,
                    ValuePlan::Read(_) => next_value
                        .next()
                        .copied()
                        .flatten()
                        .map(Availability::Available)
                        .unwrap_or(Availability::OptimizedOut),
                },
            })
            .collect();
        let stop = LineStop {
            line: frame.line,
            address,
            function: Arc::clone(&frame.function),
            variables,
        };
        let index = trace.stops.len();
        trace.reached.entry(stop.line).or_insert(index);
        trace.stops.push(stop);
    };
    (trace, error)
}

/// The original per-stop tracer: re-resolves scope DIEs and locations from
/// scratch at every breakpoint hit. Kept as the reference implementation
/// the planned path is property-tested against ([`trace`] must produce an
/// equal [`DebugTrace`] for every executable and personality).
///
/// Both paths deliberately share the per-variable decision procedure
/// (`decide`, then `resolve`), so the differential property guards
/// everything the plan *adds* — breakpoint/address mapping, the indexed
/// subprogram lookup, the per-DIE memo and scope-walk reuse, interning,
/// and batched reads — not the leaf location semantics, which the
/// personality-quirk unit tests and the conjecture suites pin directly.
pub fn trace_unplanned(executable: &Executable, kind: DebuggerKind) -> DebugTrace {
    let steppable = executable.debug.line_table.steppable_lines();
    let mut breakpoints: BreakpointSet = steppable
        .iter()
        .filter_map(|&line| executable.debug.line_table.first_address_of_line(line))
        .collect();
    let mut address_to_line: BTreeMap<u64, u32> = BTreeMap::new();
    for &line in &steppable {
        if let Some(addr) = executable.debug.line_table.first_address_of_line(line) {
            address_to_line.entry(addr).or_insert(line);
        }
    }
    let mut machine = executable.machine.spawn();
    let mut trace = DebugTrace {
        stops: Vec::new(),
        steppable_lines: steppable,
        reached: BTreeMap::new(),
    };
    while let StopReason::Breakpoint { address } = machine.run(&breakpoints) {
        breakpoints.remove(address);
        let line = address_to_line
            .get(&address)
            .copied()
            .or_else(|| executable.debug.line_table.line_for_address(address))
            .unwrap_or(0);
        let stop = inspect_frame(&executable.debug, machine.as_ref(), kind, address, line);
        let index = trace.stops.len();
        trace.reached.entry(line).or_insert(index);
        trace.stops.push(stop);
    }
    trace
}

/// Build the frame listing at a stop (the unplanned reference path).
fn inspect_frame(
    debug: &DebugInfo,
    machine: &dyn Vm,
    kind: DebuggerKind,
    address: u64,
    line: u32,
) -> LineStop {
    let mut variables = Vec::new();
    let mut function: Arc<str> = Arc::from("");
    if let Some(subprogram) = debug.subprogram_at(address) {
        function = Arc::from(debug.die(subprogram).name().unwrap_or("?"));
        let mut dies: Vec<(DieId, bool)> = debug
            .data_dies_in_scope(subprogram, address)
            .into_iter()
            .map(|d| (d, false))
            .collect();
        if let Some(inlined) = debug.innermost_inlined_at(subprogram, address) {
            for die in debug.data_dies_in_scope(inlined, address) {
                dies.push((die, true));
            }
        }
        for (die, in_inlined) in dies {
            let entry = debug.die(die);
            let Some(name) = entry.name() else { continue };
            let availability = resolve_variable(debug, machine, kind, die, in_inlined, address);
            variables.push(VarView {
                name: Arc::from(name),
                availability,
            });
        }
    }
    LineStop {
        line,
        address,
        function,
        variables,
    }
}

/// Resolve one variable DIE to a value at stop time (the unplanned
/// reference path): decide the location, then read the machine.
fn resolve_variable(
    debug: &DebugInfo,
    machine: &dyn Vm,
    kind: DebuggerKind,
    die: DieId,
    in_inlined_scope: bool,
    address: u64,
) -> Availability {
    match resolve(decide(debug, kind, die, in_inlined_scope), kind, address) {
        ValuePlan::Const(c) => Availability::Available(c),
        ValuePlan::OptimizedOut => Availability::OptimizedOut,
        ValuePlan::Read(read) => machine
            .read_one(read)
            .map(Availability::Available)
            .unwrap_or(Availability::OptimizedOut),
    }
}

/// The address-independent half of a variable's location decision.
#[derive(Debug, Clone, Copy)]
enum Decision<'a> {
    /// The value is this constant everywhere (`DW_AT_const_value` on the
    /// DIE or on its abstract origin).
    Const(i64),
    /// No location at all, or the lldb-like inlined-scope quirk hides it.
    OptimizedOut,
    /// The location list each stop address is looked up in.
    LocList(&'a [LocListEntry]),
}

/// Decide everything about a variable DIE that does not depend on the stop
/// address, honouring the lldb-like personality quirk. Together with
/// [`resolve`] this is the one decision procedure of both trace paths: the
/// planned path decides once per DIE and resolves once per breakpoint
/// address, the unplanned path does both at every stop.
fn decide(
    debug: &DebugInfo,
    kind: DebuggerKind,
    die: DieId,
    in_inlined_scope: bool,
) -> Decision<'_> {
    let entry = debug.die(die);
    if let Some(AttrValue::Signed(c)) = entry.attr(Attr::ConstValue) {
        return Decision::Const(*c);
    }
    if let Some(entries) = entry.attr(Attr::Location).and_then(AttrValue::as_loclist) {
        return Decision::LocList(entries);
    }
    // Follow the abstract origin when the concrete DIE has no location of its
    // own — unless we are the lldb-like debugger looking at an inlined
    // variable (the paper's lldb bug 50076).
    let Some(AttrValue::Ref(origin)) = entry.attr(Attr::AbstractOrigin) else {
        return Decision::OptimizedOut;
    };
    if kind == DebuggerKind::LldbLike && in_inlined_scope {
        return Decision::OptimizedOut;
    }
    let origin = debug.die(*origin);
    if let Some(AttrValue::Signed(c)) = origin.attr(Attr::ConstValue) {
        return Decision::Const(*c);
    }
    origin
        .attr(Attr::Location)
        .and_then(AttrValue::as_loclist)
        .map_or(Decision::OptimizedOut, Decision::LocList)
}

/// Resolve a [`Decision`] at one stop address: the location-list lookup
/// (with the gdb-like empty-range quirk) and its mapping to a
/// [`ValuePlan`].
fn resolve(decision: Decision<'_>, kind: DebuggerKind, address: u64) -> ValuePlan {
    let entries = match decision {
        Decision::Const(c) => return ValuePlan::Const(c),
        Decision::OptimizedOut => return ValuePlan::OptimizedOut,
        Decision::LocList(entries) => entries,
    };
    let location = match kind {
        DebuggerKind::LldbLike => holes_debuginfo::location::lookup(entries, address),
        DebuggerKind::GdbLike => gdb_lookup(entries, address),
    };
    match location {
        Some(Location::ConstValue(c)) => ValuePlan::Const(c),
        Some(Location::Register(r)) => ValuePlan::Read(MachineRead::Reg(r)),
        Some(Location::FrameSlot(s)) => ValuePlan::Read(MachineRead::FrameSlot(s)),
        Some(Location::GlobalAddress(addr)) => ValuePlan::Read(MachineRead::Address(addr as i64)),
        // Frame-base-relative (`DW_OP_fbreg`-style) locations only resolve
        // on backends that maintain a frame base; on the register VM the
        // description is inexpressible and the variable stays unavailable.
        Some(Location::FrameBase { offset }) => {
            ValuePlan::Read(MachineRead::FrameBaseSlot { offset })
        }
        // Composite expressions: register value + offset, optionally
        // dereferenced.
        Some(Location::Composite { reg, offset, deref }) => {
            ValuePlan::Read(MachineRead::RegOffset { reg, offset, deref })
        }
        Some(Location::Empty) | None => ValuePlan::OptimizedOut,
    }
}

/// The gdb-like location lookup: scanning stops at an empty range that
/// precedes the covering entry (models gdb bug 28987).
fn gdb_lookup(entries: &[LocListEntry], address: u64) -> Option<Location> {
    for entry in entries {
        if entry.is_empty_range() && entry.start <= address {
            return None;
        }
        if entry.covers(address) {
            return Some(entry.location);
        }
    }
    None
}

/// Convenience: trace with the native debugger of the executable's compiler
/// personality.
pub fn native_trace(executable: &Executable) -> DebugTrace {
    trace(
        executable,
        DebuggerKind::native_for(executable.config.personality),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_compiler::{compile, CompilerConfig, OptLevel, Personality};
    use holes_debuginfo::{DieTag, LineRow};
    use holes_minic::ast::{BinOp, Expr, LValue, Program, Stmt, Ty, VarRef};
    use holes_minic::build::ProgramBuilder;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let arr = b.global_array("a", Ty::I32, false, vec![3], vec![5, 6, 7]);
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        let i = b.local(main, "i", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(4))));
        b.push(
            main,
            Stmt::for_loop(
                Some(Stmt::assign(LValue::local(i), Expr::lit(0))),
                Some(Expr::binary(BinOp::Lt, Expr::local(i), Expr::lit(3))),
                Some(Stmt::assign(
                    LValue::local(i),
                    Expr::binary(BinOp::Add, Expr::local(i), Expr::lit(1)),
                )),
                vec![Stmt::assign(
                    LValue::global(g),
                    Expr::index(VarRef::Global(arr), vec![Expr::local(i)]),
                )],
            ),
        );
        b.push(
            main,
            Stmt::call_opaque(vec![Expr::local(x), Expr::local(i)]),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        p.assign_lines();
        p
    }

    #[test]
    fn o0_trace_reaches_lines_and_shows_all_variables() {
        let p = sample_program();
        let exe = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O0));
        let t = trace(&exe, DebuggerKind::GdbLike);
        assert!(t.lines_reached() >= 4);
        // At the sink call line, both x and i must be available.
        let sink_line = *t.reached.keys().max().unwrap();
        let x = t.var_at(sink_line, "x");
        assert!(matches!(x, Some(VarStatus::Available(4))), "{x:?}");
        assert!(t.var_at(sink_line, "i").unwrap().is_available());
    }

    #[test]
    fn defect_free_optimized_trace_keeps_conjecture_variables_available() {
        let p = sample_program();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for level in personality.levels() {
                let cfg = CompilerConfig::new(personality, *level).without_defects();
                let exe = compile(&p, &cfg);
                let t = trace(&exe, DebuggerKind::native_for(personality));
                let sink_line = *t.reached.keys().max().unwrap();
                assert!(
                    t.var_at(sink_line, "x").unwrap().is_available(),
                    "{personality} {level}: x not available at the call"
                );
            }
        }
    }

    #[test]
    fn traces_differ_between_o0_and_optimized_for_line_counts() {
        let p = sample_program();
        let o0 = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O0));
        let o3 = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O3));
        let t0 = trace(&o0, DebuggerKind::GdbLike);
        let t3 = trace(&o3, DebuggerKind::GdbLike);
        assert!(t3.lines_reached() <= t0.lines_reached());
    }

    #[test]
    fn var_status_ranks_are_ordered() {
        assert!(VarStatus::Available(1).rank() > VarStatus::OptimizedOut.rank());
        assert!(VarStatus::OptimizedOut.rank() > VarStatus::NotVisible.rank());
    }

    #[test]
    fn gdb_lookup_stops_at_empty_ranges() {
        let entries = vec![
            LocListEntry::new(10, 10, Location::Register(0)),
            LocListEntry::new(10, 20, Location::Register(1)),
        ];
        assert_eq!(gdb_lookup(&entries, 12), None);
        assert_eq!(
            holes_debuginfo::location::lookup(&entries, 12),
            Some(Location::Register(1))
        );
    }

    #[test]
    fn native_debugger_pairing() {
        assert_eq!(
            DebuggerKind::native_for(Personality::Ccg),
            DebuggerKind::GdbLike
        );
        assert_eq!(
            DebuggerKind::native_for(Personality::Lcc),
            DebuggerKind::LldbLike
        );
    }

    #[test]
    fn planned_trace_equals_the_unplanned_reference() {
        use holes_compiler::BackendKind;
        let p = sample_program();
        for personality in [Personality::Ccg, Personality::Lcc] {
            for &level in personality.levels().iter().chain([&OptLevel::O0]) {
                for backend in BackendKind::ALL {
                    let config = CompilerConfig::new(personality, level).with_backend(backend);
                    let exe = compile(&p, &config);
                    for kind in [DebuggerKind::GdbLike, DebuggerKind::LldbLike] {
                        let plan = StopPlan::compute(&exe, kind);
                        assert_eq!(plan.kind(), kind);
                        assert!(!plan.is_empty(), "sample program plans a breakpoint");
                        let planned = trace_with_plan(&exe, &plan);
                        assert!(plan.len() >= planned.reached.len());
                        let reference = trace_unplanned(&exe, kind);
                        assert_eq!(
                            planned, reference,
                            "planned trace diverged: {personality} {level} {backend} {kind:?}"
                        );
                        assert_eq!(trace(&exe, kind), reference);
                    }
                }
            }
        }
    }

    #[test]
    fn stop_plans_intern_names_across_stops() {
        let p = sample_program();
        let exe = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O0));
        let plan = StopPlan::compute(&exe, DebuggerKind::GdbLike);
        let t = trace_with_plan(&exe, &plan);
        // Every occurrence of a variable name across all stops shares one
        // allocation with the plan (and therefore with every other stop).
        let mut by_name: std::collections::HashMap<&str, &Arc<str>> =
            std::collections::HashMap::new();
        let mut occurrences = 0usize;
        for stop in &t.stops {
            for var in &stop.variables {
                occurrences += 1;
                let first = by_name.entry(var.name.as_ref()).or_insert(&var.name);
                assert!(
                    Arc::ptr_eq(*first, &var.name),
                    "`{}` was re-allocated instead of interned",
                    var.name
                );
            }
        }
        assert!(
            occurrences > by_name.len(),
            "sample trace never repeats a variable; interning is unexercised"
        );
    }

    /// `sample_program` at O0 with its `main` subprogram DIE, ready for
    /// hand edits to the debug information.
    fn sample_o0() -> (Executable, DieId) {
        let exe = compile(
            &sample_program(),
            &CompilerConfig::new(Personality::Ccg, OptLevel::O0),
        );
        let main = exe
            .debug
            .iter()
            .find(|(_, die)| die.tag == DieTag::Subprogram && die.name() == Some("main"))
            .map(|(id, _)| id)
            .unwrap();
        (exe, main)
    }

    /// The planned traces of both personalities, each asserted equal to the
    /// unplanned reference: `[gdb-like, lldb-like]`.
    fn planned_equal_the_reference(exe: &Executable) -> [DebugTrace; 2] {
        [DebuggerKind::GdbLike, DebuggerKind::LldbLike].map(|kind| {
            let planned = trace_with_plan(exe, &StopPlan::compute(exe, kind));
            assert_eq!(planned, trace_unplanned(exe, kind), "{kind:?}");
            assert!(!planned.stops.is_empty());
            planned
        })
    }

    fn text(value: &str) -> AttrValue {
        AttrValue::Text(value.to_owned())
    }

    #[test]
    fn lines_sharing_a_first_address_stop_as_the_lowest_line() {
        let (mut exe, _) = sample_o0();
        let before = trace_unplanned(&exe, DebuggerKind::GdbLike);
        let last = before.stops.last().unwrap();
        let (address, line) = (last.address, last.line);
        // Line 1 declares a global: it is not steppable until this edit.
        assert!(!before.steppable_lines.contains(&1));
        for extra in [line + 100, 1] {
            exe.debug.line_table.push(LineRow {
                address,
                line: extra,
                is_stmt: true,
            });
        }
        for t in planned_equal_the_reference(&exe) {
            for steppable in [1, line, line + 100] {
                assert!(t.steppable_lines.contains(&steppable));
            }
            let stop = t.stops.iter().find(|s| s.address == address).unwrap();
            assert_eq!(stop.line, 1);
            assert!(t.stop_at(line).is_none());
        }
    }

    #[test]
    fn a_partial_lexical_block_lists_its_variable_only_where_it_covers() {
        let (mut exe, main) = sample_o0();
        let mut addresses: Vec<u64> = trace_unplanned(&exe, DebuggerKind::GdbLike)
            .stops
            .iter()
            .map(|s| s.address)
            .collect();
        addresses.sort_unstable();
        let (low, high) = (addresses[1], addresses[addresses.len() - 1]);
        let block = exe.debug.add_die(main, DieTag::LexicalBlock);
        exe.debug.set_attr(block, Attr::LowPc, AttrValue::Addr(low));
        exe.debug
            .set_attr(block, Attr::HighPc, AttrValue::Addr(high));
        let scoped = exe.debug.add_die(block, DieTag::Variable);
        exe.debug.set_attr(scoped, Attr::Name, text("scoped"));
        exe.debug
            .set_attr(scoped, Attr::ConstValue, AttrValue::Signed(7));
        for t in planned_equal_the_reference(&exe) {
            let mut listed = 0;
            for stop in &t.stops {
                let found = stop.variables.iter().find(|v| &*v.name == "scoped");
                if (low..high).contains(&stop.address) {
                    assert_eq!(found.unwrap().availability, Availability::Available(7));
                    listed += 1;
                } else {
                    assert!(found.is_none(), "listed outside the block at {stop:?}");
                }
            }
            assert!(listed > 0 && listed < t.stops.len());
        }
    }

    #[test]
    fn an_origin_only_inlined_location_is_shown_by_gdb_and_hidden_by_lldb() {
        let (mut exe, main) = sample_o0();
        let (low, high) = exe.debug.die(main).pc_range().unwrap();
        let debug = &mut exe.debug;
        let callee = debug.add_die(debug.root(), DieTag::Subprogram);
        debug.set_attr(callee, Attr::Name, text("callee"));
        let origin = debug.add_die(callee, DieTag::Variable);
        debug.set_attr(origin, Attr::Name, text("inl"));
        debug.set_attr(
            origin,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(low, high, Location::ConstValue(11))]),
        );
        let inlined = debug.add_die(main, DieTag::InlinedSubroutine);
        debug.set_attr(inlined, Attr::LowPc, AttrValue::Addr(low));
        debug.set_attr(inlined, Attr::HighPc, AttrValue::Addr(high));
        debug.set_attr(inlined, Attr::AbstractOrigin, AttrValue::Ref(callee));
        let concrete = debug.add_die(inlined, DieTag::Variable);
        debug.set_attr(concrete, Attr::Name, text("inl"));
        debug.set_attr(concrete, Attr::AbstractOrigin, AttrValue::Ref(origin));
        let [gdb, lldb] = planned_equal_the_reference(&exe);
        for (t, expected) in [
            (gdb, Availability::Available(11)),
            (lldb, Availability::OptimizedOut),
        ] {
            for stop in &t.stops {
                let inl = stop.variables.iter().find(|v| &*v.name == "inl").unwrap();
                assert_eq!(inl.availability, expected);
            }
        }
    }

    #[test]
    fn dies_with_the_same_name_share_one_allocation() {
        let (mut exe, main) = sample_o0();
        let outer = exe.debug.add_die(main, DieTag::Variable);
        exe.debug.set_attr(outer, Attr::Name, text("twin"));
        exe.debug
            .set_attr(outer, Attr::ConstValue, AttrValue::Signed(1));
        // A block without a pc range is in scope everywhere.
        let block = exe.debug.add_die(main, DieTag::LexicalBlock);
        let inner = exe.debug.add_die(block, DieTag::Variable);
        exe.debug.set_attr(inner, Attr::Name, text("twin"));
        exe.debug
            .set_attr(inner, Attr::ConstValue, AttrValue::Signed(2));
        for t in planned_equal_the_reference(&exe) {
            let twins: Vec<&VarView> = t
                .stops
                .iter()
                .flat_map(|stop| &stop.variables)
                .filter(|v| &*v.name == "twin")
                .collect();
            assert_eq!(twins.len(), 2 * t.stops.len());
            assert!(twins
                .iter()
                .any(|v| v.availability == Availability::Available(1)));
            assert!(twins
                .iter()
                .any(|v| v.availability == Availability::Available(2)));
            assert!(twins.iter().all(|v| Arc::ptr_eq(&v.name, &twins[0].name)));
        }
    }

    #[test]
    fn unreached_lines_have_no_stop() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g", Ty::I32, false, vec![0]);
        let main = b.function("main", Ty::I32);
        b.push(
            main,
            Stmt::if_stmt(
                Expr::lit(0),
                vec![Stmt::assign(LValue::global(g), Expr::lit(1))],
                vec![],
            ),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut p = b.finish();
        p.assign_lines();
        let exe = compile(&p, &CompilerConfig::new(Personality::Ccg, OptLevel::O0));
        let t = trace(&exe, DebuggerKind::GdbLike);
        // The then-branch line exists in the line table but is never reached.
        assert!(t.steppable_lines.len() > t.lines_reached());
    }
}
