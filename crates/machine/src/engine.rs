//! The ISA-agnostic execution core both simulated machines run on.
//!
//! An [`Engine`] owns everything the register VM and the stack VM share:
//! the flat global segment and the `STACK_BASE`-relative stack segment of
//! the MiniC reference interpreter's address scheme (so pointer values
//! observable through the opaque sink agree across all three), frame-slot
//! allocation, the global bounds check and width wrap, the call-frame
//! stack, sink recording, fuel, and the breakpoint run loop. Each ISA
//! implements [`Isa`] for its program type and supplies only what differs:
//! its instruction match, how its operands and addresses resolve, and how
//! it pushes and returns from a frame. The core is generic over the ISA, so
//! every instruction step is statically dispatched.

use holes_minic::interp::{GLOBAL_BASE, STACK_BASE};

use crate::breakpoints::BreakpointSet;
use crate::isa::GlobalSlot;
use crate::vm::Vm;

/// Default step budget; mirrors the reference interpreter's purpose of making
/// non-termination observable.
pub const DEFAULT_FUEL: u64 = 20_000_000;

/// Why the machine stopped running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A breakpoint address was reached (before executing the instruction).
    Breakpoint {
        /// The address that was hit.
        address: u64,
    },
    /// The program finished; `main` returned the given value.
    Finished {
        /// Return value of the entry function.
        return_value: i64,
    },
    /// Execution failed.
    Error(MachineError),
}

/// Errors raised by the VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The step budget was exhausted.
    OutOfFuel,
    /// A memory access hit an address outside every segment.
    BadAddress(i64),
    /// A branch target was outside the current function.
    BadBranchTarget(u32),
    /// A global element index was out of range.
    GlobalIndexOutOfRange {
        /// Global index.
        global: u32,
        /// Offending element index.
        element: i64,
    },
    /// A frame slot index was out of range.
    BadFrameSlot(u32),
    /// Execution continued past the end of a function without a return.
    FellOffEnd {
        /// The function that ended without `Ret`.
        function: String,
    },
    /// A stack-VM instruction popped from an empty operand stack (never
    /// produced by the compiler's stack backend, whose emission is
    /// balanced per statement; guards hand-written programs).
    EvalStackUnderflow,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::OutOfFuel => write!(f, "machine exceeded its step budget"),
            MachineError::BadAddress(a) => write!(f, "access to unmapped address {a:#x}"),
            MachineError::BadBranchTarget(t) => write!(f, "branch to invalid target {t}"),
            MachineError::GlobalIndexOutOfRange { global, element } => {
                write!(
                    f,
                    "global {global} indexed out of range at element {element}"
                )
            }
            MachineError::BadFrameSlot(s) => write!(f, "frame slot {s} out of range"),
            MachineError::FellOffEnd { function } => {
                write!(f, "function {function} ended without returning")
            }
            MachineError::EvalStackUnderflow => {
                write!(f, "operand stack underflow")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Outcome of running a program to completion, convertible to the reference
/// interpreter's [`ExecOutcome`](holes_minic::interp::ExecOutcome) for
/// differential testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Arguments of each sink call, in call order.
    pub sink_calls: Vec<Vec<i64>>,
    /// Final value of every global, flattened, indexed by global id.
    pub final_globals: Vec<Vec<i64>>,
    /// Return value of the entry function.
    pub return_value: i64,
    /// Number of instructions executed.
    pub steps: u64,
}

impl RunOutcome {
    /// Compare against the reference interpreter's outcome (steps are not
    /// compared: the instruction count legitimately differs from the
    /// statement count).
    pub fn matches(&self, reference: &holes_minic::interp::ExecOutcome) -> bool {
        self.sink_calls == reference.sink_calls
            && self.final_globals == reference.final_globals
            && self.return_value == reference.return_value
    }
}

/// The parts of one compiled function the core reads, whichever ISA it
/// targets.
#[derive(Debug, Clone, Copy)]
pub struct FunctionView<'a, I> {
    /// Function name (for [`MachineError::FellOffEnd`]).
    pub name: &'a str,
    /// Instructions.
    pub code: &'a [I],
    /// Number of frame slots a call allocates.
    pub frame_slots: u32,
    /// Base code address.
    pub base_address: u64,
}

/// A compiled program of one ISA, and that ISA's half of the machine.
pub trait Isa: Sized {
    /// One instruction.
    type Inst;
    /// The ISA's part of a call frame: its registers and return convention.
    type FrameState: std::fmt::Debug;

    /// The globals, laid out flat in the data segment.
    fn globals(&self) -> &[GlobalSlot];

    /// Function `index` of the program.
    fn function(&self, index: u32) -> FunctionView<'_, Self::Inst>;

    /// Push the entry function's frame.
    fn enter(machine: &mut Engine<'_, Self>);

    /// Execute one fetched instruction; the core has already charged fuel
    /// and advanced the pc past it.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] if the instruction faults.
    fn execute<'p>(
        machine: &mut Engine<'p, Self>,
        inst: &'p Self::Inst,
    ) -> Result<(), MachineError>;

    /// Register `reg` of a frame.
    fn read_reg(frame: &Self::FrameState, reg: u8) -> i64;
}

/// One call frame.
#[derive(Debug)]
pub(crate) struct Frame<S> {
    /// Index of the executing function.
    pub(crate) function: u32,
    /// Local instruction index (the next instruction to execute).
    pub(crate) pc: u32,
    /// Base index of this frame's slots within the stack memory.
    pub(crate) slot_base: usize,
    /// Number of slots owned by this frame.
    pub(crate) slot_count: u32,
    /// The ISA's part of the frame.
    pub(crate) isa: S,
}

/// A virtual machine executing a program of ISA `P`.
#[derive(Debug)]
pub struct Engine<'p, P: Isa> {
    pub(crate) program: &'p P,
    global_mem: Vec<i64>,
    global_offsets: Vec<usize>,
    pub(crate) stack_mem: Vec<i64>,
    pub(crate) frames: Vec<Frame<P::FrameState>>,
    pub(crate) sink_calls: Vec<Vec<i64>>,
    steps: u64,
    fuel: u64,
    finished: Option<i64>,
    error: Option<MachineError>,
}

/// The absolute address of stack-memory cell `index`.
pub(crate) fn stack_address(index: usize) -> i64 {
    STACK_BASE + index as i64 * 8
}

/// Wrap `value` to a global's declared element width.
fn wrap(global: &GlobalSlot, value: i64) -> i64 {
    width_to_ty(global.bits, global.signed).wrap(value)
}

impl<'p, P: Isa> Engine<'p, P> {
    /// Create a machine ready to execute `program` from its entry function.
    pub fn new(program: &'p P) -> Engine<'p, P> {
        Engine::with_fuel(program, DEFAULT_FUEL)
    }

    /// Create a machine with an explicit step budget.
    pub fn with_fuel(program: &'p P, fuel: u64) -> Engine<'p, P> {
        let mut global_mem = Vec::new();
        let mut global_offsets = Vec::with_capacity(program.globals().len());
        for g in program.globals() {
            global_offsets.push(global_mem.len());
            global_mem.extend_from_slice(&g.init);
        }
        let mut machine = Engine {
            program,
            global_mem,
            global_offsets,
            stack_mem: Vec::new(),
            frames: Vec::new(),
            sink_calls: Vec::new(),
            steps: 0,
            fuel,
            finished: None,
            error: None,
        };
        P::enter(&mut machine);
        machine
    }

    /// Push a frame for `function` with freshly allocated, zeroed slots;
    /// returns the frame's slot base.
    pub(crate) fn push_frame(&mut self, function: u32, isa: P::FrameState) -> usize {
        let slot_count = self.program.function(function).frame_slots;
        let slot_base = self.stack_mem.len();
        self.stack_mem
            .extend(std::iter::repeat_n(0, slot_count as usize));
        self.frames.push(Frame {
            function,
            pc: 0,
            slot_base,
            slot_count,
            isa,
        });
        slot_base
    }

    /// Pop the current frame. Returns its ISA state with its caller's, or
    /// records `value` as the program's result when the entry function
    /// returned.
    pub(crate) fn pop_frame(&mut self, value: i64) -> Option<(P::FrameState, &mut P::FrameState)> {
        let frame = self.frames.pop().expect("ret with no frame");
        match self.frames.last_mut() {
            Some(caller) => Some((frame.isa, &mut caller.isa)),
            None => {
                self.finished = Some(value);
                None
            }
        }
    }

    /// The current frame's ISA state.
    pub(crate) fn frame(&self) -> &P::FrameState {
        &self.frames.last().expect("machine has no active frame").isa
    }

    /// The current frame's ISA state, mutably.
    pub(crate) fn frame_mut(&mut self) -> &mut P::FrameState {
        &mut self
            .frames
            .last_mut()
            .expect("machine has no active frame")
            .isa
    }

    /// The code address about to be executed, if the machine is still
    /// running.
    pub fn pc_address(&self) -> Option<u64> {
        let frame = self.frames.last()?;
        Some(self.program.function(frame.function).base_address + u64::from(frame.pc))
    }

    /// Whether the program finished.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some() || self.error.is_some()
    }

    /// Run until a breakpoint, completion or error.
    ///
    /// When the set is empty (or becomes irrelevant because every one-shot
    /// breakpoint was already consumed) the per-instruction probe is skipped
    /// entirely — the fast path the debugger falls onto once all steppable
    /// lines have been hit.
    pub fn run(&mut self, breakpoints: &BreakpointSet) -> StopReason {
        let probe = !breakpoints.is_empty();
        loop {
            if let Some(err) = &self.error {
                return StopReason::Error(err.clone());
            }
            if let Some(ret) = self.finished {
                return StopReason::Finished { return_value: ret };
            }
            if probe {
                if let Some(pc) = self.pc_address().filter(|&pc| breakpoints.contains(pc)) {
                    return StopReason::Breakpoint { address: pc };
                }
            }
            if let Err(err) = self.step() {
                self.error = Some(err.clone());
                return StopReason::Error(err);
            }
        }
    }

    /// Run to completion ignoring breakpoints and produce the outcome.
    ///
    /// # Errors
    ///
    /// Returns the machine error if execution fails.
    pub fn run_to_completion(mut self) -> Result<RunOutcome, MachineError> {
        match self.run(&BreakpointSet::new()) {
            StopReason::Finished { return_value } => {
                let final_globals = self.final_globals();
                Ok(RunOutcome {
                    sink_calls: self.sink_calls,
                    final_globals,
                    return_value,
                    steps: self.steps,
                })
            }
            StopReason::Error(err) => Err(err),
            StopReason::Breakpoint { .. } => unreachable!("no breakpoints were set"),
        }
    }

    /// Snapshot of all globals, per global id.
    pub fn final_globals(&self) -> Vec<Vec<i64>> {
        self.program
            .globals()
            .iter()
            .zip(&self.global_offsets)
            .map(|(g, &offset)| self.global_mem[offset..offset + g.elements].to_vec())
            .collect()
    }

    /// Execute a single instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] if the instruction faults.
    pub fn step(&mut self) -> Result<(), MachineError> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(MachineError::OutOfFuel);
        }
        let Some(frame) = self.frames.last_mut() else {
            return Ok(());
        };
        // `program` outlives `self`'s borrows, so the instruction is read by
        // reference instead of being cloned every step.
        let program = self.program;
        let func = program.function(frame.function);
        let Some(inst) = func.code.get(frame.pc as usize) else {
            return Err(MachineError::FellOffEnd {
                function: func.name.to_owned(),
            });
        };
        // Default: advance to the next instruction; control flow overrides.
        frame.pc += 1;
        P::execute(self, inst)
    }

    /// Jump to local instruction `target` of the current function.
    pub(crate) fn branch(&mut self, target: u32) -> Result<(), MachineError> {
        let frame = self.frames.last_mut().expect("branch with no frame");
        if target as usize > self.program.function(frame.function).code.len() {
            return Err(MachineError::BadBranchTarget(target));
        }
        frame.pc = target;
        Ok(())
    }

    /// The stack-memory index of the current frame's `slot`.
    pub(crate) fn slot_index(&self, slot: u32) -> Result<usize, MachineError> {
        let frame = self.frames.last().expect("machine has no active frame");
        if slot >= frame.slot_count {
            return Err(MachineError::BadFrameSlot(slot));
        }
        Ok(frame.slot_base + slot as usize)
    }

    /// The global-memory index of `element` of `global`, bounds-checked
    /// against the global's element count (a missing global has none).
    fn global_index(&self, global: u32, element: i64) -> Result<usize, MachineError> {
        let size = self
            .program
            .globals()
            .get(global as usize)
            .map_or(0, |g| g.elements);
        if element < 0 || element as usize >= size {
            return Err(MachineError::GlobalIndexOutOfRange { global, element });
        }
        Ok(self.global_offsets[global as usize] + element as usize)
    }

    /// Load `element` of `global`.
    pub(crate) fn load_global(&self, global: u32, element: i64) -> Result<i64, MachineError> {
        Ok(self.global_mem[self.global_index(global, element)?])
    }

    /// Store `value` into `element` of `global`, wrapped to its width.
    pub(crate) fn store_global(
        &mut self,
        global: u32,
        element: i64,
        value: i64,
    ) -> Result<(), MachineError> {
        let index = self.global_index(global, element)?;
        self.global_mem[index] = wrap(&self.program.globals()[global as usize], value);
        Ok(())
    }

    /// Load from an absolute address.
    pub(crate) fn load_address(&self, address: i64) -> Result<i64, MachineError> {
        self.read_address(address)
            .ok_or(MachineError::BadAddress(address))
    }

    /// Store to an absolute address; a global element is wrapped to the
    /// width of the global that owns it.
    pub(crate) fn store_address(&mut self, address: i64, value: i64) -> Result<(), MachineError> {
        if address >= STACK_BASE {
            let slot = ((address - STACK_BASE) / 8) as usize;
            if let Some(cell) = self.stack_mem.get_mut(slot) {
                *cell = value;
                return Ok(());
            }
            return Err(MachineError::BadAddress(address));
        }
        if address >= GLOBAL_BASE {
            let elem = ((address - GLOBAL_BASE) / 8) as usize;
            let globals = self.program.globals();
            for (g, &offset) in globals.iter().zip(&self.global_offsets) {
                if elem >= offset && elem < offset + g.elements {
                    self.global_mem[elem] = wrap(g, value);
                    return Ok(());
                }
            }
        }
        Err(MachineError::BadAddress(address))
    }
}

impl<P: Isa> Vm for Engine<'_, P> {
    fn run(&mut self, breakpoints: &BreakpointSet) -> StopReason {
        Engine::run(self, breakpoints)
    }

    fn read_reg(&self, reg: u8) -> i64 {
        P::read_reg(self.frame(), reg)
    }

    fn read_frame_slot(&self, slot: u32) -> Option<i64> {
        let frame = self.frames.last()?;
        if slot >= frame.slot_count {
            return None;
        }
        self.stack_mem.get(frame.slot_base + slot as usize).copied()
    }

    fn read_address(&self, address: i64) -> Option<i64> {
        if address >= STACK_BASE {
            let slot = ((address - STACK_BASE) / 8) as usize;
            self.stack_mem.get(slot).copied()
        } else if address >= GLOBAL_BASE {
            let elem = ((address - GLOBAL_BASE) / 8) as usize;
            self.global_mem.get(elem).copied()
        } else {
            None
        }
    }

    /// The active frame's base address: the stack address of its slot 0.
    /// Frame-base-relative location descriptions (`DW_OP_fbreg`-style, as the
    /// frame-ABI and stack backends emit) resolve against this; default
    /// register-backend code never emits such descriptions, so for it the
    /// value is simply unused.
    fn frame_base(&self) -> Option<i64> {
        Some(stack_address(self.frames.last()?.slot_base))
    }
}

pub(crate) fn width_to_ty(bits: u32, signed: bool) -> holes_minic::ast::Ty {
    use holes_minic::ast::Ty;
    match (bits, signed) {
        (8, true) => Ty::I8,
        (16, true) => Ty::I16,
        (32, true) => Ty::I32,
        (8, false) => Ty::U8,
        (16, false) => Ty::U16,
        (32, false) => Ty::U32,
        (64, false) => Ty::U64,
        _ => Ty::I64,
    }
}
