//! The reproduction's simulated execution targets: a register VM and a
//! stack VM on one execution core, behind one stepper interface.
//!
//! The paper compiles its test programs for x86_64 and runs them under a
//! debugger. Our optimizing compiler targets one of two simulated machine
//! models instead ([`BackendKind`] selects; [`MachineCode`] holds either
//! program and spawns the matching [`Vm`] stepper):
//!
//! * the **register VM** ([`exec`]) — the default backend, a register
//!   machine as described below;
//! * the **stack VM** ([`stack`]) — an operand-stack ISA with a small
//!   register file plus spill slots, whose codegen must describe most
//!   variables through stack-relative and composite location descriptions
//!   the register ISA cannot express.
//!
//! Both are one ISA-agnostic core, [`Engine`] ([`engine`]), instantiated
//! for a program type: [`Machine`] runs a [`MachineProgram`] and
//! [`StackMachine`] a [`StackProgram`]. The core owns memory, the frame
//! stack, fuel, sink recording, the run loop and the [`Vm`] inspection
//! methods; each ISA module supplies only its instruction step, operand and
//! address resolution, and frame push and return conventions.
//!
//! The register machine has
//!
//! * [`NUM_REGS`] general-purpose registers per frame,
//! * per-function stack frames with addressable slots,
//! * a flat global memory segment shared with the MiniC reference
//!   interpreter's address scheme (so pointer values observable through the
//!   opaque `sink` call agree between the two),
//! * a `sink` pseudo-call that records its arguments (the opaque external
//!   function the paper links against its test programs).
//!
//! The VM supports single-stepping, address-based breakpoints and full state
//! inspection, which is what the source-level debugger in `holes-debugger`
//! drives.

#![forbid(unsafe_code)]

pub mod backend;
pub mod breakpoints;
pub mod engine;
pub mod exec;
pub mod isa;
pub mod stack;
pub mod vm;

pub use backend::{BackendKind, MachineCode};
pub use breakpoints::BreakpointSet;
pub use engine::{Engine, MachineError, RunOutcome, StopReason};
pub use exec::Machine;
pub use isa::{
    CallTarget, GlobalSlot, MAddr, MFunction, MInst, MachineProgram, Operand, Reg, FUNCTION_STRIDE,
    NUM_REGS, TEXT_BASE,
};
pub use stack::{SFunction, SInst, StackMachine, StackProgram, FP_REG, STACK_NUM_REGS};
pub use vm::{MachineRead, Vm};
