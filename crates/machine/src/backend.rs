//! Backend selection: which simulated machine model an executable targets.
//!
//! The reproduction originally had a single execution target (the register
//! VM of [`crate::exec`]). The paper's methodology, however, is about what
//! the *location description* language can and cannot express — and a
//! register ISA can never exercise stack-relative or composite location
//! descriptions. [`BackendKind`] names the available machine models;
//! [`MachineCode`] holds a compiled program for either one and spawns the
//! matching stepper ([`crate::Vm`]) for the debugger.

use crate::engine::{MachineError, RunOutcome};
use crate::exec::Machine;
use crate::isa::MachineProgram;
use crate::stack::{StackMachine, StackProgram};
use crate::Vm;

/// The simulated machine models a program can be compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BackendKind {
    /// The register VM: [`crate::isa::NUM_REGS`] general-purpose registers
    /// per frame, three-address instructions. The default backend; its
    /// location descriptions are registers, frame slots, constants and
    /// global addresses.
    #[default]
    Reg,
    /// The stack VM: an operand-stack ISA with a small register file
    /// ([`crate::stack::STACK_NUM_REGS`] registers, one of which is the
    /// frame pointer) plus spill slots. Its codegen must describe most
    /// variables with stack-relative (`FrameBase`) and composite
    /// (register + offset + dereference) location descriptions that the
    /// register ISA never produces.
    Stack,
    /// The register ISA under a callee-saved calling convention: the same
    /// instruction set and VM as [`BackendKind::Reg`], but code generation
    /// lays out a real frame — a callee-saved register set with
    /// prologue/epilogue save/restore — and describes spilled and saved
    /// variables with frame-base-relative locations
    /// (`DW_OP_fbreg`-style). This is the only backend whose frame layout
    /// can express the `DW_CFA`-style defect class (stale frame-base and
    /// clobbered callee-saved descriptions).
    Frame,
}

impl BackendKind {
    /// Every backend, in default-first order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Reg, BackendKind::Stack, BackendKind::Frame];

    /// The stable spelling used by CLI flags and file formats
    /// (`reg` / `stack` / `frame`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reg => "reg",
            BackendKind::Stack => "stack",
            BackendKind::Frame => "frame",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Failed parse of a [`BackendKind`] spelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(String);

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend: `{}` (expected `reg`, `stack`, or `frame`)",
            self.0
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for BackendKind {
    type Err = ParseBackendError;

    /// Parse a backend name as spelled in CLI flags and shard headers
    /// (`reg`, `stack`, or `frame`, case-insensitive).
    fn from_str(s: &str) -> Result<BackendKind, ParseBackendError> {
        match s.to_ascii_lowercase().as_str() {
            "reg" => Ok(BackendKind::Reg),
            "stack" => Ok(BackendKind::Stack),
            "frame" => Ok(BackendKind::Frame),
            other => Err(ParseBackendError(other.to_owned())),
        }
    }
}

/// A compiled program for either backend: the machine-code half of an
/// executable. Spawns the matching stepper for the debugger via
/// [`MachineCode::spawn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineCode {
    /// A register-VM program.
    Reg(MachineProgram),
    /// A stack-VM program.
    Stack(StackProgram),
    /// A register-VM program compiled under the callee-saved frame ABI.
    /// Runs on the same [`Machine`] stepper as [`MachineCode::Reg`]; the
    /// distinction matters to the *debug information* (frame-base-relative
    /// locations) and to file formats, not to execution.
    Frame(MachineProgram),
}

impl MachineCode {
    /// Which backend this code targets.
    pub fn backend(&self) -> BackendKind {
        match self {
            MachineCode::Reg(_) => BackendKind::Reg,
            MachineCode::Stack(_) => BackendKind::Stack,
            MachineCode::Frame(_) => BackendKind::Frame,
        }
    }

    /// Total number of instructions.
    pub fn instruction_count(&self) -> usize {
        match self {
            MachineCode::Reg(p) | MachineCode::Frame(p) => p.instruction_count(),
            MachineCode::Stack(p) => p.instruction_count(),
        }
    }

    /// Spawn a fresh stepper for this program, ready to run from its entry
    /// function.
    pub fn spawn(&self) -> Box<dyn Vm + '_> {
        match self {
            MachineCode::Reg(p) | MachineCode::Frame(p) => Box::new(Machine::new(p)),
            MachineCode::Stack(p) => Box::new(StackMachine::new(p)),
        }
    }

    /// Spawn a fresh stepper with an explicit step budget instead of the
    /// default fuel. Containment layers use this to bound non-terminating
    /// subjects deterministically: the same program and fuel always stop at
    /// the same step.
    pub fn spawn_with_fuel(&self, fuel: u64) -> Box<dyn Vm + '_> {
        match self {
            MachineCode::Reg(p) | MachineCode::Frame(p) => Box::new(Machine::with_fuel(p, fuel)),
            MachineCode::Stack(p) => Box::new(StackMachine::with_fuel(p, fuel)),
        }
    }

    /// Run the program to completion and return the observable outcome.
    ///
    /// # Errors
    ///
    /// Returns the machine error if execution faults or exceeds its budget.
    pub fn run_to_completion(&self) -> Result<RunOutcome, MachineError> {
        match self {
            MachineCode::Reg(p) | MachineCode::Frame(p) => Machine::new(p).run_to_completion(),
            MachineCode::Stack(p) => StackMachine::new(p).run_to_completion(),
        }
    }

    /// The register-VM program, if this is register code (either ABI).
    pub fn as_reg(&self) -> Option<&MachineProgram> {
        match self {
            MachineCode::Reg(p) | MachineCode::Frame(p) => Some(p),
            MachineCode::Stack(_) => None,
        }
    }

    /// The stack-VM program, if this is stack code.
    pub fn as_stack(&self) -> Option<&StackProgram> {
        match self {
            MachineCode::Reg(_) | MachineCode::Frame(_) => None,
            MachineCode::Stack(p) => Some(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for backend in BackendKind::ALL {
            assert_eq!(backend.name().parse(), Ok(backend));
        }
        assert_eq!("STACK".parse(), Ok(BackendKind::Stack));
        assert_eq!("Frame".parse(), Ok(BackendKind::Frame));
        assert!("gcc".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Reg);
        let err = "x86".parse::<BackendKind>().unwrap_err();
        assert!(err.to_string().contains("x86"));
    }
}
