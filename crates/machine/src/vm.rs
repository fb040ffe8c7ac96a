//! The stepper interface shared by every backend's virtual machine.
//!
//! The source-level debugger (`holes-debugger`) drives execution purely
//! through this trait: run until a breakpoint, then inspect the stopped
//! frame to resolve variable locations. The execution core implements it
//! once, for [`crate::Engine`] over any ISA, so [`crate::Machine`] (the
//! register VM) and [`crate::StackMachine`] (the stack VM) share one
//! implementation; [`crate::MachineCode::spawn`] hands the debugger the
//! right one.

use crate::breakpoints::BreakpointSet;
use crate::engine::StopReason;

/// A running virtual machine the debugger can step and inspect.
///
/// The inspection methods mirror the location description language of
/// `holes-debuginfo`: registers, frame slots, absolute addresses, and the
/// current frame's base address (what a DWARF `DW_OP_fbreg` expression
/// would be evaluated against). A backend without an active frame returns
/// `None` from [`Vm::frame_base`], and frame-base-relative locations
/// cannot resolve at such a stop — the debugger reports the variable as
/// optimized out.
pub trait Vm {
    /// Run until a breakpoint, completion or error.
    fn run(&mut self, breakpoints: &BreakpointSet) -> StopReason;

    /// Read a register of the current frame.
    fn read_reg(&self, reg: u8) -> i64;

    /// Read a frame slot of the current frame (`None` when out of range or
    /// no frame is active).
    fn read_frame_slot(&self, slot: u32) -> Option<i64>;

    /// Read an absolute memory address (global or stack segment).
    fn read_address(&self, address: i64) -> Option<i64>;

    /// The absolute address of the current frame's slot 0, on backends that
    /// maintain an explicit frame base; `None` otherwise.
    fn frame_base(&self) -> Option<i64>;

    /// Execute one pre-compiled machine read against the stopped frame.
    ///
    /// The variants of [`MachineRead`] mirror the resolvable location
    /// descriptions of `holes-debuginfo`, so a debugger that has already
    /// decided *where* a variable lives (a stop plan) only needs machine
    /// state at stop time. `None` means the read cannot be satisfied (slot
    /// out of range, address outside memory, no frame base) — the debugger
    /// reports such variables as optimized out.
    fn read_one(&self, read: MachineRead) -> Option<i64> {
        match read {
            MachineRead::Reg(reg) => Some(self.read_reg(reg)),
            MachineRead::FrameSlot(slot) => self.read_frame_slot(slot),
            MachineRead::Address(address) => self.read_address(address),
            MachineRead::FrameBaseSlot { offset } => self
                .frame_base()
                .and_then(|base| self.read_address(base + i64::from(offset) * 8)),
            MachineRead::RegOffset { reg, offset, deref } => {
                let computed = self.read_reg(reg).wrapping_add(offset);
                if deref {
                    self.read_address(computed)
                } else {
                    Some(computed)
                }
            }
        }
    }

    /// Execute a batch of machine reads against the stopped frame, appending
    /// one result per read to `out` (in input order).
    ///
    /// This is the debugger's stop-plan entry point: one virtual call per
    /// stop instead of one per variable, with the per-read work inlined in
    /// the implementing machine.
    fn read_batch(&self, reads: &[MachineRead], out: &mut Vec<Option<i64>>) {
        out.reserve(reads.len());
        for &read in reads {
            out.push(self.read_one(read));
        }
    }
}

/// One machine-state read a debugger performs at a breakpoint stop, with
/// every location-description decision already resolved.
///
/// A stop plan compiles a variable's DWARF-style location (register, frame
/// slot, global address, `DW_OP_fbreg`-style frame-base offset, or a
/// composite register + offset expression) down to one of these variants
/// once per executable; at stop time the debugger hands the batch to
/// [`Vm::read_batch`] and the machine answers from its current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineRead {
    /// The value of a register of the stopped frame.
    Reg(u8),
    /// The value of a frame slot of the stopped frame.
    FrameSlot(u32),
    /// The value at an absolute memory address.
    Address(i64),
    /// The value `offset` slots (8 bytes each) past the frame base, on
    /// backends that maintain one.
    FrameBaseSlot {
        /// Slot offset from the frame base.
        offset: i32,
    },
    /// The value of `reg + offset`, optionally loaded through as an address.
    RegOffset {
        /// Base register of the expression.
        reg: u8,
        /// Byte offset added to the register value.
        offset: i64,
        /// Whether the computed address is dereferenced.
        deref: bool,
    },
}
