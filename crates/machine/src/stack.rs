//! The stack VM: the second simulated backend.
//!
//! Where the register VM ([`crate::exec`]) models a three-address machine
//! with a comfortable register file, this machine models the opposite end
//! of the design space: expressions are evaluated on a per-frame **operand
//! stack**, and the register file is tiny — [`STACK_NUM_REGS`] registers,
//! one of which ([`FP_REG`]) is the frame pointer maintained by the machine
//! itself. Almost every named value therefore lives in a **frame slot**
//! reached through the frame pointer, which is exactly what forces the
//! compiler's stack backend to emit stack-relative (`FrameBase`) and
//! composite (register + offset + dereference) location descriptions that
//! the register ISA can never produce — the new defect surface this
//! backend exists to open (spill-induced "variable went missing" holes,
//! per the paper's §2 taxonomy).
//!
//! A [`StackMachine`] is the execution core ([`Engine`]) running a
//! [`StackProgram`], so memory, fuel and the run loop are the register VM's
//! own. This module supplies only what is specific to the stack ISA: the
//! [`SInst`] match, the operand stack, and the calling convention — a call
//! allocates the callee's frame slots, points [`FP_REG`] at slot 0 and
//! deposits the arguments in registers and parameter slots, and `Ret`
//! pushes the return value onto the caller's operand stack.

use crate::engine::{stack_address, width_to_ty, Engine, FunctionView, Isa, MachineError};
use crate::isa::{global_base_address, CallTarget, GlobalSlot, FUNCTION_STRIDE, TEXT_BASE};
use holes_minic::ast::{BinOp, UnOp};

/// Number of registers in a stack-VM frame (including the frame pointer).
pub const STACK_NUM_REGS: usize = 4;

/// The frame-pointer register: holds the absolute address of the current
/// frame's slot 0. Maintained by the machine on every frame push; no
/// instruction ever writes it.
pub const FP_REG: u8 = (STACK_NUM_REGS - 1) as u8;

/// One stack-VM instruction. The operand stack grows rightward in the
/// comments: `a b -- a+b` pops `b` then `a` and pushes the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SInst {
    /// `-- imm`.
    PushImm(i64),
    /// `-- reg`.
    PushReg(u8),
    /// `v --` into a register.
    PopReg(u8),
    /// `-- slot` (frame slot value).
    PushSlot(u32),
    /// `v --` into a frame slot.
    PopSlot(u32),
    /// `v --` discarded.
    Drop,
    /// `a b -- a<op>b` (wrapping arithmetic, comparisons yield 0/1).
    Bin(BinOp),
    /// `a -- <op>a`.
    Un(UnOp),
    /// `a -- wrap(a)` to the given width, in place.
    Trunc {
        /// Width in bits.
        bits: u32,
        /// Whether the wrap sign-extends.
        signed: bool,
    },
    /// `[index] -- value`: load a global element (index popped when
    /// `indexed`, else element 0).
    LoadGlobal {
        /// Index of the global in the program's global table.
        global: u32,
        /// Whether an element index is popped from the stack.
        indexed: bool,
    },
    /// `[index] value --`: store to a global element (value popped first,
    /// then the index when `indexed`).
    StoreGlobal {
        /// Index of the global in the program's global table.
        global: u32,
        /// Whether an element index is popped from the stack.
        indexed: bool,
    },
    /// `addr -- mem[addr]` (pointer dereference).
    LoadInd,
    /// `addr value --`: store through a pointer (value popped first).
    StoreInd,
    /// `-- &global` (absolute data address of element 0).
    PushGlobalAddr {
        /// Index of the global in the program's global table.
        global: u32,
    },
    /// `-- &slot` (absolute address of a frame slot).
    PushSlotAddr(u32),
    /// Unconditional branch to a local instruction index.
    Jump {
        /// Target instruction index within the same function.
        target: u32,
    },
    /// `cond --`; branch when zero.
    BranchZero {
        /// Target instruction index within the same function.
        target: u32,
    },
    /// `cond --`; branch when non-zero.
    BranchNonZero {
        /// Target instruction index within the same function.
        target: u32,
    },
    /// `arg0 .. argN-1 -- [ret]`: pop `argc` arguments (pushed in order),
    /// call a function or the sink; when `has_ret`, the return value is
    /// pushed onto the caller's operand stack.
    Call {
        /// Call target.
        target: CallTarget,
        /// Number of arguments popped.
        argc: u32,
        /// Whether the caller consumes the return value.
        has_ret: bool,
    },
    /// Return from the current function (`value --` when `has_value`).
    Ret {
        /// Whether a return value is popped.
        has_value: bool,
    },
    /// No operation.
    Nop,
}

/// A compiled stack-VM function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SFunction {
    /// Function name.
    pub name: String,
    /// Instructions.
    pub code: Vec<SInst>,
    /// Number of frame slots (named slots, the parameter area, and spills).
    pub frame_slots: u32,
    /// First slot of the parameter area: the machine deposits argument `i`
    /// into slot `param_base + i` (and, for `i < FP_REG`, also into
    /// register `i`).
    pub param_base: u32,
    /// Base code address of the function.
    pub base_address: u64,
}

impl SFunction {
    /// The code address of instruction `index`.
    pub fn address_of(&self, index: usize) -> u64 {
        self.base_address + index as u64
    }

    /// The `[low, high)` address range of the function.
    pub fn pc_range(&self) -> (u64, u64) {
        (
            self.base_address,
            self.base_address + self.code.len() as u64,
        )
    }
}

/// A complete stack-VM program. Shares the code- and data-address scheme of
/// the register VM ([`crate::isa::MachineProgram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackProgram {
    /// Functions; `entry` indexes into this vector.
    pub functions: Vec<SFunction>,
    /// Globals (same layout as the register VM and the reference
    /// interpreter).
    pub globals: Vec<GlobalSlot>,
    /// Index of the entry function (`main`).
    pub entry: u32,
}

impl StackProgram {
    /// Compute the default base address for function `index` (same scheme
    /// as the register VM).
    pub fn default_base_address(index: usize) -> u64 {
        TEXT_BASE + index as u64 * FUNCTION_STRIDE
    }

    /// Base data address of global `index`.
    pub fn global_base_address(&self, index: u32) -> i64 {
        global_base_address(&self.globals, index)
    }

    /// Total number of instructions.
    pub fn instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

/// The stack virtual machine.
pub type StackMachine<'p> = Engine<'p, StackProgram>;

/// The stack ISA's part of a call frame.
#[derive(Debug)]
pub struct StackFrame {
    regs: [i64; STACK_NUM_REGS],
    /// The per-frame operand (evaluation) stack. Statement boundaries leave
    /// it empty, so breakpoints never observe a value in flight.
    eval: Vec<i64>,
    /// Whether the caller's `Call` consumes the return value.
    ret_push: bool,
}

impl Isa for StackProgram {
    type Inst = SInst;
    type FrameState = StackFrame;

    fn globals(&self) -> &[GlobalSlot] {
        &self.globals
    }

    fn function(&self, index: u32) -> FunctionView<'_, SInst> {
        let f = &self.functions[index as usize];
        FunctionView {
            name: &f.name,
            code: &f.code,
            frame_slots: f.frame_slots,
            base_address: f.base_address,
        }
    }

    fn enter(machine: &mut StackMachine<'_>) {
        machine.call(machine.program.entry, &[], false);
    }

    fn execute<'p>(machine: &mut StackMachine<'p>, inst: &'p SInst) -> Result<(), MachineError> {
        machine.execute(*inst)
    }

    fn read_reg(frame: &StackFrame, reg: u8) -> i64 {
        frame.regs[reg as usize]
    }
}

impl StackMachine<'_> {
    /// Push a frame for `function`: the frame pointer holds the address of
    /// its slot 0, and argument `i` lands in slot `param_base + i` and, for
    /// `i < FP_REG`, in register `i`.
    fn call(&mut self, function: u32, args: &[i64], ret_push: bool) {
        let slot_base = self.push_frame(
            function,
            StackFrame {
                regs: [0; STACK_NUM_REGS],
                eval: Vec::new(),
                ret_push,
            },
        );
        let func = &self.program.functions[function as usize];
        let regs = &mut self.frames.last_mut().expect("frame pushed").isa.regs;
        regs[FP_REG as usize] = stack_address(slot_base);
        for (i, &arg) in args.iter().enumerate() {
            if i < FP_REG as usize {
                regs[i] = arg;
            }
            let slot = func.param_base as usize + i;
            if slot < func.frame_slots as usize {
                self.stack_mem[slot_base + slot] = arg;
            }
        }
    }

    fn pop(&mut self) -> Result<i64, MachineError> {
        self.frame_mut()
            .eval
            .pop()
            .ok_or(MachineError::EvalStackUnderflow)
    }

    fn push(&mut self, value: i64) {
        self.frame_mut().eval.push(value);
    }

    fn execute(&mut self, inst: SInst) -> Result<(), MachineError> {
        match inst {
            SInst::Nop => {}
            SInst::PushImm(v) => self.push(v),
            SInst::PushReg(r) => {
                let v = self.frame().regs[r as usize];
                self.push(v);
            }
            SInst::PopReg(r) => {
                let v = self.pop()?;
                self.frame_mut().regs[r as usize] = v;
            }
            SInst::PushSlot(slot) => {
                let index = self.slot_index(slot)?;
                let v = self.stack_mem[index];
                self.push(v);
            }
            SInst::PopSlot(slot) => {
                let index = self.slot_index(slot)?;
                let v = self.pop()?;
                self.stack_mem[index] = v;
            }
            SInst::Drop => {
                self.pop()?;
            }
            SInst::Bin(op) => {
                let rhs = self.pop()?;
                let lhs = self.pop()?;
                self.push(op.eval(lhs, rhs));
            }
            SInst::Un(op) => {
                let v = self.pop()?;
                self.push(op.eval(v));
            }
            SInst::Trunc { bits, signed } => {
                let v = self.pop()?;
                self.push(width_to_ty(bits, signed).wrap(v));
            }
            SInst::LoadGlobal { global, indexed } => {
                let element = if indexed { self.pop()? } else { 0 };
                let v = self.load_global(global, element)?;
                self.push(v);
            }
            SInst::StoreGlobal { global, indexed } => {
                let value = self.pop()?;
                let element = if indexed { self.pop()? } else { 0 };
                self.store_global(global, element, value)?;
            }
            SInst::LoadInd => {
                let address = self.pop()?;
                let v = self.load_address(address)?;
                self.push(v);
            }
            SInst::StoreInd => {
                let value = self.pop()?;
                let address = self.pop()?;
                self.store_address(address, value)?;
            }
            SInst::PushGlobalAddr { global } => {
                let address = self.program.global_base_address(global);
                self.push(address);
            }
            SInst::PushSlotAddr(slot) => {
                let index = self.slot_index(slot)?;
                self.push(stack_address(index));
            }
            SInst::Jump { target } => self.branch(target)?,
            SInst::BranchZero { target } => {
                if self.pop()? == 0 {
                    self.branch(target)?;
                }
            }
            SInst::BranchNonZero { target } => {
                if self.pop()? != 0 {
                    self.branch(target)?;
                }
            }
            SInst::Call {
                target,
                argc,
                has_ret,
            } => {
                let mut args = vec![0i64; argc as usize];
                for slot in args.iter_mut().rev() {
                    *slot = self.pop()?;
                }
                match target {
                    CallTarget::Sink => {
                        self.sink_calls.push(args);
                        if has_ret {
                            self.push(0);
                        }
                    }
                    CallTarget::Function(f) => self.call(f, &args, has_ret),
                }
            }
            SInst::Ret { has_value } => {
                let value = if has_value { self.pop()? } else { 0 };
                if let Some((callee, caller)) = self.pop_frame(value) {
                    if callee.ret_push {
                        caller.eval.push(value);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointSet;
    use crate::engine::StopReason;
    use crate::vm::Vm;

    fn one_function_program(code: Vec<SInst>, globals: Vec<GlobalSlot>) -> StackProgram {
        StackProgram {
            functions: vec![SFunction {
                name: "main".into(),
                code,
                frame_slots: 4,
                param_base: 2,
                base_address: TEXT_BASE,
            }],
            globals,
            entry: 0,
        }
    }

    fn int_global(name: &str, init: i64) -> GlobalSlot {
        GlobalSlot {
            name: name.into(),
            elements: 1,
            init: vec![init],
            bits: 32,
            signed: true,
            volatile: false,
        }
    }

    #[test]
    fn arithmetic_on_the_operand_stack() {
        let prog = one_function_program(
            vec![
                SInst::PushImm(20),
                SInst::PushImm(22),
                SInst::Bin(BinOp::Add),
                SInst::Ret { has_value: true },
            ],
            vec![],
        );
        let outcome = StackMachine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 42);
        assert_eq!(outcome.steps, 4);
    }

    #[test]
    fn globals_wrap_to_their_declared_width() {
        let prog = one_function_program(
            vec![
                SInst::PushImm(300),
                SInst::StoreGlobal {
                    global: 0,
                    indexed: false,
                },
                SInst::LoadGlobal {
                    global: 0,
                    indexed: false,
                },
                SInst::Ret { has_value: true },
            ],
            vec![GlobalSlot {
                name: "g".into(),
                elements: 1,
                init: vec![0],
                bits: 8,
                signed: false,
                volatile: false,
            }],
        );
        let outcome = StackMachine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 44);
        assert_eq!(outcome.final_globals, vec![vec![44]]);
    }

    #[test]
    fn slots_registers_and_branches() {
        // slot0 = 0; r0 = 5; while (r0 != 0) { slot0 += r0; r0 -= 1 } — sums
        // 5..=1 into slot 0.
        let prog = one_function_program(
            vec![
                SInst::PushImm(5),
                SInst::PopReg(0),
                // header (index 2)
                SInst::PushReg(0),
                SInst::BranchZero { target: 13 },
                SInst::PushSlot(0),
                SInst::PushReg(0),
                SInst::Bin(BinOp::Add),
                SInst::PopSlot(0),
                SInst::PushReg(0),
                SInst::PushImm(1),
                SInst::Bin(BinOp::Sub),
                SInst::PopReg(0),
                SInst::Jump { target: 2 },
                SInst::PushSlot(0),
                SInst::Ret { has_value: true },
            ],
            vec![],
        );
        let outcome = StackMachine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 15);
    }

    #[test]
    fn sink_calls_record_arguments_in_push_order() {
        let prog = one_function_program(
            vec![
                SInst::PushImm(7),
                SInst::PushImm(9),
                SInst::Call {
                    target: CallTarget::Sink,
                    argc: 2,
                    has_ret: false,
                },
                SInst::Ret { has_value: false },
            ],
            vec![],
        );
        let outcome = StackMachine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.sink_calls, vec![vec![7, 9]]);
    }

    #[test]
    fn calls_deposit_arguments_in_registers_and_param_slots() {
        let callee = SFunction {
            name: "add".into(),
            code: vec![
                SInst::PushReg(0),
                SInst::PushSlot(1), // param slot of argument 1
                SInst::Bin(BinOp::Add),
                SInst::Ret { has_value: true },
            ],
            frame_slots: 2,
            param_base: 0,
            base_address: StackProgram::default_base_address(1),
        };
        let main = SFunction {
            name: "main".into(),
            code: vec![
                SInst::PushImm(40),
                SInst::PushImm(2),
                SInst::Call {
                    target: CallTarget::Function(1),
                    argc: 2,
                    has_ret: true,
                },
                SInst::Ret { has_value: true },
            ],
            frame_slots: 0,
            param_base: 0,
            base_address: StackProgram::default_base_address(0),
        };
        let prog = StackProgram {
            functions: vec![main, callee],
            globals: vec![],
            entry: 0,
        };
        let outcome = StackMachine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 42);
    }

    #[test]
    fn frame_pointer_addresses_slots_through_memory() {
        let prog = one_function_program(
            vec![
                SInst::PushImm(13),
                SInst::PopSlot(1),
                SInst::PushSlotAddr(1),
                SInst::LoadInd,
                SInst::Ret { has_value: true },
            ],
            vec![],
        );
        let mut machine = StackMachine::new(&prog);
        // FP holds the absolute address of slot 0; slot 1 is 8 bytes later.
        let fp = machine.read_reg(FP_REG);
        assert_eq!(machine.frame_base(), Some(fp));
        while !machine.is_finished() {
            machine.step().unwrap();
        }
        assert_eq!(machine.read_address(fp + 8), Some(13));
    }

    #[test]
    fn breakpoints_stop_before_execution() {
        let prog = one_function_program(
            vec![
                SInst::PushImm(1),
                SInst::PopReg(0),
                SInst::PushImm(2),
                SInst::PopReg(1),
                SInst::Ret { has_value: false },
            ],
            vec![],
        );
        let mut machine = StackMachine::new(&prog);
        let mut breaks = BreakpointSet::new();
        breaks.insert(TEXT_BASE + 2);
        match machine.run(&breaks) {
            StopReason::Breakpoint { address } => assert_eq!(address, TEXT_BASE + 2),
            other => panic!("expected breakpoint, got {other:?}"),
        }
        assert_eq!(machine.read_reg(0), 1);
        assert_eq!(machine.read_reg(1), 0, "not yet executed");
        breaks.remove(TEXT_BASE + 2);
        match machine.run(&breaks) {
            StopReason::Finished { return_value } => assert_eq!(return_value, 0),
            other => panic!("expected finish, got {other:?}"),
        }
    }

    #[test]
    fn underflow_fuel_and_bad_slots_are_reported() {
        let underflow = one_function_program(vec![SInst::Drop], vec![]);
        assert_eq!(
            StackMachine::new(&underflow)
                .run_to_completion()
                .unwrap_err(),
            MachineError::EvalStackUnderflow
        );
        let spin = one_function_program(vec![SInst::Jump { target: 0 }], vec![]);
        assert_eq!(
            StackMachine::with_fuel(&spin, 50)
                .run_to_completion()
                .unwrap_err(),
            MachineError::OutOfFuel
        );
        let bad_slot = one_function_program(vec![SInst::PushSlot(99)], vec![]);
        assert_eq!(
            StackMachine::new(&bad_slot)
                .run_to_completion()
                .unwrap_err(),
            MachineError::BadFrameSlot(99)
        );
        let oob = one_function_program(
            vec![
                SInst::PushImm(5),
                SInst::LoadGlobal {
                    global: 0,
                    indexed: true,
                },
            ],
            vec![int_global("g", 0)],
        );
        assert!(matches!(
            StackMachine::new(&oob).run_to_completion().unwrap_err(),
            MachineError::GlobalIndexOutOfRange { .. }
        ));
    }
}
