//! The register VM: the register ISA's half of the machine.
//!
//! A [`Machine`] is the execution core ([`Engine`]) running a
//! [`MachineProgram`]. This module supplies only what is specific to the
//! register ISA: the [`MInst`] match, how [`Operand`]s and [`MAddr`]s
//! resolve, and the calling convention — a callee gets a fresh bank of
//! [`NUM_REGS`] registers with its arguments in the first ones, and `Ret`
//! writes the return value into a caller register.

use crate::engine::{stack_address, width_to_ty, Engine, FunctionView, Isa, MachineError};
use crate::isa::{CallTarget, GlobalSlot, MAddr, MInst, MachineProgram, Operand, Reg, NUM_REGS};

/// The register virtual machine.
pub type Machine<'p> = Engine<'p, MachineProgram>;

/// The register ISA's part of a call frame.
#[derive(Debug)]
pub struct RegFrame {
    /// Register file.
    regs: [i64; NUM_REGS],
    /// Caller register that receives the return value.
    ret_reg: Option<Reg>,
}

impl Isa for MachineProgram {
    type Inst = MInst;
    type FrameState = RegFrame;

    fn globals(&self) -> &[GlobalSlot] {
        &self.globals
    }

    fn function(&self, index: u32) -> FunctionView<'_, MInst> {
        let f = &self.functions[index as usize];
        FunctionView {
            name: &f.name,
            code: &f.code,
            frame_slots: f.frame_slots,
            base_address: f.base_address,
        }
    }

    fn enter(machine: &mut Machine<'_>) {
        machine.call(machine.program.entry, &[], None);
    }

    fn execute<'p>(machine: &mut Machine<'p>, inst: &'p MInst) -> Result<(), MachineError> {
        machine.execute(inst)
    }

    fn read_reg(frame: &RegFrame, reg: u8) -> i64 {
        frame.regs[reg as usize]
    }
}

impl<'p> Machine<'p> {
    fn call(&mut self, function: u32, args: &[i64], ret_reg: Option<Reg>) {
        let mut regs = [0i64; NUM_REGS];
        regs[..args.len()].copy_from_slice(args);
        self.push_frame(function, RegFrame { regs, ret_reg });
    }

    fn execute(&mut self, inst: &'p MInst) -> Result<(), MachineError> {
        match inst {
            MInst::Nop => {}
            MInst::LoadImm { dst, value } => self.write_reg(*dst, *value),
            MInst::Mov { dst, src } => {
                let v = self.operand(*src);
                self.write_reg(*dst, v);
            }
            MInst::Bin { op, dst, lhs, rhs } => {
                let l = self.operand(*lhs);
                let r = self.operand(*rhs);
                self.write_reg(*dst, op.eval(l, r));
            }
            MInst::Un { op, dst, src } => {
                let v = self.operand(*src);
                self.write_reg(*dst, op.eval(v));
            }
            MInst::Trunc { dst, bits, signed } => {
                let ty = width_to_ty(*bits, *signed);
                let v = self.reg(*dst);
                self.write_reg(*dst, ty.wrap(v));
            }
            MInst::Load { dst, addr } => {
                let v = self.load(*addr)?;
                self.write_reg(*dst, v);
            }
            MInst::Store { addr, src } => {
                let v = self.operand(*src);
                self.store(*addr, v)?;
            }
            MInst::Lea { dst, addr } => {
                let a = self.effective_address(*addr)?;
                self.write_reg(*dst, a);
            }
            MInst::Jump { target } => self.branch(*target)?,
            MInst::BranchZero { cond, target } => {
                if self.reg(*cond) == 0 {
                    self.branch(*target)?;
                }
            }
            MInst::BranchNonZero { cond, target } => {
                if self.reg(*cond) != 0 {
                    self.branch(*target)?;
                }
            }
            MInst::Call { target, args, ret } => match target {
                CallTarget::Sink => {
                    // The recorded argument vector is the observable effect,
                    // so this allocation is the one the semantics require.
                    let values: Vec<i64> = args.iter().map(|a| self.operand(*a)).collect();
                    self.sink_calls.push(values);
                    if let Some(r) = ret {
                        self.write_reg(*r, 0);
                    }
                }
                CallTarget::Function(f) => {
                    // The callee receives at most NUM_REGS register
                    // arguments, so a fixed buffer replaces a per-call Vec;
                    // operand reads are pure, so not evaluating excess
                    // arguments is unobservable.
                    let count = args.len().min(NUM_REGS);
                    let mut values = [0i64; NUM_REGS];
                    for (slot, arg) in values.iter_mut().zip(args.iter()) {
                        *slot = self.operand(*arg);
                    }
                    self.call(*f, &values[..count], *ret);
                }
            },
            MInst::Ret { value } => {
                let v = value.map_or(0, |op| self.operand(op));
                if let Some((callee, caller)) = self.pop_frame(v) {
                    if let Some(r) = callee.ret_reg {
                        caller.regs[r as usize] = v;
                    }
                }
            }
        }
        Ok(())
    }

    fn operand(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
            Operand::Slot(slot) => {
                let frame = self.frames.last().expect("no frame");
                self.stack_mem
                    .get(frame.slot_base + slot as usize)
                    .copied()
                    .unwrap_or(0)
            }
        }
    }

    fn reg(&self, reg: Reg) -> i64 {
        self.frame().regs[reg as usize]
    }

    fn write_reg(&mut self, reg: Reg, value: i64) {
        self.frame_mut().regs[reg as usize] = value;
    }

    /// The element a `Global` operand names: the index register plus the
    /// constant displacement.
    fn element(&self, index: Option<Reg>, disp: u32) -> i64 {
        index.map_or(0, |r| self.reg(r)) + i64::from(disp)
    }

    fn effective_address(&self, addr: MAddr) -> Result<i64, MachineError> {
        match addr {
            MAddr::Global {
                global,
                index,
                disp,
            } => Ok(self.program.global_base_address(global) + self.element(index, disp) * 8),
            MAddr::Frame { slot } => Ok(stack_address(self.slot_index(slot)?)),
            MAddr::Indirect { reg } => Ok(self.reg(reg)),
        }
    }

    fn load(&self, addr: MAddr) -> Result<i64, MachineError> {
        match addr {
            MAddr::Global {
                global,
                index,
                disp,
            } => self.load_global(global, self.element(index, disp)),
            MAddr::Frame { slot } => Ok(self.stack_mem[self.slot_index(slot)?]),
            MAddr::Indirect { reg } => self.load_address(self.reg(reg)),
        }
    }

    fn store(&mut self, addr: MAddr, value: i64) -> Result<(), MachineError> {
        match addr {
            MAddr::Global {
                global,
                index,
                disp,
            } => self.store_global(global, self.element(index, disp), value),
            MAddr::Frame { slot } => {
                let index = self.slot_index(slot)?;
                self.stack_mem[index] = value;
                Ok(())
            }
            MAddr::Indirect { reg } => self.store_address(self.reg(reg), value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointSet;
    use crate::engine::StopReason;
    use crate::isa::{MFunction, TEXT_BASE};
    use crate::vm::Vm;
    use holes_minic::ast::BinOp;

    fn one_function_program(code: Vec<MInst>, globals: Vec<GlobalSlot>) -> MachineProgram {
        MachineProgram {
            functions: vec![MFunction {
                name: "main".into(),
                code,
                frame_slots: 2,
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
    fn arithmetic_and_return() {
        let prog = one_function_program(
            vec![
                MInst::LoadImm { dst: 0, value: 20 },
                MInst::LoadImm { dst: 1, value: 22 },
                MInst::Bin {
                    op: BinOp::Add,
                    dst: 2,
                    lhs: Operand::Reg(0),
                    rhs: Operand::Reg(1),
                },
                MInst::Ret {
                    value: Some(Operand::Reg(2)),
                },
            ],
            vec![],
        );
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 42);
        assert_eq!(outcome.steps, 4);
    }

    #[test]
    fn global_load_store_and_wrapping() {
        let prog = one_function_program(
            vec![
                MInst::LoadImm { dst: 0, value: 300 },
                MInst::Store {
                    addr: MAddr::Global {
                        global: 0,
                        index: None,
                        disp: 0,
                    },
                    src: Operand::Reg(0),
                },
                MInst::Load {
                    dst: 1,
                    addr: MAddr::Global {
                        global: 0,
                        index: None,
                        disp: 0,
                    },
                },
                MInst::Ret {
                    value: Some(Operand::Reg(1)),
                },
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
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 44);
        assert_eq!(outcome.final_globals, vec![vec![44]]);
    }

    #[test]
    fn loops_with_branches() {
        // sum = 0; for (i = 0; i < 5; i++) sum += i; return sum;
        let prog = one_function_program(
            vec![
                MInst::LoadImm { dst: 0, value: 0 }, // i
                MInst::LoadImm { dst: 1, value: 0 }, // sum
                // header (index 2)
                MInst::Bin {
                    op: BinOp::Lt,
                    dst: 2,
                    lhs: Operand::Reg(0),
                    rhs: Operand::Imm(5),
                },
                MInst::BranchZero { cond: 2, target: 7 },
                MInst::Bin {
                    op: BinOp::Add,
                    dst: 1,
                    lhs: Operand::Reg(1),
                    rhs: Operand::Reg(0),
                },
                MInst::Bin {
                    op: BinOp::Add,
                    dst: 0,
                    lhs: Operand::Reg(0),
                    rhs: Operand::Imm(1),
                },
                MInst::Jump { target: 2 },
                MInst::Ret {
                    value: Some(Operand::Reg(1)),
                },
            ],
            vec![],
        );
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 10);
    }

    #[test]
    fn sink_calls_are_recorded() {
        let prog = one_function_program(
            vec![
                MInst::LoadImm { dst: 0, value: 7 },
                MInst::Call {
                    target: CallTarget::Sink,
                    args: vec![Operand::Reg(0), Operand::Imm(9)],
                    ret: None,
                },
                MInst::Ret { value: None },
            ],
            vec![],
        );
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.sink_calls, vec![vec![7, 9]]);
    }

    #[test]
    fn function_calls_pass_arguments_and_return() {
        let callee = MFunction {
            name: "add1".into(),
            code: vec![
                MInst::Bin {
                    op: BinOp::Add,
                    dst: 0,
                    lhs: Operand::Reg(0),
                    rhs: Operand::Imm(1),
                },
                MInst::Ret {
                    value: Some(Operand::Reg(0)),
                },
            ],
            frame_slots: 0,
            base_address: MachineProgram::default_base_address(1),
        };
        let main = MFunction {
            name: "main".into(),
            code: vec![
                MInst::Call {
                    target: CallTarget::Function(1),
                    args: vec![Operand::Imm(41)],
                    ret: Some(3),
                },
                MInst::Ret {
                    value: Some(Operand::Reg(3)),
                },
            ],
            frame_slots: 0,
            base_address: MachineProgram::default_base_address(0),
        };
        let prog = MachineProgram {
            functions: vec![main, callee],
            globals: vec![],
            entry: 0,
        };
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 42);
    }

    #[test]
    fn breakpoints_stop_before_execution() {
        let prog = one_function_program(
            vec![
                MInst::LoadImm { dst: 0, value: 1 },
                MInst::LoadImm { dst: 1, value: 2 },
                MInst::Ret {
                    value: Some(Operand::Reg(1)),
                },
            ],
            vec![],
        );
        let mut machine = Machine::new(&prog);
        let mut breaks = BreakpointSet::new();
        breaks.insert(TEXT_BASE + 1);
        match machine.run(&breaks) {
            StopReason::Breakpoint { address } => assert_eq!(address, TEXT_BASE + 1),
            other => panic!("expected breakpoint, got {other:?}"),
        }
        assert_eq!(machine.read_reg(0), 1);
        assert_eq!(
            machine.read_reg(1),
            0,
            "instruction at breakpoint not yet executed"
        );
        // Resume without the breakpoint.
        breaks.remove(TEXT_BASE + 1);
        match machine.run(&breaks) {
            StopReason::Finished { return_value } => assert_eq!(return_value, 2),
            other => panic!("expected finish, got {other:?}"),
        }
    }

    #[test]
    fn lea_and_indirect_access() {
        let prog = one_function_program(
            vec![
                MInst::Lea {
                    dst: 0,
                    addr: MAddr::Global {
                        global: 0,
                        index: None,
                        disp: 0,
                    },
                },
                MInst::Store {
                    addr: MAddr::Indirect { reg: 0 },
                    src: Operand::Imm(55),
                },
                MInst::Load {
                    dst: 1,
                    addr: MAddr::Indirect { reg: 0 },
                },
                MInst::Ret {
                    value: Some(Operand::Reg(1)),
                },
            ],
            vec![int_global("g", 3)],
        );
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 55);
        assert_eq!(outcome.final_globals, vec![vec![55]]);
    }

    #[test]
    fn frame_slots_are_addressable() {
        let prog = one_function_program(
            vec![
                MInst::Store {
                    addr: MAddr::Frame { slot: 1 },
                    src: Operand::Imm(13),
                },
                MInst::Lea {
                    dst: 0,
                    addr: MAddr::Frame { slot: 1 },
                },
                MInst::Load {
                    dst: 2,
                    addr: MAddr::Indirect { reg: 0 },
                },
                MInst::Ret {
                    value: Some(Operand::Reg(2)),
                },
            ],
            vec![],
        );
        let outcome = Machine::new(&prog).run_to_completion().unwrap();
        assert_eq!(outcome.return_value, 13);
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let prog = one_function_program(vec![MInst::Jump { target: 0 }], vec![]);
        let err = Machine::with_fuel(&prog, 100)
            .run_to_completion()
            .unwrap_err();
        assert_eq!(err, MachineError::OutOfFuel);
    }

    #[test]
    fn out_of_bounds_global_index_is_reported() {
        let prog = one_function_program(
            vec![
                MInst::LoadImm { dst: 0, value: 5 },
                MInst::Load {
                    dst: 1,
                    addr: MAddr::Global {
                        global: 0,
                        index: Some(0),
                        disp: 0,
                    },
                },
                MInst::Ret { value: None },
            ],
            vec![int_global("g", 0)],
        );
        let err = Machine::new(&prog).run_to_completion().unwrap_err();
        assert!(matches!(err, MachineError::GlobalIndexOutOfRange { .. }));
    }

    /// Codegen never emits a store to a global id the program lacks; such a
    /// store faults like the matching load instead of panicking.
    #[test]
    fn store_to_a_missing_global_is_reported() {
        let prog = one_function_program(
            vec![MInst::Store {
                addr: MAddr::Global {
                    global: 1,
                    index: None,
                    disp: 0,
                },
                src: Operand::Imm(7),
            }],
            vec![int_global("g", 0)],
        );
        let err = Machine::new(&prog).run_to_completion().unwrap_err();
        assert_eq!(
            err,
            MachineError::GlobalIndexOutOfRange {
                global: 1,
                element: 0
            }
        );
    }
}
