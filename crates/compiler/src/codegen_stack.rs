//! Code generation for the stack VM backend.
//!
//! The stack backend lowers the *same* optimized IR as the register backend
//! ([`crate::codegen`]) but onto an operand-stack ISA with a small register
//! file: the first few parameters and temps get one of the stack VM's
//! general registers, and **everything else spills to a frame slot**. That
//! register pressure is the point — spilled values can only be described to
//! the debugger with the location classes the register ISA never needs:
//!
//! * spill slots → [`Location::FrameBase`] (stack-relative, the model of
//!   `DW_OP_fbreg`),
//! * address-taken locals → [`Location::Composite`] anchored to the frame
//!   pointer ([`FP_REG`]), the model of `DW_OP_breg<N> + DW_OP_deref`.
//!
//! Debug-information *structure* (DIEs, scopes, line-table policy) is
//! emitted by the shared emitter in [`crate::codegen`], so the two
//! backends produce structurally identical DWARF that differs only in
//! location payloads — which is what makes cross-backend differential
//! testing of debugger traces meaningful.
//!
//! The backend also hosts the spill-loss defect class
//! ([`crate::defects::stack_catalogue`]): when active, bindings that would
//! be described as `FrameBase` are emitted as empty locations instead —
//! the "variable went missing once spilled" holes the register backend
//! cannot express.

use std::collections::HashMap;

use holes_debuginfo::{DebugInfo, LineRow, Location};
use holes_machine::stack::{SFunction, SInst, StackProgram, FP_REG};
use holes_machine::CallTarget;
use holes_minic::ast::Program;

use crate::codegen::{emit_debug_info, lower_globals, push_binding, DebugArtifacts};
use crate::config::CompilerConfig;
use crate::defects::spill_loss_victims;
use crate::ir::{DbgLoc, DebugVarId, IrFunction, IrProgram, Op, ScopeId, SlotId, Temp, Value};

/// Registers available to the allocator (everything but the frame pointer).
const ALLOCATABLE: u8 = FP_REG;

/// Where a temp lives in the stack backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SAlloc {
    /// One of the small register file's general registers.
    Reg(u8),
    /// A frame slot (the spill path most temps take).
    Slot(u32),
}

/// Generate stack-VM code and debug information for a lowered (and possibly
/// optimized) program. Returns the defect identifiers of spill-loss defects
/// that actually dropped at least one binding (for the pipeline report).
pub fn codegen_stack(
    source: &Program,
    ir: &IrProgram,
    source_name: &str,
    config: &CompilerConfig,
) -> (StackProgram, DebugInfo, Vec<&'static str>) {
    let globals = lower_globals(source);
    let entry = source.main().0 as u32;

    let mut dropped_any = false;
    let (functions, artifacts): (Vec<SFunction>, Vec<DebugArtifacts>) = ir
        .functions
        .iter()
        .enumerate()
        .map(|(index, func)| {
            let emitter = StackEmitter::new(func, index, config);
            let (function, artifact, dropped) = emitter.emit();
            dropped_any |= dropped;
            (function, artifact)
        })
        .unzip();

    let program = StackProgram {
        functions,
        globals,
        entry,
    };
    let debug = emit_debug_info(source, ir, &artifacts, &program.globals, source_name);
    let applied = if dropped_any {
        crate::defects::stack_catalogue(config.personality)
            .iter()
            .filter(|d| d.active_in(config))
            .map(|d| d.id)
            .collect()
    } else {
        Vec::new()
    };
    (program, debug, applied)
}

struct StackEmitter<'f> {
    func: &'f IrFunction,
    alloc: HashMap<Temp, SAlloc>,
    /// Next free general register (registers are assigned permanently —
    /// the file is small enough that reuse would only complicate the
    /// location story).
    next_reg: u8,
    /// Next free spill slot.
    next_spill: u32,
    /// Variables whose spilled bindings lose their location (the active
    /// spill-loss defect's selection; empty when defects are disabled).
    victims: Vec<DebugVarId>,
    dropped: bool,
    code: Vec<SInst>,
    inst_scopes: Vec<ScopeId>,
    line_rows: Vec<LineRow>,
    bindings: Vec<(usize, DebugVarId, Location)>,
    label_positions: HashMap<u32, u32>,
    fixups: Vec<(usize, u32)>,
    base_address: u64,
    /// Whether the next emitted instruction starts an IR instruction (and
    /// so carries the line table's `is_stmt` flag).
    stmt_pending: bool,
}

impl<'f> StackEmitter<'f> {
    fn new(func: &'f IrFunction, index: usize, config: &CompilerConfig) -> StackEmitter<'f> {
        StackEmitter {
            func,
            alloc: HashMap::new(),
            next_reg: (func.param_temps.len() as u8).min(ALLOCATABLE),
            next_spill: func.slots + func.param_temps.len() as u32,
            victims: spill_loss_victims(config, func),
            dropped: false,
            code: Vec::new(),
            inst_scopes: Vec::new(),
            line_rows: Vec::new(),
            bindings: Vec::new(),
            label_positions: HashMap::new(),
            fixups: Vec::new(),
            base_address: StackProgram::default_base_address(index),
            stmt_pending: false,
        }
    }

    fn emit(mut self) -> (SFunction, DebugArtifacts, bool) {
        self.allocate();
        self.emit_code();
        self.apply_fixups();
        let function = SFunction {
            name: self.func.name.clone(),
            code: self.code,
            frame_slots: self.next_spill,
            param_base: self.func.slots,
            base_address: self.base_address,
        };
        let artifacts = DebugArtifacts {
            base_address: self.base_address,
            code_len: function.code.len(),
            line_rows: self.line_rows,
            inst_scopes: self.inst_scopes,
            bindings: self.bindings,
            frame_base: None,
        };
        (function, artifacts, self.dropped)
    }

    /// Assign every temp a permanent home: parameters claim the general
    /// registers first (in calling-convention order; excess parameters use
    /// their machine-deposited parameter slots), then the remaining
    /// registers go to the first-seen temps, and everything after that
    /// spills. First-seen order over the instruction stream keeps the
    /// assignment deterministic.
    fn allocate(&mut self) {
        for (i, param) in self.func.param_temps.iter().enumerate() {
            let home = if i < ALLOCATABLE as usize {
                SAlloc::Reg(i as u8)
            } else {
                SAlloc::Slot(self.func.slots + i as u32)
            };
            self.alloc.insert(*param, home);
        }
        let func = self.func;
        for inst in &func.insts {
            inst.op.visit_uses(|use_| {
                if let Value::Temp(t) = use_ {
                    self.ensure_home(t);
                }
            });
            if let Some(d) = inst.op.def() {
                self.ensure_home(d);
            }
            if let Op::DbgValue {
                loc: DbgLoc::Value(Value::Temp(t)),
                ..
            } = inst.op
            {
                self.ensure_home(t);
            }
        }
    }

    fn ensure_home(&mut self, temp: Temp) {
        if self.alloc.contains_key(&temp) {
            return;
        }
        let home = if self.next_reg < ALLOCATABLE {
            let reg = self.next_reg;
            self.next_reg += 1;
            SAlloc::Reg(reg)
        } else {
            let slot = self.next_spill;
            self.next_spill += 1;
            SAlloc::Slot(slot)
        };
        self.alloc.insert(temp, home);
    }

    fn push_inst(&mut self, inst: SInst, line: u32, scope: ScopeId) {
        let address = self.base_address + self.code.len() as u64;
        self.line_rows.push(LineRow {
            address,
            line,
            is_stmt: self.stmt_pending,
        });
        self.stmt_pending = false;
        self.code.push(inst);
        self.inst_scopes.push(scope);
    }

    /// Push a value onto the operand stack.
    fn push_value(&mut self, value: Value, line: u32, scope: ScopeId) {
        let inst = match value {
            Value::Const(c) => SInst::PushImm(c),
            Value::Temp(t) => match self.alloc.get(&t) {
                Some(SAlloc::Reg(r)) => SInst::PushReg(*r),
                Some(SAlloc::Slot(s)) => SInst::PushSlot(*s),
                None => SInst::PushImm(0),
            },
        };
        self.push_inst(inst, line, scope);
    }

    /// Pop the operand-stack top into a temp's home.
    fn pop_temp(&mut self, temp: Temp, line: u32, scope: ScopeId) {
        let inst = match self.alloc.get(&temp) {
            Some(SAlloc::Reg(r)) => SInst::PopReg(*r),
            Some(SAlloc::Slot(s)) => SInst::PopSlot(*s),
            None => SInst::Drop,
        };
        self.push_inst(inst, line, scope);
    }

    fn lower_dbg_loc(&mut self, var: DebugVarId, loc: DbgLoc) -> Location {
        match loc {
            DbgLoc::Value(Value::Const(c)) => Location::ConstValue(c),
            DbgLoc::Value(Value::Temp(t)) => match self.alloc.get(&t) {
                Some(SAlloc::Reg(r)) => Location::Register(*r),
                Some(SAlloc::Slot(slot)) => {
                    if self.victims.contains(&var) {
                        // The spill-loss defect: the reload tracker forgot
                        // where the value went.
                        self.dropped = true;
                        Location::Empty
                    } else {
                        Location::FrameBase {
                            offset: *slot as i32,
                        }
                    }
                }
                None => Location::Empty,
            },
            DbgLoc::Slot(SlotId(s)) => Location::Composite {
                reg: FP_REG,
                offset: i64::from(s) * 8,
                deref: true,
            },
            DbgLoc::Undef => Location::Empty,
        }
    }

    fn emit_code(&mut self) {
        for inst in &self.func.insts {
            let line = inst.line;
            let scope = inst.scope;
            self.stmt_pending = true;
            match &inst.op {
                Op::Label(l) => {
                    self.label_positions.insert(l.0, self.code.len() as u32);
                }
                Op::DbgValue { var, loc } => {
                    let location = self.lower_dbg_loc(*var, *loc);
                    push_binding(&mut self.bindings, self.code.len(), *var, location);
                }
                Op::Nop => {}
                Op::Copy { dst, src } => {
                    self.push_value(*src, line, scope);
                    self.pop_temp(*dst, line, scope);
                }
                Op::Un { dst, op, src } => {
                    self.push_value(*src, line, scope);
                    self.push_inst(SInst::Un(*op), line, scope);
                    self.pop_temp(*dst, line, scope);
                }
                Op::Bin { dst, op, lhs, rhs } => {
                    self.push_value(*lhs, line, scope);
                    self.push_value(*rhs, line, scope);
                    self.push_inst(SInst::Bin(*op), line, scope);
                    self.pop_temp(*dst, line, scope);
                }
                Op::Trunc {
                    dst,
                    src,
                    bits,
                    signed,
                } => {
                    self.push_value(*src, line, scope);
                    self.push_inst(
                        SInst::Trunc {
                            bits: *bits,
                            signed: *signed,
                        },
                        line,
                        scope,
                    );
                    self.pop_temp(*dst, line, scope);
                }
                Op::LoadGlobal {
                    dst, global, index, ..
                } => {
                    let indexed = self.push_index(*index, line, scope);
                    self.push_inst(
                        SInst::LoadGlobal {
                            global: global.0 as u32,
                            indexed,
                        },
                        line,
                        scope,
                    );
                    self.pop_temp(*dst, line, scope);
                }
                Op::StoreGlobal {
                    global,
                    index,
                    value,
                    ..
                } => {
                    let indexed = self.push_index(*index, line, scope);
                    self.push_value(*value, line, scope);
                    self.push_inst(
                        SInst::StoreGlobal {
                            global: global.0 as u32,
                            indexed,
                        },
                        line,
                        scope,
                    );
                }
                Op::LoadSlot { dst, slot } => {
                    self.push_inst(SInst::PushSlot(slot.0), line, scope);
                    self.pop_temp(*dst, line, scope);
                }
                Op::StoreSlot { slot, value } => {
                    self.push_value(*value, line, scope);
                    self.push_inst(SInst::PopSlot(slot.0), line, scope);
                }
                Op::LoadPtr { dst, addr } => {
                    self.push_value(*addr, line, scope);
                    self.push_inst(SInst::LoadInd, line, scope);
                    self.pop_temp(*dst, line, scope);
                }
                Op::StorePtr { addr, value } => {
                    self.push_value(*addr, line, scope);
                    self.push_value(*value, line, scope);
                    self.push_inst(SInst::StoreInd, line, scope);
                }
                Op::AddrGlobal { dst, global } => {
                    self.push_inst(
                        SInst::PushGlobalAddr {
                            global: global.0 as u32,
                        },
                        line,
                        scope,
                    );
                    self.pop_temp(*dst, line, scope);
                }
                Op::AddrSlot { dst, slot } => {
                    self.push_inst(SInst::PushSlotAddr(slot.0), line, scope);
                    self.pop_temp(*dst, line, scope);
                }
                Op::Jump(l) => {
                    self.fixups.push((self.code.len(), l.0));
                    self.push_inst(SInst::Jump { target: 0 }, line, scope);
                }
                Op::BranchZero { cond, target } => {
                    self.push_value(*cond, line, scope);
                    self.fixups.push((self.code.len(), target.0));
                    self.push_inst(SInst::BranchZero { target: 0 }, line, scope);
                }
                Op::BranchNonZero { cond, target } => {
                    self.push_value(*cond, line, scope);
                    self.fixups.push((self.code.len(), target.0));
                    self.push_inst(SInst::BranchNonZero { target: 0 }, line, scope);
                }
                Op::Call { dst, callee, args } => {
                    for arg in args {
                        self.push_value(*arg, line, scope);
                    }
                    self.push_inst(
                        SInst::Call {
                            target: CallTarget::Function(callee.0 as u32),
                            argc: args.len() as u32,
                            has_ret: dst.is_some(),
                        },
                        line,
                        scope,
                    );
                    if let Some(dst) = dst {
                        self.pop_temp(*dst, line, scope);
                    }
                }
                Op::CallSink { args } => {
                    for arg in args {
                        self.push_value(*arg, line, scope);
                    }
                    self.push_inst(
                        SInst::Call {
                            target: CallTarget::Sink,
                            argc: args.len() as u32,
                            has_ret: false,
                        },
                        line,
                        scope,
                    );
                }
                Op::Ret { value } => {
                    if let Some(v) = value {
                        self.push_value(*v, line, scope);
                    }
                    self.push_inst(
                        SInst::Ret {
                            has_value: value.is_some(),
                        },
                        line,
                        scope,
                    );
                }
            }
        }
    }

    /// Push an optional global element index; returns whether the access is
    /// indexed (constant indices are pushed as immediates, keeping the ISA
    /// to one load/store shape).
    fn push_index(&mut self, index: Option<Value>, line: u32, scope: ScopeId) -> bool {
        match index {
            None => false,
            Some(value) => {
                self.push_value(value, line, scope);
                true
            }
        }
    }

    fn apply_fixups(&mut self) {
        for (inst_index, label) in std::mem::take(&mut self.fixups) {
            let target = self
                .label_positions
                .get(&label)
                .copied()
                .unwrap_or(self.code.len() as u32);
            match &mut self.code[inst_index] {
                SInst::Jump { target: t }
                | SInst::BranchZero { target: t }
                | SInst::BranchNonZero { target: t } => *t = target,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, OptLevel, Personality};
    use crate::lower::lower_program;
    use holes_machine::StackMachine;
    use holes_minic::interp::Interpreter;
    use holes_progen::ProgramGenerator;

    fn stack_config() -> CompilerConfig {
        CompilerConfig::new(Personality::Ccg, OptLevel::O0).with_backend(BackendKind::Stack)
    }

    #[test]
    fn unoptimized_stack_codegen_matches_the_interpreter() {
        for seed in 0..10u64 {
            let generated = ProgramGenerator::from_seed(seed).generate();
            let reference = Interpreter::new(&generated.program).run().expect("runs");
            let ir = lower_program(&generated.program);
            let (program, _, applied) =
                codegen_stack(&generated.program, &ir, "t.c", &stack_config());
            assert!(applied.is_empty(), "O0 must not apply spill defects");
            let outcome = StackMachine::new(&program)
                .run_to_completion()
                .unwrap_or_else(|e| panic!("seed {seed}: stack execution failed: {e}"));
            assert!(
                outcome.matches(&reference),
                "seed {seed}: diverges\n{outcome:?}\n{reference:?}"
            );
        }
    }

    #[test]
    fn spilled_bindings_use_frame_base_locations() {
        // A program with more live locals than the stack VM has registers
        // must describe at least one variable frame-base-relative.
        let generated = ProgramGenerator::from_seed(3).generate();
        let ir = lower_program(&generated.program);
        let config = stack_config().without_defects();
        let (_, debug, _) = codegen_stack(&generated.program, &ir, "t.c", &config);
        let mut frame_base = 0usize;
        let mut composite = 0usize;
        for (_, die) in debug.iter() {
            if let Some(holes_debuginfo::AttrValue::LocList(entries)) =
                die.attr(holes_debuginfo::Attr::Location)
            {
                for entry in entries {
                    match entry.location {
                        Location::FrameBase { .. } => frame_base += 1,
                        Location::Composite { .. } => composite += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(
            frame_base > 0,
            "no frame-base locations emitted — the register file is too large"
        );
        let _ = composite; // slot-homed locals are program-dependent
    }
}
