//! Scalar optimization passes: constant folding/propagation, copy
//! propagation, dead code elimination and dead store elimination.
//!
//! Each pass performs a modest but *semantics-preserving* transformation and
//! maintains debug bindings the way a correct compiler would: when a temp
//! referenced by a `DbgValue` becomes a known constant the binding is
//! rewritten to that constant, and when an instruction that defines a
//! binding's temp is deleted the binding is salvaged (rewritten to a constant
//! if one is known) or explicitly marked undefined.

use std::collections::HashMap;

use holes_minic::ast::BinOp;

use crate::ir::{DbgLoc, IrFunction, Op, Temp, Value};

/// Per-block constant folding and propagation.
pub fn constant_fold(func: &mut IrFunction) {
    let mut known: HashMap<Temp, i64> = HashMap::new();
    for index in 0..func.insts.len() {
        // Block boundaries invalidate purely local facts.
        if matches!(func.insts[index].op, Op::Label(_)) {
            known.clear();
            continue;
        }
        // Substitute known constants into operands.
        func.insts[index].op.visit_uses_mut(|v| {
            if let Value::Temp(t) = v {
                if let Some(c) = known.get(t) {
                    *v = Value::Const(*c);
                }
            }
        });
        // Fold the instruction itself.
        let folded = fold_op(&func.insts[index].op);
        if let Some(new_op) = folded {
            func.insts[index].op = new_op;
        }
        // Update the known-constant map.
        let op = &func.insts[index].op;
        if let Some(dst) = op.def() {
            match constant_result(op) {
                Some(c) => {
                    known.insert(dst, c);
                }
                None => {
                    known.remove(&dst);
                }
            }
        }
        // Maintain debug bindings: a binding to a temp that is now known
        // constant becomes a constant binding (this is what e.g. gcc's CCP
        // does when it inserts debug statements for propagated constants).
        if let Op::DbgValue { loc, .. } = &mut func.insts[index].op {
            if let DbgLoc::Value(Value::Temp(t)) = loc {
                if let Some(c) = known.get(t) {
                    *loc = DbgLoc::Value(Value::Const(*c));
                }
            }
        }
    }
}

/// The constant produced by an instruction, if statically known.
fn constant_result(op: &Op) -> Option<i64> {
    match op {
        Op::Copy {
            src: Value::Const(c),
            ..
        } => Some(*c),
        Op::Bin {
            op,
            lhs: Value::Const(a),
            rhs: Value::Const(b),
            ..
        } => Some(op.eval(*a, *b)),
        Op::Un {
            op,
            src: Value::Const(a),
            ..
        } => Some(op.eval(*a)),
        Op::Trunc {
            src: Value::Const(a),
            bits,
            signed,
            ..
        } => Some(wrap_const(*a, *bits, *signed)),
        _ => None,
    }
}

fn wrap_const(value: i64, bits: u32, signed: bool) -> i64 {
    use holes_minic::ast::Ty;
    let ty = match (bits, signed) {
        (8, true) => Ty::I8,
        (16, true) => Ty::I16,
        (32, true) => Ty::I32,
        (8, false) => Ty::U8,
        (16, false) => Ty::U16,
        (32, false) => Ty::U32,
        (64, false) => Ty::U64,
        _ => Ty::I64,
    };
    ty.wrap(value)
}

/// Algebraic simplification of a single instruction.
fn fold_op(op: &Op) -> Option<Op> {
    match op {
        Op::Bin { dst, op, lhs, rhs } => {
            if let (Value::Const(a), Value::Const(b)) = (lhs, rhs) {
                return Some(Op::Copy {
                    dst: *dst,
                    src: Value::Const(op.eval(*a, *b)),
                });
            }
            let zero = |v: &Value| matches!(v, Value::Const(0));
            let one = |v: &Value| matches!(v, Value::Const(1));
            match op {
                BinOp::Mul | BinOp::And if zero(lhs) || zero(rhs) => Some(Op::Copy {
                    dst: *dst,
                    src: Value::Const(0),
                }),
                BinOp::Mul if one(lhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *rhs,
                }),
                BinOp::Mul if one(rhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *lhs,
                }),
                BinOp::Add | BinOp::Or | BinOp::Xor if zero(lhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *rhs,
                }),
                BinOp::Add | BinOp::Or | BinOp::Xor | BinOp::Sub if zero(rhs) => Some(Op::Copy {
                    dst: *dst,
                    src: *lhs,
                }),
                _ => None,
            }
        }
        Op::Un {
            dst,
            op,
            src: Value::Const(a),
        } => Some(Op::Copy {
            dst: *dst,
            src: Value::Const(op.eval(*a)),
        }),
        Op::Trunc {
            dst,
            src: Value::Const(a),
            bits,
            signed,
        } => Some(Op::Copy {
            dst: *dst,
            src: Value::Const(wrap_const(*a, *bits, *signed)),
        }),
        _ => None,
    }
}

/// Per-block copy propagation: uses of a temp defined by a copy are replaced
/// by the copy's source, and debug bindings are rewritten the same way so
/// that later dead-code elimination does not orphan them.
pub fn copy_propagate(func: &mut IrFunction) {
    let mut copies: HashMap<Temp, Value> = HashMap::new();
    for index in 0..func.insts.len() {
        if matches!(func.insts[index].op, Op::Label(_)) {
            copies.clear();
            continue;
        }
        // No copy's source is itself a copied temp (sources are substituted
        // before they are recorded), so one lookup per operand suffices.
        func.insts[index].op.visit_uses_mut(|v| {
            if let Value::Temp(t) = v {
                if let Some(source) = copies.get(t) {
                    *v = *source;
                }
            }
        });
        // Rewrite debug bindings through the copy map as well (the correct,
        // availability-preserving behaviour).
        if let Op::DbgValue { loc, .. } = &mut func.insts[index].op {
            if let DbgLoc::Value(Value::Temp(t)) = loc {
                if let Some(v) = copies.get(t) {
                    *loc = DbgLoc::Value(*v);
                }
            }
        }
        let op = &func.insts[index].op;
        if let Some(dst) = op.def() {
            // The destination is redefined: forget copies involving it.
            copies.remove(&dst);
            copies.retain(|_, v| *v != Value::Temp(dst));
            if let Op::Copy { dst, src } = op {
                if *src != Value::Temp(*dst) {
                    copies.insert(*dst, *src);
                }
            }
        }
    }
}

/// Dead code elimination with debug-binding salvaging.
pub fn dead_code_eliminate(func: &mut IrFunction) {
    // Dense per-temp tables (every temp is below `next_temp`). A removed
    // temp has no definition left and every binding to it is salvaged in
    // the round that removed it, so `removed` never needs resetting.
    let temps = func.next_temp as usize;
    let mut used = vec![false; temps];
    let mut removed: Vec<Option<Option<i64>>> = vec![None; temps];
    loop {
        used.fill(false);
        for inst in &func.insts {
            inst.op.visit_uses(|value| {
                if let Value::Temp(t) = value {
                    used[t.0 as usize] = true;
                }
            });
        }
        // Temps whose defining instruction is a removable pure computation
        // and that no real instruction uses.
        let mut any_removed = false;
        for inst in &mut func.insts {
            if let Some(dst) = inst.op.def() {
                if inst.op.is_removable_def() && !used[dst.0 as usize] {
                    removed[dst.0 as usize] = Some(constant_result(&inst.op));
                    inst.op = Op::Nop;
                    any_removed = true;
                }
            }
        }
        if !any_removed {
            break;
        }
        // Salvage debug bindings that referenced removed temps.
        for inst in &mut func.insts {
            if let Op::DbgValue { loc, .. } = &mut inst.op {
                if let DbgLoc::Value(Value::Temp(t)) = loc {
                    if let Some(salvage) = removed[t.0 as usize] {
                        *loc = match salvage {
                            Some(c) => DbgLoc::Value(Value::Const(c)),
                            None => DbgLoc::Undef,
                        };
                    }
                }
            }
        }
        func.remove_nops();
    }
}

/// Dead store elimination for frame slots: a store to a slot whose value can
/// never be observed afterwards (no load the store can reach, and the slot's
/// address never escapes) is removed.
///
/// A load can follow a store in program order, or precede it inside a loop
/// that encloses the store and so run again after it through the back edge:
/// every position from `earliest_reachable` on counts as "afterwards".
pub fn dead_store_eliminate(func: &mut IrFunction) {
    let slots = func.slots as usize;
    let mut escaped = vec![false; slots];
    let mut last_load: Vec<Option<usize>> = vec![None; slots];
    for (index, inst) in func.insts.iter().enumerate() {
        match inst.op {
            Op::AddrSlot { slot, .. } => escaped[slot.0 as usize] = true,
            Op::LoadSlot { slot, .. } => last_load[slot.0 as usize] = Some(index),
            _ => {}
        }
    }
    let reach = earliest_reachable(func);
    for (index, inst) in func.insts.iter_mut().enumerate() {
        if let Op::StoreSlot { slot, .. } = inst.op {
            let slot = slot.0 as usize;
            let read_afterwards = last_load[slot].is_some_and(|load| load >= reach[index]);
            if !escaped[slot] && !read_afterwards {
                inst.op = Op::Nop;
            }
        }
    }
    func.remove_nops();
}

/// For each instruction `i`, the lowest position control may reach after
/// `i` runs: `i + 1`, unless a back edge at or after that position jumps to
/// an earlier loop header, and so on from that header.
fn earliest_reachable(func: &IrFunction) -> Vec<usize> {
    let n = func.insts.len();
    let mut label_at = vec![usize::MAX; func.next_temp as usize];
    for (index, inst) in func.insts.iter().enumerate() {
        if let Op::Label(l) = inst.op {
            label_at[l.0 as usize] = label_at[l.0 as usize].min(index);
        }
    }
    // `lowest[p]`: the lowest target of a back edge branching from `p` or
    // later (`usize::MAX` when there is none).
    let mut lowest = vec![usize::MAX; n + 1];
    for (index, inst) in func.insts.iter().enumerate().rev() {
        let back_edge = match inst.op {
            Op::Jump(l)
            | Op::BranchZero { target: l, .. }
            | Op::BranchNonZero { target: l, .. } => {
                Some(label_at[l.0 as usize]).filter(|&target| target < index)
            }
            _ => None,
        };
        lowest[index] = lowest[index + 1].min(back_edge.unwrap_or(usize::MAX));
    }
    (0..n)
        .map(|index| {
            let mut from = index + 1;
            while lowest[from] < from {
                from = lowest[from];
            }
            from
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DebugVar, Inst, ScopeId, ScopeKind, SlotId};
    use holes_minic::ast::{FunctionId, GlobalId, UnOp};

    fn empty_function() -> IrFunction {
        IrFunction {
            name: "f".into(),
            source: FunctionId(0),
            vars: Vec::new(),
            scopes: vec![ScopeKind::Function],
            slots: 0,
            next_temp: 100,
            insts: Vec::new(),
            loops: Vec::new(),
            param_temps: Vec::new(),
            decl_line: 1,
            pure_const: None,
        }
    }

    #[test]
    fn constant_folding_folds_chains_and_rewrites_bindings() {
        let mut f = empty_function();
        let var = f.add_var(DebugVar {
            name: "x".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 2,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(0),
                    src: Value::Const(4),
                },
                2,
            ),
            Inst::new(
                Op::Bin {
                    dst: Temp(1),
                    op: BinOp::Add,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(3),
                },
                2,
            ),
            Inst::new(
                Op::Copy {
                    dst: Temp(2),
                    src: Value::Temp(Temp(1)),
                },
                2,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Value(Value::Temp(Temp(2))),
                },
                2,
            ),
            Inst::new(
                Op::StoreGlobal {
                    global: GlobalId(0),
                    index: None,
                    value: Value::Temp(Temp(2)),
                    volatile: false,
                },
                3,
            ),
            Inst::new(Op::Ret { value: None }, 4),
        ];
        constant_fold(&mut f);
        assert!(matches!(
            f.insts[3].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Const(7)),
                ..
            }
        ));
        assert!(matches!(
            f.insts[4].op,
            Op::StoreGlobal {
                value: Value::Const(7),
                ..
            }
        ));
    }

    #[test]
    fn algebraic_identities_are_simplified() {
        let mut f = empty_function();
        f.insts = vec![
            Inst::new(
                Op::Bin {
                    dst: Temp(1),
                    op: BinOp::Mul,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(0),
                },
                1,
            ),
            Inst::new(
                Op::Bin {
                    dst: Temp(2),
                    op: BinOp::Add,
                    lhs: Value::Temp(Temp(0)),
                    rhs: Value::Const(0),
                },
                1,
            ),
            Inst::new(
                Op::Un {
                    dst: Temp(3),
                    op: UnOp::Neg,
                    src: Value::Const(5),
                },
                1,
            ),
        ];
        constant_fold(&mut f);
        assert!(matches!(
            f.insts[0].op,
            Op::Copy {
                src: Value::Const(0),
                ..
            }
        ));
        assert!(matches!(
            f.insts[1].op,
            Op::Copy {
                src: Value::Temp(Temp(0)),
                ..
            }
        ));
        assert!(matches!(
            f.insts[2].op,
            Op::Copy {
                src: Value::Const(-5),
                ..
            }
        ));
    }

    #[test]
    fn copy_propagation_rewrites_uses_and_bindings() {
        let mut f = empty_function();
        let var = f.add_var(DebugVar {
            name: "x".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 2,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(1),
                    src: Value::Temp(Temp(0)),
                },
                1,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Value(Value::Temp(Temp(1))),
                },
                1,
            ),
            Inst::new(
                Op::StoreGlobal {
                    global: GlobalId(0),
                    index: None,
                    value: Value::Temp(Temp(1)),
                    volatile: false,
                },
                2,
            ),
        ];
        copy_propagate(&mut f);
        assert!(matches!(
            f.insts[1].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Temp(Temp(0))),
                ..
            }
        ));
        assert!(matches!(
            f.insts[2].op,
            Op::StoreGlobal {
                value: Value::Temp(Temp(0)),
                ..
            }
        ));
    }

    #[test]
    fn dce_removes_unused_defs_and_salvages_bindings() {
        let mut f = empty_function();
        let var = f.add_var(DebugVar {
            name: "dead".into(),
            scope: ScopeId(0),
            is_param: false,
            decl_line: 2,
            suppress_die: false,
        });
        f.insts = vec![
            Inst::new(
                Op::Copy {
                    dst: Temp(0),
                    src: Value::Const(9),
                },
                2,
            ),
            Inst::new(
                Op::DbgValue {
                    var,
                    loc: DbgLoc::Value(Value::Temp(Temp(0))),
                },
                2,
            ),
            Inst::new(Op::Ret { value: None }, 3),
        ];
        dead_code_eliminate(&mut f);
        // The dead copy is gone but the binding was salvaged to the constant.
        assert_eq!(f.insts.len(), 2);
        assert!(matches!(
            f.insts[0].op,
            Op::DbgValue {
                loc: DbgLoc::Value(Value::Const(9)),
                ..
            }
        ));
    }

    #[test]
    fn dce_keeps_volatile_loads_and_side_effects() {
        let mut f = empty_function();
        f.insts = vec![
            Inst::new(
                Op::LoadGlobal {
                    dst: Temp(0),
                    global: GlobalId(0),
                    index: None,
                    volatile: true,
                },
                1,
            ),
            Inst::new(
                Op::LoadGlobal {
                    dst: Temp(1),
                    global: GlobalId(1),
                    index: None,
                    volatile: false,
                },
                1,
            ),
            Inst::new(Op::CallSink { args: vec![] }, 2),
            Inst::new(Op::Ret { value: None }, 3),
        ];
        dead_code_eliminate(&mut f);
        assert!(f
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::LoadGlobal { volatile: true, .. })));
        assert!(!f.insts.iter().any(|i| matches!(
            i.op,
            Op::LoadGlobal {
                volatile: false,
                ..
            }
        )));
    }

    #[test]
    fn dse_removes_unobservable_slot_stores() {
        let mut f = empty_function();
        f.slots = 2;
        f.insts = vec![
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(0),
                    value: Value::Const(1),
                },
                1,
            ),
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(1),
                    value: Value::Const(2),
                },
                2,
            ),
            Inst::new(
                Op::LoadSlot {
                    dst: Temp(0),
                    slot: SlotId(1),
                },
                3,
            ),
            Inst::new(
                Op::Ret {
                    value: Some(Value::Temp(Temp(0))),
                },
                4,
            ),
        ];
        dead_store_eliminate(&mut f);
        assert!(!f.insts.iter().any(|i| matches!(
            i.op,
            Op::StoreSlot {
                slot: SlotId(0),
                ..
            }
        )));
        assert!(f.insts.iter().any(|i| matches!(
            i.op,
            Op::StoreSlot {
                slot: SlotId(1),
                ..
            }
        )));
    }

    #[test]
    fn dse_keeps_stores_a_later_loop_iteration_reads() {
        // int x = 0; int *p = &x;
        // for (i = 0; i < 3; i = i + 1) { sink(x); x = x + 1; }
        // return 0;
        // Once the unused `&x` is gone the slot no longer escapes, but the
        // store at the end of the body is read by the next iteration's load.
        use crate::{compile, CompilerConfig, OptLevel, Personality};
        use holes_minic::ast::{Expr, LValue, Stmt, Ty, VarRef};
        use holes_minic::build::ProgramBuilder;
        use holes_minic::interp::Interpreter;

        let mut b = ProgramBuilder::new();
        let main = b.function("main", Ty::I32);
        let x = b.local(main, "x", Ty::I32);
        let p = b.local(main, "p", Ty::Ptr(&Ty::I32));
        let i = b.local(main, "i", Ty::I32);
        b.push(main, Stmt::decl(x, Some(Expr::lit(0))));
        b.push(main, Stmt::decl(p, Some(Expr::addr_of(VarRef::Local(x)))));
        b.push(main, Stmt::decl(i, None));
        b.push(
            main,
            Stmt::for_loop(
                Some(Stmt::assign(LValue::local(i), Expr::lit(0))),
                Some(Expr::binary(BinOp::Lt, Expr::local(i), Expr::lit(3))),
                Some(Stmt::assign(
                    LValue::local(i),
                    Expr::binary(BinOp::Add, Expr::local(i), Expr::lit(1)),
                )),
                vec![
                    Stmt::call_opaque(vec![Expr::local(x)]),
                    Stmt::assign(
                        LValue::local(x),
                        Expr::binary(BinOp::Add, Expr::local(x), Expr::lit(1)),
                    ),
                ],
            ),
        );
        b.push(main, Stmt::ret(Some(Expr::lit(0))));
        let mut program = b.finish();
        program.assign_lines();

        let reference = Interpreter::new(&program).run().expect("reference runs");
        assert_eq!(reference.sink_calls, vec![vec![0], vec![1], vec![2]]);
        for personality in [Personality::Ccg, Personality::Lcc] {
            for &level in [OptLevel::O0].iter().chain(personality.levels()) {
                let exe = compile(&program, &CompilerConfig::new(personality, level));
                let outcome = exe.run().expect("compiled program runs");
                assert_eq!(
                    outcome.sink_calls, reference.sink_calls,
                    "{personality} {level}: a store read by a later iteration was removed"
                );
            }
        }
    }

    #[test]
    fn dse_respects_escaped_slots() {
        let mut f = empty_function();
        f.slots = 1;
        f.insts = vec![
            Inst::new(
                Op::AddrSlot {
                    dst: Temp(0),
                    slot: SlotId(0),
                },
                1,
            ),
            Inst::new(
                Op::CallSink {
                    args: vec![Value::Temp(Temp(0))],
                },
                1,
            ),
            Inst::new(
                Op::StoreSlot {
                    slot: SlotId(0),
                    value: Value::Const(5),
                },
                2,
            ),
            Inst::new(Op::Ret { value: None }, 3),
        ];
        dead_store_eliminate(&mut f);
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::StoreSlot { .. })));
    }
}
