//! JSON codecs for the artifacts the on-disk store spills: whole
//! [`Executable`]s, [`DebugTrace`]s, violation sets, and triage answer
//! sets (plus the per-site triage answers earlier builds wrote).
//!
//! Encoding is deterministic (a pure function of the value, like everything
//! built on `holes_core::json`), and decoding is *total* over arbitrary
//! JSON: every malformed shape comes back as an `Err` with a short reason,
//! never a panic, so the store can treat a corrupted cache file as a miss.
//! Sum types use compact tagged arrays (`["r", 3]` for a register operand)
//! to keep executables — the largest artifact — small on disk.

use std::sync::Arc;

use holes_compiler::{CompilerConfig, Executable, OptLevel, Personality, PipelineReport};
use holes_core::json::{Json, JsonEvent};
use holes_core::Violation;
use holes_debugger::{Availability, DebugTrace, LineStop, VarView};
use holes_debuginfo::{
    Attr, AttrValue, DebugInfo, Die, DieId, DieTag, LineRow, LineTable, LocListEntry, Location,
};
use holes_machine::stack::{SFunction, SInst, StackProgram};
use holes_machine::{
    CallTarget, GlobalSlot, MAddr, MFunction, MInst, MachineCode, MachineProgram, Operand,
};
use holes_minic::ast::{BinOp, FunctionId, UnOp};

use super::gate::Payload;
use crate::triage::{Site, TriageAnswers, TriageMethod, TriageOutcome};

/// Decode failure: a short, human-readable reason (surfaced only in store
/// diagnostics; the caller recomputes the artifact either way).
pub(super) type DecodeError = String;

fn err<T>(what: &str) -> Result<T, DecodeError> {
    Err(what.to_owned())
}

// ------------------------------------------------------------- primitives

fn get<'a>(json: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    json.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, DecodeError> {
    get(json, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn u64_field(json: &Json, key: &str) -> Result<u64, DecodeError> {
    get(json, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not an unsigned integer"))
}

fn u32_field(json: &Json, key: &str) -> Result<u32, DecodeError> {
    u64_field(json, key)?
        .try_into()
        .map_err(|_| format!("`{key}` is out of u32 range"))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, DecodeError> {
    get(json, key)?
        .as_usize()
        .ok_or_else(|| format!("`{key}` is not a usize"))
}

fn bool_field(json: &Json, key: &str) -> Result<bool, DecodeError> {
    get(json, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` is not a boolean"))
}

fn arr_field<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], DecodeError> {
    get(json, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))
}

fn as_u64(json: &Json, what: &str) -> Result<u64, DecodeError> {
    json.as_u64()
        .ok_or_else(|| format!("{what} is not an unsigned integer"))
}

fn as_i64(json: &Json, what: &str) -> Result<i64, DecodeError> {
    json.as_i64()
        .ok_or_else(|| format!("{what} is not an integer"))
}

fn as_reg(json: &Json, what: &str) -> Result<u8, DecodeError> {
    as_u64(json, what)?
        .try_into()
        .map_err(|_| format!("{what} is out of register range"))
}

fn tagged<'a>(json: &'a Json, what: &str) -> Result<(&'a str, &'a [Json]), DecodeError> {
    let items = json
        .as_arr()
        .ok_or_else(|| format!("{what} is not a tagged array"))?;
    let tag = items
        .first()
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what} has no tag"))?;
    Ok((tag, &items[1..]))
}

// --------------------------------------------------------------- operands

fn operand_to_json(op: Operand) -> Json {
    match op {
        Operand::Reg(r) => Json::Arr(vec![Json::str("r"), Json::from_u64(r.into())]),
        Operand::Imm(v) => Json::Arr(vec![Json::str("i"), Json::from_i64(v)]),
        Operand::Slot(s) => Json::Arr(vec![Json::str("s"), Json::from_u64(s.into())]),
    }
}

fn operand_from_json(json: &Json) -> Result<Operand, DecodeError> {
    match tagged(json, "operand")? {
        ("r", [reg]) => Ok(Operand::Reg(as_reg(reg, "operand register")?)),
        ("i", [imm]) => Ok(Operand::Imm(as_i64(imm, "operand immediate")?)),
        ("s", [slot]) => Ok(Operand::Slot(
            as_u64(slot, "operand slot")?
                .try_into()
                .map_err(|_| "operand slot out of range".to_owned())?,
        )),
        _ => err("unknown operand shape"),
    }
}

fn maddr_to_json(addr: MAddr) -> Json {
    match addr {
        MAddr::Global {
            global,
            index,
            disp,
        } => Json::Arr(vec![
            Json::str("g"),
            Json::from_u64(global.into()),
            index.map_or(Json::Null, |r| Json::from_u64(r.into())),
            Json::from_u64(disp.into()),
        ]),
        MAddr::Frame { slot } => Json::Arr(vec![Json::str("f"), Json::from_u64(slot.into())]),
        MAddr::Indirect { reg } => Json::Arr(vec![Json::str("p"), Json::from_u64(reg.into())]),
    }
}

fn maddr_from_json(json: &Json) -> Result<MAddr, DecodeError> {
    match tagged(json, "address")? {
        ("g", [global, index, disp]) => Ok(MAddr::Global {
            global: as_u64(global, "global index")? as u32,
            index: match index {
                Json::Null => None,
                other => Some(as_reg(other, "global index register")?),
            },
            disp: as_u64(disp, "global displacement")? as u32,
        }),
        ("f", [slot]) => Ok(MAddr::Frame {
            slot: as_u64(slot, "frame slot")? as u32,
        }),
        ("p", [reg]) => Ok(MAddr::Indirect {
            reg: as_reg(reg, "indirect register")?,
        }),
        _ => err("unknown address shape"),
    }
}

fn bin_op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
    }
}

fn bin_op_from_name(name: &str) -> Result<BinOp, DecodeError> {
    BinOp::ALL
        .into_iter()
        .find(|&op| bin_op_name(op) == name)
        .ok_or_else(|| format!("unknown binary operator `{name}`"))
}

fn un_op_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Not => "not",
        UnOp::LogicalNot => "lnot",
    }
}

fn un_op_from_name(name: &str) -> Result<UnOp, DecodeError> {
    [UnOp::Neg, UnOp::Not, UnOp::LogicalNot]
        .into_iter()
        .find(|&op| un_op_name(op) == name)
        .ok_or_else(|| format!("unknown unary operator `{name}`"))
}

// ----------------------------------------------------------- instructions

fn inst_to_json(inst: &MInst) -> Json {
    let reg = |r: u8| Json::from_u64(r.into());
    match inst {
        MInst::Nop => Json::Arr(vec![Json::str("nop")]),
        MInst::LoadImm { dst, value } => {
            Json::Arr(vec![Json::str("li"), reg(*dst), Json::from_i64(*value)])
        }
        MInst::Mov { dst, src } => {
            Json::Arr(vec![Json::str("mov"), reg(*dst), operand_to_json(*src)])
        }
        MInst::Bin { op, dst, lhs, rhs } => Json::Arr(vec![
            Json::str("bin"),
            Json::str(bin_op_name(*op)),
            reg(*dst),
            operand_to_json(*lhs),
            operand_to_json(*rhs),
        ]),
        MInst::Un { op, dst, src } => Json::Arr(vec![
            Json::str("un"),
            Json::str(un_op_name(*op)),
            reg(*dst),
            operand_to_json(*src),
        ]),
        MInst::Trunc { dst, bits, signed } => Json::Arr(vec![
            Json::str("trunc"),
            reg(*dst),
            Json::from_u64((*bits).into()),
            Json::Bool(*signed),
        ]),
        MInst::Load { dst, addr } => {
            Json::Arr(vec![Json::str("ld"), reg(*dst), maddr_to_json(*addr)])
        }
        MInst::Store { addr, src } => Json::Arr(vec![
            Json::str("st"),
            maddr_to_json(*addr),
            operand_to_json(*src),
        ]),
        MInst::Lea { dst, addr } => {
            Json::Arr(vec![Json::str("lea"), reg(*dst), maddr_to_json(*addr)])
        }
        MInst::Jump { target } => Json::Arr(vec![Json::str("j"), Json::from_u64((*target).into())]),
        MInst::BranchZero { cond, target } => Json::Arr(vec![
            Json::str("bz"),
            reg(*cond),
            Json::from_u64((*target).into()),
        ]),
        MInst::BranchNonZero { cond, target } => Json::Arr(vec![
            Json::str("bnz"),
            reg(*cond),
            Json::from_u64((*target).into()),
        ]),
        MInst::Call { target, args, ret } => Json::Arr(vec![
            Json::str("call"),
            match target {
                CallTarget::Sink => Json::Null,
                CallTarget::Function(f) => Json::from_u64((*f).into()),
            },
            Json::Arr(args.iter().map(|a| operand_to_json(*a)).collect()),
            ret.map_or(Json::Null, |r| Json::from_u64(r.into())),
        ]),
        MInst::Ret { value } => Json::Arr(vec![
            Json::str("ret"),
            value.map_or(Json::Null, operand_to_json),
        ]),
    }
}

fn inst_from_json(json: &Json) -> Result<MInst, DecodeError> {
    match tagged(json, "instruction")? {
        ("nop", []) => Ok(MInst::Nop),
        ("li", [dst, value]) => Ok(MInst::LoadImm {
            dst: as_reg(dst, "li dst")?,
            value: as_i64(value, "li value")?,
        }),
        ("mov", [dst, src]) => Ok(MInst::Mov {
            dst: as_reg(dst, "mov dst")?,
            src: operand_from_json(src)?,
        }),
        ("bin", [op, dst, lhs, rhs]) => Ok(MInst::Bin {
            op: bin_op_from_name(op.as_str().ok_or("bin op is not a string")?)?,
            dst: as_reg(dst, "bin dst")?,
            lhs: operand_from_json(lhs)?,
            rhs: operand_from_json(rhs)?,
        }),
        ("un", [op, dst, src]) => Ok(MInst::Un {
            op: un_op_from_name(op.as_str().ok_or("un op is not a string")?)?,
            dst: as_reg(dst, "un dst")?,
            src: operand_from_json(src)?,
        }),
        ("trunc", [dst, bits, signed]) => Ok(MInst::Trunc {
            dst: as_reg(dst, "trunc dst")?,
            bits: as_u64(bits, "trunc bits")? as u32,
            signed: signed.as_bool().ok_or("trunc signed is not a boolean")?,
        }),
        ("ld", [dst, addr]) => Ok(MInst::Load {
            dst: as_reg(dst, "ld dst")?,
            addr: maddr_from_json(addr)?,
        }),
        ("st", [addr, src]) => Ok(MInst::Store {
            addr: maddr_from_json(addr)?,
            src: operand_from_json(src)?,
        }),
        ("lea", [dst, addr]) => Ok(MInst::Lea {
            dst: as_reg(dst, "lea dst")?,
            addr: maddr_from_json(addr)?,
        }),
        ("j", [target]) => Ok(MInst::Jump {
            target: as_u64(target, "jump target")? as u32,
        }),
        ("bz", [cond, target]) => Ok(MInst::BranchZero {
            cond: as_reg(cond, "bz cond")?,
            target: as_u64(target, "bz target")? as u32,
        }),
        ("bnz", [cond, target]) => Ok(MInst::BranchNonZero {
            cond: as_reg(cond, "bnz cond")?,
            target: as_u64(target, "bnz target")? as u32,
        }),
        ("call", [target, args, ret]) => Ok(MInst::Call {
            target: match target {
                Json::Null => CallTarget::Sink,
                other => CallTarget::Function(as_u64(other, "call target")? as u32),
            },
            args: args
                .as_arr()
                .ok_or("call args is not an array")?
                .iter()
                .map(operand_from_json)
                .collect::<Result<_, _>>()?,
            ret: match ret {
                Json::Null => None,
                other => Some(as_reg(other, "call ret")?),
            },
        }),
        ("ret", [value]) => Ok(MInst::Ret {
            value: match value {
                Json::Null => None,
                other => Some(operand_from_json(other)?),
            },
        }),
        (tag, _) => Err(format!("unknown instruction `{tag}`")),
    }
}

// -------------------------------------------------------- machine program

fn globals_to_json(globals: &[GlobalSlot]) -> Json {
    Json::Arr(
        globals
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("name".to_owned(), Json::str(g.name.clone())),
                    ("elements".to_owned(), Json::from_usize(g.elements)),
                    (
                        "init".to_owned(),
                        Json::Arr(g.init.iter().map(|&v| Json::from_i64(v)).collect()),
                    ),
                    ("bits".to_owned(), Json::from_u64(g.bits.into())),
                    ("signed".to_owned(), Json::Bool(g.signed)),
                    ("volatile".to_owned(), Json::Bool(g.volatile)),
                ])
            })
            .collect(),
    )
}

fn globals_from_json(json: &Json) -> Result<Vec<GlobalSlot>, DecodeError> {
    arr_field(json, "globals")?
        .iter()
        .map(|g| {
            let elements = usize_field(g, "elements")?;
            let init = arr_field(g, "init")?
                .iter()
                .map(|v| as_i64(v, "global initializer"))
                .collect::<Result<Vec<_>, _>>()?;
            if init.len() != elements {
                return err("global initializer length mismatch");
            }
            Ok(GlobalSlot {
                name: str_field(g, "name")?.to_owned(),
                elements,
                init,
                bits: u32_field(g, "bits")?,
                signed: bool_field(g, "signed")?,
                volatile: bool_field(g, "volatile")?,
            })
        })
        .collect()
}

fn machine_to_json(program: &MachineProgram) -> Json {
    Json::Obj(vec![
        (
            "functions".to_owned(),
            Json::Arr(
                program
                    .functions
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::str(f.name.clone())),
                            (
                                "code".to_owned(),
                                Json::Arr(f.code.iter().map(inst_to_json).collect()),
                            ),
                            (
                                "frame_slots".to_owned(),
                                Json::from_u64(f.frame_slots.into()),
                            ),
                            ("base_address".to_owned(), Json::from_u64(f.base_address)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("globals".to_owned(), globals_to_json(&program.globals)),
        ("entry".to_owned(), Json::from_u64(program.entry.into())),
    ])
}

fn machine_from_json(json: &Json) -> Result<MachineProgram, DecodeError> {
    let functions = arr_field(json, "functions")?
        .iter()
        .map(|f| {
            Ok(MFunction {
                name: str_field(f, "name")?.to_owned(),
                code: arr_field(f, "code")?
                    .iter()
                    .map(inst_from_json)
                    .collect::<Result<_, _>>()?,
                frame_slots: u32_field(f, "frame_slots")?,
                base_address: u64_field(f, "base_address")?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let globals = globals_from_json(json)?;
    let entry = u32_field(json, "entry")?;
    if (entry as usize) >= functions.len() {
        return err("entry function index out of range");
    }
    Ok(MachineProgram {
        functions,
        globals,
        entry,
    })
}

// ---------------------------------------------------- stack-VM program

fn sinst_to_json(inst: SInst) -> Json {
    let one = |tag: &str, v: Json| Json::Arr(vec![Json::str(tag), v]);
    match inst {
        SInst::Nop => Json::Arr(vec![Json::str("nop")]),
        SInst::PushImm(v) => one("pi", Json::from_i64(v)),
        SInst::PushReg(r) => one("pr", Json::from_u64(r.into())),
        SInst::PopReg(r) => one("qr", Json::from_u64(r.into())),
        SInst::PushSlot(s) => one("ps", Json::from_u64(s.into())),
        SInst::PopSlot(s) => one("qs", Json::from_u64(s.into())),
        SInst::Drop => Json::Arr(vec![Json::str("drop")]),
        SInst::Bin(op) => one("bin", Json::str(bin_op_name(op))),
        SInst::Un(op) => one("un", Json::str(un_op_name(op))),
        SInst::Trunc { bits, signed } => Json::Arr(vec![
            Json::str("trunc"),
            Json::from_u64(bits.into()),
            Json::Bool(signed),
        ]),
        SInst::LoadGlobal { global, indexed } => Json::Arr(vec![
            Json::str("lg"),
            Json::from_u64(global.into()),
            Json::Bool(indexed),
        ]),
        SInst::StoreGlobal { global, indexed } => Json::Arr(vec![
            Json::str("sg"),
            Json::from_u64(global.into()),
            Json::Bool(indexed),
        ]),
        SInst::LoadInd => Json::Arr(vec![Json::str("ldi")]),
        SInst::StoreInd => Json::Arr(vec![Json::str("sti")]),
        SInst::PushGlobalAddr { global } => one("pga", Json::from_u64(global.into())),
        SInst::PushSlotAddr(s) => one("psa", Json::from_u64(s.into())),
        SInst::Jump { target } => one("j", Json::from_u64(target.into())),
        SInst::BranchZero { target } => one("bz", Json::from_u64(target.into())),
        SInst::BranchNonZero { target } => one("bnz", Json::from_u64(target.into())),
        SInst::Call {
            target,
            argc,
            has_ret,
        } => Json::Arr(vec![
            Json::str("call"),
            match target {
                CallTarget::Sink => Json::Null,
                CallTarget::Function(f) => Json::from_u64(f.into()),
            },
            Json::from_u64(argc.into()),
            Json::Bool(has_ret),
        ]),
        SInst::Ret { has_value } => one("ret", Json::Bool(has_value)),
    }
}

fn sinst_from_json(json: &Json) -> Result<SInst, DecodeError> {
    let as_u32 = |v: &Json, what: &str| -> Result<u32, DecodeError> {
        as_u64(v, what)?
            .try_into()
            .map_err(|_| format!("{what} out of u32 range"))
    };
    let as_flag = |v: &Json, what: &str| -> Result<bool, DecodeError> {
        v.as_bool()
            .ok_or_else(|| format!("{what} is not a boolean"))
    };
    match tagged(json, "stack instruction")? {
        ("nop", []) => Ok(SInst::Nop),
        ("pi", [v]) => Ok(SInst::PushImm(as_i64(v, "push immediate")?)),
        ("pr", [r]) => Ok(SInst::PushReg(as_reg(r, "push register")?)),
        ("qr", [r]) => Ok(SInst::PopReg(as_reg(r, "pop register")?)),
        ("ps", [s]) => Ok(SInst::PushSlot(as_u32(s, "push slot")?)),
        ("qs", [s]) => Ok(SInst::PopSlot(as_u32(s, "pop slot")?)),
        ("drop", []) => Ok(SInst::Drop),
        ("bin", [op]) => Ok(SInst::Bin(bin_op_from_name(
            op.as_str().ok_or("bin op is not a string")?,
        )?)),
        ("un", [op]) => Ok(SInst::Un(un_op_from_name(
            op.as_str().ok_or("un op is not a string")?,
        )?)),
        ("trunc", [bits, signed]) => Ok(SInst::Trunc {
            bits: as_u32(bits, "trunc bits")?,
            signed: as_flag(signed, "trunc signed")?,
        }),
        ("lg", [global, indexed]) => Ok(SInst::LoadGlobal {
            global: as_u32(global, "load global")?,
            indexed: as_flag(indexed, "load global indexed")?,
        }),
        ("sg", [global, indexed]) => Ok(SInst::StoreGlobal {
            global: as_u32(global, "store global")?,
            indexed: as_flag(indexed, "store global indexed")?,
        }),
        ("ldi", []) => Ok(SInst::LoadInd),
        ("sti", []) => Ok(SInst::StoreInd),
        ("pga", [global]) => Ok(SInst::PushGlobalAddr {
            global: as_u32(global, "push global address")?,
        }),
        ("psa", [s]) => Ok(SInst::PushSlotAddr(as_u32(s, "push slot address")?)),
        ("j", [t]) => Ok(SInst::Jump {
            target: as_u32(t, "jump target")?,
        }),
        ("bz", [t]) => Ok(SInst::BranchZero {
            target: as_u32(t, "bz target")?,
        }),
        ("bnz", [t]) => Ok(SInst::BranchNonZero {
            target: as_u32(t, "bnz target")?,
        }),
        ("call", [target, argc, has_ret]) => Ok(SInst::Call {
            target: match target {
                Json::Null => CallTarget::Sink,
                other => CallTarget::Function(as_u32(other, "call target")?),
            },
            argc: as_u32(argc, "call argc")?,
            has_ret: as_flag(has_ret, "call has_ret")?,
        }),
        ("ret", [has_value]) => Ok(SInst::Ret {
            has_value: as_flag(has_value, "ret has_value")?,
        }),
        (tag, _) => Err(format!("unknown stack instruction `{tag}`")),
    }
}

fn stack_program_to_json(program: &StackProgram) -> Json {
    Json::Obj(vec![
        ("backend".to_owned(), Json::str("stack")),
        (
            "functions".to_owned(),
            Json::Arr(
                program
                    .functions
                    .iter()
                    .map(|f| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::str(f.name.clone())),
                            (
                                "code".to_owned(),
                                Json::Arr(f.code.iter().map(|&i| sinst_to_json(i)).collect()),
                            ),
                            (
                                "frame_slots".to_owned(),
                                Json::from_u64(f.frame_slots.into()),
                            ),
                            ("param_base".to_owned(), Json::from_u64(f.param_base.into())),
                            ("base_address".to_owned(), Json::from_u64(f.base_address)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("globals".to_owned(), globals_to_json(&program.globals)),
        ("entry".to_owned(), Json::from_u64(program.entry.into())),
    ])
}

fn stack_program_from_json(json: &Json) -> Result<StackProgram, DecodeError> {
    let functions = arr_field(json, "functions")?
        .iter()
        .map(|f| {
            Ok(SFunction {
                name: str_field(f, "name")?.to_owned(),
                code: arr_field(f, "code")?
                    .iter()
                    .map(sinst_from_json)
                    .collect::<Result<_, _>>()?,
                frame_slots: u32_field(f, "frame_slots")?,
                param_base: u32_field(f, "param_base")?,
                base_address: u64_field(f, "base_address")?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let globals = globals_from_json(json)?;
    let entry = u32_field(json, "entry")?;
    if (entry as usize) >= functions.len() {
        return err("entry function index out of range");
    }
    // Cross-reference instruction operands so a checksum-valid but
    // inconsistent file is rejected here instead of panicking the VM.
    let function_count = functions.len();
    let global_count = globals.len();
    for function in &functions {
        for inst in &function.code {
            match *inst {
                SInst::PushReg(r) | SInst::PopReg(r)
                    if usize::from(r) >= holes_machine::STACK_NUM_REGS =>
                {
                    return err("stack instruction register out of range");
                }
                SInst::Call {
                    target: CallTarget::Function(f),
                    ..
                } if (f as usize) >= function_count => {
                    return err("call target out of range");
                }
                SInst::LoadGlobal { global, .. }
                | SInst::StoreGlobal { global, .. }
                | SInst::PushGlobalAddr { global }
                    if (global as usize) >= global_count =>
                {
                    return err("global index out of range");
                }
                _ => {}
            }
        }
    }
    Ok(StackProgram {
        functions,
        globals,
        entry,
    })
}

/// Reject decoded debug information whose location descriptions name
/// registers the executable's backend does not have: the debugger reads
/// registers through an infallible accessor, so an out-of-range index from
/// a tampered (checksum-recomputed) store file must never reach it.
fn validate_location_registers(debug: &DebugInfo, reg_limit: usize) -> Result<(), DecodeError> {
    for (_, die) in debug.iter() {
        for (_, value) in &die.attrs {
            if let AttrValue::LocList(entries) = value {
                for entry in entries {
                    let register = match entry.location {
                        Location::Register(r) => Some(r),
                        Location::Composite { reg, .. } => Some(reg),
                        _ => None,
                    };
                    if register.is_some_and(|r| usize::from(r) >= reg_limit) {
                        return err("location register out of range for the backend");
                    }
                }
            }
        }
    }
    Ok(())
}

/// Encode a backend's machine code. Register programs keep the pre-backend
/// object shape (no tag), so existing store files stay valid byte-for-byte;
/// stack and frame programs carry a `"backend"` marker.
fn code_to_json(code: &MachineCode) -> Json {
    match code {
        MachineCode::Reg(program) => machine_to_json(program),
        MachineCode::Stack(program) => stack_program_to_json(program),
        MachineCode::Frame(program) => {
            // Same register-ISA object shape, distinguished only by the tag.
            let mut json = machine_to_json(program);
            if let Json::Obj(pairs) = &mut json {
                pairs.insert(0, ("backend".to_owned(), Json::str("frame")));
            }
            json
        }
    }
}

fn code_from_json(json: &Json) -> Result<MachineCode, DecodeError> {
    match json.get("backend") {
        None => Ok(MachineCode::Reg(machine_from_json(json)?)),
        Some(tag) if tag.as_str() == Some("stack") => {
            Ok(MachineCode::Stack(stack_program_from_json(json)?))
        }
        Some(tag) if tag.as_str() == Some("frame") => {
            Ok(MachineCode::Frame(machine_from_json(json)?))
        }
        Some(_) => err("unknown machine-code backend tag"),
    }
}

// -------------------------------------------------------------- locations

fn location_to_json(location: Location) -> Json {
    match location {
        Location::Register(r) => Json::Arr(vec![Json::str("reg"), Json::from_u64(r.into())]),
        Location::FrameSlot(s) => Json::Arr(vec![Json::str("slot"), Json::from_u64(s.into())]),
        Location::GlobalAddress(a) => Json::Arr(vec![Json::str("addr"), Json::from_u64(a)]),
        Location::ConstValue(c) => Json::Arr(vec![Json::str("const"), Json::from_i64(c)]),
        Location::Empty => Json::Arr(vec![Json::str("empty")]),
        Location::FrameBase { offset } => {
            Json::Arr(vec![Json::str("fb"), Json::from_i64(offset.into())])
        }
        Location::Composite { reg, offset, deref } => Json::Arr(vec![
            Json::str("cx"),
            Json::from_u64(reg.into()),
            Json::from_i64(offset),
            Json::Bool(deref),
        ]),
    }
}

fn location_from_json(json: &Json) -> Result<Location, DecodeError> {
    match tagged(json, "location")? {
        ("reg", [r]) => Ok(Location::Register(as_reg(r, "location register")?)),
        ("slot", [s]) => Ok(Location::FrameSlot(as_u64(s, "location slot")? as u32)),
        ("addr", [a]) => Ok(Location::GlobalAddress(as_u64(a, "location address")?)),
        ("const", [c]) => Ok(Location::ConstValue(as_i64(c, "location constant")?)),
        ("empty", []) => Ok(Location::Empty),
        ("fb", [offset]) => Ok(Location::FrameBase {
            offset: as_i64(offset, "frame-base offset")?
                .try_into()
                .map_err(|_| "frame-base offset out of range".to_owned())?,
        }),
        ("cx", [reg, offset, deref]) => Ok(Location::Composite {
            reg: as_reg(reg, "composite register")?,
            offset: as_i64(offset, "composite offset")?,
            deref: deref.as_bool().ok_or("composite deref is not a boolean")?,
        }),
        _ => err("unknown location shape"),
    }
}

fn loclist_to_json(entries: &[LocListEntry]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::from_u64(e.start),
                    Json::from_u64(e.end),
                    location_to_json(e.location),
                ])
            })
            .collect(),
    )
}

fn loclist_from_json(json: &Json) -> Result<Vec<LocListEntry>, DecodeError> {
    json.as_arr()
        .ok_or("location list is not an array")?
        .iter()
        .map(|e| match e.as_arr() {
            Some([start, end, location]) => Ok(LocListEntry::new(
                as_u64(start, "loclist start")?,
                as_u64(end, "loclist end")?,
                location_from_json(location)?,
            )),
            _ => err("location list entry is not a triple"),
        })
        .collect()
}

// ------------------------------------------------------------------- DIEs

fn die_tag_name(tag: DieTag) -> &'static str {
    match tag {
        DieTag::CompileUnit => "cu",
        DieTag::Subprogram => "sub",
        DieTag::InlinedSubroutine => "inl",
        DieTag::LexicalBlock => "blk",
        DieTag::Variable => "var",
        DieTag::FormalParameter => "par",
    }
}

fn die_tag_from_name(name: &str) -> Result<DieTag, DecodeError> {
    [
        DieTag::CompileUnit,
        DieTag::Subprogram,
        DieTag::InlinedSubroutine,
        DieTag::LexicalBlock,
        DieTag::Variable,
        DieTag::FormalParameter,
    ]
    .into_iter()
    .find(|&t| die_tag_name(t) == name)
    .ok_or_else(|| format!("unknown DIE tag `{name}`"))
}

fn attr_name(attr: Attr) -> &'static str {
    match attr {
        Attr::Name => "name",
        Attr::LowPc => "low_pc",
        Attr::HighPc => "high_pc",
        Attr::DeclLine => "decl_line",
        Attr::ConstValue => "const_value",
        Attr::Location => "location",
        Attr::AbstractOrigin => "origin",
        Attr::CallLine => "call_line",
        Attr::External => "external",
        Attr::FrameBase => "frame_base",
    }
}

fn attr_from_name(name: &str) -> Result<Attr, DecodeError> {
    [
        Attr::Name,
        Attr::LowPc,
        Attr::HighPc,
        Attr::DeclLine,
        Attr::ConstValue,
        Attr::Location,
        Attr::AbstractOrigin,
        Attr::CallLine,
        Attr::External,
        Attr::FrameBase,
    ]
    .into_iter()
    .find(|&a| attr_name(a) == name)
    .ok_or_else(|| format!("unknown attribute `{name}`"))
}

fn attr_value_to_json(value: &AttrValue) -> Json {
    match value {
        AttrValue::Text(s) => Json::Arr(vec![Json::str("text"), Json::str(s.clone())]),
        AttrValue::Addr(a) => Json::Arr(vec![Json::str("addr"), Json::from_u64(*a)]),
        AttrValue::Unsigned(u) => Json::Arr(vec![Json::str("u"), Json::from_u64(*u)]),
        AttrValue::Signed(s) => Json::Arr(vec![Json::str("s"), Json::from_i64(*s)]),
        AttrValue::Flag(b) => Json::Arr(vec![Json::str("flag"), Json::Bool(*b)]),
        AttrValue::Ref(d) => Json::Arr(vec![Json::str("ref"), Json::from_usize(d.0)]),
        AttrValue::LocList(entries) => Json::Arr(vec![Json::str("loc"), loclist_to_json(entries)]),
    }
}

fn attr_value_from_json(json: &Json) -> Result<AttrValue, DecodeError> {
    match tagged(json, "attribute value")? {
        ("text", [s]) => Ok(AttrValue::Text(
            s.as_str()
                .ok_or("text attribute is not a string")?
                .to_owned(),
        )),
        ("addr", [a]) => Ok(AttrValue::Addr(as_u64(a, "address attribute")?)),
        ("u", [u]) => Ok(AttrValue::Unsigned(as_u64(u, "unsigned attribute")?)),
        ("s", [s]) => Ok(AttrValue::Signed(as_i64(s, "signed attribute")?)),
        ("flag", [b]) => Ok(AttrValue::Flag(
            b.as_bool().ok_or("flag attribute is not a boolean")?,
        )),
        ("ref", [d]) => Ok(AttrValue::Ref(DieId(as_u64(d, "DIE reference")? as usize))),
        ("loc", [entries]) => Ok(AttrValue::LocList(loclist_from_json(entries)?)),
        _ => err("unknown attribute value shape"),
    }
}

fn debug_info_to_json(debug: &DebugInfo) -> Json {
    let dies = debug
        .iter()
        .map(|(_, die)| {
            Json::Obj(vec![
                ("tag".to_owned(), Json::str(die_tag_name(die.tag))),
                (
                    "attrs".to_owned(),
                    Json::Arr(
                        die.attrs
                            .iter()
                            .map(|(attr, value)| {
                                Json::Arr(vec![
                                    Json::str(attr_name(*attr)),
                                    attr_value_to_json(value),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "children".to_owned(),
                    Json::Arr(die.children.iter().map(|c| Json::from_usize(c.0)).collect()),
                ),
                (
                    "parent".to_owned(),
                    die.parent.map_or(Json::Null, |p| Json::from_usize(p.0)),
                ),
            ])
        })
        .collect();
    let rows = debug
        .line_table
        .rows()
        .iter()
        .map(|row| {
            Json::Arr(vec![
                Json::from_u64(row.address),
                Json::from_u64(row.line.into()),
                Json::Bool(row.is_stmt),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "source_name".to_owned(),
            Json::str(debug.source_name.clone()),
        ),
        ("dies".to_owned(), Json::Arr(dies)),
        ("line_table".to_owned(), Json::Arr(rows)),
    ])
}

fn debug_info_from_json(json: &Json) -> Result<DebugInfo, DecodeError> {
    let dies = arr_field(json, "dies")?
        .iter()
        .map(|die| {
            Ok(Die {
                tag: die_tag_from_name(str_field(die, "tag")?)?,
                attrs: arr_field(die, "attrs")?
                    .iter()
                    .map(|pair| match pair.as_arr() {
                        Some([attr, value]) => Ok((
                            attr_from_name(attr.as_str().ok_or("attribute name is not a string")?)?,
                            attr_value_from_json(value)?,
                        )),
                        _ => err("attribute is not a pair"),
                    })
                    .collect::<Result<_, DecodeError>>()?,
                children: arr_field(die, "children")?
                    .iter()
                    .map(|c| Ok(DieId(as_u64(c, "child id")? as usize)))
                    .collect::<Result<_, DecodeError>>()?,
                parent: match get(die, "parent")? {
                    Json::Null => None,
                    other => Some(DieId(as_u64(other, "parent id")? as usize)),
                },
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let mut line_table = LineTable::new();
    for row in arr_field(json, "line_table")? {
        match row.as_arr() {
            Some([address, line, is_stmt]) => line_table.push(LineRow {
                address: as_u64(address, "line row address")?,
                line: as_u64(line, "line row line")? as u32,
                is_stmt: is_stmt.as_bool().ok_or("line row is_stmt not boolean")?,
            }),
            _ => return err("line table row is not a triple"),
        }
    }
    DebugInfo::from_raw_parts(dies, line_table, str_field(json, "source_name")?.to_owned())
        .ok_or_else(|| "DIE tree fails its structural invariants".to_owned())
}

// --------------------------------------------------------- configurations

fn config_to_json(config: &CompilerConfig) -> Json {
    let mut pairs = vec![
        (
            "personality".to_owned(),
            Json::str(config.personality.name()),
        ),
        ("version".to_owned(), Json::str(config.version_name())),
        ("level".to_owned(), Json::str(config.level.flag())),
        (
            "disabled_passes".to_owned(),
            Json::Arr(
                config
                    .disabled_passes
                    .iter()
                    .map(|p| Json::str(p.clone()))
                    .collect(),
            ),
        ),
        (
            "pass_budget".to_owned(),
            config.pass_budget.map_or(Json::Null, Json::from_usize),
        ),
        (
            "disable_defects".to_owned(),
            Json::Bool(config.disable_defects),
        ),
    ];
    // Like the fingerprint encoding: only a non-default backend extends the
    // shape, keeping register-backend store files byte-identical.
    if config.backend != holes_compiler::BackendKind::Reg {
        pairs.push(("backend".to_owned(), Json::str(config.backend.name())));
    }
    Json::Obj(pairs)
}

fn config_from_json(json: &Json) -> Result<CompilerConfig, DecodeError> {
    let personality: Personality = str_field(json, "personality")?
        .parse()
        .map_err(|_| "unknown personality".to_owned())?;
    let version = personality
        .version_index(str_field(json, "version")?)
        .ok_or("unknown compiler version")?;
    let level: OptLevel = str_field(json, "level")?
        .parse()
        .map_err(|_| "unknown optimization level".to_owned())?;
    let mut config = CompilerConfig::new(personality, level).with_version(version);
    for pass in arr_field(json, "disabled_passes")? {
        config = config.with_disabled_pass(pass.as_str().ok_or("pass name is not a string")?);
    }
    config.pass_budget = match get(json, "pass_budget")? {
        Json::Null => None,
        other => Some(other.as_usize().ok_or("pass budget is not a usize")?),
    };
    config.disable_defects = bool_field(json, "disable_defects")?;
    if let Some(backend) = json.get("backend") {
        config.backend = backend
            .as_str()
            .and_then(|name| name.parse().ok())
            .ok_or("unknown backend")?;
    }
    Ok(config)
}

// ------------------------------------------------------------ executables

/// Encode a whole executable (machine program, debug information, producing
/// configuration, and pipeline report).
pub(super) fn executable_to_json(executable: &Executable) -> Json {
    let strings =
        |items: &[String]| Json::Arr(items.iter().map(|s| Json::str(s.clone())).collect());
    Json::Obj(vec![
        ("machine".to_owned(), code_to_json(&executable.machine)),
        ("debug".to_owned(), debug_info_to_json(&executable.debug)),
        ("config".to_owned(), config_to_json(&executable.config)),
        (
            "report".to_owned(),
            Json::Obj(vec![
                (
                    "passes_run".to_owned(),
                    strings(&executable.report.passes_run),
                ),
                (
                    "defects_applied".to_owned(),
                    strings(&executable.report.defects_applied),
                ),
            ]),
        ),
    ])
}

/// Decode an executable encoded by [`executable_to_json`].
pub(super) fn executable_from_json(json: &Json) -> Result<Executable, DecodeError> {
    let report = get(json, "report")?;
    let strings = |key: &str| -> Result<Vec<String>, DecodeError> {
        arr_field(report, key)?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("`{key}` entry is not a string"))
            })
            .collect()
    };
    let machine = code_from_json(get(json, "machine")?)?;
    let config = config_from_json(get(json, "config")?)?;
    if machine.backend() != config.backend {
        return err("machine code and configuration disagree on the backend");
    }
    let debug = debug_info_from_json(get(json, "debug")?)?;
    let reg_limit = match machine.backend() {
        holes_machine::BackendKind::Reg | holes_machine::BackendKind::Frame => {
            holes_machine::NUM_REGS
        }
        holes_machine::BackendKind::Stack => holes_machine::STACK_NUM_REGS,
    };
    validate_location_registers(&debug, reg_limit)?;
    Ok(Executable {
        machine,
        debug,
        config,
        report: PipelineReport {
            passes_run: strings("passes_run")?,
            defects_applied: strings("defects_applied")?,
        },
    })
}

// ----------------------------------------------------------------- traces

/// Encode a debug trace (stops in execution order plus the steppable-line
/// set; the reached-line index is derivable and not stored).
pub(super) fn trace_to_json(trace: &DebugTrace) -> Json {
    Json::Obj(vec![
        (
            "stops".to_owned(),
            Json::Arr(
                trace
                    .stops
                    .iter()
                    .map(|stop| {
                        Json::Obj(vec![
                            ("line".to_owned(), Json::from_u64(stop.line.into())),
                            ("address".to_owned(), Json::from_u64(stop.address)),
                            ("function".to_owned(), Json::str(stop.function.as_ref())),
                            (
                                "variables".to_owned(),
                                Json::Arr(
                                    stop.variables
                                        .iter()
                                        .map(|v| {
                                            Json::Arr(vec![
                                                Json::str(v.name.as_ref()),
                                                match v.availability {
                                                    Availability::Available(value) => {
                                                        Json::from_i64(value)
                                                    }
                                                    Availability::OptimizedOut => Json::Null,
                                                },
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "steppable_lines".to_owned(),
            Json::Arr(
                trace
                    .steppable_lines
                    .iter()
                    .map(|&l| Json::from_u64(l.into()))
                    .collect(),
            ),
        ),
    ])
}

/// Decode a trace encoded by [`trace_to_json`], rebuilding the reached-line
/// index exactly as the live debugger does (first stop per line wins): the
/// tree oracle [`read_trace`] is tested against.
#[cfg(test)]
pub(super) fn trace_from_json(json: &Json) -> Result<DebugTrace, DecodeError> {
    let stops = arr_field(json, "stops")?
        .iter()
        .map(|stop| {
            Ok(LineStop {
                line: u32_field(stop, "line")?,
                address: u64_field(stop, "address")?,
                function: str_field(stop, "function")?.into(),
                variables: arr_field(stop, "variables")?
                    .iter()
                    .map(|v| match v.as_arr() {
                        Some([name, value]) => Ok(VarView {
                            name: name.as_str().ok_or("variable name is not a string")?.into(),
                            availability: match value {
                                Json::Null => Availability::OptimizedOut,
                                other => Availability::Available(as_i64(other, "variable value")?),
                            },
                        }),
                        _ => err("variable is not a pair"),
                    })
                    .collect::<Result<_, DecodeError>>()?,
            })
        })
        .collect::<Result<Vec<LineStop>, DecodeError>>()?;
    let steppable_lines = arr_field(json, "steppable_lines")?
        .iter()
        .map(|l| Ok(as_u64(l, "steppable line")? as u32))
        .collect::<Result<Vec<u32>, DecodeError>>()?;
    let mut reached = std::collections::BTreeMap::new();
    for (index, stop) in stops.iter().enumerate() {
        reached.entry(stop.line).or_insert(index);
    }
    Ok(DebugTrace {
        stops,
        steppable_lines,
        reached,
    })
}

// ------------------------------------------------------------- violations

/// Encode a full violation set.
pub(super) fn violations_to_json(violations: &[Violation]) -> Json {
    Json::Arr(
        violations
            .iter()
            .map(|v| {
                Json::Obj(vec![
                    ("conjecture".to_owned(), Json::str(v.conjecture.to_string())),
                    ("line".to_owned(), Json::from_u64(v.line.into())),
                    ("variable".to_owned(), Json::str(v.variable.as_ref())),
                    ("function".to_owned(), Json::from_usize(v.function.0)),
                    ("observed".to_owned(), Json::str(v.observed.name())),
                ])
            })
            .collect(),
    )
}

/// Decode a violation set encoded by [`violations_to_json`]: the tree
/// oracle [`read_violations`] is tested against.
#[cfg(test)]
pub(super) fn violations_from_json(json: &Json) -> Result<Vec<Violation>, DecodeError> {
    json.as_arr()
        .ok_or("violation set is not an array")?
        .iter()
        .map(|v| {
            let observed: holes_core::Observed = str_field(v, "observed")?
                .parse()
                .map_err(|_| "unknown observed state".to_owned())?;
            Ok(Violation {
                conjecture: str_field(v, "conjecture")?
                    .parse()
                    .map_err(|_| "unknown conjecture".to_owned())?,
                line: u32_field(v, "line")?,
                variable: str_field(v, "variable")?.into(),
                function: FunctionId(usize_field(v, "function")?),
                observed,
            })
        })
        .collect()
}

// --------------------------------------------------------- triage answers

/// Encode one triage answer: the violation site the search ran for (what
/// [`holes_core::SiteQuery::for_violation`] matches), the search method,
/// and the culprits it returned. An answer set holds one per site; earlier
/// builds wrote each as a payload of its own.
fn answer_json(site: &Site, method: TriageMethod, culprits: &[String]) -> Json {
    Json::Obj(vec![
        (
            "conjecture".to_owned(),
            Json::str(site.conjecture.to_string()),
        ),
        ("function".to_owned(), Json::from_usize(site.function.0)),
        ("line".to_owned(), Json::from_u64(site.line.into())),
        ("variable".to_owned(), Json::str(site.variable.as_ref())),
        ("method".to_owned(), Json::str(method.name())),
        (
            "culprits".to_owned(),
            Json::Arr(culprits.iter().map(Json::str).collect()),
        ),
    ])
}

/// Encode a per-site triage answer as earlier builds wrote it. Only tests
/// write these now.
#[cfg(test)]
pub(super) fn answer_to_json(violation: &Violation, outcome: &TriageOutcome) -> Json {
    answer_json(&Site::of(violation), outcome.method, &outcome.culprits)
}

/// Decode a per-site triage answer encoded by `answer_to_json` for
/// `violation`'s site and the search `method`; an answer recorded for any
/// other site or by the other method is an error.
pub(super) fn answer_from_json(
    json: &Json,
    violation: &Violation,
    method: TriageMethod,
) -> Result<TriageOutcome, DecodeError> {
    let same_site = str_field(json, "conjecture")? == violation.conjecture.to_string()
        && usize_field(json, "function")? == violation.function.0
        && u32_field(json, "line")? == violation.line
        && str_field(json, "variable")? == &*violation.variable;
    if !same_site {
        return err("answers another violation site");
    }
    if str_field(json, "method")? != method.name() {
        return err("answers another triage method");
    }
    let culprits = arr_field(json, "culprits")?
        .iter()
        .map(|culprit| {
            culprit
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| "culprit is not a string".to_owned())
        })
        .collect::<Result<_, _>>()?;
    Ok(TriageOutcome { culprits, method })
}

/// Encode a configuration's triage answer set: one entry per site, in site
/// order, each with the search `method` and its culprits.
pub(super) fn answers_to_json(answers: &TriageAnswers, method: TriageMethod) -> Json {
    Json::Arr(
        answers
            .iter()
            .map(|(site, culprits)| answer_json(site, method, culprits))
            .collect(),
    )
}

/// Insert the next entry of an answer set decoded for `method`: it must
/// have been found by `method` and come strictly after every site before
/// it, so no site repeats.
fn push_answer(
    answers: &mut TriageAnswers,
    site: Site,
    entry_method: &str,
    method: TriageMethod,
    culprits: Vec<String>,
) -> Result<(), DecodeError> {
    if entry_method != method.name() {
        return err("answers another triage method");
    }
    if answers
        .last_key_value()
        .is_some_and(|(last, _)| *last >= site)
    {
        return err("answer sites repeat or are out of order");
    }
    answers.insert(site, culprits);
    Ok(())
}

/// Decode an answer set encoded by [`answers_to_json`] for `method`: the
/// tree oracle [`read_answers`] is tested against.
#[cfg(test)]
pub(super) fn answers_from_json(
    json: &Json,
    method: TriageMethod,
) -> Result<TriageAnswers, DecodeError> {
    let mut answers = TriageAnswers::new();
    for entry in json.as_arr().ok_or("answer set is not an array")? {
        let site = Site {
            conjecture: str_field(entry, "conjecture")?
                .parse()
                .map_err(|_| "unknown conjecture".to_owned())?,
            function: FunctionId(usize_field(entry, "function")?),
            line: u32_field(entry, "line")?,
            variable: str_field(entry, "variable")?.into(),
        };
        let culprits = arr_field(entry, "culprits")?
            .iter()
            .map(|culprit| {
                culprit
                    .as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "culprit is not a string".to_owned())
            })
            .collect::<Result<_, _>>()?;
        push_answer(
            &mut answers,
            site,
            str_field(entry, "method")?,
            method,
            culprits,
        )?;
    }
    Ok(answers)
}

// ------------------------------------------------------ streamed decoders

/// Source names interned per decoded trace: every stop naming a function or
/// variable shares one allocation, as in a freshly traced [`DebugTrace`]. A
/// trace names few, so a scan beats hashing.
#[derive(Default)]
struct Names(Vec<Arc<str>>);

impl Names {
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(interned) = self.0.iter().find(|interned| interned.as_ref() == name) {
            return Arc::clone(interned);
        }
        let interned: Arc<str> = name.into();
        self.0.push(Arc::clone(&interned));
        interned
    }
}

/// Decode a trace payload as the envelope gate streams it: the same
/// artifact, and the same failures, as `trace_from_json` on the payload's
/// tree. Object members may come in any order, the first of a repeated
/// member wins, and unknown members are skipped.
pub(super) fn read_trace(payload: &mut Payload<'_, '_>) -> Result<DebugTrace, DecodeError> {
    payload.begin_object("trace")?;
    let mut names = Names::default();
    let (mut stops, mut steppable_lines) = (None, None);
    while let Some(key) = payload.key()? {
        match &*key {
            "stops" if stops.is_none() => {
                payload.begin_array("`stops`")?;
                let mut read = Vec::new();
                while let Some(event) = payload.element()? {
                    if event != JsonEvent::BeginObject {
                        return err("stop is not an object");
                    }
                    read.push(read_stop(payload, &mut names)?);
                }
                stops = Some(read);
            }
            "steppable_lines" if steppable_lines.is_none() => {
                payload.begin_array("`steppable_lines`")?;
                let mut read = Vec::new();
                while let Some(event) = payload.element()? {
                    let JsonEvent::Num(text) = event else {
                        return err("steppable line is not an unsigned integer");
                    };
                    let line: u64 = text
                        .parse()
                        .map_err(|_| "steppable line is not an unsigned integer")?;
                    // Truncated, as the tree decoder always has: the gate
                    // accepts exactly what it accepted.
                    read.push(line as u32);
                }
                steppable_lines = Some(read);
            }
            _ => payload.skip()?,
        }
    }
    let stops: Vec<LineStop> = stops.ok_or("missing `stops`")?;
    let mut reached = std::collections::BTreeMap::new();
    for (index, stop) in stops.iter().enumerate() {
        reached.entry(stop.line).or_insert(index);
    }
    Ok(DebugTrace {
        stops,
        steppable_lines: steppable_lines.ok_or("missing `steppable_lines`")?,
        reached,
    })
}

/// One stop's members, after its `{`.
fn read_stop(payload: &mut Payload<'_, '_>, names: &mut Names) -> Result<LineStop, DecodeError> {
    let (mut line, mut address, mut function, mut variables) = (None, None, None, None);
    while let Some(key) = payload.key()? {
        match &*key {
            "line" if line.is_none() => line = Some(payload.number::<u64>("line")?),
            "address" if address.is_none() => address = Some(payload.number("address")?),
            "function" if function.is_none() => {
                function = Some(names.intern(&payload.string("function")?));
            }
            "variables" if variables.is_none() => {
                payload.begin_array("`variables`")?;
                let mut read = Vec::new();
                while let Some(event) = payload.element()? {
                    read.push(read_variable(payload, event, names)?);
                }
                variables = Some(read);
            }
            _ => payload.skip()?,
        }
    }
    Ok(LineStop {
        line: line
            .ok_or("missing `line`")?
            .try_into()
            .map_err(|_| "`line` is out of u32 range")?,
        address: address.ok_or("missing `address`")?,
        function: function.ok_or("missing `function`")?,
        variables: variables.ok_or("missing `variables`")?,
    })
}

/// One `[name, value]` variable pair, from its first event on.
fn read_variable(
    payload: &mut Payload<'_, '_>,
    first: JsonEvent<'_>,
    names: &mut Names,
) -> Result<VarView, DecodeError> {
    if first != JsonEvent::BeginArray {
        return err("variable is not a pair");
    }
    let name = match payload.element()? {
        Some(JsonEvent::Str(name)) => names.intern(&name),
        _ => return err("variable is not a pair of a name and a value"),
    };
    let availability = match payload.element()? {
        Some(JsonEvent::Null) => Availability::OptimizedOut,
        Some(JsonEvent::Num(text)) => Availability::Available(
            text.parse()
                .map_err(|_| "variable value is not an integer")?,
        ),
        _ => return err("variable is not a pair of a name and a value"),
    };
    if payload.element()?.is_some() {
        return err("variable is not a pair");
    }
    Ok(VarView { name, availability })
}

/// Decode a violation-set payload as the envelope gate streams it: the same
/// set, and the same failures, as `violations_from_json` on the payload's
/// tree.
pub(super) fn read_violations(
    payload: &mut Payload<'_, '_>,
) -> Result<Vec<Violation>, DecodeError> {
    payload.begin_array("violation set")?;
    let mut violations = Vec::new();
    while let Some(event) = payload.element()? {
        if event != JsonEvent::BeginObject {
            return err("violation is not an object");
        }
        let (mut conjecture, mut line, mut variable, mut function, mut observed) =
            (None, None, None, None, None);
        while let Some(key) = payload.key()? {
            match &*key {
                "conjecture" if conjecture.is_none() => {
                    conjecture = Some(
                        payload
                            .string("conjecture")?
                            .parse()
                            .map_err(|_| "unknown conjecture")?,
                    );
                }
                "line" if line.is_none() => line = Some(payload.number::<u64>("line")?),
                "variable" if variable.is_none() => {
                    variable = Some(Arc::from(&*payload.string("variable")?));
                }
                "function" if function.is_none() => function = Some(payload.number("function")?),
                "observed" if observed.is_none() => {
                    observed = Some(
                        payload
                            .string("observed")?
                            .parse()
                            .map_err(|_| "unknown observed state")?,
                    );
                }
                _ => payload.skip()?,
            }
        }
        violations.push(Violation {
            conjecture: conjecture.ok_or("missing `conjecture`")?,
            line: line
                .ok_or("missing `line`")?
                .try_into()
                .map_err(|_| "`line` is out of u32 range")?,
            variable: variable.ok_or("missing `variable`")?,
            function: FunctionId(function.ok_or("missing `function`")?),
            observed: observed.ok_or("missing `observed`")?,
        });
    }
    Ok(violations)
}

/// Decode an answer-set payload for `method` as the envelope gate streams
/// it: the same set, and the same failures, as `answers_from_json` on the
/// payload's tree.
pub(super) fn read_answers(
    payload: &mut Payload<'_, '_>,
    method: TriageMethod,
) -> Result<TriageAnswers, DecodeError> {
    payload.begin_array("answer set")?;
    let mut answers = TriageAnswers::new();
    while let Some(event) = payload.element()? {
        if event != JsonEvent::BeginObject {
            return err("answer is not an object");
        }
        let (mut conjecture, mut function, mut line, mut variable) = (None, None, None, None);
        let (mut entry_method, mut culprits) = (None, None);
        while let Some(key) = payload.key()? {
            match &*key {
                "conjecture" if conjecture.is_none() => {
                    conjecture = Some(
                        payload
                            .string("conjecture")?
                            .parse()
                            .map_err(|_| "unknown conjecture")?,
                    );
                }
                "function" if function.is_none() => function = Some(payload.number("function")?),
                "line" if line.is_none() => line = Some(payload.number::<u64>("line")?),
                "variable" if variable.is_none() => {
                    variable = Some(Arc::from(&*payload.string("variable")?));
                }
                "method" if entry_method.is_none() => {
                    entry_method = Some(payload.string("method")?);
                }
                "culprits" if culprits.is_none() => {
                    payload.begin_array("`culprits`")?;
                    let mut read = Vec::new();
                    while let Some(event) = payload.element()? {
                        let JsonEvent::Str(culprit) = event else {
                            return err("culprit is not a string");
                        };
                        read.push(culprit.into_owned());
                    }
                    culprits = Some(read);
                }
                _ => payload.skip()?,
            }
        }
        let site = Site {
            conjecture: conjecture.ok_or("missing `conjecture`")?,
            function: FunctionId(function.ok_or("missing `function`")?),
            line: line
                .ok_or("missing `line`")?
                .try_into()
                .map_err(|_| "`line` is out of u32 range")?,
            variable: variable.ok_or("missing `variable`")?,
        };
        push_answer(
            &mut answers,
            site,
            &entry_method.ok_or("missing `method`")?,
            method,
            culprits.ok_or("missing `culprits`")?,
        )?;
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holes_compiler::compile;
    use holes_core::Observed;
    use holes_debugger::{trace, DebuggerKind};
    use holes_progen::ProgramGenerator;

    fn sample_executables() -> Vec<Executable> {
        let generated = ProgramGenerator::from_seed(11).generate();
        [
            CompilerConfig::new(Personality::Ccg, OptLevel::O0),
            CompilerConfig::new(Personality::Ccg, OptLevel::O3),
            CompilerConfig::new(Personality::Lcc, OptLevel::O2)
                .with_disabled_pass("gvn")
                .with_pass_budget(4),
            // Stack-backend executables round-trip too (tagged machine
            // object, frame-base/composite locations, config backend).
            CompilerConfig::new(Personality::Lcc, OptLevel::O2)
                .with_backend(holes_compiler::BackendKind::Stack),
            CompilerConfig::new(Personality::Ccg, OptLevel::Og)
                .with_backend(holes_compiler::BackendKind::Stack)
                .without_defects(),
        ]
        .iter()
        .map(|config| compile(&generated.program, config))
        .collect()
    }

    #[test]
    fn executables_round_trip_exactly() {
        for executable in sample_executables() {
            let encoded = executable_to_json(&executable);
            let decoded = executable_from_json(&encoded).expect("decode");
            assert_eq!(decoded.machine, executable.machine);
            assert_eq!(decoded.debug, executable.debug);
            assert_eq!(decoded.config, executable.config);
            assert_eq!(decoded.report.passes_run, executable.report.passes_run);
            assert_eq!(
                decoded.report.defects_applied,
                executable.report.defects_applied
            );
            // And the re-encoding is byte-identical (determinism).
            assert_eq!(
                executable_to_json(&decoded).to_compact(),
                encoded.to_compact()
            );
        }
    }

    #[test]
    fn traces_round_trip_with_rebuilt_reached_index() {
        for executable in sample_executables() {
            for kind in [DebuggerKind::GdbLike, DebuggerKind::LldbLike] {
                let original = trace(&executable, kind);
                let decoded = trace_from_json(&trace_to_json(&original)).expect("decode");
                assert_eq!(decoded.stops, original.stops);
                assert_eq!(decoded.steppable_lines, original.steppable_lines);
                assert_eq!(decoded.reached, original.reached);
            }
        }
    }

    #[test]
    fn violation_sets_round_trip() {
        let violations = vec![Violation {
            conjecture: holes_core::Conjecture::C2,
            line: 7,
            variable: "x".into(),
            function: FunctionId(0),
            observed: Observed::OptimizedOut,
        }];
        let decoded = violations_from_json(&violations_to_json(&violations)).expect("decode");
        assert_eq!(decoded, violations);
        assert_eq!(violations_from_json(&Json::Arr(vec![])).unwrap(), vec![]);
    }

    #[test]
    fn locations_beyond_the_backend_register_file_are_rejected() {
        // A checksum-valid envelope naming a register the stack VM does not
        // have must be rejected at decode time — the debugger's register
        // accessor is infallible, so this is the last line of defence.
        let mut executable = sample_executables().pop().unwrap();
        assert!(executable.machine.as_stack().is_some());
        let root = executable.debug.root();
        executable.debug.set_attr(
            root,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(
                0,
                u64::MAX,
                Location::Register(holes_machine::STACK_NUM_REGS as u8),
            )]),
        );
        let encoded = executable_to_json(&executable);
        assert!(executable_from_json(&encoded).is_err());
        // The same register index is fine on the register backend.
        let mut reg_exe = sample_executables().swap_remove(0);
        assert!(reg_exe.machine.as_reg().is_some());
        let root = reg_exe.debug.root();
        reg_exe.debug.set_attr(
            root,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(
                0,
                u64::MAX,
                Location::Register(holes_machine::STACK_NUM_REGS as u8),
            )]),
        );
        assert!(executable_from_json(&executable_to_json(&reg_exe)).is_ok());
    }

    #[test]
    fn stack_programs_with_dangling_operands_are_rejected() {
        let executable = sample_executables().pop().unwrap();
        let good = executable_to_json(&executable).to_compact();
        for (needle, replacement) in [
            ("[\"pr\",0]", "[\"pr\",11]"),     // register beyond the file
            ("[\"call\",0,", "[\"call\",99,"), // call target out of range
            ("[\"sg\",0,", "[\"sg\",99,"),     // global index out of range
        ] {
            let bad = good.replace(needle, replacement);
            if bad == good {
                continue; // operand shape not present in this sample
            }
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                executable_from_json(&parsed).is_err(),
                "tampered `{needle}` decoded"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        for bad in [
            Json::Null,
            Json::Obj(vec![]),
            Json::parse(r#"{"machine": 1, "debug": 2, "config": 3, "report": 4}"#).unwrap(),
            Json::parse(r#"{"stops": [{"line": "x"}], "steppable_lines": []}"#).unwrap(),
        ] {
            assert!(executable_from_json(&bad).is_err());
            assert!(trace_from_json(&bad).is_err());
            assert!(violations_from_json(&bad).is_err());
        }
        // Tampered instruction and DIE shapes fail cleanly too.
        let executable = &sample_executables()[1];
        let good = executable_to_json(executable).to_compact();
        for (needle, replacement) in [
            ("[\"li\",", "[\"xyzzy\","),
            ("\"entry\":", "\"entry\":9"),
            ("\"tag\":\"cu\"", "\"tag\":\"nope\""),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement `{needle}` did not apply");
            let parsed = Json::parse(&bad).unwrap();
            assert!(
                executable_from_json(&parsed).is_err(),
                "tampered `{needle}` decoded"
            );
        }
    }
}
