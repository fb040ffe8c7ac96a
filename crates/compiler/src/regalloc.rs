//! Backend-neutral linear-scan register allocation over [`VCode`].
//!
//! The allocator is the second stage of the backend pipeline: it consumes
//! the per-IR-position liveness summaries ([`PosInfo`]) lowering recorded,
//! computes live ranges, runs a linear scan with pinned parameter
//! registers, and returns an [`Allocation`]: every vreg's [`Storage`] plus
//! an explicit list of spill/reload [`Edit`]s keyed by virtual-instruction
//! index. Emission applies the edits mechanically — it never re-derives
//! spill decisions — so the allocator is the single authority on where
//! values live.
//!
//! The algorithm is intentionally identical to the one the monolithic
//! register backend used before the pipeline split (same range
//! construction, same free-list discipline, same spill heuristic), because
//! the default backend's machine code is pinned byte-for-byte by golden
//! tests: refactoring must not move a single register.
//!
//! [`PosInfo`]: crate::vcode::PosInfo

use crate::vcode::{Storage, VCode, VInstruction, VReg};

/// A spill/reload edit the emission stage must insert around a virtual
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Before the instruction: load spill ordinal `spill` into register
    /// `to`. Reloads for one instruction are listed in operand evaluation
    /// order.
    Reload {
        /// Spill ordinal to load from.
        spill: u32,
        /// Scratch register to load into.
        to: u8,
    },
    /// After the instruction: store register `from` to spill ordinal
    /// `spill`.
    SpillStore {
        /// Spill ordinal to store to.
        spill: u32,
        /// Register holding the freshly computed value.
        from: u8,
    },
}

/// The allocator's output: vreg homes plus the edit list.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Where every vreg lives, indexed by vreg number (`None` for numbers
    /// the function never mentions). Spills are numbered by ordinal in the
    /// order the scan created them.
    pub homes: Vec<Option<Storage>>,
    /// Number of spill ordinals allocated.
    pub spill_count: u32,
    /// Spill/reload edits, sorted by virtual-instruction index; within one
    /// index, reloads precede the spill store, in operand order.
    pub edits: Vec<(u32, Edit)>,
}

impl Allocation {
    /// The storage assigned to a vreg (`None` for vregs that never appear
    /// in the function's liveness — defensive, lowering records every use).
    pub fn home(&self, vreg: VReg) -> Option<Storage> {
        self.homes.get(vreg.0 as usize).copied().flatten()
    }
}

/// Run linear-scan allocation over `vcode` with `allocatable` physical
/// registers (registers `0..allocatable`; anything above is scratch and
/// never assigned).
pub fn allocate<I: VInstruction>(vcode: &VCode<I>, allocatable: u8) -> Allocation {
    let mut allocation = Allocation::default();
    assign_homes(vcode, allocatable, &mut allocation);
    // Only spilled vregs need edits.
    if allocation.spill_count > 0 {
        plan_edits(vcode, &mut allocation);
    }
    allocation
}

/// Every vreg's live range `(first position, last live position)`, indexed
/// by vreg number; `None` for numbers the function never mentions.
fn live_ranges<I>(vcode: &VCode<I>) -> Vec<Option<(usize, usize)>> {
    let end = vcode.end_position();
    let vregs = vcode
        .positions
        .iter()
        .flat_map(|pos| pos.def.iter().chain(&pos.dbg_use))
        .chain(&vcode.use_pool)
        .chain(&vcode.params)
        .map(|v| v.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut ranges: Vec<Option<(usize, usize)>> = vec![None; vregs];
    // A vreg's range starts where it first appears and reaches at least
    // `stop`.
    let mut touch = |v: VReg, i: usize, stop: usize| {
        let range = ranges[v.0 as usize].get_or_insert((i, stop));
        range.1 = range.1.max(stop);
    };
    for param in &vcode.params {
        touch(*param, 0, end);
    }
    for (i, pos) in vcode.positions.iter().enumerate() {
        if let Some(d) = pos.def {
            touch(d, i, i);
        }
        for &u in vcode.uses(pos) {
            touch(u, i, i);
        }
        if let Some(t) = pos.dbg_use {
            // Debug-referenced vregs stay live to the end of the function so
            // their location descriptions remain valid.
            touch(t, i, end);
        }
    }
    // Loop back edges: a vreg live anywhere inside a loop must stay live
    // until the backward branch, otherwise a vreg defined later in the body
    // could take its register and clobber it on the next iteration.
    let back_edges: Vec<(usize, usize)> = vcode
        .positions
        .iter()
        .enumerate()
        .filter_map(|(i, pos)| pos.branch_target.filter(|t| *t < i).map(|t| (t, i)))
        .collect();
    // A range's extension depends on no other range, so each vreg runs its
    // own fixpoint over the back edges.
    for (start, stop) in ranges.iter_mut().flatten() {
        let mut changed = true;
        while changed {
            changed = false;
            for &(header, branch) in &back_edges {
                if *start <= branch && *stop >= header && *stop < branch {
                    *stop = branch;
                    changed = true;
                }
            }
        }
    }
    ranges
}

/// Live-range construction and the linear scan itself.
fn assign_homes<I>(vcode: &VCode<I>, allocatable: u8, allocation: &mut Allocation) {
    let end = vcode.end_position();
    let live = live_ranges(vcode);
    let mut ranges: Vec<(VReg, usize, usize)> = live
        .iter()
        .enumerate()
        .filter_map(|(v, range)| range.map(|(start, stop)| (VReg(v as u32), start, stop)))
        .collect();
    ranges.sort_by_key(|(v, start, _)| (*start, v.0));
    allocation.homes = vec![None; live.len()];
    let homes = &mut allocation.homes;

    let mut free: Vec<u8> = (0..allocatable).rev().collect();
    // Pre-colour parameters into the argument registers; they are pinned
    // (never spilled) because the calling convention delivers arguments
    // there.
    let pinned: &[VReg] = &vcode.params;
    let mut active: Vec<(usize, VReg, u8)> = Vec::new();
    for (i, param) in pinned.iter().enumerate() {
        let reg = i as u8;
        free.retain(|r| *r != reg);
        homes[param.0 as usize] = Some(Storage::Reg(reg));
        active.push((end, *param, reg));
    }
    for (vreg, start, stop) in ranges {
        if homes[vreg.0 as usize].is_some() {
            continue;
        }
        // Expire old intervals, freeing their registers in scan order.
        active.retain(|&(a_end, _, a_reg)| {
            let expired = a_end < start;
            if expired {
                free.push(a_reg);
            }
            !expired
        });
        if let Some(reg) = free.pop() {
            homes[vreg.0 as usize] = Some(Storage::Reg(reg));
            active.push((stop, vreg, reg));
        } else {
            // Spill: prefer to spill the spillable active interval that
            // ends last (never a pinned parameter).
            active.sort_by_key(|(e, _, _)| *e);
            let victim_index = active.iter().rposition(|(_, v, _)| !pinned.contains(v));
            let ordinal = allocation.spill_count;
            allocation.spill_count += 1;
            match victim_index {
                Some(vi) if active[vi].0 >= stop => {
                    let (_, victim, reg) = active.remove(vi);
                    homes[victim.0 as usize] = Some(Storage::Spill(ordinal));
                    homes[vreg.0 as usize] = Some(Storage::Reg(reg));
                    active.push((stop, vreg, reg));
                }
                _ => homes[vreg.0 as usize] = Some(Storage::Spill(ordinal)),
            }
        }
    }
}

/// Walk the virtual instructions and record the reload/spill-store edits
/// their operand constraints require for spilled vregs.
fn plan_edits<I: VInstruction>(vcode: &VCode<I>, allocation: &mut Allocation) {
    for (i, vinst) in vcode.insts.iter().enumerate() {
        vinst.inst.visit_uses(&mut |vreg, reload_into| {
            if let (Some(Storage::Spill(spill)), Some(to)) = (allocation.home(vreg), reload_into) {
                allocation
                    .edits
                    .push((i as u32, Edit::Reload { spill, to }));
            }
        });
        if let Some(def) = vinst.inst.def() {
            if def.store_after {
                if let Some(Storage::Spill(spill)) = allocation.home(def.vreg) {
                    allocation.edits.push((
                        i as u32,
                        Edit::SpillStore {
                            spill,
                            from: def.scratch,
                        },
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcode::{PosInfo, VDef};

    /// An instruction with no operands: these tests exercise liveness, which
    /// the allocator reads from the positions alone.
    struct NoOperands;

    impl VInstruction for NoOperands {
        fn visit_uses(&self, _: &mut dyn FnMut(VReg, Option<u8>)) {}

        fn def(&self) -> Option<VDef> {
            None
        }
    }

    /// The position `(def, uses, branch_target)`, with its uses appended
    /// to `pool`.
    fn at(
        pool: &mut Vec<VReg>,
        def: Option<u32>,
        uses: &[u32],
        branch_target: Option<usize>,
    ) -> PosInfo {
        let start = pool.len() as u32;
        pool.extend(uses.iter().copied().map(VReg));
        PosInfo {
            def: def.map(VReg),
            uses: start..pool.len() as u32,
            dbg_use: None,
            branch_target,
        }
    }

    #[test]
    fn a_vreg_live_across_nested_loops_lives_to_the_outer_back_edge() {
        // 0: v1 = ...
        // 1: outer:
        // 2:   inner:
        // 3:     use v1; v3 = ...
        // 4:     branch inner
        // 5:   v2 = ...; use v2
        // 6:   branch outer
        // 7: ret
        let mut pool = Vec::new();
        let positions = vec![
            at(&mut pool, Some(1), &[], None),
            at(&mut pool, None, &[], None),
            at(&mut pool, None, &[], None),
            at(&mut pool, Some(3), &[1], None),
            at(&mut pool, None, &[], Some(2)),
            at(&mut pool, Some(2), &[2], None),
            at(&mut pool, None, &[], Some(1)),
            at(&mut pool, None, &[], None),
        ];
        let vcode: VCode<NoOperands> = VCode {
            name: "f".into(),
            decl_line: 1,
            insts: Vec::new(),
            positions,
            use_pool: pool,
            params: Vec::new(),
            local_slots: 0,
            base_address: 0,
        };
        let ranges = live_ranges(&vcode);
        // v1's last use (3) is inside the inner loop: the inner back edge
        // extends it to 4, and the outer one, which the inner loop sits in,
        // on to 6.
        assert_eq!(ranges[1], Some((0, 6)));
        assert_eq!(ranges[2], Some((5, 6)));
        assert_eq!(ranges[3], Some((3, 6)));
        assert_eq!(ranges[0], None);
        // With one register, v2 (defined after the inner loop, inside the
        // outer one) must not share v1's register, which the next outer
        // iteration still reads.
        let allocation = allocate(&vcode, 1);
        assert_ne!(allocation.home(VReg(1)), allocation.home(VReg(2)));
        assert_eq!(allocation.home(VReg(0)), None);
    }
}
