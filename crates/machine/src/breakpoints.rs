//! Breakpoint sets tuned for the VM's per-instruction probe.
//!
//! The machine asks "is the next pc a breakpoint?" before **every**
//! instruction it executes, so the probe sits on the hottest path of the
//! whole oracle (the debugger places one breakpoint per steppable source
//! line and runs the program to completion). A `HashSet<u64>` answers that
//! question by hashing eight bytes per step; this set instead keeps the
//! addresses sorted and answers with a bounds check — which rejects almost
//! every probe, since code addresses outside `[first, last]` cannot be
//! breakpoints — followed by a binary search over what is typically a
//! handful of entries.
//!
//! Mutation is O(n) per call, which is irrelevant here: the debugger inserts
//! each one-shot breakpoint once before the run and removes it once when it
//! is hit, while `contains` runs millions of times in between.

/// A set of code addresses the VM stops at, stored sorted for a cheap
/// hot-path membership probe (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakpointSet {
    /// Sorted, deduplicated breakpoint addresses.
    addrs: Vec<u64>,
}

impl BreakpointSet {
    /// An empty set.
    pub const fn new() -> BreakpointSet {
        BreakpointSet { addrs: Vec::new() }
    }

    /// Add an address; inserting an existing address is a no-op.
    pub fn insert(&mut self, address: u64) {
        if let Err(pos) = self.addrs.binary_search(&address) {
            self.addrs.insert(pos, address);
        }
    }

    /// Remove an address, returning whether it was present.
    pub fn remove(&mut self, address: u64) -> bool {
        match self.addrs.binary_search(&address) {
            Ok(pos) => {
                self.addrs.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the set contains an address. Bounds-rejects first, so probes
    /// outside the covered address range cost two comparisons.
    #[inline]
    pub fn contains(&self, address: u64) -> bool {
        match (self.addrs.first(), self.addrs.last()) {
            (Some(&lo), Some(&hi)) if lo <= address && address <= hi => {
                self.addrs.binary_search(&address).is_ok()
            }
            _ => false,
        }
    }

    /// Whether the set is empty (lets the VM skip the probe entirely).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// The addresses, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.addrs.iter().copied()
    }
}

impl FromIterator<u64> for BreakpointSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> BreakpointSet {
        let mut addrs: Vec<u64> = iter.into_iter().collect();
        addrs.sort_unstable();
        addrs.dedup();
        BreakpointSet { addrs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut set = BreakpointSet::new();
        assert!(set.is_empty());
        assert!(!set.contains(10));
        set.insert(10);
        set.insert(30);
        set.insert(20);
        set.insert(20); // duplicate is a no-op
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![10, 20, 30]);
        for hit in [10, 20, 30] {
            assert!(set.contains(hit));
        }
        for miss in [0, 11, 25, 31, u64::MAX] {
            assert!(!set.contains(miss));
        }
        assert!(set.remove(20));
        assert!(!set.remove(20));
        assert!(!set.contains(20));
        assert!(set.contains(10) && set.contains(30));
    }

    #[test]
    fn from_iterator_sorts_and_dedups() {
        let set: BreakpointSet = [5u64, 1, 5, 3].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert!(set.contains(1) && set.contains(3) && set.contains(5));
        assert!(!set.contains(2));
    }

    #[test]
    fn empty_set_is_the_fast_path() {
        let set = BreakpointSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        // The probe bounds-rejects without searching: any address misses.
        for probe in [0, 1, u64::MAX] {
            assert!(!set.contains(probe));
        }
        assert_eq!(set.iter().count(), 0);
        // An emptied set regains the fast path.
        let mut set = set;
        set.insert(7);
        assert!(!set.is_empty());
        assert!(set.remove(7));
        assert!(set.is_empty());
        assert!(!set.contains(7));
    }

    #[test]
    fn duplicate_insertion_is_idempotent() {
        let mut set = BreakpointSet::new();
        for _ in 0..3 {
            set.insert(42);
        }
        assert_eq!(set.len(), 1);
        // One remove consumes the address entirely — duplicates never pile
        // up behind it.
        assert!(set.remove(42));
        assert!(!set.contains(42));
        assert!(!set.remove(42));
    }

    #[test]
    fn one_shot_breakpoints_are_consumed_in_execution_order() {
        // The debugger's protocol: insert every address up front, remove
        // each one the first time it is hit. The machine must report the
        // hits in execution order — not in address order — and never stop
        // at a consumed address again.
        use crate::engine::StopReason;
        use crate::exec::Machine;
        use crate::isa::{MFunction, MInst, MachineProgram, Operand, TEXT_BASE};
        let prog = MachineProgram {
            functions: vec![MFunction {
                name: "main".into(),
                code: vec![
                    MInst::Jump { target: 3 },           // 0
                    MInst::LoadImm { dst: 0, value: 1 }, /* 1 */
                    MInst::Jump { target: 5 },           // 2
                    MInst::Jump { target: 1 },           // 3 (hit before 1)
                    MInst::Nop,                          // 4 (never reached)
                    MInst::Ret {
                        value: Some(Operand::Reg(0)),
                    }, // 5
                ],
                frame_slots: 0,
                base_address: TEXT_BASE,
            }],
            globals: vec![],
            entry: 0,
        };
        let mut machine = Machine::new(&prog);
        let mut breaks: BreakpointSet = [1u64, 3, 4].iter().map(|o| TEXT_BASE + o).collect();
        let mut hits = Vec::new();
        loop {
            match machine.run(&breaks) {
                StopReason::Breakpoint { address } => {
                    assert!(breaks.remove(address), "stopped at a consumed address");
                    hits.push(address - TEXT_BASE);
                }
                StopReason::Finished { return_value } => {
                    assert_eq!(return_value, 1);
                    break;
                }
                other => panic!("unexpected stop: {other:?}"),
            }
        }
        // Execution order (3 before 1), not address order; 4 never fires.
        assert_eq!(hits, vec![3, 1]);
        assert_eq!(breaks.iter().collect::<Vec<_>>(), vec![TEXT_BASE + 4]);
    }

    #[test]
    fn matches_a_hash_set_on_random_probes() {
        use std::collections::HashSet;
        // Deterministic pseudo-random addresses (no RNG dependency).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut reference = HashSet::new();
        let mut set = BreakpointSet::new();
        for _ in 0..200 {
            let addr = next() % 512;
            reference.insert(addr);
            set.insert(addr);
        }
        for probe in 0..512 {
            assert_eq!(set.contains(probe), reference.contains(&probe), "{probe}");
        }
    }
}
