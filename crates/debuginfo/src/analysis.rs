//! DIE-level completeness analysis.
//!
//! §5.3 of the paper divides its 35 compiler-related issues into four
//! categories according to how the variable's DIE looks at the violating
//! program point: *Missing DIE*, *Hollow DIE*, *Incomplete DIE* and
//! *Incorrect DIE*. [`categorize_variable`] reproduces that classification;
//! the campaign pipeline uses it to generate the "DWARF analysis" column of
//! Table 3.

use crate::die::{Attr, AttrValue, DebugInfo, DieId, DieTag};
use crate::location::{self, Location};

/// The DIE-level manifestation of a completeness problem (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DieCategory {
    /// No DIE for the variable exists in the scope at the program point.
    MissingDie,
    /// A DIE exists but carries neither a location nor a constant value.
    HollowDie,
    /// A DIE with a location exists but the location list does not cover the
    /// program point's address.
    IncompleteDie,
    /// A DIE with a covering location exists: the information is there, so if
    /// the debugger still cannot display the value, either the DIE content or
    /// the debugger's interpretation of it is wrong.
    Covered,
}

impl std::fmt::Display for DieCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            DieCategory::MissingDie => "Missing DIE",
            DieCategory::HollowDie => "Hollow DIE",
            DieCategory::IncompleteDie => "Incomplete DIE",
            DieCategory::Covered => "Covered DIE",
        };
        f.write_str(text)
    }
}

/// Classify the DIE of variable `name` at address `address`.
///
/// The lookup searches the subprogram covering `address`, its lexical blocks
/// covering the address, and any inlined subroutines covering it (both the
/// concrete instance's children and — like gdb does — the abstract origin's
/// children).
pub fn categorize_variable(info: &DebugInfo, name: &str, address: u64) -> DieCategory {
    let Some(subprogram) = info.subprogram_at(address) else {
        return DieCategory::MissingDie;
    };
    let mut candidates: Vec<DieId> = info
        .data_dies_in_scope(subprogram, address)
        .into_iter()
        .filter(|id| info.die(*id).name() == Some(name))
        .collect();
    // Search inlined instances covering the address, merging abstract and
    // concrete children (the most permissive, gdb-and-lldb union view).
    if let Some(inlined) = info.innermost_inlined_at(subprogram, address) {
        for id in info.data_dies_in_scope(inlined, address) {
            if info.die(id).name() == Some(name) {
                candidates.push(id);
            }
        }
        if let Some(AttrValue::Ref(origin)) = info.die(inlined).attr(Attr::AbstractOrigin) {
            for id in info.data_dies_in_scope(*origin, address) {
                if info.die(id).name() == Some(name) {
                    candidates.push(id);
                }
            }
        }
    }
    if candidates.is_empty() {
        return DieCategory::MissingDie;
    }
    let mut best = DieCategory::MissingDie;
    for id in candidates {
        let category = categorize_die(info, id, address);
        if rank(category) > rank(best) {
            best = category;
        }
    }
    best
}

/// Classify one specific data DIE at an address.
pub fn categorize_die(info: &DebugInfo, die: DieId, address: u64) -> DieCategory {
    let entry = info.die(die);
    debug_assert!(entry.tag.is_data() || entry.tag == DieTag::Variable);
    if entry.attr(Attr::ConstValue).is_some() {
        return DieCategory::Covered;
    }
    let mut resolved = entry.attr(Attr::Location).and_then(AttrValue::as_loclist);
    // A concrete inlined variable may omit its own location and defer to the
    // abstract origin.
    let origin_die;
    if resolved.is_none() {
        if let Some(AttrValue::Ref(origin)) = entry.attr(Attr::AbstractOrigin) {
            origin_die = info.die(*origin);
            if origin_die.attr(Attr::ConstValue).is_some() {
                return DieCategory::Covered;
            }
            resolved = origin_die
                .attr(Attr::Location)
                .and_then(AttrValue::as_loclist);
        }
    }
    match resolved {
        None | Some([]) => DieCategory::HollowDie,
        Some(entries) => match location::lookup(entries, address) {
            Some(Location::Empty) | None => DieCategory::IncompleteDie,
            Some(_) => DieCategory::Covered,
        },
    }
}

fn rank(category: DieCategory) -> u8 {
    match category {
        DieCategory::MissingDie => 0,
        DieCategory::HollowDie => 1,
        DieCategory::IncompleteDie => 2,
        DieCategory::Covered => 3,
    }
}

/// An address-indexed view of a DIE tree's subprogram ranges and scope
/// boundaries.
///
/// [`DebugInfo::subprogram_at`] scans every DIE of the tree for each lookup,
/// which is fine for one-off queries but quadratic when a consumer resolves
/// *every* breakpoint address of an executable — exactly what the
/// debugger's stop-plan precomputation does. `ScopeIndex` sorts the
/// subprogram pc ranges once and answers each lookup with a binary search,
/// returning the same DIE the linear scan would (the lowest-id covering
/// subprogram, should ranges ever overlap).
#[derive(Debug, Clone)]
pub struct ScopeIndex {
    /// `(low, high, die)` triples sorted by `low`, then by DIE id.
    subprograms: Vec<(u64, u64, DieId)>,
    /// `prefix_max_high[i]` is the largest `high` among `subprograms[..=i]`
    /// — the classic interval-stabbing bound that lets a lookup stop
    /// scanning backwards as soon as no earlier range can still cover the
    /// address.
    prefix_max_high: Vec<u64>,
    /// Every `low` and `high` pc of every scope DIE (subprogram, lexical
    /// block, inlined subroutine) with a pc range, sorted and deduplicated.
    boundaries: Vec<u64>,
}

impl ScopeIndex {
    /// Build the index for a DIE tree. Abstract subprograms (no pc range)
    /// are not indexed — they cover no address, as in
    /// [`crate::die::Die::covers`].
    pub fn new(info: &DebugInfo) -> ScopeIndex {
        let mut subprograms: Vec<(u64, u64, DieId)> = Vec::new();
        let mut boundaries: Vec<u64> = Vec::new();
        // Data DIEs' ranges never decide a scope walk.
        for (id, die) in info.iter().filter(|(_, die)| !die.tag.is_data()) {
            let Some((low, high)) = die.pc_range() else {
                continue;
            };
            boundaries.extend([low, high]);
            if die.tag == DieTag::Subprogram {
                subprograms.push((low, high, id));
            }
        }
        subprograms.sort_unstable();
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut prefix_max_high = Vec::with_capacity(subprograms.len());
        let mut max_high = 0u64;
        for &(_, high, _) in &subprograms {
            max_high = max_high.max(high);
            prefix_max_high.push(max_high);
        }
        ScopeIndex {
            subprograms,
            prefix_max_high,
            boundaries,
        }
    }

    /// The subprogram DIE whose pc range covers `address`, if any —
    /// identical to [`DebugInfo::subprogram_at`], in logarithmic time for
    /// the disjoint ranges the compiler emits.
    pub fn subprogram_at(&self, address: u64) -> Option<DieId> {
        let upper = self
            .subprograms
            .partition_point(|&(low, _, _)| low <= address);
        // Walk backwards over candidates with `low <= address`; the prefix
        // maximum bounds the walk (one step for disjoint ranges). Should
        // ranges ever overlap, the linear scan's answer is the lowest DIE
        // id, so keep the minimum among covering candidates.
        let mut found: Option<DieId> = None;
        for i in (0..upper).rev() {
            if self.prefix_max_high[i] <= address {
                break;
            }
            let (low, high, die) = self.subprograms[i];
            if low <= address && address < high {
                found = Some(found.map_or(die, |best| best.min(die)));
            }
        }
        found
    }

    /// The segment of `address`: two addresses share a segment when no
    /// scope DIE's pc range starts or ends between them, so the same
    /// subprograms, lexical blocks and inlined subroutines cover both and
    /// every scope walk gives the same answer at either.
    pub fn segment(&self, address: u64) -> usize {
        self.boundaries
            .partition_point(|&boundary| boundary <= address)
    }

    /// Number of indexed (concrete) subprograms.
    pub fn len(&self) -> usize {
        self.subprograms.len()
    }

    /// Whether the tree has no concrete subprogram at all.
    pub fn is_empty(&self) -> bool {
        self.subprograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::LocListEntry;

    fn base_info() -> (DebugInfo, DieId) {
        let mut info = DebugInfo::new("t.c");
        let sub = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(sub, Attr::Name, AttrValue::Text("main".into()));
        info.set_attr(sub, Attr::LowPc, AttrValue::Addr(0x100));
        info.set_attr(sub, Attr::HighPc, AttrValue::Addr(0x200));
        (info, sub)
    }

    #[test]
    fn missing_die_when_variable_absent() {
        let (info, _) = base_info();
        assert_eq!(
            categorize_variable(&info, "x", 0x110),
            DieCategory::MissingDie
        );
    }

    #[test]
    fn missing_die_when_no_subprogram_covers_pc() {
        let (info, _) = base_info();
        assert_eq!(
            categorize_variable(&info, "x", 0x900),
            DieCategory::MissingDie
        );
    }

    #[test]
    fn hollow_die_without_location_or_const() {
        let (mut info, sub) = base_info();
        let var = info.add_die(sub, DieTag::Variable);
        info.set_attr(var, Attr::Name, AttrValue::Text("x".into()));
        assert_eq!(
            categorize_variable(&info, "x", 0x110),
            DieCategory::HollowDie
        );
    }

    #[test]
    fn incomplete_die_when_range_does_not_cover() {
        let (mut info, sub) = base_info();
        let var = info.add_die(sub, DieTag::Variable);
        info.set_attr(var, Attr::Name, AttrValue::Text("x".into()));
        info.set_attr(
            var,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(0x100, 0x108, Location::Register(1))]),
        );
        assert_eq!(
            categorize_variable(&info, "x", 0x150),
            DieCategory::IncompleteDie
        );
        assert_eq!(categorize_variable(&info, "x", 0x104), DieCategory::Covered);
    }

    #[test]
    fn const_value_attribute_is_covered() {
        let (mut info, sub) = base_info();
        let var = info.add_die(sub, DieTag::Variable);
        info.set_attr(var, Attr::Name, AttrValue::Text("k".into()));
        info.set_attr(var, Attr::ConstValue, AttrValue::Signed(3));
        assert_eq!(categorize_variable(&info, "k", 0x110), DieCategory::Covered);
    }

    #[test]
    fn abstract_origin_location_is_honoured() {
        let (mut info, sub) = base_info();
        // Abstract instance of an inlined callee with the variable's location.
        let abstract_sub = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(abstract_sub, Attr::Name, AttrValue::Text("callee".into()));
        let abstract_var = info.add_die(abstract_sub, DieTag::Variable);
        info.set_attr(abstract_var, Attr::Name, AttrValue::Text("a".into()));
        info.set_attr(abstract_var, Attr::ConstValue, AttrValue::Signed(4));
        // Concrete inlined instance inside main, whose child refers to the
        // abstract origin but has no location of its own.
        let inlined = info.add_die(sub, DieTag::InlinedSubroutine);
        info.set_attr(inlined, Attr::LowPc, AttrValue::Addr(0x140));
        info.set_attr(inlined, Attr::HighPc, AttrValue::Addr(0x150));
        info.set_attr(inlined, Attr::AbstractOrigin, AttrValue::Ref(abstract_sub));
        let concrete_var = info.add_die(inlined, DieTag::Variable);
        info.set_attr(concrete_var, Attr::Name, AttrValue::Text("a".into()));
        info.set_attr(
            concrete_var,
            Attr::AbstractOrigin,
            AttrValue::Ref(abstract_var),
        );
        assert_eq!(categorize_variable(&info, "a", 0x145), DieCategory::Covered);
    }

    #[test]
    fn scope_index_agrees_with_the_linear_subprogram_scan() {
        let (mut info, _) = base_info();
        // A second, later subprogram plus an abstract (rangeless) one.
        let second = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(second, Attr::Name, AttrValue::Text("f".into()));
        info.set_attr(second, Attr::LowPc, AttrValue::Addr(0x300));
        info.set_attr(second, Attr::HighPc, AttrValue::Addr(0x340));
        let abstract_sub = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(abstract_sub, Attr::Name, AttrValue::Text("inlinee".into()));
        let index = ScopeIndex::new(&info);
        assert_eq!(index.len(), 2);
        assert!(!index.is_empty());
        for address in [
            0x0, 0xff, 0x100, 0x150, 0x1ff, 0x200, 0x2ff, 0x300, 0x33f, 0x340, 0x900,
        ] {
            assert_eq!(
                index.subprogram_at(address),
                info.subprogram_at(address),
                "index diverges from the linear scan at {address:#x}"
            );
        }
    }

    #[test]
    fn scope_index_handles_overlapping_ranges_like_the_scan() {
        // Overlap never comes out of the compiler, but the index must not
        // silently change the tie-break if it ever did.
        let (mut info, _) = base_info();
        let nested = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(nested, Attr::Name, AttrValue::Text("overlap".into()));
        info.set_attr(nested, Attr::LowPc, AttrValue::Addr(0x140));
        info.set_attr(nested, Attr::HighPc, AttrValue::Addr(0x160));
        let index = ScopeIndex::new(&info);
        for address in [0x120, 0x140, 0x150, 0x15f, 0x160, 0x1f0] {
            assert_eq!(index.subprogram_at(address), info.subprogram_at(address));
        }
    }

    #[test]
    fn scope_index_segments_split_at_every_scope_boundary() {
        let (mut info, sub) = base_info();
        let block = info.add_die(sub, DieTag::LexicalBlock);
        info.set_attr(block, Attr::LowPc, AttrValue::Addr(0x140));
        info.set_attr(block, Attr::HighPc, AttrValue::Addr(0x160));
        // A data DIE's range is no scope boundary.
        let var = info.add_die(sub, DieTag::Variable);
        info.set_attr(var, Attr::LowPc, AttrValue::Addr(0x120));
        info.set_attr(var, Attr::HighPc, AttrValue::Addr(0x130));
        let index = ScopeIndex::new(&info);
        let segments: Vec<usize> = [0x0, 0x100, 0x120, 0x13f, 0x140, 0x15f, 0x160, 0x1ff, 0x200]
            .iter()
            .map(|&address| index.segment(address))
            .collect();
        assert_eq!(segments, vec![0, 1, 1, 1, 2, 2, 3, 3, 4]);
    }

    #[test]
    fn empty_location_range_is_incomplete() {
        let (mut info, sub) = base_info();
        let var = info.add_die(sub, DieTag::Variable);
        info.set_attr(var, Attr::Name, AttrValue::Text("x".into()));
        info.set_attr(
            var,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(0x100, 0x180, Location::Empty)]),
        );
        assert_eq!(
            categorize_variable(&info, "x", 0x110),
            DieCategory::IncompleteDie
        );
    }
}
