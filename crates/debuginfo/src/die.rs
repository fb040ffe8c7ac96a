//! Debug information entries (DIEs) and the DIE tree.

use crate::line_table::LineTable;
use crate::location::LocListEntry;

/// Identifier of a DIE within a [`DebugInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieId(pub usize);

/// DIE tags — the subset of DWARF tags the reproduction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DieTag {
    /// `DW_TAG_compile_unit` — the root of the tree.
    CompileUnit,
    /// `DW_TAG_subprogram` — a function. Subprograms without a low/high pc
    /// serve as *abstract* representations of inlined functions.
    Subprogram,
    /// `DW_TAG_inlined_subroutine` — the concrete instance of an inlined
    /// call, pointing at its abstract origin.
    InlinedSubroutine,
    /// `DW_TAG_lexical_block` — an unnamed scope.
    LexicalBlock,
    /// `DW_TAG_variable` — a local variable or global.
    Variable,
    /// `DW_TAG_formal_parameter` — a function parameter.
    FormalParameter,
}

impl DieTag {
    /// Whether this tag describes something that holds a value a debugger
    /// would list in a frame (variable or parameter).
    pub fn is_data(self) -> bool {
        matches!(self, DieTag::Variable | DieTag::FormalParameter)
    }
}

/// Attributes — the subset of DWARF attributes the reproduction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attr {
    /// `DW_AT_name`.
    Name,
    /// `DW_AT_low_pc`.
    LowPc,
    /// `DW_AT_high_pc` (stored as an absolute end address here).
    HighPc,
    /// `DW_AT_decl_line`.
    DeclLine,
    /// `DW_AT_const_value` — the variable holds this constant everywhere.
    ConstValue,
    /// `DW_AT_location` — a location list.
    Location,
    /// `DW_AT_abstract_origin` — for inlined subroutines and their variables.
    AbstractOrigin,
    /// `DW_AT_call_line` — source line of the inlined call site.
    CallLine,
    /// `DW_AT_external` — the variable is a global.
    External,
    /// `DW_AT_frame_base` — modelled as the subprogram's total frame size in
    /// slots. Its presence records that the function lays out a real frame
    /// (callee-saved save area, spill slots) whose frame-base-relative
    /// location descriptions ([`crate::Location::FrameBase`]) are meaningful.
    FrameBase,
}

/// Attribute values.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string (names).
    Text(String),
    /// An address.
    Addr(u64),
    /// An unsigned integer.
    Unsigned(u64),
    /// A signed integer (constant values).
    Signed(i64),
    /// A boolean flag.
    Flag(bool),
    /// A reference to another DIE.
    Ref(DieId),
    /// A location list.
    LocList(Vec<LocListEntry>),
}

impl AttrValue {
    /// The address payload, if this value is an address.
    pub fn as_addr(&self) -> Option<u64> {
        match self {
            AttrValue::Addr(a) => Some(*a),
            _ => None,
        }
    }

    /// The signed payload, if this value is a signed integer.
    pub fn as_signed(&self) -> Option<i64> {
        match self {
            AttrValue::Signed(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this value is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The DIE reference payload, if this value is a reference.
    pub fn as_ref_die(&self) -> Option<DieId> {
        match self {
            AttrValue::Ref(d) => Some(*d),
            _ => None,
        }
    }

    /// The location list payload, if this value is a location list.
    pub fn as_loclist(&self) -> Option<&[LocListEntry]> {
        match self {
            AttrValue::LocList(l) => Some(l),
            _ => None,
        }
    }
}

/// One debug information entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Die {
    /// The tag.
    pub tag: DieTag,
    /// Attribute list (at most one value per attribute).
    pub attrs: Vec<(Attr, AttrValue)>,
    /// Child DIEs.
    pub children: Vec<DieId>,
    /// Parent DIE (`None` only for the compile unit).
    pub parent: Option<DieId>,
}

impl Die {
    /// Look up an attribute.
    pub fn attr(&self, attr: Attr) -> Option<&AttrValue> {
        self.attrs.iter().find(|(a, _)| *a == attr).map(|(_, v)| v)
    }

    /// The DIE's name, if it has one.
    pub fn name(&self) -> Option<&str> {
        self.attr(Attr::Name).and_then(AttrValue::as_text)
    }

    /// The `[low_pc, high_pc)` range, if both attributes are present.
    pub fn pc_range(&self) -> Option<(u64, u64)> {
        let low = self.attr(Attr::LowPc)?.as_addr()?;
        let high = self.attr(Attr::HighPc)?.as_addr()?;
        Some((low, high))
    }

    /// Whether the DIE's pc range covers an address. DIEs without a range
    /// (abstract instances) cover nothing.
    pub fn covers(&self, address: u64) -> bool {
        self.pc_range()
            .map(|(lo, hi)| lo <= address && address < hi)
            .unwrap_or(false)
    }
}

/// The complete debug information of an executable: a DIE tree plus the line
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugInfo {
    dies: Vec<Die>,
    /// The line table.
    pub line_table: LineTable,
    /// Name of the (synthetic) source file.
    pub source_name: String,
}

impl DebugInfo {
    /// Create debug information containing only a compile-unit root.
    pub fn new(source_name: &str) -> DebugInfo {
        DebugInfo {
            dies: vec![Die {
                tag: DieTag::CompileUnit,
                attrs: vec![(Attr::Name, AttrValue::Text(source_name.to_owned()))],
                children: Vec::new(),
                parent: None,
            }],
            line_table: LineTable::new(),
            source_name: source_name.to_owned(),
        }
    }

    /// The compile-unit root DIE.
    pub fn root(&self) -> DieId {
        DieId(0)
    }

    /// Reassemble debug information from its parts — the deserialization
    /// seam of the on-disk artifact store, which spills whole executables
    /// (machine code plus this tree) per compiler configuration.
    ///
    /// The tree's structural invariants are validated: there must be a
    /// parentless compile-unit root at index 0, every other DIE must name a
    /// parent, and the parent/children edges must mirror each other exactly
    /// (in order, since child order is meaningful for scope walks). Returns
    /// `None` when any invariant fails, so a corrupted store file degrades
    /// into a cache miss instead of a malformed tree.
    pub fn from_raw_parts(
        dies: Vec<Die>,
        line_table: LineTable,
        source_name: String,
    ) -> Option<DebugInfo> {
        let root = dies.first()?;
        if root.tag != DieTag::CompileUnit || root.parent.is_some() {
            return None;
        }
        for (index, die) in dies.iter().enumerate().skip(1) {
            let parent = die.parent?;
            if parent.0 >= dies.len() || !dies[parent.0].children.contains(&DieId(index)) {
                return None;
            }
        }
        for (index, die) in dies.iter().enumerate() {
            for &child in &die.children {
                if child.0 >= dies.len() || dies[child.0].parent != Some(DieId(index)) {
                    return None;
                }
            }
        }
        Some(DebugInfo {
            dies,
            line_table,
            source_name,
        })
    }

    /// Add a child DIE under `parent` and return its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn add_die(&mut self, parent: DieId, tag: DieTag) -> DieId {
        let id = DieId(self.dies.len());
        self.dies.push(Die {
            tag,
            attrs: Vec::new(),
            children: Vec::new(),
            parent: Some(parent),
        });
        self.dies[parent.0].children.push(id);
        id
    }

    /// Set (or replace) an attribute on a DIE.
    pub fn set_attr(&mut self, die: DieId, attr: Attr, value: AttrValue) {
        let entry = &mut self.dies[die.0];
        if let Some(slot) = entry.attrs.iter_mut().find(|(a, _)| *a == attr) {
            slot.1 = value;
        } else {
            entry.attrs.push((attr, value));
        }
    }

    /// Remove an attribute from a DIE, returning its previous value.
    pub fn remove_attr(&mut self, die: DieId, attr: Attr) -> Option<AttrValue> {
        let entry = &mut self.dies[die.0];
        let pos = entry.attrs.iter().position(|(a, _)| *a == attr)?;
        Some(entry.attrs.remove(pos).1)
    }

    /// Access a DIE.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn die(&self, id: DieId) -> &Die {
        &self.dies[id.0]
    }

    /// Number of DIEs.
    pub fn len(&self) -> usize {
        self.dies.len()
    }

    /// Whether the tree holds only the compile unit.
    pub fn is_empty(&self) -> bool {
        self.dies.len() <= 1
    }

    /// Iterate over `(id, die)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DieId, &Die)> {
        self.dies.iter().enumerate().map(|(i, d)| (DieId(i), d))
    }

    /// The subprogram DIE whose pc range covers `address`, if any.
    pub fn subprogram_at(&self, address: u64) -> Option<DieId> {
        self.iter()
            .find(|(_, d)| d.tag == DieTag::Subprogram && d.covers(address))
            .map(|(id, _)| id)
    }

    /// Innermost inlined subroutine covering `address` within `subprogram`,
    /// if any (walks nested inlined subroutines).
    pub fn innermost_inlined_at(&self, subprogram: DieId, address: u64) -> Option<DieId> {
        self.innermost_inlined_at_with(subprogram, address, &mut Vec::new())
    }

    /// [`DebugInfo::innermost_inlined_at`] with a caller-owned walk stack,
    /// for callers that resolve many addresses in a row.
    pub fn innermost_inlined_at_with(
        &self,
        subprogram: DieId,
        address: u64,
        stack: &mut Vec<DieId>,
    ) -> Option<DieId> {
        let mut found = None;
        stack.clear();
        stack.push(subprogram);
        while let Some(id) = stack.pop() {
            for &child in &self.die(id).children {
                let die = self.die(child);
                if die.tag == DieTag::InlinedSubroutine && die.covers(address) {
                    found = Some(child);
                    stack.push(child);
                } else if die.tag == DieTag::LexicalBlock {
                    stack.push(child);
                }
            }
        }
        found
    }

    /// Direct and lexically nested data DIEs (variables/parameters) of a
    /// scope, *not* descending into inlined subroutines or nested
    /// subprograms. Lexical blocks are descended into only when they cover
    /// `address` or have no pc range.
    pub fn data_dies_in_scope(&self, scope: DieId, address: u64) -> Vec<DieId> {
        let mut out = Vec::new();
        self.append_data_dies_in_scope(scope, address, &mut Vec::new(), &mut out);
        out
    }

    /// [`DebugInfo::data_dies_in_scope`] into caller-owned buffers: appends
    /// the scope's data DIEs, in id order, to `out` (leaving what `out`
    /// already holds in place) and uses `stack` as the walk's scratch.
    pub fn append_data_dies_in_scope(
        &self,
        scope: DieId,
        address: u64,
        stack: &mut Vec<DieId>,
        out: &mut Vec<DieId>,
    ) {
        let start = out.len();
        stack.clear();
        stack.push(scope);
        while let Some(id) = stack.pop() {
            for &child in &self.die(id).children {
                let die = self.die(child);
                match die.tag {
                    DieTag::Variable | DieTag::FormalParameter => out.push(child),
                    DieTag::LexicalBlock
                        if die
                            .pc_range()
                            .is_none_or(|(low, high)| low <= address && address < high) =>
                    {
                        stack.push(child);
                    }
                    _ => {}
                }
            }
        }
        out[start..].sort_unstable();
    }

    /// Find a child data DIE (variable or parameter) of `scope` by name,
    /// searching lexical blocks as well.
    pub fn find_variable(&self, scope: DieId, name: &str, address: u64) -> Option<DieId> {
        self.data_dies_in_scope(scope, address)
            .into_iter()
            .find(|id| self.die(*id).name() == Some(name))
    }

    /// Total number of data DIEs (variables/parameters) in the tree.
    pub fn variable_count(&self) -> usize {
        self.dies.iter().filter(|d| d.tag.is_data()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;

    fn sample() -> (DebugInfo, DieId, DieId, DieId) {
        let mut info = DebugInfo::new("t.c");
        let sub = info.add_die(info.root(), DieTag::Subprogram);
        info.set_attr(sub, Attr::Name, AttrValue::Text("main".into()));
        info.set_attr(sub, Attr::LowPc, AttrValue::Addr(0x100));
        info.set_attr(sub, Attr::HighPc, AttrValue::Addr(0x200));
        let var = info.add_die(sub, DieTag::Variable);
        info.set_attr(var, Attr::Name, AttrValue::Text("x".into()));
        info.set_attr(
            var,
            Attr::Location,
            AttrValue::LocList(vec![LocListEntry::new(0x100, 0x180, Location::Register(2))]),
        );
        let block = info.add_die(sub, DieTag::LexicalBlock);
        info.set_attr(block, Attr::LowPc, AttrValue::Addr(0x140));
        info.set_attr(block, Attr::HighPc, AttrValue::Addr(0x160));
        let inner = info.add_die(block, DieTag::Variable);
        info.set_attr(inner, Attr::Name, AttrValue::Text("y".into()));
        info.set_attr(inner, Attr::ConstValue, AttrValue::Signed(9));
        (info, sub, var, inner)
    }

    #[test]
    fn subprogram_lookup_by_pc() {
        let (info, sub, _, _) = sample();
        assert_eq!(info.subprogram_at(0x100), Some(sub));
        assert_eq!(info.subprogram_at(0x1ff), Some(sub));
        assert_eq!(info.subprogram_at(0x200), None);
    }

    #[test]
    fn scope_variables_respect_lexical_block_ranges() {
        let (info, sub, var, inner) = sample();
        // Outside the block: only x.
        let outside = info.data_dies_in_scope(sub, 0x110);
        assert!(outside.contains(&var));
        assert!(!outside.contains(&inner));
        // Inside the block: both.
        let inside = info.data_dies_in_scope(sub, 0x150);
        assert!(inside.contains(&var));
        assert!(inside.contains(&inner));
    }

    #[test]
    fn find_variable_by_name() {
        let (info, sub, var, _) = sample();
        assert_eq!(info.find_variable(sub, "x", 0x110), Some(var));
        assert_eq!(info.find_variable(sub, "nope", 0x110), None);
        assert!(info.find_variable(sub, "y", 0x150).is_some());
        assert_eq!(info.find_variable(sub, "y", 0x110), None);
    }

    #[test]
    fn attributes_can_be_replaced_and_removed() {
        let (mut info, _, var, _) = sample();
        info.set_attr(var, Attr::Name, AttrValue::Text("renamed".into()));
        assert_eq!(info.die(var).name(), Some("renamed"));
        let removed = info.remove_attr(var, Attr::Location);
        assert!(removed.is_some());
        assert!(info.die(var).attr(Attr::Location).is_none());
    }

    #[test]
    fn inlined_subroutine_lookup() {
        let (mut info, sub, _, _) = sample();
        let inlined = info.add_die(sub, DieTag::InlinedSubroutine);
        info.set_attr(inlined, Attr::LowPc, AttrValue::Addr(0x150));
        info.set_attr(inlined, Attr::HighPc, AttrValue::Addr(0x158));
        assert_eq!(info.innermost_inlined_at(sub, 0x152), Some(inlined));
        assert_eq!(info.innermost_inlined_at(sub, 0x120), None);
    }

    #[test]
    fn variable_count_counts_data_dies() {
        let (info, _, _, _) = sample();
        assert_eq!(info.variable_count(), 2);
    }

    #[test]
    fn from_raw_parts_round_trips_and_rejects_broken_trees() {
        let (info, _, _, _) = sample();
        let dies: Vec<Die> = info.iter().map(|(_, d)| d.clone()).collect();
        let rebuilt = DebugInfo::from_raw_parts(
            dies.clone(),
            info.line_table.clone(),
            info.source_name.clone(),
        )
        .expect("a well-formed tree must reassemble");
        assert_eq!(rebuilt, info);

        assert!(
            DebugInfo::from_raw_parts(Vec::new(), LineTable::new(), "t.c".into()).is_none(),
            "empty tree"
        );
        let mut orphaned = dies.clone();
        orphaned[1].parent = None;
        assert!(
            DebugInfo::from_raw_parts(orphaned, LineTable::new(), "t.c".into()).is_none(),
            "orphaned non-root DIE"
        );
        let mut dangling = dies.clone();
        dangling[0].children.push(DieId(999));
        assert!(
            DebugInfo::from_raw_parts(dangling, LineTable::new(), "t.c".into()).is_none(),
            "dangling child edge"
        );
        let mut mismatched = dies;
        mismatched[1].parent = Some(DieId(2));
        assert!(
            DebugInfo::from_raw_parts(mismatched, LineTable::new(), "t.c".into()).is_none(),
            "parent/children edges must mirror"
        );
    }
}
