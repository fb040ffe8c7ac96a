//! The line table: the mapping from machine addresses to source lines.

/// One row of the line table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRow {
    /// Machine instruction address.
    pub address: u64,
    /// Source line the instruction belongs to.
    pub line: u32,
    /// Whether the address is a recommended breakpoint location for the line
    /// (the DWARF `is_stmt` flag). Debuggers place line breakpoints only at
    /// `is_stmt` addresses.
    pub is_stmt: bool,
}

/// The line table of an executable: a list of rows sorted by address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineTable {
    rows: Vec<LineRow>,
}

impl LineTable {
    /// Create an empty line table.
    pub fn new() -> LineTable {
        LineTable::default()
    }

    /// Append a row. Rows may be pushed in any order; they are kept sorted by
    /// address internally, a row after every row of its address.
    pub fn push(&mut self, row: LineRow) {
        if self
            .rows
            .last()
            .is_none_or(|last| last.address <= row.address)
        {
            // Code generation emits rows in address order.
            self.rows.push(row);
            return;
        }
        let pos = self.rows.partition_point(|r| r.address <= row.address);
        self.rows.insert(pos, row);
    }

    /// Reserve room for at least `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// All rows, sorted by address.
    pub fn rows(&self) -> &[LineRow] {
        &self.rows
    }

    /// The source line mapped to an address, if any (the row with the
    /// greatest address less than or equal to `address`).
    pub fn line_for_address(&self, address: u64) -> Option<u32> {
        let idx = self.rows.partition_point(|r| r.address <= address);
        idx.checked_sub(1).map(|i| self.rows[i].line)
    }

    /// The set of distinct source lines that have at least one `is_stmt`
    /// address — the lines a debugger can step on.
    pub fn steppable_lines(&self) -> Vec<u32> {
        let mut lines: Vec<u32> = self
            .rows
            .iter()
            .filter(|r| r.is_stmt)
            .map(|r| r.line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// The first `is_stmt` address of a line, if the line is steppable. This
    /// is where the paper's methodology places its one-shot breakpoints.
    pub fn first_address_of_line(&self, line: u32) -> Option<u64> {
        self.rows
            .iter()
            .filter(|r| r.is_stmt && r.line == line)
            .map(|r| r.address)
            .min()
    }

    /// Every breakpoint site of the table in one pass — the bulk form of
    /// [`LineTable::first_address_of_line`] and
    /// [`LineTable::steppable_lines`] used when a consumer (the debugger's
    /// stop-plan precomputation) needs the whole mapping rather than one
    /// line.
    ///
    /// Returns the address-ordered `(address, line)` pairs, one per
    /// distinct first `is_stmt` address (when several lines start at the
    /// same address, the lowest line wins), together with the steppable
    /// lines. Rows are already address-ordered, so a line's first
    /// occurrence is its first address: one walk over the rows keeps the
    /// lines seen so far sorted, and since lines mostly ascend with the
    /// address, most insertions are appends.
    pub fn first_stmt_addresses(&self) -> (Vec<(u64, u32)>, Vec<u32>) {
        let mut lines: Vec<u32> = Vec::new();
        let mut sites: Vec<(u64, u32)> = Vec::new();
        for row in self.rows.iter().filter(|r| r.is_stmt) {
            let Err(index) = lines.binary_search(&row.line) else {
                continue;
            };
            lines.insert(index, row.line);
            match sites.last_mut() {
                Some(last) if last.0 == row.address => last.1 = last.1.min(row.line),
                _ => sites.push((row.address, row.line)),
            }
        }
        (sites, lines)
    }

    /// All `is_stmt` addresses of a line (loop unrolling can produce several).
    pub fn addresses_of_line(&self, line: u32) -> Vec<u64> {
        self.rows
            .iter()
            .filter(|r| r.is_stmt && r.line == line)
            .map(|r| r.address)
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LineTable {
        let mut t = LineTable::new();
        t.push(LineRow {
            address: 0x100,
            line: 5,
            is_stmt: true,
        });
        t.push(LineRow {
            address: 0x104,
            line: 5,
            is_stmt: false,
        });
        t.push(LineRow {
            address: 0x108,
            line: 6,
            is_stmt: true,
        });
        t.push(LineRow {
            address: 0x110,
            line: 5,
            is_stmt: true,
        });
        t
    }

    #[test]
    fn rows_are_kept_sorted() {
        let mut t = LineTable::new();
        t.push(LineRow {
            address: 0x20,
            line: 2,
            is_stmt: true,
        });
        t.push(LineRow {
            address: 0x10,
            line: 1,
            is_stmt: true,
        });
        t.push(LineRow {
            address: 0x30,
            line: 3,
            is_stmt: true,
        });
        // Equal addresses keep push order, out of order and in order.
        for (address, line) in [(0x20, 4), (0x30, 5)] {
            t.push(LineRow {
                address,
                line,
                is_stmt: false,
            });
        }
        let rows: Vec<(u64, u32)> = t.rows().iter().map(|r| (r.address, r.line)).collect();
        assert_eq!(
            rows,
            vec![(0x10, 1), (0x20, 2), (0x20, 4), (0x30, 3), (0x30, 5)]
        );
    }

    #[test]
    fn line_for_address_uses_preceding_row() {
        let t = table();
        assert_eq!(t.line_for_address(0x100), Some(5));
        assert_eq!(t.line_for_address(0x106), Some(5));
        assert_eq!(t.line_for_address(0x108), Some(6));
        assert_eq!(t.line_for_address(0x0ff), None);
    }

    #[test]
    fn steppable_lines_are_unique_and_sorted() {
        let t = table();
        assert_eq!(t.steppable_lines(), vec![5, 6]);
    }

    #[test]
    fn first_address_of_line_is_minimum_stmt_address() {
        let t = table();
        assert_eq!(t.first_address_of_line(5), Some(0x100));
        assert_eq!(t.first_address_of_line(6), Some(0x108));
        assert_eq!(t.first_address_of_line(7), None);
    }

    #[test]
    fn addresses_of_line_lists_all_stmt_rows() {
        let t = table();
        assert_eq!(t.addresses_of_line(5), vec![0x100, 0x110]);
    }

    #[test]
    fn bulk_first_addresses_agree_with_the_per_line_lookup() {
        let mut t = table();
        // Line 4 starts at line 6's first address: the lowest line wins the
        // site, and both stay steppable.
        t.push(LineRow {
            address: 0x108,
            line: 4,
            is_stmt: true,
        });
        let (sites, lines) = t.first_stmt_addresses();
        assert_eq!(lines, t.steppable_lines());
        assert_eq!(sites, vec![(0x100, 5), (0x108, 4)]);
        for line in t.steppable_lines() {
            let first = t.first_address_of_line(line).unwrap();
            let site = sites.iter().find(|&&(address, _)| address == first);
            assert!(site.is_some_and(|&(_, winner)| winner <= line));
        }
        assert_eq!(LineTable::new().first_stmt_addresses(), (vec![], vec![]));
    }
}
