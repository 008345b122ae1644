//! Symbol tables: mapping sampled program counters to procedures.
//!
//! The real PowerScope records raw PC/PID pairs during collection and
//! only later "combines these sequences with symbol table information
//! from binaries and shared libraries on the profiling computer". This
//! module reproduces that two-stage structure: each (process, procedure)
//! pair is assigned a synthetic address range; the multimeter samples an
//! address inside the running procedure's range; the offline stage
//! resolves addresses back to names through the table.
//!
//! Resolution is deliberately lossy in the same way the real tool is: a
//! PC that falls outside every known range (e.g. a stripped binary)
//! resolves to `"(unknown)"`.

/// Name given to addresses no symbol covers.
pub const UNKNOWN_PROCEDURE: &str = "(unknown)";

/// Synthetic size of each procedure's text, bytes.
pub(crate) const PROCEDURE_SIZE: u32 = 0x1000;

/// A per-process symbol table: address ranges to procedure names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolTable {
    /// `(start, procedure)` per interned procedure, each spanning
    /// [`PROCEDURE_SIZE`] bytes. [`Self::intern`] only appends at
    /// `next_start`, which only grows, so starts ascend by construction.
    entries: Vec<(u32, &'static str)>,
    next_start: u32,
}

impl Default for SymbolTable {
    /// The same table as [`SymbolTable::new`]: one text base for every
    /// table, whichever way it was made.
    fn default() -> Self {
        SymbolTable::new()
    }
}

impl SymbolTable {
    /// Creates an empty table with a conventional text base.
    pub fn new() -> Self {
        SymbolTable {
            entries: Vec::new(),
            next_start: 0x0040_0000,
        }
    }

    /// Interns a procedure, returning its start address (idempotent).
    pub fn intern(&mut self, procedure: &'static str) -> u32 {
        if let Some(start) = self.start_of(procedure) {
            return start;
        }
        let start = self.next_start;
        self.entries.push((start, procedure));
        self.next_start += PROCEDURE_SIZE;
        start
    }

    /// A representative PC inside `procedure`'s range, offset by `skew`
    /// (the instrument samples arbitrary instructions, not entry points).
    ///
    /// # Panics
    ///
    /// Panics if the procedure was never interned.
    pub fn pc_within(&self, procedure: &'static str, skew: u32) -> u32 {
        let start = self
            .start_of(procedure)
            .unwrap_or_else(|| panic!("procedure {procedure:?} not interned"));
        start + (skew % PROCEDURE_SIZE)
    }

    /// Resolves a PC to the procedure containing it.
    pub fn resolve(&self, pc: u32) -> &'static str {
        self.index_of(pc)
            .map_or(UNKNOWN_PROCEDURE, |i| self.entries[i].1)
    }

    /// Position, in [`Self::procedures`] order, of the procedure whose
    /// range holds `pc`; `None` for a PC no symbol covers.
    pub(crate) fn index_of(&self, pc: u32) -> Option<usize> {
        let i = self
            .entries
            .partition_point(|&(start, _)| start <= pc)
            .checked_sub(1)?;
        (pc < self.entries[i].0 + PROCEDURE_SIZE).then_some(i)
    }

    /// The interned procedures in ascending address order.
    pub(crate) fn procedures(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|&(_, procedure)| procedure)
    }

    /// Number of interned procedures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no procedure has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn start_of(&self, procedure: &str) -> Option<u32> {
        self.entries
            .iter()
            .find(|&&(_, p)| p == procedure)
            .map(|&(start, _)| start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("decode_frame");
        let b = t.intern("decode_frame");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_round_trips_through_pcs() {
        let mut t = SymbolTable::new();
        t.intern("alpha");
        t.intern("beta");
        for skew in [0u32, 1, 0x7ff, 0xfff, 0x12345] {
            assert_eq!(t.resolve(t.pc_within("alpha", skew)), "alpha");
            assert_eq!(t.resolve(t.pc_within("beta", skew)), "beta");
        }
    }

    #[test]
    fn unknown_addresses_resolve_to_unknown() {
        let mut t = SymbolTable::new();
        t.intern("only");
        assert_eq!(t.resolve(0), UNKNOWN_PROCEDURE);
        assert_eq!(t.resolve(0xffff_ffff), UNKNOWN_PROCEDURE);
        // One past the end of the only procedure.
        let end = t.pc_within("only", 0) + PROCEDURE_SIZE;
        assert_eq!(t.resolve(end), UNKNOWN_PROCEDURE);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn pc_of_missing_procedure_panics() {
        SymbolTable::new().pc_within("ghost", 0);
    }

    #[test]
    fn default_table_is_a_new_table() {
        let (mut a, mut b) = (SymbolTable::default(), SymbolTable::new());
        assert_eq!(a, b);
        assert_eq!(a.intern("f"), 0x0040_0000);
        assert_eq!(b.intern("f"), 0x0040_0000);
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.resolve(0x0040_0000), UNKNOWN_PROCEDURE);
    }
}
