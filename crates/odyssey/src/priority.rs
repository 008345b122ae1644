//! Application priorities (Section 5.1.3).
//!
//! "When multiple applications are executing concurrently, Odyssey must
//! decide which to notify. A simple scheme based on user-specified
//! priorities is used for this ... Odyssey always tries to degrade a
//! lower-priority application before degrading a higher-priority one —
//! upgrades occur in the reverse order."
//!
//! The paper's priorities were static, with a dynamic-priority interface
//! listed as in progress; this table is static too.

use machine::Pid;

/// A total priority order over processes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PriorityTable {
    /// Process ids from lowest priority to highest.
    order: Vec<Pid>,
}

impl PriorityTable {
    /// Creates a table from pids ordered lowest-priority first.
    ///
    /// # Panics
    ///
    /// Panics if a pid appears twice.
    pub fn new(lowest_first: Vec<Pid>) -> Self {
        for (i, p) in lowest_first.iter().enumerate() {
            assert!(
                !lowest_first[i + 1..].contains(p),
                "duplicate pid in priority table"
            );
        }
        PriorityTable {
            order: lowest_first,
        }
    }

    /// Pids in degrade order (lowest priority first).
    pub fn degrade_order(&self) -> impl Iterator<Item = Pid> + '_ {
        self.order.iter().copied()
    }

    /// Pids in upgrade order (highest priority first).
    pub fn upgrade_order(&self) -> impl Iterator<Item = Pid> + '_ {
        self.order.iter().rev().copied()
    }

    /// Number of processes in the table.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::workload::ScriptedWorkload;
    use machine::{Machine, MachineConfig};

    fn pids(n: usize) -> Vec<Pid> {
        let mut m = Machine::new(MachineConfig::baseline());
        (0..n)
            .map(|_| m.add_process(Box::new(ScriptedWorkload::new("p", vec![]))))
            .collect()
    }

    #[test]
    fn degrade_and_upgrade_orders_are_reversed() {
        let ps = pids(4);
        let t = PriorityTable::new(ps.clone());
        let down: Vec<Pid> = t.degrade_order().collect();
        let up: Vec<Pid> = t.upgrade_order().collect();
        assert_eq!(down, ps);
        let mut rev = ps.clone();
        rev.reverse();
        assert_eq!(up, rev);
    }

    #[test]
    fn ranks() {
        let ps = pids(3);
        let t = PriorityTable::new(ps);
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate pid")]
    fn duplicates_rejected() {
        let ps = pids(1);
        let _ = PriorityTable::new(vec![ps[0], ps[0]]);
    }

    #[test]
    fn empty_table() {
        let t = PriorityTable::default();
        assert!(t.is_empty());
        assert_eq!(t.degrade_order().count(), 0);
    }
}
