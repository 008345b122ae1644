//! Raw sample streams.
//!
//! Data collection produces two correlated streams: current levels from
//! the multimeter and PC/PID observations from the system monitor. We keep
//! them zipped in one [`Sample`] per trigger, mirroring the paper's
//! trigger-synchronised design (the multimeter's trigger output drives the
//! PC/PID sampler). A sample carries *raw program counters* — one per
//! call-stack frame, leaf last; procedure names only appear after the
//! offline stage resolves the PCs through the symbol tables collected
//! alongside ([`CollectedRun`]).

use std::collections::BTreeMap;

use simcore::{Hertz, SimTime};

use crate::symbols::SymbolTable;

/// Deepest call stack a sample can carry. Matches the workload models'
/// declared call-tree depth; frames above a deeper stack's capacity are
/// dropped root-first so the leaf always survives.
pub const MAX_STACK_DEPTH: usize = 4;

/// The raw program counters captured at one trigger, root frame first,
/// leaf (the running procedure) last. A fixed-capacity value type so
/// samples stay `Copy` and the collector never allocates per trigger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStack {
    depth: u8,
    pcs: [u32; MAX_STACK_DEPTH],
}

impl CallStack {
    /// A single-frame stack: just the leaf PC (a stripped binary, or a
    /// run collected without frame resolution).
    pub fn leaf_only(pc: u32) -> Self {
        let mut s = CallStack::default();
        s.push(pc);
        s
    }

    /// Appends one frame below the current deepest. When the stack is
    /// full the *root* frame is dropped to make room: the leaf is what
    /// flat correlation resolves, so it must always survive.
    pub fn push(&mut self, pc: u32) {
        if (self.depth as usize) == MAX_STACK_DEPTH {
            self.pcs.rotate_left(1);
            self.pcs[MAX_STACK_DEPTH - 1] = pc;
            return;
        }
        self.pcs[self.depth as usize] = pc;
        self.depth += 1;
    }

    /// This stack with `offset` added to every frame: a template of
    /// range starts becomes the PCs one trigger captured.
    pub(crate) fn shifted(mut self, offset: u32) -> Self {
        for pc in &mut self.pcs[..self.depth as usize] {
            *pc += offset;
        }
        self
    }

    /// The captured frames, root first.
    pub fn frames(&self) -> &[u32] {
        &self.pcs[..self.depth as usize]
    }

    /// The leaf frame's PC (0 for an empty stack).
    pub fn leaf(&self) -> u32 {
        self.frames().last().copied().unwrap_or(0)
    }

    /// Number of captured frames.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }
}

/// One correlated (current, PC/PID) observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Sample instant.
    pub at: SimTime,
    /// Current drawn from the supply, A.
    pub current_a: f64,
    /// Process the PID monitor attributed the instant to.
    pub process: &'static str,
    /// Raw program counters captured at the trigger, root frame first.
    pub stack: CallStack,
}

impl Sample {
    /// The leaf program counter — what the original single-PC sampler
    /// captured, and what flat correlation resolves.
    pub fn pc(&self) -> u32 {
        self.stack.leaf()
    }
}

/// The product of one data-collection run.
#[derive(Clone, Debug, Default)]
pub struct RawTrace {
    /// Samples in time order.
    pub samples: Vec<Sample>,
    /// End of the observation window (profiling stops here even if the
    /// last sample is earlier).
    pub end: SimTime,
}

/// Everything one data-collection session produces: the raw sample
/// streams plus the per-process symbol tables needed to resolve PCs.
#[derive(Clone, Debug, Default)]
pub struct CollectedRun {
    /// The correlated sample streams.
    pub trace: RawTrace,
    /// Per-process symbol tables, keyed by process name.
    pub symbols: BTreeMap<&'static str, SymbolTable>,
}

impl RawTrace {
    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean sampling rate over the trace.
    pub fn mean_rate_hz(&self) -> Hertz {
        let [first, .., last] = self.samples.as_slice() else {
            return Hertz::ZERO;
        };
        let span = last.at.since(first.at).as_secs_f64();
        if span <= 0.0 {
            Hertz::ZERO
        } else {
            Hertz((self.samples.len() - 1) as f64 / span)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate() {
        let mut t = RawTrace::default();
        for i in 0..11 {
            t.samples.push(Sample {
                at: SimTime::from_micros(i * 100_000),
                current_a: 1.0,
                process: "p",
                stack: CallStack::leaf_only(0),
            });
        }
        t.end = SimTime::from_secs(1);
        assert_eq!(t.len(), 11);
        assert!((t.mean_rate_hz() - Hertz(10.0)).abs() < Hertz(1e-9));
    }

    #[test]
    fn degenerate_traces() {
        let t = RawTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_rate_hz(), Hertz(0.0));
        let mut one = RawTrace::default();
        one.samples.push(Sample {
            at: SimTime::ZERO,
            current_a: 1.0,
            process: "p",
            stack: CallStack::leaf_only(0),
        });
        assert_eq!(one.mean_rate_hz(), Hertz(0.0));
    }

    #[test]
    fn stack_keeps_frames_root_first() {
        let mut s = CallStack::default();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.leaf(), 0);
        s.push(10);
        s.push(20);
        s.push(30);
        assert_eq!(s.frames(), &[10, 20, 30]);
        assert_eq!(s.leaf(), 30);
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn overfull_stack_drops_the_root_not_the_leaf() {
        let mut s = CallStack::default();
        for pc in [1, 2, 3, 4, 5, 6] {
            s.push(pc);
        }
        assert_eq!(s.frames(), &[3, 4, 5, 6]);
        assert_eq!(s.leaf(), 6);
    }

    #[test]
    fn leaf_only_is_one_deep() {
        let s = CallStack::leaf_only(0xbeef);
        assert_eq!(s.frames(), &[0xbeef]);
        assert_eq!(s.leaf(), 0xbeef);
    }
}
