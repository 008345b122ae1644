//! Event queue with deterministic tie-breaking.
//!
//! Discrete-event simulation requires a total order over pending events.
//! Two events scheduled for the same instant are ordered by the sequence in
//! which they were pushed, so a run is a pure function of its inputs and
//! seed — a property every experiment in this workspace relies on when it
//! reports "mean of five trials" over seeded repetitions.
//!
//! Cancellation is lazy. A cancelled event stays in the heap and its
//! sequence number goes on a short sorted tombstone list; `pop` and
//! `peek_time` discard a tombstoned top as they meet it. The machine
//! cancels far more than it fires — every RPC arms a timeout and cancels
//! it on completion, and every relink and dim reset cancels too, tens of
//! thousands of cancels per goal-directed run against a handful of live
//! events — so once tombstones outnumber live events by
//! `COMPACT_SLACK`, one `retain` sweeps them all out, keeping the heap
//! within `2·live + COMPACT_SLACK` entries.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::SimTime;

/// Tombstones allowed beyond the live count before the heap is compacted.
const COMPACT_SLACK: usize = 16;

/// A handle that identifies a scheduled event so it can be cancelled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// The underlying sequence number; treat as opaque.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Codec for EventId {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EventId(r.take()?))
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse so the earliest (time, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "sooner"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of cancelled entries still in `heap`, ascending.
    tombstones: Vec<u64>,
    next_seq: u64,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("tombstones", &self.tombstones.len())
            .finish_non_exhaustive()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            tombstones: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at instant `at` and returns a cancellation handle.
    pub fn push(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        EventId(seq)
    }

    /// Removes and returns the earliest pending event.
    ///
    /// Events scheduled for the same instant pop in push order. Cancelled
    /// events are skipped.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.tombstones.is_empty() {
            self.discard_cancelled_top();
        }
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.tombstones.is_empty() {
            self.discard_cancelled_top();
        }
        self.heap.peek().map(|e| e.at)
    }

    /// Pops tombstoned entries off the top until a live one (or nothing)
    /// is left there.
    fn discard_cancelled_top(&mut self) {
        while let Some(top) = self.heap.peek() {
            let Ok(i) = self.tombstones.binary_search(&top.seq) else {
                return;
            };
            self.tombstones.remove(i);
            self.heap.pop();
        }
    }

    /// Cancels a previously-scheduled event.
    ///
    /// Returns `true` if the event was pending and is now cancelled, `false`
    /// if it had already fired or been cancelled. The check is a read-only
    /// scan of the heap, which compaction keeps O(live); the entry itself
    /// leaves the heap when it reaches the top or at the next compaction.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Err(slot) = self.tombstones.binary_search(&id.0) else {
            return false;
        };
        if !self.heap.iter().any(|e| e.seq == id.0) {
            return false;
        }
        self.tombstones.insert(slot, id.0);
        if self.tombstones.len() > self.len() + COMPACT_SLACK {
            let dead = std::mem::take(&mut self.tombstones);
            self.heap.retain(|e| dead.binary_search(&e.seq).is_err());
        }
        true
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending (non-cancelled) entries as `(at, seq, event)`, sorted by
    /// `(at, seq)` — the heap's internal layout is unspecified, so this
    /// is the canonical order a snapshot encodes.
    pub fn export_entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut out: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .filter(|e| self.tombstones.binary_search(&e.seq).is_err())
            .map(|e| (e.at, e.seq, e.event.clone()))
            .collect();
        out.sort_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// The next sequence number a [`Self::push`] would consume — part of
    /// the snapshot alongside [`Self::export_entries`], so restored
    /// handles stay unique.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds a queue from a snapshot: `next_seq` plus the pending
    /// entries in any order. Fails if an entry's sequence number is not
    /// strictly below `next_seq` or appears twice.
    pub fn restore(
        next_seq: u64,
        entries: impl IntoIterator<Item = (SimTime, u64, E)>,
    ) -> Result<Self, SnapshotError> {
        let mut heap = BinaryHeap::new();
        let mut seen = std::collections::BTreeSet::new();
        for (at, seq, event) in entries {
            if seq >= next_seq {
                return Err(SnapshotError::Corrupt("event seq beyond next_seq"));
            }
            if !seen.insert(seq) {
                return Err(SnapshotError::Corrupt("duplicate event seq"));
            }
            heap.push(Entry { at, seq, event });
        }
        Ok(EventQueue {
            heap,
            tombstones: Vec::new(),
            next_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let id_a = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(id_a));
        assert!(!q.cancel(id_a), "double cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn debug_reports_live_and_tombstone_counts() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(2), 'a');
        q.push(SimTime::from_secs(3), 'b');
        q.cancel(id);
        assert_eq!(format!("{q:?}"), "EventQueue { len: 1, tombstones: 1, .. }");
    }

    /// Endless arm-and-cancel churn around a fixed live set — the
    /// machine's RPC-timeout pattern — keeps the heap O(live), and a
    /// snapshot taken mid-churn restores to the same future.
    #[test]
    fn cancel_churn_keeps_the_heap_bounded() {
        const LIVE: usize = 8;
        let mut q = EventQueue::new();
        for i in 0..LIVE as u64 {
            q.push(SimTime::from_secs(1_000_000 + i), i);
        }
        let mut snapshot = None;
        for i in 0..100_000u64 {
            // Timers land in the past and the future of the live set, so
            // tombstones reach the top as well as sink below it.
            let at = SimTime::from_secs((i * 7_919) % 2_000_000);
            let id = q.push(at, LIVE as u64 + i);
            assert!(q.cancel(id));
            assert_eq!(q.len(), LIVE);
            if i % 3 == 0 {
                assert_eq!(q.peek_time(), Some(SimTime::from_secs(1_000_000)));
            }
            assert!(
                q.heap.len() <= 2 * LIVE + COMPACT_SLACK,
                "heap holds {} entries for {LIVE} live at cycle {i}",
                q.heap.len()
            );
            if i == 50_000 {
                let entries = q.export_entries();
                snapshot = Some(EventQueue::restore(q.next_seq(), entries).expect("restore"));
            }
        }
        let mut restored = snapshot.expect("snapshot taken mid-churn");
        let drain = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        let want = drain(&mut q);
        assert_eq!(want.len(), LIVE);
        assert_eq!(drain(&mut restored), want);
    }

    #[test]
    fn export_restore_round_trip_preserves_order_and_handles() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        let id = q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        q.cancel(id);
        let entries = q.export_entries();
        assert_eq!(entries.len(), 2, "cancelled entries are not exported");
        let mut back = EventQueue::restore(q.next_seq(), entries).expect("restore");
        assert_eq!(back.len(), 2);
        // New pushes get fresh handles beyond everything restored.
        let fresh = back.push(SimTime::from_secs(0), 'z');
        assert_eq!(fresh.raw(), 3);
        let order: Vec<char> = std::iter::from_fn(|| back.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['z', 'b', 'c']);
    }

    #[test]
    fn restore_rejects_inconsistent_sequences() {
        let dup = [
            (SimTime::from_secs(1), 0u64, 'a'),
            (SimTime::from_secs(2), 0u64, 'b'),
        ];
        assert!(EventQueue::restore(5, dup).is_err());
        let beyond = [(SimTime::from_secs(1), 7u64, 'a')];
        assert!(EventQueue::restore(5, beyond).is_err());
    }
}
