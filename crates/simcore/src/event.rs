//! Event queue with deterministic tie-breaking.
//!
//! Discrete-event simulation requires a total order over pending events.
//! Two events scheduled for the same instant are ordered by the sequence in
//! which they were pushed, so a run is a pure function of its inputs and
//! seed — a property every experiment in this workspace relies on when it
//! reports "mean of five trials" over seeded repetitions.
//!
//! An event may also be pushed late at an earlier place in that order.
//! [`EventQueue::mark`] returns the place the next push would take, an
//! [`Order`], without taking it; [`EventQueue::push_at_mark`] later
//! queues an event there. At its instant it fires after every push made
//! before the mark and before every push made after it, exactly where it
//! would have fired had it been pushed when the mark was taken. The
//! machine keeps an uncontended CPU run's quantum ends outside the queue
//! this way and queues a real one only when the run is interrupted, with
//! every event firing in the order per-quantum pushes would give.
//!
//! The pending events live in one `Vec` sorted by descending
//! `(at, order)`, so the next event to fire is the last element: `pop` is
//! `Vec::pop` and `peek_time` reads `last`. A `push` strictly before every
//! pending event appends at the firing end without a search; 55–59% of
//! pushes in the chaos and supervise sweeps land there. Any other `push`,
//! a tie with the earliest included, finds its slot with a binary search
//! and shifts the entries that fire before it; `cancel` scans from the
//! firing end for its entry and removes it at once. Both are linear, and
//! both are cheap because the queue stays shallow. The machine arms and
//! cancels constantly — every RPC arms a timeout and cancels it on
//! completion, and every relink and dim reset cancels too: 12.4 M pushes
//! and 1.9 M cancels in one default chaos sweep — yet the live set peaks
//! at 9 events in chaos, 7 in supervise, 6 in the other goal-directed
//! figures, 5 in fig15 and 2 elsewhere. On average a push shifts 0–1.4
//! entries and a cancel scans 2–5.9, which costs less than the sifts a
//! binary heap pays on every push and pop, and a cancelled event leaves
//! at once, so `pop` and `peek_time` never skip dead entries.

use crate::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::SimTime;

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

/// An event's place among the events of one instant: a push made later
/// takes a later place. Push `n` (counting from 0) holds `2n + 1`; a
/// mark taken before push `n` holds `2n`, so it sits after every earlier
/// push and before push `n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Order(u64);

impl Order {
    /// The underlying place; treat as opaque.
    pub fn raw(self) -> u64 {
        self.0
    }

    fn of_push(seq: u64) -> Order {
        Order(2 * seq + 1)
    }

    fn of_mark(next_seq: u64) -> Order {
        Order(2 * next_seq)
    }
}

impl Codec for Order {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Order(r.take()?))
    }
}

struct Entry<E> {
    at: SimTime,
    order: Order,
    event: E,
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
    /// Pending entries sorted by descending `(at, seq)`: the next to fire
    /// is last.
    entries: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
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
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at instant `at` and returns a cancellation handle.
    pub fn push(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            at,
            order: Order::of_push(seq),
            event,
        };
        if self.entries.last().is_none_or(|e| e.at > at) {
            // Strictly before everything pending: it fires next.
            self.entries.push(entry);
        } else {
            // Its order is the largest yet, so the new entry goes in front
            // of (fires after) every earlier entry at the same instant.
            let slot = self.entries.partition_point(|e| e.at > at);
            self.entries.insert(slot, entry);
        }
        EventId(seq)
    }

    /// The place the next [`Self::push`] would take, without taking it;
    /// see [`Self::push_at_mark`].
    #[inline]
    pub fn mark(&self) -> Order {
        Order::of_mark(self.next_seq)
    }

    /// Schedules `event` at instant `at` in the place `mark` holds: at
    /// that instant it fires after every push made before the mark was
    /// taken and before every push made after. It takes no sequence
    /// number and cannot be cancelled. A mark serves one pending event at
    /// a time: [`Self::restore`] refuses two entries in one place.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is past every place this queue has handed out.
    pub fn push_at_mark(&mut self, at: SimTime, event: E, mark: Order) {
        assert!(mark <= self.mark(), "{mark:?} is not a mark of this queue");
        let key = (at, mark);
        let slot = self.entries.partition_point(|e| (e.at, e.order) > key);
        self.entries.insert(
            slot,
            Entry {
                at,
                order: mark,
                event,
            },
        );
    }

    /// Removes and returns the earliest pending event.
    ///
    /// Events scheduled for the same instant pop in push order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.entries.pop().map(|e| (e.at, e.event))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| e.at)
    }

    /// The instant and place of the earliest pending event, if any: an
    /// event kept outside the queue at `(at, mark)` fires before it iff
    /// `(at, mark)` is the smaller.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, Order)> {
        self.entries.last().map(|e| (e.at, e.order))
    }

    /// Cancels a previously-scheduled event.
    ///
    /// Returns `true` if the event was pending and is now cancelled, `false`
    /// if it had already fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let order = Order::of_push(id.0);
        let Some(i) = self.entries.iter().rposition(|e| e.order == order) else {
            return false;
        };
        self.entries.remove(i);
        true
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pending entries as `(at, order, event)`, sorted by `(at, order)` —
    /// the canonical order a snapshot encodes.
    pub fn export_entries(&self) -> Vec<(SimTime, Order, E)>
    where
        E: Clone,
    {
        self.entries
            .iter()
            .rev()
            .map(|e| (e.at, e.order, e.event.clone()))
            .collect()
    }

    /// The next sequence number a [`Self::push`] would consume — part of
    /// the snapshot alongside [`Self::export_entries`], so restored
    /// handles stay unique.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds a queue from a snapshot: `next_seq` plus the pending
    /// entries in any order. Fails if `next_seq` has no place (it must
    /// stay below 2^63), or if an entry holds a push's place at or beyond
    /// `next_seq`, a mark's place beyond it, or the place of another
    /// entry.
    pub fn restore(
        next_seq: u64,
        entries: impl IntoIterator<Item = (SimTime, Order, E)>,
    ) -> Result<Self, SnapshotError> {
        if next_seq > u64::MAX / 2 {
            return Err(SnapshotError::Corrupt("next_seq out of range"));
        }
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for (at, order, event) in entries {
            if order > Order::of_mark(next_seq) {
                return Err(SnapshotError::Corrupt("event seq beyond next_seq"));
            }
            if !seen.insert(order) {
                return Err(SnapshotError::Corrupt("duplicate event seq"));
            }
            out.push(Entry { at, order, event });
        }
        out.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.order)));
        Ok(EventQueue {
            entries: out,
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

    /// A push strictly before the earliest pending event appends and
    /// fires first; a push tying the earliest fires after it, in push
    /// order, like every other tie.
    #[test]
    fn ties_at_the_firing_end_keep_push_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "e");
        q.push(SimTime::from_secs(3), "b"); // before 5 s: appends
        q.push(SimTime::from_secs(3), "c"); // ties the earliest
        q.push(SimTime::from_secs(1), "a1"); // before 3 s: appends
        q.push(SimTime::from_secs(3), "d"); // ties behind the firing end
        q.push(SimTime::from_secs(1), "a2"); // ties the earliest
        q.push(SimTime::from_secs(1), "a3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a1", "a2", "a3", "b", "c", "d", "e"]);
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
    fn debug_reports_live_count() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(2), 'a');
        q.push(SimTime::from_secs(3), 'b');
        q.cancel(id);
        assert_eq!(format!("{q:?}"), "EventQueue { len: 1, .. }");
    }

    /// Endless arm-and-cancel churn around a fixed live set — the
    /// machine's RPC-timeout pattern — leaves the queue holding exactly
    /// the live set, and a snapshot taken mid-churn restores to the same
    /// future.
    #[test]
    fn cancel_churn_keeps_only_the_live_set() {
        const LIVE: usize = 8;
        let mut q = EventQueue::new();
        for i in 0..LIVE as u64 {
            q.push(SimTime::from_secs(1_000_000 + i), i);
        }
        let mut snapshot = None;
        for i in 0..100_000u64 {
            // Timers land in the past and the future of the live set, so
            // cancels hit the firing end as well as entries behind it.
            let at = SimTime::from_secs((i * 7_919) % 2_000_000);
            let id = q.push(at, LIVE as u64 + i);
            assert!(q.cancel(id));
            assert_eq!(q.entries.len(), LIVE, "entries held at cycle {i}");
            if i % 3 == 0 {
                assert_eq!(q.peek_time(), Some(SimTime::from_secs(1_000_000)));
            }
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

    /// `restore` accepts its entries in any order: a seeded shuffle of an
    /// export, ties at one instant included, rebuilds a queue that pops
    /// the same events in the same order and hands out the same next
    /// `EventId`.
    #[test]
    fn restore_from_shuffled_entries_matches_the_original() {
        let drain = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        let mut rng = crate::rng::SimRng::new(25);
        for case in 0..64 {
            let mut q = EventQueue::new();
            let mut ids = Vec::new();
            for i in 0..rng.uniform_u64(0, 40) {
                ids.push(q.push(SimTime::from_micros(rng.uniform_u64(0, 9)), i));
            }
            for id in ids {
                if rng.bernoulli(0.3) {
                    assert!(q.cancel(id));
                }
            }
            let mut entries = q.export_entries();
            for i in (1..entries.len()).rev() {
                let j = rng.uniform_u64(0, i as u64) as usize;
                entries.swap(i, j);
            }
            let mut back = EventQueue::restore(q.next_seq(), entries).expect("restore");
            assert_eq!(back.export_entries(), q.export_entries(), "case {case}");
            let (fresh, want) = (back.push(SimTime::ZERO, 0), q.push(SimTime::ZERO, 0));
            assert_eq!(fresh, want, "case {case}: next EventId");
            assert_eq!(drain(&mut back), drain(&mut q), "case {case}");
        }
    }

    #[test]
    fn restore_rejects_inconsistent_sequences() {
        let dup = [
            (SimTime::from_secs(1), Order::of_push(0), 'a'),
            (SimTime::from_secs(2), Order::of_push(0), 'b'),
        ];
        assert!(EventQueue::restore(5, dup).is_err());
        let beyond = [(SimTime::from_secs(1), Order::of_push(7), 'a')];
        assert!(EventQueue::restore(5, beyond).is_err());
        let at_next = [(SimTime::from_secs(1), Order::of_push(5), 'a')];
        assert!(EventQueue::restore(5, at_next).is_err());
        let mark_beyond = [(SimTime::from_secs(1), Order::of_mark(6), 'a')];
        assert!(EventQueue::restore(5, mark_beyond).is_err());
        let mark_at_next = [(SimTime::from_secs(1), Order::of_mark(5), 'a')];
        assert!(EventQueue::restore(5, mark_at_next).is_ok());
        assert!(EventQueue::<char>::restore(u64::MAX / 2, []).is_ok());
        assert!(EventQueue::<char>::restore(u64::MAX / 2 + 1, []).is_err());
    }

    /// An event pushed at a mark fires, at its instant, after the pushes
    /// made before the mark and before those made after it, however late
    /// it is pushed, and a snapshot keeps its place.
    #[test]
    fn a_marked_push_fires_where_the_mark_was_taken() {
        let t = SimTime::from_secs(1);
        let mut q = EventQueue::new();
        q.push(t, "before");
        let mark = q.mark();
        q.push(t, "after");
        q.push(SimTime::from_secs(2), "later");
        assert!(q.peek_key() < Some((t, mark)));
        q.push_at_mark(t, "marked", mark);
        assert_eq!(q.mark(), Order::of_mark(3), "a marked push takes no seq");
        let mut back = EventQueue::restore(q.next_seq(), q.export_entries()).expect("restore");
        for q in [&mut q, &mut back] {
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, ["before", "marked", "after", "later"]);
        }
    }

    #[test]
    #[should_panic(expected = "is not a mark of this queue")]
    fn a_mark_from_the_future_panics() {
        let mut q = EventQueue::new();
        q.push_at_mark(SimTime::ZERO, 'a', Order::of_mark(1));
    }
}
