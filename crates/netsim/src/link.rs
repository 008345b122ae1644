//! Processor-sharing link model.
//!
//! All concurrently-active flows split the link capacity equally. The
//! model is exact (fluid approximation): between flow arrivals and
//! departures each flow drains at `capacity / n`, and the machine asks the
//! link for the next departure instant to schedule its completion event.
//!
//! Invariants maintained:
//! - bytes are conserved: a flow departs exactly when its bytes are done;
//! - `advance` is idempotent at a fixed instant;
//! - the earliest completion reported never precedes `now`.

use std::collections::VecDeque;

use simcore::{
    Codec, SimDuration, SimTime, SnapshotError, SnapshotReader, SnapshotWriter, TraceEvent,
    TraceHandle,
};

/// Identifies one flow on a link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

impl Codec for FlowId {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.0);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FlowId(r.take()?))
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Flow {
    id: FlowId,
    remaining_bits: f64,
}

/// A flow's remaining bits must be finite and non-negative.
impl Codec for Flow {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.id);
        w.put(&self.remaining_bits);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let flow = Flow {
            id: r.take()?,
            remaining_bits: r.take()?,
        };
        if !flow.remaining_bits.is_finite() || flow.remaining_bits < 0.0 {
            return Err(SnapshotError::Corrupt("flow remaining bits"));
        }
        Ok(flow)
    }
}

/// A shared link with equal-share (processor-sharing) bandwidth allocation.
///
/// # Examples
///
/// ```
/// use netsim::SharedLink;
/// use simcore::SimTime;
///
/// let mut link = SharedLink::new(2.0e6);
/// let t0 = SimTime::ZERO;
/// let f = link.start_flow(t0, 250_000); // 1 Mbit over a 2 Mb/s link
/// let (done, id) = link.next_completion(t0).unwrap();
/// assert_eq!(id, f);
/// assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct SharedLink {
    capacity_bps: f64,
    /// Multiplier on capacity for fault modelling: 1.0 is a healthy link,
    /// values in (0, 1) are bandwidth dips, 0.0 is a full outage (flows
    /// stall but are not lost).
    rate_factor: f64,
    flows: Vec<Flow>,
    completed: VecDeque<FlowId>,
    last_advance: SimTime,
    next_id: u64,
    total_bytes_carried: u64,
    trace: Option<TraceHandle>,
}

impl SharedLink {
    /// Creates a link with the given capacity in bits per second.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is positive and finite.
    pub fn new(capacity_bps: f64) -> Self {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "invalid link capacity: {capacity_bps}"
        );
        SharedLink {
            capacity_bps,
            rate_factor: 1.0,
            flows: Vec::new(),
            completed: VecDeque::new(),
            last_advance: SimTime::ZERO,
            next_id: 0,
            total_bytes_carried: 0,
            trace: None,
        }
    }

    /// Attaches a simtrace handle: flow admissions/departures and rate
    /// transitions are emitted as typed events from now on.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Link capacity, bits per second.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Number of flows currently in progress.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes carried since creation (for utilization reporting).
    pub fn total_bytes_carried(&self) -> u64 {
        self.total_bytes_carried
    }

    /// Current capacity multiplier (see [`SharedLink::set_rate_factor`]).
    #[inline]
    pub fn rate_factor(&self) -> f64 {
        self.rate_factor
    }

    /// The instant the fluid model was last advanced to.
    pub fn last_advance(&self) -> SimTime {
        self.last_advance
    }

    /// Changes the link's effective capacity at `now` — the fault hook.
    ///
    /// The fluid model is advanced to `now` under the old factor first, so
    /// a fault transition never rewrites history. A factor of `0.0`
    /// freezes all in-flight flows (an outage); they resume, with their
    /// remaining bytes intact, when the factor becomes positive again.
    ///
    /// # Panics
    ///
    /// Panics unless the factor is finite and in `[0, 1]`.
    pub fn set_rate_factor(&mut self, now: SimTime, factor: f64) {
        assert!(
            factor.is_finite() && (0.0..=1.0).contains(&factor),
            "invalid rate factor: {factor}"
        );
        self.advance(now);
        self.rate_factor = factor;
        if let Some(tr) = &self.trace {
            tr.emit(
                now,
                TraceEvent::LinkRate {
                    factor,
                    active: self.flows.len() as u64,
                },
            );
        }
    }

    /// Advances the fluid model to `now`, draining every active flow at its
    /// current share. Flows that finish are moved to the completed queue in
    /// departure order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last advance.
    pub fn advance(&mut self, now: SimTime) {
        // Flows may complete at different instants within [last, now];
        // process departures one at a time so later flows speed up after
        // each departure, as the fluid model requires.
        loop {
            let dt = now.since(self.last_advance).as_secs_f64();
            if self.flows.is_empty() || dt <= 0.0 || self.rate_factor == 0.0 {
                // An outage freezes every flow in place.
                self.last_advance = now;
                return;
            }
            let share = self.capacity_bps * self.rate_factor / self.flows.len() as f64;
            // Earliest internal departure among active flows.
            let min_remaining = self
                .flows
                .iter()
                .map(|f| f.remaining_bits)
                .fold(f64::INFINITY, f64::min);
            let t_depart = min_remaining / share;
            if t_depart > dt {
                // No departure before `now`: drain uniformly.
                for f in &mut self.flows {
                    f.remaining_bits -= share * dt;
                }
                self.last_advance = now;
                return;
            }
            // Drain to the departure instant, retire finished flows, loop.
            for f in &mut self.flows {
                f.remaining_bits -= share * t_depart;
            }
            self.last_advance += SimDuration::from_secs_f64(t_depart);
            let mut i = 0;
            while i < self.flows.len() {
                if self.flows[i].remaining_bits <= 1e-6 {
                    let f = self.flows.remove(i);
                    if let Some(tr) = &self.trace {
                        tr.emit(self.last_advance, TraceEvent::FlowDone { flow: f.id.0 });
                    }
                    self.completed.push_back(f.id);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Starts a new flow of `bytes` at `now` (advancing the model first).
    /// Zero-byte flows complete immediately.
    pub fn start_flow(&mut self, now: SimTime, bytes: u64) -> FlowId {
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.total_bytes_carried += bytes;
        if let Some(tr) = &self.trace {
            tr.emit(now, TraceEvent::FlowStart { flow: id.0, bytes });
        }
        if bytes == 0 {
            if let Some(tr) = &self.trace {
                tr.emit(now, TraceEvent::FlowDone { flow: id.0 });
            }
            self.completed.push_back(id);
        } else {
            self.flows.push(Flow {
                id,
                remaining_bits: bytes as f64 * 8.0,
            });
        }
        id
    }

    /// Pops the next completed flow, in departure order.
    pub fn take_completed(&mut self) -> Option<FlowId> {
        self.completed.pop_front()
    }

    /// The instant the next active flow will complete if no flows start or
    /// stop in the meantime, assuming the model is advanced to `now`.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, FlowId)> {
        debug_assert_eq!(self.last_advance, now, "advance the link to `now` first");
        if self.flows.is_empty() || self.rate_factor == 0.0 {
            // During an outage no completion is in sight; the fault hook
            // re-arms the machine's link event when capacity returns.
            return None;
        }
        let share = self.capacity_bps * self.rate_factor / self.flows.len() as f64;
        let f = self
            .flows
            .iter()
            .min_by(|a, b| a.remaining_bits.total_cmp(&b.remaining_bits))?;
        let dt = SimDuration::from_secs_f64((f.remaining_bits / share).max(0.0));
        Some((now + dt.max(SimDuration::from_micros(1)), f.id))
    }

    /// Cancels an in-progress flow (e.g. the workload was aborted).
    /// Returns `true` if the flow was active.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> bool {
        self.advance(now);
        let before = self.flows.len();
        self.flows.retain(|f| f.id != id);
        self.flows.len() != before
    }

    /// Encodes the link's mutable state (everything except capacity and
    /// the trace attachment) into a snapshot payload.
    pub fn freeze_into(&self, w: &mut SnapshotWriter) {
        w.put(&self.rate_factor);
        w.put(&self.flows);
        w.put(&self.completed);
        w.put(&self.last_advance);
        w.put(&self.next_id);
        w.put(&self.total_bytes_carried);
    }

    /// Restores the mutable state written by [`Self::freeze_into`] onto
    /// this (freshly built) link. Capacity and trace attachment are
    /// construction-time properties and keep their current values.
    pub fn thaw_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rate_factor = r.take()?;
        if !self.rate_factor.is_finite() || !(0.0..=1.0).contains(&self.rate_factor) {
            return Err(SnapshotError::Corrupt("link rate factor"));
        }
        self.flows = r.take()?;
        self.completed = r.take()?;
        self.last_advance = r.take()?;
        self.next_id = r.take()?;
        let mut ids = self
            .flows
            .iter()
            .map(|f| f.id)
            .chain(self.completed.iter().copied());
        if ids.any(|id| id.0 >= self.next_id) {
            return Err(SnapshotError::Corrupt("flow id beyond next_id"));
        }
        self.total_bytes_carried = r.take()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generic codec property test over this crate's impls.
    #[test]
    fn codec_laws_hold_for_every_impl() {
        use simcore::snapshot::check_codec;
        check_codec(&crate::RpcSpec::control(SimDuration::from_millis(5)));
        check_codec(&vec![
            Flow {
                id: FlowId(3),
                remaining_bits: 8.0,
            },
            Flow {
                id: FlowId(4),
                remaining_bits: 0.0,
            },
        ]);
        check_codec(&VecDeque::from([FlowId(1)]));
    }

    const CAP: f64 = 2.0e6;

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        link.start_flow(t0, 500_000); // 4 Mbit → 2 s.
        let (done, _) = link.next_completion(t0).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
        link.advance(done);
        assert!(link.take_completed().is_some());
        assert_eq!(link.active_count(), 0);
    }

    #[test]
    fn two_flows_share_bandwidth() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        // Equal flows started together: each gets 1 Mb/s, so a 1 Mbit flow
        // takes 1 s instead of 0.5 s.
        let a = link.start_flow(t0, 125_000);
        let _b = link.start_flow(t0, 125_000);
        let (done, first) = link.next_completion(t0).unwrap();
        assert_eq!(first, a, "earlier flow wins the tie by id order");
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn survivor_speeds_up_after_departure() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        link.start_flow(t0, 125_000); // 1 Mbit.
        link.start_flow(t0, 250_000); // 2 Mbit.
                                      // Shared until t=1 s (first departs having used 1 Mb/s); the second
                                      // then has 1 Mbit left at full 2 Mb/s → done at t=1.5 s.
        let end = SimTime::from_secs_f64(3.0);
        link.advance(end);
        let mut order = Vec::new();
        while let Some(f) = link.take_completed() {
            order.push(f);
        }
        assert_eq!(order.len(), 2);
        // Verify the departure instant of the second flow via incremental
        // advances.
        let mut link = SharedLink::new(CAP);
        link.start_flow(t0, 125_000);
        let b = link.start_flow(t0, 250_000);
        link.advance(SimTime::from_secs_f64(1.0));
        let _ = link.take_completed();
        let (done_b, id_b) = link.next_completion(SimTime::from_secs_f64(1.0)).unwrap();
        assert_eq!(id_b, b);
        assert!((done_b.as_secs_f64() - 1.5).abs() < 1e-5);
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        let a = link.start_flow(t0, 250_000); // 2 Mbit → alone: 1 s.
        let t_half = SimTime::from_secs_f64(0.5);
        link.start_flow(t_half, 250_000);
        // A has 1 Mbit left, now at 1 Mb/s → completes at t = 1.5 s.
        let (done, id) = link.next_completion(t_half).unwrap();
        assert_eq!(id, a);
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-5);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = SharedLink::new(CAP);
        let f = link.start_flow(SimTime::ZERO, 0);
        assert_eq!(link.take_completed(), Some(f));
        assert_eq!(link.active_count(), 0);
    }

    #[test]
    fn cancel_removes_flow() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        let f = link.start_flow(t0, 1_000_000);
        assert!(link.cancel_flow(SimTime::from_secs_f64(0.1), f));
        assert!(!link.cancel_flow(SimTime::from_secs_f64(0.2), f));
        assert_eq!(link.active_count(), 0);
        assert!(link.next_completion(SimTime::from_secs_f64(0.2)).is_none());
    }

    #[test]
    fn bytes_are_conserved_across_many_interleavings() {
        // Fluid-model conservation: total transfer time of equal flows
        // started together equals sequential time regardless of sharing.
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            link.start_flow(t0, 125_000);
        }
        // 8 Mbit total at 2 Mb/s → all done at t = 4 s.
        link.advance(SimTime::from_secs_f64(4.0 + 1e-6));
        let mut n = 0;
        while link.take_completed().is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
        assert_eq!(link.active_count(), 0);
        assert_eq!(link.total_bytes_carried(), 8 * 125_000);
    }

    #[test]
    fn advance_is_idempotent_at_fixed_instant() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        link.start_flow(t0, 250_000);
        let t = SimTime::from_secs_f64(0.25);
        link.advance(t);
        let c1 = link.next_completion(t).unwrap().0;
        link.advance(t);
        let c2 = link.next_completion(t).unwrap().0;
        assert_eq!(c1, c2);
    }

    #[test]
    #[should_panic(expected = "invalid link capacity")]
    fn zero_capacity_rejected() {
        let _ = SharedLink::new(0.0);
    }

    #[test]
    fn outage_freezes_flows_and_preserves_bytes() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        link.start_flow(t0, 250_000); // 2 Mbit → 1 s alone.
                                      // Outage from 0.5 s to 2.5 s: the flow pauses halfway.
        link.set_rate_factor(SimTime::from_secs_f64(0.5), 0.0);
        assert!(link.next_completion(SimTime::from_secs_f64(0.5)).is_none());
        link.advance(SimTime::from_secs_f64(2.5));
        assert_eq!(link.active_count(), 1, "flow survives the outage");
        link.set_rate_factor(SimTime::from_secs_f64(2.5), 1.0);
        let (done, _) = link.next_completion(SimTime::from_secs_f64(2.5)).unwrap();
        assert!(
            (done.as_secs_f64() - 3.0).abs() < 1e-6,
            "remaining 1 Mbit takes the remaining 0.5 s: done at {done}"
        );
    }

    #[test]
    fn bandwidth_dip_slows_flows() {
        let mut link = SharedLink::new(CAP);
        let t0 = SimTime::ZERO;
        link.set_rate_factor(t0, 0.25); // 500 kb/s effective.
        link.start_flow(t0, 125_000); // 1 Mbit → 2 s at quarter rate.
        let (done, _) = link.next_completion(t0).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid rate factor")]
    fn rate_factor_above_one_rejected() {
        let mut link = SharedLink::new(CAP);
        link.set_rate_factor(SimTime::ZERO, 1.5);
    }

    #[test]
    fn trace_records_flow_lifecycle_and_rate_changes() {
        use simcore::{TraceHandle, TraceSink};
        let trace = TraceHandle::new(TraceSink::new());
        let mut link = SharedLink::new(CAP);
        link.set_trace(trace.clone());
        let t0 = SimTime::ZERO;
        link.start_flow(t0, 250_000); // 2 Mbit → 1 s alone.
        link.set_rate_factor(SimTime::from_secs_f64(0.5), 0.5);
        link.advance(SimTime::from_secs_f64(5.0));
        let tags: Vec<&str> = trace.records().iter().map(|r| r.event.tag()).collect();
        assert_eq!(tags, ["flow_start", "link_rate", "flow_done"]);
        // The departure is timestamped at the fluid-model instant, not
        // the advance() call instant.
        let done = trace.records()[2].at;
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-5, "departed {done}");
    }
}
