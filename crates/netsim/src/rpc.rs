//! RPC timing composition.
//!
//! Odyssey's client/server traffic is RPC2-style: a request travels to the
//! server, the server works for a residence time, and the reply travels
//! back. The radio must stay awake for the whole window (Section 3.2's
//! standby policy is "except during remote procedure calls or bulk
//! transfers"), which is why waiting on a slow server costs idle-radio
//! energy — the effect dominating the remote speech bars in Figure 8.
//!
//! This module only describes an RPC; the `machine` crate executes it
//! (request flow → server timer → reply flow) against the shared link.

use simcore::SimDuration;

/// Shape of one remote procedure call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcSpec {
    /// Request payload, bytes.
    pub request_bytes: u64,
    /// Reply payload, bytes.
    pub reply_bytes: u64,
    /// Server residence time between request arrival and reply departure.
    pub server_time: SimDuration,
}

simcore::impl_codec!(RpcSpec {
    request_bytes,
    reply_bytes,
    server_time
});

impl RpcSpec {
    /// A small control RPC: both payloads fit in one packet.
    pub fn control(server_time: SimDuration) -> Self {
        RpcSpec {
            request_bytes: 256,
            reply_bytes: 256,
            server_time,
        }
    }

    /// Lower bound on the wall-clock duration of this RPC on an otherwise
    /// idle link of `capacity_bps`, including both media-access latencies.
    ///
    /// The machine's actual timing can be longer under link contention;
    /// tests use this bound to check the executor never beats physics.
    pub fn min_duration(&self, capacity_bps: f64, latency: SimDuration) -> SimDuration {
        let tx = SimDuration::from_secs_f64(self.request_bytes as f64 * 8.0 / capacity_bps);
        let rx = SimDuration::from_secs_f64(self.reply_bytes as f64 * 8.0 / capacity_bps);
        latency + tx + self.server_time + latency + rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_duration_adds_all_legs() {
        let rpc = RpcSpec {
            request_bytes: 25_000, // 0.1 s at 2 Mb/s.
            reply_bytes: 50_000,   // 0.2 s.
            server_time: SimDuration::from_millis(300),
        };
        let d = rpc.min_duration(2.0e6, SimDuration::from_millis(5));
        assert!((d.as_secs_f64() - (0.005 + 0.1 + 0.3 + 0.005 + 0.2)).abs() < 1e-9);
    }

    #[test]
    fn control_rpc_is_small() {
        let rpc = RpcSpec::control(SimDuration::from_millis(10));
        assert!(rpc.request_bytes <= 1500 && rpc.reply_bytes <= 1500);
    }
}
