//! WaveLAN radio power-state machine.
//!
//! Section 3.2: "we modified the network communication package used by
//! Odyssey to place the wireless network interface in standby mode except
//! during remote procedure calls or bulk transfers". This module models
//! that policy as reference-counted *wake windows* (one per outstanding
//! RPC or bulk transfer) plus a *transfer* count (flows actually moving
//! bytes). The radio is Active while bytes move, Idle while awake but
//! quiet (e.g. waiting for an RPC reply), and Standby otherwise — unless
//! power management is disabled, in which case it never drops below Idle.

use crate::calib::PlatformSpec;
use simcore::Watts;

/// Radio power state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RadioState {
    /// Transmitting or receiving.
    Active,
    /// Awake, no bytes in flight.
    Idle,
    /// Power-save standby.
    Standby,
}

impl RadioState {
    /// Power drawn in this state, W.
    #[inline]
    pub fn power_w(self, spec: &PlatformSpec) -> Watts {
        match self {
            RadioState::Active => spec.radio_active_w,
            RadioState::Idle => spec.radio_idle_w,
            RadioState::Standby => spec.radio_standby_w,
        }
    }
}

/// Radio wake-window bookkeeping.
#[derive(Clone, Debug)]
pub struct RadioModel {
    /// True when the RPC-scoped standby policy is in force.
    rpc_scoped_standby: bool,
    wake_windows: usize,
    transfers: usize,
}

impl RadioModel {
    /// Creates a radio; `rpc_scoped_standby = false` models disabled
    /// hardware power management (the radio idles instead of sleeping).
    pub fn new(rpc_scoped_standby: bool) -> Self {
        RadioModel {
            rpc_scoped_standby,
            wake_windows: 0,
            transfers: 0,
        }
    }

    /// Opens a wake window (an RPC began or a bulk transfer was set up).
    #[inline]
    pub fn open_window(&mut self) {
        self.wake_windows += 1;
    }

    /// Restores the counters of a thawed machine, which recounts them
    /// from its processes' RPC states: the snapshot does not carry them.
    pub fn restore_counters(&mut self, wake_windows: usize, transfers: usize) {
        self.wake_windows = wake_windows;
        self.transfers = transfers;
    }

    /// Closes a wake window.
    ///
    /// # Panics
    ///
    /// Panics if no window is open.
    #[inline]
    pub fn close_window(&mut self) {
        assert!(self.wake_windows > 0, "close_window without open_window");
        self.wake_windows -= 1;
    }

    /// Marks the start of byte movement.
    #[inline]
    pub fn begin_transfer(&mut self) {
        self.transfers += 1;
    }

    /// Marks the end of byte movement.
    ///
    /// # Panics
    ///
    /// Panics if no transfer is in progress.
    #[inline]
    pub fn end_transfer(&mut self) {
        assert!(self.transfers > 0, "end_transfer without begin_transfer");
        self.transfers -= 1;
    }

    /// Current power state under the configured policy.
    #[inline]
    pub fn state(&self) -> RadioState {
        if self.transfers > 0 {
            RadioState::Active
        } else if self.wake_windows > 0 || !self.rpc_scoped_standby {
            RadioState::Idle
        } else {
            RadioState::Standby
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_radio_sleeps_when_quiet() {
        let r = RadioModel::new(true);
        assert_eq!(r.state(), RadioState::Standby);
    }

    #[test]
    fn no_pm_radio_idles_when_quiet() {
        let r = RadioModel::new(false);
        assert_eq!(r.state(), RadioState::Idle);
    }

    #[test]
    fn rpc_window_keeps_radio_awake_while_waiting() {
        let mut r = RadioModel::new(true);
        r.open_window();
        r.begin_transfer();
        assert_eq!(r.state(), RadioState::Active);
        r.end_transfer();
        // Waiting for the server's reply: awake but not transferring.
        assert_eq!(r.state(), RadioState::Idle);
        r.begin_transfer();
        assert_eq!(r.state(), RadioState::Active);
        r.end_transfer();
        r.close_window();
        assert_eq!(r.state(), RadioState::Standby);
    }

    #[test]
    fn nested_windows() {
        let mut r = RadioModel::new(true);
        r.open_window();
        r.open_window();
        r.close_window();
        assert_eq!(r.state(), RadioState::Idle);
        r.close_window();
        assert_eq!(r.state(), RadioState::Standby);
    }

    #[test]
    fn transfer_dominates_state() {
        let mut r = RadioModel::new(false);
        r.begin_transfer();
        assert_eq!(r.state(), RadioState::Active);
        r.end_transfer();
        assert_eq!(r.state(), RadioState::Idle);
    }

    #[test]
    #[should_panic(expected = "close_window")]
    fn unbalanced_close_panics() {
        RadioModel::new(true).close_window();
    }

    #[test]
    #[should_panic(expected = "end_transfer")]
    fn unbalanced_end_transfer_panics() {
        RadioModel::new(true).end_transfer();
    }

    #[test]
    fn power_levels_ordered() {
        let spec = PlatformSpec::default();
        assert!(RadioState::Standby.power_w(&spec) < RadioState::Idle.power_w(&spec));
        assert!(RadioState::Idle.power_w(&spec) < RadioState::Active.power_w(&spec));
    }
}
