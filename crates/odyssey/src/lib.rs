#![forbid(unsafe_code)]
//! Odyssey: energy-aware adaptation (the paper's primary contribution).
//!
//! Odyssey mediates between applications that can trade *data fidelity*
//! for resource consumption and an operating system that monitors resource
//! supply and demand. This crate implements the energy extension the paper
//! contributes on top of the original bandwidth-adaptive Odyssey. The
//! paper's wardens and fidelity levels live in the `machine` crate: each
//! application's [`machine::Workload`] reports its fidelity and answers
//! upcalls, and the machine's datapath clamp throttles a warden's
//! transfers. This crate holds the viceroy's side:
//!
//! - [`expectation`] — the resource-expectation window: applications
//!   state bounds on a resource, and leaving the window triggers an
//!   upcall;
//! - [`viceroy`] — the original Odyssey bandwidth-adaptation loop
//!   (passive throughput estimation against expectation windows), the
//!   substrate the energy work extends;
//! - [`demand`] — exponential smoothing of observed power with a
//!   half-life tied to time-remaining, and the future-demand predictor;
//! - [`priority`] — the user-specified priority order that picks which
//!   application to degrade first (and upgrade last);
//! - [`goal`] — the goal-directed controller of Section 5: given an
//!   initial energy value and a user-specified duration, it monitors
//!   supply and demand twice a second and issues degrade/upgrade upcalls
//!   with hysteresis so the battery lasts exactly as long as asked;
//! - [`supervisor`] — the crash-tolerant control plane: watchdogs,
//!   demand-vs-attribution cross-checks, quarantine, and deterministic
//!   restart for applications that hang, crash, lie, or ignore upcalls.

pub mod demand;
pub mod expectation;
pub mod goal;
pub mod priority;
pub mod supervisor;
pub mod viceroy;

pub use demand::{DemandLedger, Smoother};
pub use expectation::{Expectation, WindowEvent};
pub use goal::{GoalConfig, GoalController, GoalHandle, GoalOutcome, Hardening};
pub use priority::PriorityTable;
pub use supervisor::{Supervisor, SupervisorHandle, SupervisorStats};
pub use viceroy::BandwidthMonitor;
