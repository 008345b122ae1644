#![forbid(unsafe_code)]
//! Deterministic discrete-event simulation core.
//!
//! This crate provides the substrate shared by every other crate in the
//! workspace: simulated time ([`SimTime`], [`SimDuration`]), an event queue
//! with deterministic tie-breaking ([`EventQueue`]), reproducible random
//! streams ([`SimRng`]), and the statistics used to report experiment
//! results the way the paper does ([`stats`]) — "mean of five trials" with
//! 90% confidence intervals, plus the least-squares linear models of
//! Figures 11 and 14.
//!
//! It also defines the physical units every energy ledger is kept in
//! ([`Joules`], [`Watts`], [`Hertz`]); beyond those, nothing in this crate
//! knows about hardware or Odyssey — it is a generic, allocation-light
//! simulation kernel.
//!
//! With the **`par`** feature the crate additionally re-exports the
//! [`simpar`] work pool as `simcore::par` — the seam through which the
//! experiment runner fans seeded trials out across threads. Simulation
//! crates build without the feature: simulated code stays
//! single-threaded by construction, and the workspace `clippy.toml`
//! confines raw `std::thread` use to the simpar crate.

pub mod event;
pub mod fault;
pub mod rng;
pub mod series;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use event::EventId;
pub use event::EventQueue;
pub use fault::{FaultPlan, FaultSchedule, FaultWindow};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use snapshot::{
    Checkpoint, Codec, Names, RunJournal, SnapshotError, SnapshotHasher, SnapshotReader,
    SnapshotWriter, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use stats::{LinearFit, TrialStats};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceCategory, TraceEvent, TraceHandle, TraceRecord, TraceSink};
pub use units::{Hertz, Joules, Watts};

/// The deterministic work pool, behind the `par` feature seam.
#[cfg(feature = "par")]
pub use simpar as par;
