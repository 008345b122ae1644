#![forbid(unsafe_code)]
//! Energy-aware adaptation for mobile applications — a Rust reproduction
//! of Flinn & Satyanarayanan (SOSP '99).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`simcore`] — deterministic discrete-event simulation core;
//! - [`simpar`] — the deterministic scoped-thread work pool behind the
//!   experiment runner's `--threads` fan-out;
//! - [`hw560x`] — the calibrated IBM ThinkPad 560X power model;
//! - [`netsim`] — the shared 2 Mb/s WaveLAN link;
//! - [`machine`] — the client-machine simulator (scheduler, devices,
//!   energy accounting with PowerScope-style attribution);
//! - [`powerscope`] — the statistical energy profiler;
//! - [`odyssey`] — the Odyssey viceroy: expectation windows, the
//!   bandwidth monitor, the goal-directed energy-adaptation controller
//!   and the supervisor;
//! - [`apps`] — the four adaptive applications plus composite and bursty
//!   workloads;
//! - [`backlight`] — the zoned-backlighting projection;
//! - [`simserve`] — the always-on serving layer: checkpointed,
//!   crash-resumable, live-reconfigurable sessions over one machine;
//! - [`experiments`] — one module per table/figure of the paper.
//!
//! # Quickstart
//!
//! Measure a video playback under the paper's two power regimes:
//!
//! ```
//! use energy_adaptation::apps::datasets::VIDEO_CLIPS;
//! use energy_adaptation::apps::{VideoPlayer, VideoVariant};
//! use energy_adaptation::machine::{Machine, MachineConfig};
//! use energy_adaptation::simcore::SimRng;
//!
//! let mut rng = SimRng::new(42);
//! let clip = energy_adaptation::apps::datasets::VideoClip {
//!     duration_s: 10.0,
//!     ..VIDEO_CLIPS[0]
//! };
//!
//! let mut baseline = Machine::new(MachineConfig::baseline());
//! baseline.add_process(Box::new(VideoPlayer::fixed(clip, VideoVariant::Full, &mut rng)));
//! let base = baseline.run();
//!
//! let mut managed = Machine::new(MachineConfig::default());
//! managed.add_process(Box::new(VideoPlayer::fixed(clip, VideoVariant::Combined, &mut rng)));
//! let low = managed.run();
//!
//! assert!(low.total_j < base.total_j * 0.8, "adaptation + PM saves energy");
//! ```

pub use backlight;
pub use experiments;
pub use hw560x;
pub use machine;
pub use netsim;
pub use odyssey;
pub use odyssey_apps as apps;
pub use powerscope;
pub use simcore;
pub use simpar;
pub use simserve;
