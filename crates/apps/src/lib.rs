#![forbid(unsafe_code)]
//! Workload models of the paper's applications.
//!
//! Each application is a [`machine::Workload`]: a generator of CPU /
//! network / render / think phases whose parameters derive from the
//! paper's description of where each application spends its time:
//!
//! - [`video`] — Xanim streaming QuickTime/Cinepak clips through Odyssey;
//!   fidelity = lossy-compression track × window size;
//! - [`speech`] — the Janus front-end with local, remote, and hybrid
//!   recognition; fidelity = vocabulary/acoustic-model size;
//! - [`map`] — the Anvil map viewer; fidelity = feature filtering ×
//!   cropping, plus user think time;
//! - [`web`] — Netscape behind a client proxy and distillation server;
//!   fidelity = JPEG transcoding quality;
//! - [`composite`] — the Section 3.7 / Section 5 loop (speech → web →
//!   map) built from the same units;
//! - [`bursty`] — the Section 5.4 stochastic on/off workload.
//!
//! Every application's work is built in one place, [`units`]. The
//! standalone speech, map and web applications play those units through
//! a [`UnitPlayer`]; the composite and bursty workloads pop the same
//! units. Only the standalone [`VideoPlayer`] keeps its own frame loop:
//! it paces frames against absolute deadlines, loops its clip, and
//! carries the energy gate's decode inflation.
//!
//! Every quantitative constant lives in [`datasets`] next to the paper
//! sentence it encodes, and is shared by isolation experiments, the
//! composite, and the bursty workload so results stay comparable.

pub mod bursty;
pub mod calltree;
pub mod composite;
pub mod datasets;
pub mod map;
pub mod misbehavior;
pub mod speech;
pub mod units;
pub mod video;
pub mod web;

pub use bursty::{BurstyMember, BurstyRole};
pub use calltree::{call_path, CallFrame, CostedBlock};
pub use composite::{Baton, CompositeMember, CompositeMode, CompositeRole};
pub use map::MapFidelity;
pub use misbehavior::Misbehavior;
pub use speech::SpeechStrategy;
pub use units::UnitPlayer;
pub use video::{VideoPlayer, VideoVariant};
pub use web::WebFidelity;
