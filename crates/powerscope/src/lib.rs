#![forbid(unsafe_code)]
//! PowerScope: statistical energy profiling (Section 2.1 of the paper).
//!
//! The original PowerScope pairs a digital multimeter (sampling the current
//! drawn by the profiling computer ~600 times per second) with a kernel
//! system monitor (sampling the program counter and process id at the
//! multimeter's trigger). An offline stage correlates the two streams with
//! symbol tables to produce an *energy profile*: for each process, and each
//! procedure within it, the CPU time, total energy, and average power —
//! Figure 2 of the paper.
//!
//! Our multimeter reads the simulated platform's power between machine
//! events; the "PC/PID" half draws the attributed bucket at each sample
//! instant from the machine's occupancy shares, reproducing PowerScope's
//! statistical attribution (including its sampling noise). Tests verify
//! that the sampled profile converges to the machine's exact ledger.

pub mod attribution;
pub mod correlate;
pub mod faults;
pub mod multimeter;
pub mod online;
pub mod profile;
#[cfg(test)]
mod reference;
pub mod sample;
pub mod symbols;

pub use attribution::AttributionFeed;
pub use correlate::{correlate, correlate_paths};
pub use faults::{FaultyEnergySensor, MeterFaultPlan};
pub use multimeter::{FrameResolver, PowerScope};
pub use online::OnlinePowerMeter;
pub use profile::{EnergyProfile, PathProfile, PathRow, ProcedureRow, ProcessPaths, ProcessRow};
pub use sample::{CallStack, CollectedRun, RawTrace, Sample};
pub use symbols::SymbolTable;

use simcore::Hertz;

/// Supply voltage of the profiled machine. The paper notes input voltage
/// is controlled to within 0.25%, so current samples alone determine
/// power; we keep the same structure with a nominal 12 V supply.
pub const SUPPLY_VOLTS: f64 = 12.0;

/// The multimeter's nominal sampling rate ("approximately 600 times per
/// second").
pub const SAMPLE_HZ: Hertz = Hertz(600.0);
