#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "this crate is the workspace's one sanctioned wall-clock source"
)]
//! Timing support: the sanctioned [`Stopwatch`], the workspace's single
//! wall-clock source, and the [`sweep::median`] perfbench uses.
//!
//! Everything inside the simulation reads time from `simcore::SimTime`.
//! The workspace `clippy.toml` bans `std::time::Instant` everywhere
//! (`disallowed-types`) and `Stopwatch::start` outside this crate
//! (`disallowed-methods`), so every wall-clock reading in the workspace
//! is either here or at a call site carrying an
//! `#[expect(clippy::disallowed_methods, reason = "…")]`. Inside the
//! workspace only `experiments` may depend on this crate; the crate-graph
//! test pins that, so no simulation crate can reach the wall clock
//! through a helper. perfbench, the repo benchmark, sits outside the
//! workspace and is the only code that times figures.

/// The workspace's single sanctioned wall-clock escape hatch: measures
/// real elapsed time for perfbench and the CLI progress lines.
/// Simulation code must never touch it — simulated time is `SimTime`.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    t0: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now (in real time).
    pub fn start() -> Self {
        Stopwatch {
            t0: std::time::Instant::now(),
        }
    }

    /// Seconds of real time since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

pub mod sweep;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the sanctioned clock")]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0 && b >= a);
    }
}
