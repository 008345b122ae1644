//! CPU + memory-system power model.
//!
//! The 560X's processor has no DVS; the only power distinction the paper's
//! platform exposes is *halt* (the kernel idle loop executes a Pentium
//! `hlt`, folded into the platform's base power) versus *busy*. How much
//! busy costs depends on the workload: a cache-hostile Viterbi search
//! (Janus) drives the CPU and DRAM much harder than a Cinepak decode loop.
//! We model this with a per-activity *intensity* in `[0, 1]` scaling the
//! platform's maximum CPU excess power.

use crate::calib::PlatformSpec;
use simcore::Watts;

/// Returns the CPU + memory excess power over halt, W, at `load`.
///
/// `load` is the product of the fraction of the interval the CPU was busy
/// and the running activity's intensity; values are clamped to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use hw560x::PlatformSpec;
///
/// let spec = PlatformSpec::default();
/// assert_eq!(hw560x::cpu::excess_power_w(&spec, 0.0), simcore::Watts::ZERO);
/// assert_eq!(hw560x::cpu::excess_power_w(&spec, 1.0), spec.cpu_max_excess_w);
/// ```
#[inline]
pub fn excess_power_w(spec: &PlatformSpec, load: f64) -> Watts {
    spec.cpu_max_excess_w * load.clamp(0.0, 1.0)
}

/// Nominal intensities for the workload classes in the paper, used by the
/// application models. Centralizing them keeps cross-application energy
/// comparisons consistent.
pub mod intensity {
    /// Janus speech recognition search: FP + pointer-chasing over large
    /// models; the heaviest load the client sees.
    pub const SPEECH_SEARCH: f64 = 1.0;
    /// Speech front-end signal processing.
    pub const SPEECH_FRONTEND: f64 = 0.70;
    /// Cinepak video decode (MMX-friendly, moderate).
    pub const VIDEO_DECODE: f64 = 0.45;
    /// X server blit/scale work.
    pub const X_RENDER: f64 = 0.55;
    /// Map vector rasterisation.
    pub const MAP_RENDER: f64 = 0.60;
    /// HTML/GIF handling in the browser and proxy.
    pub const WEB_RENDER: f64 = 0.50;
    /// Kernel interrupt handling and protocol processing.
    pub const KERNEL_INTERRUPT: f64 = 0.40;
    /// Odyssey viceroy/warden data-path work.
    pub const ODYSSEY: f64 = 0.40;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Watts;

    #[test]
    fn load_is_clamped() {
        let spec = PlatformSpec::default();
        assert_eq!(excess_power_w(&spec, -1.0), Watts::ZERO);
        assert_eq!(excess_power_w(&spec, 2.0), spec.cpu_max_excess_w);
    }

    #[test]
    fn power_is_linear_in_load() {
        let spec = PlatformSpec::default();
        let half = excess_power_w(&spec, 0.5);
        assert!((half - spec.cpu_max_excess_w / 2.0).abs() < Watts(1e-12));
    }

    #[test]
    fn intensities_are_valid_fractions() {
        for i in [
            intensity::SPEECH_SEARCH,
            intensity::SPEECH_FRONTEND,
            intensity::VIDEO_DECODE,
            intensity::X_RENDER,
            intensity::MAP_RENDER,
            intensity::WEB_RENDER,
            intensity::KERNEL_INTERRUPT,
            intensity::ODYSSEY,
        ] {
            assert!((0.0..=1.0).contains(&i));
        }
    }

    #[test]
    fn speech_search_is_the_heaviest() {
        for i in [
            intensity::SPEECH_FRONTEND,
            intensity::VIDEO_DECODE,
            intensity::X_RENDER,
            intensity::MAP_RENDER,
            intensity::WEB_RENDER,
            intensity::KERNEL_INTERRUPT,
            intensity::ODYSSEY,
        ] {
            assert!(i <= intensity::SPEECH_SEARCH);
        }
    }
}
