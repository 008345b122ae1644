//! The adaptive Web browser, Section 3.6.
//!
//! Requests from an unmodified Netscape are routed to a proxy on the
//! client that interacts with Odyssey; Odyssey forwards them to a
//! distillation server which transcodes images to lower fidelity using
//! lossy JPEG compression before they cross the weak link. Fidelity is
//! the transcoding quality (JPEG-75 … JPEG-5); savings are modest because
//! user think time — spent at background power — dominates the energy of
//! fetching small images.

use hw560x::DisplayState;
use simcore::time::round_to_u64;
use simcore::{SimDuration, SimRng};

use crate::datasets::{WebImage, WEB_JPEG_RATIOS, WEB_MIN_BYTES};
use crate::units::{draw_jitter, web_unit, UnitPlayer, WEB_UNIT_NAMES};

/// Distillation level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WebFidelity {
    /// Original image, no transcoding.
    Full,
    /// JPEG quality 75.
    Jpeg75,
    /// JPEG quality 50.
    Jpeg50,
    /// JPEG quality 25.
    Jpeg25,
    /// JPEG quality 5.
    Jpeg5,
}

impl WebFidelity {
    /// Display name used in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            WebFidelity::Full => "Baseline fidelity",
            WebFidelity::Jpeg75 => "JPEG-75",
            WebFidelity::Jpeg50 => "JPEG-50",
            WebFidelity::Jpeg25 => "JPEG-25",
            WebFidelity::Jpeg5 => "JPEG-5",
        }
    }

    /// Transcoded size for an image, never below the JPEG floor.
    pub fn transcoded_bytes(self, image: &WebImage) -> u64 {
        let ratio = match self {
            WebFidelity::Full => 1.0,
            WebFidelity::Jpeg75 => WEB_JPEG_RATIOS[0].1,
            WebFidelity::Jpeg50 => WEB_JPEG_RATIOS[1].1,
            WebFidelity::Jpeg25 => WEB_JPEG_RATIOS[2].1,
            WebFidelity::Jpeg5 => WEB_JPEG_RATIOS[3].1,
        };
        round_to_u64(image.bytes as f64 * ratio).max(WEB_MIN_BYTES.min(image.bytes))
    }

    /// The adaptation ladder for goal-directed experiments, lowest first.
    pub const LADDER: [WebFidelity; 5] = [
        WebFidelity::Jpeg5,
        WebFidelity::Jpeg25,
        WebFidelity::Jpeg50,
        WebFidelity::Jpeg75,
        WebFidelity::Full,
    ];
}

/// The Netscape + proxy workload pinned to `fidelity` (Figures 13 and
/// 14): views each of `images` in turn, thinking `think` after each.
pub fn browser(
    images: &[WebImage],
    fidelity: WebFidelity,
    think: SimDuration,
    rng: &mut SimRng,
) -> UnitPlayer {
    let jitter = draw_jitter(rng);
    let steps = images
        .iter()
        .flat_map(|image| web_unit(image, fidelity, jitter, think))
        .collect();
    UnitPlayer::new(
        "netscape",
        WEB_UNIT_NAMES.to_vec(),
        DisplayState::Bright,
        steps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DEFAULT_THINK_S, WEB_IMAGES};
    use machine::{Machine, MachineConfig};
    use simcore::Joules;

    fn browse(image: WebImage, fidelity: WebFidelity, pm: bool) -> machine::RunReport {
        let mut rng = SimRng::new(1);
        let cfg = if pm {
            MachineConfig::default()
        } else {
            MachineConfig::baseline()
        };
        let mut m = Machine::new(cfg);
        let think = SimDuration::from_secs_f64(DEFAULT_THINK_S);
        m.add_process(Box::new(browser(&[image], fidelity, think, &mut rng)));
        m.run()
    }

    #[test]
    fn hardware_pm_band_for_browsing() {
        let base = browse(WEB_IMAGES[0], WebFidelity::Full, false);
        let hw = browse(WEB_IMAGES[0], WebFidelity::Full, true);
        let saving = 1.0 - hw.total_j / base.total_j;
        // Paper: 22-26% across images.
        assert!(
            (0.15..=0.32).contains(&saving),
            "hw-only saving {saving} outside band"
        );
    }

    #[test]
    fn fidelity_reduction_saves_little() {
        let hw = browse(WEB_IMAGES[0], WebFidelity::Full, true);
        let j5 = browse(WEB_IMAGES[0], WebFidelity::Jpeg5, true);
        let saving = 1.0 - j5.total_j / hw.total_j;
        // Paper: "merely 4-14% lower than with hardware-only power
        // management" even at the lowest fidelity, largest image.
        assert!(
            (0.02..=0.20).contains(&saving),
            "jpeg-5 saving {saving} outside band"
        );
    }

    #[test]
    fn tiny_image_gains_nothing() {
        let hw = browse(WEB_IMAGES[3], WebFidelity::Full, true);
        let j5 = browse(WEB_IMAGES[3], WebFidelity::Jpeg5, true);
        let saving = 1.0 - j5.total_j / hw.total_j;
        assert!(saving.abs() < 0.03, "110-byte image saved {saving}");
    }

    #[test]
    fn transcoded_sizes_respect_floor() {
        assert_eq!(
            WebFidelity::Jpeg5.transcoded_bytes(&WEB_IMAGES[3]),
            WEB_IMAGES[3].bytes
        );
        let big = WebFidelity::Jpeg5.transcoded_bytes(&WEB_IMAGES[0]);
        assert_eq!(big, (175_000.0f64 * 0.12).round() as u64);
    }

    #[test]
    fn proxy_bucket_appears_in_profile() {
        let report = browse(WEB_IMAGES[0], WebFidelity::Full, true);
        assert!(report.bucket_j("proxy") > Joules(0.0));
        assert!(report.bucket_j("netscape") > Joules(0.0));
    }

    #[test]
    fn ladder_is_monotone_in_energy() {
        let rows: Vec<Joules> = WebFidelity::LADDER
            .into_iter()
            .rev()
            .map(|f| browse(WEB_IMAGES[0], f, true).total_j)
            .collect();
        for w in rows.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "web ladder not monotone: {rows:?}");
        }
    }
}
