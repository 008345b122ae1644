//! The adaptive Web browser, Section 3.6.
//!
//! Requests from an unmodified Netscape are routed to a proxy on the
//! client that interacts with Odyssey; Odyssey forwards them to a
//! distillation server which transcodes images to lower fidelity using
//! lossy JPEG compression before they cross the weak link. Fidelity is
//! the transcoding quality (JPEG-75 … JPEG-5); savings are modest because
//! user think time — spent at background power — dominates the energy of
//! fetching small images.

use hw560x::cpu::intensity;
use hw560x::DisplayState;
use machine::{Activity, AdaptDirection, FidelityView, Step, Workload};
use netsim::RpcSpec;
use simcore::time::round_to_u64;
use simcore::{SimDuration, SimRng, SimTime};

use crate::datasets::{
    WebImage, DEFAULT_THINK_S, TRIAL_JITTER, WEB_JPEG_RATIOS, WEB_MIN_BYTES, WEB_RENDER_S_PER_BYTE,
    WEB_SERVER_FIXED_S, WEB_SERVER_S_PER_BYTE, WEB_X_RENDER_S,
};

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
    pub fn ladder() -> Vec<WebFidelity> {
        vec![
            WebFidelity::Jpeg5,
            WebFidelity::Jpeg25,
            WebFidelity::Jpeg50,
            WebFidelity::Jpeg75,
            WebFidelity::Full,
        ]
    }
}

#[derive(Clone, Copy, Debug)]
enum Phase {
    Fetch,
    ProxyRelay,
    Render,
    Paint,
    Think,
}

/// The Netscape + proxy workload: views a sequence of images.
pub struct WebBrowser {
    images: Vec<WebImage>,
    ladder: Vec<WebFidelity>,
    level: usize,
    think: SimDuration,
    idx: usize,
    phase: Phase,
    jitter: f64,
    received_bytes: u64,
}

impl std::fmt::Debug for WebBrowser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebBrowser").finish_non_exhaustive()
    }
}

impl WebBrowser {
    /// A browser pinned to one fidelity, for Figure 13.
    pub fn fixed(images: Vec<WebImage>, fidelity: WebFidelity, rng: &mut SimRng) -> Self {
        Self::build(images, vec![fidelity], 0, rng)
    }

    /// An adaptive browser starting at full fidelity.
    pub fn adaptive(images: Vec<WebImage>, rng: &mut SimRng) -> Self {
        let ladder = WebFidelity::ladder();
        let top = ladder.len() - 1;
        Self::build(images, ladder, top, rng)
    }

    /// Overrides the default 5-second think time (Figure 14).
    pub fn with_think_time(mut self, think: SimDuration) -> Self {
        self.think = think;
        self
    }

    fn build(
        images: Vec<WebImage>,
        ladder: Vec<WebFidelity>,
        level: usize,
        rng: &mut SimRng,
    ) -> Self {
        WebBrowser {
            images,
            ladder,
            level,
            think: SimDuration::from_secs_f64(DEFAULT_THINK_S),
            idx: 0,
            phase: Phase::Fetch,
            jitter: 1.0 + rng.uniform(-TRIAL_JITTER, TRIAL_JITTER),
            received_bytes: 0,
        }
    }

    fn fidelity_point(&self) -> WebFidelity {
        self.ladder[self.level]
    }

    fn image(&self) -> &WebImage {
        &self.images[self.idx]
    }
}

impl Workload for WebBrowser {
    fn name(&self) -> &'static str {
        "netscape"
    }

    fn names(&self) -> Vec<&'static str> {
        crate::units::WEB_UNIT_NAMES.to_vec()
    }

    fn display_need(&self) -> DisplayState {
        DisplayState::Bright
    }

    fn poll(&mut self, now: SimTime) -> Step {
        if self.idx >= self.images.len() {
            return Step::Done;
        }
        match self.phase {
            Phase::Fetch => {
                let image = *self.image();
                let bytes = self.fidelity_point().transcoded_bytes(&image);
                self.received_bytes = bytes;
                // The distillation server transcodes the original — unless
                // transcoding would not shrink it (tiny images bypass).
                let distill = if bytes >= image.bytes {
                    0.0
                } else {
                    image.bytes as f64 * WEB_SERVER_S_PER_BYTE
                };
                self.phase = Phase::ProxyRelay;
                Step::Run(Activity::Rpc {
                    spec: RpcSpec {
                        request_bytes: 800,
                        reply_bytes: bytes,
                        server_time: SimDuration::from_secs_f64(WEB_SERVER_FIXED_S + distill),
                    },
                    procedure: "http_get",
                })
            }
            Phase::ProxyRelay => {
                // The client-side proxy unpacks and hands the reply to
                // Netscape; the paper's profiles show it as its own
                // process.
                self.phase = Phase::Render;
                Step::Run(Activity::CpuAs {
                    bucket: "proxy",
                    duration: SimDuration::from_secs_f64(
                        0.01 + self.received_bytes as f64 * 0.08e-6,
                    ),
                    intensity: intensity::WEB_RENDER,
                    procedure: "relay_reply",
                })
            }
            Phase::Render => {
                self.phase = Phase::Paint;
                Step::Run(Activity::Cpu {
                    duration: SimDuration::from_secs_f64(
                        self.received_bytes as f64 * WEB_RENDER_S_PER_BYTE * self.jitter,
                    ),
                    intensity: intensity::WEB_RENDER,
                    procedure: "render_image",
                })
            }
            Phase::Paint => {
                self.phase = Phase::Think;
                Step::Run(Activity::XRender {
                    cost: SimDuration::from_secs_f64(WEB_X_RENDER_S * self.jitter),
                })
            }
            Phase::Think => {
                self.phase = Phase::Fetch;
                self.idx += 1;
                if self.think.is_zero() {
                    return self.poll(now);
                }
                Step::Run(Activity::Wait {
                    until: now + self.think,
                })
            }
        }
    }

    fn fidelity(&self) -> FidelityView {
        FidelityView::new(self.level, self.ladder.len())
    }

    fn on_upcall(&mut self, dir: AdaptDirection, _now: SimTime) -> bool {
        match dir {
            AdaptDirection::Degrade if self.level > 0 => {
                self.level -= 1;
                true
            }
            AdaptDirection::Upgrade if self.level + 1 < self.ladder.len() => {
                self.level += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::WEB_IMAGES;
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
        m.add_process(Box::new(WebBrowser::fixed(vec![image], fidelity, &mut rng)));
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
        let rows: Vec<Joules> = WebFidelity::ladder()
            .into_iter()
            .rev()
            .map(|f| browse(WEB_IMAGES[0], f, true).total_j)
            .collect();
        for w in rows.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "web ladder not monotone: {rows:?}");
        }
    }
}
