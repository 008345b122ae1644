//! Zone grids and window occupancy.
//!
//! The paper considers 4-zone and 8-zone versions of the 560X display
//! (Figure 17). We model the 4-zone display as a 2×2 grid and the 8-zone
//! display as a 4×2 grid; with top-left snap-to placement these reproduce
//! every occupancy count the paper states (video 1/4 and 2/8 at full
//! fidelity, 1/8 reduced; map 4/4 and 6/8 full, 2/4 and 3/8 lowest).

/// A window footprint, normalized to the screen (fractions of width and
/// height in `(0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowRect {
    /// Fraction of the screen width.
    pub width: f64,
    /// Fraction of the screen height.
    pub height: f64,
}

impl WindowRect {
    /// Creates a footprint.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are in `(0, 1]`.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && width <= 1.0 && height > 0.0 && height <= 1.0,
            "invalid window rect {width}x{height}"
        );
        WindowRect { width, height }
    }

    /// The full screen.
    pub fn full_screen() -> Self {
        WindowRect {
            width: 1.0,
            height: 1.0,
        }
    }
}

/// A grid of independently-controllable backlight zones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneGrid {
    /// Zone columns.
    pub cols: u32,
    /// Zone rows.
    pub rows: u32,
}

impl ZoneGrid {
    /// The paper's 4-zone display (Figure 17a): 2×2.
    pub fn four_zone() -> Self {
        ZoneGrid { cols: 2, rows: 2 }
    }

    /// The paper's 8-zone display (Figure 17b): 4×2.
    pub fn eight_zone() -> Self {
        ZoneGrid { cols: 4, rows: 2 }
    }

    /// A conventional display: one zone.
    pub fn single() -> Self {
        ZoneGrid { cols: 1, rows: 1 }
    }

    /// Total zones.
    pub fn total(&self) -> u32 {
        self.cols * self.rows
    }

    /// Zones lit by a window placed with the snap-to feature (aligned to a
    /// zone corner, straddling the fewest possible zones).
    pub fn zones_snapped(&self, w: WindowRect) -> u32 {
        let zw = 1.0 / self.cols as f64;
        let zh = 1.0 / self.rows as f64;
        let cols = (w.width / zw).ceil() as u32;
        let rows = (w.height / zh).ceil() as u32;
        cols.min(self.cols) * rows.min(self.rows)
    }

    /// Fraction of display power drawn when `lit` zones are bright and the
    /// rest are dark ("the power used by each zone was proportional to its
    /// area").
    pub fn lit_fraction(&self, lit: u32) -> f64 {
        assert!(lit <= self.total(), "lit {lit} exceeds {}", self.total());
        lit as f64 / self.total() as f64
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;
    use crate::{MAP_FULL_WINDOW, MAP_LOWEST_WINDOW, VIDEO_FULL_WINDOW, VIDEO_REDUCED_WINDOW};

    /// Every occupancy count the paper states, from pure geometry.
    #[test]
    fn paper_occupancy_counts() {
        let four = ZoneGrid::four_zone();
        let eight = ZoneGrid::eight_zone();
        // "The video at full fidelity fits within one zone for the 4-zone
        // case, and within two zones for the 8-zone case."
        assert_eq!(four.zones_snapped(VIDEO_FULL_WINDOW), 1);
        assert_eq!(eight.zones_snapped(VIDEO_FULL_WINDOW), 2);
        // "At lowest fidelity, the video fits entirely within one of the
        // 8 zones."
        assert_eq!(four.zones_snapped(VIDEO_REDUCED_WINDOW), 1);
        assert_eq!(eight.zones_snapped(VIDEO_REDUCED_WINDOW), 1);
        // "The map at full fidelity occupies all zones in the 4-zone case
        // ... it occupies only six zones in the 8-zone case."
        assert_eq!(four.zones_snapped(MAP_FULL_WINDOW), 4);
        assert_eq!(eight.zones_snapped(MAP_FULL_WINDOW), 6);
        // "At lowest fidelity, the map output only occupies two zones in
        // the 4-zone case ... only three zones [in the 8-zone case]."
        assert_eq!(four.zones_snapped(MAP_LOWEST_WINDOW), 2);
        assert_eq!(eight.zones_snapped(MAP_LOWEST_WINDOW), 3);
    }

    #[test]
    fn full_screen_lights_everything() {
        for grid in [
            ZoneGrid::single(),
            ZoneGrid::four_zone(),
            ZoneGrid::eight_zone(),
        ] {
            assert_eq!(grid.zones_snapped(WindowRect::full_screen()), grid.total());
        }
    }

    #[test]
    fn snap_to_beats_straddling() {
        let grid = ZoneGrid::four_zone();
        let w = WindowRect::new(0.4, 0.4);
        // Snapped, it fits in one.
        assert_eq!(grid.zones_snapped(w), 1);
    }

    #[test]
    fn lit_fraction_is_area_proportional() {
        let eight = ZoneGrid::eight_zone();
        assert!((eight.lit_fraction(2) - 0.25).abs() < 1e-12);
        assert_eq!(eight.lit_fraction(8), 1.0);
        assert_eq!(eight.lit_fraction(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn lit_fraction_bounds() {
        let _ = ZoneGrid::four_zone().lit_fraction(5);
    }

    #[test]
    #[should_panic(expected = "invalid window rect")]
    fn bad_rect_rejected() {
        let _ = WindowRect::new(0.0, 0.5);
    }
}
