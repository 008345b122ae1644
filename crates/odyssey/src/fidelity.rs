//! Fidelity: the degree to which data presented at the client matches the
//! reference copy at the server.
//!
//! Fidelity is type-specific — "different kinds of data can be degraded
//! differently" — so a fidelity space is an ordered list of named levels
//! with per-level annotations (relative data volume and quality) that the
//! wardens register on behalf of applications. Level 0 is the lowest
//! fidelity the application supports; the last level is full fidelity.

/// One level in a fidelity space.
#[derive(Clone, Debug, PartialEq)]
pub struct FidelityLevel {
    /// Human-readable name (e.g. `"Premiere-C"`, `"JPEG-25"`).
    pub name: &'static str,
    /// Data volume at this level relative to full fidelity, in `(0, 1]`.
    pub data_ratio: f64,
    /// Subjective quality relative to full fidelity, in `(0, 1]`.
    pub quality: f64,
}

/// An ordered set of fidelity levels for one data type.
#[derive(Clone, Debug, PartialEq)]
pub struct FidelitySpace {
    /// The data type this space degrades (e.g. `"video"`).
    pub data_type: &'static str,
    levels: Vec<FidelityLevel>,
}

impl FidelitySpace {
    /// Creates a space from levels ordered lowest-fidelity first.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, any ratio is outside `(0, 1]`, or the
    /// top level is not full fidelity (`data_ratio == 1`).
    pub fn new(data_type: &'static str, levels: Vec<FidelityLevel>) -> Self {
        assert!(!levels.is_empty(), "fidelity space must have levels");
        for l in &levels {
            assert!(
                l.data_ratio > 0.0 && l.data_ratio <= 1.0,
                "invalid data ratio {} for {}",
                l.data_ratio,
                l.name
            );
            assert!(
                l.quality > 0.0 && l.quality <= 1.0,
                "invalid quality {} for {}",
                l.quality,
                l.name
            );
        }
        #[expect(
            clippy::expect_used,
            reason = "an empty fidelity ladder is a construction bug; this panic is the validation"
        )]
        let top = levels.last().expect("non-empty");
        assert!(
            (top.data_ratio - 1.0).abs() < 1e-9,
            "top level must be full fidelity"
        );
        FidelitySpace { data_type, levels }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if the space is empty (never; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The level at `index` (0 = lowest fidelity).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn level(&self, index: usize) -> &FidelityLevel {
        &self.levels[index]
    }

    /// Index of full fidelity.
    pub fn full(&self) -> usize {
        self.levels.len() - 1
    }

    /// All levels, lowest first.
    pub fn levels(&self) -> &[FidelityLevel] {
        &self.levels
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    fn video_space() -> FidelitySpace {
        FidelitySpace::new(
            "video",
            vec![
                FidelityLevel {
                    name: "Premiere-C+half-window",
                    data_ratio: 0.4,
                    quality: 0.5,
                },
                FidelityLevel {
                    name: "Premiere-C",
                    data_ratio: 0.6,
                    quality: 0.7,
                },
                FidelityLevel {
                    name: "Premiere-B",
                    data_ratio: 0.8,
                    quality: 0.85,
                },
                FidelityLevel {
                    name: "full",
                    data_ratio: 1.0,
                    quality: 1.0,
                },
            ],
        )
    }

    #[test]
    fn space_basic_accessors() {
        let s = video_space();
        assert_eq!(s.len(), 4);
        assert_eq!(s.full(), 3);
        assert_eq!(s.level(0).name, "Premiere-C+half-window");
        assert_eq!(s.level(s.full()).data_ratio, 1.0);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "must have levels")]
    fn empty_space_rejected() {
        let _ = FidelitySpace::new("x", vec![]);
    }

    #[test]
    #[should_panic(expected = "top level must be full fidelity")]
    fn top_level_must_be_full() {
        let _ = FidelitySpace::new(
            "x",
            vec![FidelityLevel {
                name: "half",
                data_ratio: 0.5,
                quality: 0.5,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "invalid data ratio")]
    fn bad_ratio_rejected() {
        let _ = FidelitySpace::new(
            "x",
            vec![FidelityLevel {
                name: "zero",
                data_ratio: 0.0,
                quality: 1.0,
            }],
        );
    }
}
