//! Resource expectations and upcall triggering.
//!
//! Odyssey's application interface is built on *resource expectation
//! windows*: an application tells the viceroy the range of a resource it
//! is prepared to operate in; "if resource levels stray beyond an
//! application's expectation, Odyssey notifies it through an upcall",
//! and the application re-registers a window matched to its new fidelity.
//!
//! The energy work inherits this structure with the *energy balance*
//! (supply minus predicted demand) as the resource.

/// A half-open expectation window `[low, high)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expectation {
    /// Lowest tolerable resource level.
    pub low: f64,
    /// Level above which the application wants to know (it could raise
    /// fidelity).
    pub high: f64,
}

impl Expectation {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics unless `low <= high` and both are finite.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low.is_finite() && high.is_finite() && low <= high);
        Expectation { low, high }
    }

    /// Whether `value` lies inside the window.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.low && value < self.high
    }

    /// How `value` leaves the window, or `None` while it lies inside.
    pub fn classify(&self, value: f64) -> Option<WindowEvent> {
        if value < self.low {
            Some(WindowEvent::BelowWindow)
        } else if value >= self.high {
            Some(WindowEvent::AboveWindow)
        } else {
            None
        }
    }
}

/// How a resource level left a window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowEvent {
    /// The level fell below the window: the application must degrade.
    BelowWindow,
    /// The level rose above the window: the application may upgrade.
    AboveWindow,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_containment() {
        let w = Expectation::new(10.0, 20.0);
        assert!(!w.contains(9.9));
        assert!(w.contains(10.0));
        assert!(w.contains(19.9));
        assert!(!w.contains(20.0));
    }

    #[test]
    fn classify_flags_leavers_only() {
        let w = Expectation::new(50.0, 150.0);
        assert_eq!(w.classify(25.0), Some(WindowEvent::BelowWindow));
        assert_eq!(w.classify(75.0), None);
        // The window is half-open: its upper edge is already outside.
        assert_eq!(w.classify(150.0), Some(WindowEvent::AboveWindow));
        assert_eq!(w.classify(160.0), Some(WindowEvent::AboveWindow));
    }

    #[test]
    #[should_panic]
    fn inverted_window_rejected() {
        let _ = Expectation::new(2.0, 1.0);
    }
}
