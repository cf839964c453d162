//! Experiment scales.

/// How big to run an experiment.
///
/// The paper's testbed processed 430K queries against 151 GB over months of
/// wall-clock; the simulator reproduces the *shapes* at a fraction of the
/// volume. `Full` is the default for the `experiments` binary, `Quick` for
/// smoke runs, `Tiny` for tests (every experiment in seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Test scale: minimal but exercising every code path.
    Tiny,
    /// Smoke-run scale.
    Quick,
    /// Default experiment scale.
    Full,
}

impl Scale {
    /// Workload-volume factor applied to the generator profile.
    pub fn volume_factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.15,
            Scale::Quick => 0.3,
            // The paper's R1 had ~15.5K parseable queries over 14 months of
            // which 515 were design-relevant — a modest number of distinct
            // templates per window. A 0.45 factor (~40 active templates,
            // ~145 queries/window) matches that density; 1.0 would overshoot
            // the paper's own workload.
            Scale::Full => 0.45,
        }
    }

    /// Number of windows generated.
    pub fn windows(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Quick => 7,
            Scale::Full => 14,
        }
    }

    /// Parses a CLI scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_factors() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("nope"), None);
        assert!(Scale::Tiny.volume_factor() < Scale::Full.volume_factor());
        assert!(Scale::Tiny.windows() < Scale::Full.windows());
    }
}
