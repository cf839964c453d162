//! How a session reports finishing on a fallback path.

/// Why a design session returned a fallback design instead of running the
/// full descent.
///
/// A populated `DegradedReason` is the *success* shape of failure: the
/// session still returned the best design it had (possibly empty), and
/// the reason is recorded in the trace so operators can audit it. No
/// fault ever escapes a session as a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradedReason {
    /// The initial (line 1) nominal design never succeeded; the session
    /// returned an empty design.
    NominalDesignFailed {
        /// Total attempts made (1 + retries).
        attempts: u32,
        /// Rendered last fault.
        last_fault: String,
    },
    /// Retries were exhausted mid-descent; the best design found so far
    /// was returned.
    RetriesExhausted {
        /// The iteration whose designer call failed for good.
        iteration: usize,
        /// Total attempts made for that call.
        attempts: u32,
        /// Rendered last fault.
        last_fault: String,
    },
    /// The session deadline passed; the best design so far was returned.
    SessionDeadlineExceeded {
        /// Session-clock time when the deadline was noticed (ms).
        elapsed_ms: u64,
        /// The configured deadline (ms).
        deadline_ms: u64,
    },
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::NominalDesignFailed {
                attempts,
                last_fault,
            } => write!(
                f,
                "nominal design failed after {attempts} attempts ({last_fault}); empty design returned"
            ),
            DegradedReason::RetriesExhausted {
                iteration,
                attempts,
                last_fault,
            } => write!(
                f,
                "retries exhausted at iteration {iteration} after {attempts} attempts ({last_fault}); best-so-far returned"
            ),
            DegradedReason::SessionDeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "session deadline exceeded ({elapsed_ms}ms >= {deadline_ms}ms); best-so-far returned"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_render_their_numbers() {
        let r = DegradedReason::RetriesExhausted {
            iteration: 3,
            attempts: 4,
            last_fault: "designer unavailable: injected outage".into(),
        };
        let s = r.to_string();
        assert!(s.contains("iteration 3"));
        assert!(s.contains("4 attempts"));
        let d = DegradedReason::SessionDeadlineExceeded {
            elapsed_ms: 900,
            deadline_ms: 800,
        };
        assert!(d.to_string().contains("900ms"));
    }
}
