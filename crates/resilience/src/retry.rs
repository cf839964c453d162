//! Retry, backoff, and deadline policy for designer invocations.

/// Backoff before the first retry (ms).
const BASE_BACKOFF_MS: u64 = 25;

/// Backoff ceiling (ms).
const MAX_BACKOFF_MS: u64 = 1_000;

/// How the session runtime treats a failing designer call.
///
/// Backoff is capped exponential: attempt `k` (0-based) waits
/// `min(BASE_BACKOFF_MS << k, MAX_BACKOFF_MS)` (25 ms doubling up to
/// 1 s) before retrying. All waits and deadlines run on the session's
/// [`SessionClock`] (`crate::SessionClock`), so under a virtual clock the
/// policy is exact and free.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failed one (0 = never retry).
    pub max_retries: u32,
    /// Per-call deadline: a call slower than this counts as a fault
    /// (`DesignerFault::TimedOut`) even if it eventually returned.
    pub designer_deadline_ms: Option<u64>,
    /// Per-session deadline: once the session clock passes this, the
    /// session stops retrying and returns its best design so far.
    pub session_deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            designer_deadline_ms: None,
            session_deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// Sets the per-call deadline.
    pub fn with_designer_deadline_ms(mut self, ms: u64) -> Self {
        self.designer_deadline_ms = Some(ms);
        self
    }

    /// Sets the per-session deadline.
    pub fn with_session_deadline_ms(mut self, ms: u64) -> Self {
        self.session_deadline_ms = Some(ms);
        self
    }

    /// Backoff before retry number `attempt` (0-based), in ms.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        BASE_BACKOFF_MS.saturating_mul(factor).min(MAX_BACKOFF_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0), BASE_BACKOFF_MS);
        assert_eq!(p.backoff_ms(1), 2 * BASE_BACKOFF_MS);
        assert_eq!(p.backoff_ms(2), 4 * BASE_BACKOFF_MS);
        assert_eq!(p.backoff_ms(5), 32 * BASE_BACKOFF_MS);
        assert_eq!(p.backoff_ms(6), MAX_BACKOFF_MS); // capped
        assert_eq!(p.backoff_ms(63), MAX_BACKOFF_MS);
        assert_eq!(p.backoff_ms(64), MAX_BACKOFF_MS); // shift overflow saturates
    }
}
