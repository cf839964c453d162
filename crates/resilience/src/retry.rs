//! Retry, backoff, and deadline policy for designer invocations.

/// How the session runtime treats a failing designer call.
///
/// Backoff is capped exponential: attempt `k` (0-based) waits
/// `min(base_backoff_ms << k, max_backoff_ms)` before retrying. All
/// waits and deadlines run on the session's [`SessionClock`]
/// (`crate::SessionClock`), so under a virtual clock the policy is exact
/// and free.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failed one (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry (ms).
    pub base_backoff_ms: u64,
    /// Backoff ceiling (ms).
    pub max_backoff_ms: u64,
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
            base_backoff_ms: 25,
            max_backoff_ms: 1_000,
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
        self.base_backoff_ms
            .saturating_mul(factor)
            .min(self.max_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_ms: 25,
            max_backoff_ms: 150,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ms(0), 25);
        assert_eq!(p.backoff_ms(1), 50);
        assert_eq!(p.backoff_ms(2), 100);
        assert_eq!(p.backoff_ms(3), 150); // capped
        assert_eq!(p.backoff_ms(63), 150);
        assert_eq!(p.backoff_ms(64), 150); // shift overflow saturates
    }
}
