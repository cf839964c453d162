//! Timestamped query logs and windowing.
//!
//! The evaluation divides a year-long query trace into fixed-size windows
//! (`W_0, W_1, …`), re-designs at the end of each window, and tests the
//! design on the next window (Section 6.1). [`QueryLog`] holds the trace and
//! produces those windows.

use crate::query::Query;
use crate::workload::Workload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Seconds in a day; window sizes in the paper are given in days.
pub const SECS_PER_DAY: u64 = 86_400;

/// The length in seconds of a window of `days` days, or `None` unless it
/// is at least one day and fits a `u64`: the one rule every entry point
/// applies to a window length it is given.
pub fn window_secs(days: u64) -> Option<u64> {
    days.checked_mul(SECS_PER_DAY).filter(|&secs| secs > 0)
}

/// One timestamped query in a trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogEntry {
    /// Seconds since the start of the trace.
    pub timestamp: u64,
    /// The query.
    pub query: Arc<Query>,
}

/// A timestamped query trace, kept sorted by timestamp.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryLog {
    entries: Vec<LogEntry>,
}

impl QueryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log from entries (sorts by timestamp).
    pub fn from_entries(mut entries: Vec<LogEntry>) -> Self {
        entries.sort_by_key(|e| e.timestamp);
        Self { entries }
    }

    /// Appends an entry; the timestamp must not precede the last one
    /// (generators emit in order). Use [`QueryLog::from_entries`] otherwise.
    pub fn push(&mut self, timestamp: u64, query: Arc<Query>) {
        debug_assert!(
            self.entries
                .last()
                .map_or(true, |e| e.timestamp <= timestamp),
            "out-of-order push"
        );
        self.entries.push(LogEntry { timestamp, query });
    }

    /// Number of log entries (query instances, not distinct queries).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Time span `(first, last)` in seconds, if non-empty.
    pub fn span(&self) -> Option<(u64, u64)> {
        Some((
            self.entries.first()?.timestamp,
            self.entries.last()?.timestamp,
        ))
    }

    /// Splits the trace into consecutive windows of `window_secs` seconds,
    /// each rendered as a weighted [`Workload`] (weight = occurrence count).
    ///
    /// Empty trailing windows are dropped; empty interior windows are kept
    /// (as empty workloads) so window indices remain aligned with time.
    pub fn windows(&self, window_secs: u64) -> Vec<Workload> {
        assert!(window_secs > 0, "window size must be positive");
        let Some((start, end)) = self.span() else {
            return Vec::new();
        };
        let n_windows = ((end - start) / window_secs + 1) as usize;
        let mut out = vec![Workload::new(); n_windows];
        for e in &self.entries {
            let w = ((e.timestamp - start) / window_secs) as usize;
            out[w].add(Arc::clone(&e.query), 1.0);
        }
        out
    }

    /// Windows of `days` days (paper: 7, 14, 21, 28).
    ///
    /// # Panics
    ///
    /// If [`window_secs`] rejects `days`.
    pub fn windows_days(&self, days: u64) -> Vec<Workload> {
        self.windows(
            window_secs(days).expect("window length must be 1 day or more and fit u64 seconds"),
        )
    }

    /// The whole log as one workload.
    pub fn as_workload(&self) -> Workload {
        let mut w = Workload::new();
        for e in &self.entries {
            w.add(Arc::clone(&e.query), 1.0);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;
    use crate::query::QueryBuilder;

    fn q(sel: &[u32]) -> Arc<Query> {
        Arc::new(QueryBuilder::new(TableId(0)).select(sel).build())
    }

    #[test]
    fn windows_partition_by_time() {
        let mut log = QueryLog::new();
        log.push(0, q(&[1]));
        log.push(10, q(&[1]));
        log.push(100, q(&[2]));
        log.push(250, q(&[3]));
        let ws = log.windows(100);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].total_weight(), 2.0);
        assert_eq!(ws[1].total_weight(), 1.0);
        assert_eq!(ws[2].total_weight(), 1.0);
    }

    #[test]
    fn empty_interior_windows_preserved() {
        let mut log = QueryLog::new();
        log.push(0, q(&[1]));
        log.push(350, q(&[2]));
        let ws = log.windows(100);
        assert_eq!(ws.len(), 4);
        assert!(ws[1].is_empty());
        assert!(ws[2].is_empty());
    }

    #[test]
    fn from_entries_sorts() {
        let log = QueryLog::from_entries(vec![
            LogEntry {
                timestamp: 50,
                query: q(&[2]),
            },
            LogEntry {
                timestamp: 10,
                query: q(&[1]),
            },
        ]);
        assert_eq!(log.entries()[0].timestamp, 10);
        assert_eq!(log.span(), Some((10, 50)));
    }

    #[test]
    fn as_workload_counts_occurrences() {
        let mut log = QueryLog::new();
        log.push(0, q(&[1]));
        log.push(1, q(&[1]));
        let w = log.as_workload();
        assert_eq!(w.len(), 1);
        assert_eq!(w.total_weight(), 2.0);
    }

    #[test]
    fn empty_log_yields_no_windows() {
        assert!(QueryLog::new().windows(100).is_empty());
        assert!(QueryLog::new().span().is_none());
    }

    #[test]
    fn windows_days_uses_day_units() {
        let mut log = QueryLog::new();
        log.push(0, q(&[1]));
        log.push(SECS_PER_DAY * 7, q(&[2]));
        assert_eq!(log.windows_days(7).len(), 2);
        assert_eq!(log.windows_days(14).len(), 1);
    }
}
