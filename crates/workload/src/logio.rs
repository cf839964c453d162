//! Text import of query logs.
//!
//! The paper's pipeline starts from a customer query log: timestamped SQL
//! statements, of which only a subset parses against the current schema
//! ("430+K time-stamped queries … out of which 15.5K queries conform to
//! their latest schema (i.e., can be parsed)"). This module reads that
//! format — one `epoch_seconds<TAB>SQL` record per line — parsing what it
//! can and reporting what it skipped, exactly like the paper's ingest.
//!
//! The matching export (rendering structural queries back to SQL) lives in
//! `cliffguard-storage`, which knows the catalog's names.

use crate::log::{LogEntry, QueryLog};
use crate::parser::parse_query;
use crate::query::Query;
use crate::resolve::NameResolver;
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of importing a text log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Records parsed into queries.
    pub parsed: usize,
    /// Records skipped: unparseable SQL (schema drift, unsupported syntax).
    pub skipped_sql: usize,
    /// Records skipped: malformed lines (no tab, bad timestamp).
    pub skipped_malformed: usize,
}

impl ImportReport {
    /// Total lines examined (excluding blanks/comments).
    pub fn total(&self) -> usize {
        self.parsed + self.skipped_sql + self.skipped_malformed
    }
}

/// One log line under the record grammar shared by [`import_log`] and
/// [`LogStream`](crate::stream::LogStream).
#[derive(Debug)]
pub(crate) enum Record<'a> {
    /// Blank or `#` comment: not a record.
    Blank,
    /// No tab, or a timestamp that is not a `u64`.
    Malformed,
    /// A timestamped statement, not yet parsed.
    Statement(u64, &'a str),
}

/// Classifies one line (without its terminator): trim, skip blanks and `#`
/// comments, split at the first tab, parse the timestamp.
// Inlined into `LogStream`'s per-line loop, where a call per line costs
// ingest throughput.
#[inline]
pub(crate) fn split_record(line: &str) -> Record<'_> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Record::Blank;
    }
    let Some((ts, sql)) = line.split_once('\t') else {
        return Record::Malformed;
    };
    match ts.trim().parse::<u64>() {
        Ok(timestamp) => Record::Statement(timestamp, sql),
        Err(_) => Record::Malformed,
    }
}

/// Parses a `epoch_seconds<TAB>SQL` text log against a schema resolver.
///
/// Blank lines and lines starting with `#` are ignored. Unparseable
/// records are counted, not fatal — a year-old log never fully conforms to
/// the current schema.
///
/// Each distinct statement text is parsed once per call and its query
/// shared by every record that repeats it. Identical text parses to an
/// identical query (`raw_sql` included), so sharing is exact; the cache is
/// keyed by text, not by [`QuerySignature`](crate::QuerySignature), whose
/// rounded selectivities could stand one query in for another.
pub fn import_log(text: &str, resolver: &dyn NameResolver) -> (QueryLog, ImportReport) {
    let mut entries = Vec::new();
    let mut report = ImportReport::default();
    let mut parsed: HashMap<&str, Option<Arc<Query>>> = HashMap::new();
    for line in text.lines() {
        let (timestamp, sql) = match split_record(line) {
            Record::Blank => continue,
            Record::Malformed => {
                report.skipped_malformed += 1;
                continue;
            }
            Record::Statement(timestamp, sql) => (timestamp, sql),
        };
        let outcome = parsed
            .entry(sql)
            .or_insert_with(|| parse_query(sql, resolver).ok().map(Arc::new));
        match outcome {
            Some(query) => {
                entries.push(LogEntry {
                    timestamp,
                    query: Arc::clone(query),
                });
                report.parsed += 1;
            }
            None => report.skipped_sql += 1,
        }
    }
    (QueryLog::from_entries(entries), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::SimpleResolver;

    fn resolver() -> SimpleResolver {
        let mut r = SimpleResolver::new();
        r.add_table("sales", &["id", "amount", "region"]);
        r
    }

    #[test]
    fn imports_well_formed_records() {
        let text = "# a comment\n\
                    100\tSELECT amount FROM sales WHERE region = 'w'\n\
                    \n\
                    50\tSELECT id FROM sales\n";
        let (log, report) = import_log(text, &resolver());
        assert_eq!(
            report,
            ImportReport {
                parsed: 2,
                skipped_sql: 0,
                skipped_malformed: 0
            }
        );
        assert_eq!(log.len(), 2);
        // sorted by timestamp despite input order
        assert_eq!(log.entries()[0].timestamp, 50);
    }

    #[test]
    fn skips_unparseable_sql_like_the_paper() {
        let text = "1\tSELECT amount FROM sales\n\
                    2\tSELECT nope FROM sales\n\
                    3\tDELETE FROM sales\n";
        let (log, report) = import_log(text, &resolver());
        assert_eq!(report.parsed, 1);
        assert_eq!(report.skipped_sql, 2);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn skips_malformed_lines() {
        let text = "no-tab-here\nnot_a_ts\tSELECT id FROM sales\n9\tSELECT id FROM sales\n";
        let (log, report) = import_log(text, &resolver());
        assert_eq!(report.skipped_malformed, 2);
        assert_eq!(report.parsed, 1);
        assert_eq!(report.total(), 3);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn empty_input_empty_log() {
        let (log, report) = import_log("", &resolver());
        assert!(log.is_empty());
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn repeated_texts_share_one_query() {
        let text = "1\tSELECT id FROM sales\n\
                    2\tSELECT amount FROM sales\n\
                    3\tSELECT id FROM sales\n\
                    4\t SELECT id FROM sales\n";
        let (log, report) = import_log(text, &resolver());
        assert_eq!(report.parsed, 4);
        let e = log.entries();
        assert!(Arc::ptr_eq(&e[0].query, &e[2].query));
        assert!(!Arc::ptr_eq(&e[0].query, &e[1].query));
        // A different text is a different cache key, even when it parses
        // to the same query: its `raw_sql` differs.
        assert!(!Arc::ptr_eq(&e[0].query, &e[3].query));
        assert_eq!(e[3].query.raw_sql.as_deref(), Some(" SELECT id FROM sales"));
    }

    #[test]
    fn repeated_unparseable_text_counts_per_record() {
        let text = "1\tSELECT nope FROM sales\n\
                    2\tSELECT nope FROM sales\n\
                    3\tSELECT id FROM sales\n\
                    4\tSELECT nope FROM sales\n";
        let (log, report) = import_log(text, &resolver());
        assert_eq!(report.skipped_sql, 3);
        assert_eq!(report.parsed, 1);
        assert_eq!(log.len(), 1);
    }

    /// Statement texts for the generated logs: valid, unparseable, and
    /// texts that differ only in spacing or a literal (same signature,
    /// different `raw_sql`).
    const STATEMENTS: &[&str] = &[
        "SELECT id FROM sales",
        "SELECT  id FROM sales",
        "SELECT amount FROM sales WHERE region = 'w'",
        "SELECT amount FROM sales WHERE region = 'e'",
        "SELECT region, amount FROM sales WHERE amount > 10 ORDER BY amount",
        "SELECT nope FROM sales",
        "DELETE FROM sales",
        "",
    ];

    /// Renders one generated line; the last four kinds are not statements.
    fn render_line(kind: usize, ts: u64, pad: bool) -> String {
        let pad = if pad { "  " } else { "" };
        match kind.checked_sub(STATEMENTS.len()) {
            None => format!("{pad}{ts}\t{}{pad}", STATEMENTS[kind]),
            Some(0) => pad.to_owned(),
            Some(1) => format!("# {ts}\tSELECT id FROM sales"),
            Some(2) => format!("{ts} SELECT id FROM sales"),
            _ => format!("x{ts}\tSELECT id FROM sales"),
        }
    }

    /// Per-line reference: every record parsed on its own.
    fn reference(text: &str, resolver: &SimpleResolver) -> (Vec<(u64, Query)>, ImportReport) {
        let mut entries = Vec::new();
        let mut report = ImportReport::default();
        for line in text.lines() {
            match split_record(line) {
                Record::Blank => {}
                Record::Malformed => report.skipped_malformed += 1,
                Record::Statement(ts, sql) => match parse_query(sql, resolver) {
                    Ok(q) => {
                        entries.push((ts, q));
                        report.parsed += 1;
                    }
                    Err(_) => report.skipped_sql += 1,
                },
            }
        }
        entries.sort_by_key(|&(ts, _)| ts);
        (entries, report)
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn cached_import_matches_per_line_parsing(
                base in proptest::collection::vec(
                    (0..STATEMENTS.len() + 4, 0..40u64, 0..4u8),
                    1..24,
                ),
                repeats in proptest::collection::vec(0..1000usize, 0..48),
            ) {
                // The base lines, then duplicates of them in a random order.
                let lines: Vec<String> = base
                    .iter()
                    .chain(repeats.iter().map(|&i| &base[i % base.len()]))
                    .map(|&(kind, ts, pad)| render_line(kind, ts, pad == 0))
                    .collect();
                let text = lines.join("\n");
                let r = resolver();
                let (log, report) = import_log(&text, &r);
                let (want, want_report) = reference(&text, &r);
                prop_assert_eq!(&report, &want_report);
                prop_assert_eq!(log.len(), want.len());
                for (got, (ts, q)) in log.entries().iter().zip(&want) {
                    prop_assert_eq!(got.timestamp, *ts);
                    // Debug covers every field, `raw_sql` and float bits
                    // included (`PartialEq` compares signatures only).
                    prop_assert_eq!(format!("{:?}", got.query), format!("{q:?}"));
                }
                // One shared query per distinct text.
                let e = log.entries();
                for a in e {
                    for b in e {
                        prop_assert_eq!(
                            Arc::ptr_eq(&a.query, &b.query),
                            a.query.raw_sql == b.query.raw_sql
                        );
                    }
                }
            }
        }
    }
}
