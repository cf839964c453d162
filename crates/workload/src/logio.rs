//! Text import of query logs.
//!
//! The paper's pipeline starts from a customer query log: timestamped SQL
//! statements, of which only a subset parses against the current schema
//! ("430+K time-stamped queries … out of which 15.5K queries conform to
//! their latest schema (i.e., can be parsed)"). This module reads that
//! format — one `epoch_seconds<TAB>SQL` record per line — parsing what it
//! can and reporting what it skipped, exactly like the paper's ingest.
//!
//! It also holds the per-line path that [`import_log`] and
//! [`LogStream`](crate::stream::LogStream) share: the record grammar
//! (`split_record`), whose early return reads a `digits<TAB>SQL` line
//! without trimming or a general parse, and the keyed two-lane hash both
//! statement caches use (`StatementKeys`).
//!
//! The matching export (rendering structural queries back to SQL) lives in
//! `cliffguard-storage`, which knows the catalog's names.

use crate::log::{LogEntry, QueryLog};
use crate::parser::parse_query;
use crate::query::Query;
use crate::resolve::NameResolver;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
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
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Record<'a> {
    /// Blank or `#` comment: not a record.
    Blank,
    /// No tab, or a timestamp that is not a `u64`.
    Malformed,
    /// A timestamped statement, not yet parsed.
    Statement(u64, &'a str),
}

/// The most timestamp digits the early return of [`split_record`] reads:
/// 10^19 − 1 < `u64::MAX`, so no 19-digit timestamp overflows.
const EARLY_TIMESTAMP_DIGITS: usize = 19;

/// Classifies one line (without its terminator): trim, skip blanks and `#`
/// comments, split at the first tab, parse the timestamp.
///
/// Nearly every record is `digits<TAB>SQL`, and such a line returns early.
/// When its first byte is an ASCII digit and its last byte visible ASCII
/// (0x21–0x7E), neither end has whitespace to trim, so the line itself is
/// the trimmed line. Up to 19 digits and then a tab are read as the
/// timestamp and the split point: the first tab is then the one
/// `split_once` finds, and 19 digits parse to the `u64` that `parse` gives.
/// Every other line (a leading `+` or blank, a spaced or 20-digit
/// timestamp, trailing whitespace, no tab) takes the general path, so the
/// two paths classify every line alike.
// Inlined into `LogStream`'s per-line loop, where a call per line costs
// ingest throughput.
#[inline]
pub(crate) fn split_record(line: &str) -> Record<'_> {
    let bytes = line.as_bytes();
    if let (Some(first), Some(last)) = (bytes.first(), bytes.last()) {
        if first.is_ascii_digit() && last.is_ascii_graphic() {
            let mut timestamp = 0u64;
            for (i, &b) in bytes.iter().enumerate() {
                if b == b'\t' {
                    return Record::Statement(timestamp, &line[i + 1..]);
                }
                if i == EARLY_TIMESTAMP_DIGITS || !b.is_ascii_digit() {
                    break;
                }
                timestamp = timestamp * 10 + u64::from(b - b'0');
            }
        }
    }
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
/// rounded selectivities could stand one query in for another. It hashes
/// the text with the stream cache's keyed hash.
pub fn import_log(text: &str, resolver: &dyn NameResolver) -> (QueryLog, ImportReport) {
    let mut entries = Vec::new();
    let mut report = ImportReport::default();
    let mut parsed: HashMap<&str, Option<Arc<Query>>, StatementKeys> =
        HashMap::with_hasher(StatementKeys::random());
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

/// The statement caches' hash keys, drawn from [`RandomState`] once per
/// cache.
///
/// Both caches (the stream's and [`import_log`]'s) are keyed by log text,
/// which the daemon's tenants supply, and ingest runs on the daemon's one
/// request loop; without the keys no one can choose texts that collide.
/// The hash folds a 64×64→128-bit multiply per 8 bytes of text in two
/// independent lanes, one per half of each 16-byte step, so the two
/// multiplies of a step overlap instead of waiting on each other; it is
/// prefixed with the text's length, and a text that does not fill its
/// last step is read with overlapping words rather than zero-padded. The
/// caches are probed, filled and cleared but never iterated, so no output
/// depends on the keys.
pub(crate) struct StatementKeys {
    /// Each lane's starting state.
    lanes: [u64; 2],
    multiplier: u64,
}

impl std::fmt::Debug for StatementKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The keys stay out of debug output.
        f.debug_struct("StatementKeys").finish_non_exhaustive()
    }
}

impl StatementKeys {
    pub(crate) fn random() -> Self {
        let keys = RandomState::new();
        Self {
            lanes: [keys.hash_one(0u8), keys.hash_one(2u8)],
            multiplier: keys.hash_one(1u8) | 1,
        }
    }
}

impl BuildHasher for StatementKeys {
    type Hasher = StatementHasher;

    #[inline]
    fn build_hasher(&self) -> StatementHasher {
        StatementHasher {
            lanes: self.lanes,
            multiplier: self.multiplier,
        }
    }
}

/// The hasher [`StatementKeys`] builds.
pub(crate) struct StatementHasher {
    lanes: [u64; 2],
    multiplier: u64,
}

impl StatementHasher {
    /// One lane step: `state ^ word`, multiplied by the key, folded.
    #[inline]
    fn mix(&self, state: u64, word: u64) -> u64 {
        let product = u128::from(state ^ word) * u128::from(self.multiplier);
        product as u64 ^ (product >> 64) as u64
    }
}

/// The 8 bytes at `at` as a little-endian word.
#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

impl Hasher for StatementHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length goes first. Given it, the words read below determine
        // the text, although the last step's words overlap bytes that the
        // steps before it read.
        let len = bytes.len();
        let [mut a, mut b] = self.lanes;
        a = self.mix(a, len as u64);
        if len >= 8 {
            let mut steps = bytes.chunks_exact(16);
            for step in &mut steps {
                a = self.mix(a, word_at(step, 0));
                b = self.mix(b, word_at(step, 8));
            }
            // The last 1–15 bytes, read as the text's last 16 bytes (its
            // first and last 8 when it is shorter than 16): no padding.
            if !steps.remainder().is_empty() {
                a = self.mix(a, word_at(bytes, len.saturating_sub(16)));
                b = self.mix(b, word_at(bytes, len - 8));
            }
        } else if len > 0 {
            let mut word = [0u8; 8];
            word[..len].copy_from_slice(bytes);
            a = self.mix(a, u64::from_le_bytes(word));
        }
        self.lanes = [a, b];
    }

    /// `str` hashing ends each text with a `0xff` byte: one step, where
    /// the default `write(&[byte])` would take two.
    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.lanes[1] = self.mix(self.lanes[1], u64::from(byte));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.mix(self.lanes[0], self.lanes[1])
    }
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

    /// The record grammar's general path alone: the oracle that
    /// [`split_record`] must match on every line.
    fn general_grammar(line: &str) -> Record<'_> {
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

    #[test]
    fn record_grammar_edges() {
        use Record::{Blank, Malformed, Statement};
        let cases: &[(&str, &str, Record<'_>)] = &[
            ("one digit", "7\tq", Statement(7, "q")),
            ("leading zeros", "0042\tq", Statement(42, "q")),
            (
                "19 digits, the early return's most",
                "9999999999999999999\tq",
                Statement(9_999_999_999_999_999_999, "q"),
            ),
            (
                "u64::MAX",
                "18446744073709551615\tq",
                Statement(u64::MAX, "q"),
            ),
            ("u64::MAX + 1", "18446744073709551616\tq", Malformed),
            (
                "20 digits, a leading zero",
                "01844674407370955161\tq",
                Statement(1_844_674_407_370_955_161, "q"),
            ),
            ("21 digits", "000000000000000000042\tq", Statement(42, "q")),
            ("a leading +", "+5\tq", Statement(5, "q")),
            ("a leading -", "-5\tq", Malformed),
            ("spaces around the timestamp", " 5 \tq", Statement(5, "q")),
            ("a leading tab", "\t5\tq", Statement(5, "q")),
            ("an empty timestamp", "\tq", Malformed),
            ("a space inside the timestamp", "1 2\tq", Malformed),
            ("a letter after the digits", "12a\tq", Malformed),
            ("no tab", "12345", Malformed),
            ("no tab, a space", "5 q", Malformed),
            ("an empty statement", "5\t", Malformed),
            (
                "a tab inside the statement",
                "5\ta\tb",
                Statement(5, "a\tb"),
            ),
            ("a tab leading the statement", "5\t\tq", Statement(5, "\tq")),
            ("a trailing space", "5\tq ", Statement(5, "q")),
            ("a trailing \\r", "5\tq\r", Statement(5, "q")),
            ("a trailing U+0085", "5\tq\u{85}", Statement(5, "q")),
            ("a trailing U+00A0", "5\tq\u{a0}", Statement(5, "q")),
            ("a trailing U+3000", "5\tq\u{3000}", Statement(5, "q")),
            ("a trailing DEL", "5\tq\u{7f}", Statement(5, "q\u{7f}")),
            ("a trailing non-ASCII letter", "5\tqé", Statement(5, "qé")),
            ("a comment", "# 5\tq", Blank),
            ("an indented comment", "  #5\tq", Blank),
            ("an empty line", "", Blank),
            ("a blank line", " \t\u{3000}", Blank),
        ];
        for (name, line, want) in cases {
            assert_eq!(&split_record(line), want, "{name}: {line:?}");
            assert_eq!(&general_grammar(line), want, "{name}, general: {line:?}");
        }
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

        /// What may stand before the timestamp.
        const LEADS: &[&str] = &[
            "", "", "", "", "+", "-", " ", "\t", " \t ", "#", "\u{a0}", "\u{3000}",
        ];
        /// Timestamps at the early return's edges; the rest are random.
        const TIMESTAMPS: &[&str] = &[
            "18446744073709551615",
            "18446744073709551616",
            "9999999999999999999",
            "10000000000000000000",
            "99999999999999999999",
            "000000000000000000000042",
        ];
        /// What may stand between the timestamp and the statement.
        const SEPARATORS: &[&str] = &[
            "\t",
            "\t",
            "\t",
            "\t",
            " \t",
            "\t ",
            " ",
            "",
            "\t\t",
            "\u{3000}\t",
        ];
        const BODIES: &[&str] = &["SELECT id FROM sales", "", "a\tb", "x", "SELECT 'é'", "#"];
        /// Last characters: visible ASCII, ASCII whitespace and controls,
        /// Unicode whitespace and other non-ASCII.
        const LASTS: &[&str] = &[
            "", "", "", "x", "0", ";", "'", ")", "~", "!", " ", "\t", "\r", "\u{b}", "\u{c}",
            "\u{1f}", "\u{7f}", "\u{85}", "\u{a0}", "\u{3000}", "\u{2028}", "é", "語", "😀",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn split_record_matches_the_general_grammar(
                shape in (0..8usize, 0..LEADS.len(), 0..LASTS.len()),
                timestamp in (0..4 + TIMESTAMPS.len(), proptest::collection::vec(0..10u8, 0..22)),
                record in (0..SEPARATORS.len(), 0..BODIES.len()),
            ) {
                let (kind, lead, last) = shape;
                let (pick, digits) = timestamp;
                let (separator, body) = record;
                let timestamp = match pick.checked_sub(4) {
                    Some(i) => TIMESTAMPS[i].to_owned(),
                    None => digits.iter().map(|&d| char::from(b'0' + d)).collect(),
                };
                let line = match kind {
                    // No timestamp: mostly blank, `#` or stray lines.
                    0 => format!("{}{}", LEADS[lead], LASTS[last]),
                    _ => format!(
                        "{}{timestamp}{}{}{}",
                        LEADS[lead], SEPARATORS[separator], BODIES[body], LASTS[last]
                    ),
                };
                prop_assert_eq!(split_record(&line), general_grammar(&line), "{:?}", line);
            }
        }

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
