//! Chunked streaming ingest of `epoch_seconds<TAB>SQL` query logs.
//!
//! [`import_log`](crate::logio::import_log) materializes the whole log text
//! before parsing, with a statement cache that lives for one call and holds
//! at most the input's distinct texts — fine for files, wrong for a live
//! trace. [`LogStream`] accepts the same format as arbitrary byte chunks
//! (any split points, including mid-line and mid-UTF-8-sequence) and emits
//! parsed queries incrementally, with three properties the online advisor
//! builds on:
//!
//! * **Chunking-invariant**: the emitted `(timestamp, query)` sequence and
//!   the [`StreamStats`] depend only on the concatenated bytes, never on
//!   where the chunk boundaries fall. Partial trailing lines are carried in
//!   a reused buffer until their terminator (or [`LogStream::finish`])
//!   arrives.
//! * **Line-compatible with `import_log`**: both classify lines with one
//!   record grammar (`logio::split_record`, which reads the usual
//!   `digits<TAB>SQL` line with an exact early return) and key their
//!   statement caches by text under one keyed hash
//!   (`logio::StatementKeys`), so for valid UTF-8 input the per-line
//!   accept/skip decisions are identical and the streaming and batch
//!   pipelines agree on every record.
//! * **Allocation-amortized**: repeated statement texts hit a bounded
//!   statement cache (text → parse outcome) and re-emit their interned
//!   [`QueryId`] without lexing, parsing, or allocating. Logs are dominated
//!   by repeated templates, so the steady state is a hash lookup per line.
//!
//! Distinct queries are deduplicated into the stream's own
//! [`WorkloadInterner`]; [`LogStream::compact`] rebuilds it (and clears the
//! statement cache, whose entries hold interner ids) so an unbounded log
//! cannot grow the intern table without limit. The production ingest
//! paths — the `cliffguard ingest` CLI and the serve daemon's per-tenant
//! sessions — call it after every chunk via the online advisor's
//! `compact_stream`, which drops everything outside the advisor's
//! retained windows once the table exceeds its capacity bound.

use crate::interner::{QueryId, WorkloadInterner};
use crate::logio::{split_record, Record, StatementKeys};
use crate::parser::parse_query;
use crate::query::Query;
use crate::resolve::NameResolver;
use std::collections::HashMap;
use std::sync::Arc;

/// Default bound on distinct statement texts kept in the parse cache.
///
/// When the cache reaches this many entries it is cleared (deterministically
/// — the fill level depends only on the arrival order of distinct texts, not
/// on chunking), trading one re-parse per distinct statement per generation
/// for a hard memory bound.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Counters accumulated while streaming a log.
///
/// `parsed`/`skipped_sql`/`skipped_malformed` match
/// [`ImportReport`](crate::logio::ImportReport) exactly on the same input;
/// `lines` additionally counts blank and `#`-comment lines, and invalid
/// UTF-8 lines count as malformed (a case the `&str`-based importer cannot
/// see).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StreamStats {
    /// Records parsed into queries and emitted.
    pub parsed: u64,
    /// Records skipped: unparseable SQL (schema drift, unsupported syntax).
    pub skipped_sql: u64,
    /// Records skipped: malformed lines (no tab, bad timestamp, bad UTF-8).
    pub skipped_malformed: u64,
    /// Every line seen, including blanks and comments.
    pub lines: u64,
    /// Total bytes fed through [`LogStream::feed`].
    pub bytes: u64,
}

impl StreamStats {
    /// Total records examined (excluding blanks/comments), as
    /// [`ImportReport::total`](crate::logio::ImportReport::total).
    pub fn total(&self) -> u64 {
        self.parsed + self.skipped_sql + self.skipped_malformed
    }
}

/// Per-arrival sink: `(timestamp, interned id, query)` for each parsed
/// record, in log order.
pub type ArrivalSink<'a> = dyn FnMut(u64, QueryId, &Arc<Query>) + 'a;

/// Incremental chunk-at-a-time reader for `epoch_seconds<TAB>SQL` logs.
#[derive(Debug)]
pub struct LogStream {
    interner: WorkloadInterner,
    /// Bytes of the current unterminated line, reused across chunks.
    carry: Vec<u8>,
    /// Statement text → parse outcome (`Some(id)` parsed, `None` rejected).
    cache: HashMap<String, Option<QueryId>, StatementKeys>,
    cache_capacity: usize,
    /// Cache generations discarded so far (cap reached).
    cache_resets: u64,
    stats: StreamStats,
}

impl Default for LogStream {
    fn default() -> Self {
        Self::new()
    }
}

impl LogStream {
    /// Creates a stream with the default statement-cache bound.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates a stream whose statement cache is cleared whenever it holds
    /// `capacity` distinct texts (minimum 1).
    pub fn with_cache_capacity(capacity: usize) -> Self {
        Self {
            interner: WorkloadInterner::new(),
            carry: Vec::new(),
            cache: HashMap::with_hasher(StatementKeys::random()),
            cache_capacity: capacity.max(1),
            cache_resets: 0,
            stats: StreamStats::default(),
        }
    }

    /// Feeds one chunk of log bytes, invoking `sink` once per parsed record
    /// in order. Chunk boundaries may fall anywhere.
    pub fn feed(&mut self, chunk: &[u8], resolver: &dyn NameResolver, sink: &mut ArrivalSink<'_>) {
        self.stats.bytes += chunk.len() as u64;
        let mut data = chunk;
        if !self.carry.is_empty() {
            // Complete the carried partial line from this chunk (or keep
            // carrying if the chunk has no terminator at all).
            match data.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    self.carry.extend_from_slice(&data[..pos]);
                    let line = std::mem::take(&mut self.carry);
                    self.process_line(strip_cr(&line), resolver, sink);
                    // Put the allocation back for the next partial line.
                    self.carry = line;
                    self.carry.clear();
                    data = &data[pos + 1..];
                }
                None => {
                    self.carry.extend_from_slice(data);
                    return;
                }
            }
        }
        // Complete lines are processed straight out of the chunk, copy-free,
        // under one UTF-8 check for all of them.
        let Some(last) = data.iter().rposition(|&b| b == b'\n') else {
            self.carry.extend_from_slice(data);
            return;
        };
        let (lines, rest) = data.split_at(last + 1);
        match std::str::from_utf8(lines) {
            Ok(text) => {
                for line in text.split_terminator('\n') {
                    let line = line.strip_suffix('\r').unwrap_or(line);
                    self.process_record(split_record(line), resolver, sink);
                }
            }
            // Some line is not UTF-8: check each on its own, so that only
            // the invalid lines are malformed.
            Err(_) => {
                for line in lines[..last].split(|&b| b == b'\n') {
                    self.process_line(strip_cr(line), resolver, sink);
                }
            }
        }
        self.carry.extend_from_slice(rest);
    }

    /// Flushes the trailing unterminated line, if any (a final line without
    /// a newline is still a record, exactly as in `str::lines`).
    pub fn finish(&mut self, resolver: &dyn NameResolver, sink: &mut ArrivalSink<'_>) {
        if self.carry.is_empty() {
            return;
        }
        let line = std::mem::take(&mut self.carry);
        // No terminator was seen, so no `\r` is stripped — `str::lines`
        // only strips `\r` as part of a `\r\n` ending. (`trim` removes a
        // trailing `\r` anyway; this keeps the split rule itself exact.)
        self.process_line(&line, resolver, sink);
        self.carry = line;
        self.carry.clear();
    }

    /// One split-out line, under `import_log`'s record grammar
    /// ([`split_record`]); invalid UTF-8 is malformed.
    fn process_line(
        &mut self,
        line: &[u8],
        resolver: &dyn NameResolver,
        sink: &mut ArrivalSink<'_>,
    ) {
        let record = std::str::from_utf8(line).map_or(Record::Malformed, split_record);
        self.process_record(record, resolver, sink);
    }

    /// One classified line: counted, then emitted, skipped, or ignored.
    fn process_record(
        &mut self,
        record: Record<'_>,
        resolver: &dyn NameResolver,
        sink: &mut ArrivalSink<'_>,
    ) {
        self.stats.lines += 1;
        let (timestamp, sql) = match record {
            Record::Blank => return,
            Record::Malformed => {
                self.stats.skipped_malformed += 1;
                return;
            }
            Record::Statement(timestamp, sql) => (timestamp, sql),
        };
        // Fast path: the statement text was seen before (either outcome).
        if let Some(&outcome) = self.cache.get(sql) {
            match outcome {
                Some(id) => {
                    self.stats.parsed += 1;
                    sink(timestamp, id, self.interner.query(id));
                }
                None => self.stats.skipped_sql += 1,
            }
            return;
        }
        match parse_query(sql, resolver) {
            Ok(q) => {
                let id = self.interner.intern_query(&Arc::new(q));
                self.cache_insert(sql.to_owned(), Some(id));
                self.stats.parsed += 1;
                sink(timestamp, id, self.interner.query(id));
            }
            Err(_) => {
                self.cache_insert(sql.to_owned(), None);
                self.stats.skipped_sql += 1;
            }
        }
    }

    fn cache_insert(&mut self, sql: String, outcome: Option<QueryId>) {
        if self.cache.len() >= self.cache_capacity {
            self.cache.clear();
            self.cache_resets += 1;
        }
        self.cache.insert(sql, outcome);
    }

    /// Bytes of the current unterminated line (the persistence surface for
    /// kill/resume: see [`restore`](Self::restore)). May end mid-UTF-8
    /// sequence when the last chunk split a multi-byte character.
    pub fn carry(&self) -> &[u8] {
        &self.carry
    }

    /// Rebuilds a stream mid-tape from its persisted surface: the carried
    /// partial line, the counters, and the cache-reset count. The interner
    /// and statement cache start empty — parsing is deterministic, so the
    /// emitted `(timestamp, query)` sequence on the remaining bytes is
    /// unaffected; only the interner ids are renumbered, and nothing
    /// downstream keys on them. (`cache_resets` may consequently lag an
    /// uninterrupted run by at most one generation.)
    pub fn restore(carry: Vec<u8>, stats: StreamStats, cache_resets: u64) -> Self {
        Self {
            carry,
            stats,
            cache_resets,
            ..Self::new()
        }
    }

    /// The stream's counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The interner holding every distinct parsed query.
    pub fn interner(&self) -> &WorkloadInterner {
        &self.interner
    }

    /// Distinct statement texts currently cached.
    pub fn cached_statements(&self) -> usize {
        self.cache.len()
    }

    /// How many times the statement cache hit its bound and was cleared.
    pub fn cache_resets(&self) -> u64 {
        self.cache_resets
    }

    /// Compacts the interner, keeping only queries for which `keep` returns
    /// true, and returns the old→new id map (see
    /// [`WorkloadInterner::compact`]). The statement cache is cleared —
    /// its entries hold pre-compaction ids — so this is safe to call at any
    /// deterministic point in the stream (e.g. on window close).
    pub fn compact<F>(&mut self, keep: F) -> Vec<Option<QueryId>>
    where
        F: FnMut(QueryId, &Arc<Query>) -> bool,
    {
        self.cache.clear();
        self.interner.compact(keep)
    }
}

/// Strips the single trailing `\r` of a `\r\n` line ending, as
/// `str::lines` does.
fn strip_cr(line: &[u8]) -> &[u8] {
    match line {
        [rest @ .., b'\r'] => rest,
        _ => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logio::import_log;
    use crate::resolve::SimpleResolver;
    use std::hash::BuildHasher;

    fn resolver() -> SimpleResolver {
        let mut r = SimpleResolver::new();
        r.add_table("sales", &["id", "amount", "region"]);
        r
    }

    /// Runs `text` through a stream at the given chunk size, returning the
    /// arrival list and final stats.
    fn stream_all(text: &[u8], chunk: usize, cache: usize) -> (Vec<(u64, u64)>, StreamStats) {
        let r = resolver();
        let mut s = LogStream::with_cache_capacity(cache);
        let mut out = Vec::new();
        let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| out.push((ts, q.signature().0));
        for piece in text.chunks(chunk.max(1)) {
            s.feed(piece, &r, &mut sink);
        }
        s.finish(&r, &mut sink);
        (out, s.stats().clone())
    }

    const SAMPLE: &str = "# header\n\
        100\tSELECT amount FROM sales WHERE region = 'w'\n\
        \n\
        no-tab-here\n\
        abc\tSELECT id FROM sales\n\
        200\tSELECT nope FROM sales\n\
        300\tSELECT id FROM sales\r\n\
        400\tSELECT amount FROM sales WHERE region = 'w'";

    #[test]
    fn matches_import_log_on_the_same_text() {
        let (log, report) = import_log(SAMPLE, &resolver());
        let (arrivals, stats) = stream_all(SAMPLE.as_bytes(), 7, 1024);
        assert_eq!(stats.parsed as usize, report.parsed);
        assert_eq!(stats.skipped_sql as usize, report.skipped_sql);
        assert_eq!(stats.skipped_malformed as usize, report.skipped_malformed);
        assert_eq!(arrivals.len(), log.len());
        // import_log sorts by timestamp; the stream preserves log order.
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|&(ts, _)| ts);
        for (got, want) in sorted.iter().zip(log.entries()) {
            assert_eq!(got.0, want.timestamp);
            assert_eq!(got.1, want.query.signature().0);
        }
    }

    #[test]
    fn chunking_is_invisible() {
        let whole = stream_all(SAMPLE.as_bytes(), usize::MAX, 1024);
        for chunk in [1, 2, 3, 5, 16, 64, 4096] {
            assert_eq!(
                stream_all(SAMPLE.as_bytes(), chunk, 1024),
                whole,
                "chunk={chunk}"
            );
        }
        // A tiny cache (constant clearing) must not change the output.
        assert_eq!(stream_all(SAMPLE.as_bytes(), 3, 1), whole);
    }

    #[test]
    fn invalid_utf8_counts_as_malformed() {
        let mut bytes = b"100\tSELECT id FROM sales\n".to_vec();
        bytes.extend_from_slice(b"101\tSELECT \xff\xfe FROM sales\n");
        bytes.extend_from_slice(b"\xff\n");
        let (arrivals, stats) = stream_all(&bytes, 9, 64);
        assert_eq!(arrivals.len(), 1);
        assert_eq!(stats.parsed, 1);
        assert_eq!(stats.skipped_malformed, 2);
    }

    #[test]
    fn an_invalid_line_in_a_chunk_spoils_only_itself() {
        let mut bytes = b"100\tSELECT id FROM sales\r\n# note\n".to_vec();
        bytes.extend_from_slice(b"101\tSELECT \xff FROM sales\n");
        bytes.extend_from_slice(b"102\tSELECT amount FROM sales WHERE region = '\xc3\xa9'\n\n");
        bytes.extend_from_slice(b"103\tSELECT id FROM sales\n");
        let r = resolver();
        let run = |pieces: &mut dyn Iterator<Item = &[u8]>| {
            let mut s = LogStream::new();
            let mut out = Vec::new();
            let mut sink = |ts: u64, _: QueryId, q: &Arc<Query>| out.push((ts, q.signature().0));
            for piece in pieces {
                s.feed(piece, &r, &mut sink);
            }
            s.finish(&r, &mut sink);
            (out, s.stats().clone(), s.cached_statements())
        };
        let whole = run(&mut std::iter::once(&bytes[..]));
        let by_line = run(&mut bytes.split_inclusive(|&b| b == b'\n'));
        assert_eq!(whole, by_line);
        let (arrivals, stats, cached) = whole;
        assert_eq!(arrivals.len(), 3);
        assert_eq!((stats.lines, stats.skipped_malformed), (6, 1));
        assert_eq!(cached, 2);
    }

    #[test]
    fn statement_hash_is_keyed_per_stream() {
        let (a, b) = (LogStream::new(), LogStream::new());
        let (keys, other) = (a.cache.hasher(), b.cache.hasher());
        let text = "SELECT amount FROM sales WHERE region = 'w'";
        assert_ne!(
            keys.hash_one(text),
            other.hash_one(text),
            "an unkeyed hash gives every stream the same buckets"
        );
        // Zero padding must not alias texts of different lengths.
        for (x, y) in [("x", "x\0"), ("", "\0")] {
            assert_ne!(keys.hash_one(x), keys.hash_one(y), "{x:?} vs {y:?}");
        }
        // Around each edge of the 8-byte words and 16-byte steps: every
        // one-byte change tells two texts apart under one key, texts of
        // different lengths differ, and two streams hash each text apart.
        let lengths = [0, 7, 8, 15, 16, 17, 31, 32, 33];
        let texts: Vec<String> = lengths
            .iter()
            .map(|&n| {
                "SELECT id, amount FROM sales"
                    .chars()
                    .cycle()
                    .take(n)
                    .collect()
            })
            .collect();
        for (i, text) in texts.iter().enumerate() {
            let hash = keys.hash_one(text.as_str());
            assert_ne!(hash, other.hash_one(text.as_str()), "{} bytes", text.len());
            for shorter in &texts[..i] {
                assert_ne!(
                    hash,
                    keys.hash_one(shorter.as_str()),
                    "{text:?} vs {shorter:?}"
                );
            }
            for at in 0..text.len() {
                let mut changed = text.clone().into_bytes();
                changed[at] ^= 0x01;
                let changed = String::from_utf8(changed).expect("ASCII text");
                assert_ne!(
                    hash,
                    keys.hash_one(changed.as_str()),
                    "{text:?} vs {changed:?}"
                );
            }
        }
    }

    #[test]
    fn cache_dedupes_and_resets_deterministically() {
        let r = resolver();
        let mut s = LogStream::with_cache_capacity(2);
        let text = b"1\tSELECT id FROM sales\n\
            2\tSELECT amount FROM sales\n\
            3\tSELECT region FROM sales\n\
            4\tSELECT id FROM sales\n";
        let mut n = 0usize;
        s.feed(text, &r, &mut |_, _, _| n += 1);
        assert_eq!(n, 4);
        assert_eq!(s.interner().len(), 3, "distinct queries interned once");
        assert!(
            s.cache_resets() >= 1,
            "cap 2 must have cleared at least once"
        );
        assert!(s.cached_statements() <= 2);
    }

    #[test]
    fn compact_clears_cache_and_remaps() {
        let r = resolver();
        let mut s = LogStream::new();
        let mut ids = Vec::new();
        s.feed(
            b"1\tSELECT id FROM sales\n2\tSELECT amount FROM sales\n",
            &r,
            &mut |_, id, _| ids.push(id),
        );
        assert_eq!(s.interner().len(), 2);
        let map = s.compact(|id, _| id == ids[1]);
        assert_eq!(map[ids[0].index()], None);
        assert_eq!(map[ids[1].index()], Some(QueryId(0)));
        assert_eq!(s.interner().len(), 1);
        assert_eq!(s.cached_statements(), 0);
        // Re-feeding the dropped statement re-interns it under a fresh id.
        let mut last = None;
        s.feed(b"3\tSELECT id FROM sales\n", &r, &mut |_, id, _| {
            last = Some(id)
        });
        assert_eq!(last, Some(QueryId(1)));
    }

    #[test]
    fn unterminated_final_line_is_flushed_by_finish() {
        let r = resolver();
        let mut s = LogStream::new();
        let mut n = 0usize;
        s.feed(b"9\tSELECT id FROM sales", &r, &mut |_, _, _| n += 1);
        assert_eq!(n, 0, "no terminator yet");
        s.finish(&r, &mut |_, _, _| n += 1);
        assert_eq!(n, 1);
        // finish is idempotent.
        s.finish(&r, &mut |_, _, _| n += 1);
        assert_eq!(n, 1);
    }
}
