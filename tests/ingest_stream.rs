//! Integration tests of the streaming ingest path: `LogStream` totality
//! and chunk-boundary obliviousness, and end-to-end replay determinism
//! of the online drift advisor over a scripted [`LogTape`].
//!
//! The contract under test (DESIGN.md §15): the audit stream — window
//! indices, δ/Γ bit patterns, trigger decisions — is a pure function of
//! the log bytes. Chunk sizes, split offsets, and worker thread counts
//! must all be unobservable.

use cliffguard::prelude::*;
use cliffguard::workload::{LogStream, SimpleResolver, StreamStats};
use proptest::prelude::*;
use std::sync::Arc;

/// A tiny two-table resolver for the byte-soup tests.
fn soup_resolver() -> SimpleResolver {
    let mut r = SimpleResolver::new();
    r.add_table("t0", &["c0", "c1", "c2"]);
    r.add_table("t1", &["c0", "c1"]);
    r
}

/// Runs `bytes` through a fresh [`LogStream`] split at the given cut
/// points, returning every arrival `(ts, query id)` plus the final
/// stats. Two runs over the same bytes must return identical values no
/// matter how the cuts fall.
fn run_stream(bytes: &[u8], cuts: &[usize], resolver: &SimpleResolver) -> (Vec<(u64, u32)>, u64) {
    let mut stream = LogStream::new();
    let mut arrivals: Vec<(u64, u32)> = Vec::new();
    {
        let mut sink = |ts: u64, id: QueryId, _q: &Arc<Query>| arrivals.push((ts, id.0));
        let mut prev = 0usize;
        for &cut in cuts {
            stream.feed(&bytes[prev..cut], resolver, &mut sink);
            prev = cut;
        }
        stream.feed(&bytes[prev..], resolver, &mut sink);
        stream.finish(resolver, &mut sink);
    }
    (arrivals, stream.stats().total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Totality: arbitrary byte soup — including invalid UTF-8, NULs,
    /// and enormous "lines" — never panics the stream, and the parse is
    /// identical whether the soup arrives whole or split anywhere.
    #[test]
    fn byte_soup_never_panics_and_splits_are_unobservable(
        raw in proptest::collection::vec(0u16..256, 0..2048),
        cut_seed in 0u64..u64::MAX,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let resolver = soup_resolver();
        let whole = run_stream(&bytes, &[], &resolver);
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        let split = run_stream(&bytes, &[cut], &resolver);
        prop_assert_eq!(whole, split);
    }

    /// SQL-shaped soup: interleave plausible log lines with garbage so
    /// the parser's accept path is exercised too, split at two points.
    #[test]
    fn sql_flavoured_soup_parses_identically_under_splits(
        picks in proptest::collection::vec(0usize..6, 0..24),
        garbage in "[ -~]{0,40}",
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let parts: Vec<&str> = picks
            .iter()
            .map(|&i| match i {
                0 => "17\tSELECT c0 FROM t0 WHERE c1 = 3",
                1 => "18\tselect c0, c1 from t1 order by c1",
                2 => "19\tSELECT c2 FROM t0 GROUP BY c2",
                3 => "not a log line at all",
                4 => "20\tDELETE FROM t0",
                _ => garbage.as_str(),
            })
            .collect();
        let bytes = parts.join("\n").into_bytes();
        let resolver = soup_resolver();
        let mut cuts = [
            (a as usize) % (bytes.len() + 1),
            (b as usize) % (bytes.len() + 1),
        ];
        cuts.sort_unstable();
        let whole = run_stream(&bytes, &[], &resolver);
        let split = run_stream(&bytes, &cuts, &resolver);
        prop_assert_eq!(whole, split);
    }
}

/// One generated log line, terminator included, from a kind and a
/// parameter: records with `\n` and `\r\n` endings, multi-byte UTF-8 in
/// literals, invalid UTF-8, comments, blanks, malformed and unparseable
/// records, and records far longer than a small chunk.
fn oracle_line(kind: usize, p: u64) -> Vec<u8> {
    let ts = p % 100_000;
    let mut line = match kind {
        0 => format!("{ts}\tSELECT c0 FROM t0 WHERE c1 = {}\n", p % 7).into_bytes(),
        1 => format!("{ts}\tselect c0, c1 from t1 order by c1\r\n").into_bytes(),
        2 => format!("{ts}\tSELECT c2 FROM t0 WHERE c0 = 'é✓{}'\n", p % 3).into_bytes(),
        3 => {
            // A lone continuation byte, a cut two-byte sequence or a
            // surrogate, inside an otherwise valid record.
            let bad: &[u8] = [&b"\x80"[..], b"\xc3(", b"\xed\xa0\x80"][(p % 3) as usize];
            [
                format!("{ts}\tSELECT c0 FROM t0 WHERE c2 = '").as_bytes(),
                bad,
                b"'\n",
            ]
            .concat()
        }
        4 => "# comment ✓\n".into(),
        5 => [&b"\n"[..], b"  \r\n"][(p % 2) as usize].to_vec(),
        6 => format!(
            "{ts}\tSELECT c1 FROM t1 WHERE c0 = '{}'\n",
            "ü".repeat((p % 3000) as usize)
        )
        .into_bytes(),
        7 => format!("no tab here {p}\n").into_bytes(),
        _ => format!("{ts}\tDELETE FROM t0\n").into_bytes(),
    };
    if p % 11 == 0 && !line.ends_with(b"\r\n") {
        // Some lines of every kind end in `\r\n`.
        line.insert(line.len() - 1, b'\r');
    }
    line
}

/// Everything a [`LogStream`] reports after `bytes` arrive in chunks of the
/// given sizes (cycled): arrivals with their ids and signatures, all five
/// counters and the statement-cache size.
fn stream_outcome(
    bytes: &[u8],
    sizes: &[usize],
    resolver: &SimpleResolver,
) -> (Vec<(u64, u32, u64)>, StreamStats, usize) {
    let mut stream = LogStream::new();
    let mut arrivals = Vec::new();
    {
        let mut sink =
            |ts: u64, id: QueryId, q: &Arc<Query>| arrivals.push((ts, id.0, q.signature().0));
        let mut rest = bytes;
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            stream.feed(chunk, resolver, &mut sink);
            rest = tail;
        }
        stream.finish(resolver, &mut sink);
    }
    (arrivals, stream.stats().clone(), stream.cached_statements())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Oracle: at 1-byte chunks every non-blank line completes a carried
    /// line and is UTF-8-checked on its own. Any other chunking — sizes
    /// up to 64 KiB, so whole runs of lines share one check — must report
    /// the same.
    #[test]
    fn any_chunking_matches_one_byte_chunks(
        lines in proptest::collection::vec((0usize..9, 0u64..u64::MAX), 1..400),
        sizes in proptest::collection::vec((0u32..17, 0u64..u64::MAX), 1..8),
        terminated in 0u8..2,
    ) {
        let mut bytes: Vec<u8> = lines.iter().flat_map(|&(k, p)| oracle_line(k, p)).collect();
        if terminated == 0 {
            bytes.pop();
        }
        // Sizes in 1..=64 KiB, spread evenly over their powers of two.
        let sizes: Vec<usize> = sizes
            .iter()
            .map(|&(shift, r)| 1 + (r as usize) % (1usize << shift))
            .collect();
        let resolver = soup_resolver();
        let oracle = stream_outcome(&bytes, &[1], &resolver);
        prop_assert!(oracle.1.lines as usize >= lines.len() - 1);
        prop_assert_eq!(stream_outcome(&bytes, &sizes, &resolver), oracle);
    }
}

/// Exhaustive split coverage: a real drift tape cut at *every* byte
/// offset parses identically to the whole file.
#[test]
fn every_split_offset_matches_whole_file_parsing() {
    let tape = LogTape::generate(LogTapeConfig {
        tables: 2,
        cols_per_table: 4,
        windows: 4,
        window_len: 12,
        statements_per_regime: 3,
        episodes: vec![2],
        ..LogTapeConfig::default()
    });
    let bytes = tape.text().as_bytes();
    let resolver = tape.resolver();
    let whole = run_stream(bytes, &[], resolver);
    assert!(whole.0.len() >= 48, "the tape must actually parse");
    for cut in 0..=bytes.len() {
        let split = run_stream(bytes, &[cut], resolver);
        assert_eq!(whole, split, "split at byte {cut} diverged");
    }
}

/// The full pipeline — stream into the online advisor — over one tape,
/// fed in `chunk` byte chunks. Returns the rendered audit lines (δ and
/// Γ as IEEE-754 bit patterns, so string equality is bit equality).
fn audit_lines(tape: &LogTape, chunk: usize) -> Vec<String> {
    let mut config = OnlineAdvisorConfig::new(tape.n_columns());
    config.window = WindowPolicy::Count(tape.config().window_len);
    config.gamma = GammaPolicy::Fixed(tape.suggested_gamma());
    let mut advisor = OnlineAdvisor::new(config, SessionClock::virtual_clock());
    let mut stream = LogStream::new();
    let mut lines: Vec<String> = Vec::new();
    {
        let advisor = &mut advisor;
        let lines = &mut lines;
        let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| {
            lines.extend(advisor.observe(ts, q).iter().map(|a| a.line()));
        };
        for piece in tape.text().as_bytes().chunks(chunk.max(1)) {
            stream.feed(piece, tape.resolver(), &mut sink);
        }
        stream.finish(tape.resolver(), &mut sink);
    }
    lines.extend(advisor.finish().iter().map(|a| a.line()));
    let episodes: Vec<u64> = tape.episodes().iter().map(|&e| e as u64).collect();
    assert_eq!(
        advisor.triggers(),
        episodes,
        "triggers must fire exactly at the scripted drift episodes"
    );
    lines
}

/// Replay determinism: the default drift tape yields a byte-identical
/// audit stream at 1 B, 4 KiB, and 1 MiB chunks, and at 1 vs 8 worker
/// threads — and the triggers land exactly on the scripted episodes
/// (asserted inside [`audit_lines`]), with zero false positives.
#[test]
fn audit_stream_is_byte_identical_across_chunk_sizes_and_threads() {
    let tape = LogTape::generate(LogTapeConfig::default());
    let saved = current_threads();
    set_threads(1);
    let baseline = audit_lines(&tape, 1 << 20);
    assert_eq!(
        baseline.len(),
        tape.config().windows,
        "every scripted window must close"
    );
    for chunk in [1usize, 4096] {
        assert_eq!(
            audit_lines(&tape, chunk),
            baseline,
            "chunk size {chunk} diverged"
        );
    }
    set_threads(8);
    assert_eq!(
        audit_lines(&tape, 4096),
        baseline,
        "8 worker threads diverged from 1"
    );
    set_threads(saved);
}

/// Different seeds script different tapes (the harness is not constant),
/// but each seed's audit stream is stable across reruns.
#[test]
fn seeds_vary_the_tape_but_reruns_are_stable() {
    let a = LogTape::generate(LogTapeConfig {
        seed: 3,
        ..LogTapeConfig::default()
    });
    let b = LogTape::generate(LogTapeConfig {
        seed: 4,
        ..LogTapeConfig::default()
    });
    assert_ne!(a.text(), b.text(), "seeds must script different tapes");
    assert_eq!(audit_lines(&a, 512), audit_lines(&a, 512));
    assert_eq!(audit_lines(&b, 512), audit_lines(&b, 512));
}

/// The audit transcript of windows that straddle the tape's regime cycle
/// (57 arrivals against 64-arrival windows, auto Γ): non-trivial δ and Γ
/// bit patterns on every close. The expected lines were recorded when the
/// advisor still derived each arrival's signature and representation key
/// one arrival at a time, so they pin the open window's per-window memo
/// to that result bit for bit.
const STRADDLING_TRANSCRIPT: [&str; 14] = [
    "W0 arrivals=57 distinct=4 delta_bits=- gamma_bits=0000000000000000 trigger=0 armed=1 cooldown=0 span=0..3150",
    "W1 arrivals=57 distinct=4 delta_bits=3f0e41b6b8d97851 gamma_bits=0000000000000000 trigger=1 armed=0 cooldown=1 span=3206..6356",
    "W2 arrivals=57 distinct=4 delta_bits=3ef42bcf25e65036 gamma_bits=3f16b1490aa31a3d trigger=0 armed=0 cooldown=0 span=6412..9562",
    "W3 arrivals=57 distinct=4 delta_bits=3f042bcf25e65036 gamma_bits=3f16b1490aa31a3d trigger=0 armed=1 cooldown=0 span=9618..12768",
    "W4 arrivals=57 distinct=8 delta_bits=3fb2e03f08e7566f gamma_bits=3f16b1490aa31a3d trigger=1 armed=0 cooldown=1 span=12825..15975",
    "W5 arrivals=57 distinct=4 delta_bits=3fb1ade5aed7bc8e gamma_bits=3fbc505e8d5b01a6 trigger=0 armed=0 cooldown=0 span=16031..19181",
    "W6 arrivals=57 distinct=4 delta_bits=0000000000000000 gamma_bits=3fbc505e8d5b01a6 trigger=0 armed=1 cooldown=0 span=19237..22387",
    "W7 arrivals=57 distinct=4 delta_bits=3efe41b6b8d97851 gamma_bits=3fbc505e8d5b01a6 trigger=0 armed=1 cooldown=0 span=22443..25593",
    "W8 arrivals=57 distinct=5 delta_bits=3f3104f6c7fa53ae gamma_bits=3fbc505e8d5b01a6 trigger=0 armed=1 cooldown=0 span=25650..28800",
    "W9 arrivals=57 distinct=6 delta_bits=3fd0d1bf8c0418e6 gamma_bits=3fbc505e8d5b01a6 trigger=1 armed=0 cooldown=1 span=28856..32006",
    "W10 arrivals=57 distinct=6 delta_bits=3f042bcf25e65036 gamma_bits=3fd93a9f52062559 trigger=0 armed=0 cooldown=0 span=32062..35212",
    "W11 arrivals=57 distinct=6 delta_bits=3f0e41b6b8d97851 gamma_bits=3fd93a9f52062559 trigger=0 armed=1 cooldown=0 span=35268..38418",
    "W12 arrivals=57 distinct=6 delta_bits=3ef42bcf25e65036 gamma_bits=3fd93a9f52062559 trigger=0 armed=1 cooldown=0 span=38475..41625",
    "W13 arrivals=27 distinct=6 delta_bits=3f34679352c862ea gamma_bits=3fd93a9f52062559 trigger=0 armed=1 cooldown=0 span=41681..43143",
];

#[test]
fn straddling_windows_match_the_recorded_transcript() {
    let tape = LogTape::generate(LogTapeConfig::default());
    let mut config = OnlineAdvisorConfig::new(tape.n_columns());
    config.window = WindowPolicy::Count(57);
    let mut advisor = OnlineAdvisor::new(config, SessionClock::virtual_clock());
    let mut stream = LogStream::new();
    let mut lines: Vec<String> = Vec::new();
    {
        let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| {
            lines.extend(advisor.observe(ts, q).iter().map(|a| a.line()));
        };
        stream.feed(tape.text().as_bytes(), tape.resolver(), &mut sink);
        stream.finish(tape.resolver(), &mut sink);
    }
    lines.extend(advisor.finish().iter().map(|a| a.line()));
    assert_eq!(lines, STRADDLING_TRANSCRIPT);
}
