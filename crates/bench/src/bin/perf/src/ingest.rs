//! `ingest`: one pass of the `cliffguard ingest` path per op.
//!
//! The inputs are four drift-scripted [`LogTape`]s (64 windows × 4096
//! arrivals, about 17 MB each, regime switches at windows 21 and 42), each
//! over the catalog `serve::testdata::ingest_fixture` pairs with it; passes
//! rotate through them. A pass decodes the catalog, feeds
//! the tape in 64 KiB chunks through `LogStream` into the online advisor
//! (count windows of 4096, Γ fixed at the tape's suggested value),
//! compacts after every chunk, and runs a robust session on each trigger,
//! exactly as the CLI does.

use crate::common::*;
use crate::spans::Tracer;
use cliffguard::prelude::*;
use cliffguard::serve::testdata::ingest_fixture;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

const TAPES: u64 = 4;
const CHUNK_BYTES: usize = 64 << 10;
const WINDOWS: usize = 64;
const WINDOW_LEN: usize = 4096;

/// What one pass produced.
#[derive(Default)]
struct Pass {
    /// Hash of the audit lines and trigger-design lines, in order.
    digest: u64,
    triggers: Vec<u64>,
    /// The design each trigger launched, and the window that followed the
    /// trigger window.
    designs: Vec<ColumnarDesign>,
    next_windows: Vec<Workload>,
    /// End of the firing chunk → design ready (ms), one per trigger.
    trigger_ms: Vec<f64>,
    parsed: u64,
    distinct: u64,
    cache_resets: u64,
    /// Triggers fired so far.
    trigger_count: usize,
    /// Time in `observe` (ns) and window-closing `observe` calls (µs),
    /// timed only when tracing.
    observe_ns: u64,
    close_us: Vec<f64>,
}

/// A closed window's audit plus the redesign inputs captured at trigger
/// time (the CLI's `PendingAudit`).
type Pending = (WindowAudit, Option<(Workload, Vec<Arc<Query>>)>);

/// One tape and its catalog file.
struct Input {
    catalog_json: String,
    tape: LogTape,
}

pub struct IngestBench {
    inputs: Vec<Input>,
    /// Each tape's first pass: every later pass must reproduce its digest.
    refs: Vec<Option<Pass>>,
    next_op: u64,
}

/// Queues one audit like the CLI's `push_audit`. The window it closed is
/// also the next window of the latest trigger still waiting for one.
fn push_audit(
    advisor: &OnlineAdvisor,
    pending: &mut Vec<Pending>,
    pass: &mut Pass,
    audit: WindowAudit,
) {
    let closed = || advisor.last_window().cloned().unwrap_or_default();
    if pass.next_windows.len() < pass.trigger_count {
        pass.next_windows.push(closed());
    }
    if audit.triggered {
        pass.trigger_count += 1;
    }
    let action = audit.triggered.then(|| (closed(), advisor.design_pool()));
    pending.push((audit, action));
}

/// The CLI's parse sink: one arrival into the advisor, closed windows
/// queued. Times the `observe` call only when tracing.
fn observe(
    advisor: &mut OnlineAdvisor,
    pending: &mut Vec<Pending>,
    pass: &mut Pass,
    timing: bool,
    ts: u64,
    q: &Arc<Query>,
) {
    let t0 = timing.then(Instant::now);
    let audits = advisor.observe(ts, q);
    if let Some(t0) = t0 {
        let ns = t0.elapsed().as_nanos() as u64;
        pass.observe_ns += ns;
        if !audits.is_empty() {
            pass.close_us.push(ns as f64 / 1e3);
        }
    }
    for audit in audits {
        push_audit(advisor, pending, pass, audit);
    }
}

impl IngestBench {
    fn pass(input: &Input, tracer: &Tracer) -> Result<Pass, String> {
        let catalog = {
            let _s = tracer.span("storage.catalog_decode");
            decode_catalog(&input.catalog_json)?
        };
        let engine = ColumnarEngine::new(catalog);
        let budget = auto_budget(&engine);
        let mut config = OnlineAdvisorConfig::new(engine.catalog().column_count());
        config.window = WindowPolicy::Count(WINDOW_LEN);
        config.gamma = GammaPolicy::Fixed(input.tape.suggested_gamma());
        let mut advisor = OnlineAdvisor::new(config, SessionClock::system());
        let mut stream = LogStream::new();
        let mut pending: Vec<Pending> = Vec::new();
        let mut pass = Pass::default();
        let mut hasher = DefaultHasher::new();
        let timing = tracer.enabled();
        let mut chunks = input.tape.text().as_bytes().chunks(CHUNK_BYTES);
        loop {
            let chunk = chunks.next();
            {
                let _s = tracer.span("workload.stream_feed");
                let before = pass.observe_ns;
                let mut feed = |ts: u64, _: QueryId, q: &Arc<Query>| {
                    observe(&mut advisor, &mut pending, &mut pass, timing, ts, q)
                };
                match chunk {
                    Some(chunk) => stream.feed(chunk, engine.catalog(), &mut feed),
                    None => stream.finish(engine.catalog(), &mut feed),
                }
                tracer.aggregate("core.advisor_observe", pass.observe_ns - before);
            }
            if chunk.is_none() {
                // The partial trailing window closes like a full one.
                if let Some(audit) = advisor.finish() {
                    push_audit(&advisor, &mut pending, &mut pass, audit);
                }
            }
            let chunk_end = Instant::now();
            if chunk.is_some() {
                let _s = tracer.span("core.compact");
                advisor.compact_stream(&mut stream, DEFAULT_INTERN_CAPACITY);
            }
            for (audit, action) in pending.drain(..) {
                audit.line().hash(&mut hasher);
                let Some((w0, pool)) = action else { continue };
                if w0.is_empty() {
                    continue;
                }
                let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
                let timed = Timed {
                    inner: &nominal,
                    tracer,
                };
                let metric = DeltaEuclidean::new(engine.catalog().column_count());
                let _s = tracer.span("core.session");
                let session = DesignSession::new(
                    &engine,
                    Reliable(timed),
                    metric,
                    CliffGuardConfig::new(audit.gamma.max(0.0)),
                    SessionOptions::default(),
                )
                .map_err(|e| format!("bad configuration: {e}"))?;
                let (design, trace) = session.run(&w0, budget, &pool).into_design();
                pass.trigger_ms.push(ms_since(chunk_end));
                check_descent(&trace.worst_case_per_iter)?;
                let line = format!(
                    "T{} projections={} bytes={} designer_calls={} degraded={} fp={:016x}",
                    audit.index,
                    design.len(),
                    design.price_bytes(engine.catalog()),
                    trace.designer_calls,
                    u8::from(trace.degraded.is_some()),
                    design.fingerprint(),
                );
                line.hash(&mut hasher);
                pass.designs.push(design);
            }
            if chunk.is_none() {
                break;
            }
        }
        pass.digest = hasher.finish();
        pass.triggers = advisor.triggers().to_vec();
        pass.parsed = stream.stats().parsed;
        pass.distinct = stream.cached_statements() as u64;
        pass.cache_resets = stream.cache_resets();
        Ok(pass)
    }

    fn op(&mut self, tracer: &Tracer, tally: &mut Tally) -> Option<Pass> {
        let i = (self.next_op % TAPES) as usize;
        let _op = tracer.op(self.next_op);
        self.next_op += 1;
        tally.attempted += 1;
        let input = &self.inputs[i];
        let pass = match Self::pass(input, tracer) {
            Ok(p) => p,
            Err(e) => {
                tally.fail(format!("tape {i}: {e}"));
                return None;
            }
        };
        let scripted: Vec<u64> = input.tape.episodes().iter().map(|&e| e as u64).collect();
        tally.check(pass.triggers == scripted, || {
            format!(
                "tape {i}: triggers {:?}, scripted {scripted:?}",
                pass.triggers
            )
        });
        let first = self.refs[i].get_or_insert_with(|| Pass {
            designs: pass.designs.clone(),
            next_windows: pass.next_windows.clone(),
            digest: pass.digest,
            ..Pass::default()
        });
        tally.check(pass.digest == first.digest, || {
            format!(
                "tape {i}: audit digest {:016x}, first pass {:016x}",
                pass.digest, first.digest
            )
        });
        Some(pass)
    }
}

impl Bench for IngestBench {
    /// Two triggers per pass: 100 passes give 200 redesign samples.
    const MIN_OPS: usize = 100;

    fn setup(s: &Settings, tracer: &Tracer, tally: &mut Tally) -> Result<Self, String> {
        let inputs = (0..TAPES)
            .map(|k| {
                let (catalog, tape) = ingest_fixture(LogTapeConfig {
                    seed: s.seed.wrapping_add(k),
                    windows: WINDOWS,
                    window_len: WINDOW_LEN,
                    episodes: vec![WINDOWS / 3, 2 * WINDOWS / 3],
                    ..LogTapeConfig::default()
                });
                Input {
                    catalog_json: serde_json::to_string_pretty(&catalog)
                        .expect("catalogs serialize"),
                    tape,
                }
            })
            .collect();
        let mut bench = Self {
            inputs,
            refs: (0..TAPES).map(|_| None).collect(),
            next_op: 0,
        };
        for _ in 0..s.warmup(1) {
            bench.op(tracer, tally);
        }
        Ok(bench)
    }

    fn measure(&mut self, plan: Plan, tracer: &Tracer, tally: &mut Tally) {
        let (mut parsed, mut distinct, mut resets) = (0u64, 0u64, 0u64);
        let mut close_us = Vec::new();
        let started = Instant::now();
        while !plan.done(started, tally.ops as usize) {
            tally.calibrate();
            if let Some(pass) = self.op(tracer, tally) {
                tally.latency.extend(&pass.trigger_ms);
                parsed += pass.parsed;
                distinct += pass.distinct;
                resets += pass.cache_resets;
                close_us.extend(pass.close_us);
            }
            tally.ops += 1;
        }
        tally.wall_s = started.elapsed().as_secs_f64();
        let bytes: usize = self.inputs.iter().map(|i| i.tape.text().len()).sum();
        let mb = bytes as f64 / TAPES as f64 / (1 << 20) as f64;
        tally.extra("records_parsed", parsed as f64, "count");
        tally.extra("distinct_records", distinct as f64, "count");
        tally.extra("input_kib", mb * 1024.0, "KiB");
        tally.extra(
            "wall.ingest_mib_per_s",
            mb * tally.ops as f64 / tally.wall_s,
            "MiB/s",
        );
        tally.extra("workload.stream_cache_resets", resets as f64, "count");
        if !close_us.is_empty() {
            tally.extra(
                "core.window_close_us.p50",
                crate::stats::percentile(&close_us, 50.0),
                "us",
            );
            tally.extra(
                "core.window_close_us.p99",
                crate::stats::percentile(&close_us, 99.0),
                "us",
            );
        }
    }

    fn finish(&mut self, _tally: &mut Tally) -> Quality {
        let mut costs = Vec::new();
        for (input, first) in self.inputs.iter().zip(&self.refs) {
            let (Some(first), Ok(catalog)) = (first, decode_catalog(&input.catalog_json)) else {
                continue;
            };
            let engine = ColumnarEngine::new(catalog);
            costs.extend(
                first
                    .designs
                    .iter()
                    .zip(&first.next_windows)
                    .map(|(d, w)| next_window_cost(&engine, d, w)),
            );
        }
        Quality::mean(&costs)
    }
}
