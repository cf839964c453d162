//! What every workload shares: run settings, the op tally, the timed
//! designer wrapper, and the pieces of the `cliffguard design` path that
//! live in the CLI binary rather than in a library.

use crate::spans::Tracer;
use cliffguard::core::evaluate::DesignableFilter;
use cliffguard::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one benchmark process runs.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    /// Measured time of the untraced run; a traced run splits it between
    /// an untraced and a traced phase.
    pub seconds: f64,
    /// `par_map` threads, daemon workers and serve clients.
    pub threads: usize,
    /// Times the full set-up (inputs, daemon, warm-up) runs; `setup_s` is
    /// the median.
    pub setups: usize,
    /// Smoke mode: two measured ops, one warm-up op, no op floor.
    pub smoke: bool,
    /// Temporary directory under the working directory, removed on exit.
    pub tmp: PathBuf,
}

impl Settings {
    /// Warm-up ops for a workload whose normal warm-up is `normal`.
    pub fn warmup(&self, normal: usize) -> usize {
        if self.smoke {
            1
        } else {
            normal
        }
    }
}

/// When a measured phase stops: after `seconds` *and* `min_ops` ops, so a
/// slower build measures longer instead of reporting fewer samples.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Plan {
    pub fn done(&self, started: Instant, ops: usize) -> bool {
        ops >= self.min_ops && started.elapsed() >= Duration::from_secs_f64(self.seconds)
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops whose outputs were checked (warm-up included).
    pub attempted: u64,
    /// Ops that failed or whose outputs were wrong.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The workload's latency samples (ms).
    pub latency: Vec<f64>,
    /// Measured ops.
    pub ops: u64,
    /// Seconds of the measured closed loop.
    pub wall_s: f64,
    /// Reference-kernel repetitions (ns), one before each measured op.
    pub reference_ns: Vec<f64>,
    /// Workload-specific numbers: name → (value, unit).
    pub extra: BTreeMap<String, (f64, &'static str)>,
}

impl Tally {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why.into());
        }
    }

    /// Checks `ok`; a false check counts one failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.latency.extend(other.latency);
        self.reference_ns.extend(other.reference_ns);
        self.ops += other.ops;
    }

    /// Samples the host's current speed: call right before each op.
    pub fn calibrate(&mut self) {
        self.reference_ns.push(crate::calibrate::rep_ns());
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.insert(name.to_string(), (value, unit));
    }
}

/// The design quality the paper reports (Avg and Max query latency under
/// the cost model) for the designs a workload produced, each costed on
/// the window that followed the one it was designed for.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub avg_ms: f64,
    pub max_ms: f64,
}

impl Quality {
    pub fn mean(items: &[(f64, f64)]) -> Self {
        let n = items.len().max(1) as f64;
        Self {
            avg_ms: items.iter().map(|q| q.0).sum::<f64>() / n,
            max_ms: items.iter().map(|q| q.1).sum::<f64>() / n,
        }
    }
}

/// One benchmark workload.
pub trait Bench: Sized {
    /// Floor on measured ops: enough that p95 of the latency samples has
    /// ten samples beyond it at today's speed.
    const MIN_OPS: usize;
    /// Generates inputs, starts services and runs the warm-up ops, whose
    /// outputs `tally` checks.
    fn setup(s: &Settings, tracer: &Tracer, tally: &mut Tally) -> Result<Self, String>;
    /// Runs the closed loop until `plan` is done.
    fn measure(&mut self, plan: Plan, tracer: &Tracer, tally: &mut Tally);
    /// Untimed output checks across the run, plus design quality.
    fn finish(&mut self, tally: &mut Tally) -> Quality;
}

/// A nominal designer that records a `designer.call` span around each
/// call of the designer it wraps.
pub struct Timed<'t, D> {
    pub inner: D,
    pub tracer: &'t Tracer,
}

impl<E: Engine, D: NominalDesigner<E>> NominalDesigner<E> for Timed<'_, D> {
    fn design(&self, w: &Workload, budget_bytes: u64) -> E::Design {
        let _span = self.tracer.span("designer.call");
        self.inner.design(w, budget_bytes)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Decodes a catalog file's text as `cliffguard design` loads it.
pub fn decode_catalog(json: &str) -> Result<Catalog, String> {
    let mut catalog: Catalog = serde_json::from_str(json).map_err(|e| format!("catalog: {e}"))?;
    catalog.rebuild_index();
    Ok(catalog)
}

/// The CLI's default budget: 30% of the data size.
pub fn auto_budget(engine: &ColumnarEngine) -> u64 {
    let data: u64 = engine
        .catalog()
        .tables()
        .map(|t| engine.catalog().table(t).rows * engine.catalog().table(t).row_width())
        .sum();
    (data as f64 * 0.3) as u64
}

/// The CLI's historical pool: the last four history windows, deduplicated
/// by structural signature.
pub fn history_pool(history: &[Workload]) -> Vec<Arc<Query>> {
    let mut pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for w in history.iter().rev().take(4) {
        for q in w.queries() {
            if seen.insert(q.signature()) {
                pool.push(Arc::clone(q));
            }
        }
    }
    pool
}

/// The outcome of one robust design session.
pub struct Designed {
    pub design: ColumnarDesign,
    pub budget: u64,
    pub degraded: Option<String>,
}

/// Γ = 1.5 × the largest past δ, the history pool, and one resilient
/// session with the greedy designer: the `cliffguard design` core, which
/// the serve daemon runs too (with the request's seed).
pub fn design_session(
    engine: &ColumnarEngine,
    windows: &[Workload],
    seed: u64,
    tracer: &Tracer,
) -> Result<Designed, String> {
    let (w0, history) = windows.split_last().ok_or("log has no windows")?;
    if w0.is_empty() {
        return Err("the last window is empty".into());
    }
    let budget = auto_budget(engine);
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let deltas = {
        let _s = tracer.span("distance.deltas");
        consecutive_deltas(&metric, windows)
    };
    let gamma = GammaPolicy::KMaxPastDeltas(1.5).resolve(&deltas);
    let pool = {
        let _s = tracer.span("cli.pool");
        history_pool(history)
    };
    let nominal = GreedyDesigner::new(engine, ColumnarCandidates, "DBD");
    let timed = Timed {
        inner: &nominal,
        tracer,
    };
    let _s = tracer.span("core.session");
    let session = DesignSession::new(
        engine,
        Reliable(timed),
        metric,
        CliffGuardConfig::new(gamma).with_seed(seed),
        SessionOptions::default(),
    )
    .map_err(|e| format!("bad configuration: {e}"))?;
    let (design, trace) = session.run(w0, budget, &pool).into_design();
    check_descent(&trace.worst_case_per_iter)?;
    Ok(Designed {
        design,
        budget,
        degraded: trace.degraded,
    })
}

/// The descent only accepts a candidate that lowers the worst case, so a
/// session can never end above its starting worst case.
pub fn check_descent(worst_case_per_iter: &[f64]) -> Result<(), String> {
    match (worst_case_per_iter.first(), worst_case_per_iter.last()) {
        (Some(first), Some(last)) if last > first => Err(format!(
            "the descent ended at worst case {last} above its start {first}"
        )),
        _ => Ok(()),
    }
}

/// Avg and Max latency of `design` on `window`, over the queries a design
/// can help (the filter `evaluate` applies to its test windows).
pub fn next_window_cost(
    engine: &ColumnarEngine,
    design: &ColumnarDesign,
    window: &Workload,
) -> (f64, f64) {
    let test = DesignableFilter::new(engine, 3.0).filter_workload(window);
    let cost = engine.workload_cost(&test, design);
    (cost.avg_ms, cost.max_ms)
}

/// Distinct statement texts among a TSV log's records.
pub fn distinct_statements(tsv: &str) -> usize {
    tsv.lines()
        .filter_map(|l| l.split_once('\t').map(|(_, sql)| sql.trim()))
        .collect::<std::collections::HashSet<_>>()
        .len()
}

/// The value under key `k` of a JSON object.
pub fn field<'v>(v: &'v serde::Value, k: &str) -> Option<&'v serde::Value> {
    v.as_map()?.iter().find(|(key, _)| key == k).map(|(_, v)| v)
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}
