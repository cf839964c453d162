//! `evaluate`: the `cliffguard evaluate` path, one op per evaluation.
//!
//! Each op decodes and parses one full-scale R1 input, then runs the
//! windowed evaluation for NoDesign, ExistingDesigner, FutureKnowing,
//! AdaptiveIndexing and CliffGuard (Γ = 1.5 × max past δ, seed 7). The
//! latency samples are CliffGuard's per-window redesign times, so parsing
//! does not enter them; CliffGuard's Avg/Max latency on each next window
//! is the paper's quality number.

use crate::common::*;
use crate::spans::Tracer;
use cliffguard::prelude::*;
use cliffguard::workload::logio::import_log;
use std::time::Instant;

const INPUTS: u64 = 32;
const SCALE: f64 = 0.45;

struct Input {
    catalog_json: String,
    log_tsv: String,
    distinct: usize,
}

pub struct EvaluateBench {
    inputs: Vec<Input>,
    /// CliffGuard's first (mean Avg, mean Max) bits per input: every later
    /// op must reproduce them exactly.
    refs: Vec<Option<(u64, u64)>>,
    next_op: u64,
}

fn generate(seed: u64) -> Input {
    let mut generator = DriftingGenerator::new(WorkloadProfile::R1.config(seed).scaled(SCALE));
    let shape = generator.shape().clone();
    let log = generator.generate();
    let catalog = CatalogGenerator {
        seed,
        ..CatalogGenerator::default()
    }
    .generate(&shape);
    let log_tsv = catalog.export_log(&log);
    Input {
        catalog_json: serde_json::to_string_pretty(&catalog).expect("catalogs serialize"),
        distinct: distinct_statements(&log_tsv),
        log_tsv,
    }
}

/// One `cliffguard evaluate` run; returns every strategy's summary,
/// CliffGuard last, and the records parsed.
fn run_evaluate(input: &Input, tracer: &Tracer) -> Result<(Vec<EvalSummary>, usize), String> {
    let catalog = {
        let _s = tracer.span("storage.catalog_decode");
        decode_catalog(&input.catalog_json)?
    };
    let (log, report) = {
        let _s = tracer.span("workload.import_log");
        import_log(&input.log_tsv, &catalog)
    };
    let windows = {
        let _s = tracer.span("workload.windows");
        log.windows_days(28)
    };
    if windows.len() < 2 {
        return Err("need at least two windows to evaluate".into());
    }
    let engine = ColumnarEngine::new(catalog);
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let timed = Timed {
        inner: &nominal,
        tracer,
    };
    let opts = EvalOptions {
        budget_bytes: auto_budget(&engine),
        designable_factor: 3.0,
    };
    // One span per strategy; CliffGuard last.
    macro_rules! evaluate {
        ($name:literal, $strategy:expr) => {{
            let _s = tracer.span($name);
            evaluate_strategy(&engine, &mut $strategy, &windows, &metric, &opts)
        }};
    }
    let summaries = vec![
        evaluate!("core.strategy.nodesign", NoDesign),
        evaluate!("core.strategy.existing", ExistingDesigner::new(&timed)),
        evaluate!("core.strategy.future", FutureKnowingDesigner::new(&timed)),
        evaluate!(
            "core.strategy.adaptive",
            AdaptiveIndexingStrategy::<Projection>::new()
        ),
        evaluate!(
            "core.strategy.cliffguard",
            CliffGuardStrategy::new(&timed, metric, GammaPolicy::KMaxPastDeltas(1.5), 7)
        ),
    ];
    Ok((summaries, report.parsed))
}

impl EvaluateBench {
    /// Runs the next op, checks it, and returns CliffGuard's per-window
    /// redesign times (ms) and the records parsed.
    fn op(&mut self, tracer: &Tracer, tally: &mut Tally) -> (Vec<f64>, usize) {
        let i = (self.next_op % INPUTS) as usize;
        let _op = tracer.op(self.next_op);
        self.next_op += 1;
        tally.attempted += 1;
        let (summaries, parsed) = match run_evaluate(&self.inputs[i], tracer) {
            Ok(out) => out,
            Err(e) => {
                tally.fail(format!("input {i}: {e}"));
                return (Vec::new(), 0);
            }
        };
        let empty: Vec<&str> = summaries
            .iter()
            .filter(|s| s.windows.is_empty())
            .map(|s| s.strategy.as_str())
            .collect();
        tally.check(empty.is_empty(), || {
            format!("input {i}: no windows evaluated for {empty:?}")
        });
        let cg = summaries.last().expect("five strategies ran");
        let bits = (cg.mean_avg_ms.to_bits(), cg.mean_max_ms.to_bits());
        let first = *self.refs[i].get_or_insert(bits);
        tally.check(bits == first, || {
            format!("input {i}: CliffGuard Avg/Max bits {bits:x?}, first run {first:x?}")
        });
        (
            cg.windows.iter().map(|w| w.design_wall_ms).collect(),
            parsed,
        )
    }
}

impl Bench for EvaluateBench {
    /// 16 ops give 208 redesign samples.
    const MIN_OPS: usize = 16;

    fn setup(s: &Settings, tracer: &Tracer, tally: &mut Tally) -> Result<Self, String> {
        let mut bench = Self {
            inputs: (0..INPUTS)
                .map(|k| generate(s.seed.wrapping_add(k)))
                .collect(),
            refs: (0..INPUTS).map(|_| None).collect(),
            next_op: 0,
        };
        for _ in 0..s.warmup(1) {
            bench.op(tracer, tally);
        }
        Ok(bench)
    }

    fn measure(&mut self, plan: Plan, tracer: &Tracer, tally: &mut Tally) {
        let (mut parsed, mut distinct) = (0usize, 0usize);
        let started = Instant::now();
        while !plan.done(started, tally.ops as usize) {
            let i = (self.next_op % INPUTS) as usize;
            tally.calibrate();
            let (redesigns, records) = self.op(tracer, tally);
            tally.latency.extend(redesigns);
            tally.ops += 1;
            parsed += records;
            distinct += self.inputs[i].distinct;
        }
        tally.wall_s = started.elapsed().as_secs_f64();
        tally.extra("records_parsed", parsed as f64, "count");
        tally.extra("distinct_records", distinct as f64, "count");
        let bytes: usize = self
            .inputs
            .iter()
            .map(|i| i.catalog_json.len() + i.log_tsv.len())
            .sum();
        tally.extra("input_kib", bytes as f64 / INPUTS as f64 / 1024.0, "KiB");
    }

    fn finish(&mut self, _tally: &mut Tally) -> Quality {
        let q: Vec<(f64, f64)> = self
            .refs
            .iter()
            .flatten()
            .map(|&(a, m)| (f64::from_bits(a), f64::from_bits(m)))
            .collect();
        Quality::mean(&q)
    }
}
