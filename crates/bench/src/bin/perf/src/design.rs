//! `design`: the `cliffguard design` path, one op per design.
//!
//! Sixty-four full-scale R1 inputs (volume 0.45) rotate; each is a catalog file
//! and a 14-window TSV log, exactly what `cliffguard generate` writes. The
//! generator also draws a 15th window that the design never sees: design
//! quality is measured on it.

use crate::common::*;
use crate::spans::Tracer;
use cliffguard::prelude::*;
use cliffguard::sim::ddl;
use cliffguard::workload::logio::import_log;
use std::time::Instant;

const INPUTS: u64 = 64;
const WINDOWS: usize = 14;
const SCALE: f64 = 0.45;

struct Input {
    catalog_json: String,
    log_tsv: String,
    /// The window after the log's last one.
    next: Workload,
    /// Distinct statement texts among the log's records.
    distinct: usize,
}

pub struct DesignBench {
    inputs: Vec<Input>,
    /// The first design of each input: later ops must reproduce it.
    refs: Vec<Option<ColumnarDesign>>,
    next_op: u64,
}

/// A seeded R1 input: catalog JSON and the first [`WINDOWS`] windows of
/// the log as TSV, plus the held-out window that follows.
fn generate(seed: u64) -> Input {
    let mut config = WorkloadProfile::R1.config(seed).scaled(SCALE);
    config.n_windows = WINDOWS + 1;
    let window_secs = config.window_days * 86_400;
    let mut generator = DriftingGenerator::new(config);
    let shape = generator.shape().clone();
    let log = generator.generate();
    let catalog = CatalogGenerator {
        seed,
        ..CatalogGenerator::default()
    }
    .generate(&shape);
    let cut = log.entries().first().map_or(0, |e| e.timestamp) + WINDOWS as u64 * window_secs;
    let (seen, next): (Vec<_>, Vec<_>) = log
        .entries()
        .iter()
        .cloned()
        .partition(|e| e.timestamp < cut);
    let log_tsv = catalog.export_log(&QueryLog::from_entries(seen));
    let distinct = distinct_statements(&log_tsv);
    Input {
        catalog_json: serde_json::to_string_pretty(&catalog).expect("catalogs serialize"),
        log_tsv,
        next: QueryLog::from_entries(next).as_workload(),
        distinct,
    }
}

struct Output {
    design: ColumnarDesign,
    budget: u64,
    price: u64,
    degraded: Option<String>,
    ddl_bytes: usize,
    parsed: usize,
}

/// One `cliffguard design` run: decode the catalog, import and window the
/// log, run the robust session, price the design and render its DDL.
fn run_design(input: &Input, tracer: &Tracer) -> Result<Output, String> {
    let catalog = {
        let _s = tracer.span("storage.catalog_decode");
        decode_catalog(&input.catalog_json)?
    };
    let (log, report) = {
        let _s = tracer.span("workload.import_log");
        import_log(&input.log_tsv, &catalog)
    };
    if log.is_empty() {
        return Err("no parseable queries in the log".into());
    }
    let windows = {
        let _s = tracer.span("workload.windows");
        log.windows_days(28)
    };
    let engine = ColumnarEngine::new(catalog);
    let designed = design_session(&engine, &windows, 0, tracer)?;
    let ddl_bytes = {
        let _s = tracer.span("sim.ddl");
        ddl::columnar_script(&designed.design, engine.catalog()).len()
    };
    Ok(Output {
        price: designed.design.price_bytes(engine.catalog()),
        design: designed.design,
        budget: designed.budget,
        degraded: designed.degraded,
        ddl_bytes,
        parsed: report.parsed,
    })
}

impl DesignBench {
    /// Runs the next op, checks its output, and returns its wall time (ms)
    /// and the records it parsed.
    fn op(&mut self, tracer: &Tracer, tally: &mut Tally) -> (f64, usize) {
        let i = (self.next_op % INPUTS) as usize;
        let _op = tracer.op(self.next_op);
        self.next_op += 1;
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = run_design(&self.inputs[i], tracer);
        let ms = ms_since(t0);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                tally.fail(format!("input {i}: {e}"));
                return (ms, 0);
            }
        };
        tally.check(
            out.price <= out.budget && out.ddl_bytes > 0 && out.degraded.is_none(),
            || {
                format!(
                    "input {i}: price {} of budget {}, {} DDL bytes, degraded {:?}",
                    out.price, out.budget, out.ddl_bytes, out.degraded
                )
            },
        );
        let first = self.refs[i].get_or_insert_with(|| out.design.clone());
        let (fp, want) = (out.design.fingerprint(), first.fingerprint());
        tally.check(fp == want, || {
            format!("input {i}: fingerprint {fp:016x}, first run {want:016x}")
        });
        (ms, out.parsed)
    }
}

impl Bench for DesignBench {
    const MIN_OPS: usize = 200;

    fn setup(s: &Settings, tracer: &Tracer, tally: &mut Tally) -> Result<Self, String> {
        let mut bench = Self {
            inputs: (0..INPUTS)
                .map(|k| generate(s.seed.wrapping_add(k)))
                .collect(),
            refs: (0..INPUTS).map(|_| None).collect(),
            next_op: 0,
        };
        for _ in 0..s.warmup(3) {
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
            let (ms, records) = self.op(tracer, tally);
            tally.latency.push(ms);
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
        let costs: Vec<(f64, f64)> = self
            .inputs
            .iter()
            .zip(&self.refs)
            .filter_map(|(input, design)| {
                let engine = ColumnarEngine::new(decode_catalog(&input.catalog_json).ok()?);
                Some(next_window_cost(&engine, design.as_ref()?, &input.next))
            })
            .collect();
        Quality::mean(&costs)
    }
}
