//! Engine extensions used by the evaluation protocol.

use cliffguard_designer::{ColumnarCandidates, RowCandidates};
use cliffguard_sim::{
    ColumnarDesign, ColumnarEngine, Engine, PhysicalDesign, RowDesign, RowEngine, WorkloadCost,
};
use cliffguard_workload::{Query, Workload};

/// Per-query ideal-design construction.
///
/// Section 6.4 keeps "only … queries for which there existed an ideal
/// design (no matter how expensive) that could improve on their bare
/// table-scan latency by at least a factor of 3×". The ideal design for a
/// query is the design tailored to exactly that query.
pub trait EngineExt: Engine {
    /// The best design money could buy for this single query.
    fn ideal_design_for(&self, q: &Query) -> Self::Design;

    /// Latency under the ideal design.
    fn ideal_latency_ms(&self, q: &Query) -> f64 {
        self.query_latency_ms(q, &self.ideal_design_for(q))
    }

    /// Latency under the empty design (bare scan).
    fn bare_latency_ms(&self, q: &Query) -> f64 {
        self.query_latency_ms(q, &Self::Design::default())
    }

    /// Whether a physical design can speed this query up by ≥ `factor`.
    fn designable(&self, q: &Query, factor: f64) -> bool {
        self.ideal_latency_ms(q) * factor <= self.bare_latency_ms(q)
    }

    /// [`Engine::workload_cost`], with every entry's cost-model call timed
    /// into `cliffguard.sim.query_cost_ms` while metrics are on (metrics
    /// only, no trace events). The fold is the same serial, in-order one,
    /// so the result is **bit-identical** to `workload_cost`. Used by the
    /// windowed evaluation protocol, whose test windows are the largest
    /// single workloads the system costs.
    fn timed_workload_cost(&self, w: &Workload, d: &Self::Design) -> WorkloadCost {
        if w.is_empty() {
            return WorkloadCost::zero();
        }
        let timer = cliffguard_telemetry::histogram("cliffguard.sim.query_cost_ms");
        let mut total = 0.0;
        let mut max: f64 = 0.0;
        let mut weight = 0.0;
        for (q, wt) in w.iter() {
            let l = match &timer {
                Some(h) => {
                    let t0 = std::time::Instant::now();
                    let l = self.query_latency_ms(q, d);
                    h.record(cliffguard_telemetry::elapsed_ms(t0));
                    l
                }
                None => self.query_latency_ms(q, d),
            };
            total += l * wt;
            weight += wt;
            max = max.max(l);
        }
        WorkloadCost {
            avg_ms: total / weight,
            max_ms: max,
            total_ms: total,
        }
    }
}

impl EngineExt for ColumnarEngine {
    fn ideal_design_for(&self, q: &Query) -> ColumnarDesign {
        let mut tables = vec![q.anchor];
        tables.extend(q.joins.iter().copied());
        let projections = tables
            .into_iter()
            .filter_map(|t| ColumnarCandidates::tailored(self, q, t))
            .collect();
        ColumnarDesign::from_structures(projections)
    }
}

impl EngineExt for RowEngine {
    fn ideal_design_for(&self, q: &Query) -> RowDesign {
        RowDesign::from_structures(RowCandidates::tailored(self, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{PredOp, QueryBuilder, TableId};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: (0..6)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(100_000),
                })
                .collect(),
            rows: 20_000_000,
        }])
    }

    #[test]
    fn selective_query_is_designable() {
        let e = ColumnarEngine::new(catalog());
        let q = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Eq, 0.0001)
            .build();
        assert!(e.designable(&q, 3.0));
        assert!(e.ideal_latency_ms(&q) < e.bare_latency_ms(&q));
    }

    #[test]
    fn full_scan_is_not_designable() {
        let e = ColumnarEngine::new(catalog());
        // Selects everything, filters nothing: no design can help 3x.
        let q = QueryBuilder::new(TableId(0))
            .select(&[0, 1, 2, 3, 4, 5])
            .build();
        assert!(!e.designable(&q, 3.0));
    }

    #[test]
    fn timed_workload_cost_is_bit_identical_to_workload_cost() {
        let e = ColumnarEngine::new(catalog());
        let w = Workload::from_queries((0..40u32).map(|i| {
            (
                QueryBuilder::new(TableId(0))
                    .select(&[i % 6])
                    .filter((i + 1) % 6, PredOp::Eq, 0.001 + i as f64 * 1e-4)
                    .build(),
                1.0 + i as f64 * 0.13,
            )
        }));
        let d = e.ideal_design_for(w.queries().next().unwrap());
        let serial = e.workload_cost(&w, &d);
        let timed = e.timed_workload_cost(&w, &d);
        assert_eq!(serial.total_ms.to_bits(), timed.total_ms.to_bits());
        assert_eq!(serial.avg_ms.to_bits(), timed.avg_ms.to_bits());
        assert_eq!(serial.max_ms.to_bits(), timed.max_ms.to_bits());
        assert_eq!(
            e.timed_workload_cost(&Workload::new(), &d),
            cliffguard_sim::WorkloadCost::zero()
        );
    }

    #[test]
    fn timed_workload_cost_times_every_entry() {
        // The only test in this binary that installs telemetry. Metrics
        // never change a result, but concurrently running tests may add
        // their own samples, hence `>=`.
        let t = cliffguard_telemetry::install(cliffguard_telemetry::TelemetryConfig {
            metrics: true,
            ..Default::default()
        })
        .unwrap();
        let e = ColumnarEngine::new(catalog());
        let w = Workload::from_queries((0..12u32).map(|i| {
            (
                QueryBuilder::new(TableId(0))
                    .select(&[i % 6])
                    .filter((i + 1) % 6, PredOp::Eq, 0.001 + i as f64 * 1e-4)
                    .build(),
                1.0,
            )
        }));
        assert_eq!(w.len(), 12);
        e.timed_workload_cost(&w, &ColumnarDesign::empty());
        let snap = t.registry().unwrap().snapshot();
        let h = snap.histogram("cliffguard.sim.query_cost_ms").unwrap();
        assert!(h.count >= 12, "one timing per entry, got {}", h.count);
    }

    #[test]
    fn row_engine_designability() {
        let e = RowEngine::new(catalog());
        let selective = QueryBuilder::new(TableId(0))
            .select(&[2])
            .filter(1, PredOp::Eq, 0.00001)
            .build();
        assert!(e.designable(&selective, 3.0));
        let scan = QueryBuilder::new(TableId(0)).select(&[0, 1, 2]).build();
        assert!(!e.designable(&scan, 3.0));
    }
}
