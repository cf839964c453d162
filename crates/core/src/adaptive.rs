//! Adaptive indexing ("database cracking") — the other extreme.
//!
//! Section 1 and Section 7 contrast CliffGuard against adaptive indexing
//! schemes (Database Cracking, adaptive merging): "instead of an offline
//! design, they incrementally create and refine indices as queries arrive,
//! on demand … completely ignoring the past workload in deciding which
//! indices to build". This module implements that strategy at the window
//! granularity of the evaluation protocol: after each window, the
//! structures its queries would have cracked into existence are added to a
//! persistent store, and least-recently-useful structures are evicted when
//! the budget overflows.
//!
//! It is *not* one of the paper's six compared designers (their testbeds
//! had no cracking support); it is provided as the natural extra baseline
//! the paper's discussion invites, exercised by the `adaptive_indexing`
//! example and the integration tests.

use crate::baselines::{DesignStrategy, WindowCtx};
use crate::engines::EngineExt;
use cliffguard_sim::PhysicalDesign;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Window-granular adaptive indexing: accumulate the structures recent
/// queries would crack into existence; evict by recency under the budget.
///
/// The store carries over from window to window, so the strategy reports
/// [`carries_state`](DesignStrategy::carries_state) and the harness
/// designs its windows in order.
pub struct AdaptiveIndexingStrategy<S> {
    store: Mutex<Store<S>>,
}

struct Store<S> {
    /// Structure → (last window index in which a query wanted it, the
    /// sequence number of its first sighting). The sequence number breaks
    /// recency ties, so the ranking never depends on hash-map order.
    seen: HashMap<S, (usize, u64)>,
    next_seq: u64,
}

impl<S> Default for AdaptiveIndexingStrategy<S> {
    fn default() -> Self {
        Self {
            store: Mutex::new(Store {
                seen: HashMap::new(),
                next_seq: 0,
            }),
        }
    }
}

impl<S> AdaptiveIndexingStrategy<S> {
    /// Creates an empty adaptive store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<E> DesignStrategy<E> for AdaptiveIndexingStrategy<<E::Design as PhysicalDesign>::Structure>
where
    E: EngineExt,
    <E::Design as PhysicalDesign>::Structure: Clone + Eq + Hash,
{
    fn name(&self) -> String {
        "AdaptiveIndexing".into()
    }

    fn carries_state(&self) -> bool {
        true
    }

    fn design(&self, ctx: &WindowCtx<'_, E>) -> E::Design {
        let mut store = self
            .store
            .lock()
            .expect("an earlier window's design panicked mid-update of the store");
        let Store { seen, next_seq } = &mut *store;
        // "Crack": every query of the just-finished window materializes its
        // tailored structures (on-demand creation, no lookahead).
        for (q, _) in ctx.current.iter() {
            for s in ctx.engine.ideal_design_for(q).structures() {
                let entry = seen.entry(s).or_insert_with(|| {
                    *next_seq += 1;
                    (ctx.window_index, *next_seq)
                });
                entry.0 = ctx.window_index;
            }
        }
        // Keep the most recently wanted structures within the budget;
        // among equally recent ones, the first seen.
        #[allow(clippy::disallowed_methods)] // sorts afterwards, on a unique key
        let mut ranked: Vec<(&S2<E>, (usize, u64))> =
            seen.iter().map(|(s, &rank)| (s, rank)).collect();
        ranked.sort_by_key(|&(_, (w, seq))| (std::cmp::Reverse(w), seq));
        let mut chosen = Vec::new();
        let mut remaining = ctx.budget;
        for (s, _) in ranked {
            let price = E::Design::structure_price(s, ctx.engine.catalog());
            if price <= remaining {
                remaining -= price;
                chosen.push(s.clone());
            }
        }
        // Structures that no longer fit age out of the store entirely once
        // they fall `RETENTION` windows behind (bounded memory).
        const RETENTION: usize = 6;
        let cutoff = ctx.window_index.saturating_sub(RETENTION);
        seen.retain(|_, (w, _)| *w >= cutoff);
        E::Design::from_structures(chosen)
    }
}

/// Alias to keep the impl signature readable.
type S2<E> = <<E as cliffguard_sim::Engine>::Design as PhysicalDesign>::Structure;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{ExistingDesigner, NoDesign};
    use crate::evaluate::{evaluate_strategy, EvalOptions};
    use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
    use cliffguard_distance::DeltaEuclidean;
    use cliffguard_sim::{ColumnarEngine, Projection};
    use cliffguard_storage::{Catalog, ColumnDef, ColumnStats, TableDef};
    use cliffguard_workload::{PredOp, QueryBuilder, TableId, Workload};

    fn catalog() -> Catalog {
        Catalog::new(vec![TableDef {
            name: "fact".into(),
            columns: (0..12)
                .map(|i| ColumnDef {
                    name: format!("c{i}"),
                    width_bytes: 8,
                    stats: ColumnStats::uniform(100_000),
                })
                .collect(),
            rows: 8_000_000,
        }])
    }

    fn query(sel: &[u32], filt: u32) -> cliffguard_workload::Query {
        QueryBuilder::new(TableId(0))
            .select(sel)
            .filter(filt, PredOp::Eq, 0.0001)
            .build()
    }

    #[test]
    fn cracking_accumulates_recent_structures() {
        let engine = ColumnarEngine::new(catalog());
        let metric = DeltaEuclidean::new(12);
        let windows = vec![
            Workload::from_queries([(query(&[1, 2], 3), 10.0)]),
            Workload::from_queries([(query(&[4, 5], 6), 10.0)]),
            Workload::from_queries([(query(&[1, 2], 3), 5.0), (query(&[4, 5], 6), 5.0)]),
        ];
        let opts = EvalOptions {
            budget_bytes: 60 << 30,
            designable_factor: 3.0,
        };
        let crack = AdaptiveIndexingStrategy::<Projection>::new();
        let r = evaluate_strategy(&engine, &crack, &windows, &metric, &opts);
        // Window 2 is evaluated with structures from windows 0 AND 1 — the
        // cracked store accumulated both, so both query families are fast.
        let none = evaluate_strategy(&engine, &NoDesign, &windows, &metric, &opts);
        let (Some(last), Some(last_none)) = (r.windows.last(), none.windows.last()) else {
            panic!("both evaluations should have recorded windows");
        };
        assert!(last.avg_ms * 3.0 < last_none.avg_ms);
        assert!(last.structures >= 2);
    }

    #[test]
    fn cracking_can_beat_pure_nominal_on_alternation() {
        // Alternating workload: the nominal designer always optimizes for
        // yesterday and is always wrong; cracking remembers both phases.
        let engine = ColumnarEngine::new(catalog());
        let metric = DeltaEuclidean::new(12);
        let a = Workload::from_queries([(query(&[1, 2], 3), 10.0)]);
        let b = Workload::from_queries([(query(&[4, 5], 6), 10.0)]);
        let windows = vec![a.clone(), b.clone(), a.clone(), b.clone(), a, b];
        let opts = EvalOptions {
            budget_bytes: 60 << 30,
            designable_factor: 3.0,
        };
        let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let existing = evaluate_strategy(
            &engine,
            &ExistingDesigner::new(&nominal),
            &windows,
            &metric,
            &opts,
        );
        let crack = AdaptiveIndexingStrategy::<Projection>::new();
        let cracked = evaluate_strategy(&engine, &crack, &windows, &metric, &opts);
        assert!(
            cracked.mean_avg_ms < existing.mean_avg_ms,
            "cracking {:.0} should beat always-wrong nominal {:.0}",
            cracked.mean_avg_ms,
            existing.mean_avg_ms
        );
    }

    #[test]
    fn eviction_respects_budget() {
        let engine = ColumnarEngine::new(catalog());
        let metric = DeltaEuclidean::new(12);
        let windows: Vec<Workload> = (0..5)
            .map(|i| {
                Workload::from_queries([(query(&[i * 2 % 10, i * 2 % 10 + 1], (i * 3) % 11), 5.0)])
            })
            .collect();
        // Budget fits roughly one structure.
        let opts = EvalOptions {
            budget_bytes: 200 << 20,
            designable_factor: 1.0,
        };
        let crack = AdaptiveIndexingStrategy::<Projection>::new();
        let r = evaluate_strategy(&engine, &crack, &windows, &metric, &opts);
        for w in &r.windows {
            assert!(w.price_bytes <= 200 << 20);
        }
    }
}
