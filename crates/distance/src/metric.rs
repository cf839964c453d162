//! The distance-metric abstraction and clause masks.

use cliffguard_workload::{Query, Workload};
use std::sync::Arc;

/// Which clauses contribute columns to a query's representation.
///
/// The paper's default metric `Euc-union (SWGO)` unions the columns of all
/// four clauses; Figure 11 ablates single-clause variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseMask {
    /// Include SELECT-clause columns.
    pub select: bool,
    /// Include WHERE-clause columns.
    pub filter: bool,
    /// Include GROUP BY columns.
    pub group_by: bool,
    /// Include ORDER BY columns.
    pub order_by: bool,
}

impl ClauseMask {
    /// All four clauses (`Euc-union (SWGO)`, the paper's default).
    pub const SWGO: ClauseMask = ClauseMask {
        select: true,
        filter: true,
        group_by: true,
        order_by: true,
    };
    /// SELECT only (`Euc-union (S)`).
    pub const S: ClauseMask = ClauseMask {
        select: true,
        filter: false,
        group_by: false,
        order_by: false,
    };
    /// WHERE only (`Euc-union (W)`).
    pub const W: ClauseMask = ClauseMask {
        select: false,
        filter: true,
        group_by: false,
        order_by: false,
    };
    /// GROUP BY only (`Euc-union (G)`).
    pub const G: ClauseMask = ClauseMask {
        select: false,
        filter: false,
        group_by: true,
        order_by: false,
    };
    /// ORDER BY only (`Euc-union (O)`).
    pub const O: ClauseMask = ClauseMask {
        select: false,
        filter: false,
        group_by: false,
        order_by: true,
    };

    /// Short label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match (self.select, self.filter, self.group_by, self.order_by) {
            (true, true, true, true) => "SWGO",
            (true, false, false, false) => "S",
            (false, true, false, false) => "W",
            (false, false, true, false) => "G",
            (false, false, false, true) => "O",
            _ => "custom",
        }
    }
}

/// A distance over pairs of workloads (the paper's `δ`).
///
/// Implementations must be symmetric and return non-negative finite values;
/// `δ(W, W) = 0`.
pub trait WorkloadDistance {
    /// Distance between two workloads.
    fn distance(&self, a: &Workload, b: &Workload) -> f64;

    /// Fixes `w0` and a candidate list for repeated `δ(w0, Q)` evaluations
    /// over small unit-weight sets `Q ⊆ candidates` (Algorithm 4's draw
    /// loop), computing `w0`'s side of the metric once.
    fn anchored<'a>(
        &'a self,
        w0: &'a Workload,
        candidates: &'a [Arc<Query>],
    ) -> Box<dyn AnchoredDistance + 'a>;

    /// Human-readable metric name (figure legends, reports).
    fn name(&self) -> String;
}

/// `δ(W0, Q)` for one fixed `W0` and unit-weight query sets `Q` drawn from
/// one fixed candidate list; built by [`WorkloadDistance::anchored`].
pub trait AnchoredDistance {
    /// `δ(W0, Q)` where `Q` holds `candidates[i]` at weight 1 for each `i`
    /// in `subset`, bit-identical to
    /// `distance(w0, &Workload::from_queries(..))` over those queries in
    /// `subset` order. The indices must name queries with pairwise
    /// distinct signatures, so that `Q` has `subset.len()` entries.
    fn distance_to(&mut self, subset: &[usize]) -> f64;
}

impl<T: WorkloadDistance + ?Sized> WorkloadDistance for &T {
    fn distance(&self, a: &Workload, b: &Workload) -> f64 {
        (**self).distance(a, b)
    }
    fn anchored<'a>(
        &'a self,
        w0: &'a Workload,
        candidates: &'a [Arc<Query>],
    ) -> Box<dyn AnchoredDistance + 'a> {
        (**self).anchored(w0, candidates)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_labels() {
        assert_eq!(ClauseMask::SWGO.label(), "SWGO");
        assert_eq!(ClauseMask::S.label(), "S");
        assert_eq!(ClauseMask::W.label(), "W");
        assert_eq!(ClauseMask::G.label(), "G");
        assert_eq!(ClauseMask::O.label(), "O");
        let custom = ClauseMask {
            select: true,
            filter: true,
            group_by: false,
            order_by: false,
        };
        assert_eq!(custom.label(), "custom");
    }
}
