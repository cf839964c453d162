//! Failure-aware divergent replica designs.
//!
//! A replicated deployment keeps R copies of the data. The uniform
//! strategy gives every replica the same robust design; the *divergent*
//! strategy (RITA's insight) gives each replica its own design and routes
//! every query to the replica that serves it cheapest. Divergence buys
//! per-query specialization — but a specialized fleet is only robust if
//! it survives losing a replica, when that replica's routed queries land
//! on designs never tuned for them. This module therefore scores every
//! replicated design by a **two-axis minimax**: worst case over the
//! drift scenarios *and* over every failure mask with up to `k`
//! simultaneous crashes (surviving replicas optionally paying a capacity
//! inflation for the rerouted traffic).
//!
//! The divergent designer is greedy and deterministic:
//!
//! 1. seed R copies of the uniform robust design;
//! 2. partition the target workload's interned queries round-robin
//!    across replicas (identical designs route everything to replica 0,
//!    so the seed partition must break the symmetry);
//! 3. per round, redesign each replica against its routed sub-workload
//!    (CELF greedy selection under the per-node budget), then re-route
//!    every query through the fresh [`QueryRouter`]; stop when the
//!    assignment fixes or the round budget runs out;
//! 4. keep the divergent set only if its two-axis worst case is
//!    *strictly* better than the uniform fleet's — otherwise fall back
//!    to uniform, so divergence never costs robustness.
//!
//! Mid-session replica faults ([`FaultKind::ReplicaCrash`] /
//! [`FaultKind::ReplicaSlow`]) are consumed here, by 1-based *round*
//! index: a crash removes the replica from routing (its queries fail
//! over to the argmin survivor; the [`ReplicaAudit`] records the
//! reroute), a slowdown inflates its latencies by the plan's slow
//! factor so routing steers around it. Crashing the last survivor is
//! suppressed (recorded, not applied) — the fleet always keeps one
//! replica, and the session degrades instead of dying.
//!
//! Everything is bit-deterministic: scenario folds reuse the kernel's
//! exact fold order, masks enumerate ascending, ties break toward the
//! lowest mask / lowest replica index, and with `R = 1`, `k = 0` the
//! objective reduces bit-for-bit to the uniform session's `worst_case`.

use cliffguard_designer::NominalDesigner;
use cliffguard_resilience::{FaultKind, FaultPlan};
use cliffguard_robust::{
    capacity_inflation, enumerate_masks, survivors, worst_over_masks, FailureMask,
};
use cliffguard_sim::{
    combine_fingerprints, CostKernel, DesignEpoch, PhysicalDesign, PlanningEngine, QueryRouter,
};
use cliffguard_workload::{InternedWorkload, Workload};
use std::sync::Arc;

pub use cliffguard_robust::MAX_REPLICAS;

/// Default number of route-redesign rounds of the divergent search.
pub const DEFAULT_ROUNDS: usize = 3;

/// Knobs of the replicated-design layer.
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Fleet size R (1 = unreplicated; capped at
    /// [`MAX_REPLICAS`]).
    pub replicas: usize,
    /// Crash budget k of the failure adversary (clamped to R−1).
    pub max_failures: usize,
    /// Capacity-inflation θ: under a mask with `c` crashes and `s`
    /// survivors, surviving latencies scale by `1 + θ·c/s`. `0.0`
    /// disables inflation exactly (bit-identical latencies).
    pub inflation: f64,
    /// Route-redesign rounds of the divergent search.
    pub rounds: usize,
    /// Fault plan whose replica-crash / replica-slow entries fire by
    /// 1-based round index.
    pub faults: Option<FaultPlan>,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        Self {
            replicas: 1,
            max_failures: 0,
            inflation: 0.0,
            rounds: DEFAULT_ROUNDS,
            faults: None,
        }
    }
}

/// A set of R per-replica physical designs, each within the per-node
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicatedDesign<D: PhysicalDesign> {
    /// One design per replica, indexed by replica id.
    pub replicas: Vec<D>,
}

impl<D: PhysicalDesign> ReplicatedDesign<D> {
    /// A uniform fleet: `r` copies of one design.
    pub fn uniform(design: D, r: usize) -> Self {
        Self {
            replicas: vec![design; r.max(1)],
        }
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the fleet is empty (never true for built fleets).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Order-insensitive fingerprint of the design *set*: permuting the
    /// replicas never changes it.
    pub fn set_fingerprint(&self) -> u64 {
        combine_fingerprints(self.replicas.iter().map(|d| d.fingerprint()))
    }
}

/// One replica fault consumed by the divergent search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// 1-based round the fault fired in.
    pub round: usize,
    /// Target replica index.
    pub replica: usize,
    /// `"replica-crash"` or `"replica-slow"`.
    pub kind: &'static str,
    /// Whether the fault was suppressed (a crash that would have killed
    /// the last survivor).
    pub suppressed: bool,
    /// Distinct queries rerouted off the replica.
    pub rerouted_queries: usize,
    /// Total workload weight rerouted, as f64 bits.
    pub rerouted_weight_bits: u64,
}

/// The deterministic audit trail of one replicated design run. Floats
/// travel as IEEE-754 bit patterns so [`to_json`](Self::to_json) is
/// byte-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaAudit {
    /// Fleet size R.
    pub replicas: usize,
    /// Crash budget k (after clamping).
    pub max_failures: usize,
    /// Whether the divergent fleet beat uniform (false = fell back).
    pub divergent: bool,
    /// Route-redesign rounds actually run.
    pub rounds_run: usize,
    /// Replicas crashed by injected faults (bitset).
    pub crashed_mask: FailureMask,
    /// Replicas slowed by injected faults (bitset).
    pub slowed_mask: FailureMask,
    /// Order-insensitive fingerprint of the final design set.
    pub set_fingerprint: u64,
    /// The failure mask attaining the two-axis worst case.
    pub worst_mask: FailureMask,
    /// Two-axis worst-case cost of the chosen fleet (f64 bits).
    pub worst_case_bits: u64,
    /// Two-axis worst-case cost of the uniform fleet (f64 bits).
    pub uniform_worst_case_bits: u64,
    /// Worst drift-scenario cost under the live (injected-crash-only)
    /// mask — the baseline the worst-mask regret is measured from
    /// (f64 bits).
    pub live_cost_bits: u64,
    /// Per-replica share of the target workload's weight under the live
    /// mask (f64 bits each; crashed replicas hold `0.0`).
    pub routing_shares_bits: Vec<u64>,
    /// Replica faults consumed, in firing order.
    pub failovers: Vec<FailoverEvent>,
}

impl ReplicaAudit {
    /// The two-axis worst-case cost.
    pub fn worst_case(&self) -> f64 {
        f64::from_bits(self.worst_case_bits)
    }

    /// The uniform fleet's two-axis worst case.
    pub fn uniform_worst_case(&self) -> f64 {
        f64::from_bits(self.uniform_worst_case_bits)
    }

    /// Worst-mask regret: how much the worst additional-failure mask
    /// costs over the live mask.
    pub fn worst_mask_regret(&self) -> f64 {
        self.worst_case() - f64::from_bits(self.live_cost_bits)
    }

    /// Per-replica routing shares under the live mask.
    pub fn routing_shares(&self) -> Vec<f64> {
        self.routing_shares_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect()
    }

    /// Renders the audit as one-line JSON with a fixed key order —
    /// byte-identical for identical runs at any thread count.
    pub fn to_json(&self) -> String {
        let shares: Vec<String> = self
            .routing_shares_bits
            .iter()
            .map(|b| b.to_string())
            .collect();
        let failovers: Vec<String> = self
            .failovers
            .iter()
            .map(|f| {
                format!(
                    "{{\"round\":{},\"replica\":{},\"kind\":\"{}\",\"suppressed\":{},\
                     \"rerouted_queries\":{},\"rerouted_weight_bits\":{}}}",
                    f.round,
                    f.replica,
                    f.kind,
                    f.suppressed,
                    f.rerouted_queries,
                    f.rerouted_weight_bits
                )
            })
            .collect();
        format!(
            "{{\"replicas\":{},\"max_failures\":{},\"divergent\":{},\"rounds_run\":{},\
             \"crashed_mask\":{},\"slowed_mask\":{},\"set_fingerprint\":{},\"worst_mask\":{},\
             \"worst_case_bits\":{},\"uniform_worst_case_bits\":{},\"live_cost_bits\":{},\
             \"routing_shares_bits\":[{}],\"failovers\":[{}]}}",
            self.replicas,
            self.max_failures,
            self.divergent,
            self.rounds_run,
            self.crashed_mask,
            self.slowed_mask,
            self.set_fingerprint,
            self.worst_mask,
            self.worst_case_bits,
            self.uniform_worst_case_bits,
            self.live_cost_bits,
            shares.join(","),
            failovers.join(",")
        )
    }
}

/// A finished replicated design plus its audit.
#[derive(Debug, Clone)]
pub struct ReplicaOutcome<D: PhysicalDesign> {
    /// The chosen fleet (divergent, or uniform when divergence lost).
    pub design: ReplicatedDesign<D>,
    /// The deterministic audit trail.
    pub audit: ReplicaAudit,
}

/// Why a replicated design run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// `replicas` outside `1..=MAX_REPLICAS`.
    BadFleetSize(usize),
    /// No drift scenarios were supplied.
    NoScenarios,
    /// The target workload (last scenario) is empty.
    EmptyTarget,
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::BadFleetSize(r) => {
                write!(f, "replicas must be in 1..={MAX_REPLICAS}, got {r}")
            }
            ReplicaError::NoScenarios => write!(f, "no drift scenarios supplied"),
            ReplicaError::EmptyTarget => write!(f, "the target workload is empty"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Worst cost over `masks` × `scenarios` for one router: for each mask,
/// the worst drift-scenario cost under that mask (kernel fold order, so
/// the degenerate fleet reduces bit-for-bit to the session's
/// `worst_case`); across masks, strictly-greater comparison with ties to
/// the lowest mask. Fleet-killing masks are skipped.
fn fleet_worst(
    router: &QueryRouter,
    scenarios: &[InternedWorkload],
    masks: &[FailureMask],
    theta: f64,
    replicas: usize,
) -> (FailureMask, f64) {
    let mut scored: Vec<(FailureMask, f64)> = Vec::with_capacity(masks.len());
    for &mask in masks {
        let alive = survivors(mask, replicas);
        if alive == 0 {
            continue;
        }
        let infl = capacity_inflation(theta, replicas - alive, alive);
        let mut worst: f64 = 0.0;
        for w in scenarios {
            if let Some(c) = router.routed_workload_cost(w, mask, infl) {
                worst = worst.max(c.avg_ms);
            }
        }
        scored.push((mask, worst));
    }
    worst_over_masks(&scored).unwrap_or((0, 0.0))
}

/// The adversary masks actually scored: every enumerated mask OR-ed with
/// the already-crashed set (live crashes are not optional for the
/// adversary), deduplicated, ascending, fleet-killers dropped.
fn adversary_masks(replicas: usize, max_failures: usize, crashed: FailureMask) -> Vec<FailureMask> {
    let mut masks: Vec<FailureMask> = enumerate_masks(replicas, max_failures)
        .into_iter()
        .map(|m| m | crashed)
        .filter(|&m| survivors(m, replicas) > 0)
        .collect();
    masks.sort_unstable();
    masks.dedup();
    masks
}

/// Runs the failure-aware divergent replica design.
///
/// `scenarios` is the drift adversary — the workload windows the fleet
/// must survive, with the **target workload last** (the same convention
/// as the session's window split; the target drives routing and the
/// divergent sub-designs). `base` is the uniform robust design every
/// replica starts from; `budget_bytes` is the **per-node** budget each
/// replica's redesign must respect.
pub fn design_replicated<E, D>(
    engine: &E,
    designer: &D,
    base: &E::Design,
    scenarios: &[Workload],
    budget_bytes: u64,
    opts: &ReplicaOptions,
) -> Result<ReplicaOutcome<E::Design>, ReplicaError>
where
    E: PlanningEngine,
    D: NominalDesigner<E>,
{
    let r = opts.replicas;
    if !(1..=MAX_REPLICAS).contains(&r) {
        return Err(ReplicaError::BadFleetSize(r));
    }
    if scenarios.is_empty() {
        return Err(ReplicaError::NoScenarios);
    }
    // The routing rounds keep R live replica epochs plus a redesign
    // candidate hot at once; the default 4-slot memo would thrash at R≥4,
    // rebuilding every epoch every round.
    let (kernel, interned) = CostKernel::build_with(engine, scenarios, 4.max(r + 2));
    let target = interned.last().expect("scenarios checked non-empty");
    if target.is_empty() {
        return Err(ReplicaError::EmptyTarget);
    }
    let k = opts.max_failures.min(r - 1);

    let mut crashed: FailureMask = 0;
    let mut slowed: FailureMask = 0;
    let mut scales = vec![1.0f64; r];
    let mut designs: Vec<E::Design> = vec![base.clone(); r];
    let mut failovers: Vec<FailoverEvent> = Vec::new();
    let mut rounds_run = 0usize;

    // Seed assignment: round-robin over the target's entries. Identical
    // seed designs would route everything to replica 0; the partition
    // breaks the symmetry so the per-replica redesigns diverge.
    let mut assignment: Vec<u32> = (0..target.len()).map(|i| (i % r) as u32).collect();

    if r > 1 {
        for round in 1..=opts.rounds.max(1) {
            rounds_run = round;
            let slow_factor = opts.faults.as_ref().map_or(1.0, |p| p.slow_factor());
            match opts
                .faults
                .as_ref()
                .and_then(|p| p.fault_for_call(round as u64))
            {
                Some(FaultKind::ReplicaCrash(n)) => {
                    let idx = n as usize % r;
                    let bit = 1u32 << idx;
                    let would_kill = survivors(crashed | bit, r) == 0;
                    let (nq, wt) = rerouted_load(target, &assignment, idx);
                    failovers.push(FailoverEvent {
                        round,
                        replica: idx,
                        kind: "replica-crash",
                        suppressed: would_kill || crashed & bit != 0,
                        rerouted_queries: nq,
                        rerouted_weight_bits: wt.to_bits(),
                    });
                    if !would_kill {
                        crashed |= bit;
                    }
                }
                Some(FaultKind::ReplicaSlow(n)) => {
                    let idx = n as usize % r;
                    let (nq, wt) = rerouted_load(target, &assignment, idx);
                    failovers.push(FailoverEvent {
                        round,
                        replica: idx,
                        kind: "replica-slow",
                        suppressed: false,
                        rerouted_queries: nq,
                        rerouted_weight_bits: wt.to_bits(),
                    });
                    slowed |= 1u32 << idx;
                    scales[idx] = slow_factor.max(1.0);
                }
                _ => {}
            }

            // Redesign each surviving replica against its routed
            // sub-workload (crashed replicas keep their last design; the
            // mask already excludes them from routing).
            for (replica, design) in designs.iter_mut().enumerate() {
                if crashed & (1u32 << replica) != 0 {
                    continue;
                }
                let mut sub = Workload::new();
                for (i, &(id, wt)) in target.entries().iter().enumerate() {
                    if assignment[i] == replica as u32 {
                        sub.add(Arc::clone(kernel.interner().query(id)), wt);
                    }
                }
                if !sub.is_empty() {
                    *design = designer.design(&sub, budget_bytes);
                    if design.is_empty() {
                        // A degenerate sub-design would blow up routed
                        // latencies; keep the robust base instead.
                        *design = base.clone();
                    }
                }
            }

            let router = build_router(&kernel, &designs, &scales);
            let next: Vec<u32> = target
                .entries()
                .iter()
                .map(|&(id, _)| {
                    router
                        .route_masked(id, crashed)
                        .expect("at least one replica always survives") as u32
                })
                .collect();
            let converged = next == assignment;
            assignment = next;
            if converged {
                break;
            }
        }
    }

    let masks = adversary_masks(r, k, crashed);
    let divergent_router = build_router(&kernel, &designs, &scales);
    let (div_mask, div_worst) =
        fleet_worst(&divergent_router, &interned, &masks, opts.inflation, r);

    let uniform_designs: Vec<E::Design> = vec![base.clone(); r];
    let uniform_router = build_router(&kernel, &uniform_designs, &scales);
    let (uni_mask, uni_worst) = fleet_worst(&uniform_router, &interned, &masks, opts.inflation, r);

    let divergent = div_worst < uni_worst;
    let (final_designs, router, worst_mask, worst) = if divergent {
        (designs, divergent_router, div_mask, div_worst)
    } else {
        (uniform_designs, uniform_router, uni_mask, uni_worst)
    };
    let (_, live_cost) = fleet_worst(&router, &interned, &[crashed], opts.inflation, r);
    let shares = router
        .routing_shares(target, crashed)
        .expect("at least one replica always survives");

    let design = ReplicatedDesign {
        replicas: final_designs,
    };
    let audit = ReplicaAudit {
        replicas: r,
        max_failures: k,
        divergent,
        rounds_run,
        crashed_mask: crashed,
        slowed_mask: slowed,
        set_fingerprint: design.set_fingerprint(),
        worst_mask,
        worst_case_bits: worst.to_bits(),
        uniform_worst_case_bits: uni_worst.to_bits(),
        live_cost_bits: live_cost.to_bits(),
        routing_shares_bits: shares.iter().map(|s| s.to_bits()).collect(),
        failovers,
    };
    publish_metrics(&audit);
    Ok(ReplicaOutcome { design, audit })
}

/// Distinct queries and total weight currently assigned to `replica`.
fn rerouted_load(target: &InternedWorkload, assignment: &[u32], replica: usize) -> (usize, f64) {
    let mut n = 0usize;
    let mut wt = 0.0f64;
    for (i, &(_, w)) in target.entries().iter().enumerate() {
        if assignment[i] == replica as u32 {
            n += 1;
            wt += w;
        }
    }
    (n, wt)
}

/// One epoch per replica through the kernel memo, then a router over
/// them with the current slow scales.
fn build_router<E: PlanningEngine>(
    kernel: &CostKernel<'_, E>,
    designs: &[E::Design],
    scales: &[f64],
) -> QueryRouter {
    let epochs: Vec<Arc<DesignEpoch>> = designs.iter().map(|d| kernel.epoch(d)).collect();
    QueryRouter::with_scales(epochs, scales.to_vec())
}

/// Metrics-only telemetry (no trace events — replica runs preserve the
/// session trace byte-identity contract).
fn publish_metrics(audit: &ReplicaAudit) {
    if !cliffguard_telemetry::metrics_enabled() {
        return;
    }
    for (i, share) in audit.routing_shares().iter().enumerate() {
        let name = cliffguard_telemetry::labeled(
            "cliffguard.core.replica.routing_share",
            "replica",
            &i.to_string(),
        );
        if let Some(g) = cliffguard_telemetry::gauge(&name) {
            g.set(*share);
        }
    }
    if let Some(c) = cliffguard_telemetry::counter("cliffguard.core.replica.failovers") {
        c.incr(audit.failovers.len() as u64);
    }
    if let Some(g) = cliffguard_telemetry::gauge("cliffguard.core.replica.worst_mask_regret") {
        g.set(audit.worst_mask_regret());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_designer::{ColumnarCandidates, GreedyDesigner};
    use cliffguard_sim::ColumnarEngine;
    use cliffguard_storage::CatalogGenerator;
    use cliffguard_workload::generator::SchemaShape;
    use cliffguard_workload::{PredOp, QueryBuilder, TableId};

    fn engine() -> ColumnarEngine {
        let catalog = CatalogGenerator::default().generate(&SchemaShape::new(vec![12, 8]));
        ColumnarEngine::new(catalog)
    }

    fn scenario(cols: &[&[u32]]) -> Workload {
        Workload::from_queries(cols.iter().enumerate().map(|(i, cs)| {
            (
                QueryBuilder::new(TableId((i % 2) as u32))
                    .select(cs)
                    .filter(cs[0], PredOp::Range, 0.1)
                    .build(),
                1.0 + i as f64,
            )
        }))
    }

    fn scenarios() -> Vec<Workload> {
        vec![
            scenario(&[&[0, 1], &[2, 3], &[4, 5]]),
            scenario(&[&[1, 2], &[3, 4], &[5, 6], &[0, 7]]),
        ]
    }

    #[test]
    fn degenerate_fleet_matches_the_uniform_worst_case() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let budget = 1 << 20;
        let base = designer.design(ws.last().unwrap(), budget);
        let out = design_replicated(
            &engine,
            &designer,
            &base,
            &ws,
            budget,
            &ReplicaOptions::default(),
        )
        .unwrap();
        // R=1, k=0: the objective is exactly the uniform minimax fold.
        let (kernel, interned) = CostKernel::build(&engine, &ws);
        let epoch = kernel.epoch(&base);
        let direct = interned
            .iter()
            .map(|w| kernel.workload_cost(w, &epoch).avg_ms)
            .fold(0.0f64, f64::max);
        assert_eq!(out.audit.worst_case_bits, direct.to_bits());
        assert_eq!(out.audit.worst_mask, 0);
        assert!(!out.audit.divergent);
        assert_eq!(out.design.len(), 1);
    }

    #[test]
    fn divergent_never_regresses_worse_than_uniform() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let budget = 200_000;
        let base = designer.design(ws.last().unwrap(), budget);
        for k in 0..=1 {
            let out = design_replicated(
                &engine,
                &designer,
                &base,
                &ws,
                budget,
                &ReplicaOptions {
                    replicas: 3,
                    max_failures: k,
                    ..ReplicaOptions::default()
                },
            )
            .unwrap();
            assert!(
                out.audit.worst_case() <= out.audit.uniform_worst_case(),
                "k={k}: divergent {} must not exceed uniform {}",
                out.audit.worst_case(),
                out.audit.uniform_worst_case()
            );
        }
    }

    #[test]
    fn crash_fault_reroutes_and_is_audited() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let budget = 200_000;
        let base = designer.design(ws.last().unwrap(), budget);
        let plan = FaultPlan::none().at(1, FaultKind::ReplicaCrash(1));
        let out = design_replicated(
            &engine,
            &designer,
            &base,
            &ws,
            budget,
            &ReplicaOptions {
                replicas: 3,
                max_failures: 1,
                faults: Some(plan),
                ..ReplicaOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.audit.crashed_mask, 0b010);
        assert_eq!(out.audit.failovers.len(), 1);
        let f = &out.audit.failovers[0];
        assert_eq!((f.round, f.replica, f.kind), (1, 1, "replica-crash"));
        assert!(!f.suppressed);
        // The crashed replica serves nothing.
        assert_eq!(out.audit.routing_shares()[1], 0.0);
    }

    #[test]
    fn crashing_the_last_survivor_is_suppressed() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let budget = 200_000;
        let base = designer.design(ws.last().unwrap(), budget);
        let plan = FaultPlan::none()
            .at(1, FaultKind::ReplicaCrash(0))
            .at(2, FaultKind::ReplicaCrash(1));
        let out = design_replicated(
            &engine,
            &designer,
            &base,
            &ws,
            budget,
            &ReplicaOptions {
                replicas: 2,
                max_failures: 1,
                rounds: 4,
                faults: Some(plan),
                ..ReplicaOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.audit.crashed_mask, 0b01, "only the first crash lands");
        let suppressed: Vec<_> = out
            .audit
            .failovers
            .iter()
            .filter(|f| f.suppressed)
            .collect();
        assert_eq!(suppressed.len(), 1, "second crash recorded but suppressed");
        assert_eq!(suppressed[0].replica, 1);
        // The surviving replica serves the whole workload.
        assert_eq!(out.audit.routing_shares()[1], 1.0);
    }

    #[test]
    fn slow_fault_steers_routing_away() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let budget = 200_000;
        let base = designer.design(ws.last().unwrap(), budget);
        let plan = FaultPlan::none()
            .at(1, FaultKind::ReplicaSlow(0))
            .with_slow_factor(100.0);
        let out = design_replicated(
            &engine,
            &designer,
            &base,
            &ws,
            budget,
            &ReplicaOptions {
                replicas: 2,
                faults: Some(plan),
                ..ReplicaOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.audit.slowed_mask, 0b01);
        let shares = out.audit.routing_shares();
        assert!(
            shares[0] < shares[1],
            "a 100x-slowed replica must lose routing share: {shares:?}"
        );
    }

    #[test]
    fn audits_are_byte_identical_across_reruns() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let budget = 200_000;
        let base = designer.design(ws.last().unwrap(), budget);
        let opts = ReplicaOptions {
            replicas: 3,
            max_failures: 1,
            inflation: 0.5,
            faults: Some(FaultPlan::none().at(2, FaultKind::ReplicaCrash(2))),
            ..ReplicaOptions::default()
        };
        let a = design_replicated(&engine, &designer, &base, &ws, budget, &opts).unwrap();
        let b = design_replicated(&engine, &designer, &base, &ws, budget, &opts).unwrap();
        assert_eq!(a.audit.to_json(), b.audit.to_json());
        assert_eq!(a.design.set_fingerprint(), b.design.set_fingerprint());
    }

    #[test]
    fn set_fingerprint_is_permutation_invariant() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let base = designer.design(ws.last().unwrap(), 200_000);
        let other = designer.design(&ws[0], 200_000);
        let a = ReplicatedDesign {
            replicas: vec![base.clone(), other.clone()],
        };
        let b = ReplicatedDesign {
            replicas: vec![other, base],
        };
        assert_eq!(a.set_fingerprint(), b.set_fingerprint());
    }

    #[test]
    fn bad_fleet_sizes_are_rejected() {
        let engine = engine();
        let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
        let ws = scenarios();
        let base = Default::default();
        for r in [0usize, MAX_REPLICAS + 1] {
            let out = design_replicated(
                &engine,
                &designer,
                &base,
                &ws,
                1 << 20,
                &ReplicaOptions {
                    replicas: r,
                    ..ReplicaOptions::default()
                },
            );
            assert_eq!(out.unwrap_err(), ReplicaError::BadFleetSize(r));
        }
        let out = design_replicated(
            &engine,
            &designer,
            &base,
            &[],
            1 << 20,
            &ReplicaOptions::default(),
        );
        assert_eq!(out.unwrap_err(), ReplicaError::NoScenarios);
    }
}
