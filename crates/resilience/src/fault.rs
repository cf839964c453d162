//! Deterministic fault plans.

/// One way a designer (or engine) call can misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The call fails outright (outage, crash).
    Fail,
    /// The call succeeds but takes this many extra virtual milliseconds.
    Stall(u64),
    /// The call returns a design that overruns the storage budget.
    OverBudget,
    /// The call returns an empty design.
    Empty,
    /// The call returns a stale design from a *previous* invocation
    /// (a cached answer for the wrong workload).
    Stale,
    /// Replica with this index crashes at this point in the session.
    /// Consumed by the replicated-design layer (the designer itself keeps
    /// working); explicit-only — never chosen by the random layer.
    ReplicaCrash(u32),
    /// Replica with this index degrades (latencies inflate by the plan's
    /// slow factor) at this point in the session. Explicit-only, consumed
    /// by the replicated-design layer.
    ReplicaSlow(u32),
    /// The call panics outright — the worker-crash failure mode, used to
    /// exercise the serve pool's panic isolation and the flight
    /// recorder's dump-on-panic path. Explicit-only — never chosen by
    /// the random layer, so existing seeded schedules are unchanged.
    Panic,
}

impl FaultKind {
    /// Short name used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Fail => "fail",
            FaultKind::Stall(_) => "stall",
            FaultKind::OverBudget => "overbudget",
            FaultKind::Empty => "empty",
            FaultKind::Stale => "stale",
            FaultKind::ReplicaCrash(_) => "replica-crash",
            FaultKind::ReplicaSlow(_) => "replica-slow",
            FaultKind::Panic => "panic",
        }
    }
}

/// A malformed fault-plan spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// A deterministic schedule of injected faults.
///
/// The schedule is **stateless**: whether call `N` faults, and how, is a
/// pure function of the plan and `N`. That makes injected faults
/// reproducible across runs and thread counts, and lets a resumed
/// session re-align with an uninterrupted one by fast-forwarding its
/// call counter.
///
/// Two layers compose:
///
/// * *explicit* faults pin specific 1-based call indices
///   (`fail@3`, `stall@5:80`);
/// * a *seeded* layer faults every other call independently with
///   probability `rate`, choosing the kind from the same hash.
///
/// # Spec grammar (the `CLIFFGUARD_FAULTS` variable, `--faults` flag)
///
/// Comma-separated entries:
///
/// ```text
/// seed=7            seed of the random layer
/// rate=0.25         per-call fault probability of the random layer
/// stall-ms=50       stall duration used by randomly chosen stalls
/// slow-factor=4     latency inflation applied by replica-slow faults
/// fail@3            explicit: call 3 fails
/// stall@5:80        explicit: call 5 stalls 80 ms
/// overbudget@2      explicit: call 2 returns an over-budget design
/// empty@4           explicit: call 4 returns an empty design
/// stale@6           explicit: call 6 returns a stale design
/// replica-crash@2:1 explicit: at call 2, replica 1 crashes
/// replica-slow@3:0  explicit: at call 3, replica 0 degrades
/// panic@2           explicit: call 2 panics (worker crash)
/// ```
///
/// e.g. `CLIFFGUARD_FAULTS="seed=7,rate=0.3,stall-ms=120,fail@1"`.
///
/// The replica kinds and `panic` are **explicit-only**: the seeded
/// random layer never chooses them, so adding them did not reshuffle any
/// existing seeded schedule. The replica index defaults to `0` when the
/// `:R` argument is omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    explicit: Vec<(u64, FaultKind)>,
    seed: u64,
    rate: f64,
    stall_ms: u64,
    slow_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

const DEFAULT_STALL_MS: u64 = 50;
const DEFAULT_SLOW_FACTOR: f64 = 4.0;

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        Self {
            explicit: Vec::new(),
            seed: 0,
            rate: 0.0,
            stall_ms: DEFAULT_STALL_MS,
            slow_factor: DEFAULT_SLOW_FACTOR,
        }
    }

    /// A seeded random plan faulting each call with probability `rate`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        Self {
            rate: rate.clamp(0.0, 1.0),
            seed,
            ..Self::none()
        }
    }

    /// Adds an explicit fault at 1-based call index `call`.
    pub fn at(mut self, call: u64, kind: FaultKind) -> Self {
        self.explicit.retain(|&(c, _)| c != call);
        self.explicit.push((call, kind));
        self
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_none(&self) -> bool {
        self.explicit.is_empty() && self.rate == 0.0
    }

    /// The stall duration of the random layer (ms).
    pub fn stall_ms(&self) -> u64 {
        self.stall_ms
    }

    /// The latency inflation factor applied by
    /// [`FaultKind::ReplicaSlow`] faults (≥ 1.0; default 4.0).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }

    /// Sets the replica-slow latency inflation factor (clamped to
    /// ≥ 1.0 — a factor below one would make a "degraded" replica
    /// faster).
    pub fn with_slow_factor(mut self, factor: f64) -> Self {
        self.slow_factor = factor.max(1.0);
        self
    }

    /// Parses a spec string (see the type-level grammar).
    pub fn from_spec(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = Self::none();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some((key, value)) = entry.split_once('=') {
                match key.trim() {
                    "seed" => {
                        plan.seed = value
                            .trim()
                            .parse()
                            .map_err(|_| FaultSpecError(format!("seed `{value}`")))?
                    }
                    "rate" => {
                        let r: f64 = value
                            .trim()
                            .parse()
                            .map_err(|_| FaultSpecError(format!("rate `{value}`")))?;
                        if !(0.0..=1.0).contains(&r) {
                            return Err(FaultSpecError(format!("rate `{value}` not in [0,1]")));
                        }
                        plan.rate = r;
                    }
                    "stall-ms" => {
                        plan.stall_ms = value
                            .trim()
                            .parse()
                            .map_err(|_| FaultSpecError(format!("stall-ms `{value}`")))?
                    }
                    "slow-factor" => {
                        let f: f64 = value
                            .trim()
                            .parse()
                            .map_err(|_| FaultSpecError(format!("slow-factor `{value}`")))?;
                        if !f.is_finite() || f < 1.0 {
                            return Err(FaultSpecError(format!("slow-factor `{value}` below 1")));
                        }
                        plan.slow_factor = f;
                    }
                    other => return Err(FaultSpecError(format!("unknown key `{other}`"))),
                }
            } else if let Some((kind, at)) = entry.split_once('@') {
                let (call_str, arg) = match at.split_once(':') {
                    Some((c, a)) => (c, Some(a)),
                    None => (at, None),
                };
                let call: u64 = call_str
                    .trim()
                    .parse()
                    .map_err(|_| FaultSpecError(format!("call index `{call_str}`")))?;
                if call == 0 {
                    return Err(FaultSpecError("call indices are 1-based".into()));
                }
                let kind = match kind.trim() {
                    "fail" => FaultKind::Fail,
                    "stall" => {
                        let ms = match arg {
                            Some(a) => a
                                .trim()
                                .parse()
                                .map_err(|_| FaultSpecError(format!("stall ms `{a}`")))?,
                            None => plan.stall_ms,
                        };
                        FaultKind::Stall(ms)
                    }
                    "overbudget" => FaultKind::OverBudget,
                    "empty" => FaultKind::Empty,
                    "stale" => FaultKind::Stale,
                    "replica-crash" => FaultKind::ReplicaCrash(parse_replica_arg(arg)?),
                    "replica-slow" => FaultKind::ReplicaSlow(parse_replica_arg(arg)?),
                    "panic" => FaultKind::Panic,
                    other => return Err(FaultSpecError(format!("unknown fault kind `{other}`"))),
                };
                plan = plan.at(call, kind);
            } else {
                return Err(FaultSpecError(format!(
                    "entry `{entry}` is neither key=value nor kind@call"
                )));
            }
        }
        Ok(plan)
    }

    /// Reads the plan from [`crate::FAULTS_ENV`]; `Ok(None)` when unset
    /// or empty.
    pub fn from_env() -> Result<Option<Self>, FaultSpecError> {
        match std::env::var(crate::FAULTS_ENV) {
            Ok(s) if !s.trim().is_empty() => Self::from_spec(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// The fault (if any) injected into 1-based call `call`.
    pub fn fault_for_call(&self, call: u64) -> Option<FaultKind> {
        if let Some(&(_, kind)) = self.explicit.iter().find(|&&(c, _)| c == call) {
            return Some(kind);
        }
        if self.rate > 0.0 {
            let h = splitmix64(self.seed ^ call.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if unit_f64(h) < self.rate {
                // Derive the kind from a second mix of the same hash so the
                // "whether" and "which" decisions are independent.
                let kind = match splitmix64(h) % 5 {
                    0 => FaultKind::Fail,
                    1 => FaultKind::Stall(self.stall_ms),
                    2 => FaultKind::OverBudget,
                    3 => FaultKind::Empty,
                    _ => FaultKind::Stale,
                };
                return Some(kind);
            }
        }
        None
    }
}

/// Parses the `:R` replica-index argument of a replica fault entry
/// (defaulting to replica 0 when omitted).
fn parse_replica_arg(arg: Option<&str>) -> Result<u32, FaultSpecError> {
    match arg {
        Some(a) => a
            .trim()
            .parse()
            .map_err(|_| FaultSpecError(format!("replica index `{a}`"))),
        None => Ok(0),
    }
}

/// SplitMix64 finalizer — the same cheap bit mixer the sim crate uses for
/// design fingerprints.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)` using the top 53 bits.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_faults_hit_their_calls() {
        let p = FaultPlan::none()
            .at(2, FaultKind::Fail)
            .at(4, FaultKind::Stall(80));
        assert_eq!(p.fault_for_call(1), None);
        assert_eq!(p.fault_for_call(2), Some(FaultKind::Fail));
        assert_eq!(p.fault_for_call(3), None);
        assert_eq!(p.fault_for_call(4), Some(FaultKind::Stall(80)));
    }

    #[test]
    fn seeded_plan_is_deterministic_and_rate_shaped() {
        let p = FaultPlan::seeded(7, 0.3);
        let q = FaultPlan::seeded(7, 0.3);
        let faults: Vec<_> = (1..=1000).map(|c| p.fault_for_call(c)).collect();
        let again: Vec<_> = (1..=1000).map(|c| q.fault_for_call(c)).collect();
        assert_eq!(faults, again);
        let n = faults.iter().flatten().count();
        assert!(
            (200..=400).contains(&n),
            "rate 0.3 gave {n} faults in 1000 calls"
        );
        // A different seed gives a different schedule.
        let other = FaultPlan::seeded(8, 0.3);
        assert_ne!(
            faults,
            (1..=1000)
                .map(|c| other.fault_for_call(c))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn spec_round_trip() {
        let p = FaultPlan::from_spec("seed=7, rate=0.25, stall-ms=120, fail@1, stall@3:9, empty@5")
            .unwrap();
        assert_eq!(p.fault_for_call(1), Some(FaultKind::Fail));
        assert_eq!(p.fault_for_call(3), Some(FaultKind::Stall(9)));
        assert_eq!(p.fault_for_call(5), Some(FaultKind::Empty));
        assert_eq!(p.stall_ms(), 120);
        assert!(!p.is_none());
        assert!(FaultPlan::from_spec("").unwrap().is_none());
    }

    #[test]
    fn bad_specs_rejected() {
        for bad in [
            "rate=2",
            "seed=x",
            "bogus@1",
            "fail@0",
            "fail@x",
            "hello",
            "stall-ms=-3",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn replica_kinds_parse_with_index_arg() {
        let p = FaultPlan::from_spec("replica-crash@2:1, replica-slow@3, slow-factor=2.5").unwrap();
        assert_eq!(p.fault_for_call(2), Some(FaultKind::ReplicaCrash(1)));
        assert_eq!(
            p.fault_for_call(3),
            Some(FaultKind::ReplicaSlow(0)),
            "omitted index defaults to replica 0"
        );
        assert_eq!(p.slow_factor(), 2.5);
        assert!(FaultPlan::from_spec("replica-crash@1:x").is_err());
        assert!(FaultPlan::from_spec("slow-factor=0.5").is_err());
    }

    #[test]
    fn seeded_layer_never_chooses_replica_kinds() {
        let p = FaultPlan::seeded(11, 1.0);
        for call in 1..=500 {
            let kind = p.fault_for_call(call).expect("rate 1.0 always faults");
            assert!(
                !matches!(
                    kind,
                    FaultKind::ReplicaCrash(_) | FaultKind::ReplicaSlow(_) | FaultKind::Panic
                ),
                "call {call} drew an explicit-only kind from the random layer"
            );
        }
    }

    #[test]
    fn panic_kind_parses_and_is_explicit_only() {
        let p = FaultPlan::from_spec("panic@2").unwrap();
        assert_eq!(p.fault_for_call(1), None);
        assert_eq!(p.fault_for_call(2), Some(FaultKind::Panic));
        assert_eq!(FaultKind::Panic.name(), "panic");
    }

    #[test]
    fn later_explicit_entry_wins() {
        let p = FaultPlan::none()
            .at(1, FaultKind::Fail)
            .at(1, FaultKind::Empty);
        assert_eq!(p.fault_for_call(1), Some(FaultKind::Empty));
    }
}
