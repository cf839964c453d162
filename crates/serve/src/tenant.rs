//! Per-tenant session accounting.
//!
//! The daemon keeps one [`TenantStats`] row per tenant id it has ever
//! admitted, surfaced through the `status` and `metrics` protocol verbs
//! and mirrored into the telemetry registry as labeled series
//! (`cliffguard.serve.sessions{tenant="…"}`). The registry is a
//! `BTreeMap`, so snapshots render in a stable tenant order.

use cliffguard_telemetry as telemetry;
use serde::Value;
use std::collections::BTreeMap;

/// Lifetime counters for one tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Design requests admitted (including ones still in flight).
    pub admitted: u64,
    /// Sessions that terminated `done` without degradation.
    pub done: u64,
    /// Sessions that terminated `done` but degraded.
    pub degraded: u64,
    /// Requests refused (admission or input validation).
    pub rejected: u64,
    /// Sessions recovered from the state directory after a restart.
    pub resumed: u64,
    /// Sessions interrupted by the kill hook
    /// ([`ServeConfig::kill_after_iterations`](crate::ServeConfig::kill_after_iterations);
    /// checkpointed, not yet completed).
    pub interrupted: u64,
    /// Flight-recorder dumps captured for this tenant (one per degraded
    /// or panicked session).
    pub flights: u64,
    /// Fingerprint of the tenant's most recent completed design.
    pub last_fingerprint: Option<u64>,
}

/// The daemon's tenant table.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: BTreeMap<String, TenantStats>,
}

impl TenantRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mutable stats row for `tenant`, created on first touch.
    pub fn stats_mut(&mut self, tenant: &str) -> &mut TenantStats {
        self.tenants.entry(tenant.to_string()).or_default()
    }

    /// Number of tenants ever admitted.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Records a terminal session outcome for `tenant`, updating both the
    /// local row and (when telemetry metrics are installed) the
    /// per-tenant labeled series.
    pub fn record_outcome(&mut self, tenant: &str, outcome: &str, fingerprint: Option<u64>) {
        let row = self.stats_mut(tenant);
        match outcome {
            "done" => row.done += 1,
            "degraded" => row.degraded += 1,
            "rejected" => row.rejected += 1,
            "interrupted" => row.interrupted += 1,
            _ => {}
        }
        if let Some(fp) = fingerprint {
            row.last_fingerprint = Some(fp);
        }
        if let Some(c) = telemetry::counter(&telemetry::labeled(
            "cliffguard.serve.sessions",
            "tenant",
            tenant,
        )) {
            c.incr(1);
        }
        if let Some(c) = telemetry::counter(&telemetry::labeled(
            &format!("cliffguard.serve.{outcome}"),
            "tenant",
            tenant,
        )) {
            c.incr(1);
        }
    }

    /// Renders the table as a JSON value, one entry per tenant in sorted
    /// order.
    pub fn to_value(&self) -> Value {
        Value::Map(
            self.tenants
                .iter()
                .map(|(tenant, s)| {
                    (
                        tenant.clone(),
                        Value::Map(vec![
                            ("admitted".into(), Value::U64(s.admitted)),
                            ("done".into(), Value::U64(s.done)),
                            ("degraded".into(), Value::U64(s.degraded)),
                            ("rejected".into(), Value::U64(s.rejected)),
                            ("resumed".into(), Value::U64(s.resumed)),
                            ("interrupted".into(), Value::U64(s.interrupted)),
                            ("flights".into(), Value::U64(s.flights)),
                            (
                                "last_fingerprint".into(),
                                match s.last_fingerprint {
                                    Some(fp) => Value::U64(fp),
                                    None => Value::Null,
                                },
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_accumulate_per_tenant_in_sorted_order() {
        let mut reg = TenantRegistry::new();
        reg.stats_mut("zeta").admitted += 1;
        reg.stats_mut("acme").admitted += 2;
        reg.record_outcome("acme", "done", Some(0xfeed));
        reg.record_outcome("acme", "degraded", None);
        reg.record_outcome("zeta", "rejected", None);

        let v = reg.to_value();
        let m = v.as_map().unwrap();
        assert_eq!(
            m.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["acme", "zeta"],
            "snapshot order must be stable (sorted)"
        );
        let acme = m[0].1.as_map().unwrap();
        assert_eq!(serde::map_get(acme, "done"), &Value::U64(1));
        assert_eq!(serde::map_get(acme, "degraded"), &Value::U64(1));
        assert_eq!(
            serde::map_get(acme, "last_fingerprint"),
            &Value::U64(0xfeed)
        );
        let zeta = m[1].1.as_map().unwrap();
        assert_eq!(serde::map_get(zeta, "rejected"), &Value::U64(1));
        assert_eq!(serde::map_get(zeta, "last_fingerprint"), &Value::Null);
    }
}
