//! The online drift advisor: sliding windows, streaming δ, and the
//! Γ-threshold redesign trigger.
//!
//! The paper's pipeline is offline — materialize the log, window it,
//! design once. [`OnlineAdvisor`] runs the same drift machinery *while the
//! log streams in*: each arrival folds into the current window's
//! [`Workload`]; when the window closes, it is sealed once into a
//! [`WindowVector`], and the inter-window δ against the previous window is
//! evaluated incrementally ([`window_delta`]) and compared against Γ.
//!
//! # Per-arrival cost
//!
//! A [`LogStream`] emits one shared `Arc<Query>` per distinct query, and
//! the open window remembers each `Arc` it has seen by address. A query's
//! signature is therefore hashed on the first arrival of its `Arc` in a
//! window, and its representation key is derived once, when the window
//! seals; every other arrival is one address probe and one weight add.
//! Callers that pass a fresh `Arc` per arrival stay correct (each one
//! misses the memo and is merged by signature), they just do not gain.
//!
//! # Trigger and hysteresis contract
//!
//! A closed window with δ vs. its predecessor **triggers** a redesign iff
//! all of:
//!
//! 1. at least `warmup` windows have closed before it (δ needs history);
//! 2. the advisor is **armed**;
//! 3. no **cooldown** is pending (each trigger suppresses the next
//!    `cooldown` window closes);
//! 4. `δ > Γ` (Γ resolved per close from the retained past-δ history via
//!    the configured [`GammaPolicy`]).
//!
//! A trigger *disarms* the advisor. It re-arms only once a window closes
//! with `δ ≤ rearm_ratio · Γ` after the cooldown has drained — so drift
//! that oscillates around Γ produces exactly one redesign per excursion,
//! not one per oscillation. Each closed window yields a [`WindowAudit`]
//! whose [`line`](WindowAudit::line) rendering encodes δ and Γ as IEEE-754
//! bit patterns: two runs are equivalent iff their audit texts are
//! byte-identical.
//!
//! # Determinism
//!
//! Window contents and δ are exact functions of the arrival sequence (raw
//! counts are integers; see `cliffguard_distance::online`), timestamps come
//! from the log (or from the resilience [`SessionClock`], virtual in
//! deterministic runs), and Γ resolution sees the same bounded δ-history —
//! so the audit stream is byte-identical across chunk sizes, thread
//! counts, and kill/resume from a [`snapshot`](OnlineAdvisor::snapshot).

use crate::gamma::GammaPolicy;
use cliffguard_distance::{window_delta, ClauseMask, WindowVector};
use cliffguard_resilience::SessionClock;
use cliffguard_telemetry::{self as telemetry, Level};
use cliffguard_workload::{query_pool, LogStream, Query, SignatureSet, Workload};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hard cap on how many windows a single arrival may close under a time
/// policy. Log timestamps are untrusted input: without a cap, one
/// far-future timestamp (say `u64::MAX` seconds against a 1 s window)
/// would pad one empty [`WindowAudit`] per elapsed period — ~2^64
/// iterations on the daemon's synchronous request loop. After this many
/// closes the anchor skips straight to the period containing the arrival.
/// The cap is a pure function of the arrival sequence, so the audit
/// stream stays deterministic across chunk sizes and kill/resume.
pub const MAX_WINDOW_CLOSES_PER_ARRIVAL: u64 = 64;

/// Default interner-compaction threshold for production ingest paths
/// (the CLI and the serve daemon): once a stream's intern table exceeds
/// this many distinct queries, [`OnlineAdvisor::compact_stream`] drops
/// everything outside the advisor's retained windows.
pub const DEFAULT_INTERN_CAPACITY: usize = 1 << 16;

/// How the arrival stream is cut into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Close after exactly this many parsed arrivals.
    Count(usize),
    /// Close when a *log timestamp* (epoch seconds) moves this far past
    /// the window's start; far-future arrivals close the intervening empty
    /// windows too, up to [`MAX_WINDOW_CLOSES_PER_ARRIVAL`] closes per
    /// arrival (beyond that the anchor skips to the arrival's own window).
    /// Anchored at the first arrival's timestamp.
    LogTime(u64),
    /// Like `LogTime`, but over the advisor's [`SessionClock`] (seconds) —
    /// wall time in production, virtual time in deterministic runs.
    ClockTime(u64),
}

/// Configuration of an [`OnlineAdvisor`].
#[derive(Debug, Clone)]
pub struct OnlineAdvisorConfig {
    /// Windowing policy.
    pub window: WindowPolicy,
    /// Γ selection, resolved against the retained past-δ history at every
    /// window close ([`GammaPolicy::Fixed`] for a constant threshold).
    pub gamma: GammaPolicy,
    /// Total database columns (the metric's `n`).
    pub n_columns: usize,
    /// Clause mask for the representation vectors.
    pub mask: ClauseMask,
    /// Windows that must close before the first trigger may fire (≥ 1; δ
    /// exists only from the second window on).
    pub warmup: usize,
    /// Window closes suppressed after each trigger.
    pub cooldown: usize,
    /// Re-arm once a post-cooldown window closes with
    /// `δ ≤ rearm_ratio · Γ`.
    pub rearm_ratio: f64,
    /// Closed windows retained as the historical pool for redesigns.
    pub history: usize,
    /// Past δ values retained for Γ resolution (bounds memory on an
    /// unbounded stream).
    pub delta_history: usize,
}

impl OnlineAdvisorConfig {
    /// Sensible defaults: 64-arrival windows, auto Γ (1.5 × max past δ),
    /// warmup 1, cooldown 1, re-arm at Γ, 4-window pool.
    pub fn new(n_columns: usize) -> Self {
        Self {
            window: WindowPolicy::Count(64),
            gamma: GammaPolicy::KMaxPastDeltas(1.5),
            n_columns,
            mask: ClauseMask::SWGO,
            warmup: 1,
            cooldown: 1,
            rearm_ratio: 1.0,
            history: 4,
            delta_history: 64,
        }
    }
}

/// The record of one closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAudit {
    /// 0-based index of the closed window.
    pub index: u64,
    /// Parsed arrivals in the window.
    pub arrivals: u64,
    /// Distinct representation keys in the window.
    pub distinct: u64,
    /// δ against the previous window (`None` for the first window).
    pub delta: Option<f64>,
    /// Γ as resolved at this close.
    pub gamma: f64,
    /// Whether this close fired the redesign trigger.
    pub triggered: bool,
    /// Armed state *after* this close.
    pub armed: bool,
    /// Cooldown remaining *after* this close.
    pub cooldown: u64,
    /// First/last timestamps attributed to the window (log seconds).
    pub start_ts: u64,
    /// Exclusive end: the last observed timestamp in the window.
    pub end_ts: u64,
}

impl WindowAudit {
    /// Canonical one-line rendering. δ and Γ are IEEE-754 bit patterns so
    /// byte-equal audit streams mean bit-equal float histories.
    pub fn line(&self) -> String {
        let delta = match self.delta {
            Some(d) => format!("{:016x}", d.to_bits()),
            None => "-".into(),
        };
        format!(
            "W{} arrivals={} distinct={} delta_bits={} gamma_bits={:016x} trigger={} armed={} cooldown={} span={}..{}",
            self.index,
            self.arrivals,
            self.distinct,
            delta,
            self.gamma.to_bits(),
            u8::from(self.triggered),
            u8::from(self.armed),
            self.cooldown,
            self.start_ts,
            self.end_ts,
        )
    }
}

/// Restorable state of an [`OnlineAdvisor`] (everything except the config
/// and clock, which the owner re-supplies). Two advisors with equal
/// snapshots produce identical audit streams on identical future input.
#[derive(Debug, Clone)]
pub struct AdvisorSnapshot {
    /// Windows closed so far.
    pub window_index: u64,
    /// The open (partial) window's workload.
    pub current: Workload,
    /// First timestamp attributed to the open window.
    pub window_start_ts: Option<u64>,
    /// Milliseconds already elapsed in the open window on the session
    /// clock (`None` when no window is open). Only meaningful under
    /// [`WindowPolicy::ClockTime`]; [`restore`](OnlineAdvisor::restore)
    /// re-anchors the window this far into its span on the new clock.
    pub window_elapsed_clock_ms: Option<u64>,
    /// Last timestamp observed.
    pub last_ts: u64,
    /// The most recently closed window (δ predecessor and redesign `W0`).
    pub prev: Option<Workload>,
    /// Older closed windows, oldest first (the redesign pool).
    pub history: Vec<Workload>,
    /// Retained past δ values (Γ resolution input).
    pub past_deltas: Vec<f64>,
    /// Cooldown remaining.
    pub cooldown_left: u64,
    /// Armed state.
    pub armed: bool,
    /// Window indices that triggered, in order.
    pub triggers: Vec<u64>,
}

/// The open window: its [`Workload`] plus a memo from each arriving
/// `Arc<Query>`'s address to the entry holding it (see "Per-arrival cost"
/// in the module docs). Each memo entry pins its `Arc`, so an address
/// cannot be freed and reused by another query while the memo maps it.
#[derive(Debug, Default)]
struct OpenWindow {
    workload: Workload,
    by_addr: HashMap<usize, (usize, Arc<Query>), BuildHasherDefault<AddrHasher>>,
    arrivals: u64,
}

/// The address memo's hasher: one multiply per key. Heap addresses are
/// distinct but aligned, so they need their bits spread, not a keyed hash
/// (halves the memo probe against the default SipHash).
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, addr: usize) {
        let h = (addr as u64 ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl OpenWindow {
    /// The open window of a snapshot (the memo starts empty).
    fn restored(workload: Workload) -> Self {
        Self {
            arrivals: workload.total_weight() as u64,
            workload,
            by_addr: HashMap::default(),
        }
    }

    fn add(&mut self, query: &Arc<Query>) {
        match self.by_addr.entry(Arc::as_ptr(query) as usize) {
            Entry::Occupied(e) => self.workload.add_to_entry(e.get().0, 1.0),
            Entry::Vacant(e) => {
                let index = self.workload.add_indexed(Arc::clone(query), 1.0);
                e.insert((index, Arc::clone(query)));
            }
        }
        self.arrivals += 1;
    }

    /// Hands the window's workload out and resets for the next window,
    /// keeping the memo's allocation.
    fn take(&mut self) -> Workload {
        self.by_addr.clear();
        self.arrivals = 0;
        std::mem::take(&mut self.workload)
    }
}

/// Streaming drift advisor over one ingest session.
#[derive(Debug)]
pub struct OnlineAdvisor {
    config: OnlineAdvisorConfig,
    clock: SessionClock,
    open: OpenWindow,
    window_start_ts: Option<u64>,
    /// ClockTime anchor of the open window: the clock reading when it was
    /// (re-)anchored plus the ms already elapsed at that reading (negative
    /// after a gap skip credits future periods). Elapsed time in the open
    /// window is `(now − reading) + offset`, so a restored advisor carries
    /// the window's consumed span across clock restarts.
    clock_anchor: Option<(u64, i128)>,
    last_ts: u64,
    prev: Option<Workload>,
    prev_vector: Option<WindowVector>,
    history: VecDeque<Workload>,
    past_deltas: VecDeque<f64>,
    window_index: u64,
    cooldown_left: u64,
    armed: bool,
    triggers: Vec<u64>,
}

impl OnlineAdvisor {
    /// A fresh advisor.
    pub fn new(config: OnlineAdvisorConfig, clock: SessionClock) -> Self {
        Self {
            config,
            clock,
            open: OpenWindow::default(),
            window_start_ts: None,
            clock_anchor: None,
            last_ts: 0,
            prev: None,
            prev_vector: None,
            history: VecDeque::new(),
            past_deltas: VecDeque::new(),
            window_index: 0,
            cooldown_left: 0,
            armed: true,
            triggers: Vec::new(),
        }
    }

    /// Rebuilds an advisor from a [`snapshot`](Self::snapshot). The δ
    /// predecessor vector is reconstructed from the persisted workload;
    /// raw counts are exact integers, so the rebuilt state is
    /// bit-identical to the live one. The open window's consumed
    /// clock span ([`AdvisorSnapshot::window_elapsed_clock_ms`]) is
    /// re-anchored against `clock`, so ClockTime windows keep their
    /// configured span across a restart rather than restarting it.
    pub fn restore(config: OnlineAdvisorConfig, clock: SessionClock, s: AdvisorSnapshot) -> Self {
        let mask = config.mask;
        let clock_anchor = s
            .window_elapsed_clock_ms
            .map(|elapsed| (clock.now_ms(), i128::from(elapsed)));
        Self {
            prev_vector: s
                .prev
                .as_ref()
                .map(|w| WindowVector::from_workload(w, mask)),
            open: OpenWindow::restored(s.current),
            window_start_ts: s.window_start_ts,
            clock_anchor,
            last_ts: s.last_ts,
            prev: s.prev,
            history: s.history.into(),
            past_deltas: s.past_deltas.into(),
            window_index: s.window_index,
            cooldown_left: s.cooldown_left,
            armed: s.armed,
            triggers: s.triggers,
            config,
            clock,
        }
    }

    /// Captures the advisor's restorable state.
    pub fn snapshot(&self) -> AdvisorSnapshot {
        AdvisorSnapshot {
            window_index: self.window_index,
            current: self.open.workload.clone(),
            window_start_ts: self.window_start_ts,
            window_elapsed_clock_ms: self.clock_anchor.map(|(reading, offset)| {
                let elapsed = i128::from(self.clock.now_ms().saturating_sub(reading)) + offset;
                u64::try_from(elapsed.max(0)).unwrap_or(u64::MAX)
            }),
            last_ts: self.last_ts,
            prev: self.prev.clone(),
            history: self.history.iter().cloned().collect(),
            past_deltas: self.past_deltas.iter().copied().collect(),
            cooldown_left: self.cooldown_left,
            armed: self.armed,
            triggers: self.triggers.clone(),
        }
    }

    /// Folds one parsed arrival in. Returns the audits of every window
    /// this arrival closed (empty almost always; time policies can close
    /// several empty windows at once).
    pub fn observe(&mut self, timestamp: u64, query: &Arc<Query>) -> Vec<WindowAudit> {
        let mut audits = Vec::new();
        // Time-based windows close *before* the arrival that overruns them
        // is attributed to the new window.
        match self.config.window {
            WindowPolicy::LogTime(secs) => {
                let secs = secs.max(1);
                let mut closed = 0u64;
                while let Some(start) = self.window_start_ts {
                    // Checked: an anchor within `secs` of u64::MAX has its
                    // window end past the representable range, so no
                    // timestamp can overrun it.
                    let Some(end) = start.checked_add(secs) else {
                        break;
                    };
                    if timestamp < end {
                        break;
                    }
                    audits.push(self.close_window());
                    closed += 1;
                    if closed > MAX_WINDOW_CLOSES_PER_ARRIVAL {
                        // Implausibly far jump: skip the anchor straight to
                        // the arrival's own window (≤ timestamp, so this
                        // cannot overflow) instead of padding one empty
                        // audit per elapsed period.
                        self.window_start_ts = Some(end + (timestamp - end) / secs * secs);
                        break;
                    }
                    // Empty interior windows advance the anchor by one
                    // period each, like `QueryLog::windows`.
                    self.window_start_ts = Some(end);
                }
            }
            WindowPolicy::ClockTime(secs) => {
                let ms = i128::from(secs.max(1)) * 1_000;
                let now = self.clock.now_ms();
                let mut closed = 0u64;
                while let Some((reading, offset)) = self.clock_anchor {
                    let elapsed = i128::from(now.saturating_sub(reading)) + offset;
                    if elapsed < ms {
                        break;
                    }
                    audits.push(self.close_window());
                    closed += 1;
                    if closed > MAX_WINDOW_CLOSES_PER_ARRIVAL {
                        // A huge clock jump (e.g. a long-suspended host):
                        // skip to the period containing `now`.
                        self.clock_anchor = Some((reading, offset - elapsed / ms * ms));
                        break;
                    }
                    self.clock_anchor = Some((reading, offset - ms));
                }
            }
            WindowPolicy::Count(_) => {}
        }
        if self.window_start_ts.is_none() {
            self.window_start_ts = Some(timestamp);
        }
        if self.clock_anchor.is_none() {
            self.clock_anchor = Some((self.clock.now_ms(), 0));
        }
        self.last_ts = timestamp;
        self.open.add(query);
        if let WindowPolicy::Count(n) = self.config.window {
            if self.open.arrivals >= n.max(1) as u64 {
                audits.push(self.close_window());
            }
        }
        audits
    }

    /// Closes the open window if it holds any arrivals (end of stream).
    pub fn finish(&mut self) -> Option<WindowAudit> {
        (self.open.arrivals > 0).then(|| self.close_window())
    }

    fn close_window(&mut self) -> WindowAudit {
        let closed = self.open.take();
        // Counts are integer sums, so the sealed vector does not depend on
        // how the window's arrivals were grouped.
        let vector = WindowVector::from_workload(&closed, self.config.mask);
        let index = self.window_index;
        self.window_index += 1;

        let gamma = self
            .config
            .gamma
            .resolve(self.past_deltas.make_contiguous());
        let delta = self
            .prev_vector
            .as_ref()
            .map(|prev| window_delta(prev, &vector, self.config.n_columns));

        let mut triggered = false;
        if let Some(d) = delta {
            if d > gamma {
                if index >= self.config.warmup as u64 && self.armed && self.cooldown_left == 0 {
                    triggered = true;
                    self.armed = false;
                    self.cooldown_left = self.config.cooldown as u64;
                    self.triggers.push(index);
                }
            } else if self.cooldown_left == 0 && d <= self.config.rearm_ratio * gamma {
                self.armed = true;
            }
            if !triggered && self.cooldown_left > 0 {
                self.cooldown_left -= 1;
            }
            self.past_deltas.push_back(d);
            while self.past_deltas.len() > self.config.delta_history.max(1) {
                self.past_deltas.pop_front();
            }
        }

        let start_ts = self.window_start_ts.unwrap_or(self.last_ts);
        let audit = WindowAudit {
            index,
            arrivals: vector.total() as u64,
            distinct: vector.support().len() as u64,
            delta,
            gamma,
            triggered,
            armed: self.armed,
            cooldown: self.cooldown_left,
            start_ts,
            end_ts: self.last_ts,
        };

        // A window closes in one call, so the span is entered and dropped
        // here; what matters is the `span` kind (the trace report's window
        // table selects on it) and the field payload.
        drop(
            telemetry::event(Level::Info, "cliffguard.core.ingest.window")
                .u64("window", index)
                .u64("arrivals", audit.arrivals)
                .u64("distinct", audit.distinct)
                .f64("delta", delta.unwrap_or(0.0))
                .f64("gamma", gamma)
                .bool("trigger", triggered)
                .bool("armed", self.armed)
                .entered(),
        );
        if triggered {
            telemetry::event(Level::Warn, "cliffguard.core.ingest.trigger")
                .u64("window", index)
                .f64("delta", delta.unwrap_or(0.0))
                .f64("gamma", gamma)
                .emit();
        }
        if let Some(c) = telemetry::counter("cliffguard.ingest.windows") {
            c.incr(1);
        }
        if let Some(c) = telemetry::counter("cliffguard.ingest.arrivals") {
            c.incr(audit.arrivals);
        }
        if triggered {
            if let Some(c) = telemetry::counter("cliffguard.ingest.triggers") {
                c.incr(1);
            }
        }
        if let (Some(g), Some(d)) = (telemetry::gauge("cliffguard.ingest.delta"), delta) {
            g.set(d);
        }

        // Rotate the closed window into the δ predecessor slot and the
        // redesign pool.
        if let Some(prev) = self.prev.take() {
            self.history.push_back(prev);
            while self.history.len() > self.config.history.max(1) {
                self.history.pop_front();
            }
        }
        self.prev = Some(closed);
        self.prev_vector = Some(vector);
        self.window_start_ts = None;
        self.clock_anchor = None;
        audit
    }

    /// Structural signatures of every query the advisor still retains:
    /// the open window, the δ predecessor, and the redesign pool — the
    /// keep-set for [`compact_stream`](Self::compact_stream).
    pub fn retained_signatures(&self) -> SignatureSet {
        let mut keep = SignatureSet::default();
        for w in std::iter::once(&self.open.workload)
            .chain(self.prev.iter())
            .chain(self.history.iter())
        {
            keep.extend(w.iter_signed().map(|(sig, _, _)| sig));
        }
        keep
    }

    /// Bounds `stream`'s intern table: once it holds more than `capacity`
    /// distinct queries, compacts it down to the advisor's retained
    /// working set (the statement cache is cleared with it, see
    /// [`LogStream::compact`]). Invisible to the audit stream — a dropped
    /// statement simply re-parses and re-interns on its next arrival, and
    /// nothing in the ingest paths keys on the renumbered ids — so
    /// callers invoke it after every chunk. Returns whether a compaction
    /// ran.
    pub fn compact_stream(&self, stream: &mut LogStream, capacity: usize) -> bool {
        let before = stream.interner().len();
        if before <= capacity.max(1) {
            return false;
        }
        let keep = self.retained_signatures();
        stream.compact(|_, q| keep.contains(&q.signature()));
        if let Some(c) = telemetry::counter("cliffguard.ingest.compactions") {
            c.incr(1);
        }
        if let Some(g) = telemetry::gauge("cliffguard.ingest.interned") {
            g.set(stream.interner().len() as f64);
        }
        true
    }

    /// The most recently closed window — the `W0` a triggered redesign
    /// runs on.
    pub fn last_window(&self) -> Option<&Workload> {
        self.prev.as_ref()
    }

    /// Historical queries for the redesign pool: the retained closed
    /// windows (newest first), deduplicated by structural signature — the
    /// same pool policy as the offline CLI.
    pub fn design_pool(&self) -> Vec<Arc<Query>> {
        query_pool(self.history.iter().rev())
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.window_index
    }

    /// Window indices that fired the trigger, in order.
    pub fn triggers(&self) -> &[u64] {
        &self.triggers
    }

    /// Whether the trigger is currently armed.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Cooldown windows remaining.
    pub fn cooldown_left(&self) -> u64 {
        self.cooldown_left
    }

    /// Arrivals in the open (not yet closed) window.
    pub fn open_arrivals(&self) -> u64 {
        self.open.arrivals
    }

    /// Retained past δ values, oldest first.
    pub fn past_deltas(&self) -> impl Iterator<Item = f64> + '_ {
        self.past_deltas.iter().copied()
    }

    /// The advisor's configuration.
    pub fn config(&self) -> &OnlineAdvisorConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliffguard_workload::{QueryBuilder, TableId};

    const N: usize = 16;

    fn q(sel: &[u32]) -> Arc<Query> {
        Arc::new(QueryBuilder::new(TableId(0)).select(sel).build())
    }

    fn config(window: usize) -> OnlineAdvisorConfig {
        OnlineAdvisorConfig {
            window: WindowPolicy::Count(window),
            gamma: GammaPolicy::Fixed(1e-3),
            ..OnlineAdvisorConfig::new(N)
        }
    }

    /// Feeds 4-arrival windows over `windows`: regime A is {1,2}/{3},
    /// regime B is {8,9}/{10} — the regime of window `w` is the number of
    /// episode indices in `eps` that are ≤ `w`, so replays may start at any
    /// window offset.
    fn drive(
        advisor: &mut OnlineAdvisor,
        windows: std::ops::Range<usize>,
        eps: &[usize],
    ) -> Vec<WindowAudit> {
        let mut audits = Vec::new();
        for w in windows {
            let regime = eps.iter().filter(|&&e| e <= w).count();
            let (a, b) = if regime % 2 == 0 {
                (q(&[1, 2]), q(&[3]))
            } else {
                (q(&[8, 9]), q(&[10]))
            };
            for i in 0..4usize {
                let ts = (w * 100 + i * 10) as u64;
                let query = if i % 2 == 0 { &a } else { &b };
                audits.extend(advisor.observe(ts, query));
            }
        }
        audits
    }

    #[test]
    fn triggers_exactly_at_episodes() {
        let mut adv = OnlineAdvisor::new(config(4), SessionClock::virtual_clock());
        let audits = drive(&mut adv, 0..10, &[4, 8]);
        assert_eq!(audits.len(), 10);
        let fired: Vec<u64> = audits
            .iter()
            .filter(|a| a.triggered)
            .map(|a| a.index)
            .collect();
        assert_eq!(fired, vec![4, 8]);
        assert_eq!(adv.triggers(), &[4, 8]);
        // Same-regime windows have exactly zero δ.
        for a in &audits {
            if ![4u64, 8].contains(&a.index) {
                assert_eq!(a.delta.unwrap_or(0.0), 0.0, "window {}", a.index);
            }
        }
    }

    #[test]
    fn warmup_suppresses_early_triggers() {
        let mut cfg = config(4);
        cfg.warmup = 3;
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        // Episode at window 1: inside warmup, must not fire.
        let audits = drive(&mut adv, 0..4, &[1]);
        assert!(audits.iter().all(|a| !a.triggered));
    }

    #[test]
    fn hysteresis_fires_once_per_excursion() {
        // Oscillate every window: A B A B … — δ exceeds Γ at every close
        // after the first. Exactly one trigger; the advisor never re-arms
        // because δ never settles.
        let mut cfg = config(4);
        cfg.cooldown = 0;
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        let eps: Vec<usize> = (1..10).collect();
        let audits = drive(&mut adv, 0..10, &eps);
        let fired: Vec<u64> = audits
            .iter()
            .filter(|a| a.triggered)
            .map(|a| a.index)
            .collect();
        assert_eq!(fired, vec![1], "oscillation must not thrash redesigns");
        assert!(!adv.armed());
    }

    #[test]
    fn cooldown_defers_the_next_trigger() {
        let mut cfg = config(4);
        cfg.cooldown = 3;
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        // Episodes at 2 and 4: the second falls inside the first's
        // cooldown (and pre-re-arm), so only window 2 fires.
        let audits = drive(&mut adv, 0..8, &[2, 4]);
        let fired: Vec<u64> = audits
            .iter()
            .filter(|a| a.triggered)
            .map(|a| a.index)
            .collect();
        assert_eq!(fired, vec![2]);
    }

    #[test]
    fn log_time_windows_close_on_timestamp_and_pad_gaps() {
        let mut cfg = config(0);
        cfg.window = WindowPolicy::LogTime(100);
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        let query = q(&[1]);
        assert!(adv.observe(10, &query).is_empty());
        assert!(adv.observe(50, &query).is_empty());
        // 10 + 100 = 110 ≤ 350: closes [10,110), then two empty windows.
        let audits = adv.observe(350, &query);
        assert_eq!(audits.len(), 3);
        assert_eq!(audits[0].arrivals, 2);
        assert_eq!(audits[1].arrivals, 0);
        assert_eq!(audits[2].arrivals, 0);
        assert_eq!(adv.open_arrivals(), 1);
    }

    #[test]
    fn far_future_timestamp_closes_a_bounded_number_of_windows() {
        // An untrusted log line can claim any timestamp: the gap padding
        // must stay bounded instead of iterating once per elapsed period.
        let mut cfg = config(0);
        cfg.window = WindowPolicy::LogTime(1);
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        let query = q(&[1]);
        assert!(adv.observe(0, &query).is_empty());
        let audits = adv.observe(u64::MAX, &query);
        assert_eq!(audits.len() as u64, MAX_WINDOW_CLOSES_PER_ARRIVAL + 1);
        assert_eq!(audits[0].arrivals, 1);
        assert!(audits[1..].iter().all(|a| a.arrivals == 0));
        // The anchor skipped to the arrival's own window: a same-window
        // arrival joins it without closing anything.
        assert!(adv.observe(u64::MAX, &query).is_empty());
        assert_eq!(adv.open_arrivals(), 2);
    }

    #[test]
    fn anchor_near_u64_max_does_not_overflow() {
        let mut cfg = config(0);
        cfg.window = WindowPolicy::LogTime(100);
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        let query = q(&[1]);
        assert!(adv.observe(u64::MAX - 5, &query).is_empty());
        // The window's end lies past u64::MAX: no representable timestamp
        // can overrun it, so nothing closes and nothing wraps.
        assert!(adv.observe(u64::MAX, &query).is_empty());
        assert_eq!(adv.open_arrivals(), 2);
    }

    #[test]
    fn clock_jump_closes_a_bounded_number_of_windows() {
        let clock = SessionClock::virtual_clock();
        let mut cfg = config(0);
        cfg.window = WindowPolicy::ClockTime(1);
        let mut adv = OnlineAdvisor::new(cfg, clock.clone());
        let query = q(&[1]);
        assert!(adv.observe(1, &query).is_empty());
        clock.advance_ms(u64::MAX / 4);
        let audits = adv.observe(2, &query);
        assert_eq!(audits.len() as u64, MAX_WINDOW_CLOSES_PER_ARRIVAL + 1);
        assert!(adv.observe(3, &query).is_empty());
    }

    #[test]
    fn clock_time_windows_use_the_session_clock() {
        let clock = SessionClock::virtual_clock();
        let mut cfg = config(0);
        cfg.window = WindowPolicy::ClockTime(1);
        let mut adv = OnlineAdvisor::new(cfg, clock.clone());
        let query = q(&[1]);
        assert!(adv.observe(1, &query).is_empty());
        clock.advance_ms(1_500);
        let audits = adv.observe(2, &query);
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].arrivals, 1);
    }

    #[test]
    fn clock_time_anchor_survives_snapshot_restore() {
        let clock_a = SessionClock::virtual_clock();
        let mut cfg = config(0);
        cfg.window = WindowPolicy::ClockTime(1);
        let mut live = OnlineAdvisor::new(cfg.clone(), clock_a.clone());
        let query = q(&[1]);
        assert!(live.observe(1, &query).is_empty());
        clock_a.advance_ms(700);
        // Snapshot 700 ms into a 1 s window; restore on a *fresh* clock.
        let snap = live.snapshot();
        assert_eq!(snap.window_elapsed_clock_ms, Some(700));
        let clock_b = SessionClock::virtual_clock();
        let mut resumed = OnlineAdvisor::restore(cfg, clock_b.clone(), snap);
        // 200 ms more keeps the window open (900 ms consumed in total)…
        clock_b.advance_ms(200);
        assert!(resumed.observe(2, &query).is_empty());
        // …and another 150 ms closes it at the configured 1 s span, not
        // 1 s past the restore point.
        clock_b.advance_ms(150);
        let audits = resumed.observe(3, &query);
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].arrivals, 2);
    }

    #[test]
    fn compact_stream_keeps_only_retained_queries() {
        use cliffguard_workload::{LogStream, SimpleResolver};
        let cols: Vec<String> = (0..32).map(|i| format!("c{i}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut r = SimpleResolver::new();
        r.add_table("t", &col_refs);
        let mut cfg = config(2);
        cfg.history = 2;
        let mut adv = OnlineAdvisor::new(cfg, SessionClock::virtual_clock());
        let mut stream = LogStream::new();
        for i in 0..32u64 {
            let line = format!("{i}\tSELECT c{i} FROM t\n");
            let adv = &mut adv;
            let mut sink = |ts: u64, _id, q: &Arc<Query>| {
                let _ = adv.observe(ts, q);
            };
            stream.feed(line.as_bytes(), &r, &mut sink);
        }
        assert_eq!(stream.interner().len(), 32);
        // Under the bound: no-op.
        assert!(!adv.compact_stream(&mut stream, 64));
        assert_eq!(stream.interner().len(), 32);
        // Over the bound: the table shrinks to the retained working set.
        assert!(adv.compact_stream(&mut stream, 8));
        let retained = adv.retained_signatures();
        assert_eq!(stream.interner().len(), retained.len());
        assert!(stream.interner().len() < 32);
        // A dropped statement re-parses and re-interns on its next
        // arrival — the stream keeps working.
        let mut n = 0usize;
        stream.feed(b"99\tSELECT c0 FROM t\n", &r, &mut |_, _, _| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let eps = [4usize, 8];
        let cfg = config(4);
        let mut whole = OnlineAdvisor::new(cfg.clone(), SessionClock::virtual_clock());
        let mut cut = OnlineAdvisor::new(cfg.clone(), SessionClock::virtual_clock());
        let full: Vec<String> = drive(&mut whole, 0..10, &eps)
            .iter()
            .map(|a| a.line())
            .collect();

        // Drive the second advisor halfway (6 windows + 2 arrivals of
        // window 6, regime B), then kill and restore mid-window.
        let mut first_half: Vec<String> = drive(&mut cut, 0..6, &eps)
            .iter()
            .map(|a| a.line())
            .collect();
        for (i, query) in [q(&[8, 9]), q(&[10])].iter().enumerate() {
            assert!(cut.observe((600 + i * 10) as u64, query).is_empty());
        }
        let snap = cut.snapshot();
        drop(cut);
        let mut resumed = OnlineAdvisor::restore(cfg, SessionClock::virtual_clock(), snap);
        for (i, query) in [q(&[8, 9]), q(&[10])].iter().enumerate() {
            first_half.extend(
                resumed
                    .observe((600 + (i + 2) * 10) as u64, query)
                    .iter()
                    .map(|a| a.line()),
            );
        }
        first_half.extend(drive(&mut resumed, 7..10, &eps).iter().map(|a| a.line()));
        assert_eq!(first_half, full, "kill/resume must replay byte-identically");
        assert_eq!(resumed.triggers(), &[4, 8]);
    }

    #[test]
    fn finish_closes_the_partial_window() {
        let mut adv = OnlineAdvisor::new(config(100), SessionClock::virtual_clock());
        assert!(adv.finish().is_none());
        let _ = adv.observe(5, &q(&[1]));
        let audit = adv.finish().expect("partial window must close");
        assert_eq!(audit.arrivals, 1);
        assert_eq!(adv.open_arrivals(), 0);
        assert!(adv.finish().is_none(), "finish is idempotent");
    }

    #[test]
    fn design_pool_dedupes_history() {
        let mut adv = OnlineAdvisor::new(config(2), SessionClock::virtual_clock());
        for w in 0..5u64 {
            let _ = adv.observe(w * 10, &q(&[1, 2]));
            let _ = adv.observe(w * 10 + 5, &q(&[3]));
        }
        // 5 closed windows: 1 in `prev`, 4 in history — all identical.
        let pool = adv.design_pool();
        assert_eq!(pool.len(), 2, "pool must dedupe by signature");
        assert!(adv.last_window().is_some());
    }

    #[test]
    fn memo_never_confuses_a_reused_address() {
        // Each arrival is a fresh `Arc` dropped right after `observe`, so
        // the allocator is free to hand the next query the same address.
        // The memo pins every `Arc` it keys, so no address can come back
        // as a different query within a window.
        let mut adv = OnlineAdvisor::new(config(1000), SessionClock::virtual_clock());
        for i in 0..999u64 {
            let sel: &[u32] = if i % 3 == 0 { &[1, 2] } else { &[3] };
            let _ = adv.observe(i, &q(sel));
        }
        let audit = adv.finish().expect("the window holds arrivals");
        assert_eq!(audit.arrivals, 999);
        let w = adv.last_window().expect("closed");
        assert_eq!(w.len(), 2);
        assert_eq!(w.weight_of(&q(&[1, 2])), 333.0);
        assert_eq!(w.weight_of(&q(&[3])), 666.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The memo is invisible: over arrivals that share `Arc`s (as a
        /// stream emits them), pass fresh ones (dropped after `observe`),
        /// or alias one signature under two `Arc`s, every audit, every
        /// closed window (entry order, weight bits, the `Arc` each entry
        /// keeps) and a mid-stream snapshot/restore match a per-arrival
        /// reference.
        #[test]
        fn memo_matches_a_per_arrival_reference(
            picks in proptest::collection::vec((0usize..5, 0u8..2), 1..120),
            window in 1usize..9,
            cut in 0usize..120,
        ) {
            let shared: Vec<Arc<Query>> = vec![
                q(&[1, 2]),
                q(&[3]),
                // Same signature as the first, different `Arc` and text.
                Arc::new(QueryBuilder::new(TableId(0)).select(&[1, 2]).raw_sql("x").build()),
                q(&[8, 9]),
                q(&[1, 2, 3]),
            ];
            let cfg = config(window);
            let mut adv = OnlineAdvisor::new(cfg.clone(), SessionClock::virtual_clock());
            // The reference folds each arrival with `Workload::add`, hashing
            // its signature every time.
            let mut reference = Workload::new();
            let mut arrivals = 0u64;
            let mut prev_vector: Option<WindowVector> = None;
            for (i, &(k, fresh)) in picks.iter().enumerate() {
                if i == cut {
                    let snap = adv.snapshot();
                    adv = OnlineAdvisor::restore(cfg.clone(), SessionClock::virtual_clock(), snap);
                }
                let query = if fresh == 1 {
                    Arc::new((*shared[k]).clone())
                } else {
                    Arc::clone(&shared[k])
                };
                reference.add(Arc::clone(&query), 1.0);
                arrivals += 1;
                let audits = adv.observe(i as u64, &query);
                drop(query);
                if arrivals < window as u64 {
                    proptest::prop_assert!(audits.is_empty());
                    continue;
                }
                proptest::prop_assert_eq!(audits.len(), 1);
                let want = std::mem::take(&mut reference);
                arrivals = 0;
                let vector = WindowVector::from_workload(&want, cfg.mask);
                let delta = prev_vector.as_ref().map(|p| window_delta(p, &vector, N));
                proptest::prop_assert_eq!(audits[0].arrivals, window as u64);
                proptest::prop_assert_eq!(audits[0].distinct, vector.support().len() as u64);
                proptest::prop_assert_eq!(audits[0].delta.map(f64::to_bits), delta.map(f64::to_bits));
                prev_vector = Some(vector);
                let got = adv.last_window().expect("a window closed");
                proptest::prop_assert_eq!(got.len(), want.len());
                for ((gq, gw), (wq, ww)) in got.iter().zip(want.iter()) {
                    proptest::prop_assert!(Arc::ptr_eq(gq, wq));
                    proptest::prop_assert_eq!(gw.to_bits(), ww.to_bits());
                }
            }
            proptest::prop_assert_eq!(adv.open_arrivals(), arrivals);
        }
    }

    #[test]
    fn audit_lines_are_stable() {
        let audit = WindowAudit {
            index: 3,
            arrivals: 64,
            distinct: 6,
            delta: Some(0.015625),
            gamma: 0.001,
            triggered: true,
            armed: false,
            cooldown: 1,
            start_ts: 300,
            end_ts: 390,
        };
        assert_eq!(
            audit.line(),
            "W3 arrivals=64 distinct=6 delta_bits=3f90000000000000 \
             gamma_bits=3f50624dd2f1a9fc trigger=1 armed=0 cooldown=1 span=300..390"
        );
    }
}
