//! Bench-side spans: wall-clock intervals recorded around calls into each
//! layer's public functions, kept in memory and written out at exit.
//!
//! A span's name starts with the crate that does the work (`storage.…`,
//! `workload.…`, `core.…`); that prefix is its layer. Spans nest per
//! thread, and every span belongs to the op that was open on its thread.
//! Recording is off until [`Tracer::enable`], and a disabled tracer never
//! reads the clock.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The summed time of many calls too short to record one by one,
    /// packed at the start of its parent (the advisor's `observe` calls
    /// inside one `LogStream::feed`).
    pub aggregate: bool,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the crate name the span's name starts with.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The wall-clock interval of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWall {
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span on this thread: (id, op, start).
type Frame = (u64, u64, u64);

thread_local! {
    static OPEN: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static CURRENT_OP: RefCell<u64> = const { RefCell::new(0) };
}

/// The process's span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Set for the whole of a traced run, so both of its phases do the
    /// same client-side probe work; spans are recorded only once `on`.
    traced_run: AtomicBool,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    ops: Mutex<Vec<OpWall>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            traced_run: AtomicBool::new(false),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            ops: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Marks this process as a traced run.
    pub fn mark_traced_run(&self) {
        self.traced_run.store(true, Ordering::SeqCst);
    }

    pub fn traced_run(&self) -> bool {
        self.traced_run.load(Ordering::Relaxed)
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.on.store(true, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens op `op` on this thread; the guard records its wall interval.
    pub fn op(&self, op: u64) -> OpGuard<'_> {
        if !self.enabled() {
            return OpGuard { rec: None };
        }
        CURRENT_OP.with(|c| *c.borrow_mut() = op);
        let start_ns = self.now_ns();
        OpGuard {
            rec: Some((
                self,
                OpWall {
                    op,
                    start_ns,
                    end_ns: start_ns,
                },
            )),
        }
    }

    /// Opens a span named `name` under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { rec: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let op = CURRENT_OP.with(|c| *c.borrow());
        let parent = OPEN.with(|s| s.borrow().last().map(|f| f.0));
        let start_ns = self.now_ns();
        OPEN.with(|s| s.borrow_mut().push((id, op, start_ns)));
        let span = Span {
            id,
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            aggregate: false,
        };
        SpanGuard {
            rec: Some((self, span)),
        }
    }

    /// Records `total_ns` of work done in many short calls as one child of
    /// this thread's innermost open span.
    pub fn aggregate(&self, name: &'static str, total_ns: u64) {
        if !self.enabled() {
            return;
        }
        let Some((parent, op, start)) = OPEN.with(|s| s.borrow().last().copied()) else {
            return;
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            op,
            name,
            parent: Some(parent),
            start_ns: start,
            end_ns: start + total_ns,
            aggregate: true,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// The recorded spans and op intervals.
    pub fn take(&self) -> (Vec<Span>, Vec<OpWall>) {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        let ops = std::mem::take(&mut *self.ops.lock().expect("op buffer poisoned"));
        (spans, ops)
    }
}

pub struct OpGuard<'t> {
    rec: Option<(&'t Tracer, OpWall)>,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        if let Some((t, mut op)) = self.rec.take() {
            op.end_ns = t.now_ns();
            if let Ok(mut ops) = t.ops.lock() {
                ops.push(op);
            }
        }
    }
}

pub struct SpanGuard<'t> {
    rec: Option<(&'t Tracer, Span)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((t, mut span)) = self.rec.take() {
            span.end_ns = t.now_ns();
            OPEN.with(|s| s.borrow_mut().pop());
            if let Ok(mut spans) = t.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Length of the part of `[lo, hi)` that `intervals` cover, counting
/// overlapping intervals once.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
            s.duration() - kids
        })
        .collect()
}

/// Per-layer attribution of a traced phase.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Summed op wall time (ns).
    pub wall_ns: u64,
    /// Op wall time no top-level span covers (ns).
    pub unattributed_ns: u64,
    /// Self time per layer (ns).
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time and call count per span name.
    pub names: BTreeMap<&'static str, (u64, u64)>,
}

/// Attributes every op's wall time to layer self times plus an
/// unattributed remainder; the two always sum to the op wall time.
pub fn attribute(spans: &[Span], ops: &[OpWall]) -> Attribution {
    let selfs = self_times(spans);
    let mut a = Attribution::default();
    let mut top: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        *a.layers.entry(s.layer()).or_default() += own;
        let e = a.names.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
        if s.parent.is_none() {
            top.entry(s.op).or_default().push((s.start_ns, s.end_ns));
        }
    }
    for op in ops {
        let wall = op.end_ns.saturating_sub(op.start_ns);
        let spanned = top
            .get_mut(&op.op)
            .map_or(0, |t| covered(t, op.start_ns, op.end_ns));
        a.wall_ns += wall;
        a.unattributed_ns += wall - spanned;
    }
    a
}

/// Renders spans, ops and per-layer self times as JSONL.
pub fn to_jsonl(spans: &[Span], ops: &[OpWall], a: &Attribution) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"kind\":\"span\",\"op\":{},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"aggregate\":{}}}",
            s.op, s.id, s.name, s.start_ns, s.end_ns, s.aggregate
        );
    }
    for o in ops {
        let _ = writeln!(
            out,
            "{{\"kind\":\"op\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            o.op, o.start_ns, o.end_ns
        );
    }
    for (layer, ns) in &a.layers {
        let _ = writeln!(
            out,
            "{{\"kind\":\"layer\",\"layer\":\"{layer}\",\"self_ns\":{ns}}}"
        );
    }
    let _ = writeln!(
        out,
        "{{\"kind\":\"layer\",\"layer\":\"unattributed\",\"self_ns\":{}}}",
        a.unattributed_ns
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            op: 1,
            name: "core.test",
            parent,
            start_ns: start,
            end_ns: end,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,60) overlap; [90,120) sticks out of the
        // parent. Covered: [10,60) + [90,100) = 60, so self = 100 - 60.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 30]);
    }

    #[test]
    fn self_time_of_nested_children_and_leaves() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(2), 10, 20),
            span(4, Some(1), 50, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10, 0]);
    }

    #[test]
    fn layers_plus_unattributed_sum_to_op_wall() {
        let mut spans = vec![span(1, None, 10, 60), span(2, Some(1), 20, 30)];
        spans[1].name = "designer.call";
        spans.push(Span {
            name: "sim.ddl",
            ..span(3, None, 70, 90)
        });
        let ops = [OpWall {
            op: 1,
            start_ns: 0,
            end_ns: 100,
        }];
        let a = attribute(&spans, &ops);
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.unattributed_ns, 30);
        assert_eq!(a.layers["core"], 40);
        assert_eq!(a.layers["designer"], 10);
        assert_eq!(a.layers["sim"], 20);
        assert_eq!(
            a.layers.values().sum::<u64>() + a.unattributed_ns,
            a.wall_ns
        );
    }

    #[test]
    fn recording_nests_per_thread_and_is_off_until_enabled() {
        let t = Tracer::default();
        {
            let _op = t.op(1);
            let _s = t.span("core.off");
        }
        assert!(t.take().0.is_empty());
        t.enable();
        {
            let _op = t.op(7);
            let _outer = t.span("core.outer");
            {
                let _inner = t.span("sim.inner");
                t.aggregate("core.many", 5);
            }
        }
        let (spans, ops) = t.take();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].op, 7);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (outer, inner, many) = (by("core.outer"), by("sim.inner"), by("core.many"));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(many.parent, Some(inner.id));
        assert!(many.aggregate);
        assert_eq!(many.end_ns - many.start_ns, 5);
        assert!(spans.iter().all(|s| s.op == 7));
    }
}
