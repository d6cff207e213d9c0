//! Structured tracing and metrics for the reproduction pipeline.
//!
//! This crate is the one observability surface every other layer reports
//! into: spans for stage boundaries, monotonic counters for work items
//! (rows linked, cache hits, faults injected, checkpoint commits), events
//! for point-in-time markers, and fixed-bucket duration histograms. It is
//! deliberately zero-dependency (the rayon *shim* is the only import, for
//! worker attribution) and carries the workspace's JSON codec
//! ([`json`]), which its trace exports render through, so
//! [`json::parse`] reads every byte it writes.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic structure.** Span IDs hash (parent-id, name,
//!    child-sequence) — never wall-clock, never RNG — so the span *tree*
//!    of a deterministic run is bit-identical run to run and
//!    [`Trace::structural_digest`] can be pinned in `BENCH_sweep.json`.
//!    In deterministic mode every duration field is zeroed at the source,
//!    matching how `quick_bench --deterministic` zeroes stage walls.
//! 2. **Near-zero cost when off.** Every entry point checks one relaxed
//!    atomic and returns before touching the mutex. The bench suite
//!    measures this path (one million probe calls) and `compare.rs`
//!    holds it under a committed ceiling.
//! 3. **Single-writer spans, multi-writer counters.** Spans are opened
//!    and closed on the orchestration thread only (the stage runner is
//!    sequential); counters and histograms may be bumped from any rayon
//!    worker and are attributed per-worker via
//!    [`rayon::current_worker_id`], then merged at drain time.
//!
//! Lifecycle: [`enable`] resets the collector, instrumented code calls
//! [`span`] / [`counter`] / [`event`] / [`observe_ms`], and [`drain`]
//! returns the finished [`Trace`] and switches collection back off.

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use json::Value;

/// FNV-1a 64-bit, same constants as `fred_recover::fnv1a64` (this crate
/// sits below `recover` in the dependency order, so it carries its own
/// copy rather than importing one).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Upper bounds (milliseconds, inclusive) of the first
/// [`HIST_BUCKETS`]` - 1` histogram buckets; the last bucket is
/// unbounded. Powers of two so bucket choice is stable across platforms.
pub const HIST_BOUNDS_MS: [f64; 15] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
];

/// Number of histogram buckets ([`HIST_BOUNDS_MS`] plus one overflow).
pub const HIST_BUCKETS: usize = HIST_BOUNDS_MS.len() + 1;

/// One completed span: a named interval with deterministic identity and
/// its children in open order.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Deterministic ID: FNV-1a over (parent id LE, name bytes, seq LE).
    pub id: u64,
    /// Stage or scope name, e.g. `"mdav_k5"`.
    pub name: String,
    /// Zero-based index among the parent's children.
    pub seq: u64,
    /// Start offset from `enable()` in ms; `0.0` in deterministic mode.
    pub start_ms: f64,
    /// Duration in ms; `0.0` in deterministic mode.
    pub wall_ms: f64,
    /// Point events recorded while this span was innermost.
    pub events: Vec<String>,
    /// Child spans, in the order they were opened.
    pub children: Vec<SpanNode>,
}

/// A fixed-bucket duration histogram (see [`HIST_BOUNDS_MS`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Total number of observations.
    pub count: u64,
    /// Sum of observed values in ms; `0.0` in deterministic mode.
    pub sum_ms: f64,
    /// Observation counts per bucket.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: 0,
            sum_ms: 0.0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn observe(&mut self, ms: f64) {
        let idx = HIST_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
    }
}

/// The merged result of one enable→drain window.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Whether the window ran in deterministic mode (durations zeroed).
    pub deterministic: bool,
    /// Completed top-level spans in open order.
    pub spans: Vec<SpanNode>,
    /// Counter totals merged across all threads, by name.
    pub counters: BTreeMap<String, u64>,
    /// Counter totals attributed to individual pool workers. Worker
    /// attribution depends on thread count and scheduling, so this
    /// section is informational and never gated.
    pub worker_counters: BTreeMap<usize, BTreeMap<String, u64>>,
    /// Duration histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Total spans opened in the window (including unclosed ones forced
    /// shut at drain).
    pub spans_total: u64,
    /// Total events recorded in the window.
    pub events_total: u64,
}

struct Frame {
    node: SpanNode,
    started: Instant,
    next_child_seq: u64,
}

struct Inner {
    deterministic: bool,
    epoch: Instant,
    roots: Vec<SpanNode>,
    next_root_seq: u64,
    stack: Vec<Frame>,
    counters: BTreeMap<String, u64>,
    worker_counters: BTreeMap<usize, BTreeMap<String, u64>>,
    histograms: BTreeMap<String, Histogram>,
    spans_total: u64,
    events_total: u64,
}

impl Inner {
    fn fresh(deterministic: bool) -> Self {
        Inner {
            deterministic,
            epoch: Instant::now(),
            roots: Vec::new(),
            next_root_seq: 0,
            stack: Vec::new(),
            counters: BTreeMap::new(),
            worker_counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans_total: 0,
            events_total: 0,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> &'static Mutex<Inner> {
    static COLLECTOR: OnceLock<Mutex<Inner>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Inner::fresh(false)))
}

fn lock() -> std::sync::MutexGuard<'static, Inner> {
    // Survive poisoning: the tolerant harvest path catches worker panics,
    // and a panic between lock and unlock must not wedge observability
    // for the rest of the process.
    collector().lock().unwrap_or_else(|e| e.into_inner())
}

/// Switches collection on, discarding any previous window. In
/// deterministic mode every duration (span walls, span starts, histogram
/// sums and bucket choice) is zeroed at the source so the drained trace
/// is bit-identical across runs.
pub fn enable(deterministic: bool) {
    *lock() = Inner::fresh(deterministic);
    ENABLED.store(true, Ordering::Release);
}

/// Switches collection off without draining. Open spans and recorded
/// data stay in the collector and survive a later re-[`enable`]-free
/// [`drain`]; instrumentation calls while disabled are no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether instrumentation calls currently record anything.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Computes the deterministic span ID for (parent, name, seq).
pub fn span_id(parent_id: u64, name: &str, seq: u64) -> u64 {
    let mut h = fnv1a64(&parent_id.to_le_bytes(), FNV_BASIS);
    h = fnv1a64(name.as_bytes(), h);
    fnv1a64(&seq.to_le_bytes(), h)
}

/// Opens a span; it closes when the returned guard drops. Spans must be
/// opened and closed on the single orchestration thread (guards are
/// intentionally `!Send` and nest strictly).
#[must_use = "the span closes when this guard drops"]
pub fn span(name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            id: 0,
            active: false,
            _not_send: std::marker::PhantomData,
        };
    }
    let mut inner = lock();
    let (parent_id, seq) = match inner.stack.last_mut() {
        Some(frame) => {
            let seq = frame.next_child_seq;
            frame.next_child_seq += 1;
            (frame.node.id, seq)
        }
        None => {
            let seq = inner.next_root_seq;
            inner.next_root_seq += 1;
            (0, seq)
        }
    };
    let id = span_id(parent_id, name, seq);
    let start_ms = if inner.deterministic {
        0.0
    } else {
        inner.epoch.elapsed().as_secs_f64() * 1e3
    };
    inner.stack.push(Frame {
        node: SpanNode {
            id,
            name: name.to_string(),
            seq,
            start_ms,
            wall_ms: 0.0,
            events: Vec::new(),
            children: Vec::new(),
        },
        started: Instant::now(),
        next_child_seq: 0,
    });
    inner.spans_total += 1;
    SpanGuard {
        id,
        active: true,
        _not_send: std::marker::PhantomData,
    }
}

/// Closes its span on drop. `!Send`: spans belong to the orchestration
/// thread.
pub struct SpanGuard {
    id: u64,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let mut inner = lock();
        // Only pop if this guard's span is still the innermost open one;
        // an intervening enable() reset orphans older guards harmlessly.
        if inner.stack.last().map(|f| f.node.id) != Some(self.id) {
            return;
        }
        let frame = inner.stack.pop().expect("checked non-empty");
        let mut node = frame.node;
        if !inner.deterministic {
            node.wall_ms = frame.started.elapsed().as_secs_f64() * 1e3;
        }
        match inner.stack.last_mut() {
            Some(parent) => parent.node.children.push(node),
            None => inner.roots.push(node),
        }
    }
}

/// Adds `delta` to the named monotonic counter. Thread-safe; when called
/// on a rayon-shim pool worker the delta is also attributed to that
/// worker's own section of the trace.
pub fn counter(name: &str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    let worker = rayon::current_worker_id();
    let mut inner = lock();
    bump(&mut inner.counters, name, delta);
    // Merged totals are a pure function of the workload; which pool
    // worker processed which chunk is not. Deterministic windows omit
    // the per-worker split so the drained trace stays bit-identical
    // across runs on any core count.
    if inner.deterministic {
        return;
    }
    if let Some(w) = worker {
        bump(inner.worker_counters.entry(w).or_default(), name, delta);
    }
}

/// Adds `delta` to `counters[name]`, looking the key up by `&str` so the
/// name is copied only on its first insert: the harvest bumps a handful
/// of counters per release name under the collector's lock.
fn bump(counters: &mut BTreeMap<String, u64>, name: &str, delta: u64) {
    match counters.get_mut(name) {
        Some(total) => *total += delta,
        None => {
            counters.insert(name.to_string(), delta);
        }
    }
}

/// Records a point event on the innermost open span (dropped with a
/// trace-level tally if no span is open).
pub fn event(name: &str) {
    if !is_enabled() {
        return;
    }
    let mut inner = lock();
    inner.events_total += 1;
    if let Some(frame) = inner.stack.last_mut() {
        frame.node.events.push(name.to_string());
    }
}

/// Records one duration observation into the named fixed-bucket
/// histogram. In deterministic mode the observation is counted but its
/// value is zeroed, keeping bucket placement reproducible.
pub fn observe_ms(name: &str, ms: f64) {
    if !is_enabled() {
        return;
    }
    let mut inner = lock();
    let ms = if inner.deterministic { 0.0 } else { ms };
    match inner.histograms.get_mut(name) {
        Some(histogram) => histogram.observe(ms),
        None => {
            let mut histogram = Histogram::new();
            histogram.observe(ms);
            inner.histograms.insert(name.to_string(), histogram);
        }
    }
}

/// Ends the window: switches collection off, force-closes any spans
/// still open (in stack order, zero wall in deterministic mode), and
/// returns the merged [`Trace`]. The collector is left empty.
pub fn drain() -> Trace {
    ENABLED.store(false, Ordering::Release);
    let mut inner = lock();
    while let Some(frame) = inner.stack.pop() {
        let mut node = frame.node;
        if !inner.deterministic {
            node.wall_ms = frame.started.elapsed().as_secs_f64() * 1e3;
        }
        match inner.stack.last_mut() {
            Some(parent) => parent.node.children.push(node),
            None => inner.roots.push(node),
        }
    }
    let done = std::mem::replace(&mut *inner, Inner::fresh(false));
    Trace {
        deterministic: done.deterministic,
        spans: done.roots,
        counters: done.counters,
        worker_counters: done.worker_counters,
        histograms: done.histograms,
        spans_total: done.spans_total,
        events_total: done.events_total,
    }
}

impl Trace {
    /// Merged total for one counter (0 if never bumped).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A 16-hex-digit digest of the span tree's *structure* — depth,
    /// name, and sequence of every span in DFS order, never any
    /// duration — identical across reruns of a deterministic pipeline.
    pub fn structural_digest(&self) -> String {
        fn walk(node: &SpanNode, depth: u64, state: u64) -> u64 {
            let mut h = fnv1a64(&depth.to_le_bytes(), state);
            h = fnv1a64(node.name.as_bytes(), h);
            h = fnv1a64(&node.seq.to_le_bytes(), h);
            for child in &node.children {
                h = walk(child, depth + 1, h);
            }
            h
        }
        let mut state = FNV_BASIS;
        for root in &self.spans {
            state = walk(root, 0, state);
        }
        format!("{state:016x}")
    }

    /// Canonical JSON, rendered by [`json::render`]. Span IDs are 16-hex
    /// strings (u64 does not fit an f64 exactly); times are rounded to
    /// 3 decimals.
    pub fn to_json(&self) -> String {
        fn span(node: &SpanNode) -> Value {
            obj([
                ("id", Value::Str(format!("{:016x}", node.id))),
                ("name", Value::Str(node.name.clone())),
                ("seq", num(node.seq)),
                ("start_ms", Value::Num(json::round_to(node.start_ms, 3))),
                ("wall_ms", Value::Num(json::round_to(node.wall_ms, 3))),
                (
                    "events",
                    Value::Arr(node.events.iter().cloned().map(Value::Str).collect()),
                ),
                (
                    "children",
                    Value::Arr(node.children.iter().map(span).collect()),
                ),
            ])
        }
        fn counters(totals: &BTreeMap<String, u64>) -> Value {
            Value::Arr(
                totals
                    .iter()
                    .map(|(k, &v)| obj([("counter", Value::Str(k.clone())), ("value", num(v))]))
                    .collect(),
            )
        }
        let workers = self
            .worker_counters
            .iter()
            .map(|(&w, totals)| obj([("worker", num(w as u64)), ("counters", counters(totals))]))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                obj([
                    ("name", Value::Str(k.clone())),
                    ("count", num(h.count)),
                    ("sum_ms", Value::Num(json::round_to(h.sum_ms, 3))),
                    (
                        "buckets",
                        Value::Arr(h.buckets.iter().map(|&b| num(b)).collect()),
                    ),
                ])
            })
            .collect();
        let trace = obj([
            ("deterministic", Value::Bool(self.deterministic)),
            ("spans_total", num(self.spans_total)),
            ("events_total", num(self.events_total)),
            ("span_tree_digest", Value::Str(self.structural_digest())),
            ("spans", Value::Arr(self.spans.iter().map(span).collect())),
            ("counters", counters(&self.counters)),
            ("workers", Value::Arr(workers)),
            ("histograms", Value::Arr(histograms)),
        ]);
        json::render(&trace) + "\n"
    }

    /// The span tree as a chrome://tracing / Perfetto-compatible JSON
    /// array of complete (`"ph": "X"`) events, timestamps in µs rounded
    /// to 1 decimal.
    pub fn to_chrome_json(&self) -> String {
        fn walk(out: &mut Vec<Value>, node: &SpanNode) {
            out.push(obj([
                ("name", Value::Str(node.name.clone())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(json::round_to(node.start_ms * 1e3, 1))),
                ("dur", Value::Num(json::round_to(node.wall_ms * 1e3, 1))),
                ("pid", num(1)),
                ("tid", num(1)),
            ]));
            for child in &node.children {
                walk(out, child);
            }
        }
        let mut events = Vec::new();
        for root in &self.spans {
            walk(&mut events, root);
        }
        json::render(&Value::Arr(events)) + "\n"
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A count as a JSON number (exact below [`json::MAX_EXACT_INT`]).
fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The collector is process-global; serialize tests that enable it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_calls_record_nothing() {
        let _g = guard();
        disable();
        counter("x", 5);
        event("e");
        observe_ms("h", 1.0);
        {
            let _s = span("root");
        }
        enable(true);
        let t = drain();
        assert_eq!(t.spans_total, 0);
        assert_eq!(t.events_total, 0);
        assert!(t.counters.is_empty());
        assert!(t.histograms.is_empty());
    }

    #[test]
    fn span_ids_and_digest_are_deterministic() {
        let _g = guard();
        let run = || {
            enable(true);
            {
                let _root = span("pipeline");
                {
                    let _a = span("stage_a");
                    event("mark");
                }
                let _b = span("stage_b");
            }
            drain()
        };
        let t1 = run();
        let t2 = run();
        assert_eq!(t1, t2, "deterministic traces must be bit-identical");
        assert_eq!(t1.spans_total, 3);
        assert_eq!(t1.spans.len(), 1);
        let root = &t1.spans[0];
        assert_eq!(root.id, span_id(0, "pipeline", 0));
        assert_eq!(root.children[0].id, span_id(root.id, "stage_a", 0));
        assert_eq!(root.children[1].id, span_id(root.id, "stage_b", 1));
        assert_eq!(root.children[0].events, vec!["mark".to_string()]);
        assert_eq!(root.wall_ms, 0.0, "deterministic walls are zeroed");
        assert_eq!(t1.structural_digest().len(), 16);
        // A different structure produces a different digest.
        enable(true);
        {
            let _root = span("pipeline");
            let _a = span("stage_a");
        }
        let t3 = drain();
        assert_ne!(t1.structural_digest(), t3.structural_digest());
    }

    /// Bumps `rows` by 3 + 4 off the pool and by 1..=4 inside a parallel
    /// map, plus one zero delta, then drains.
    fn count_rows_on_and_off_the_pool() -> Trace {
        counter("rows", 3);
        counter("rows", 4);
        counter("zero", 0);
        use rayon::prelude::*;
        let per: Vec<u64> = vec![1u64, 2, 3, 4]
            .into_par_iter()
            .map(|x| {
                counter("rows", x);
                x
            })
            .collect();
        assert_eq!(per, vec![1, 2, 3, 4]);
        let t = drain();
        assert_eq!(t.counter_total("rows"), 17);
        assert_eq!(t.counter_total("zero"), 0);
        assert!(!t.counters.contains_key("zero"), "zero deltas drop out");
        t
    }

    fn worker_rows(t: &Trace) -> u64 {
        t.worker_counters
            .values()
            .filter_map(|c| c.get("rows"))
            .sum()
    }

    #[test]
    fn counters_merge_and_attribute_to_workers() {
        let _g = guard();
        enable(false);
        let t = count_rows_on_and_off_the_pool();
        if rayon::current_num_threads() > 1 {
            assert_eq!(worker_rows(&t), 10, "pool-side deltas attribute to workers");
        } else {
            assert_eq!(worker_rows(&t), 0, "single-core runs never enter the pool");
        }
    }

    #[test]
    fn deterministic_counters_merge_without_a_worker_split() {
        let _g = guard();
        enable(true);
        let t = count_rows_on_and_off_the_pool();
        // Which worker ran which chunk is not a function of the workload,
        // so deterministic windows keep merged totals only, at any width.
        assert!(t.worker_counters.is_empty(), "{:?}", t.worker_counters);
    }

    #[test]
    fn histograms_bucket_and_deterministic_mode_zeroes() {
        let _g = guard();
        enable(false);
        observe_ms("lat", 0.1);
        observe_ms("lat", 3.0);
        observe_ms("lat", 1e9);
        let t = drain();
        let h = &t.histograms["lat"];
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[4], 1); // 3.0 ms -> (2, 4]
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert!(h.sum_ms > 0.0);

        enable(true);
        observe_ms("lat", 3.0);
        let t = drain();
        let h = &t.histograms["lat"];
        assert_eq!((h.count, h.sum_ms), (1, 0.0));
        assert_eq!(h.buckets[0], 1, "deterministic observations hit bucket 0");
    }

    #[test]
    fn drain_force_closes_open_spans() {
        let _g = guard();
        enable(true);
        let s = span("never_closed");
        let t = drain();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "never_closed");
        drop(s); // guard outlives the drain; dropping it is a no-op
        assert!(!is_enabled());
    }

    #[test]
    fn json_exports_are_well_formed() {
        let _g = guard();
        enable(true);
        {
            let _root = span("pipeline");
            let _child = span("stage \"quoted\"");
            counter("c.one", 2);
            event("ev");
        }
        observe_ms("lat", 1.0);
        let t = drain();
        let json = t.to_json();
        assert!(json.contains("\"span_tree_digest\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("{ \"counter\": \"c.one\", \"value\": 2 }"));
        assert!(json.ends_with("}\n"));
        let parsed = json::parse(&json).expect("the trace export parses");
        assert_eq!(
            parsed.get("span_tree_digest").and_then(json::Value::as_str),
            Some(&*t.structural_digest())
        );
        let chrome = t.to_chrome_json();
        assert!(chrome.starts_with("[\n"));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert_eq!(chrome.matches("\"ph\"").count(), 2);
    }
}
