//! `vp-trace`: zero-dependency structured tracing for the vacuum-packing
//! pipeline.
//!
//! Four primitives:
//!
//! * [`span`] — RAII stage timers; drop records wall time;
//! * [`Counter`] — named monotonic counters, cheap enough for hot loops;
//! * [`Histogram`] — named log-bucketed value distributions;
//! * [`event`] — typed one-shot events with key/value fields.
//!
//! Tracing is **off by default**: every instrumentation site is guarded by
//! [`enabled`], a single relaxed load of an atomic, so instrumented hot
//! loops cost one predictable branch when nothing is listening.
//!
//! Output goes to a pluggable [`sink::TraceSink`] selected via the
//! `VP_TRACE` environment variable (`summary`, `json`, or `json:<path>`),
//! or installed programmatically with [`install`]. Tests use [`scoped`],
//! which enables tracing on the current thread's behalf and returns every
//! counter increment, span, and event the closure produced — deterministic
//! even under `cargo test`'s thread pool, because collection is
//! thread-local.
//!
//! Run manifests (config + stage times + counters + result tables) are
//! built with [`manifest::Manifest`] and emitted as single JSONL objects.

pub mod flight;
pub mod json;
pub mod manifest;
pub mod sink;

pub use flight::{flight, FlightEvent, FlightSnapshot, DEFAULT_FLIGHT_EVENTS};
pub use json::Json;
pub use manifest::{parse_manifest_line, Manifest};
pub use sink::{JsonlSink, MemorySink, SummarySink, TraceSink};

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One trace record, as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed span: total wall time in nanoseconds.
    Span {
        /// Stage name, e.g. `"profile.run"`.
        name: String,
        /// Elapsed wall time in nanoseconds.
        nanos: u64,
        /// Span id from the shared sequence domain ([`next_seq`]), assigned
        /// when the span *opened* — ids order span starts, not completions.
        id: u64,
        /// Id of the enclosing span (`0` for a root span), making the span
        /// stream reconstructible as a tree.
        parent: u64,
    },
    /// A flight-recorder dump, flushed by [`finish`] when the ring is
    /// nonempty.
    Flight {
        /// The retained events, oldest first.
        events: Vec<FlightEvent>,
    },
    /// A counter total, flushed by [`finish`].
    Count {
        /// Counter name, e.g. `"hsd.detections"`.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// A typed event with fields.
    Event {
        /// Event name, e.g. `"core.pkg.inline"`.
        name: String,
        /// Ordered key/value fields.
        fields: Vec<(String, Value)>,
    },
    /// A histogram total, flushed by [`finish`].
    Hist {
        /// Histogram name, e.g. `"diff.package_residency"`.
        name: String,
        /// The accumulated distribution.
        hist: HistSnapshot,
    },
}

/// A field value attached to an [`Record::Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Count of reasons tracing is on: an installed sink plus any live
/// [`scoped`] regions. Zero means every instrumentation site is a single
/// predicted-not-taken branch.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The shared monotonic sequence domain: span ids and flight-recorder
/// stamps are drawn from one process-global counter, so spans and flight
/// events interleave into a single total order.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Draws the next sequence number (ids start at 1; `0` means "none").
#[inline]
pub fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

/// The highest sequence number issued so far — the `seq` ceiling stamped
/// into `vp-manifest/2` manifests, bounding every id a run's records can
/// reference.
pub fn seq_ceiling() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// Whether any instrumentation consumer is active.
///
/// This is the mandated fast path: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, &'static AtomicU64>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static AtomicU64>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn hist_registry() -> &'static Mutex<BTreeMap<&'static str, &'static HistCell>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static HistCell>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn span_totals() -> &'static Mutex<BTreeMap<String, (u64, u64)>> {
    static TOTALS: OnceLock<Mutex<BTreeMap<String, (u64, u64)>>> = OnceLock::new();
    TOTALS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Aggregated span wall times keyed by *path* (`"a/b/c"`), the
/// hierarchical counterpart of [`span_totals`].
fn span_tree_totals() -> &'static Mutex<BTreeMap<String, (u64, u64)>> {
    static TOTALS: OnceLock<Mutex<BTreeMap<String, (u64, u64)>>> = OnceLock::new();
    TOTALS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// Live spans on this thread, innermost last: `(id, path)`.
    static SPAN_STACK: RefCell<Vec<(u64, String)>> = const { RefCell::new(Vec::new()) };
}

fn sink_slot() -> &'static Mutex<Option<Arc<dyn TraceSink>>> {
    static SINK: OnceLock<Mutex<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn current_sink() -> Option<Arc<dyn TraceSink>> {
    sink_slot().lock().expect("trace sink").clone()
}

#[derive(Debug, Default)]
struct ScopeState {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistAccum>,
    spans: Vec<(String, u64)>,
    events: Vec<(String, Vec<(String, Value)>)>,
    /// The newest flight events, at most the recorder's capacity.
    flights: VecDeque<(u64, &'static str, u64, u64)>,
    flights_dropped: u64,
}

thread_local! {
    static SCOPES: RefCell<Vec<ScopeState>> = const { RefCell::new(Vec::new()) };
}

/// A named monotonic counter.
///
/// Declare as a `static`, bump with [`Counter::add`] / [`Counter::incr`].
/// The first increment registers the counter in a global registry; totals
/// are read via [`counters_snapshot`] and flushed to the sink by
/// [`finish`]. Increments made inside a [`scoped`] region on the same
/// thread are additionally captured in that scope's [`TraceReport`].
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// Creates a counter; `const`, so it works in `static` position.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`; a no-op single branch when tracing is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.record(n);
        }
    }

    /// Adds one; a no-op single branch when tracing is disabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    #[cold]
    fn record(&self, n: u64) {
        let cell = self.cell.get_or_init(|| {
            let mut reg = registry().lock().expect("trace registry");
            reg.entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))))
        });
        cell.fetch_add(n, Ordering::Relaxed);
        SCOPES.with(|s| {
            for scope in s.borrow_mut().iter_mut() {
                *scope.counters.entry(self.name).or_insert(0) += n;
            }
        });
    }
}

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds the value 0,
/// bucket `i` (for `i >= 1`) holds values in `[2^(i-1), 2^i)`.
const HIST_BUCKETS: usize = 65;

/// The bucket a value falls into.
#[inline]
fn hist_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
fn hist_bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
        // Sums saturate: huge observations (u64::MAX sentinels) must not
        // wrap the total.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((hist_bucket_lo(i), n));
            }
        }
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Thread-local histogram accumulation inside a [`scoped`] region.
#[derive(Debug)]
struct HistAccum {
    buckets: [u64; HIST_BUCKETS],
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistAccum {
    fn default() -> HistAccum {
        HistAccum {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistAccum {
    fn observe(&mut self, v: u64) {
        self.buckets[hist_bucket(v)] += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                count += n;
                buckets.push((hist_bucket_lo(i), n));
            }
        }
        HistSnapshot {
            count,
            sum: self.sum,
            min: if count == 0 { 0 } else { self.min },
            max: self.max,
            buckets,
        }
    }
}

/// An immutable view of a histogram's accumulated distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    /// Bucket bounds are powers of two (bucket 0 holds only the value 0).
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// containing the `ceil(q * count)`-th observation. Bucketing makes this
    /// exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(lo, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lo;
            }
        }
        self.max
    }

    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        for &(lo, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&lo, |&(l, _)| l) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (lo, n)),
            }
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// A named log-bucketed histogram of `u64` observations.
///
/// Declare as a `static`, record with [`Histogram::observe`]. Like
/// [`Counter`], observation is a single predicted branch when tracing is
/// disabled, the first observation registers the histogram globally, and
/// observations made inside a [`scoped`] region on the same thread are
/// additionally captured in that scope's [`TraceReport`]. Buckets are
/// powers of two, so the 65 fixed buckets cover the full `u64` range.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistCell>,
}

impl Histogram {
    /// Creates a histogram; `const`, so it works in `static` position.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation; a no-op single branch when tracing is
    /// disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if enabled() {
            self.record(v);
        }
    }

    #[cold]
    fn record(&self, v: u64) {
        let cell = self.cell.get_or_init(|| {
            let mut reg = hist_registry().lock().expect("trace hist registry");
            reg.entry(self.name)
                .or_insert_with(|| Box::leak(Box::new(HistCell::new())))
        });
        cell.observe(v);
        SCOPES.with(|s| {
            for scope in s.borrow_mut().iter_mut() {
                scope.hists.entry(self.name).or_default().observe(v);
            }
        });
    }
}

/// An RAII stage timer; created by [`span`] or [`span_in`], records on
/// drop.
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: String,
    path: String,
    id: u64,
    parent: u64,
    start: Instant,
}

/// A span's identity, capturable on one thread and adoptable on another.
///
/// Spans nest through a thread-local stack, so work handed to a worker
/// thread would otherwise start a new root. Capture
/// [`current_span_context`] on the dispatching thread and open the
/// worker's outermost span with [`span_in`] to keep the tree connected —
/// this is how the bench sweep's per-cell spans hang off
/// `bench.sweep_cells`.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    id: u64,
    path: String,
}

/// The innermost live span on this thread (the root context when none).
pub fn current_span_context() -> SpanContext {
    SPAN_STACK.with(|s| {
        s.borrow()
            .last()
            .map_or_else(SpanContext::default, |(id, path)| SpanContext {
                id: *id,
                path: path.clone(),
            })
    })
}

/// Starts a stage timer named `name`, nested under this thread's
/// innermost live span.
///
/// When tracing is disabled this neither allocates nor reads the clock.
#[inline]
pub fn span(name: &str) -> Span {
    if enabled() {
        span_slow(name, None)
    } else {
        Span { live: None }
    }
}

/// Starts a stage timer parented under an explicit [`SpanContext`]
/// instead of this thread's stack — the cross-thread form of [`span`].
#[inline]
pub fn span_in(ctx: &SpanContext, name: &str) -> Span {
    if enabled() {
        span_slow(name, Some(ctx))
    } else {
        Span { live: None }
    }
}

#[cold]
fn span_slow(name: &str, ctx: Option<&SpanContext>) -> Span {
    let id = next_seq();
    let (parent, path) = match ctx {
        Some(c) if c.id != 0 => (c.id, format!("{}/{name}", c.path)),
        _ => SPAN_STACK.with(|s| {
            s.borrow().last().map_or_else(
                || (0, name.to_string()),
                |(pid, ppath)| (*pid, format!("{ppath}/{name}")),
            )
        }),
    };
    SPAN_STACK.with(|s| s.borrow_mut().push((id, path.clone())));
    Span {
        live: Some(LiveSpan {
            name: name.to_string(),
            path,
            id,
            parent,
            start: Instant::now(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let nanos = live.start.elapsed().as_nanos() as u64;
            // Unwind this span (and any children leaked past it) from the
            // thread's stack.
            SPAN_STACK.with(|s| {
                let mut st = s.borrow_mut();
                if let Some(i) = st.iter().rposition(|(id, _)| *id == live.id) {
                    st.truncate(i);
                }
            });
            {
                let mut totals = span_totals().lock().expect("trace span totals");
                let e = totals.entry(live.name.clone()).or_insert((0, 0));
                e.0 += 1;
                e.1 += nanos;
            }
            {
                let mut tree = span_tree_totals().lock().expect("trace span tree");
                let e = tree.entry(live.path).or_insert((0, 0));
                e.0 += 1;
                e.1 += nanos;
            }
            SCOPES.with(|s| {
                for scope in s.borrow_mut().iter_mut() {
                    scope.spans.push((live.name.clone(), nanos));
                }
            });
            if let Some(sink) = current_sink() {
                sink.record(&Record::Span {
                    name: live.name,
                    nanos,
                    id: live.id,
                    parent: live.parent,
                });
            }
        }
    }
}

/// One aggregated node of the span tree, addressed by its `/`-joined path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Full path from the root, e.g. `"bench.sweep_cells/bench.cell"`.
    pub path: String,
    /// The leaf stage name.
    pub name: String,
    /// Nesting depth (root = 0).
    pub depth: usize,
    /// Completions at this path.
    pub count: u64,
    /// Total wall nanoseconds at this path (includes children).
    pub nanos: u64,
}

/// The aggregated span tree, sorted so each subtree is contiguous —
/// the self-profile behind the `report` binary's per-stage cost
/// breakdown.
pub fn tree_snapshot() -> Vec<SpanNode> {
    span_tree_totals()
        .lock()
        .expect("trace span tree")
        .iter()
        .map(|(path, &(count, nanos))| SpanNode {
            name: path.rsplit('/').next().unwrap_or(path).to_string(),
            depth: path.matches('/').count(),
            path: path.clone(),
            count,
            nanos,
        })
        .collect()
}

/// Renders the span tree as an indented text table (name, calls, total
/// ms), one line per [`SpanNode`].
pub fn render_span_tree(nodes: &[SpanNode]) -> String {
    let mut out = String::new();
    for n in nodes {
        out.push_str(&format!(
            "{:<52} {:>8} x {:>12.3} ms\n",
            format!("{}{}", "  ".repeat(n.depth), n.name),
            n.count,
            n.nanos as f64 / 1e6
        ));
    }
    out
}

/// Emits a typed event with fields; a no-op branch when tracing is off.
#[inline]
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if enabled() {
        event_slow(name, fields);
    }
}

#[cold]
fn event_slow(name: &str, fields: &[(&str, Value)]) {
    let owned: Vec<(String, Value)> = fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    SCOPES.with(|s| {
        for scope in s.borrow_mut().iter_mut() {
            scope.events.push((name.to_string(), owned.clone()));
        }
    });
    if let Some(sink) = current_sink() {
        sink.record(&Record::Event {
            name: name.to_string(),
            fields: owned,
        });
    }
}

/// Mirrors a flight-recorder event into this thread's open scopes, so
/// tests can assert on flight activity via [`TraceReport::flights`]
/// without racing other threads on the global ring. Like the ring, each
/// scope keeps only the newest `capacity` events and counts the rest as
/// dropped.
pub(crate) fn scope_flight(capacity: usize, seq: u64, kind: &'static str, a: u64, b: u64) {
    SCOPES.with(|s| {
        for scope in s.borrow_mut().iter_mut() {
            if scope.flights.len() >= capacity {
                scope.flights.pop_front();
                scope.flights_dropped += 1;
            }
            scope.flights.push_back((seq, kind, a, b));
        }
    });
}

/// Everything a [`scoped`] closure produced on its thread.
#[derive(Debug, Default, Clone)]
pub struct TraceReport {
    /// Counter deltas, by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram observations made inside the scope, by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Spans in completion order: `(name, nanos)`.
    pub spans: Vec<(String, u64)>,
    /// Events in emission order.
    pub events: Vec<(String, Vec<(String, Value)>)>,
    /// Flight-recorder events emitted inside the scope, in order: the
    /// newest ones, at most the recorder's capacity (`VP_FLIGHT_EVENTS`).
    pub flights: Vec<FlightEvent>,
    /// Flight events of the scope pushed out by newer ones.
    pub flights_dropped: u64,
}

impl TraceReport {
    /// The delta of `name` inside the scope (0 if it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The scope-local distribution of histogram `name` (empty snapshot if
    /// it never observed).
    pub fn histogram(&self, name: &str) -> HistSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// How many events named `name` fired inside the scope.
    pub fn event_count(&self, name: &str) -> usize {
        self.events.iter().filter(|(n, _)| n == name).count()
    }

    /// Whether a span named `name` completed inside the scope.
    pub fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|(n, _)| n == name)
    }

    /// How many flight events of `kind` fired inside the scope.
    pub fn flight_count(&self, kind: &str) -> usize {
        self.flights.iter().filter(|e| e.kind == kind).count()
    }
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs `f` with tracing enabled and collects everything it recorded on
/// this thread.
///
/// Counter increments, spans, and events from other threads are *not*
/// captured (they still reach the global registry/sink), which keeps
/// reports deterministic under `cargo test`'s parallel runner.
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, TraceReport) {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let _guard = ScopeGuard;
    SCOPES.with(|s| s.borrow_mut().push(ScopeState::default()));
    // If `f` panics, pop the scope during unwinding so a worker thread that
    // catches the panic (the sweep's per-cell isolation) doesn't leak a
    // stale scope that swallows later cells' records.
    struct PopOnPanic;
    impl Drop for PopOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                SCOPES.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
    }
    let pop = PopOnPanic;
    let out = f();
    std::mem::forget(pop);
    let state = SCOPES.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    let report = TraceReport {
        counters: state
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        histograms: state
            .hists
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect(),
        spans: state.spans,
        events: state.events,
        flights: state
            .flights
            .into_iter()
            .map(|(seq, kind, a, b)| FlightEvent {
                seq,
                kind: kind.to_string(),
                a,
                b,
            })
            .collect(),
        flights_dropped: state.flights_dropped,
    };
    (out, report)
}

/// Installs `sink` as the global trace destination and enables tracing.
///
/// Replacing an existing sink keeps tracing enabled; installing over
/// `None` turns it on.
pub fn install(sink: Arc<dyn TraceSink>) {
    let mut slot = sink_slot().lock().expect("trace sink");
    if slot.is_none() {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
    *slot = Some(sink);
}

/// Whether a global sink is installed.
pub fn installed() -> bool {
    sink_slot().lock().expect("trace sink").is_some()
}

/// Installs a sink according to `VP_TRACE`.
///
/// * `summary` — aggregate table printed to stderr at [`finish`];
/// * `json` — JSONL records to stderr;
/// * `json:<path>` — JSONL records appended to `<path>`;
/// * unset / empty / `0` / `off` — tracing stays disabled.
///
/// Returns `true` if a sink was installed.
pub fn init_from_env() -> bool {
    match std::env::var("VP_TRACE") {
        Ok(v) => init_from_spec(&v),
        Err(_) => false,
    }
}

/// Installs a sink from a `VP_TRACE`-style spec string. See
/// [`init_from_env`].
pub fn init_from_spec(spec: &str) -> bool {
    let spec = spec.trim();
    match spec {
        "" | "0" | "off" | "none" => false,
        "summary" => {
            install(Arc::new(SummarySink::new()));
            true
        }
        "json" => {
            install(Arc::new(JsonlSink::stderr()));
            true
        }
        _ => {
            if let Some(path) = spec.strip_prefix("json:") {
                match JsonlSink::file(path) {
                    Ok(s) => install(Arc::new(s)),
                    Err(e) => {
                        eprintln!("vp-trace: cannot open {path}: {e}; falling back to stderr");
                        install(Arc::new(JsonlSink::stderr()));
                    }
                }
                true
            } else {
                eprintln!("vp-trace: unknown VP_TRACE value {spec:?}; tracing disabled");
                false
            }
        }
    }
}

/// A snapshot of every registered counter's current total.
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    registry()
        .lock()
        .expect("trace registry")
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
        .collect()
}

/// A snapshot of every registered histogram's accumulated distribution.
pub fn histograms_snapshot() -> BTreeMap<String, HistSnapshot> {
    hist_registry()
        .lock()
        .expect("trace hist registry")
        .iter()
        .map(|(name, cell)| (name.to_string(), cell.snapshot()))
        .collect()
}

/// A snapshot of aggregated span wall times: name → `(count, total nanos)`.
pub fn spans_snapshot() -> BTreeMap<String, (u64, u64)> {
    span_totals().lock().expect("trace span totals").clone()
}

/// Zeroes all counters and histograms, clears span aggregates (flat and
/// tree), and empties the flight-recorder ring.
pub fn reset() {
    for cell in registry().lock().expect("trace registry").values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in hist_registry()
        .lock()
        .expect("trace hist registry")
        .values()
    {
        cell.reset();
    }
    span_totals().lock().expect("trace span totals").clear();
    span_tree_totals().lock().expect("trace span tree").clear();
    flight::reset();
}

/// Sends a serialized manifest line to the installed sink (if any).
pub fn emit_manifest(json: &str) {
    if let Some(sink) = current_sink() {
        sink.manifest(json);
    }
}

/// Flushes counter totals to the sink, flushes the sink, and uninstalls
/// it (disabling tracing unless scopes are still live).
pub fn finish() {
    let sink = {
        let mut slot = sink_slot().lock().expect("trace sink");
        let taken = slot.take();
        if taken.is_some() {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
        taken
    };
    if let Some(sink) = sink {
        for (name, value) in counters_snapshot() {
            if value > 0 {
                sink.record(&Record::Count { name, value });
            }
        }
        for (name, hist) in histograms_snapshot() {
            if hist.count > 0 {
                sink.record(&Record::Hist { name, hist });
            }
        }
        let flights = flight::snapshot();
        if !flights.events.is_empty() {
            sink.record(&Record::Flight {
                events: flights.events,
            });
        }
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER_A: Counter = Counter::new("test.lib.a");
    static TEST_COUNTER_B: Counter = Counter::new("test.lib.b");

    #[test]
    fn disabled_counter_does_not_count() {
        // No sink, no scope on this thread: increments are dropped.
        TEST_COUNTER_B.add(5);
        let ((), report) = scoped(|| {});
        assert_eq!(report.counter("test.lib.b"), 0);
    }

    #[test]
    fn scoped_captures_counters_spans_events() {
        let (val, report) = scoped(|| {
            let _s = span("test.stage");
            TEST_COUNTER_A.add(3);
            TEST_COUNTER_A.incr();
            event(
                "test.ev",
                &[("k", Value::from(7u64)), ("s", Value::from("x"))],
            );
            42
        });
        assert_eq!(val, 42);
        assert_eq!(report.counter("test.lib.a"), 4);
        assert!(report.has_span("test.stage"));
        assert_eq!(report.event_count("test.ev"), 1);
        assert_eq!(report.events[0].1[0], ("k".to_string(), Value::U64(7)));
    }

    #[test]
    fn nested_scopes_both_observe() {
        let ((), outer) = scoped(|| {
            TEST_COUNTER_A.incr();
            let ((), inner) = scoped(|| {
                TEST_COUNTER_A.add(2);
            });
            assert_eq!(inner.counter("test.lib.a"), 2);
        });
        assert_eq!(outer.counter("test.lib.a"), 3);
    }

    static TEST_HIST: Histogram = Histogram::new("test.lib.h");

    #[test]
    fn scoped_captures_histograms() {
        let ((), report) = scoped(|| {
            TEST_HIST.observe(0);
            TEST_HIST.observe(1);
            TEST_HIST.observe(5);
            TEST_HIST.observe(5);
            TEST_HIST.observe(1000);
        });
        let h = report.histogram("test.lib.h");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1011);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0 → bucket lo 0; 1 → lo 1; 5,5 → lo 4; 1000 → lo 512.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (4, 2), (512, 1)]);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 512);
        assert!((h.mean() - 202.2).abs() < 1e-9);
        // The global registry saw the same observations.
        let g = histograms_snapshot();
        assert!(g.get("test.lib.h").is_some_and(|h| h.count >= 5));
    }

    #[test]
    fn hist_snapshot_merge_combines_buckets() {
        let mut a = HistSnapshot {
            count: 2,
            sum: 6,
            min: 2,
            max: 4,
            buckets: vec![(2, 1), (4, 1)],
        };
        let b = HistSnapshot {
            count: 3,
            sum: 13,
            min: 1,
            max: 8,
            buckets: vec![(1, 1), (4, 1), (8, 1)],
        };
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 19);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 8);
        assert_eq!(a.buckets, vec![(1, 1), (2, 1), (4, 2), (8, 1)]);
        a.merge(&HistSnapshot::default());
        assert_eq!(a.count, 5);
    }

    #[test]
    fn disabled_histogram_does_not_observe() {
        TEST_HIST.observe(7);
        let ((), report) = scoped(|| {});
        assert_eq!(report.histogram("test.lib.h").count, 0);
    }

    #[test]
    fn init_from_spec_rejects_unknown_and_off() {
        assert!(!init_from_spec(""));
        assert!(!init_from_spec("off"));
        assert!(!init_from_spec("0"));
        assert!(!init_from_spec("definitely-not-a-mode"));
    }

    #[test]
    fn spans_nest_hierarchically_on_one_thread() {
        let ((), _report) = scoped(|| {
            assert_eq!(current_span_context().id, 0, "fresh thread starts at root");
            let outer = span("test.tree.outer");
            let octx = current_span_context();
            assert!(octx.id > 0);
            assert_eq!(octx.path, "test.tree.outer");
            {
                let _inner = span("test.tree.inner");
                let ictx = current_span_context();
                assert!(ictx.id > octx.id, "ids are monotonic in open order");
                assert_eq!(ictx.path, "test.tree.outer/test.tree.inner");
            }
            assert_eq!(
                current_span_context().id,
                octx.id,
                "inner drop restores the parent"
            );
            drop(outer);
            assert_eq!(current_span_context().id, 0, "outer drop empties the stack");
        });
        // The aggregated tree keys by full path; unique names keep this
        // assertion race-free under the parallel test runner.
        let nodes = tree_snapshot();
        let inner = nodes
            .iter()
            .find(|n| n.path == "test.tree.outer/test.tree.inner")
            .expect("inner path aggregated");
        assert_eq!(inner.name, "test.tree.inner");
        assert_eq!(inner.depth, 1);
        assert!(inner.count >= 1);
        let outer = nodes
            .iter()
            .find(|n| n.path == "test.tree.outer")
            .expect("outer path aggregated");
        assert_eq!(outer.depth, 0);
        assert!(
            outer.nanos >= inner.nanos,
            "parent time includes child time"
        );
    }

    #[test]
    fn span_in_adopts_a_cross_thread_parent() {
        let ((), _report) = scoped(|| {
            let _root = span("test.adopt.root");
            let ctx = current_span_context();
            std::thread::spawn(move || {
                // enabled() is process-global, so the worker records while
                // the dispatching scope is live — this is the sweep's
                // dispatcher/worker shape.
                let _cell = span_in(&ctx, "test.adopt.cell");
            })
            .join()
            .unwrap();
        });
        assert!(
            tree_snapshot()
                .iter()
                .any(|n| n.path == "test.adopt.root/test.adopt.cell" && n.depth == 1),
            "worker span hangs off the dispatcher's context"
        );
    }

    #[test]
    fn render_span_tree_indents_by_depth() {
        let nodes = vec![
            SpanNode {
                path: "a".into(),
                name: "a".into(),
                depth: 0,
                count: 1,
                nanos: 2_000_000,
            },
            SpanNode {
                path: "a/b".into(),
                name: "b".into(),
                depth: 1,
                count: 3,
                nanos: 1_000_000,
            },
        ];
        let text = render_span_tree(&nodes);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("  b "));
        assert!(lines[1].contains("3 x"));
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = HistSnapshot::default();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);
        assert_eq!(empty.max, 0);

        // Single bucket: every quantile collapses to its lower bound.
        let single = HistSnapshot {
            count: 4,
            sum: 20,
            min: 4,
            max: 7,
            buckets: vec![(4, 4)],
        };
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 4, "q={q}");
        }

        // Saturating top bucket: u64::MAX lands in the 2^63 bucket.
        static SAT: Histogram = Histogram::new("test.lib.h.sat");
        let ((), report) = scoped(|| {
            SAT.observe(u64::MAX);
            SAT.observe(u64::MAX - 1);
            SAT.observe(1);
        });
        let h = report.histogram("test.lib.h.sat");
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.min, 1);
        assert_eq!(h.quantile(1.0), 1u64 << 63);
        assert_eq!(h.quantile(0.1), 1);
        // The sum saturates rather than wrapping.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn next_seq_is_strictly_monotonic() {
        let a = next_seq();
        let b = next_seq();
        assert!(b > a);
        assert!(seq_ceiling() >= b);
    }
}
