//! The flight recorder: a bounded in-memory ring of notable pipeline
//! moments.
//!
//! Counters answer *how often*; the flight recorder answers *in what
//! order*. Instrumentation sites push [`FlightEvent`]s — phase detections,
//! package installs, trace-store hits and evictions, replay divergences —
//! into a process-global ring buffer of `VP_FLIGHT_EVENTS` slots (default
//! 65536, `0` disables). Each event is stamped from the same monotonic
//! sequence domain as span ids ([`crate::next_seq`]), so a flight dump
//! interleaves exactly with the span tree: "the divergence happened after
//! phase 2 was detected, inside `metrics.evaluate.measure`".
//!
//! A flight event is a *moment*, bounded per run: an instrumentation site
//! fires a number of times set by the run's phases, packages, cells or
//! captures, never once per retired instruction or package switch (the
//! differ records a package's first entry, `diff.pkg_enter`, and leaves
//! switch traffic to its histograms). Traffic would evict the moments
//! that explain a run.
//!
//! Recording is gated on [`crate::enabled`] like every other primitive —
//! one predicted branch when tracing is off — and the ring holds only the
//! most recent `capacity` events (older ones are counted as `dropped`),
//! so a week-long run costs the same memory as a unit test.
//!
//! `VP_FLIGHT_EVENTS=0` disables the recorder outright rather than
//! constructing a zero-capacity ring: the ring is never allocated,
//! [`dump_on_panic`] becomes a no-op, and the manifest stamps a
//! `flight` object with `recorded: 0` so a disabled recorder is
//! distinguishable from a run that recorded nothing.
//!
//! The ring is dumped three ways: [`snapshot`] on demand, a bounded tail
//! in every `vp-manifest/2` manifest ([`crate::Manifest::stamp`]), and —
//! after [`dump_on_panic`] installs the hook — the last events to stderr
//! when the process panics, which is how a crashed sweep cell explains
//! what it was doing.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// Default ring capacity when `VP_FLIGHT_EVENTS` is unset.
pub const DEFAULT_FLIGHT_EVENTS: usize = 65536;

/// How many trailing events a panic dump prints.
const PANIC_TAIL: usize = 64;

/// One recorded moment: a kind tag plus two untyped payload words.
///
/// Payload meaning is per-kind (documented at the emitting site) — e.g.
/// `hsd.detect` carries `(branches_retired, candidate_branches)` and
/// `trace_store.hit` carries `(trace_bytes, trace_events)`. Keeping the
/// slots fixed-width keeps recording allocation-free on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic stamp shared with span ids ([`crate::next_seq`]).
    pub seq: u64,
    /// Event kind, e.g. `"hsd.detect"`.
    pub kind: String,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// The recorder's state at a point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Ring capacity (`VP_FLIGHT_EVENTS`).
    pub capacity: usize,
    /// Total events ever recorded (including dropped ones).
    pub recorded: u64,
    /// Events pushed out of the ring by newer ones.
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightSnapshot {
    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> &[FlightEvent] {
        &self.events[self.events.len().saturating_sub(n)..]
    }
}

struct Ring {
    buf: VecDeque<(u64, &'static str, u64, u64)>,
    recorded: u64,
    dropped: u64,
}

fn capacity_from_env() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("VP_FLIGHT_EVENTS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(DEFAULT_FLIGHT_EVENTS)
    })
}

/// Whether `VP_FLIGHT_EVENTS=0` turned the recorder off for this
/// process.
///
/// When disabled, recording, [`snapshot`], [`reset`], and
/// [`dump_on_panic`] all return without ever touching (or allocating)
/// the ring, and [`crate::Manifest::stamp`] emits a `flight` object
/// with `capacity`/`recorded`/`dropped` all zero.
pub fn is_disabled() -> bool {
    capacity_from_env() == 0
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: VecDeque::new(),
            recorded: 0,
            dropped: 0,
        })
    })
}

/// Records one flight event; a no-op single branch when tracing is
/// disabled.
#[inline]
pub fn flight(kind: &'static str, a: u64, b: u64) {
    if crate::enabled() {
        record(kind, a, b);
    }
}

#[cold]
fn record(kind: &'static str, a: u64, b: u64) {
    let cap = capacity_from_env();
    if cap == 0 {
        return;
    }
    let seq = crate::next_seq();
    {
        let mut r = ring().lock().expect("flight ring");
        if r.buf.len() >= cap {
            r.buf.pop_front();
            r.dropped += 1;
        }
        r.buf.push_back((seq, kind, a, b));
        r.recorded += 1;
    }
    crate::scope_flight(cap, seq, kind, a, b);
}

/// The recorder's current contents, oldest event first.
pub fn snapshot() -> FlightSnapshot {
    if is_disabled() {
        return FlightSnapshot::default();
    }
    let r = ring().lock().expect("flight ring");
    FlightSnapshot {
        capacity: capacity_from_env(),
        recorded: r.recorded,
        dropped: r.dropped,
        events: r
            .buf
            .iter()
            .map(|&(seq, kind, a, b)| FlightEvent {
                seq,
                kind: kind.to_string(),
                a,
                b,
            })
            .collect(),
    }
}

/// Empties the ring and zeroes its totals (part of [`crate::reset`]).
pub fn reset() {
    if is_disabled() {
        return;
    }
    let mut r = ring().lock().expect("flight ring");
    r.buf.clear();
    r.recorded = 0;
    r.dropped = 0;
}

/// Installs a panic hook (once) that prints the flight recorder's last
/// events to stderr before the default handler runs, so a crashed run
/// leaves its black box behind. A no-op when `VP_FLIGHT_EVENTS=0`
/// disabled the recorder — the default panic handler is left alone.
pub fn dump_on_panic() {
    if is_disabled() {
        return;
    }
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let snap = snapshot();
            if !snap.events.is_empty() {
                eprintln!(
                    "== vp-trace flight recorder ({} recorded, {} dropped; last {}) ==",
                    snap.recorded,
                    snap.dropped,
                    snap.tail(PANIC_TAIL).len()
                );
                for e in snap.tail(PANIC_TAIL) {
                    eprintln!("  #{:<10} {:<24} a={} b={}", e.seq, e.kind, e.a, e.b);
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Assertions go through the thread-local scope report, not the
    // process-global ring — parallel tests share the ring and the
    // enabled() gate, so global counts are not deterministic here.

    #[test]
    fn flight_records_in_order_with_seq_stamps() {
        let ((), report) = crate::scoped(|| {
            flight("test.flight.a", 1, 10);
            flight("test.flight.b", 2, 20);
        });
        assert_eq!(report.flights.len(), 2);
        assert_eq!(report.flights[0].kind, "test.flight.a");
        assert_eq!(report.flights[1].kind, "test.flight.b");
        assert!(report.flights[0].seq < report.flights[1].seq);
        assert_eq!(report.flights[1].a, 2);
        assert_eq!(report.flights[1].b, 20);
        assert_eq!(report.flight_count("test.flight.a"), 1);
        assert_eq!(report.flight_count("test.flight.nope"), 0);
    }

    #[test]
    fn flight_events_reach_the_global_ring() {
        let ((), report) = crate::scoped(|| {
            flight("test.flight.ring", 7, 8);
        });
        let mine = report.flights.last().expect("recorded in scope");
        let snap = snapshot();
        let found = snap
            .events
            .iter()
            .find(|e| e.seq == mine.seq)
            .expect("event visible in the global ring");
        assert_eq!(found, mine);
        assert!(snap.recorded >= 1);
        assert!(snap.capacity > 0);
    }

    #[test]
    fn snapshot_tail_returns_newest_events() {
        let snap = FlightSnapshot {
            capacity: 4,
            recorded: 3,
            dropped: 0,
            events: vec![
                FlightEvent {
                    seq: 1,
                    kind: "a".into(),
                    a: 0,
                    b: 0,
                },
                FlightEvent {
                    seq: 2,
                    kind: "b".into(),
                    a: 0,
                    b: 0,
                },
                FlightEvent {
                    seq: 3,
                    kind: "c".into(),
                    a: 0,
                    b: 0,
                },
            ],
        };
        assert_eq!(snap.tail(2).len(), 2);
        assert_eq!(snap.tail(2)[0].kind, "b");
        assert_eq!(snap.tail(10).len(), 3);
        assert_eq!(snap.tail(0).len(), 0);
    }
}
