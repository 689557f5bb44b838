//! A scope's copy of the flight events is bounded like the global ring:
//! at most `VP_FLIGHT_EVENTS` events, the newest ones, with the rest
//! counted as dropped. Without the cap a long-running scope (one sweep
//! cell) would hold every event it ever saw.
//!
//! Lives in its own integration-test binary because the capacity knob is
//! read once per process; a single test function keeps the `set_var`
//! before any other thread can race the first read.

#[test]
fn scope_never_holds_more_than_the_recorder_capacity() {
    std::env::set_var("VP_FLIGHT_EVENTS", "8");

    let (inner, outer) = vp_trace::scoped(|| {
        for i in 0..5 {
            vp_trace::flight("test.cap.outer", i, 0);
        }
        let ((), inner) = vp_trace::scoped(|| {
            for i in 0..20 {
                vp_trace::flight("test.cap.inner", i, 1);
            }
        });
        inner
    });

    // The inner scope saw 20 events: it keeps the newest 8.
    assert_eq!(inner.flights.len(), 8);
    assert_eq!(inner.flights_dropped, 12);
    let kept: Vec<u64> = inner.flights.iter().map(|e| e.a).collect();
    assert_eq!(
        kept,
        (12..20).collect::<Vec<u64>>(),
        "newest events, in order"
    );
    assert!(inner.flights.windows(2).all(|w| w[0].seq < w[1].seq));

    // The outer scope saw all 25 and is capped the same way.
    assert_eq!(outer.flights.len(), 8);
    assert_eq!(outer.flights_dropped, 17);
    assert_eq!(outer.flight_count("test.cap.outer"), 0, "pushed out");

    // The global ring drops by the same rule.
    let snap = vp_trace::flight::snapshot();
    assert_eq!(snap.capacity, 8);
    assert_eq!(snap.events.len(), 8);
    assert!(snap.dropped >= 17);
}
