//! A minimal wall-clock benchmark harness for the `benches/` targets.
//!
//! Replaces an external benchmarking crate so the workspace builds with no
//! registry access. Each benchmark is calibrated to a target sample time,
//! run for several samples, and reported as the *best* sample (least noise
//! from scheduling), matching the usual micro-benchmark convention.
//!
//! Knobs:
//!
//! * `VP_BENCH_MS` — target milliseconds per sample (default 100);
//! * `VP_BENCH_SAMPLES` — samples per benchmark (default 5);
//! * a single free CLI argument filters benchmarks by substring (the
//!   `--bench`/`--test` flags cargo passes are ignored).
//!
//! When tracing is on (`VP_TRACE`), every result is also recorded as a
//! `bench.result` event and the whole run can be stamped into a manifest
//! via [`Runner::finish`].

use std::hint::black_box;
use std::time::{Duration, Instant};
use vp_trace::{Manifest, Value};

/// Fewest rounds [`Runner::bench_paired`] runs, so its median ratio is
/// never one round's.
const MIN_PAIRED_ROUNDS: u64 = 5;

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sample (rounds, for a [`Runner::bench_paired`] row).
    pub iters: u64,
    /// Best (minimum) nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
    /// Elements per iteration for throughput reporting, if declared.
    pub elems: Option<u64>,
}

/// Collects and reports benchmark measurements; create with [`runner`].
#[derive(Debug)]
pub struct Runner {
    target: Duration,
    samples: u32,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

/// Creates a [`Runner`] configured from the environment and CLI arguments.
pub fn runner() -> Runner {
    vp_trace::init_from_env();
    let ms = std::env::var("VP_BENCH_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100u64);
    let samples = std::env::var("VP_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5u32);
    // Cargo invokes bench targets with `--bench`; any other free argument
    // is a name filter.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    Runner {
        target: Duration::from_millis(ms.max(1)),
        samples: samples.max(1),
        filter,
        results: Vec::new(),
    }
}

impl Runner {
    /// Measures `f`, reporting nanoseconds per iteration.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.run(name, None, f);
    }

    /// Measures `f`, additionally reporting `elems`-per-second throughput.
    pub fn bench_throughput<T>(&mut self, name: &str, elems: u64, f: impl FnMut() -> T) {
        self.run(name, Some(elems), f);
    }

    /// Measures two throughput rows interleaved, for a ratio between them
    /// that host load cannot skew: each round times one call of `a`, then
    /// one of `b`, so a load spike lands on both rows of the rounds it
    /// spans. Row `a` reports its best round; row `b` reports row `a`
    /// scaled by the median over rounds of `b`'s time over `a`'s, so the
    /// two rows' ratio is the paired median. Runs when either name passes
    /// the filter.
    pub fn bench_paired<A, B>(
        &mut self,
        (name_a, elems_a, mut fa): (&str, u64, impl FnMut() -> A),
        (name_b, elems_b, mut fb): (&str, u64, impl FnMut() -> B),
    ) {
        if !self.selects(name_a) && !self.selects(name_b) {
            return;
        }
        let mut round = || {
            let t = Instant::now();
            black_box(fa());
            let ta = t.elapsed().as_nanos().max(1) as f64;
            let t = Instant::now();
            black_box(fb());
            (ta, t.elapsed().as_nanos().max(1) as f64)
        };
        let (ta, tb) = round();
        let per_round = (self.target.as_nanos() as f64 / (ta + tb)).ceil() as u64;
        let rounds = (u64::from(self.samples) * per_round).max(MIN_PAIRED_ROUNDS);
        let (mut best_a, mut ratios) = (f64::INFINITY, Vec::new());
        for _ in 0..rounds {
            let (ta, tb) = round();
            best_a = best_a.min(ta);
            ratios.push(tb / ta);
        }
        ratios.sort_by(f64::total_cmp);
        let ratio = ratios[ratios.len() / 2];
        self.record(name_a, Some(elems_a), best_a, rounds, "paired rounds");
        self.record(
            name_b,
            Some(elems_b),
            best_a * ratio,
            rounds,
            "paired rounds",
        );
    }

    fn selects(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|pat| name.contains(pat.as_str()))
    }

    fn run<T>(&mut self, name: &str, elems: Option<u64>, mut f: impl FnMut() -> T) {
        if !self.selects(name) {
            return;
        }
        // Calibrate: double the iteration count until one batch fills a
        // quarter of the target, then size batches to the target.
        let mut iters = 1u64;
        let per_iter = loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= self.target / 4 || iters >= 1 << 30 {
                break elapsed.as_nanos().max(1) as f64 / iters as f64;
            }
            iters *= 2;
        };
        let batch = ((self.target.as_nanos() as f64 / per_iter).ceil() as u64).max(1);

        let mut best = f64::INFINITY;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        self.record(name, elems, best, batch, "iters/sample");
    }

    /// Prints and stores one row: `ns` per iteration over `iters`
    /// iterations, counted in `unit`.
    fn record(&mut self, name: &str, elems: Option<u64>, best: f64, batch: u64, unit: &str) {
        let mut line = format!("{name:<42} {:>14}/iter  ({batch} {unit})", fmt_ns(best));
        if let Some(e) = elems {
            line.push_str(&format!("  {:.1} Melem/s", e as f64 * 1e3 / best));
        }
        println!("{line}");
        vp_trace::event(
            "bench.result",
            &[
                ("name", Value::from(name)),
                ("ns_per_iter", Value::from(best)),
                ("iters", Value::from(batch)),
            ],
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            iters: batch,
            ns_per_iter: best,
            elems,
        });
    }

    /// Measurements taken so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Emits a manifest of all measurements (when tracing is on) and
    /// flushes the sink.
    pub fn finish(self, bin: &str) {
        if vp_trace::installed() {
            let mut mf = Manifest::new(bin);
            let headers = [
                "benchmark".to_string(),
                "ns/iter".to_string(),
                "iters".to_string(),
            ];
            let rows: Vec<Vec<String>> = self
                .results
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        format!("{:.1}", r.ns_per_iter),
                        r.iters.to_string(),
                    ]
                })
                .collect();
            mf.table("results", &headers, &rows);
            mf.stamp();
            mf.emit();
        }
        vp_trace::finish();
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut r = Runner {
            target: Duration::from_micros(200),
            samples: 2,
            filter: None,
            results: Vec::new(),
        };
        let mut x = 0u64;
        r.bench("spin", || {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(r.results().len(), 1);
        assert!(r.results()[0].ns_per_iter > 0.0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut r = Runner {
            target: Duration::from_micros(200),
            samples: 1,
            filter: Some("other".to_string()),
            results: Vec::new(),
        };
        r.bench("spin", || 1u64);
        assert!(r.results().is_empty());
    }
}
