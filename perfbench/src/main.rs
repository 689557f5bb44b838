//! Strict-matrix benchmark runner.
//!
//! `run.py` (next to this crate) owns the workloads, the seeded draw, the
//! cache directories and the measurement loop; this binary is what it
//! spawns. Every subcommand prints one JSON object as its last stdout line.
//!
//! ```text
//! perfbench build  --reps N
//! perfbench pass   --jobs N --sweep LABEL... --cross LABEL
//! perfbench traced --jobs N --sweep LABEL... --cross LABEL --dir DIR
//! ```
//!
//! * `build` times the workload build (`vp_workloads::suite`) `N` times.
//! * `pass` runs one strict evaluation matrix — `bench::sweep::sweep_cells`
//!   over the `--sweep` workloads, then `bench::cross::cross_cells` for the
//!   `--cross` workload's family — under whatever `VP_*` environment the
//!   caller set, and reports the cell rows. A panicking matrix is caught
//!   and reported as an error, so the caller can count its cells failed.
//! * `traced` runs the same matrix cold by calling each layer's public
//!   function itself (see [`traced`]), timing every call from outside.

mod alloc;
mod traced;

use bench::cross::cross_cells;
use bench::sweep::sweep_cells;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::suite;
use vp_trace::Json;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The matrix one invocation evaluates.
pub struct Matrix {
    /// Sweep workloads, by full label (`"130.li A"`).
    pub sweep: Vec<String>,
    /// The cross-matrix evaluation input, by full label; its family's
    /// other inputs supply the foreign and merged profiles.
    pub cross: String,
}

impl Matrix {
    /// The cross workload's benchmark family (`"130.li"`).
    pub fn family(&self) -> &str {
        self.cross.split(' ').next().unwrap_or_default()
    }
}

struct Args {
    jobs: usize,
    reps: usize,
    dir: Option<String>,
    matrix: Matrix,
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut out = Args {
        jobs: 1,
        reps: 1,
        dir: None,
        matrix: Matrix {
            sweep: Vec::new(),
            cross: String::new(),
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        let count = || -> usize {
            value
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| fail(&format!("{flag} needs a positive integer")))
        };
        match flag.as_str() {
            "--jobs" => out.jobs = count(),
            "--reps" => out.reps = count(),
            "--dir" => out.dir = Some(value.clone()),
            "--sweep" => out.matrix.sweep.push(value.clone()),
            "--cross" => out.matrix.cross = value.clone(),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    out
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn build_main(reps: usize) {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let workloads = std::hint::black_box(suite(1));
        times.push(secs(t0));
        drop(workloads);
    }
    let mut j = Json::obj();
    j.set(
        "build_s",
        Json::Arr(times.into_iter().map(Json::F64).collect()),
    );
    println!("{}", j.render());
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// String rows as a JSON array of arrays.
pub fn rows_json(rows: &[Vec<String>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|c| c.as_str().into()).collect()))
            .collect(),
    )
}

fn pass_main(m: &Matrix, jobs: usize) {
    bench::set_jobs(jobs);
    let mf = bench::init("perfbench");
    let machine = MachineConfig::table2();
    let mut errors: Vec<Json> = Vec::new();
    let (mut hits, mut misses) = (0, 0);

    let sweep = catch_unwind(AssertUnwindSafe(|| {
        sweep_cells(None, Some(&machine), &m.sweep)
    }));
    let sweep_rows = match sweep {
        Ok(s) => {
            hits += s.cache_hits;
            misses += s.cache_misses;
            s.rows
        }
        Err(p) => {
            errors.push(panic_text(p.as_ref()).as_str().into());
            Vec::new()
        }
    };
    let cross = catch_unwind(AssertUnwindSafe(|| {
        cross_cells(
            Some(&machine),
            &[m.family().to_string()],
            std::slice::from_ref(&m.cross),
            &[],
        )
    }));
    let cross_rows = match cross {
        Ok(c) => {
            hits += c.cache_hits;
            misses += c.cache_misses;
            c.rows
        }
        Err(p) => {
            errors.push(panic_text(p.as_ref()).as_str().into());
            Vec::new()
        }
    };

    let mut j = Json::obj();
    j.set("sweep_rows", rows_json(&sweep_rows));
    j.set("cross_rows", rows_json(&cross_rows));
    j.set("errors", Json::Arr(errors));
    j.set("result_cache_hits", (hits as u64).into());
    j.set("result_cache_misses", (misses as u64).into());
    j.set("sched", bench::sched_manifest_value().unwrap_or(Json::Null));
    bench::emit_manifest(mf);
    println!("{}", j.render());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        fail("usage: perfbench (build|pass|traced) [--jobs N] [--reps N] [--sweep LABEL]... [--cross LABEL] [--dir DIR]");
    };
    let args = parse(rest);
    let needs_matrix = || {
        if args.matrix.sweep.is_empty() || args.matrix.cross.is_empty() {
            fail(&format!("{cmd} needs --sweep and --cross workloads"));
        }
    };
    match cmd.as_str() {
        "build" => build_main(args.reps),
        "pass" => {
            needs_matrix();
            pass_main(&args.matrix, args.jobs);
        }
        "traced" => {
            needs_matrix();
            let dir = args
                .dir
                .as_deref()
                .unwrap_or_else(|| fail("traced needs --dir"));
            println!(
                "{}",
                traced::run(&args.matrix, args.jobs, dir.as_ref()).render()
            );
        }
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}
