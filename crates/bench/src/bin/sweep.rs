//! Sharded evaluation sweep over the (workload × config) matrix, plus the
//! merge subcommand that joins per-shard manifests into one report and the
//! cross subcommand that runs the cross-input generalization matrix.
//!
//! ```text
//! sweep [--timing] [--jobs N] [--only SUBSTR]...   # run this process's shard
//! sweep merge FILE.jsonl...                        # join shard manifests
//! sweep cross [--timing] [--jobs N] [--only FAMILY]... [--eval INPUT]... [--from SOURCE]...
//! sweep history [ingest|list|series|gate] ...      # query the run-history warehouse
//! ```
//!
//! In-process parallelism comes from the work-stealing scheduler:
//! `--jobs N` (default `VP_THREADS`, then the core count) sets the
//! worker count, and all workers share one `TraceStore`. `--jobs`
//! composes with sharding — each shard process runs its own N workers.
//!
//! Sharding comes from `VP_SHARD=i/n` (unset = the whole matrix). Each run
//! emits its cell rows in its `vp-manifest/2` manifest (`VP_TRACE=json:<path>`),
//! which `merge` validates for exact single coverage of the matrix before
//! printing the report an unsharded run would have produced, byte for byte.
//!
//! `cross` evaluates every multi-input family's (eval input × profile
//! source) matrix — same-input, foreign-input, and merged-profile columns
//! — under the strongest configuration (see `bench::cross`). `--only`
//! filters families, `--eval` the evaluated input, `--from` the profile
//! source column (an input name, `merged`, or a kind like `foreign`).
//! Both matrices are cell lists over one cell engine, so one
//! `VP_RESULT_DIR` serves both.

use bench::cross::{cross_cells, render_cross_report, CROSS_HEADERS};
use bench::sweep::{
    merge_manifests, render_report, sweep_cells, ShardSpec, CELL_HEADERS, TELEMETRY_HEADERS,
};
use vacuum_packing::sim::MachineConfig;

fn fail(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(2);
}

fn merge_main(files: &[String]) -> ! {
    if files.is_empty() {
        fail("merge: no manifest files given");
    }
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| match std::fs::read_to_string(f) {
            Ok(c) => (f.clone(), c),
            Err(e) => fail(&format!("merge: cannot read {f}: {e}")),
        })
        .collect();
    match merge_manifests(&inputs) {
        Ok(report) => {
            print!("{report}");
            std::process::exit(0);
        }
        Err(e) => fail(&format!("merge: {e}")),
    }
}

/// Stamps a run's result-cache effectiveness into its manifest:
/// per-run hit/miss cell counts and the hit ratio. Omitted entirely when
/// no cache was active (`VP_RESULT_DIR` unset), so cacheless manifests
/// stay byte-compatible with older runs.
fn stamp_result_cache(mf: &mut vp_trace::Manifest, hits: usize, misses: usize) {
    if hits + misses == 0 {
        return;
    }
    let mut rc = vp_trace::Json::obj();
    rc.set("hits", (hits as u64).into());
    rc.set("misses", (misses as u64).into());
    rc.set("hit_ratio", (hits as f64 / (hits + misses) as f64).into());
    mf.set("result_cache", rc);
}

/// Parses and installs a `--jobs` value (a positive integer).
fn set_jobs_arg(arg: Option<&String>) {
    match arg.and_then(|s| s.parse::<usize>().ok()).filter(|&n| n > 0) {
        Some(n) => bench::set_jobs(n),
        None => fail("--jobs needs a positive integer argument"),
    }
}

fn cross_main(args: &[String]) -> ! {
    let mut timing = false;
    let mut only: Vec<String> = Vec::new();
    let mut eval: Vec<String> = Vec::new();
    let mut from: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut push = |dst: &mut Vec<String>, what: &str| match it.next() {
            Some(f) => dst.push(f.clone()),
            None => fail(&format!("{what} needs a substring argument")),
        };
        match a.as_str() {
            "--timing" => timing = true,
            "--jobs" => set_jobs_arg(it.next()),
            "--only" => push(&mut only, "--only"),
            "--eval" => push(&mut eval, "--eval"),
            "--from" => push(&mut from, "--from"),
            other => fail(&format!(
                "unknown argument {other:?} (usage: sweep cross [--timing] [--jobs N] \
                 [--only FAMILY]... [--eval INPUT]... [--from SOURCE]...)"
            )),
        }
    }

    let mut mf = bench::init("sweep");
    mf.set("mode", "cross".into());
    mf.set("timing", timing.into());
    for (key, filters) in [("only", &only), ("eval", &eval), ("from", &from)] {
        if !filters.is_empty() {
            mf.set(
                key,
                vp_trace::Json::Arr(filters.iter().map(|s| s.as_str().into()).collect()),
            );
        }
    }

    let machine = MachineConfig::table2();
    let outcome = cross_cells(timing.then_some(&machine), &only, &eval, &from);

    mf.set("cells_total", (outcome.rows.len() as u64).into());
    stamp_result_cache(&mut mf, outcome.cache_hits, outcome.cache_misses);
    let headers: Vec<String> = CROSS_HEADERS.iter().map(|h| (*h).to_string()).collect();
    mf.table("generalization", &headers, &outcome.rows);
    let t_headers: Vec<String> = TELEMETRY_HEADERS.iter().map(|h| (*h).to_string()).collect();
    mf.table("cell_telemetry", &t_headers, &outcome.telemetry);

    print!("{}", render_cross_report(&outcome.rows));
    bench::emit_manifest(mf);
    std::process::exit(0);
}

/// Pulls one `--flag VALUE` pair out of `args`, mutating the list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        fail(&format!("{flag} needs an argument"));
    }
    let v = args.remove(at + 1);
    args.remove(at);
    Some(v)
}

/// Resolves the warehouse for a `history` subcommand: `--dir` beats
/// `VP_HISTORY_DIR`.
fn open_warehouse(dir_arg: Option<String>) -> Option<bench::history::Warehouse> {
    let dir = dir_arg
        .map(std::path::PathBuf::from)
        .or_else(bench::history::dir_from_env)?;
    match bench::history::Warehouse::open(&dir) {
        Ok(w) => Some(w),
        Err(e) => fail(&format!("history: cannot open {}: {e}", dir.display())),
    }
}

fn warehouse_records(w: &bench::history::Warehouse) -> Vec<bench::history::RunRecord> {
    w.records()
        .unwrap_or_else(|e| fail(&format!("history: cannot read {}: {e}", w.dir().display())))
}

/// `sweep history …`: query (or populate) the run-history warehouse.
///
/// * no verb — trend table from the warehouse, or from the committed
///   `BENCH_*.json` baselines in the current directory when no warehouse
///   is configured;
/// * `ingest FILE...` — warehouse manifest JSONL streams or `vp-bench/1`
///   baselines;
/// * `list` — one line per warehouse key: runs, fingerprint, span;
/// * `series METRIC` — export one metric series as JSON for the
///   dashboard (`[{"ts":…,"label":…,"v":…},…]`);
/// * `gate METRIC (--value V | --from-bench FILE) [--scale F] [--upper]
///   [--lower X]` — exit 1 when the value falls outside the history
///   tolerance band (median of last K ± max(3·MAD, 10%)); thin history
///   (< 3 samples) passes with a note, leaving the committed-baseline
///   gate in charge. `--lower X` additionally imposes an absolute hard
///   floor that applies even when history is thin — for invariants like
///   "replay must beat re-execution" that no tolerance band should ever
///   erode.
fn history_main(args: &[String]) -> ! {
    use bench::history;
    let mut args: Vec<String> = args.to_vec();
    let dir = take_flag(&mut args, "--dir");
    let verb = if args.first().is_some_and(|a| !a.starts_with("--")) {
        Some(args.remove(0))
    } else {
        None
    };
    match verb.as_deref() {
        None => {
            let records = match open_warehouse(dir) {
                Some(w) => warehouse_records(&w),
                None => {
                    let here = std::env::current_dir().unwrap_or_else(|_| ".".into());
                    let recs = history::bench_baseline_records(&here);
                    if recs.is_empty() {
                        fail(&format!(
                            "history: no warehouse configured (VP_HISTORY_DIR/--dir) and no \
                             committed BENCH_*.json found in {}",
                            here.display()
                        ));
                    }
                    eprintln!(
                        "history: no warehouse configured; trend from {} committed BENCH_*.json \
                         baselines",
                        recs.len()
                    );
                    recs
                }
            };
            print!("{}", history::render_trend(&records));
            std::process::exit(0);
        }
        Some("ingest") => {
            let Some(w) = open_warehouse(dir) else {
                fail("history ingest: no warehouse (set VP_HISTORY_DIR or pass --dir)");
            };
            if args.is_empty() {
                fail("history ingest: no files given");
            }
            let mut total = 0;
            for f in &args {
                match w.ingest_file(std::path::Path::new(f)) {
                    Ok(n) => {
                        total += n;
                        println!(
                            "ingested {n} record{} from {f}",
                            if n == 1 { "" } else { "s" }
                        );
                    }
                    Err(e) => fail(&format!("history ingest: {e}")),
                }
            }
            println!("warehouse {}: +{total} records", w.dir().display());
            std::process::exit(0);
        }
        Some("list") => {
            let Some(w) = open_warehouse(dir) else {
                fail("history list: no warehouse (set VP_HISTORY_DIR or pass --dir)");
            };
            let records = warehouse_records(&w);
            let mut keys: Vec<(String, String, usize)> = Vec::new();
            for r in &records {
                let key = r.key();
                match keys.iter_mut().find(|(k, _, _)| *k == key) {
                    Some((_, _, n)) => *n += 1,
                    None => keys.push((key, r.fingerprint(), 1)),
                }
            }
            for (key, fp, n) in &keys {
                println!("{fp}  {n:>4} runs  {key}");
            }
            println!(
                "{} keys, {} records, {} segments",
                keys.len(),
                records.len(),
                w.segments().map(|s| s.len()).unwrap_or(0)
            );
            std::process::exit(0);
        }
        Some("series") => {
            let Some(spec) = args.first().cloned() else {
                fail("history series: needs a METRIC argument (e.g. metric:eps.replay_batched)");
            };
            let bin = take_flag(&mut args, "--bin");
            let Some(w) = open_warehouse(dir) else {
                fail("history series: no warehouse (set VP_HISTORY_DIR or pass --dir)");
            };
            let mut out = String::from("[");
            let mut first = true;
            for r in warehouse_records(&w) {
                if bin.as_deref().is_some_and(|b| r.bin != b) {
                    continue;
                }
                let Some(v) = r.metric(&spec) else { continue };
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    r#"{{"ts":{},"label":"{}","v":{v}}}"#,
                    r.ts, r.label
                ));
            }
            out.push_str("]\n");
            print!("{out}");
            std::process::exit(0);
        }
        Some("gate") => {
            let value_arg = take_flag(&mut args, "--value");
            let from_bench = take_flag(&mut args, "--from-bench");
            let scale: f64 = take_flag(&mut args, "--scale")
                .map(|s| s.parse().unwrap_or_else(|_| fail("--scale needs a number")))
                .unwrap_or(1.0);
            let hard_floor: Option<f64> = take_flag(&mut args, "--lower")
                .map(|s| s.parse().unwrap_or_else(|_| fail("--lower needs a number")));
            let upper = if let Some(at) = args.iter().position(|a| a == "--upper") {
                args.remove(at);
                true
            } else {
                false
            };
            let Some(spec) = args.first().cloned() else {
                fail("history gate: needs a METRIC argument");
            };
            let value = match (value_arg, from_bench) {
                (Some(v), None) => v
                    .parse::<f64>()
                    .unwrap_or_else(|_| fail("--value needs a number")),
                (None, Some(f)) => {
                    let text = std::fs::read_to_string(&f)
                        .unwrap_or_else(|e| fail(&format!("history gate: {f}: {e}")));
                    let rec = history::RunRecord::from_bench_json(&text, &f, 0)
                        .unwrap_or_else(|e| fail(&format!("history gate: {f}: {e}")));
                    rec.metric(&spec)
                        .unwrap_or_else(|| fail(&format!("history gate: {f} lacks {spec}")))
                }
                _ => fail("history gate: exactly one of --value V or --from-bench FILE"),
            } * scale;
            // The absolute floor is checked before any history statistics:
            // it holds even when history is thin, and a tolerance band
            // that has drifted below it cannot excuse a breach.
            if let Some(floor) = hard_floor {
                let breach = value < floor;
                println!(
                    "history gate {spec}: value {value:.4} vs hard floor {floor:.4} ... {}",
                    if breach { "FAIL" } else { "ok" }
                );
                if breach {
                    std::process::exit(1);
                }
            }
            let Some(w) = open_warehouse(dir) else {
                if hard_floor.is_some() {
                    println!("history gate {spec}: no warehouse — hard floor only");
                    std::process::exit(0);
                }
                fail("history gate: no warehouse (set VP_HISTORY_DIR or pass --dir)");
            };
            match history::gate_band(&warehouse_records(&w), &spec) {
                None => {
                    println!(
                        "history gate {spec}: history too thin (< {} samples) — pass by \
                         default, committed baseline stays authoritative",
                        history::GATE_MIN_SAMPLES
                    );
                    std::process::exit(0);
                }
                Some(band) => {
                    let (bound, breach) = if upper {
                        let ceil = band.ceil(history::GATE_K, history::GATE_MIN_REL);
                        (ceil, value > ceil)
                    } else {
                        let floor = band.floor(history::GATE_K, history::GATE_MIN_REL);
                        (floor, value < floor)
                    };
                    let verdict = if breach { "FAIL" } else { "ok" };
                    println!(
                        "history gate {spec}: value {value:.4} vs median {:.4} ± (MAD {:.4}, \
                         n={}) → {} {bound:.4} ... {verdict}",
                        band.median,
                        band.mad,
                        band.n,
                        if upper { "ceil" } else { "floor" },
                    );
                    std::process::exit(i32::from(breach));
                }
            }
        }
        Some(other) => fail(&format!(
            "unknown history verb {other:?} (usage: sweep history \
             [ingest FILE... | list | series METRIC | gate METRIC] [--dir DIR])"
        )),
    }
}

fn main() {
    let args = bench::cli_args();
    if args.first().map(String::as_str) == Some("merge") {
        merge_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("cross") {
        cross_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("history") {
        history_main(&args[1..]);
    }

    let mut timing = false;
    let mut only: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timing" => timing = true,
            "--jobs" => set_jobs_arg(it.next().as_ref()),
            "--only" => match it.next() {
                Some(f) => only.push(f),
                None => fail("--only needs a substring argument"),
            },
            other => fail(&format!(
                "unknown argument {other:?} (usage: sweep [--timing] [--jobs N] \
                 [--only SUBSTR]... | sweep merge FILE... | sweep cross [--timing] \
                 [--jobs N] [--only FAMILY]... | sweep history ...)"
            )),
        }
    }

    let shard = match ShardSpec::from_env() {
        Ok(s) => s,
        Err(e) => fail(&e),
    };

    let mut mf = bench::init("sweep");
    if let Some(s) = &shard {
        mf.set("shard", s.label().into());
    }
    if !only.is_empty() {
        mf.set(
            "only",
            vp_trace::Json::Arr(only.iter().map(|s| s.as_str().into()).collect()),
        );
    }
    mf.set("timing", timing.into());

    let machine = MachineConfig::table2();
    let outcome = sweep_cells(shard.as_ref(), timing.then_some(&machine), &only);

    mf.set("cells_total", (outcome.cells_total as u64).into());
    mf.set("cells_done", outcome.rows.len().into());
    stamp_result_cache(&mut mf, outcome.cache_hits, outcome.cache_misses);
    let headers: Vec<String> = CELL_HEADERS.iter().map(|h| (*h).to_string()).collect();
    mf.table("cells", &headers, &outcome.rows);
    let t_headers: Vec<String> = TELEMETRY_HEADERS.iter().map(|h| (*h).to_string()).collect();
    mf.table("cell_telemetry", &t_headers, &outcome.telemetry);

    if let Some(s) = &shard {
        // A shard's stdout is informational; the authoritative joined
        // report comes from `sweep merge` over the emitted manifests.
        println!(
            "shard {}: {} of {} cells\n",
            s.label(),
            outcome.rows.len(),
            outcome.cells_total
        );
    }
    print!("{}", render_report(&outcome.rows));
    bench::emit_manifest(mf);
}
