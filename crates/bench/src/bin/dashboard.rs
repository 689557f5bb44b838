//! Renders the offline observability dashboard, and diffs run manifests.
//!
//! ```text
//! dashboard [--out FILE.html] [--only SUBSTR]...
//! dashboard manifest-diff OLD.jsonl NEW.jsonl [--max-span-regression PCT] [--history DIR]
//! ```
//!
//! The default mode profiles the (possibly `--only`-filtered) suite once,
//! evaluates its Figure 8 matrix on the cell engine
//! (`bench::sweep::sweep_cells`, untimed), and writes a self-contained
//! HTML page — phase timeline and package-residency Gantt per workload
//! (the inf/link cell's packed run), the Figure 8 coverage heatmap,
//! a cross-input generalization heatmap for the selected multi-input
//! families (same/foreign/merged profile columns; see `bench::cross`),
//! a span-tree flame view of this run's own cost, and the replay
//! throughput trend across committed `BENCH_*.json` baselines. No
//! external resources; the page works from `file://` offline.
//!
//! `manifest-diff` aligns two `vp-manifest` JSONL runs and attributes
//! counter/span/histogram movement — CI's observability regression
//! gate. With `--history DIR` each span gates against the tolerance
//! band of its last-K warehoused runs (median + max(3·MAD, the
//! threshold); see `bench::history`) instead of the single old manifest;
//! spans without enough history keep the single-baseline rule.
//!
//! Exit codes are distinct so callers can tell a verdict from a broken
//! invocation: **0** = no regression, **1** = regression found, **2** =
//! usage or parse error (unreadable file, no manifest line, bad flag).

use bench::cross::{cross_cells, families};
use bench::dashboard::{
    collect_timelines, generalization_heatmap, load_bench_trend, load_history_series,
    render_dashboard_html, Dashboard,
};
use bench::manifest_diff::{diff_manifests, history_span_bands};
use bench::sweep::sweep_cells;
use bench::CONFIG_LABELS;
use vacuum_packing::core::PackConfig;
use vacuum_packing::workloads::suite;

/// Usage/parse errors — anything that prevented producing a verdict.
const EXIT_USAGE: i32 = 2;
/// A regression verdict (the diff itself worked).
const EXIT_REGRESSION: i32 = 1;

fn fail(msg: &str) -> ! {
    eprintln!("dashboard: {msg}");
    std::process::exit(EXIT_USAGE);
}

/// Default gate: fail on any span more than 25% slower than the old run
/// (single-baseline mode) or above the history band (with `--history`).
const DEFAULT_MAX_SPAN_REGRESSION_PCT: f64 = 25.0;

fn manifest_diff_main(args: &[String]) -> ! {
    let mut files: Vec<String> = Vec::new();
    let mut max_pct = DEFAULT_MAX_SPAN_REGRESSION_PCT;
    let mut history_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-span-regression" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_pct = v,
                None => fail("--max-span-regression needs a numeric percent"),
            },
            "--history" => match it.next() {
                Some(d) => history_dir = Some(d.clone()),
                None => fail("--history needs a warehouse directory argument"),
            },
            _ => files.push(a.clone()),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        fail(
            "usage: dashboard manifest-diff OLD.jsonl NEW.jsonl \
             [--max-span-regression PCT] [--history DIR]",
        );
    };
    // Each side: first parseable manifest line in the file (a JSONL trace
    // may hold spans/events before the trailing manifest).
    let load = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .find_map(|l| vp_trace::parse_manifest_line(l).ok())
            .unwrap_or_else(|| fail(&format!("{path}: no manifest line found")))
    };
    let (old, new) = (load(old_path), load(new_path));
    let diff = diff_manifests(&old, &new);
    print!("{}", diff.render());

    let bands = match &history_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let w = bench::history::Warehouse::open(dir)
                .unwrap_or_else(|e| fail(&format!("--history {}: {e}", dir.display())));
            let records = w
                .records()
                .unwrap_or_else(|e| fail(&format!("--history {}: {e}", dir.display())));
            let bands = history_span_bands(&records, &diff.bins.1);
            println!(
                "\nhistory gate: {} span bands from {} warehoused runs in {}",
                bands.len(),
                records.len(),
                dir.display()
            );
            bands
        }
        None => std::collections::BTreeMap::new(),
    };
    let failures = diff.gate_failures(&bands, max_pct);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("dashboard: FAIL — {f}");
        }
        std::process::exit(EXIT_REGRESSION);
    }
    let worst = diff.worst_span_regression_pct();
    println!("\nOK — worst span regression {worst:.1}% within the {max_pct:.1}% gate");
    std::process::exit(0);
}

fn main() {
    let args = bench::cli_args();
    if args.first().map(String::as_str) == Some("manifest-diff") {
        manifest_diff_main(&args[1..]);
    }

    let mut out_path = "dashboard.html".to_string();
    let mut only: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p,
                None => fail("--out needs a file argument"),
            },
            "--only" => match it.next() {
                Some(f) => only.push(f),
                None => fail("--only needs a substring argument"),
            },
            other => fail(&format!(
                "unknown argument {other:?} (usage: dashboard [--out FILE.html] [--only SUBSTR]... | dashboard manifest-diff OLD NEW)"
            )),
        }
    }

    let mut mf = bench::init("dashboard");
    mf.set("out", out_path.as_str().into());

    // Span capture needs an installed sink or a scope; force-enable so
    // the flame view is populated even without VP_TRACE.
    let ((), _report) = vp_trace::scoped(|| {
        let _root = vp_trace::span("dashboard.render");
        let workloads: Vec<_> = suite(bench::scale())
            .into_iter()
            .filter(|w| only.is_empty() || only.iter().any(|f| w.label().contains(f)))
            .collect();
        if workloads.is_empty() {
            fail("no workloads match the --only filters");
        }

        // One profile per workload; holding them keeps their captures
        // alive, so the heatmap's sweep takes every profile from the memo.
        let profiled = bench::profile_workloads(workloads, None);
        let heatmap = {
            let _s = vp_trace::span("dashboard.heatmap");
            sweep_cells(None, None, &only)
                .matrix()
                .into_iter()
                .map(|(label, outs)| (label.to_string(), outs.iter().map(|o| o.coverage).collect()))
                .collect()
        };
        // inf/link — the paper's strongest configuration — drives the
        // residency lanes, replaying the packed captures its cells made.
        let timelines = collect_timelines(&profiled, &PackConfig::evaluation_matrix()[3]);
        let trend = load_bench_trend(std::path::Path::new("."));
        // Cross-run sparklines, when a run-history warehouse is around.
        let history = bench::history::dir_from_env()
            .and_then(|dir| bench::history::Warehouse::open(&dir).ok())
            .and_then(|w| w.records().ok())
            .map(|r| load_history_series(&r))
            .unwrap_or_default();

        // Generalization heatmap for every selected multi-input family;
        // the section disappears when --only selects none.
        let fams: Vec<String> = families(bench::scale())
            .into_iter()
            .filter(|(_, inputs)| {
                inputs
                    .iter()
                    .any(|w| only.is_empty() || only.iter().any(|f| w.label().contains(f)))
            })
            .map(|(b, _)| b)
            .collect();
        let (generalization, generalization_cols) = if fams.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let _s = vp_trace::span("dashboard.generalization");
            generalization_heatmap(&cross_cells(None, &fams, &[], &[]).cells)
        };

        let d = Dashboard {
            timelines,
            heatmap,
            generalization,
            generalization_cols,
            flame: vp_trace::tree_snapshot(),
            sched: bench::sched_manifest_value(),
            trend,
            history,
        };
        let html = render_dashboard_html(&d);
        std::fs::write(&out_path, &html)
            .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
        eprintln!(
            "dashboard: wrote {out_path} ({} workloads x {} configs, {} bytes)",
            d.timelines.len(),
            CONFIG_LABELS.len(),
            html.len()
        );
    });
    mf.set(
        "span_tree_nodes",
        (vp_trace::tree_snapshot().len() as u64).into(),
    );
    bench::emit_manifest(mf);
}
