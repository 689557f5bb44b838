//! Regenerates EXPERIMENTS.md: runs every evaluation-section experiment
//! and emits a markdown report comparing the paper's reported values with
//! this reproduction's measurements.
//!
//! ```text
//! cargo run --release -p bench --bin report > EXPERIMENTS.md
//! ```

use std::time::Instant;

use bench::cross::{cross_cells, Kind, CROSS_HEADERS};
use bench::figures;
use bench::history::RunRecord;
use bench::sweep::sweep_cells;
use bench::{profile_suite, CONFIG_LABELS};
use vacuum_packing::exec::{DiskTier, RunConfig, TraceKey};
use vacuum_packing::metrics::TextTable;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::trace::MemorySink;

fn main() {
    let mut mf = bench::init("report");
    // The "Harness cost" section quotes `trace_store.*` counters, which only
    // tick while tracing is enabled — keep them live even when the caller
    // didn't ask for trace output.
    if !vp_trace::installed() {
        vp_trace::install(std::sync::Arc::new(MemorySink::new()));
    }
    mf.set("doc", "EXPERIMENTS.md".into());
    let machine = MachineConfig::table2();
    // Table 1, Figure 9 and the base cycles read the profiles; holding
    // them keeps their captures alive, so the sweep takes every profile
    // from the memo.
    let profiled = profile_suite(Some(&machine));
    let sweep = sweep_cells(None, Some(&machine), &[]);
    let matrix = sweep.matrix();
    let table1 = figures::table1(&profiled);
    let fig8 = figures::fig8(&matrix);
    let table3 = figures::table3(&matrix);
    let fig9 = figures::fig9(&profiled);
    let fig10 = figures::fig10(&profiled, &matrix);

    println!("# Experiments: paper vs. reproduction");
    println!();
    println!("Regenerated by `cargo run --release -p bench --bin report > EXPERIMENTS.md`.");
    println!(
        "Workload scale: `VP_SCALE={}`. Absolute magnitudes are not expected to",
        bench::scale()
    );
    println!("match (the substrate is a synthetic suite on a simulator, not SPEC on the");
    println!("authors' testbed); the *shape* — who wins, by roughly what factor, where");
    println!("the configuration axes matter — is the reproduction target. See DESIGN.md");
    println!("for the substitution table.");
    println!();
    println!("Machine-readable manifests: every `bench` binary emits a JSONL run");
    println!("manifest (schema `vp-manifest/2`: config, per-stage wall times, span");
    println!("tree, flight-recorder tail, all pipeline counters, result tables) when");
    println!("invoked with `--json` or");
    println!("`VP_TRACE=json[:path]` — e.g. `VP_TRACE=json:fig8.jsonl cargo run");
    println!("--release -p bench --bin fig8`. See README \"Observability\".");
    println!();

    // ------------------------------------------------------------ Table 1
    println!("## Table 1 — benchmarks and inputs");
    println!();
    println!("The paper runs SPEC CPU95/2000 + MediaBench binaries (8M–1902M dynamic");
    println!("instructions); this reproduction builds one synthetic counterpart per");
    println!("row, engineered for the same phase structure at CI scale.");
    println!();
    print!("{}", table1.markdown());
    println!();

    // ------------------------------------------------------------ Table 2
    println!("## Table 2 — machine model");
    println!();
    println!("Reproduced verbatim in `vp_sim::MachineConfig::table2()` and");
    println!("`vp_hsd::HsdConfig::table2()`; printed by `cargo run -p bench --bin table2`.");
    println!("Cache-miss latencies are not given in the paper; this reproduction uses");
    println!("L2 +10 cycles and memory +75 cycles (documented fields).");
    println!();

    // ------------------------------------------------------------ Figure 8
    println!("## Figure 8 — percent of dynamic instructions from within packages");
    println!();
    println!("Paper: ~81% average with inference and linking; linking visibly lifts");
    println!("124.m88ksim, 181.mcf, 197.parser, 300.twolf; inference \"does not greatly");
    println!("effect the average\".");
    println!();
    print!("{}", fig8.markdown());
    println!();
    println!("Shape check: linking lifts the average and specifically the shared-root");
    println!("benchmarks (m88ksim's two loaders, twolf's temperature regimes, ijpeg A's");
    println!("content segments, go's game stages). Average coverage is higher than the");
    println!("paper's 81% because the synthetic workloads concentrate more of their");
    println!("execution than SPEC does. The inference axis is flat at the Table 2 BBB");
    println!("size — consistent in direction with the paper's \"does not greatly effect");
    println!("the average\"; `bin/ablation` shows the mechanism by shrinking the BBB.");
    println!();

    // ------------------------------------------------------------ Table 3
    println!("## Table 3 — code expansion");
    println!();
    println!("Paper averages: 12% size increase, 4.5% of static instructions selected,");
    println!("replication factor ≈ 2.6.");
    println!();
    print!("{}", table3.markdown());
    println!();
    println!("Shape check: moderate growth, a small selected fraction, and a");
    println!("replication factor near the paper's 2.6; growth ≈ selected × replication");
    println!("holds by construction in both.");
    println!();

    // ------------------------------------------------------------ Figure 9
    println!("## Figure 9 — hot-spot branch categorization");
    println!();
    println!("Paper: unique branches are mostly biased; Multi-High/Low branches (the");
    println!("phase-customization opportunity) are a few percent (e.g. ~3% Multi High");
    println!("for 099.go); Multi Same dominates the multi-phase population.");
    println!();
    print!("{}", fig9.markdown());
    println!();
    println!("Shape check: unique branches are overwhelmingly biased, Multi Same");
    println!("dominates, and Multi High appears exactly on the benchmarks built around");
    println!("bias-flipping branches (go, m88ksim, twolf, gzip, ijpeg A). Multi-High");
    println!("fractions run higher than the paper's because the synthetic programs are");
    println!("small, so the flipping branches carry more of the dynamic weight.");
    println!();

    // ----------------------------------------------------------- Figure 10
    println!("## Figure 10 — speedup from package relayout and rescheduling");
    println!();
    println!("Paper: single-digit average speedups that improve across the four");
    println!("configurations, correlating with coverage; 197.parser gains ~8% more with");
    println!("linking; 255.vortex benefits from both axes.");
    println!();
    print!("{}", fig10.markdown());
    println!();
    println!("Shape check: low-single-digit average speedup from relayout +");
    println!("rescheduling, with linking adding on the shared-root benchmarks, and");
    println!("memory-bound workloads (mcf, vortex) near 1.0 — the same pattern the");
    println!("paper reports. The pass ablation (`bin/ablation`, section 4) shows");
    println!("rescheduling carries essentially all of the gain: relayout alone stays");
    println!("within 1% of 1.0 on vpr, twolf and perl A (slightly below it on vpr),");
    println!("matching the paper's \"basic rescheduling\" framing.");
    println!();
    // ------------------------------------ Cross-input generalization
    println!("## Cross-input generalization — train on A, evaluate on B");
    println!();
    println!("Not a paper figure: the paper trains and evaluates every binary on the");
    println!("same input. This section measures how a phase profile *transfers*. For");
    println!("each three-input family (130.li, 132.ijpeg, 134.perl), every input is");
    println!("packed under every sibling input's profile and under the family's merged");
    println!("profile — `vp_hsd::merge`, a saturating-counter-aware weighted union of");
    println!("the per-run dumps (weights ∝ retired instructions, `VP_MERGE_WEIGHT`);");
    println!("see ARCHITECTURE.md \"Profile merge algebra\". All cells run the paper's");
    println!("strongest configuration (inference + linking) and every packed binary is");
    println!("differentially replayed against its original capture: foreign phases");
    println!("whose branches don't resolve in the evaluation layout are dropped by");
    println!("region identification, so a stale profile can only lose coverage, never");
    println!("correctness. Captures come warm from the trace store shared with the");
    println!("sections above. Standalone:");
    println!("`cargo run --release -p bench --bin sweep -- cross --timing`.");
    println!();
    let cross = cross_cells(Some(&machine), &[], &[], &[]);
    // The report's cross columns: every `CROSS_HEADERS` column but the
    // cell index and the package count.
    let mut cells = TextTable::new(vec![
        "family",
        "eval",
        "profile",
        "kind",
        "coverage %",
        "speedup",
        "phases",
        "diff",
    ]);
    for row in &cross.rows {
        cells.row([1, 2, 3, 4, 5, 6, 7, 9].map(|i| row[i].clone()).to_vec());
    }
    print!("{}", cells.markdown());
    println!();
    let cross_diverged = cross
        .cells
        .iter()
        .filter(|c| c.outcome.diff.as_ref().is_some_and(|d| !d.is_clean()))
        .count();
    let kind_avg = |k: Kind| {
        let sel: Vec<_> = cross.cells.iter().filter(|c| c.kind == k).collect();
        let n = sel.len().max(1) as f64;
        (
            sel.iter().map(|c| c.outcome.coverage).sum::<f64>() / n,
            sel.iter().filter_map(|c| c.outcome.speedup).sum::<f64>() / n,
        )
    };
    let (same_cov, same_spd) = kind_avg(Kind::Same);
    let (foreign_cov, foreign_spd) = kind_avg(Kind::Foreign);
    let (merged_cov, merged_spd) = kind_avg(Kind::Merged);
    let ret = |v: f64, base: f64| {
        if base > 0.0 {
            format!("{:.1}%", 100.0 * v / base)
        } else {
            "-".to_string()
        }
    };
    let mut kinds = TextTable::new(vec![
        "kind",
        "avg coverage %",
        "retention",
        "avg speedup",
        "retention",
    ]);
    kinds.row(vec![
        "same".to_string(),
        format!("{:.1}", 100.0 * same_cov),
        "—".to_string(),
        format!("{same_spd:.3}"),
        "—".to_string(),
    ]);
    for (kind, cov, spd) in [
        ("foreign", foreign_cov, foreign_spd),
        ("merged", merged_cov, merged_spd),
    ] {
        kinds.row(vec![
            kind.to_string(),
            format!("{:.1}", 100.0 * cov),
            ret(cov, same_cov),
            format!("{spd:.3}"),
            ret(spd, same_spd),
        ]);
    }
    print!("{}", kinds.markdown());
    println!();
    println!("Shape check: transfer is bimodal — sibling inputs that exercise the same");
    println!("code regions at the same addresses retain essentially all coverage, while");
    println!("inputs whose hot spots live elsewhere drop to zero (the profile names");
    println!("branches the evaluation layout cannot resolve). The merged profile");
    println!("carries every family member's phases, so it restores same-input coverage");
    println!("for every evaluation input — at the cost of extra phases that region");
    println!(
        "identification simply finds cold. {cross_diverged} of {} cells diverged",
        cross.cells.len()
    );
    println!("under differential replay.");
    println!();
    mf.set("cross_cells", (cross.cells.len() as u64).into());
    mf.set("cross_diverged", (cross_diverged as u64).into());
    mf.set(
        "cross_merged_retention",
        format!(
            "{:.3}",
            if same_cov > 0.0 {
                merged_cov / same_cov
            } else {
                0.0
            }
        )
        .into(),
    );
    let cross_headers: Vec<String> = CROSS_HEADERS.iter().map(|h| (*h).to_string()).collect();
    mf.table("generalization", &cross_headers, &cross.rows);

    // ---------------------------------------------------------- Divergence
    println!("## Divergence audit — differential replay of packed binaries");
    println!();
    println!("Not a paper figure: every packed run above was differentially replayed");
    println!("against the original capture (`vp_exec::diff`, strict on every run). Packed");
    println!("locations fold back to original blocks through the rewriter's provenance");
    println!("metadata; exit-block and launch-stub events are expected divergences and");
    println!("are dropped; everything else must align visit-for-visit. A `diverged`");
    println!("verdict means the rewritten binary did different architectural work.");
    println!();
    let mut audit = TextTable::new(vec![
        "benchmark",
        CONFIG_LABELS[0],
        CONFIG_LABELS[1],
        CONFIG_LABELS[2],
        CONFIG_LABELS[3],
        "aligned visits",
        "exit events",
        "migrations",
    ]);
    let mut diverged_cells = 0usize;
    for (label, outs) in &matrix {
        let mut row = vec![label.to_string()];
        let (mut aligned, mut exits, mut migrations) = (0u64, 0u64, 0u64);
        for o in outs.iter() {
            row.push(
                o.diff
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |d| d.verdict.to_string()),
            );
            if let Some(d) = &o.diff {
                aligned += d.aligned_visits;
                exits += d.exit_events;
                migrations += d.migrations;
                if !d.is_clean() {
                    diverged_cells += 1;
                }
            }
        }
        row.extend([aligned, exits, migrations].map(|v| v.to_string()));
        audit.row(row);
    }
    print!("{}", audit.markdown());
    println!();
    println!(
        "{diverged_cells} of {} cells diverged. The `diff.*` counters and the",
        sweep.outcomes.len()
    );
    println!("`diff.package_residency` / `diff.migration_gap` / `diff.alignment_run`");
    println!("histograms in this run's manifest carry the full distributions.");
    println!();
    mf.set("diverged_cells", (diverged_cells as u64).into());

    // -------------------------------------------------------- Harness cost
    println!("## Harness cost — the capture/replay cache");
    println!();
    println!("Not a paper figure: this section reports what the harness itself spends.");
    println!("Each original binary is interpreted exactly once per `(workload,");
    println!("RunConfig)` key; `vp_exec::TraceStore` (budget `VP_TRACE_CACHE_MB`, default");
    println!("512) records the retired stream at capture and every other consumer — the");
    println!("detector, the branch oracle, baseline timing — replays it. Packed binaries");
    println!("go through the same store under a `TraceKey::packed` keyed on the");
    println!("package-set fingerprint: captured once per cell, timed from replay, and");
    println!("differentially replayed against the original (section above). Counters");
    println!("from this run:");
    println!();
    let mut counters = TextTable::new(vec!["counter", "value"]);
    for (name, v) in vp_trace::counters_snapshot()
        .iter()
        .filter(|(n, _)| n.starts_with("trace_store."))
    {
        counters.row(vec![format!("`{name}`"), v.to_string()]);
    }
    print!("{}", counters.markdown());
    println!();
    if let Some(pw) = profiled.iter().find(|p| p.label.starts_with("300.twolf")) {
        let cfg = RunConfig::default();
        // Throughputs come from the committed baseline, whose rows one
        // `cargo bench -p bench --bench replay` process timed back to
        // back: a few rounds timed here swung the ratio between about 3×
        // and 5× with the host's load.
        let baseline =
            RunRecord::from_bench_json(include_str!("../../../../BENCH_15.json"), "BENCH_15", 15)
                .expect("BENCH_15.json is a vp-bench/1 document");
        let eps = |row: &str| baseline.metrics[&format!("eps.{row}")];
        let (exec_eps, replay_eps) = (eps("execute"), eps("replay_batched"));
        let exec_ms = pw.trace.events() as f64 / exec_eps * 1e3;
        let per_inst = pw.trace.bytes() as f64 / pw.trace.events() as f64;
        println!(
            "Replay vs. re-execution on {} ({:.2}M retired instructions, {per_inst:.2}",
            pw.label,
            pw.trace.events() as f64 / 1e6
        );
        println!("B/inst encoded in this run), from the committed `BENCH_15.json` rows of");
        println!(
            "`cargo bench -p bench --bench replay`: execute {:.1}M events/s, replay",
            exec_eps / 1e6
        );
        println!(
            "{:.1}M events/s — {:.1}× faster. One process timed both rows, so the",
            replay_eps / 1e6,
            replay_eps / exec_eps
        );
        println!("ratio does not move with the host's load.");
        println!();
        mf.set(
            "replay_speedup",
            format!("{:.2}", replay_eps / exec_eps).into(),
        );

        // The persistence tier, measured on the same trace: serialize/write
        // and read/verify/decode through a throwaway on-disk store.
        let dir = std::env::temp_dir().join(format!("vp-report-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        if let Ok(tier) = DiskTier::new(&dir, u64::MAX) {
            let key = TraceKey::new(&pw.label, &pw.program, &pw.layout, &cfg);
            let t = Instant::now();
            tier.store(&key, &pw.trace).expect("persist trace");
            let store_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let loaded = tier.load(&key).expect("reload trace");
            let load_ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(loaded.events(), pw.trace.events(), "disk round trip");
            println!("With `VP_TRACE_DIR` set, captures persist across processes: the same");
            println!(
                "trace is {:.2} MB on disk (CRC-checked), serialize+write {store_ms:.1} ms,",
                tier.blobs().resident_bytes() as f64 / (1024.0 * 1024.0)
            );
            println!(
                "read+verify+decode {load_ms:.1} ms — a warmed rerun replaces the {exec_ms:.1} ms"
            );
            println!("interpretation with a {load_ms:.1} ms load per consumer-set.");
            println!();
            mf.set("disk_store_ms", format!("{store_ms:.2}").into());
            mf.set("disk_load_ms", format!("{load_ms:.2}").into());
            mf.set(
                "trace_v3_bytes",
                format!("{}", tier.blobs().resident_bytes()).into(),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);

        // -------------------------------------------- Replay throughput
        println!("## Replay throughput — execute vs. replay");
        println!();
        println!("`CapturedTrace::replay` is the one replay entry point: a single loop over");
        println!("the trace's parse cursor (`TraceCursor`) that calls the sink's one method,");
        println!("`Sink::retire`, with the same `ColEvent` live execution hands it. Every");
        println!(
            "row of the committed `BENCH_15.json` baseline ({} trace):",
            pw.label
        );
        println!();
        let mut rows = TextTable::new(vec!["row", "events/sec"]);
        for (name, v) in &baseline.metrics {
            if let Some(row) = name.strip_prefix("eps.") {
                rows.row(vec![format!("`{row}`"), format!("{:.1}M", v / 1e6)]);
            }
        }
        print!("{}", rows.markdown());
        println!();
        println!("`cargo bench -p bench --bench replay` measures the full matrix (execute,");
        println!("both capture shapes, replay into counters, the timing model and the");
        println!("detector, the differential replay alone and riding one measurement");
        println!("replay with counts and timing, the mapped disk load) and");
        println!("gates the same-process ratio `replay_speedup_vs_execute` against the");
        println!("committed `BENCH_15.json` baseline (`VP_BENCH_JSON`, `VP_BENCH_BASELINE`).");
        println!();
    }

    // ------------------------------------------- Harness self-profile
    let tree = vp_trace::tree_snapshot();
    if !tree.is_empty() {
        println!("## Harness self-profile — hierarchical span tree");
        println!();
        println!("Where this report run spent its own time: every `vp_trace::span` now");
        println!("records its parent, so nested stage timings aggregate into an");
        println!("attributable tree (indentation = nesting; totals include children;");
        println!("concurrent sweep cells attach to the dispatching stage via");
        println!("`span_in`). The same tree lands in the run manifest's `span_tree`");
        println!("field, where `dashboard manifest-diff` attributes regressions to the");
        println!("stage that moved.");
        println!();
        println!("```text");
        print!("{}", vp_trace::render_span_tree(&tree));
        println!("```");
        println!();
        mf.set("span_tree_nodes", (tree.len() as u64).into());
    }

    // Work-stealing scheduler totals, when any stage above fanned out
    // (`--jobs`/`VP_THREADS`); the same object lands in the manifest
    // as `sweep`.
    if let Some(sched) = bench::sched_manifest_value() {
        let num = |key: &str| sched.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        println!("### Sweep scheduler");
        println!();
        println!(
            "{} workers ran {} tasks across {} parallel stages in {:.0} ms of",
            num("jobs"),
            num("tasks"),
            num("runs"),
            num("wall_ms")
        );
        println!(
            "scheduler wall time, with {} steals. Per worker:",
            num("steals")
        );
        println!();
        let mut t = TextTable::new(vec![
            "worker",
            "executed",
            "stolen",
            "busy ms",
            "utilization",
        ]);
        for (i, w) in sched
            .get("workers")
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let f = |key: &str| w.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
            t.row(vec![
                i.to_string(),
                format!("{}", f("executed")),
                format!("{}", f("stolen")),
                format!("{:.0}", f("busy_ms")),
                format!("{:.0}%", f("utilization") * 100.0),
            ]);
        }
        print!("{t}");
        println!();
    }

    println!("## Reproducing");
    println!();
    println!("```text");
    println!("cargo run --release -p bench --bin table1    # Table 1");
    println!("cargo run --release -p bench --bin table2    # Table 2");
    println!("cargo run --release -p bench --bin fig8      # Figure 8");
    println!("cargo run --release -p bench --bin table3    # Table 3");
    println!("cargo run --release -p bench --bin fig9      # Figure 9");
    println!("cargo run --release -p bench --bin fig10     # Figure 10");
    println!("cargo run --release -p bench --bin ablation  # design-choice ablations");
    println!("cargo run --release -p bench --bin report    # this document");
    println!("cargo run --release -p bench --bin sweep     # sharded cell sweep (VP_SHARD=i/n; `sweep merge` joins shards)");
    println!("cargo run --release -p bench --bin sweep -- cross  # cross-input generalization matrix (see above)");
    println!("cargo run --release -p bench --bin dashboard  # offline HTML dashboard; `dashboard manifest-diff OLD NEW` gates regressions");
    println!("```");

    // Summary numbers for the manifest: the Figure 8 and Figure 10
    // average rows, one row per configuration.
    let average = |t: &TextTable| t.rows().last().expect("an average row").clone();
    let (cov_avg, spd_avg) = (average(&fig8), average(&fig10));
    let mut averages = TextTable::new(vec!["config", "avg coverage %", "avg speedup"]);
    for (i, label) in CONFIG_LABELS.iter().enumerate() {
        averages.row(vec![
            label.to_string(),
            cov_avg[i + 1].clone(),
            spd_avg[i + 1].clone(),
        ]);
    }
    bench::add_table(&mut mf, "averages", &averages);
    // The figure tables under the figure binaries' table names.
    for (name, t) in [
        ("table1", &table1),
        ("fig8_coverage", &fig8),
        ("table3", &table3),
        ("fig9_categorization", &fig9),
        ("fig10_speedup", &fig10),
    ] {
        bench::add_table(&mut mf, name, t);
    }
    bench::emit_manifest(mf);
}
