//! Offline phase-timeline dashboard: self-contained HTML/SVG with no
//! external resources.
//!
//! The `dashboard` binary renders, for each requested workload, a phase
//! timeline (when each filtered phase was detected, on the retired-branch
//! axis) over a package-residency Gantt chart (which package the packed
//! run lived in, on the retired-event axis), plus a coverage heatmap over
//! the evaluation matrix, a span-tree flame view of the harness's own
//! cost, and a throughput trend over the committed `BENCH_*.json`
//! baselines. Everything is plain inline SVG + CSS — the output opens
//! from a file:// URL with the network cable unplugged.
//!
//! All collection goes through the capture/replay layer: the original
//! run's profile is the memoized one the heatmap's cells use (see
//! [`crate::profile_workloads`]), the packed run is the optimized binary
//! the inf/link cell measured, captured under its `TraceKey::packed` key,
//! and the residency lanes come from replaying that capture into a
//! [`vacuum_packing::metrics::ResidencySink`].

use vacuum_packing::core::{pack, PackConfig};
use vacuum_packing::exec::{ExecError, RunConfig, TraceKey, TraceStore};
use vacuum_packing::hsd::{FilterConfig, HsdConfig};
use vacuum_packing::metrics::{
    phase_timeline, PhaseMark, ProfiledWorkload, ResidencyInterval, ResidencySink,
};
use vacuum_packing::opt::{optimize_packages, OptConfig};
use vacuum_packing::program::Layout;
use vacuum_packing::sim::MachineConfig;

/// Everything needed to draw one workload's row of the dashboard.
#[derive(Debug)]
pub struct WorkloadTimeline {
    /// Workload label, e.g. `"300.twolf A"`.
    pub label: String,
    /// Phase detections in detection order on the retired-branch axis.
    pub phases: Vec<PhaseMark>,
    /// Total branches retired by the original run (phase-axis length).
    pub branches_total: u64,
    /// Package-residency intervals of the packed run, in stream order.
    pub intervals: Vec<ResidencyInterval>,
    /// Total retired events of the packed run (residency-axis length).
    pub events_total: u64,
    /// Number of packages the pack built (one Gantt lane each).
    pub packages: usize,
}

/// Places `pw`'s phase detections on its original capture, packs it under
/// `cfg` and optimizes it as an evaluated cell does (default passes,
/// Table 2 machine), and replays the packed capture into residency
/// intervals — the dashboard's per-workload data model. The packed
/// capture is the one the cell's measurement made, when the trace store
/// still holds it.
///
/// # Errors
///
/// Propagates [`ExecError`] from the packed run.
pub fn collect_timeline(
    pw: &ProfiledWorkload,
    cfg: &PackConfig,
) -> Result<WorkloadTimeline, ExecError> {
    let _s = vp_trace::span("dashboard.collect");
    let (_, phases, branches_total) =
        phase_timeline(&pw.trace, &HsdConfig::table2(), &FilterConfig::default());

    let out = pack(&pw.program, &pw.layout, &pw.phases, cfg);
    let (program, order) = optimize_packages(&out, &MachineConfig::table2(), &OptConfig::default());
    let layout = Layout::new(&program, &order);
    let run_cfg = RunConfig::default();
    let key = TraceKey::packed(&pw.label, &program, &layout, &run_cfg, out.fingerprint());
    let mut sink = ResidencySink::new(out.identity_map());
    TraceStore::global()
        .obtain(key, &program, &layout, &run_cfg)?
        .replay(&mut sink);
    let events_total = sink.events();
    let intervals = sink.finish();
    Ok(WorkloadTimeline {
        label: pw.label.clone(),
        phases,
        branches_total,
        intervals,
        events_total,
        packages: out.packages.len(),
    })
}

/// [`collect_timeline`] for every profile, in parallel on the sweep
/// scheduler, preserving input order.
///
/// # Panics
///
/// Panics after the sweep completes if any timeline failed, listing every
/// failing label.
pub fn collect_timelines(profiled: &[ProfiledWorkload], cfg: &PackConfig) -> Vec<WorkloadTimeline> {
    let jobs: Vec<(String, &ProfiledWorkload)> =
        profiled.iter().map(|pw| (pw.label.clone(), pw)).collect();
    let results = crate::parallel_sweep(jobs, |pw| {
        collect_timeline(pw, cfg).unwrap_or_else(|e| panic!("{e}"))
    });
    crate::collect_or_report("dashboard_timelines", results)
}

/// Escapes `s` for use in XML/HTML text and attribute values.
pub fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// A small qualitative palette, cycled by index.
fn color(i: usize) -> &'static str {
    const PALETTE: [&str; 8] = [
        "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2", "#edc948", "#9c755f",
    ];
    PALETTE[i % PALETTE.len()]
}

const SVG_W: f64 = 960.0;
const GUTTER: f64 = 120.0;
const LANE_H: f64 = 18.0;
const LANE_GAP: f64 = 6.0;
const PHASE_STRIP_H: f64 = 22.0;

/// Width in pixels of a timeline's plot area: the pixel columns a lane's
/// residency intervals are drawn into.
const TIMELINE_PLOT_W: f64 = SVG_W - GUTTER - 10.0;

/// The pixel column of the plot area that retired event `event` of
/// `total` falls in.
pub fn pixel_column(event: u64, total: u64) -> u64 {
    (TIMELINE_PLOT_W * (event as f64 / total.max(1) as f64)).floor() as u64
}

/// Consecutive residency intervals of one lane drawn as one rect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PixelRun {
    /// First event of the first interval.
    start: u64,
    /// One past the last event of the last interval.
    end: u64,
    /// Events the lane was resident for within `start..end`.
    resident: u64,
    /// Intervals merged.
    intervals: usize,
}

/// Merges a lane's intervals (in stream order) that start in one pixel
/// column into one run, so a lane draws at most one rect per column
/// however often its package is entered.
fn pixel_runs<'a>(
    lane: impl Iterator<Item = &'a ResidencyInterval>,
    events_total: u64,
) -> Vec<PixelRun> {
    let mut runs: Vec<PixelRun> = Vec::new();
    for iv in lane {
        match runs.last_mut() {
            Some(run)
                if pixel_column(run.start, events_total)
                    == pixel_column(iv.start, events_total) =>
            {
                run.end = iv.end;
                run.resident += iv.len();
                run.intervals += 1;
            }
            _ => runs.push(PixelRun {
                start: iv.start,
                end: iv.end,
                resident: iv.len(),
                intervals: 1,
            }),
        }
    }
    runs
}

/// Renders one workload's phase timeline + package-residency Gantt as a
/// standalone `<svg>` element. Exactly one `class="pkg-lane"` group is
/// emitted per package, plus one `class="orig-lane"` group for unpacked
/// stretches; a lane draws at most one rect per pixel column.
pub fn render_timeline_svg(t: &WorkloadTimeline) -> String {
    let plot_w = TIMELINE_PLOT_W;
    let lanes = t.packages + 1; // lane 0 = original code
    let gantt_top = PHASE_STRIP_H + 18.0;
    let height = gantt_top + lanes as f64 * (LANE_H + LANE_GAP) + 24.0;
    let mut s = String::new();
    s.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" class="timeline" viewBox="0 0 {SVG_W} {height}" width="{SVG_W}" height="{height}">"#
    ));
    s.push_str(&format!(
        r#"<text x="0" y="12" class="svg-title">{}</text>"#,
        xml_escape(&t.label)
    ));

    // Phase strip: one tick per detection, colored by filtered phase id,
    // on the retired-branch axis.
    let bx = |at: u64| GUTTER + plot_w * (at as f64 / t.branches_total.max(1) as f64);
    s.push_str(&format!(
        r#"<text x="{GUTTER}" y="{}" text-anchor="end" class="lane-label">phases&#160;</text>"#,
        PHASE_STRIP_H + 8.0
    ));
    for m in &t.phases {
        s.push_str(&format!(
            r#"<rect class="phase-mark" x="{:.1}" y="{}" width="2.5" height="{}" fill="{}"><title>phase {} @ branch {}</title></rect>"#,
            bx(m.at_branch),
            6.0,
            PHASE_STRIP_H - 4.0,
            color(m.phase),
            m.phase,
            m.at_branch
        ));
    }

    // Gantt lanes on the retired-event axis: lane 0 is original code,
    // lane k+1 is package k. Each package's intervals live inside its
    // own <g class="pkg-lane"> group.
    let ex = |e: u64| GUTTER + plot_w * (e as f64 / t.events_total.max(1) as f64);
    let lane_y = |lane: usize| gantt_top + lane as f64 * (LANE_H + LANE_GAP);
    let rects_for = |pkg: Option<u32>, fill: &str| {
        let lane = pkg.map_or(0, |p| p as usize + 1);
        let y = lane_y(lane);
        let mut r = String::new();
        let lane_ivs = t.intervals.iter().filter(|iv| iv.package == pkg);
        for run in pixel_runs(lane_ivs, t.events_total) {
            let x0 = ex(run.start);
            let w = (ex(run.end) - x0).max(0.5);
            let title = if run.intervals == 1 {
                format!("events {}..{} ({})", run.start, run.end, run.resident)
            } else {
                format!(
                    "events {}..{} ({} resident in {} intervals)",
                    run.start, run.end, run.resident, run.intervals
                )
            };
            r.push_str(&format!(
                r#"<rect x="{x0:.1}" y="{y:.1}" width="{w:.1}" height="{LANE_H}" fill="{fill}"><title>{title}</title></rect>"#
            ));
        }
        r
    };

    s.push_str(r#"<g class="orig-lane">"#);
    s.push_str(&format!(
        r#"<text x="{GUTTER}" y="{:.1}" text-anchor="end" class="lane-label">original&#160;</text>"#,
        lane_y(0) + LANE_H - 5.0
    ));
    s.push_str(&rects_for(None, "#c7c7c7"));
    s.push_str("</g>");
    for k in 0..t.packages {
        s.push_str(&format!(r#"<g class="pkg-lane" data-package="{k}">"#));
        s.push_str(&format!(
            r#"<text x="{GUTTER}" y="{:.1}" text-anchor="end" class="lane-label">package {k}&#160;</text>"#,
            lane_y(k + 1) + LANE_H - 5.0
        ));
        s.push_str(&rects_for(Some(k as u32), color(k)));
        s.push_str("</g>");
    }

    s.push_str(&format!(
        r#"<text x="{GUTTER}" y="{:.1}" class="axis-note">0 .. {} retired events (packed run); {} branches (phase axis)</text>"#,
        height - 8.0,
        t.events_total,
        t.branches_total
    ));
    s.push_str("</svg>");
    s
}

/// Renders a labeled-rows × labeled-cols heatmap of fractions in `[0, 1]`
/// (the Figure 8 coverage matrix) as a standalone `<svg>` element.
pub fn render_heatmap_svg(rows: &[(String, Vec<f64>)], cols: &[&str]) -> String {
    let cell_w = 120.0;
    let cell_h = 24.0;
    let top = 40.0;
    let width = GUTTER + cols.len() as f64 * cell_w + 10.0;
    let height = top + rows.len() as f64 * cell_h + 10.0;
    let mut s = String::new();
    s.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" class="heatmap" viewBox="0 0 {width} {height}" width="{width}" height="{height}">"#
    ));
    for (c, name) in cols.iter().enumerate() {
        s.push_str(&format!(
            r#"<text x="{:.1}" y="{}" text-anchor="middle" class="col-label">{}</text>"#,
            GUTTER + (c as f64 + 0.5) * cell_w,
            top - 8.0,
            xml_escape(name)
        ));
    }
    for (r, (label, vals)) in rows.iter().enumerate() {
        let y = top + r as f64 * cell_h;
        s.push_str(&format!(
            r#"<text x="{GUTTER}" y="{:.1}" text-anchor="end" class="lane-label">{}&#160;</text>"#,
            y + cell_h - 8.0,
            xml_escape(label)
        ));
        for (c, v) in vals.iter().enumerate() {
            let v = v.clamp(0.0, 1.0);
            // White → saturated green ramp.
            let chan = |base: f64| (255.0 - v * (255.0 - base)).round() as u32;
            let fill = format!(
                "#{:02x}{:02x}{:02x}",
                chan(0x2e as f64),
                chan(0x7d as f64),
                chan(0x32 as f64)
            );
            let x = GUTTER + c as f64 * cell_w;
            s.push_str(&format!(
                r#"<rect class="heat-cell" x="{x:.1}" y="{y:.1}" width="{cell_w}" height="{cell_h}" fill="{fill}"/>"#
            ));
            s.push_str(&format!(
                r#"<text x="{:.1}" y="{:.1}" text-anchor="middle" class="cell-label" fill="{}">{:.1}%</text>"#,
                x + cell_w / 2.0,
                y + cell_h - 8.0,
                if v > 0.55 { "#ffffff" } else { "#1a1a1a" },
                v * 100.0
            ));
        }
    }
    s.push_str("</svg>");
    s
}

/// Folds evaluated generalization cells ([`crate::cross::cross_cells`])
/// into heatmap shape: one row per evaluated input (`"family eval"`),
/// one column per profile source in matrix order (inputs first, then
/// `merged`), cell value = packaged-instruction coverage. Returns
/// `(rows, column labels)` ready for [`render_heatmap_svg`].
pub fn generalization_heatmap(
    cells: &[crate::cross::CrossCell],
) -> (Vec<(String, Vec<f64>)>, Vec<String>) {
    let mut cols: Vec<String> = Vec::new();
    for c in cells {
        if !cols.contains(&c.profile) {
            cols.push(c.profile.clone());
        }
    }
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for c in cells {
        let label = format!("{} {}", c.family, c.eval);
        if !rows.iter().any(|(l, _)| *l == label) {
            rows.push((label.clone(), vec![0.0; cols.len()]));
        }
        let row = rows.iter_mut().find(|(l, _)| *l == label).unwrap();
        let col = cols.iter().position(|p| *p == c.profile).unwrap();
        row.1[col] = c.outcome.coverage;
    }
    (rows, cols)
}

/// Renders the aggregated span tree as an icicle-style flame view: one
/// bar per [`vp_trace::SpanNode`], indented by depth, width proportional
/// to its share of total root wall time.
pub fn render_flame_svg(nodes: &[vp_trace::SpanNode]) -> String {
    let bar_h = 20.0;
    let gap = 3.0;
    let top = 10.0;
    let height = top + nodes.len().max(1) as f64 * (bar_h + gap) + 10.0;
    let root_total: u64 = nodes.iter().filter(|n| n.depth == 0).map(|n| n.nanos).sum();
    let scale = SVG_W - GUTTER - 10.0;
    let mut s = String::new();
    s.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" class="flame" viewBox="0 0 {SVG_W} {height}" width="{SVG_W}" height="{height}">"#
    ));
    if nodes.is_empty() {
        s.push_str(r#"<text x="10" y="24" class="axis-note">no spans recorded</text>"#);
    }
    for (i, n) in nodes.iter().enumerate() {
        let y = top + i as f64 * (bar_h + gap);
        let frac = if root_total == 0 {
            0.0
        } else {
            n.nanos as f64 / root_total as f64
        };
        let x = GUTTER + n.depth as f64 * 14.0;
        let w = (frac * (scale - n.depth as f64 * 14.0)).max(1.0);
        s.push_str(&format!(
            r#"<rect class="flame-bar" x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{bar_h}" fill="{}"><title>{}: {} x, {:.3} ms ({:.1}%)</title></rect>"#,
            color(n.depth),
            xml_escape(&n.path),
            n.count,
            n.nanos as f64 / 1e6,
            frac * 100.0
        ));
        s.push_str(&format!(
            r#"<text x="{GUTTER}" y="{:.1}" text-anchor="end" class="lane-label">{}&#160;</text>"#,
            y + bar_h - 6.0,
            xml_escape(&n.name)
        ));
        s.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" class="cell-label">{:.2} ms ({} x)</text>"#,
            x + w + 6.0,
            y + bar_h - 6.0,
            n.nanos as f64 / 1e6,
            n.count
        ));
    }
    s.push_str("</svg>");
    s
}

/// Loads the replay-throughput trend from committed `BENCH_*.json`
/// baselines in `dir`, ordered by PR number: `(file stem, batched replay
/// events/sec)`. Reads [`crate::history::bench_baseline_records`], so files
/// that fail to parse or carry no batched replay row are skipped.
pub fn load_bench_trend(dir: &std::path::Path) -> Vec<(String, f64)> {
    crate::history::bench_baseline_records(dir)
        .into_iter()
        .filter_map(|r| Some((r.label, *r.metrics.get("eps.replay_batched")?)))
        .collect()
}

/// Renders the throughput trend (batched replay events/sec per committed
/// baseline) as a standalone `<svg>` line chart.
pub fn render_trend_svg(points: &[(String, f64)]) -> String {
    let height = 180.0;
    let top = 16.0;
    let bottom = height - 28.0;
    let plot_w = SVG_W - GUTTER - 20.0;
    let mut s = String::new();
    s.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" class="trend" viewBox="0 0 {SVG_W} {height}" width="{SVG_W}" height="{height}">"#
    ));
    if points.is_empty() {
        s.push_str(
            r#"<text x="10" y="24" class="axis-note">no BENCH_*.json baselines found</text>"#,
        );
        s.push_str("</svg>");
        return s;
    }
    let max = points.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let px = |i: usize| {
        GUTTER
            + if points.len() == 1 {
                plot_w / 2.0
            } else {
                plot_w * i as f64 / (points.len() - 1) as f64
            }
    };
    let py = |v: f64| bottom - (bottom - top) * (v / max.max(1.0));
    let path: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(i, (_, v))| format!("{:.1},{:.1}", px(i), py(*v)))
        .collect();
    s.push_str(&format!(
        r#"<polyline class="trend-line" points="{}" fill="none" stroke="{}" stroke-width="2"/>"#,
        path.join(" "),
        color(0)
    ));
    for (i, (label, v)) in points.iter().enumerate() {
        s.push_str(&format!(
            r#"<circle cx="{:.1}" cy="{:.1}" r="3.5" fill="{}"><title>{}: {:.2}M events/s</title></circle>"#,
            px(i),
            py(*v),
            color(0),
            xml_escape(label),
            v / 1e6
        ));
        s.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="middle" class="cell-label">{}</text>"#,
            px(i),
            height - 10.0,
            xml_escape(label)
        ));
        s.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="middle" class="cell-label">{:.1}M/s</text>"#,
            px(i),
            py(*v) - 8.0,
            v / 1e6
        ));
    }
    s.push_str(&format!(
        r#"<text x="{GUTTER}" y="{top}" text-anchor="end" class="lane-label">batched replay&#160;</text>"#
    ));
    s.push_str("</svg>");
    s
}

/// One warehouse-sourced metric series for the cross-run trend table:
/// a sparkline row with changepoint markers.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HistorySeries {
    /// Row label: `"<bin> <metric>"`.
    pub label: String,
    /// `(run label, value)` per warehoused run, oldest first.
    pub points: Vec<(String, f64)>,
    /// Indices into `points` flagged by [`crate::history::changepoints`].
    pub marks: Vec<usize>,
}

/// At most this many sparkline rows render; the section notes how many
/// series were dropped when the warehouse tracks more.
pub const MAX_HISTORY_ROWS: usize = 16;

/// Folds warehoused run records into per-`(bin, metric)` sparkline
/// series: run duration first, then every derived metric, then raw
/// counters — each kept only when at least two runs carry it, so
/// one-off fields don't produce flat single-point rows.
pub fn load_history_series(records: &[crate::history::RunRecord]) -> Vec<HistorySeries> {
    use std::collections::BTreeMap;
    let mut recs: Vec<&crate::history::RunRecord> = records.iter().collect();
    recs.sort_by_key(|r| r.ts);
    // (bin, rank, name) -> points; rank orders duration < metrics < counters.
    let mut series: BTreeMap<(String, u8, String), Vec<(String, f64)>> = BTreeMap::new();
    for r in &recs {
        let run = if r.label.is_empty() {
            format!("ts{}", r.ts)
        } else {
            r.label.clone()
        };
        let mut push = |rank: u8, name: &str, v: f64| {
            series
                .entry((r.bin.clone(), rank, name.to_string()))
                .or_default()
                .push((run.clone(), v));
        };
        if let Some(ms) = r.duration_ms {
            push(0, "duration_ms", ms);
        }
        for (name, v) in &r.metrics {
            push(1, name, *v);
        }
        for (name, v) in &r.counters {
            push(2, name, *v as f64);
        }
    }
    series
        .into_iter()
        .filter(|(_, pts)| pts.len() >= 2)
        .map(|((bin, _, name), points)| {
            let values: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
            HistorySeries {
                label: format!("{bin} {name}"),
                marks: crate::history::changepoints(&values),
                points,
            }
        })
        .collect()
}

/// Renders one series as an inline sparkline `<svg>`: a normalized
/// polyline with red circles on changepoint runs.
pub fn render_sparkline_svg(s: &HistorySeries) -> String {
    let (w, h, pad) = (160.0, 26.0, 3.0);
    let mut svg = format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" class="spark" viewBox="0 0 {w} {h}" width="{w}" height="{h}">"#
    );
    let values: Vec<f64> = s.points.iter().map(|(_, v)| *v).collect();
    let (min, max) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    let span = (max - min).max(f64::EPSILON);
    let px = |i: usize| {
        pad + if values.len() == 1 {
            (w - 2.0 * pad) / 2.0
        } else {
            (w - 2.0 * pad) * i as f64 / (values.len() - 1) as f64
        }
    };
    let py = |v: f64| h - pad - (h - 2.0 * pad) * ((v - min) / span);
    let path: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{:.1},{:.1}", px(i), py(*v)))
        .collect();
    svg.push_str(&format!(
        r#"<polyline class="spark-line" points="{}" fill="none" stroke="{}" stroke-width="1.5"/>"#,
        path.join(" "),
        color(0)
    ));
    for &i in &s.marks {
        if let Some((label, v)) = s.points.get(i) {
            svg.push_str(&format!(
                r##"<circle class="spark-mark" cx="{:.1}" cy="{:.1}" r="2.5" fill="#c0392b"><title>changepoint at {}: {v}</title></circle>"##,
                px(i),
                py(*v),
                xml_escape(label),
            ));
        }
    }
    svg.push_str("</svg>");
    svg
}

/// Renders the cross-run trend table: one sparkline row per tracked
/// series, latest value, delta vs the previous run, and changepoint
/// count. Series beyond [`MAX_HISTORY_ROWS`] are dropped with a note.
pub fn render_history_html(series: &[HistorySeries]) -> String {
    let mut h = String::new();
    let shown = &series[..series.len().min(MAX_HISTORY_ROWS)];
    h.push_str(
        "<table>\n<tr><th>series</th><th>trend</th><th>runs</th>\
         <th>latest</th><th>&#916; vs prev</th><th>changepoints</th></tr>\n",
    );
    for s in shown {
        let n = s.points.len();
        let latest = s.points.last().map_or(0.0, |(_, v)| *v);
        let delta = if n >= 2 {
            let prev = s.points[n - 2].1;
            if prev.abs() > f64::EPSILON {
                format!("{:+.1}%", (latest / prev - 1.0) * 100.0)
            } else {
                "—".to_string()
            }
        } else {
            "—".to_string()
        };
        h.push_str(&format!(
            "<tr><td class=\"series\">{}</td><td>{}</td><td>{n}</td>\
             <td>{latest:.4}</td><td>{delta}</td><td>{}</td></tr>\n",
            xml_escape(&s.label),
            render_sparkline_svg(s),
            s.marks.len(),
        ));
    }
    h.push_str("</table>\n");
    if series.len() > shown.len() {
        h.push_str(&format!(
            "<p class=\"note\">{} more series tracked in the warehouse; \
             narrow with <code>sweep history series</code>.</p>\n",
            series.len() - shown.len()
        ));
    }
    h
}

/// All sections of a rendered dashboard.
#[derive(Debug, Default)]
pub struct Dashboard {
    /// One timeline per requested workload.
    pub timelines: Vec<WorkloadTimeline>,
    /// `(workload label, coverage per config)` heatmap rows.
    pub heatmap: Vec<(String, Vec<f64>)>,
    /// Cross-input generalization heatmap rows (`"family eval"`, coverage
    /// per profile column) — empty when no multi-input family was
    /// selected, which hides the section.
    pub generalization: Vec<(String, Vec<f64>)>,
    /// Column labels of `generalization` (input names, then `merged`).
    pub generalization_cols: Vec<String>,
    /// The harness's own span tree (`vp_trace::tree_snapshot`).
    pub flame: Vec<vp_trace::SpanNode>,
    /// Work-stealing scheduler totals for this process
    /// ([`crate::sched_manifest_value`]) — `None` when every stage ran
    /// sequentially, which hides the table.
    pub sched: Option<vp_trace::Json>,
    /// `(baseline label, batched replay events/sec)` trend points.
    pub trend: Vec<(String, f64)>,
    /// Warehouse-sourced cross-run series ([`load_history_series`]) —
    /// empty when `VP_HISTORY_DIR` is unset, which hides the section.
    pub history: Vec<HistorySeries>,
}

/// Renders the scheduler-telemetry table from the `sweep` manifest
/// object: worker count, task/steal totals, and per-worker utilization
/// of the wall time the parallel stages spanned.
pub fn render_sched_html(sched: &vp_trace::Json) -> String {
    let num = |key: &str| sched.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
    let mut h = String::new();
    h.push_str(&format!(
        "<p class=\"note\">Work-stealing sweep scheduler: {} workers ran {} tasks across \
         {} parallel stages in {:.0} ms of scheduler wall time; {} steals.</p>\n",
        num("jobs"),
        num("tasks"),
        num("runs"),
        num("wall_ms"),
        num("steals"),
    ));
    h.push_str("<table>\n<tr><th>worker</th><th>executed</th><th>stolen</th><th>busy ms</th><th>utilization</th></tr>\n");
    for (i, w) in sched
        .get("workers")
        .and_then(|v| v.as_arr())
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let f = |key: &str| w.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        h.push_str(&format!(
            "<tr><td>{i}</td><td>{}</td><td>{}</td><td>{:.0}</td><td>{:.0}%</td></tr>\n",
            f("executed"),
            f("stolen"),
            f("busy_ms"),
            f("utilization") * 100.0,
        ));
    }
    h.push_str("</table>\n");
    h
}

/// Assembles the self-contained dashboard HTML: inline CSS, inline SVG,
/// zero external requests.
pub fn render_dashboard_html(d: &Dashboard) -> String {
    let mut h = String::new();
    h.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    h.push_str("<title>vacuum-packing dashboard</title>\n<style>\n");
    h.push_str(
        "body{font:14px/1.5 -apple-system,system-ui,sans-serif;margin:24px auto;max-width:1000px;color:#1a1a1a}\n\
         h1{font-size:22px} h2{font-size:17px;margin-top:32px;border-bottom:1px solid #ddd;padding-bottom:4px}\n\
         svg{display:block;margin:12px 0}\n\
         .svg-title{font-size:13px;font-weight:600}\n\
         .lane-label,.col-label,.axis-note,.cell-label{font-size:10px;fill:#444}\n\
         .phase-mark:hover,.heat-cell:hover,.flame-bar:hover{opacity:.7}\n\
         p.note{color:#555}\n\
         table{border-collapse:collapse;margin:12px 0}\n\
         th,td{border:1px solid #ddd;padding:3px 8px;font-size:12px;text-align:right}\n\
         th{background:#f5f5f5}\n\
         svg.spark{display:inline-block;margin:0;vertical-align:middle}\n\
         td.series{text-align:left;font-family:ui-monospace,monospace}\n",
    );
    h.push_str("</style>\n</head>\n<body>\n<h1>vacuum-packing dashboard</h1>\n");
    h.push_str(
        "<p class=\"note\">Rendered offline by <code>cargo run -p bench --bin dashboard</code>; \
         all data comes from capture/replay — no workload executes more than once per key, \
         and this page loads no external resources.</p>\n",
    );

    h.push_str("<h2>Phase timelines &amp; package residency</h2>\n");
    h.push_str(
        "<p class=\"note\">Top strip: hot-spot detections colored by filtered phase, on the \
         retired-branch axis of the original run. Lanes: which package (or original code) the \
         packed run's retired stream was resident in, one lane per package.</p>\n",
    );
    for t in &d.timelines {
        h.push_str(&render_timeline_svg(t));
        h.push('\n');
    }

    h.push_str("<h2>Coverage heatmap</h2>\n");
    h.push_str(
        "<p class=\"note\">Packaged-instruction coverage per (workload, configuration) — \
         the Figure 8 matrix.</p>\n",
    );
    h.push_str(&render_heatmap_svg(&d.heatmap, &crate::CONFIG_LABELS));
    h.push('\n');

    if !d.generalization.is_empty() {
        h.push_str("<h2>Cross-input generalization</h2>\n");
        h.push_str(
            "<p class=\"note\">Coverage per (evaluated input, profile source) under the \
             strongest configuration: the diagonal is the same-input baseline, off-diagonal \
             columns pack with a sibling input's profile, and the <code>merged</code> column \
             uses the family's weighted profile union (<code>vp_hsd::merge</code>). See \
             EXPERIMENTS.md &quot;Cross-input generalization&quot;.</p>\n",
        );
        let cols: Vec<&str> = d.generalization_cols.iter().map(String::as_str).collect();
        h.push_str(&render_heatmap_svg(&d.generalization, &cols));
        h.push('\n');
    }

    h.push_str("<h2>Harness self-profile (span tree)</h2>\n");
    h.push_str(
        "<p class=\"note\">Where the dashboard run itself spent its time: the hierarchical \
         span tree, indented by nesting depth, bar width proportional to share of root wall \
         time.</p>\n",
    );
    h.push_str(&render_flame_svg(&d.flame));
    h.push('\n');
    if let Some(sched) = &d.sched {
        h.push_str(&render_sched_html(sched));
    }

    h.push_str("<h2>Replay throughput trend</h2>\n");
    h.push_str(
        "<p class=\"note\">Batched replay events/sec from the committed \
         <code>BENCH_*.json</code> baselines, in PR order.</p>\n",
    );
    h.push_str(&render_trend_svg(&d.trend));
    h.push('\n');

    if !d.history.is_empty() {
        h.push_str("<h2>Cross-run history trends</h2>\n");
        h.push_str(
            "<p class=\"note\">Sparklines from the <code>VP_HISTORY_DIR</code> run-history \
             warehouse, one row per tracked counter/metric, oldest run on the left. Red dots \
             mark changepoints: runs outside the median&#177;3&#183;MAD band of the window \
             before them (<code>bench::history::changepoints</code>).</p>\n",
        );
        h.push_str(&render_history_html(&d.history));
    }
    h.push_str("</body>\n</html>\n");
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_timeline() -> WorkloadTimeline {
        WorkloadTimeline {
            label: "synthetic W".to_string(),
            phases: vec![
                PhaseMark {
                    at_branch: 10,
                    phase: 0,
                },
                PhaseMark {
                    at_branch: 60,
                    phase: 1,
                },
            ],
            branches_total: 100,
            intervals: vec![
                ResidencyInterval {
                    start: 0,
                    end: 40,
                    package: Some(0),
                },
                ResidencyInterval {
                    start: 40,
                    end: 55,
                    package: None,
                },
                ResidencyInterval {
                    start: 55,
                    end: 90,
                    package: Some(1),
                },
            ],
            events_total: 90,
            packages: 2,
        }
    }

    #[test]
    fn timeline_svg_has_one_lane_per_package() {
        let t = synthetic_timeline();
        let svg = render_timeline_svg(&t);
        assert_eq!(svg.matches(r#"class="pkg-lane""#).count(), t.packages);
        assert_eq!(svg.matches(r#"class="orig-lane""#).count(), 1);
        assert_eq!(svg.matches(r#"class="phase-mark""#).count(), t.phases.len());
    }

    #[test]
    fn timeline_svg_merges_intervals_within_a_pixel_column() {
        // 100k one-event intervals alternating between package 0 and
        // original code: each lane draws one rect per pixel column.
        let n = 100_000u64;
        let t = WorkloadTimeline {
            intervals: (0..n)
                .map(|i| ResidencyInterval {
                    start: i,
                    end: i + 1,
                    package: (i % 2 == 0).then_some(0),
                })
                .collect(),
            events_total: n,
            packages: 1,
            ..synthetic_timeline()
        };
        let svg = render_timeline_svg(&t);
        let columns = TIMELINE_PLOT_W as usize;
        assert_eq!(svg.matches("<title>events ").count(), 2 * columns);
        let runs = pixel_runs(t.intervals.iter().filter(|iv| iv.package.is_some()), n);
        assert_eq!(runs.len(), columns);
        assert_eq!(runs.iter().map(|r| r.resident).sum::<u64>(), n / 2);
        assert_eq!(
            runs.iter().map(|r| r.intervals).sum::<usize>(),
            n as usize / 2
        );
        assert!(svg.contains("<title>events 0..121 (61 resident in 61 intervals)</title>"));
    }

    #[test]
    fn timeline_svg_escapes_labels() {
        let mut t = synthetic_timeline();
        t.label = "a<b>&\"c\"".to_string();
        let svg = render_timeline_svg(&t);
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(!svg.contains("a<b>"));
    }

    #[test]
    fn heatmap_svg_covers_every_cell() {
        let rows = vec![
            ("w1".to_string(), vec![0.1, 0.9]),
            ("w2".to_string(), vec![0.5, 1.0]),
        ];
        let svg = render_heatmap_svg(&rows, &["cfgA", "cfgB"]);
        assert_eq!(svg.matches(r#"class="heat-cell""#).count(), 4);
        assert!(svg.contains("cfgA") && svg.contains("cfgB"));
        assert!(svg.contains("100.0%"));
    }

    #[test]
    fn flame_svg_renders_one_bar_per_node() {
        let nodes = vec![
            vp_trace::SpanNode {
                path: "root".to_string(),
                name: "root".to_string(),
                depth: 0,
                count: 1,
                nanos: 10_000_000,
            },
            vp_trace::SpanNode {
                path: "root/child".to_string(),
                name: "child".to_string(),
                depth: 1,
                count: 3,
                nanos: 4_000_000,
            },
        ];
        let svg = render_flame_svg(&nodes);
        assert_eq!(svg.matches(r#"class="flame-bar""#).count(), 2);
        assert!(svg.contains("root/child"), "tooltip carries the full path");
    }

    #[test]
    fn trend_svg_handles_empty_and_plots_points() {
        assert!(render_trend_svg(&[]).contains("no BENCH_"));
        let svg = render_trend_svg(&[
            ("BENCH_5".to_string(), 100e6),
            ("BENCH_6".to_string(), 120e6),
        ]);
        assert!(svg.contains("polyline"));
        assert!(svg.contains("BENCH_5") && svg.contains("BENCH_6"));
    }

    #[test]
    fn bench_trend_reads_and_orders_baselines() {
        let dir = std::env::temp_dir().join(format!("vp-dash-trend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_10.json"),
            r#"{"schema":"vp-bench/1","events_per_sec":{"replay_batched":2.5e8}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_5.json"),
            r#"{"schema":"vp-bench/1","events_per_sec":{"replay_batched":1.5e8}}"#,
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_bad.json"), "not json").unwrap();
        std::fs::write(dir.join("README.md"), "ignored").unwrap();
        let trend = load_bench_trend(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            trend,
            vec![
                ("BENCH_5".to_string(), 1.5e8),
                ("BENCH_10".to_string(), 2.5e8)
            ],
            "numeric order, parse failures skipped"
        );
    }

    /// A `sweep` manifest object like [`crate::sched_manifest_value`]
    /// produces: 4 workers, one of them fed entirely by steals.
    fn synthetic_sched() -> vp_trace::Json {
        vp_trace::Json::parse(
            r#"{"jobs":4,"runs":2,"tasks":12,"steals":3,"wall_ms":80.0,
                "workers":[{"executed":5,"stolen":0,"busy_ms":70.0,"utilization":0.875},
                           {"executed":3,"stolen":3,"busy_ms":60.0,"utilization":0.75}]}"#,
        )
        .expect("synthetic sched json")
    }

    #[test]
    fn sched_table_reports_per_worker_utilization() {
        let html = render_sched_html(&synthetic_sched());
        assert!(html.contains("12 tasks"));
        assert!(html.contains("3 steals"));
        assert!(html.contains("<td>88%</td>"), "{html}");
        assert!(html.contains("<td>75%</td>"), "{html}");
    }

    #[test]
    fn dashboard_html_is_self_contained() {
        let d = Dashboard {
            timelines: vec![synthetic_timeline()],
            heatmap: vec![("w".to_string(), vec![0.5, 0.6, 0.7, 0.8])],
            generalization: vec![("130.li A".to_string(), vec![0.9, 0.0, 0.9])],
            generalization_cols: vec!["A".to_string(), "B".to_string(), "merged".to_string()],
            flame: Vec::new(),
            sched: Some(synthetic_sched()),
            trend: vec![("BENCH_5".to_string(), 1e8)],
            history: vec![HistorySeries {
                label: "sweep events_total".to_string(),
                points: vec![
                    ("r1".to_string(), 100.0),
                    ("r2".to_string(), 102.0),
                    ("r3".to_string(), 250.0),
                ],
                marks: vec![2],
            }],
        };
        let html = render_dashboard_html(&d);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains(r#"class="pkg-lane""#));
        assert!(html.contains("Cross-input generalization"));
        assert!(html.contains("Cross-run history trends"));
        assert!(
            html.contains(r#"class="spark-mark""#),
            "changepoint marker must render in the sparkline"
        );
        assert!(
            html.contains("Work-stealing sweep scheduler: 4 workers"),
            "scheduler telemetry table must render when sched totals exist"
        );
        assert!(html.contains("<th>utilization</th>"));
        for needle in ["<script src", "<link", "https://", "fetch("] {
            assert!(
                !html.contains(needle),
                "self-contained page must not reference external resources: {needle}"
            );
        }
    }

    #[test]
    fn generalization_section_hides_when_empty() {
        let html = render_dashboard_html(&Dashboard::default());
        assert!(!html.contains("Cross-input generalization"));
        assert!(!html.contains("Cross-run history trends"));
    }

    #[test]
    fn history_series_fold_orders_runs_and_skips_single_points() {
        use crate::history::RunRecord;
        let rec = |ts: u64, label: &str, eps: f64| {
            let mut r = RunRecord {
                ts,
                bin: "sweep".to_string(),
                label: label.to_string(),
                duration_ms: Some(10.0 * ts as f64),
                ..RunRecord::default()
            };
            r.metrics.insert("eps".to_string(), eps);
            r
        };
        let mut records = vec![rec(2, "b", 2e6), rec(1, "a", 1e6)];
        // A field only one run carries must not become a row.
        records[0].counters.insert("once".to_string(), 7);
        let series = load_history_series(&records);
        let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["sweep duration_ms", "sweep eps"]);
        assert_eq!(
            series[1].points,
            vec![("a".to_string(), 1e6), ("b".to_string(), 2e6)],
            "points must be oldest-first regardless of input order"
        );
    }

    #[test]
    fn history_table_caps_rows_and_reports_delta() {
        let s = |i: usize| HistorySeries {
            label: format!("bin m{i}"),
            points: vec![("a".to_string(), 100.0), ("b".to_string(), 150.0)],
            marks: Vec::new(),
        };
        let many: Vec<_> = (0..MAX_HISTORY_ROWS + 3).map(s).collect();
        let html = render_history_html(&many);
        assert!(html.contains("+50.0%"));
        assert!(html.contains("3 more series tracked"));
        assert!(!html.contains(&format!("bin m{}", MAX_HISTORY_ROWS + 1)));
    }

    #[test]
    fn generalization_heatmap_folds_cells_into_matrix_shape() {
        use vacuum_packing::metrics::ConfigOutcome;
        let cell =
            |family: &str, eval: &str, profile: &str, kind, coverage| crate::cross::CrossCell {
                cell: 0,
                family: family.to_string(),
                eval: eval.to_string(),
                profile: profile.to_string(),
                kind,
                outcome: ConfigOutcome {
                    coverage,
                    ..ConfigOutcome::default()
                },
            };
        use crate::cross::Kind;
        let cells = vec![
            cell("130.li", "A", "A", Kind::Same, 0.95),
            cell("130.li", "A", "B", Kind::Foreign, 0.10),
            cell("130.li", "A", "merged", Kind::Merged, 0.95),
            cell("130.li", "B", "A", Kind::Foreign, 0.20),
            cell("130.li", "B", "B", Kind::Same, 0.90),
            cell("130.li", "B", "merged", Kind::Merged, 0.90),
        ];
        let (rows, cols) = generalization_heatmap(&cells);
        assert_eq!(cols, vec!["A", "B", "merged"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "130.li A");
        assert_eq!(rows[0].1, vec![0.95, 0.10, 0.95]);
        assert_eq!(rows[1].1, vec![0.20, 0.90, 0.90]);
    }
}
