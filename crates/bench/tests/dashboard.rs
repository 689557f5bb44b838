//! End-to-end dashboard acceptance: the 3-phase workload (300.twolf)
//! renders a phase timeline plus a package-residency Gantt with exactly
//! one lane per package and at most one rect per pixel column per lane,
//! inside fully self-contained HTML.

use bench::dashboard::{
    collect_timeline, pixel_column, render_dashboard_html, render_timeline_svg, Dashboard,
    WorkloadTimeline,
};
use std::collections::BTreeSet;
use vacuum_packing::core::PackConfig;
use vacuum_packing::workloads::{twolf, Workload};

fn twolf_workload() -> Workload {
    Workload {
        bench: "300.twolf",
        input: "A",
        input_desc: "SPEC Train",
        program: twolf::build(1),
    }
}

/// twolf's inf/link timeline, from its memoized profile.
fn twolf_timeline() -> WorkloadTimeline {
    let cfg = PackConfig::evaluation_matrix()[3]; // inf/link
    let pw = bench::profile_workloads(vec![twolf_workload()], None).remove(0);
    collect_timeline(&pw, &cfg).expect("twolf timeline")
}

#[test]
fn twolf_timeline_svg_has_one_lane_per_package() {
    let t = twolf_timeline();

    assert_eq!(t.label, "300.twolf A");
    assert!(t.packages >= 1, "twolf must pack at least one package");
    assert!(
        t.phases
            .iter()
            .map(|m| m.phase)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            >= 2,
        "twolf has multiple annealing phases"
    );
    assert!(t.branches_total > 0 && t.events_total > 0);
    // Residency intervals tile the packed stream exactly.
    assert_eq!(
        t.intervals.iter().map(|iv| iv.end - iv.start).sum::<u64>(),
        t.events_total
    );
    assert!(
        t.intervals.iter().any(|iv| iv.package.is_some()),
        "a covered run must be resident in some package"
    );

    let svg = render_timeline_svg(&t);
    assert_eq!(
        svg.matches(r#"class="pkg-lane""#).count(),
        t.packages,
        "exactly one Gantt lane per package"
    );
    assert_eq!(svg.matches(r#"class="orig-lane""#).count(), 1);
    assert_eq!(
        svg.matches(r#"class="phase-mark""#).count(),
        t.phases.len(),
        "every detection appears on the phase strip"
    );
}

#[test]
fn twolf_lanes_draw_at_most_one_rect_per_pixel_column() {
    let t = twolf_timeline();
    let svg = render_timeline_svg(&t);
    // Each lane is one <g> group; its rects' titles start with the first
    // event they cover.
    let lanes: Vec<&str> = svg
        .split(r#"<g class=""#)
        .skip(1)
        .map(|g| &g[..g.find("</g>").expect("closed lane group")])
        .collect();
    assert_eq!(lanes.len(), t.packages + 1);
    for lane in lanes {
        let starts: Vec<u64> = lane
            .split("<title>events ")
            .skip(1)
            .map(|r| {
                r[..r.find("..").expect("event range")]
                    .parse()
                    .expect("start")
            })
            .collect();
        let columns: BTreeSet<u64> = starts
            .iter()
            .map(|&e| pixel_column(e, t.events_total))
            .collect();
        assert_eq!(
            columns.len(),
            starts.len(),
            "two rects of one lane start in one pixel column"
        );
    }
}

#[test]
fn twolf_dashboard_html_is_self_contained() {
    let t = twolf_timeline();
    let html = render_dashboard_html(&Dashboard {
        timelines: vec![t],
        heatmap: vec![("300.twolf A".to_string(), vec![0.1, 0.2, 0.3, 0.4])],
        flame: vp_trace::tree_snapshot(),
        trend: Vec::new(),
        ..Dashboard::default()
    });
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("300.twolf A"));
    assert!(html.contains(r#"class="pkg-lane""#));
    for needle in ["<script src", "<link", "https://", "fetch(", "@import"] {
        assert!(
            !html.contains(needle),
            "offline page must not reference external resources: {needle}"
        );
    }
}
