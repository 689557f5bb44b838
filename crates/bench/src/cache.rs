//! Result-cache key plumbing for the cell engine ([`crate::cells`]).
//!
//! The [`vacuum_packing::metrics::ResultCache`] memoizes per-cell
//! [`vacuum_packing::metrics::ConfigOutcome`]s; this module derives the
//! three fingerprints of its key from what a cell is *about to* do —
//! before any profiling or replay happens, which is what lets a workload
//! whose every selected cell is already cached skip profiling entirely.
//! The profile fingerprint is domain-separated by profile source (own,
//! foreign input, family merge), so one result directory serves the
//! `sweep` and `sweep cross` cell lists side by side.

use vacuum_packing::core::PackConfig;
use vacuum_packing::exec::{RunConfig, TraceKey};
use vacuum_packing::hsd::{FilterConfig, HsdConfig, MergeConfig};
use vacuum_packing::isa::Fnv;
use vacuum_packing::metrics::ResultKey;
use vacuum_packing::opt::OptConfig;
use vacuum_packing::program::Layout;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::workloads::Workload;

/// The trace fingerprint a workload's profile run would use: the
/// content [`TraceKey`] over the natural layout under the default
/// run limits — exactly what [`vacuum_packing::metrics::profile`]
/// captures or replays.
pub(crate) fn workload_trace_fp(wl: &Workload) -> u64 {
    let layout = Layout::natural(&wl.program);
    let key = TraceKey::new(&wl.label(), &wl.program, &layout, &RunConfig::default());
    ResultKey::trace_fingerprint(&key)
}

/// Profile fingerprint of an own-profile cell: the detector and filter
/// configurations the sweep profiles with. The driving trace is the
/// cell's own (already in the key's `trace_fp`).
pub(crate) fn own_profile_fp() -> u64 {
    let mut h = Fnv::new();
    h.write_str("profile:own");
    h.write_u64(HsdConfig::table2().fingerprint());
    h.write_u64(FilterConfig::default().fingerprint());
    h.finish()
}

/// Profile fingerprint of a cross-input cell: phases detected on
/// `src_trace_fp`'s run applied to another input of the same benchmark.
pub(crate) fn foreign_profile_fp(src_trace_fp: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_str("profile:foreign");
    h.write_u64(src_trace_fp);
    h.write_u64(HsdConfig::table2().fingerprint());
    h.write_u64(FilterConfig::default().fingerprint());
    h.finish()
}

/// Profile fingerprint of a merged-profile cell: the family's input
/// traces folded in suite order, plus the merge algebra's configuration.
pub(crate) fn merged_profile_fp(family_trace_fps: &[u64], merge: &MergeConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_str("profile:merged");
    h.write_usize(family_trace_fps.len());
    for &fp in family_trace_fps {
        h.write_u64(fp);
    }
    h.write_u64(HsdConfig::table2().fingerprint());
    h.write_u64(FilterConfig::default().fingerprint());
    h.write_u64(merge.fingerprint());
    h.finish()
}

/// Configuration fingerprint of one cell: every knob that steers the
/// pack/optimize/time/diff pipeline after the profile is fixed.
pub(crate) fn cell_config_fp(
    pack: &PackConfig,
    opt: &OptConfig,
    machine: Option<&MachineConfig>,
) -> u64 {
    let mut h = Fnv::new();
    h.write_str("config");
    h.write_u64(pack.fingerprint());
    h.write_u64(opt.fingerprint());
    match machine {
        Some(m) => {
            h.write_bool(true);
            h.write_u64(m.fingerprint());
        }
        None => h.write_bool(false),
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fp_separates_every_knob() {
        let base = cell_config_fp(
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&MachineConfig::table2()),
        );
        let no_inf = cell_config_fp(
            &PackConfig {
                inference: false,
                ..PackConfig::default()
            },
            &OptConfig::default(),
            Some(&MachineConfig::table2()),
        );
        assert_ne!(base, no_inf);
        let resched_only = cell_config_fp(
            &PackConfig::default(),
            &OptConfig {
                relayout: false,
                reschedule: true,
            },
            Some(&MachineConfig::table2()),
        );
        assert_ne!(base, resched_only);
        let untimed = cell_config_fp(&PackConfig::default(), &OptConfig::default(), None);
        assert_ne!(base, untimed);
        let wider = MachineConfig {
            issue_width: 4,
            ..MachineConfig::table2()
        };
        assert_ne!(
            base,
            cell_config_fp(&PackConfig::default(), &OptConfig::default(), Some(&wider))
        );
    }

    #[test]
    fn profile_fps_are_domain_separated() {
        let own = own_profile_fp();
        let foreign = foreign_profile_fp(0);
        let merged = merged_profile_fp(&[], &MergeConfig::default());
        assert_ne!(own, foreign);
        assert_ne!(own, merged);
        assert_ne!(foreign, merged);
        assert_ne!(foreign_profile_fp(1), foreign_profile_fp(2));
        assert_ne!(
            merged_profile_fp(&[1, 2], &MergeConfig::default()),
            merged_profile_fp(&[2, 1], &MergeConfig::default()),
            "family fold order participates"
        );
    }
}
