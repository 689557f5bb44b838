//! Profile merge algebra: combining HSD dumps from multiple runs.
//!
//! The paper trains and evaluates on the same input, but
//! hardware-counter PGO in production must tolerate *foreign* profiles:
//! a binary is profiled on yesterday's traffic (or on another machine's
//! traffic) and optimized for today's. This module gives multi-run
//! profiles an algebra:
//!
//! * a [`ProfileDump`] is one run's software-filtered phase set plus the
//!   run's retired-instruction count (its natural weight);
//! * a [`MergedProfile`] is a *set* of dumps, keyed by content
//!   fingerprint. [`MergedProfile::union`] is set union, which makes
//!   merge **associative**, **commutative**, and **idempotent** by
//!   construction — the laws the `properties` suite pins;
//! * [`MergedProfile::resolve`] derives one combined phase set from the
//!   dump set. It is a pure function of the set (dumps are visited in
//!   fingerprint order, never insertion order), so the laws carry over
//!   from the set level to the resolved phases.
//!
//! Resolution pools every dump's phases and clusters them with the
//! paper's Section 3.1 similarity criteria, applied phase-to-phase: two
//! phases are the *same* hot spot unless ≥30% of one's branches are
//! missing from the other, or a biased branch common to both flips
//! direction. A bias flip is exactly how *conflicting* phase signatures
//! are resolved: the conflicting detections stay separate phases rather
//! than averaging into a profile that matches neither run.
//!
//! Branch counts are combined **saturating-counter-aware**: per-run
//! counts live in the BBB's hardware counter scale (9 bits, max 511,
//! in the Table 2 configuration) and the region-identification
//! thresholds (the 25% flow rule, the execution threshold of 16) are
//! calibrated to that scale. Merged counts are therefore
//! weighted *averages* — weights proportional to each run's retired
//! instructions (or uniform under [`Weighting::Uniform`]) — clamped to
//! the counter maximum, never sums: merging five runs must not make a
//! branch look five times hotter than the hardware could ever report.
//!
//! ```
//! use vp_hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig};
//! use vp_hsd::merge::{MergeConfig, MergedProfile, ProfileDump};
//!
//! // Two profiling runs of the "same binary" on different inputs: input A
//! // spends its time in a loop at 0x1000, input B in a loop at 0x9000.
//! let run = |label: &str, base: u64| {
//!     let mut det = HotSpotDetector::new(HsdConfig::table2());
//!     for _ in 0..4000 {
//!         for b in 0..8u64 {
//!             det.observe(base + 4 * b, true);
//!         }
//!     }
//!     let phases = filter_hot_spots(det.records(), &FilterConfig::default());
//!     ProfileDump::new(label, 32_000, phases)
//! };
//! let a = run("input A", 0x1000);
//! let b = run("input B", 0x9000);
//!
//! let mut merged = MergedProfile::new(MergeConfig::default());
//! merged.absorb(a.clone());
//! merged.absorb(b.clone());
//! let phases = merged.resolve();
//! // Disjoint hot spots survive as distinct phases; a packed binary built
//! // from this profile covers both inputs' loops.
//! assert_eq!(phases.len(), 2);
//!
//! // The algebra: self-merge is a no-op, and order does not matter.
//! let ab = MergedProfile::of(MergeConfig::default(), [a.clone(), b.clone()]);
//! let ba = MergedProfile::of(MergeConfig::default(), [b, a.clone()]);
//! assert_eq!(ab.resolve(), ba.resolve());
//! assert_eq!(ab.union(&ab).resolve(), ab.resolve());
//! let self_merge = MergedProfile::of(MergeConfig::default(), [a.clone(), a.clone()]);
//! assert_eq!(
//!     self_merge.resolve(),
//!     MergedProfile::of(MergeConfig::default(), [a]).resolve(),
//! );
//! ```

use crate::filter::{Bias, FilterConfig, Phase, PhaseBranch};
use std::collections::BTreeMap;
use vp_trace::{Counter, Histogram};

/// Dumps absorbed into merged profiles (deduplicated ones excluded).
static MERGE_DUMPS: Counter = Counter::new("profile.merge.dumps");
/// Dumps dropped because an identical dump (same fingerprint) was
/// already present — the idempotence path.
static MERGE_DEDUP: Counter = Counter::new("profile.merge.dedup");
/// Union operations performed.
static MERGE_UNIONS: Counter = Counter::new("profile.merge.unions");
/// Resolutions performed.
static MERGE_RESOLVES: Counter = Counter::new("profile.merge.resolves");
/// Phases pooled into resolution (over all dumps).
static MERGE_PHASES_IN: Counter = Counter::new("profile.merge.phases_in");
/// Phases produced by resolution.
static MERGE_PHASES_OUT: Counter = Counter::new("profile.merge.phases_out");
/// Pooled phases eliminated into an existing cluster.
static MERGE_CLUSTERED: Counter = Counter::new("profile.merge.clustered");
/// Common branches whose bias classes disagreed across runs and were
/// resolved by weighted dominance (flips severe enough to split phases
/// never reach this path).
static MERGE_BIAS_RESOLVED: Counter = Counter::new("profile.merge.bias_resolved");
/// Merged branch counts clamped at the hardware counter maximum.
static MERGE_SATURATED: Counter = Counter::new("profile.merge.saturated");
/// Source phases per resolved phase — how much each resolved phase was
/// corroborated across runs.
static MERGE_CLUSTER_SIZE: Histogram = Histogram::new("profile.merge.cluster_size");
/// Retired-instruction count of each absorbed dump — the weight spread
/// the normalization works against.
static MERGE_DUMP_RETIRED: Histogram = Histogram::new("profile.merge.dump_retired");

/// How per-run weights are assigned when combining branch counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weighting {
    /// Weight each run by its retired-instruction count — a long run's
    /// counter image dominates a short run's (the default).
    #[default]
    Retired,
    /// Weight every run equally regardless of length.
    Uniform,
}

impl Weighting {
    /// Reads `VP_MERGE_WEIGHT` (`retired` or `uniform`; default
    /// `retired`).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value — a silently misread weighting
    /// would corrupt every merged profile in the run.
    pub fn from_env() -> Weighting {
        match std::env::var("VP_MERGE_WEIGHT") {
            Ok(s) => match s.trim() {
                "retired" => Weighting::Retired,
                "uniform" => Weighting::Uniform,
                other => panic!("VP_MERGE_WEIGHT must be retired|uniform, got {other:?}"),
            },
            Err(_) => Weighting::Retired,
        }
    }
}

/// Configuration of the merge algebra.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeConfig {
    /// Per-run weight assignment.
    pub weighting: Weighting,
    /// Hardware counter saturation value merged counts are clamped to
    /// (Table 2: 9-bit counters, max 511).
    pub counter_max: u64,
    /// Similarity criteria used to cluster pooled phases — the same
    /// Section 3.1 thresholds the per-run software filter uses.
    pub filter: FilterConfig,
}

impl Default for MergeConfig {
    fn default() -> MergeConfig {
        MergeConfig {
            weighting: Weighting::default(),
            counter_max: 511,
            filter: FilterConfig::default(),
        }
    }
}

impl MergeConfig {
    /// Stable structural fingerprint of the merge algebra's knobs
    /// (including the nested filter thresholds), for content-addressed
    /// result caching.
    pub fn fingerprint(&self) -> u64 {
        let mut h = vp_isa::Fnv::new();
        h.write_str("MergeConfig");
        h.write_u64(match self.weighting {
            Weighting::Retired => 0,
            Weighting::Uniform => 1,
        });
        h.write_u64(self.counter_max);
        h.write_u64(self.filter.fingerprint());
        h.finish()
    }

    /// The default configuration with the weighting taken from
    /// `VP_MERGE_WEIGHT` ([`Weighting::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `VP_MERGE_WEIGHT` value.
    pub fn from_env() -> MergeConfig {
        MergeConfig {
            weighting: Weighting::from_env(),
            ..MergeConfig::default()
        }
    }
}

/// One profiling run's contribution to a merged profile: its filtered
/// phases plus the run's retired-instruction count.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDump {
    /// Label of the run that produced the dump (e.g. `"130.li A"`).
    pub label: String,
    /// Retired instructions of the run — the dump's natural weight
    /// under [`Weighting::Retired`].
    pub retired: u64,
    /// Unique phases after software filtering ([`crate::filter`]).
    pub phases: Vec<Phase>,
}

impl ProfileDump {
    /// Packages one run's filtered phases as a dump.
    pub fn new(label: &str, retired: u64, phases: Vec<Phase>) -> ProfileDump {
        ProfileDump {
            label: label.to_string(),
            retired,
            phases,
        }
    }

    /// FNV-1a fingerprint of the dump's full content: label, retired
    /// count, and every phase's branch profiles. Identical runs merge
    /// idempotently because their dumps collide here.
    pub fn fingerprint(&self) -> u64 {
        let mut h = vp_isa::Fnv::new();
        h.write_raw(self.label.as_bytes());
        let mut fold = |v: u64| h.write_raw(&v.to_le_bytes());
        fold(self.retired);
        fold(self.phases.len() as u64);
        for p in &self.phases {
            fold(p.first_detected_at);
            fold(p.detections as u64);
            fold(p.branches.len() as u64);
            for (&addr, b) in &p.branches {
                fold(addr);
                fold(b.exec);
                fold(b.taken);
                fold(b.seen);
            }
        }
        h.finish()
    }
}

/// A mergeable set of profiling runs.
///
/// The state is a map from [`ProfileDump::fingerprint`] to dump, so
/// [`union`](MergedProfile::union) is literal set union — associative,
/// commutative, and idempotent. The combined phase set is *derived* from
/// the dump set by [`resolve`](MergedProfile::resolve), never carried
/// incrementally, so those laws hold for the resolved phases too.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedProfile {
    cfg: MergeConfig,
    dumps: BTreeMap<u64, ProfileDump>,
}

impl MergedProfile {
    /// An empty profile (the identity of [`union`](MergedProfile::union)).
    pub fn new(cfg: MergeConfig) -> MergedProfile {
        MergedProfile {
            cfg,
            dumps: BTreeMap::new(),
        }
    }

    /// Builds a profile by absorbing every dump in `dumps`.
    pub fn of(cfg: MergeConfig, dumps: impl IntoIterator<Item = ProfileDump>) -> MergedProfile {
        let mut m = MergedProfile::new(cfg);
        for d in dumps {
            m.absorb(d);
        }
        m
    }

    /// Adds one run's dump to the set. A dump identical to one already
    /// present (same [`ProfileDump::fingerprint`]) is dropped — the
    /// single-dump idempotence case.
    pub fn absorb(&mut self, dump: ProfileDump) {
        let key = dump.fingerprint();
        if self.dumps.contains_key(&key) {
            MERGE_DEDUP.incr();
            return;
        }
        MERGE_DUMPS.incr();
        MERGE_DUMP_RETIRED.observe(dump.retired);
        self.dumps.insert(key, dump);
    }

    /// Set union of the two dump sets: the merge operation the property
    /// suite pins as associative, commutative, and idempotent.
    pub fn union(&self, other: &MergedProfile) -> MergedProfile {
        MERGE_UNIONS.incr();
        let mut out = self.clone();
        for d in other.dumps.values() {
            out.absorb(d.clone());
        }
        out
    }

    /// Number of distinct dumps in the set.
    pub fn len(&self) -> usize {
        self.dumps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.dumps.is_empty()
    }

    /// Labels of the runs in the set, in fingerprint order.
    pub fn labels(&self) -> Vec<&str> {
        self.dumps.values().map(|d| d.label.as_str()).collect()
    }

    /// Total retired instructions over all dumps.
    pub fn total_retired(&self) -> u64 {
        self.dumps.values().map(|d| d.retired).sum()
    }

    /// Derives the combined phase set.
    ///
    /// Pooled phases are visited in `(dump fingerprint, phase id)` order
    /// — a pure function of the dump *set* — and greedily clustered with
    /// the Section 3.1 similarity criteria; matching phases combine
    /// their branch counts as weighted averages clamped to
    /// [`MergeConfig::counter_max`]. Phase ids are reassigned densely in
    /// cluster-creation order, and `first_detected_at` becomes the
    /// earliest first detection over the cluster's sources.
    pub fn resolve(&self) -> Vec<Phase> {
        MERGE_RESOLVES.incr();
        let mut clusters: Vec<Cluster> = Vec::new();
        for dump in self.dumps.values() {
            let weight = match self.cfg.weighting {
                Weighting::Retired => u128::from(dump.retired.max(1)),
                Weighting::Uniform => 1,
            };
            for phase in &dump.phases {
                MERGE_PHASES_IN.incr();
                match clusters
                    .iter_mut()
                    .find(|c| same_phase(&self.cfg.filter, c, phase))
                {
                    Some(c) => {
                        MERGE_CLUSTERED.incr();
                        c.combine(weight, phase, &self.cfg);
                    }
                    None => clusters.push(Cluster::open(weight, phase, &self.cfg)),
                }
            }
        }
        MERGE_PHASES_OUT.add(clusters.len() as u64);
        clusters
            .into_iter()
            .enumerate()
            .map(|(id, c)| {
                MERGE_CLUSTER_SIZE.observe(c.sources as u64);
                c.into_phase(id)
            })
            .collect()
    }
}

/// One resolved phase under construction: the weighted union of every
/// pooled phase that clustered into it.
#[derive(Debug)]
struct Cluster {
    branches: BTreeMap<u64, ClusterBranch>,
    first_detected_at: u64,
    detections: usize,
    sources: usize,
}

/// A branch inside a cluster, with the weight already averaged into it.
/// Counts stay an average over exactly the runs whose clustered phase
/// contained the branch: a branch one run never saw must not be diluted
/// toward zero by that run's weight.
#[derive(Debug)]
struct ClusterBranch {
    exec: u64,
    taken: u64,
    seen: u64,
    weight: u128,
}

/// Section 3.1's two criteria, phase-to-phase: same hot spot unless ≥
/// `missing_fraction` of either side's branches are missing from the
/// other, or at least `bias_flip_threshold` common branches flip bias.
fn same_phase(cfg: &FilterConfig, cluster: &Cluster, phase: &Phase) -> bool {
    let missing_from_cluster = phase
        .branches
        .keys()
        .filter(|a| !cluster.branches.contains_key(a))
        .count();
    let missing_from_phase = cluster
        .branches
        .keys()
        .filter(|a| !phase.branches.contains_key(a))
        .count();
    if !phase.branches.is_empty()
        && missing_from_cluster as f64 / phase.branches.len() as f64 >= cfg.missing_fraction
    {
        return false;
    }
    if !cluster.branches.is_empty()
        && missing_from_phase as f64 / cluster.branches.len() as f64 >= cfg.missing_fraction
    {
        return false;
    }
    let mut flips = 0;
    for (addr, pb) in &phase.branches {
        if let Some(cb) = cluster.branches.get(addr) {
            match (cb.bias(cfg.bias_threshold), pb.bias(cfg.bias_threshold)) {
                (Bias::Taken, Bias::NotTaken) | (Bias::NotTaken, Bias::Taken) => flips += 1,
                _ => {}
            }
        }
    }
    flips < cfg.bias_flip_threshold
}

impl ClusterBranch {
    fn bias(&self, threshold: f64) -> Bias {
        PhaseBranch {
            exec: self.exec,
            taken: self.taken,
            seen: self.seen,
        }
        .bias(threshold)
    }
}

/// Weighted average of an accumulated value (carrying weight `wa`) and an
/// incoming value (weight `wb`), rounded half-up. Pure integer
/// arithmetic, so resolution is bit-deterministic across platforms.
fn weighted_avg(a: u64, wa: u128, b: u64, wb: u128) -> u64 {
    let total = wa + wb;
    ((u128::from(a) * wa + u128::from(b) * wb + total / 2) / total) as u64
}

/// Clamps a merged count to the hardware counter scale.
fn saturate(v: u64, counter_max: u64) -> u64 {
    if v > counter_max {
        MERGE_SATURATED.incr();
        counter_max
    } else {
        v
    }
}

impl Cluster {
    fn open(weight: u128, phase: &Phase, cfg: &MergeConfig) -> Cluster {
        let branches = phase
            .branches
            .iter()
            .map(|(&addr, b)| {
                let exec = saturate(b.exec, cfg.counter_max);
                (
                    addr,
                    ClusterBranch {
                        exec,
                        taken: b.taken.min(exec),
                        seen: b.seen,
                        weight,
                    },
                )
            })
            .collect();
        Cluster {
            branches,
            first_detected_at: phase.first_detected_at,
            detections: phase.detections,
            sources: 1,
        }
    }

    fn combine(&mut self, weight: u128, phase: &Phase, cfg: &MergeConfig) {
        let bias_threshold = cfg.filter.bias_threshold;
        for (&addr, b) in &phase.branches {
            match self.branches.entry(addr) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    let exec = saturate(b.exec, cfg.counter_max);
                    v.insert(ClusterBranch {
                        exec,
                        taken: b.taken.min(exec),
                        seen: b.seen,
                        weight,
                    });
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let cb = o.get_mut();
                    if cb.bias(bias_threshold) != b.bias(bias_threshold) {
                        // Disagreement mild enough to cluster (e.g. biased
                        // vs. unbiased): the weighted average lets the
                        // heavier run dominate.
                        MERGE_BIAS_RESOLVED.incr();
                    }
                    let exec = saturate(b.exec, cfg.counter_max);
                    cb.exec = weighted_avg(cb.exec, cb.weight, exec, weight);
                    cb.taken = weighted_avg(cb.taken, cb.weight, b.taken.min(exec), weight);
                    cb.seen += b.seen;
                    cb.weight += weight;
                }
            }
        }
        self.first_detected_at = self.first_detected_at.min(phase.first_detected_at);
        self.detections += phase.detections;
        self.sources += 1;
    }

    fn into_phase(self, id: usize) -> Phase {
        Phase {
            id,
            branches: self
                .branches
                .into_iter()
                .map(|(addr, b)| {
                    (
                        addr,
                        PhaseBranch {
                            exec: b.exec,
                            taken: b.taken.min(b.exec),
                            seen: b.seen,
                        },
                    )
                })
                .collect(),
            first_detected_at: self.first_detected_at,
            detections: self.detections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(id: usize, at: u64, branches: &[(u64, u64, u64)]) -> Phase {
        Phase {
            id,
            branches: branches
                .iter()
                .map(|&(addr, exec, taken)| {
                    (
                        addr,
                        PhaseBranch {
                            exec,
                            taken,
                            seen: 1,
                        },
                    )
                })
                .collect(),
            first_detected_at: at,
            detections: 1,
        }
    }

    fn dump(label: &str, retired: u64, phases: Vec<Phase>) -> ProfileDump {
        ProfileDump::new(label, retired, phases)
    }

    #[test]
    fn disjoint_dumps_union_their_phases() {
        let a = dump(
            "A",
            1000,
            vec![phase(0, 5, &[(0x10, 400, 390), (0x14, 400, 10)])],
        );
        let b = dump(
            "B",
            1000,
            vec![phase(0, 9, &[(0x90, 400, 390), (0x94, 400, 10)])],
        );
        let m = MergedProfile::of(MergeConfig::default(), [a, b]);
        let phases = m.resolve();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].id, 0);
        assert_eq!(phases[1].id, 1);
        assert!(phases[0].branches.contains_key(&0x10));
        assert!(phases[1].branches.contains_key(&0x90));
    }

    #[test]
    fn matching_phases_combine_with_retired_weighting() {
        // Run A (weight 3000) says exec 300; run B (weight 1000) says 100.
        // Retired weighting: (300*3000 + 100*1000) / 4000 = 250.
        let a = dump(
            "A",
            3000,
            vec![phase(0, 5, &[(0x10, 300, 300), (0x14, 300, 0)])],
        );
        let b = dump(
            "B",
            1000,
            vec![phase(0, 9, &[(0x10, 100, 100), (0x14, 100, 0)])],
        );
        let m = MergedProfile::of(MergeConfig::default(), [a, b]);
        let phases = m.resolve();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].branches[&0x10].exec, 250);
        assert_eq!(phases[0].branches[&0x10].taken, 250);
        assert_eq!(
            phases[0].first_detected_at, 5,
            "earliest first detection wins"
        );
        assert_eq!(phases[0].detections, 2);
    }

    #[test]
    fn uniform_weighting_ignores_run_length() {
        let a = dump(
            "A",
            3000,
            vec![phase(0, 5, &[(0x10, 300, 300), (0x14, 300, 0)])],
        );
        let b = dump(
            "B",
            1000,
            vec![phase(0, 9, &[(0x10, 100, 100), (0x14, 100, 0)])],
        );
        let cfg = MergeConfig {
            weighting: Weighting::Uniform,
            ..MergeConfig::default()
        };
        let phases = MergedProfile::of(cfg, [a, b]).resolve();
        assert_eq!(
            phases[0].branches[&0x10].exec, 200,
            "plain mean under uniform"
        );
    }

    #[test]
    fn merged_counts_never_exceed_counter_scale() {
        // Out-of-scale inputs clamp to counter_max; in-scale averages of
        // saturated counters stay saturated, never summed.
        let a = dump(
            "A",
            1000,
            vec![phase(0, 5, &[(0x10, 511, 511), (0x14, 511, 0)])],
        );
        let b = dump(
            "B",
            1000,
            vec![phase(0, 9, &[(0x10, 511, 511), (0x14, 9000, 0)])],
        );
        let phases = MergedProfile::of(MergeConfig::default(), [a, b]).resolve();
        assert_eq!(phases.len(), 1);
        let p = &phases[0];
        assert_eq!(p.branches[&0x10].exec, 511);
        assert_eq!(
            p.branches[&0x14].exec, 511,
            "out-of-scale input clamps first"
        );
        assert!(p
            .branches
            .values()
            .all(|b| b.exec <= 511 && b.taken <= b.exec));
    }

    #[test]
    fn bias_flip_keeps_conflicting_signatures_separate() {
        // Same branch set, but 0x10 flips taken → not-taken: the paper's
        // criterion 2, so the two runs' detections stay distinct phases.
        let a = dump(
            "A",
            1000,
            vec![phase(0, 5, &[(0x10, 400, 390), (0x14, 400, 200)])],
        );
        let b = dump(
            "B",
            1000,
            vec![phase(0, 9, &[(0x10, 400, 10), (0x14, 400, 200)])],
        );
        let phases = MergedProfile::of(MergeConfig::default(), [a, b]).resolve();
        assert_eq!(phases.len(), 2, "conflicting signatures must not average");
    }

    #[test]
    fn mild_bias_disagreement_resolves_by_weighted_dominance() {
        // 0x10 is biased-taken in the heavy run, unbiased in the light one:
        // clusters (no flip), and the heavy run's bias survives.
        let a = dump(
            "A",
            9000,
            vec![phase(0, 5, &[(0x10, 400, 390), (0x14, 400, 0)])],
        );
        let b = dump(
            "B",
            1000,
            vec![phase(0, 9, &[(0x10, 400, 220), (0x14, 400, 0)])],
        );
        let ((phases, ()), report) = vp_trace::scoped(|| {
            (
                MergedProfile::of(MergeConfig::default(), [a, b]).resolve(),
                (),
            )
        });
        assert_eq!(phases.len(), 1);
        assert_eq!(
            phases[0].branches[&0x10].bias(0.70),
            Bias::Taken,
            "heavier run dominates the resolved bias"
        );
        assert_eq!(report.counter("profile.merge.bias_resolved"), 1);
    }

    #[test]
    fn identical_dumps_deduplicate() {
        let a = dump("A", 1000, vec![phase(0, 5, &[(0x10, 400, 390)])]);
        let ((m, ()), report) = vp_trace::scoped(|| {
            (
                MergedProfile::of(MergeConfig::default(), [a.clone(), a.clone()]),
                (),
            )
        });
        assert_eq!(m.len(), 1);
        assert_eq!(report.counter("profile.merge.dedup"), 1);
        assert_eq!(m.labels(), vec!["A"]);
        assert_eq!(m.total_retired(), 1000);
        assert_eq!(
            m.resolve(),
            MergedProfile::of(MergeConfig::default(), [a]).resolve()
        );
    }

    #[test]
    fn fingerprint_value_is_pinned() {
        // Merged profiles dedup on this value and result keys fold it in:
        // it must not move when its hashing is refactored.
        let a = dump(
            "130.li A",
            123_456,
            vec![
                phase(0, 5, &[(0x10, 400, 390), (0x2c, 77, 3)]),
                phase(1, 2, &[(0x40, 9, 9)]),
            ],
        );
        assert_eq!(a.fingerprint(), 0xea11_1e59_1918_d063);
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let a = dump("A", 1000, vec![phase(0, 5, &[(0x10, 400, 390)])]);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.retired = 1001;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.phases[0].branches.get_mut(&0x10).unwrap().taken = 389;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.label = "B".to_string();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn empty_profile_resolves_to_nothing() {
        let m = MergedProfile::new(MergeConfig::default());
        assert!(m.is_empty());
        assert!(m.resolve().is_empty());
        // Empty is the identity of union.
        let a = MergedProfile::of(
            MergeConfig::default(),
            [dump("A", 10, vec![phase(0, 1, &[(0x10, 40, 20)])])],
        );
        assert_eq!(m.union(&a), a);
        assert_eq!(a.union(&m), a);
    }

    #[test]
    fn weighted_avg_rounds_half_up_and_is_exact_at_bounds() {
        assert_eq!(weighted_avg(100, 1, 200, 1), 150);
        assert_eq!(weighted_avg(0, 1, 1, 1), 1, "half rounds up");
        assert_eq!(weighted_avg(511, 7, 511, 13), 511);
        assert_eq!(weighted_avg(0, 5, 0, 11), 0);
    }
}
