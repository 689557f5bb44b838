//! The Hot Spot Detector: Branch Behavior Buffer plus detection counter.
//!
//! Modeled after Merten et al. (ISCA 1999), with the parameters of the
//! paper's Table 2. The detector watches retiring conditional branches:
//!
//! * The **Branch Behavior Buffer (BBB)** is a set-associative table indexed
//!   by branch address. Each entry tabulates saturating *executed* and
//!   *taken* counts; an entry whose executed count crosses the candidate
//!   threshold becomes a *candidate* (hot) branch.
//! * The **Hot Spot Detection Counter (HDC)** is a saturating up/down
//!   counter: it moves up by `hdc_inc` when a candidate branch retires and
//!   down by `hdc_dec` otherwise. Saturating high means candidate branches
//!   account for more than `hdc_dec / (hdc_inc + hdc_dec)` of retiring
//!   branches — a hot spot. At that point the candidate set is snapshotted
//!   as a [`HotSpotRecord`] and profiling restarts.
//!
//! Hardware lossiness is modeled faithfully: entry contention can keep a
//! branch out of the table or admit it late (artificially low weights), and
//! executed counters freeze at saturation, preserving the taken *fraction*
//! as the paper requires. The paper's region-identification algorithm
//! exists precisely to tolerate these artifacts.

use crate::signature::DetectionHistory;
use vp_exec::{col, ColEvent, Sink};
use vp_trace::Counter;

/// Hot spots snapshotted into records.
static DETECTIONS: Counter = Counter::new("hsd.detections");
/// Detections swallowed by the hardware history.
static SUPPRESSED: Counter = Counter::new("hsd.history_suppressed");
/// New branches installed into the BBB (invalid way or after eviction).
static BBB_INSERTIONS: Counter = Counter::new("hsd.bbb.insertions");
/// Valid non-candidate entries displaced by an insertion.
static BBB_EVICTIONS: Counter = Counter::new("hsd.bbb.evictions");
/// Branches rejected because their set was full of candidates.
static BBB_REJECTED: Counter = Counter::new("hsd.bbb.rejected");
/// Executed counters freezing at their saturation value.
static SATURATIONS: Counter = Counter::new("hsd.counter_saturations");
/// HDC refresh-timer expiries.
static REFRESH_EXPIRIES: Counter = Counter::new("hsd.refresh_expiries");
/// BBB clear-timer expiries (stale-table flushes, not post-detection
/// clears).
static CLEAR_EXPIRIES: Counter = Counter::new("hsd.clear_expiries");

/// Hot Spot Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HsdConfig {
    /// Number of BBB sets (Table 2: 512).
    pub bbb_sets: usize,
    /// BBB associativity (Table 2: 4-way).
    pub bbb_ways: usize,
    /// Executed-count threshold at which a branch becomes a candidate
    /// (Table 2: 16).
    pub candidate_threshold: u32,
    /// Width in bits of the executed and taken counters (Table 2: 9).
    pub counter_bits: u32,
    /// Width in bits of the Hot Spot Detection Counter (Table 2: 13).
    pub hdc_bits: u32,
    /// HDC increment on a candidate-branch retirement (Table 2: 2).
    pub hdc_inc: u32,
    /// HDC decrement on a non-candidate retirement (Table 2: 1).
    pub hdc_dec: u32,
    /// Branches between HDC refreshes (Table 2: 8192). The refresh resets
    /// the HDC so detection requires hotness *within* a window.
    pub refresh_interval: u64,
    /// Branches without a detection after which the whole BBB is cleared
    /// (Table 2: 65526), re-opening the table after a phase change.
    pub clear_interval: u64,
    /// Depth of the hardware detection history (paper Section 3.1's BBB
    /// enhancement): re-detections whose hot-spot signature matches one of
    /// the last `history_depth` recorded hot spots are suppressed in
    /// hardware instead of handed to software. `0` (the default, and the
    /// paper's measured configuration) records everything and leaves
    /// deduplication to the software filter.
    pub history_depth: usize,
    /// Signature similarity at or above which a detection counts as a
    /// repeat of a remembered hot spot.
    pub history_threshold: f64,
}

impl HsdConfig {
    /// Stable structural fingerprint of every detector parameter, for
    /// content-addressed result caching.
    pub fn fingerprint(&self) -> u64 {
        let mut h = vp_isa::Fnv::new();
        h.write_str("HsdConfig");
        h.write_usize(self.bbb_sets);
        h.write_usize(self.bbb_ways);
        h.write_u32(self.candidate_threshold);
        h.write_u32(self.counter_bits);
        h.write_u32(self.hdc_bits);
        h.write_u32(self.hdc_inc);
        h.write_u32(self.hdc_dec);
        h.write_u64(self.refresh_interval);
        h.write_u64(self.clear_interval);
        h.write_usize(self.history_depth);
        h.write_f64(self.history_threshold);
        h.finish()
    }

    /// The configuration from the paper's Table 2.
    pub fn table2() -> HsdConfig {
        HsdConfig {
            bbb_sets: 512,
            bbb_ways: 4,
            candidate_threshold: 16,
            counter_bits: 9,
            hdc_bits: 13,
            hdc_inc: 2,
            hdc_dec: 1,
            refresh_interval: 8192,
            clear_interval: 65526,
            history_depth: 0,
            history_threshold: 0.85,
        }
    }

    /// A small configuration for unit tests: 4 entries total, like the
    /// worked example in the paper's Figure 3.
    pub fn tiny() -> HsdConfig {
        HsdConfig {
            bbb_sets: 1,
            bbb_ways: 4,
            candidate_threshold: 4,
            counter_bits: 9,
            hdc_bits: 7,
            hdc_inc: 2,
            hdc_dec: 1,
            refresh_interval: 1024,
            clear_interval: 8192,
            history_depth: 0,
            history_threshold: 0.85,
        }
    }

    fn counter_max(&self) -> u32 {
        (1u32 << self.counter_bits) - 1
    }

    fn hdc_max(&self) -> u32 {
        (1u32 << self.hdc_bits) - 1
    }
}

impl Default for HsdConfig {
    fn default() -> HsdConfig {
        HsdConfig::table2()
    }
}

/// The profile of one hot-spot branch as captured by the BBB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchProfile {
    /// Static branch address.
    pub addr: u64,
    /// Saturating executed count.
    pub exec: u32,
    /// Saturating taken count.
    pub taken: u32,
}

impl BranchProfile {
    /// Fraction of executions that were taken, in `[0, 1]`.
    pub fn taken_fraction(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.taken as f64 / self.exec as f64
        }
    }
}

/// A raw hot-spot detection: the candidate branches and their counts at the
/// moment the HDC saturated. Redundant records are removed later in
/// software (see [`crate::filter`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpotRecord {
    /// Retired-branch count at detection time.
    pub at_branch: u64,
    /// Candidate branches with their executed/taken counts.
    pub branches: Vec<BranchProfile>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u64,
    exec: u32,
    taken: u32,
}

/// The hardware Hot Spot Detector. Attach it to an execution as a
/// [`Sink`]; it reacts to retiring conditional branches only.
#[derive(Debug)]
pub struct HotSpotDetector {
    cfg: HsdConfig,
    table: Vec<Entry>,
    hdc: u32,
    branches_retired: u64,
    last_clear: u64,
    last_refresh: u64,
    records: Vec<HotSpotRecord>,
    history: DetectionHistory,
    /// Branches that missed the BBB because their set was full of
    /// candidates (lossiness diagnostics).
    rejected: u64,
}

impl HotSpotDetector {
    /// Creates a detector.
    pub fn new(cfg: HsdConfig) -> HotSpotDetector {
        assert!(
            cfg.bbb_sets.is_power_of_two(),
            "BBB set count must be a power of two"
        );
        HotSpotDetector {
            table: vec![Entry::default(); cfg.bbb_sets * cfg.bbb_ways],
            hdc: 0,
            branches_retired: 0,
            last_clear: 0,
            last_refresh: 0,
            records: Vec::new(),
            history: DetectionHistory::new(cfg.history_depth, cfg.history_threshold),
            rejected: 0,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HsdConfig {
        &self.cfg
    }

    /// Raw hot-spot records accumulated so far (before software filtering).
    pub fn records(&self) -> &[HotSpotRecord] {
        &self.records
    }

    /// Consumes the detector, returning the raw records.
    pub fn into_records(self) -> Vec<HotSpotRecord> {
        self.records
    }

    /// Number of branch retirements rejected due to BBB contention.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Detections suppressed by the hardware history (zero unless
    /// [`HsdConfig::history_depth`] is nonzero).
    pub fn suppressed(&self) -> u64 {
        self.history.suppressed()
    }

    /// Total conditional branches observed.
    pub fn branches_retired(&self) -> u64 {
        self.branches_retired
    }

    /// Feeds one retiring conditional branch into the detector.
    pub fn observe(&mut self, addr: u64, taken: bool) {
        self.branches_retired += 1;
        let is_candidate = self.update_bbb(addr, taken);

        // Hot Spot Detection Counter.
        if is_candidate {
            self.hdc = (self.hdc + self.cfg.hdc_inc).min(self.cfg.hdc_max());
        } else {
            self.hdc = self.hdc.saturating_sub(self.cfg.hdc_dec);
        }
        if self.hdc == self.cfg.hdc_max() {
            self.record_hot_spot();
        }

        // Refresh timer: restart the detection window.
        if self.branches_retired - self.last_refresh >= self.cfg.refresh_interval {
            self.hdc = 0;
            self.last_refresh = self.branches_retired;
            REFRESH_EXPIRIES.incr();
        }
        // Clear timer: without a detection, flush the stale table so a new
        // phase's branches can enter.
        if self.branches_retired - self.last_clear >= self.cfg.clear_interval {
            self.clear();
            CLEAR_EXPIRIES.incr();
            // Flight payload: (branches retired, detections so far) — marks
            // a detection-free window expiring, i.e. a likely phase exit.
            vp_trace::flight(
                "hsd.clear_expiry",
                self.branches_retired,
                self.records.len() as u64,
            );
        }
    }

    /// Updates the BBB for one retirement; returns whether the branch is a
    /// candidate after the update.
    fn update_bbb(&mut self, addr: u64, taken: bool) -> bool {
        let set = ((addr >> 2) as usize) & (self.cfg.bbb_sets - 1);
        let ways = &mut self.table[set * self.cfg.bbb_ways..(set + 1) * self.cfg.bbb_ways];

        // Hit?
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == addr) {
            if e.exec < self.cfg.counter_max() {
                e.exec += 1;
                if taken {
                    e.taken += 1;
                }
                if e.exec == self.cfg.counter_max() {
                    SATURATIONS.incr();
                }
            }
            // At saturation both counters freeze, preserving the fraction.
            return e.exec >= self.cfg.candidate_threshold;
        }

        // Miss: fill an invalid way, else replace the coldest
        // non-candidate. Candidates are protected, so a full-of-candidates
        // set rejects the branch entirely — the lossiness the paper's
        // inference step compensates for.
        let threshold = self.cfg.candidate_threshold;
        let victim = match ways.iter_mut().find(|e| !e.valid) {
            Some(e) => Some(e),
            None => ways
                .iter_mut()
                .filter(|e| e.exec < threshold)
                .min_by_key(|e| e.exec),
        };
        match victim {
            Some(e) => {
                if e.valid {
                    BBB_EVICTIONS.incr();
                }
                BBB_INSERTIONS.incr();
                *e = Entry {
                    valid: true,
                    tag: addr,
                    exec: 1,
                    taken: taken as u32,
                };
                false
            }
            None => {
                self.rejected += 1;
                BBB_REJECTED.incr();
                false
            }
        }
    }

    fn record_hot_spot(&mut self) {
        let branches: Vec<BranchProfile> = self
            .table
            .iter()
            .filter(|e| e.valid && e.exec >= self.cfg.candidate_threshold)
            .map(|e| BranchProfile {
                addr: e.tag,
                exec: e.exec,
                taken: e.taken,
            })
            .collect();
        if !branches.is_empty() {
            let record = HotSpotRecord {
                at_branch: self.branches_retired,
                branches,
            };
            if self.history.admit(&record) {
                DETECTIONS.incr();
                // Flight payload: (branches retired at detection, candidate
                // branch count) — the timeline of phase detections.
                vp_trace::flight("hsd.detect", record.at_branch, record.branches.len() as u64);
                self.records.push(record);
            } else {
                SUPPRESSED.incr();
            }
        }
        // Restart profiling for the next window; the recording itself marks
        // a detection for the clear timer.
        self.clear();
    }

    fn clear(&mut self) {
        for e in &mut self.table {
            *e = Entry::default();
        }
        self.hdc = 0;
        self.last_clear = self.branches_retired;
        self.last_refresh = self.branches_retired;
    }
}

impl Sink for HotSpotDetector {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        // The detector only looks at conditional branches (~1 in 5 events
        // on the SPEC-like workloads): the skip path is one flag-byte test.
        if e.flags & col::COND != 0 {
            self.observe(e.addr, e.flags & col::ARCH_TAKEN != 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the detector with a loop of `n` distinct branches, each taken
    /// with the given pattern, for `iters` iterations.
    fn drive(det: &mut HotSpotDetector, addrs: &[u64], taken: &[bool], iters: usize) {
        for _ in 0..iters {
            for (i, &a) in addrs.iter().enumerate() {
                det.observe(a, taken[i % taken.len()]);
            }
        }
    }

    #[test]
    fn hot_loop_is_detected() {
        let mut det = HotSpotDetector::new(HsdConfig::table2());
        let addrs: Vec<u64> = (0..8).map(|i| 0x1000 + 4 * i).collect();
        drive(&mut det, &addrs, &[true], 4000);
        assert!(
            !det.records().is_empty(),
            "steady hot loop must be detected"
        );
        let rec = &det.records()[0];
        assert!(rec.branches.len() <= 8);
        for b in &rec.branches {
            assert!(b.taken_fraction() > 0.99);
        }
    }

    #[test]
    fn cold_random_stream_is_not_detected() {
        let mut det = HotSpotDetector::new(HsdConfig::table2());
        // 100k distinct branches seen once each: nothing becomes a
        // candidate.
        for i in 0..100_000u64 {
            det.observe(0x1000 + 4 * i, i % 2 == 0);
        }
        assert!(det.records().is_empty());
    }

    #[test]
    fn phase_change_produces_distinct_records() {
        let mut det = HotSpotDetector::new(HsdConfig::table2());
        let phase1: Vec<u64> = (0..8).map(|i| 0x1000 + 4 * i).collect();
        let phase2: Vec<u64> = (0..8).map(|i| 0x9000 + 4 * i).collect();
        drive(&mut det, &phase1, &[true], 3000);
        drive(&mut det, &phase2, &[false], 3000);
        let recs = det.records();
        assert!(recs.len() >= 2);
        let first: Vec<u64> = recs
            .first()
            .unwrap()
            .branches
            .iter()
            .map(|b| b.addr)
            .collect();
        let last: Vec<u64> = recs
            .last()
            .unwrap()
            .branches
            .iter()
            .map(|b| b.addr)
            .collect();
        assert!(first.iter().all(|a| *a < 0x9000));
        assert!(last.iter().all(|a| *a >= 0x9000));
    }

    #[test]
    fn counters_freeze_at_saturation_preserving_fraction() {
        let cfg = HsdConfig {
            counter_bits: 4,
            ..HsdConfig::tiny()
        };
        let mut det = HotSpotDetector::new(cfg);
        // One branch, 75% taken, far past saturation (max = 15).
        for i in 0..1000 {
            det.observe(0x1000, i % 4 != 0);
        }
        // Find the entry via a detection snapshot or inspect indirectly:
        // saturated exec must equal 15 and fraction stay ~0.75.
        let rec = det
            .records()
            .iter()
            .flat_map(|r| r.branches.iter())
            .find(|b| b.addr == 0x1000)
            .copied();
        if let Some(b) = rec {
            assert!(b.exec <= 15);
            assert!((b.taken_fraction() - 0.75).abs() < 0.2);
        }
    }

    #[test]
    fn contention_rejects_excess_branches() {
        // One set, 4 ways: four branches become candidates first, then a
        // fifth branch arrives and can never enter the candidate-protected
        // set.
        let mut det = HotSpotDetector::new(HsdConfig::tiny());
        let first_four: Vec<u64> = (0..4).map(|i| 0x1000 + 4 * i).collect();
        drive(&mut det, &first_four, &[true], 10);
        det.observe(0x2000, true);
        assert!(
            det.rejected() > 0,
            "full-of-candidates set must reject new branches"
        );
    }

    #[test]
    fn detection_resets_profiling() {
        let mut det = HotSpotDetector::new(HsdConfig::tiny());
        let addrs: Vec<u64> = (0..4).map(|i| 0x1000 + 4 * i).collect();
        drive(&mut det, &addrs, &[true], 4000);
        let n = det.records().len();
        assert!(
            n >= 2,
            "steady phase is re-detected after each snapshot (got {n})"
        );
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        HotSpotDetector::new(HsdConfig {
            bbb_sets: 3,
            ..HsdConfig::tiny()
        });
    }

    #[test]
    fn hardware_history_suppresses_redundant_records() {
        let base = HsdConfig::table2();
        let with_history = HsdConfig {
            history_depth: 2,
            ..base
        };
        let addrs: Vec<u64> = (0..8).map(|i| 0x1000 + 4 * i).collect();
        let run = |cfg: HsdConfig| {
            let mut det = HotSpotDetector::new(cfg);
            drive(&mut det, &addrs, &[true], 4000);
            (det.records().len(), det.suppressed())
        };
        let (n_base, s_base) = run(base);
        let (n_hist, s_hist) = run(with_history);
        assert_eq!(s_base, 0);
        assert!(
            n_hist < n_base,
            "history must reduce records: {n_hist} vs {n_base}"
        );
        assert_eq!(n_hist, 1, "one steady phase records exactly once");
        assert!(s_hist > 0);
    }

    #[test]
    fn hardware_history_still_records_new_phases() {
        let cfg = HsdConfig {
            history_depth: 2,
            ..HsdConfig::table2()
        };
        let mut det = HotSpotDetector::new(cfg);
        let phase1: Vec<u64> = (0..8).map(|i| 0x1000 + 4 * i).collect();
        let phase2: Vec<u64> = (0..8).map(|i| 0x9000 + 4 * i).collect();
        drive(&mut det, &phase1, &[true], 3000);
        drive(&mut det, &phase2, &[false], 3000);
        assert!(det.records().len() >= 2, "both phases recorded");
        assert!(
            det.records().len() <= 4,
            "but few redundant records survive"
        );
    }
}
