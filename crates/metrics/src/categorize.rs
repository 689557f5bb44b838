//! Branch categorization across phases (the paper's Figure 9).
//!
//! Every static branch that appears in at least one recorded hot spot is
//! classified:
//!
//! * **Unique** — appears in exactly one phase: *Biased* or *Not Biased*;
//! * **Multi** — appears in several phases:
//!   * *Multi High* — taken fraction swings by more than 70% between
//!     phases,
//!   * *Multi Low* — swings between 40% and 70%,
//!   * *Multi Same* — biased somewhere but swings less than 40%,
//!   * *Multi No Bias* — never biased in any phase.
//!
//! Multi-High/Low branches are the paper's headline opportunity: an
//! aggregate profile is ambiguous exactly where phase-sensitive profiles
//! are decisive. Fractions are weighted by true dynamic execution counts.

use crate::branches::BranchCounts;
use vp_hsd::{Bias, Phase};

/// The six Figure 9 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCategory {
    /// One phase, biased.
    UniqueBiased,
    /// One phase, unbiased.
    UniqueUnbiased,
    /// Many phases, swing > 70%.
    MultiHigh,
    /// Many phases, swing 40–70%.
    MultiLow,
    /// Many phases, biased, swing < 40%.
    MultiSame,
    /// Many phases, never biased.
    MultiNoBias,
}

/// All categories in the paper's stacking order.
pub const CATEGORIES: [BranchCategory; 6] = [
    BranchCategory::UniqueBiased,
    BranchCategory::UniqueUnbiased,
    BranchCategory::MultiHigh,
    BranchCategory::MultiLow,
    BranchCategory::MultiSame,
    BranchCategory::MultiNoBias,
];

impl BranchCategory {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            BranchCategory::UniqueBiased => "Unique Biased",
            BranchCategory::UniqueUnbiased => "Unique No Bias",
            BranchCategory::MultiHigh => "Multi High",
            BranchCategory::MultiLow => "Multi Low",
            BranchCategory::MultiSame => "Multi Same",
            BranchCategory::MultiNoBias => "Multi No Bias",
        }
    }
}

/// Result of categorization.
#[derive(Debug, Clone, Default)]
pub struct Categorization {
    /// Dynamic-weight fraction per category (sums to 1 over hot-spot
    /// branches).
    pub fraction: [f64; 6],
    /// Static branch count per category.
    pub statics: [usize; 6],
    /// Dynamic executions of hot-spot branches.
    pub hot_dynamic: u64,
    /// Dynamic executions of all branches (hot-spot coverage denominator).
    pub total_dynamic: u64,
}

impl Categorization {
    /// Fraction for one category.
    pub fn of(&self, c: BranchCategory) -> f64 {
        self.fraction[CATEGORIES
            .iter()
            .position(|&x| x == c)
            .expect("known category")]
    }

    /// Fraction of all dynamic branches covered by hot-spot branches.
    pub fn hot_coverage(&self) -> f64 {
        if self.total_dynamic == 0 {
            0.0
        } else {
            self.hot_dynamic as f64 / self.total_dynamic as f64
        }
    }
}

/// Categorizes hot-spot branches using the phase profiles and the true
/// dynamic counts. `bias_threshold` is the paper's 0.7.
pub fn categorize(phases: &[Phase], counts: &BranchCounts, bias_threshold: f64) -> Categorization {
    use std::collections::BTreeMap;
    // addr -> taken fractions per phase containing it
    let mut seen: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for ph in phases {
        for (&addr, b) in &ph.branches {
            seen.entry(addr).or_default().push(b.taken_fraction());
        }
    }

    let mut out = Categorization {
        total_dynamic: counts.total(),
        ..Categorization::default()
    };
    let mut weights = [0u64; 6];
    for (addr, fracs) in seen {
        let weight = counts.exec(addr);
        out.hot_dynamic += weight;
        let biased_any = fracs.iter().any(|&f| {
            let b = vp_hsd::PhaseBranch::once(1000, (f * 1000.0) as u64).bias(bias_threshold);
            b != Bias::Unbiased
        });
        let cat = if fracs.len() == 1 {
            if biased_any {
                BranchCategory::UniqueBiased
            } else {
                BranchCategory::UniqueUnbiased
            }
        } else {
            let max = fracs.iter().copied().fold(f64::MIN, f64::max);
            let min = fracs.iter().copied().fold(f64::MAX, f64::min);
            let swing = max - min;
            if !biased_any {
                BranchCategory::MultiNoBias
            } else if swing > 0.7 {
                BranchCategory::MultiHigh
            } else if swing >= 0.4 {
                BranchCategory::MultiLow
            } else {
                BranchCategory::MultiSame
            }
        };
        let idx = CATEGORIES
            .iter()
            .position(|&x| x == cat)
            .expect("known category");
        weights[idx] += weight;
        out.statics[idx] += 1;
    }
    if out.hot_dynamic > 0 {
        for (f, &w) in out.fraction.iter_mut().zip(&weights) {
            *f = w as f64 / out.hot_dynamic as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vp_exec::Sink;
    use vp_hsd::PhaseBranch;

    fn phase(id: usize, branches: &[(u64, u64, u64)]) -> Phase {
        let mut map = BTreeMap::new();
        for &(a, e, t) in branches {
            map.insert(a, PhaseBranch::once(e, t));
        }
        Phase {
            id,
            branches: map,
            first_detected_at: 0,
            detections: 1,
        }
    }

    fn counts_for(entries: &[(u64, u64)]) -> BranchCounts {
        // Simulate dynamic counts by feeding events.
        let mut bc = BranchCounts::new();
        for &(addr, execs) in entries {
            for i in 0..execs {
                bc.retire(crate::branches::tests_support::branch_event(
                    addr,
                    i % 2 == 0,
                ));
            }
        }
        bc
    }

    #[test]
    fn unique_and_multi_split() {
        let p1 = phase(0, &[(0x10, 100, 95), (0x20, 100, 50)]);
        let p2 = phase(1, &[(0x20, 100, 50), (0x30, 100, 5)]);
        let counts = counts_for(&[(0x10, 10), (0x20, 20), (0x30, 30)]);
        let cat = categorize(&[p1, p2], &counts, 0.7);
        // 0x10 unique biased (weight 10), 0x20 multi no-bias (20),
        // 0x30 unique biased (30).
        assert!((cat.of(BranchCategory::UniqueBiased) - 40.0 / 60.0).abs() < 1e-9);
        assert!((cat.of(BranchCategory::MultiNoBias) - 20.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn swing_classification() {
        // Same branch: 95% taken in one phase, 3% in another → Multi High.
        let p1 = phase(0, &[(0x10, 100, 95)]);
        let p2 = phase(1, &[(0x10, 100, 3)]);
        let counts = counts_for(&[(0x10, 10)]);
        let cat = categorize(&[p1, p2], &counts, 0.7);
        assert_eq!(cat.of(BranchCategory::MultiHigh), 1.0);

        // 90% vs 40% → swing 0.5 → Multi Low.
        let p1 = phase(0, &[(0x10, 100, 90)]);
        let p2 = phase(1, &[(0x10, 100, 40)]);
        let counts = counts_for(&[(0x10, 10)]);
        let cat = categorize(&[p1, p2], &counts, 0.7);
        assert_eq!(cat.of(BranchCategory::MultiLow), 1.0);

        // 90% vs 80% → Multi Same.
        let p1 = phase(0, &[(0x10, 100, 90)]);
        let p2 = phase(1, &[(0x10, 100, 80)]);
        let counts = counts_for(&[(0x10, 10)]);
        let cat = categorize(&[p1, p2], &counts, 0.7);
        assert_eq!(cat.of(BranchCategory::MultiSame), 1.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let p1 = phase(0, &[(0x10, 100, 95), (0x20, 50, 25)]);
        let p2 = phase(1, &[(0x20, 80, 40), (0x30, 10, 1)]);
        let counts = counts_for(&[(0x10, 5), (0x20, 7), (0x30, 3), (0x99, 100)]);
        let cat = categorize(&[p1, p2], &counts, 0.7);
        let sum: f64 = cat.fraction.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // 0x99 never in a hot spot: contributes to total, not hot.
        assert_eq!(cat.hot_dynamic, 15);
        assert_eq!(cat.total_dynamic, 115);
        assert!(cat.hot_coverage() < 0.2);
    }
}
