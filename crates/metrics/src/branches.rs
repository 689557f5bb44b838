//! Per-branch dynamic profiling sink (ground truth for Figure 9).

use vp_exec::{col, ColEvent, FxHashMap, Sink};

/// Exact per-static-branch dynamic counts, keyed by branch address — the
/// oracle the hardware profiler approximates.
#[derive(Debug, Clone, Default)]
pub struct BranchCounts {
    map: FxHashMap<u64, (u64, u64)>, // (executed, taken)
    total: u64,
}

impl BranchCounts {
    /// Creates an empty profile.
    pub fn new() -> BranchCounts {
        BranchCounts::default()
    }

    /// Dynamic executions of the branch at `addr`.
    pub fn exec(&self, addr: u64) -> u64 {
        self.map.get(&addr).map_or(0, |e| e.0)
    }

    /// Dynamic taken count of the branch at `addr`.
    pub fn taken(&self, addr: u64) -> u64 {
        self.map.get(&addr).map_or(0, |e| e.1)
    }

    /// Total dynamic conditional-branch executions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct static branches seen.
    pub fn statics(&self) -> usize {
        self.map.len()
    }

    /// Iterates `(addr, executed, taken)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.map.iter().map(|(&a, &(e, t))| (a, e, t))
    }
}

impl BranchCounts {
    /// Counts one execution of the conditional branch at `addr`. Kept out
    /// of line so the inlined [`Sink::retire`] filter stays small in the
    /// loops it is inlined into.
    #[inline(never)]
    fn count(&mut self, addr: u64, taken: bool) {
        let c = self.map.entry(addr).or_insert((0, 0));
        c.0 += 1;
        c.1 += u64::from(taken);
        self.total += 1;
    }
}

impl Sink for BranchCounts {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        if e.flags & col::COND != 0 {
            self.count(e.addr, e.flags & col::ARCH_TAKEN != 0);
        }
    }
}

/// Test-only event constructors shared by this crate's unit tests.
#[cfg(test)]
pub mod tests_support {
    use vp_exec::{col, ColEvent, Ctrl, Retired};
    use vp_isa::{CodeRef, FuClass};

    /// A retired conditional branch at `addr`.
    pub fn branch_event(addr: u64, taken: bool) -> ColEvent {
        col::event(&Retired {
            loc: CodeRef::new(0, 0),
            addr,
            fu: FuClass::Branch,
            latency: 1,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: Some(Ctrl {
                block: CodeRef::new(0, 0),
                is_cond: true,
                arch_taken: taken,
                taken,
                is_call: false,
                is_ret: false,
                target: 0,
                ret_addr: 0,
            }),
            in_package: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::{Ctrl, Retired};
    use vp_isa::{CodeRef, FuClass};

    fn branch_event(addr: u64, taken: bool) -> Retired {
        Retired {
            loc: CodeRef::new(0, 0),
            addr,
            fu: FuClass::Branch,
            latency: 1,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: Some(Ctrl {
                block: CodeRef::new(0, 0),
                is_cond: true,
                arch_taken: taken,
                taken,
                is_call: false,
                is_ret: false,
                target: 0,
                ret_addr: 0,
            }),
            in_package: false,
        }
    }

    #[test]
    fn counts_per_branch() {
        let mut bc = BranchCounts::new();
        bc.retire(col::event(&branch_event(0x10, true)));
        bc.retire(col::event(&branch_event(0x10, false)));
        bc.retire(col::event(&branch_event(0x20, true)));
        assert_eq!(bc.exec(0x10), 2);
        assert_eq!(bc.taken(0x10), 1);
        assert_eq!(bc.total(), 3);
        assert_eq!(bc.statics(), 2);
    }

    #[test]
    fn non_branches_ignored() {
        let mut bc = BranchCounts::new();
        let mut ev = branch_event(0x10, true);
        ev.ctrl = None;
        bc.retire(col::event(&ev));
        assert_eq!(bc.total(), 0);
    }
}
