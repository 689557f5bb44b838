//! Time-ordered views of a workload's execution: package residency
//! intervals and phase-detection marks.
//!
//! The aggregate metrics in [`crate::harness`] answer *how much* (coverage,
//! speedup); this module answers *when*. [`ResidencySink`] folds a packed
//! run's retired stream into contiguous package-residency intervals — the
//! lanes of the dashboard's Gantt chart — and [`phase_timeline`] re-detects
//! phases over the original capture to place each phase's appearances on
//! the retired-branch axis. Both views come from replaying captures, so
//! rendering a timeline never re-executes a workload.

use vp_exec::{CapturedTrace, ColEvent, IdentityMap, Sink};
use vp_hsd::{assign_phases, FilterConfig, HotSpotDetector, HsdConfig};

/// One maximal run of consecutive retired events with the same package
/// identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyInterval {
    /// Index of the interval's first retired event.
    pub start: u64,
    /// One past the index of the interval's last retired event.
    pub end: u64,
    /// The resident package, or `None` for unpacked (original-code)
    /// stretches.
    pub package: Option<u32>,
}

impl ResidencyInterval {
    /// Number of retired events in the interval.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the interval covers no events.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// A [`Sink`] that folds a packed run's retired stream into
/// [`ResidencyInterval`]s using the pack's [`IdentityMap`].
///
/// Feed it to a replay of the *packed* capture, then call
/// [`ResidencySink::finish`]:
///
/// ```ignore
/// let mut sink = ResidencySink::new(pack_output.identity_map());
/// packed_trace.replay(&mut sink);
/// let intervals = sink.finish();
/// ```
#[derive(Debug)]
pub struct ResidencySink {
    map: IdentityMap,
    events: u64,
    cur: Option<u32>,
    cur_start: u64,
    intervals: Vec<ResidencyInterval>,
}

impl ResidencySink {
    /// Creates a sink classifying events through `map`.
    pub fn new(map: IdentityMap) -> ResidencySink {
        ResidencySink {
            map,
            events: 0,
            cur: None,
            cur_start: 0,
            intervals: Vec::new(),
        }
    }

    /// Closes the open interval and returns all intervals in stream order.
    /// Consecutive intervals always differ in package identity, and their
    /// spans tile `0..total_events` exactly.
    pub fn finish(mut self) -> Vec<ResidencyInterval> {
        if self.events > self.cur_start {
            self.intervals.push(ResidencyInterval {
                start: self.cur_start,
                end: self.events,
                package: self.cur,
            });
        }
        self.intervals
    }

    /// Retired events seen so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Sink for ResidencySink {
    fn retire(&mut self, e: ColEvent) {
        let package = self.map.lookup(e.loc).map(|id| id.package);
        if package != self.cur {
            if self.events > self.cur_start {
                self.intervals.push(ResidencyInterval {
                    start: self.cur_start,
                    end: self.events,
                    package: self.cur,
                });
            }
            self.cur = package;
            self.cur_start = self.events;
        }
        self.events += 1;
    }
}

/// One phase detection placed on the retired-branch axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMark {
    /// Retired-branch count when the detection fired.
    pub at_branch: u64,
    /// The filtered phase the detection belongs to.
    pub phase: usize,
}

/// Re-detects hot spots over a captured original run and assigns every
/// raw detection to its filtered phase, producing the workload's phase
/// timeline (marks in detection order) plus the total branches retired
/// (the axis length).
pub fn phase_timeline(
    trace: &CapturedTrace,
    hsd_cfg: &HsdConfig,
    filter_cfg: &FilterConfig,
) -> (Vec<PhaseMark>, u64) {
    let mut hsd = HotSpotDetector::new(*hsd_cfg);
    trace.replay(&mut hsd);
    let (_, assignment) = assign_phases(hsd.records(), filter_cfg);
    let marks = hsd
        .records()
        .iter()
        .zip(assignment)
        .map(|(r, phase)| PhaseMark {
            at_branch: r.at_branch,
            phase,
        })
        .collect();
    (marks, hsd.branches_retired())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::BlockIdentity;
    use vp_isa::{CodeRef, FuncId};

    fn retired(loc: CodeRef) -> ColEvent {
        ColEvent {
            flags: 0,
            addr: 0,
            exec: 0,
            mem: 0,
            target: 0,
            loc,
        }
    }

    /// A map where function `f` is a single-block package function of
    /// package id `pkg`.
    fn map_with(entries: &[(u32, u32)]) -> IdentityMap {
        let mut map = IdentityMap::new();
        for &(func, package) in entries {
            map.insert_package(
                FuncId(func),
                vec![BlockIdentity {
                    origin: CodeRef::new(func, 0),
                    package,
                    phase: 0,
                    is_exit: false,
                    is_stub: false,
                }],
            );
        }
        map
    }

    #[test]
    fn residency_sink_folds_runs_into_intervals() {
        let a = CodeRef::new(0, 0);
        let b = CodeRef::new(1, 0);
        let out = CodeRef::new(9, 0);
        // Functions 0 and 1 are package functions (packages 0 and 1);
        // function 9 is original code.
        let mut sink = ResidencySink::new(map_with(&[(0, 0), (1, 1)]));
        for loc in [a, a, a, out, out, b, b, a] {
            sink.retire(retired(loc));
        }
        let intervals = sink.finish();
        assert_eq!(
            intervals,
            vec![
                ResidencyInterval {
                    start: 0,
                    end: 3,
                    package: Some(0)
                },
                ResidencyInterval {
                    start: 3,
                    end: 5,
                    package: None
                },
                ResidencyInterval {
                    start: 5,
                    end: 7,
                    package: Some(1)
                },
                ResidencyInterval {
                    start: 7,
                    end: 8,
                    package: Some(0)
                },
            ]
        );
        // Intervals tile the stream exactly.
        assert_eq!(intervals.iter().map(ResidencyInterval::len).sum::<u64>(), 8);
        assert!(intervals.windows(2).all(|w| w[0].end == w[1].start));
        assert!(intervals.windows(2).all(|w| w[0].package != w[1].package));
    }

    #[test]
    fn residency_sink_empty_stream_yields_no_intervals() {
        let sink = ResidencySink::new(IdentityMap::new());
        assert!(sink.finish().is_empty());
    }
}
