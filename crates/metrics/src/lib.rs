//! # vp-metrics
//!
//! Experiment metrics and the end-to-end harness behind the paper's
//! evaluation section:
//!
//! * [`profile`] / [`evaluate`] — the Figure 8 / Figure 10 / Table 3 cell
//!   driver: profile a workload once with the Hot Spot Detector, then
//!   evaluate any number of `{inference} × {linking}` configurations;
//! * [`ClaimTable`] — the same evaluation for a whole matrix, measuring
//!   each distinct packed binary once;
//! * [`BranchCounts`] — ground-truth per-branch dynamic counts;
//! * [`categorize()`] — the Figure 9 branch taxonomy (Unique/Multi ×
//!   bias/swing);
//! * [`TextTable`] / [`bar`] — plain-text rendering used by the `bench`
//!   crate's table/figure binaries.
//!
//! ```no_run
//! use vp_metrics::{profile, evaluate};
//! use vp_hsd::HsdConfig;
//! use vp_core::PackConfig;
//! use vp_opt::OptConfig;
//!
//! let program = vp_workloads::twolf::build(1);
//! let pw = profile("300.twolf A", program, &HsdConfig::table2(), None)?;
//! let out = evaluate(&pw, &PackConfig::default(), &OptConfig::default(), None)?;
//! println!("coverage: {:.1}%", 100.0 * out.coverage);
//! # Ok::<(), vp_exec::ExecError>(())
//! ```
//!
//! ## Capture/replay lifecycle
//!
//! The harness never executes an original binary more than once per
//! `(workload, [`vp_exec::RunConfig`])` key: [`profile`] routes the run
//! through [`vp_exec::TraceStore::global`], which records the retired
//! stream on first contact and replays it for every later consumer.
//! Within one [`ProfiledWorkload`], the Hot Spot Detector, the
//! [`BranchCounts`] oracle, and baseline timing all observe the *same*
//! capture; across calls, re-profiling a workload under a different
//! detector configuration (the ablation sweeps) replays instead of
//! re-executing. Only packed binaries run live, because rewriting
//! changes the stream.
//!
//! The same machinery is available directly — capture once, replay into
//! a [`vp_hsd::HotSpotDetector`] (or any other `Sink`) as many times as
//! needed:
//!
//! ```
//! use vp_exec::{CapturedTrace, RunConfig};
//! use vp_hsd::{HotSpotDetector, HsdConfig};
//! use vp_program::{Layout, ProgramBuilder};
//! use vp_isa::Reg;
//!
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", |f| {
//!     let i = Reg::int(8);
//!     f.li(i, 0);
//!     f.for_range(i, 0, 2000, |f| f.nop());
//!     f.halt();
//! });
//! let p = pb.build();
//! let layout = Layout::natural(&p);
//!
//! // One architectural execution...
//! let trace = CapturedTrace::capture(&p, &layout, &RunConfig::default())?;
//!
//! // ...replayed through hardware profilers of different geometries.
//! let mut small = HotSpotDetector::new(HsdConfig::tiny());
//! let mut table2 = HotSpotDetector::new(HsdConfig::table2());
//! trace.replay(&mut small);
//! trace.replay(&mut table2);
//! assert!(!small.records().is_empty(), "tight loop is a hot spot");
//! # Ok::<(), vp_exec::ExecError>(())
//! ```

#![warn(missing_docs)]

pub mod branches;
pub mod categorize;
pub mod harness;
pub mod render;
pub mod result_cache;
pub mod timeline;

pub use branches::BranchCounts;
pub use categorize::{categorize, BranchCategory, Categorization, CATEGORIES};
pub use harness::{
    evaluate, evaluate_with_diff, profile, ClaimTable, ConfigOutcome, Evaluation, ProfiledWorkload,
    Twin,
};
pub use render::{bar, pct, TextTable};
pub use result_cache::{ResultCache, ResultKey, DEFAULT_RESULT_MB, PIPELINE_VERSION};
pub use timeline::{phase_timeline, PhaseMark, ResidencyInterval, ResidencySink};
