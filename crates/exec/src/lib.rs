//! # vp-exec
//!
//! Architectural (functional) execution of `vp-program` programs.
//!
//! The executor interprets a laid-out program and produces the *retired
//! instruction stream* that the rest of the system consumes: the Hot Spot
//! Detector (`vp-hsd`) watches retiring branches exactly as the paper's
//! hardware does, the timing model (`vp-sim`) replays the stream through a
//! pipeline model, and the coverage metrics count how many retired
//! instructions came from extracted packages.
//!
//! Execution is layout-aware: a `Goto` encoded as a fall-through retires no
//! instruction, and an inverted branch reports the *encoded* taken direction
//! to the fetch/predictor machinery while preserving the *architectural*
//! direction for profile semantics.
//!
//! ```
//! use vp_program::{ProgramBuilder, Layout};
//! use vp_exec::{Executor, RunConfig, NullSink};
//! use vp_isa::Reg;
//!
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", |f| {
//!     f.li(Reg::int(8), 41);
//!     f.addi(Reg::int(8), Reg::int(8), 1);
//!     f.halt();
//! });
//! let p = pb.build();
//! let layout = Layout::natural(&p);
//! let mut exec = Executor::new(&p, &layout);
//! let stats = exec.run(&mut NullSink, &RunConfig::default())?;
//! assert_eq!(exec.reg(Reg::int(8)), 42);
//! assert_eq!(stats.retired, 3); // li, add, halt
//! # Ok::<(), vp_exec::ExecError>(())
//! ```
//!
//! ## Capture and replay
//!
//! Interpreting a workload is the most expensive step of the experiment
//! pipeline, and every consumer — the Hot Spot Detector, branch-count
//! oracles, the timing model — wants the *same* retired stream. The
//! [`trace_store`] module decouples collection from consumption:
//!
//! 1. **Capture** once: [`CapturedTrace::capture`] (or `capture_with`, which
//!    also feeds live sinks during the recording run) executes the program
//!    and records the stream into a compact delta-coded encoding, typically
//!    one to two bytes per retired instruction.
//! 2. **Replay** many times: [`CapturedTrace::replay`] reconstructs every
//!    event bit-for-bit — the same [`ColEvent`] values live execution hands
//!    a [`Sink`] — with no register file, no memory image, no
//!    interpretation.
//! 3. **Cache** across consumers: [`TraceStore`] memoizes captures by
//!    [`TraceKey`] `(workload, program/layout fingerprint, RunConfig)`
//!    under a byte budget (`VP_TRACE_CACHE_MB`, default 512) with LRU
//!    eviction, so sweeps that revisit a workload replay instead of
//!    re-executing — and degrade gracefully to re-execution when the
//!    budget is exceeded. Concurrent requests for the same key are
//!    single-flighted: one thread interprets, the rest share its capture.
//! 4. **Persist** across processes: with `VP_TRACE_DIR` set, captures are
//!    serialized to disk ([`DiskTier`], versioned header + CRC, budget
//!    `VP_TRACE_DISK_MB` with mtime-LRU eviction), so a warmed cache
//!    survives restarts and is shared by sharded sweep processes.
//!
//! ```
//! use vp_program::{ProgramBuilder, Layout};
//! use vp_exec::{CapturedTrace, InstCounts, RunConfig};
//! use vp_isa::Reg;
//!
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", |f| {
//!     let i = Reg::int(8);
//!     f.li(i, 0);
//!     f.for_range(i, 0, 10, |f| f.nop());
//!     f.halt();
//! });
//! let p = pb.build();
//! let layout = Layout::natural(&p);
//!
//! let trace = CapturedTrace::capture(&p, &layout, &RunConfig::default())?;
//! let mut counts = InstCounts::new();
//! let stats = trace.replay(&mut counts); // no Executor involved
//! assert_eq!(counts.total, stats.retired);
//! # Ok::<(), vp_exec::ExecError>(())
//! ```
//!
//! ## Differential replay
//!
//! Packed binaries are captured under a [`TraceKey::packed`] key (the
//! original key plus the package-set fingerprint), and the [`diff`] module
//! structurally aligns a packed capture against the original one: packed
//! locations are folded back to original block identities through an
//! [`IdentityMap`], rewriter-introduced events (exit blocks, launch stubs,
//! migration glue) are dropped as expected divergences, and everything
//! else must align visit-for-visit or the run is flagged with
//! first-divergence forensics. The [`Differ`] is a [`Sink`] over the packed
//! stream, so it rides the same replay as the packed run's other
//! consumers; [`diff_traces`] is that replay on its own. See the `VP_DIFF`
//! knob ([`DiffMode::from_env`]).

#![warn(missing_docs)]

pub mod diff;
pub mod event;
pub mod exec;
pub mod fx;
pub mod memory;
pub mod trace_store;

pub use diff::{
    diff_traces, BlockIdentity, DiffMode, DiffOptions, DiffReport, DiffVerdict, Differ, Divergence,
    IdentityMap, Visit,
};
pub use event::{col, ColEvent, Ctrl, FnSink, InstCounts, NullSink, Retired, Sink};
pub use exec::{ExecError, Executor, RunConfig, RunStats, StopReason};
pub use fx::{FxHashMap, FxHasher};
pub use memory::Memory;
pub use trace_store::{
    crc32, CapturedTrace, DiskTier, StoreSnapshot, TraceKey, TraceRecorder, TraceStore,
    DEFAULT_CACHE_MB, DEFAULT_DISK_MB, FORMAT_VERSION as TRACE_FORMAT_VERSION,
};
