//! # vp-sim
//!
//! Cycle-level timing substrate: the paper's Table 2 EPIC machine as a
//! trace-driven model.
//!
//! Feed a run of a [`TimingModel`] ([`TimingModel::run`], a `vp-exec`
//! sink) a replayed or live retired stream and read cycle counts
//! afterwards — the speedup experiment of the paper's Figure 10 simulates
//! the original and the vacuum-packed binary this way and compares
//! cycles.
//!
//! ```
//! use vp_program::{ProgramBuilder, Layout};
//! use vp_exec::{Executor, RunConfig};
//! use vp_sim::{TimingModel, MachineConfig};
//! use vp_isa::{Cond, Reg, Src};
//!
//! let mut pb = ProgramBuilder::new();
//! pb.func("main", |f| {
//!     let i = Reg::int(8);
//!     f.li(i, 0);
//!     f.while_(
//!         |f| f.cond(Cond::Lt, i, Src::Imm(1000)),
//!         |f| f.addi(i, i, 1),
//!     );
//!     f.halt();
//! });
//! let p = pb.build();
//! let layout = Layout::natural(&p);
//! let mut timing = TimingModel::new(MachineConfig::table2());
//! Executor::new(&p, &layout).run(&mut timing.run(), &RunConfig::default())?;
//! assert!(timing.cycles() > 0);
//! assert!(timing.ipc() > 0.5); // tight loop, well predicted
//! # Ok::<(), vp_exec::ExecError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod pipeline;
pub mod predictor;

pub use cache::Cache;
pub use config::MachineConfig;
pub use pipeline::{TimingModel, TimingRun, TimingStats};
pub use predictor::{Btb, Gshare, Ras};
