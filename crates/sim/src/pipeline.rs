//! The trace-driven in-order EPIC timing model.
//!
//! The paper measures a ten-stage EPIC pipeline with the Table 2 resources.
//! This model replays the retired-instruction stream through the same
//! first-order constraints:
//!
//! * in-order issue of up to `issue_width` instructions per cycle, limited
//!   per functional-unit class;
//! * register scoreboarding with full bypassing (result latencies from
//!   `vp-isa`, extended by data-cache misses);
//! * a fetch model in which up to `issue_width` sequential instructions
//!   form a fetch group, a taken transfer ends the group, instruction-cache
//!   misses stall fetch, and branch mispredictions redirect fetch after the
//!   Table 2 branch-resolution latency;
//! * gshare + BTB + RAS prediction updated in retirement order.
//!
//! Wrong-path *execution* is approximated: on a misprediction the fetch
//! unit touches I-cache lines down the wrong direction for the resolution
//! window (cache pollution), but wrong-path instructions do not occupy
//! functional units. This shifts absolute cycle counts slightly but not
//! the relative comparisons the experiments report — see DESIGN.md.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::predictor::{Btb, Gshare, Ras};
use vp_exec::{col, CapturedTrace, ColEvent, Sink};
use vp_isa::reg::NUM_REGS;

// Issue-bandwidth bookkeeping. Issue is in-order: every candidate issue
// cycle is clamped to at least `last_issue` (it participates in the
// readiness `max` chain), so cycles before `last_issue` are never probed
// again and cycles after it have never been issued to. The whole
// per-cycle table a naive model would keep therefore collapses to one
// packed counts word describing the `last_issue` cycle — byte lanes hold
// the total-issued count and the four per-FU-class counts (all bounded
// by `issue_width` ≤ 255).

/// Byte lane of the total-issued count in the packed issue-counts word.
const LANE_ISSUED: u32 = 0;
/// Byte lane base of the per-FU-class counts (class `k` is lane `1 + k`).
const LANE_FU: u32 = 8;

/// Aggregate timing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Instructions replayed.
    pub retired: u64,
    /// Conditional and return mispredictions.
    pub mispredicts: u64,
    /// Correctly-predicted taken transfers (each ends a fetch group).
    pub taken_redirects: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// L1 data-cache misses.
    pub dcache_misses: u64,
    /// Unified L2 misses.
    pub l2_misses: u64,
    /// Conditional branches replayed (direction-predictor lookups).
    pub cond_branches: u64,
    /// Return instructions replayed (RAS lookups).
    pub returns: u64,
    /// Instruction-cache demand accesses (one per fetched line).
    pub icache_accesses: u64,
    /// L1 data-cache accesses.
    pub dcache_accesses: u64,
    /// Unified L2 accesses (L1 misses from either side).
    pub l2_accesses: u64,
}

impl TimingStats {
    /// Fraction of predicted transfers (conditional branches and returns)
    /// resolved without a redirect.
    pub fn predictor_hit_rate(&self) -> f64 {
        let predicted = self.cond_branches + self.returns;
        if predicted == 0 {
            return 1.0;
        }
        1.0 - self.mispredicts as f64 / predicted as f64
    }

    /// Instruction-cache miss rate.
    pub fn icache_miss_rate(&self) -> f64 {
        rate(self.icache_misses, self.icache_accesses)
    }

    /// L1 data-cache miss rate.
    pub fn dcache_miss_rate(&self) -> f64 {
        rate(self.dcache_misses, self.dcache_accesses)
    }

    /// Unified L2 miss rate (relative to L2 accesses, i.e. L1 misses).
    pub fn l2_miss_rate(&self) -> f64 {
        rate(self.l2_misses, self.l2_accesses)
    }
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

use vp_trace::{Counter, Value};

static SIM_CYCLES: Counter = Counter::new("sim.cycles");
static SIM_RETIRED: Counter = Counter::new("sim.retired");
static SIM_MISPREDICTS: Counter = Counter::new("sim.mispredicts");
static SIM_COND_BRANCHES: Counter = Counter::new("sim.cond_branches");
static SIM_RETURNS: Counter = Counter::new("sim.returns");
static SIM_TAKEN_REDIRECTS: Counter = Counter::new("sim.taken_redirects");
static SIM_ICACHE_ACCESSES: Counter = Counter::new("sim.icache.accesses");
static SIM_ICACHE_MISSES: Counter = Counter::new("sim.icache.misses");
static SIM_DCACHE_ACCESSES: Counter = Counter::new("sim.dcache.accesses");
static SIM_DCACHE_MISSES: Counter = Counter::new("sim.dcache.misses");
static SIM_L2_ACCESSES: Counter = Counter::new("sim.l2.accesses");
static SIM_L2_MISSES: Counter = Counter::new("sim.l2.misses");

/// The timing model. Feed a run of it ([`TimingModel::run`]) the retired
/// stream, then read [`TimingModel::cycles`].
#[derive(Debug)]
pub struct TimingModel {
    cfg: MachineConfig,
    gshare: Gshare,
    btb: Btb,
    ras: Ras,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    reg_ready: [u64; NUM_REGS],
    last_issue: u64,
    /// Packed per-class issue counts for the `last_issue` cycle (see the
    /// `LANE_*` constants).
    issue_counts: u64,
    fetch_cycle: u64,
    fetch_left: u32,
    last_line: u64,
    stats: TimingStats,
}

impl TimingModel {
    /// Creates a timing model for the given machine.
    pub fn new(cfg: MachineConfig) -> TimingModel {
        TimingModel {
            gshare: Gshare::new(cfg.gshare_bits),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_entries),
            l1i: Cache::new(cfg.l1i_bytes, cfg.cache_ways, cfg.line_bytes),
            l1d: Cache::new(cfg.l1d_bytes, cfg.cache_ways, cfg.line_bytes),
            l2: Cache::new(cfg.l2_bytes, cfg.cache_ways, cfg.line_bytes),
            reg_ready: [0; NUM_REGS],
            last_issue: 0,
            issue_counts: 0,
            fetch_cycle: 0,
            fetch_left: cfg.issue_width,
            last_line: u64::MAX,
            stats: TimingStats::default(),
            cfg,
        }
    }

    /// Total cycles consumed so far, including pipeline drain.
    pub fn cycles(&self) -> u64 {
        self.last_issue + self.cfg.front_depth as u64 + 1
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        self.stats.retired as f64 / self.cycles().max(1) as f64
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// Publishes the model's aggregate statistics as `sim.*` trace
    /// counters plus a `sim.rates` event carrying the predictor hit rate
    /// and per-cache miss rates. Call once per completed run.
    pub fn emit_trace(&self) {
        if !vp_trace::enabled() {
            return;
        }
        let s = &self.stats;
        SIM_CYCLES.add(self.cycles());
        SIM_RETIRED.add(s.retired);
        SIM_MISPREDICTS.add(s.mispredicts);
        SIM_COND_BRANCHES.add(s.cond_branches);
        SIM_RETURNS.add(s.returns);
        SIM_TAKEN_REDIRECTS.add(s.taken_redirects);
        SIM_ICACHE_ACCESSES.add(s.icache_accesses);
        SIM_ICACHE_MISSES.add(s.icache_misses);
        SIM_DCACHE_ACCESSES.add(s.dcache_accesses);
        SIM_DCACHE_MISSES.add(s.dcache_misses);
        SIM_L2_ACCESSES.add(s.l2_accesses);
        SIM_L2_MISSES.add(s.l2_misses);
        vp_trace::event(
            "sim.rates",
            &[
                ("predictor_hit", Value::from(s.predictor_hit_rate())),
                ("icache_miss", Value::from(s.icache_miss_rate())),
                ("dcache_miss", Value::from(s.dcache_miss_rate())),
                ("l2_miss", Value::from(s.l2_miss_rate())),
            ],
        );
    }

    /// Extra latency of a data access through L1D → L2 → memory.
    fn daccess(&mut self, addr: u64) -> u32 {
        self.stats.dcache_accesses += 1;
        if self.l1d.access(addr) {
            0
        } else {
            self.stats.dcache_misses += 1;
            self.stats.l2_accesses += 1;
            if self.l2.access(addr) {
                self.cfg.l2_latency
            } else {
                self.stats.l2_misses += 1;
                self.cfg.l2_latency + self.cfg.mem_latency
            }
        }
    }

    /// Extra latency of a demand instruction fetch through L1I → L2 →
    /// memory.
    fn iaccess(&mut self, addr: u64) -> u32 {
        self.stats.icache_accesses += 1;
        match self.ifill(addr) {
            Some(extra) => {
                self.stats.icache_misses += 1;
                extra
            }
            None => 0,
        }
    }

    /// Brings `addr`'s line into L1I: `None` on an L1I hit, else the extra
    /// latency of the L2 (and memory) fill. Counts only the L2 traffic, so
    /// a wrong-path touch pollutes the caches without posing as a demand
    /// access or miss.
    fn ifill(&mut self, addr: u64) -> Option<u32> {
        if self.l1i.access(addr) {
            return None;
        }
        self.stats.l2_accesses += 1;
        Some(if self.l2.access(addr) {
            self.cfg.l2_latency
        } else {
            self.stats.l2_misses += 1;
            self.cfg.l2_latency + self.cfg.mem_latency
        })
    }
}

impl TimingModel {
    /// Opens a run of the model: a [`Sink`] guard that holds the per-event
    /// pipeline state hoisted out of the model for as long as it lives and
    /// writes it back when dropped. Feed it a replay
    /// ([`CapturedTrace::replay`]), alone or composed with other sinks, or
    /// a live execution; read [`TimingModel::cycles`] and
    /// [`TimingModel::stats`] once the guard is gone.
    ///
    /// The replay loop fuses the stream decode with the model's step
    /// kernel: the decode's serial dependency chain
    /// (stream cursor, slot index, memory anchor) and the model's (fetch
    /// cycle, issue cursor, scoreboard) are independent per event, so the
    /// host overlaps the two chains.
    pub fn run(&mut self) -> TimingRun<'_> {
        TimingRun {
            k: self.fused_consts(),
            st: self.fused_enter(),
            retired: 0,
            model: self,
        }
    }

    /// Replays `trace` through the model: `trace.replay(&mut self.run())`.
    pub fn replay_trace(&mut self, trace: &CapturedTrace) -> vp_exec::RunStats {
        trace.replay(&mut self.run())
    }

    /// Hoists the config-derived constants [`TimingModel::fused_step`]
    /// reads per event.
    fn fused_consts(&self) -> FusedConsts {
        let line_bytes = self.cfg.line_bytes as u64;
        FusedConsts {
            issue_width: self.cfg.issue_width,
            issue_cap: u64::from(self.cfg.issue_width),
            front_depth: self.cfg.front_depth as u64,
            branch_resolution: self.cfg.branch_resolution,
            line_bytes,
            line_shift: line_bytes
                .is_power_of_two()
                .then(|| line_bytes.trailing_zeros()),
            units: [
                u64::from(self.cfg.int_alu_units),
                u64::from(self.cfg.fp_units),
                u64::from(self.cfg.mem_units),
                u64::from(self.cfg.branch_units),
            ],
            wrong_path_fetch: self.cfg.wrong_path_fetch,
        }
    }

    /// Copies the model's per-event pipeline state into the hoisted form
    /// [`TimingModel::fused_step`] threads through registers.
    fn fused_enter(&self) -> FusedState {
        // Local scoreboard with the two sentinel slots the exec-word
        // encoding points absent operands at: `col::USE_NONE` stays zero
        // (never written), `col::DEF_NONE` absorbs dead writebacks.
        let mut reg = [0u64; NUM_REGS + 2];
        reg[..NUM_REGS].copy_from_slice(&self.reg_ready);
        FusedState {
            fetch_cycle: self.fetch_cycle,
            fetch_left: self.fetch_left,
            last_line: self.last_line,
            last_issue: self.last_issue,
            issue_counts: self.issue_counts,
            reg,
            cond_branches: 0,
            returns: 0,
            taken_redirects: 0,
        }
    }

    /// Writes the hoisted pipeline state and deferred counters back into
    /// the model.
    fn fused_exit(&mut self, st: &FusedState) {
        self.fetch_cycle = st.fetch_cycle;
        self.fetch_left = st.fetch_left;
        self.last_line = st.last_line;
        self.last_issue = st.last_issue;
        self.issue_counts = st.issue_counts;
        self.reg_ready.copy_from_slice(&st.reg[..NUM_REGS]);
        self.stats.cond_branches += st.cond_branches;
        self.stats.returns += st.returns;
        self.stats.taken_redirects += st.taken_redirects;
    }

    /// One event through the pipeline model, excluding the
    /// `stats.retired` bump (hoisted by the callers).
    ///
    /// Reads the [`ColEvent`] encoding and threads the hoisted state:
    ///
    /// * the per-event fetch/issue state (fetch cycle and group budget,
    ///   current I-line, last issue cycle) lives in [`FusedState`];
    /// * the register scoreboard carries two sentinel slots, so absent
    ///   sources read an always-zero entry and absent destinations write
    ///   a scratch entry — no `Option` tests in the issue math;
    /// * the I-line index uses a shift when the line size is a power of
    ///   two, and the gshare predict/update pair is fused into one
    ///   branch-free table walk ([`Gshare::predict_update`]).
    ///
    /// The test-only struct-path reference `retire_one` pins it.
    #[inline(always)]
    fn fused_step(&mut self, k: &FusedConsts, st: &mut FusedState, e: ColEvent) {
        let ColEvent {
            flags,
            addr,
            exec,
            mem,
            target,
            ..
        } = e;
        // --- fetch ---
        if st.fetch_left == 0 {
            st.fetch_cycle += 1;
            st.fetch_left = k.issue_width;
        }
        let line = match k.line_shift {
            Some(s) => addr >> s,
            None => addr / k.line_bytes,
        };
        if line != st.last_line {
            let extra = self.iaccess(addr);
            st.fetch_cycle += extra as u64;
            st.last_line = line;
        }
        st.fetch_left -= 1;

        // --- issue ---
        // Balanced max tree: the three scoreboard reads race each other,
        // not a serial chain through `t`.
        let r0 = st.reg[(exec & col::REG_MASK) as usize];
        let r1 = st.reg[(exec >> col::USE1_SHIFT & col::REG_MASK) as usize];
        let r2 = st.reg[(exec >> col::USE2_SHIFT & col::REG_MASK) as usize];
        let mut t = (st.fetch_cycle + k.front_depth)
            .max(st.last_issue)
            .max(r0.max(r1).max(r2));
        let fu = (exec >> col::FU_SHIFT & 0x3) as usize;
        let fu_lane = LANE_FU + 8 * fu as u32;
        let unit_cap = k.units[fu];
        let mut counts = if t == st.last_issue {
            st.issue_counts
        } else {
            0
        };
        while counts >> LANE_ISSUED & 0xff >= k.issue_cap || counts >> fu_lane & 0xff >= unit_cap {
            t += 1;
            counts = 0;
        }
        st.issue_counts = counts + ((1 << LANE_ISSUED) | (1 << fu_lane));
        st.last_issue = t;

        // --- execute / writeback ---
        let mut latency = (exec >> col::LATENCY_SHIFT & col::LATENCY_MASK) as u32;
        if flags & col::MEM != 0 {
            let extra = self.daccess(mem);
            if flags & col::STORE == 0 {
                latency += extra;
            }
        }
        st.reg[(exec >> col::DEF_SHIFT & col::REG_MASK) as usize] = t + latency as u64;

        // --- control ---
        if flags & col::CTRL != 0 {
            let taken = flags & col::TAKEN != 0;
            let mut mispredict = false;
            if flags & col::COND != 0 {
                st.cond_branches += 1;
                let pred = self.gshare.predict_update(addr, taken);
                if taken {
                    // One BTB walk covers both the target check and the
                    // update; the extra pre-update read on the
                    // `pred != taken` path is invisible.
                    let old = self.btb.lookup_update(addr, target);
                    if pred != taken || old != Some(target) {
                        mispredict = true;
                    }
                } else if pred != taken {
                    mispredict = true;
                }
            } else if flags & col::RET != 0 {
                st.returns += 1;
                if self.ras.pop() != Some(target) {
                    mispredict = true;
                }
            } else if flags & col::CALL != 0 {
                // For calls the target field carries the RAS return
                // address (see [`ColEvent::target`]).
                self.ras.push(target);
            }

            if mispredict {
                self.stats.mispredicts += 1;
                if k.wrong_path_fetch {
                    let wrong = if taken { addr + 4 } else { target };
                    for i in 0..k.branch_resolution as u64 {
                        self.ifill(wrong + i * k.line_bytes);
                    }
                }
                st.fetch_cycle = t + k.branch_resolution as u64;
                st.fetch_left = k.issue_width;
                st.last_line = u64::MAX;
            } else if taken {
                st.taken_redirects += 1;
                st.fetch_left = 0;
            }
        }
    }
}

/// One run of a [`TimingModel`] ([`TimingModel::run`]): the model's
/// per-event state hoisted into the guard, written back on drop.
#[derive(Debug)]
pub struct TimingRun<'m> {
    model: &'m mut TimingModel,
    k: FusedConsts,
    st: FusedState,
    retired: u64,
}

impl Sink for TimingRun<'_> {
    #[inline(always)]
    fn retire(&mut self, e: ColEvent) {
        self.retired += 1;
        self.model.fused_step(&self.k, &mut self.st, e);
    }
}

impl Drop for TimingRun<'_> {
    fn drop(&mut self) {
        self.model.stats.retired += self.retired;
        self.model.fused_exit(&self.st);
    }
}

/// Config-derived constants hoisted once per run.
#[derive(Debug, Clone, Copy)]
struct FusedConsts {
    issue_width: u32,
    issue_cap: u64,
    front_depth: u64,
    branch_resolution: u32,
    line_bytes: u64,
    line_shift: Option<u32>,
    units: [u64; 4],
    wrong_path_fetch: bool,
}

/// The per-event pipeline state of [`TimingModel`], hoisted into a
/// [`TimingRun`] for the duration of a run so the step kernel threads it
/// through registers; [`TimingModel::fused_exit`] writes it back. The hot
/// branch counters accumulate here and flush to the stats block once per
/// run.
#[derive(Debug)]
struct FusedState {
    fetch_cycle: u64,
    fetch_left: u32,
    last_line: u64,
    last_issue: u64,
    issue_counts: u64,
    reg: [u64; NUM_REGS + 2],
    cond_branches: u64,
    returns: u64,
    taken_redirects: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::Retired;
    use vp_isa::{CodeRef, FuClass, Reg};

    fn inst(
        addr: u64,
        fu: FuClass,
        def: Option<Reg>,
        uses: [Option<Reg>; 3],
        latency: u32,
    ) -> Retired {
        Retired {
            loc: CodeRef::new(0, 0),
            addr,
            fu,
            latency,
            def,
            uses,
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package: false,
        }
    }

    #[test]
    fn independent_alu_ops_bounded_by_unit_count() {
        let mut tm = TimingModel::new(MachineConfig::table2());
        for i in 0..1000u64 {
            tm.run().retire(col::event(&inst(
                0x1000 + 4 * (i % 16),
                FuClass::IntAlu,
                Some(Reg::int(20)),
                [None; 3],
                1,
            )));
        }
        // 5 integer ALUs: ~200 cycles, plus the cold-start I-cache miss
        // (L1I + L2 both miss once) and pipeline fill.
        let c = tm.cycles();
        assert!((200..320).contains(&c), "cycles = {c}");
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut tm = TimingModel::new(MachineConfig::table2());
        let r = Reg::int(20);
        for i in 0..1000u64 {
            tm.run().retire(col::event(&inst(
                0x1000 + 4 * (i % 16),
                FuClass::IntAlu,
                Some(r),
                [Some(r), None, None],
                1,
            )));
        }
        let c = tm.cycles();
        assert!(
            c >= 1000,
            "a dependence chain runs at one per cycle, got {c}"
        );
    }

    #[test]
    fn load_miss_extends_dependent_latency() {
        let cfg = MachineConfig::table2();
        let mut hit = TimingModel::new(cfg);
        let mut miss = TimingModel::new(cfg);
        // Warm the hit model's cache.
        let mut warm = inst(0x1000, FuClass::Mem, Some(Reg::int(20)), [None; 3], 2);
        warm.mem_addr = Some(0x9000);
        hit.run().retire(col::event(&warm));
        for tm in [&mut hit, &mut miss] {
            let mut ld = inst(0x1010, FuClass::Mem, Some(Reg::int(21)), [None; 3], 2);
            ld.mem_addr = Some(0x9000);
            tm.run().retire(col::event(&ld));
            // Dependent consumer.
            tm.run().retire(col::event(&inst(
                0x1014,
                FuClass::IntAlu,
                Some(Reg::int(22)),
                [Some(Reg::int(21)), None, None],
                1,
            )));
        }
        assert!(
            miss.cycles() > hit.cycles(),
            "miss {} must exceed hit {}",
            miss.cycles(),
            hit.cycles()
        );
    }

    #[test]
    fn mispredicted_branch_costs_resolution_latency() {
        let cfg = MachineConfig::table2();
        let run = |pattern: &dyn Fn(u64) -> bool| {
            let mut tm = TimingModel::new(cfg);
            for i in 0..4000u64 {
                let taken = pattern(i);
                let mut br = inst(0x1000, FuClass::Branch, None, [None; 3], 1);
                br.ctrl = Some(vp_exec::Ctrl {
                    block: CodeRef::new(0, 0),
                    is_cond: true,
                    arch_taken: taken,
                    taken,
                    is_call: false,
                    is_ret: false,
                    target: if taken { 0x2000 } else { 0x1004 },
                    ret_addr: 0,
                });
                tm.run().retire(col::event(&br));
                tm.run().retire(col::event(&inst(
                    if taken { 0x2000 } else { 0x1004 },
                    FuClass::IntAlu,
                    None,
                    [None; 3],
                    1,
                )));
            }
            tm
        };
        // Steady pattern: learnable. The noisy pattern defeats gshare by
        // construction: runs of 15 taken saturate the 10-bit history to a
        // single context, then a data-like pseudo-random bit follows — the
        // same context precedes conflicting outcomes, so roughly half of
        // those bits mispredict.
        let steady = run(&|_| true);
        let noisy = run(&|i| {
            if i % 16 != 15 {
                true
            } else {
                (i / 16).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
            }
        });
        assert!(
            noisy.stats().mispredicts > steady.stats().mispredicts + 50,
            "noisy {} vs steady {}",
            noisy.stats().mispredicts,
            steady.stats().mispredicts
        );
        assert!(noisy.cycles() > steady.cycles() + 300);
    }

    #[test]
    fn icache_miss_stalls_fetch() {
        let cfg = MachineConfig::table2();
        let mut tiny_loop = TimingModel::new(cfg);
        let mut huge_stride = TimingModel::new(cfg);
        for i in 0..2000u64 {
            tiny_loop.run().retire(col::event(&inst(
                0x1000 + 4 * (i % 8),
                FuClass::IntAlu,
                None,
                [None; 3],
                1,
            )));
            // Stride exceeding L1I capacity: every line misses.
            huge_stride.run().retire(col::event(&inst(
                0x1000 + 4096 * i,
                FuClass::IntAlu,
                None,
                [None; 3],
                1,
            )));
        }
        assert!(huge_stride.stats().icache_misses > 1900);
        assert!(huge_stride.cycles() > tiny_loop.cycles() * 5);
    }

    #[test]
    fn wrong_path_touches_are_not_demand_misses() {
        // A loop of 64 body instructions plus a closing branch spans five
        // 64-byte lines. The branch follows a pattern gshare cannot learn,
        // so it mispredicts dozens of times, and every mispredict touches seven
        // lines down the wrong path, two of them lines the loop never
        // executes. Demand misses are exactly the cold misses of the five
        // lines the loop fetches.
        let cfg = MachineConfig::table2();
        let mut tm = TimingModel::new(cfg);
        let (head, branch) = (0x1000u64, 0x1100u64);
        for i in 0..400u64 {
            for a in (head..branch).step_by(4) {
                tm.run()
                    .retire(col::event(&inst(a, FuClass::IntAlu, None, [None; 3], 1)));
            }
            let taken = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1;
            let mut br = inst(branch, FuClass::Branch, None, [None; 3], 1);
            br.ctrl = Some(vp_exec::Ctrl {
                block: CodeRef::new(0, 0),
                is_cond: true,
                arch_taken: taken,
                taken,
                is_call: false,
                is_ret: false,
                target: if taken { head } else { branch + 4 },
                ret_addr: 0,
            });
            tm.run().retire(col::event(&br));
            if !taken {
                // The fall-through path jumps back to the loop head.
                let mut jump = inst(branch + 4, FuClass::Branch, None, [None; 3], 1);
                jump.ctrl = Some(vp_exec::Ctrl {
                    block: CodeRef::new(0, 1),
                    is_cond: false,
                    arch_taken: true,
                    taken: true,
                    is_call: false,
                    is_ret: false,
                    target: head,
                    ret_addr: 0,
                });
                tm.run().retire(col::event(&jump));
            }
        }
        let s = tm.stats();
        assert!(s.mispredicts > 20, "{} mispredicts", s.mispredicts);
        assert_eq!(s.icache_misses, 5, "demand misses are the loop's lines");
        assert!(s.icache_accesses > s.icache_misses);
        assert!(
            s.l2_accesses >= 5 + 2,
            "wrong-path fills still reach L2: {} accesses",
            s.l2_accesses
        );
    }

    #[test]
    fn stats_count_retirements() {
        let mut tm = TimingModel::new(MachineConfig::table2());
        for i in 0..10 {
            tm.run().retire(col::event(&inst(
                0x1000 + 4 * i,
                FuClass::IntAlu,
                None,
                [None; 3],
                1,
            )));
        }
        assert_eq!(tm.stats().retired, 10);
        assert!(tm.ipc() > 0.0);
    }
}

#[cfg(test)]
mod ras_tests {
    use super::*;
    use vp_exec::{Executor, RunConfig};
    use vp_isa::{Cond, Reg, Src};
    use vp_program::{Layout, ProgramBuilder};

    /// Call-heavy code: the RAS must predict nearly every return.
    #[test]
    fn returns_are_predicted_by_the_ras() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare("leaf");
        pb.define(leaf, |f| {
            f.addi(Reg::ARG0, Reg::ARG0, 1);
            f.ret();
        });
        let main = pb.declare("main");
        pb.define(main, |f| {
            let i = Reg::int(20);
            f.li(i, 0);
            f.while_(
                |f| f.cond(Cond::Lt, i, Src::Imm(2000)),
                |f| {
                    f.call(leaf);
                    f.addi(i, i, 1);
                },
            );
            f.halt();
        });
        pb.set_entry(main);
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut tm = TimingModel::new(MachineConfig::table2());
        Executor::new(&p, &layout)
            .run(&mut tm.run(), &RunConfig::default())
            .unwrap();
        // 2000 returns; after warmup virtually all predicted.
        assert!(
            tm.stats().mispredicts < 50,
            "RAS should predict returns: {} mispredicts",
            tm.stats().mispredicts
        );
    }
}

/// The struct-path reference model: the pipeline written directly over
/// the interpreter's [`Retired`] form, with none of the column encoding
/// or state hoisting of [`TimingModel::fused_step`]. Test-only; it pins
/// the one production kernel.
#[cfg(test)]
mod reference {
    use super::*;
    use vp_exec::{Executor, Retired, RunConfig};
    use vp_hsd::{HotSpotDetector, HsdConfig};
    use vp_isa::FuClass;
    use vp_program::Layout;
    use vp_workloads::suite;

    impl TimingModel {
        fn units(&self, c: FuClass) -> u32 {
            match c {
                FuClass::IntAlu => self.cfg.int_alu_units,
                FuClass::Fp => self.cfg.fp_units,
                FuClass::Mem => self.cfg.mem_units,
                FuClass::Branch => self.cfg.branch_units,
            }
        }

        /// Retires one instruction through the model.
        fn retire_one(&mut self, r: &Retired) {
            self.stats.retired += 1;
            // --- fetch ---
            if self.fetch_left == 0 {
                self.fetch_cycle += 1;
                self.fetch_left = self.cfg.issue_width;
            }
            let line = r.addr / self.cfg.line_bytes as u64;
            if line != self.last_line {
                let extra = self.iaccess(r.addr);
                self.fetch_cycle += extra as u64;
                self.last_line = line;
            }
            self.fetch_left -= 1;

            // --- issue ---
            let mut t = self.fetch_cycle + self.cfg.front_depth as u64;
            t = t.max(self.last_issue);
            for u in r.uses.iter().flatten() {
                t = t.max(self.reg_ready[u.index()]);
            }
            let fu = col::fu_index(r.fu);
            let fu_lane = LANE_FU + 8 * fu as u32;
            let issue_width = u64::from(self.cfg.issue_width);
            let unit_cap = u64::from(self.units(r.fu));
            // `t >= last_issue` (it is in the max chain above), so the only
            // cycle with prior issue usage is `last_issue` itself; any later
            // cycle starts with fresh bandwidth.
            let mut counts = if t == self.last_issue {
                self.issue_counts
            } else {
                0
            };
            while counts >> LANE_ISSUED & 0xff >= issue_width
                || counts >> fu_lane & 0xff >= unit_cap
            {
                t += 1;
                counts = 0;
            }
            self.issue_counts = counts + ((1 << LANE_ISSUED) | (1 << fu_lane));
            self.last_issue = t;

            // --- execute / writeback ---
            let mut latency = r.latency;
            if let Some(addr) = r.mem_addr {
                let extra = self.daccess(addr);
                if !r.is_store {
                    latency += extra;
                }
                // Stores retire through the store buffer without stalling
                // dependents.
            }
            if let Some(d) = r.def {
                self.reg_ready[d.index()] = t + latency as u64;
            }

            // --- control ---
            if let Some(c) = &r.ctrl {
                let mut mispredict = false;
                if c.is_cond {
                    self.stats.cond_branches += 1;
                    let pred = self.gshare.predict(r.addr);
                    if pred != c.taken {
                        mispredict = true;
                    } else if c.taken && self.btb.lookup(r.addr) != Some(c.target) {
                        // Correct direction but no target available in time.
                        mispredict = true;
                    }
                    self.gshare.update(r.addr, c.taken);
                    if c.taken {
                        self.btb.update(r.addr, c.target);
                    }
                } else if c.is_ret {
                    self.stats.returns += 1;
                    if self.ras.pop() != Some(c.target) {
                        mispredict = true;
                    }
                } else if c.is_call {
                    self.ras.push(c.ret_addr);
                }
                // Direct jumps and calls redirect fetch without penalty (their
                // targets are available at decode).

                if mispredict {
                    self.stats.mispredicts += 1;
                    if self.cfg.wrong_path_fetch {
                        // Pollute the I-cache down the wrong path until
                        // resolution: one sequential line per fetch cycle.
                        // Those touches are speculative fetches, not demand
                        // accesses of committed code.
                        let wrong = if c.taken { r.addr + 4 } else { c.target };
                        for i in 0..self.cfg.branch_resolution as u64 {
                            self.ifill(wrong + i * self.cfg.line_bytes as u64);
                        }
                    }
                    self.fetch_cycle = t + self.cfg.branch_resolution as u64;
                    self.fetch_left = self.cfg.issue_width;
                    self.last_line = u64::MAX;
                } else if c.taken {
                    self.stats.taken_redirects += 1;
                    // A taken transfer ends the fetch group.
                    self.fetch_left = 0;
                }
            }
        }
    }

    /// The fused kernel — replayed from a capture and driven live through
    /// a [`TimingRun`] — against the struct-path reference fed by live
    /// execution: bit-identical [`TimingStats`] and cycles on every
    /// workload of the Table 1 suite. The hot-spot detector's column
    /// `retire` is held to the same standard against `observe` on the
    /// struct form.
    #[test]
    fn all_sim_replay_paths_are_bit_identical_across_the_suite() {
        let machine = MachineConfig::table2();
        let workloads = suite(1);
        assert!(workloads.len() >= 12, "Table 1 suite");
        for w in &workloads {
            let layout = Layout::natural(&w.program);
            let cfg = RunConfig::default();
            let label = w.label();

            let mut reference = TimingModel::new(machine);
            let mut hsd_reference = HotSpotDetector::new(HsdConfig::default());
            Executor::new(&w.program, &layout)
                .run_with(&cfg, |r| {
                    reference.retire_one(r);
                    if let Some(c) = r.ctrl.filter(|c| c.is_cond) {
                        hsd_reference.observe(r.addr, c.arch_taken);
                    }
                })
                .expect("reference run");

            let mut live = TimingModel::new(machine);
            Executor::new(&w.program, &layout)
                .run(&mut live.run(), &cfg)
                .expect("live run");
            let trace = CapturedTrace::capture(&w.program, &layout, &cfg).expect("capture");
            let mut fused = TimingModel::new(machine);
            fused.replay_trace(&trace);
            let mut hsd = HotSpotDetector::new(HsdConfig::default());
            trace.replay(&mut hsd);

            for (path, model) in [("live run", &live), ("replay_trace", &fused)] {
                assert_eq!(reference.stats(), model.stats(), "{label}: {path} stats");
                assert_eq!(reference.cycles(), model.cycles(), "{label}: {path} cycles");
            }
            let s = reference.stats();
            assert!(
                0 < s.icache_misses && s.icache_misses <= s.icache_accesses,
                "{label}: {} I-cache demand misses of {} accesses",
                s.icache_misses,
                s.icache_accesses
            );
            assert_eq!(
                hsd_reference.records(),
                hsd.records(),
                "{label}: HSD column path diverged from struct path"
            );
        }
    }
}
