//! Retired-instruction events and the sinks that consume them.

use vp_isa::reg::NUM_REGS;
use vp_isa::{CodeRef, FuClass, Reg};

/// Control-transfer details attached to a retired control instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctrl {
    /// Block whose terminator produced this control instruction.
    pub block: CodeRef,
    /// Whether this is a conditional branch (the only kind the Branch
    /// Behavior Buffer profiles).
    pub is_cond: bool,
    /// Architectural direction: the `Br` condition held. Meaningless for
    /// unconditional transfers (reported as `true`).
    pub arch_taken: bool,
    /// Encoded direction: the fetch stream was redirected (the instruction
    /// did not fall through). This is what the branch predictor and fetch
    /// unit observe.
    pub taken: bool,
    /// Whether this is a call.
    pub is_call: bool,
    /// Whether this is a return.
    pub is_ret: bool,
    /// Address of the next instruction fetched after this one.
    pub target: u64,
    /// For calls: the return address the matching return will transfer to
    /// (consumed by the return-address-stack model). Zero otherwise.
    pub ret_addr: u64,
}

/// One retired instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// Block the instruction belongs to.
    pub loc: CodeRef,
    /// Instruction fetch address.
    pub addr: u64,
    /// Functional unit class.
    pub fu: FuClass,
    /// Result latency with full bypassing (L1-hit latency for loads).
    pub latency: u32,
    /// Destination register, if any.
    pub def: Option<Reg>,
    /// Source registers (up to three; `None`-padded).
    pub uses: [Option<Reg>; 3],
    /// Effective byte address for loads and stores.
    pub mem_addr: Option<u64>,
    /// Whether this is a store (as opposed to a load) when `mem_addr` is
    /// set.
    pub is_store: bool,
    /// Control-transfer details for control instructions.
    pub ctrl: Option<Ctrl>,
    /// Whether the instruction came from an extracted package function.
    pub in_package: bool,
}

/// Per-event flag bits and field packing of the [`ColEvent`] form.
///
/// Sinks read a handful of flat `u8`/`u64` fields instead of chasing
/// `Option`s through 80-byte [`Retired`] records. This module defines the
/// encoding; [`event`] is the one place a [`Retired`] record is packed
/// into it, for live execution and for the static half of every replayed
/// event alike.
pub mod col {
    use super::{ColEvent, FuClass, Retired, NUM_REGS};

    /// `Retired::is_store` (meaningful only with [`MEM`]).
    pub const STORE: u8 = 1 << 0;
    /// The event carries an effective memory address (`mem_addr` is set).
    pub const MEM: u8 = 1 << 1;
    /// `Ctrl::arch_taken` (meaningful only with [`CTRL`]).
    pub const ARCH_TAKEN: u8 = 1 << 2;
    /// `Ctrl::taken` (meaningful only with [`CTRL`]).
    pub const TAKEN: u8 = 1 << 3;
    /// The event is a control transfer (`ctrl` is set).
    pub const CTRL: u8 = 1 << 4;
    /// `Ctrl::is_cond` (meaningful only with [`CTRL`]).
    pub const COND: u8 = 1 << 5;
    /// `Ctrl::is_call` (meaningful only with [`CTRL`]).
    pub const CALL: u8 = 1 << 6;
    /// `Ctrl::is_ret` (meaningful only with [`CTRL`]).
    pub const RET: u8 = 1 << 7;

    /// Source-register sentinel in the packed exec word: an absent `uses`
    /// slot encodes this index, which consumers back with an always-zero
    /// scoreboard entry so operand-readiness math stays branch-free.
    pub const USE_NONE: usize = NUM_REGS;
    /// Destination-register sentinel: an absent `def` encodes this index,
    /// a scratch scoreboard slot that absorbs the (dead) writeback.
    pub const DEF_NONE: usize = NUM_REGS + 1;

    /// Bit offset of the second source register in the exec word.
    pub const USE1_SHIFT: u32 = 8;
    /// Bit offset of the third source register in the exec word.
    pub const USE2_SHIFT: u32 = 16;
    /// Bit offset of the destination register in the exec word.
    pub const DEF_SHIFT: u32 = 24;
    /// Bit offset of the functional-unit class (2 bits, [`fu_index`]).
    pub const FU_SHIFT: u32 = 32;
    /// Bit offset of the result latency (29 bits, [`LATENCY_MASK`]).
    pub const LATENCY_SHIFT: u32 = 34;
    /// Mask for the latency field once shifted down by [`LATENCY_SHIFT`].
    pub const LATENCY_MASK: u64 = (1 << 29) - 1;
    /// Bit offset of the `Retired::in_package` flag — the static bit the
    /// 8-bit flag byte has no room for, carried in the exec word's top
    /// bit.
    pub const IN_PACKAGE_SHIFT: u32 = 63;
    /// Mask for one register field (8 bits).
    pub const REG_MASK: u64 = 0xff;

    /// Canonical dense index of a functional-unit class, used for the
    /// 2-bit field at [`FU_SHIFT`] and for per-class unit-count tables.
    pub fn fu_index(c: FuClass) -> usize {
        match c {
            FuClass::IntAlu => 0,
            FuClass::Fp => 1,
            FuClass::Mem => 2,
            FuClass::Branch => 3,
        }
    }

    /// Packs one retired instruction into its [`ColEvent`] form.
    #[inline]
    pub fn event(r: &Retired) -> ColEvent {
        ColEvent {
            flags: pack_flags(r),
            addr: r.addr,
            exec: pack_exec(r),
            mem: r.mem_addr.unwrap_or(0),
            target: match &r.ctrl {
                Some(c) if c.is_ret => c.target,
                // Consumer priority is COND → RET → CALL, so a call's
                // target field carries the address the RAS pushes.
                Some(c) if !c.is_cond && c.is_call => c.ret_addr,
                Some(c) => c.target,
                None => 0,
            },
            loc: r.loc,
        }
    }

    /// Packs the issue-relevant fields of one event — three sources,
    /// destination, functional unit, latency, package residency — into a
    /// single word.
    #[inline]
    pub fn pack_exec(r: &Retired) -> u64 {
        let use_of = |i: usize| r.uses[i].map_or(USE_NONE, |u| u.index()) as u64;
        let def = r.def.map_or(DEF_NONE, |d| d.index()) as u64;
        debug_assert!(
            u64::from(r.latency) <= LATENCY_MASK,
            "latency overflows the exec word"
        );
        use_of(0)
            | use_of(1) << USE1_SHIFT
            | use_of(2) << USE2_SHIFT
            | def << DEF_SHIFT
            | (fu_index(r.fu) as u64) << FU_SHIFT
            | (u64::from(r.latency) & LATENCY_MASK) << LATENCY_SHIFT
            | u64::from(r.in_package) << IN_PACKAGE_SHIFT
    }

    /// Derives the flag byte for one event.
    #[inline]
    pub fn pack_flags(r: &Retired) -> u8 {
        let mut f = 0;
        if r.mem_addr.is_some() {
            f |= MEM;
        }
        if r.is_store {
            f |= STORE;
        }
        if let Some(c) = &r.ctrl {
            f |= CTRL;
            if c.is_cond {
                f |= COND;
            }
            if c.arch_taken {
                f |= ARCH_TAKEN;
            }
            if c.taken {
                f |= TAKEN;
            }
            if c.is_call {
                f |= CALL;
            }
            if c.is_ret {
                f |= RET;
            }
        }
        f
    }
}

/// One retired instruction in column form ([`col::event`]), passed by
/// value to [`Sink::retire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColEvent {
    /// [`col`] flag bits.
    pub flags: u8,
    /// Fetch address.
    pub addr: u64,
    /// Packed sources/destination/FU/latency word ([`col::pack_exec`]).
    pub exec: u64,
    /// Effective memory address, 0 unless [`col::MEM`].
    pub mem: u64,
    /// Control-transfer auxiliary address: for returns the return
    /// target, for calls the return address pushed on the RAS, for other
    /// control transfers the architectural target; 0 for non-control
    /// events. The three cases are disjoint under the consumer priority
    /// `COND` → `RET` → `CALL`.
    pub target: u64,
    /// Block the instruction belongs to.
    pub loc: CodeRef,
}

/// Consumer of the retired stream: live execution ([`Executor::run`]) and
/// trace replay ([`CapturedTrace::replay`]) both call [`Sink::retire`]
/// once per retired instruction, in retirement order.
///
/// Sinks compose with tuples: `(&mut hsd, &mut counts)` style composition is
/// provided through the tuple implementation, and an `Option` of a sink is
/// a sink that may be absent.
///
/// [`Executor::run`]: crate::Executor::run
/// [`CapturedTrace::replay`]: crate::CapturedTrace::replay
pub trait Sink {
    /// Observes one retired instruction.
    fn retire(&mut self, e: ColEvent);
}

/// Adapts a closure to a [`Sink`], for consumers that keep hoisted state
/// in locals across a whole replay.
#[derive(Debug, Clone, Copy)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(ColEvent)> Sink for FnSink<F> {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        (self.0)(e);
    }
}

/// A sink that discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn retire(&mut self, _e: ColEvent) {}
}

// The adapters below are forced inline. Left to the inliner, a tuple
// carrying a `TimingRun` stayed out of line in the fused profile and
// measurement replays: every event paid a call, and the timing run's
// hoisted state lived in memory instead of registers.
impl<S: Sink + ?Sized> Sink for &mut S {
    #[inline(always)]
    fn retire(&mut self, e: ColEvent) {
        (**self).retire(e);
    }
}

/// An optional consumer: `None` ignores the stream.
impl<S: Sink> Sink for Option<S> {
    #[inline(always)]
    fn retire(&mut self, e: ColEvent) {
        if let Some(s) = self {
            s.retire(e);
        }
    }
}

impl<A: Sink, B: Sink> Sink for (A, B) {
    #[inline(always)]
    fn retire(&mut self, e: ColEvent) {
        self.0.retire(e);
        self.1.retire(e);
    }
}

impl<A: Sink, B: Sink, C: Sink> Sink for (A, B, C) {
    #[inline(always)]
    fn retire(&mut self, e: ColEvent) {
        self.0.retire(e);
        self.1.retire(e);
        self.2.retire(e);
    }
}

/// Simple aggregate counters over the retired stream, including the
/// package-residency numbers behind the paper's Figure 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstCounts {
    /// Total retired instructions.
    pub total: u64,
    /// Retired instructions from package functions.
    pub in_package: u64,
    /// Retired conditional branches.
    pub cond_branches: u64,
    /// Retired taken (encoded direction) control transfers.
    pub taken_transfers: u64,
    /// Retired loads and stores.
    pub mem_ops: u64,
}

impl InstCounts {
    /// Creates zeroed counters.
    pub fn new() -> InstCounts {
        InstCounts::default()
    }

    /// Fraction of retired instructions executed inside packages
    /// (Figure 8's metric), in `[0, 1]`.
    pub fn package_coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.in_package as f64 / self.total as f64
        }
    }
}

impl Sink for InstCounts {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        // Everything this sink counts lives in the flag byte plus the
        // exec word's in-package bit. `COND` and `TAKEN` imply `CTRL` in
        // the column encoding.
        self.total += 1;
        self.in_package += e.exec >> col::IN_PACKAGE_SHIFT;
        self.mem_ops += u64::from(e.flags & col::MEM != 0);
        self.cond_branches += u64::from(e.flags & col::COND != 0);
        self.taken_transfers += u64::from(e.flags & col::TAKEN != 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(in_package: bool) -> Retired {
        Retired {
            loc: CodeRef::new(0, 0),
            addr: 0x1000,
            fu: FuClass::IntAlu,
            latency: 1,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package,
        }
    }

    fn branch(taken: bool) -> Retired {
        let mut br = dummy(false);
        br.ctrl = Some(Ctrl {
            block: CodeRef::new(0, 0),
            is_cond: true,
            is_call: false,
            is_ret: false,
            taken,
            arch_taken: taken,
            target: 0x3000,
            ret_addr: 0,
        });
        br
    }

    #[test]
    fn counts_accumulate() {
        let mut c = InstCounts::new();
        c.retire(col::event(&dummy(false)));
        c.retire(col::event(&dummy(true)));
        assert_eq!(c.total, 2);
        assert_eq!(c.in_package, 1);
        assert!((c.package_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_coverage_is_zero() {
        assert_eq!(InstCounts::new().package_coverage(), 0.0);
    }

    #[test]
    fn tuple_sink_fans_out() {
        let mut pair = (InstCounts::new(), InstCounts::new());
        pair.retire(col::event(&dummy(false)));
        assert_eq!(pair.0.total, 1);
        assert_eq!(pair.1.total, 1);
    }

    #[test]
    fn option_sink_feeds_only_when_present() {
        let mut some = Some(InstCounts::new());
        let mut none: Option<InstCounts> = None;
        some.retire(col::event(&dummy(false)));
        none.retire(col::event(&dummy(false)));
        assert_eq!(some.map(|c| c.total), Some(1));
        assert!(none.is_none());
    }

    #[test]
    fn fn_sink_sees_every_event() {
        let mut seen = Vec::new();
        let mut sink = FnSink(|e: ColEvent| seen.push(e.addr));
        sink.retire(col::event(&dummy(false)));
        sink.retire(col::event(&branch(true)));
        assert_eq!(seen, [0x1000, 0x1000]);
    }

    #[test]
    fn exec_word_carries_in_package_above_latency() {
        let mut r = dummy(true);
        r.latency = (col::LATENCY_MASK) as u32;
        let word = col::pack_exec(&r);
        assert_eq!(word >> col::IN_PACKAGE_SHIFT, 1);
        assert_eq!(
            word >> col::LATENCY_SHIFT & col::LATENCY_MASK,
            u64::from(r.latency)
        );
        r.in_package = false;
        assert_eq!(col::pack_exec(&r) >> col::IN_PACKAGE_SHIFT, 0);
    }

    #[test]
    fn column_counts_match_struct_counts() {
        // Every counted property: plain, in-package, load, and both
        // directions of a conditional branch.
        let mut load = dummy(true);
        load.mem_addr = Some(0x2000);
        let events = [dummy(false), dummy(true), load, branch(false), branch(true)];
        let mut c = InstCounts::new();
        for r in &events {
            c.retire(col::event(r));
        }
        let expect = InstCounts {
            total: 5,
            in_package: 2,
            cond_branches: 2,
            taken_transfers: 1,
            mem_ops: 1,
        };
        assert_eq!(c, expect);
    }

    #[test]
    fn event_target_follows_consumer_priority() {
        let mut call = dummy(false);
        call.ctrl = Some(Ctrl {
            block: call.loc,
            is_cond: false,
            arch_taken: true,
            taken: true,
            is_call: true,
            is_ret: false,
            target: 0x4000,
            ret_addr: 0x1004,
        });
        assert_eq!(col::event(&call).target, 0x1004, "calls carry the RAS push");
        let mut ret = call;
        if let Some(c) = &mut ret.ctrl {
            (c.is_call, c.is_ret, c.target, c.ret_addr) = (false, true, 0x2008, 0);
        }
        assert_eq!(col::event(&ret).target, 0x2008);
        assert_eq!(col::event(&branch(true)).target, 0x3000);
        assert_eq!(col::event(&dummy(false)).target, 0);
    }
}
