//! Retired-trace capture and replay: record a workload's retired-instruction
//! stream once, then feed it to any number of [`Sink`] consumers without
//! re-executing the program.
//!
//! The paper separates *collection* (the Hot Spot Detector watches the
//! retired-branch stream in hardware) from *consumption* (region
//! identification, packaging, timing). This module gives the harness the
//! same separation: one architectural execution produces a
//! [`CapturedTrace`]; every later consumer — another detector
//! configuration, the `vp-sim` timing model, branch-count oracles —
//! replays the recorded stream instead of re-interpreting the program.
//!
//! # Encoding
//!
//! For a fixed program and layout, almost everything about a retired
//! instruction is *static*: the instruction at a given fetch address
//! always has the same block, FU class, latency, register defs/uses and
//! memory-access and control-transfer kind, and in each architectural
//! direction the same flags, the same target and the same next
//! instruction. Only three facts are dynamic: which way a conditional
//! branch went, which address a load or store touched, and where a
//! return went. The recorder therefore splits the stream (trace format
//! v9):
//!
//! * a **static side table** with one entry per distinct fetch address,
//!   keyed densely in first-seen order: the slot's 40-byte `SlotCol`
//!   record — the static half of its [`ColEvent`], packed by
//!   [`col::event`] when the recorder first sees the slot (a conditional
//!   branch's as if not taken), plus the control target of each
//!   direction as it is observed — its block, a [`CodeRef`], and its
//!   *successor* in each direction: the slot the next event retires at,
//!   filled in when that transition is first observed;
//! * a **dynamic byte stream** holding only the dynamic facts, in
//!   retirement order: one direction bit per conditional branch, eight
//!   to a group byte that sits where the group's first branch retires;
//!   per load or store its effective address as a zig-zag LEB128 varint
//!   delta from the address the last slot with the same index mod 64
//!   touched — a loop's loads and stores each walk their own array, so
//!   that delta is usually one stride; and per return its target (a
//!   delta from the return's own address) and its successor slot.
//!
//! Replay walks the successor chain from slot 0. A slot whose successor
//! is the next slot in first-seen order — straight-line code, and most
//! transfers the first time they run — decodes as `slot + 1` on a
//! predicted branch, so the chain does not wait on a load. Straight-line
//! code costs no stream bytes at all; a real workload's stream stays
//! under half a byte per instruction (see `tests/trace_replay.rs`).
//!
//! A group byte also closes early: a conditional branch that retires 64
//! KiB or more of stream after its group's byte opens a new group. That
//! bounds how much stream a spooling recorder holds back to patch the
//! open group.
//!
//! [`ColEvent`]: crate::ColEvent
//! [`col::event`]: crate::event::col::event
//!
//! # Caching
//!
//! [`TraceStore`] is a bounded, thread-safe map from [`TraceKey`]
//! (workload label + content fingerprint + [`RunConfig`] limits) to
//! shared captures. [`TraceStore::obtain`] is the one front door used by
//! the experiment harness: a hit hands back the cached capture, a miss
//! executes once while recording — and concurrent misses on the same key
//! are single-flighted, so exactly one thread interprets while the rest
//! wait and share its capture. The caller then replays the capture once
//! into all of its consumers. The byte budget comes from
//! `VP_TRACE_CACHE_MB` (default 512); least-recently-used captures are
//! evicted when it is exceeded, so oversubscribed sweeps degrade to
//! re-execution instead of exhausting memory. `VP_TRACE_CACHE_MB=0`
//! disables the memory tier: every request then records afresh unless
//! the disk tier holds the key.
//!
//! # Persistence
//!
//! When `VP_TRACE_DIR` is set, the global store layers an on-disk tier
//! ([`persist::DiskTier`]) under the memory LRU: lookups resolve
//! memory-hit → disk-hit (load, CRC-verify, promote) → live capture
//! (recorded straight into the tier), so a warmed cache survives process
//! restarts and is shared between concurrently running shard processes.
//! The disk budget is `VP_TRACE_DISK_MB` (default 2048), enforced by
//! mtime-LRU eviction. Corrupted or version-mismatched files are refused
//! and re-captured, never replayed wrong.
//!
//! # Residency
//!
//! A capture backed by the disk tier — loaded, or recorded into it — is
//! a window into the file's memory mapping, so it costs address space,
//! not resident memory, between and behind replays: every replay pass
//! releases the pages it has consumed, 1 MiB at a time, and the rest
//! when it reaches the end of the stream. The next pass faults them
//! back in from the page cache. Captures recorded without a disk tier
//! are owned heap buffers.
//!
//! Instrumentation (`vp-trace` counters, stamped into every run
//! manifest): `trace_store.captures`, `.replays`, `.hits`, `.evictions`,
//! `.bytes`, and for the disk tier `.disk_hits`, `.disk_bytes`,
//! `.disk_evictions`.
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
//!     f.for_range(i, 0, 100, |f| f.nop());
//!     f.halt();
//! });
//! let p = pb.build();
//! let layout = Layout::natural(&p);
//!
//! // Execute once, recording the retired stream...
//! let trace = CapturedTrace::capture(&p, &layout, &RunConfig::default())?;
//!
//! // ...then replay it through as many sinks as needed, no executor.
//! let mut counts = InstCounts::new();
//! let stats = trace.replay(&mut counts);
//! assert_eq!(counts.total, stats.retired);
//! assert_eq!(stats.retired, trace.stats().retired);
//! # Ok::<(), vp_exec::ExecError>(())
//! ```

use crate::blob::{Blob, BlobWriter, RELEASE_WINDOW};
use crate::event::{col, Ctrl, Retired, Sink};
use crate::exec::{ExecError, Executor, RunConfig, RunStats};
use crate::fx::FxHashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use vp_isa::{BlockId, CodeRef, FuClass, Inst, INST_BYTES};
use vp_program::{Layout, Program, TermEncoding, Terminator};
use vp_trace::Counter;

pub mod persist;

pub use persist::{DiskTier, DEFAULT_DISK_MB, FORMAT_VERSION};

/// Architectural executions performed because no capture was available.
static CAPTURES: Counter = Counter::new("trace_store.captures");
/// Full replays of a captured trace through a sink.
static REPLAYS: Counter = Counter::new("trace_store.replays");
/// Store lookups answered from cache.
static HITS: Counter = Counter::new("trace_store.hits");
/// Captures evicted to stay inside the byte budget.
static EVICTIONS: Counter = Counter::new("trace_store.evictions");
/// Total encoded bytes captured (monotonic, not resident).
static BYTES: Counter = Counter::new("trace_store.bytes");
/// Store hits refused because a slot record disagrees with the
/// requesting program (a key collision); each is re-captured.
static TEMPLATE_MISMATCHES: Counter = Counter::new("trace_store.template_mismatches");

/// Default cache budget when `VP_TRACE_CACHE_MB` is unset.
pub const DEFAULT_CACHE_MB: usize = 512;

/// Stream bytes a recorder spooling to the disk tier buffers between two
/// writes.
const SPOOL_CHUNK: usize = 256 * 1024;

/// A conditional branch this many stream bytes or more past its group's
/// byte opens a new direction group, even if the old one has bits left
/// (see the module docs).
const GROUP_SPAN: usize = 64 * 1024;

/// Events a replay cursor decodes between two looks at its release
/// window.
const CHECK_EVENTS: u64 = 1 << 16;

/// Memory anchors: a load or store's address is coded as a delta from
/// anchor `slot % ANCHORS`, the address last touched by a slot of that
/// residue.
const ANCHORS: usize = 64;

// ---------------------------------------------------------------- varints

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline(always)]
fn get_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = buf[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline(always)]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Branch-weight hint: calling this marks the enclosing path unlikely.
#[cold]
fn cold_path() {}

// ---------------------------------------------------------- static table

/// A successor lane not observed (yet).
const NO_SLOT: u32 = u32::MAX;

/// The [`col`] bits a conditional branch's direction flips: the
/// architectural direction, and the encoded one, which is the
/// architectural direction or (an inverted branch) its inverse.
const FLIP: u8 = col::ARCH_TAKEN | col::TAKEN;

/// A capture's one record per static slot: the static half of the slot's
/// [`ColEvent`], interleaved so the decoder touches one record per event.
/// Fields mirror the [`ColEvent`] fields. `flags` is every [`col`] bit of
/// the slot's events — `MEM` and `STORE` included, since loads and stores
/// always carry an address — and for a conditional branch those of its
/// not-taken events, which a taken one flips by [`FLIP`]. `exec` is the
/// packed exec word, and `tgt` the control auxiliary address per
/// architectural direction: the observed target of each direction for
/// branches and jumps (`Halt`'s is 0), the RAS return address for calls,
/// the slot's own fetch address for returns (the stream carries their
/// target as a delta from it), and zero for non-control slots. Bit `d` of
/// `seen` marks lane `d` as observed, so a lane never taken stays
/// distinct from one whose target is 0; bit `d` of `seq` marks the slot's
/// successor in direction `d` as the next slot. Replay reads lane
/// `arch_taken`, which is 1 for every unconditional transfer but `Halt`.
///
/// [`ColEvent`]: crate::ColEvent
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotCol {
    exec: u64,
    tgt: [u64; 2],
    addr: u64,
    flags: u8,
    seen: u8,
    seq: u8,
}

// The parse chain streams these records; a 48-byte record cost the
// timing replay about 8%.
const _: () = assert!(std::mem::size_of::<SlotCol>() == 40);

/// `seen` with both control lanes observed.
const BOTH_LANES: u8 = 0b11;

/// A `seq` bit: the slot's events have no stream bytes and fall through
/// to the next slot — the decoder's fast path.
const FALL: u8 = 1 << 2;

impl SlotCol {
    /// The record of the slot `r` retires at: [`col::event`] of `r`, a
    /// conditional branch's as if not taken, no control lane observed
    /// yet.
    ///
    /// [`col::event`]: crate::event::col::event
    fn new(r: &Retired) -> SlotCol {
        let e = col::event(r);
        let taken_branch = r.ctrl.is_some_and(|c| c.is_cond && c.arch_taken);
        SlotCol {
            exec: e.exec,
            tgt: [0; 2],
            addr: e.addr,
            flags: e.flags ^ if taken_branch { FLIP } else { 0 },
            seen: 0,
            seq: 0,
        }
    }

    /// Fills the control lane the retirement of `c` at this slot shows.
    fn observe(&mut self, c: &Ctrl) {
        let dir = usize::from(c.arch_taken);
        // The cursor's return-target delta is 0 for every other slot, so
        // `tgt[dir] + ret_delta` is the target for all slots without a
        // branch on the slot kind.
        self.tgt[dir] = if c.is_ret {
            self.addr
        } else if c.is_call {
            c.ret_addr
        } else {
            c.target
        };
        self.seen |= 1 << dir;
    }

    /// If this record, at block `loc`, is what `program` retires at the
    /// record's address under `layout` — the same exec word, static flags
    /// and block, and for each observed direction the same control lane —
    /// the address the next event retires at in each direction, where the
    /// program fixes it (`None` after a return or a halt).
    fn fits(&self, loc: CodeRef, program: &Program, layout: &Layout) -> Option<[Option<u64>; 2]> {
        let func = program.funcs.get(loc.func.0 as usize)?;
        let block = func.blocks.get(loc.block.0 as usize)?;
        let slot = self
            .addr
            .checked_sub(layout.addr_of(loc))
            .filter(|d| d % INST_BYTES == 0)
            .map(|d| d / INST_BYTES)
            .filter(|&i| i < layout.insts_of(loc))?;
        // The event the interpreter retires here, less its dynamic fields;
        // a control transfer also fills one lane per direction.
        let plain = Retired {
            loc,
            addr: self.addr,
            fu: FuClass::Branch,
            latency: 1,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package: func.is_package(),
        };
        let next = self.addr + INST_BYTES;
        if let Some(inst) = block.insts.get(slot as usize) {
            let (def, uses) = crate::exec::inst_regs(inst);
            let want = Retired {
                fu: inst.fu(),
                latency: inst.latency(),
                def,
                uses,
                mem_addr: matches!(inst, Inst::Load { .. } | Inst::Store { .. }).then_some(0),
                is_store: matches!(inst, Inst::Store { .. }),
                ..plain
            };
            // The next instruction, or the terminator, or through a
            // fall-through `Goto` the next block: one slot on.
            return self.packs(&want, [None; 2]).then_some([Some(next), None]);
        }
        // Past the body: the terminator, then (branch-plus-jump only) the
        // jump to the not-taken successor.
        let at = |r: CodeRef| Some(layout.addr_of(r));
        let returns_to = |b: BlockId| {
            at(CodeRef {
                func: loc.func,
                block: b,
            })
        };
        let jump = Ctrl {
            block: loc,
            is_cond: false,
            arch_taken: true,
            taken: true,
            is_call: false,
            is_ret: false,
            target: 0,
            ret_addr: 0,
        };
        let call = Ctrl {
            is_call: true,
            ..jump
        };
        let enc = layout.encoding(loc);
        let first = slot == block.insts.len() as u64;
        // (control record, uses, lanes, successors)
        let (ctrl, uses, lanes, succ) = match (&block.term, first) {
            (
                Terminator::Br {
                    rs1,
                    rs2,
                    taken,
                    not_taken,
                    ..
                },
                true,
            ) => (
                Ctrl {
                    is_cond: true,
                    arch_taken: false,
                    taken: enc == TermEncoding::BrInverted,
                    ..jump
                },
                [Some(*rs1), rs2.reg(), None],
                [at(*not_taken), at(*taken)],
                [
                    if enc == TermEncoding::BrJump {
                        Some(next)
                    } else {
                        at(*not_taken)
                    },
                    at(*taken),
                ],
            ),
            (Terminator::Br { not_taken, .. }, false) => (
                jump,
                [None; 3],
                [None, at(*not_taken)],
                [None, at(*not_taken)],
            ),
            (Terminator::Goto(to), true) => (jump, [None; 3], [None, at(*to)], [None, at(*to)]),
            (Terminator::Call { callee, ret_to }, true) => {
                let entry = CodeRef {
                    func: *callee,
                    block: program.func(*callee).entry,
                };
                (
                    call,
                    [None; 3],
                    [None, returns_to(*ret_to)],
                    [None, at(entry)],
                )
            }
            (Terminator::CallThrough { target, ret_to }, true) => (
                call,
                [None; 3],
                [None, returns_to(*ret_to)],
                [None, at(*target)],
            ),
            (Terminator::Ret, true) => (
                Ctrl {
                    is_ret: true,
                    ..jump
                },
                [None; 3],
                [None, Some(self.addr)],
                [None; 2],
            ),
            (Terminator::Halt, true) => (
                Ctrl {
                    arch_taken: false,
                    taken: false,
                    ..jump
                },
                [None; 3],
                [Some(0), None],
                [None; 2],
            ),
            _ => return None,
        };
        let want = Retired {
            uses,
            ctrl: Some(ctrl),
            ..plain
        };
        self.packs(&want, lanes).then_some(succ)
    }

    /// Whether this record is what [`SlotCol::new`] packs `want` to, with
    /// `lanes[d]` in each observed lane `d`.
    fn packs(&self, want: &Retired, lanes: [Option<u64>; 2]) -> bool {
        let want = SlotCol::new(want);
        (want.exec, want.flags, want.addr) == (self.exec, self.flags, self.addr)
            && lanes
                .iter()
                .enumerate()
                .all(|(d, &lane)| self.seen & (1 << d) == 0 || lane == Some(self.tgt[d]))
    }
}

/// A capture's static side table, one entry per slot in first-seen order.
#[derive(Debug, Default)]
struct Slots {
    /// The record of each slot: the one the parse chain loads per event.
    cols: Vec<SlotCol>,
    /// Block of each slot: read only by sinks that look at
    /// [`ColEvent::loc`], so it stays out of the 40-byte records.
    ///
    /// [`ColEvent::loc`]: crate::ColEvent::loc
    locs: Vec<CodeRef>,
    /// Successor slot of each slot per architectural direction, or
    /// [`NO_SLOT`] while that transition has not been observed. A
    /// return's successor is dynamic: its lanes stay [`NO_SLOT`] and the
    /// stream carries it.
    next: Vec<[u32; 2]>,
}

impl Slots {
    fn len(&self) -> usize {
        self.cols.len()
    }

    /// Appends the slot `r` retires at; returns its index.
    fn push(&mut self, r: &Retired) -> u32 {
        let i = self.cols.len() as u32;
        self.cols.push(SlotCol::new(r));
        self.locs.push(r.loc);
        self.next.push([NO_SLOT; 2]);
        i
    }

    /// Records `to` as slot `from`'s successor in direction `dir`.
    fn link(&mut self, from: usize, dir: usize, to: u32) {
        self.next[from][dir] = to;
        if to as usize == from + 1 {
            let sc = &mut self.cols[from];
            sc.seq |= 1 << dir;
            if sc.flags & (col::COND | col::MEM | col::RET) == 0 {
                sc.seq |= FALL;
            }
        }
    }

    /// Bytes the table holds per slot.
    const SLOT_BYTES: usize = std::mem::size_of::<SlotCol>()
        + std::mem::size_of::<CodeRef>()
        + std::mem::size_of::<[u32; 2]>();
}

/// Records the retired stream of one [`Executor`] run.
///
/// Feed it every event of an [`Executor::run_with`] run through
/// [`TraceRecorder::record`], then call [`TraceRecorder::finish`] with the
/// run's stats to obtain the immutable [`CapturedTrace`].
#[derive(Debug)]
pub struct TraceRecorder {
    slots: Slots,
    by_addr: FxHashMap<u64, u32>,
    /// The whole stream, or with a spool the part not yet written.
    stream: Vec<u8>,
    /// `stream` length at which [`TraceRecorder::record`] hands the
    /// buffer to `spool`; `usize::MAX` without one.
    spill_at: usize,
    /// The disk tier's writer this recording streams into, if any.
    spool: Option<BlobWriter>,
    /// Stream bytes already handed to `spool`.
    spilled: usize,
    /// The slot the next event must retire at — the previous event's
    /// known successor, or a return's recorded one — or [`NO_SLOT`] when
    /// the previous event's transition is new.
    expect: u32,
    /// The previous event's slot and direction: the lane a new
    /// transition fills.
    prev: (usize, usize),
    /// Stream offset of the open direction group's byte.
    group_at: usize,
    /// Directions in the open group; 8 when none is open.
    group_len: u32,
    /// The address each memory anchor last saw (see [`ANCHORS`]).
    anchors: [u64; ANCHORS],
    events: u64,
}

impl Default for TraceRecorder {
    fn default() -> TraceRecorder {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            slots: Slots::default(),
            by_addr: FxHashMap::default(),
            stream: Vec::new(),
            spill_at: usize::MAX,
            spool: None,
            spilled: 0,
            // The first event registers slot 0.
            expect: 0,
            prev: (0, 0),
            group_at: 0,
            group_len: 8,
            anchors: [0; ANCHORS],
            events: 0,
        }
    }

    /// A recorder writing its stream through `w` in [`SPOOL_CHUNK`]
    /// pieces, so its heap holds the side table and one chunk whatever
    /// the run length (see [`DiskTier::recorder`]).
    pub(crate) fn spooling(w: BlobWriter) -> TraceRecorder {
        TraceRecorder {
            stream: Vec::with_capacity(SPOOL_CHUNK + 32),
            spill_at: SPOOL_CHUNK,
            spool: Some(w),
            ..TraceRecorder::new()
        }
    }

    /// Seals the recording into a [`CapturedTrace`].
    ///
    /// # Panics
    ///
    /// Panics if the recording was spooling to disk and its I/O failed.
    pub fn finish(self, stats: RunStats) -> CapturedTrace {
        self.seal(stats)
            .expect("an in-memory recording does no I/O")
    }

    /// Seals the recording: an in-memory one into an owned stream, a
    /// spooling one by publishing its file and handing out the stream as
    /// written (see [`persist::publish`]).
    ///
    /// # Errors
    ///
    /// The spool's first I/O error; nothing is published then.
    fn seal(mut self, stats: RunStats) -> std::io::Result<CapturedTrace> {
        let stream = match self.spool.take() {
            None => StreamBytes::Owned(std::mem::take(&mut self.stream)),
            Some(mut w) => {
                w.write(&self.stream);
                let len = self.spilled + self.stream.len();
                StreamBytes::Stored(persist::publish(w, &self.slots, len, stats, self.events)?)
            }
        };
        let trace = CapturedTrace {
            slots: self.slots,
            stream,
            stats,
            events: self.events,
        };
        CAPTURES.incr();
        BYTES.add(trace.bytes() as u64);
        // Flight payload: (trace bytes, event count).
        vp_trace::flight("trace_store.capture", trace.bytes() as u64, trace.events);
        Ok(trace)
    }

    /// Hands the buffered stream bytes to the spool, all but an open
    /// direction group's byte and what follows it: a later branch of the
    /// group still patches that byte.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        let end = self.spilled + self.stream.len();
        let keep_from = if self.group_len < 8 && end - self.group_at < GROUP_SPAN {
            self.group_at - self.spilled
        } else {
            self.stream.len()
        };
        let w = self
            .spool
            .as_mut()
            .expect("spill_at is set only with a spool");
        w.write(&self.stream[..keep_from]);
        self.spilled += keep_from;
        self.stream.drain(..keep_from);
    }

    /// Slot resolution off the predicted path: the previous event's
    /// transition is new (taken for the first time, or a slot's first
    /// run) or leads to a slot not registered yet. Hash-probes the
    /// address map, registering a new slot on first sight, and fills the
    /// previous event's successor lane when it was unknown.
    ///
    /// # Panics
    ///
    /// Panics if a known successor disagrees with the event: successors
    /// are static for every slot but a return, whose recorded successor
    /// is its target's slot.
    #[cold]
    #[inline(never)]
    fn resolve(&mut self, r: &Retired) -> u32 {
        let idx = match self.by_addr.get(&r.addr) {
            Some(&i) => i,
            None => {
                let i = self.slots.push(r);
                self.by_addr.insert(r.addr, i);
                i
            }
        };
        if self.expect == NO_SLOT {
            let (from, dir) = self.prev;
            self.slots.link(from, dir, idx);
        } else {
            assert_eq!(idx, self.expect, "successor of slot {:?}", self.prev);
        }
        idx
    }

    /// Appends a conditional branch's direction to the open group,
    /// opening a new group (a zero byte patched in place) when none is
    /// open or the open one spans [`GROUP_SPAN`].
    #[inline(always)]
    fn push_direction(&mut self, taken: bool) {
        let at = self.spilled + self.stream.len();
        if self.group_len == 8 || at - self.group_at >= GROUP_SPAN {
            self.group_at = at;
            self.group_len = 0;
            self.stream.push(0);
        }
        self.stream[self.group_at - self.spilled] |= u8::from(taken) << self.group_len;
        self.group_len += 1;
    }

    /// Appends one retired instruction to the recording. Forced inline:
    /// this is the capture hot loop, reached from the executor's
    /// instruction loop and its terminator emission.
    #[inline(always)]
    pub fn record(&mut self, r: &Retired) {
        // Fast path: the previous event's successor is known and this
        // event retires at it — one record compare replaces the hash
        // probe. Addresses are unique per slot (`by_addr` is injective),
        // so a match *proves* the slot index.
        let expect = self.expect;
        let idx = match self.slots.cols.get(expect as usize) {
            Some(c) if c.addr == r.addr => expect,
            _ => self.resolve(r),
        } as usize;

        let dir = r.ctrl.map_or(0, |c| usize::from(c.arch_taken));
        if let Some(c) = &r.ctrl {
            if c.is_cond {
                self.push_direction(c.arch_taken);
            }
        }
        if let Some(m) = r.mem_addr {
            let anchor = &mut self.anchors[idx % ANCHORS];
            put_varint(&mut self.stream, zigzag(m.wrapping_sub(*anchor) as i64));
            *anchor = m;
        }
        self.expect = match &r.ctrl {
            Some(c) if c.is_ret => {
                // A return's target depends on the dynamic call stack; the
                // next event retires there, at a known slot or at the
                // next one registered.
                put_varint(
                    &mut self.stream,
                    zigzag(c.target.wrapping_sub(r.addr) as i64),
                );
                let succ = self
                    .by_addr
                    .get(&c.target)
                    .copied()
                    .unwrap_or(self.slots.len() as u32);
                put_varint(&mut self.stream, u64::from(succ));
                succ
            }
            _ => self.slots.next[idx][dir],
        };
        debug_assert_eq!(
            {
                let again = SlotCol::new(r);
                (self.slots.locs[idx], again.exec, again.flags)
            },
            (r.loc, self.slots.cols[idx].exec, self.slots.cols[idx].flags),
            "static fields must be constant per address"
        );
        if let Some(c) = &r.ctrl {
            let sc = &mut self.slots.cols[idx];
            if sc.seen & (1 << dir) == 0 {
                sc.observe(c);
            } else {
                debug_assert_eq!(
                    {
                        let mut again = *sc;
                        again.observe(c);
                        again
                    },
                    *sc,
                    "per-direction targets are static"
                );
            }
        }
        self.prev = (idx, dir);
        self.events += 1;
        if self.stream.len() >= self.spill_at {
            self.spill();
        }
    }
}

// ------------------------------------------------------------- the trace

/// Backing storage of a trace's dynamic byte stream: an owned heap buffer
/// (live captures) or a window into the blob store's bytes (a
/// [`DiskTier`] hit — on Linux the mapped file, so the kernel's page cache
/// is the only copy of the stream).
pub(crate) enum StreamBytes {
    /// Heap-allocated stream (captures).
    Owned(Vec<u8>),
    /// Window into a verified store payload.
    Stored(Blob),
}

impl StreamBytes {
    /// Drops the resident pages behind `range` of a stored stream (see
    /// [`Blob::release`]); an owned stream stays as it is.
    fn release(&self, range: std::ops::Range<usize>) {
        if let StreamBytes::Stored(b) = self {
            b.release(range);
        }
    }
}

impl std::ops::Deref for StreamBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            StreamBytes::Owned(v) => v,
            StreamBytes::Stored(b) => b,
        }
    }
}

impl From<Vec<u8>> for StreamBytes {
    fn from(v: Vec<u8>) -> StreamBytes {
        StreamBytes::Owned(v)
    }
}

impl std::fmt::Debug for StreamBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBytes::Owned(v) => write!(f, "StreamBytes::Owned({} bytes)", v.len()),
            StreamBytes::Stored(b) => write!(f, "StreamBytes::Stored({b:?})"),
        }
    }
}

/// A recorded retired-instruction stream, replayable through any [`Sink`].
#[derive(Debug)]
pub struct CapturedTrace {
    /// The static side table the parse chain walks.
    slots: Slots,
    stream: StreamBytes,
    stats: RunStats,
    events: u64,
}

/// One parsed record of the dynamic stream: which static slot retired,
/// plus the event's dynamic half.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record<'t> {
    /// Index into the trace's static slot table.
    pub(crate) slot: usize,
    /// The slot's compact column record, already loaded by the parse
    /// chain (see [`TraceCursor`]).
    col: &'t SlotCol,
    /// The trace's per-slot blocks, indexed by `slot` only when a sink
    /// reads the event's `loc`.
    locs: &'t [CodeRef],
    /// The event's [`col`](crate::event::col) flags: the slot's, flipped
    /// for a taken conditional branch.
    flags: u8,
    /// Effective memory address; 0 unless `flags` has the memory bit.
    mem: u64,
    /// For returns, the decoded target minus the slot's fetch address
    /// (wrapping); 0 for every other slot.
    ret_delta: u64,
}

impl Record<'_> {
    /// The column form of the record. Values come from registers (the
    /// record's dynamic fields) or the slot's [`SlotCol`] the parse chain
    /// already loaded — no further slot-table traffic.
    #[inline(always)]
    pub(crate) fn col_event(&self) -> crate::ColEvent {
        let sc = self.col;
        let dir = usize::from(self.flags & col::ARCH_TAKEN != 0);
        crate::ColEvent {
            flags: self.flags,
            addr: sc.addr,
            exec: sc.exec,
            mem: self.mem,
            target: sc.tgt[dir].wrapping_add(self.ret_delta),
            loc: self.locs[self.slot],
        }
    }
}

/// Pull-based decoder over a trace's dynamic stream: *the* serial parse
/// chain. [`CapturedTrace::replay`] and the differential replay's pull of
/// the original stream are each a loop over this iterator.
///
/// The chain walks the successor table: each event's slot is the
/// previous slot's successor in the direction it went, `slot + 1` on the
/// predicted path the slot's `seq` bits mark, and for a return the slot
/// the stream names. The stream only feeds it direction bits (from a
/// group byte held in a register), memory deltas and return varints; the
/// slot's 40-byte [`SlotCol`] record tells which of them the event has.
/// Memory addresses chain per anchor, off the slot chain. Everything
/// consumers derive from a [`Record`] hangs off the chain as pure
/// dataflow.
///
/// The cursor stops after the trace's event count, not at the end of the
/// stream: trailing events may have no stream bytes at all. Over a stored
/// stream it keeps the trace off the resident set: every
/// [`CHECK_EVENTS`] events it releases what it has consumed once that
/// reaches a [`RELEASE_WINDOW`], and at the end it releases the rest, so
/// a finished pass leaves none of its pages resident.
#[derive(Debug, Clone)]
pub(crate) struct TraceCursor<'t> {
    stream: &'t [u8],
    cols: &'t [SlotCol],
    locs: &'t [CodeRef],
    next_of: &'t [[u32; 2]],
    pos: usize,
    /// Events the cursor decodes before its next [`Window::grant`].
    budget: u64,
    /// The release state, apart from the fields the chain carries: its
    /// cold path touches nothing else, so those stay in registers.
    window: Window<'t>,
    /// The slot the next event retires at.
    next: usize,
    /// The open group's unread direction bits above a sentinel 1 bit.
    group: u32,
    /// Stream offset from which a branch opens a new group: 0 once the
    /// group's bits are spent.
    group_end: usize,
    /// The address each memory anchor last saw (see [`ANCHORS`]).
    anchors: [u64; ANCHORS],
}

/// A [`TraceCursor`]'s events not granted yet and the pages it has
/// released.
#[derive(Debug, Clone)]
struct Window<'t> {
    /// Where the stream lives, for releasing its pages.
    backing: &'t StreamBytes,
    /// Events not granted to the cursor yet.
    left: u64,
    /// Stream bytes before this offset have been released.
    released: usize,
}

impl Window<'_> {
    /// The cursor, at stream offset `pos`, spent its budget: releases
    /// what it consumed once that fills a window, or at the end of the
    /// trace the rest of the stream, and grants the next budget (0 at the
    /// end).
    #[cold]
    #[inline(never)]
    fn grant(&mut self, pos: usize) -> u64 {
        let end = if self.left == 0 {
            self.backing.len()
        } else {
            pos
        };
        if self.left == 0 || end - self.released >= RELEASE_WINDOW {
            self.backing.release(self.released..end);
            self.released = end;
        }
        let n = self.left.min(CHECK_EVENTS);
        self.left -= n;
        n
    }
}

impl<'t> Iterator for TraceCursor<'t> {
    type Item = Record<'t>;

    #[inline(always)]
    fn next(&mut self) -> Option<Record<'t>> {
        if self.budget == 0 {
            self.budget = self.window.grant(self.pos);
            if self.budget == 0 {
                return None;
            }
        }
        self.budget -= 1;
        let stream = self.stream;
        let mut pos = self.pos;
        let slot = self.next;
        let col = &self.cols[slot];
        let flags = col.flags;
        if col.seq & FALL != 0 {
            self.next = slot + 1;
            return Some(Record {
                slot,
                col,
                locs: self.locs,
                flags,
                mem: 0,
                ret_delta: 0,
            });
        }
        if flags & col::COND != 0 {
            if pos >= self.group_end {
                self.group = u32::from(stream[pos]) | 0x100;
                self.group_end = pos + GROUP_SPAN;
                self.pos = pos + 1;
            }
            let dir = (self.group & 1) as usize;
            self.group >>= 1;
            if self.group == 1 {
                // The group is spent: the next branch opens another.
                self.group_end = 0;
            }
            // Either direction loads its successor rather than branching
            // on the direction: on branchy workloads a mispredicted
            // direction cost more than the load.
            self.next = self.next_of[slot][dir] as usize;
            return Some(Record {
                slot,
                col,
                locs: self.locs,
                flags: flags ^ (FLIP * dir as u8),
                mem: 0,
                ret_delta: 0,
            });
        }
        let mem = if flags & col::MEM != 0 {
            let anchor = &mut self.anchors[slot % ANCHORS];
            *anchor = anchor.wrapping_add(unzigzag(get_varint(stream, &mut pos)) as u64);
            *anchor
        } else {
            0
        };
        let dir = usize::from(flags & col::ARCH_TAKEN != 0);
        let ret_delta = if flags & col::RET != 0 {
            // Returns are a few percent of events. Marking the branch
            // cold keeps the register allocator from spilling the hot
            // chain's anchors to make room for this path.
            cold_path();
            let delta = unzigzag(get_varint(stream, &mut pos)) as u64;
            self.next = get_varint(stream, &mut pos) as usize;
            delta
        } else {
            self.next = if col.seq & (1 << dir) != 0 {
                slot + 1
            } else {
                self.next_of[slot][dir] as usize
            };
            0
        };
        self.pos = pos;
        Some(Record {
            slot,
            col,
            locs: self.locs,
            flags,
            mem,
            ret_delta,
        })
    }
}

impl CapturedTrace {
    /// Executes `program` once under `cfg`, recording the retired stream.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the executor; nothing is recorded on
    /// error.
    pub fn capture(
        program: &Program,
        layout: &Layout,
        cfg: &RunConfig,
    ) -> Result<CapturedTrace, ExecError> {
        Self::capture_with(program, layout, cfg, &mut crate::event::NullSink)
    }

    /// Like [`CapturedTrace::capture`], but also feeds `sink` during the
    /// recording run, so first-time consumers do not pay a separate
    /// replay pass.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from the executor.
    pub fn capture_with(
        program: &Program,
        layout: &Layout,
        cfg: &RunConfig,
        sink: &mut impl Sink,
    ) -> Result<CapturedTrace, ExecError> {
        let mut rec = TraceRecorder::new();
        let stats = Executor::new(program, layout).run_with(cfg, |r| {
            rec.record(r);
            sink.retire(col::event(r));
        })?;
        Ok(rec.finish(stats))
    }

    /// Replays the recorded stream into `sink`, one [`Sink::retire`] per
    /// recorded event — the same [`ColEvent`] values, in the same order,
    /// the live run produced — and returns the original run's
    /// [`RunStats`].
    ///
    /// The decode and a monomorphized sink fuse into one loop: the
    /// decoder's serial chain (slot index, stream position, memory
    /// anchor) and a typical consumer's state chains are independent per
    /// event, so the host overlaps them, and the event values flow
    /// through registers.
    ///
    /// [`ColEvent`]: crate::ColEvent
    pub fn replay(&self, sink: &mut impl Sink) -> RunStats {
        for rec in self.replay_cursor() {
            sink.retire(rec.col_event());
        }
        self.stats
    }

    /// A cursor for one full replay pass, counted in
    /// `trace_store.replays`.
    pub(crate) fn replay_cursor(&self) -> TraceCursor<'_> {
        REPLAYS.incr();
        self.cursor()
    }

    /// A cursor at the start of the trace.
    pub(crate) fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor {
            stream: &self.stream,
            cols: &self.slots.cols,
            locs: &self.slots.locs,
            next_of: &self.slots.next,
            pos: 0,
            budget: 0,
            window: Window {
                backing: &self.stream,
                left: self.events,
                released: 0,
            },
            next: 0,
            group: 1,
            group_end: 0,
            anchors: [0; ANCHORS],
        }
    }

    /// The recorded run's summary statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Number of retired instructions recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes of the dynamic stream.
    pub fn stream_bytes(&self) -> usize {
        self.stream.len()
    }

    /// Approximate resident size of the capture in bytes: the stream
    /// plus the side table.
    pub fn bytes(&self) -> usize {
        self.stream.len() + self.slots.len() * Slots::SLOT_BYTES
    }

    /// Whether this capture was recorded from `program` under `layout`, as
    /// far as its static side table shows: every slot's record is the one
    /// the instruction or terminator the program has at that slot's
    /// address packs to, with the same target in each observed direction,
    /// and every observed successor is the slot at the address the
    /// program continues at in that direction (O(static slots)). A
    /// [`TraceKey`] is a 64-bit content hash, so two programs can share
    /// one; this check turns such a collision into a miss instead of a
    /// replay of the wrong binary. It cannot see an edit that leaves
    /// every slot record alone (an immediate, a data word, the target of
    /// a direction never taken).
    pub fn fits(&self, program: &Program, layout: &Layout) -> bool {
        let s = &self.slots;
        let addr_of = |slot: u32| s.cols.get(slot as usize).map(|c| c.addr);
        s.cols
            .iter()
            .zip(&s.locs)
            .zip(&s.next)
            .all(|((sc, &loc), next)| {
                sc.fits(loc, program, layout).is_some_and(|succ| {
                    next.iter()
                        .zip(succ)
                        .all(|(&to, want)| to == NO_SLOT || want.is_some() && addr_of(to) == want)
                })
            })
    }
}

// --------------------------------------------------------------- the key

/// Cache key for a capture: which workload ran, a content fingerprint
/// of the program *and* its layout, the [`RunConfig`] limits, and a
/// *variant* distinguishing rewritten flavors of the same workload.
///
/// The fingerprint folds every instruction and terminator with all its
/// operands, every block's laid-out address and every initialized data
/// word, so regenerating the same workload (same builder, same scale)
/// maps to the same key while any change to code, data or layout misses
/// — even one that keeps every block's shape. The variant is 0 for the
/// original binary; packed binaries use the package-set fingerprint
/// ([`TraceKey::packed`]), so the original and each packed flavor of one
/// workload coexist in the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload label, e.g. `"300.twolf A"`.
    pub workload: String,
    /// Content fingerprint of (program, layout).
    pub fingerprint: u64,
    /// Rewrite variant: 0 for the original binary, the package-set
    /// fingerprint for a packed binary.
    pub variant: u64,
    /// [`RunConfig::max_insts`] of the run.
    pub max_insts: u64,
    /// [`RunConfig::max_depth`] of the run.
    pub max_depth: u64,
}

impl TraceKey {
    /// Builds the key for running `program` under `layout` and `cfg`.
    pub fn new(workload: &str, program: &Program, layout: &Layout, cfg: &RunConfig) -> TraceKey {
        // One pass over the static image; cheap relative to one run.
        let mut h = vp_isa::Fnv::new();
        h.write_usize(program.funcs.len());
        h.write_u32(program.entry.0);
        for (fi, f) in program.funcs.iter().enumerate() {
            h.write_usize(f.blocks.len());
            h.write_u32(f.entry.0);
            for (bi, b) in f.blocks.iter().enumerate() {
                h.write_u64(layout.addr_of(vp_isa::CodeRef::new(fi as u32, bi as u32)));
                h.write_usize(b.insts.len());
                b.insts.iter().for_each(|i| i.fold_into(&mut h));
                b.term.fold_into(&mut h);
            }
        }
        for seg in &program.data {
            h.write_u64(seg.base);
            h.write_usize(seg.words.len());
            seg.words.iter().for_each(|&w| h.write_u64(w));
        }
        TraceKey {
            workload: workload.to_string(),
            fingerprint: h.finish(),
            variant: 0,
            max_insts: cfg.max_insts,
            max_depth: cfg.max_depth as u64,
        }
    }

    /// Builds the key for a *packed* flavor of `workload`: same content
    /// fingerprinting over the rewritten `program`/`layout`, tagged with
    /// the package-set fingerprint so packed captures never alias the
    /// original's (or another configuration's) cache entries.
    pub fn packed(
        workload: &str,
        program: &Program,
        layout: &Layout,
        cfg: &RunConfig,
        package_fingerprint: u64,
    ) -> TraceKey {
        TraceKey {
            variant: package_fingerprint,
            ..TraceKey::new(workload, program, layout, cfg)
        }
    }
}

// ------------------------------------------------------------- the store

struct StoreEntry {
    trace: Arc<CapturedTrace>,
    last_used: u64,
}

struct StoreInner {
    map: FxHashMap<TraceKey, StoreEntry>,
    clock: u64,
    bytes: usize,
}

/// Terminal state of one in-flight capture, shared with every thread that
/// requested the same [`TraceKey`] while it ran.
#[derive(Clone)]
enum FlightOutcome {
    /// The leader captured successfully; waiters replay this trace.
    Done(Arc<CapturedTrace>),
    /// The leader's execution failed; waiters propagate the same error.
    Failed(ExecError),
    /// The leader panicked or unwound without completing; waiters re-run
    /// the lookup and one of them becomes the new leader.
    Cancelled,
}

/// Single-flight rendezvous: the first thread to miss on a key becomes the
/// *leader* and executes; every other thread blocks here until the leader
/// publishes an outcome.
struct Flight {
    state: Mutex<Option<FlightOutcome>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> FlightOutcome {
        let mut state = self.state.lock().expect("trace flight");
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            state = self.cv.wait(state).expect("trace flight");
        }
    }

    fn complete(&self, outcome: FlightOutcome) {
        *self.state.lock().expect("trace flight") = Some(outcome);
        self.cv.notify_all();
    }
}

/// Completes a leader's flight as `Cancelled` if the leader unwinds (e.g.
/// a panic inside the executor) before publishing a real outcome, so
/// waiters never deadlock on an abandoned capture.
struct FlightGuard<'a> {
    store: &'a TraceStore,
    key: &'a TraceKey,
    flight: Arc<Flight>,
    done: bool,
}

impl FlightGuard<'_> {
    fn finish(mut self, outcome: FlightOutcome) {
        self.flight.complete(outcome);
        self.store
            .flights
            .lock()
            .expect("trace flights")
            .remove(self.key);
        self.done = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.flight.complete(FlightOutcome::Cancelled);
            self.store
                .flights
                .lock()
                .expect("trace flights")
                .remove(self.key);
        }
    }
}

/// A bounded, thread-safe cache of [`CapturedTrace`]s keyed by
/// [`TraceKey`], with least-recently-used eviction, an optional on-disk
/// persistence tier ([`DiskTier`]), and single-flight deduplication of
/// concurrent captures.
pub struct TraceStore {
    cap_bytes: usize,
    disk: Option<DiskTier>,
    inner: Mutex<StoreInner>,
    flights: Mutex<FxHashMap<TraceKey, Arc<Flight>>>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("cap_bytes", &self.cap_bytes)
            .field("resident_bytes", &self.resident_bytes())
            .field("len", &self.len())
            .field("disk", &self.disk)
            .finish()
    }
}

/// Parses a `VP_TRACE_CACHE_MB`-style value; `None`/unparsable falls back
/// to [`DEFAULT_CACHE_MB`].
fn cache_mb_from(spec: Option<&str>) -> usize {
    spec.and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_CACHE_MB)
}

impl TraceStore {
    /// Creates a store bounded to `cap_bytes` of encoded trace data.
    pub fn new(cap_bytes: usize) -> TraceStore {
        TraceStore {
            cap_bytes,
            disk: None,
            inner: Mutex::new(StoreInner {
                map: FxHashMap::default(),
                clock: 0,
                bytes: 0,
            }),
            flights: Mutex::new(FxHashMap::default()),
        }
    }

    /// Creates a store bounded to `mb` megabytes.
    pub fn with_capacity_mb(mb: usize) -> TraceStore {
        TraceStore::new(mb * 1024 * 1024)
    }

    /// Attaches (or removes) the on-disk persistence tier. Lookups then
    /// resolve memory-hit → disk-hit (load + promote) → live capture, and
    /// every insert is written through to disk.
    pub fn with_disk(mut self, disk: Option<DiskTier>) -> TraceStore {
        self.disk = disk;
        self
    }

    /// The attached disk tier, if any.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }

    /// The process-wide store used by the experiment harness, sized from
    /// `VP_TRACE_CACHE_MB` (default 512) at first use, with the disk tier
    /// attached when `VP_TRACE_DIR` is set (budget `VP_TRACE_DISK_MB`,
    /// default 2048).
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            TraceStore::with_capacity_mb(cache_mb_from(
                std::env::var("VP_TRACE_CACHE_MB").ok().as_deref(),
            ))
            .with_disk(DiskTier::from_env())
        })
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &TraceKey) -> Option<Arc<CapturedTrace>> {
        let mut inner = self.inner.lock().expect("trace store");
        inner.clock += 1;
        let clock = inner.clock;
        let hit = inner.map.get_mut(key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.trace)
        });
        if let Some(trace) = &hit {
            HITS.incr();
            // Flight payload: (trace bytes, event count).
            vp_trace::flight("trace_store.hit", trace.bytes() as u64, trace.events);
        }
        hit
    }

    /// Looks `key` up across both tiers: a memory hit refreshes recency;
    /// a disk hit loads, verifies, promotes into the memory tier, and
    /// counts as `trace_store.disk_hits`.
    pub fn fetch(&self, key: &TraceKey) -> Option<Arc<CapturedTrace>> {
        if let Some(trace) = self.get(key) {
            return Some(trace);
        }
        let loaded = Arc::new(self.disk.as_ref()?.load(key)?);
        // Promote without writing back: the file we just read is current.
        self.insert_memory(key.clone(), Arc::clone(&loaded));
        Some(loaded)
    }

    /// Inserts a capture, evicting least-recently-used entries until the
    /// byte budget holds, and writes it through to the disk tier when one
    /// is attached. A capture larger than the whole memory budget is not
    /// cached in memory (callers keep their `Arc`; later requests fall
    /// back to disk or re-execute), but is still persisted — the two
    /// tiers budget independently.
    pub fn insert(&self, key: TraceKey, trace: Arc<CapturedTrace>) {
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(&key, &trace) {
                eprintln!(
                    "vp-exec: failed to persist trace for {:?} under {}: {e}",
                    key.workload,
                    disk.blobs().root().display()
                );
            }
        }
        self.insert_memory(key, trace);
    }

    fn insert_memory(&self, key: TraceKey, trace: Arc<CapturedTrace>) {
        let size = trace.bytes();
        if size > self.cap_bytes {
            return;
        }
        let mut inner = self.inner.lock().expect("trace store");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.trace.bytes();
        }
        while inner.bytes + size > self.cap_bytes {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.trace.bytes();
                EVICTIONS.incr();
                // Flight payload: (evicted bytes, resident bytes after).
                vp_trace::flight(
                    "trace_store.evict",
                    e.trace.bytes() as u64,
                    inner.bytes as u64,
                );
            }
        }
        inner.bytes += size;
        inner.map.insert(
            key,
            StoreEntry {
                trace,
                last_used: clock,
            },
        );
    }

    /// The capture for `key`: from cache (memory or disk) if present,
    /// otherwise executed once — recording only, no consumer attached —
    /// and cached in both tiers. Callers replay the returned trace into
    /// all of their consumers in one pass.
    ///
    /// Concurrent calls for the same key are deduplicated: exactly one
    /// thread executes (the *leader*), the rest block and then share the
    /// leader's capture, so an N-way sweep over one workload pays one
    /// interpretation, not N.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from a capture run; failed runs are never
    /// cached.
    pub fn obtain(
        &self,
        key: TraceKey,
        program: &Program,
        layout: &Layout,
        cfg: &RunConfig,
    ) -> Result<Arc<CapturedTrace>, ExecError> {
        loop {
            if let Some(trace) = self.fetch(&key) {
                if self.verify(&key, &trace, program, layout) {
                    return Ok(trace);
                }
            }

            let flight = {
                let mut flights = self.flights.lock().expect("trace flights");
                match flights.get(&key) {
                    Some(f) => Some(Arc::clone(f)),
                    None => {
                        flights.insert(key.clone(), Arc::new(Flight::new()));
                        None
                    }
                }
            };

            match flight {
                // Another thread is already capturing this key: wait for
                // its outcome.
                Some(flight) => match flight.wait() {
                    FlightOutcome::Done(trace) if trace.fits(program, layout) => return Ok(trace),
                    // A colliding program's capture: look again.
                    FlightOutcome::Done(_) => continue,
                    FlightOutcome::Failed(e) => return Err(e),
                    FlightOutcome::Cancelled => continue,
                },
                // We are the leader: execute once while recording, then
                // publish for the waiters.
                None => {
                    let flight = Arc::clone(
                        self.flights
                            .lock()
                            .expect("trace flights")
                            .get(&key)
                            .expect("leader flight registered"),
                    );
                    let guard = FlightGuard {
                        store: self,
                        key: &key,
                        flight,
                        done: false,
                    };
                    // Re-check under flight ownership: a racing leader may
                    // have completed between our fetch miss and takeover.
                    if let Some(trace) = self.get(&key) {
                        if self.verify(&key, &trace, program, layout) {
                            guard.finish(FlightOutcome::Done(Arc::clone(&trace)));
                            return Ok(trace);
                        }
                    }
                    match self.record(&key, program, layout, cfg) {
                        Ok(trace) => {
                            let trace = Arc::new(trace);
                            self.insert_memory(key.clone(), Arc::clone(&trace));
                            guard.finish(FlightOutcome::Done(Arc::clone(&trace)));
                            return Ok(trace);
                        }
                        Err(e) => {
                            guard.finish(FlightOutcome::Failed(e.clone()));
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Executes `program` once, recording `key`'s capture: straight into
    /// the disk tier when one is attached, so the capture is file-backed
    /// from birth and already persisted, otherwise in memory. If the
    /// disk tier fails, it warns and records again in memory.
    fn record(
        &self,
        key: &TraceKey,
        program: &Program,
        layout: &Layout,
        cfg: &RunConfig,
    ) -> Result<CapturedTrace, ExecError> {
        if let Some(disk) = &self.disk {
            let spooled = match disk.recorder(key) {
                Ok(mut rec) => {
                    let stats = Executor::new(program, layout).run_with(cfg, |r| rec.record(r))?;
                    rec.seal(stats)
                }
                Err(e) => Err(e),
            };
            match spooled {
                Ok(trace) => return Ok(trace),
                Err(e) => eprintln!(
                    "vp-exec: failed to persist trace for {:?} under {}: {e}",
                    key.workload,
                    disk.blobs().root().display()
                ),
            }
        }
        CapturedTrace::capture(program, layout, cfg)
    }

    /// Whether a hit on `key` was recorded from `program` under `layout`
    /// ([`CapturedTrace::fits`]). A mismatch is a miss: it is counted in
    /// `trace_store.template_mismatches`, recorded as a flight event, and
    /// `key` is dropped from both tiers so the caller's capture replaces
    /// it.
    fn verify(
        &self,
        key: &TraceKey,
        trace: &Arc<CapturedTrace>,
        program: &Program,
        layout: &Layout,
    ) -> bool {
        if trace.fits(program, layout) {
            return true;
        }
        TEMPLATE_MISMATCHES.incr();
        // Flight payload: (refused trace bytes, event count).
        vp_trace::flight(
            "trace_store.template_mismatch",
            trace.bytes() as u64,
            trace.events,
        );
        {
            let mut inner = self.inner.lock().expect("trace store");
            if inner
                .map
                .get(key)
                .is_some_and(|e| Arc::ptr_eq(&e.trace, trace))
            {
                inner.map.remove(key);
                inner.bytes -= trace.bytes();
            }
        }
        if let Some(disk) = &self.disk {
            let _ = std::fs::remove_file(disk.path_for(key));
        }
        false
    }

    /// Number of cached captures.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store").map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident across all cached captures.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("trace store").bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Drops every cached capture.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace store");
        inner.map.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InstCounts;
    use vp_isa::{Cond, Reg, Src};
    use vp_program::ProgramBuilder;

    pub(crate) fn sample_program() -> (Program, Layout) {
        let mut pb = ProgramBuilder::new();
        let table = pb.data(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let callee = pb.declare("callee");
        pb.define(callee, |f| {
            f.mul(Reg::ARG0, Reg::ARG0, Reg::ARG0);
            f.ret();
        });
        let main = pb.declare("main");
        pb.define(main, |f| {
            let i = Reg::int(20);
            let acc = Reg::int(21);
            let base = Reg::int(22);
            f.li(acc, 0);
            f.li(base, table as i64);
            f.for_range(i, 0, 8, |f| {
                let v = Reg::int(23);
                f.alu(vp_isa::AluOp::Shl, v, i, Src::Imm(3));
                f.add(v, v, base);
                f.load(v, v, 0);
                let c = f.cond(Cond::Lt, v, Src::Imm(4));
                f.if_else(c, |f| f.add(acc, acc, v), |f| f.store(v, base, 0));
            });
            // A guard the run never takes: one direction left unobserved.
            let never = f.cond(Cond::Lt, acc, Src::Imm(0));
            f.if_(never, |f| f.li(acc, 0));
            f.call_args(callee, &[Src::Imm(7)]);
            f.halt();
        });
        pb.set_entry(main);
        let p = pb.build();
        let layout = Layout::natural(&p);
        (p, layout)
    }

    /// Collects every replayed event verbatim.
    #[derive(Default)]
    struct Collect(Vec<crate::ColEvent>);
    impl Sink for Collect {
        fn retire(&mut self, e: crate::ColEvent) {
            self.0.push(e);
        }
    }

    #[test]
    fn replay_reproduces_stream_exactly() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let mut live = Collect::default();
        let stats = Executor::new(&p, &layout).run(&mut live, &cfg).unwrap();

        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let mut replayed = Collect::default();
        let rstats = trace.replay(&mut replayed);

        assert_eq!(stats, rstats);
        assert_eq!(live.0.len(), replayed.0.len());
        for (a, b) in live.0.iter().zip(&replayed.0) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn capture_with_feeds_sink_during_recording() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let mut counts = InstCounts::new();
        let trace = CapturedTrace::capture_with(&p, &layout, &cfg, &mut counts).unwrap();
        assert_eq!(counts.total, trace.stats().retired);
        assert_eq!(trace.events(), trace.stats().retired);
    }

    #[test]
    fn encoding_meets_byte_budget() {
        // The budget is amortized: the static side-table is bounded by the
        // program's static size, so the run must be long enough for the
        // dynamic stream to dominate — as any real workload is.
        let mut pb = ProgramBuilder::new();
        let table = pb.data(vec![0; 64]);
        pb.func("main", |f| {
            let i = Reg::int(20);
            let b = Reg::int(21);
            let v = Reg::int(22);
            f.li(b, table as i64);
            f.for_range(i, 0, 2000, |f| {
                f.alu(vp_isa::AluOp::And, v, i, Src::Imm(63));
                f.alu(vp_isa::AluOp::Shl, v, v, Src::Imm(3));
                f.add(v, v, b);
                f.load(v, v, 0);
                f.store(v, b, 0);
            });
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let trace = CapturedTrace::capture(&p, &layout, &RunConfig::default()).unwrap();
        assert!(
            trace.bytes() as u64 <= 8 * trace.events(),
            "{} bytes for {} events",
            trace.bytes(),
            trace.events()
        );
    }

    #[test]
    fn store_hits_and_replays_equivalently() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let store = TraceStore::with_capacity_mb(4);
        let key = TraceKey::new("sample", &p, &layout, &cfg);

        let first = store.obtain(key.clone(), &p, &layout, &cfg).unwrap();
        assert_eq!(store.len(), 1);
        let second = store.obtain(key, &p, &layout, &cfg).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a hit shares the capture");

        let (mut a, mut b) = (InstCounts::new(), InstCounts::new());
        assert_eq!(first.replay(&mut a), second.replay(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn store_evicts_lru_under_pressure() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let trace = Arc::new(CapturedTrace::capture(&p, &layout, &cfg).unwrap());
        let one = trace.bytes();
        // Room for exactly two captures.
        let store = TraceStore::new(2 * one + 1);
        for label in ["a", "b", "c"] {
            store.insert(TraceKey::new(label, &p, &layout, &cfg), Arc::clone(&trace));
        }
        assert_eq!(store.len(), 2, "third insert evicts the oldest");
        assert!(store.resident_bytes() <= store.capacity_bytes());
        assert!(store.get(&TraceKey::new("a", &p, &layout, &cfg)).is_none());
        assert!(store.get(&TraceKey::new("c", &p, &layout, &cfg)).is_some());
    }

    #[test]
    fn oversized_capture_is_not_cached() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let store = TraceStore::new(16);
        store
            .obtain(TraceKey::new("big", &p, &layout, &cfg), &p, &layout, &cfg)
            .unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn key_distinguishes_config_and_structure() {
        let (p, layout) = sample_program();
        let base = RunConfig::default();
        let limited = RunConfig {
            max_insts: 10,
            ..base
        };
        let k1 = TraceKey::new("w", &p, &layout, &base);
        let k2 = TraceKey::new("w", &p, &layout, &limited);
        assert_ne!(k1, k2);
        assert_eq!(k1, TraceKey::new("w", &p, &layout, &base));
    }

    /// The key of `q`, a same-shaped edit of [`sample_program`], next to
    /// the sample's own: block sizes and addresses are unchanged, so only
    /// a content fingerprint can tell the two apart.
    fn keys_of_edit(edit: impl FnOnce(&mut Program)) -> (TraceKey, TraceKey) {
        let (p, layout) = sample_program();
        let mut q = p.clone();
        edit(&mut q);
        let cfg = RunConfig::default();
        let q_layout = Layout::natural(&q);
        assert_eq!(q_layout.end(), layout.end(), "edit keeps the shape");
        (
            TraceKey::new("w", &p, &layout, &cfg),
            TraceKey::new("w", &q, &q_layout, &cfg),
        )
    }

    #[test]
    fn key_changes_when_two_instructions_swap() {
        let (orig, swapped) = keys_of_edit(|q| {
            let b = q
                .funcs
                .iter_mut()
                .flat_map(|f| &mut f.blocks)
                .find(|b| b.insts.len() >= 2 && b.insts[0] != b.insts[1])
                .expect("a block with two distinct instructions");
            b.insts.swap(0, 1);
        });
        assert_ne!(orig, swapped);
    }

    #[test]
    fn key_changes_when_one_operand_changes() {
        let (orig, edited) = keys_of_edit(|q| {
            let imm = q
                .funcs
                .iter_mut()
                .flat_map(|f| &mut f.blocks)
                .flat_map(|b| &mut b.insts)
                .find_map(|i| match i {
                    vp_isa::Inst::Alu {
                        rs2: Src::Imm(v), ..
                    } => Some(v),
                    _ => None,
                })
                .expect("an ALU op with an immediate operand");
            *imm += 1;
        });
        assert_ne!(orig, edited);
    }

    /// Every replayed event of `trace`.
    fn events_of(trace: &CapturedTrace) -> Vec<crate::ColEvent> {
        let mut c = Collect::default();
        trace.replay(&mut c);
        c.0
    }

    #[test]
    fn a_key_collision_is_a_template_mismatch_and_recaptures() {
        // `q` is the sample with two instructions swapped, requested under
        // the sample's own key: a forced collision.
        let (p, layout) = sample_program();
        let mut q = p.clone();
        let b = q
            .funcs
            .iter_mut()
            .flat_map(|f| &mut f.blocks)
            .find(|b| b.insts.len() >= 2 && b.insts[0] != b.insts[1])
            .expect("a block with two distinct instructions");
        b.insts.swap(0, 1);
        let q_layout = Layout::natural(&q);
        let cfg = RunConfig::default();
        let key = TraceKey::new("w", &p, &layout, &cfg);
        let want_p = events_of(&CapturedTrace::capture(&p, &layout, &cfg).unwrap());
        let want_q = events_of(&CapturedTrace::capture(&q, &q_layout, &cfg).unwrap());
        assert_ne!(want_p, want_q);

        let dir = std::env::temp_dir().join(format!("vptrace-test-{}-collide", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = || Some(DiskTier::new(&dir, 64 * 1024 * 1024).unwrap());

        // Memory hit on p's capture for q: refused, both tiers dropped,
        // q captured in its place.
        let store = TraceStore::with_capacity_mb(4).with_disk(tier());
        let (got, report) = vp_trace::scoped(|| {
            let first = store.obtain(key.clone(), &p, &layout, &cfg).unwrap();
            assert_eq!(events_of(&first), want_p);
            store.obtain(key.clone(), &q, &q_layout, &cfg).unwrap()
        });
        assert_eq!(events_of(&got), want_q, "q replays its own stream");
        assert_eq!(report.counter("trace_store.template_mismatches"), 1);
        assert_eq!(report.counter("trace_store.captures"), 2);
        assert_eq!(report.flight_count("trace_store.template_mismatch"), 1);
        assert!(
            Arc::ptr_eq(&got, &store.get(&key).unwrap()),
            "q's capture is cached"
        );

        // Disk hit on q's capture for p, in a fresh process's store: the
        // file is refused and deleted, then p is recorded over it.
        let fresh = TraceStore::with_capacity_mb(0).with_disk(tier());
        let (got, report) = vp_trace::scoped(|| fresh.obtain(key.clone(), &p, &layout, &cfg));
        assert_eq!(events_of(&got.unwrap()), want_p);
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert_eq!(report.counter("trace_store.template_mismatches"), 1);
        assert_eq!(report.counter("trace_store.captures"), 1);

        // The rewritten file now fits p: a plain hit.
        let ((), report) = vp_trace::scoped(|| {
            fresh.obtain(key.clone(), &p, &layout, &cfg).unwrap();
        });
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert_eq!(report.counter("trace_store.template_mismatches"), 0);
        assert_eq!(report.counter("trace_store.captures"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fits_refuses_a_change_to_any_recorded_static_field() {
        use vp_isa::{FuncId, Inst};
        use vp_program::{FuncKind, TermEncoding};

        let (p, layout) = sample_program();
        let trace = CapturedTrace::capture(&p, &layout, &RunConfig::default()).unwrap();
        assert!(trace.fits(&p, &layout));
        // Every block the run executed, and the observed-lane mask of its
        // terminator's slot.
        let executed: Vec<CodeRef> = (0..p.funcs.len())
            .flat_map(|fi| {
                (0..p.funcs[fi].blocks.len()).map(move |bi| CodeRef::new(fi as u32, bi as u32))
            })
            .filter(|loc| trace.slots.locs.contains(loc))
            .collect();
        let term_seen = |loc: CodeRef| {
            let addr = layout.addr_of(loc) + p.block(loc).insts.len() as u64 * INST_BYTES;
            let sc = trace.slots.cols.iter().find(|sc| sc.addr == addr);
            sc.expect("an executed terminator retires").seen
        };
        let find = |want: &dyn Fn(CodeRef) -> bool| {
            *executed
                .iter()
                .find(|&&loc| want(loc))
                .expect("the sample executes such a block")
        };
        let insts_where = |want: &dyn Fn(&Inst) -> bool| {
            let loc = find(&|loc| p.block(loc).insts.iter().any(&want));
            (loc, p.block(loc).insts.iter().position(want).unwrap())
        };
        // Each edit changes one field of executed code; the sample's own
        // layout keeps every slot at its address.
        let fits_after = |edit: &dyn Fn(&mut Program)| {
            let mut q = p.clone();
            edit(&mut q);
            assert_ne!(q, p, "the edit changes the program");
            trace.fits(&q, &layout)
        };
        fn block(q: &mut Program, loc: CodeRef) -> &mut vp_program::Block {
            &mut q.funcs[loc.func.0 as usize].blocks[loc.block.0 as usize]
        }

        let (alu, at) = insts_where(&|i| matches!(i, Inst::Alu { .. }));
        let other = |r: Reg| Reg::int(if r == Reg::int(30) { 29 } else { 30 });
        assert!(
            !fits_after(&|q| {
                if let Inst::Alu { rd, .. } = &mut block(q, alu).insts[at] {
                    *rd = other(*rd);
                }
            }),
            "a def register"
        );
        assert!(
            !fits_after(&|q| {
                if let Inst::Alu { rs1, .. } = &mut block(q, alu).insts[at] {
                    *rs1 = other(*rs1);
                }
            }),
            "a use register"
        );
        let (load, at) = insts_where(&|i| matches!(i, Inst::Load { .. }));
        assert!(
            !fits_after(&|q| {
                let i = &mut block(q, load).insts[at];
                if let Inst::Load { rd, base, offset } = *i {
                    *i = Inst::Store {
                        src: rd,
                        base,
                        offset,
                    };
                }
            }),
            "a load become a store"
        );
        let (store, at) = insts_where(&|i| matches!(i, Inst::Store { .. }));
        assert!(
            !fits_after(&|q| {
                let i = &mut block(q, store).insts[at];
                if let Inst::Store { src, base, offset } = *i {
                    *i = Inst::Load {
                        rd: src,
                        base,
                        offset,
                    };
                }
            }),
            "a store become a load"
        );

        // Branch targets: a direction the run took, and one it never took.
        let br_seen = |seen: u8| {
            find(&|loc| {
                matches!(p.block(loc).term, Terminator::Br { .. }) && term_seen(loc) == seen
            })
        };
        let retarget = |loc: CodeRef| {
            move |q: &mut Program| {
                if let Terminator::Br {
                    taken, not_taken, ..
                } = &mut block(q, loc).term
                {
                    *taken = *not_taken;
                }
            }
        };
        assert!(
            !fits_after(&retarget(br_seen(0b11))),
            "an observed taken target"
        );
        assert!(fits_after(&retarget(br_seen(0b01))), "a target never taken");

        let call = find(&|loc| matches!(p.block(loc).term, Terminator::Call { .. }));
        assert!(
            !fits_after(&|q| {
                let Terminator::Call { callee, .. } = &mut block(q, call).term else {
                    unreachable!()
                };
                *callee = FuncId(1 - callee.0);
            }),
            "a call's callee"
        );
        let jump = find(&|loc| {
            matches!(p.block(loc).term, Terminator::Goto(_))
                && layout.encoding(loc) == TermEncoding::Jump
        });
        assert!(
            !fits_after(&|q| block(q, jump).term = Terminator::Ret),
            "a goto become a return"
        );
        assert!(
            !fits_after(&|q| {
                q.funcs[call.func.0 as usize].kind = FuncKind::Package { phase: 0 }
            }),
            "a function's package flag"
        );
    }

    #[test]
    fn zero_budget_records_every_request_and_caches_nothing() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let store = TraceStore::with_capacity_mb(0);

        let mut direct = InstCounts::new();
        let direct_stats = Executor::new(&p, &layout).run(&mut direct, &cfg).unwrap();

        let ((), report) = vp_trace::scoped(|| {
            for _ in 0..2 {
                let key = TraceKey::new("w", &p, &layout, &cfg);
                let mut counts = InstCounts::new();
                let stats = store
                    .obtain(key, &p, &layout, &cfg)
                    .unwrap()
                    .replay(&mut counts);
                assert_eq!(stats, direct_stats);
                assert_eq!(counts, direct);
            }
        });
        // Nothing fits a zero budget, so each request records afresh.
        assert_eq!(report.counter("trace_store.captures"), 2);
        assert_eq!(report.counter("trace_store.hits"), 0);
        assert_eq!(report.counter("trace_store.evictions"), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn zero_memory_budget_still_uses_disk_tier() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let dir = std::env::temp_dir().join(format!("vptrace-test-{}-mem0", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::with_capacity_mb(0)
            .with_disk(Some(DiskTier::new(&dir, 64 * 1024 * 1024).unwrap()));

        let ((), report) = vp_trace::scoped(|| {
            for _ in 0..2 {
                let key = TraceKey::new("w", &p, &layout, &cfg);
                store.obtain(key, &p, &layout, &cfg).unwrap();
            }
        });
        assert_eq!(report.counter("trace_store.captures"), 1);
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert!(store.is_empty(), "memory tier stays empty at budget 0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A loop long enough that its stream spans several spool chunks and
    /// release windows: two loads an iteration at scrambled table
    /// indices, so each address delta takes about two bytes, and two
    /// conditional branches, so spills and release windows land inside
    /// open direction groups.
    fn long_program() -> (Program, Layout) {
        let mut pb = ProgramBuilder::new();
        let table = pb.data(vec![0; 1024]);
        pb.func("main", |f| {
            let i = Reg::int(20);
            let b = Reg::int(21);
            let v = Reg::int(22);
            f.li(b, table as i64);
            f.for_range(i, 0, 600_000, |f| {
                for scramble in [389, 853] {
                    f.alu(vp_isa::AluOp::Mul, v, i, Src::Imm(scramble));
                    f.alu(vp_isa::AluOp::And, v, v, Src::Imm(1023));
                    f.alu(vp_isa::AluOp::Shl, v, v, Src::Imm(3));
                    f.add(v, v, b);
                    f.load(v, v, 0);
                }
                // An iteration length prime to the cursor's check
                // interval, so release points fall at every phase of the
                // direction groups.
                f.nop();
                f.alu(vp_isa::AluOp::And, v, i, Src::Imm(1));
                let odd = f.cond(Cond::Ne, v, Src::Imm(0));
                f.if_(odd, |f| f.nop());
            });
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        (p, layout)
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vptrace-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn file_names(dir: &std::path::Path) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect()
    }

    #[test]
    fn a_cold_capture_is_recorded_straight_into_the_disk_tier() {
        let (p, layout) = long_program();
        let cfg = RunConfig::default();
        let want = events_of(&CapturedTrace::capture(&p, &layout, &cfg).unwrap());
        let dir = tempdir("spool");
        let tier = || Some(DiskTier::new(&dir, u64::MAX).unwrap());
        let key = TraceKey::new("w", &p, &layout, &cfg);

        let store = TraceStore::with_capacity_mb(64).with_disk(tier());
        let (trace, report) = vp_trace::scoped(|| store.obtain(key.clone(), &p, &layout, &cfg));
        let trace = trace.unwrap();
        assert!(trace.stream.len() > RELEASE_WINDOW, "{:?}", trace.stream);
        assert!(
            matches!(trace.stream, StreamBytes::Stored(_)),
            "file-backed from birth: {:?}",
            trace.stream
        );
        let path = store.disk().unwrap().path_for(&key);
        let file_bytes = std::fs::metadata(&path).unwrap().len();
        assert_eq!(report.counter("trace_store.captures"), 1);
        assert_eq!(
            report.counter("trace_store.disk_hits"),
            0,
            "publishing is no hit"
        );
        assert_eq!(report.counter("trace_store.disk_bytes"), file_bytes);
        assert_eq!(file_names(&dir).len(), 1, "no temp file left");
        assert_eq!(events_of(&trace), want);
        assert_eq!(events_of(&trace), want, "a released pass replays again");

        // A fresh process's store loads the published file.
        let fresh = TraceStore::with_capacity_mb(64).with_disk(tier());
        let (loaded, report) = vp_trace::scoped(|| fresh.obtain(key.clone(), &p, &layout, &cfg));
        assert_eq!(events_of(&loaded.unwrap()), want);
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert_eq!(report.counter("trace_store.captures"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_capture_over_the_disk_budget_is_kept_but_not_published() {
        let (p, layout) = long_program();
        let cfg = RunConfig::default();
        let want = events_of(&CapturedTrace::capture(&p, &layout, &cfg).unwrap());
        let dir = tempdir("spool-over");
        let store = TraceStore::with_capacity_mb(64)
            .with_disk(Some(DiskTier::new(&dir, 64 * 1024).unwrap()));
        let key = TraceKey::new("w", &p, &layout, &cfg);
        let (trace, report) = vp_trace::scoped(|| store.obtain(key.clone(), &p, &layout, &cfg));
        let trace = trace.unwrap();
        assert_eq!(events_of(&trace), want, "replays through the unlinked file");
        assert!(
            file_names(&dir).is_empty(),
            "nothing published, no temp file"
        );
        assert_eq!(report.counter("trace_store.disk_bytes"), 0);
        assert_eq!(report.counter("trace_store.captures"), 1);
        // The memory tier still serves it.
        assert!(Arc::ptr_eq(&trace, &store.get(&key).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_spooled_run_leaves_no_file() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            f.nop();
            f.ret();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let cfg = RunConfig::default();
        let dir = tempdir("spool-fail");
        let store = TraceStore::with_capacity_mb(64)
            .with_disk(Some(DiskTier::new(&dir, u64::MAX).unwrap()));
        let key = TraceKey::new("w", &p, &layout, &cfg);
        assert!(matches!(
            store.obtain(key, &p, &layout, &cfg),
            Err(ExecError::ReturnWithoutCall(_))
        ));
        assert!(file_names(&dir).is_empty(), "the temp file is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `p`'s live events under `cfg`, after checking that an owned
    /// capture, a capture recorded straight into a disk tier and the same
    /// capture loaded back by a fresh store each replay exactly them, with
    /// the live run's stats.
    fn round_trip(
        p: &Program,
        layout: &Layout,
        cfg: &RunConfig,
        tag: &str,
    ) -> Vec<crate::ColEvent> {
        let mut live = Collect::default();
        let stats = Executor::new(p, layout).run(&mut live, cfg).unwrap();
        let owned = CapturedTrace::capture(p, layout, cfg).unwrap();
        assert!(matches!(owned.stream, StreamBytes::Owned(_)));

        let dir = tempdir(tag);
        let key = TraceKey::new("w", p, layout, cfg);
        let store = || {
            TraceStore::with_capacity_mb(0).with_disk(Some(DiskTier::new(&dir, u64::MAX).unwrap()))
        };
        let (recorded, report) = vp_trace::scoped(|| store().obtain(key.clone(), p, layout, cfg));
        assert_eq!(report.counter("trace_store.captures"), 1, "{tag}");
        let (loaded, report) = vp_trace::scoped(|| store().obtain(key.clone(), p, layout, cfg));
        assert_eq!(report.counter("trace_store.disk_hits"), 1, "{tag}");
        for (what, trace) in [
            ("owned", &owned),
            ("recorded", &recorded.unwrap()),
            ("loaded", &loaded.unwrap()),
        ] {
            assert_eq!(trace.stats(), stats, "{tag}: {what}");
            assert_eq!(trace.events(), stats.retired, "{tag}: {what}");
            assert!(trace.fits(p, layout), "{tag}: {what}");
            assert_eq!(events_of(trace), live.0, "{tag}: {what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        live.0
    }

    #[test]
    fn truncated_runs_round_trip_at_every_length() {
        // The sample, plus a fall-through `Goto` after its first block, so
        // a limit can stop the run after a plain instruction whose
        // successor was never recorded.
        let (mut p, _) = sample_program();
        let main = p.entry.0 as usize;
        let entry = p.funcs[main].entry;
        let body = std::mem::replace(
            &mut p.funcs[main].blocks[entry.0 as usize],
            vp_program::Block::empty(Terminator::Halt),
        );
        let tail = p.funcs[main].push_block(body);
        p.funcs[main].blocks[entry.0 as usize] = vp_program::Block {
            insts: vec![Inst::Nop, Inst::Nop],
            term: Terminator::Goto(CodeRef {
                func: p.entry,
                block: tail,
            }),
        };
        let order = vp_program::LayoutOrder::natural(&p);
        let mut blocks = order.blocks.clone();
        let pos = blocks[main].iter().position(|&b| b == tail).unwrap();
        blocks[main].remove(pos);
        blocks[main].insert(1, tail);
        let layout = Layout::new(&p, &vp_program::LayoutOrder { blocks, ..order });
        assert_eq!(
            layout.encoding(CodeRef {
                func: p.entry,
                block: entry
            }),
            TermEncoding::Fallthrough
        );
        let full = round_trip(&p, &layout, &RunConfig::default(), "trunc-full");
        let (mut plain_last, mut partial_group, mut ret_last) = (false, false, false);
        for n in 0..full.len() as u64 {
            let cfg = RunConfig {
                max_insts: n,
                ..RunConfig::default()
            };
            let events = round_trip(&p, &layout, &cfg, "trunc");
            let Some(last) = events.last() else {
                continue;
            };
            assert!(events.len() < full.len(), "{n}: the limit truncates");
            plain_last |= last.flags & col::CTRL == 0;
            ret_last |= last.flags & col::RET != 0;
            partial_group |= events.iter().filter(|e| e.flags & col::COND != 0).count() % 8 != 0;
        }
        assert!(plain_last, "a run that stops after a plain instruction");
        assert!(partial_group, "a run that stops inside a direction group");
        assert!(ret_last, "a run whose last event is a return");
    }

    #[test]
    fn a_halt_only_program_round_trips() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| f.halt());
        let p = pb.build();
        let layout = Layout::natural(&p);
        let cfg = RunConfig::default();
        assert_eq!(round_trip(&p, &layout, &cfg, "halt").len(), 1);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        assert_eq!(trace.stream.len(), 0, "nothing dynamic");
    }

    #[test]
    fn spills_and_release_windows_inside_open_groups_round_trip() {
        let (p, layout) = long_program();
        let cfg = RunConfig::default();
        let want = round_trip(&p, &layout, &cfg, "groups");

        // Spooling by hand: spills that hold back an open group's byte.
        let dir = tempdir("groups-spool");
        let tier = DiskTier::new(&dir, u64::MAX).unwrap();
        let mut rec = tier
            .recorder(&TraceKey::new("w", &p, &layout, &cfg))
            .unwrap();
        let mut open_spills = 0;
        let stats = Executor::new(&p, &layout)
            .run_with(&cfg, |r| {
                let spilled = rec.spilled;
                rec.record(r);
                if rec.spilled != spilled && rec.group_len < 8 {
                    assert_eq!(rec.group_at, rec.spilled, "the open group's byte is kept");
                    open_spills += 1;
                }
                assert!(rec.stream.len() < SPOOL_CHUNK + GROUP_SPAN);
            })
            .unwrap();
        let trace = rec.seal(stats).unwrap();
        assert!(open_spills > 0, "no spill inside an open group");
        assert!(
            trace.stream.len() > 2 * RELEASE_WINDOW,
            "{:?}",
            trace.stream
        );

        // Release windows that end inside an open group.
        let mut cursor = trace.cursor();
        let (mut events, mut released, mut open_releases) = (Vec::new(), 0, 0);
        while let Some(r) = cursor.next() {
            events.push(r.col_event());
            if cursor.window.released != released {
                released = cursor.window.released;
                open_releases += u32::from(cursor.group != 1);
            }
        }
        assert_eq!(
            cursor.window.released,
            trace.stream.len(),
            "the pass releases all"
        );
        assert!(open_releases > 0, "no release inside an open group");
        assert_eq!(events, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_group_spanning_too_many_bytes_closes_early() {
        // Between two loop tests, a block of loads whose deltas take
        // more than `GROUP_SPAN` stream bytes.
        let mut pb = ProgramBuilder::new();
        let table = pb.data(vec![0; 1024]);
        pb.func("main", |f| {
            let i = Reg::int(20);
            let b = Reg::int(21);
            let v = Reg::int(22);
            f.li(b, table as i64);
            f.for_range(i, 0, 3, |f| {
                for k in 0..GROUP_SPAN / 2 {
                    f.load(v, b, 4096 * (k as i64 & 1));
                }
            });
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let cfg = RunConfig::default();
        round_trip(&p, &layout, &cfg, "span");

        let mut rec = TraceRecorder::new();
        let mut early = 0;
        Executor::new(&p, &layout)
            .run_with(&cfg, |r| {
                let before = rec.group_len;
                rec.record(r);
                early += u32::from(rec.group_len == 1 && before < 8);
            })
            .unwrap();
        assert!(early > 0, "no group closed early");
    }

    #[test]
    fn a_corrupted_successor_is_a_template_mismatch_and_recaptures() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("w", &p, &layout, &cfg);
        let mut bad = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let want = events_of(&bad);
        // Slot 0 falls through to slot 1; point it at slot 2 instead.
        assert_eq!(bad.slots.next[0][0], 1);
        assert_ne!(bad.slots.cols[2].addr, bad.slots.cols[1].addr);
        bad.slots.next[0][0] = 2;
        assert!(!bad.fits(&p, &layout), "a wrong successor does not fit");

        // Persisted with a valid checksum, it is refused on load by the
        // program check, deleted and recorded again.
        let dir = tempdir("bad-successor");
        let tier = || Some(DiskTier::new(&dir, u64::MAX).unwrap());
        tier().unwrap().store(&key, &bad).unwrap();
        let store = TraceStore::with_capacity_mb(4).with_disk(tier());
        let (got, report) = vp_trace::scoped(|| store.obtain(key.clone(), &p, &layout, &cfg));
        assert_eq!(events_of(&got.unwrap()), want);
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert_eq!(report.counter("trace_store.template_mismatches"), 1);
        assert_eq!(report.counter("trace_store.captures"), 1);
        let fresh = TraceStore::with_capacity_mb(4).with_disk(tier());
        let loaded = fresh.obtain(key, &p, &layout, &cfg).unwrap();
        assert_eq!(loaded.slots.next[0][0], 1, "the file was rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_mb_parsing() {
        assert_eq!(cache_mb_from(None), DEFAULT_CACHE_MB);
        assert_eq!(cache_mb_from(Some("1")), 1);
        assert_eq!(cache_mb_from(Some(" 64 ")), 64);
        assert_eq!(cache_mb_from(Some("nonsense")), DEFAULT_CACHE_MB);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0i64, 1, -1, 63, -64, 300, -300, i64::MAX / 2, i64::MIN / 2];
        for &v in &values {
            put_varint(&mut buf, zigzag(v));
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(unzigzag(get_varint(&buf, &mut pos)), v);
        }
        assert_eq!(pos, buf.len());
    }
}
