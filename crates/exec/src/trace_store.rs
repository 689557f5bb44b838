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
//! Almost every field of a [`Retired`] event is *static*: for a fixed
//! program and layout, the instruction at a given fetch address always has
//! the same location, FU class, latency, register defs/uses, and
//! control-transfer kind. The recorder therefore splits the stream:
//!
//! * a **static side-table** with one entry per distinct fetch address,
//!   holding a template `Retired` event plus the (at most two) observed
//!   control-transfer targets, keyed densely in first-seen order;
//! * a **dynamic byte stream** with one record per retired instruction: a
//!   flags byte (sequential-index bit, memory bit, branch directions),
//!   then optional LEB128 varints — a zig-zag table-index delta when
//!   execution did not fall through to the next recorded address, a
//!   zig-zag delta-coded effective address for loads/stores, and an
//!   explicit target only for returns (the one transfer whose target is
//!   not a function of the address and direction).
//!
//! Straight-line code costs one byte per instruction; the amortized cost
//! stays well under the 8-bytes-per-instruction budget even on
//! memory-heavy workloads (see `tests/trace_replay.rs`).
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
use vp_program::{Layout, Program, Terminator};
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
/// Store hits refused because a slot template disagrees with the
/// requesting program (a key collision); each is re-captured.
static TEMPLATE_MISMATCHES: Counter = Counter::new("trace_store.template_mismatches");

/// Default cache budget when `VP_TRACE_CACHE_MB` is unset.
pub const DEFAULT_CACHE_MB: usize = 512;

/// Stream bytes a recorder spooling to the disk tier buffers between two
/// writes.
const SPOOL_CHUNK: usize = 256 * 1024;

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

/// Per-address static information: a template event plus the observed
/// control targets, indexed by architectural direction.
#[derive(Debug, Clone)]
pub(crate) struct StaticSlot {
    template: Retired,
    targets: [Option<u64>; 2],
}

impl StaticSlot {
    /// Whether this slot's template is what `program` retires at the
    /// slot's address under `layout`: the same block, the same static
    /// fields and, for each direction observed, the same control target.
    fn fits(&self, program: &Program, layout: &Layout) -> bool {
        let t = &self.template;
        let Some(func) = program.funcs.get(t.loc.func.0 as usize) else {
            return false;
        };
        let Some(block) = func.blocks.get(t.loc.block.0 as usize) else {
            return false;
        };
        let Some(slot) = t
            .addr
            .checked_sub(layout.addr_of(t.loc))
            .filter(|d| d % INST_BYTES == 0)
            .map(|d| d / INST_BYTES)
            .filter(|&i| i < layout.insts_of(t.loc))
        else {
            return false;
        };
        // The template the interpreter records here, minus its control
        // and register fields.
        let expect = Retired {
            loc: t.loc,
            addr: t.addr,
            fu: FuClass::Branch,
            latency: 1,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package: func.is_package(),
        };
        if let Some(inst) = block.insts.get(slot as usize) {
            let (def, uses) = crate::exec::inst_regs(inst);
            return self.targets == [None; 2]
                && *t
                    == Retired {
                        fu: inst.fu(),
                        latency: inst.latency(),
                        def,
                        uses,
                        is_store: matches!(inst, Inst::Store { .. }),
                        ..expect
                    };
        }
        // Past the body: the terminator, then (branch-plus-jump only) the
        // jump to the not-taken successor.
        let at = |r: CodeRef| Some(layout.addr_of(r));
        let returns_to = |b: BlockId| {
            layout.addr_of(CodeRef {
                func: t.loc.func,
                block: b,
            })
        };
        let jump = Ctrl {
            block: t.loc,
            is_cond: false,
            arch_taken: false,
            taken: false,
            is_call: false,
            is_ret: false,
            target: 0,
            ret_addr: 0,
        };
        let first = slot == block.insts.len() as u64;
        let (ctrl, uses, targets) = match (&block.term, first) {
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
                    ..jump
                },
                [Some(*rs1), rs2.reg(), None],
                [at(*not_taken), at(*taken)],
            ),
            (Terminator::Br { not_taken, .. }, false) => (jump, [None; 3], [None, at(*not_taken)]),
            (Terminator::Goto(to), true) => (jump, [None; 3], [None, at(*to)]),
            (Terminator::Call { callee, ret_to }, true) => {
                let entry = CodeRef {
                    func: *callee,
                    block: program.func(*callee).entry,
                };
                let call = Ctrl {
                    is_call: true,
                    ret_addr: returns_to(*ret_to),
                    ..jump
                };
                (call, [None; 3], [None, at(entry)])
            }
            (Terminator::CallThrough { target, ret_to }, true) => {
                let call = Ctrl {
                    is_call: true,
                    ret_addr: returns_to(*ret_to),
                    ..jump
                };
                (call, [None; 3], [None, at(*target)])
            }
            (Terminator::Ret, true) => (
                Ctrl {
                    is_ret: true,
                    ..jump
                },
                [None; 3],
                [None, None],
            ),
            (Terminator::Halt, true) => (jump, [None; 3], [Some(0), None]),
            _ => return false,
        };
        *t == Retired {
            uses,
            ctrl: Some(ctrl),
            ..expect
        } && self
            .targets
            .iter()
            .zip(targets)
            .all(|(seen, want)| seen.is_none() || *seen == want)
    }
}

const FLAG_SEQ: u8 = 1 << 0;
const FLAG_MEM: u8 = 1 << 1;
const FLAG_ARCH_TAKEN: u8 = 1 << 2;
const FLAG_TAKEN: u8 = 1 << 3;

/// Records the retired stream of one [`Executor`] run.
///
/// Feed it every event of an [`Executor::run_with`] run through
/// [`TraceRecorder::record`], then call [`TraceRecorder::finish`] with the
/// run's stats to obtain the immutable [`CapturedTrace`].
#[derive(Debug)]
pub struct TraceRecorder {
    slots: Vec<StaticSlot>,
    /// Fetch address of each slot, parallel to `slots`: the capture fast
    /// path resolves sequential execution against this dense array with
    /// one compare instead of a hash probe per event.
    addrs: Vec<u64>,
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
    prev_idx: i64,
    last_mem: u64,
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
            slots: Vec::new(),
            addrs: Vec::new(),
            by_addr: FxHashMap::default(),
            stream: Vec::new(),
            spill_at: usize::MAX,
            spool: None,
            spilled: 0,
            prev_idx: -1,
            last_mem: 0,
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
        let trace = CapturedTrace::assemble(self.slots, stream, stats, self.events);
        CAPTURES.incr();
        BYTES.add(trace.bytes() as u64);
        // Flight payload: (trace bytes, event count).
        vp_trace::flight("trace_store.capture", trace.bytes() as u64, trace.events);
        Ok(trace)
    }

    /// Hands the buffered stream bytes to the spool.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        let w = self
            .spool
            .as_mut()
            .expect("spill_at is set only with a spool");
        w.write(&self.stream);
        self.spilled += self.stream.len();
        self.stream.clear();
    }

    /// Slot resolution off the sequential fast path (taken branches, call
    /// and loop back-edges): hash-probe the address map, registering a new
    /// slot on first sight.
    fn retire_slot_slow(&mut self, r: &Retired) -> u32 {
        match self.by_addr.get(&r.addr) {
            Some(&i) => i,
            None => {
                let i = self.slots.len() as u32;
                let mut template = *r;
                template.mem_addr = None;
                if let Some(c) = &mut template.ctrl {
                    c.arch_taken = false;
                    c.taken = false;
                    c.target = 0;
                }
                self.slots.push(StaticSlot {
                    template,
                    targets: [None; 2],
                });
                self.addrs.push(r.addr);
                self.by_addr.insert(r.addr, i);
                i
            }
        }
    }

    /// Appends one retired instruction to the recording. Forced inline:
    /// this is the capture hot loop, reached from the executor's
    /// instruction loop and its terminator emission.
    #[inline(always)]
    pub fn record(&mut self, r: &Retired) {
        // Fast path: straight-line execution of already-seen code. Slots
        // are numbered in first-seen order, so whenever execution falls
        // through, the next event's address equals the next slot's — one
        // dense-array compare replaces the per-event hash probe, and the
        // record is the bare one-byte `FLAG_SEQ | ...` form. Addresses are
        // unique per slot (`by_addr` is injective), so a match *proves*
        // the slot index.
        let next = (self.prev_idx + 1) as usize;
        let idx = if self.addrs.get(next) == Some(&r.addr) {
            next as u32
        } else {
            self.retire_slot_slow(r)
        };

        let mut flags = 0u8;
        let seq = i64::from(idx) == self.prev_idx + 1;
        if seq {
            flags |= FLAG_SEQ;
        }
        if r.mem_addr.is_some() {
            flags |= FLAG_MEM;
        }
        if let Some(c) = &r.ctrl {
            if c.arch_taken {
                flags |= FLAG_ARCH_TAKEN;
            }
            if c.taken {
                flags |= FLAG_TAKEN;
            }
        }
        self.stream.push(flags);
        if !seq {
            put_varint(
                &mut self.stream,
                zigzag(i64::from(idx) - (self.prev_idx + 1)),
            );
        }
        self.prev_idx = i64::from(idx);

        if let Some(m) = r.mem_addr {
            put_varint(
                &mut self.stream,
                zigzag(m.wrapping_sub(self.last_mem) as i64),
            );
            self.last_mem = m;
        }
        if let Some(c) = &r.ctrl {
            let slot = &mut self.slots[idx as usize];
            debug_assert_eq!(
                slot.template.loc, r.loc,
                "static fields must be constant per address"
            );
            if c.is_ret {
                // A return's target depends on the dynamic call stack.
                put_varint(
                    &mut self.stream,
                    zigzag(c.target.wrapping_sub(r.addr) as i64),
                );
            } else {
                let dir = &mut slot.targets[usize::from(c.arch_taken)];
                match dir {
                    Some(t) => debug_assert_eq!(*t, c.target, "per-direction target is static"),
                    None => *dir = Some(c.target),
                }
            }
        }
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
    slots: Vec<StaticSlot>,
    /// Derived records backing the parse chain and the column decoder:
    /// one interleaved [`SlotCol`] per slot, so the per-event work loads a
    /// single 40-byte record (one bounds check, one cache-line stream)
    /// instead of a 120-byte [`StaticSlot`] or parallel arrays.
    slot_cols: Vec<SlotCol>,
    /// Block of each slot, parallel to `slot_cols`: read only by sinks
    /// that look at [`ColEvent::loc`], so it stays out of the 40-byte
    /// records the parse chain streams through.
    ///
    /// [`ColEvent::loc`]: crate::ColEvent::loc
    slot_locs: Vec<CodeRef>,
    stream: StreamBytes,
    stats: RunStats,
    events: u64,
}

/// Per-slot static halves of the [`ColEvent`] encoding, interleaved so
/// the decoder touches one record per event. Fields mirror the
/// [`ColEvent`] fields: `flags` is the template's static [`col`] bits (dynamic
/// `MEM`/`TAKEN`/`ARCH_TAKEN` come from the stream record), `exec` the
/// packed exec word, `tgt` the control auxiliary address per
/// architectural direction (`[targets[0], targets[1]]` for branches and
/// jumps, the RAS return address in both lanes for calls, the slot's own
/// fetch address in both lanes for returns — the stream carries their
/// target as a delta from it — and zero for non-control slots).
/// Templates carry no memory address, so the memory column is purely
/// dynamic.
///
/// [`col`]: crate::event::col
/// [`ColEvent`]: crate::ColEvent
#[derive(Debug, Clone, Copy)]
struct SlotCol {
    exec: u64,
    tgt: [u64; 2],
    addr: u64,
    flags: u8,
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
    /// The record's flags byte. Its `MEM`/`ARCH_TAKEN`/`TAKEN` bits
    /// coincide with the [`col`](crate::event::col) bits of the same names.
    flags: u8,
    /// Effective memory address; 0 unless `flags` has the memory bit.
    mem: u64,
    /// For returns, the decoded target minus the slot's fetch address
    /// (wrapping); 0 for every other slot.
    ret_delta: u64,
}

impl Record<'_> {
    /// Architectural branch direction (meaningful for control slots only).
    #[inline(always)]
    fn arch_taken(&self) -> bool {
        self.flags & FLAG_ARCH_TAKEN != 0
    }

    /// The column form of the record. Values come from registers (the
    /// record's dynamic bits) or the slot's [`SlotCol`] the parse chain
    /// already loaded — no further slot-table traffic.
    #[inline(always)]
    pub(crate) fn col_event(&self) -> crate::ColEvent {
        // The dynamic column bits are chosen to coincide with the stream
        // record's flag bits, so the dynamic half of the flag byte is a
        // single mask of the record byte.
        const _: () = assert!(
            col::MEM == FLAG_MEM && col::ARCH_TAKEN == FLAG_ARCH_TAKEN && col::TAKEN == FLAG_TAKEN
        );
        const DYN_MASK: u8 = FLAG_MEM | FLAG_ARCH_TAKEN | FLAG_TAKEN;
        let sc = self.col;
        crate::ColEvent {
            flags: sc.flags | (self.flags & DYN_MASK),
            addr: sc.addr,
            exec: sc.exec,
            mem: self.mem,
            target: sc.tgt[usize::from(self.arch_taken())].wrapping_add(self.ret_delta),
            loc: self.locs[self.slot],
        }
    }
}

/// Pull-based decoder over a trace's dynamic stream: *the* serial parse
/// chain. [`CapturedTrace::replay`], the differential replay's pull of
/// the original stream and the disk tier's slot census are each a loop
/// over this iterator.
///
/// Over a stored stream the cursor keeps the trace off the resident set:
/// each time it has consumed another [`RELEASE_WINDOW`] bytes it releases
/// them, and on reaching the end it releases the rest, so a finished pass
/// leaves none of its pages resident. The check rides on the end-of-
/// stream compare the loop makes anyway: `limit` is the window's end.
///
/// Besides stream bytes the chain reads one static fact per record —
/// whether the slot is a return, the one record shape with a trailing
/// target varint the next record's position depends on — from the
/// compact [`SlotCol`] record the column split loads anyway, never from
/// a 120-byte [`StaticSlot`]. That keeps the cross-event dependency chain
/// (stream position, slot index, memory anchor) inside a few cache lines;
/// everything consumers derive from a [`Record`] hangs off it as pure
/// dataflow.
#[derive(Debug, Clone)]
pub(crate) struct TraceCursor<'t> {
    stream: &'t [u8],
    /// Where `stream` lives, for releasing its pages.
    backing: &'t StreamBytes,
    slot_cols: &'t [SlotCol],
    slot_locs: &'t [CodeRef],
    pos: usize,
    /// Records starting at or past this offset wait for
    /// [`TraceCursor::next_window`]: the stream's end, or over a stored
    /// stream the current release window's end if that comes first.
    limit: usize,
    /// Stream bytes before this offset have been released.
    released: usize,
    prev_idx: i64,
    last_mem: u64,
}

impl TraceCursor<'_> {
    /// The cursor reached `limit` at `pos`: releases what it consumed
    /// since the last release and opens the next window. Returns `false`
    /// at the end of the stream, having released the rest of it.
    #[cold]
    #[inline(never)]
    fn next_window(&mut self, pos: usize) -> bool {
        let len = self.stream.len();
        let end = pos.min(len);
        self.backing.release(self.released..end);
        self.released = end;
        if pos >= len {
            return false;
        }
        self.limit = len.min(pos + RELEASE_WINDOW);
        true
    }
}

impl<'t> Iterator for TraceCursor<'t> {
    type Item = Record<'t>;

    #[inline(always)]
    fn next(&mut self) -> Option<Record<'t>> {
        let stream = self.stream;
        let mut pos = self.pos;
        if pos >= self.limit && !self.next_window(pos) {
            return None;
        }
        let flags = stream[pos];
        pos += 1;
        let idx = if flags & FLAG_SEQ != 0 {
            self.prev_idx + 1
        } else {
            self.prev_idx + 1 + unzigzag(get_varint(stream, &mut pos))
        };
        self.prev_idx = idx;
        let slot = idx as usize;
        let mem = if flags & FLAG_MEM != 0 {
            self.last_mem = self
                .last_mem
                .wrapping_add(unzigzag(get_varint(stream, &mut pos)) as u64);
            self.last_mem
        } else {
            0
        };
        let col = &self.slot_cols[slot];
        let ret_delta = if col.flags & crate::event::col::RET != 0 {
            // Returns are a few percent of events. Marking the branch
            // cold keeps the register allocator from spilling the hot
            // chain's anchors (`prev_idx`) to make room for this path.
            cold_path();
            unzigzag(get_varint(stream, &mut pos)) as u64
        } else {
            0
        };
        self.pos = pos;
        Some(Record {
            slot,
            col,
            locs: self.slot_locs,
            flags,
            mem,
            ret_delta,
        })
    }
}

impl CapturedTrace {
    /// Builds a trace from its encoded parts, deriving the per-slot
    /// [`SlotCol`] records the parse chain reads instead of the full slot
    /// records from [`col::event`] of each template — the same encoding
    /// live execution uses. The single constructor used by both live
    /// capture ([`TraceRecorder::finish`]) and disk decode.
    ///
    /// [`col::event`]: crate::event::col::event
    pub(crate) fn assemble(
        slots: Vec<StaticSlot>,
        stream: StreamBytes,
        stats: RunStats,
        events: u64,
    ) -> CapturedTrace {
        // Static halves of the column encoding: the per-event decoder ORs
        // in the dynamic MEM/TAKEN/ARCH_TAKEN bits from the stream record.
        let slot_cols = slots
            .iter()
            .map(|s| {
                let e = col::event(&s.template);
                SlotCol {
                    exec: e.exec,
                    tgt: match &s.template.ctrl {
                        // A return's lanes hold its own fetch address: the
                        // cursor's return-target delta is 0 for every
                        // other slot, so `tgt[dir] + ret_delta` is the
                        // target for all slots without a branch on the
                        // slot kind.
                        Some(c) if c.is_ret => [e.addr; 2],
                        // A call's static target field is its RAS return
                        // address.
                        Some(c) if !c.is_cond && c.is_call => [e.target; 2],
                        Some(_) => s.targets.map(|t| t.unwrap_or(0)),
                        None => [0, 0],
                    },
                    addr: e.addr,
                    // Templates carry no memory address; the dynamic
                    // MEM/TAKEN/ARCH_TAKEN bits come from the stream record.
                    flags: e.flags & !(col::TAKEN | col::ARCH_TAKEN),
                }
            })
            .collect();
        let slot_locs = slots.iter().map(|s| s.template.loc).collect();
        CapturedTrace {
            slots,
            slot_cols,
            slot_locs,
            stream,
            stats,
            events,
        }
    }

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
    /// decoder's serial chain (stream position, slot index, memory
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

    /// A cursor at the start of the dynamic stream.
    pub(crate) fn cursor(&self) -> TraceCursor<'_> {
        let len = self.stream.len();
        TraceCursor {
            stream: &self.stream,
            backing: &self.stream,
            slot_cols: &self.slot_cols,
            slot_locs: &self.slot_locs,
            pos: 0,
            limit: match self.stream {
                StreamBytes::Owned(_) => len,
                StreamBytes::Stored(_) => len.min(RELEASE_WINDOW),
            },
            released: 0,
            prev_idx: -1,
            last_mem: 0,
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

    /// Approximate resident size of the capture in bytes.
    pub fn bytes(&self) -> usize {
        self.stream.len() + self.slots.len() * std::mem::size_of::<StaticSlot>()
    }

    /// Whether this capture was recorded from `program` under `layout`, as
    /// far as its static side-table shows: every slot's template matches
    /// the instruction or terminator the program has at that slot's
    /// address (O(static slots)). A [`TraceKey`] is a 64-bit content hash,
    /// so two programs can share one; this check turns such a collision
    /// into a miss instead of a replay of the wrong binary. It cannot see
    /// an edit that leaves every template alone (an immediate, a data
    /// word).
    pub fn fits(&self, program: &Program, layout: &Layout) -> bool {
        self.slots.iter().all(|s| s.fits(program, layout))
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
    /// release windows.
    fn long_program() -> (Program, Layout) {
        let mut pb = ProgramBuilder::new();
        let table = pb.data(vec![0; 64]);
        pb.func("main", |f| {
            let i = Reg::int(20);
            let b = Reg::int(21);
            let v = Reg::int(22);
            f.li(b, table as i64);
            f.for_range(i, 0, 200_000, |f| {
                f.alu(vp_isa::AluOp::And, v, i, Src::Imm(63));
                f.alu(vp_isa::AluOp::Shl, v, v, Src::Imm(3));
                f.add(v, v, b);
                f.load(v, v, 0);
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
