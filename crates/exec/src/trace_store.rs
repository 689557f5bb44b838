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
//! (workload label + structural fingerprint + [`RunConfig`] limits) to
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
//! (write-through), so a warmed cache survives process restarts and is
//! shared between concurrently running shard processes. The disk budget
//! is `VP_TRACE_DISK_MB` (default 2048), enforced by mtime-LRU eviction.
//! Corrupted or version-mismatched files are refused and re-captured,
//! never replayed wrong.
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

use crate::event::{col, Retired, Sink};
use crate::exec::{ExecError, Executor, RunConfig, RunStats};
use crate::fx::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use vp_isa::CodeRef;
use vp_program::{Layout, Program};
use vp_trace::Counter;

pub mod persist;

pub use persist::{crc32, DiskTier, DEFAULT_DISK_MB, FORMAT_VERSION};

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

/// Default cache budget when `VP_TRACE_CACHE_MB` is unset.
pub const DEFAULT_CACHE_MB: usize = 512;

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

const FLAG_SEQ: u8 = 1 << 0;
const FLAG_MEM: u8 = 1 << 1;
const FLAG_ARCH_TAKEN: u8 = 1 << 2;
const FLAG_TAKEN: u8 = 1 << 3;

/// Records the retired stream of one [`Executor`] run.
///
/// Feed it every event of an [`Executor::run_with`] run through
/// [`TraceRecorder::record`], then call [`TraceRecorder::finish`] with the
/// run's stats to obtain the immutable [`CapturedTrace`].
#[derive(Debug, Default)]
pub struct TraceRecorder {
    slots: Vec<StaticSlot>,
    /// Fetch address of each slot, parallel to `slots`: the capture fast
    /// path resolves sequential execution against this dense array with
    /// one compare instead of a hash probe per event.
    addrs: Vec<u64>,
    by_addr: FxHashMap<u64, u32>,
    stream: Vec<u8>,
    prev_idx: i64,
    last_mem: u64,
    events: u64,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            prev_idx: -1,
            ..TraceRecorder::default()
        }
    }

    /// Seals the recording into a [`CapturedTrace`].
    pub fn finish(self, stats: RunStats) -> CapturedTrace {
        let trace = CapturedTrace::assemble(self.slots, self.stream.into(), stats, self.events);
        CAPTURES.incr();
        BYTES.add(trace.bytes() as u64);
        // Flight payload: (trace bytes, event count).
        vp_trace::flight("trace_store.capture", trace.bytes() as u64, trace.events);
        trace
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
    }
}

// ------------------------------------------------------------- the trace

/// Backing storage of a trace's dynamic byte stream: an owned heap buffer
/// (live captures, legacy disk loads) or a borrowed window into a
/// memory-mapped `.vptrace` file (the zero-copy [`DiskTier`] load path —
/// the kernel's page cache is the only copy of the stream bytes).
pub(crate) enum StreamBytes {
    /// Heap-allocated stream (captures; platforms without mmap).
    Owned(Vec<u8>),
    /// Window into a shared read-only file mapping.
    Mapped {
        map: Arc<persist::mmap::MappedFile>,
        off: usize,
        len: usize,
    },
}

impl StreamBytes {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            StreamBytes::Owned(v) => v.as_slice(),
            StreamBytes::Mapped { map, off, len } => &map.as_slice()[*off..*off + *len],
        }
    }
}

impl std::ops::Deref for StreamBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
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
            StreamBytes::Mapped { len, .. } => write!(f, "StreamBytes::Mapped({len} bytes)"),
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
    slot_cols: &'t [SlotCol],
    slot_locs: &'t [CodeRef],
    pos: usize,
    prev_idx: i64,
    last_mem: u64,
}

impl<'t> Iterator for TraceCursor<'t> {
    type Item = Record<'t>;

    #[inline(always)]
    fn next(&mut self) -> Option<Record<'t>> {
        let stream = self.stream;
        let mut pos = self.pos;
        if pos >= stream.len() {
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
        TraceCursor {
            stream: self.stream.as_slice(),
            slot_cols: &self.slot_cols,
            slot_locs: &self.slot_locs,
            pos: 0,
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
}

// --------------------------------------------------------------- the key

/// Cache key for a capture: which workload ran, a structural fingerprint
/// of the program *and* its layout, the [`RunConfig`] limits, and a
/// *variant* distinguishing rewritten flavors of the same workload.
///
/// The fingerprint hashes every block's instruction count and laid-out
/// address, so regenerating the same workload (same builder, same scale)
/// maps to the same key while any structural or layout change misses.
/// The variant is 0 for the original binary; packed binaries use the
/// package-set fingerprint ([`TraceKey::packed`]), so the original and
/// each packed flavor of one workload coexist in the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload label, e.g. `"300.twolf A"`.
    pub workload: String,
    /// Structural checksum of (program, layout).
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
        // FNV-1a over the structural outline; cheap relative to one run.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(program.funcs.len() as u64);
        mix(u64::from(program.entry.0));
        for (fi, f) in program.funcs.iter().enumerate() {
            mix(f.blocks.len() as u64);
            for (bi, b) in f.blocks.iter().enumerate() {
                mix(b.insts.len() as u64);
                mix(layout.addr_of(vp_isa::CodeRef::new(fi as u32, bi as u32)));
            }
        }
        TraceKey {
            workload: workload.to_string(),
            fingerprint: h,
            variant: 0,
            max_insts: cfg.max_insts,
            max_depth: cfg.max_depth as u64,
        }
    }

    /// Builds the key for a *packed* flavor of `workload`: same structural
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
    /// Entry count and resident bytes packed into one word
    /// (`entries << OCC_BYTES_BITS | bytes`), republished by every
    /// mutator while it still holds the `inner` lock. Observers read the
    /// pair in a single atomic load — consistent *and* contention-free,
    /// so the sweep's per-cell feed events never queue behind a capture
    /// inserting under the store lock.
    occupancy: AtomicU64,
}

/// Low bits of [`TraceStore::occupancy`] holding resident bytes (16 TiB
/// of headroom); the entry count lives above.
const OCC_BYTES_BITS: u32 = 44;

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
            occupancy: AtomicU64::new(0),
        }
    }

    /// Republishes the packed occupancy word. Callers must hold the
    /// `inner` lock (enforced by taking the guard's target), which
    /// serializes writers; readers never take the lock.
    fn publish_occupancy(&self, inner: &StoreInner) {
        debug_assert!((inner.bytes as u64) < 1 << OCC_BYTES_BITS);
        let packed = ((inner.map.len() as u64) << OCC_BYTES_BITS) | inner.bytes as u64;
        self.occupancy.store(packed, Ordering::Release);
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
                    disk.root().display()
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
        self.publish_occupancy(&inner);
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
                return Ok(trace);
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
                    FlightOutcome::Done(trace) => return Ok(trace),
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
                        guard.finish(FlightOutcome::Done(Arc::clone(&trace)));
                        return Ok(trace);
                    }
                    match CapturedTrace::capture(program, layout, cfg) {
                        Ok(trace) => {
                            let trace = Arc::new(trace);
                            self.insert(key.clone(), Arc::clone(&trace));
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

    /// Number of cached captures.
    pub fn len(&self) -> usize {
        self.snapshot().entries
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident across all cached captures.
    pub fn resident_bytes(&self) -> usize {
        self.snapshot().resident_bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// One consistent view of the store's occupancy, without taking the
    /// store lock.
    ///
    /// Periodic observers (the sweep's per-cell live-feed events, the
    /// `sweep watch` resident-bytes row) want entries and bytes from the
    /// *same instant*; calling [`TraceStore::len`] and
    /// [`TraceStore::resident_bytes`] back to back can interleave with a
    /// concurrent insert or eviction between the two reads. Both values
    /// come from one atomic load of the packed occupancy word that
    /// mutators republish under the lock, so a snapshot is always a state
    /// the store actually passed through — and a feed event emitted from
    /// a worker's `cell.done` path no longer queues behind a concurrent
    /// capture holding the store lock through an eviction scan.
    pub fn snapshot(&self) -> StoreSnapshot {
        let packed = self.occupancy.load(Ordering::Acquire);
        StoreSnapshot {
            entries: (packed >> OCC_BYTES_BITS) as usize,
            resident_bytes: (packed & ((1 << OCC_BYTES_BITS) - 1)) as usize,
            capacity_bytes: self.cap_bytes,
        }
    }

    /// Drops every cached capture.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace store");
        inner.map.clear();
        inner.bytes = 0;
        self.publish_occupancy(&inner);
    }
}

/// A point-in-time view of a [`TraceStore`]'s occupancy
/// ([`TraceStore::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Cached captures resident in memory.
    pub entries: usize,
    /// Bytes held by those captures.
    pub resident_bytes: usize,
    /// The configured in-memory byte budget.
    pub capacity_bytes: usize,
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
