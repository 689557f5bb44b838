//! On-disk persistence tier for [`CapturedTrace`]s.
//!
//! The in-memory [`TraceStore`](super::TraceStore) dies with the process,
//! so detector-configuration sweeps and CI runs re-pay the full
//! interpreter cost on every invocation. This module serializes the
//! `(side-table, stream)` pair of a capture under its [`TraceKey`]
//! fingerprint into a directory (`VP_TRACE_DIR`), so a warmed cache
//! survives process restarts and is shared between concurrently running
//! shard processes.
//!
//! # File format (`.vptrace`, version [`FORMAT_VERSION`])
//!
//! ```text
//! offset  size  field
//! 0       4     magic "VPTR"
//! 4       4     format version (LE u32)
//! 8       4     CRC-32 (IEEE) of the payload (LE u32)
//! 12      ..    payload
//! ```
//!
//! The payload is varint-coded and opens with a shared **header string
//! table** (each string stored once, referenced by index) followed by an
//! echo of the owning [`TraceKey`] — workload name (by table index),
//! structural fingerprint, variant, and run limits — which makes every
//! file self-describing and lets the loader refuse a capture whose key
//! does not match the request (e.g. after a path-hash collision). Then
//! come run stats, event count, the static side-table section, and the
//! raw dynamic stream section. The CRC covers everything after the fixed
//! header, so a truncated or bit-flipped file is *refused* at load — the
//! caller falls back to live execution and overwrites the entry — never
//! replayed wrong.
//!
//! ## Hot-slot index (v3)
//!
//! Since v3 the side-table section is a **hot-slot index**: only slots
//! actually referenced by the dynamic stream are written, preceded by the
//! logical table size, the written count, and — when the written set is
//! sparse — a delta-coded remap table of original slot indices. The
//! loader rebuilds the side table at its logical size with inert
//! placeholders in the unreferenced positions, so the stream (which
//! encodes slot references as deltas over *original* indices) replays
//! byte-identically. Files of any other version are refused.
//!
//! # Budget
//!
//! [`DiskTier`] enforces a byte budget (`VP_TRACE_DISK_MB`, default
//! 2048): after every write, the oldest-mtime files are evicted until the
//! directory fits. Loading a capture touches its mtime, making the
//! eviction order least-recently-*used*, not least-recently-written.
//! Writes are atomic (temp file + rename), so concurrent shard processes
//! sharing one `VP_TRACE_DIR` never observe half-written captures.

use super::{put_varint, CapturedTrace, StaticSlot, StreamBytes, TraceKey};
use crate::event::{Ctrl, Retired};
use crate::exec::{RunStats, StopReason};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;
use vp_isa::reg::NUM_REGS;
use vp_isa::{CodeRef, FuClass, Reg};
use vp_trace::Counter;

pub(crate) mod mmap;

/// Store lookups answered by loading a capture from `VP_TRACE_DIR`.
static DISK_HITS: Counter = Counter::new("trace_store.disk_hits");
/// Total encoded bytes written to the disk tier (monotonic).
static DISK_BYTES: Counter = Counter::new("trace_store.disk_bytes");
/// On-disk captures deleted to stay inside the disk byte budget.
static DISK_EVICTIONS: Counter = Counter::new("trace_store.disk_evictions");

/// Version stamped into every `.vptrace` header. Bump when the payload
/// encoding (this module *or* the in-memory stream encoding in
/// `trace_store`) changes shape; old files are then refused and
/// re-captured instead of mis-decoded.
///
/// History: v1 had no header string table or key echo; v2 prepends both;
/// v3 replaces the dense side-table section with the hot-slot index
/// (referenced slots only, plus a remap table). Only v3 is read.
pub const FORMAT_VERSION: u32 = 3;

/// Default disk budget when `VP_TRACE_DISK_MB` is unset.
pub const DEFAULT_DISK_MB: u64 = 2048;

const MAGIC: &[u8; 4] = b"VPTR";
const EXT: &str = "vptrace";

// ------------------------------------------------------------------ crc32

/// Eight lookup tables for slice-by-8: `T[0]` is the classic byte-at-a-
/// time table, and `T[k][i]` advances `T[k-1][i]` by one more zero byte,
/// so one round of eight table lookups consumes eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32, as used by gzip/zip. Slice-by-8: the byte-at-a-time
/// update chains one dependent table lookup per input byte (~0.5 GB/s),
/// which dominated `disk_load`; processing eight bytes per round with
/// independent lookups runs several times faster and is what keeps CRC
/// validation affordable on the zero-copy mmap path.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

// --------------------------------------------------------------- encoding

const SLOT_IS_STORE: u8 = 1 << 0;
const SLOT_IN_PACKAGE: u8 = 1 << 1;
const SLOT_HAS_DEF: u8 = 1 << 2;
const SLOT_HAS_CTRL: u8 = 1 << 3;
const SLOT_IS_COND: u8 = 1 << 4;
const SLOT_IS_CALL: u8 = 1 << 5;
const SLOT_IS_RET: u8 = 1 << 6;

const NO_REG: u8 = 0xff;

fn put_reg(out: &mut Vec<u8>, r: Option<Reg>) {
    out.push(r.map_or(NO_REG, |r| r.index() as u8));
}

fn fu_code(fu: FuClass) -> u8 {
    match fu {
        FuClass::IntAlu => 0,
        FuClass::Fp => 1,
        FuClass::Mem => 2,
        FuClass::Branch => 3,
    }
}

/// Walks the dynamic stream once (a decode-lite pass: no event
/// materialization) and marks every side-table slot it references. New
/// captures reference every slot by construction, but traces that round-
/// trip through other producers (or future truncation passes) may not —
/// the hot-slot index drops the dead ones.
fn referenced_slots(trace: &CapturedTrace) -> Vec<bool> {
    let mut seen = vec![false; trace.slots.len()];
    for rec in trace.cursor() {
        seen[rec.slot] = true;
    }
    seen
}

/// Serializes one side-table record.
fn put_slot(payload: &mut Vec<u8>, slot: &StaticSlot) {
    let t = &slot.template;
    debug_assert!(t.mem_addr.is_none(), "templates carry no dynamic state");
    let mut flags = 0u8;
    if t.is_store {
        flags |= SLOT_IS_STORE;
    }
    if t.in_package {
        flags |= SLOT_IN_PACKAGE;
    }
    if t.def.is_some() {
        flags |= SLOT_HAS_DEF;
    }
    if let Some(c) = &t.ctrl {
        flags |= SLOT_HAS_CTRL;
        if c.is_cond {
            flags |= SLOT_IS_COND;
        }
        if c.is_call {
            flags |= SLOT_IS_CALL;
        }
        if c.is_ret {
            flags |= SLOT_IS_RET;
        }
    }
    payload.push(flags);
    put_varint(payload, t.addr);
    put_varint(payload, u64::from(t.loc.func.0));
    put_varint(payload, u64::from(t.loc.block.0));
    payload.push(fu_code(t.fu));
    put_varint(payload, u64::from(t.latency));
    if t.def.is_some() {
        put_reg(payload, t.def);
    }
    for u in t.uses {
        put_reg(payload, u);
    }
    if let Some(c) = &t.ctrl {
        put_varint(payload, u64::from(c.block.func.0));
        put_varint(payload, u64::from(c.block.block.0));
        put_varint(payload, c.ret_addr);
    }
    let presence = u8::from(slot.targets[0].is_some()) | (u8::from(slot.targets[1].is_some()) << 1);
    payload.push(presence);
    for t in slot.targets.into_iter().flatten() {
        put_varint(payload, t);
    }
}

/// Serializes a capture (and its owning key) into the versioned,
/// CRC-protected byte image (always [`FORMAT_VERSION`]).
pub(super) fn encode(key: &TraceKey, trace: &CapturedTrace) -> Vec<u8> {
    let mut payload = Vec::with_capacity(trace.stream.len() + 64 * trace.slots.len() + 64);

    // Header string table: every string the header references, stored
    // exactly once and addressed by index below.
    let strings = [key.workload.as_str()];
    put_varint(&mut payload, strings.len() as u64);
    for s in strings {
        put_varint(&mut payload, s.len() as u64);
        payload.extend_from_slice(s.as_bytes());
    }

    // Key echo: workload by string-table index plus the scalar fields,
    // verified against the requested key at load time.
    put_varint(&mut payload, 0); // workload string index
    for v in [key.fingerprint, key.variant, key.max_insts, key.max_depth] {
        put_varint(&mut payload, v);
    }

    // Stats header.
    put_varint(&mut payload, trace.stats.retired);
    put_varint(&mut payload, trace.stats.cond_branches);
    put_varint(&mut payload, trace.stats.in_package);
    payload.push(match trace.stats.stop {
        StopReason::Halted => 0,
        StopReason::InstLimit => 1,
    });
    put_varint(&mut payload, trace.events);

    // Static side-table section, the hot-slot index: logical size,
    // written count, sparse remap, referenced records only.
    let seen = referenced_slots(trace);
    let written: Vec<usize> = (0..trace.slots.len()).filter(|&i| seen[i]).collect();
    put_varint(&mut payload, trace.slots.len() as u64);
    put_varint(&mut payload, written.len() as u64);
    if written.len() < trace.slots.len() {
        // Sparse remap: original indices of the written slots, delta-coded
        // (strictly ascending, so every delta after the first is >= 1).
        let mut prev = 0u64;
        for (k, &idx) in written.iter().enumerate() {
            let idx = idx as u64;
            put_varint(&mut payload, if k == 0 { idx } else { idx - prev });
            prev = idx;
        }
    }
    for &idx in &written {
        put_slot(&mut payload, &trace.slots[idx]);
    }

    // Dynamic stream section.
    put_varint(&mut payload, trace.stream.len() as u64);
    payload.extend_from_slice(&trace.stream);

    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A bounds-checked payload reader; every accessor returns `None` past the
/// end instead of panicking, so truncated files that somehow pass the CRC
/// are still refused.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn reg(&mut self) -> Option<Option<Reg>> {
        match self.u8()? {
            NO_REG => Some(None),
            idx if (idx as usize) < NUM_REGS => Some(Some(Reg::from_index(idx as usize))),
            _ => None,
        }
    }
}

fn decode_fu(code: u8) -> Option<FuClass> {
    Some(match code {
        0 => FuClass::IntAlu,
        1 => FuClass::Fp,
        2 => FuClass::Mem,
        3 => FuClass::Branch,
        _ => return None,
    })
}

/// An inert record occupying a side-table position the stream never
/// references (v3 hot-slot decode). Replay can never observe it.
fn placeholder_slot() -> StaticSlot {
    StaticSlot {
        template: Retired {
            loc: CodeRef::new(u32::MAX, u32::MAX),
            addr: 0,
            fu: FuClass::IntAlu,
            latency: 0,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package: false,
        },
        targets: [None; 2],
    }
}

/// Deserializes one side-table record.
fn read_slot(rd: &mut Rd) -> Option<StaticSlot> {
    let flags = rd.u8()?;
    let addr = rd.varint()?;
    let func = u32::try_from(rd.varint()?).ok()?;
    let block = u32::try_from(rd.varint()?).ok()?;
    let fu = decode_fu(rd.u8()?)?;
    let latency = u32::try_from(rd.varint()?).ok()?;
    let def = if flags & SLOT_HAS_DEF != 0 {
        rd.reg()?
    } else {
        None
    };
    let mut uses = [None; 3];
    for u in &mut uses {
        *u = rd.reg()?;
    }
    let ctrl = if flags & SLOT_HAS_CTRL != 0 {
        let cfunc = u32::try_from(rd.varint()?).ok()?;
        let cblock = u32::try_from(rd.varint()?).ok()?;
        let ret_addr = rd.varint()?;
        Some(Ctrl {
            block: CodeRef::new(cfunc, cblock),
            is_cond: flags & SLOT_IS_COND != 0,
            arch_taken: false,
            taken: false,
            is_call: flags & SLOT_IS_CALL != 0,
            is_ret: flags & SLOT_IS_RET != 0,
            target: 0,
            ret_addr,
        })
    } else {
        None
    };
    let presence = rd.u8()?;
    let mut targets = [None; 2];
    for (bit, t) in targets.iter_mut().enumerate() {
        if presence & (1 << bit) != 0 {
            *t = Some(rd.varint()?);
        }
    }
    Some(StaticSlot {
        template: Retired {
            loc: CodeRef::new(func, block),
            addr,
            fu,
            latency,
            def,
            uses,
            mem_addr: None,
            is_store: flags & SLOT_IS_STORE != 0,
            ctrl,
            in_package: flags & SLOT_IN_PACKAGE != 0,
        },
        targets,
    })
}

/// Everything [`decode`]/[`decode_owned`] parse out of an image, with the
/// dynamic stream left as a byte range into the original buffer so the
/// caller decides whether to copy it or reuse the allocation.
struct Parsed {
    key: TraceKey,
    slots: Vec<StaticSlot>,
    stats: RunStats,
    events: u64,
    stream_start: usize,
    stream_len: usize,
}

/// Parses and validates a byte image produced by [`encode`]. Returns
/// `None` on any mismatch — wrong magic, unsupported version, CRC
/// failure, or malformed payload.
fn parse(bytes: &[u8]) -> Option<Parsed> {
    if bytes.len() < 12 || &bytes[0..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != FORMAT_VERSION {
        return None;
    }
    let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let payload = &bytes[12..];
    if crc32(payload) != stored_crc {
        return None;
    }

    let mut rd = Rd {
        buf: payload,
        pos: 0,
    };

    // Header string table.
    let n_strings = usize::try_from(rd.varint()?).ok()?;
    if n_strings > payload.len() {
        return None;
    }
    let mut strings = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        let len = usize::try_from(rd.varint()?).ok()?;
        let s = std::str::from_utf8(rd.take(len)?).ok()?;
        strings.push(s);
    }

    // Key echo.
    let widx = usize::try_from(rd.varint()?).ok()?;
    let workload = (*strings.get(widx)?).to_string();
    let key = TraceKey {
        workload,
        fingerprint: rd.varint()?,
        variant: rd.varint()?,
        max_insts: rd.varint()?,
        max_depth: rd.varint()?,
    };

    let retired = rd.varint()?;
    let cond_branches = rd.varint()?;
    let in_package = rd.varint()?;
    let stop = match rd.u8()? {
        0 => StopReason::Halted,
        1 => StopReason::InstLimit,
        _ => return None,
    };
    let events = rd.varint()?;

    let n_slots = usize::try_from(rd.varint()?).ok()?;
    // A slot costs at least 10 bytes encoded; reject fantastic counts
    // before allocating.
    if n_slots > payload.len() {
        return None;
    }
    // Hot-slot index: only referenced records are present; rebuild the
    // table at its logical size with placeholders elsewhere.
    let n_written = usize::try_from(rd.varint()?).ok()?;
    if n_written > n_slots {
        return None;
    }
    let indices: Vec<usize> = if n_written < n_slots {
        let mut indices = Vec::with_capacity(n_written);
        let mut prev = 0u64;
        for k in 0..n_written {
            let delta = rd.varint()?;
            let idx = if k == 0 {
                delta
            } else {
                // Strictly ascending: a zero delta (duplicate index) is
                // malformed.
                if delta == 0 {
                    return None;
                }
                prev.checked_add(delta)?
            };
            if idx >= n_slots as u64 {
                return None;
            }
            prev = idx;
            indices.push(idx as usize);
        }
        indices
    } else {
        (0..n_written).collect()
    };
    let mut slots = vec![placeholder_slot(); n_slots];
    for idx in indices {
        slots[idx] = read_slot(&mut rd)?;
    }

    let stream_len = usize::try_from(rd.varint()?).ok()?;
    let stream_start = 12 + rd.pos;
    rd.take(stream_len)?;
    if rd.pos != payload.len() {
        return None; // trailing garbage
    }
    Some(Parsed {
        key,
        slots,
        stats: RunStats {
            retired,
            cond_branches,
            in_package,
            stop,
        },
        events,
        stream_start,
        stream_len,
    })
}

/// Deserializes a byte image produced by [`encode`], returning the echoed
/// key alongside the capture. Returns `None` on any mismatch — wrong
/// magic, unsupported version, CRC failure, or malformed payload — so
/// callers re-execute instead of replaying garbage.
///
/// The production load path is [`decode_owned`] (it reuses the file
/// buffer); this borrowed variant is the conformance surface the format
/// tests pin down.
#[cfg_attr(not(test), allow(dead_code))]
pub(super) fn decode(bytes: &[u8]) -> Option<(TraceKey, CapturedTrace)> {
    let p = parse(bytes)?;
    let stream = bytes[p.stream_start..p.stream_start + p.stream_len].to_vec();
    Some((
        p.key,
        CapturedTrace::assemble(p.slots, stream.into(), p.stats, p.events),
    ))
}

/// [`decode`] taking ownership of the file image: the dynamic stream — the
/// bulk of every `.vptrace` — is slid to the front of the buffer with a
/// `memmove` and the allocation is reused, instead of copying it into a
/// second freshly-allocated `Vec`. This is the [`DiskTier::load`] path, so
/// a warm sweep start performs one read and zero re-allocations per trace.
pub(super) fn decode_owned(mut bytes: Vec<u8>) -> Option<(TraceKey, CapturedTrace)> {
    let p = parse(&bytes)?;
    bytes.copy_within(p.stream_start..p.stream_start + p.stream_len, 0);
    bytes.truncate(p.stream_len);
    Some((
        p.key,
        CapturedTrace::assemble(p.slots, bytes.into(), p.stats, p.events),
    ))
}

/// [`decode`] over a memory-mapped image: after parse + CRC validation
/// the dynamic stream — the bulk of every `.vptrace` — is kept as a
/// window into the mapping instead of being copied anywhere. The side
/// table and derived decode columns are still materialized (they are
/// random-access-hot during replay and tiny next to the stream), so a
/// load performs zero stream-sized allocations or copies: the kernel's
/// page cache is the only copy of the stream bytes.
pub(super) fn decode_mapped(map: Arc<mmap::MappedFile>) -> Option<(TraceKey, CapturedTrace)> {
    let p = parse(map.as_slice())?;
    let (off, len) = (p.stream_start, p.stream_len);
    Some((
        p.key,
        CapturedTrace::assemble(
            p.slots,
            StreamBytes::Mapped { map, off, len },
            p.stats,
            p.events,
        ),
    ))
}

/// Parses a `VP_TRACE_MMAP`-style value: anything but `0` (the explicit
/// opt-out) leaves mapping enabled.
fn mmap_enabled_from(spec: Option<&str>) -> bool {
    spec.is_none_or(|v| v.trim() != "0")
}

/// Whether `DiskTier::load` may memory-map (`VP_TRACE_MMAP`, default on).
fn mmap_enabled() -> bool {
    mmap_enabled_from(std::env::var("VP_TRACE_MMAP").ok().as_deref())
}

// -------------------------------------------------------------- the tier

/// Parses a `VP_TRACE_DISK_MB`-style value; `None`/unparsable falls back
/// to [`DEFAULT_DISK_MB`]. `0` disables the tier entirely.
fn disk_mb_from(spec: Option<&str>) -> u64 {
    spec.and_then(|s| s.trim().parse().ok())
        .unwrap_or(DEFAULT_DISK_MB)
}

/// The on-disk persistence tier: a directory of `.vptrace` files keyed by
/// [`TraceKey`] fingerprint, bounded by a byte budget with mtime-LRU
/// eviction.
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    cap_bytes: u64,
}

impl DiskTier {
    /// Creates (and, if needed, mkdir-p's) a tier rooted at `root` with a
    /// byte budget.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<DiskTier> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskTier { root, cap_bytes })
    }

    /// Builds the tier from `VP_TRACE_DIR` / `VP_TRACE_DISK_MB` (default
    /// 2048 MB). Returns `None` when `VP_TRACE_DIR` is unset/empty, the
    /// budget is 0, or the directory cannot be created (with a warning:
    /// persistence is an accelerator, never a correctness requirement).
    pub fn from_env() -> Option<DiskTier> {
        let dir = std::env::var("VP_TRACE_DIR").ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        let mb = disk_mb_from(std::env::var("VP_TRACE_DISK_MB").ok().as_deref());
        if mb == 0 {
            return None;
        }
        match DiskTier::new(dir, mb.saturating_mul(1024 * 1024)) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("vp-exec: VP_TRACE_DIR={dir} unusable ({e}); disk tier disabled");
                None
            }
        }
    }

    /// The tier's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// The file a key persists to: a sanitized workload prefix for
    /// debuggability plus a 16-hex-digit fingerprint over every key field.
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        // FNV-1a over every key field; the workload prefix alone is not
        // unique (same label, different scale/layout/config/variant).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix_byte = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in key.workload.bytes() {
            mix_byte(b);
        }
        for v in [key.fingerprint, key.variant, key.max_insts, key.max_depth] {
            for b in v.to_le_bytes() {
                mix_byte(b);
            }
        }
        let prefix: String = key
            .workload
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root.join(format!("{prefix}-{h:016x}.{EXT}"))
    }

    /// Loads `key`'s capture, verifying version, CRC, and the header's key
    /// echo. Returns `None` (and deletes the file, so the slot heals on
    /// the next write) when the file is absent, truncated, corrupted, from
    /// another format version, or records a *different* key than the one
    /// requested. A successful load touches the file's mtime, giving the
    /// budget sweep true LRU order.
    ///
    /// On platforms with mmap support the file is memory-mapped and the
    /// dynamic stream stays a zero-copy window into the mapping;
    /// `VP_TRACE_MMAP=0` or an mmap failure falls back
    /// to the owned single-allocation read. Either way the CRC is verified
    /// in full before anything replays.
    pub fn load(&self, key: &TraceKey) -> Option<CapturedTrace> {
        self.load_with(key, mmap_enabled())
    }

    /// [`DiskTier::load`] with the mmap decision made by the caller
    /// instead of the `VP_TRACE_MMAP` knob — the replay bench uses this to
    /// measure the zero-copy and owned-read paths side by side.
    pub fn load_with(&self, key: &TraceKey, use_mmap: bool) -> Option<CapturedTrace> {
        let path = self.path_for(key);
        let mapped = if use_mmap {
            mmap::MappedFile::map(&path)
                .map(Arc::new)
                .and_then(decode_mapped)
        } else {
            None
        };
        let decoded = match mapped {
            Some(d) => Some(d),
            // `?`: an absent file is a plain miss, not a corrupt entry —
            // don't fall through to the delete arm below.
            None => decode_owned(fs::read(&path).ok()?),
        };
        match decoded {
            Some((echoed, trace)) if echoed == *key => {
                DISK_HITS.incr();
                // Flight payload: (file bytes, event count).
                vp_trace::flight("trace_store.disk_hit", trace.bytes() as u64, trace.events);
                // Best-effort recency bump; eviction degrades to
                // least-recently-written if the touch fails.
                if let Ok(f) = fs::File::options().write(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(trace)
            }
            _ => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `trace` under `key` atomically (temp file + rename), then
    /// evicts oldest-mtime files until the directory fits the budget.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the caller treats them as a cache miss.
    pub fn store(&self, key: &TraceKey, trace: &CapturedTrace) -> io::Result<()> {
        let bytes = encode(key, trace);
        if bytes.len() as u64 > self.cap_bytes {
            return Ok(()); // larger than the whole budget: not persistable
        }
        let path = self.path_for(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &path)?;
        DISK_BYTES.add(bytes.len() as u64);
        self.evict_to_budget(&path);
        Ok(())
    }

    /// Total bytes currently resident in the tier.
    pub fn resident_bytes(&self) -> u64 {
        self.scan().into_iter().map(|(_, len, _)| len).sum()
    }

    /// Number of captures currently resident in the tier.
    pub fn len(&self) -> usize {
        self.scan().len()
    }

    /// Whether the tier holds no captures.
    pub fn is_empty(&self) -> bool {
        self.scan().is_empty()
    }

    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXT) {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        out
    }

    fn evict_to_budget(&self, keep: &Path) {
        let mut files = self.scan();
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= self.cap_bytes {
            return;
        }
        // Oldest first; the tie-break on path keeps eviction deterministic
        // when a filesystem's mtime granularity groups writes.
        files.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        for (path, len, _) in files {
            if total <= self.cap_bytes {
                break;
            }
            if path == keep {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                DISK_EVICTIONS.incr();
                // Flight payload: (evicted file bytes, resident bytes after).
                vp_trace::flight("trace_store.disk_evict", len, total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_program;
    use super::super::{TraceKey, TraceStore};
    use super::*;
    use crate::event::InstCounts;
    use crate::event::{ColEvent, FnSink};
    use crate::exec::RunConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vptrace-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_at_every_length() {
        // The slice-by-8 kernel has three regimes (empty, <8-byte tail,
        // full rounds + tail); pin all of them against the reference
        // byte-at-a-time recurrence over table 0.
        fn reference(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c = (c >> 8) ^ CRC32_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize];
            }
            !c
        }
        let data: Vec<u8> = (0..1024u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect();
        for len in (0..64).chain([255, 256, 1000, 1024]) {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn decode_mapped_matches_decode() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("mapped", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let bytes = encode(&key, &trace);

        let dir = tempdir("mapped");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vptrace");
        fs::write(&path, &bytes).unwrap();

        let Some(map) = mmap::MappedFile::map(&path) else {
            assert!(!mmap::MappedFile::supported());
            let _ = fs::remove_dir_all(&dir);
            return;
        };
        let (km, m) = decode_mapped(std::sync::Arc::new(map)).expect("mapped image decodes");
        let (kd, d) = decode(&bytes).unwrap();
        assert_eq!(km, kd);
        assert_eq!(m.stats(), d.stats());
        assert_eq!(events_of(&m), events_of(&d));

        // Corruption is refused on the mapped path too.
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        let map = mmap::MappedFile::map(&path).unwrap();
        assert!(decode_mapped(std::sync::Arc::new(map)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_load_survives_eviction_of_the_backing_file() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("unlinked", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("unlink"), 64 * 1024 * 1024).unwrap();
        tier.store(&key, &trace).unwrap();
        let loaded = tier.load(&key).expect("warm tier hits");
        // Another process's eviction unlinks the file while we hold the
        // capture; the mapping (or owned buffer) must stay replayable.
        fs::remove_file(tier.path_for(&key)).unwrap();
        assert_eq!(events_of(&loaded), events_of(&trace));
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn mmap_knob_parsing() {
        assert!(mmap_enabled_from(None));
        assert!(mmap_enabled_from(Some("1")));
        assert!(mmap_enabled_from(Some("junk")));
        assert!(!mmap_enabled_from(Some("0")));
        assert!(!mmap_enabled_from(Some(" 0 ")));
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("roundtrip", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let (echoed, reloaded) = decode(&encode(&key, &trace)).expect("roundtrip decodes");

        assert_eq!(echoed, key, "header echoes the owning key");
        assert_eq!(trace.stats(), reloaded.stats());
        assert_eq!(trace.events(), reloaded.events());

        assert_eq!(
            events_of(&trace),
            events_of(&reloaded),
            "replayed streams must be identical"
        );
    }

    fn events_of(trace: &CapturedTrace) -> Vec<ColEvent> {
        let mut events = Vec::new();
        trace.replay(&mut FnSink(|e| events.push(e)));
        events
    }

    #[test]
    fn v3_hot_slot_index_drops_unreferenced_slots() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("hotslots", &p, &layout, &cfg);
        let mut trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let reference = events_of(&trace);
        let clean = encode(&key, &trace);

        // Dead side-table weight: slots the stream never references (as a
        // truncation pass or a foreign producer would leave behind).
        let dead = trace.slots[0].clone();
        for _ in 0..64 {
            trace.slots.push(dead.clone());
        }

        let mut dead_record = Vec::new();
        put_slot(&mut dead_record, &dead);
        let dense = clean.len() + 64 * dead_record.len();
        let v3 = encode(&key, &trace);
        assert!(
            v3.len() < dense,
            "hot-slot index must shrink the image: v3={} dense={dense}",
            v3.len(),
        );

        let (_, reloaded) = decode(&v3).expect("sparse v3 decodes");
        assert_eq!(
            reloaded.slots.len(),
            trace.slots.len(),
            "logical side-table size survives"
        );
        assert_eq!(events_of(&reloaded), reference);
    }

    #[test]
    fn decode_owned_matches_decode() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("owned", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let bytes = encode(&key, &trace);

        let (ka, a) = decode(&bytes).unwrap();
        let (kb, b) = decode_owned(bytes.clone()).unwrap();
        assert_eq!(ka, kb);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(events_of(&a), events_of(&b));

        // Corruption is refused identically.
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(decode_owned(bad).is_none());
    }

    #[test]
    fn decode_refuses_corruption() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("corrupt", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let good = encode(&key, &trace);
        assert!(decode(&good).is_some());

        // Truncation at every boundary of interest.
        for cut in [0, 4, 11, 12, good.len() / 2, good.len() - 1] {
            assert!(decode(&good[..cut]).is_none(), "truncated at {cut}");
        }
        // A single flipped bit anywhere must be caught by the CRC (or the
        // magic/version checks).
        for pos in [0, 5, 9, 20, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_none(), "bit flip at {pos}");
        }
        // Unsupported versions: the future, the dense-table v2 and the
        // pre-echo past.
        for v in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, FORMAT_VERSION - 2] {
            let mut wrong = good.clone();
            wrong[4..8].copy_from_slice(&v.to_le_bytes());
            assert!(decode(&wrong).is_none(), "version {v} refused");
        }
    }

    #[test]
    fn tier_store_load_and_self_heal() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("w", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("roundtrip"), 64 * 1024 * 1024).unwrap();
        assert!(tier.load(&key).is_none(), "cold tier misses");
        tier.store(&key, &trace).unwrap();
        assert_eq!(tier.len(), 1);

        let loaded = tier.load(&key).expect("warm tier hits");
        let (mut a, mut b) = (InstCounts::new(), InstCounts::new());
        trace.replay(&mut a);
        loaded.replay(&mut b);
        assert_eq!(a, b);

        // Corrupt the file in place: load refuses *and* removes it.
        let path = tier.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(tier.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry is deleted");
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn load_refuses_a_file_recorded_for_another_key() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key_a = TraceKey::new("alpha", &p, &layout, &cfg);
        let key_b = TraceKey::new("beta", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("echo"), 64 * 1024 * 1024).unwrap();
        tier.store(&key_a, &trace).unwrap();
        // Simulate a path-hash collision: key B's slot holds key A's file.
        fs::rename(tier.path_for(&key_a), tier.path_for(&key_b)).unwrap();
        assert!(tier.load(&key_b).is_none(), "key echo mismatch refused");
        assert!(
            !tier.path_for(&key_b).exists(),
            "mismatched entry is deleted"
        );
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn header_string_table_stores_workload_once() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let name = "a-rather-long-workload-name-that-would-hurt-if-repeated";
        let key = TraceKey::new(name, &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let bytes = encode(&key, &trace);
        let hits = bytes
            .windows(name.len())
            .filter(|w| *w == name.as_bytes())
            .count();
        assert_eq!(hits, 1, "workload name appears exactly once in the image");
    }

    #[test]
    fn tier_evicts_oldest_beyond_budget() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let one = encode(&TraceKey::new("a", &p, &layout, &cfg), &trace).len() as u64;

        let tier = DiskTier::new(tempdir("evict"), 2 * one + 1).unwrap();
        let keys: Vec<TraceKey> = ["a", "b", "c"]
            .iter()
            .map(|l| TraceKey::new(l, &p, &layout, &cfg))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            // Filesystem mtime granularity can be 1 ms; space the writes
            // out so eviction order is the write order.
            if i > 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            tier.store(key, &trace).unwrap();
        }
        assert_eq!(tier.len(), 2, "third write evicts the oldest");
        assert!(tier.resident_bytes() <= tier.capacity_bytes());
        assert!(tier.load(&keys[0]).is_none(), "oldest entry was evicted");
        assert!(tier.load(&keys[2]).is_some());
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn store_with_disk_survives_memory_clear() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("persisted", &p, &layout, &cfg);
        let dir = tempdir("store");

        let store = TraceStore::with_capacity_mb(4)
            .with_disk(Some(DiskTier::new(&dir, 64 * 1024 * 1024).unwrap()));
        let mut first = InstCounts::new();
        store
            .obtain(key.clone(), &p, &layout, &cfg)
            .unwrap()
            .replay(&mut first);

        // Simulate a process restart: fresh memory tier, same directory.
        let fresh = TraceStore::with_capacity_mb(4)
            .with_disk(Some(DiskTier::new(&dir, 64 * 1024 * 1024).unwrap()));
        let ((), report) = vp_trace::scoped(|| {
            let mut second = InstCounts::new();
            fresh
                .obtain(key.clone(), &p, &layout, &cfg)
                .unwrap()
                .replay(&mut second);
            assert_eq!(first, second);
        });
        assert_eq!(report.counter("trace_store.captures"), 0);
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert_eq!(report.counter("trace_store.replays"), 1);
        assert_eq!(fresh.len(), 1, "disk hit promotes into memory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_mb_parsing() {
        assert_eq!(disk_mb_from(None), DEFAULT_DISK_MB);
        assert_eq!(disk_mb_from(Some("64")), 64);
        assert_eq!(disk_mb_from(Some(" 0 ")), 0);
        assert_eq!(disk_mb_from(Some("junk")), DEFAULT_DISK_MB);
    }
}
