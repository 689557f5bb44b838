//! On-disk persistence tier for [`CapturedTrace`]s: a thin client of the
//! [`blob`](crate::blob) store.
//!
//! The in-memory [`TraceStore`](super::TraceStore) dies with the process,
//! so detector-configuration sweeps and CI runs would re-pay the full
//! interpreter cost on every invocation. [`DiskTier`] keeps each capture
//! as one framed file in a directory (`VP_TRACE_DIR`), so a warmed cache
//! survives process restarts and is shared between concurrently running
//! shard processes. The store owns the frame (magic `"VPTR"`,
//! [`FORMAT_VERSION`], CRC-32, key echo), atomic writes, self-heal and
//! the `VP_TRACE_DISK_MB` budget (default 2048) with mtime-LRU eviction.
//! This module supplies only the file name, the key echo and the payload
//! codec below.
//!
//! # Key echo and name
//!
//! The echo is the owning [`TraceKey`]: workload name (length-prefixed),
//! content fingerprint, variant and run limits, as varints. The file name
//! is a sanitized workload prefix for debuggability plus a 16-hex-digit
//! FNV-1a hash of the echo; a name collision is caught by the echo check.
//!
//! # Payload (version [`FORMAT_VERSION`])
//!
//! ```text
//! stream      the raw dynamic stream, as the recorder produced it
//! side table  varint run stats and event count, the slot count, then
//!             every slot record in index order
//! trailer     the stream's length (LE u64, the payload's last 8 bytes)
//!
//! slot record (the slot's in-memory `SlotCol` and block)
//!   exec      the packed exec word (LE u64)
//!   flags     the static `col` flag bits (u8)
//!   seen      the observed-lane mask (u8, bit d for lane d)
//!   addr      fetch address (varint)
//!   loc       block: function index, block index (varints)
//!   lanes     the target of each observed lane, lane 0 first (varints)
//! ```
//!
//! Stream first, so a recording can go to disk as it is made: with a disk
//! tier attached, the trace store records through `DiskTier::recorder`,
//! which streams its bytes into the blob's temp file in fixed chunks and,
//! when the run ends, appends the side table and publishes the file. A cold
//! capture is then file-backed from birth; no buffer ever grows to the
//! trace's size. On a hit the stream stays a window into the store's
//! bytes — on Linux the mapped file — so a load makes no stream-sized
//! copy either.
//!
//! The side table is dense: a capture only gains a slot while recording
//! a stream record that references it, so every slot is live and there
//! is nothing to skip. A slot record is stored as the decoder reads it, so
//! decode only checks that it cannot index out of range: every register
//! field of the exec word at most [`col::DEF_NONE`], no dynamic bit in
//! the flags, no lane past the second.

use super::{
    put_varint, CapturedTrace, SlotCol, StreamBytes, TraceKey, TraceRecorder, BOTH_LANES, DYN_MASK,
};
use crate::blob::{Blob, BlobStore, BlobWriter, Frame};
use crate::event::col;
use crate::exec::{RunStats, StopReason};
use std::io;
use std::path::PathBuf;
use vp_isa::{CodeRef, Fnv};
use vp_trace::Counter;

/// Store lookups answered by loading a capture from `VP_TRACE_DIR`.
static DISK_HITS: Counter = Counter::new("trace_store.disk_hits");
/// Total encoded bytes written to the disk tier (monotonic).
static DISK_BYTES: Counter = Counter::new("trace_store.disk_bytes");
/// On-disk captures deleted to stay inside the disk byte budget.
static DISK_EVICTIONS: Counter = Counter::new("trace_store.disk_evictions");

/// Version stamped into every `.vptrace` frame. Bump when the payload
/// encoding (this module *or* the in-memory stream encoding in
/// `trace_store`) changes shape; old files are then refused and
/// re-captured instead of mis-decoded.
///
/// History: v1 had no key echo; v2 added a header string table and the
/// echo; v3 replaced the dense side-table section with a hot-slot index
/// (referenced slots only); v4 echoed a content-addressed key (every
/// instruction, not just block shapes); v5 moved the echo into the blob
/// store's frame and dropped the string table and the stream length; v6
/// writes the side table densely again, since every slot of a capture is
/// referenced by its stream; v7 puts the stream first and the side table
/// after it, closed by the stream's length, so a recorder can write the
/// stream to disk as it goes; v8 stores each slot as its in-memory
/// record (exec word, static flags, observed lanes, block) instead of a
/// template `Retired` and its targets. Only v8 is read.
pub const FORMAT_VERSION: u32 = 8;

/// Default disk budget when `VP_TRACE_DISK_MB` is unset.
pub const DEFAULT_DISK_MB: u64 = 2048;

const FRAME: Frame = Frame {
    magic: *b"VPTR",
    version: FORMAT_VERSION,
    ext: "vptrace",
    on_evict: |len, resident| {
        DISK_EVICTIONS.incr();
        // Flight payload: (evicted file bytes, resident bytes after).
        vp_trace::flight("trace_store.disk_evict", len, resident);
    },
};

// --------------------------------------------------------------- encoding

/// The key echo: every [`TraceKey`] field, verified by the store on load.
fn echo(key: &TraceKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.workload.len() + 32);
    put_varint(&mut out, key.workload.len() as u64);
    out.extend_from_slice(key.workload.as_bytes());
    for v in [key.fingerprint, key.variant, key.max_insts, key.max_depth] {
        put_varint(&mut out, v);
    }
    out
}

/// Serializes one side-table record.
fn put_slot(payload: &mut Vec<u8>, sc: &SlotCol, loc: CodeRef) {
    payload.extend_from_slice(&sc.exec.to_le_bytes());
    payload.push(sc.flags);
    payload.push(sc.seen);
    put_varint(payload, sc.addr);
    put_varint(payload, u64::from(loc.func.0));
    put_varint(payload, u64::from(loc.block.0));
    for (d, &t) in sc.tgt.iter().enumerate() {
        if sc.seen & (1 << d) != 0 {
            put_varint(payload, t);
        }
    }
}

/// Length of the payload's trailer: the stream length as a LE u64.
const TRAILER: usize = 8;

/// Serializes what follows a capture's `stream_len`-byte stream in its
/// payload: the side table, then the trailer.
fn encode_tail(
    cols: &[SlotCol],
    locs: &[CodeRef],
    stats: RunStats,
    events: u64,
    stream_len: usize,
) -> Vec<u8> {
    let mut tail = Vec::with_capacity(24 * cols.len() + 64);

    // Stats header.
    put_varint(&mut tail, stats.retired);
    put_varint(&mut tail, stats.cond_branches);
    put_varint(&mut tail, stats.in_package);
    tail.push(match stats.stop {
        StopReason::Halted => 0,
        StopReason::InstLimit => 1,
    });
    put_varint(&mut tail, events);

    // Static side-table section: the slot count, then every slot.
    put_varint(&mut tail, cols.len() as u64);
    for (sc, &loc) in cols.iter().zip(locs) {
        put_slot(&mut tail, sc, loc);
    }
    tail.extend_from_slice(&(stream_len as u64).to_le_bytes());
    tail
}

/// Ends a recording spooled through `w` (see [`DiskTier::recorder`]):
/// appends the side table and publishes the file, counting its bytes in
/// `trace_store.disk_bytes`. Returns the stream as written, a window into
/// the file's mapping where the host maps it. A capture over the disk
/// budget is not published but still returned: mapped through its
/// unlinked temp file, or read back owned.
///
/// # Errors
///
/// Any I/O error of the whole recording; the temp file is removed.
pub(super) fn publish(
    mut w: BlobWriter,
    cols: &[SlotCol],
    locs: &[CodeRef],
    stream_len: usize,
    stats: RunStats,
    events: u64,
) -> io::Result<Blob> {
    w.write(&encode_tail(cols, locs, stats, events, stream_len));
    let (payload, published) = w.finish_and_read()?;
    if let Some(bytes) = published {
        DISK_BYTES.add(bytes);
    }
    Ok(payload.window(0..stream_len))
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

    fn u64_le(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Deserializes one side-table record, refusing one that could index
/// out of range: a register field past [`col::DEF_NONE`], a dynamic bit
/// in the static flags, or a lane past the second.
fn read_slot(rd: &mut Rd) -> Option<(SlotCol, CodeRef)> {
    let exec = rd.u64_le()?;
    let flags = rd.u8()?;
    let seen = rd.u8()?;
    let regs_in_range = [0, col::USE1_SHIFT, col::USE2_SHIFT, col::DEF_SHIFT]
        .iter()
        .all(|&at| (exec >> at & col::REG_MASK) as usize <= col::DEF_NONE);
    if !regs_in_range || flags & DYN_MASK != 0 || seen & !BOTH_LANES != 0 {
        return None;
    }
    let addr = rd.varint()?;
    let func = u32::try_from(rd.varint()?).ok()?;
    let block = u32::try_from(rd.varint()?).ok()?;
    let mut tgt = [0; 2];
    for (d, t) in tgt.iter_mut().enumerate() {
        if seen & (1 << d) != 0 {
            *t = rd.varint()?;
        }
    }
    let sc = SlotCol {
        exec,
        tgt,
        addr,
        flags,
        seen,
    };
    Some((sc, CodeRef::new(func, block)))
}

/// Deserializes a payload (stream, side table, trailer). The dynamic
/// stream — the bulk of every capture — stays a window into `payload`;
/// the slot records are materialized (they are random-access-hot during
/// replay and tiny next to the stream).
/// Returns `None` on a malformed payload, which the store then deletes.
fn decode(payload: Blob) -> Option<CapturedTrace> {
    let body = payload.len().checked_sub(TRAILER)?;
    let trailer: [u8; TRAILER] = payload[body..].try_into().ok()?;
    let stream_len = usize::try_from(u64::from_le_bytes(trailer))
        .ok()
        .filter(|&n| n <= body)?;
    let mut rd = Rd {
        buf: &payload[..body],
        pos: stream_len,
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
    // A slot costs at least 13 bytes encoded; reject fantastic counts
    // before allocating.
    if n_slots > payload.len() {
        return None;
    }
    let mut slot_cols = Vec::with_capacity(n_slots);
    let mut slot_locs = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        let (sc, loc) = read_slot(&mut rd)?;
        slot_cols.push(sc);
        slot_locs.push(loc);
    }
    if rd.pos != body {
        return None;
    }

    Some(CapturedTrace {
        slot_cols,
        slot_locs,
        stream: StreamBytes::Stored(payload.window(0..stream_len)),
        stats: RunStats {
            retired,
            cond_branches,
            in_package,
            stop,
        },
        events,
    })
}

// -------------------------------------------------------------- the tier

/// The on-disk persistence tier: `.vptrace` files in a [`BlobStore`],
/// named and echoed by [`TraceKey`].
#[derive(Debug)]
pub struct DiskTier {
    blobs: BlobStore,
}

impl DiskTier {
    /// Creates (and, if needed, mkdir-p's) a tier rooted at `root` with a
    /// byte budget.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<DiskTier> {
        let blobs = BlobStore::new(root, cap_bytes, FRAME)?;
        Ok(DiskTier { blobs })
    }

    /// Builds the tier from `VP_TRACE_DIR` / `VP_TRACE_DISK_MB` (default
    /// 2048 MB); `None` when the directory is unset or unusable or the
    /// budget is 0 (see [`BlobStore::from_env`]).
    pub fn from_env() -> Option<DiskTier> {
        BlobStore::from_env(FRAME, "VP_TRACE_DIR", "VP_TRACE_DISK_MB", DEFAULT_DISK_MB)
            .map(|blobs| DiskTier { blobs })
    }

    /// The underlying store (directory, occupancy and budget).
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// The file a key persists to.
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        self.blobs.path(&name(key, &echo(key)))
    }

    /// Loads `key`'s capture. Returns `None` when the file is absent, or
    /// when the store refuses it — truncated, corrupted, another format
    /// version, or recording a *different* key — and deletes it so the
    /// slot heals on the next write.
    pub fn load(&self, key: &TraceKey) -> Option<CapturedTrace> {
        let echo = echo(key);
        let trace = self.blobs.get(&name(key, &echo), &echo, decode).ok()?;
        DISK_HITS.incr();
        // Flight payload: (file bytes, event count).
        vp_trace::flight("trace_store.disk_hit", trace.bytes() as u64, trace.events);
        Some(trace)
    }

    /// Persists `trace` under `key`, writing its stream straight from
    /// the capture (no payload copy); a capture larger than the whole
    /// budget is silently not persisted.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the caller treats them as a cache miss.
    pub fn store(&self, key: &TraceKey, trace: &CapturedTrace) -> io::Result<()> {
        let echo = echo(key);
        let mut w = self.blobs.writer(&name(key, &echo), &echo)?;
        w.write(&trace.stream);
        w.write(&encode_tail(
            &trace.slot_cols,
            &trace.slot_locs,
            trace.stats,
            trace.events,
            trace.stream.len(),
        ));
        if let Some(bytes) = w.finish()? {
            DISK_BYTES.add(bytes);
        }
        Ok(())
    }

    /// A recorder for `key`'s capture that writes its stream into this
    /// tier as it records; sealing it publishes the file (see the module
    /// docs). Publishing is not a disk hit.
    ///
    /// # Errors
    ///
    /// Fails if the temp file cannot be created.
    pub(super) fn recorder(&self, key: &TraceKey) -> io::Result<TraceRecorder> {
        let echo = echo(key);
        let w = self.blobs.writer(&name(key, &echo), &echo)?;
        Ok(TraceRecorder::spooling(w))
    }
}

/// A key's file name: a sanitized workload prefix for debuggability plus
/// a hash of the whole echo (the prefix alone is not unique: same label,
/// different scale, layout, config or variant).
fn name(key: &TraceKey, echo: &[u8]) -> String {
    let mut h = Fnv::new();
    h.write_bytes(echo);
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
    format!("{prefix}-{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_program;
    use super::super::{TraceKey, TraceStore};
    use super::*;
    use crate::event::InstCounts;
    use crate::event::{ColEvent, FnSink};
    use crate::exec::RunConfig;
    use std::fs;
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

    fn events_of(trace: &CapturedTrace) -> Vec<ColEvent> {
        let mut events = Vec::new();
        trace.replay(&mut FnSink(|e| events.push(e)));
        events
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
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("roundtrip", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let tier = DiskTier::new(tempdir("codec"), 64 * 1024 * 1024).unwrap();
        tier.store(&key, &trace).unwrap();
        let reloaded = tier.load(&key).expect("roundtrip decodes");

        assert_eq!(trace.stats(), reloaded.stats());
        assert_eq!(trace.events(), reloaded.events());
        assert_eq!(
            events_of(&trace),
            events_of(&reloaded),
            "replayed streams must be identical"
        );
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    /// `trace`'s payload as [`DiskTier::store`] writes it.
    fn encode(trace: &CapturedTrace) -> Vec<u8> {
        let mut payload = trace.stream.to_vec();
        payload.extend(encode_tail(
            &trace.slot_cols,
            &trace.slot_locs,
            trace.stats,
            trace.events,
            trace.stream.len(),
        ));
        payload
    }

    #[test]
    fn decode_mapped_matches_decode() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let payload = encode(&trace);

        let dir = tempdir("mapped");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.payload");
        fs::write(&path, &payload).unwrap();
        let map = |path: &PathBuf| Blob::mapped(&fs::File::open(path).unwrap());

        let mapped = map(&path);
        if cfg!(target_os = "linux") {
            assert!(mapped.is_some(), "linux hosts map files");
        }
        let Some(mapped) = mapped else {
            let _ = fs::remove_dir_all(&dir);
            return;
        };
        assert!(format!("{mapped:?}").contains("mapped"));
        let m = decode(mapped).expect("mapped payload decodes");
        let d = decode(Blob::owned(payload.clone())).unwrap();
        assert_eq!(m.stats(), d.stats());
        assert_eq!(m.events(), d.events());
        assert_eq!(events_of(&m), events_of(&d));
        assert_eq!(events_of(&m), events_of(&trace));

        // A malformed payload is refused on the mapped path too.
        fs::write(&path, &payload[..payload.len() - 1]).unwrap();
        assert!(decode(map(&path).unwrap()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_owned_matches_decode() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let payload = encode(&trace);

        let a = decode(Blob::owned(payload.clone())).unwrap();
        // The store hands over a window behind the frame header; junk on
        // either side of it must not leak into the decode.
        let mut framed = vec![0xab; 24];
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&[0xcd; 8]);
        let b = decode(Blob::owned(framed).window(24..24 + payload.len())).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.events(), b.events());
        assert_eq!(events_of(&a), events_of(&b));
        assert_eq!(events_of(&a), events_of(&trace));

        // A malformed payload is refused identically.
        assert!(decode(Blob::owned(payload[..payload.len() - 1].to_vec())).is_none());
    }

    #[test]
    fn decode_refuses_corruption() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("corrupt", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        // The codec: a payload cut anywhere, with trailing bytes, with a
        // stream length past the side table, or with an unknown stop
        // reason, is malformed.
        let payload = encode(&trace);
        for cut in 0..payload.len() {
            let short = Blob::owned(payload[..cut].to_vec());
            assert!(decode(short).is_none(), "payload truncated at {cut}");
        }
        let body = payload.len() - TRAILER;
        let mut long = payload[..body].to_vec();
        long.push(0);
        long.extend_from_slice(&payload[body..]);
        assert!(
            decode(Blob::owned(long)).is_none(),
            "a byte after the side table"
        );
        let mut past = payload.clone();
        past[body..].copy_from_slice(&(body as u64 + 1).to_le_bytes());
        assert!(
            decode(Blob::owned(past)).is_none(),
            "stream length past the end"
        );
        let mut rd = Rd {
            buf: &payload,
            pos: trace.stream.len(),
        };
        for _ in 0..3 {
            rd.varint().unwrap();
        }
        let mut bad_stop = payload.clone();
        bad_stop[rd.pos] = 7;
        assert!(decode(Blob::owned(bad_stop)).is_none(), "stop code 7");

        // A slot record that could index out of range, in a CRC-valid
        // file: a register field past `DEF_NONE`, a dynamic flag bit, or
        // a third lane.
        rd.pos += 1;
        for _ in 0..2 {
            rd.varint().unwrap();
        }
        let slot = rd.pos;
        assert_eq!(
            rd.u64_le(),
            Some(trace.slot_cols[0].exec),
            "slot 0's exec word"
        );
        let mut out_of_range = Vec::new();
        for at in [0, col::USE1_SHIFT, col::USE2_SHIFT, col::DEF_SHIFT] {
            let mut bad = payload.clone();
            bad[slot + at as usize / 8] = col::DEF_NONE as u8 + 1;
            out_of_range.push((bad, format!("register field at bit {at}")));
        }
        for bit in [col::MEM, col::ARCH_TAKEN, col::TAKEN] {
            let mut bad = payload.clone();
            bad[slot + 8] |= bit;
            out_of_range.push((bad, format!("dynamic flag {bit:#x}")));
        }
        let mut bad = payload.clone();
        bad[slot + 9] |= 1 << 2;
        out_of_range.push((bad, "a third lane".to_string()));
        let tier = DiskTier::new(tempdir("range"), 64 * 1024 * 1024).unwrap();
        let echo = echo(&key);
        for (bad, what) in out_of_range {
            assert!(decode(Blob::owned(bad.clone())).is_none(), "{what}");
            tier.blobs().put(&name(&key, &echo), &echo, &bad).unwrap();
            assert!(tier.load(&key).is_none(), "{what}: loaded");
            assert!(!tier.path_for(&key).exists(), "{what}: not deleted");
        }
        let _ = fs::remove_dir_all(tier.blobs().root());

        // The tier: the frame refuses a truncated or bit-flipped file and
        // deletes it.
        let tier = DiskTier::new(tempdir("corrupt"), 64 * 1024 * 1024).unwrap();
        tier.store(&key, &trace).unwrap();
        let path = tier.path_for(&key);
        let good = fs::read(&path).unwrap();
        assert!(tier.load(&key).is_some());
        let refused = |bytes: &[u8], what: String| {
            fs::write(&path, bytes).unwrap();
            assert!(tier.load(&key).is_none(), "{what}");
            assert!(!path.exists(), "{what}: corrupt entry not deleted");
        };
        for cut in [0, 4, 11, 12, good.len() / 2, good.len() - 1] {
            refused(&good[..cut], format!("truncated at {cut}"));
        }
        for pos in [0, 5, 9, 20, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            refused(&bad, format!("bit flip at {pos}"));
        }
        // Unsupported versions: the future and the past.
        for v in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, FORMAT_VERSION - 2] {
            let mut wrong = good.clone();
            wrong[4..8].copy_from_slice(&v.to_le_bytes());
            refused(&wrong, format!("version {v}"));
        }
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn a_v6_file_is_refused_and_deleted() {
        // Whole, well-framed files in older layouts under the key's own
        // name — v6 (side table first, then the stream, no trailer) and
        // v7 (stream first, as today) — each holding this capture's
        // bytes: the version check refuses them before the codec sees
        // them.
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("v6", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let v7 = encode(&trace);
        let tail = &v7[trace.stream.len()..v7.len() - TRAILER];
        let mut v6 = tail.to_vec();
        v6.extend_from_slice(&trace.stream);

        let tier = DiskTier::new(tempdir("v6"), 64 * 1024 * 1024).unwrap();
        let echo = echo(&key);
        let path = tier.path_for(&key);
        for (version, payload) in [(6, v6), (7, v7)] {
            let old =
                BlobStore::new(tier.blobs().root(), u64::MAX, Frame { version, ..FRAME }).unwrap();
            old.put(&name(&key, &echo), &echo, &payload).unwrap();
            assert!(path.exists());
            let (loaded, report) = vp_trace::scoped(|| tier.load(&key));
            assert!(loaded.is_none(), "a v{version} file is never decoded");
            assert!(!path.exists(), "the v{version} file is deleted");
            assert_eq!(report.counter("trace_store.disk_hits"), 0);
        }
        // The healed slot takes a current write.
        tier.store(&key, &trace).unwrap();
        assert_eq!(events_of(&tier.load(&key).unwrap()), events_of(&trace));
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn every_slot_of_a_live_capture_is_referenced() {
        // The dense side table relies on this: a recorder only registers
        // a slot while recording a stream record that references it.
        let cfg = RunConfig::default();
        for w in vp_workloads::suite(1)
            .into_iter()
            .filter(|w| ["130.li A", "164.gzip A", "181.mcf A"].contains(&w.label().as_str()))
        {
            let layout = vp_program::Layout::natural(&w.program);
            let trace = CapturedTrace::capture(&w.program, &layout, &cfg).unwrap();
            let mut seen = vec![false; trace.slot_cols.len()];
            for rec in trace.cursor() {
                seen[rec.slot] = true;
            }
            assert!(!seen.is_empty(), "{}", w.label());
            let dead = seen.iter().filter(|s| !**s).count();
            assert_eq!(dead, 0, "{}: {dead} unreferenced slots", w.label());
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
        assert_eq!(tier.blobs().len(), 1);

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
        let _ = fs::remove_dir_all(tier.blobs().root());
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
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn tier_evicts_oldest_beyond_budget() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let keys: Vec<TraceKey> = ["a", "b", "c"]
            .iter()
            .map(|l| TraceKey::new(l, &p, &layout, &cfg))
            .collect();
        let probe = DiskTier::new(tempdir("evict-probe"), u64::MAX).unwrap();
        probe.store(&keys[0], &trace).unwrap();
        let one = probe.blobs().resident_bytes();
        let _ = fs::remove_dir_all(probe.blobs().root());

        let tier = DiskTier::new(tempdir("evict"), 2 * one + 1).unwrap();
        let ((), report) = vp_trace::scoped(|| {
            for (i, key) in keys.iter().enumerate() {
                // Filesystem mtime granularity can be 1 ms; space the
                // writes out so eviction order is the write order.
                if i > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                tier.store(key, &trace).unwrap();
            }
        });
        assert_eq!(report.counter("trace_store.disk_evictions"), 1);
        assert_eq!(tier.blobs().len(), 2, "third write evicts the oldest");
        assert!(tier.blobs().resident_bytes() <= tier.blobs().capacity_bytes());
        assert!(tier.load(&keys[0]).is_none(), "oldest entry was evicted");
        assert!(tier.load(&keys[2]).is_some());
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn key_echo_stores_workload_once() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let name = "a-rather-long-workload-name-that-would-hurt-if-repeated";
        let key = TraceKey::new(name, &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let tier = DiskTier::new(tempdir("echo-once"), 64 * 1024 * 1024).unwrap();
        tier.store(&key, &trace).unwrap();
        let bytes = fs::read(tier.path_for(&key)).unwrap();
        let hits = bytes
            .windows(name.len())
            .filter(|w| *w == name.as_bytes())
            .count();
        assert_eq!(hits, 1, "workload name appears exactly once in the image");
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        use std::sync::Barrier;
        const N: usize = 8;
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("racy", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let tier = DiskTier::new(tempdir("race"), 64 * 1024 * 1024).unwrap();
        for _ in 0..4 {
            let barrier = Barrier::new(N);
            std::thread::scope(|s| {
                for _ in 0..N {
                    s.spawn(|| {
                        barrier.wait();
                        tier.store(&key, &trace)
                            .expect("every racing store succeeds");
                    });
                }
            });
            let loaded = tier.load(&key).expect("the published file is whole");
            assert_eq!(events_of(&loaded), events_of(&trace));
        }
        let _ = fs::remove_dir_all(tier.blobs().root());
    }

    #[test]
    fn failed_store_leaves_no_temp_file() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("blocked", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let tier = DiskTier::new(tempdir("blocked"), 64 * 1024 * 1024).unwrap();
        // A non-empty directory where the capture should go makes the
        // rename fail after the temp file is written.
        fs::create_dir_all(tier.path_for(&key).join("occupied")).unwrap();
        assert!(tier.store(&key, &trace).is_err());
        let left: Vec<PathBuf> = fs::read_dir(tier.blobs().root())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(left, [tier.path_for(&key)], "temp file leaked");
        let _ = fs::remove_dir_all(tier.blobs().root());
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
}
