//! Content-addressed evaluation result cache.
//!
//! One sweep cell is `evaluate(profile(workload), config)` — a trace
//! replay through the packing pipeline plus two timing-model passes, by
//! far the most expensive step of a sweep. Its outcome is a pure function
//! of (what ran, what profile drove packing, which knobs were set, which
//! pipeline code computed it). This module memoizes [`ConfigOutcome`]s on
//! disk under exactly that key, so an incremental re-sweep after an
//! unrelated edit skips replay and simulation for every unchanged cell —
//! and a workload whose cells are *all* cached is never even profiled.
//!
//! # Key derivation
//!
//! [`ResultKey`] is derivable **without executing anything**:
//!
//! * `trace_fp` — the content trace-key fingerprint of the workload
//!   ([`vp_exec::TraceKey::new`] hashes every instruction, data word and
//!   laid-out block address plus the run limits). Regenerating the same
//!   workload at the same scale reproduces it; any program or layout
//!   change misses.
//! * `profile_fp` — how the phases driving the pack were obtained: the
//!   detector/filter configuration for an own-profile cell, the source
//!   input's trace fingerprint for a cross-input cell, the whole family
//!   fold plus the merge configuration for a merged-profile cell.
//! * `config_fp` — every knob of the evaluated cell:
//!   `PackConfig::fingerprint`, `OptConfig::fingerprint`,
//!   `MachineConfig::fingerprint` (or absence), and the diff mode.
//! * [`PIPELINE_VERSION`] — a manually-bumped constant folded into every
//!   stored entry. **Bump it whenever the semantics of profiling,
//!   packing, optimization, or timing change** (new pass, changed
//!   threshold meaning, different cycle accounting): entries written by
//!   older code self-invalidate on load instead of serving stale numbers.
//!
//! # Determinism contract
//!
//! A cached hit must be byte-for-byte the outcome the evaluation would
//! have produced: `f64`s round-trip through [`f64::to_bits`], and an
//! outcome whose diff report carries divergence forensics is *refused* by
//! [`ResultCache::store`] (the forensics embed visit records that are
//! expensive to serialize and only matter interactively — such cells
//! simply re-evaluate). Sweep reports therefore render identically from
//! cold and warm runs, which the subprocess determinism tests pin.
//!
//! # On-disk format
//!
//! One file per cell, named by the key's hex fingerprint:
//! `magic "VPRC" | format version | CRC-32 of payload | payload`, where
//! the payload echoes the full key (pipeline version, cell label, three
//! fingerprints) followed by the encoded outcome. Loads verify magic,
//! versions, CRC, and the key echo; any mismatch deletes the file
//! (self-heal) and reports a miss. Stores are atomic (temp file +
//! rename), and the directory is evicted oldest-mtime-first to the
//! `VP_RESULT_MB` budget, mirroring the trace store's disk tier.

use crate::harness::ConfigOutcome;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;
use vp_exec::diff::{DiffReport, DiffVerdict};
use vp_exec::{crc32, TraceKey};
use vp_isa::Fnv;
use vp_trace::Counter;

/// Probes answered from the cache.
static RC_HITS: Counter = Counter::new("result_cache.hits");
/// Probes that found no usable entry (absent, corrupt, or stale).
static RC_MISSES: Counter = Counter::new("result_cache.misses");
/// Outcomes persisted.
static RC_STORES: Counter = Counter::new("result_cache.stores");
/// Entries removed to stay inside the byte budget.
static RC_EVICTIONS: Counter = Counter::new("result_cache.evictions");
/// Entries deleted on load because they were corrupt, keyed differently
/// than their name promised, or written by an older format or pipeline.
static RC_INVALIDATED: Counter = Counter::new("result_cache.invalidated");

/// Version of the on-disk entry encoding. Bump on any layout change.
pub const RESULT_FORMAT_VERSION: u32 = 1;

/// Version of the *evaluation pipeline semantics* folded into every key.
///
/// Bump this constant whenever a change alters what any cell would
/// compute — a new or reordered optimization pass, a timing-model
/// accounting change, a packing-heuristic fix — even if no configuration
/// struct changed shape. Entries written under the old version then
/// self-invalidate on load. Pure refactors that provably preserve every
/// reported number (the bit-identity suite is the arbiter) do not need a
/// bump.
///
/// History: v2 keys `trace_fp` on instruction content (v1 entries were
/// keyed on block shapes and could serve another binary's outcome).
pub const PIPELINE_VERSION: u32 = 2;

/// Default byte budget when `VP_RESULT_MB` is unset. Entries are ~200
/// bytes, so this comfortably holds millions of cells.
pub const DEFAULT_RESULT_MB: u64 = 64;

const MAGIC: &[u8; 4] = b"VPRC";
const EXT: &str = "vprc";

// ------------------------------------------------------------------ key

/// Content address of one evaluation cell.
///
/// See the module docs for how each fingerprint is derived; all of them
/// are computable before any profiling or replay happens, which is what
/// lets a fully-cached workload skip profiling entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultKey {
    /// Human-readable cell label (e.g. `"130.li A/IL"`); echoed into the
    /// entry and verified on load so hash collisions can never serve a
    /// foreign cell's numbers.
    pub cell: String,
    /// Structural fingerprint of the workload's trace key.
    pub trace_fp: u64,
    /// Fingerprint of how the driving profile was obtained.
    pub profile_fp: u64,
    /// Fingerprint of the evaluated configuration knobs.
    pub config_fp: u64,
}

impl ResultKey {
    /// Folds a [`TraceKey`]'s identifying fields into one fingerprint.
    ///
    /// The workload label, structural checksum, variant, and run limits
    /// all participate — the same components that distinguish trace
    /// captures distinguish evaluation results.
    pub fn trace_fingerprint(key: &TraceKey) -> u64 {
        let mut h = Fnv::new();
        h.write_str("TraceKey");
        h.write_str(&key.workload);
        h.write_u64(key.fingerprint);
        h.write_u64(key.variant);
        h.write_u64(key.max_insts);
        h.write_u64(key.max_depth);
        h.finish()
    }

    /// The 64-bit address the entry file is named after.
    fn address(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u32(PIPELINE_VERSION);
        h.write_str(&self.cell);
        h.write_u64(self.trace_fp);
        h.write_u64(self.profile_fp);
        h.write_u64(self.config_fp);
        h.finish()
    }
}

// ---------------------------------------------------------------- codec

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn verdict_code(v: DiffVerdict) -> u8 {
    match v {
        DiffVerdict::Clean => 0,
        DiffVerdict::Truncated => 1,
        DiffVerdict::Diverged => 2,
    }
}

fn verdict_from(code: u8) -> Option<DiffVerdict> {
    Some(match code {
        0 => DiffVerdict::Clean,
        1 => DiffVerdict::Truncated,
        2 => DiffVerdict::Diverged,
        _ => return None,
    })
}

fn encode_outcome(w: &mut Writer, o: &ConfigOutcome) {
    w.f64(o.coverage);
    w.f64(o.expansion);
    w.f64(o.selected_fraction);
    w.f64(o.replication);
    w.u64(o.packages as u64);
    w.u64(o.phases as u64);
    w.u64(o.launch_points as u64);
    match o.opt_cycles {
        Some(c) => {
            w.u8(1);
            w.u64(c);
        }
        None => w.u8(0),
    }
    match o.speedup {
        Some(s) => {
            w.u8(1);
            w.f64(s);
        }
        None => w.u8(0),
    }
    match &o.diff {
        Some(d) => {
            debug_assert!(d.divergence.is_none(), "store() refuses divergences");
            w.u8(1);
            w.u8(verdict_code(d.verdict));
            w.u64(d.orig_visits);
            w.u64(d.packed_visits);
            w.u64(d.aligned_visits);
            w.u64(d.exit_events);
            w.u64(d.stub_events);
            w.u64(d.migrations);
        }
        None => w.u8(0),
    }
}

fn decode_outcome(r: &mut Reader<'_>) -> Option<ConfigOutcome> {
    let coverage = r.f64()?;
    let expansion = r.f64()?;
    let selected_fraction = r.f64()?;
    let replication = r.f64()?;
    let packages = usize::try_from(r.u64()?).ok()?;
    let phases = usize::try_from(r.u64()?).ok()?;
    let launch_points = usize::try_from(r.u64()?).ok()?;
    let opt_cycles = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return None,
    };
    let speedup = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        _ => return None,
    };
    let diff = match r.u8()? {
        0 => None,
        1 => Some(DiffReport {
            verdict: verdict_from(r.u8()?)?,
            orig_visits: r.u64()?,
            packed_visits: r.u64()?,
            aligned_visits: r.u64()?,
            exit_events: r.u64()?,
            stub_events: r.u64()?,
            migrations: r.u64()?,
            divergence: None,
        }),
        _ => return None,
    };
    Some(ConfigOutcome {
        coverage,
        expansion,
        selected_fraction,
        replication,
        packages,
        phases,
        launch_points,
        opt_cycles,
        speedup,
        diff,
    })
}

fn encode(key: &ResultKey, outcome: &ConfigOutcome) -> Vec<u8> {
    let mut payload = Writer(Vec::with_capacity(192));
    payload.u32(PIPELINE_VERSION);
    payload.str(&key.cell);
    payload.u64(key.trace_fp);
    payload.u64(key.profile_fp);
    payload.u64(key.config_fp);
    encode_outcome(&mut payload, outcome);

    let mut out = Writer(Vec::with_capacity(payload.0.len() + 12));
    out.0.extend_from_slice(MAGIC);
    out.u32(RESULT_FORMAT_VERSION);
    out.u32(crc32(&payload.0));
    out.0.extend_from_slice(&payload.0);
    out.0
}

/// Decodes a full entry; `None` on any structural problem. The key echo
/// is returned for the caller to verify against the requested key.
fn decode(bytes: &[u8]) -> Option<(ResultKey, u32, ConfigOutcome)> {
    let mut r = Reader { buf: bytes, at: 0 };
    if r.take(4)? != MAGIC {
        return None;
    }
    if r.u32()? != RESULT_FORMAT_VERSION {
        return None;
    }
    let crc = r.u32()?;
    if crc32(&bytes[r.at..]) != crc {
        return None;
    }
    let pipeline = r.u32()?;
    let key = ResultKey {
        cell: r.str()?,
        trace_fp: r.u64()?,
        profile_fp: r.u64()?,
        config_fp: r.u64()?,
    };
    let outcome = decode_outcome(&mut r)?;
    if !r.done() {
        return None; // trailing garbage: treat as corrupt
    }
    Some((key, pipeline, outcome))
}

// ---------------------------------------------------------------- cache

/// Disk-backed store of evaluation outcomes.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
    cap_bytes: u64,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir` with a byte
    /// budget.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn new(dir: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<ResultCache> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root, cap_bytes })
    }

    /// Builds the cache from `VP_RESULT_DIR` / `VP_RESULT_MB`.
    ///
    /// `None` — caching disabled — when the directory is unset or empty,
    /// the budget parses to 0, or the directory cannot be created (the
    /// last with a warning: a misspelled path should not silently turn
    /// off memoization the user asked for).
    pub fn from_env() -> Option<ResultCache> {
        let dir = std::env::var("VP_RESULT_DIR").ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        let mb = match std::env::var("VP_RESULT_MB").ok().as_deref() {
            Some(s) => s.trim().parse::<u64>().unwrap_or(DEFAULT_RESULT_MB),
            None => DEFAULT_RESULT_MB,
        };
        if mb == 0 {
            return None;
        }
        match ResultCache::new(dir, mb.saturating_mul(1024 * 1024)) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("vp-metrics: VP_RESULT_DIR={dir} unusable ({e}); result cache disabled");
                None
            }
        }
    }

    /// The entry path for `key`.
    pub fn path_for(&self, key: &ResultKey) -> PathBuf {
        self.root.join(format!("{:016x}.{EXT}", key.address()))
    }

    /// Looks up `key`. A usable entry bumps `result_cache.hits` and the
    /// file's mtime (recency for eviction); an absent entry is a plain
    /// miss; a corrupt, mis-keyed, or stale-pipeline entry is deleted
    /// (self-heal), counted invalidated, and reported as a miss.
    pub fn load(&self, key: &ResultKey) -> Option<ConfigOutcome> {
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                RC_MISSES.incr();
                return None;
            }
        };
        match decode(&bytes) {
            Some((echoed, pipeline, outcome)) if echoed == *key && pipeline == PIPELINE_VERSION => {
                RC_HITS.incr();
                // Best-effort recency bump; eviction degrades to
                // least-recently-written if the touch fails.
                if let Ok(f) = fs::File::options().write(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(outcome)
            }
            _ => {
                let _ = fs::remove_file(&path);
                RC_INVALIDATED.incr();
                RC_MISSES.incr();
                None
            }
        }
    }

    /// Persists `outcome` under `key` atomically, then evicts
    /// oldest-mtime entries down to the budget.
    ///
    /// Refused (returning `false`) when the outcome's diff report carries
    /// divergence forensics — those embed visit records that are not
    /// worth serializing, and a diverging cell should re-run under
    /// scrutiny anyway.
    pub fn store(&self, key: &ResultKey, outcome: &ConfigOutcome) -> bool {
        if outcome
            .diff
            .as_ref()
            .is_some_and(|d| d.divergence.is_some())
        {
            return false;
        }
        let bytes = encode(key, outcome);
        if bytes.len() as u64 > self.cap_bytes {
            return false;
        }
        let path = self.path_for(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if fs::write(&tmp, &bytes).is_err() || fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        RC_STORES.incr();
        self.evict_to_budget(&path);
        true
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.scan().len()
    }

    /// Whether the cache holds no entries.
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
        // Oldest first; the path tie-break keeps eviction deterministic
        // when mtime granularity groups writes.
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
                RC_EVICTIONS.incr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vp_exec::diff::Divergence;

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vprc-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(cell: &str) -> ResultKey {
        ResultKey {
            cell: cell.to_string(),
            trace_fp: 0x1111,
            profile_fp: 0x2222,
            config_fp: 0x3333,
        }
    }

    fn outcome() -> ConfigOutcome {
        ConfigOutcome {
            coverage: 0.8315,
            expansion: 0.0234,
            selected_fraction: 0.125,
            replication: 1.75,
            packages: 7,
            phases: 11,
            launch_points: 23,
            opt_cycles: Some(123_456_789),
            speedup: Some(1.0625),
            diff: Some(DiffReport {
                verdict: DiffVerdict::Clean,
                orig_visits: 1000,
                packed_visits: 1002,
                aligned_visits: 1000,
                exit_events: 1,
                stub_events: 1,
                migrations: 3,
                divergence: None,
            }),
        }
    }

    fn assert_outcomes_eq(a: &ConfigOutcome, b: &ConfigOutcome) {
        assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
        assert_eq!(a.expansion.to_bits(), b.expansion.to_bits());
        assert_eq!(a.selected_fraction.to_bits(), b.selected_fraction.to_bits());
        assert_eq!(a.replication.to_bits(), b.replication.to_bits());
        assert_eq!(a.packages, b.packages);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.launch_points, b.launch_points);
        assert_eq!(a.opt_cycles, b.opt_cycles);
        assert_eq!(
            a.speedup.map(f64::to_bits),
            b.speedup.map(f64::to_bits),
            "speedup must round-trip bit-exactly"
        );
        assert_eq!(a.diff, b.diff);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let c = ResultCache::new(tempdir("roundtrip"), 1 << 20).unwrap();
        let k = key("130.li A/IL");
        let o = outcome();
        assert!(c.store(&k, &o));
        let back = c.load(&k).expect("hit");
        assert_outcomes_eq(&o, &back);
    }

    #[test]
    fn awkward_floats_roundtrip() {
        let c = ResultCache::new(tempdir("floats"), 1 << 20).unwrap();
        for (i, v) in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0 / 3.0,
            f64::NAN,
        ]
        .into_iter()
        .enumerate()
        {
            let k = key(&format!("cell{i}"));
            let o = ConfigOutcome {
                coverage: v,
                speedup: Some(v),
                ..ConfigOutcome::default()
            };
            assert!(c.store(&k, &o));
            let back = c.load(&k).expect("hit");
            assert_eq!(back.coverage.to_bits(), v.to_bits());
            assert_eq!(back.speedup.unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn none_fields_roundtrip() {
        let c = ResultCache::new(tempdir("nones"), 1 << 20).unwrap();
        let k = key("bare");
        let o = ConfigOutcome::default();
        assert!(c.store(&k, &o));
        let back = c.load(&k).expect("hit");
        assert_eq!(back.opt_cycles, None);
        assert_eq!(back.speedup, None);
        assert_eq!(back.diff, None);
    }

    #[test]
    fn absent_entry_is_a_plain_miss() {
        let c = ResultCache::new(tempdir("miss"), 1 << 20).unwrap();
        assert!(c.load(&key("nope")).is_none());
    }

    #[test]
    fn divergent_outcomes_are_refused() {
        let c = ResultCache::new(tempdir("diverge"), 1 << 20).unwrap();
        let k = key("bad");
        let mut o = outcome();
        o.diff.as_mut().unwrap().divergence = Some(Divergence {
            index: 5,
            expected: None,
            actual: None,
            context: Vec::new(),
        });
        assert!(!c.store(&k, &o), "divergence-carrying outcome must refuse");
        assert!(c.load(&k).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn corruption_anywhere_is_refused_and_healed() {
        let base = tempdir("corrupt");
        let k = key("cell");
        let o = outcome();
        // Build one good entry to learn its length.
        let c = ResultCache::new(base.join("probe"), 1 << 20).unwrap();
        assert!(c.store(&k, &o));
        let good = fs::read(c.path_for(&k)).unwrap();

        for i in 0..good.len() {
            let dir = base.join(format!("bit{i}"));
            let c = ResultCache::new(&dir, 1 << 20).unwrap();
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            fs::write(c.path_for(&k), &bad).unwrap();
            // Flipping a bit in the magic, version, CRC, key echo, or
            // body must all be refused; the poisoned file is deleted.
            assert!(c.load(&k).is_none(), "byte {i} flip accepted");
            assert!(
                !c.path_for(&k).exists(),
                "byte {i}: poisoned entry not healed"
            );
        }

        // Truncation at every boundary.
        for cut in 0..good.len() {
            let dir = base.join(format!("cut{cut}"));
            let c = ResultCache::new(&dir, 1 << 20).unwrap();
            fs::write(c.path_for(&k), &good[..cut]).unwrap();
            assert!(c.load(&k).is_none(), "truncation at {cut} accepted");
            assert!(!c.path_for(&k).exists());
        }

        // Trailing garbage.
        let c = ResultCache::new(base.join("tail"), 1 << 20).unwrap();
        let mut long = good.clone();
        long.push(0);
        fs::write(c.path_for(&k), &long).unwrap();
        assert!(c.load(&k).is_none());
    }

    #[test]
    fn key_field_changes_miss() {
        let c = ResultCache::new(tempdir("fields"), 1 << 20).unwrap();
        let k = key("cell");
        assert!(c.store(&k, &outcome()));
        for other in [
            ResultKey {
                cell: "other".into(),
                ..k.clone()
            },
            ResultKey {
                trace_fp: k.trace_fp ^ 1,
                ..k.clone()
            },
            ResultKey {
                profile_fp: k.profile_fp ^ 1,
                ..k.clone()
            },
            ResultKey {
                config_fp: k.config_fp ^ 1,
                ..k.clone()
            },
        ] {
            assert!(c.load(&other).is_none(), "{other:?} must miss");
        }
        // The original entry survives the misses (different filenames).
        assert!(c.load(&k).is_some());
    }

    #[test]
    fn mis_keyed_file_is_refused_by_echo() {
        // An entry renamed to another key's filename decodes fine but
        // echoes the wrong key: it must be refused and deleted.
        let c = ResultCache::new(tempdir("echo"), 1 << 20).unwrap();
        let k1 = key("one");
        let k2 = key("two");
        assert!(c.store(&k1, &outcome()));
        fs::rename(c.path_for(&k1), c.path_for(&k2)).unwrap();
        assert!(c.load(&k2).is_none());
        assert!(!c.path_for(&k2).exists(), "mis-keyed entry not healed");
    }

    #[test]
    fn eviction_is_lru_by_mtime() {
        let c = ResultCache::new(tempdir("evict"), 1 << 20).unwrap();
        let o = outcome();
        let entry_len = {
            let k = key("probe");
            assert!(c.store(&k, &o));
            let len = fs::metadata(c.path_for(&k)).unwrap().len();
            fs::remove_file(c.path_for(&k)).unwrap();
            len
        };
        // Budget for exactly three entries.
        let c = ResultCache::new(tempdir("evict3"), entry_len * 3).unwrap();
        let keys: Vec<ResultKey> = (0..4).map(|i| key(&format!("c{i}"))).collect();
        for k in &keys[..3] {
            assert!(c.store(k, &o));
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Touch c0 (a load bumps mtime), making c1 the oldest.
        assert!(c.load(&keys[0]).is_some());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(c.store(&keys[3], &o));
        assert!(c.load(&keys[1]).is_none(), "LRU entry must be evicted");
        assert!(c.load(&keys[0]).is_some(), "recently-used entry survives");
        assert!(c.load(&keys[3]).is_some(), "new entry survives");
    }

    #[test]
    fn oversized_store_is_refused() {
        let c = ResultCache::new(tempdir("oversize"), 10).unwrap();
        assert!(!c.store(&key("big"), &outcome()));
        assert!(c.is_empty());
    }

    #[test]
    fn from_env_parses_dir_and_budget() {
        // Env is process-global; one test function covers every case so
        // parallel tests never race on it.
        std::env::remove_var("VP_RESULT_DIR");
        assert!(ResultCache::from_env().is_none(), "unset dir disables");
        std::env::set_var("VP_RESULT_DIR", "  ");
        assert!(ResultCache::from_env().is_none(), "blank dir disables");
        let dir = tempdir("fromenv");
        std::env::set_var("VP_RESULT_DIR", &dir);
        std::env::set_var("VP_RESULT_MB", "0");
        assert!(ResultCache::from_env().is_none(), "zero budget disables");
        std::env::set_var("VP_RESULT_MB", "2");
        let c = ResultCache::from_env().expect("enabled");
        assert_eq!(c.cap_bytes, 2 * 1024 * 1024);
        assert_eq!(c.root, dir);
        std::env::set_var("VP_RESULT_MB", "nonsense");
        let c = ResultCache::from_env().expect("enabled at default budget");
        assert_eq!(c.cap_bytes, DEFAULT_RESULT_MB * 1024 * 1024);
        std::env::remove_var("VP_RESULT_DIR");
        std::env::remove_var("VP_RESULT_MB");
    }
}
