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
//!   `PackConfig::fingerprint`, `OptConfig::fingerprint` and
//!   `MachineConfig::fingerprint` (or absence).
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
//! The cache is a thin client of [`vp_exec::blob`], the store the trace
//! disk tier uses too: one framed file per cell (magic `"VPRC"`,
//! [`RESULT_FORMAT_VERSION`]), named by the key's hex fingerprint. The key
//! echo is the pipeline version, cell label and three fingerprints; the
//! payload is the encoded outcome. The store verifies the frame and the
//! echo, deletes any entry that fails (self-heal), writes atomically and
//! evicts oldest-mtime-first to the `VP_RESULT_MB` budget; this module
//! keeps only the name, the echo and the outcome codec.

use crate::harness::ConfigOutcome;
use std::io;
use std::path::PathBuf;
use vp_exec::blob::{Blob, BlobStore, Frame, Miss};
use vp_exec::diff::{DiffReport, DiffVerdict};
use vp_exec::TraceKey;
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
///
/// History: v2 moves the key echo into the blob store's frame.
pub const RESULT_FORMAT_VERSION: u32 = 2;

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

const FRAME: Frame = Frame {
    magic: *b"VPRC",
    version: RESULT_FORMAT_VERSION,
    ext: "vprc",
    on_evict: |_, _| RC_EVICTIONS.incr(),
};

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

    /// The entry's file name: the key's 64-bit address in hex.
    fn name(&self) -> String {
        let mut h = Fnv::new();
        h.write_u32(PIPELINE_VERSION);
        h.write_str(&self.cell);
        h.write_u64(self.trace_fp);
        h.write_u64(self.profile_fp);
        h.write_u64(self.config_fp);
        format!("{:016x}", h.finish())
    }

    /// The key echo the store verifies on load: the pipeline version and
    /// every key field, so neither a name collision nor an entry written
    /// by older pipeline code can serve a foreign cell's numbers.
    fn echo(&self) -> Vec<u8> {
        let mut w = Writer(Vec::with_capacity(32 + self.cell.len()));
        w.u32(PIPELINE_VERSION);
        w.str(&self.cell);
        w.u64(self.trace_fp);
        w.u64(self.profile_fp);
        w.u64(self.config_fp);
        w.0
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
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
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

// ---------------------------------------------------------------- cache

/// Disk-backed store of evaluation outcomes.
#[derive(Debug, Clone)]
pub struct ResultCache {
    blobs: BlobStore,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir` with a byte
    /// budget.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn new(dir: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<ResultCache> {
        let blobs = BlobStore::new(dir, cap_bytes, FRAME)?;
        Ok(ResultCache { blobs })
    }

    /// Builds the cache from `VP_RESULT_DIR` / `VP_RESULT_MB`; `None` —
    /// caching disabled — when the directory is unset, blank or unusable
    /// or the budget is 0 (see [`BlobStore::from_env`]).
    pub fn from_env() -> Option<ResultCache> {
        BlobStore::from_env(FRAME, "VP_RESULT_DIR", "VP_RESULT_MB", DEFAULT_RESULT_MB)
            .map(|blobs| ResultCache { blobs })
    }

    /// Looks up `key`. A usable entry bumps `result_cache.hits`; an absent
    /// entry is a plain miss; a corrupt, mis-keyed, or stale-pipeline
    /// entry is deleted by the store, counted invalidated, and reported as
    /// a miss.
    pub fn load(&self, key: &ResultKey) -> Option<ConfigOutcome> {
        let decode = |payload: Blob| {
            let mut r = Reader {
                buf: &payload,
                at: 0,
            };
            // Trailing garbage is corrupt too.
            decode_outcome(&mut r).filter(|_| r.done())
        };
        match self.blobs.get(&key.name(), &key.echo(), decode) {
            Ok(outcome) => {
                RC_HITS.incr();
                Some(outcome)
            }
            Err(miss) => {
                if miss == Miss::Refused {
                    RC_INVALIDATED.incr();
                }
                RC_MISSES.incr();
                None
            }
        }
    }

    /// Persists `outcome` under `key` (see [`BlobStore::put`]).
    ///
    /// Refused (returning `false`) when the outcome's diff report carries
    /// divergence forensics — those embed visit records that are not
    /// worth serializing, and a diverging cell should re-run under
    /// scrutiny anyway — when the entry exceeds the whole budget, or on
    /// an I/O failure.
    pub fn store(&self, key: &ResultKey, outcome: &ConfigOutcome) -> bool {
        if outcome
            .diff
            .as_ref()
            .is_some_and(|d| d.divergence.is_some())
        {
            return false;
        }
        let mut payload = Writer(Vec::with_capacity(160));
        encode_outcome(&mut payload, outcome);
        let stored = matches!(
            self.blobs.put(&key.name(), &key.echo(), &payload.0),
            Ok(Some(_))
        );
        if stored {
            RC_STORES.incr();
        }
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use vp_exec::diff::Divergence;

    fn path(c: &ResultCache, k: &ResultKey) -> PathBuf {
        c.blobs.path(&k.name())
    }

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
        assert!(c.blobs.is_empty());
    }

    #[test]
    fn corruption_anywhere_is_refused_and_healed() {
        let c = ResultCache::new(tempdir("corrupt"), 1 << 20).unwrap();
        let k = key("cell");
        assert!(c.store(&k, &outcome()));
        let good = fs::read(path(&c, &k)).unwrap();
        let refused = |bytes: &[u8], what: String| {
            fs::write(path(&c, &k), bytes).unwrap();
            let (miss, report) = vp_trace::scoped(|| c.load(&k));
            assert!(miss.is_none(), "{what}: corrupt entry served");
            assert!(!path(&c, &k).exists(), "{what}: poisoned entry not healed");
            assert_eq!(report.counter("result_cache.invalidated"), 1, "{what}");
            assert_eq!(report.counter("result_cache.misses"), 1, "{what}");
            assert_eq!(report.counter("result_cache.hits"), 0, "{what}");
        };

        // Flipping a bit in the magic, version, CRC, key echo or body is
        // refused; so is truncation at every offset and trailing garbage.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            refused(&bad, format!("bit flip at byte {i}"));
        }
        for cut in 0..good.len() {
            refused(&good[..cut], format!("truncation at {cut}"));
        }
        let mut long = good.clone();
        long.push(0);
        refused(&long, "trailing byte".into());

        // The next store rewrites the slot and it serves again.
        assert!(c.store(&k, &outcome()));
        assert_outcomes_eq(&c.load(&k).expect("healed"), &outcome());
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
        fs::rename(path(&c, &k1), path(&c, &k2)).unwrap();
        assert!(c.load(&k2).is_none());
        assert!(!path(&c, &k2).exists(), "mis-keyed entry not healed");
    }

    #[test]
    fn eviction_is_lru_by_mtime() {
        let c = ResultCache::new(tempdir("evict"), 1 << 20).unwrap();
        let o = outcome();
        let entry_len = {
            let k = key("probe");
            assert!(c.store(&k, &o));
            let len = fs::metadata(path(&c, &k)).unwrap().len();
            fs::remove_file(path(&c, &k)).unwrap();
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
        assert!(c.blobs.is_empty());
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
        assert_eq!(c.blobs.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(c.blobs.root(), dir);
        std::env::set_var("VP_RESULT_MB", "nonsense");
        let c = ResultCache::from_env().expect("enabled at default budget");
        assert_eq!(c.blobs.capacity_bytes(), DEFAULT_RESULT_MB * 1024 * 1024);
        std::env::remove_var("VP_RESULT_DIR");
        std::env::remove_var("VP_RESULT_MB");
    }
}
