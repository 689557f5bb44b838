//! One checksummed blob store: a directory of framed files under a byte
//! budget, shared by every on-disk cache in the workspace.
//!
//! A client — [`DiskTier`](crate::DiskTier) for captured traces,
//! `vp_metrics::ResultCache` for evaluated sweep cells — supplies three
//! things per entry: a file name derived from its key, the key-echo bytes,
//! and the payload codec. Framing, checksums, atomic writes, self-heal,
//! recency and the budget live here, once.
//!
//! # Frame
//!
//! ```text
//! offset  size  field
//! 0       4     magic (per client)
//! 4       4     format version (LE u32, per client)
//! 8       4     CRC-32 (IEEE) of every byte after this field (LE u32)
//! 12      4     key-echo length n (LE u32)
//! 16      n     key echo (opaque client bytes)
//! 16+n    ..    payload
//! ```
//!
//! [`BlobStore::get`] refuses a file whose magic, version, CRC or key echo
//! does not match the request, or whose payload the client cannot decode,
//! and deletes it, so the slot heals on the next [`BlobStore::put`]. The
//! client sees a miss and recomputes: a damaged, stale or foreign entry
//! (a name-hash collision) is never served. A hit touches the file's
//! mtime.
//!
//! # Writes and budget
//!
//! [`BlobStore::put`] writes a temp file whose name is unique per write
//! and renames it over the entry, so readers in any thread or process
//! sharing the directory see the old file or the new one, never a torn
//! one; the temp file is removed on any error. A blob larger than the
//! whole budget is refused. After each write the oldest-mtime files are
//! evicted until the directory fits, which with touch-on-hit makes
//! eviction least-recently-*used*.
//!
//! # Reads
//!
//! Files of at least 64 KiB are memory-mapped, and a hit's
//! payload is a window into the mapping: the kernel's page cache is the
//! only copy. Smaller files, and hosts where mapping fails, are read into
//! one owned buffer. The CRC is verified in full either way.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

mod mmap;

/// Fixed frame header: magic, version, CRC, echo length.
const HEADER: usize = 16;

/// Files below this size are read into an owned buffer instead of mapped:
/// a mapping costs a syscall pair and a page fault, more than copying a
/// few pages (result-cache entries are ~200 bytes).
const MAP_MIN_BYTES: u64 = 64 * 1024;

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

/// Advances a raw (pre-inversion) CRC-32 register over `data`. Slice-by-8:
/// the byte-at-a-time update chains one dependent table lookup per input
/// byte (~0.5 GB/s), which dominated trace loads; eight independent
/// lookups per round run several times faster and keep CRC validation
/// affordable on the zero-copy mapped path.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
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
    c
}

/// IEEE CRC-32, as used by gzip/zip.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

// ------------------------------------------------------------------ blobs

/// What one client's files look like: the frame's magic and version, the
/// file extension the budget scan counts, and the hook run once per file
/// evicted to fit the budget with `(file bytes, resident bytes after)`.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// First four bytes of every file.
    pub magic: [u8; 4],
    /// Payload format version; files of any other version are refused.
    pub version: u32,
    /// File extension (without the dot).
    pub ext: &'static str,
    /// Eviction hook, for the client's counters and flight events.
    pub on_evict: fn(u64, u64),
}

/// Why [`BlobStore::get`] produced nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No file under the name, or it could not be read.
    Absent,
    /// The file failed a check and was deleted.
    Refused,
}

/// The bytes behind a [`Blob`].
enum Bytes {
    Mapped(mmap::MappedFile),
    Owned(Vec<u8>),
}

impl Bytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Mapped(m) => m.as_slice(),
            Bytes::Owned(v) => v,
        }
    }
}

/// A verified payload: a window into a mapped file or an owned read of
/// one, shared by its sub-windows. It stays valid after the file is
/// evicted.
pub struct Blob {
    bytes: Arc<Bytes>,
    range: Range<usize>,
}

impl Blob {
    /// The sub-window `range` of this blob (relative to its start).
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the end of the blob.
    pub fn window(&self, range: Range<usize>) -> Blob {
        assert!(range.start <= range.end && range.end <= self.len());
        Blob {
            bytes: Arc::clone(&self.bytes),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }
}

#[cfg(test)]
impl Blob {
    /// An owned blob over all of `bytes`, for client codec tests.
    pub(crate) fn owned(bytes: Vec<u8>) -> Blob {
        let len = bytes.len();
        Blob {
            bytes: Arc::new(Bytes::Owned(bytes)),
            range: 0..len,
        }
    }

    /// A blob mapping all of `file`, for client codec tests; `None` where
    /// the host cannot map it.
    pub(crate) fn mapped(file: &fs::File) -> Option<Blob> {
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        let map = mmap::MappedFile::map(file, len)?;
        Some(Blob {
            bytes: Arc::new(Bytes::Mapped(map)),
            range: 0..len,
        })
    }
}

impl Deref for Blob {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.bytes.as_slice()[self.range.clone()]
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match *self.bytes {
            Bytes::Mapped(_) => "mapped",
            Bytes::Owned(_) => "owned",
        };
        write!(f, "Blob({} bytes, {kind})", self.len())
    }
}

/// Parses a `*_MB` budget value; absent or unparsable falls back to
/// `default_mb`.
fn mb_from(spec: Option<&str>, default_mb: u64) -> u64 {
    spec.and_then(|s| s.trim().parse().ok())
        .unwrap_or(default_mb)
}

/// A directory of framed files bounded by a byte budget.
#[derive(Debug, Clone)]
pub struct BlobStore {
    root: PathBuf,
    cap_bytes: u64,
    frame: Frame,
}

impl BlobStore {
    /// Opens (creating if needed) a store rooted at `root` with a byte
    /// budget.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>, cap_bytes: u64, frame: Frame) -> io::Result<BlobStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(BlobStore {
            root,
            cap_bytes,
            frame,
        })
    }

    /// Opens the store named by the `dir_var` environment variable with a
    /// budget of `mb_var` MiB (`default_mb` when unset or unparsable).
    /// `None` — persistence off — when the directory is unset or blank,
    /// the budget is 0, or the directory cannot be created; the last
    /// warns, since persistence is an accelerator, never a correctness
    /// requirement.
    pub fn from_env(
        frame: Frame,
        dir_var: &str,
        mb_var: &str,
        default_mb: u64,
    ) -> Option<BlobStore> {
        let dir = std::env::var(dir_var).ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        let mb = mb_from(std::env::var(mb_var).ok().as_deref(), default_mb);
        if mb == 0 {
            return None;
        }
        match BlobStore::new(dir, mb.saturating_mul(1024 * 1024), frame) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("vp-exec: {dir_var}={dir} unusable ({e}); persistence disabled");
                None
            }
        }
    }

    /// The store's directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// The file an entry named `name` lives in.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.{}", self.frame.ext))
    }

    /// Frames `payload` under `echo` and writes it atomically as `name`,
    /// then evicts oldest-mtime files down to the budget. Returns the
    /// file's size, or `None` when the framed blob is larger than the
    /// whole budget and was not written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, after removing the temp file; the caller
    /// treats them as a miss.
    pub fn put(&self, name: &str, echo: &[u8], payload: &[u8]) -> io::Result<Option<u64>> {
        let len = (HEADER + echo.len() + payload.len()) as u64;
        if len > self.cap_bytes {
            return Ok(None);
        }
        let echo_len = u32::try_from(echo.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "key echo too long"))?;
        let mut head = Vec::with_capacity(HEADER + echo.len());
        head.extend_from_slice(&self.frame.magic);
        head.extend_from_slice(&self.frame.version.to_le_bytes());
        head.extend_from_slice(&[0; 4]);
        head.extend_from_slice(&echo_len.to_le_bytes());
        head.extend_from_slice(echo);
        let crc = !crc32_update(crc32_update(!0, &head[12..]), payload);
        head[8..12].copy_from_slice(&crc.to_le_bytes());

        // Unique per write, so concurrent writers of one name (threads or
        // processes) never share a temp file.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let path = self.path(name);
        let tmp = self.root.join(format!(
            "{name}.{}.tmp.{}.{}",
            self.frame.ext,
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&head).and_then(|()| f.write_all(payload)))
            .and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.evict_to_budget(&path);
        Ok(Some(len))
    }

    /// Looks `name` up, verifying magic, version, CRC and that the file
    /// echoes `echo`, then hands the payload to `decode`. Any mismatch —
    /// `decode` returning `None` included — deletes the file and reports
    /// [`Miss::Refused`]; a hit touches the file's mtime.
    ///
    /// # Errors
    ///
    /// [`Miss::Absent`] when there is no readable file under `name`.
    pub fn get<T>(
        &self,
        name: &str,
        echo: &[u8],
        decode: impl FnOnce(Blob) -> Option<T>,
    ) -> Result<T, Miss> {
        let path = self.path(name);
        let file = fs::File::open(&path).map_err(|_| Miss::Absent)?;
        let len = file.metadata().map_err(|_| Miss::Absent)?.len();
        let bytes = read(&file, len).map_err(|_| Miss::Absent)?;
        match self.unframe(bytes, echo).and_then(decode) {
            Some(value) => {
                // Best-effort recency bump; eviction degrades to
                // least-recently-written if the touch fails.
                let _ = file.set_modified(SystemTime::now());
                Ok(value)
            }
            None => {
                let _ = fs::remove_file(&path);
                Err(Miss::Refused)
            }
        }
    }

    /// Checks a file image against this store's frame and `echo`,
    /// returning its payload.
    fn unframe(&self, bytes: Bytes, echo: &[u8]) -> Option<Blob> {
        let b = bytes.as_slice();
        let word = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        if b.len() < HEADER || b[0..4] != self.frame.magic || word(4) != self.frame.version {
            return None;
        }
        let start = HEADER.checked_add(usize::try_from(word(12)).ok()?)?;
        if b.get(HEADER..start)? != echo || crc32(&b[12..]) != word(8) {
            return None;
        }
        let end = b.len();
        Some(Blob {
            bytes: Arc::new(bytes),
            range: start..end,
        })
    }

    /// Total bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.scan().into_iter().map(|(_, len, _)| len).sum()
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.scan().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.scan().is_empty()
    }

    /// Every entry file with its size and mtime (temp files excluded).
    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(self.frame.ext) {
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
                (self.frame.on_evict)(len, total);
            }
        }
    }
}

/// Reads an open file of `len` bytes: mapped when it is large enough and
/// the host can map it, otherwise into one owned buffer.
fn read(file: &fs::File, len: u64) -> io::Result<Bytes> {
    if len >= MAP_MIN_BYTES {
        if let Some(map) = usize::try_from(len)
            .ok()
            .and_then(|len| mmap::MappedFile::map(file, len))
        {
            return Ok(Bytes::Mapped(map));
        }
    }
    read_owned(file, len)
}

/// The owned-read path of [`read`]: the fallback where mapping fails.
fn read_owned(mut file: &fs::File, len: u64) -> io::Result<Bytes> {
    let mut buf = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
    file.read_to_end(&mut buf)?;
    Ok(Bytes::Owned(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const FRAME: Frame = Frame {
        magic: *b"TEST",
        version: 7,
        ext: "blob",
        on_evict: |_, _| {},
    };

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vp-blob-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn store(tag: &str, cap_bytes: u64) -> BlobStore {
        BlobStore::new(tempdir(tag), cap_bytes, FRAME).unwrap()
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect()
    }

    fn get(s: &BlobStore, name: &str, echo: &[u8]) -> Result<Vec<u8>, Miss> {
        s.get(name, echo, |b| Some(b.to_vec()))
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
        let data = payload(1024);
        for len in (0..64).chain([255, 256, 1000, 1024]) {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn put_get_roundtrip_and_absent_miss() {
        let s = store("roundtrip", 1 << 20);
        assert_eq!(get(&s, "k", b"echo"), Err(Miss::Absent));
        let body = payload(300);
        assert_eq!(s.put("k", b"echo", &body).unwrap(), Some(316 + 4));
        assert_eq!(get(&s, "k", b"echo").unwrap(), body);
        assert_eq!(s.len(), 1);
        assert_eq!(s.resident_bytes(), 320);
        // A window is relative to the payload and shares its bytes.
        let w = s.get("k", b"echo", |b| Some(b.window(10..20))).unwrap();
        assert_eq!(&w[..], &body[10..20]);
        assert_eq!(&w.window(2..4)[..], &body[12..14]);
    }

    #[test]
    fn corruption_anywhere_is_refused_and_healed() {
        let base = tempdir("corrupt");
        let probe = BlobStore::new(base.join("probe"), 1 << 20, FRAME).unwrap();
        probe.put("k", b"the-key", &payload(200)).unwrap();
        let good = fs::read(probe.path("k")).unwrap();
        let s = BlobStore::new(base.join("faults"), 1 << 20, FRAME).unwrap();
        let refused = |bytes: &[u8], what: String| {
            fs::write(s.path("k"), bytes).unwrap();
            assert_eq!(get(&s, "k", b"the-key"), Err(Miss::Refused), "{what}");
            assert!(!s.path("k").exists(), "{what}: poisoned entry not healed");
        };

        // A flipped bit in the magic, version, CRC, echo length, echo or
        // payload is refused; the poisoned file is deleted.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            refused(&bad, format!("bit flip at byte {i}"));
        }
        // Truncation at every offset, the empty file included.
        for cut in 0..good.len() {
            refused(&good[..cut], format!("truncation at {cut}"));
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        refused(&long, "trailing byte".into());
        // A payload the client's codec refuses is deleted the same way.
        fs::write(s.path("k"), &good).unwrap();
        assert_eq!(s.get("k", b"the-key", |_| None::<()>), Err(Miss::Refused));
        assert!(!s.path("k").exists());
        // The intact image still loads.
        fs::write(s.path("k"), &good).unwrap();
        assert_eq!(get(&s, "k", b"the-key").unwrap(), payload(200));
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn another_frame_or_version_is_refused() {
        let s = store("frames", 1 << 20);
        s.put("k", b"e", b"payload").unwrap();
        let other = |frame: Frame| BlobStore::new(s.root(), 1 << 20, frame).unwrap();
        let newer = other(Frame {
            version: FRAME.version + 1,
            ..FRAME
        });
        assert_eq!(get(&newer, "k", b"e"), Err(Miss::Refused));
        s.put("k", b"e", b"payload").unwrap();
        let foreign = other(Frame {
            magic: *b"ELSE",
            ..FRAME
        });
        assert_eq!(get(&foreign, "k", b"e"), Err(Miss::Refused));
        assert!(s.is_empty());
    }

    #[test]
    fn mis_keyed_file_is_refused_by_echo() {
        // A file under the right name that echoes another key (a name-hash
        // collision, or a renamed file) is refused and deleted.
        let s = store("echo", 1 << 20);
        s.put("k", b"alpha", b"payload").unwrap();
        assert_eq!(get(&s, "k", b"beta"), Err(Miss::Refused));
        assert!(!s.path("k").exists(), "mis-keyed entry not healed");
        // An echo that is a prefix of the stored one differs too.
        s.put("k", b"alpha", b"payload").unwrap();
        assert_eq!(get(&s, "k", b"alph"), Err(Miss::Refused));
    }

    #[test]
    fn eviction_is_lru_by_mtime() {
        let body = payload(100);
        let one = (HEADER + 2 + body.len()) as u64;
        // Budget for exactly three entries.
        let s = store("evict", one * 3);
        let names = ["c0", "c1", "c2", "c3"];
        for name in &names[..3] {
            s.put(name, b"e", &body).unwrap();
            // Filesystem mtime granularity can be 1 ms; space the writes.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Touch c0 (a hit bumps mtime), making c1 the oldest.
        assert!(get(&s, "c0", b"e").is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.put("c3", b"e", &body).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.resident_bytes() <= s.capacity_bytes());
        assert_eq!(get(&s, "c1", b"e"), Err(Miss::Absent), "LRU entry evicted");
        assert!(get(&s, "c0", b"e").is_ok(), "recently used entry survives");
        assert!(get(&s, "c2", b"e").is_ok());
        assert!(get(&s, "c3", b"e").is_ok(), "new entry survives");
    }

    #[test]
    fn eviction_reports_each_file_to_the_hook() {
        static EVICTED: AtomicU64 = AtomicU64::new(0);
        let frame = Frame {
            on_evict: |len, _| {
                EVICTED.fetch_add(len, Ordering::Relaxed);
            },
            ..FRAME
        };
        let s = BlobStore::new(tempdir("hook"), 2 * (HEADER as u64 + 11), frame).unwrap();
        for name in ["a", "b", "c"] {
            s.put(name, b"e", b"0123456789").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(EVICTED.load(Ordering::Relaxed), HEADER as u64 + 11);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn oversized_blob_is_refused() {
        let s = store("oversize", 40);
        assert_eq!(s.put("big", b"e", &payload(100)).unwrap(), None);
        assert!(s.is_empty());
        // Exactly the budget fits.
        assert_eq!(s.put("fits", b"e", &payload(23)).unwrap(), Some(40));
    }

    #[test]
    fn zero_budget_stores_nothing() {
        let s = store("zero", 0);
        assert_eq!(s.put("k", b"", b"").unwrap(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn from_env_parses_dir_and_budget() {
        // Env is process-global; these variable names belong to this test
        // alone, so parallel tests never race on them.
        const DIR: &str = "VP_BLOB_TEST_DIR";
        const MB: &str = "VP_BLOB_TEST_MB";
        let open = || BlobStore::from_env(FRAME, DIR, MB, 5);
        std::env::remove_var(DIR);
        assert!(open().is_none(), "unset dir disables");
        std::env::set_var(DIR, "  ");
        assert!(open().is_none(), "blank dir disables");
        let dir = tempdir("fromenv");
        std::env::set_var(DIR, &dir);
        std::env::set_var(MB, " 0 ");
        assert!(open().is_none(), "zero budget disables");
        std::env::set_var(MB, "2");
        let s = open().expect("enabled");
        assert_eq!(s.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(s.root(), dir);
        std::env::set_var(MB, "nonsense");
        assert_eq!(open().unwrap().capacity_bytes(), 5 * 1024 * 1024);
        std::env::remove_var(MB);
        assert_eq!(open().unwrap().capacity_bytes(), 5 * 1024 * 1024);
        std::env::remove_var(DIR);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mb_parsing() {
        assert_eq!(mb_from(None, 2048), 2048);
        assert_eq!(mb_from(Some("64"), 2048), 64);
        assert_eq!(mb_from(Some(" 0 "), 2048), 0);
        assert_eq!(mb_from(Some("junk"), 2048), 2048);
    }

    #[test]
    fn mapped_and_owned_reads_agree() {
        // Large files take the mapped path where the host supports it;
        // the owned read is the fallback and must frame-check the same.
        let s = store("paths", u64::MAX);
        let body = payload(MAP_MIN_BYTES as usize + 123);
        s.put("big", b"echo", &body).unwrap();
        let mapped = s.get("big", b"echo", Some).unwrap();
        assert_eq!(&mapped[..], &body[..]);
        if cfg!(target_os = "linux") {
            assert!(matches!(*mapped.bytes, Bytes::Mapped(_)), "{mapped:?}");
        }

        let file = fs::File::open(s.path("big")).unwrap();
        let len = file.metadata().unwrap().len();
        let owned = s.unframe(read_owned(&file, len).unwrap(), b"echo").unwrap();
        assert!(matches!(*owned.bytes, Bytes::Owned(_)));
        assert_eq!(&owned[..], &body[..]);

        // Corruption is refused on both paths.
        let mut bad = fs::read(s.path("big")).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        fs::write(s.path("big"), &bad).unwrap();
        let file = fs::File::open(s.path("big")).unwrap();
        assert!(s
            .unframe(read_owned(&file, len).unwrap(), b"echo")
            .is_none());
        assert_eq!(get(&s, "big", b"echo"), Err(Miss::Refused));

        // Small files are read, not mapped.
        s.put("small", b"echo", b"tiny").unwrap();
        let small = s.get("small", b"echo", Some).unwrap();
        assert!(matches!(*small.bytes, Bytes::Owned(_)));
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn a_hit_outlives_the_eviction_of_its_file() {
        let s = store("unlink", u64::MAX);
        let body = payload(MAP_MIN_BYTES as usize);
        s.put("k", b"e", &body).unwrap();
        let blob = s.get("k", b"e", Some).unwrap();
        fs::remove_file(s.path("k")).unwrap();
        assert_eq!(&blob[..], &body[..]);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let s = store("tmpfail", 1 << 20);
        // A non-empty directory where the entry should go makes the
        // rename fail after the temp file is fully written.
        fs::create_dir_all(s.path("k").join("occupied")).unwrap();
        assert!(s.put("k", b"e", b"payload").is_err());
        let left: Vec<_> = fs::read_dir(s.root())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            left,
            [std::ffi::OsString::from("k.blob")],
            "temp file leaked"
        );
        let _ = fs::remove_dir_all(s.root());
    }
}
