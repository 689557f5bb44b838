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
//! Every write goes through a `BlobWriter`: it writes the header to a
//! temp file whose name is unique per write, streams the payload after it
//! in whatever pieces the client produces (the CRC accumulates as they
//! go), patches the CRC in and renames the temp file over the entry. So
//! readers in any thread or process sharing the directory see the old
//! file or the new one, never a torn one, and a client never needs the
//! whole payload in memory. The temp file is removed on any error.
//! [`BlobStore::put`] is the one-piece form. A blob larger than the whole
//! budget is not published. After each write the oldest-mtime files are
//! evicted until the directory fits, which with touch-on-hit makes
//! eviction least-recently-*used*.
//!
//! # Reads
//!
//! Files of at least 64 KiB are memory-mapped, and a hit's
//! payload is a window into the mapping: the kernel's page cache is the
//! only copy. Smaller files, and hosts where mapping fails, are read into
//! one owned buffer. The CRC is verified in full either way.
//!
//! # Residency
//!
//! A mapped blob costs address space, and resident memory only for the
//! pages read since they were last released: [`BlobStore::get`]'s CRC
//! pass releases each 1 MiB behind it and the rest once the client has
//! decoded the payload, and a client streaming through a payload releases
//! what it has consumed (`Blob::release`). A released page reads back
//! unchanged, faulted in again from the page cache.

use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

mod mmap;

/// Fixed frame header: magic, version, CRC, echo length.
const HEADER: usize = 16;

/// Bytes a pass over a mapped blob reads between two releases of the
/// pages behind it.
pub(crate) const RELEASE_WINDOW: usize = 1 << 20;

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

    /// Drops the resident pages of `range` of a mapping; owned bytes stay.
    fn release(&self, range: Range<usize>) {
        if let Bytes::Mapped(m) = self {
            m.release(range);
        }
    }

    /// The frame's CRC-32 of every byte after the CRC field, computed a
    /// [`RELEASE_WINDOW`] at a time and releasing each window behind it,
    /// so verifying a mapped file never makes all of it resident at once.
    fn crc_after_header(&self) -> u32 {
        let b = self.as_slice();
        let mut crc = !0;
        let mut at = 12.min(b.len());
        while at < b.len() {
            let end = b.len().min(at + RELEASE_WINDOW);
            crc = crc32_update(crc, &b[at..end]);
            self.release(at..end);
            at = end;
        }
        !crc
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

    /// Hands the resident pages behind `range` (relative to this blob's
    /// start) back to the kernel: the memory-mapped bytes then cost
    /// address space only, and the next read faults them in again,
    /// unchanged, from the page cache. Pages are released whole: the one
    /// holding `range.start` goes too, the one holding `range.end` stays
    /// unless the range runs to the end of the file. A no-op on owned
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the end of the blob.
    pub(crate) fn release(&self, range: Range<usize>) {
        assert!(range.start <= range.end && range.end <= self.len());
        self.bytes
            .release(self.range.start + range.start..self.range.start + range.end);
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

    /// Frames `payload` under `echo` and writes it atomically as `name`
    /// (one `BlobWriter` pass), then evicts oldest-mtime files down to
    /// the budget. Returns the file's size, or `None` when the framed blob
    /// is larger than the whole budget and was not written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, after removing the temp file; the caller
    /// treats them as a miss.
    pub fn put(&self, name: &str, echo: &[u8], payload: &[u8]) -> io::Result<Option<u64>> {
        if (HEADER + echo.len() + payload.len()) as u64 > self.cap_bytes {
            return Ok(None);
        }
        let mut w = self.writer(name, echo)?;
        w.write(payload);
        w.finish()
    }

    /// Starts writing the entry `name` under `echo`: the frame header
    /// goes to a fresh temp file now, the payload follows in
    /// [`BlobWriter::write`] pieces.
    ///
    /// # Errors
    ///
    /// Fails if the echo is longer than the frame can describe or the temp
    /// file cannot be created and written.
    pub(crate) fn writer(&self, name: &str, echo: &[u8]) -> io::Result<BlobWriter> {
        let echo_len = u32::try_from(echo.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "key echo too long"))?;
        let mut head = Vec::with_capacity(HEADER + echo.len());
        head.extend_from_slice(&self.frame.magic);
        head.extend_from_slice(&self.frame.version.to_le_bytes());
        head.extend_from_slice(&[0; 4]); // the CRC, patched in by `finish`
        head.extend_from_slice(&echo_len.to_le_bytes());
        head.extend_from_slice(echo);

        // Unique per write, so concurrent writers of one name (threads or
        // processes) never share a temp file.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join(format!(
            "{name}.{}.tmp.{}.{}",
            self.frame.ext,
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        // Readable too: `finish_and_read` maps or reads the file back
        // through this handle.
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut w = BlobWriter {
            path: self.path(name),
            store: self.clone(),
            tmp: Some(tmp),
            file,
            crc: crc32_update(!0, &head[12..]),
            len: 0,
            payload_start: head.len(),
            error: None,
        };
        w.write_raw(&head);
        match w.error.take() {
            Some(e) => Err(e),
            None => Ok(w),
        }
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
        let decoded = self.unframe(bytes, echo).and_then(|blob| {
            let backing = Arc::clone(&blob.bytes);
            let value = decode(blob)?;
            // Nothing reads the verified and decoded pages again until
            // the client does.
            backing.release(0..backing.as_slice().len());
            Some(value)
        });
        match decoded {
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
        if b.get(HEADER..start)? != echo || bytes.crc_after_header() != word(8) {
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

/// One entry being written (see [`BlobStore::writer`]). Payload pieces
/// go straight to the temp file — the writer buffers nothing — and the
/// first I/O error is kept and returned by `finish`. A writer dropped
/// before its file is published (the client's computation failed, a
/// write failed, or the blob is over budget) removes its temp file.
pub(crate) struct BlobWriter {
    store: BlobStore,
    path: PathBuf,
    /// The temp file; `None` once renamed into place.
    tmp: Option<PathBuf>,
    file: fs::File,
    /// Raw CRC register over every byte after the CRC field.
    crc: u32,
    /// Bytes written so far, header included.
    len: u64,
    /// Offset of the payload in the file.
    payload_start: usize,
    error: Option<io::Error>,
}

impl BlobWriter {
    /// Appends `bytes` to the payload. An I/O error is kept for
    /// [`BlobWriter::finish`]; later writes are then dropped.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        self.crc = crc32_update(self.crc, bytes);
        self.write_raw(bytes);
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        match self.file.write_all(bytes) {
            Ok(()) => self.len += bytes.len() as u64,
            Err(e) => self.error = Some(e),
        }
    }

    /// Patches the CRC in and publishes the entry: renamed into place,
    /// then oldest-mtime files are evicted down to the budget. Returns the
    /// file's size, or `None` when it is larger than the whole budget and
    /// was removed instead.
    ///
    /// # Errors
    ///
    /// The first I/O error of the whole write; the temp file is removed.
    pub(crate) fn finish(mut self) -> io::Result<Option<u64>> {
        self.patch_crc()?;
        self.publish()
    }

    /// Like [`BlobWriter::finish`], and also hands back the payload as
    /// written, read through the writer's own handle: mapped when the
    /// file is large enough and the host can map it, owned otherwise. A
    /// blob over budget is read before its temp file is removed, so the
    /// caller keeps it either way.
    ///
    /// # Errors
    ///
    /// As [`BlobWriter::finish`], plus a failed read-back.
    pub(crate) fn finish_and_read(mut self) -> io::Result<(Blob, Option<u64>)> {
        self.patch_crc()?;
        self.file.seek(SeekFrom::Start(0))?;
        let bytes = read(&self.file, self.len)?;
        let end = bytes.as_slice().len();
        if end as u64 != self.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "blob read back short",
            ));
        }
        let blob = Blob {
            bytes: Arc::new(bytes),
            range: self.payload_start..end,
        };
        Ok((blob, self.publish()?))
    }

    fn patch_crc(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.file.seek(SeekFrom::Start(8))?;
        self.file.write_all(&(!self.crc).to_le_bytes())
    }

    /// Renames the temp file into place and evicts down to the budget; a
    /// file over the whole budget stays a temp file, which drop removes.
    fn publish(&mut self) -> io::Result<Option<u64>> {
        if self.len > self.store.cap_bytes {
            return Ok(None);
        }
        let tmp = self.tmp.as_ref().expect("published once");
        fs::rename(tmp, &self.path)?;
        self.tmp = None;
        self.store.evict_to_budget(&self.path);
        Ok(Some(self.len))
    }
}

impl Drop for BlobWriter {
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            let _ = fs::remove_file(tmp);
        }
    }
}

impl fmt::Debug for BlobWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlobWriter({}, {} bytes)", self.path.display(), self.len)
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
    fn the_windowed_crc_pass_checks_every_window() {
        // Several release windows and a ragged tail: the CRC pass releases
        // each window behind it, and a flipped bit in any window, the
        // last included, is still refused.
        let s = store("windows", u64::MAX);
        let body = payload(2 * RELEASE_WINDOW + 4321);
        s.put("k", b"e", &body).unwrap();
        let good = fs::read(s.path("k")).unwrap();
        assert_eq!(get(&s, "k", b"e").unwrap(), body);
        for at in [RELEASE_WINDOW + 12, 2 * RELEASE_WINDOW + 12, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            fs::write(s.path("k"), &bad).unwrap();
            assert_eq!(get(&s, "k", b"e"), Err(Miss::Refused), "bit flip at {at}");
        }
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

    /// File names in `s`'s directory.
    fn files(s: &BlobStore) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = fs::read_dir(s.root())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_streamed_write_equals_put_and_reads_back_its_payload() {
        let body = payload(MAP_MIN_BYTES as usize + 5000);
        let whole = store("whole", u64::MAX);
        whole.put("k", b"echo", &body).unwrap();
        let s = store("streamed", u64::MAX);
        let mut w = s.writer("k", b"echo").unwrap();
        for piece in body.chunks(777) {
            w.write(piece);
        }
        let (blob, published) = w.finish_and_read().unwrap();
        assert_eq!(&blob[..], &body[..]);
        if cfg!(target_os = "linux") {
            assert!(matches!(*blob.bytes, Bytes::Mapped(_)), "{blob:?}");
        }
        let image = fs::read(s.path("k")).unwrap();
        assert_eq!(published, Some(image.len() as u64));
        assert_eq!(
            image,
            fs::read(whole.path("k")).unwrap(),
            "same file as put"
        );
        assert_eq!(get(&s, "k", b"echo").unwrap(), body);
        assert_eq!(files(&s), ["k.blob"]);
        // Releasing any part of the read-back payload leaves it readable.
        blob.release(0..blob.len());
        blob.window(100..200).release(0..50);
        assert_eq!(&blob[..], &body[..]);
    }

    #[test]
    fn an_over_budget_stream_is_handed_back_but_not_published() {
        let body = payload(MAP_MIN_BYTES as usize + 1);
        let s = store("over", 1024);
        let mut w = s.writer("big", b"e").unwrap();
        w.write(&body);
        let (blob, published) = w.finish_and_read().unwrap();
        assert_eq!(published, None);
        assert_eq!(&blob[..], &body[..], "readable through the unlinked file");
        assert!(files(&s).is_empty(), "neither entry nor temp file left");
        // `finish` alone publishes nothing either.
        let mut w = s.writer("big", b"e").unwrap();
        w.write(&body);
        assert_eq!(w.finish().unwrap(), None);
        assert!(files(&s).is_empty());
    }

    #[test]
    fn an_unfinished_writer_leaves_no_temp_file() {
        let s = store("dropped", u64::MAX);
        let mut w = s.writer("k", b"e").unwrap();
        w.write(b"half a payload");
        assert_eq!(files(&s).len(), 1, "the temp file exists while writing");
        drop(w);
        assert!(files(&s).is_empty());
        assert_eq!(get(&s, "k", b"e"), Err(Miss::Absent));
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
