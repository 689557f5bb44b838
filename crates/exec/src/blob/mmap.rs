//! Minimal read-only file memory-mapping, dependency-free.
//!
//! The workspace deliberately has no external crates, so this speaks to
//! the kernel directly: on Linux (x86_64 / aarch64) `mmap`/`munmap` are
//! issued as raw syscalls via inline assembly. Other platforms report
//! mapping as unsupported and callers fall back to an owned read —
//! correctness never depends on this module, only `disk_load` throughput.
//!
//! A [`MappedFile`] is a shared, immutable, page-cache-backed view of a
//! whole file. Blob files are written atomically (temp + rename) and
//! never truncated in place; eviction unlinks them, which on Linux leaves
//! existing mappings valid until dropped. The one way to fault a mapping
//! is an external actor truncating a live file under us — the same actor
//! could corrupt an owned read mid-read, so the frame's CRC covers both
//! paths equally.
//!
//! [`MappedFile::release`] hands resident pages back to the kernel
//! (`madvise(MADV_DONTNEED)`, issued the same way): a mapping then costs
//! address space, not resident memory, until it is read again.

use std::fs::File;

/// A read-only memory mapping of an entire file.
///
/// The mapping is `MAP_PRIVATE` over an immutable file: the pages are
/// plain memory for the mapping's lifetime, shared freely across threads
/// (hence the manual `Send`/`Sync`), and released on drop.
pub(super) struct MappedFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: `ptr`/`len` are plain values naming a mapping this struct owns;
// the mapping is read-only for its whole lifetime and its address range
// stays valid until `munmap` in `Drop`, so concurrent reads from any
// thread are race-free. `release` only drops resident pages: a reader on
// another thread either still sees the page or faults the same file bytes
// back in (see `release`).
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

/// Granularity of [`MappedFile::release`]: a multiple of the page size,
/// so offsets rounded to it from the page-aligned mapping start are
/// page-aligned without asking the kernel. Linux pages are 4 KiB on
/// x86_64; aarch64 kernels use 4, 16 or 64 KiB.
const RELEASE_ALIGN: usize = if cfg!(target_arch = "x86_64") {
    4 * 1024
} else {
    64 * 1024
};

impl MappedFile {
    /// Maps the first `len` bytes of `file` read-only. Returns `None` when
    /// mapping is unsupported on this platform, `len` is zero, or the
    /// syscall fails — callers fall back to an owned read.
    pub(super) fn map(file: &File, len: usize) -> Option<MappedFile> {
        sys::map_readonly(file, len)
    }

    /// The mapped bytes.
    #[inline]
    pub(super) fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is a live read-only mapping of exactly `len`
        // bytes, valid until `Drop`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Drops the resident pages of `range` (byte offsets into the
    /// mapping), widened down to a [`RELEASE_ALIGN`] boundary at the start
    /// and narrowed down to one at the end, except that an end at the
    /// mapping's end releases through the last page. The bytes stay
    /// readable: the next read faults them back from the page cache. A
    /// no-op where mapping is unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `range` is reversed or reaches past the mapping.
    pub(super) fn release(&self, range: std::ops::Range<usize>) {
        assert!(range.start <= range.end && range.end <= self.len);
        let start = range.start / RELEASE_ALIGN * RELEASE_ALIGN;
        let end = if range.end == self.len {
            self.len
        } else {
            range.end / RELEASE_ALIGN * RELEASE_ALIGN
        };
        if start < end {
            // SAFETY: `ptr + start` is page-aligned (the mapping start is,
            // and `start` is a multiple of `RELEASE_ALIGN`) and
            // `start..end` lies inside the mapping this struct owns.
            // MADV_DONTNEED on a read-only private file mapping never
            // loses data: nothing ever wrote through it, so it holds no
            // copied-on-write anonymous pages, only page-cache pages,
            // which the kernel faults back in from the file on the next
            // access. Blob files are immutable once written (a unique
            // temp name, then rename; nothing writes a published or
            // unlinked file again), so a reader on any thread — before,
            // during or after the call — sees the bytes it saw before.
            unsafe { sys::release(self.ptr.add(start), end - start) }
        }
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` describe a mapping we own; nothing can read
        // through it after drop.
        unsafe { sys::unmap(self.ptr, self.len) }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::MappedFile;
    use std::fs::File;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_DONTNEED: usize = 4;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const SYS_MADVISE: usize = 28;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const SYS_MADVISE: usize = 233;

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(nr: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a0,
            in("rsi") a1,
            in("rdx") a2,
            in("r10") a3,
            in("r8") a4,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(nr: usize, a0: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a0 as isize => ret,
            in("x1") a1,
            in("x2") a2,
            in("x3") a3,
            in("x4") a4,
            in("x5") 0usize,
            options(nostack),
        );
        ret
    }

    pub(crate) fn map_readonly(file: &File, len: usize) -> Option<MappedFile> {
        if len == 0 {
            return None; // zero-length mmap is EINVAL; an empty image is refused anyway
        }
        // SAFETY: plain mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0);
        // the fd outlives the call (mappings persist past close).
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd() as usize,
            )
        };
        // Linux returns -errno in [-4095, -1] on failure.
        if (-4095..0).contains(&ret) {
            return None;
        }
        Some(MappedFile {
            ptr: ret as *const u8,
            len,
        })
    }

    pub(crate) unsafe fn unmap(ptr: *const u8, len: usize) {
        let _ = syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0);
    }

    /// # Safety
    ///
    /// `ptr` must be page-aligned and `ptr..ptr + len` inside a read-only
    /// private file mapping.
    pub(crate) unsafe fn release(ptr: *const u8, len: usize) {
        // Best effort: a failed advice only leaves the pages resident.
        let _ = syscall6(SYS_MADVISE, ptr as usize, len, MADV_DONTNEED, 0, 0);
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::MappedFile;
    use std::fs::File;

    pub(crate) fn map_readonly(_file: &File, _len: usize) -> Option<MappedFile> {
        None
    }

    pub(crate) unsafe fn unmap(_ptr: *const u8, _len: usize) {}

    pub(crate) unsafe fn release(_ptr: *const u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supported() -> bool {
        cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))
    }

    #[test]
    fn mapping_matches_an_owned_read() {
        let path = std::env::temp_dir().join(format!("vp-mmap-test-{}", std::process::id()));
        let content: Vec<u8> = (0..100_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect();
        std::fs::write(&path, &content).unwrap();

        let file = File::open(&path).unwrap();
        match MappedFile::map(&file, content.len()) {
            Some(map) => {
                assert!(supported());
                assert_eq!(map.as_slice(), &content[..]);
                // Closing the file and unlinking it leave the mapping readable.
                drop(file);
                std::fs::remove_file(&path).unwrap();
                assert_eq!(map.as_slice(), &content[..]);
            }
            None => {
                assert!(!supported(), "mapping failed on a supported platform");
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    fn a_mapping_reads_back_byte_identical_after_release() {
        let path = std::env::temp_dir().join(format!("vp-mmap-release-{}", std::process::id()));
        // Several release granules plus a ragged tail.
        let content: Vec<u8> = (0..(3 * RELEASE_ALIGN + 1234) as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect();
        std::fs::write(&path, &content).unwrap();
        let file = File::open(&path).unwrap();
        let Some(map) = MappedFile::map(&file, content.len()) else {
            assert!(!supported(), "mapping failed on a supported platform");
            let _ = std::fs::remove_file(&path);
            return;
        };
        assert_eq!(map.as_slice(), &content[..]);
        // Unaligned, empty, partial and whole-mapping ranges, each read
        // back in full after the release, the unlinked file included.
        let len = content.len();
        for range in [
            0..len,
            100..RELEASE_ALIGN + 7,
            RELEASE_ALIGN..RELEASE_ALIGN,
            RELEASE_ALIGN + 1..len,
            len - 1..len,
            0..len,
        ] {
            map.release(range.clone());
            assert_eq!(map.as_slice(), &content[..], "after releasing {range:?}");
        }
        drop(file);
        std::fs::remove_file(&path).unwrap();
        map.release(0..len);
        assert_eq!(map.as_slice(), &content[..], "unlinked, after release");
    }

    #[test]
    fn zero_length_is_refused() {
        let path = std::env::temp_dir().join(format!("vp-mmap-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        assert!(MappedFile::map(&File::open(&path).unwrap(), 0).is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
