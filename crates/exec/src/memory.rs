//! Sparse 64-bit word-addressed data memory.

use std::collections::HashMap;
use vp_program::DataSegment;

const PAGE_WORDS: usize = 8192; // 64 KiB pages
const PAGE_BYTES: u64 = (PAGE_WORDS * 8) as u64;

/// Sparse simulated memory. Addresses are byte addresses; all accesses are
/// 8-byte words and are rounded down to word alignment. Unwritten memory
/// reads as zero.
#[derive(Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u64; PAGE_WORDS]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Creates a memory initialized from data segments: the one copy of a
    /// program's shared data image, into this run's private pages.
    pub fn from_segments(segments: &[DataSegment]) -> Memory {
        let mut m = Memory::new();
        for seg in segments {
            for (i, &w) in seg.words.iter().enumerate() {
                m.write(seg.base + 8 * i as u64, w);
            }
        }
        m
    }

    /// Reads the word containing byte address `addr`.
    pub fn read(&self, addr: u64) -> u64 {
        let page = addr / PAGE_BYTES;
        let idx = (addr % PAGE_BYTES) as usize / 8;
        self.pages.get(&page).map_or(0, |p| p[idx])
    }

    /// Writes the word containing byte address `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        let page = addr / PAGE_BYTES;
        let idx = (addr % PAGE_BYTES) as usize / 8;
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS]))[idx] = value;
    }

    /// Number of resident pages (for tests and footprint reporting).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = Memory::new();
        m.write(0x1000, 42);
        assert_eq!(m.read(0x1000), 42);
        // Same word regardless of low bits.
        assert_eq!(m.read(0x1007), 42);
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn pages_allocated_lazily() {
        let mut m = Memory::new();
        m.write(0, 1);
        m.write(PAGE_BYTES, 2);
        m.write(PAGE_BYTES + 8, 3);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn from_segments_initializes_words() {
        let segs = vec![DataSegment::new(0x2000, vec![10, 20, 30])];
        let m = Memory::from_segments(&segs);
        assert_eq!(m.read(0x2000), 10);
        assert_eq!(m.read(0x2010), 30);
    }
}
