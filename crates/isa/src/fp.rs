//! Structural fingerprinting: an incremental FNV-1a hasher.
//!
//! Configuration structs across the workspace fold themselves into a
//! [`Fnv`] to produce stable 64-bit fingerprints for content-addressed
//! caching (trace captures, evaluation results). FNV-1a is used — not
//! `std::hash` — because the fingerprints are *persisted*: they must be
//! identical across processes, runs, and toolchain versions, while
//! `DefaultHasher` is explicitly allowed to change between releases.
//!
//! Every field is folded through a fixed-width little-endian encoding, so
//! two structs whose adjacent fields could alias under a naive byte
//! concatenation (`(1, 16)` vs `(11, 6)`) still hash differently.
//!
//! ```
//! use vp_isa::Fnv;
//!
//! let mut h = Fnv::new();
//! h.write_u64(3);
//! h.write_f64(0.25);
//! h.write_bool(true);
//! let fp = h.finish();
//! assert_ne!(fp, Fnv::new().finish());
//! ```

/// Incremental FNV-1a over 64-bit words.
///
/// All writes reduce to [`Fnv::write_u64`]: floats go through
/// [`f64::to_bits`] (bit-exact, `-0.0` and `0.0` hash differently, which
/// is the conservative choice for a cache key), booleans and enum
/// discriminants widen to `u64`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the offset basis.
    pub const fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    /// Folds one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    /// Folds a `usize` (widened to `u64`).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a `u32` (widened to `u64`).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Folds a boolean as `0`/`1`.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Folds an `f64` bit-exactly via [`f64::to_bits`].
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a byte string: its length, then each byte (the length prefix
    /// keeps `("ab", "c")` distinct from `("a", "bc")` in field
    /// sequences).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        self.write_raw(bytes);
    }

    /// Folds each byte of `bytes` as its own word, with no length prefix:
    /// textbook byte-wise FNV-1a, so `Fnv::new()` plus one `write_raw`
    /// is the published 64-bit FNV-1a of `bytes`. Fingerprints persisted
    /// under that definition (the history warehouse's keys, profile-dump
    /// and package-set fingerprints) fold through here.
    #[inline]
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// Folds a UTF-8 string via [`Fnv::write_bytes`].
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The fingerprint accumulated so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fnv1a_over_words() {
        // One word through the textbook recurrence.
        let mut h = Fnv::new();
        h.write_u64(42);
        assert_eq!(h.finish(), (Fnv::OFFSET ^ 42).wrapping_mul(Fnv::PRIME));
    }

    #[test]
    fn field_order_matters() {
        let mut a = Fnv::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_string_aliasing() {
        let mut a = Fnv::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn floats_hash_bit_exactly() {
        let mut a = Fnv::new();
        a.write_f64(0.0);
        let mut b = Fnv::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "-0.0 is a distinct cache key");

        let mut c = Fnv::new();
        c.write_f64(0.25);
        let mut d = Fnv::new();
        d.write_f64(0.25);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn stable_across_calls() {
        // The fingerprint is persisted to disk: pin one value so an
        // accidental algorithm change fails loudly here rather than
        // silently invalidating every cache in the field.
        let mut h = Fnv::new();
        h.write_str("130.li A");
        h.write_u64(7);
        h.write_f64(0.25);
        h.write_bool(true);
        assert_eq!(h.finish(), {
            let mut r = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |v: u64| {
                r ^= v;
                r = r.wrapping_mul(0x0000_0100_0000_01b3);
            };
            mix(8);
            for b in "130.li A".bytes() {
                mix(u64::from(b));
            }
            mix(7);
            mix(0.25f64.to_bits());
            mix(1);
            r
        });
    }
}
