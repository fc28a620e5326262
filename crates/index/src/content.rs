//! Content hashing shared by persistence, generation derivation and the
//! duplicate-structure sweeps.
//!
//! - [`checksum64`] — the persisted-format checksum: FNV-1a-64 folded over
//!   little-endian 64-bit words with the byte length premixed (so
//!   zero-padded tails still bind).
//! - [`WordFold`] — a plain word-level FNV-1a fold for composing a *content
//!   id* out of framed fields: the index generation folds the weights and
//!   each segment's length, node count and checksum (see
//!   [`crate::StructureIndex::generation`]). No length premix; callers
//!   frame every variable-length field with an explicit count word, which
//!   is what makes the composed stream unambiguous.
//! - [`BuildFx`] — a fast non-cryptographic hasher for the duplicate sweeps
//!   over a million short keys.
//!
//! The persisted segment checksum doubles as the segment's content id. A
//! trie segment is sealed into its persisted byte layout once, when it is
//! built, and its checksum is taken then; a zero-copy loader reuses the
//! (already verified) recorded checksum instead of rehashing multi-megabyte
//! planes. Built, loaded, and delta-reused segments therefore agree on
//! identity by construction.

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 folded over little-endian 64-bit words (8× fewer multiplies
/// than the byte-at-a-time reference on the multi-megabyte node planes),
/// with the byte length mixed in so zero-padded tails still bind.
pub(crate) fn checksum64(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ (data.len() as u64).wrapping_mul(FNV_PRIME);
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        if let &[a, b, c0, d, e, f, g, i] = c {
            h ^= u64::from_le_bytes([a, b, c0, d, e, f, g, i]);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Word-level FNV-1a fold for composing content ids out of framed fields.
/// Unlike the checksum flavor there is no length premix — the caller frames
/// every variable-length field with an explicit count word instead.
pub(crate) struct WordFold {
    h: u64,
}

impl WordFold {
    /// A fold seeded with a domain-separation tag so differently-shaped
    /// streams can never collide by construction order alone.
    pub(crate) fn new(tag: u64) -> WordFold {
        let mut f = WordFold { h: FNV_OFFSET };
        f.word(tag);
        f
    }

    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.h ^= w;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    pub(crate) fn finish(self) -> u64 {
        self.h
    }
}

/// Fx-style non-cryptographic hasher (rotate–xor–multiply per word) for
/// duplicate-structure sweeps. The keys come from an image being validated
/// or a delta being applied, not from an attacker-controlled hash-flooding
/// surface, so trading SipHash's flood resistance for an order of magnitude
/// on a million short keys is the right call here — and only here.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            if let &[a, b, c0, d, e, f, g, h] = c {
                let word = u64::from_le_bytes([a, b, c0, d, e, f, g, h]);
                self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
            }
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            let word = u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56;
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
#[derive(Clone, Default)]
pub(crate) struct BuildFx;

impl std::hash::BuildHasher for BuildFx {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fold_separates_tags_and_is_deterministic() {
        let mut a = WordFold::new(1);
        a.word(42);
        let mut b = WordFold::new(2);
        b.word(42);
        assert_ne!(a.finish(), b.finish());
        let mut c = WordFold::new(1);
        c.word(42);
        let mut d = WordFold::new(1);
        d.word(42);
        assert_eq!(c.finish(), d.finish());
    }
}
