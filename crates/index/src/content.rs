//! Content hashing shared by persistence and generation derivation.
//!
//! Two FNV-1a-64 flavors live here:
//!
//! - [`checksum64`] — the persisted-format checksum: FNV-1a folded over
//!   little-endian 64-bit words with the byte length premixed (so
//!   zero-padded tails still bind).
//! - [`WordFold`] — a plain word-level fold for composing *content ids*
//!   (the arena generation rolls up per-segment ids, per-slot-range arena
//!   digests, and the tombstone words). No length premix; callers frame
//!   every variable-length field with an explicit length word, which is
//!   what makes the composed stream unambiguous. [`LaneFold`] and
//!   [`BytePack`] deal a long word or byte stream over four independent
//!   lanes of it.
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

/// Four-lane word fold: words are dealt round-robin onto four independent
/// FNV lanes, breaking the serial multiply dependency chain of a single
/// [`WordFold`] (the fold over a million-word plane is latency-bound on
/// that chain). The word count and the lane digests fold into the parent
/// in fixed order, so the combined digest still commits to the complete
/// word sequence — lane assignment is a pure function of word position.
pub(crate) struct LaneFold {
    lanes: [WordFold; 4],
    n: u64,
}

impl LaneFold {
    pub(crate) fn new(tag: u64) -> LaneFold {
        LaneFold {
            lanes: [
                WordFold::new(tag),
                WordFold::new(tag ^ 1),
                WordFold::new(tag ^ 2),
                WordFold::new(tag ^ 3),
            ],
            n: 0,
        }
    }

    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.lanes[(self.n & 3) as usize].word(w);
        self.n += 1;
    }

    pub(crate) fn finish(self, f: &mut WordFold) {
        f.word(self.n);
        for lane in self.lanes {
            f.word(lane.finish());
        }
    }
}

/// A byte stream packed into little-endian `u64` words for a [`LaneFold`].
/// The words depend only on the concatenated bytes, never on how
/// [`BytePack::push`] calls split them, so a plane read in pieces (one per
/// arena chunk) folds exactly like the same plane read whole. A trailing
/// partial word is zero-padded, which is safe because callers bind the byte
/// count through separate length framing.
pub(crate) struct BytePack {
    fold: LaneFold,
    word: u64,
    fill: u32,
}

impl BytePack {
    pub(crate) fn new(tag: u64) -> BytePack {
        BytePack {
            fold: LaneFold::new(tag),
            word: 0,
            fill: 0,
        }
    }

    /// Append `data`, one byte per element as `byte` maps it.
    pub(crate) fn push<T: Copy>(&mut self, data: &[T], byte: impl Fn(T) -> u8) {
        let mut data = data;
        // Top up a word left partial by the previous piece.
        while self.fill != 0 {
            let Some((&first, rest)) = data.split_first() else {
                return;
            };
            self.byte(byte(first));
            data = rest;
        }
        let mut words = data.chunks_exact(8);
        for c in &mut words {
            if let &[a, b, c0, d, e, f, g, h] = c {
                self.fold.word(u64::from_le_bytes([
                    byte(a),
                    byte(b),
                    byte(c0),
                    byte(d),
                    byte(e),
                    byte(f),
                    byte(g),
                    byte(h),
                ]));
            }
        }
        for &t in words.remainder() {
            self.byte(byte(t));
        }
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.word |= u64::from(b) << (8 * self.fill);
        self.fill += 1;
        if self.fill == 8 {
            self.fold.word(self.word);
            self.word = 0;
            self.fill = 0;
        }
    }

    pub(crate) fn finish(mut self, f: &mut WordFold) {
        if self.fill != 0 {
            self.fold.word(self.word);
        }
        self.fold.finish(f);
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

    #[test]
    fn byte_pack_ignores_how_the_stream_is_split() {
        let bytes: Vec<u8> = (0..37u8).map(|b| b.wrapping_mul(29)).collect();
        let digest = |cuts: &[usize]| {
            let mut pack = BytePack::new(7);
            let mut at = 0;
            for &cut in cuts.iter().chain(&[bytes.len()]) {
                pack.push(&bytes[at..cut], |b| b);
                at = cut;
            }
            let mut f = WordFold::new(0);
            pack.finish(&mut f);
            f.finish()
        };
        let whole = digest(&[]);
        for cuts in [
            &[3usize][..],
            &[8, 9],
            &[1, 2, 3, 4, 5, 6, 7, 8, 20],
            &[0, 36],
        ] {
            assert_eq!(digest(cuts), whole, "cuts {cuts:?}");
        }
        let mut pack = BytePack::new(7);
        pack.push(&bytes[..36], |b| b);
        let mut f = WordFold::new(0);
        pack.finish(&mut f);
        assert_ne!(f.finish(), whole, "the last byte binds");
    }
}
