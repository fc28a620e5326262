//! Structure arena storage.
//!
//! The arena is a list of immutable, `Arc`-shared *chunks*. A chunk holds a
//! contiguous run of arena slots in block A's persisted layout (see
//! [`crate::persist`]): a `u32` LE token-offset table, the token plane, a
//! `u32` LE placeholder-offset table, and the 3-byte placeholder records,
//! with offsets local to the chunk. A build seals its structures into one
//! chunk. A load borrows the image's block A as its one chunk: the offset
//! tables and placeholder records are read in place, and only the token
//! plane is decoded, once, because safe code cannot view `&[u8]` as
//! `&[StructTokId]`. An [`crate::IndexDelta`] appends one chunk of its
//! additions and shares every other chunk, so a delta, a clone, or an empty
//! delta never copies the arena.
//!
//! Beside the chunks lives [`Tombstones`], the copy-on-write bitset of
//! removed slots, which a delta likewise copies only when it removes
//! something. Neither is part of the index's generation: that is a fold
//! over the segments (see [`crate::StructureIndex::generation`]), whose
//! terminals are the arena ids a search can return.
//!
//! Search never materializes: the trie walk never touches the arena, and
//! the paths that do (the brute-force scan, sealing a rebuilt segment)
//! read token slices straight out of a chunk. Callers that need an owned
//! [`Structure`] (the engine materializes one per returned hit) get it from
//! [`StructStore::materialize`].

use bytes::{BufMut, Bytes, BytesMut};
use speakql_grammar::{LitCategory, Placeholder, StructTokId, Structure};
use std::ops::Range;
use std::sync::Arc;

/// The placeholder record's governor value meaning "no governor".
pub(crate) const GOVERNOR_NONE: u16 = u16::MAX;

/// Bytes per placeholder record: category code u8, governor u16 LE.
pub(crate) const PH_RECORD: usize = 3;

/// The persisted category code of a placeholder.
pub(crate) fn category_code(c: LitCategory) -> u8 {
    match c {
        LitCategory::Table => 0,
        LitCategory::Attribute => 1,
        LitCategory::Value => 2,
        LitCategory::Number => 3,
    }
}

/// The category a persisted code names, if any.
pub(crate) fn category_from(code: u8) -> Option<LitCategory> {
    match code {
        0 => Some(LitCategory::Table),
        1 => Some(LitCategory::Attribute),
        2 => Some(LitCategory::Value),
        3 => Some(LitCategory::Number),
        _ => None,
    }
}

/// Read the `i`-th little-endian `u32` of a plane; an out-of-range read
/// (impossible on a sealed or validated chunk) yields 0.
#[inline]
fn plane_u32(plane: &[u8], i: usize) -> usize {
    match plane.get(i * 4..i * 4 + 4) {
        Some(&[a, b, c, d]) => u32::from_le_bytes([a, b, c, d]) as usize,
        _ => 0,
    }
}

/// One immutable run of arena slots. Invariants (upheld by
/// [`ChunkBuilder::seal`], and validated by the persist loader before
/// [`Chunk::from_planes`]): both offset tables have `len + 1` monotone
/// entries starting at 0, their last entry is the matching plane's length
/// (in tokens, or in records), every placeholder record carries a valid
/// category code, and local slot `i` owns window `offsets[i]..offsets[i+1]`
/// of each plane.
#[derive(Debug)]
pub(crate) struct Chunk {
    len: usize,
    tok_offsets: Bytes,
    tokens: Vec<StructTokId>,
    ph_offsets: Bytes,
    placeholders: Bytes,
}

impl Chunk {
    /// A chunk over already-validated planes (the persist loader).
    pub(crate) fn from_planes(
        len: usize,
        tok_offsets: Bytes,
        tokens: Vec<StructTokId>,
        ph_offsets: Bytes,
        placeholders: Bytes,
    ) -> Chunk {
        Chunk {
            len,
            tok_offsets,
            tokens,
            ph_offsets,
            placeholders,
        }
    }

    /// Slots in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Token window of local slot `i`.
    fn tok_window(&self, i: usize) -> Range<usize> {
        plane_u32(&self.tok_offsets, i)..plane_u32(&self.tok_offsets, i + 1)
    }

    /// Placeholder-record window of local slot `i`.
    fn ph_window(&self, i: usize) -> Range<usize> {
        plane_u32(&self.ph_offsets, i)..plane_u32(&self.ph_offsets, i + 1)
    }

    /// Tokens of local slot `i`.
    fn tokens_of(&self, i: usize) -> &[StructTokId] {
        self.tokens.get(self.tok_window(i)).unwrap_or(&[])
    }

    /// Raw placeholder records of local slot `i`.
    fn placeholder_bytes_of(&self, i: usize) -> &[u8] {
        let w = self.ph_window(i);
        self.placeholders
            .get(w.start * PH_RECORD..w.end * PH_RECORD)
            .unwrap_or(&[])
    }

    /// Token count of local slot `i`.
    fn token_len(&self, i: usize) -> usize {
        self.tok_window(i).len()
    }

    /// The whole token plane (persist writer).
    pub(crate) fn token_plane(&self) -> &[StructTokId] {
        &self.tokens
    }

    /// The whole placeholder plane, as records (persist writer).
    pub(crate) fn placeholder_plane(&self) -> &[u8] {
        &self.placeholders
    }

    /// Local token offset `i` (`0..=len`; persist writer).
    pub(crate) fn tok_offset(&self, i: usize) -> usize {
        plane_u32(&self.tok_offsets, i)
    }

    /// Local placeholder offset `i` (`0..=len`; persist writer).
    pub(crate) fn ph_offset(&self, i: usize) -> usize {
        plane_u32(&self.ph_offsets, i)
    }
}

/// A chunk under construction: growable planes in the persisted layout.
pub(crate) struct ChunkBuilder {
    len: usize,
    tok_offsets: BytesMut,
    tokens: Vec<StructTokId>,
    ph_offsets: BytesMut,
    placeholders: BytesMut,
}

impl ChunkBuilder {
    /// An empty chunk with room for `count` structures of `tokens` tokens
    /// and `placeholders` placeholder records in total.
    pub(crate) fn with_capacity(count: usize, tokens: usize, placeholders: usize) -> ChunkBuilder {
        let mut tok_offsets = BytesMut::with_capacity((count + 1) * 4);
        tok_offsets.put_u32_le(0);
        let mut ph_offsets = BytesMut::with_capacity((count + 1) * 4);
        ph_offsets.put_u32_le(0);
        ChunkBuilder {
            len: 0,
            tok_offsets,
            tokens: Vec::with_capacity(tokens),
            ph_offsets,
            placeholders: BytesMut::with_capacity(placeholders * PH_RECORD),
        }
    }

    /// Append one structure's windows. A governor equal to the reserved
    /// [`GOVERNOR_NONE`] reads back as no governor, as it does from disk.
    pub(crate) fn push(&mut self, tokens: &[StructTokId], placeholders: &[Placeholder]) {
        self.tokens.extend_from_slice(tokens);
        for p in placeholders {
            self.placeholders.put_u8(category_code(p.category));
            self.placeholders
                .put_u16_le(p.governor.unwrap_or(GOVERNOR_NONE));
        }
        // lossy: the persist writer rejects planes past u32 before they
        // reach disk, and no in-memory arena approaches 4G tokens
        self.tok_offsets.put_u32_le(self.tokens.len() as u32);
        self.ph_offsets
            .put_u32_le((self.placeholders.len() / PH_RECORD) as u32);
        self.len += 1;
    }

    /// Freeze the planes into an immutable chunk.
    pub(crate) fn seal(self) -> Chunk {
        Chunk {
            len: self.len,
            tok_offsets: self.tok_offsets.freeze(),
            tokens: self.tokens,
            ph_offsets: self.ph_offsets.freeze(),
            placeholders: self.placeholders.freeze(),
        }
    }
}

/// The structure arena behind a [`crate::StructureIndex`]: chunks in slot
/// order, each shared by every index whose arena contains it.
#[derive(Debug, Clone, Default)]
pub(crate) struct StructStore {
    chunks: Vec<Arc<Chunk>>,
    /// First arena id of each chunk, then the arena length.
    starts: Vec<usize>,
}

impl StructStore {
    /// An arena of the one chunk `chunk`.
    pub(crate) fn from_chunk(chunk: Chunk) -> StructStore {
        StructStore {
            starts: vec![0, chunk.len()],
            chunks: vec![Arc::new(chunk)],
        }
    }

    /// This arena with `chunk` appended at the tail; every existing chunk
    /// is shared, not copied.
    pub(crate) fn appended(&self, chunk: Chunk) -> StructStore {
        let mut next = self.clone();
        if chunk.len() > 0 {
            next.starts.push(self.len() + chunk.len());
            next.chunks.push(Arc::new(chunk));
        }
        next
    }

    /// Number of structures in the arena.
    pub(crate) fn len(&self) -> usize {
        self.starts.last().copied().unwrap_or(0)
    }

    /// The chunks in slot order (persist writer).
    pub(crate) fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// The chunk holding arena id `id` and the id's slot within it; `None`
    /// past the arena.
    #[inline]
    fn locate(&self, id: usize) -> Option<(&Chunk, usize)> {
        let k = match self.chunks.len() {
            1 if id < self.len() => 0,
            _ => self.starts.partition_point(|&s| s <= id).checked_sub(1)?,
        };
        Some((self.chunks.get(k)?, id - self.starts.get(k)?))
    }

    /// Token sequence of structure `id` (empty past the arena).
    pub(crate) fn tokens(&self, id: usize) -> &[StructTokId] {
        self.locate(id).map_or(&[], |(chunk, i)| chunk.tokens_of(i))
    }

    /// Token count of structure `id` without touching the tokens plane.
    pub(crate) fn token_len(&self, id: usize) -> usize {
        self.locate(id).map_or(0, |(chunk, i)| chunk.token_len(i))
    }

    /// Placeholder records of structure `id`, decoded, in Var order.
    pub(crate) fn placeholders(&self, id: usize) -> Vec<Placeholder> {
        let Some((chunk, i)) = self.locate(id) else {
            return Vec::new();
        };
        let records = chunk.placeholder_bytes_of(i);
        let mut out = Vec::with_capacity(records.len() / PH_RECORD);
        out.extend(records.chunks_exact(PH_RECORD).filter_map(|rec| match rec {
            // A sealed or validated chunk holds only valid codes.
            &[c, g0, g1] => category_from(c).map(|category| {
                let gov = u16::from_le_bytes([g0, g1]);
                Placeholder {
                    category,
                    governor: (gov != GOVERNOR_NONE).then_some(gov),
                }
            }),
            _ => None,
        }));
        out
    }

    /// Owned copy of structure `id`.
    pub(crate) fn materialize(&self, id: usize) -> Structure {
        Structure {
            tokens: self.tokens(id).to_vec(),
            placeholders: self.placeholders(id),
        }
    }
}

/// Tombstone flags over the arena, 64 slots per word; empty when no slot
/// was ever removed. Copy-on-write: clones share the words, and a delta
/// that removes something writes a fresh copy.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tombstones {
    words: Arc<[u64]>,
}

impl Tombstones {
    /// These tombstones widened to `slots` slots with `ids` also set. Fails
    /// with the first id outside the arena. Nothing set stays empty.
    pub(crate) fn with(
        &self,
        ids: impl IntoIterator<Item = u32>,
        slots: usize,
    ) -> Result<Tombstones, u32> {
        let mut words: Option<Vec<u64>> = None;
        for id in ids {
            if id as usize >= slots {
                return Err(id);
            }
            let words = words.get_or_insert_with(|| {
                let mut w = self.words.to_vec();
                w.resize(slots.div_ceil(64), 0);
                w
            });
            words[id as usize / 64] |= 1 << (id % 64);
        }
        Ok(match words {
            Some(words) => Tombstones {
                words: words.into(),
            },
            None => self.clone(),
        })
    }

    /// True when slot `id` is tombstoned.
    #[inline]
    pub(crate) fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    /// Number of tombstoned slots.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Tombstoned slots in increasing order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structures() -> Vec<Structure> {
        (0..2_600u32)
            .map(|i| {
                let len = 1 + (i % 7) as usize;
                let mut tokens: Vec<StructTokId> = (0..len)
                    .map(|j| StructTokId(1 + ((i >> j) % 20) as u8))
                    .collect();
                tokens[0] = StructTokId::VAR;
                Structure {
                    tokens,
                    placeholders: vec![Placeholder {
                        category: LitCategory::Table,
                        governor: (i % 3 == 0).then_some(i as u16),
                    }],
                }
            })
            .collect()
    }

    fn chunk_of(structures: &[Structure]) -> Chunk {
        let mut b = ChunkBuilder::with_capacity(0, 0, 0);
        for s in structures {
            b.push(&s.tokens, &s.placeholders);
        }
        b.seal()
    }

    /// Owned structures pushed into the flat chunk planes read back
    /// identically, from one chunk or split across several.
    #[test]
    fn owned_and_flat_agree() {
        let all = structures();
        let one = StructStore::from_chunk(chunk_of(&all));
        let split = StructStore::from_chunk(chunk_of(&all[..700]))
            .appended(chunk_of(&all[700..701]))
            .appended(chunk_of(&[]))
            .appended(chunk_of(&all[701..]));
        assert_eq!(split.chunks().len(), 3);
        for store in [&one, &split] {
            assert_eq!(store.len(), all.len());
            for (id, s) in all.iter().enumerate() {
                assert_eq!(store.tokens(id), s.tokens.as_slice());
                assert_eq!(store.token_len(id), s.tokens.len());
                assert_eq!(store.materialize(id), *s);
            }
        }
    }

    #[test]
    fn tombstones_are_copy_on_write() -> Result<(), u32> {
        let none = Tombstones::default().with([], 100)?;
        assert_eq!(none.count(), 0);
        let some = none.with([3u32, 64, 99], 100)?;
        assert!(some.contains(64) && !none.contains(64));
        assert_eq!(some.ids().collect::<Vec<_>>(), vec![3, 64, 99]);
        let wider = some.with([130u32], 200)?;
        assert_eq!(wider.count(), 4);
        assert_eq!(some.count(), 3);
        assert_eq!(some.with([100u32], 100).err(), Some(100));
        Ok(())
    }
}
