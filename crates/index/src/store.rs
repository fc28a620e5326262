//! Structure arena storage.
//!
//! The arena is held *flattened*: one tokens plane, one placeholders plane,
//! and their offset tables — the persisted layout. A build appends each
//! generated structure to the planes; a load decodes them with two large
//! allocations instead of one small `Vec` per structure. At a million
//! structures that is the load path: per-structure `Vec`s cost more in
//! allocator traffic than every checksum and structural check in the file
//! combined, and the flat form also drops two pointer-sized headers per
//! structure of resident memory.
//!
//! Search never materializes: it reads token slices straight out of the
//! planes. Callers that need an owned [`Structure`] (the engine
//! materializes one per returned hit) get it from
//! [`StructStore::materialize`].

use speakql_grammar::{Placeholder, StructTokId, Structure};

/// The structure arena behind a [`crate::StructureIndex`]. Invariants
/// (upheld by [`StructStore::push`], and validated by the persist loader
/// before construction): both offset tables have `len() + 1` monotone
/// entries starting at 0, their last entry equals the matching plane's
/// length, and structure `i` owns the half-open window
/// `offsets[i]..offsets[i + 1]` of its plane.
#[derive(Debug, Clone)]
pub(crate) struct StructStore {
    pub(crate) tok_offsets: Vec<u32>,
    pub(crate) tokens: Vec<StructTokId>,
    pub(crate) ph_offsets: Vec<u32>,
    pub(crate) placeholders: Vec<Placeholder>,
}

impl StructStore {
    /// An empty arena with room for `count` structures of `tokens` tokens
    /// and `placeholders` placeholder records in total.
    pub(crate) fn with_capacity(count: usize, tokens: usize, placeholders: usize) -> StructStore {
        let mut tok_offsets = Vec::with_capacity(count + 1);
        tok_offsets.push(0);
        let mut ph_offsets = Vec::with_capacity(count + 1);
        ph_offsets.push(0);
        StructStore {
            tok_offsets,
            tokens: Vec::with_capacity(tokens),
            ph_offsets,
            placeholders: Vec::with_capacity(placeholders),
        }
    }

    /// Append one structure's windows at the arena tail.
    pub(crate) fn push(&mut self, tokens: &[StructTokId], placeholders: &[Placeholder]) {
        self.tokens.extend_from_slice(tokens);
        self.placeholders.extend_from_slice(placeholders);
        // lossy: the persist writer rejects planes past u32 before they
        // reach disk, and no in-memory arena approaches 4G tokens
        self.tok_offsets.push(self.tokens.len() as u32);
        self.ph_offsets.push(self.placeholders.len() as u32);
    }

    /// Number of structures in the arena.
    pub(crate) fn len(&self) -> usize {
        self.tok_offsets.len().saturating_sub(1)
    }

    /// True when the arena holds no structures.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Token sequence of structure `id`.
    pub(crate) fn tokens(&self, id: usize) -> &[StructTokId] {
        &self.tokens[self.tok_offsets[id] as usize..self.tok_offsets[id + 1] as usize]
    }

    /// Token count of structure `id` without touching the tokens plane.
    pub(crate) fn token_len(&self, id: usize) -> usize {
        (self.tok_offsets[id + 1] - self.tok_offsets[id]) as usize
    }

    /// Placeholder records of structure `id`, in Var order.
    pub(crate) fn placeholders(&self, id: usize) -> &[Placeholder] {
        &self.placeholders[self.ph_offsets[id] as usize..self.ph_offsets[id + 1] as usize]
    }

    /// Owned copy of structure `id`.
    pub(crate) fn materialize(&self, id: usize) -> Structure {
        Structure {
            tokens: self.tokens(id).to_vec(),
            placeholders: self.placeholders(id).to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned structures pushed into the flat planes read back identically.
    #[test]
    fn owned_and_flat_agree() {
        use speakql_grammar::LitCategory;
        let structures = vec![
            Structure {
                tokens: vec![StructTokId(1), StructTokId(0), StructTokId(3)],
                placeholders: vec![Placeholder {
                    category: LitCategory::Table,
                    governor: None,
                }],
            },
            Structure {
                tokens: vec![StructTokId(2)],
                placeholders: Vec::new(),
            },
        ];
        let mut store = StructStore::with_capacity(0, 0, 0);
        assert!(store.is_empty());
        for s in &structures {
            store.push(&s.tokens, &s.placeholders);
        }
        assert_eq!(store.len(), structures.len());
        assert_eq!(store.tok_offsets, vec![0, 3, 4]);
        assert_eq!(store.ph_offsets, vec![0, 1, 1]);
        for (id, s) in structures.iter().enumerate() {
            assert_eq!(store.tokens(id), s.tokens.as_slice());
            assert_eq!(store.token_len(id), s.tokens.len());
            assert_eq!(store.placeholders(id), s.placeholders.as_slice());
            assert_eq!(store.materialize(id), *s);
        }
    }
}
