//! Per-length trie shards over ground-truth structures (paper §3.3).
//!
//! All generated structures of one token length are packed into tries; a
//! path from root to leaf spells a structure's token sequence, and the leaf
//! stores the structure's id in the arena. The paper stores "50 disjoint
//! tries, one per structure length", trading memory for latency; this
//! implementation additionally splits each length's structures across
//! multiple *shard* tries (see `StructureIndex::build`) so parallel search
//! has real fan-out even when one length dominates.
//!
//! Nodes live in four structure-of-arrays planes (token / first-child /
//! next-sibling / structure) in the compact first-child/next-sibling
//! representation: 13 bytes per node, no per-node allocation. A [`Trie`]
//! has one form, a *sealed segment*: one immutable [`Bytes`] buffer in the
//! persisted layout — the token plane (one byte per node), zero padding to
//! a 4-byte boundary, then the first-child, next-sibling, and structure
//! planes as little-endian `u32`s. A build grows each shard in a
//! crate-private `TrieBuilder` and seals it; a load borrows the same
//! bytes zero-copy out of a validated image (see `persist`). A built and a
//! loaded trie therefore hold identical buffers, and walk, hash, and
//! serialize identically.
//!
//! Search reads a trie through `Planes`, which borrows the four planes as
//! byte slices once per walk, so the hot loop never goes back through the
//! refcounted buffer.

use crate::content::checksum64;
use bytes::Bytes;
use speakql_grammar::StructTokId;

pub(crate) const NONE: u32 = u32::MAX;

/// One trie node, materialized by value from the storage planes. The token
/// labels the *incoming* edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Token on the edge from the parent.
    pub token: StructTokId,
    /// Arena index of the first child, or `u32::MAX` for a leaf.
    pub first_child: u32,
    /// Arena index of the next sibling, or `u32::MAX` for the last child.
    pub next_sibling: u32,
    /// Structure id if this node terminates a structure (always at depth
    /// equal to the trie's length), else `u32::MAX`.
    pub structure: u32,
}

/// Byte length of the sealed segment of a `count`-node trie.
pub(crate) fn segment_len(count: usize) -> usize {
    count.next_multiple_of(4) + 12 * count
}

/// Read the `idx`-th little-endian `u32` of a plane. Out-of-range reads
/// (impossible on a sealed or validated segment) yield the inert `NONE`
/// sentinel instead of panicking.
#[inline]
fn plane_u32(plane: &[u8], idx: u32) -> u32 {
    let i = idx as usize * 4;
    match plane.get(i..i + 4) {
        Some(&[a, b, c, d]) => u32::from_le_bytes([a, b, c, d]),
        _ => NONE,
    }
}

/// The four node planes of one segment, borrowed as byte slices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planes<'a> {
    token: &'a [u8],
    first_child: &'a [u8],
    next_sibling: &'a [u8],
    structure: &'a [u8],
}

impl<'a> Planes<'a> {
    /// Split a segment of `count` nodes into its planes. A segment shorter
    /// than [`segment_len`] yields short planes whose reads fall back to
    /// sentinels.
    pub(crate) fn split(segment: &'a [u8], count: usize) -> Planes<'a> {
        let at = |s: &'a [u8], n: usize| s.split_at(n.min(s.len()));
        let (token, rest) = at(segment, count);
        let (_, rest) = at(rest, count.next_multiple_of(4) - count);
        let (first_child, rest) = at(rest, 4 * count);
        let (next_sibling, structure) = at(rest, 4 * count);
        Planes {
            token,
            first_child,
            next_sibling,
            structure,
        }
    }

    /// Token on the incoming edge of node `idx`.
    #[inline]
    pub(crate) fn token(&self, idx: u32) -> StructTokId {
        StructTokId(self.token.get(idx as usize).copied().unwrap_or(0))
    }

    /// Arena index of node `idx`'s first child (`NONE` = leaf).
    #[inline]
    pub(crate) fn first_child(&self, idx: u32) -> u32 {
        plane_u32(self.first_child, idx)
    }

    /// Arena index of node `idx`'s next sibling (`NONE` = last child).
    #[inline]
    pub(crate) fn next_sibling(&self, idx: u32) -> u32 {
        plane_u32(self.next_sibling, idx)
    }

    /// Structure id terminated at node `idx` (`NONE` = none).
    #[inline]
    pub(crate) fn structure(&self, idx: u32) -> u32 {
        plane_u32(self.structure, idx)
    }

    /// Iterate the children of node `idx` in insertion order.
    pub(crate) fn children(self, idx: u32) -> ChildIter<'a> {
        ChildIter {
            next: self.first_child(idx),
            planes: self,
        }
    }
}

/// A sealed trie over equal-length token sequences.
#[derive(Debug, Clone)]
pub struct Trie {
    /// Token length of every sequence stored here.
    pub len: usize,
    count: usize,
    /// The segment's content id: the persisted-format checksum
    /// (`content::checksum64`) of `segment`, taken when the segment was
    /// sealed or verified when it was loaded.
    content: u64,
    segment: Bytes,
}

impl Trie {
    /// A trie over a sealed segment of `count` nodes whose checksum is
    /// `content`. The caller — [`TrieBuilder::seal`], or the persist loader
    /// after validating bounds, checksum, and structural invariants —
    /// guarantees the layout.
    pub(crate) fn from_segment(len: usize, count: usize, content: u64, segment: Bytes) -> Trie {
        Trie {
            len,
            count,
            content,
            segment,
        }
    }

    /// The segment's content id. Equal segments yield equal ids whether
    /// they were built, loaded, or carried across a delta, which is what
    /// lets the arena generation be derived from content rather than minted
    /// per process.
    pub(crate) fn content_id(&self) -> u64 {
        self.content
    }

    /// The sealed segment bytes, in the persisted layout.
    pub(crate) fn segment(&self) -> &[u8] {
        &self.segment
    }

    /// The node planes, borrowed once for a walk.
    pub(crate) fn planes(&self) -> Planes<'_> {
        Planes::split(&self.segment, self.count)
    }

    /// Materialize a node by arena index (0 = root).
    pub fn node(&self, idx: u32) -> Node {
        let p = self.planes();
        Node {
            token: p.token(idx),
            first_child: p.first_child(idx),
            next_sibling: p.next_sibling(idx),
            structure: p.structure(idx),
        }
    }

    /// Number of nodes in the arena, including the root.
    pub fn node_count(&self) -> usize {
        self.count
    }

    /// True when no sequence has been inserted.
    pub fn is_empty(&self) -> bool {
        self.planes().first_child(0) == NONE
    }

    /// Iterate the children of a node in insertion order.
    pub fn children(&self, idx: u32) -> ChildIter<'_> {
        self.planes().children(idx)
    }

    /// The structure ids this trie terminates, in node order.
    pub(crate) fn structure_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let planes = self.planes();
        (0..self.count as u32)
            .map(move |node| planes.structure(node))
            .filter(|&id| id != NONE)
    }
}

/// Iterator over the children of a trie node.
pub struct ChildIter<'a> {
    planes: Planes<'a>,
    next: u32,
}

impl Iterator for ChildIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.next == NONE {
            return None;
        }
        let cur = self.next;
        self.next = self.planes.next_sibling(cur);
        Some(cur)
    }
}

/// A trie under construction: growable planes that [`TrieBuilder::insert`]
/// appends to, sealed into a [`Trie`] once every sequence is in.
pub(crate) struct TrieBuilder {
    len: usize,
    token: Vec<u8>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    structure: Vec<u32>,
}

impl TrieBuilder {
    /// An empty builder for token sequences of exactly `len` tokens,
    /// holding only the root node.
    pub(crate) fn new(len: usize) -> TrieBuilder {
        TrieBuilder {
            len,
            token: vec![StructTokId::VAR.0],
            first_child: vec![NONE],
            next_sibling: vec![NONE],
            structure: vec![NONE],
        }
    }

    /// Insert a token sequence; `structure` is its arena id. Sequences must
    /// have exactly `len` tokens and be unique.
    pub(crate) fn insert(&mut self, tokens: &[StructTokId], structure: u32) {
        debug_assert_eq!(tokens.len(), self.len);
        let mut cur = 0u32;
        for &tok in tokens {
            cur = self.child_or_insert(cur, tok.0);
        }
        debug_assert_eq!(self.structure[cur as usize], NONE, "duplicate structure");
        self.structure[cur as usize] = structure;
    }

    fn child_or_insert(&mut self, parent: u32, tok: u8) -> u32 {
        // Find an existing child with this token.
        let mut prev = NONE;
        let mut cur = self.first_child[parent as usize];
        while cur != NONE {
            if self.token[cur as usize] == tok {
                return cur;
            }
            prev = cur;
            cur = self.next_sibling[cur as usize];
        }
        // Append a new child at the end of the sibling list so iteration
        // order matches insertion (= arena) order, keeping search results
        // deterministic.
        let new_idx = self.token.len() as u32;
        self.token.push(tok);
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.structure.push(NONE);
        if prev == NONE {
            self.first_child[parent as usize] = new_idx;
        } else {
            self.next_sibling[prev as usize] = new_idx;
        }
        new_idx
    }

    /// Seal the planes into one buffer in the persisted segment layout; its
    /// checksum becomes the trie's content id.
    pub(crate) fn seal(self) -> Trie {
        let count = self.token.len();
        let mut segment = Vec::with_capacity(segment_len(count));
        segment.extend_from_slice(&self.token);
        segment.resize(count.next_multiple_of(4), 0);
        for plane in [&self.first_child, &self.next_sibling, &self.structure] {
            for v in plane {
                segment.extend_from_slice(&v.to_le_bytes());
            }
        }
        let content = checksum64(&segment);
        Trie::from_segment(self.len, count, content, Bytes::from(segment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_grammar::{Keyword, StructTok};

    fn kw(k: Keyword) -> StructTokId {
        StructTokId::from_tok(StructTok::Keyword(k))
    }
    fn var() -> StructTokId {
        StructTokId::VAR
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut b = TrieBuilder::new(3);
        // SELECT x FROM  /  SELECT x WHERE (not a real structure; trie is
        // agnostic) share the 2-token prefix.
        b.insert(&[kw(Keyword::Select), var(), kw(Keyword::From)], 0);
        b.insert(&[kw(Keyword::Select), var(), kw(Keyword::Where)], 1);
        // root + SELECT + x + FROM + WHERE = 5 nodes
        assert_eq!(b.seal().node_count(), 5);
    }

    #[test]
    fn leaves_store_structure_ids() {
        let mut b = TrieBuilder::new(2);
        b.insert(&[kw(Keyword::Select), var()], 42);
        let t = b.seal();
        let Some(c1) = t.children(0).next() else {
            panic!("root must have a child after insert");
        };
        let Some(c2) = t.children(c1).next() else {
            panic!("depth-1 node must have a child after insert");
        };
        assert_eq!(t.node(c2).structure, 42);
        assert_eq!(t.node(c1).structure, NONE);
    }

    #[test]
    fn children_iterate_in_insertion_order() {
        let mut b = TrieBuilder::new(1);
        b.insert(&[kw(Keyword::Where)], 0);
        b.insert(&[kw(Keyword::Select)], 1);
        b.insert(&[var()], 2);
        let t = b.seal();
        let toks: Vec<StructTokId> = t.children(0).map(|c| t.node(c).token).collect();
        assert_eq!(toks, vec![kw(Keyword::Where), kw(Keyword::Select), var()]);
    }

    #[test]
    fn empty_trie() {
        let t = TrieBuilder::new(5).seal();
        assert!(t.is_empty());
        assert_eq!(t.children(0).count(), 0);
    }

    #[test]
    fn view_matches_owned() {
        // Serialize a builder's owned planes by hand in the persisted
        // layout: the sealed segment must be exactly those bytes, its
        // content id their checksum, and a view borrowed over a copy of
        // them (as the loader makes) must be observationally identical node
        // for node.
        let mut b = TrieBuilder::new(2);
        b.insert(&[kw(Keyword::Select), var()], 7);
        b.insert(&[kw(Keyword::Where), var()], 8);
        b.insert(&[kw(Keyword::Where), kw(Keyword::From)], 9);
        let mut serialized = b.token.clone();
        while !serialized.len().is_multiple_of(4) {
            serialized.push(0);
        }
        for plane in [&b.first_child, &b.next_sibling, &b.structure] {
            for v in plane {
                serialized.extend_from_slice(&v.to_le_bytes());
            }
        }
        let n = b.token.len();
        let t = b.seal();
        assert_eq!(t.segment(), serialized.as_slice());
        assert_eq!(serialized.len(), segment_len(n));
        assert_eq!(t.content_id(), checksum64(&serialized));
        let v = Trie::from_segment(2, n, t.content_id(), Bytes::from(serialized));
        assert_eq!(v.node_count(), n);
        assert!(!v.is_empty());
        for i in 0..n as u32 {
            assert_eq!(v.node(i), t.node(i), "node {i}");
        }
        let walk = |t: &Trie| -> Vec<u32> {
            let mut out = Vec::new();
            let mut stack = vec![0u32];
            while let Some(x) = stack.pop() {
                out.push(x);
                stack.extend(t.children(x));
            }
            out
        };
        assert_eq!(walk(&v), walk(&t));
    }
}
