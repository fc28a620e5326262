//! Trie segments over ground-truth structures of one length (paper §3.3).
//!
//! All generated structures of one token length are packed into tries; a
//! path from root to leaf spells a structure's token sequence, and the leaf
//! stores the structure's id in the arena. The paper stores "50 disjoint
//! tries, one per structure length", trading memory for latency; this
//! implementation splits each length's structures across *segments*, cut
//! between groups of structures with equal token multisets (see
//! `search::seal_shards`), so a search can order and skip segments by the
//! count bound, and a delta can rebuild the lengths it touches while
//! sharing every other segment.
//!
//! Nodes live in four structure-of-arrays planes (token / first-child /
//! next-sibling / structure) in the compact first-child/next-sibling
//! representation: 13 bytes per node, no per-node allocation. Ahead of them
//! sits the segment's *count table*: one entry per group of terminals with
//! equal token multisets, in terminal order. A [`Trie`] has one form, a
//! *sealed segment*: one immutable [`Bytes`] buffer in the persisted
//! layout —
//!
//! - the count table: the group sizes as little-endian `u32`s, then one
//!   byte plane per token type (`STRUCT_ALPHABET` planes, type-major),
//!   whose byte `g` counts that type in group `g`'s structures;
//! - the token plane (one byte per node), zero padding to a 4-byte
//!   boundary, then the first-child, next-sibling, and structure planes as
//!   little-endian `u32`s.
//!
//! A build grows each segment in a crate-private `TrieBuilder`, which
//! derives the count table from the sequences it is given, and seals it; a
//! load borrows the same bytes zero-copy out of a validated image (see
//! `persist`). A built and a loaded trie therefore hold identical buffers,
//! and walk, bound, hash, and serialize identically.
//!
//! Search reads a trie through `Planes`, which borrows the four node planes
//! as byte slices once per walk, and bounds it through `Counts`, which
//! borrows the count table, and the two class planes (each entry's keyword
//! and special-character totals, derived from the count table when the trie
//! is made and never persisted).

use crate::content::checksum64;
use bytes::Bytes;
use speakql_grammar::{StructTokId, TokenClass, STRUCT_ALPHABET};
use std::sync::Arc;

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

/// The token counts of one structure (or of every structure of a group),
/// indexed by token id.
pub(crate) type TokenCounts = [u8; STRUCT_ALPHABET];

/// Token counts of a sequence of at most 255 tokens.
pub(crate) fn token_counts(tokens: &[StructTokId]) -> TokenCounts {
    let mut counts = [0u8; STRUCT_ALPHABET];
    for t in tokens {
        if let Some(c) = counts.get_mut(t.0 as usize) {
            *c = c.saturating_add(1);
        }
    }
    counts
}

/// Byte length of a count table of `groups` entries: a `u32` size and one
/// count byte per token type each. `STRUCT_ALPHABET` is a multiple of 4, so
/// the node planes after it stay aligned.
fn table_len(groups: usize) -> usize {
    groups * (4 + STRUCT_ALPHABET)
}

/// Byte length of the sealed segment of a `count`-node trie whose count
/// table has `groups` entries.
pub(crate) fn segment_len(count: usize, groups: usize) -> usize {
    table_len(groups) + count.next_multiple_of(4) + 12 * count
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

/// The count table of one segment, borrowed as byte slices. Entry `g`
/// describes the `size(g)` consecutive terminals (in node order) after
/// those of entries `0..g`: every one of them holds exactly `of(g)` tokens
/// of each type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counts<'a> {
    groups: usize,
    sizes: &'a [u8],
    planes: &'a [u8],
}

impl<'a> Counts<'a> {
    /// Split the table of `groups` entries off the front of a segment. A
    /// short segment yields short planes whose reads fall back to zero.
    fn split(segment: &'a [u8], groups: usize) -> Counts<'a> {
        let at = |s: &'a [u8], n: usize| s.split_at(n.min(s.len()));
        let (sizes, rest) = at(segment, 4 * groups);
        let (planes, _) = at(rest, STRUCT_ALPHABET * groups);
        Counts {
            groups,
            sizes,
            planes,
        }
    }

    /// Number of entries.
    pub(crate) fn groups(&self) -> usize {
        self.groups
    }

    /// Terminals in entry `g`.
    pub(crate) fn size(&self, g: usize) -> usize {
        // lossy: g indexes a table of at most u32::MAX entries
        match plane_u32(self.sizes, g as u32) {
            NONE => 0,
            n => n as usize,
        }
    }

    /// The count plane of token type `t`: byte `g` counts `t` in entry `g`.
    pub(crate) fn plane(&self, t: usize) -> &'a [u8] {
        self.planes
            .get(t * self.groups..(t + 1) * self.groups)
            .unwrap_or(&[])
    }

    /// Entry `g`'s token counts, gathered across the planes.
    pub(crate) fn of(&self, g: usize) -> TokenCounts {
        let mut counts = [0u8; STRUCT_ALPHABET];
        for (t, c) in counts.iter_mut().enumerate() {
            *c = self.plane(t).get(g).copied().unwrap_or(0);
        }
        counts
    }
}

/// A sealed trie over equal-length token sequences.
#[derive(Debug, Clone)]
pub struct Trie {
    /// Token length of every sequence stored here.
    pub len: usize,
    count: usize,
    groups: usize,
    /// The segment's content id: the persisted-format checksum
    /// (`content::checksum64`) of `segment`, taken when the segment was
    /// sealed or verified when it was loaded.
    content: u64,
    segment: Bytes,
    /// Two byte planes over the count-table entries: byte `g` of the first
    /// counts entry `g`'s keywords, byte `g` of the second its special
    /// characters. Derived from the count planes when the trie is made, so
    /// the bound pass weighs an entry's length from two contiguous byte
    /// streams without summing every plane.
    classes: Arc<[u8]>,
}

impl Trie {
    /// A trie over a sealed segment of `count` nodes and `groups` count
    /// table entries whose checksum is `content`. The caller —
    /// [`TrieBuilder::seal`], or the persist loader after validating
    /// bounds, checksum, and structural invariants — guarantees the layout.
    pub(crate) fn from_segment(
        len: usize,
        count: usize,
        groups: usize,
        content: u64,
        segment: Bytes,
    ) -> Trie {
        let counts = Counts::split(&segment, groups);
        let mut classes = vec![0u8; 2 * groups];
        let (keywords, splchars) = classes.split_at_mut(groups);
        for t in 0..STRUCT_ALPHABET {
            // lossy: t < STRUCT_ALPHABET, which fits a token id
            let plane = match StructTokId(t as u8).class() {
                TokenClass::Keyword => &mut *keywords,
                TokenClass::SplChar => &mut *splchars,
                TokenClass::Literal => continue,
            };
            for (acc, &c) in plane.iter_mut().zip(counts.plane(t)) {
                *acc = acc.wrapping_add(c);
            }
        }
        Trie {
            len,
            count,
            groups,
            content,
            segment,
            classes: classes.into(),
        }
    }

    /// The segment's content id. Equal segments yield equal ids whether
    /// they were built, loaded, or carried across a delta, which is what
    /// lets the index generation be derived from content rather than minted
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
        let nodes = self.segment.get(table_len(self.groups)..).unwrap_or(&[]);
        Planes::split(nodes, self.count)
    }

    /// The count table, borrowed once for a bound pass.
    pub(crate) fn counts(&self) -> Counts<'_> {
        Counts::split(&self.segment, self.groups)
    }

    /// The class planes: each count-table entry's keyword total, then each
    /// entry's special-character total, one byte per entry.
    pub(crate) fn class_totals(&self) -> [&[u8]; 2] {
        let (keywords, splchars) = self.classes.split_at(self.groups);
        [keywords, splchars]
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
/// appends to, sealed into a [`Trie`] once every sequence is in. The count
/// table grows alongside: [`TrieBuilder::open_group`] starts an entry, and
/// each insert after it adds one terminal to that entry.
pub(crate) struct TrieBuilder {
    len: usize,
    token: Vec<u8>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    structure: Vec<u32>,
    groups: Vec<(u32, TokenCounts)>,
    /// The previous insert's tokens and, per depth, the node its path
    /// passed: an insert that shares a prefix with it resumes below that
    /// prefix instead of rescanning its sibling lists.
    last: Vec<StructTokId>,
    path: Vec<u32>,
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
            groups: Vec::new(),
            last: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Start a count-table entry for sequences whose token counts are
    /// `counts`; the inserts that follow, up to the next call, belong to it.
    pub(crate) fn open_group(&mut self, counts: TokenCounts) {
        self.groups.push((0, counts));
    }

    /// Insert a token sequence into the open count-table entry; `structure`
    /// is its arena id. Sequences must have exactly `len` tokens, be unique,
    /// and have the open entry's token counts.
    pub(crate) fn insert(&mut self, tokens: &[StructTokId], structure: u32) {
        debug_assert_eq!(tokens.len(), self.len);
        // A prefix's node is unique, so the shared prefix's nodes are the
        // ones the previous path passed.
        let shared = tokens
            .iter()
            .zip(&self.last)
            .take_while(|(a, b)| a == b)
            .count();
        self.path.truncate(shared);
        let mut cur = self.path.last().copied().unwrap_or(0);
        for &tok in &tokens[shared..] {
            cur = self.child_or_insert(cur, tok.0);
            self.path.push(cur);
        }
        self.last.clear();
        self.last.extend_from_slice(tokens);
        debug_assert_eq!(self.structure[cur as usize], NONE, "duplicate structure");
        self.structure[cur as usize] = structure;
        debug_assert!(
            self.groups
                .last()
                .is_some_and(|g| g.1 == token_counts(tokens)),
            "insert outside its multiset's count-table entry"
        );
        if let Some((n, _)) = self.groups.last_mut() {
            *n += 1;
        }
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

    /// Seal the count table and the planes into one buffer in the persisted
    /// segment layout; its checksum becomes the trie's content id.
    pub(crate) fn seal(self) -> Trie {
        let count = self.token.len();
        let groups = self.groups.len();
        let mut segment = Vec::with_capacity(segment_len(count, groups));
        for &(n, _) in &self.groups {
            segment.extend_from_slice(&n.to_le_bytes());
        }
        for t in 0..STRUCT_ALPHABET {
            segment.extend(self.groups.iter().map(|(_, counts)| counts[t]));
        }
        segment.extend_from_slice(&self.token);
        segment.resize(table_len(groups) + count.next_multiple_of(4), 0);
        for plane in [&self.first_child, &self.next_sibling, &self.structure] {
            for v in plane {
                segment.extend_from_slice(&v.to_le_bytes());
            }
        }
        let content = checksum64(&segment);
        Trie::from_segment(self.len, count, groups, content, Bytes::from(segment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speakql_grammar::{Keyword, StructTok};

    fn kw(k: Keyword) -> StructTokId {
        StructTokId::from_tok(StructTok::Keyword(k))
    }

    impl TrieBuilder {
        /// Insert a sequence as a count-table entry of its own.
        fn insert_alone(&mut self, tokens: &[StructTokId], structure: u32) {
            self.open_group(token_counts(tokens));
            self.insert(tokens, structure);
        }
    }
    fn var() -> StructTokId {
        StructTokId::VAR
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut b = TrieBuilder::new(3);
        // SELECT x FROM  /  SELECT x WHERE (not a real structure; trie is
        // agnostic) share the 2-token prefix.
        b.insert_alone(&[kw(Keyword::Select), var(), kw(Keyword::From)], 0);
        b.insert_alone(&[kw(Keyword::Select), var(), kw(Keyword::Where)], 1);
        // root + SELECT + x + FROM + WHERE = 5 nodes
        assert_eq!(b.seal().node_count(), 5);
    }

    #[test]
    fn leaves_store_structure_ids() {
        let mut b = TrieBuilder::new(2);
        b.insert_alone(&[kw(Keyword::Select), var()], 42);
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
        b.insert_alone(&[kw(Keyword::Where)], 0);
        b.insert_alone(&[kw(Keyword::Select)], 1);
        b.insert_alone(&[var()], 2);
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
        // Serialize a builder's count table and owned planes by hand in the
        // persisted layout: the sealed segment must be exactly those bytes,
        // its content id their checksum, and a view borrowed over a copy of
        // them (as the loader makes) must be observationally identical node
        // for node and entry for entry.
        let mut b = TrieBuilder::new(2);
        let seqs = [
            [kw(Keyword::Select), var()],
            [kw(Keyword::Where), var()],
            [var(), kw(Keyword::Where)],
            [kw(Keyword::Where), kw(Keyword::From)],
        ];
        for (id, seq) in (7..).zip(&seqs) {
            if id != 9 {
                b.open_group(token_counts(seq));
            }
            b.insert(seq, id);
        }
        // {SELECT, x}, {WHERE, x} twice in a row, {WHERE, FROM}.
        let sizes = [1u32, 2, 1];
        let mut serialized: Vec<u8> = sizes.iter().flat_map(|n| n.to_le_bytes()).collect();
        for t in 0..STRUCT_ALPHABET as u8 {
            for &i in &[0usize, 1, 3] {
                let n = seqs[i].iter().filter(|tok| tok.0 == t).count();
                serialized.push(n as u8);
            }
        }
        serialized.extend_from_slice(&b.token);
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
        assert_eq!(serialized.len(), segment_len(n, sizes.len()));
        assert_eq!(t.content_id(), checksum64(&serialized));
        let v = Trie::from_segment(2, n, 3, t.content_id(), Bytes::from(serialized));
        assert_eq!(v.node_count(), n);
        assert!(!v.is_empty());
        for i in 0..n as u32 {
            assert_eq!(v.node(i), t.node(i), "node {i}");
        }
        assert_eq!(v.counts().groups(), 3);
        for (g, &size) in sizes.iter().enumerate() {
            assert_eq!(v.counts().size(g), size as usize);
            assert_eq!(v.counts().of(g), t.counts().of(g));
        }
        assert_eq!(v.counts().of(1), token_counts(&seqs[2]));
        // Keywords and special characters per entry: {SELECT, x} has one
        // keyword, {WHERE, FROM} two, and none has a special character.
        assert_eq!(v.class_totals(), [&[1, 1, 2][..], &[0, 0, 0][..]]);
        assert_eq!(v.class_totals(), t.class_totals());
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
