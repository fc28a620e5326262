//! Binary persistence for the structure index.
//!
//! The Structure Generator is an *offline* component (paper §3.2); real
//! deployments build the ~1.6M-structure space once and ship it. The
//! on-disk format is a **segmented, fixed-layout image** designed for
//! validate-then-borrow loading: the header and per-segment table are
//! validated in O(segments) bounds checks, the bulk planes in linear
//! checksum + structural passes, and then the planes are borrowed
//! **zero-copy** out of the one shared [`Bytes`] buffer — no per-node
//! rebuild, no per-structure allocation. Each trie segment becomes a
//! [`Trie`] over its bytes. Block A becomes the arena's one chunk (see the
//! `store` module): its two offset tables and its 3-byte placeholder
//! records are read in place, and only the token plane is decoded, once,
//! into a typed copy — `forbid(unsafe_code)` rules out viewing `&[u8]` as
//! `&[StructTokId]`.
//!
//! There is one format version, 5. A built index holds its segments and
//! its arena chunk in the same layout (see [`crate::trie`] and the
//! `store` module), so an index built in memory and the index loaded from
//! its image are the same index: same planes, same generation, same search
//! work. Version 5 added each segment's count table, which version 4's
//! contiguous arena-id shards did not have; version 4 had dropped version
//! 3's INV posting plane. Images written by older versions (1 to 4) fail
//! with [`PersistError::BadVersion`]; rebuild them with
//! `speakql index-build`.
//!
//! ## Format (all offsets relative to the image start)
//!
//! ```text
//! header   (32 B): magic "SQLX" · version u16 BE · weights 3×u32 BE ·
//!                  structure count u32 BE · max token length u32 BE ·
//!                  segment count u32 BE · 2 B padding
//! block A        : tok_offsets (count+1)×u32 LE  · token plane (u8, pad4) ·
//!                  ph_offsets  (count+1)×u32 LE  · placeholder plane
//!                  (category u8 + governor u16 LE each, pad4) ·
//!                  removed count u32 LE · removed ids (u32 LE, strictly
//!                  increasing) ·
//!                  checksum u64 LE (FNV-1a-64 over block A)
//! seg table      : per segment: trie length u32 LE · node count u32 LE ·
//!                  group count u32 LE
//! per segment    : group sizes (u32 LE each) · count planes (one byte per
//!                  group for each of the 28 token types, type-major) ·
//!                  token plane (u8, pad4) · first-child plane (u32 LE) ·
//!                  next-sibling plane (u32 LE) · structure plane (u32 LE) ·
//!                  checksum u64 LE (FNV-1a-64 over the count table and the
//!                  four planes)
//! ```
//!
//! Both offset tables start at 0. The removed-id list records the arena
//! slots an [`crate::IndexDelta`] tombstoned (their windows are persisted
//! unchanged so ids stay stable); it is empty for an index nothing was
//! removed from.
//!
//! A segment's count table lists its groups of equal token multisets (see
//! [`crate::trie`]); the search bounds every group from it. Its checksum
//! binds it as it binds the node planes, and the loader checks its shape:
//! every entry's counts sum to the segment's length, and the entry sizes
//! sum to the segment's terminals. That each entry lists its terminals'
//! exact multisets is not re-derived at load — that would cost as much as
//! the rest of the load — and is checked by the index's tests instead.
//!
//! ## Segment replace and append
//!
//! The per-segment checksum doubles as the segment's *content id*
//! (`Trie::content_id`), taken when the segment was sealed. Serializing an
//! index therefore copies each segment's buffer and its stored content id
//! with one memcpy each, whether the segment was built, loaded, or rebuilt
//! by [`crate::StructureIndex::apply_delta`]; after a delta the small
//! segment table is rewritten to describe the new mix — an in-place
//! replace/append of the affected segments, with header, block A tail, and
//! table updated around them. A delta'd arena holds several chunks; the
//! writer merges them into block A's one run of planes, rebasing each
//! chunk's local offsets.
//!
//! Every plane starts 4-byte-aligned (the header is padded to 32 bytes and
//! each sub-4 plane is zero-padded). The accessors read little-endian words
//! through safe byte views, for which the padding is layout hygiene.

use crate::content::{checksum64, BuildFx};
use crate::search::StructureIndex;
use crate::store::{category_from, Chunk, StructStore, Tombstones, PH_RECORD};
use crate::trie::{segment_len, Trie, NONE};
use bytes::{BufMut, Bytes, BytesMut};
use speakql_editdist::Weights;
use speakql_grammar::{StructTokId, Structure, STRUCT_ALPHABET};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 4] = b"SQLX";
/// The one format version this crate writes and reads.
const VERSION: u16 = 5;
/// Header size including the 2 alignment padding bytes.
const HEADER_LEN: usize = 32;
/// Bytes per segment-table entry: length, node count, group count.
const SEG_ENTRY: usize = 12;

/// Errors loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    Io(io::Error),
    /// Not a SpeakQL index file.
    BadMagic,
    /// Produced by an incompatible version.
    BadVersion(u16),
    /// A checksummed block does not hash to its recorded checksum.
    BadChecksum(&'static str),
    /// Structurally invalid payload.
    Corrupt(&'static str),
    /// The index cannot be represented in the format's length fields
    /// (e.g. a structure longer than 255 tokens).
    TooLarge(&'static str),
}

impl PersistError {
    /// Stable, low-cardinality error class for counters and fault triage.
    pub fn class(&self) -> &'static str {
        match self {
            PersistError::Io(_) => "io",
            PersistError::BadMagic => "bad_magic",
            PersistError::BadVersion(_) => "bad_version",
            PersistError::BadChecksum(_) => "bad_checksum",
            PersistError::Corrupt(_) => "corrupt",
            PersistError::TooLarge(_) => "too_large",
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => f.write_str("not a SpeakQL index file"),
            PersistError::BadVersion(v) => write!(f, "unsupported index version {v}"),
            PersistError::BadChecksum(what) => write!(f, "checksum mismatch in {what}"),
            PersistError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
            PersistError::TooLarge(what) => write!(f, "index not representable: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Zero-pad `buf` to the next 4-byte boundary.
fn pad4(buf: &mut BytesMut) {
    while !buf.len().is_multiple_of(4) {
        buf.put_u8(0);
    }
}

/// Checked narrowing for the format's fixed-width fields: a silent `as`
/// here would truncate and corrupt the index at rest.
fn len_u32(n: usize, what: &'static str) -> Result<u32, PersistError> {
    u32::try_from(n).map_err(|_| PersistError::TooLarge(what))
}

/// Serialize the index — structure arena, tombstones, and the sharded trie
/// segments — into a segmented image.
///
/// Fails with [`PersistError::TooLarge`] if any length exceeds the format's
/// fixed-width fields instead of silently truncating.
pub fn to_bytes(index: &StructureIndex) -> Result<Bytes, PersistError> {
    let store = index.store();
    let chunks = store.chunks();
    let count = len_u32(store.len(), "more than u32::MAX structures")?;
    let tok_total: usize = chunks.iter().map(|c| c.token_plane().len()).sum();
    let ph_records: usize = chunks
        .iter()
        .map(|c| c.placeholder_plane().len() / PH_RECORD)
        .sum();
    len_u32(tok_total, "token plane exceeds u32")?;
    len_u32(ph_records, "placeholder plane exceeds u32")?;
    for chunk in chunks {
        for i in 0..chunk.len() {
            if chunk.tok_offset(i + 1) - chunk.tok_offset(i) > 255 {
                return Err(PersistError::TooLarge("structure longer than 255 tokens"));
            }
            if chunk.ph_offset(i + 1) - chunk.ph_offset(i) > 255 {
                return Err(PersistError::TooLarge(
                    "structure with more than 255 placeholders",
                ));
            }
        }
    }
    let segments: Vec<&Trie> = index.tries().iter().flatten().collect();
    let removed_count = index.removed().count();
    let segment_bytes: usize = segments.iter().map(|t| t.segment().len()).sum();
    let mut buf = BytesMut::with_capacity(
        HEADER_LEN
            + store.len() * 8
            + tok_total
            + ph_records * PH_RECORD
            + segments.len() * (SEG_ENTRY + 8)
            + segment_bytes,
    );

    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    let w = index.weights();
    buf.put_u32(w.keyword);
    buf.put_u32(w.splchar);
    buf.put_u32(w.literal);
    buf.put_u32(count);
    buf.put_u32(len_u32(index.max_len(), "structure longer than u32::MAX")?);
    buf.put_u32(len_u32(segments.len(), "more than u32::MAX segments")?);
    buf.put_u16(0); // pad the header to 32 bytes (4-byte plane alignment)
    debug_assert_eq!(buf.len(), HEADER_LEN);

    // Block A: the arena's chunks merged into one run of planes (each
    // chunk's local offsets rebased onto the planes before it), then the
    // removed-id list.
    let block_a = buf.len();
    let put_offsets = |buf: &mut BytesMut, offset: &dyn Fn(&Chunk, usize) -> usize| {
        buf.put_u32_le(0);
        let mut base = 0usize;
        for chunk in chunks {
            for i in 1..=chunk.len() {
                // lossy: every offset is at most its plane's length, checked
                // against u32 above
                buf.put_u32_le((base + offset(chunk, i)) as u32);
            }
            base += offset(chunk, chunk.len());
        }
    };
    put_offsets(&mut buf, &|c, i| c.tok_offset(i));
    for chunk in chunks {
        for t in chunk.token_plane() {
            buf.put_u8(t.0);
        }
    }
    pad4(&mut buf);
    put_offsets(&mut buf, &|c, i| c.ph_offset(i));
    for chunk in chunks {
        buf.put_slice(chunk.placeholder_plane());
    }
    pad4(&mut buf);
    buf.put_u32_le(len_u32(removed_count, "removed list exceeds u32")?);
    for id in index.removed().ids() {
        // lossy: id < arena_len, which the header stores as u32
        buf.put_u32_le(id as u32);
    }
    let ck = checksum64(&buf[block_a..]);
    buf.put_u64_le(ck);

    // Segment table, then each sealed segment with its content id, which is
    // the checksum of exactly those bytes.
    for trie in &segments {
        buf.put_u32_le(len_u32(trie.len, "trie length exceeds u32")?);
        buf.put_u32_le(len_u32(trie.node_count(), "segment exceeds u32 nodes")?);
        buf.put_u32_le(len_u32(
            trie.counts().groups(),
            "segment exceeds u32 groups",
        )?);
    }
    for trie in &segments {
        buf.put_slice(trie.segment());
        buf.put_u64_le(trie.content_id());
    }
    Ok(buf.freeze())
}

/// Bounds-checked slice-off of the next `n` bytes of the image.
fn take(
    data: &Bytes,
    pos: &mut usize,
    n: usize,
    what: &'static str,
) -> Result<Bytes, PersistError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= data.len())
        .ok_or(PersistError::Corrupt(what))?;
    let b = data.slice(*pos..end);
    *pos = end;
    Ok(b)
}

/// Read the `i`-th little-endian u32 of a plane (caller has bounds-checked
/// the plane; an out-of-range read yields the inert `NONE`).
#[inline]
fn plane_u32(plane: &[u8], i: usize) -> u32 {
    match plane.get(i * 4..i * 4 + 4) {
        Some(&[a, b, c, d]) => u32::from_le_bytes([a, b, c, d]),
        _ => NONE,
    }
}

fn read_u64_le(data: &Bytes, pos: &mut usize, what: &'static str) -> Result<u64, PersistError> {
    let b = take(data, pos, 8, what)?;
    match b.as_ref() {
        &[a, b0, c, d, e, f, g, h] => Ok(u64::from_le_bytes([a, b0, c, d, e, f, g, h])),
        _ => Err(PersistError::Corrupt(what)),
    }
}

/// Deserialize an index: copy `data` into one shared [`Bytes`] buffer, then
/// run the zero-copy [`from_shared`] path. Callers that already hold a
/// [`Bytes`] (e.g. [`load_from_path`]) skip even that single copy.
pub fn from_bytes(data: &[u8]) -> Result<StructureIndex, PersistError> {
    from_shared(Bytes::copy_from_slice(data))
}

/// Zero-copy load: validate the segmented image and borrow its planes.
///
/// The buffer is refcounted, so the returned index (and its clones) keep
/// the image alive; no node is rebuilt, and the token plane is the only
/// plane copied (into typed tokens). Validation is O(segments) bounds
/// checks plus linear checksum and structural passes over the raw bytes;
/// the loaded index's [`StructureIndex::segment_count`] is the number of
/// segments validated.
pub fn from_shared(data: Bytes) -> Result<StructureIndex, PersistError> {
    let header = Header::parse(&data)?;
    let mut pos = HEADER_LEN;
    let (store, removed) = decode_block_a(&data, &mut pos, &header)?;
    let tries = borrow_segments(&data, &mut pos, &header, &store, &removed)?;
    if pos != data.len() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    Ok(StructureIndex::from_parts(
        store,
        tries,
        header.weights,
        header.max_len,
        removed,
    ))
}

/// Deserialize-and-rebuild reference path: decode the structure arena and
/// run a full [`StructureIndex::build`] (every trie insert). The
/// scale benchmark measures the zero-copy path against this one; production
/// loads should prefer [`from_shared`].
pub fn from_bytes_rebuilt(data: &[u8]) -> Result<StructureIndex, PersistError> {
    let shared = Bytes::copy_from_slice(data);
    let header = Header::parse(&shared)?;
    let mut pos = HEADER_LEN;
    let (store, removed) = decode_block_a(&shared, &mut pos, &header)?;
    // A rebuild compacts: tombstoned slots are dropped and live structures
    // renumbered, exactly as `apply_delta`'s documented full-rebuild
    // equivalent. Only the zero-copy path preserves arena ids.
    let is_rm = |i: usize| removed.contains(i);
    reject_duplicates(
        (0..store.len())
            .filter(|&i| !is_rm(i))
            .map(|i| store.tokens(i)),
        store.len(),
    )?;
    let structures: Vec<Structure> = (0..store.len())
        .filter(|&i| !is_rm(i))
        .map(|i| store.materialize(i))
        .collect();
    Ok(StructureIndex::build(structures, header.weights))
}

/// Parsed header.
struct Header {
    weights: Weights,
    count: usize,
    max_len: usize,
    seg_count: usize,
}

impl Header {
    /// Check magic and version, then parse the fixed-width fields.
    fn parse(data: &Bytes) -> Result<Header, PersistError> {
        if data.len() < 4 || &data[..4] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        if data.len() < 6 {
            return Err(PersistError::Corrupt("truncated header"));
        }
        let version = u16::from_be_bytes([data[4], data[5]]);
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        if data.len() < HEADER_LEN {
            return Err(PersistError::Corrupt("truncated header"));
        }
        let be = |o: usize| u32::from_be_bytes([data[o], data[o + 1], data[o + 2], data[o + 3]]);
        let weights = Weights {
            keyword: be(6),
            splchar: be(10),
            literal: be(14),
        };
        let count = be(18) as usize;
        let max_len = be(22) as usize;
        let seg_count = be(26) as usize;
        let remaining = (data.len() - HEADER_LEN) as u64;
        // Don't trust the claimed counts for allocation or offset math:
        // every structure occupies ≥ 8 bytes of offset entries and every
        // segment ≥ 12 bytes of table, so claims past those floors are
        // certainly corrupt and would otherwise drive `with_capacity` into
        // multi-gigabyte allocations.
        if (count as u64).saturating_add(1) * 4 > remaining {
            return Err(PersistError::Corrupt("structure count exceeds payload"));
        }
        if (seg_count as u64) * SEG_ENTRY as u64 > remaining {
            return Err(PersistError::Corrupt("segment count exceeds payload"));
        }
        if max_len > 255 {
            return Err(PersistError::Corrupt("max length exceeds format"));
        }
        Ok(Header {
            weights,
            count,
            max_len,
            seg_count,
        })
    }
}

/// Validate block A — checksum, token ids, offset tables, window limits,
/// placeholder records, the removed-id list — and wrap it as the arena's one
/// chunk: the offset tables and placeholder records are borrowed from the
/// image in place, and only the token plane is decoded (one linear copy).
fn decode_block_a(
    data: &Bytes,
    pos: &mut usize,
    header: &Header,
) -> Result<(StructStore, Tombstones), PersistError> {
    let count = header.count;
    let block_start = *pos;
    let tok_offsets = take(data, pos, (count + 1) * 4, "truncated token offsets")?;
    let tok_total = plane_u32(&tok_offsets, count) as usize;
    if tok_total > data.len() - *pos {
        return Err(PersistError::Corrupt("token plane exceeds payload"));
    }
    let token_plane = take(data, pos, tok_total, "truncated token plane")?;
    take(
        data,
        pos,
        (4 - tok_total % 4) % 4,
        "truncated token padding",
    )?;
    let ph_offsets = take(data, pos, (count + 1) * 4, "truncated placeholder offsets")?;
    let ph_total = plane_u32(&ph_offsets, count) as usize;
    if ph_total > (data.len() - *pos) / PH_RECORD {
        return Err(PersistError::Corrupt("placeholder plane exceeds payload"));
    }
    let ph_plane = take(
        data,
        pos,
        ph_total * PH_RECORD,
        "truncated placeholder plane",
    )?;
    let ph_pad = (4 - (ph_total * PH_RECORD) % 4) % 4;
    take(data, pos, ph_pad, "truncated placeholder padding")?;
    // The removed-id list sits inside block A, so the checksum below binds
    // it too.
    let rc_plane = take(data, pos, 4, "truncated removed count")?;
    let removed_count = plane_u32(&rc_plane, 0) as usize;
    if removed_count > header.count || removed_count > (data.len() - *pos) / 4 {
        return Err(PersistError::Corrupt("removed count exceeds payload"));
    }
    let removed_plane = take(data, pos, removed_count * 4, "truncated removed list")?;
    let mut prev: Option<u32> = None;
    for e in 0..removed_count {
        let id = plane_u32(&removed_plane, e);
        if id as usize >= header.count {
            return Err(PersistError::Corrupt("removed id out of range"));
        }
        if prev.is_some_and(|p| p >= id) {
            return Err(PersistError::Corrupt("removed list not increasing"));
        }
        prev = Some(id);
    }
    let recorded = read_u64_le(data, pos, "truncated structure checksum")?;
    if checksum64(&data[block_start..*pos - 8]) != recorded {
        return Err(PersistError::BadChecksum("structure block"));
    }
    let removed = Tombstones::default()
        .with(
            (0..removed_count).map(|e| plane_u32(&removed_plane, e)),
            count,
        )
        .map_err(|_| PersistError::Corrupt("removed id out of range"))?;

    // Whole-plane sweeps, in dependency order. Each is a linear pass the
    // compiler can vectorize; none allocates per structure.
    //
    // Tokens: every id in the alphabet, then one bulk copy into the flat
    // tokens plane.
    if token_plane.iter().any(|&id| id as usize >= STRUCT_ALPHABET) {
        return Err(PersistError::Corrupt("bad token id"));
    }
    let tokens: Vec<StructTokId> = token_plane.iter().map(|&id| StructTokId(id)).collect();

    // Offset tables: start at 0, monotone, bounded by their plane,
    // per-structure window within format limits.
    if plane_u32(&tok_offsets, 0) != 0 || plane_u32(&ph_offsets, 0) != 0 {
        return Err(PersistError::Corrupt("offsets do not start at zero"));
    }
    let mut max_seen = 0usize;
    let (mut t0, mut p0) = (0usize, 0usize);
    for i in 0..count {
        let t1 = plane_u32(&tok_offsets, i + 1) as usize;
        if t1 < t0 || t1 > tok_total {
            return Err(PersistError::Corrupt("token offsets not monotone"));
        }
        if t1 - t0 > 255 {
            return Err(PersistError::Corrupt("structure longer than 255 tokens"));
        }
        // The header's max_len describes the *live* structures (it sizes
        // the trie table); tombstoned slots keep their windows but no trie,
        // so they don't participate.
        if !removed.contains(i) {
            max_seen = max_seen.max(t1 - t0);
        }
        let p1 = plane_u32(&ph_offsets, i + 1) as usize;
        if p1 < p0 || p1 > ph_total {
            return Err(PersistError::Corrupt("placeholder offsets not monotone"));
        }
        // Var tokens and placeholder records correspond one to one.
        let vars = tokens[t0..t1].iter().filter(|t| t.is_var()).count();
        if vars != p1 - p0 {
            return Err(PersistError::Corrupt("placeholder count mismatch"));
        }
        (t0, p0) = (t1, p1);
    }
    if max_seen != header.max_len {
        return Err(PersistError::Corrupt("max length mismatch"));
    }

    // Placeholders stay in their 3-byte records, read in place: only the
    // category codes need checking (every governor value is meaningful).
    if ph_plane
        .chunks_exact(PH_RECORD)
        .any(|rec| category_from(rec[0]).is_none())
    {
        return Err(PersistError::Corrupt("bad category code"));
    }
    let chunk = Chunk::from_planes(count, tok_offsets, tokens, ph_offsets, ph_plane);
    Ok((StructStore::from_chunk(chunk), removed))
}

/// Validate the segment table and every segment's count table and node
/// planes, then borrow each segment zero-copy as a [`Trie`].
///
/// The structural pass is what makes the borrow safe to *search* without
/// per-access checks: child/sibling links must point strictly forward (so
/// every walk terminates), interior nodes must sit above the leaf depth and
/// terminals exactly at it (so the walk's remaining-depth arithmetic cannot
/// underflow), terminal ids must reference in-range **live** structures of
/// the segment's length, and every live structure must terminate exactly
/// once across all segments (so loaded search answers are the built index's
/// answers). Tombstoned structures must not appear in any trie. The count
/// table is shape-checked: each entry's counts sum to the segment's length
/// and the entry sizes, each at least 1, sum to the segment's terminals.
fn borrow_segments(
    data: &Bytes,
    pos: &mut usize,
    header: &Header,
    store: &StructStore,
    removed: &Tombstones,
) -> Result<Vec<Vec<Trie>>, PersistError> {
    let table = take(
        data,
        pos,
        header.seg_count * SEG_ENTRY,
        "truncated segment table",
    )?;
    let mut tries: Vec<Vec<Trie>> = vec![Vec::new(); header.max_len + 1];
    let mut terminated = vec![false; header.count];
    let mut prev_len = 0usize;
    for seg in 0..header.seg_count {
        let trie_len = plane_u32(&table, seg * 3) as usize;
        let node_count = plane_u32(&table, seg * 3 + 1) as usize;
        let groups = plane_u32(&table, seg * 3 + 2) as usize;
        if trie_len > header.max_len {
            return Err(PersistError::Corrupt("segment length exceeds max"));
        }
        if trie_len < prev_len {
            return Err(PersistError::Corrupt("segment table out of order"));
        }
        prev_len = trie_len;
        if node_count == 0 {
            return Err(PersistError::Corrupt("empty segment"));
        }
        if node_count as u64 > (data.len() - *pos) as u64 / 13 {
            return Err(PersistError::Corrupt("segment node count exceeds payload"));
        }
        if groups as u64 > (data.len() - *pos) as u64 / (4 + STRUCT_ALPHABET as u64) {
            return Err(PersistError::Corrupt("segment group count exceeds payload"));
        }
        let segment = take(
            data,
            pos,
            segment_len(node_count, groups),
            "truncated segment planes",
        )?;
        let recorded = read_u64_le(data, pos, "truncated segment checksum")?;
        if checksum64(&segment) != recorded {
            return Err(PersistError::BadChecksum("segment planes"));
        }
        let trie = Trie::from_segment(trie_len, node_count, groups, recorded, segment);

        // Structural pass. Links point strictly forward (builder invariant:
        // nodes are appended after the node that references them), so one
        // in-order sweep can propagate depths and validate every invariant
        // in O(nodes) with a single transient byte array.
        let planes = trie.planes();
        let mut depth = vec![0u8; node_count];
        let mut terminals = 0usize;
        for i in 0..node_count {
            // lossy: i < node_count, which the table stores as u32
            let node = i as u32;
            if planes.token(node).0 as usize >= STRUCT_ALPHABET {
                return Err(PersistError::Corrupt("bad node token"));
            }
            let d = depth[i] as usize;
            let fc = planes.first_child(node);
            if fc != NONE {
                if fc as usize <= i || fc as usize >= node_count {
                    return Err(PersistError::Corrupt("child link not forward"));
                }
                if d >= trie_len {
                    return Err(PersistError::Corrupt("interior node below leaf depth"));
                }
                // lossy: d < trie_len <= 255, so d + 1 fits u8
                depth[fc as usize] = (d + 1) as u8;
            }
            let ns = planes.next_sibling(node);
            if ns != NONE {
                if ns as usize <= i || ns as usize >= node_count {
                    return Err(PersistError::Corrupt("sibling link not forward"));
                }
                depth[ns as usize] = depth[i];
            }
            let st = planes.structure(node);
            if st != NONE {
                if st as usize >= header.count {
                    return Err(PersistError::Corrupt("bad terminal structure id"));
                }
                if removed.contains(st as usize) {
                    return Err(PersistError::Corrupt(
                        "terminal references removed structure",
                    ));
                }
                if d != trie_len || store.token_len(st as usize) != trie_len {
                    return Err(PersistError::Corrupt("terminal at wrong depth"));
                }
                if std::mem::replace(&mut terminated[st as usize], true) {
                    return Err(PersistError::Corrupt("structure terminated twice"));
                }
                terminals += 1;
            }
        }
        check_count_table(&trie, terminals)?;
        tries[trie_len].push(trie);
    }
    for (id, &t) in terminated.iter().enumerate() {
        if !t && !removed.contains(id) {
            return Err(PersistError::Corrupt("structure missing from tries"));
        }
    }
    Ok(tries)
}

/// The count table's shape: every entry's counts sum to the segment's
/// length, and the entry sizes, each at least 1, sum to its `terminals`.
/// One type-major sweep over the planes, vectorizable like the bound pass.
fn check_count_table(trie: &Trie, terminals: usize) -> Result<(), PersistError> {
    let counts = trie.counts();
    let mut sums = vec![0u16; counts.groups()];
    for t in 0..STRUCT_ALPHABET {
        for (sum, &c) in sums.iter_mut().zip(counts.plane(t)) {
            *sum += u16::from(c);
        }
    }
    if sums.iter().any(|&sum| usize::from(sum) != trie.len) {
        return Err(PersistError::Corrupt(
            "count table entry does not sum to the segment length",
        ));
    }
    let mut sized = 0usize;
    for g in 0..counts.groups() {
        match counts.size(g) {
            0 => return Err(PersistError::Corrupt("empty count table entry")),
            n => sized = sized.saturating_add(n),
        }
    }
    if sized != terminals {
        return Err(PersistError::Corrupt(
            "count table sizes do not match the terminals",
        ));
    }
    Ok(())
}

/// Reject duplicate token sequences before handing structures to
/// [`StructureIndex::build`], whose trie inserts require distinct
/// sequences (duplicates would collide on one terminal). Only the rebuild
/// path needs this sweep: the zero-copy path never inserts, and its
/// structural pass already pins every structure to exactly one terminal.
///
/// The Fx-style hasher matters — SipHash over a million short keys costs
/// more than every checksum in the file combined.
fn reject_duplicates<'a>(
    keys: impl Iterator<Item = &'a [StructTokId]>,
    count: usize,
) -> Result<(), PersistError> {
    let mut seen: std::collections::HashSet<&[StructTokId], BuildFx> =
        std::collections::HashSet::with_capacity_and_hasher(count, BuildFx);
    for key in keys {
        if !seen.insert(key) {
            return Err(PersistError::Corrupt("duplicate structure"));
        }
    }
    Ok(())
}

/// Save to a file.
pub fn save_to_path(index: &StructureIndex, path: impl AsRef<Path>) -> Result<(), PersistError> {
    fs::write(path, to_bytes(index)?)?;
    Ok(())
}

/// Load from a file through the zero-copy path (one read into a shared
/// buffer, then validate-then-borrow; see [`from_shared`]).
pub fn load_from_path(path: impl AsRef<Path>) -> Result<StructureIndex, PersistError> {
    let data = fs::read(path)?;
    from_shared(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchConfig;
    use speakql_grammar::{process_transcript_text, GeneratorConfig};

    fn small_index() -> StructureIndex {
        StructureIndex::from_grammar(
            &GeneratorConfig {
                max_structures: Some(2_000),
                ..GeneratorConfig::small()
            },
            Weights::PAPER,
        )
    }

    #[test]
    fn roundtrip_preserves_search_behaviour() -> Result<(), PersistError> {
        let index = small_index();
        let restored = from_bytes(&to_bytes(&index)?)?;
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.weights(), index.weights());
        let p = process_transcript_text("select sales from employers wear name equals jon");
        for k in [1usize, 5] {
            let cfg = SearchConfig {
                k,
                ..SearchConfig::default()
            };
            assert_eq!(
                index.search(&p.masked, &cfg),
                restored.search(&p.masked, &cfg)
            );
        }
        Ok(())
    }

    #[test]
    fn zero_copy_load_matches_rebuild_exactly() -> Result<(), PersistError> {
        let index = small_index();
        let bytes = to_bytes(&index)?;
        let borrowed = from_shared(bytes.clone())?;
        let rebuilt = from_bytes_rebuilt(&bytes)?;
        assert_eq!(borrowed.len(), rebuilt.len());
        assert_eq!(borrowed.total_nodes(), rebuilt.total_nodes());
        assert_eq!(borrowed.segment_count(), rebuilt.segment_count());
        let p = process_transcript_text("select sales from employers wear name equals jon");
        let cfg = SearchConfig::top_k(5);
        // Hits AND work counters agree: the borrowed planes are the
        // rebuilt arena, byte for byte.
        assert_eq!(
            borrowed.search_with_stats(&p.masked, &cfg),
            rebuilt.search_with_stats(&p.masked, &cfg)
        );
        Ok(())
    }

    /// The engine counts a persisted load as `index.load.zero_copy` and
    /// `index.load.segments_validated` = `segment_count()`. Both hold only
    /// because the zero-copy path borrows every segment it validated from
    /// the image, where the rebuild reference borrows none.
    #[test]
    fn load_counters_distinguish_paths() -> Result<(), PersistError> {
        let index = small_index();
        let bytes = to_bytes(&index)?;
        let validated = Header::parse(&bytes)?.seg_count;
        let image = bytes.as_ptr_range();
        let borrowed = |idx: &StructureIndex| {
            idx.tries()
                .iter()
                .flatten()
                .filter(|t| image.contains(&t.segment().as_ptr()))
                .count()
        };
        let loaded = from_shared(bytes.clone())?;
        assert_eq!(loaded.segment_count(), validated);
        assert_eq!(borrowed(&loaded), validated);
        let rebuilt = from_bytes_rebuilt(&bytes)?;
        assert_eq!(rebuilt.segment_count(), validated);
        assert_eq!(borrowed(&rebuilt), 0);
        Ok(())
    }

    #[test]
    fn file_roundtrip() -> Result<(), PersistError> {
        let index = small_index();
        let dir = std::env::temp_dir().join("speakql-index-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("test.sqlx");
        save_to_path(&index, &path)?;
        let restored = load_from_path(&path)?;
        assert_eq!(restored.len(), index.len());
        std::fs::remove_file(path).ok();
        Ok(())
    }

    #[test]
    fn rejects_garbage() -> Result<(), PersistError> {
        assert!(matches!(from_bytes(b"nope"), Err(PersistError::BadMagic)));
        assert!(matches!(from_bytes(b""), Err(PersistError::BadMagic)));
        let mut bad_version = to_bytes(&small_index())?.to_vec();
        bad_version[5] = 99;
        assert!(matches!(
            from_bytes(&bad_version),
            Err(PersistError::BadVersion(_))
        ));
        Ok(())
    }

    #[test]
    fn rejects_truncation_and_trailing() -> Result<(), PersistError> {
        let good = to_bytes(&small_index())?.to_vec();
        let truncated = &good[..good.len() / 2];
        assert!(from_bytes(truncated).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            from_bytes(&trailing),
            Err(PersistError::Corrupt(_))
        ));
        Ok(())
    }

    #[test]
    fn plane_corruption_fails_checksum() -> Result<(), PersistError> {
        let good = to_bytes(&small_index())?.to_vec();
        // Flip one byte in the middle of the first segment's node planes
        // (well past block A): the segment checksum must catch it.
        let mut bad = good.clone();
        let pos = good.len() - 16;
        bad[pos] ^= 0x40;
        assert!(matches!(
            from_bytes(&bad),
            Err(PersistError::BadChecksum(_)) | Err(PersistError::Corrupt(_))
        ));
        // Flip a byte inside block A (structure planes).
        let mut bad = good.clone();
        bad[HEADER_LEN + 5] ^= 0x01;
        assert!(matches!(
            from_bytes(&bad),
            Err(PersistError::BadChecksum(_)) | Err(PersistError::Corrupt(_))
        ));
        Ok(())
    }

    #[test]
    fn error_classes_are_stable() {
        assert_eq!(PersistError::BadMagic.class(), "bad_magic");
        assert_eq!(PersistError::BadVersion(7).class(), "bad_version");
        assert_eq!(PersistError::BadChecksum("x").class(), "bad_checksum");
        assert_eq!(PersistError::Corrupt("x").class(), "corrupt");
        assert_eq!(PersistError::TooLarge("x").class(), "too_large");
        assert_eq!(PersistError::Io(io::Error::other("x")).class(), "io");
    }

    #[test]
    fn compactness() -> Result<(), PersistError> {
        let index = small_index();
        let bytes = to_bytes(&index)?;
        // The image trades bytes for load speed: it carries the trie node
        // planes (13 B/node) alongside the ~20 B/structure arena so loads
        // can borrow instead of rebuild. Still well under 128 B per
        // structure for the small grammar.
        assert!(
            bytes.len() < index.len() * 128,
            "format too fat: {} bytes",
            bytes.len()
        );
        Ok(())
    }
}
