//! The synthetic structure space `scale_curve` and `delta_churn` share: one
//! dominant trie length, split over many shards, plus a spread of tail
//! lengths. Everything here is
//! deterministic (hand-rolled splitmix64, no external RNG), so the
//! binaries' search counters are exact across runs and machines.

use speakql_grammar::{StructTokId, Structure, STRUCT_ALPHABET};
use std::time::Instant;

/// Token length that dominates the space (90% of structures).
pub const DOMINANT_LEN: usize = 12;
/// Lengths the remaining 10% cycle over.
pub const TAIL_LENS: [usize; 8] = [4, 6, 8, 10, 14, 16, 18, 20];
/// Probe queries drawn by [`queries`].
pub const QUERIES: usize = 24;

/// SplitMix64: the deterministic, platform-stable RNG for query mutations.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Encode `i` as a length-`len` token sequence, most-significant digit
/// first, over the non-VAR alphabet. Consecutive indexes share long
/// prefixes — the trie shape real grammars produce — and distinct indexes
/// yield distinct sequences, so no dedup pass is needed.
pub fn encode(i: u64, len: usize) -> Structure {
    let base = (STRUCT_ALPHABET - 1) as u64;
    let mut tokens = vec![StructTokId(1); len];
    let mut v = i;
    for pos in (0..len).rev() {
        tokens[pos] = StructTokId(1 + (v % base) as u8);
        v /= base;
    }
    Structure {
        tokens,
        placeholders: Vec::new(),
    }
}

/// `n` synthetic structures: the first 90% at [`DOMINANT_LEN`], then the
/// tail. Tail slot `i` has length `TAIL_LENS[i % 8]` and payload
/// `encode(i / 8, len)`, which lets a caller address the ids of one tail
/// length.
pub fn structures(n: usize) -> Vec<Structure> {
    let dom = n - n / 10;
    let mut out = Vec::with_capacity(n);
    for i in 0..dom {
        out.push(encode(i as u64, DOMINANT_LEN));
    }
    for i in 0..(n - dom) {
        let len = TAIL_LENS[i % TAIL_LENS.len()];
        out.push(encode((i / TAIL_LENS.len()) as u64, len));
    }
    out
}

/// [`QUERIES`] seeded probe queries: token sequences of structures drawn
/// from the whole space, each with two positions mutated — close enough to
/// hit the trie's band, far enough to exercise the DP.
pub fn queries(structures: &[Structure], seed: u64) -> Vec<Vec<StructTokId>> {
    let mut state = seed;
    (0..QUERIES)
        .map(|_| {
            let s = &structures[(splitmix64(&mut state) % structures.len() as u64) as usize];
            let mut q = s.tokens.clone();
            for _ in 0..2 {
                let pos = (splitmix64(&mut state) % q.len() as u64) as usize;
                q[pos] = StructTokId(1 + (splitmix64(&mut state) % 27) as u8);
            }
            q
        })
        .collect()
}

/// Best-of-`n` wall-clock of `work`, in milliseconds, keeping the last
/// result alive so the optimizer cannot elide the work.
pub fn best_of<T>(n: usize, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        let r = work();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    let Some(last) = last else {
        unreachable!("best_of requires n >= 1");
    };
    (best, last)
}
