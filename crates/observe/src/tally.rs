//! [`Tally`]: one unit of work's counter totals, as plain integers. A
//! transcription runs on one thread, so it counts into its own tally and the
//! engine adds the finished tally to its [`Recorder`](crate::Recorder) in one
//! step. Keyed by [`CounterId`], a tally can be absorbed unchanged by a
//! shared registry, a request ledger row or a per-tenant slot.

use crate::{CounterId, COUNTER_COUNT};
use std::ops::AddAssign;

/// Per-[`CounterId`] totals of one unit of work, with no atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    counts: [u64; COUNTER_COUNT],
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            counts: [0; COUNTER_COUNT],
        }
    }
}

impl Tally {
    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counts[id as usize] += n;
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// The total of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counts[id as usize]
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, rhs: Tally) {
        for (total, n) in self.counts.iter_mut().zip(rhs.counts) {
            *total += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_add_per_counter() {
        let mut a = Tally::default();
        a.incr(CounterId::Transcriptions);
        a.add(CounterId::VoteComparisons, 7);
        let mut b = Tally::default();
        b.add(CounterId::VoteComparisons, 5);
        b.incr(CounterId::NestedSplits);
        a += b;
        assert_eq!(a.get(CounterId::Transcriptions), 1);
        assert_eq!(a.get(CounterId::VoteComparisons), 12);
        assert_eq!(a.get(CounterId::NestedSplits), 1);
        assert_eq!(a.get(CounterId::CandidatesBuilt), 0);
    }
}
