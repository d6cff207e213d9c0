//! Deterministic row-range partitioning plan.
//!
//! A [`ShardPlan`] names how many contiguous partitions a table is split
//! into: hierarchical MDAV carves its leaves with [`ShardPlan::row_ranges`],
//! a pure function of the shard count and the row count, so the split is
//! stable across runs, platforms, and thread counts — the property the
//! bit-identity proptests lean on.

use std::ops::Range;

/// Rows per shard targeted by [`ShardPlan::for_size`].
const ROWS_PER_SHARD: usize = 12_500;

/// Upper bound on the shard count derived by [`ShardPlan::for_size`].
const MAX_DERIVED_SHARDS: usize = 64;

/// A deterministic split of a table into contiguous row ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    seed: u64,
}

impl ShardPlan {
    /// Builds a plan with an explicit shard count (clamped to at least 1).
    pub fn new(shards: usize, seed: u64) -> Self {
        Self {
            shards: shards.max(1),
            seed,
        }
    }

    /// The degenerate single-shard plan: [`ShardPlan::row_ranges`]
    /// returns one full-width range, so sharded code paths collapse to
    /// their unsharded behaviour.
    pub fn single() -> Self {
        Self::new(1, 0)
    }

    /// Derives a shard count from the world size: one shard per
    /// `ROWS_PER_SHARD` rows, clamped to `1..=MAX_DERIVED_SHARDS`.
    pub fn for_size(rows: usize, seed: u64) -> Self {
        let shards = (rows / ROWS_PER_SHARD).clamp(1, MAX_DERIVED_SHARDS);
        Self::new(shards, seed)
    }

    /// Number of shards in the plan (always at least 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Splits `0..len` into `shards` contiguous near-equal ranges in
    /// ascending order. Earlier ranges absorb the remainder, every range is
    /// non-empty while `len >= shards`, and concatenating the ranges yields
    /// exactly `0..len` — the property that makes range-sharded folds
    /// bit-identical to their sequential references.
    pub fn row_ranges(&self, len: usize) -> Vec<Range<usize>> {
        let shards = self.shards.min(len).max(1);
        let base = len / shards;
        let extra = len % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for shard in 0..shards {
            let width = base + usize::from(shard < extra);
            ranges.push(start..start + width);
            start += width;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_maps_everything_to_zero() {
        let plan = ShardPlan::single();
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.row_ranges(5), vec![0..5]);
    }

    #[test]
    fn for_size_derivation_clamps() {
        assert_eq!(ShardPlan::for_size(0, 0).shards(), 1);
        assert_eq!(ShardPlan::for_size(120, 0).shards(), 1);
        assert_eq!(ShardPlan::for_size(100_000, 0).shards(), 8);
        assert_eq!(ShardPlan::for_size(10_000_000, 0).shards(), 64);
    }

    #[test]
    fn row_ranges_cover_exactly_once_in_order() {
        for shards in 1..=9usize {
            for len in [0usize, 1, 2, 8, 9, 100, 101] {
                let plan = ShardPlan::new(shards, 0);
                let ranges = plan.row_ranges(len);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous ascending");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, len, "ranges must cover 0..len exactly");
                if len >= shards {
                    assert_eq!(ranges.len(), shards);
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                }
            }
        }
    }
}
