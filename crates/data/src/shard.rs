//! Deterministic partitioning plan shared across pipeline layers.
//!
//! A [`ShardPlan`] names how the world is split into disjoint partitions:
//! keyed layers (the search index, the harvest) route a blocking key through
//! [`ShardPlan::shard_of`], while range-partitioned layers (hierarchical MDAV
//! leaves) carve contiguous row ranges with [`ShardPlan::row_ranges`]. Both views are pure functions of `(shards,
//! seed)` so every layer that holds the same plan agrees on ownership without
//! sharing state.
//!
//! The key hash is FNV-1a folded with a SplitMix64 finalizer, seeded so two
//! plans with different seeds produce uncorrelated assignments. Assignment is
//! stable across runs, platforms, and thread counts — the property the
//! bit-identity proptests lean on.

use std::ops::Range;

/// Rows per shard targeted by [`ShardPlan::for_size`].
const ROWS_PER_SHARD: usize = 12_500;

/// Upper bound on the shard count derived by [`ShardPlan::for_size`].
const MAX_DERIVED_SHARDS: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic key→shard assignment shared across pipeline layers.
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

    /// The degenerate single-shard plan: every key maps to shard 0 and
    /// [`ShardPlan::row_ranges`] returns one full-width range, so sharded
    /// code paths collapse to their unsharded behaviour.
    pub fn single() -> Self {
        Self::new(1, 0)
    }

    /// Derives a shard count from the world size: one shard per
    /// `ROWS_PER_SHARD` rows, clamped to `1..=MAX_DERIVED_SHARDS`.
    pub fn for_size(rows: usize, seed: u64) -> Self {
        let shards = (rows / ROWS_PER_SHARD).clamp(1, MAX_DERIVED_SHARDS);
        Self::new(shards, seed)
    }

    /// True when [`ShardPlan::for_size`] hit the `MAX_DERIVED_SHARDS`
    /// ceiling for this row count — the plan holds *more* than
    /// `ROWS_PER_SHARD` rows per shard, not the one-per-12.5k-rows a
    /// reader of the shard count alone would infer. Accounting rows
    /// derived from a capped plan must say so.
    pub fn for_size_saturated(rows: usize) -> bool {
        rows / ROWS_PER_SHARD > MAX_DERIVED_SHARDS
    }

    /// Number of shards in the plan (always at least 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Seed folded into the key hash.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maps a blocking key to its owning shard.
    pub fn shard_of(&self, key: &str) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut h = FNV_OFFSET ^ self.seed;
        for byte in key.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // SplitMix64 finalizer: FNV alone is weak in the low bits, and the
        // modulo below only sees those.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % self.shards as u64) as usize
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
    fn shard_of_is_deterministic_and_in_range() {
        let plan = ShardPlan::new(7, 42);
        for key in ["Robert Smith", "", "Ana", "Ana ", "日本語"] {
            let s = plan.shard_of(key);
            assert!(s < 7);
            assert_eq!(s, plan.shard_of(key));
        }
    }

    #[test]
    fn single_plan_maps_everything_to_zero() {
        let plan = ShardPlan::single();
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.shard_of("anything"), 0);
        assert_eq!(plan.row_ranges(5), vec![0..5]);
    }

    #[test]
    fn seed_changes_assignment() {
        let a = ShardPlan::new(16, 1);
        let b = ShardPlan::new(16, 2);
        let keys: Vec<String> = (0..256).map(|i| format!("key-{i}")).collect();
        let moved = keys
            .iter()
            .filter(|k| a.shard_of(k) != b.shard_of(k))
            .count();
        assert!(moved > 0, "different seeds should reshuffle some keys");
    }

    #[test]
    fn for_size_derivation_clamps() {
        assert_eq!(ShardPlan::for_size(0, 0).shards(), 1);
        assert_eq!(ShardPlan::for_size(120, 0).shards(), 1);
        assert_eq!(ShardPlan::for_size(100_000, 0).shards(), 8);
        assert_eq!(ShardPlan::for_size(10_000_000, 0).shards(), 64);
    }

    #[test]
    fn for_size_saturation_matches_the_cap() {
        // Below and at the cap the derivation is exact, not saturated.
        assert!(!ShardPlan::for_size_saturated(0));
        assert!(!ShardPlan::for_size_saturated(100_000));
        assert!(!ShardPlan::for_size_saturated(64 * 12_500));
        // Strictly past 64 full shards the count is a floor, not a rate.
        assert!(ShardPlan::for_size_saturated(65 * 12_500));
        assert!(ShardPlan::for_size_saturated(1_000_000));
        assert!(ShardPlan::for_size_saturated(10_000_000));
        // The probe agrees with the plan it describes: saturated sizes
        // all derive exactly the ceiling.
        assert_eq!(ShardPlan::for_size(65 * 12_500, 0).shards(), 64);
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

    #[test]
    fn shard_of_spreads_keys() {
        let plan = ShardPlan::new(8, 7);
        let mut counts = [0usize; 8];
        for i in 0..4096 {
            counts[plan.shard_of(&format!("person-{i}"))] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 256),
            "no shard should starve: {counts:?}"
        );
    }
}
