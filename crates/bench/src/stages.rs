//! Canonical stage names, shared by every layer that speaks them.
//!
//! Three places used to spell these strings independently — `perf.rs`
//! (the emitter), `ckpt.rs` (the checkpoint interner) and `compare.rs`
//! (the gate) — so a typo in one drifted silently until compare time.
//! This module is now the single source: the timed-stage roster, the
//! checkpoint/runner stage names, and the span names the observability
//! layer pins in its structural digest.

/// Quick-world timed stages, in emission order.
pub const WORLD_BUILD: &str = "world_build";
/// MDAV at the tracked k.
pub const MDAV_K5: &str = "mdav_k5";
/// Per-level anonymization across the whole k sweep.
pub const ANONYMIZE_ALL_LEVELS: &str = "anonymize_all_levels";
/// The shared auxiliary harvest.
pub const HARVEST_AUXILIARY: &str = "harvest_auxiliary";
/// The interpreted per-row estimate path.
pub const ESTIMATE_NAIVE_PER_ROW: &str = "estimate_naive_per_row";
/// The compiled batch/parallel estimate path.
pub const ESTIMATE_BATCH_PARALLEL: &str = "estimate_batch_parallel";
/// The full sweep end-to-end.
pub const SWEEP_END_TO_END: &str = "sweep_end_to_end";
/// The multi-release composition attack.
pub const COMPOSITION_SWEEP: &str = "composition_sweep";
/// The defense-policy sweep next to it.
pub const COMPOSITION_DEFENSE: &str = "composition_defense";
/// The hypothesis-testing evaluation (ROC / TPR@low-FPR / empirical ε).
pub const EVAL_SWEEP: &str = "eval_sweep";
/// The fault-injection sweep.
pub const ROBUSTNESS_SWEEP: &str = "robustness_sweep";

/// Large-world timed stages, in emission order.
pub const WORLD_BUILD_LARGE: &str = "world_build_large";
/// MDAV at the tracked k on the large world.
pub const MDAV_K5_LARGE: &str = "mdav_k5_large";
/// Chunked release streaming.
pub const RELEASE_STREAM_LARGE: &str = "release_stream_large";
/// The parallel harvest.
pub const HARVEST_PARALLEL_LARGE: &str = "harvest_parallel_large";
/// The same cached path pinned to one thread.
pub const HARVEST_SINGLE_THREAD_LARGE: &str = "harvest_single_thread_large";
/// The uncached sequential reference (sampled by default).
pub const HARVEST_SEQUENTIAL_LARGE: &str = "harvest_sequential_large";
/// The full-table sequential reference (`--exhaustive`).
pub const HARVEST_EXHAUSTIVE_LARGE: &str = "harvest_exhaustive_large";
/// Streamed estimates over the chunked release.
pub const ESTIMATE_STREAM_LARGE: &str = "estimate_stream_large";
/// The composition attack on the large world.
pub const COMPOSITION_LARGE: &str = "composition_large";

/// 100k-world timed stages (`repro --quick --size 100000`), in emission
/// order.
pub const WORLD_BUILD_100K: &str = "world_build_100k";
/// Hierarchical (per-leaf) MDAV at the tracked k over the full world.
pub const MDAV_HIER_100K: &str = "mdav_hier_100k";
/// The parallel harvest over the full world.
pub const HARVEST_100K: &str = "harvest_100k";
/// The intersection of every core target of a full-size scenario.
pub const INTERSECT_100K: &str = "intersect_100k";
/// The seeded-subsample equivalence pass (optimized-vs-reference harvest,
/// MDAV and intersection digest pairs).
pub const EQUIVALENCE_100K: &str = "equivalence_100k";

/// Every timed stage name a baseline may carry, quick then large, in
/// emission order. `ckpt.rs` interns parsed names against this roster (a
/// checkpoint naming a stage outside it is corrupt or stale) and
/// `compare.rs` treats membership as the timing-stage namespace.
pub const TIMING_ROSTER: &[&str] = &[
    WORLD_BUILD,
    MDAV_K5,
    ANONYMIZE_ALL_LEVELS,
    HARVEST_AUXILIARY,
    ESTIMATE_NAIVE_PER_ROW,
    ESTIMATE_BATCH_PARALLEL,
    SWEEP_END_TO_END,
    COMPOSITION_SWEEP,
    COMPOSITION_DEFENSE,
    EVAL_SWEEP,
    ROBUSTNESS_SWEEP,
    WORLD_BUILD_LARGE,
    MDAV_K5_LARGE,
    RELEASE_STREAM_LARGE,
    HARVEST_PARALLEL_LARGE,
    HARVEST_SINGLE_THREAD_LARGE,
    HARVEST_SEQUENTIAL_LARGE,
    HARVEST_EXHAUSTIVE_LARGE,
    ESTIMATE_STREAM_LARGE,
    COMPOSITION_LARGE,
    WORLD_BUILD_100K,
    MDAV_HIER_100K,
    HARVEST_100K,
    INTERSECT_100K,
    EQUIVALENCE_100K,
];

/// Checkpoint/runner stage names: the boundaries [`fred_recover`]'s
/// stage runner commits, retries and resumes at, and the span names the
/// observability profile groups self-time under. A checkpoint file is
/// named `<stage>.ckpt.json` after one of these.
pub mod runner {
    /// World generation (anchor).
    pub const WORLD_BUILD: &str = "world_build";
    /// MDAV + per-level anonymization (anchor).
    pub const MDAV: &str = "mdav";
    /// The auxiliary harvest (anchor).
    pub const HARVEST: &str = "harvest";
    /// The naive/batch estimate comparison.
    pub const ESTIMATES: &str = "estimates";
    /// The full sweep.
    pub const SWEEP: &str = "sweep";
    /// The composition attack.
    pub const COMPOSITION: &str = "composition";
    /// The defense-policy sweep.
    pub const DEFENSE: &str = "defense";
    /// The hypothesis-testing evaluation.
    pub const EVAL: &str = "eval";
    /// The fault-injection sweep.
    pub const ROBUSTNESS: &str = "robustness";
    /// The large-world block.
    pub const LARGE: &str = "large";
    /// The 100k-world block.
    pub const LARGE_100K: &str = "large_100k";

    /// All runner stages in execution order.
    pub const ROSTER: &[&str] = &[
        WORLD_BUILD,
        MDAV,
        HARVEST,
        ESTIMATES,
        SWEEP,
        COMPOSITION,
        DEFENSE,
        EVAL,
        ROBUSTNESS,
        LARGE,
        LARGE_100K,
    ];
}

/// Root span of the whole quick-bench run in the observability trace.
pub const SPAN_ROOT: &str = "quick_bench";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rosters_are_duplicate_free() {
        for roster in [TIMING_ROSTER, runner::ROSTER] {
            for (i, a) in roster.iter().enumerate() {
                assert!(!roster[i + 1..].contains(a), "duplicate stage name {a}");
            }
        }
    }
}
