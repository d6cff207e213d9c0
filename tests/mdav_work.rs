//! Work scaling of flat MDAV, measured with its deterministic
//! `mdav.dist_evals` counter rather than wall clock.
//!
//! MDAV clusters `2k` rows per round, so it is near-linear in the table
//! only while one round's distance evaluations stay near-flat as the
//! pool grows. The kd-tree's k-nearest queries read a few buckets each.
//! Its farthest-point queries read every bucket whose box reaches past
//! the best distance, which are the buckets along the pool's hull, so
//! they grow slowly with the pool (36.4 -> 47.5 evaluations per row here,
//! 1.31x). A loop that scans the whole active pool three times per round
//! makes about `3n / (4k)` evaluations per row (3,001 -> 6,001), so its
//! per-row work doubles when the table doubles.

use fred_bench::{faculty_world, WorldConfig};
use fred_suite::anon::{Anonymizer, Mdav};

/// Cluster size of the measured runs (the benchmark's release k).
const K: usize = 5;

/// Distance evaluations per row of flat, normalized MDAV at k = 5 over the
/// canonical faculty world at `size` rows.
fn dist_evals_per_row(size: usize) -> f64 {
    let world = faculty_world(&WorldConfig {
        size,
        ..WorldConfig::default()
    });
    fred_obs::enable(true);
    let partition = Mdav::new().partition(&world.table, K);
    let evals = fred_obs::drain().counter_total("mdav.dist_evals");
    assert!(partition
        .expect("the world is k-anonymizable")
        .satisfies_k(K));
    evals as f64 / size as f64
}

#[test]
fn dist_evals_per_row_stay_near_flat_as_the_table_doubles() {
    let small = dist_evals_per_row(20_000);
    let large = dist_evals_per_row(40_000);
    assert!(small > 0.0, "MDAV evaluates distances");
    assert!(
        large <= 1.5 * small,
        "MDAV distance evaluations per row grew {:.2}x from 20k to 40k rows \
         ({small:.1} -> {large:.1}): a query reads a share of the pool \
         instead of a few kd-tree buckets",
        large / small
    );
    assert!(
        large <= 300.0,
        "MDAV made {large:.1} distance evaluations per row at 40k rows \
         (gate: 300)"
    );
}
