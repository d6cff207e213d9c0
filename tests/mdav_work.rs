//! Work scaling of flat MDAV, measured with its deterministic
//! `mdav.dist_evals` and `mdav.nodes_visited` counters rather than wall
//! clock.
//!
//! MDAV clusters `2k` rows per round, so it is near-linear in the table
//! only while one round's distance evaluations stay near-flat as the
//! pool grows. The kd-tree's k-nearest queries read a few buckets each,
//! and its farthest-from-`r` query reads the buckets along the pool's
//! hull. The farthest-from-centroid query scans the top of a shell that
//! holds one live row in eight; each rebuild costs one evaluation per
//! live row, and the shell's size keeps rebuilds rare (17.2 -> 18.3
//! evaluations per row here, 1.06x). A fixed-size shell needs a rebuild
//! every few rounds, so its rebuilds make the loop quadratic: a 256-row
//! shell reads ~48 per row at 40k and ~96 at 80k. A loop that scans the
//! whole active pool three times per round makes about `3n / (4k)`
//! evaluations per row (3,001 -> 6,001), so its per-row work doubles
//! when the table doubles.
//!
//! The tree walk's bookkeeping (heap and stack traffic, box bounds) is
//! paid per node a query opens, not per distance, so the nodes visited
//! per row are gated the same way: a walk that stopped pruning would
//! open a share of the tree per query and fail here.

use fred_bench::{faculty_world, WorldConfig};
use fred_suite::anon::{Anonymizer, Mdav};

/// Cluster size of the measured runs (the benchmark's release k).
const K: usize = 5;

/// Distance evaluations and kd-tree nodes visited per row of flat,
/// normalized MDAV at k = 5 over the canonical faculty world at `size`
/// rows.
fn work_per_row(size: usize) -> (f64, f64) {
    let world = faculty_world(&WorldConfig {
        size,
        ..WorldConfig::default()
    });
    fred_obs::enable(true);
    let partition = Mdav::new().partition(&world.table, K);
    let trace = fred_obs::drain();
    assert!(partition
        .expect("the world is k-anonymizable")
        .satisfies_k(K));
    let per_row = |counter: &str| trace.counter_total(counter) as f64 / size as f64;
    (per_row("mdav.dist_evals"), per_row("mdav.nodes_visited"))
}

#[test]
fn dist_evals_per_row_stay_near_flat_as_the_table_doubles() {
    let (small, small_nodes) = work_per_row(20_000);
    let (large, large_nodes) = work_per_row(40_000);
    assert!(small > 0.0, "MDAV evaluates distances");
    assert!(
        large <= 1.5 * small,
        "MDAV distance evaluations per row grew {:.2}x from 20k to 40k rows \
         ({small:.1} -> {large:.1}): a query reads a share of the pool \
         instead of a few kd-tree buckets",
        large / small
    );
    assert!(
        large <= 30.0,
        "MDAV made {large:.1} distance evaluations per row at 40k rows \
         (gate: 30): the centroid query's shell is rebuilt too often"
    );
    assert!(small_nodes > 0.0, "MDAV's queries walk the kd-tree");
    assert!(
        large_nodes <= 1.5 * small_nodes,
        "MDAV kd-tree nodes visited per row grew {:.2}x from 20k to 40k rows \
         ({small_nodes:.1} -> {large_nodes:.1}): a query opens a share of \
         the tree instead of a few paths",
        large_nodes / small_nodes
    );
}
