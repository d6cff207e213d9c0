//! Work scaling of the harvest's top-k searcher, measured with its
//! deterministic postings counter rather than wall clock.
//!
//! Every release row issues one name query, so the harvest is linear in
//! the release only while one query's cost stays flat as the corpus grows.
//! A searcher that reads a fixed share of the corpus per query (the
//! boundary-tie case: a common first-name list whose every page ties the
//! k-th hit) doubles its per-query work when the world doubles.

use fred_bench::{faculty_world, WorldConfig};
use fred_suite::attack::{reference_sample_rows, HarvestConfig};

/// Names per world whose queries are measured.
const SAMPLE: usize = 1_000;

/// Mean postings visited per name query over a fixed seeded sample of the
/// release names of the canonical faculty world at `size` rows (the world
/// the benchmark's attack workloads build).
fn mean_postings_per_query(size: usize) -> f64 {
    let world = faculty_world(&WorldConfig {
        size,
        ..WorldConfig::default()
    });
    let names = world.table.identifier_strings();
    let limit = HarvestConfig::default().hits_per_name;
    let mut scratch = world.web.scratch();
    let mut cache = world.web.term_cache();
    let rows = reference_sample_rows(names.len(), SAMPLE, 0x5EA7);
    for &row in &rows {
        world
            .web
            .search_topk_with(&names[row], limit, &mut scratch, &mut cache);
    }
    scratch.postings_scanned() as f64 / rows.len() as f64
}

#[test]
fn postings_per_query_stay_flat_as_the_world_doubles() {
    let small = mean_postings_per_query(20_000);
    let large = mean_postings_per_query(40_000);
    assert!(small > 0.0, "the sampled queries visit postings");
    assert!(
        large <= 1.3 * small,
        "per-query search work grew {:.2}x from 20k to 40k rows \
         ({small:.0} -> {large:.0} postings per query): the top-k scan \
         reads a share of the corpus instead of a bounded prefix",
        large / small
    );
}
