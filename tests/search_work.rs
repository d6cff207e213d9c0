//! Work scaling of the harvest's top-k searcher, measured with its
//! deterministic counters rather than wall clock.
//!
//! Every release row issues one name query, so the harvest is linear in
//! the release only while one query's cost stays flat as the corpus grows.
//! A searcher that reads a fixed share of the corpus per query (the
//! boundary-tie case: a common first-name list whose every page ties the
//! k-th hit) doubles its per-query work when the world doubles. A query's
//! two most common terms are walked as one pair list, built once per term
//! cache by merging both postings lists; that merge grows with the world
//! too, so it stays flat per query only while the batch reuses each list.

use std::sync::OnceLock;

use fred_bench::{faculty_world, WorldConfig};
use fred_suite::attack::{reference_sample_rows, HarvestConfig};

/// Names per world whose queries are measured for postings visited.
const SAMPLE: usize = 1_000;

/// Per-query work of one canonical faculty world (the world the
/// benchmark's attack workloads build).
struct Work {
    /// Mean postings visited per name query over a fixed seeded sample
    /// of the release names.
    postings_per_query: f64,
    /// Pair-list merge steps per name query over the whole release, one
    /// term cache for the batch like the harvest's.
    merged_per_query: f64,
}

fn measure(size: usize) -> Work {
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
    let postings_per_query = scratch.postings_scanned() as f64 / rows.len() as f64;

    let mut scratch = world.web.scratch();
    let mut cache = world.web.term_cache();
    for name in &names {
        world
            .web
            .search_topk_with(name, limit, &mut scratch, &mut cache);
    }
    Work {
        postings_per_query,
        merged_per_query: cache.pair_postings_merged() as f64 / names.len() as f64,
    }
}

/// The 20k- and 40k-row measurements, shared by the tests below.
fn work() -> &'static (Work, Work) {
    static WORK: OnceLock<(Work, Work)> = OnceLock::new();
    WORK.get_or_init(|| (measure(20_000), measure(40_000)))
}

#[test]
fn postings_per_query_stay_flat_as_the_world_doubles() {
    let (small, large) = work();
    let (small, large) = (small.postings_per_query, large.postings_per_query);
    assert!(small > 0.0, "the sampled queries visit postings");
    assert!(
        large <= 1.3 * small,
        "per-query search work grew {:.2}x from 20k to 40k rows \
         ({small:.0} -> {large:.0} postings per query): the top-k scan \
         reads a share of the corpus instead of a bounded prefix",
        large / small
    );
    assert!(
        large <= 32.0,
        "{large:.1} postings per query at 40k rows: a name query should \
         read about `hits_per_name` entries of its pair list, not walk a \
         surname list"
    );
}

#[test]
fn pair_list_merges_per_query_stay_flat_as_the_world_doubles() {
    let (small, large) = work();
    let (small, large) = (small.merged_per_query, large.merged_per_query);
    assert!(small > 0.0, "the release's name queries build pair lists");
    assert!(
        large <= 1.3 * small,
        "pair-list merge steps per query grew {:.2}x from 20k to 40k rows \
         ({small:.0} -> {large:.0}): the batch rebuilds pair lists instead \
         of reusing them",
        large / small
    );
}
