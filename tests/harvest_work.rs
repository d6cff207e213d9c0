//! Work of one full harvest, measured with its deterministic counters
//! rather than wall clock.
//!
//! Two pieces of the harvest are per-corpus or per-release work that must
//! be done once per call, however many release rows link a page and
//! however many workers share the loop:
//!
//! * **Extraction.** A page of a name-rich world is linked by several
//!   release rows (about 3.5 times on average at 100k rows), so parsing it
//!   once per link multiplies the extraction work; parsed once per page,
//!   `harvest.pages_extracted` never exceeds the corpus size.
//! * **Pair lists.** A name query walks its first+last pair as one list
//!   merged from both postings lists. Built once per harvest and shared,
//!   the merge steps (`harvest.pair_postings_merged`) equal those of one
//!   term cache filled lazily over the whole release, whatever the pool
//!   width; built per worker, they grow with it.
//!
//! The obs collector is process-global, so the traced harvests of this
//! binary run one at a time.

use std::sync::{Mutex, OnceLock};

use fred_bench::{faculty_world, World, WorldConfig};
use fred_suite::attack::{harvest_auxiliary, HarvestConfig};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// The canonical faculty world of `size` rows (the world the benchmark's
/// attack workloads build), built once per binary.
fn world(size: usize) -> &'static World {
    static SMALL: OnceLock<World> = OnceLock::new();
    static LARGE: OnceLock<World> = OnceLock::new();
    let cell = match size {
        20_000 => &SMALL,
        40_000 => &LARGE,
        _ => unreachable!("the gates measure 20k and 40k rows"),
    };
    cell.get_or_init(|| {
        faculty_world(&WorldConfig {
            size,
            ..WorldConfig::default()
        })
    })
}

/// One full traced harvest of the world's release: the drained trace.
fn traced_harvest(world: &World) -> fred_obs::Trace {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fred_obs::enable(true);
    let harvest = harvest_auxiliary(&world.table, &world.web, &HarvestConfig::default());
    let trace = fred_obs::drain();
    assert!(harvest.expect("harvest").pages_linked > 0);
    trace
}

#[test]
fn one_harvest_extracts_each_page_at_most_once() {
    for size in [20_000, 40_000] {
        let world = world(size);
        let trace = traced_harvest(world);
        let extracted = trace.counter_total("harvest.pages_extracted");
        let linked = trace.counter_total("harvest.pages_linked");
        let pages = world.web.len() as u64;
        assert!(extracted > 0, "{size} rows: the harvest extracts pages");
        assert!(
            linked > pages,
            "{size} rows: {linked} links over {pages} pages; the world \
             should link pages several times for this gate to bite"
        );
        assert!(
            extracted <= pages,
            "{size} rows: one harvest parsed {extracted} pages of a \
             {pages}-page corpus ({linked} links): pages are extracted \
             per link instead of once per page"
        );
    }
}

#[test]
fn harvest_pair_list_merges_equal_one_cache_over_the_release() {
    let world = world(20_000);
    let names = world.table.identifier_strings();
    let limit = HarvestConfig::default().hits_per_name;
    let mut scratch = world.web.scratch();
    let mut cache = world.web.term_cache();
    for name in names.iter().filter(|name| !name.trim().is_empty()) {
        world
            .web
            .search_topk_with(name, limit, &mut scratch, &mut cache);
    }
    let single_pass = cache.pair_postings_merged();
    assert!(
        single_pass > 0,
        "the release's name queries build pair lists"
    );
    let harvest = traced_harvest(world).counter_total("harvest.pair_postings_merged");
    assert_eq!(
        harvest,
        single_pass,
        "one harvest merged {harvest} pair-list postings on {} workers, one \
         lazily filled cache over the same release {single_pass}: the \
         workers build their own copies of the same pair lists",
        rayon::current_num_threads()
    );
}
