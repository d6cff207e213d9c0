//! Auxiliary-data harvesting: release identifiers → web search → record
//! linkage → consolidated [`AuxRecord`]s.
//!
//! This is the step the paper describes as "he uses the customer names
//! present in the release to search for additional information about the
//! customers available on the web" (Section I), made programmatic.
//!
//! The harvest has one body, [`harvest_auxiliary_tolerant`]: fault
//! tolerance is its [`FaultPlan`] parameter, and [`harvest_auxiliary`] is
//! its zero-fault call. Its width is the pool's: run it inside a
//! one-thread [`rayon::ThreadPool::install`] for a single-threaded
//! harvest. [`harvest_auxiliary_sequential`] is the exhaustive reference
//! the body is pinned against.

use std::sync::Arc;

use fred_data::Table;
use fred_faults::{salt, strict, Degradation, FaultPlan, InputDefect};
use fred_linkage::{
    compare_prepared, AgreementCache, AgreementScratch, Decision, FellegiSunter, LinkKey,
    NameNormalizer, PreparedName, ScoreFloor,
};
use fred_web::{
    consolidate, extract, extract_checked, AuxRecord, DisplayNames, PackedFacts, PageFacts,
    PairLists, SearchEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::error::{AttackError, Result};

/// Configuration of the harvesting step.
#[derive(Debug, Clone)]
pub struct HarvestConfig {
    /// Maximum search hits inspected per release name.
    pub hits_per_name: usize,
    /// Accept pages whose name-link decision is only
    /// [`Decision::Possible`] (more recall, less precision).
    pub accept_possible: bool,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig {
            hits_per_name: 8,
            accept_possible: true,
        }
    }
}

/// Per-person harvest result.
#[derive(Debug, Clone, PartialEq)]
pub struct Harvest {
    /// Consolidated auxiliary records, index-aligned with the release rows
    /// (`None` when nothing credible was found).
    pub records: Vec<Option<AuxRecord>>,
    /// Accepted page indices (into the engine's corpus) per release row,
    /// index-aligned with `records`. Lets evaluators such as
    /// [`harvest_precision`] audit the links without re-running a single
    /// search or comparison.
    pub linked: Vec<Vec<usize>>,
    /// Number of pages inspected across all queries.
    pub pages_inspected: usize,
    /// Number of pages accepted by the linkage step.
    pub pages_linked: usize,
}

impl Harvest {
    /// Fraction of release rows with at least one linked page.
    pub fn coverage(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.is_some()).count() as f64 / self.records.len() as f64
    }
}

/// The shared acceptance rule of every harvest path: confident links
/// trump tentative ones — when any page matched outright, merely-possible
/// pages are treated as noise for this name.
fn select_accepted(matches: Vec<usize>, possibles: Vec<usize>) -> Vec<usize> {
    if matches.is_empty() {
        possibles
    } else {
        matches
    }
}

/// Classifies the hits of one already-ranked search result, returning
/// accepted page indices plus the number of pages inspected.
///
/// This is the exhaustive reference: the full feature vector of every
/// hit is computed and classified. The parallel harvest routes through
/// [`classify_hits_cached`] instead, whose decisions are pinned
/// identical by property test.
fn classify_hits(
    hits: &[fred_web::SearchHit],
    prepared_name: &PreparedName,
    engine: &SearchEngine,
    config: &HarvestConfig,
    prepared_pages: &[PreparedName],
    fs_model: &FellegiSunter,
) -> (Vec<usize>, usize) {
    let mut inspected = 0usize;
    let mut matches = Vec::new();
    let mut possibles = Vec::new();
    for hit in hits {
        if engine.page(hit.page).is_none() {
            continue;
        }
        inspected += 1;
        let features = compare_prepared(prepared_name, &prepared_pages[hit.page]);
        match fs_model.classify(&features.agreement_vector()) {
            Decision::Match => matches.push(hit.page),
            Decision::Possible if config.accept_possible => possibles.push(hit.page),
            _ => {}
        }
    }
    (select_accepted(matches, possibles), inspected)
}

/// [`classify_hits`] through the linkage fast path: hits are classified
/// via the worker's per-name [`AgreementCache`] (keyed by deduplicated
/// page-name id) and the precomputed [`ScoreFloor`], so a page name
/// repeated among the hits replays its decision and a hopeless one is
/// pruned before any string comparator runs. Decision-for-decision
/// identical to [`classify_hits`] by the floor's exactness guarantee.
#[allow(clippy::too_many_arguments)]
fn classify_hits_cached(
    hits: &[fred_web::SearchHit],
    query: &LinkKey,
    engine: &SearchEngine,
    config: &HarvestConfig,
    page_name_ids: &[u32],
    name_keys: &[LinkKey],
    floor: &ScoreFloor,
    agreement: &mut AgreementCache,
    cmp: &mut AgreementScratch,
) -> (Vec<usize>, usize) {
    let mut inspected = 0usize;
    let mut matches = Vec::new();
    let mut possibles = Vec::new();
    for hit in hits {
        if engine.page(hit.page).is_none() {
            continue;
        }
        inspected += 1;
        let nid = page_name_ids[hit.page];
        let decision = agreement.classify(nid, floor, query, &name_keys[nid as usize], cmp);
        match decision {
            Decision::Match => matches.push(hit.page),
            Decision::Possible if config.accept_possible => possibles.push(hit.page),
            _ => {}
        }
    }
    (select_accepted(matches, possibles), inspected)
}

/// Per-worker mutable state of the harvest: search scratch, term
/// cache, comparator scratch, and the agreement memo, which holds one
/// name's decisions at a time (cleared per name: release names are
/// distinct, so a (query, page-name) pair practically never recurs across
/// names, while a name's own hits often repeat a page name). The term
/// cache reads the pair lists the [`HarvestContext`] built for the whole
/// release, so workers do not each merge the same lists.
struct LinkState {
    search: fred_web::SearchScratch,
    terms: fred_web::TermCache,
    cmp: AgreementScratch,
    agreement: AgreementCache,
}

impl LinkState {
    fn new(engine: &SearchEngine, ctx: &HarvestContext<'_>) -> LinkState {
        LinkState {
            search: engine.scratch(),
            terms: engine.term_cache_sharing(Arc::clone(&ctx.pairs)),
            cmp: AgreementScratch::default(),
            agreement: AgreementCache::new(),
        }
    }
}

/// Assembles a [`Harvest`] from in-row-order per-name results.
fn assemble(per_name: Vec<NameHarvest>) -> Harvest {
    let mut records = Vec::with_capacity(per_name.len());
    let mut linked = Vec::with_capacity(per_name.len());
    let mut pages_inspected = 0usize;
    let mut pages_linked = 0usize;
    for (record, accepted, inspected) in per_name {
        pages_inspected += inspected;
        pages_linked += accepted.len();
        records.push(record);
        linked.push(accepted);
    }
    Harvest {
        records,
        linked,
        pages_inspected,
        pages_linked,
    }
}

/// One page's facts in a [`HarvestContext`]'s table: what
/// [`extract_checked`] read off the page, or the defect it rejected the
/// page for.
type PageEntry = std::result::Result<PackedFacts, InputDefect>;

/// The read-only context of one harvest call, built once and
/// shared by every worker, dropped when the call returns:
///
/// * the score floor;
/// * the deduplicated page display names and each distinct name's
///   comparator keys: compact keys, one short buffer per distinct page
///   name, so a hit's classification touches the query's buffer and one
///   other (see [`fred_linkage::agreement`]); a query equal to a page
///   name borrows that name's key;
/// * the page-facts table: every page extracted once, in page order, by
///   [`extract_checked`], so a page linked by many names is parsed once;
/// * the pair lists of the release's queries
///   ([`SearchEngine::pair_lists`]), which the workers' term caches read.
///
/// Every step fans out on the pool at the pool's width, so a one-thread
/// install builds the same context inline.
struct HarvestContext<'e> {
    normalizer: NameNormalizer,
    floor: ScoreFloor,
    display: DisplayNames<'e>,
    name_keys: Vec<LinkKey>,
    facts: Vec<PageEntry>,
    pairs: Arc<PairLists>,
}

impl<'e> HarvestContext<'e> {
    /// Builds the context for harvesting `names`.
    fn new(
        engine: &'e SearchEngine,
        names: &[String],
        config: &HarvestConfig,
    ) -> HarvestContext<'e> {
        let normalizer = NameNormalizer::new();
        // Blocking is provided by the search engine itself: only the
        // pages a name-query surfaces are compared, so the linker's
        // model is applied directly without a second blocking pass.
        let floor = ScoreFloor::new(&fred_linkage::default_name_model());
        let display = engine.distinct_display_names();
        let name_keys: Vec<LinkKey> = display
            .names
            .par_iter()
            .map(|name| LinkKey::prepare(&normalizer, name))
            .collect();
        let facts: Vec<PageEntry> = engine
            .pages()
            .par_iter()
            .map(|page| extract_checked(page).map(|facts| PackedFacts::pack(page, &facts)))
            .collect();
        let pairs = Arc::new(engine.pair_lists(names, config.hits_per_name));
        fred_obs::counter(PAGES_EXTRACTED, facts.len() as u64);
        fred_obs::counter(PAIR_POSTINGS_MERGED, pairs.postings_merged());
        HarvestContext {
            normalizer,
            floor,
            display,
            name_keys,
            facts,
            pairs,
        }
    }
}

/// Pages parsed by one harvest call: a deterministic work counter, the
/// corpus size once per call.
const PAGES_EXTRACTED: &str = "harvest.pages_extracted";

/// Postings merged to build one harvest call's pair lists, up front or by
/// a worker's term cache: a deterministic work counter, independent of
/// the pool's width.
const PAIR_POSTINGS_MERGED: &str = "harvest.pair_postings_merged";

/// Per-name latency histogram: one observation per non-blank name,
/// spanning its search, classification and the reading of its accepted
/// pages' facts, recorded by the same routine that bumps the
/// `harvest.names` counter — so the histogram's `count` reconciles
/// exactly with the counter at any pool width and fault plan, which
/// `tests/obs_reconcile.rs` pins.
const HARVEST_NAME_MS: &str = "harvest.name_ms";

/// Emits one harvested name's observability deltas: pages linked and
/// inspected, the postings its search visited and the pair-list merges it
/// triggered, plus what the memo and the score floor absorbed. The memo
/// is per name (its tallies restart at every name); the prune and merge
/// tallies are read as deltas over the worker's scratch and cache, which
/// live across names. Free when tracing is off — one relaxed atomic
/// load.
fn note_harvest_metrics(
    state: &LinkState,
    postings_scanned: u64,
    prunes_before: u64,
    merged_before: u64,
    linked: usize,
    inspected: usize,
) {
    if !fred_obs::is_enabled() {
        return;
    }
    fred_obs::counter("harvest.names", 1);
    fred_obs::counter("harvest.pages_linked", linked as u64);
    fred_obs::counter("harvest.pages_inspected", inspected as u64);
    fred_obs::counter("harvest.postings_scanned", postings_scanned);
    fred_obs::counter(
        PAIR_POSTINGS_MERGED,
        state.terms.pair_postings_merged() - merged_before,
    );
    fred_obs::counter("harvest.cache_lookups", state.agreement.lookups());
    fred_obs::counter("harvest.cache_hits", state.agreement.hits());
    fred_obs::counter("harvest.floor_prunes", state.cmp.prunes() - prunes_before);
}

/// One release name's harvest: the consolidated record, the accepted
/// page indices and the number of pages inspected.
type NameHarvest = (Option<AuxRecord>, Vec<usize>, usize);

/// One release name through the harvest: exact top-k search, then
/// floor/memo classification of the hits, then the accepted pages' facts
/// from the context's table and their consolidation. The table holds
/// what [`extract_checked`] made of each page; it rejects pages whose
/// template frame is damaged, and each accepted occurrence of a rejected
/// page is counted in the returned [`Degradation`] instead of being
/// fused as if intact. On a cleanly rendered page it returns exactly
/// `Ok(extract(page))`, so on a clean corpus the report stays clean.
/// Facts borrow the pages' text, so strings are copied once, into the
/// consolidated record.
fn harvest_one_name(
    name: &str,
    engine: &SearchEngine,
    config: &HarvestConfig,
    ctx: &HarvestContext<'_>,
    state: &mut LinkState,
) -> (NameHarvest, Degradation) {
    let mut deg = Degradation::default();
    if name.trim().is_empty() {
        return ((None, Vec::new(), 0), deg);
    }
    let started = fred_obs::is_enabled().then(std::time::Instant::now);
    let (scanned0, prunes0, merged0) = (
        state.search.postings_scanned(),
        state.cmp.prunes(),
        state.terms.pair_postings_merged(),
    );
    state.agreement.clear();
    let hits = engine.search_topk_with(
        name,
        config.hits_per_name,
        &mut state.search,
        &mut state.terms,
    );
    let prepared;
    let query = match ctx.display.id_of(name) {
        Some(id) => &ctx.name_keys[id as usize],
        None => {
            prepared = LinkKey::prepare(&ctx.normalizer, name);
            &prepared
        }
    };
    let (accepted, inspected) = classify_hits_cached(
        &hits,
        query,
        engine,
        config,
        &ctx.display.page_name_ids,
        &ctx.name_keys,
        &ctx.floor,
        &mut state.agreement,
        &mut state.cmp,
    );
    let facts: Vec<PageFacts<'_>> = accepted
        .iter()
        .filter_map(|&p| match &ctx.facts[p] {
            Ok(packed) => Some(packed.unpack(engine.page(p)?)),
            Err(defect) => {
                deg.record(*defect);
                None
            }
        })
        .collect();
    if let Some(started) = started {
        fred_obs::observe_ms(HARVEST_NAME_MS, started.elapsed().as_secs_f64() * 1e3);
    }
    note_harvest_metrics(
        state,
        state.search.postings_scanned() - scanned0,
        prunes0,
        merged0,
        accepted.len(),
        inspected,
    );
    ((consolidate(&facts), accepted, inspected), deg)
}

/// Harvests auxiliary data for every identifier in the release under a
/// [`FaultPlan`], surviving the dirty corpus and the plan's injected
/// faults with skip-and-count semantics instead of panicking, and
/// returns the harvest plus its [`Degradation`] report. The one harvest
/// body: [`harvest_auxiliary`] is its zero-fault call.
///
/// For each release name: query the search engine, compare each hit's
/// display name against the release name with the full linkage feature
/// set, keep pages classified Match (and optionally Possible), and
/// consolidate their extractions into one [`AuxRecord`].
///
/// Work done once per corpus or per release is done once per call, on
/// the pool, before the per-name loop, and shared read-only by every
/// worker: page display names are *deduplicated* (several pages per
/// person, most rendered verbatim) and each distinct name's compact
/// comparator keys ([`LinkKey`]) built; every page is extracted once
/// into a compact facts table; and the pair list of every distinct
/// first+last query pair is built once ([`SearchEngine::pair_lists`]).
/// The per-name loop then runs across worker threads, each with its own
/// search scratch, term cache (reading the shared pair lists),
/// comparator scratch and [`AgreementCache`]: each query runs through
/// the engine's exact top-k searcher
/// ([`SearchEngine::search_topk_with`]) and classifies its hits through
/// the precomputed [`ScoreFloor`] — a page name repeated among one
/// name's hits replays its memoized decision, hopeless pairs are pruned
/// before any string comparison — and its accepted pages' facts are read
/// from the table. Results are row-order stable at any pool width, and
/// under a zero-rate plan on a clean corpus record-for-record identical
/// to [`harvest_auxiliary_sequential`] (pinned by property test), which
/// still extracts per link.
///
/// Each fault degrades one row at worst: an identifier row the plan
/// drops harvests nothing (`rows_skipped`); a worker panic on a row —
/// injected by the plan, or any real one — is contained by the pool's
/// tolerant entry point and costs that row only (`workers_restarted`);
/// and a linked page whose template frame is damaged is skipped and
/// counted (`pages_rejected`) rather than parsed.
///
/// Callers expecting injected panics should wrap the call in
/// [`rayon::silence_panics`] to keep recovered backtraces off stderr.
pub fn harvest_auxiliary_tolerant(
    release: &Table,
    engine: &SearchEngine,
    config: &HarvestConfig,
    plan: &FaultPlan,
) -> Result<(Harvest, Degradation)> {
    let id_cols = release.identifier_columns();
    if id_cols.is_empty() {
        return Err(AttackError::NoIdentifiers);
    }
    let mut deg = Degradation::default();
    let names: Vec<String> = release
        .identifier_strings()
        .into_iter()
        .enumerate()
        .map(|(row, name)| {
            if plan.targets_row(row)
                || plan.decide(plan.row_drop, salt::HARVEST_ROW_DROP, row as u64)
            {
                deg.record(InputDefect::MissingRow);
                // A blanked identifier harvests nothing, exactly like a
                // release row that never arrived.
                String::new()
            } else {
                name
            }
        })
        .collect();
    let ctx = HarvestContext::new(engine, &names, config);
    let items: Vec<(usize, String)> = names.into_iter().enumerate().collect();
    let (results, _caught) = rayon::map_catch_init(
        items,
        || LinkState::new(engine, &ctx),
        |state, (row, name)| {
            if plan.decide(plan.worker_panic, salt::WORKER_PANIC, row as u64) {
                panic!("injected worker fault at harvest row {row}");
            }
            harvest_one_name(&name, engine, config, &ctx, state)
        },
    );
    let mut per_name = Vec::with_capacity(results.len());
    for slot in results {
        match slot {
            Some((name_harvest, name_deg)) => {
                deg.merge(&name_deg);
                per_name.push(name_harvest);
            }
            None => {
                deg.record(InputDefect::WorkerPanic);
                per_name.push((None, Vec::new(), 0));
            }
        }
    }
    Ok((assemble(per_name), deg))
}

/// Harvests auxiliary data for every identifier in the release: the
/// zero-fault call of [`harvest_auxiliary_tolerant`], under
/// [`FaultPlan::none`].
///
/// A worker panic is not contained here: the call panics in turn (the
/// original message has already gone to stderr through the panic hook).
/// A page whose template frame is damaged is skipped rather than parsed,
/// as in the tolerant call; strict callers feed clean corpora, where no
/// page is skipped.
pub fn harvest_auxiliary(
    release: &Table,
    engine: &SearchEngine,
    config: &HarvestConfig,
) -> Result<Harvest> {
    harvest_auxiliary_tolerant(release, engine, config, &FaultPlan::none()).map(strict)
}

/// The plain one-name-at-a-time harvest loop [`harvest_auxiliary`] is
/// pinned against: same search engine, same
/// linkage model, no scratch reuse, no worker threads. Kept public as the
/// reference implementation for equivalence property tests.
pub fn harvest_auxiliary_sequential(
    release: &Table,
    engine: &SearchEngine,
    config: &HarvestConfig,
) -> Result<Harvest> {
    let id_cols = release.identifier_columns();
    if id_cols.is_empty() {
        return Err(AttackError::NoIdentifiers);
    }
    let names = release.identifier_strings();
    let normalizer = NameNormalizer::new();
    let fs_model = fred_linkage::default_name_model();
    let prepared_pages: Vec<PreparedName> = engine
        .pages()
        .iter()
        .map(|page| normalizer.prepare(&page.display_name))
        .collect();

    let mut per_name = Vec::with_capacity(names.len());
    for name in &names {
        if name.trim().is_empty() {
            per_name.push((None, Vec::new(), 0));
            continue;
        }
        let hits = engine.search(name, config.hits_per_name);
        let prepared = normalizer.prepare(name);
        let (accepted, inspected) =
            classify_hits(&hits, &prepared, engine, config, &prepared_pages, &fs_model);
        let extractions: Vec<PageFacts<'_>> = accepted
            .iter()
            .filter_map(|&p| engine.page(p).map(extract))
            .collect();
        per_name.push((consolidate(&extractions), accepted, inspected));
    }
    Ok(assemble(per_name))
}

/// Seeded sample of at most `max_rows` distinct release rows (ascending)
/// — the rows the *sampled* exhaustive reference pins each run. A
/// partial Fisher-Yates draws the prefix, so the sample is uniform and
/// depends only on `(n_rows, max_rows, seed)`.
pub fn reference_sample_rows(n_rows: usize, max_rows: usize, seed: u64) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..n_rows).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let take = max_rows.min(n_rows);
    for i in 0..take {
        let j = rng.gen_range(i..n_rows);
        rows.swap(i, j);
    }
    rows.truncate(take);
    rows.sort_unstable();
    rows
}

/// The exhaustive reference ([`harvest_auxiliary_sequential`]) run over a
/// seeded row sample of the release instead of every row: returns the
/// sampled master rows (ascending) and their harvest, index-aligned.
///
/// Harvesting is per-name independent — each record depends only on its
/// own identifier's search, linkage and extraction — so the sampled
/// reference must agree record-for-record with the corresponding rows of
/// any full harvest over the same release (pinned against the full
/// reference by property test, and asserted against the parallel cached
/// path by the large bench). This carries the exactness argument at a
/// fraction of the exhaustive run's cost; `repro --quick --exhaustive`
/// still runs the full reference.
pub fn harvest_auxiliary_reference_sampled(
    release: &Table,
    engine: &SearchEngine,
    config: &HarvestConfig,
    max_rows: usize,
    seed: u64,
) -> Result<(Vec<usize>, Harvest)> {
    let rows = reference_sample_rows(release.len(), max_rows, seed);
    let sampled: Vec<_> = rows.iter().map(|&r| release.rows()[r].clone()).collect();
    let sub = Table::with_rows(release.schema().clone(), sampled)?;
    let harvest = harvest_auxiliary_sequential(&sub, engine, config)?;
    Ok((rows, harvest))
}

/// Evaluates harvesting accuracy against ground truth: the fraction of
/// linked records whose pages actually belong to the release person.
///
/// Consumes the links an existing [`Harvest`] already resolved instead of
/// re-running every search and comparison, so evaluation is O(links) and
/// cannot drift from actual harvest behavior. Requires the harvest's row
/// order to match `person_ids`.
pub fn harvest_precision(
    harvest: &Harvest,
    engine: &SearchEngine,
    person_ids: &[usize],
) -> Result<f64> {
    if harvest.linked.len() != person_ids.len() {
        return Err(AttackError::MisalignedTruth {
            rows: harvest.linked.len(),
            truths: person_ids.len(),
        });
    }
    let mut correct = 0usize;
    let mut total = 0usize;
    for (row, accepted) in harvest.linked.iter().enumerate() {
        for &page_idx in accepted {
            let Some(page) = engine.page(page_idx) else {
                continue;
            };
            total += 1;
            if page.person_id == Some(person_ids[row]) {
                correct += 1;
            }
        }
    }
    Ok(if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
    use fred_web::{build_corpus, CorpusConfig, NameNoise};

    fn world() -> (
        Vec<fred_synth::PersonProfile>,
        fred_data::Table,
        SearchEngine,
    ) {
        let people = generate_population(&PopulationConfig {
            size: 50,
            web_presence_rate: 1.0,
            seed: 77,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let engine = build_corpus(
            &people,
            &CorpusConfig {
                noise: NameNoise::none(),
                pages_per_person: (2, 3),
                ..CorpusConfig::default()
            },
        );
        (people, table, engine)
    }

    #[test]
    fn harvest_covers_most_people_with_clean_names() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let h = harvest_auxiliary(&release, &engine, &HarvestConfig::default()).unwrap();
        assert_eq!(h.records.len(), 50);
        assert!(h.coverage() > 0.85, "coverage {}", h.coverage());
        assert!(h.pages_linked > 0);
        assert!(h.pages_inspected >= h.pages_linked);
    }

    #[test]
    fn harvest_precision_is_high_with_clean_names() {
        let (people, table, engine) = world();
        let ids: Vec<usize> = people.iter().map(|p| p.id).collect();
        let release = table.suppress_sensitive();
        let h = harvest_auxiliary(&release, &engine, &HarvestConfig::default()).unwrap();
        let p = harvest_precision(&h, &engine, &ids).unwrap();
        assert!(p > 0.9, "precision {p}");
    }

    #[test]
    fn harvest_precision_rejects_misaligned_truth() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let h = harvest_auxiliary(&release, &engine, &HarvestConfig::default()).unwrap();
        assert!(matches!(
            harvest_precision(&h, &engine, &[1, 2, 3]),
            Err(AttackError::MisalignedTruth { .. })
        ));
    }

    #[test]
    fn parallel_harvest_equals_sequential_reference() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let config = HarvestConfig::default();
        let parallel = harvest_auxiliary(&release, &engine, &config).unwrap();
        let sequential = harvest_auxiliary_sequential(&release, &engine, &config).unwrap();
        assert_eq!(parallel, sequential);
        // The same call on a one-thread pool (the bench's parallelism
        // denominator) agrees too.
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let single = one_thread
            .install(|| harvest_auxiliary(&release, &engine, &config))
            .unwrap();
        assert_eq!(parallel, single);
    }

    #[test]
    fn linked_pages_are_recorded_per_row() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let h = harvest_auxiliary(&release, &engine, &HarvestConfig::default()).unwrap();
        assert_eq!(h.linked.len(), h.records.len());
        let linked_total: usize = h.linked.iter().map(Vec::len).sum();
        assert_eq!(linked_total, h.pages_linked);
        // Rows with a consolidated record must have at least one link.
        for (record, links) in h.records.iter().zip(&h.linked) {
            assert_eq!(record.is_some(), !links.is_empty());
        }
    }

    #[test]
    fn harvested_records_carry_usable_attributes() {
        let (people, table, engine) = world();
        let release = table.suppress_sensitive();
        let h = harvest_auxiliary(&release, &engine, &HarvestConfig::default()).unwrap();
        let mut with_seniority = 0;
        let mut with_property = 0;
        for r in h.records.iter().flatten() {
            if r.seniority_level.is_some() {
                with_seniority += 1;
            }
            if r.property_sqft.is_some() {
                with_property += 1;
            }
        }
        assert!(with_seniority > 10, "seniority on {with_seniority} records");
        assert!(with_property > 10, "property on {with_property} records");
        let _ = people;
    }

    #[test]
    fn reference_sample_rows_are_seeded_distinct_and_clamped() {
        let a = reference_sample_rows(50, 10, 7);
        let b = reference_sample_rows(50, 10, 7);
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        assert!(a.iter().all(|&r| r < 50));
        let c = reference_sample_rows(50, 10, 8);
        assert_ne!(a, c, "different seed, different sample");
        // Oversized requests clamp to every row.
        assert_eq!(reference_sample_rows(5, 99, 0), vec![0, 1, 2, 3, 4]);
        assert!(reference_sample_rows(0, 4, 0).is_empty());
    }

    #[test]
    fn sampled_reference_agrees_with_the_full_harvest_rowwise() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let config = HarvestConfig::default();
        let full = harvest_auxiliary(&release, &engine, &config).unwrap();
        let (rows, sampled) =
            harvest_auxiliary_reference_sampled(&release, &engine, &config, 12, 99).unwrap();
        assert_eq!(rows.len(), 12);
        assert_eq!(sampled.records.len(), 12);
        for (i, &row) in rows.iter().enumerate() {
            assert_eq!(sampled.records[i], full.records[row], "row {row}");
            assert_eq!(sampled.linked[i], full.linked[row], "row {row}");
        }
    }

    #[test]
    fn tolerant_harvest_with_zero_rate_plan_is_bit_identical() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let config = HarvestConfig::default();
        let strict = harvest_auxiliary(&release, &engine, &config).unwrap();
        let (tolerant, deg) =
            harvest_auxiliary_tolerant(&release, &engine, &config, &FaultPlan::none()).unwrap();
        assert_eq!(tolerant, strict);
        assert!(deg.is_clean(), "{deg}");
    }

    #[test]
    #[should_panic(expected = "worker panic(s) contained during a strict call")]
    fn strict_rule_refuses_a_contained_worker_panic() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let plan = FaultPlan {
            worker_panic: 1.0,
            ..FaultPlan::none()
        };
        let contained = rayon::silence_panics(|| {
            harvest_auxiliary_tolerant(&release, &engine, &HarvestConfig::default(), &plan)
        })
        .unwrap();
        assert_eq!(contained.1.workers_restarted, 50, "{}", contained.1);
        // The rule `harvest_auxiliary` applies to its zero-fault run.
        strict(contained);
    }

    #[test]
    fn tolerant_harvest_contains_injected_worker_panics() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let plan = FaultPlan {
            worker_panic: 0.3,
            ..FaultPlan::uniform(21, 0.0)
        };
        let (h, deg) = rayon::silence_panics(|| {
            harvest_auxiliary_tolerant(&release, &engine, &HarvestConfig::default(), &plan)
        })
        .unwrap();
        assert_eq!(h.records.len(), 50, "every row keeps its slot");
        assert!(deg.workers_restarted > 0, "{deg}");
        // A panicked row degrades to nothing-found, never poisons peers.
        let found = h.records.iter().filter(|r| r.is_some()).count();
        assert!(found > 0);
        assert!(found + deg.workers_restarted <= 50);
    }

    #[test]
    fn tolerant_harvest_skips_dropped_rows_and_counts_them() {
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let plan = FaultPlan {
            row_drop: 0.4,
            ..FaultPlan::uniform(22, 0.0)
        };
        let (h, deg) =
            harvest_auxiliary_tolerant(&release, &engine, &HarvestConfig::default(), &plan)
                .unwrap();
        assert_eq!(h.records.len(), 50);
        assert!(deg.rows_skipped > 0, "{deg}");
        let found = h.records.iter().filter(|r| r.is_some()).count();
        assert!(found + deg.rows_skipped <= 50);
        assert!(found > 0);
    }

    #[test]
    fn tolerant_harvest_rejects_damaged_pages_and_is_deterministic() {
        use fred_web::corrupt_pages;
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let plan = FaultPlan::uniform(23, 0.25);
        let (pages, _) = corrupt_pages(engine.pages().to_vec(), &plan);
        let dirty = SearchEngine::build(pages);
        let config = HarvestConfig::default();
        let run = || {
            rayon::silence_panics(|| harvest_auxiliary_tolerant(&release, &dirty, &config, &plan))
                .unwrap()
        };
        let (a, deg_a) = run();
        let (b, deg_b) = run();
        assert_eq!(a, b, "same plan, same harvest");
        assert_eq!(deg_a, deg_b);
        assert!(deg_a.pages_rejected > 0, "{deg_a}");
        // The pipeline still stands something up from the surviving pages.
        assert!(a.coverage() > 0.0);
    }

    #[test]
    fn tolerant_harvest_counts_each_accepted_occurrence_of_a_damaged_page() {
        use fred_web::corrupt_pages;
        use std::collections::BTreeSet;
        let (_, table, engine) = world();
        let release = table.suppress_sensitive();
        let (pages, _) = corrupt_pages(engine.pages().to_vec(), &FaultPlan::uniform(31, 0.05));
        let dirty = SearchEngine::build(pages);
        let config = HarvestConfig::default();
        let clean_plan = FaultPlan::none();
        let damaged = |p: usize| extract_checked(dirty.page(p).expect("linked page")).is_err();
        // A release row that links a damaged page, released twice: both
        // copies link the same page.
        let (first, _) =
            harvest_auxiliary_tolerant(&release, &dirty, &config, &clean_plan).unwrap();
        let row = first
            .linked
            .iter()
            .position(|links| links.iter().any(|&p| damaged(p)))
            .expect("some row links a damaged page");
        let mut rows = release.rows().to_vec();
        rows.push(rows[row].clone());
        let doubled = Table::with_rows(release.schema().clone(), rows).unwrap();
        let (h, deg) = harvest_auxiliary_tolerant(&doubled, &dirty, &config, &clean_plan).unwrap();
        let occurrences: Vec<usize> = h
            .linked
            .iter()
            .flatten()
            .copied()
            .filter(|&p| damaged(p))
            .collect();
        let distinct: BTreeSet<usize> = occurrences.iter().copied().collect();
        assert!(
            occurrences.len() > distinct.len(),
            "a damaged page is linked twice"
        );
        // One rejection per accepted occurrence, not one per page: the
        // facts table parses each page once, the count stays per link.
        assert_eq!(deg.pages_rejected, occurrences.len(), "{deg}");
        assert_eq!(h.records[release.len()], h.records[row]);
    }

    #[test]
    fn empty_corpus_harvests_nothing() {
        let (_, table, _) = world();
        let release = table.suppress_sensitive();
        let empty = SearchEngine::build(vec![]);
        let h = harvest_auxiliary(&release, &empty, &HarvestConfig::default()).unwrap();
        assert_eq!(h.coverage(), 0.0);
        assert_eq!(h.pages_linked, 0);
    }

    #[test]
    fn release_without_identifiers_errors() {
        use fred_data::{Schema, Table, Value};
        let schema = Schema::builder().quasi_numeric("x").build().unwrap();
        let t = Table::with_rows(schema, vec![vec![Value::Float(1.0)]]).unwrap();
        let engine = SearchEngine::build(vec![]);
        assert!(matches!(
            harvest_auxiliary(&t, &engine, &HarvestConfig::default()),
            Err(AttackError::NoIdentifiers)
        ));
    }

    #[test]
    fn noisy_names_reduce_but_do_not_destroy_coverage() {
        let people = generate_population(&PopulationConfig {
            size: 50,
            web_presence_rate: 1.0,
            seed: 78,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let release = table.suppress_sensitive();
        let noisy_engine = build_corpus(
            &people,
            &CorpusConfig {
                noise: NameNoise::default(),
                pages_per_person: (2, 3),
                ..CorpusConfig::default()
            },
        );
        let h = harvest_auxiliary(&release, &noisy_engine, &HarvestConfig::default()).unwrap();
        assert!(h.coverage() > 0.5, "coverage {}", h.coverage());
    }
}
