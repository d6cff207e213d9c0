//! Auxiliary-data harvesting: release identifiers → web search → record
//! linkage → consolidated [`AuxRecord`]s.
//!
//! This is the step the paper describes as "he uses the customer names
//! present in the release to search for additional information about the
//! customers available on the web" (Section I), made programmatic.

use std::collections::HashMap;

use fred_data::Table;
use fred_faults::{salt, Degradation, FaultPlan, InputDefect};
use fred_linkage::{
    compare_prepared, AgreementCache, AgreementScratch, Decision, FellegiSunter, LinkKey,
    NameNormalizer, PreparedName, ScoreFloor,
};
use fred_web::{consolidate, extract, extract_checked, AuxRecord, SearchEngine, WebPage};
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
/// via the worker's [`AgreementCache`] (keyed by prepared-query id ×
/// deduplicated page-name id) and the precomputed [`ScoreFloor`], so a
/// repeated pair replays its decision and a hopeless one is pruned
/// before any string comparator runs. Decision-for-decision identical to
/// [`classify_hits`] by the floor's exactness guarantee.
#[allow(clippy::too_many_arguments)]
fn classify_hits_cached(
    hits: &[fred_web::SearchHit],
    query_id: u32,
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
        let decision =
            agreement.classify(query_id, nid, floor, query, &name_keys[nid as usize], cmp);
        match decision {
            Decision::Match => matches.push(hit.page),
            Decision::Possible if config.accept_possible => possibles.push(hit.page),
            _ => {}
        }
    }
    (select_accepted(matches, possibles), inspected)
}

/// Per-worker mutable state of the parallel harvest: search scratch and
/// term cache (per-corpus), comparator scratch, the agreement memo and
/// the dense-id interner for prepared query token sequences.
struct LinkState {
    search: fred_web::SearchScratch,
    terms: fred_web::TermCache,
    cmp: AgreementScratch,
    agreement: AgreementCache,
    query_ids: HashMap<String, u32>,
}

impl LinkState {
    fn new(engine: &SearchEngine) -> LinkState {
        LinkState {
            search: engine.scratch(),
            terms: engine.term_cache(),
            cmp: AgreementScratch::default(),
            agreement: AgreementCache::new(),
            query_ids: HashMap::new(),
        }
    }

    /// Dense id of a prepared query, by its normalized token sequence
    /// (the `joined` form determines every comparator input, so equal
    /// ids imply equal [`LinkKey`]s — the cache's contract).
    fn query_id(&mut self, query: &LinkKey) -> u32 {
        let next = self.query_ids.len() as u32;
        *self
            .query_ids
            .entry(query.prepared().joined.clone())
            .or_insert(next)
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

/// Per-corpus immutable context of the cached harvest path: the floor,
/// the deduplicated page-name ids and each distinct name's comparator
/// keys. Shared by the parallel and single-threaded variants so they run
/// the exact same classification, differing only in fan-out.
struct HarvestContext {
    normalizer: NameNormalizer,
    floor: ScoreFloor,
    page_name_ids: Vec<u32>,
    name_keys: Vec<LinkKey>,
}

impl HarvestContext {
    /// Builds the context. `parallel` controls whether the per-name key
    /// preparation fans out (the single-threaded variant keeps even this
    /// setup on one thread, so its wall-clock is a pure one-core run of
    /// the fast path).
    fn new(engine: &SearchEngine, parallel: bool) -> HarvestContext {
        let normalizer = NameNormalizer::new();
        // Blocking is provided by the search engine itself: only the
        // pages a name-query surfaces are compared, so the linker's
        // model is applied directly without a second blocking pass.
        let floor = ScoreFloor::new(&fred_linkage::default_name_model());
        let (page_name_ids, distinct_names) = engine.distinct_display_names();
        let name_keys: Vec<LinkKey> = if parallel {
            distinct_names
                .par_iter()
                .map(|name| LinkKey::prepare(&normalizer, name))
                .collect()
        } else {
            distinct_names
                .iter()
                .map(|name| LinkKey::prepare(&normalizer, name))
                .collect()
        };
        HarvestContext {
            normalizer,
            floor,
            page_name_ids,
            name_keys,
        }
    }
}

/// Per-name latency histogram: one observation per non-blank name,
/// spanning its search, classification and extraction, recorded by the
/// same routine that bumps the `harvest.names` counter — so the
/// histogram's `count` reconciles exactly with the counter in every
/// cached path (parallel, single-threaded, tolerant), which
/// `tests/obs_reconcile.rs` pins.
const HARVEST_NAME_MS: &str = "harvest.name_ms";

/// Emits one harvested name's observability deltas: pages linked and
/// inspected, the postings its search visited, plus what the memo and the
/// score floor absorbed (read as deltas over the worker's `LinkState`,
/// which lives across names). Free when tracing is off — one relaxed
/// atomic load.
fn note_harvest_metrics(
    state: &LinkState,
    postings_scanned: u64,
    lookups_before: u64,
    hits_before: u64,
    prunes_before: u64,
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
        "harvest.cache_lookups",
        state.agreement.lookups() - lookups_before,
    );
    fred_obs::counter("harvest.cache_hits", state.agreement.hits() - hits_before);
    fred_obs::counter("harvest.floor_prunes", state.cmp.prunes() - prunes_before);
}

/// One release name's harvest: the consolidated record, the accepted
/// page indices and the number of pages inspected.
type NameHarvest = (Option<AuxRecord>, Vec<usize>, usize);

/// One release name through the cached path: exact top-k search, then
/// floor/memo classification of the hits, then extraction of every
/// accepted page through `extract_page` and consolidation. The single
/// per-name routine of every cached harvest variant: the strict ones pass
/// [`extract`] (as `extract_strict`), the tolerant one passes
/// [`extract_checked`], which skips pages whose template frame is damaged
/// and counts them in the returned [`Degradation`] instead of parsing
/// them as if intact. On a clean corpus both extractors accept every
/// page, so the results agree bit for bit and the report stays clean.
fn harvest_one_name(
    name: &str,
    engine: &SearchEngine,
    config: &HarvestConfig,
    ctx: &HarvestContext,
    state: &mut LinkState,
    extract_page: impl Fn(&WebPage) -> std::result::Result<AuxRecord, InputDefect>,
) -> (NameHarvest, Degradation) {
    let mut deg = Degradation::default();
    if name.trim().is_empty() {
        return ((None, Vec::new(), 0), deg);
    }
    let started = fred_obs::is_enabled().then(std::time::Instant::now);
    let (scanned0, lookups0, hits0, prunes0) = (
        state.search.postings_scanned(),
        state.agreement.lookups(),
        state.agreement.hits(),
        state.cmp.prunes(),
    );
    let hits = engine.search_topk_with(
        name,
        config.hits_per_name,
        &mut state.search,
        &mut state.terms,
    );
    let query = LinkKey::prepare(&ctx.normalizer, name);
    let query_id = state.query_id(&query);
    let (accepted, inspected) = classify_hits_cached(
        &hits,
        query_id,
        &query,
        engine,
        config,
        &ctx.page_name_ids,
        &ctx.name_keys,
        &ctx.floor,
        &mut state.agreement,
        &mut state.cmp,
    );
    let extractions: Vec<AuxRecord> = accepted
        .iter()
        .filter_map(|&p| match extract_page(engine.page(p)?) {
            Ok(record) => Some(record),
            Err(defect) => {
                deg.record(defect);
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
        lookups0,
        hits0,
        prunes0,
        accepted.len(),
        inspected,
    );
    ((consolidate(&extractions), accepted, inspected), deg)
}

/// [`extract`] in the shape [`harvest_one_name`] takes: the strict
/// extractor never rejects a page.
fn extract_strict(page: &WebPage) -> std::result::Result<AuxRecord, InputDefect> {
    Ok(extract(page))
}

/// Fault-tolerant [`harvest_auxiliary`]: survives the dirty corpus and
/// the injected faults of a [`FaultPlan`] with skip-and-count semantics
/// instead of panicking, returning the harvest plus its [`Degradation`]
/// report.
///
/// Three things differ from the strict path, each degrading one row at
/// worst: an identifier row the plan drops harvests nothing
/// (`rows_skipped`); a worker panic on a row — injected by the plan, or
/// any real one — is contained by the pool's tolerant entry point and
/// costs that row only (`workers_restarted`); and a linked page whose
/// template frame is damaged is skipped and counted (`pages_rejected`)
/// rather than parsed. Under a zero-rate plan on a clean corpus the
/// result is bit-identical to [`harvest_auxiliary`] with a clean report
/// (pinned by property test).
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
    let items: Vec<(usize, String)> = release
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
                (row, String::new())
            } else {
                (row, name)
            }
        })
        .collect();
    let ctx = HarvestContext::new(engine, true);
    let (results, _caught) = rayon::map_catch_init(
        items,
        || LinkState::new(engine),
        |state, (row, name)| {
            if plan.decide(plan.worker_panic, salt::WORKER_PANIC, row as u64) {
                panic!("injected worker fault at harvest row {row}");
            }
            harvest_one_name(&name, engine, config, &ctx, state, extract_checked)
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

/// Harvests auxiliary data for every identifier in the release.
///
/// For each release name: query the search engine, compare each hit's
/// display name against the release name with the full linkage feature set,
/// keep pages classified Match (and optionally Possible), and consolidate
/// their extractions into one [`AuxRecord`].
///
/// The per-name loop runs across worker threads, each with its own search
/// scratch, term cache, comparator scratch and [`AgreementCache`]. Page
/// display names are *deduplicated* once for the whole corpus (several
/// pages per person, most rendered verbatim) and each distinct name's
/// comparator keys ([`LinkKey`]) built up front in parallel; each query
/// then runs through the engine's exact top-k searcher
/// ([`SearchEngine::search_topk_with`]) and classifies its hits through
/// the precomputed [`ScoreFloor`] — repeated (query, page-name) pairs
/// replay their memoized decision, hopeless pairs are pruned before any
/// string comparison. Results are row-order stable and
/// record-for-record identical to [`harvest_auxiliary_sequential`]
/// (pinned by property test).
pub fn harvest_auxiliary(
    release: &Table,
    engine: &SearchEngine,
    config: &HarvestConfig,
) -> Result<Harvest> {
    let id_cols = release.identifier_columns();
    if id_cols.is_empty() {
        return Err(AttackError::NoIdentifiers);
    }
    let names = release.identifier_strings();
    let ctx = HarvestContext::new(engine, true);
    let per_name: Vec<NameHarvest> = names
        .into_par_iter()
        .map_init(
            || LinkState::new(engine),
            |state, name| harvest_one_name(&name, engine, config, &ctx, state, extract_strict).0,
        )
        .collect();
    Ok(assemble(per_name))
}

/// [`harvest_auxiliary`] pinned to one thread: the identical cached path
/// (same context, same per-name routine, one `LinkState` reused for
/// the whole loop), with no fan-out anywhere — even the comparator-key
/// preparation runs inline.
///
/// This is the denominator of the bench's harvest-parallelism ratio:
/// dividing it by the parallel wall-clock isolates what the worker
/// threads buy, with the algorithmic gains (top-k search, floor, memo)
/// present in both numerator and denominator. Results are bit-identical
/// to [`harvest_auxiliary`] — classification is deterministic and the
/// memo is exact, so fan-out width cannot change a single record.
pub fn harvest_auxiliary_single_threaded(
    release: &Table,
    engine: &SearchEngine,
    config: &HarvestConfig,
) -> Result<Harvest> {
    let id_cols = release.identifier_columns();
    if id_cols.is_empty() {
        return Err(AttackError::NoIdentifiers);
    }
    let names = release.identifier_strings();
    let ctx = HarvestContext::new(engine, false);
    let mut state = LinkState::new(engine);
    let per_name: Vec<NameHarvest> = names
        .iter()
        .map(|name| harvest_one_name(name, engine, config, &ctx, &mut state, extract_strict).0)
        .collect();
    Ok(assemble(per_name))
}

/// The plain one-name-at-a-time harvest loop the parallel
/// [`harvest_auxiliary`] is pinned against: same search engine, same
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
        let extractions: Vec<AuxRecord> = accepted
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
        // The one-thread run of the same cached path (the bench's
        // parallelism denominator) agrees too.
        let single = harvest_auxiliary_single_threaded(&release, &engine, &config).unwrap();
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
