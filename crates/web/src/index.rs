//! A miniature search engine over the corpus: inverted index with TF-IDF
//! ranking. This is the "index into the web" the paper's intruder uses.
//!
//! Index tokens are *interned*: each distinct token string is stored once
//! in the term table and postings live in dense per-term vectors keyed by
//! term id (the corpus keys on ~a hundred distinct name tokens, so
//! interning removes almost all per-posting string traffic). Two postings
//! orders are kept per term: page-ascending (the classic scan + binary
//! search order) and score-contribution-descending (the order the top-k
//! searcher consumes, enabling its early exit). The top-k searcher also
//! walks a query's two most common terms as one pair list of the pages
//! holding both: built lazily in the batch's [`TermCache`], or up front
//! for a whole batch of queries ([`SearchEngine::pair_lists`]) and shared
//! read-only by every worker's cache.

use crate::page::{tokenize, WebPage};
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a. The build interner and the query token lookups hash hundreds
/// of thousands of short tokens; the default SipHash costs more than the
/// rest of the merge combined.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// An inverted-index search engine over [`WebPage`]s.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    pages: Vec<WebPage>,
    /// Interned token → dense term id.
    terms: FnvMap<String, u32>,
    /// Per-term postings `(page, term frequency)`, page-ascending (by
    /// construction: pages are merged in ascending order).
    postings: Vec<Vec<(u32, u32)>>,
    /// Per-term postings re-sorted by score contribution: `tf`
    /// descending, then page ascending. Fuel for
    /// [`search_topk_with`](SearchEngine::search_topk_with)'s early exit.
    by_contribution: Vec<Vec<(u32, u32)>>,
    /// Per-term IDF (`ln(n / df) + 1`), precomputed at build.
    idf: Vec<f64>,
}

/// A corpus's page display names, deduplicated; see
/// [`SearchEngine::distinct_display_names`].
#[derive(Debug, Clone)]
pub struct DisplayNames<'e> {
    /// Each page's dense name id: an index into `names`.
    pub page_name_ids: Vec<u32>,
    /// The distinct display names, in first-occurrence order.
    pub names: Vec<&'e str>,
    ids: FnvMap<&'e str, u32>,
}

impl DisplayNames<'_> {
    /// The id of `name`, when some page displays it.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }
}

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Index into [`SearchEngine::pages`].
    pub page: usize,
    /// TF-IDF relevance score.
    pub score: f64,
}

/// One posting's score contribution. Name pages carry each token once, so
/// `tf == 1` is the hot case; `(1 + ln 1) · idf` is exactly `idf`, so
/// skipping the logarithm there changes no bit.
#[inline]
fn contribution(tf: u32, idf: f64) -> f64 {
    if tf == 1 {
        return idf;
    }
    (1.0 + f64::from(tf).ln()) * idf
}

/// Distinct lowercased tokens of one page in first-occurrence order with
/// term frequencies. Produces exactly the tokens of
/// [`tokenize`]`(text)` (ASCII tokens are lowercased into the reusable
/// `buf`, everything else falls back to `str::to_lowercase`) but without
/// per-repeat allocation or hashing: a page holds a few dozen distinct
/// tokens, so counting is a linear scan.
fn page_term_counts(text: &str, buf: &mut String, out: &mut Vec<(String, u32)>) {
    out.clear();
    for raw in text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
    {
        buf.clear();
        if raw.is_ascii() {
            for b in raw.bytes() {
                buf.push(b.to_ascii_lowercase() as char);
            }
        } else {
            buf.push_str(&raw.to_lowercase());
        }
        match out.iter_mut().find(|(t, _)| t == buf) {
            Some((_, count)) => *count += 1,
            None => out.push((buf.clone(), 1)),
        }
    }
}

/// The `(score desc, page asc)` hit total order used everywhere.
#[inline]
fn hit_beats(score: f64, page: u32, best_score: f64, best_page: u32) -> bool {
    score > best_score || (score == best_score && page < best_page)
}

/// The first position at or after `from` whose page is not below `page`
/// in page-ascending `postings` (`postings.len()` when there is none),
/// given that every page before `from` is below it: an exponential probe
/// from `from`, then a binary search inside the last step. A lookup
/// that lands `d` entries on costs `O(log d)`, not `O(log len)`.
#[inline]
fn gallop_to(postings: &[(u32, u32)], from: usize, page: u32) -> usize {
    let below = |&(p, _): &(u32, u32)| p < page;
    let mut lo = from;
    let mut step = 1;
    while lo + step < postings.len() && below(&postings[lo + step]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(postings.len());
    match postings.get(lo) {
        Some(entry) if below(entry) => lo + 1 + postings[lo + 1..hi].partition_point(below),
        _ => lo,
    }
}

/// One pair-list entry: a page holding both terms of a pair, with the
/// term frequency of the lower and of the higher term id.
type PairPosting = (u32, u32, u32);

/// A pair list is built only when the shorter member list is longer than
/// this. Below it, walking the shorter member as a single list reads at
/// most that many postings, about what the build (a merge of both
/// members plus an allocation) would cost, and a small corpus rarely
/// repeats a pair within one batch to pay the build back.
const PAIR_MIN_POSTINGS: usize = 64;

/// The pages holding both `lo` and `hi` (term ids, `lo < hi`), merged
/// from their page-ascending postings and sorted by pair contribution
/// descending, then page ascending, plus the merge steps it took. The
/// contribution `c_lo + c_hi` is the float score of a page that holds no
/// other query term, whatever the query order (float addition commutes).
fn build_pair_list(engine: &SearchEngine, lo: u32, hi: u32) -> (Box<[PairPosting]>, u64) {
    let (a, b) = (&engine.postings[lo as usize], &engine.postings[hi as usize]);
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let ((pa, tfa), (pb, tfb)) = (a[i], b[j]);
        if pa == pb {
            pairs.push((pa, tfa, tfb));
        }
        // Branch-free advance: the two lists interleave unpredictably.
        i += usize::from(pa <= pb);
        j += usize::from(pb <= pa);
    }
    // Stable, so pages stay ascending within equal contributions; most
    // entries share the tf = 1 contribution, so the list is a few
    // presorted runs and the sort close to linear.
    let key = |&(_, tfa, tfb): &PairPosting| pair_contribution(engine, lo, hi, tfa, tfb);
    pairs.sort_by(|x, y| key(y).total_cmp(&key(x)));
    (pairs.into_boxed_slice(), (i + j) as u64)
}

/// A pair-list entry's contribution: the two member contributions added.
#[inline]
fn pair_contribution(engine: &SearchEngine, lo: u32, hi: u32, tf_lo: u32, tf_hi: u32) -> f64 {
    contribution(tf_lo, engine.idf[lo as usize]) + contribution(tf_hi, engine.idf[hi as usize])
}

/// The walk order of a query's resolved term ids (query order,
/// duplicates kept) into `scan`: distinct lists, rarest first (stable on
/// equal lengths), so the upper bound collapses as early as possible.
fn walk_order(engine: &SearchEngine, resolved: &[u32], scan: &mut Vec<u32>) {
    scan.clear();
    scan.extend_from_slice(resolved);
    scan.sort_unstable();
    scan.dedup();
    scan.sort_by_key(|&t| engine.postings[t as usize].len());
}

/// The `(lower, higher)` term ids of the pair list a query walks, given
/// its resolved terms and their [`walk_order`]: its two most common
/// terms, when each occurs once in the query and the pair list can pay
/// for itself.
fn query_pair(engine: &SearchEngine, resolved: &[u32], scan: &[u32]) -> Option<(u32, u32)> {
    let n = scan.len();
    let once = |t: u32| resolved.iter().filter(|&&r| r == t).count() == 1;
    (n >= 2)
        .then(|| (scan[n - 2], scan[n - 1]))
        .filter(|&(a, b)| {
            engine.postings[a as usize].len() > PAIR_MIN_POSTINGS && once(a) && once(b)
        })
        .map(|(a, b)| (a.min(b), a.max(b)))
}

/// The state of one query's top-`limit` scan, shared by every list it
/// walks; its buffers live in the caller's [`SearchScratch`].
struct Scan<'q> {
    engine: &'q SearchEngine,
    /// The query's term ids in query order, duplicates kept.
    resolved: &'q [u32],
    /// `slot[i]`: the walk position of the list of `resolved[i]`.
    slot: &'q [usize],
    /// Head (largest) contribution of each term list, by walk position.
    head: &'q mut [f64],
    /// `exhausted[j]`: a page first seen from here on is absent from
    /// list `j`, so scoring skips that term without a lookup. Set once a
    /// list has been walked to its end, and for both members once their
    /// pair list has (only their own lists are left to walk).
    exhausted: &'q mut [bool],
    /// `cursor[j]`: a position in the page-ascending postings of list
    /// `j` below which every page is smaller than the current run's
    /// frontier. Pages ascend within a run, so each lookup gallops on
    /// from the last one instead of binary-searching the whole list;
    /// reset at every run start.
    cursor: &'q mut [usize],
    /// Page `p` was already scored by this query iff
    /// `mark[p] == epoch`.
    mark: &'q mut [u32],
    epoch: u32,
    tracker: &'q mut TopHits,
    visited: u64,
}

impl Scan<'_> {
    /// Walks one list in `(contribution desc, page asc)` order, one
    /// equal-contribution run at a time, and reports whether it reached
    /// the end. `run_key` identifies a run, `own(entry, j)` is the
    /// entry's contribution for the term at walk position `j` when the
    /// list carries it, and `last` is the walk position of the list's
    /// last term: the lists after it are not yet walked.
    fn walk<E: Copy>(
        &mut self,
        list: &[E],
        last: usize,
        page_of: impl Fn(E) -> u32,
        run_key: impl Fn(E) -> u64,
        own: impl Fn(E, usize) -> Option<f64>,
    ) -> bool {
        let mut completed = true;
        let mut at = 0;
        while at < list.len() {
            // The most an unseen page of this run can score, summed in
            // query-term order like the score itself: the run's own
            // contributions, the head of every later list, nothing from
            // earlier lists (an unseen page is absent from them, or sits
            // in a remainder an earlier exit already ruled out).
            // Rounding is monotone and every term is non-negative, so no
            // such page's float score exceeds `ub`.
            let ub = self
                .slot
                .iter()
                .fold(0.0f64, |ub, &s| match own(list[at], s) {
                    Some(c) => ub + c,
                    None if s > last => ub + self.head[s],
                    None => ub,
                });
            if self.tracker.is_full() && ub < self.tracker.worst().0 {
                // The exit below, taken before searching for the run's
                // end: most lists walked after a pair list end here.
                return false;
            }
            let key = run_key(list[at]);
            let run_end = at + list[at..].partition_point(|&e| run_key(e) == key);
            self.cursor.fill(0);
            for &entry in &list[at..run_end] {
                let page = page_of(entry);
                if self.tracker.is_full() {
                    let (kth_score, kth_page) = self.tracker.worst();
                    if ub < kth_score {
                        // No page of this list's remainder can reach the
                        // boundary: later runs only bound lower, and the
                        // boundary only rises from here. (Pages of the
                        // remainder that also sit in a later list still
                        // get scored there, via the lookup path.)
                        return false;
                    }
                    if ub == kth_score && page > kth_page {
                        // Tie at the boundary: the rest of this run can
                        // at best tie the k-th score with a larger page
                        // id, which loses the `(score desc, page asc)`
                        // tie-break. Lower runs may round to the same
                        // bound yet restart at small page ids, so move
                        // on to the next run instead of leaving the list.
                        completed = false;
                        break;
                    }
                }
                self.visited += 1;
                if self.mark[page as usize] == self.epoch {
                    continue; // already scored on first sight
                }
                self.mark[page as usize] = self.epoch;
                // Full exact score, accumulated in query-term order: the
                // same addition sequence as the exhaustive path. The
                // list's own terms contribute their known tfs; terms
                // whose lists were already exhausted cannot contain a
                // page first seen here; everything else is a galloping
                // search from the term's cursor.
                let mut score = 0.0f64;
                for (&t, &s) in self.resolved.iter().zip(self.slot) {
                    if let Some(c) = own(entry, s) {
                        score += c;
                    } else if !self.exhausted[s] {
                        let postings = &self.engine.postings[t as usize];
                        let pos = gallop_to(postings, self.cursor[s], page);
                        self.cursor[s] = pos;
                        if let Some(&(p, tf)) = postings.get(pos) {
                            if p == page {
                                score += contribution(tf, self.engine.idf[t as usize]);
                            }
                        }
                    }
                }
                self.tracker.offer(score, page);
            }
            at = run_end;
        }
        completed
    }
}

/// The early-exit top-`limit` scan of [`SearchEngine::search_topk_with`]
/// over the query's resolved term ids (query order, duplicates kept) in
/// `scratch.resolved`. Every page first seen gets its full score in
/// query term order, and the bound argument documented on
/// `search_topk_with` holds for any walk order.
fn topk_scan(
    engine: &SearchEngine,
    limit: usize,
    scratch: &mut SearchScratch,
    cache: &mut TermCache,
) -> Vec<SearchHit> {
    let idf = &engine.idf;
    scratch.begin(engine.pages.len());
    let SearchScratch {
        mark,
        epoch,
        postings_scanned,
        resolved,
        scan,
        slot,
        head,
        exhausted,
        cursor,
        tracker,
        ..
    } = scratch;
    walk_order(engine, resolved, scan);
    let scan: &[u32] = scan;
    let n = scan.len();
    slot.clear();
    slot.extend(resolved.iter().map(|t| {
        scan.iter()
            .position(|s| s == t)
            .expect("scan holds every token")
    }));
    head.clear();
    head.extend(scan.iter().map(|&t| {
        engine.by_contribution[t as usize]
            .first()
            .map_or(0.0, |&(_, tf)| contribution(tf, idf[t as usize]))
    }));
    exhausted.clear();
    exhausted.resize(n, false);
    cursor.clear();
    cursor.resize(n, 0);
    tracker.reset(limit);
    // The two most common terms are walked as a pair list before their
    // own lists.
    let pair = query_pair(engine, resolved, scan)
        .map(|(lo, hi)| (cache.pair_list(engine, lo, hi), lo, hi));

    let mut state = Scan {
        engine,
        resolved,
        slot,
        head,
        exhausted,
        cursor,
        mark,
        epoch: *epoch,
        tracker,
        visited: 0,
    };
    let walk_single = |state: &mut Scan, li: usize| {
        let tid = scan[li] as usize;
        let completed = state.walk(
            &engine.by_contribution[tid],
            li,
            |(page, _)| page,
            |(_, tf)| u64::from(tf),
            |(_, tf), s| (s == li).then(|| contribution(tf, idf[tid])),
        );
        state.exhausted[li] |= completed;
    };
    let singles_before_pair = if pair.is_some() { n - 2 } else { n };
    for li in 0..singles_before_pair {
        walk_single(&mut state, li);
    }
    if let Some((list, lo, hi)) = pair {
        let (slot_lo, slot_hi) = if scan[n - 2] == lo {
            (n - 2, n - 1)
        } else {
            (n - 1, n - 2)
        };
        let completed = state.walk(
            list,
            n - 1,
            |(page, _, _)| page,
            |(_, tf_lo, tf_hi)| pair_contribution(engine, lo, hi, tf_lo, tf_hi).to_bits(),
            |(_, tf_lo, tf_hi), s| {
                if s == slot_lo {
                    Some(contribution(tf_lo, idf[lo as usize]))
                } else if s == slot_hi {
                    Some(contribution(tf_hi, idf[hi as usize]))
                } else {
                    None
                }
            },
        );
        // A page unseen after the pair list that holds both members sits
        // in a remainder the walk ruled out, so the first member's bound
        // drops the second's head. If the walk reached the end, no
        // unseen page holds both: a page first seen in one member's list
        // is absent from the other's.
        state.head[n - 1] = 0.0;
        if completed {
            state.exhausted[n - 2] = true;
            state.exhausted[n - 1] = true;
        }
        for li in n - 2..n {
            walk_single(&mut state, li);
        }
    }
    *postings_scanned += state.visited;
    state.tracker.hits()
}

impl SearchEngine {
    /// Builds the index over a corpus of pages.
    ///
    /// Per-page tokenization (the hot part of world build at large corpus
    /// sizes) runs across worker threads; each page's counts come out in
    /// first-occurrence order — a function of the text alone — so the
    /// sequential page-order merge, and therefore the whole index, is
    /// identical regardless of thread count.
    pub fn build(pages: Vec<WebPage>) -> Self {
        let page_counts: Vec<Vec<(String, u32)>> = pages
            .par_iter()
            .map_init(String::new, |buf, page| {
                let mut counts = Vec::new();
                page_term_counts(&page.text, buf, &mut counts);
                counts
            })
            .collect();

        let mut terms: FnvMap<String, u32> = FnvMap::default();
        let mut postings: Vec<Vec<(u32, u32)>> = Vec::new();
        for (pi, counts) in page_counts.into_iter().enumerate() {
            for (tok, count) in counts {
                let next_id = postings.len() as u32;
                let id = *terms.entry(tok).or_insert(next_id);
                if id == next_id {
                    postings.push(Vec::new());
                }
                postings[id as usize].push((pi as u32, count));
            }
        }

        let n = pages.len() as f64;
        let idf: Vec<f64> = postings
            .iter()
            .map(|p| (n / p.len() as f64).ln() + 1.0)
            .collect();
        let by_contribution: Vec<Vec<(u32, u32)>> = postings
            .par_iter()
            .map(|p| {
                let mut sorted = p.clone();
                sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                sorted
            })
            .collect();
        SearchEngine {
            pages,
            terms,
            postings,
            by_contribution,
            idf,
        }
    }

    /// Number of pages indexed.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The indexed pages.
    pub fn pages(&self) -> &[WebPage] {
        &self.pages
    }

    /// Page by index.
    pub fn page(&self, idx: usize) -> Option<&WebPage> {
        self.pages.get(idx)
    }

    /// Deduplicates page display names: each page's dense name id, the
    /// distinct names in first-occurrence order, and a lookup from a name
    /// to its id.
    ///
    /// A corpus renders several pages per person and most display names
    /// verbatim, so the distinct-name set is a fraction of the page
    /// count. Name-comparison consumers (the harvest's agreement cache
    /// and its per-name comparator keys) key their work on the name id
    /// instead of the page id and skip the duplicates entirely.
    ///
    /// The map is sized for every page up front: at 100k rows four in five
    /// display names are distinct, and a map grown by doubling re-hashes
    /// each name about twice more.
    pub fn distinct_display_names(&self) -> DisplayNames<'_> {
        let mut page_name_ids = Vec::with_capacity(self.pages.len());
        let mut ids: FnvMap<&str, u32> =
            FnvMap::with_capacity_and_hasher(self.pages.len(), Default::default());
        let mut names: Vec<&str> = Vec::new();
        for page in &self.pages {
            let next = names.len() as u32;
            let id = *ids.entry(&page.display_name).or_insert(next);
            if id == next {
                names.push(&page.display_name);
            }
            page_name_ids.push(id);
        }
        DisplayNames {
            page_name_ids,
            names,
            ids,
        }
    }

    /// Searches for pages matching the query, ranked by summed TF-IDF of
    /// the query terms. Returns at most `limit` hits.
    ///
    /// This mirrors a name search: querying `"Robert Smith"` scores pages
    /// mentioning both tokens highest, with rare surnames dominating.
    /// This is the exhaustive reference path: every posting of every
    /// query term is scanned and the full candidate set sorted. The
    /// accelerated path ([`search_topk_with`](SearchEngine::search_topk_with))
    /// is pinned bit-identical to it by property test.
    pub fn search(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        let terms = tokenize(query);
        if terms.is_empty() || self.pages.is_empty() {
            return Vec::new();
        }
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for term in &terms {
            if let Some(&tid) = self.terms.get(term) {
                let idf = self.idf[tid as usize];
                for &(page, tf) in &self.postings[tid as usize] {
                    *scores.entry(page as usize).or_insert(0.0) += contribution(tf, idf);
                }
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(page, score)| SearchHit { page, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.page.cmp(&b.page))
        });
        hits.truncate(limit);
        hits
    }

    /// A reusable scratch sized for this corpus; see
    /// [`search_topk_with`](SearchEngine::search_topk_with).
    pub fn scratch(&self) -> SearchScratch {
        SearchScratch {
            mark: vec![0; self.pages.len()],
            ..SearchScratch::default()
        }
    }

    /// An empty per-batch term cache; see
    /// [`search_topk_with`](SearchEngine::search_topk_with).
    pub fn term_cache(&self) -> TermCache {
        TermCache::default()
    }

    /// A per-worker term cache that reads `pairs` (built by
    /// [`pair_lists`](SearchEngine::pair_lists) for the worker's batch)
    /// before building any pair list of its own.
    pub fn term_cache_sharing(&self, pairs: Arc<PairLists>) -> TermCache {
        TermCache {
            shared: Some(pairs),
            ..TermCache::default()
        }
    }

    /// The term ids of `query`'s tokens that the index holds, in query
    /// order with duplicates kept, into `resolved`: the tokens of
    /// [`tokenize`]`(query)`, lowercased into the reusable `token` (ASCII
    /// in place, anything else through `str::to_lowercase`).
    fn resolve_query(&self, query: &str, token: &mut String, resolved: &mut Vec<u32>) {
        resolved.clear();
        for raw in query
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
        {
            token.clear();
            if raw.is_ascii() {
                token.extend(raw.bytes().map(|b| char::from(b.to_ascii_lowercase())));
            } else {
                token.push_str(&raw.to_lowercase());
            }
            resolved.extend(self.terms.get(token.as_str()));
        }
    }

    /// Builds, on the pool, the pair list of every distinct pair that
    /// [`search_topk_with`](SearchEngine::search_topk_with)`(q, limit, ..)`
    /// walks for some `q` of `queries`, each once. Worker caches made by
    /// [`term_cache_sharing`](SearchEngine::term_cache_sharing) then read
    /// them instead of each merging the same lists again, so the batch's
    /// merge work is that of one lazily filled cache, whatever the
    /// number of workers.
    pub fn pair_lists<Q: AsRef<str> + Sync>(&self, queries: &[Q], limit: usize) -> PairLists {
        if limit == 0 || self.pages.is_empty() {
            return PairLists::default();
        }
        let mut pairs: Vec<(u32, u32)> = queries
            .par_iter()
            .map_init(
                || (String::new(), Vec::new(), Vec::new()),
                |(token, resolved, scan), query| {
                    self.resolve_query(query.as_ref(), token, resolved);
                    walk_order(self, resolved, scan);
                    query_pair(self, resolved, scan)
                },
            )
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let built: Vec<(Box<[PairPosting]>, u64)> = pairs
            .par_iter()
            .map(|&(lo, hi)| build_pair_list(self, lo, hi))
            .collect();
        let mut lists = PairLists::default();
        for ((lo, hi), (list, merged)) in pairs.into_iter().zip(built) {
            lists.lists.insert((lo, hi), list);
            lists.postings_merged += merged;
        }
        lists
    }

    /// Top-`limit` search with early exit — the harvest fast path.
    ///
    /// Exact, not approximate: returns precisely what
    /// [`search`](SearchEngine::search) returns (same pages, same
    /// bit-identical scores, same order), established as follows.
    ///
    /// * Term lists are scanned rarest-first in their pre-sorted
    ///   `(tf desc, page asc)` order, one equal-tf run at a time. The
    ///   maximum score any *unseen* page of the current run could reach
    ///   (`ub`: the run's contribution plus the best contribution of
    ///   every unscanned list, added in query-term order like a real
    ///   score, so float rounding cannot push a page past it) only
    ///   decreases from run to run.
    /// * A page's full score is computed the moment it is first seen, by
    ///   galloping through every other query term's page-ascending
    ///   postings and accumulating in query-term order — the exact
    ///   float-addition sequence of the exhaustive path.
    /// * Once `limit` candidates are held and `ub` falls strictly below
    ///   the current `limit`-th best score, no unseen page can enter the
    ///   result, so the rest of the list is never touched.
    /// * Once `limit` candidates are held, `ub` *equals* the `limit`-th
    ///   best score and the frontier page id exceeds that hit's page, the
    ///   rest of the run is skipped too: its pages are page-ascending, so
    ///   each can at best tie the boundary score with a larger page id,
    ///   which loses the `(score desc, page asc)` tie-break. This is the
    ///   harvest's common case — name pages carry each token once, so a
    ///   common first-name list is one long tf = 1 run whose every page
    ///   ties the boundary. The scan resumes at the next (lower-tf) run
    ///   rather than leaving the list: a lower contribution can round to
    ///   the same `ub` and restart at small page ids.
    /// * The query's two most common distinct terms `a` and `b` are
    ///   walked as one *pair list* after the rarer lists and before
    ///   their own: the pages holding both, sorted by
    ///   `c_a + c_b` descending, then page ascending, with both tfs
    ///   stored. A page of the list that holds no other query term
    ///   scores exactly `c_a + c_b` (the absent terms add nothing in
    ///   query order, and float addition commutes), so
    ///   each equal-contribution run has `ub = c_a + c_b`, and the exit
    ///   and the boundary-tie skip above apply unchanged. A page holding
    ///   another, rarer term was seen in that term's list or sits in a
    ///   remainder its exit ruled out.
    /// * After the pair list, every unseen page holding both `a` and `b`
    ///   sits in a remainder the pair walk ruled out, so the bound of
    ///   `a`'s own list drops `b`'s head, and the common case exits
    ///   before its first posting. When the pair walk reached the end,
    ///   a page first seen in one member's list is absent from the
    ///   other's and skips that lookup.
    ///
    /// The pair list is read from the [`PairLists`] `cache` shares, if
    /// it holds it; otherwise it is built on first use by merging the two
    /// page-ascending postings lists, and kept in `cache` for the rest of
    /// the batch ([`TermCache::pair_postings_merged`] counts the merge
    /// steps). Where a member repeats in the query, or the shorter member
    /// list is too short for the build to pay, the terms are walked as
    /// single lists.
    ///
    /// Selection is a bounded worst-out tracker instead of a full sort of
    /// every candidate, which is the other constant-factor win at harvest
    /// scale (hundreds of candidates, `limit` of eight). The tokens, term
    /// ids, walk order, bounds, cursors and tracker live in `scratch`, so
    /// a query allocates only the hits it returns (and a pair list on its
    /// first use).
    pub fn search_topk_with(
        &self,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        if limit == 0 || self.pages.is_empty() {
            return Vec::new();
        }
        // Query-order term ids (duplicates kept: they contribute twice,
        // exactly like the exhaustive accumulation).
        self.resolve_query(query, &mut scratch.token, &mut scratch.resolved);
        if scratch.resolved.is_empty() {
            return Vec::new();
        }
        topk_scan(self, limit, scratch, cache)
    }

    /// [`search_topk_with`](SearchEngine::search_topk_with) with one-shot
    /// scratch (convenience for tests and single queries).
    pub fn search_topk(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        let mut scratch = self.scratch();
        let mut cache = self.term_cache();
        self.search_topk_with(query, limit, &mut scratch, &mut cache)
    }
}

/// Bounded best-`k` tracker under the `(score desc, page asc)` hit order:
/// a candidate enters only by beating the current worst member, so the
/// final contents are exactly the unique k-best set.
#[derive(Debug, Clone, Default)]
struct TopHits {
    k: usize,
    items: Vec<(f64, u32)>,
    /// Index of the current worst member once full.
    worst: usize,
}

impl TopHits {
    /// Empties the tracker for a query keeping the best `k`.
    fn reset(&mut self, k: usize) {
        self.k = k;
        self.items.clear();
        self.worst = 0;
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.items.len() == self.k
    }

    /// The current worst `(score, page)`; only meaningful when full.
    #[inline]
    fn worst(&self) -> (f64, u32) {
        self.items[self.worst]
    }

    #[inline]
    fn offer(&mut self, score: f64, page: u32) {
        if self.items.len() < self.k {
            self.items.push((score, page));
            if self.items.len() == self.k {
                self.find_worst();
            }
        } else {
            let (ws, wp) = self.items[self.worst];
            if hit_beats(score, page, ws, wp) {
                self.items[self.worst] = (score, page);
                self.find_worst();
            }
        }
    }

    fn find_worst(&mut self) {
        let mut wi = 0;
        for i in 1..self.items.len() {
            let (s, p) = self.items[i];
            let (ws, wp) = self.items[wi];
            // `i` is worse than `wi` when `wi` beats it.
            if hit_beats(ws, wp, s, p) {
                wi = i;
            }
        }
        self.worst = wi;
    }

    /// The held hits, best first.
    fn hits(&mut self) -> Vec<SearchHit> {
        self.items.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        self.items
            .iter()
            .map(|&(score, page)| SearchHit {
                page: page as usize,
                score,
            })
            .collect()
    }
}

/// Reusable per-query state of [`SearchEngine::search_topk_with`]: a
/// dense first-seen mark per page, generation-stamped so resetting between
/// queries is O(1) instead of O(pages), and the buffers one query's scan
/// fills, kept so a query allocates only the hits it returns.
#[derive(Debug, Clone, Default)]
pub struct SearchScratch {
    /// Page `p` was already scored by the current query iff
    /// `mark[p] == epoch`.
    mark: Vec<u32>,
    epoch: u32,
    /// Running total of postings the top-k scan has visited.
    postings_scanned: u64,
    /// One query token, lowercased.
    token: String,
    /// The query's term ids in query order, duplicates kept.
    resolved: Vec<u32>,
    /// The query's distinct term ids in walk order.
    scan: Vec<u32>,
    /// The per-list state of [`Scan`], by walk position.
    slot: Vec<usize>,
    head: Vec<f64>,
    exhausted: Vec<bool>,
    cursor: Vec<usize>,
    tracker: TopHits,
}

impl SearchScratch {
    /// Postings visited by every [`SearchEngine::search_topk_with`] run
    /// with this scratch: a deterministic work counter. Read it before and
    /// after a query for that query's cost. Postings passed over by an
    /// early exit or a boundary-tie skip are not counted.
    pub fn postings_scanned(&self) -> u64 {
        self.postings_scanned
    }

    fn begin(&mut self, pages: usize) {
        if self.mark.len() < pages {
            self.mark.resize(pages, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale marks could alias the fresh epoch.
            self.mark.fill(0);
            self.epoch = 1;
        }
    }
}

/// Pair lists by `(lower term id, higher term id)`: every page that holds
/// both terms, sorted by pair contribution descending, then page
/// ascending. Built for a whole batch by [`SearchEngine::pair_lists`] and
/// shared read-only by worker caches, or filled lazily inside one
/// [`TermCache`].
#[derive(Debug, Default)]
pub struct PairLists {
    lists: FnvMap<(u32, u32), Box<[PairPosting]>>,
    /// Running total of postings merged to build `lists`.
    postings_merged: u64,
}

impl PairLists {
    /// Postings merged to build these lists: a deterministic work
    /// counter.
    pub fn postings_merged(&self) -> u64 {
        self.postings_merged
    }

    /// The list of `(lo, hi)`, built and kept on first use.
    fn get_or_build(&mut self, engine: &SearchEngine, lo: u32, hi: u32) -> &[PairPosting] {
        let PairLists {
            lists,
            postings_merged,
        } = self;
        lists.entry((lo, hi)).or_insert_with(|| {
            let (list, merged) = build_pair_list(engine, lo, hi);
            *postings_merged += merged;
            list
        })
    }
}

/// Per-batch memo against one [`SearchEngine`]: the pair lists
/// [`SearchEngine::search_topk_with`] walks, read from a shared
/// [`PairLists`] when the cache was made with one, else built on first
/// use and kept.
#[derive(Debug, Default)]
pub struct TermCache {
    shared: Option<Arc<PairLists>>,
    own: PairLists,
}

impl TermCache {
    /// Postings merged to build the pair lists this cache built itself:
    /// a deterministic work counter. A pair list is built once per cache,
    /// so a batch pays for it once however many of its queries reuse it;
    /// lists read from a shared [`PairLists`] count there.
    pub fn pair_postings_merged(&self) -> u64 {
        self.own.postings_merged
    }

    /// The pair list of `(lo, hi)`: the shared one if there is one, else
    /// this cache's own, built on first use.
    fn pair_list(&mut self, engine: &SearchEngine, lo: u32, hi: u32) -> &[PairPosting] {
        if let Some(list) = self.shared.as_deref().and_then(|s| s.lists.get(&(lo, hi))) {
            return list;
        }
        self.own.get_or_build(engine, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn corpus() -> SearchEngine {
        let pages = vec![
            WebPage::render(
                0,
                Some(0),
                PageKind::Homepage,
                "Robert Smith",
                "CEO",
                "Microsoft",
                Some(5430.0),
            ),
            WebPage::render(
                1,
                Some(1),
                PageKind::Directory,
                "Alice Walker",
                "Manager",
                "Verizon",
                None,
            ),
            WebPage::render(
                2,
                Some(0),
                PageKind::PropertyRecord,
                "Robert Smith",
                "",
                "",
                Some(5430.0),
            ),
            WebPage::render(3, None, PageKind::News, "Robert Jones", "", "Acme", None),
        ];
        SearchEngine::build(pages)
    }

    #[test]
    fn name_search_ranks_both_token_pages_first() {
        let e = corpus();
        let hits = e.search("Robert Smith", 10);
        assert!(!hits.is_empty());
        // Pages 0 and 2 mention both tokens; page 3 only "Robert".
        let top2: Vec<usize> = hits.iter().take(2).map(|h| h.page).collect();
        assert!(top2.contains(&0) && top2.contains(&2), "hits: {hits:?}");
        let robert_jones = hits.iter().find(|h| h.page == 3).unwrap();
        assert!(robert_jones.score < hits[0].score);
    }

    #[test]
    fn unrelated_query_returns_nothing() {
        let e = corpus();
        assert!(e.search("zzyzx unknown", 10).is_empty());
        assert!(e.search("", 10).is_empty());
        assert!(e.search_topk("zzyzx unknown", 10).is_empty());
        assert!(e.search_topk("", 10).is_empty());
    }

    #[test]
    fn limit_respected() {
        let e = corpus();
        let hits = e.search("Robert", 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(e.search_topk("Robert", 1).len(), 1);
        assert!(e.search_topk("Robert", 0).is_empty());
    }

    #[test]
    fn rare_terms_weigh_more() {
        let e = corpus();
        // "walker" appears once, "robert" in two pages: a query for Alice
        // Walker must put page 1 first.
        let hits = e.search("Alice Walker", 10);
        assert_eq!(hits[0].page, 1);
    }

    #[test]
    fn distinct_display_names_dedupe_and_align() {
        let e = corpus();
        let display = e.distinct_display_names();
        let (ids, names) = (&display.page_name_ids, &display.names);
        assert_eq!(ids.len(), e.len());
        // Pages 0 and 2 are both "Robert Smith".
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(names.len(), 3);
        for (page, &id) in e.pages().iter().zip(ids) {
            assert_eq!(page.display_name, names[id as usize]);
            assert_eq!(display.id_of(&page.display_name), Some(id));
        }
        assert_eq!(display.id_of("Robert"), None);
        let empty = SearchEngine::build(vec![]);
        let display = empty.distinct_display_names();
        assert!(display.page_name_ids.is_empty() && display.names.is_empty());
    }

    #[test]
    fn search_pages_resolves() {
        let e = corpus();
        let hits = e.search_topk("Verizon", 5);
        assert_eq!(hits.len(), 1);
        let page = e.page(hits[0].page).expect("hit resolves to a page");
        assert_eq!(page.display_name, "Alice Walker");
        assert!(e.page(e.len()).is_none());
    }

    #[test]
    fn empty_engine() {
        let e = SearchEngine::build(vec![]);
        assert!(e.is_empty());
        assert!(e.search("anything", 5).is_empty());
        assert!(e.search_topk("anything", 5).is_empty());
    }

    #[test]
    fn search_topk_matches_search_bit_for_bit() {
        let e = corpus();
        let queries = [
            "Robert Smith",
            "Alice Walker",
            "Robert",
            "Robert Robert Smith", // duplicate token: contributes twice
            "Verizon",
            "Verizon CEO",
            "Robert Smith", // repeat: exercises the warm term cache
            "Robert Jones Acme",
            "Robert Jones Acme zzyzx", // known and unknown tokens mixed
            "zzyzx unknown",           // every token unknown
            "",
            "smith",
        ];
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        for limit in [1usize, 2, 3, 8, 10, 100] {
            for q in &queries {
                let exhaustive = e.search(q, limit);
                let fast = e.search_topk_with(q, limit, &mut scratch, &mut cache);
                assert_eq!(fast.len(), exhaustive.len(), "query {q:?} limit {limit}");
                for (a, b) in fast.iter().zip(&exhaustive) {
                    assert_eq!(a.page, b.page, "query {q:?} limit {limit}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "query {q:?} limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_duplicate_query_tokens_scale_the_upper_bound() {
        // Regression: the early-exit upper bound must multiply each
        // list's head contribution by its query multiplicity. With
        // "robert robert smith" the smith-bearing pages max out at
        // 2·c_robert + c_smith < the 4·robert page's 8·c_robert-ish
        // score, and an unscaled bound exits before ever seeing it.
        let texts = [
            "smith robert",
            "smith robert",
            "robert robert robert robert",
            "robert robert robert",
            "robert",
            "robert",
        ];
        let pages: Vec<WebPage> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| WebPage {
                id: i,
                person_id: None,
                display_name: String::new(),
                kind: PageKind::News,
                text: (*t).into(),
            })
            .collect();
        let e = SearchEngine::build(pages);
        for limit in [1usize, 2, 3, 6] {
            let exhaustive = e.search("robert robert smith", limit);
            let fast = e.search_topk("robert robert smith", limit);
            assert_eq!(fast.len(), exhaustive.len(), "limit {limit}");
            for (a, b) in fast.iter().zip(&exhaustive) {
                assert_eq!(a.page, b.page, "limit {limit}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "limit {limit}");
            }
        }
    }

    /// A corpus of bare-text pages (no template), page `i` holding
    /// `texts[i]`.
    fn text_corpus(texts: &[String]) -> SearchEngine {
        let pages = texts
            .iter()
            .enumerate()
            .map(|(i, t)| WebPage {
                id: i,
                person_id: None,
                display_name: format!("p{i}"),
                kind: PageKind::News,
                text: t.clone(),
            })
            .collect();
        SearchEngine::build(pages)
    }

    /// Asserts `search_topk_with` equals `search` bit for bit, returning
    /// the postings the top-k scan visited.
    fn assert_topk_exact(e: &SearchEngine, query: &str, limit: usize) -> u64 {
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        let exhaustive = e.search(query, limit);
        let fast = e.search_topk_with(query, limit, &mut scratch, &mut cache);
        assert_eq!(
            fast.len(),
            exhaustive.len(),
            "query {query:?} limit {limit}"
        );
        for (a, b) in fast.iter().zip(&exhaustive) {
            assert_eq!(a.page, b.page, "query {query:?} limit {limit}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {query:?}");
        }
        scratch.postings_scanned()
    }

    #[test]
    fn topk_skips_a_boundary_tie_run_exactly() {
        // Two full "alice smith" matches at high page ids, behind a long
        // run of tf = 1 "alice" pages: with limit 8 the k-th hit is an
        // alice-only page whose score every later alice page ties, so
        // the scan must stop at the tie-break instead of reading the run
        // to its end.
        let texts: Vec<String> = (0..400)
            .map(|i| match i {
                250 | 390 => "alice smith".to_string(),
                _ => format!("alice filler{}", i % 7),
            })
            .collect();
        let e = text_corpus(&texts);
        let list_len = 400 + 2;
        for limit in [1usize, 2, 3, 8, 12] {
            let visited = assert_topk_exact(&e, "alice smith", limit);
            assert!(
                visited <= (limit + 2) as u64,
                "limit {limit}: visited {visited} of {list_len} postings"
            );
        }
        let visited = assert_topk_exact(&e, "alice", 8);
        assert_eq!(visited, 8, "a single-term scan stops at the k-th posting");
        // The counter accumulates across queries on one scratch.
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        e.search_topk_with("alice", 8, &mut scratch, &mut cache);
        e.search_topk_with("alice", 3, &mut scratch, &mut cache);
        assert_eq!(scratch.postings_scanned(), 11);
    }

    #[test]
    fn topk_stays_exact_across_tf_run_boundaries() {
        // "bob" lists hold a tf-2 run and a tf-1 run whose pages
        // interleave by id; every page of a run ties the others, so the
        // boundary tie falls in the tf-2 run (limit below its size) or
        // in the tf-1 run after the jump (limit above it). A rarer
        // "carol" list adds pages whose tf-1 "bob" plus "carol" outscore
        // the tf-2 run, so runs of the later list still matter after
        // the earlier one was skipped.
        let texts: Vec<String> = (0..120)
            .map(|i| match i % 6 {
                0 => "bob bob".to_string(),
                1 if i % 4 == 1 => "bob carol".to_string(),
                2 => "carol".to_string(),
                3 => "bob bob carol carol".to_string(),
                _ => format!("bob other{}", i % 5),
            })
            .collect();
        let e = text_corpus(&texts);
        for q in ["bob", "bob carol", "carol bob", "bob bob carol", "carol"] {
            for limit in 1..=45usize {
                assert_topk_exact(&e, q, limit);
            }
        }
        // Single term: every posting past the k-th is either a tie the
        // k-th wins or a lower run, so the scan reads exactly `limit`.
        for limit in [1usize, 5, 20, 40, 60] {
            assert_eq!(assert_topk_exact(&e, "bob", limit), limit as u64);
        }
    }

    #[test]
    fn topk_boundary_tie_across_lists_keeps_smaller_pages() {
        // "ann" and "bea" have equal df, hence equal IDF: every page
        // scores the same. "ann" is scanned first (equal length, lower
        // term id) and fills the top-k with mostly high page ids; the
        // "bea" run then ties the k-th score at *smaller* page ids, which
        // win the tie-break — a skip may only fire past the k-th page.
        let texts: Vec<String> = (0..20)
            .map(|i| if i == 0 || i > 10 { "ann" } else { "bea" }.to_string())
            .collect();
        let e = text_corpus(&texts);
        for limit in 1..=20usize {
            assert_topk_exact(&e, "ann bea", limit);
            assert_topk_exact(&e, "bea ann", limit);
        }
        let top: Vec<usize> = e.search_topk("ann bea", 5).iter().map(|h| h.page).collect();
        assert_eq!(top, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pair_list_walk_reads_a_short_prefix_exactly() {
        // "ann" on every second page, "lee" on every third, both on every
        // sixth (100 pages), and a few pages carry both twice. Walked as
        // one pair list, the query stops right after the k-th full match
        // instead of walking "lee" until it has met k of them.
        let texts: Vec<String> = (0..600)
            .map(|i| match (i % 2 == 0, i % 3 == 0) {
                (true, true) if i % 120 == 0 => format!("ann ann lee lee s{i}"),
                (true, true) => format!("ann lee s{i}"),
                (true, false) => "ann".to_string(),
                (false, true) => "lee".to_string(),
                _ => "filler".to_string(),
            })
            .collect();
        let e = text_corpus(&texts);
        for limit in [1usize, 3, 8, 20] {
            let visited = assert_topk_exact(&e, "ann lee", limit);
            assert!(
                visited <= limit as u64 + 1,
                "limit {limit}: visited {visited}"
            );
            assert_topk_exact(&e, "lee s240 ann", limit);
            assert_topk_exact(&e, "s18 zzyzx ann lee", limit);
            // A repeated member falls back to the single-list walk.
            assert_topk_exact(&e, "ann lee ann", limit);
        }
        // One build per cache, shared by both query orders.
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        e.search_topk_with("ann lee", 8, &mut scratch, &mut cache);
        let merged = cache.pair_postings_merged();
        assert!(merged > 0 && merged <= 300 + 200, "merged {merged}");
        e.search_topk_with("lee ann", 8, &mut scratch, &mut cache);
        e.search_topk_with("s60 lee ann", 3, &mut scratch, &mut cache);
        assert_eq!(cache.pair_postings_merged(), merged);
    }

    #[test]
    fn shared_pair_lists_serve_every_worker_cache_exactly() {
        // The corpus of the pair-list test above: "ann lee" and "lee ann"
        // share one pair, "ann ann lee" walks single lists, "filler" and
        // the unknown token build nothing.
        let texts: Vec<String> = (0..600)
            .map(|i| match (i % 2 == 0, i % 3 == 0) {
                (true, true) => format!("ann lee s{i}"),
                (true, false) => "ann".to_string(),
                (false, true) => "lee filler".to_string(),
                _ => "filler".to_string(),
            })
            .collect();
        let e = text_corpus(&texts);
        let queries = [
            "ann lee",
            "lee ann",
            "ann ann lee",
            "s60 lee ann",
            "filler lee",
            "zzyzx",
            "",
        ];
        // One lazily filled cache over the batch: the reference work.
        let mut scratch = e.scratch();
        let mut lazy = e.term_cache();
        for q in queries {
            e.search_topk_with(q, 8, &mut scratch, &mut lazy);
        }
        let shared = Arc::new(e.pair_lists(&queries, 8));
        assert_eq!(shared.lists.len(), 2, "ann+lee and lee+filler");
        assert_eq!(shared.postings_merged(), lazy.pair_postings_merged());
        assert!(e.pair_lists(&queries, 0).lists.is_empty());
        // A cache reading the shared lists builds nothing and answers
        // every query bit for bit as the exhaustive search.
        let mut cache = e.term_cache_sharing(Arc::clone(&shared));
        for limit in [1usize, 3, 8, 20] {
            for q in queries {
                let fast = e.search_topk_with(q, limit, &mut scratch, &mut cache);
                let exhaustive = e.search(q, limit);
                assert_eq!(fast.len(), exhaustive.len(), "query {q:?} limit {limit}");
                for (a, b) in fast.iter().zip(&exhaustive) {
                    assert_eq!(a.page, b.page, "query {q:?} limit {limit}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {q:?}");
                }
            }
        }
        assert_eq!(cache.pair_postings_merged(), 0);
        // A pair the shared lists lack is built in the cache's own.
        let mut partial = e.term_cache_sharing(Arc::new(e.pair_lists(&["ann lee"], 8)));
        e.search_topk_with("filler lee", 8, &mut scratch, &mut partial);
        assert!(partial.pair_postings_merged() > 0);
    }

    #[test]
    fn short_lists_build_no_pair_list() {
        let e = corpus();
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        e.search_topk_with("Robert Smith", 8, &mut scratch, &mut cache);
        assert_eq!(cache.pair_postings_merged(), 0);
    }

    #[test]
    fn gallop_to_finds_the_lower_bound_from_any_valid_cursor() {
        let postings: Vec<(u32, u32)> = [1, 3, 4, 8, 9, 15, 16, 23, 42, 43, 44, 60]
            .iter()
            .map(|&p| (p, 1))
            .collect();
        for page in 0..70 {
            let expected = postings.partition_point(|&(p, _)| p < page);
            for from in 0..=expected {
                assert_eq!(
                    gallop_to(&postings, from, page),
                    expected,
                    "page {page} from {from}"
                );
            }
        }
        assert_eq!(gallop_to(&[], 0, 5), 0);
    }

    #[test]
    fn scratch_survives_many_epochs() {
        let e = corpus();
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        let reference = e.search("Robert Smith", 10);
        // Start near the stamp's ceiling so the loop crosses the wrap.
        scratch.epoch = u32::MAX - 50;
        for _ in 0..100 {
            let topk = e.search_topk_with("Robert Smith", 10, &mut scratch, &mut cache);
            assert_eq!(topk, reference);
        }
    }
}
