//! A miniature search engine over the corpus: inverted index with TF-IDF
//! ranking. This is the "index into the web" the paper's intruder uses.
//!
//! Index tokens are *interned*: each distinct token string is stored once
//! in the term table and postings live in dense per-term vectors keyed by
//! term id (the corpus keys on ~a hundred distinct name tokens, so
//! interning removes almost all per-posting string traffic). Two postings
//! orders are kept per term: page-ascending (the classic scan + binary
//! search order) and score-contribution-descending (the order the top-k
//! searcher consumes, enabling its early exit).

use crate::page::{tokenize, WebPage};
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a. The build interner and the query term cache hash hundreds of
/// thousands of short tokens; the default SipHash costs more than the
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

/// The early-exit top-`limit` scan of [`SearchEngine::search_topk_with`]
/// over the query's resolved term ids (query order, duplicates kept).
/// Every page first seen gets its full score in `resolved` (query) term
/// order, and the bound argument documented on `search_topk_with` holds
/// for any scan order.
fn topk_scan(
    engine: &SearchEngine,
    resolved: &[u32],
    limit: usize,
    scratch: &mut SearchScratch,
) -> Vec<SearchHit> {
    let idf = &engine.idf;
    // Scan order: distinct lists, rarest first (stable on equal
    // lengths), so the upper bound collapses as early as possible.
    let mut scan: Vec<u32> = resolved.to_vec();
    scan.sort_unstable();
    scan.dedup();
    scan.sort_by_key(|&t| engine.postings[t as usize].len());
    // `slot[i]`: position in `scan` of the query token `resolved[i]`.
    let slot: Vec<usize> = resolved
        .iter()
        .map(|t| {
            scan.iter()
                .position(|s| s == t)
                .expect("scan holds every token")
        })
        .collect();
    // Head (largest) contribution of each list.
    let head: Vec<f64> = scan
        .iter()
        .map(|&t| {
            engine.by_contribution[t as usize]
                .first()
                .map_or(0.0, |&(_, tf)| contribution(tf, idf[t as usize]))
        })
        .collect();
    // `exhausted[j]` once list `scan[j]` has been scanned to the end: a
    // page still unseen afterwards is provably absent from it, so
    // scoring can skip that term without a lookup.
    let mut exhausted = vec![false; scan.len()];

    scratch.begin(engine.pages.len());
    let mut visited = 0u64;
    let mut tracker = TopHits::new(limit);
    for (li, &tid) in scan.iter().enumerate() {
        let list = &engine.by_contribution[tid as usize];
        let term_idf = idf[tid as usize];
        let mut completed = true;
        let mut at = 0;
        // One pass per equal-tf run: `(tf desc, page asc)` order makes
        // each run page-ascending, and the bound is constant across it.
        'runs: while at < list.len() {
            let tf = list[at].1;
            let run_end = at + list[at..].partition_point(|&(_, t)| t == tf);
            let c = contribution(tf, term_idf);
            // The most an unseen page of this run can score, summed in
            // query-term order like the score itself: `c` per occurrence
            // of this term, the head of every later list, nothing from
            // earlier lists (an unseen page is absent from them, or sits
            // in a remainder an earlier exit already ruled out).
            // Rounding is monotone and every term is non-negative, so no
            // such page's float score exceeds `ub`.
            let ub = slot.iter().fold(0.0f64, |ub, &s| match s.cmp(&li) {
                std::cmp::Ordering::Equal => ub + c,
                std::cmp::Ordering::Greater => ub + head[s],
                std::cmp::Ordering::Less => ub,
            });
            for &(page, _) in &list[at..run_end] {
                if tracker.is_full() {
                    let (kth_score, kth_page) = tracker.worst();
                    if ub < kth_score {
                        // No page of this list's remainder can reach
                        // the boundary: later runs only bound lower,
                        // and the boundary only rises from here.
                        // (Pages of the remainder that also sit in a
                        // later list still get scored there, via the
                        // lookup path.)
                        completed = false;
                        break 'runs;
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
                visited += 1;
                if scratch.mark[page as usize] == scratch.epoch {
                    continue; // already scored on first sight
                }
                scratch.mark[page as usize] = scratch.epoch;
                // Full exact score, accumulated in query-term order: the
                // same addition sequence as the exhaustive path. The
                // term being scanned contributes its known tf; terms
                // whose lists were already exhausted cannot contain a
                // page first seen here; everything else is a binary
                // search.
                let mut score = 0.0f64;
                for (&t, &s) in resolved.iter().zip(&slot) {
                    if s == li {
                        score += c;
                    } else if !exhausted[s] {
                        let postings = &engine.postings[t as usize];
                        if let Ok(pos) = postings.binary_search_by_key(&page, |&(p, _)| p) {
                            score += contribution(postings[pos].1, idf[t as usize]);
                        }
                    }
                }
                tracker.offer(score, page);
            }
            at = run_end;
        }
        exhausted[li] = completed;
    }
    scratch.postings_scanned += visited;
    tracker.into_hits()
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

    /// Deduplicates page display names: returns each page's dense
    /// name id plus the distinct names in first-occurrence order.
    ///
    /// A corpus renders several pages per person and most display names
    /// verbatim, so the distinct-name set is a fraction of the page
    /// count. Name-comparison consumers (the harvest's agreement cache
    /// and its per-name comparator keys) key their work on the name id
    /// instead of the page id and skip the duplicates entirely.
    pub fn distinct_display_names(&self) -> (Vec<u32>, Vec<&str>) {
        let mut name_of_page = Vec::with_capacity(self.pages.len());
        let mut ids: FnvMap<&str, u32> = FnvMap::default();
        let mut names: Vec<&str> = Vec::new();
        for page in &self.pages {
            let next = names.len() as u32;
            let id = *ids.entry(&page.display_name).or_insert(next);
            if id == next {
                names.push(&page.display_name);
            }
            name_of_page.push(id);
        }
        (name_of_page, names)
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
            epoch: 0,
            postings_scanned: 0,
        }
    }

    /// An empty per-batch term cache; see
    /// [`search_topk_with`](SearchEngine::search_topk_with).
    pub fn term_cache(&self) -> TermCache {
        TermCache::default()
    }

    /// Resolves one query token to its term id through the cache.
    #[inline]
    fn resolve_term(&self, term: String, cache: &mut TermCache) -> Option<u32> {
        *cache
            .map
            .entry(term)
            .or_insert_with_key(|t| self.terms.get(t).copied())
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
    ///   binary-searching every query term's page-ascending postings and
    ///   accumulating in query-term order — the exact float-addition
    ///   sequence of the exhaustive path.
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
    ///
    /// Selection is a bounded worst-out tracker instead of a full sort of
    /// every candidate, which is the other constant-factor win at harvest
    /// scale (hundreds of candidates, `limit` of eight).
    pub fn search_topk_with(
        &self,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        if limit == 0 {
            return Vec::new();
        }
        let tokens = tokenize(query);
        if tokens.is_empty() || self.pages.is_empty() {
            return Vec::new();
        }
        // Query-order term ids (duplicates kept: they contribute twice,
        // exactly like the exhaustive accumulation).
        let resolved: Vec<u32> = tokens
            .into_iter()
            .filter_map(|t| self.resolve_term(t, cache))
            .collect();
        if resolved.is_empty() {
            return Vec::new();
        }
        topk_scan(self, &resolved, limit, scratch)
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
struct TopHits {
    k: usize,
    items: Vec<(f64, u32)>,
    /// Index of the current worst member once full.
    worst: usize,
}

impl TopHits {
    fn new(k: usize) -> Self {
        TopHits {
            k,
            items: Vec::with_capacity(k),
            worst: 0,
        }
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

    fn into_hits(mut self) -> Vec<SearchHit> {
        self.items.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        self.items
            .into_iter()
            .map(|(score, page)| SearchHit {
                page: page as usize,
                score,
            })
            .collect()
    }
}

/// Reusable per-query state of [`SearchEngine::search_topk_with`]: a
/// dense first-seen mark per page, generation-stamped so resetting between
/// queries is O(1) instead of O(pages).
#[derive(Debug, Clone)]
pub struct SearchScratch {
    /// Page `p` was already scored by the current query iff
    /// `mark[p] == epoch`.
    mark: Vec<u32>,
    epoch: u32,
    /// Running total of postings the top-k scan has visited.
    postings_scanned: u64,
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

/// Per-batch memo of token → term id resolved against one
/// [`SearchEngine`]; negative lookups are cached too.
#[derive(Default)]
pub struct TermCache {
    map: FnvMap<String, Option<u32>>,
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
        let (ids, names) = e.distinct_display_names();
        assert_eq!(ids.len(), e.len());
        // Pages 0 and 2 are both "Robert Smith".
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(names.len(), 3);
        for (page, &id) in e.pages().iter().zip(&ids) {
            assert_eq!(page.display_name, names[id as usize]);
        }
        let empty = SearchEngine::build(vec![]);
        let (ids, names) = empty.distinct_display_names();
        assert!(ids.is_empty() && names.is_empty());
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
