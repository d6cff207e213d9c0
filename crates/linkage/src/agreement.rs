//! Batch-rate agreement classification: compact comparator keys with
//! bit-parallel string comparators, a model-derived score floor that
//! prunes hopeless pairs, and a per-query memo of decided pairs.
//!
//! The harvest loop classifies every (release name, search hit) pair
//! through the five-field name model. Three observations make that loop
//! cheap without changing a single decision:
//!
//! * **Compact comparator keys** ([`LinkKey`]) — everything the
//!   comparators re-derive per *pair* is a pure function of one name, so
//!   it is computed once per *record*. A name whose normalized form is
//!   ASCII and at most 64 bytes (every name of the synthetic worlds)
//!   keeps its whole key in one allocation: the order-preserving and
//!   canonical forms as bytes, then the sorted padded-bigram multiset for
//!   Dice, with the surname Soundex code inline. Its tokens are the
//!   words of the order-preserving form. A pair of such keys touches two
//!   short buffers instead of a dozen scattered heap objects, and its
//!   Levenshtein and Jaro-Winkler run as one-word bit-parallel kernels
//!   ([`crate::bitpar`]). Any other name keeps its [`PreparedName`] and
//!   goes through the `&str` reference comparators, counted by
//!   [`AgreementScratch::fallbacks`].
//! * **Score floor** ([`ScoreFloor`]) — the Fellegi-Sunter weight each
//!   still-unevaluated field could contribute is bounded by its
//!   precomputed agreement/disagreement weights. Fields are evaluated
//!   cheapest first (cached Soundex equality and token compatibility cost
//!   nothing), and the moment no completion of the remaining fields can
//!   cross a decision threshold the classification short-circuits: a pair
//!   that cannot reach the match band is rejected *before any string
//!   comparator runs*, and one that cannot fall below it is accepted
//!   without the expensive tail (with the default name model that skips
//!   Jaro-Winkler for clear non-matches and both Levenshtein and
//!   Jaro-Winkler for clear matches).
//! * **Per-query memo** ([`AgreementCache`]) — web corpora repeat display
//!   names (several pages per person, most rendered verbatim), so one
//!   query's hits often carry the same name more than once. The memo
//!   keys one query's decisions on the caller's dense candidate ids and
//!   replays them; it is cleared between queries, because release names
//!   are distinct and a pair almost never recurs across them.
//!
//! All three layers are exact: the kernels return the references' values
//! to the bit, the pruned path either evaluates every field and sums the
//! same field weights in the same order as [`FellegiSunter::classify`]
//! over the agreement vector the reference builds, or stops on a bound
//! that holds with a safety margin wider than any float-reassociation
//! error — so its decisions are pinned identical to
//! `model.classify(&compare_prepared(a, b).agreement_vector())`
//! (property-tested on random names and at the harvest level).

use std::borrow::Cow;

use crate::bitpar::{jaro_winkler_ascii, levenshtein_similarity_ascii, PeqTable, MAX_LEN};
use crate::edit::levenshtein_similarity;
use crate::fellegi_sunter::{Decision, FellegiSunter};
use crate::jaro::jaro_winkler;
use crate::linker::{DICE_AGREE, JARO_WINKLER_AGREE, LEVENSHTEIN_AGREE};
use crate::ngram::dice;
use crate::normalize::{NameNormalizer, PreparedName};
use crate::phonetic::soundex_code;

/// Number of fields in the name model this module accelerates (the
/// [`crate::linker::NameFeatures`] agreement vector).
pub const NAME_FIELDS: usize = 5;

/// Safety margin on the prune bounds: wider than any error the
/// float-summation reorder between the staged partial sums and the
/// reference's field-order sum can introduce (weights are O(10), so
/// reassociation error is O(1e-15)), yet far below the weight quanta of
/// any real m/u configuration.
const PRUNE_MARGIN: f64 = 1e-9;

/// Every derived comparator input of one name, computed once per record.
/// See the module docs for the compact and the fallback form.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkKey {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// `joined ‖ canonical ‖ bigrams` for a name of `n` ASCII bytes:
    /// `n` + `n` bytes, then the `n + 1` padded bigrams of the canonical
    /// form as byte pairs in ascending order (`4n + 2` bytes in all).
    Compact {
        bytes: Box<[u8]>,
        soundex: Option<[u8; 4]>,
    },
    /// Any other name, compared by the reference comparators.
    Wide(Box<PreparedName>),
}

impl LinkKey {
    /// Builds the comparator keys from an already-prepared name.
    pub fn new(prepared: PreparedName) -> LinkKey {
        let repr = compact(&prepared).unwrap_or_else(|| Repr::Wide(Box::new(prepared)));
        LinkKey { repr }
    }

    /// Normalizes a raw name and builds its comparator keys: equal to
    /// `LinkKey::new(normalizer.prepare(raw))`, but an ASCII name whose
    /// key is compact is normalized straight into its key's one buffer,
    /// with no intermediate allocation.
    pub fn prepare(normalizer: &NameNormalizer, raw: &str) -> LinkKey {
        let repr = compact_ascii(normalizer, raw)
            .unwrap_or_else(|| LinkKey::new(normalizer.prepare(raw)).repr);
        LinkKey { repr }
    }

    /// Whether the key has the compact form (and its pairs the
    /// bit-parallel comparators). A name prepared by a normalizer whose
    /// nickname expansions are single words is compact exactly when its
    /// normalized form is ASCII and at most [`MAX_LEN`] bytes.
    pub fn is_compact(&self) -> bool {
        matches!(self.repr, Repr::Compact { .. })
    }

    /// The linkage keys this key was built from (rebuilt for a compact
    /// key — the fallback path only).
    fn prepared(&self) -> Cow<'_, PreparedName> {
        match &self.repr {
            Repr::Wide(prepared) => Cow::Borrowed(prepared),
            Repr::Compact { bytes, soundex } => {
                let name = Compact::new(bytes, *soundex);
                let text =
                    |b: &[u8]| String::from_utf8(b.to_vec()).expect("compact keys are ASCII");
                Cow::Owned(PreparedName {
                    tokens: name.words().map(text).collect(),
                    joined: text(name.joined),
                    canonical: text(name.canonical),
                    surname_soundex: soundex.map(|code| text(&code)),
                })
            }
        }
    }
}

/// The compact form of a prepared name, when it has one: ASCII joined and
/// canonical forms of equal length at most [`MAX_LEN`], tokens exactly the
/// words of the joined form, and a four-byte Soundex code if any.
fn compact(p: &PreparedName) -> Option<Repr> {
    let n = p.joined.len();
    let fits = n <= MAX_LEN
        && p.joined.is_ascii()
        && p.canonical.is_ascii()
        && p.canonical.len() == n
        && words(p.joined.as_bytes()).eq(p.tokens.iter().map(String::as_bytes));
    if !fits {
        return None;
    }
    let soundex = match &p.surname_soundex {
        None => None,
        Some(code) => Some(<[u8; 4]>::try_from(code.as_bytes()).ok()?),
    };
    Some(compact_repr(
        p.joined.as_bytes(),
        p.canonical.as_bytes(),
        soundex,
    ))
}

/// [`compact`]`(&normalizer.prepare(raw))` for an ASCII `raw`, computed
/// on the stack from `raw`'s bytes by the steps of
/// [`NameNormalizer::tokens`]: split on bytes that are neither
/// alphanumeric nor an apostrophe, keep the alphanumeric bytes
/// lowercased, drop empty tokens and titles, expand nicknames. `None`
/// (the caller then takes the reference path) for a non-ASCII name, a
/// normalized form over [`MAX_LEN`] bytes, and a nickname expansion that
/// is empty, non-ASCII or holds a space (its key is not compact, or its
/// tokens are not the words of the joined form).
fn compact_ascii(normalizer: &NameNormalizer, raw: &str) -> Option<Repr> {
    if !raw.is_ascii() {
        return None;
    }
    let mut joined = [0u8; MAX_LEN];
    let mut n = 0;
    // Token `(start, end)` in `joined`: at most one per two bytes.
    let mut spans = [(0usize, 0usize); MAX_LEN / 2 + 1];
    let mut count = 0;
    let mut cleaned = [0u8; MAX_LEN];
    for piece in raw
        .as_bytes()
        .split(|&c| !c.is_ascii_alphanumeric() && c != b'\'')
    {
        let mut len = 0;
        for &c in piece.iter().filter(|c| c.is_ascii_alphanumeric()) {
            *cleaned.get_mut(len)? = c.to_ascii_lowercase();
            len += 1;
        }
        let token = std::str::from_utf8(&cleaned[..len]).ok()?;
        if token.is_empty() || NameNormalizer::is_title(token) {
            continue;
        }
        let word = match normalizer.expansion(token) {
            Some(full) if full.is_empty() || !full.is_ascii() || full.contains(' ') => {
                return None;
            }
            Some(full) => full.as_bytes(),
            None => token.as_bytes(),
        };
        let start = n + usize::from(count > 0);
        let end = start + word.len();
        if end > MAX_LEN {
            return None;
        }
        if count > 0 {
            joined[n] = b' ';
        }
        joined[start..end].copy_from_slice(word);
        spans[count] = (start, end);
        count += 1;
        n = end;
    }
    let soundex = spans[..count]
        .last()
        .and_then(|&(start, end)| soundex_code(&joined[start..end]));
    let spans = &mut spans[..count];
    spans.sort_unstable_by(|&(a0, a1), &(b0, b1)| joined[a0..a1].cmp(&joined[b0..b1]));
    let mut canonical = [0u8; MAX_LEN];
    let mut at = 0;
    for (i, &(start, end)) in spans.iter().enumerate() {
        if i > 0 {
            canonical[at] = b' ';
            at += 1;
        }
        canonical[at..at + end - start].copy_from_slice(&joined[start..end]);
        at += end - start;
    }
    Some(compact_repr(&joined[..n], &canonical[..n], soundex))
}

/// The compact key buffer `joined ‖ canonical ‖ bigrams` of ASCII forms
/// of equal length `n` at most [`MAX_LEN`]: its one allocation.
fn compact_repr(joined: &[u8], canonical: &[u8], soundex: Option<[u8; 4]>) -> Repr {
    let n = joined.len();
    // Each bigram as one big-endian `u16`: sorted as integers, in the
    // byte pairs' lexicographic order.
    let mut grams = [0u16; MAX_LEN + 1];
    let mut prev = b'#';
    for (gram, c) in grams
        .iter_mut()
        .zip(canonical.iter().copied().chain(std::iter::once(b'#')))
    {
        *gram = u16::from_be_bytes([prev, c]);
        prev = c;
    }
    let grams = &mut grams[..n + 1];
    grams.sort_unstable();
    let mut bytes = Vec::with_capacity(4 * n + 2);
    bytes.extend_from_slice(joined);
    bytes.extend_from_slice(canonical);
    bytes.extend(grams.iter().flat_map(|gram| gram.to_be_bytes()));
    Repr::Compact {
        bytes: bytes.into_boxed_slice(),
        soundex,
    }
}

/// The space-separated words of an ASCII joined form.
fn words(joined: &[u8]) -> impl Iterator<Item = &[u8]> + Clone {
    joined.split(|&c| c == b' ').filter(|w| !w.is_empty())
}

/// A compact key's buffer, split into its three parts.
struct Compact<'a> {
    joined: &'a [u8],
    canonical: &'a [u8],
    bigrams: &'a [u8],
    soundex: Option<[u8; 4]>,
}

impl<'a> Compact<'a> {
    #[inline]
    fn new(bytes: &'a [u8], soundex: Option<[u8; 4]>) -> Compact<'a> {
        let n = (bytes.len() - 2) / 4;
        let (joined, rest) = bytes.split_at(n);
        let (canonical, bigrams) = rest.split_at(n);
        Compact {
            joined,
            canonical,
            bigrams,
            soundex,
        }
    }

    /// The tokens: the words of the joined form.
    fn words(&self) -> impl Iterator<Item = &'a [u8]> + Clone {
        words(self.joined)
    }
}

/// The comparator inputs of one pair, field by field, as the staged
/// classifier consumes them: the compact pair computes each field with
/// the byte kernels, the wide pair with the `&str` references of
/// [`crate::linker::compare_prepared`].
trait PairFields {
    /// Whether the two keys are equal in every comparator input (then
    /// every continuous comparator scores 1.0 and the token lists are
    /// identical, hence compatible).
    fn same(&self) -> bool;
    /// Both Soundex codes present and equal.
    fn soundex_agrees(&self) -> bool;
    /// [`NameNormalizer::tokens_compatible`] of the token lists.
    fn tokens_compatible(&self) -> bool;
    /// Bigram Dice of the canonical forms.
    fn dice(&mut self) -> f64;
    /// Levenshtein similarity of the canonical forms.
    fn levenshtein(&mut self) -> f64;
    /// Jaro-Winkler of the order-preserving forms.
    fn jaro_winkler(&mut self) -> f64;
}

struct CompactPair<'a> {
    a: Compact<'a>,
    b: Compact<'a>,
    peq: &'a mut PeqTable,
}

impl PairFields for CompactPair<'_> {
    #[inline]
    fn same(&self) -> bool {
        self.a.joined == self.b.joined && self.a.canonical == self.b.canonical
    }

    #[inline]
    fn soundex_agrees(&self) -> bool {
        self.a.soundex.is_some() && self.a.soundex == self.b.soundex
    }

    fn tokens_compatible(&self) -> bool {
        // `NameNormalizer::tokens_compatible` over the byte words of the
        // joined forms, without decoding: an ASCII word is an initial
        // when it is one letter, and its first character is its first
        // byte.
        let initial = |w: &[u8]| w.len() == 1 && w[0].is_ascii_alphabetic();
        let covered = |xs: &Compact<'_>, ys: &Compact<'_>| {
            xs.words().all(|x| {
                if initial(x) {
                    ys.words().any(|y| y[0] == x[0])
                } else {
                    ys.words().any(|y| y == x || (initial(y) && y[0] == x[0]))
                }
            })
        };
        covered(&self.a, &self.b) && covered(&self.b, &self.a)
    }

    fn dice(&mut self) -> f64 {
        // A linear merge of the sorted bigram multisets: the same
        // intersection and total sizes as `ngram::dice(_, _, 2)`, and its
        // final expression (the totals are never zero: padding gives
        // every form at least one bigram).
        let (a, b) = (self.a.bigrams, self.b.bigrams);
        let denom = a.len() / 2 + b.len() / 2;
        let mut inter = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i..i + 2].cmp(&b[j..j + 2]) {
                std::cmp::Ordering::Less => i += 2,
                std::cmp::Ordering::Greater => j += 2,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 2;
                    j += 2;
                }
            }
        }
        2.0 * inter as f64 / denom as f64
    }

    fn levenshtein(&mut self) -> f64 {
        levenshtein_similarity_ascii(self.a.canonical, self.b.canonical, self.peq)
    }

    fn jaro_winkler(&mut self) -> f64 {
        jaro_winkler_ascii(self.a.joined, self.b.joined, self.peq)
    }
}

struct WidePair<'a> {
    a: &'a PreparedName,
    b: &'a PreparedName,
}

impl PairFields for WidePair<'_> {
    fn same(&self) -> bool {
        self.a.joined == self.b.joined
            && self.a.canonical == self.b.canonical
            && self.a.tokens == self.b.tokens
    }

    fn soundex_agrees(&self) -> bool {
        match (&self.a.surname_soundex, &self.b.surname_soundex) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    fn tokens_compatible(&self) -> bool {
        NameNormalizer::tokens_compatible(&self.a.tokens, &self.b.tokens)
    }

    fn dice(&mut self) -> f64 {
        dice(&self.a.canonical, &self.b.canonical, 2)
    }

    fn levenshtein(&mut self) -> f64 {
        levenshtein_similarity(&self.a.canonical, &self.b.canonical)
    }

    fn jaro_winkler(&mut self) -> f64 {
        jaro_winkler(&self.a.joined, &self.b.joined)
    }
}

/// Field-evaluation order of the staged classifier: cached-key fields
/// first (surname Soundex, token compatibility), then the string
/// comparators cheapest-first (Dice over precomputed bigrams,
/// Levenshtein, Jaro-Winkler). Entries are indices into the model's
/// field order.
const EVAL_ORDER: [usize; NAME_FIELDS] = [3, 4, 1, 2, 0];

/// Index of the first string comparator in [`EVAL_ORDER`] — the stage the
/// "before any string comparison" floor check runs at.
const FIRST_STRING_STAGE: usize = 2;

/// A Fellegi-Sunter model plus the precomputed per-comparator weight
/// bounds that let [`ScoreFloor::classify`] stop early. See the module
/// docs for the soundness argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreFloor {
    model: FellegiSunter,
    /// Agreement / disagreement weight per model field.
    agree_w: [f64; NAME_FIELDS],
    disagree_w: [f64; NAME_FIELDS],
    /// `max_after[s]` / `min_after[s]`: largest / smallest total weight
    /// the fields at stages `>= s` of [`EVAL_ORDER`] can still
    /// contribute.
    max_after: [f64; NAME_FIELDS + 1],
    min_after: [f64; NAME_FIELDS + 1],
}

impl ScoreFloor {
    /// Precomputes the floor for a five-field name model.
    ///
    /// # Panics
    ///
    /// Panics when the model does not have exactly [`NAME_FIELDS`]
    /// fields.
    pub fn new(model: &FellegiSunter) -> ScoreFloor {
        assert_eq!(
            model.field_count(),
            NAME_FIELDS,
            "ScoreFloor accelerates the {NAME_FIELDS}-field name model"
        );
        let mut agree_w = [0.0; NAME_FIELDS];
        let mut disagree_w = [0.0; NAME_FIELDS];
        for (f, params) in model.fields().iter().enumerate() {
            agree_w[f] = params.agreement_weight();
            disagree_w[f] = params.disagreement_weight();
        }
        let mut max_after = [0.0; NAME_FIELDS + 1];
        let mut min_after = [0.0; NAME_FIELDS + 1];
        for s in (0..NAME_FIELDS).rev() {
            let f = EVAL_ORDER[s];
            max_after[s] = max_after[s + 1] + agree_w[f].max(disagree_w[f]);
            min_after[s] = min_after[s + 1] + agree_w[f].min(disagree_w[f]);
        }
        ScoreFloor {
            model: model.clone(),
            agree_w,
            disagree_w,
            max_after,
            min_after,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &FellegiSunter {
        &self.model
    }

    #[inline]
    fn weight_of(&self, field: usize, agrees: bool) -> f64 {
        if agrees {
            self.agree_w[field]
        } else {
            self.disagree_w[field]
        }
    }

    /// Decision forced by the bounds after the first `stage` stages
    /// contributed `w`, if any: when even full agreement of the remaining
    /// fields stays below the lower threshold the pair is a
    /// [`Decision::NonMatch`], and when even full disagreement stays
    /// above the upper threshold it is a [`Decision::Match`].
    #[inline]
    fn forced(&self, w: f64, stage: usize) -> Option<Decision> {
        if w + self.max_after[stage] < self.model.lower() - PRUNE_MARGIN {
            Some(Decision::NonMatch)
        } else if w + self.min_after[stage] > self.model.upper() + PRUNE_MARGIN {
            Some(Decision::Match)
        } else {
            None
        }
    }

    /// Classifies a pair of comparator keys, short-circuiting on the
    /// precomputed bounds. Returns exactly what
    /// [`FellegiSunter::classify`] returns for the pair's full agreement
    /// vector.
    pub fn classify(&self, a: &LinkKey, b: &LinkKey, scratch: &mut AgreementScratch) -> Decision {
        match (&a.repr, &b.repr) {
            (
                Repr::Compact {
                    bytes: x,
                    soundex: sx,
                },
                Repr::Compact {
                    bytes: y,
                    soundex: sy,
                },
            ) => {
                let pair = CompactPair {
                    a: Compact::new(x, *sx),
                    b: Compact::new(y, *sy),
                    peq: &mut scratch.peq,
                };
                self.staged(pair, &mut scratch.prunes)
            }
            _ => {
                scratch.fallbacks += 1;
                let (pa, pb) = (a.prepared(), b.prepared());
                self.staged(WidePair { a: &pa, b: &pb }, &mut scratch.prunes)
            }
        }
    }

    /// The staged classification of one pair: cached-key fields, the floor
    /// check, then the string comparators cheapest first, stopping on the
    /// first forced decision (counted in `prunes`).
    #[inline]
    fn staged(&self, mut pair: impl PairFields, prunes: &mut u64) -> Decision {
        let mut agreement = [false; NAME_FIELDS];
        agreement[3] = pair.soundex_agrees();
        // Equal keys: every comparator scores 1.0, so the continuous
        // bits all agree and only the Soundex bit needs a look.
        if pair.same() {
            agreement[0] = true;
            agreement[1] = true;
            agreement[2] = true;
            agreement[4] = true;
            return self.decide(&agreement);
        }
        // Stages 0-1: the cached-key fields.
        agreement[4] = pair.tokens_compatible();
        let mut w = self.weight_of(3, agreement[3]) + self.weight_of(4, agreement[4]);
        // The headline floor check: prune before any string comparator.
        if let Some(decision) = self.forced(w, FIRST_STRING_STAGE) {
            *prunes += 1;
            return decision;
        }
        // Stage 2: Dice over the precomputed bigram multisets.
        agreement[1] = pair.dice() >= DICE_AGREE;
        w += self.weight_of(1, agreement[1]);
        if let Some(decision) = self.forced(w, FIRST_STRING_STAGE + 1) {
            *prunes += 1;
            return decision;
        }
        // Stage 3: Levenshtein on the canonical forms.
        agreement[2] = pair.levenshtein() >= LEVENSHTEIN_AGREE;
        w += self.weight_of(2, agreement[2]);
        if let Some(decision) = self.forced(w, FIRST_STRING_STAGE + 2) {
            *prunes += 1;
            return decision;
        }
        // Stage 4: Jaro-Winkler on the order-preserving forms. The vector
        // is now complete, so it is classified exactly as the unpruned
        // reference would.
        agreement[0] = pair.jaro_winkler() >= JARO_WINKLER_AGREE;
        self.decide(&agreement)
    }

    /// [`FellegiSunter::classify`] of a complete agreement vector over
    /// the precomputed field weights: the same weights (computed once by
    /// the same functions), summed in the same field order, so the same
    /// total and the same decision without five logarithms per pair.
    #[inline]
    fn decide(&self, agreement: &[bool; NAME_FIELDS]) -> Decision {
        let w: f64 = (0..NAME_FIELDS)
            .map(|f| self.weight_of(f, agreement[f]))
            .sum();
        self.model.decide(w)
    }
}

/// Reusable comparator state for [`ScoreFloor::classify`] — one per
/// worker, not per pair: the bit-parallel kernels' position table, plus
/// running tallies read by the harvest's observability hooks and work
/// gates.
#[derive(Debug, Clone, Default)]
pub struct AgreementScratch {
    peq: PeqTable,
    prunes: u64,
    fallbacks: u64,
}

impl AgreementScratch {
    /// Number of classifications the score floor short-circuited before
    /// the full comparator chain ran (monotone over the scratch's life).
    pub fn prunes(&self) -> u64 {
        self.prunes
    }

    /// Number of classifications that took the reference-comparator
    /// fallback because a key was not compact (monotone over the
    /// scratch's life; zero on the synthetic worlds).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

/// A memo of one query's classified candidates, keyed by caller-assigned
/// dense candidate ids (for the harvest: the hit page's deduplicated
/// display name). The caller must keep the ids bijective with the
/// candidate keys — two ids may be equal only when the [`LinkKey`]s they
/// denote are — and [`clear`](AgreementCache::clear) the memo before the
/// next query. A query holds a handful of candidates, so the memo is a
/// short list scanned linearly.
#[derive(Debug, Clone, Default)]
pub struct AgreementCache {
    memo: Vec<(u32, Decision)>,
    lookups: u64,
    hits: u64,
}

impl AgreementCache {
    /// Creates an empty cache.
    pub fn new() -> AgreementCache {
        AgreementCache::default()
    }

    /// Classifies `(query, candidate)` through the floor, replaying the
    /// memo when the candidate (by id) was classified against this query
    /// before.
    pub fn classify(
        &mut self,
        candidate_id: u32,
        floor: &ScoreFloor,
        query: &LinkKey,
        candidate: &LinkKey,
        scratch: &mut AgreementScratch,
    ) -> Decision {
        self.lookups += 1;
        if let Some(&(_, decision)) = self.memo.iter().find(|(id, _)| *id == candidate_id) {
            self.hits += 1;
            return decision;
        }
        let decision = floor.classify(query, candidate, scratch);
        self.memo.push((candidate_id, decision));
        decision
    }

    /// Number of memoized candidates.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Classify calls routed through the memo since the last clear.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups served from the memo without re-classifying, since the
    /// last clear.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fraction of lookups served from the memo.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// Drops every memoized decision and zeroes the tallies, ready for
    /// the next query.
    pub fn clear(&mut self) {
        self.memo.clear();
        self.lookups = 0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linker::{compare_prepared, default_name_model};

    /// Names that exercise every decision band against each other:
    /// identical, nickname/reorder variants, typos, unrelated, initials,
    /// empty and junk.
    const NAMES: &[&str] = &[
        "Robert Smith",
        "robert smith",
        "Smith, Bob",
        "Dr. Robret Smith",
        "R. Smith",
        "Roberta Smith",
        "Robert Smyth",
        "Robert Jones",
        "Alice Walker",
        "alice m walker",
        "Wei Zhang",
        "Priya Patel",
        "Katherine O'Hara",
        "Kathy Ohara",
        "Alice Smith 17",
        "Alice Smith 203",
        "",
        "...  ,,",
        "Dr. Prof.",
        "X",
        // Fallback keys: non-ASCII, and longer than one 64-bit word.
        "José Núñez",
        "Jose Nunez",
        "Maximiliana Alexandrina Konstantinopoulou-Papadimitriou Worthington",
        "Maximiliana Alexandrina Konstantinopoulou Papadimitriou Worthingtn",
    ];

    /// Every name's key next to its independently prepared linkage keys.
    fn keyed(normalizer: &NameNormalizer) -> Vec<(LinkKey, PreparedName)> {
        NAMES
            .iter()
            .map(|n| (LinkKey::prepare(normalizer, n), normalizer.prepare(n)))
            .collect()
    }

    fn reference_decision(model: &FellegiSunter, a: &PreparedName, b: &PreparedName) -> Decision {
        model.classify(&compare_prepared(a, b).agreement_vector())
    }

    #[test]
    fn floor_matches_reference_on_every_pair() {
        let normalizer = NameNormalizer::new();
        let model = default_name_model();
        let floor = ScoreFloor::new(&model);
        let mut scratch = AgreementScratch::default();
        let keys = keyed(&normalizer);
        for (a, pa) in &keys {
            for (b, pb) in &keys {
                let expected = reference_decision(&model, pa, pb);
                let got = floor.classify(a, b, &mut scratch);
                assert_eq!(got, expected, "{:?} vs {:?}", pa.joined, pb.joined);
            }
        }
        // Three names are fallback keys; each of their pairs with any key
        // (themselves included) took the reference path.
        let wide = keys.iter().filter(|(k, _)| !k.is_compact()).count();
        assert_eq!(wide, 3);
        let expected_fallbacks = keys.len() * keys.len() - (keys.len() - wide).pow(2);
        assert_eq!(scratch.fallbacks(), expected_fallbacks as u64);
    }

    #[test]
    fn compact_form_follows_the_normalized_name() {
        let normalizer = NameNormalizer::new();
        let compact = |raw: &str| LinkKey::prepare(&normalizer, raw).is_compact();
        assert!(compact("Robert Smith") && compact("") && compact("Alice Smith 17"));
        assert!(!compact("José Núñez"));
        assert!(compact(&format!("{} b", "a".repeat(62))), "64 bytes");
        assert!(!compact(&format!("{} bc", "a".repeat(62))), "65 bytes");
        // A nickname expanding to two words breaks the token/word
        // correspondence, so the key falls back.
        let spaced = NameNormalizer::new().with_nickname("jd", "john doe");
        assert!(!LinkKey::prepare(&spaced, "JD Smith").is_compact());
        // A compact key rebuilds exactly the keys it was made from.
        for raw in NAMES {
            let key = LinkKey::prepare(&normalizer, raw);
            assert_eq!(*key.prepared(), normalizer.prepare(raw), "{raw:?}");
        }
    }

    #[test]
    fn floor_matches_reference_with_multiword_nicknames() {
        // Tokens containing spaces: joined forms may coincide while the
        // token lists and canonical forms differ.
        let normalizer = NameNormalizer::new().with_nickname("jd", "john doe");
        let model = default_name_model();
        let floor = ScoreFloor::new(&model);
        let mut scratch = AgreementScratch::default();
        let names = ["JD", "John Doe", "Doe John", "J. Doe", "JD Smith"];
        for a in names {
            for b in names {
                let (pa, pb) = (normalizer.prepare(a), normalizer.prepare(b));
                let (ka, kb) = (LinkKey::new(pa.clone()), LinkKey::new(pb.clone()));
                assert_eq!(
                    floor.classify(&ka, &kb, &mut scratch),
                    reference_decision(&model, &pa, &pb),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn floor_matches_reference_under_odd_models() {
        use crate::fellegi_sunter::FieldParams;
        let normalizer = NameNormalizer::new();
        let mut scratch = AgreementScratch::default();
        // Degenerate thresholds and skewed fields stress both prune
        // directions (always-NonMatch, always-Match, no-prune).
        let models = [
            FellegiSunter::new(vec![FieldParams::new(0.9, 0.1); NAME_FIELDS], -100.0, -90.0),
            FellegiSunter::new(vec![FieldParams::new(0.9, 0.1); NAME_FIELDS], 90.0, 100.0),
            FellegiSunter::new(vec![FieldParams::new(0.5, 0.5); NAME_FIELDS], 0.0, 0.0),
            default_name_model(),
        ];
        let keys = keyed(&normalizer);
        for model in &models {
            let floor = ScoreFloor::new(model);
            for (a, pa) in &keys {
                for (b, pb) in &keys {
                    assert_eq!(
                        floor.classify(a, b, &mut scratch),
                        reference_decision(model, pa, pb),
                    );
                }
            }
        }
    }

    #[test]
    fn cache_replays_decisions_and_counts_hits() {
        let normalizer = NameNormalizer::new();
        let floor = ScoreFloor::new(&default_name_model());
        let mut scratch = AgreementScratch::default();
        let mut cache = AgreementCache::new();
        let a = LinkKey::prepare(&normalizer, "Robert Smith");
        let b = LinkKey::prepare(&normalizer, "Dr. Bob Smith");
        let first = cache.classify(0, &floor, &a, &b, &mut scratch);
        let second = cache.classify(0, &floor, &a, &b, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.lookups(), cache.hits()), (2, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.lookups(), cache.hits()), (0, 0));
        assert_eq!(cache.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "5-field")]
    fn floor_rejects_wrong_arity() {
        use crate::fellegi_sunter::FieldParams;
        ScoreFloor::new(&FellegiSunter::new(
            vec![FieldParams::new(0.9, 0.1)],
            0.0,
            1.0,
        ));
    }
}
