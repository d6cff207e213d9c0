//! The harvest's linkage kernels against their references, and a work
//! gate on the path they take.
//!
//! The bit-parallel Levenshtein and Jaro-Winkler must return the `&str`
//! references' values to the bit on every input they accept, and refuse
//! exactly the inputs outside one 64-bit word or outside ASCII. The
//! compact-key classifier must decide every pair as the full reference
//! feature vector does. And on the canonical faculty world every release
//! name and every distinct page name must get a compact key, so a silent
//! return to the slow fallback path fails here even when wall-clock
//! noise would hide it.

use proptest::prelude::*;

use fred_bench::{faculty_world, WorldConfig};
use fred_suite::attack::{reference_sample_rows, HarvestConfig};
use fred_suite::linkage::bitpar::{self, PeqTable};
use fred_suite::linkage::{
    compare_prepared, default_name_model, jaro_winkler, levenshtein_similarity, AgreementScratch,
    LinkKey, NameNormalizer, ScoreFloor,
};

/// String lengths on the word boundary of the kernels, forced on either
/// side of a pair.
const EDGE_LENGTHS: [usize; 5] = [0, 1, 63, 64, 65];

/// A length for one side: an edge length for `pick < 5`, else `free`.
fn side_len(pick: usize, free: usize) -> usize {
    EDGE_LENGTHS.get(pick).copied().unwrap_or(free)
}

/// The first `len` characters of `pool`, with its character at `at`
/// (modulo the length) replaced by `é` when `accent` is set.
fn side(pool: &str, len: usize, accent: bool, at: usize) -> String {
    let mut chars: Vec<char> = pool.chars().take(len).collect();
    if accent && !chars.is_empty() {
        let i = at % chars.len();
        chars[i] = 'é';
    }
    chars.into_iter().collect()
}

proptest! {
    #[test]
    fn bit_parallel_comparators_equal_the_references_to_the_bit(
        a_pool in "[ab c]{70}",
        b_pool in "[ab c]{70}",
        picks in (0usize..10, 0usize..10),
        free in (0usize..70, 0usize..70),
        accent in 0usize..6,
        at in 0usize..70,
    ) {
        let a = side(&a_pool, side_len(picks.0, free.0), accent == 0, at);
        let b = side(&b_pool, side_len(picks.1, free.1), accent == 1, at);
        let mut peq = PeqTable::default();
        let in_domain = bitpar::fits(&a) && bitpar::fits(&b);
        for (x, y) in [(&a, &b), (&b, &a)] {
            match bitpar::levenshtein_similarity(x, y, &mut peq) {
                Some(fast) => prop_assert_eq!(
                    fast.to_bits(),
                    levenshtein_similarity(x, y).to_bits(),
                    "levenshtein {:?} vs {:?}", x, y
                ),
                None => prop_assert!(!in_domain, "refused {:?} vs {:?}", x, y),
            }
            match bitpar::jaro_winkler(x, y, &mut peq) {
                Some(fast) => prop_assert_eq!(
                    fast.to_bits(),
                    jaro_winkler(x, y).to_bits(),
                    "jaro-winkler {:?} vs {:?}", x, y
                ),
                None => prop_assert!(!in_domain, "refused {:?} vs {:?}", x, y),
            }
        }
    }

    #[test]
    fn bit_parallel_comparators_agree_on_a_two_letter_alphabet(
        a in "[ab]{0,64}",
        b in "[ab]{0,64}",
    ) {
        // Two letters: dense matches, long transposition chains and
        // many equal-cost edit paths.
        let mut peq = PeqTable::default();
        let lev = bitpar::levenshtein_similarity(&a, &b, &mut peq).expect("in domain");
        let jw = bitpar::jaro_winkler(&a, &b, &mut peq).expect("in domain");
        prop_assert_eq!(lev.to_bits(), levenshtein_similarity(&a, &b).to_bits());
        prop_assert_eq!(jw.to_bits(), jaro_winkler(&a, &b).to_bits());
    }

    #[test]
    fn compact_key_classifier_equals_the_reference(
        names in prop::collection::vec("[abé. ]{0,70}", 2..12),
    ) {
        // Raw names over a tiny alphabet: initials, repeated tokens,
        // dots and spaces the normalizer strips, an accent that forces
        // the fallback, and lengths on both sides of one word.
        let normalizer = NameNormalizer::new();
        let model = default_name_model();
        let floor = ScoreFloor::new(&model);
        let mut scratch = AgreementScratch::default();
        let keyed: Vec<_> = names
            .iter()
            .map(|n| (LinkKey::prepare(&normalizer, n), normalizer.prepare(n)))
            .collect();
        for (ka, pa) in &keyed {
            for (kb, pb) in &keyed {
                let expected = model.classify(&compare_prepared(pa, pb).agreement_vector());
                prop_assert_eq!(
                    floor.classify(ka, kb, &mut scratch),
                    expected,
                    "{:?} vs {:?}", pa.joined, pb.joined
                );
            }
        }
    }
}

/// Names among `names` whose comparator key falls back to the reference
/// comparators.
fn fallback_names<'a>(normalizer: &NameNormalizer, names: impl Iterator<Item = &'a str>) -> usize {
    names
        .filter(|name| !LinkKey::prepare(normalizer, name).is_compact())
        .count()
}

#[test]
fn canonical_world_names_all_take_the_compact_path() {
    let world = faculty_world(&WorldConfig {
        size: 20_000,
        ..WorldConfig::default()
    });
    let normalizer = NameNormalizer::new();
    let release = world.table.identifier_strings();
    let (page_name_ids, page_names) = world.web.distinct_display_names();
    assert!(!release.is_empty() && !page_names.is_empty());
    let release_fallbacks = fallback_names(&normalizer, release.iter().map(String::as_str));
    let page_fallbacks = fallback_names(&normalizer, page_names.iter().copied());
    assert_eq!(
        (release_fallbacks, page_fallbacks),
        (0, 0),
        "release / page names whose keys fell back to the reference comparators"
    );
    // The classifier's own tally over a sample of the harvest's real
    // pairs (each sampled name against its top hits) stays at zero too.
    let floor = ScoreFloor::new(&default_name_model());
    let mut scratch = AgreementScratch::default();
    let limit = HarvestConfig::default().hits_per_name;
    let mut pairs = 0usize;
    for row in reference_sample_rows(release.len(), 500, 0x11AC) {
        let query = LinkKey::prepare(&normalizer, &release[row]);
        for hit in world.web.search_topk(&release[row], limit) {
            let page_name = page_names[page_name_ids[hit.page] as usize];
            floor.classify(
                &query,
                &LinkKey::prepare(&normalizer, page_name),
                &mut scratch,
            );
            pairs += 1;
        }
    }
    assert!(pairs > 0, "the sampled names have hits");
    assert_eq!(
        scratch.fallbacks(),
        0,
        "fallback classifications over {pairs} pairs"
    );
}
