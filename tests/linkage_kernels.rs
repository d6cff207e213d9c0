//! The harvest's linkage kernels against their references, and a work
//! gate on the path they take.
//!
//! The bit-parallel Levenshtein and Jaro-Winkler must return the `&str`
//! references' values to the bit on every input they accept, and refuse
//! exactly the inputs outside one 64-bit word or outside ASCII. The
//! compact-key classifier must decide every pair as the full reference
//! feature vector does, and `LinkKey::prepare`'s allocation-free ASCII
//! path must build exactly the key of the reference normalizer. And on
//! the canonical faculty world every release name and every distinct page
//! name must get a compact key, so a silent return to the slow fallback
//! path fails here even when wall-clock noise would hide it.

use std::sync::OnceLock;

use proptest::prelude::*;

use fred_bench::{faculty_world, World, WorldConfig};
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

/// Name pieces for the key property test: titles and suffixes the
/// normalizer drops, nicknames it expands (built-in and custom), names
/// with apostrophes, hyphens and digits, junk, and long words that push
/// the normalized form past one 64-bit word.
const PIECES: &[&str] = &[
    "Dr.",
    "mr",
    "Prof",
    "PhD",
    "Jr.",
    "iii",
    "Bob",
    "liz",
    "JIMMY",
    "jd",
    "zz",
    "ghost",
    "doc",
    "longnick",
    "Robert",
    "O'Brien",
    "Mary-Jane",
    "d'Angelo",
    "Smith",
    "Tanaka",
    "1771",
    "x",
    "...",
    ",,",
    "'",
    "-",
    "",
    "Konstantinopoulou",
    "Papadimitriou-Worthington",
];

/// The normalizers the key property runs under: the default, one without
/// nickname expansion, and one whose custom expansions are multi-word,
/// empty, non-ASCII, a title, or longer than one word.
fn normalizers() -> Vec<NameNormalizer> {
    vec![
        NameNormalizer::new(),
        NameNormalizer::new().without_nicknames(),
        NameNormalizer::new()
            .with_nickname("jd", "john doe")
            .with_nickname("zz", "")
            .with_nickname("ghost", "José")
            .with_nickname("doc", "dr")
            .with_nickname("longnick", &"n".repeat(70))
            .with_nickname("bob", "o'neil"),
    ]
}

proptest! {
    #[test]
    fn fast_path_keys_equal_the_reference_keys(
        parts in prop::collection::vec(
            (0usize..PIECES.len() + 1, "[A-Za-z0-9'.,-]{0,12}", "[ ,.'-]{0,3}"),
            0..14,
        ),
    ) {
        // Each part is a vocabulary piece, or a random chunk when the
        // index runs past the vocabulary, followed by a separator run.
        let raw: String = parts
            .iter()
            .flat_map(|(pick, chunk, sep)| {
                [PIECES.get(*pick).copied().unwrap_or(chunk.as_str()), sep.as_str()]
            })
            .collect();
        for normalizer in normalizers() {
            prop_assert_eq!(
                LinkKey::prepare(&normalizer, &raw),
                LinkKey::new(normalizer.prepare(&raw)),
                "raw {:?}", raw
            );
        }
    }
}

#[test]
fn fast_path_keys_equal_the_reference_keys_on_edge_names() {
    let long_word = "a".repeat(64);
    let over = format!("{} bc", "a".repeat(62));
    let edges = [
        "",
        " ",
        "Dr. Prof.",
        "...  ,, ",
        "JD",
        "Robert 'Bob' Smith",
        "Smith, Bob",
        "José Núñez",
        long_word.as_str(),
        over.as_str(),
        "Ghost Writer",
        "longnick x",
    ];
    for normalizer in normalizers() {
        for raw in edges {
            assert_eq!(
                LinkKey::prepare(&normalizer, raw),
                LinkKey::new(normalizer.prepare(raw)),
                "raw {raw:?}"
            );
        }
    }
}

/// The canonical 20k-row faculty world, built once per binary.
fn canonical_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        faculty_world(&WorldConfig {
            size: 20_000,
            ..WorldConfig::default()
        })
    })
}

#[test]
fn canonical_world_keys_equal_the_reference_keys() {
    let world = canonical_world();
    let normalizer = NameNormalizer::new();
    let release = world.table.identifier_strings();
    let display = world.web.distinct_display_names();
    let names = release
        .iter()
        .map(String::as_str)
        .chain(display.names.iter().copied());
    let mut checked = 0usize;
    for name in names {
        assert_eq!(
            LinkKey::prepare(&normalizer, name),
            LinkKey::new(normalizer.prepare(name)),
            "name {name:?}"
        );
        checked += 1;
    }
    assert_eq!(checked, release.len() + display.names.len());
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
    let world = canonical_world();
    let normalizer = NameNormalizer::new();
    let release = world.table.identifier_strings();
    let display = world.web.distinct_display_names();
    let (page_name_ids, page_names) = (&display.page_name_ids, &display.names);
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
