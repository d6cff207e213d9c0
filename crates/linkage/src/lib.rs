//! # fred-linkage — record-linkage framework
//!
//! The adversary's harvesting step "uses the identifiers present in the
//! release to collect auxiliary information about the individuals" (paper
//! Section I). On the real web, names are noisy; this crate provides the
//! full programmatic equivalent of that lookup:
//!
//! * string comparators — [`edit`] (Levenshtein, OSA), [`jaro`](mod@jaro)
//!   (Jaro/Jaro-Winkler), [`ngram`] (Jaccard/Dice/cosine) and [`phonetic`]
//!   (Soundex, consonant skeletons);
//! * [`normalize`] — titles, punctuation, nicknames, initials;
//! * [`blocking`] — candidate generation (first-letter, surname-Soundex,
//!   sorted neighbourhood);
//! * [`fellegi_sunter`] — the probabilistic linkage model with EM
//!   parameter estimation;
//! * [`agreement`] — batch-rate classification: per-record comparator
//!   keys, a model-derived score floor that prunes hopeless pairs before
//!   any string comparison, and a reusable decided-pair memo;
//! * [`linker`] — the end-to-end pipeline with one-to-one assignment and
//!   precision/recall evaluation.
//!
//! ## Example
//!
//! ```
//! use fred_linkage::Linker;
//!
//! let release = vec!["Robert Smith".to_string(), "Christine Lee".to_string()];
//! let web = vec!["Dr. Bob Smith".to_string(), "christine lee".to_string()];
//! let links = Linker::new().link(&release, &web);
//! assert_eq!(links.len(), 2);
//! assert_eq!(links[0].right, 0); // Bob == Robert after normalization
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod blocking;
pub mod edit;
pub mod fellegi_sunter;
pub mod jaro;
pub mod linker;
pub mod ngram;
pub mod normalize;
pub mod phonetic;
pub mod tfidf;

pub use agreement::{AgreementCache, AgreementScratch, LinkKey, ScoreFloor};
pub use blocking::{
    candidate_pairs, candidate_pairs_iter, candidate_pairs_prepared, reduction_ratio, Blocking,
    CandidatePairs,
};
pub use edit::{damerau_osa, levenshtein, levenshtein_similarity};
pub use fellegi_sunter::{Decision, FellegiSunter, FieldParams};
pub use jaro::{jaro, jaro_winkler, jaro_winkler_with};
pub use linker::{
    compare_names, compare_prepared, default_name_model, evaluate, Link, LinkageQuality, Linker,
    LinkerConfig, NameFeatures,
};
pub use ngram::{bigrams_sorted, cosine, dice, dice_sorted_bigrams, jaccard, ngrams};
pub use normalize::{NameNormalizer, PreparedName, NICKNAMES};
pub use phonetic::{phonetic_skeleton, soundex};
pub use tfidf::TfIdf;
