//! # fred-web — the synthetic web
//!
//! The paper's adversary harvests auxiliary data "from a multitude of
//! sources such as the web (homepages, blogs etc)". Real web data is not
//! available, so this crate builds the closest synthetic equivalent that
//! exercises the same code path:
//!
//! * [`page`] — templated person pages of four kinds (directory entries,
//!   homepages, news blurbs, property records), each carrying a different
//!   subset of facts;
//! * [`noise`] — a name-noise channel (nicknames, initials, typos,
//!   honorifics, reordering) between the enterprise name and the web name;
//! * [`index`] — an inverted-index search engine with TF-IDF ranking (the
//!   adversary's "index into the web");
//! * [`extract`](mod@extract) — semi-structured attribute extraction back into
//!   [`extract::AuxRecord`]s (the paper's Table IV rows);
//! * [`corpus`] — ties a `fred-synth` population to a searchable corpus.
//!
//! ## Example
//!
//! ```
//! use fred_synth::{generate_population, PopulationConfig};
//! use fred_web::{build_corpus, CorpusConfig, extract::extract};
//!
//! let people = generate_population(&PopulationConfig { size: 30, web_presence_rate: 1.0, ..Default::default() });
//! let engine = build_corpus(&people, &CorpusConfig::default());
//! let hits = engine.search(&people[0].name, 5);
//! assert!(!hits.is_empty());
//! let record = extract(engine.page(hits[0].page).unwrap());
//! assert!(!record.name.is_empty());
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod corrupt;
pub mod extract;
pub mod index;
pub mod noise;
pub mod page;

pub use corpus::{audit_property_pages, build_corpus, CorpusConfig, PropertyAudit};
pub use corrupt::corrupt_pages;
pub use extract::{consolidate, extract, extract_checked, title_seniority, AuxRecord};
pub use index::{SearchEngine, SearchHit, SearchScratch, TermCache};
pub use noise::NameNoise;
pub use page::{tokenize, PageKind, WebPage};
