//! # fred-attack — the Web-Based Information-Fusion Attack
//!
//! The adversary of the paper (Figure 1): an insider with access to an
//! anonymized enterprise release uses the retained identifiers to harvest
//! auxiliary information from the web, links it back to the release rows,
//! and fuses both through a fuzzy inference system to estimate the
//! suppressed sensitive attribute.
//!
//! * [`aux`] — harvesting: search → record linkage → extraction →
//!   consolidation, one body with the fault plan as a parameter
//!   ([`harvest_auxiliary_tolerant`]; [`harvest_auxiliary`] is its
//!   zero-fault call);
//! * [`fusion`] — the fusion systems: [`FuzzyFusion`] (the paper's F),
//!   [`LinearFusion`] and [`MidpointEstimator`] baselines;
//! * [`attack`] — the end-to-end [`WebFusionAttack`] pipeline.
//!
//! ## Example
//!
//! ```
//! use fred_anon::{Anonymizer, Mdav, build_release, QiStyle};
//! use fred_attack::WebFusionAttack;
//! use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
//! use fred_web::{build_corpus, CorpusConfig};
//!
//! let people = generate_population(&PopulationConfig { size: 40, ..Default::default() });
//! let table = customer_table(&people, &CustomerConfig::default());
//! let web = build_corpus(&people, &CorpusConfig::default());
//!
//! // The enterprise publishes a 4-anonymized release with names retained.
//! let partition = Mdav::new().partition(&table, 4).unwrap();
//! let release = build_release(&table, &partition, 4, QiStyle::Range).unwrap();
//!
//! // The insider attacks it.
//! let outcome = WebFusionAttack::new().unwrap().run(&release.table, &web).unwrap();
//! assert_eq!(outcome.estimates.len(), 40);
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod aux;
pub mod error;
pub mod explain;
pub mod fusion;

pub use attack::{AttackOutcome, WebFusionAttack};
pub use aux::{
    harvest_auxiliary, harvest_auxiliary_reference_sampled, harvest_auxiliary_sequential,
    harvest_auxiliary_tolerant, harvest_precision, reference_sample_rows, Harvest, HarvestConfig,
};
pub use error::{AttackError, Result};
pub use explain::{explain_attack, most_exposed, RecordExplanation};
pub use fusion::{FusionSystem, FuzzyFusion, FuzzyFusionConfig, LinearFusion, MidpointEstimator};
