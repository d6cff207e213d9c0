//! # fred-composition — multi-release composition attacks
//!
//! The paper's threat model fuses *one* sanitized release with harvested
//! web data. Its natural escalation — Ganta, Kasiviswanathan & Smith,
//! "Composition Attacks and Auxiliary Information in Data Privacy" — is
//! an adversary holding *several* independently k-anonymized releases of
//! overlapping populations, cross-referencing them against each other
//! **and** the web harvest. Each release is safe in isolation; their
//! composition is not.
//!
//! * [`scenario`] — splits one population into `R` overlapping
//!   sub-populations and anonymizes each independently through the
//!   existing `fred-anon` pipeline (per-source seeds and QI styles);
//! * [`intersect`] — the intersection engine: per-target candidate sets
//!   and quasi-identifier feasible boxes intersected across the
//!   releases, each indexed once from one read of its quasi-identifiers
//!   by a [`fred_anon::ClassSummarizer`] and never materialized, then
//!   probed over any prefix of the indexes (parallel probing engine +
//!   row-scan oracle over the built releases, property-pinned);
//! * [`fuse`] — folds the intersection posterior together with the
//!   web-harvest evidence through any [`fred_attack::FusionSystem`],
//!   yielding a [`CompositionOutcome`] with per-record disclosure gain;
//!   its context and cell evaluator serve the attack and both sweeps;
//! * [`sweep`] — [`composition_sweep`]: `ks × releases` at a fixed
//!   overlap, the subsystem's evaluation axis (wired into
//!   `repro --compose`), read off one cell grid;
//! * [`defense`] — the countermeasure axis: [`DefensePolicy`]
//!   (coordinated core partitions, capped source overlap, widening
//!   calibrated against the composed intersection by probing the same
//!   class maps the intersection engine builds), threaded through the
//!   scenario generator and swept side by side with the attack by
//!   [`defense_sweep`] (`repro --compose --defend`).
//!
//! ## Example
//!
//! ```
//! use fred_anon::Mdav;
//! use fred_attack::{FuzzyFusion, FuzzyFusionConfig};
//! use fred_composition::{compose_attack, CompositionConfig, ScenarioConfig};
//! use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
//! use fred_web::{build_corpus, CorpusConfig};
//!
//! let people = generate_population(&PopulationConfig { size: 60, ..Default::default() });
//! let table = customer_table(&people, &CustomerConfig::default());
//! let web = build_corpus(&people, &CorpusConfig::default());
//! let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
//!
//! let outcome = compose_attack(
//!     &table,
//!     &web,
//!     &Mdav::new(),
//!     &fusion,
//!     &CompositionConfig {
//!         scenario: ScenarioConfig { releases: 3, k: 4, ..ScenarioConfig::default() },
//!         ..CompositionConfig::default()
//!     },
//! )
//! .unwrap();
//! // Three releases leave each target with fewer consistent identities
//! // than the k = 4 a single release guarantees.
//! assert!(outcome.mean_candidates < 2.0 * 4.0);
//! ```

#![warn(missing_docs)]

pub mod defense;
pub mod error;
pub mod fuse;
pub mod intersect;
pub mod scenario;
pub mod sweep;

pub use defense::DefensePolicy;
pub use error::{CompositionError, Result};
pub use fuse::{
    compose_attack, compose_attack_tolerant, fused_table, CompositionConfig, CompositionOutcome,
    CompositionRecord,
};
pub use intersect::{
    intersect_releases, intersect_releases_sequential, intersect_releases_tolerant,
    TargetIntersection,
};
pub use scenario::{core_targets, generate_scenario, CompositionScenario, ScenarioConfig, Source};
pub use sweep::{
    composition_sweep, defense_sweep, CompositionSweepConfig, CompositionSweepReport,
    CompositionSweepRow, DefenseSweepReport, DefenseSweepRow,
};
