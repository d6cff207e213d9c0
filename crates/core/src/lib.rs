//! # fred-core — Fusion Resilient Enterprise Data anonymization
//!
//! The paper's primary contribution:
//!
//! * [`dissimilarity`](mod@dissimilarity) — Definition 1's measure
//!   `D1 ∘ D2 = (1/m)·Tr((D1−D2)ᵀ(D1−D2))` and the adversary's
//!   information gain `G = (P∘P′) − (P∘P̂)`;
//! * [`objective`] — the weighted objective `H = W1·(P∘P̂) + W2·U`,
//!   thresholds `Tp`/`Tu` and min-max-normalized scoring;
//! * [`sweep`](mod@sweep) — the per-`k` measurement engine behind Figures 4-8;
//! * [`fred`] — **Algorithm 1**, FRED Anonymization: the iterative search
//!   for the fusion-resilient level `k_opt`.
//!
//! ## Example
//!
//! ```
//! use fred_anon::Mdav;
//! use fred_attack::{FuzzyFusion, FuzzyFusionConfig};
//! use fred_core::{fred_anonymize, FredParams};
//! use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
//! use fred_web::{build_corpus, CorpusConfig};
//!
//! let people = generate_population(&PopulationConfig { size: 40, ..Default::default() });
//! let table = customer_table(&people, &CustomerConfig::default());
//! let web = build_corpus(&people, &CorpusConfig::default());
//! let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
//!
//! let result = fred_anonymize(
//!     &table,
//!     &web,
//!     &Mdav::new(),
//!     &fusion,
//!     &FredParams { k_max: 10, ..FredParams::default() },
//! ).unwrap();
//! assert!(result.k_opt >= 2);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod dissimilarity;
pub mod error;
pub mod fred;
pub mod objective;
pub mod sweep;

pub use adaptive::{adaptive_anonymize, AdaptiveParams, AdaptiveResult};
pub use dissimilarity::{dissimilarity, dissimilarity_matrix, information_gain};
pub use error::{CoreError, Result};
pub use fred::{fred_anonymize, Candidate, FredParams, FredResult};
pub use objective::{
    min_max_normalize, normalized_objective, raw_objective, FredWeights, Thresholds,
};
pub use sweep::{sweep, SweepConfig, SweepReport, SweepRow};

/// Convenience prelude for downstream users.
pub mod prelude {
    pub use crate::{
        dissimilarity, fred_anonymize, information_gain, sweep, FredParams, FredWeights,
        SweepConfig, Thresholds,
    };
    pub use fred_anon::{build_release, Anonymizer, Mdav, Mondrian, QiStyle};
    pub use fred_attack::{
        FusionSystem, FuzzyFusion, FuzzyFusionConfig, MidpointEstimator, WebFusionAttack,
    };
    pub use fred_data::{Schema, Table, Value};
    pub use fred_web::{build_corpus, CorpusConfig, SearchEngine};
}
