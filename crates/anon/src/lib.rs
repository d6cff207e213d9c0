//! # fred-anon — anonymization substrate
//!
//! Partitioning-based k-anonymization algorithms and the privacy/utility
//! machinery around them:
//!
//! * [`mdav::Mdav`] — microaggregation (Domingo-Ferrer), the paper's
//!   `Basic_Anonymization` procedure;
//! * [`mondrian::Mondrian`] — multidimensional k-anonymity (LeFevre et al.),
//!   used as an ablation baseline;
//! * [`generalize::FullDomain`] — Datafly-style full-domain generalization
//!   over value-generalization hierarchies;
//! * [`release::build_release`] — turns a partition into a published table
//!   (identifiers kept, QIs generalized, sensitive cells suppressed);
//! * checkers: [`kanon`] (k-anonymity), [`diversity`] (l-diversity),
//!   [`closeness`](mod@closeness) (t-closeness);
//! * [`utility`](mod@utility) — the discernibility metric `C_DM` and friends.
//!
//! ## Example
//!
//! ```
//! use fred_anon::{Anonymizer, Mdav, build_release, QiStyle, is_k_anonymous};
//! use fred_data::{Schema, Table, Value};
//!
//! let schema = Schema::builder()
//!     .identifier("Name")
//!     .quasi_numeric("Valuation")
//!     .sensitive_numeric("Income")
//!     .build()
//!     .unwrap();
//! let table = Table::with_rows(schema, (0..10).map(|i| vec![
//!     Value::Text(format!("p{i}")),
//!     Value::Float(i as f64),
//!     Value::Float(50_000.0 + 1_000.0 * i as f64),
//! ]).collect()).unwrap();
//!
//! let partition = Mdav::new().partition(&table, 3).unwrap();
//! let release = build_release(&table, &partition, 3, QiStyle::Range).unwrap();
//! assert!(is_k_anonymous(&release.table, 3).unwrap());
//! ```

#![warn(missing_docs)]

pub mod anonymizer;
pub mod closeness;
pub mod diversity;
pub mod error;
pub mod generalize;
pub mod kanon;
pub mod mdav;
pub mod mondrian;
pub mod optimal;
pub mod partition;
pub mod release;
pub mod utility;

pub use anonymizer::Anonymizer;
pub use closeness::{closeness, is_t_close, ordered_emd, variational_distance};
pub use diversity::{
    distinct_diversity, entropy_diversity, is_distinct_l_diverse, is_entropy_l_diverse,
};
pub use error::{AnonError, Result};
pub use generalize::{AttributeHierarchy, FullDomain, Hierarchy, NumericHierarchy};
pub use kanon::{anonymity_level, classes_from_release, is_k_anonymous};
pub use mdav::{HierarchicalMdav, Mdav};
pub use mondrian::Mondrian;
pub use optimal::{within_class_sse, OptimalUnivariate};
pub use partition::{EquivalenceClass, Partition};
pub use release::{build_release, class_summary, ClassSummarizer, QiStyle, Release, ReleaseChunks};
pub use utility::{
    average_class_size, discernibility, loss_metric, per_record_costs, per_record_utilities,
    utility,
};
