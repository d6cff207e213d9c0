//! Errors for the anonymization crate.

use fred_data::DataError;
use std::fmt;

/// Errors produced by anonymizers, checkers and metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonError {
    /// Underlying data-layer failure.
    Data(DataError),
    /// `k` must be at least 1 (at least 2 for a meaningful anonymization).
    InvalidK(usize),
    /// The table has fewer rows than `k`, so no k-partition exists.
    NotEnoughRows {
        /// Rows available.
        rows: usize,
        /// Requested anonymity parameter.
        k: usize,
    },
    /// The table's quasi-identifiers are not numeric but the algorithm
    /// requires numeric QIs.
    NonNumericQuasiIdentifiers,
    /// A numeric quasi-identifier cell is NaN or infinite, so it has no
    /// place in the order or the distances an anonymizer works with.
    NonFiniteQuasiIdentifier {
        /// Row of the cell.
        row: usize,
        /// Name of the cell's column.
        column: String,
    },
    /// The table has no quasi-identifier attributes.
    NoQuasiIdentifiers,
    /// The table has no sensitive attributes but the check requires one.
    NoSensitiveAttribute,
    /// A partition is inconsistent with the table it claims to cover.
    InvalidPartition(String),
    /// A generalization hierarchy is malformed.
    InvalidHierarchy(String),
    /// The requested generalization level does not exist.
    LevelOutOfRange {
        /// Requested level.
        level: usize,
        /// Number of levels available.
        max: usize,
    },
}

impl fmt::Display for AnonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnonError::Data(e) => write!(f, "data error: {e}"),
            AnonError::InvalidK(k) => write!(f, "invalid anonymity parameter k={k}"),
            AnonError::NotEnoughRows { rows, k } => {
                write!(f, "table has {rows} rows, cannot form k={k} partition")
            }
            AnonError::NonNumericQuasiIdentifiers => {
                write!(f, "algorithm requires numeric quasi-identifiers")
            }
            AnonError::NonFiniteQuasiIdentifier { row, column } => {
                write!(f, "quasi-identifier {column:?} of row {row} is not finite")
            }
            AnonError::NoQuasiIdentifiers => write!(f, "schema declares no quasi-identifiers"),
            AnonError::NoSensitiveAttribute => write!(f, "schema declares no sensitive attribute"),
            AnonError::InvalidPartition(msg) => write!(f, "invalid partition: {msg}"),
            AnonError::InvalidHierarchy(msg) => write!(f, "invalid hierarchy: {msg}"),
            AnonError::LevelOutOfRange { level, max } => {
                write!(f, "generalization level {level} out of range (max {max})")
            }
        }
    }
}

impl std::error::Error for AnonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnonError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for AnonError {
    fn from(e: DataError) -> Self {
        AnonError::Data(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AnonError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AnonError::NotEnoughRows { rows: 3, k: 5 };
        assert!(e.to_string().contains("3 rows"));
        let e: AnonError = DataError::EmptyTable.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(AnonError::InvalidK(0).to_string().contains("k=0"));
        let e = AnonError::NonFiniteQuasiIdentifier {
            row: 7,
            column: "Age".into(),
        };
        assert_eq!(
            e.to_string(),
            "quasi-identifier \"Age\" of row 7 is not finite"
        );
    }
}
