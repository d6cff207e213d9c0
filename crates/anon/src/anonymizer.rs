//! The [`Anonymizer`] abstraction: anything that can partition a table into
//! k-member equivalence classes.
//!
//! Algorithm 1 of the paper is parametric in its `Basic_Anonymization`
//! procedure ("any basic anonymization algorithm such as \[9\] \[3\] can be
//! used"); this trait is that parameter. The workspace ships three
//! implementations: [`crate::mdav::Mdav`] (the paper's choice),
//! [`crate::mondrian::Mondrian`] and
//! [`crate::generalize::FullDomain`].

use crate::error::{AnonError, Result};
use crate::partition::Partition;
use fred_data::Table;

/// A partitioning anonymization algorithm.
/// `Sync` is a supertrait so anonymizers can be shared across the worker
/// threads of the parallel k-sweep; every implementor is plain data.
pub trait Anonymizer: Sync {
    /// Short human-readable algorithm name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Partitions `table` into equivalence classes of at least `k` rows.
    ///
    /// Implementations must return a partition where every class has
    /// `len >= k` whenever `table.len() >= k`, and must fail with
    /// [`AnonError::NotEnoughRows`] otherwise.
    fn partition(&self, table: &Table, k: usize) -> Result<Partition>;
}

/// Validates the common preconditions shared by all anonymizers and returns
/// the numeric quasi-identifier matrix.
pub(crate) fn numeric_qi_matrix(table: &Table, k: usize) -> Result<Vec<Vec<f64>>> {
    if k == 0 {
        return Err(AnonError::InvalidK(k));
    }
    if table.len() < k {
        return Err(AnonError::NotEnoughRows {
            rows: table.len(),
            k,
        });
    }
    let qi = table.schema().quasi_identifier_indices();
    if qi.is_empty() {
        return Err(AnonError::NoQuasiIdentifiers);
    }
    table
        .numeric_matrix(&qi)
        .map_err(|_| AnonError::NonNumericQuasiIdentifiers)
}

/// Z-score normalizes a matrix column-wise in place (population std).
/// Constant columns are left at zero so they never influence distances.
pub(crate) fn normalize_columns(matrix: &mut [Vec<f64>]) {
    if matrix.is_empty() {
        return;
    }
    let cols = matrix[0].len();
    let n = matrix.len() as f64;
    for c in 0..cols {
        let mean = matrix.iter().map(|r| r[c]).sum::<f64>() / n;
        let var = matrix
            .iter()
            .map(|r| (r[c] - mean) * (r[c] - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        for row in matrix.iter_mut() {
            row[c] = if std > 0.0 {
                (row[c] - mean) / std
            } else {
                0.0
            };
        }
    }
}

/// Squared Euclidean distance between two equally-long points.
#[inline]
pub(crate) fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_data::{Schema, Table, Value};

    fn table(rows: &[(f64, f64)]) -> Table {
        let schema = Schema::builder()
            .quasi_numeric("x")
            .quasi_numeric("y")
            .build()
            .unwrap();
        Table::with_rows(
            schema,
            rows.iter()
                .map(|&(x, y)| vec![Value::Float(x), Value::Float(y)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn precondition_checks() {
        let t = table(&[(1.0, 2.0), (3.0, 4.0)]);
        assert!(matches!(
            numeric_qi_matrix(&t, 0),
            Err(AnonError::InvalidK(0))
        ));
        assert!(matches!(
            numeric_qi_matrix(&t, 5),
            Err(AnonError::NotEnoughRows { rows: 2, k: 5 })
        ));
        assert_eq!(numeric_qi_matrix(&t, 2).unwrap().len(), 2);

        let no_qi = Table::new(Schema::builder().identifier("Name").build().unwrap());
        assert!(matches!(
            numeric_qi_matrix(&no_qi, 1),
            Err(AnonError::NotEnoughRows { .. })
        ));
    }

    #[test]
    fn no_quasi_identifier_error() {
        let schema = Schema::builder().identifier("Name").build().unwrap();
        let t = Table::with_rows(schema, vec![vec![Value::Text("a".into())]]).unwrap();
        assert!(matches!(
            numeric_qi_matrix(&t, 1),
            Err(AnonError::NoQuasiIdentifiers)
        ));
    }

    #[test]
    fn normalization_zero_mean_unit_var() {
        let mut m = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        normalize_columns(&mut m);
        let mean0: f64 = m.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        // Constant column collapses to zero.
        assert!(m.iter().all(|r| r[1] == 0.0));
        let var0: f64 = m.iter().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dist2_is_squared_euclidean() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
    }
}
