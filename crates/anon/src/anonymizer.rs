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
use rayon::prelude::*;

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

    /// Partitions every table in `tables` at level `k`, returning the
    /// partitions in table order; fails with the first table's error in
    /// that order. The default maps [`partition`](Self::partition) over the
    /// tables on the pool. An anonymizer whose own body fans out (MDAV's
    /// leaves) overrides it to run the whole batch as one flat task list,
    /// since a parallel call made inside a pool worker runs inline.
    fn partition_all(&self, tables: &[&Table], k: usize) -> Result<Vec<Partition>> {
        tables
            .par_iter()
            .map(|table| self.partition(table, k))
            .collect()
    }
}

/// A table's numeric quasi-identifiers as row-major points in one buffer:
/// row `r` is `coords[r * dims..(r + 1) * dims]`.
pub(crate) struct Points {
    pub(crate) coords: Vec<f64>,
    pub(crate) dims: usize,
}

impl Points {
    /// Validates the common preconditions shared by all anonymizers and
    /// reads the table's numeric quasi-identifiers. A NaN or infinite
    /// cell is an error naming its row and column: it has no place in a
    /// median split or a distance.
    pub(crate) fn numeric_qi(table: &Table, k: usize) -> Result<Points> {
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
        let mut coords = Vec::with_capacity(table.len() * qi.len());
        for (r, row) in table.rows().iter().enumerate() {
            for &c in &qi {
                let value = row[c]
                    .as_f64()
                    .ok_or(AnonError::NonNumericQuasiIdentifiers)?;
                if !value.is_finite() {
                    return Err(AnonError::NonFiniteQuasiIdentifier {
                        row: r,
                        column: table.schema().attributes()[c].name().to_owned(),
                    });
                }
                coords.push(value);
            }
        }
        Ok(Points {
            coords,
            dims: qi.len(),
        })
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// The point of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.coords[r * self.dims..(r + 1) * self.dims]
    }

    /// Coordinate `d` of row `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, d: usize) -> f64 {
        self.coords[r * self.dims + d]
    }

    /// Every point, in row order.
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.coords.chunks_exact(self.dims)
    }

    /// Z-score normalizes each column in place (population std).
    /// Constant columns are left at zero so they never influence
    /// distances.
    pub(crate) fn normalize(&mut self) {
        let (n, dims) = (self.len() as f64, self.dims);
        for c in 0..dims {
            let column = || self.coords.iter().skip(c).step_by(dims);
            let mean = column().sum::<f64>() / n;
            let var = column().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let std = var.sqrt();
            for v in self.coords.iter_mut().skip(c).step_by(dims) {
                *v = if std > 0.0 { (*v - mean) / std } else { 0.0 };
            }
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
            Points::numeric_qi(&t, 0),
            Err(AnonError::InvalidK(0))
        ));
        assert!(matches!(
            Points::numeric_qi(&t, 5),
            Err(AnonError::NotEnoughRows { rows: 2, k: 5 })
        ));
        assert_eq!(Points::numeric_qi(&t, 2).unwrap().len(), 2);

        let no_qi = Table::new(Schema::builder().identifier("Name").build().unwrap());
        assert!(matches!(
            Points::numeric_qi(&no_qi, 1),
            Err(AnonError::NotEnoughRows { .. })
        ));

        let schema = Schema::builder().quasi_categorical("q").build().unwrap();
        let text = Table::with_rows(schema, vec![vec![Value::Categorical("a".into())]]).unwrap();
        assert!(matches!(
            Points::numeric_qi(&text, 1),
            Err(AnonError::NonNumericQuasiIdentifiers)
        ));
    }

    #[test]
    fn no_quasi_identifier_error() {
        let schema = Schema::builder().identifier("Name").build().unwrap();
        let t = Table::with_rows(schema, vec![vec![Value::Text("a".into())]]).unwrap();
        assert!(matches!(
            Points::numeric_qi(&t, 1),
            Err(AnonError::NoQuasiIdentifiers)
        ));
    }

    #[test]
    fn normalization_zero_mean_unit_var() {
        let t = table(&[(1.0, 10.0), (3.0, 10.0), (5.0, 10.0)]);
        let mut p = Points::numeric_qi(&t, 1).unwrap();
        assert_eq!(p.coords, vec![1.0, 10.0, 3.0, 10.0, 5.0, 10.0]);
        p.normalize();
        let mean0: f64 = p.rows().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        // Constant column collapses to zero.
        assert!(p.rows().all(|r| r[1] == 0.0));
        let var0: f64 = p.rows().map(|r| r[0] * r[0]).sum::<f64>() / 3.0;
        assert!((var0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dist2_is_squared_euclidean() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
    }
}
