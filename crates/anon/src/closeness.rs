//! t-closeness (Li, Li, Venkatasubramanian, ICDE 2007 — reference \[7\]).
//!
//! A partition is t-close when, in every equivalence class, the distribution
//! of the sensitive attribute is within Earth Mover's Distance `t` of the
//! global distribution. Numeric attributes use the ordered-distance EMD of
//! the original paper; categorical attributes use variational distance
//! (equal ground distance).

use crate::error::{AnonError, Result};
use crate::partition::Partition;
use fred_data::Table;
use std::collections::HashMap;

fn sensitive_column(table: &Table) -> Result<usize> {
    table
        .schema()
        .sensitive_indices()
        .first()
        .copied()
        .ok_or(AnonError::NoSensitiveAttribute)
}

/// EMD between two distributions over the *same ordered support* of `m`
/// values with unit adjacent distance, normalized by `m - 1`:
/// `(1/(m-1)) * Σ_i |Σ_{j<=i} (p_j - q_j)|`.
pub fn ordered_emd(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let m = p.len();
    if m <= 1 {
        return 0.0;
    }
    let mut cum = 0.0;
    let mut total = 0.0;
    for i in 0..m {
        cum += p[i] - q[i];
        total += cum.abs();
    }
    total / (m - 1) as f64
}

/// Variational distance `0.5 * Σ |p_i - q_i|` (EMD with equal ground
/// distance, used for categorical attributes).
pub fn variational_distance(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    0.5 * p.iter().zip(q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// The closeness of the partition: the maximum EMD between any class's
/// sensitive distribution and the global one. The partition is t-close iff
/// this value is at most `t`.
///
/// Numeric sensitive attributes use [`ordered_emd`] over the sorted distinct
/// observed values; categorical ones use [`variational_distance`].
pub fn closeness(table: &Table, partition: &Partition) -> Result<f64> {
    let sens = sensitive_column(table)?;
    if table.is_empty() {
        return Ok(0.0);
    }
    let numeric = table.rows().iter().all(|r| r[sens].as_f64().is_some());

    // Build the ordered support of distinct values (numeric: by value;
    // categorical: lexical — order is irrelevant for variational distance).
    let mut support: Vec<String> = table.column(sens).map(|v| v.to_string()).collect();
    if numeric {
        support.sort_by(|a, b| {
            let (x, y) = (
                a.parse::<f64>().unwrap_or(0.0),
                b.parse::<f64>().unwrap_or(0.0),
            );
            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
        });
    } else {
        support.sort();
    }
    support.dedup();
    let index: HashMap<&str, usize> = support
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();

    let mut global = vec![0.0; support.len()];
    for v in table.column(sens) {
        global[index[v.to_string().as_str()]] += 1.0;
    }
    let n = table.len() as f64;
    for g in &mut global {
        *g /= n;
    }

    let mut worst: f64 = 0.0;
    for class in partition.classes() {
        let mut dist = vec![0.0; support.len()];
        for &row in class {
            let label = table.cell(row, sens).expect("row in range").to_string();
            dist[index[label.as_str()]] += 1.0;
        }
        let cn = class.len() as f64;
        for d in &mut dist {
            *d /= cn;
        }
        let emd = if numeric {
            ordered_emd(&dist, &global)
        } else {
            variational_distance(&dist, &global)
        };
        worst = worst.max(emd);
    }
    Ok(worst)
}

/// Whether the partition is t-close.
pub fn is_t_close(table: &Table, partition: &Partition, t: f64) -> Result<bool> {
    Ok(closeness(table, partition)? <= t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_data::{Schema, Table, Value};

    #[test]
    fn ordered_emd_textbook_values() {
        // Distributions over {3k, 4k, 5k ... 11k} style ordered support.
        let p = [
            1.0 / 3.0,
            1.0 / 3.0,
            1.0 / 3.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
        ];
        let q = [1.0 / 9.0; 9];
        let emd = ordered_emd(&p, &q);
        // Li et al. report 0.375 for the analogous {3,4,5}-in-{3..11} case.
        assert!((emd - 0.375).abs() < 1e-9, "got {emd}");
    }

    #[test]
    fn emd_identity_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert_eq!(ordered_emd(&p, &p), 0.0);
        assert_eq!(variational_distance(&p, &p), 0.0);
    }

    #[test]
    fn emd_symmetry() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.1, 0.8];
        assert!((ordered_emd(&p, &q) - ordered_emd(&q, &p)).abs() < 1e-12);
        assert!((variational_distance(&p, &q) - variational_distance(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn variational_distance_bounds() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert_eq!(variational_distance(&p, &q), 1.0);
    }

    fn numeric_table(values: &[f64]) -> Table {
        let schema = Schema::builder()
            .quasi_numeric("x")
            .sensitive_numeric("s")
            .build()
            .unwrap();
        Table::with_rows(
            schema,
            values
                .iter()
                .enumerate()
                .map(|(i, &s)| vec![Value::Float(i as f64), Value::Float(s)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_class_partition_is_zero_close() {
        let t = numeric_table(&[1.0, 2.0, 3.0, 4.0]);
        let p = Partition::single(4);
        assert_eq!(closeness(&t, &p).unwrap(), 0.0);
        assert!(is_t_close(&t, &p, 0.0).unwrap());
    }

    #[test]
    fn skewed_class_increases_closeness() {
        // Class {0,1} holds the two lowest values, {2,3} the two highest:
        // both deviate from the global distribution.
        let t = numeric_table(&[1.0, 2.0, 9.0, 10.0]);
        let skewed = Partition::new(vec![vec![0, 1], vec![2, 3]], 4).unwrap();
        let mixed = Partition::new(vec![vec![0, 3], vec![1, 2]], 4).unwrap();
        let c_skewed = closeness(&t, &skewed).unwrap();
        let c_mixed = closeness(&t, &mixed).unwrap();
        assert!(
            c_skewed > c_mixed,
            "skewed {c_skewed} should exceed mixed {c_mixed}"
        );
        assert!(c_skewed > 0.0);
    }

    #[test]
    fn categorical_uses_variational_distance() {
        let schema = Schema::builder()
            .quasi_numeric("x")
            .sensitive_categorical("s")
            .build()
            .unwrap();
        let t = Table::with_rows(
            schema,
            vec![
                vec![Value::Float(0.0), Value::Categorical("a".into())],
                vec![Value::Float(1.0), Value::Categorical("a".into())],
                vec![Value::Float(2.0), Value::Categorical("b".into())],
                vec![Value::Float(3.0), Value::Categorical("b".into())],
            ],
        )
        .unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4).unwrap();
        // Each class is all-a or all-b vs global (0.5, 0.5): VD = 0.5.
        assert!((closeness(&t, &p).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn requires_sensitive_attribute() {
        let schema = Schema::builder().quasi_numeric("x").build().unwrap();
        let t = Table::with_rows(schema, vec![vec![Value::Float(0.0)]]).unwrap();
        assert!(matches!(
            closeness(&t, &Partition::single(1)),
            Err(AnonError::NoSensitiveAttribute)
        ));
    }
}
