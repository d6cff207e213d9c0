//! l-diversity checks (Machanavajjhala et al., ICDE 2006 — reference \[4\]).
//!
//! k-anonymity bounds re-identification, not attribute disclosure: a class
//! whose members all share one sensitive value leaks it outright. Distinct
//! l-diversity requires `l` different sensitive values per class; entropy
//! l-diversity requires the class entropy to be at least `log(l)`.

use crate::error::{AnonError, Result};
use crate::partition::Partition;
use fred_data::Table;
use std::collections::HashMap;

/// Sensitive-value frequency map of one equivalence class.
fn class_counts(table: &Table, class: &[usize], sens_col: usize) -> HashMap<String, usize> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for &row in class {
        let label = table
            .cell(row, sens_col)
            .map(|v| v.to_string())
            .unwrap_or_default();
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

fn sensitive_column(table: &Table) -> Result<usize> {
    table
        .schema()
        .sensitive_indices()
        .first()
        .copied()
        .ok_or(AnonError::NoSensitiveAttribute)
}

/// Distinct diversity of the least diverse class (the largest `l` for which
/// the partition is distinct l-diverse).
pub fn distinct_diversity(table: &Table, partition: &Partition) -> Result<usize> {
    let sens = sensitive_column(table)?;
    let mut min = usize::MAX;
    for class in partition.classes() {
        min = min.min(class_counts(table, class, sens).len());
    }
    Ok(if partition.is_empty() { 0 } else { min })
}

/// Whether the partition is distinct l-diverse.
pub fn is_distinct_l_diverse(table: &Table, partition: &Partition, l: usize) -> Result<bool> {
    Ok(distinct_diversity(table, partition)? >= l)
}

/// Entropy diversity of the least diverse class: `exp(H_min)` where `H_min`
/// is the minimum Shannon entropy (nats) across classes. The partition is
/// entropy l-diverse iff this value is at least `l`.
pub fn entropy_diversity(table: &Table, partition: &Partition) -> Result<f64> {
    let sens = sensitive_column(table)?;
    let mut min_h = f64::INFINITY;
    for class in partition.classes() {
        let counts = class_counts(table, class, sens);
        let n = class.len() as f64;
        let h: f64 = counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum();
        min_h = min_h.min(h);
    }
    Ok(if partition.is_empty() {
        0.0
    } else {
        min_h.exp()
    })
}

/// Whether the partition is entropy l-diverse.
pub fn is_entropy_l_diverse(table: &Table, partition: &Partition, l: f64) -> Result<bool> {
    Ok(entropy_diversity(table, partition)? >= l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_data::{Schema, Table, Value};

    fn table_with_sensitive(values: &[&str]) -> Table {
        let schema = Schema::builder()
            .quasi_numeric("x")
            .sensitive_categorical("Condition")
            .build()
            .unwrap();
        Table::with_rows(
            schema,
            values
                .iter()
                .enumerate()
                .map(|(i, &s)| vec![Value::Float(i as f64), Value::Categorical(s.into())])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn distinct_diversity_counts_values() {
        let t = table_with_sensitive(&["flu", "flu", "cancer", "aids"]);
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4).unwrap();
        // Class {0,1} has one distinct value; class {2,3} has two.
        assert_eq!(distinct_diversity(&t, &p).unwrap(), 1);
        assert!(is_distinct_l_diverse(&t, &p, 1).unwrap());
        assert!(!is_distinct_l_diverse(&t, &p, 2).unwrap());

        let p2 = Partition::new(vec![vec![0, 2], vec![1, 3]], 4).unwrap();
        assert_eq!(distinct_diversity(&t, &p2).unwrap(), 2);
    }

    #[test]
    fn entropy_diversity_uniform_class() {
        let t = table_with_sensitive(&["a", "b", "c", "d"]);
        let p = Partition::single(4);
        // Uniform over 4 values: exp(ln 4) = 4.
        let e = entropy_diversity(&t, &p).unwrap();
        assert!((e - 4.0).abs() < 1e-9);
        assert!(is_entropy_l_diverse(&t, &p, 3.9).unwrap());
        assert!(!is_entropy_l_diverse(&t, &p, 4.1).unwrap());
    }

    #[test]
    fn entropy_diversity_skewed_class_is_lower() {
        let t = table_with_sensitive(&["a", "a", "a", "b"]);
        let p = Partition::single(4);
        let e = entropy_diversity(&t, &p).unwrap();
        assert!(e < 2.0, "skewed class must be < 2-diverse, got {e}");
        assert!(e > 1.0);
    }

    #[test]
    fn homogeneous_class_has_diversity_one() {
        let t = table_with_sensitive(&["a", "a"]);
        let p = Partition::single(2);
        assert_eq!(distinct_diversity(&t, &p).unwrap(), 1);
        assert!((entropy_diversity(&t, &p).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn requires_sensitive_attribute() {
        let schema = Schema::builder().quasi_numeric("x").build().unwrap();
        let t = Table::with_rows(schema, vec![vec![Value::Float(0.0)]]).unwrap();
        let p = Partition::single(1);
        assert!(matches!(
            distinct_diversity(&t, &p),
            Err(AnonError::NoSensitiveAttribute)
        ));
    }
}
