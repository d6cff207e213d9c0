//! Utility metrics for anonymized releases.
//!
//! The paper measures release utility with the **discernibility metric**
//! `C_DM` of Bayardo & Agrawal (reference \[22\]) and defines the utility used
//! in the objective as its inverse:
//!
//! ```text
//! C_DM(k) = Σ_{|E| >= k} |E|^2  +  Σ_{|E| < k} |D|·|E|
//! U_k     = 1 / C_DM(k)
//! ```
//!
//! Per-record costs `C_i` (and their inverses `u_i1 = 1/C_i`, the paper's
//! utility column matrix) are exposed for the weighted-trace form of the
//! objective. Two auxiliary metrics — average-class-size (`C_AVG`) and the
//! generalized loss metric — support the ablation benches.

use crate::error::{AnonError, Result};
use crate::partition::Partition;
use fred_data::{Table, Value};

/// Discernibility metric `C_DM` of a partition at level `k`.
///
/// Classes of size `>= k` cost `|E|^2`; smaller (outlier/suppressed) classes
/// cost `|D|·|E|`.
pub fn discernibility(partition: &Partition, k: usize) -> f64 {
    let d = partition.n_rows() as f64;
    partition
        .classes()
        .iter()
        .map(|class| {
            let e = class.len() as f64;
            if class.len() >= k {
                e * e
            } else {
                d * e
            }
        })
        .sum()
}

/// The paper's release utility `U_k = 1 / C_DM(k)`.
///
/// Returns an error for empty partitions (the metric is undefined).
pub fn utility(partition: &Partition, k: usize) -> Result<f64> {
    if partition.is_empty() {
        return Err(AnonError::InvalidPartition(
            "utility of empty partition".into(),
        ));
    }
    Ok(1.0 / discernibility(partition, k))
}

/// Per-record discernibility costs `C_i` (paper Section VI-C): the size of
/// the record's class when `|E| >= k`, else `|D|·|E|`.
pub fn per_record_costs(partition: &Partition, k: usize) -> Vec<f64> {
    let d = partition.n_rows() as f64;
    let mut out = vec![0.0; partition.n_rows()];
    for class in partition.classes() {
        let e = class.len() as f64;
        let cost = if class.len() >= k { e } else { d * e };
        for &row in class {
            out[row] = cost;
        }
    }
    out
}

/// The paper's utility column matrix `U = {u_i1}` with `u_i1 = 1/C_i`.
pub fn per_record_utilities(partition: &Partition, k: usize) -> Vec<f64> {
    per_record_costs(partition, k)
        .into_iter()
        .map(|c| if c > 0.0 { 1.0 / c } else { 0.0 })
        .collect()
}

/// Average equivalence-class-size metric `C_AVG = (|D| / #classes) / k`
/// (LeFevre et al.). 1.0 is optimal; larger is worse.
pub fn average_class_size(partition: &Partition, k: usize) -> Result<f64> {
    if partition.is_empty() {
        return Err(AnonError::InvalidPartition(
            "metric of empty partition".into(),
        ));
    }
    if k == 0 {
        return Err(AnonError::InvalidK(0));
    }
    Ok(partition.n_rows() as f64 / partition.len() as f64 / k as f64)
}

/// Generalized loss metric over a *released* table: the mean, over numeric
/// quasi-identifier cells, of `published interval width / attribute range`.
/// 0 means no generalization, 1 means every cell was generalized to the full
/// attribute range. Missing cells count as fully suppressed (loss 1).
pub fn loss_metric(release: &Table) -> Result<f64> {
    let qi = release.schema().quasi_identifier_indices();
    if qi.is_empty() {
        return Err(AnonError::NoQuasiIdentifiers);
    }
    if release.is_empty() {
        return Err(AnonError::Data(fred_data::DataError::EmptyTable));
    }
    let mut total = 0.0;
    let mut cells = 0usize;
    for &c in &qi {
        // Attribute range from the published intervals' hulls.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in release.column(c) {
            if let Some(iv) = v.as_interval() {
                lo = lo.min(iv.lo());
                hi = hi.max(iv.hi());
            }
        }
        let range = hi - lo;
        for v in release.column(c) {
            cells += 1;
            total += match v {
                Value::Missing => 1.0,
                _ => match v.as_interval() {
                    Some(iv) if range > 0.0 => iv.width() / range,
                    Some(_) => 0.0,
                    None => 1.0, // non-numeric published cell: treated as suppressed
                },
            };
        }
    }
    Ok(total / cells as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discernibility_of_uniform_partition() {
        // 9 rows in 3 classes of 3 at k=3: 3 * 9 = 27.
        let p = Partition::new(vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]], 9).unwrap();
        assert_eq!(discernibility(&p, 3), 27.0);
        assert!((utility(&p, 3).unwrap() - 1.0 / 27.0).abs() < 1e-15);
    }

    #[test]
    fn outlier_classes_pay_the_big_penalty() {
        // 5 rows: one class of 4 and one singleton at k=2.
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4]], 5).unwrap();
        // 4^2 + 5*1 = 21.
        assert_eq!(discernibility(&p, 2), 21.0);
    }

    #[test]
    fn discernibility_monotone_in_class_merging() {
        // Merging classes can only increase C_DM (for classes >= k).
        let fine = Partition::new(vec![vec![0, 1], vec![2, 3]], 4).unwrap();
        let coarse = Partition::single(4);
        assert!(discernibility(&fine, 2) < discernibility(&coarse, 2));
    }

    #[test]
    fn lower_bound_is_n_times_k() {
        // With all classes exactly k, C_DM = (n/k) * k^2 = n*k.
        let p = Partition::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], 6).unwrap();
        assert_eq!(discernibility(&p, 2), 12.0);
    }

    #[test]
    fn per_record_costs_match_class_sizes() {
        let p = Partition::new(vec![vec![0, 1, 2], vec![3]], 4).unwrap();
        let costs = per_record_costs(&p, 2);
        assert_eq!(costs, vec![3.0, 3.0, 3.0, 4.0]);
        let utils = per_record_utilities(&p, 2);
        assert!((utils[0] - 1.0 / 3.0).abs() < 1e-15);
        assert!((utils[3] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn average_class_size_metric() {
        let p = Partition::new(vec![vec![0, 1], vec![2, 3, 4, 5]], 6).unwrap();
        // n=6, classes=2, k=2 -> (6/2)/2 = 1.5.
        assert_eq!(average_class_size(&p, 2).unwrap(), 1.5);
        assert!(average_class_size(&p, 0).is_err());
    }

    #[test]
    fn loss_metric_of_release() {
        use fred_data::{Interval, Schema, Table, Value};
        let schema = Schema::builder().quasi_numeric("x").build().unwrap();
        let t = Table::with_rows(
            schema,
            vec![
                vec![Value::Interval(Interval::new(0.0, 5.0).unwrap())],
                vec![Value::Interval(Interval::new(5.0, 10.0).unwrap())],
                vec![Value::Interval(Interval::new(0.0, 10.0).unwrap())],
                vec![Value::Missing],
            ],
        )
        .unwrap();
        // Range = 10. Losses: 0.5, 0.5, 1.0, 1.0 -> mean 0.75.
        assert!((loss_metric(&t).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn loss_metric_zero_for_ungeneralized() {
        use fred_data::{Schema, Table, Value};
        let schema = Schema::builder().quasi_numeric("x").build().unwrap();
        let t = Table::with_rows(
            schema,
            vec![vec![Value::Float(1.0)], vec![Value::Float(2.0)]],
        )
        .unwrap();
        assert_eq!(loss_metric(&t).unwrap(), 0.0);
    }

    #[test]
    fn empty_inputs_error() {
        let p = Partition::new(vec![], 0).unwrap();
        assert!(utility(&p, 2).is_err());
        assert!(average_class_size(&p, 2).is_err());
    }
}
