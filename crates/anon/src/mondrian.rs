//! Mondrian multidimensional k-anonymity (LeFevre, DeWitt, Ramakrishnan,
//! ICDE 2006) — reference \[3\] of the paper.
//!
//! Strict top-down greedy partitioning: recursively split the current class
//! on the quasi-identifier with the widest normalized range, at the median,
//! as long as both halves keep at least `k` records. Serves as the baseline
//! `Basic_Anonymization` alternative to MDAV in the ablation benches.

use crate::anonymizer::{Anonymizer, Points};
use crate::error::Result;
use crate::partition::Partition;
use fred_data::Table;

/// The Mondrian strict multidimensional partitioner.
#[derive(Debug, Clone, Default)]
pub struct Mondrian {
    _private: (),
}

impl Mondrian {
    /// Creates a Mondrian anonymizer.
    pub fn new() -> Self {
        Mondrian { _private: () }
    }
}

impl Anonymizer for Mondrian {
    fn name(&self) -> &'static str {
        "mondrian"
    }

    fn partition(&self, table: &Table, k: usize) -> Result<Partition> {
        let points = Points::numeric_qi(table, k)?;
        let n = points.len();
        // Global ranges normalize the per-class spread so wide-scaled
        // attributes are not always chosen.
        let global_range: Vec<f64> = (0..points.dims)
            .map(|d| {
                let lo = points.rows().map(|r| r[d]).fold(f64::INFINITY, f64::min);
                let hi = points
                    .rows()
                    .map(|r| r[d])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .collect();

        let mut classes = Vec::new();
        let mut stack = vec![(0..n).collect::<Vec<usize>>()];
        while let Some(class) = stack.pop() {
            match split(&points, &global_range, &class, k) {
                Some((lhs, rhs)) => {
                    stack.push(lhs);
                    stack.push(rhs);
                }
                None => classes.push(class),
            }
        }
        Partition::new(classes, n)
    }
}

/// Attempts to split `class` into two halves of at least `k` rows each.
/// Dimensions are tried in decreasing order of normalized spread.
fn split(
    points: &Points,
    global_range: &[f64],
    class: &[usize],
    k: usize,
) -> Option<(Vec<usize>, Vec<usize>)> {
    if class.len() < 2 * k {
        return None;
    }
    let mut spreads: Vec<(f64, usize)> = (0..points.dims)
        .map(|d| {
            let lo = class
                .iter()
                .map(|&r| points.get(r, d))
                .fold(f64::INFINITY, f64::min);
            let hi = class
                .iter()
                .map(|&r| points.get(r, d))
                .fold(f64::NEG_INFINITY, f64::max);
            let norm = if global_range[d] > 0.0 {
                (hi - lo) / global_range[d]
            } else {
                0.0
            };
            (norm, d)
        })
        .collect();
    // Widest normalized spread first; ties by dimension index.
    spreads.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });

    for &(spread, d) in &spreads {
        if spread <= 0.0 {
            break; // all remaining dimensions are constant within the class
        }
        let mut values: Vec<f64> = class.iter().map(|&r| points.get(r, d)).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = values[values.len() / 2];
        // Strict Mondrian: lhs <= median < rhs. If the median equals the
        // maximum (heavy ties), fall back to < median | >= median.
        let (mut lhs, mut rhs): (Vec<usize>, Vec<usize>) =
            class.iter().partition(|&&r| points.get(r, d) <= median);
        if rhs.len() < k || lhs.len() < k {
            let parts: (Vec<usize>, Vec<usize>) =
                class.iter().partition(|&&r| points.get(r, d) < median);
            lhs = parts.0;
            rhs = parts.1;
        }
        if lhs.len() >= k && rhs.len() >= k {
            return Some((lhs, rhs));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_data::{Schema, Table, Value};

    fn numeric_table(points: &[(f64, f64)]) -> Table {
        let schema = Schema::builder()
            .quasi_numeric("x")
            .quasi_numeric("y")
            .build()
            .unwrap();
        Table::with_rows(
            schema,
            points
                .iter()
                .map(|&(x, y)| vec![Value::Float(x), Value::Float(y)])
                .collect(),
        )
        .unwrap()
    }

    fn grid_table(n: usize) -> Table {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| ((i % 10) as f64, (i / 10) as f64)).collect();
        numeric_table(&pts)
    }

    #[test]
    fn k_anonymity_always_holds() {
        for n in [4usize, 10, 37, 100] {
            for k in [2usize, 3, 7] {
                if n < k {
                    continue;
                }
                let t = grid_table(n);
                let p = Mondrian::new().partition(&t, k).unwrap();
                assert!(p.satisfies_k(k), "n={n} k={k}");
                assert_eq!(p.n_rows(), n);
            }
        }
    }

    #[test]
    fn splits_reduce_class_sizes() {
        let t = grid_table(100);
        let p = Mondrian::new().partition(&t, 5).unwrap();
        // Mondrian should produce many classes, not a single blob.
        assert!(
            p.len() >= 10,
            "expected fine partition, got {} classes",
            p.len()
        );
        // Strict Mondrian keeps classes below 2k whenever splits exist, but
        // ties can block splits; 100 distinct grid points have none.
        assert!(p.max_class_size() < 10);
    }

    #[test]
    fn constant_data_yields_single_class() {
        let pts = vec![(1.0, 1.0); 8];
        let t = numeric_table(&pts);
        let p = Mondrian::new().partition(&t, 2).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.max_class_size(), 8);
    }

    #[test]
    fn heavy_ties_still_satisfy_k() {
        // 6 records at x=0, 2 at x=1: median-splitting must not strand a
        // sub-k class.
        let pts = vec![
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 0.0),
        ];
        let t = numeric_table(&pts);
        let p = Mondrian::new().partition(&t, 2).unwrap();
        assert!(p.satisfies_k(2));
    }

    #[test]
    fn separated_blobs_split_first() {
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push((i as f64 * 0.01, 0.0));
        }
        for i in 0..4 {
            pts.push((1000.0 + i as f64 * 0.01, 0.0));
        }
        let t = numeric_table(&pts);
        let p = Mondrian::new().partition(&t, 4).unwrap();
        assert_eq!(p.len(), 2);
        for class in p.classes() {
            let all_low = class.iter().all(|&r| r < 4);
            let all_high = class.iter().all(|&r| r >= 4);
            assert!(all_low || all_high);
        }
    }

    #[test]
    fn preconditions() {
        let t = grid_table(4);
        assert!(Mondrian::new().partition(&t, 0).is_err());
        assert!(Mondrian::new().partition(&t, 5).is_err());
    }
}
