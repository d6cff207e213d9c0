//! Projection-based *optimal* microaggregation.
//!
//! Domingo-Ferrer's reference \[9\] discusses heuristics for optimal
//! k-anonymous microaggregation; for univariate data the exact optimum is
//! computable: sort the values, observe that optimal classes are contiguous
//! runs of length in `[k, 2k-1]` (Hansen & Mukherjee), and run a shortest-
//! path dynamic program over prefix sums of squared error.
//!
//! Multivariate tables are handled the standard way: z-score the
//! quasi-identifiers, project onto the dominant principal direction (power
//! iteration), and solve the univariate problem on the projections. The
//! result is optimal for the projected values and a strong heuristic for
//! the original ones — in the ablation benches it lower-bounds MDAV's
//! within-class spread on elongated data.

use crate::anonymizer::{normalize_columns, numeric_qi_matrix, Anonymizer};
use crate::error::Result;
use crate::partition::Partition;
use fred_data::Table;

/// The projection-based optimal microaggregation anonymizer.
#[derive(Debug, Clone, Default)]
pub struct OptimalUnivariate {
    _private: (),
}

impl OptimalUnivariate {
    /// Creates the anonymizer.
    pub fn new() -> Self {
        OptimalUnivariate { _private: () }
    }
}

impl Anonymizer for OptimalUnivariate {
    fn name(&self) -> &'static str {
        "optimal-univariate"
    }

    fn partition(&self, table: &Table, k: usize) -> Result<Partition> {
        let mut matrix = numeric_qi_matrix(table, k)?;
        normalize_columns(&mut matrix);
        let projected = project_principal(&matrix);
        let mut order: Vec<usize> = (0..projected.len()).collect();
        order.sort_by(|&a, &b| {
            projected[a]
                .partial_cmp(&projected[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let sorted: Vec<f64> = order.iter().map(|&i| projected[i]).collect();
        let boundaries = optimal_boundaries(&sorted, k);
        let mut classes = Vec::with_capacity(boundaries.len());
        let mut start = 0usize;
        for end in boundaries {
            classes.push(order[start..end].to_vec());
            start = end;
        }
        Partition::new(classes, projected.len())
    }
}

/// Projects rows onto the dominant principal direction of the (already
/// normalized) matrix via power iteration. Falls back to the first column
/// when the iteration degenerates (e.g. all-zero matrix).
fn project_principal(matrix: &[Vec<f64>]) -> Vec<f64> {
    let n = matrix.len();
    let d = matrix[0].len();
    if d == 1 {
        return matrix.iter().map(|r| r[0]).collect();
    }
    // Covariance-free power iteration: v <- Xᵀ(Xv), normalized.
    let mut v = vec![1.0 / (d as f64).sqrt(); d];
    for _ in 0..64 {
        // w = X v  (length n)
        let w: Vec<f64> = matrix
            .iter()
            .map(|row| row.iter().zip(&v).map(|(&x, &vi)| x * vi).sum())
            .collect();
        // u = Xᵀ w (length d)
        let mut u = vec![0.0; d];
        for (row, &wi) in matrix.iter().zip(&w) {
            for (j, &x) in row.iter().enumerate() {
                u[j] += x * wi;
            }
        }
        let norm = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return matrix.iter().map(|r| r[0]).collect();
        }
        for (vi, ui) in v.iter_mut().zip(&u) {
            *vi = ui / norm;
        }
    }
    let _ = n;
    matrix
        .iter()
        .map(|row| row.iter().zip(&v).map(|(&x, &vi)| x * vi).sum())
        .collect()
}

/// Dynamic program over sorted values: returns the class end-indices
/// (exclusive) of the SSE-minimal partition into runs of length `[k, 2k-1]`
/// (the final run may reach `2k-1`; when `n < 2k` a single run is forced).
fn optimal_boundaries(sorted: &[f64], k: usize) -> Vec<usize> {
    let n = sorted.len();
    if n < 2 * k {
        return vec![n];
    }
    // Prefix sums for O(1) SSE of any run.
    let mut sum = vec![0.0; n + 1];
    let mut sum2 = vec![0.0; n + 1];
    for (i, &x) in sorted.iter().enumerate() {
        sum[i + 1] = sum[i] + x;
        sum2[i + 1] = sum2[i] + x * x;
    }
    let sse = |a: usize, b: usize| -> f64 {
        // SSE of sorted[a..b].
        let m = (b - a) as f64;
        let s = sum[b] - sum[a];
        (sum2[b] - sum2[a]) - s * s / m
    };
    let inf = f64::INFINITY;
    let mut dp = vec![inf; n + 1];
    let mut prev = vec![usize::MAX; n + 1];
    dp[0] = 0.0;
    for i in k..=n {
        // The class ending at i starts at j with i-j in [k, 2k-1].
        let j_lo = i.saturating_sub(2 * k - 1);
        let j_hi = i - k;
        for j in j_lo..=j_hi {
            if dp[j] < inf {
                let cand = dp[j] + sse(j, i);
                if cand < dp[i] {
                    dp[i] = cand;
                    prev[i] = j;
                }
            }
        }
    }
    debug_assert!(dp[n] < inf, "DP must reach n for n >= 2k");
    let mut boundaries = Vec::new();
    let mut i = n;
    while i > 0 {
        boundaries.push(i);
        i = prev[i];
    }
    boundaries.reverse();
    boundaries
}

/// Within-class sum of squared errors of a partition over the (z-scored)
/// quasi-identifiers — the quantity microaggregation minimizes. Exposed so
/// benches can compare MDAV against the optimal partitioner.
pub fn within_class_sse(table: &Table, partition: &Partition) -> Result<f64> {
    let mut matrix = numeric_qi_matrix(table, 1)?;
    normalize_columns(&mut matrix);
    let mut total = 0.0;
    for class in partition.classes() {
        let dims = matrix[0].len();
        let mut centroid = vec![0.0; dims];
        for &r in class {
            for (j, &x) in matrix[r].iter().enumerate() {
                centroid[j] += x;
            }
        }
        for c in &mut centroid {
            *c /= class.len() as f64;
        }
        for &r in class {
            total += matrix[r]
                .iter()
                .zip(&centroid)
                .map(|(&x, &c)| (x - c) * (x - c))
                .sum::<f64>();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdav::Mdav;
    use fred_data::{Schema, Table, Value};

    fn univariate_table(values: &[f64]) -> Table {
        let schema = Schema::builder().quasi_numeric("x").build().unwrap();
        Table::with_rows(
            schema,
            values.iter().map(|&x| vec![Value::Float(x)]).collect(),
        )
        .unwrap()
    }

    fn bivariate_table(points: &[(f64, f64)]) -> Table {
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

    #[test]
    fn partitions_satisfy_k_and_size_bounds() {
        for n in [4usize, 7, 10, 23, 60] {
            for k in [2usize, 3, 5] {
                if n < k {
                    continue;
                }
                let values: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
                let t = univariate_table(&values);
                let p = OptimalUnivariate::new().partition(&t, k).unwrap();
                assert!(p.satisfies_k(k), "n={n} k={k}");
                if n >= 2 * k {
                    assert!(p.max_class_size() < 2 * k, "n={n} k={k}");
                }
                assert_eq!(p.n_rows(), n);
            }
        }
    }

    #[test]
    fn classes_are_contiguous_in_value_order() {
        let values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0];
        let t = univariate_table(&values);
        let p = OptimalUnivariate::new().partition(&t, 2).unwrap();
        // Every class's value range must not overlap another class's.
        let mut ranges: Vec<(f64, f64)> = p
            .classes()
            .iter()
            .map(|class| {
                let vals: Vec<f64> = class.iter().map(|&r| values[r]).collect();
                (
                    vals.iter().copied().fold(f64::INFINITY, f64::min),
                    vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            })
            .collect();
        ranges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "overlapping classes: {ranges:?}");
        }
    }

    #[test]
    fn beats_or_matches_mdav_on_univariate_sse() {
        // On 1-D data the DP is exactly optimal, so it can never lose.
        let values: Vec<f64> = (0..50)
            .map(|i| ((i * 13) % 29) as f64 + ((i * 7) % 11) as f64 * 0.1)
            .collect();
        let t = univariate_table(&values);
        for k in [2usize, 3, 4] {
            let opt = OptimalUnivariate::new().partition(&t, k).unwrap();
            let mdav = Mdav::new().partition(&t, k).unwrap();
            let sse_opt = within_class_sse(&t, &opt).unwrap();
            let sse_mdav = within_class_sse(&t, &mdav).unwrap();
            assert!(
                sse_opt <= sse_mdav + 1e-9,
                "k={k}: optimal {sse_opt} > mdav {sse_mdav}"
            );
        }
    }

    #[test]
    fn known_optimal_solution() {
        // Two tight clusters of 3: the optimal k=3 partition is obvious.
        let values = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let t = univariate_table(&values);
        let p = OptimalUnivariate::new().partition(&t, 3).unwrap();
        assert_eq!(p.len(), 2);
        let mut classes: Vec<Vec<usize>> = p.classes().to_vec();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        assert_eq!(classes, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn projection_separates_elongated_blobs() {
        // Two blobs along the diagonal; projection must keep them apart.
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push((i as f64 * 0.1, i as f64 * 0.1));
        }
        for i in 0..4 {
            pts.push((50.0 + i as f64 * 0.1, 50.0 + i as f64 * 0.1));
        }
        let t = bivariate_table(&pts);
        let p = OptimalUnivariate::new().partition(&t, 4).unwrap();
        assert_eq!(p.len(), 2);
        for class in p.classes() {
            let all_low = class.iter().all(|&r| r < 4);
            let all_high = class.iter().all(|&r| r >= 4);
            assert!(all_low || all_high, "blobs mixed: {class:?}");
        }
    }

    #[test]
    fn constant_data_single_class_when_small() {
        let t = univariate_table(&[3.0; 5]);
        let p = OptimalUnivariate::new().partition(&t, 3).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn errors_propagate() {
        let t = univariate_table(&[1.0, 2.0]);
        assert!(OptimalUnivariate::new().partition(&t, 0).is_err());
        assert!(OptimalUnivariate::new().partition(&t, 3).is_err());
    }
}
