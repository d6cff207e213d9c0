//! Mondrian multidimensional k-anonymity (LeFevre, DeWitt, Ramakrishnan,
//! ICDE 2006) — reference \[3\] of the paper.
//!
//! Strict top-down greedy partitioning: recursively split the current class
//! on the quasi-identifier with the widest normalized range, at the median,
//! as long as both halves keep at least `k` records. Serves as the baseline
//! `Basic_Anonymization` alternative to MDAV in the ablation benches.
//!
//! The partition works in place on one row-id buffer for the whole table:
//! a class is a `lo..hi` range of it, and a split reorders that range so
//! the lower half comes first, each half in ascending row order (one
//! reused spill buffer keeps the partition stable). The median is found
//! by selection (`select_nth_unstable_by`), not by sorting, so every level
//! of the recursion costs O(n) in all. Classes, and the member order
//! within each, are exactly those of the allocate-and-sort formulation
//! kept as the test module's reference (pinned by property test).

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

        // Each stack entry is a `lo..hi` range of `ids`; a split pushes
        // its lower half first, so the upper half is refined first.
        let mut ids: Vec<usize> = (0..n).collect();
        let mut scratch = SplitScratch::default();
        let mut classes = Vec::new();
        let mut stack = vec![(0, n)];
        while let Some((lo, hi)) = stack.pop() {
            match split(&points, &global_range, &mut ids[lo..hi], k, &mut scratch) {
                Some(mid) => {
                    stack.push((lo, lo + mid));
                    stack.push((lo + mid, hi));
                }
                None => classes.push(ids[lo..hi].to_vec()),
            }
        }
        Partition::new(classes, n)
    }
}

/// Buffers reused across every split of one partition.
#[derive(Default)]
struct SplitScratch {
    /// Per dimension, the class's `(min, max)`.
    bounds: Vec<(f64, f64)>,
    /// Per dimension, `(normalized spread, dimension)`.
    spreads: Vec<(f64, usize)>,
    /// The class's values on the dimension being tried (selection input).
    values: Vec<f64>,
    /// The upper half's rows while the lower half is compacted.
    spill: Vec<usize>,
}

/// Attempts to split `class` into two halves of at least `k` rows each.
/// Dimensions are tried in decreasing order of normalized spread. On
/// success `class` is reordered to the lower half then the upper half,
/// each in its former relative order, and the lower half's length is
/// returned; on failure `class` is left as it was.
fn split(
    points: &Points,
    global_range: &[f64],
    class: &mut [usize],
    k: usize,
    scratch: &mut SplitScratch,
) -> Option<usize> {
    let len = class.len();
    if len < 2 * k {
        return None;
    }
    let SplitScratch {
        bounds,
        spreads,
        values,
        spill,
    } = scratch;
    bounds.clear();
    bounds.resize(points.dims, (f64::INFINITY, f64::NEG_INFINITY));
    for &r in class.iter() {
        for ((lo, hi), &x) in bounds.iter_mut().zip(points.row(r)) {
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }
    spreads.clear();
    spreads.extend(
        bounds
            .iter()
            .zip(global_range)
            .enumerate()
            .map(|(d, (&(lo, hi), &range))| {
                let norm = if range > 0.0 { (hi - lo) / range } else { 0.0 };
                (norm, d)
            }),
    );
    // Widest normalized spread first; ties by dimension index.
    spreads.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });

    for &(spread, d) in spreads.iter() {
        if spread <= 0.0 {
            break; // all remaining dimensions are constant within the class
        }
        values.clear();
        values.extend(class.iter().map(|&r| points.get(r, d)));
        // The value a full sort would put at `len / 2`. Quasi-identifiers
        // are finite, so `total_cmp` orders them as `partial_cmp` does
        // except that it puts `-0.0` before `0.0`: the median it selects
        // can differ from the sort's only in the sign of a zero, which
        // no cut below can see.
        let (_, &mut median, _) = values.select_nth_unstable_by(len / 2, f64::total_cmp);
        // Strict Mondrian: lhs <= median < rhs. If the median equals the
        // maximum (heavy ties), fall back to < median | >= median.
        let at_most = values.iter().filter(|&&x| x <= median).count();
        let fallback = at_most < k || len - at_most < k;
        let cut = if fallback {
            values.iter().filter(|&&x| x < median).count()
        } else {
            at_most
        };
        if cut < k || len - cut < k {
            continue;
        }
        // Stable in-place partition: the lower half is compacted to the
        // front, the upper half spills and is copied in behind it.
        spill.clear();
        let mut w = 0;
        for i in 0..len {
            let r = class[i];
            let x = points.get(r, d);
            if x < median || (!fallback && x == median) {
                class[w] = r;
                w += 1;
            } else {
                spill.push(r);
            }
        }
        class[w..].copy_from_slice(spill);
        debug_assert_eq!(w, cut);
        return Some(cut);
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

    /// The allocate-and-sort formulation the in-place partition replaces:
    /// every class is its own `Vec`, the median comes from a full sort,
    /// and a split is two `Iterator::partition` passes.
    fn partition_reference(table: &Table, k: usize) -> Result<Partition> {
        let points = Points::numeric_qi(table, k)?;
        let n = points.len();
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
            match split_reference(&points, &global_range, &class, k) {
                Some((lhs, rhs)) => {
                    stack.push(lhs);
                    stack.push(rhs);
                }
                None => classes.push(class),
            }
        }
        Partition::new(classes, n)
    }

    fn split_reference(
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
        spreads.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        for &(spread, d) in &spreads {
            if spread <= 0.0 {
                break;
            }
            let mut values: Vec<f64> = class.iter().map(|&r| points.get(r, d)).collect();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = values[values.len() / 2];
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

    /// A table of `n` rows over `dims` numeric quasi-identifiers, seeded.
    /// With `levels > 0` each value is one of `levels` small integers, and
    /// zeros come signed at random (heavy ties, `-0.0` beside `0.0`);
    /// with `levels == 0` values are continuous.
    fn seeded_table(n: usize, dims: usize, levels: u64, seed: u64) -> Table {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let schema = (0..dims)
            .fold(Schema::builder(), |b, d| b.quasi_numeric(format!("q{d}")))
            .build()
            .unwrap();
        let rows = (0..n)
            .map(|_| {
                (0..dims)
                    .map(|_| {
                        Value::Float(match levels {
                            0 => next() as f64 / (1u64 << 31) as f64 - 1.0,
                            levels => match next() % levels {
                                0 if next() % 2 == 0 => -0.0,
                                level => level as f64,
                            },
                        })
                    })
                    .collect()
            })
            .collect();
        Table::with_rows(schema, rows).unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn in_place_partition_equals_the_reference(
            n in 0usize..401,
            dims in 1usize..5,
            levels in 0u64..6,
            seed in 0u64..1_000_000,
            k in 1usize..9,
        ) {
            let table = seeded_table(n, dims, levels, seed);
            prop_assert_eq!(
                Mondrian::new().partition(&table, k),
                partition_reference(&table, k)
            );
        }
    }

    #[test]
    fn in_place_partition_equals_the_reference_on_signed_zero_ties() {
        // Two values, one of them zero in both signs: every cut meets a
        // median tied with `-0.0` or `0.0` rows on either side of it.
        for seed in 0..40u64 {
            for k in 1..=8 {
                let table = seeded_table(96 + seed as usize, 3, 2, seed);
                assert_eq!(
                    Mondrian::new().partition(&table, k),
                    partition_reference(&table, k),
                    "seed={seed} k={k}"
                );
            }
        }
    }

    #[test]
    fn non_finite_quasi_identifiers_are_an_error_not_a_panic() {
        // Every 7th x NaN used to make the median sort panic with "does
        // not correctly implement a total order".
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pts: Vec<(f64, f64)> = (0..400)
                .map(|i| (if i % 7 == 3 { bad } else { i as f64 }, (i % 13) as f64))
                .collect();
            let t = numeric_table(&pts);
            assert_eq!(
                Mondrian::new().partition(&t, 3),
                Err(crate::AnonError::NonFiniteQuasiIdentifier {
                    row: 3,
                    column: "x".into()
                }),
                "{bad}"
            );
        }
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
