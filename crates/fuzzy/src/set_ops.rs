//! Fuzzy-set algebra on sampled sets: union, intersection, complement,
//! alpha-cuts and the standard scalar descriptors (height, support,
//! cardinality). Complements the inference engine with the set-theoretic
//! toolbox of Kosko's book (the paper's reference \[21\]).

use crate::membership::MembershipFunction;

/// A fuzzy set sampled over a uniform grid on `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSet {
    lo: f64,
    hi: f64,
    degrees: Vec<f64>,
}

impl SampledSet {
    /// Samples a membership function over `[lo, hi]` at `n >= 2` points.
    pub fn from_mf(mf: &MembershipFunction, lo: f64, hi: f64, n: usize) -> Self {
        let n = n.max(2);
        let degrees = (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                mf.degree(x).clamp(0.0, 1.0)
            })
            .collect();
        SampledSet { lo, hi, degrees }
    }

    /// Builds a set from raw degrees (clamped into `[0, 1]`).
    pub fn from_degrees(lo: f64, hi: f64, degrees: Vec<f64>) -> Self {
        let degrees = degrees.into_iter().map(|d| d.clamp(0.0, 1.0)).collect();
        SampledSet { lo, hi, degrees }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// Whether the set has no samples.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// The sampled degrees.
    pub fn degrees(&self) -> &[f64] {
        &self.degrees
    }

    /// The x coordinate of sample `i`.
    pub fn x_at(&self, i: usize) -> f64 {
        if self.degrees.len() <= 1 {
            return self.lo;
        }
        self.lo + (self.hi - self.lo) * i as f64 / (self.degrees.len() - 1) as f64
    }

    /// Height: the supremum of membership.
    pub fn height(&self) -> f64 {
        self.degrees.iter().copied().fold(0.0, f64::max)
    }

    /// Whether the set is normal (height 1, within sampling tolerance).
    pub fn is_normal(&self) -> bool {
        self.height() >= 1.0 - 1e-9
    }

    /// Support: the x-range where membership is positive, if any.
    pub fn support(&self) -> Option<(f64, f64)> {
        let first = self.degrees.iter().position(|&d| d > 0.0)?;
        let last = self.degrees.iter().rposition(|&d| d > 0.0)?;
        Some((self.x_at(first), self.x_at(last)))
    }

    /// Scalar cardinality (sigma-count): the Riemann sum of membership.
    pub fn cardinality(&self) -> f64 {
        if self.degrees.len() < 2 {
            return 0.0;
        }
        let dx = (self.hi - self.lo) / (self.degrees.len() - 1) as f64;
        self.degrees.iter().sum::<f64>() * dx
    }

    /// Alpha-cut: the x-range(s) with membership at least `alpha`,
    /// returned as disjoint closed intervals.
    pub fn alpha_cut(&self, alpha: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &d) in self.degrees.iter().enumerate() {
            if d >= alpha {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                out.push((self.x_at(s), self.x_at(i - 1)));
            }
        }
        if let Some(s) = start {
            out.push((self.x_at(s), self.x_at(self.degrees.len() - 1)));
        }
        out
    }

    fn zip_with(&self, other: &SampledSet, f: impl Fn(f64, f64) -> f64) -> SampledSet {
        debug_assert_eq!(self.degrees.len(), other.degrees.len());
        SampledSet {
            lo: self.lo,
            hi: self.hi,
            degrees: self
                .degrees
                .iter()
                .zip(&other.degrees)
                .map(|(&a, &b)| f(a, b).clamp(0.0, 1.0))
                .collect(),
        }
    }

    /// Standard fuzzy union (pointwise max).
    pub fn union(&self, other: &SampledSet) -> SampledSet {
        self.zip_with(other, f64::max)
    }

    /// Standard fuzzy intersection (pointwise min).
    pub fn intersect(&self, other: &SampledSet) -> SampledSet {
        self.zip_with(other, f64::min)
    }

    /// Algebraic product t-norm intersection.
    pub fn product(&self, other: &SampledSet) -> SampledSet {
        self.zip_with(other, |a, b| a * b)
    }

    /// Standard complement (`1 - mu`).
    pub fn complement(&self) -> SampledSet {
        SampledSet {
            lo: self.lo,
            hi: self.hi,
            degrees: self.degrees.iter().map(|&d| 1.0 - d).collect(),
        }
    }

    /// Degree of subsethood `S(self, other) = |self ∩ other| / |self|`
    /// (Kosko's subsethood theorem); 1 when `self ⊆ other`.
    pub fn subsethood(&self, other: &SampledSet) -> f64 {
        let denom = self.cardinality();
        if denom == 0.0 {
            return 1.0;
        }
        self.intersect(other).cardinality() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(a: f64, b: f64, c: f64) -> SampledSet {
        SampledSet::from_mf(
            &MembershipFunction::triangular(a, b, c).unwrap(),
            0.0,
            10.0,
            1001,
        )
    }

    #[test]
    fn height_and_normality() {
        let t = tri(2.0, 5.0, 8.0);
        assert!(t.is_normal());
        let clipped = SampledSet::from_degrees(0.0, 1.0, vec![0.2, 0.4, 0.4, 0.1]);
        assert!(!clipped.is_normal());
        assert!((clipped.height() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn support_bounds() {
        let t = tri(2.0, 5.0, 8.0);
        let (lo, hi) = t.support().unwrap();
        assert!((lo - 2.0).abs() < 0.02);
        assert!((hi - 8.0).abs() < 0.02);
        let empty = SampledSet::from_degrees(0.0, 1.0, vec![0.0, 0.0]);
        assert_eq!(empty.support(), None);
    }

    #[test]
    fn cardinality_of_triangle() {
        // Area of a unit-height triangle with base 6 is 3.
        let t = tri(2.0, 5.0, 8.0);
        assert!((t.cardinality() - 3.0).abs() < 0.02);
    }

    #[test]
    fn alpha_cuts_shrink_with_alpha() {
        let t = tri(2.0, 5.0, 8.0);
        let half = t.alpha_cut(0.5);
        let ninety = t.alpha_cut(0.9);
        assert_eq!(half.len(), 1);
        assert_eq!(ninety.len(), 1);
        let (h_lo, h_hi) = half[0];
        let (n_lo, n_hi) = ninety[0];
        assert!(n_lo > h_lo && n_hi < h_hi);
        // 0.5-cut of this triangle is [3.5, 6.5].
        assert!((h_lo - 3.5).abs() < 0.02 && (h_hi - 6.5).abs() < 0.02);
    }

    #[test]
    fn alpha_cut_multiple_intervals() {
        let a = tri(1.0, 2.0, 3.0);
        let b = tri(6.0, 7.0, 8.0);
        let u = a.union(&b);
        let cuts = u.alpha_cut(0.5);
        assert_eq!(cuts.len(), 2, "{cuts:?}");
    }

    #[test]
    fn de_morgan_for_standard_ops() {
        let a = tri(1.0, 3.0, 5.0);
        let b = tri(4.0, 6.0, 8.0);
        let left = a.union(&b).complement();
        let right = a.complement().intersect(&b.complement());
        for (l, r) in left.degrees().iter().zip(right.degrees()) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn double_complement_is_identity() {
        let a = tri(1.0, 3.0, 5.0);
        let back = a.complement().complement();
        for (x, y) in a.degrees().iter().zip(back.degrees()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn product_below_min() {
        let a = tri(1.0, 4.0, 7.0);
        let b = tri(3.0, 6.0, 9.0);
        let prod = a.product(&b);
        let min = a.intersect(&b);
        for (p, m) in prod.degrees().iter().zip(min.degrees()) {
            assert!(*p <= m + 1e-12);
        }
    }

    #[test]
    fn subsethood() {
        let narrow = tri(4.0, 5.0, 6.0);
        let wide = tri(2.0, 5.0, 8.0);
        // A narrow spike centred like the wide one is (almost) a subset.
        assert!(narrow.subsethood(&wide) > 0.95);
        assert!(wide.subsethood(&narrow) < 0.5);
        let empty = SampledSet::from_degrees(0.0, 1.0, vec![0.0, 0.0]);
        assert_eq!(empty.subsethood(&wide), 1.0);
    }
}
