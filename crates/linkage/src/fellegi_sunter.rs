//! The Fellegi-Sunter probabilistic record-linkage model.
//!
//! Each candidate pair is compared on several fields, producing a binary
//! agreement vector. Field `f` contributes `log2(m_f / u_f)` when it agrees
//! and `log2((1-m_f) / (1-u_f))` when it disagrees, where `m_f` is the
//! probability of agreement among true matches and `u_f` among true
//! non-matches. The summed weight is classified against two thresholds into
//! Match / Possible / NonMatch. Parameters can be supplied or estimated
//! from unlabeled data with EM.

use std::fmt;

/// Classification decision for a candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Confidently the same entity.
    Match,
    /// Undecided; would go to clerical review in a production system.
    Possible,
    /// Confidently different entities.
    NonMatch,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Decision::Match => "match",
            Decision::Possible => "possible",
            Decision::NonMatch => "non-match",
        };
        f.write_str(s)
    }
}

/// Per-field m/u parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldParams {
    /// P(field agrees | pair is a true match).
    pub m: f64,
    /// P(field agrees | pair is a true non-match).
    pub u: f64,
}

impl FieldParams {
    /// Creates parameters, clamping into the open interval `(0, 1)` so the
    /// log-weights stay finite.
    pub fn new(m: f64, u: f64) -> Self {
        FieldParams {
            m: clamp_prob(m),
            u: clamp_prob(u),
        }
    }

    /// Weight contributed on agreement: `log2(m/u)`.
    pub fn agreement_weight(&self) -> f64 {
        (self.m / self.u).log2()
    }

    /// Weight contributed on disagreement: `log2((1-m)/(1-u))`.
    pub fn disagreement_weight(&self) -> f64 {
        ((1.0 - self.m) / (1.0 - self.u)).log2()
    }
}

fn clamp_prob(p: f64) -> f64 {
    p.clamp(1e-6, 1.0 - 1e-6)
}

/// A Fellegi-Sunter scorer: per-field parameters plus the two decision
/// thresholds on the summed log-weight.
#[derive(Debug, Clone, PartialEq)]
pub struct FellegiSunter {
    fields: Vec<FieldParams>,
    upper: f64,
    lower: f64,
}

impl FellegiSunter {
    /// Creates a model. `upper >= lower`; weights above `upper` classify as
    /// [`Decision::Match`], below `lower` as [`Decision::NonMatch`].
    pub fn new(fields: Vec<FieldParams>, lower: f64, upper: f64) -> Self {
        let (lower, upper) = if lower <= upper {
            (lower, upper)
        } else {
            (upper, lower)
        };
        FellegiSunter {
            fields,
            lower,
            upper,
        }
    }

    /// Number of comparison fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Per-field parameters.
    pub fn fields(&self) -> &[FieldParams] {
        &self.fields
    }

    /// The lower decision threshold: summed weights `<= lower` classify as
    /// [`Decision::NonMatch`].
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// The upper decision threshold: summed weights `>= upper` classify as
    /// [`Decision::Match`].
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Total log2-weight of an agreement vector (`true` = field agrees).
    ///
    /// Panics in debug builds if the vector length differs from the model.
    pub fn weight(&self, agreement: &[bool]) -> f64 {
        debug_assert_eq!(agreement.len(), self.fields.len());
        self.fields
            .iter()
            .zip(agreement)
            .map(|(f, &a)| {
                if a {
                    f.agreement_weight()
                } else {
                    f.disagreement_weight()
                }
            })
            .sum()
    }

    /// Classifies an agreement vector.
    pub fn classify(&self, agreement: &[bool]) -> Decision {
        self.decide(self.weight(agreement))
    }

    /// The decision for a total log2-weight: [`Decision::Match`] at or
    /// above the upper threshold, [`Decision::NonMatch`] at or below the
    /// lower one, [`Decision::Possible`] between them.
    pub fn decide(&self, w: f64) -> Decision {
        if w >= self.upper {
            Decision::Match
        } else if w <= self.lower {
            Decision::NonMatch
        } else {
            Decision::Possible
        }
    }

    /// Match probability of an agreement vector given a prior match rate
    /// `p`: posterior via Bayes over the naive-Bayes likelihoods.
    pub fn match_probability(&self, agreement: &[bool], prior: f64) -> f64 {
        let prior = clamp_prob(prior);
        let mut like_m = 1.0;
        let mut like_u = 1.0;
        for (f, &a) in self.fields.iter().zip(agreement) {
            like_m *= if a { f.m } else { 1.0 - f.m };
            like_u *= if a { f.u } else { 1.0 - f.u };
        }
        prior * like_m / (prior * like_m + (1.0 - prior) * like_u)
    }

    /// Estimates m/u parameters from unlabeled agreement vectors with EM,
    /// assuming conditional independence of fields. Returns the fitted
    /// model (thresholds copied from `self`) and the estimated match prior.
    pub fn fit_em(
        &self,
        vectors: &[Vec<bool>],
        iterations: usize,
        initial_prior: f64,
    ) -> (FellegiSunter, f64) {
        let nf = self.fields.len();
        let mut m: Vec<f64> = self.fields.iter().map(|f| f.m).collect();
        let mut u: Vec<f64> = self.fields.iter().map(|f| f.u).collect();
        let mut prior = clamp_prob(initial_prior);
        if vectors.is_empty() {
            return (self.clone(), prior);
        }
        for _ in 0..iterations {
            // E-step: responsibility of the match class per vector.
            let mut resp = Vec::with_capacity(vectors.len());
            for v in vectors {
                let mut lm = prior;
                let mut lu = 1.0 - prior;
                for f in 0..nf {
                    lm *= if v[f] { m[f] } else { 1.0 - m[f] };
                    lu *= if v[f] { u[f] } else { 1.0 - u[f] };
                }
                resp.push(lm / (lm + lu).max(1e-300));
            }
            // M-step.
            let total_r: f64 = resp.iter().sum();
            let total = vectors.len() as f64;
            prior = clamp_prob(total_r / total);
            for f in 0..nf {
                let mut agree_m = 0.0;
                let mut agree_u = 0.0;
                for (v, &r) in vectors.iter().zip(&resp) {
                    if v[f] {
                        agree_m += r;
                        agree_u += 1.0 - r;
                    }
                }
                m[f] = clamp_prob(agree_m / total_r.max(1e-300));
                u[f] = clamp_prob(agree_u / (total - total_r).max(1e-300));
            }
        }
        let fields = m
            .into_iter()
            .zip(u)
            .map(|(m, u)| FieldParams::new(m, u))
            .collect();
        (FellegiSunter::new(fields, self.lower, self.upper), prior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FellegiSunter {
        FellegiSunter::new(
            vec![
                FieldParams::new(0.95, 0.01), // surname agreement
                FieldParams::new(0.9, 0.05),  // given-name agreement
                FieldParams::new(0.8, 0.1),   // employer agreement
            ],
            0.0,
            6.0,
        )
    }

    #[test]
    fn weights_have_expected_signs() {
        let f = FieldParams::new(0.9, 0.05);
        assert!(f.agreement_weight() > 0.0);
        assert!(f.disagreement_weight() < 0.0);
    }

    #[test]
    fn full_agreement_classifies_match() {
        let m = model();
        assert_eq!(m.classify(&[true, true, true]), Decision::Match);
        assert_eq!(m.classify(&[false, false, false]), Decision::NonMatch);
    }

    #[test]
    fn weight_monotone_in_agreements() {
        let m = model();
        let w0 = m.weight(&[false, false, false]);
        let w1 = m.weight(&[true, false, false]);
        let w2 = m.weight(&[true, true, false]);
        let w3 = m.weight(&[true, true, true]);
        assert!(w0 < w1 && w1 < w2 && w2 < w3);
    }

    #[test]
    fn possible_band() {
        // Surname disagreement plus two weaker agreements lands between the
        // thresholds for this model.
        let m = model();
        let w = m.weight(&[false, true, true]);
        assert!(w > 0.0 && w < 6.0, "weight {w} expected in band");
        assert_eq!(m.classify(&[false, true, true]), Decision::Possible);
    }

    #[test]
    fn probabilities_are_calibrated_extremes() {
        let m = model();
        let p_hi = m.match_probability(&[true, true, true], 0.1);
        let p_lo = m.match_probability(&[false, false, false], 0.1);
        assert!(p_hi > 0.95, "got {p_hi}");
        assert!(p_lo < 0.01, "got {p_lo}");
    }

    #[test]
    fn prior_shifts_posterior() {
        let m = model();
        let skeptical = m.match_probability(&[true, true, false], 0.001);
        let credulous = m.match_probability(&[true, true, false], 0.5);
        assert!(credulous > skeptical);
    }

    #[test]
    fn extreme_params_stay_finite() {
        let f = FieldParams::new(1.0, 0.0);
        assert!(f.agreement_weight().is_finite());
        assert!(f.disagreement_weight().is_finite());
    }

    #[test]
    fn thresholds_swap_if_reversed() {
        let m = FellegiSunter::new(vec![FieldParams::new(0.9, 0.1)], 5.0, -5.0);
        // lower must be <= upper after construction.
        assert_eq!(m.classify(&[true]), Decision::Possible);
    }

    #[test]
    fn em_separates_planted_mixture() {
        // Plant a mixture: 20% matches with high agreement, 80% non-matches
        // with low agreement; EM should recover m >> u per field.
        let mut vectors = Vec::new();
        // Deterministic pseudo-random pattern (LCG) to avoid rand dep here.
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for i in 0..1000 {
            let is_match = i % 5 == 0;
            let v: Vec<bool> = (0..3)
                .map(|_| {
                    let r = next();
                    if is_match {
                        r < 0.9
                    } else {
                        r < 0.08
                    }
                })
                .collect();
            vectors.push(v);
        }
        let start = FellegiSunter::new(
            vec![
                FieldParams::new(0.7, 0.3),
                FieldParams::new(0.7, 0.3),
                FieldParams::new(0.7, 0.3),
            ],
            0.0,
            4.0,
        );
        let (fitted, prior) = start.fit_em(&vectors, 50, 0.5);
        assert!((prior - 0.2).abs() < 0.06, "prior {prior}");
        for f in fitted.fields() {
            assert!(f.m > 0.75, "m {} too low", f.m);
            assert!(f.u < 0.2, "u {} too high", f.u);
        }
    }

    #[test]
    fn em_with_no_data_is_identity() {
        let m = model();
        let (fitted, prior) = m.fit_em(&[], 10, 0.3);
        assert_eq!(fitted, m);
        assert!((prior - 0.3).abs() < 1e-9);
    }
}
