//! The compiled Mamdani engine: the allocation-lean, index-based fast
//! path behind [`FuzzyEngine::compile`].
//!
//! [`FuzzyEngine::evaluate`] resolves variable and term names through
//! string maps, re-samples the output universe and re-evaluates every
//! consequent membership function *per call*. Compilation hoists all of
//! that out of the hot loop once per rulebase:
//!
//! * variables and terms become dense indices (rule antecedents become
//!   postfix programs over an explicit stack — no recursion, no string
//!   hashing);
//! * the output universe `xs` and every consequent term's membership
//!   curve sampled over it are precomputed, with the span of samples
//!   where each curve is nonzero (its support), so a fired rule touches
//!   only its support and the centroid sums only the union of the fired
//!   supports;
//! * the aggregated output curve lives in a caller-owned reusable
//!   [`Scratch`], so steady-state evaluation performs **zero heap
//!   allocations**.
//!
//! The compiled engine is float-for-float identical to the interpreted
//! one: it performs the same operations on the same values in the same
//! order, leaving out only the terms of zero degree, which change no bit
//! (see [`CompiledEngine::evaluate_with`] and the equivalence tests at
//! the bottom of this module).

use crate::defuzz::Defuzzifier;
use crate::engine::{Aggregation, AndOp, EngineConfig, FuzzyEngine, Implication, OrOp};
use crate::error::{FuzzyError, Result};
use crate::membership::MembershipFunction;
use crate::rule::Antecedent;
use std::ops::Range;

/// One postfix instruction of a compiled antecedent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push the fuzzified degree of input `input` in its `term`-th term.
    Is {
        /// Dense input index.
        input: u16,
        /// Dense term index within that input.
        term: u16,
    },
    /// Pop `a`, push `1 - a`.
    Not,
    /// Pop `b` then `a`, push the configured t-norm of `(a, b)`.
    And,
    /// Pop `b` then `a`, push the configured s-norm of `(a, b)`.
    Or,
}

/// A compiled rule: postfix antecedent, weight, dense consequent index.
#[derive(Debug, Clone)]
struct CompiledRule {
    ops: Vec<Op>,
    weight: f64,
    consequent: u16,
}

/// Reusable evaluation buffers. Create once with
/// [`CompiledEngine::scratch`] and thread through every call on the same
/// engine; steady-state evaluation then allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    aggregate: Vec<f64>,
    stack: Vec<f64>,
    strengths: Vec<f64>,
}

/// A dense, immutable compilation of a [`FuzzyEngine`] rulebase.
#[derive(Debug, Clone)]
pub struct CompiledEngine {
    input_names: Vec<String>,
    input_bounds: Vec<(f64, f64)>,
    /// `term_mfs[i]` holds input `i`'s membership functions in
    /// declaration order.
    term_mfs: Vec<Vec<MembershipFunction>>,
    rules: Vec<CompiledRule>,
    config: EngineConfig,
    /// Sampled output universe.
    xs: Vec<f64>,
    /// `consequent_curves[t][j]` = degree of output term `t` at `xs[j]`.
    consequent_curves: Vec<Vec<f64>>,
    /// `supports[t]`: the samples from the first to the last nonzero
    /// degree of output term `t` (empty when the curve is all zero).
    supports: Vec<Range<usize>>,
}

impl CompiledEngine {
    pub(crate) fn from_engine(engine: &FuzzyEngine) -> Result<Self> {
        if engine.rule_count() == 0 {
            return Err(FuzzyError::NoRules);
        }
        let inputs = engine.inputs();
        let input_names: Vec<String> = inputs.iter().map(|v| v.name().to_owned()).collect();
        let input_bounds: Vec<(f64, f64)> = inputs.iter().map(|v| (v.lo(), v.hi())).collect();
        let term_mfs: Vec<Vec<MembershipFunction>> = inputs
            .iter()
            .map(|v| v.terms().iter().map(|t| t.mf().clone()).collect())
            .collect();

        let input_index = |name: &str| -> Result<u16> {
            inputs
                .iter()
                .position(|v| v.name() == name)
                .map(|i| i as u16)
                .ok_or_else(|| FuzzyError::UnknownVariable(name.to_owned()))
        };
        let term_index = |input: u16, term: &str| -> Result<u16> {
            let v = &inputs[input as usize];
            v.terms()
                .iter()
                .position(|t| t.name() == term)
                .map(|i| i as u16)
                .ok_or_else(|| FuzzyError::UnknownTerm {
                    variable: v.name().to_owned(),
                    term: term.to_owned(),
                })
        };

        let output = engine.output();
        let mut rules = Vec::with_capacity(engine.rule_count());
        for rule in engine.rules() {
            let mut ops = Vec::new();
            compile_antecedent(rule.antecedent(), &input_index, &term_index, &mut ops)?;
            let consequent = output
                .terms()
                .iter()
                .position(|t| t.name() == rule.output_term())
                .ok_or_else(|| FuzzyError::UnknownTerm {
                    variable: output.name().to_owned(),
                    term: rule.output_term().to_owned(),
                })? as u16;
            rules.push(CompiledRule {
                ops,
                weight: rule.weight(),
                consequent,
            });
        }

        // Precompute the output universe and each consequent term's curve
        // over it; the aggregation loop then only reads table entries.
        let (lo, hi) = (output.lo(), output.hi());
        let n = engine.resolution();
        let xs: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect();
        let consequent_curves: Vec<Vec<f64>> = output
            .terms()
            .iter()
            .map(|t| xs.iter().map(|&x| t.mf().degree(x)).collect())
            .collect();
        let supports = consequent_curves
            .iter()
            .map(|curve| match curve.iter().position(|&m| m != 0.0) {
                Some(first) => first..curve.iter().rposition(|&m| m != 0.0).unwrap_or(first) + 1,
                None => 0..0,
            })
            .collect();

        Ok(CompiledEngine {
            input_names,
            input_bounds,
            term_mfs,
            rules,
            config: *engine.config(),
            xs,
            consequent_curves,
            supports,
        })
    }

    /// Number of inputs, in declaration order.
    pub fn n_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Dense index of the named input, if declared.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.input_names.iter().position(|n| n == name)
    }

    /// Fresh reusable buffers sized for this engine.
    pub fn scratch(&self) -> Scratch {
        Scratch {
            aggregate: vec![0.0; self.xs.len()],
            stack: Vec::with_capacity(8),
            strengths: vec![0.0; self.rules.len()],
        }
    }

    /// Firing strength (weight-scaled) of every rule for positional
    /// inputs, written into `scratch.strengths`.
    fn fire(&self, values: &[f64], scratch: &mut Scratch) -> Result<()> {
        if values.len() < self.input_names.len() {
            return Err(FuzzyError::MissingInput(
                self.input_names[values.len()].clone(),
            ));
        }
        // Resize instead of assuming: the same `Scratch` may be reused
        // across engines with different rule counts and resolutions.
        scratch.strengths.clear();
        scratch.strengths.resize(self.rules.len(), 0.0);
        for (slot, rule) in scratch.strengths.iter_mut().zip(&self.rules) {
            let stack = &mut scratch.stack;
            stack.clear();
            for op in &rule.ops {
                match *op {
                    Op::Is { input, term } => {
                        let (lo, hi) = self.input_bounds[input as usize];
                        let x = values[input as usize].clamp(lo, hi);
                        stack.push(self.term_mfs[input as usize][term as usize].degree(x));
                    }
                    Op::Not => {
                        let a = stack.pop().expect("compiled antecedent underflow");
                        stack.push(1.0 - a);
                    }
                    Op::And => {
                        let b = stack.pop().expect("compiled antecedent underflow");
                        let a = stack.pop().expect("compiled antecedent underflow");
                        stack.push(match self.config.and_op {
                            AndOp::Min => a.min(b),
                            AndOp::Product => a * b,
                        });
                    }
                    Op::Or => {
                        let b = stack.pop().expect("compiled antecedent underflow");
                        let a = stack.pop().expect("compiled antecedent underflow");
                        stack.push(match self.config.or_op {
                            OrOp::Max => a.max(b),
                            OrOp::ProbabilisticSum => a + b - a * b,
                        });
                    }
                }
            }
            debug_assert_eq!(stack.len(), 1, "antecedent leaves one value");
            *slot = stack.pop().expect("compiled antecedent underflow") * rule.weight;
        }
        Ok(())
    }

    /// Runs inference on positional inputs (declaration order), reusing
    /// `scratch`; the hot-path equivalent of [`FuzzyEngine::evaluate`].
    ///
    /// A fired rule is applied only across its consequent's support.
    /// Outside it the curve is `0`, and a zero degree implied by a finite
    /// strength `w > 0` (`0.min(w)` or `0 · w`) leaves a nonnegative
    /// aggregate unchanged under both `Max` and `BoundedSum`, so skipping
    /// it changes no bit. A non-finite strength (a NaN input) can turn a
    /// zero degree into a NaN term, so such a rule covers the whole
    /// universe. The centroid then sums only the union span of the
    /// applied supports: every sample outside it is `0` and would add
    /// `±0` to sums that are `+0` or nonzero, which is exact. The other
    /// defuzzifiers read the whole curve.
    pub fn evaluate_with(&self, values: &[f64], scratch: &mut Scratch) -> Result<f64> {
        self.fire(values, scratch)?;
        let n = self.xs.len();
        let aggregate = &mut scratch.aggregate;
        aggregate.clear();
        aggregate.resize(n, 0.0);
        let mut span = n..0;
        for (rule, &w) in self.rules.iter().zip(&scratch.strengths) {
            if w <= 0.0 {
                continue;
            }
            let t = rule.consequent as usize;
            let support = if w.is_finite() {
                self.supports[t].clone()
            } else {
                0..n
            };
            span = span.start.min(support.start)..span.end.max(support.end);
            let curve = &self.consequent_curves[t][support.clone()];
            let aggregate = &mut aggregate[support];
            match (self.config.implication, self.config.aggregation) {
                (Implication::Min, Aggregation::Max) => {
                    for (agg, &m) in aggregate.iter_mut().zip(curve) {
                        *agg = agg.max(m.min(w));
                    }
                }
                (Implication::Min, Aggregation::BoundedSum) => {
                    for (agg, &m) in aggregate.iter_mut().zip(curve) {
                        *agg = (*agg + m.min(w)).min(1.0);
                    }
                }
                (Implication::Product, Aggregation::Max) => {
                    for (agg, &m) in aggregate.iter_mut().zip(curve) {
                        *agg = agg.max(m * w);
                    }
                }
                (Implication::Product, Aggregation::BoundedSum) => {
                    for (agg, &m) in aggregate.iter_mut().zip(curve) {
                        *agg = (*agg + m * w).min(1.0);
                    }
                }
            }
        }
        let span = match self.config.defuzzifier {
            Defuzzifier::Centroid if span.start < span.end => span,
            Defuzzifier::Centroid => 0..0,
            _ => 0..n,
        };
        self.config
            .defuzzifier
            .defuzzify(&self.xs[span.clone()], &aggregate[span])
            .ok_or(FuzzyError::NoRuleFired)
    }

    /// Convenience wrapper allocating throwaway scratch. Prefer
    /// [`evaluate_with`](Self::evaluate_with) in loops.
    pub fn evaluate(&self, values: &[f64]) -> Result<f64> {
        let mut scratch = self.scratch();
        self.evaluate_with(values, &mut scratch)
    }
}

fn compile_antecedent(
    antecedent: &Antecedent,
    input_index: &impl Fn(&str) -> Result<u16>,
    term_index: &impl Fn(u16, &str) -> Result<u16>,
    ops: &mut Vec<Op>,
) -> Result<()> {
    match antecedent {
        Antecedent::Is { variable, term } => {
            let input = input_index(variable)?;
            let term = term_index(input, term)?;
            ops.push(Op::Is { input, term });
        }
        Antecedent::Not(inner) => {
            compile_antecedent(inner, input_index, term_index, ops)?;
            ops.push(Op::Not);
        }
        Antecedent::And(l, r) => {
            compile_antecedent(l, input_index, term_index, ops)?;
            compile_antecedent(r, input_index, term_index, ops)?;
            ops.push(Op::And);
        }
        Antecedent::Or(l, r) => {
            compile_antecedent(l, input_index, term_index, ops)?;
            compile_antecedent(r, input_index, term_index, ops)?;
            ops.push(Op::Or);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests_support::tip_engine_for_compiled_tests as tip_engine;
    use crate::variable::LinguisticVariable;
    use std::collections::HashMap;

    #[test]
    fn compiled_matches_interpreted_bit_for_bit() {
        let engine = tip_engine();
        let compiled = engine.compile().unwrap();
        let mut scratch = compiled.scratch();
        for i in 0..=200 {
            let x = i as f64 / 20.0;
            let interpreted = engine.evaluate(&HashMap::from([("service", x)])).unwrap();
            let fast = compiled.evaluate_with(&[x], &mut scratch).unwrap();
            assert_eq!(interpreted.to_bits(), fast.to_bits(), "x = {x}");
        }
    }

    #[test]
    fn compiled_matches_on_compound_antecedents() {
        let service = LinguisticVariable::new("service", 0.0, 10.0)
            .unwrap()
            .with_uniform_terms(&["poor", "good", "excellent"])
            .unwrap();
        let food = LinguisticVariable::new("food", 0.0, 10.0)
            .unwrap()
            .with_uniform_terms(&["bad", "tasty"])
            .unwrap();
        let tip = LinguisticVariable::new("tip", 0.0, 30.0)
            .unwrap()
            .with_uniform_terms(&["low", "med", "high"])
            .unwrap();
        let mut engine = crate::engine::FuzzyEngine::new(vec![service, food], tip);
        engine
            .add_rules_text(
                "IF service IS excellent AND food IS tasty THEN tip IS high\n\
                 IF service IS poor OR food IS bad THEN tip IS low\n\
                 IF NOT service IS poor THEN tip IS med WITH 0.5",
            )
            .unwrap();
        let compiled = engine.compile().unwrap();
        let mut scratch = compiled.scratch();
        for i in 0..=20 {
            for j in 0..=20 {
                let (s, f) = (i as f64 / 2.0, j as f64 / 2.0);
                let interpreted = engine
                    .evaluate(&HashMap::from([("service", s), ("food", f)]))
                    .unwrap();
                let fast = compiled.evaluate_with(&[s, f], &mut scratch).unwrap();
                assert_eq!(interpreted.to_bits(), fast.to_bits(), "s={s} f={f}");
            }
        }
    }

    #[test]
    fn compiled_rejects_short_input_slices() {
        let compiled = tip_engine().compile().unwrap();
        assert!(matches!(
            compiled.evaluate(&[]),
            Err(FuzzyError::MissingInput(_))
        ));
    }

    #[test]
    fn empty_rulebase_does_not_compile() {
        let service = LinguisticVariable::new("service", 0.0, 10.0)
            .unwrap()
            .with_uniform_terms(&["poor"])
            .unwrap();
        let tip = LinguisticVariable::new("tip", 0.0, 30.0)
            .unwrap()
            .with_uniform_terms(&["low"])
            .unwrap();
        let engine = crate::engine::FuzzyEngine::new(vec![service], tip);
        assert!(matches!(engine.compile(), Err(FuzzyError::NoRules)));
    }

    /// A random rulebase under `config`: one to three inputs with two to
    /// five uniform terms each (plus, on some inputs, a Gaussian term that
    /// is nonzero across the universe), an output with uniform terms, a
    /// trapezoid and a narrow triangle, and one to nine rules of random
    /// shape and weight.
    fn random_engine(seed: u64, config: EngineConfig, resolution: usize) -> FuzzyEngine {
        use crate::rule::Rule;
        const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];
        struct Lcg(u64);
        impl Lcg {
            fn unit(&mut self) -> f64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (self.0 >> 11) as f64 / (1u64 << 53) as f64
            }
            fn pick(&mut self, n: usize) -> usize {
                ((self.unit() * n as f64) as usize).min(n - 1)
            }
        }
        let mut rng = Lcg(seed | 1);
        let n_inputs = 1 + rng.pick(3);
        let mut inputs = Vec::new();
        let mut terms: Vec<Vec<String>> = Vec::new();
        for i in 0..n_inputs {
            let n_terms = 2 + rng.pick(4);
            let mut var = LinguisticVariable::new(format!("x{i}"), 0.0, 10.0)
                .unwrap()
                .with_uniform_terms(&LABELS[..n_terms])
                .unwrap();
            let mut names: Vec<String> = LABELS[..n_terms].iter().map(|l| l.to_string()).collect();
            if rng.pick(2) == 0 {
                var = var
                    .with_term("g", MembershipFunction::gaussian(5.0, 2.0).unwrap())
                    .unwrap();
                names.push("g".into());
            }
            inputs.push(var);
            terms.push(names);
        }
        let out_terms = 2 + rng.pick(4);
        let output = LinguisticVariable::new("y", -20.0, 40.0)
            .unwrap()
            .with_uniform_terms(&LABELS[..out_terms])
            .unwrap()
            .with_term(
                "trap",
                MembershipFunction::trapezoidal(-5.0, 0.0, 3.0, 9.0).unwrap(),
            )
            .unwrap()
            .with_term(
                "spike",
                MembershipFunction::triangular(12.0, 12.5, 13.0).unwrap(),
            )
            .unwrap();
        let mut out_names: Vec<&str> = LABELS[..out_terms].to_vec();
        out_names.extend(["trap", "spike"]);
        let mut engine = FuzzyEngine::new(inputs, output)
            .with_config(config)
            .with_resolution(resolution);
        for _ in 0..1 + rng.pick(9) {
            let atom = |rng: &mut Lcg| {
                let i = rng.pick(n_inputs);
                let t = &terms[i][rng.pick(terms[i].len())];
                Antecedent::is(format!("x{i}"), t.clone())
            };
            let antecedent = match rng.pick(4) {
                0 => atom(&mut rng).and(atom(&mut rng)),
                1 => atom(&mut rng).or(atom(&mut rng)),
                2 => atom(&mut rng).not(),
                _ => atom(&mut rng),
            };
            let weight = 0.05 + 0.95 * rng.unit();
            let rule = Rule::new(antecedent, out_names[rng.pick(out_names.len())])
                .with_weight(weight)
                .unwrap();
            engine.add_rule(rule).unwrap();
        }
        engine
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn compiled_matches_interpreted_for_every_operator_and_defuzzifier(
            seed in 0u64..1_000_000,
            implication in 0usize..2,
            aggregation in 0usize..2,
            defuzzifier in 0usize..5,
            and_op in 0usize..2,
            or_op in 0usize..2,
            resolution in 11usize..700,
            nan_input in 0usize..8,
        ) {
            let config = EngineConfig {
                and_op: [AndOp::Min, AndOp::Product][and_op],
                or_op: [OrOp::Max, OrOp::ProbabilisticSum][or_op],
                implication: [Implication::Min, Implication::Product][implication],
                aggregation: [Aggregation::Max, Aggregation::BoundedSum][aggregation],
                defuzzifier: [
                    Defuzzifier::Centroid,
                    Defuzzifier::Bisector,
                    Defuzzifier::MeanOfMaxima,
                    Defuzzifier::SmallestOfMaxima,
                    Defuzzifier::LargestOfMaxima,
                ][defuzzifier],
            };
            let engine = random_engine(seed, config, resolution);
            let compiled = engine.compile().unwrap();
            let mut scratch = compiled.scratch();
            let names: Vec<String> = (0..compiled.n_inputs()).map(|i| format!("x{i}")).collect();
            for step in 0..24u64 {
                // Inputs sweep past both ends of the universe (clamped);
                // a NaN input yields a NaN firing strength.
                let mut values: Vec<f64> = (0..names.len())
                    .map(|i| ((seed + step * 7 + i as u64 * 13) % 29) as f64 * 0.5 - 2.0)
                    .collect();
                if nan_input == 0 && step % 5 == 0 {
                    values[0] = f64::NAN;
                }
                let map: HashMap<&str, f64> =
                    names.iter().map(String::as_str).zip(values.iter().copied()).collect();
                let interpreted = engine.evaluate(&map).map(f64::to_bits);
                let fast = compiled.evaluate_with(&values, &mut scratch).map(f64::to_bits);
                prop_assert_eq!(
                    format!("{interpreted:?}"),
                    format!("{fast:?}"),
                    "seed={} config={:?} resolution={} values={:?}",
                    seed, config, resolution, values
                );
            }
        }
    }

    #[test]
    fn input_index_maps_declaration_order() {
        let compiled = tip_engine().compile().unwrap();
        assert_eq!(compiled.n_inputs(), 1);
        assert_eq!(compiled.input_index("service"), Some(0));
        assert_eq!(compiled.input_index("ambience"), None);
    }
}
