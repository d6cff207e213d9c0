//! The fusion layer: folding the intersection posterior together with
//! the web-harvest evidence through the existing fusion estimators.
//!
//! The intersected feasible boxes become a *fused pseudo-release*: one
//! row per target whose quasi-identifier cells carry the narrowed
//! intervals (or centroid hints), identifiers retained, sensitive cells
//! suppressed. Any [`fred_attack::FusionSystem`] — the paper's
//! [`fred_attack::FuzzyFusion`], the [`fred_attack::LinearFusion`]
//! baseline — then reads it exactly like an ordinary release, with the
//! harvested [`fred_attack::Harvest`] records as the auxiliary channel.
//! Disclosure gain is the paper's `G` measured along a new axis: how much
//! closer composition moves the adversary compared to the best
//! single-release attack at the same `k`.
//!
//! The attack and both sweeps share one context and one cell evaluator:
//! the context holds the target core, its one web harvest and ground
//! truth; a cell generates a scenario, indexes each of its releases once,
//! and evaluates its single-release world and its `R`-release
//! composition as prefixes of those indexes. The attack has one body,
//! [`compose_attack_tolerant`], with the [`FaultPlan`] as a parameter;
//! [`compose_attack`] is its zero-fault call, and the sweeps evaluate
//! their `(k, R)` grids through the same cells under [`FaultPlan::none`].

use std::sync::Arc;

use fred_anon::Anonymizer;
use fred_attack::{harvest_auxiliary_tolerant, FusionSystem, Harvest, HarvestConfig};
use fred_core::dissimilarity;
use fred_data::{Table, Value};
use fred_faults::{strict, Degradation, FaultPlan};
use fred_web::SearchEngine;

use crate::error::{CompositionError, Result};
use crate::intersect::{index_sources, probe, SourceIndex, TargetIntersection};
use crate::scenario::{core_targets, generate_scenario, ScenarioConfig};

/// Configuration of one end-to-end composition attack.
#[derive(Debug, Clone)]
pub struct CompositionConfig {
    /// The multi-release world to generate.
    pub scenario: ScenarioConfig,
    /// Harvesting configuration for the web evidence.
    pub harvest: HarvestConfig,
    /// Chunk geometry of the release fault model (a truncated chunk of
    /// this many rows hides its second half); strict results do not
    /// depend on it.
    pub chunk_rows: usize,
    /// The adversary's domain knowledge of the quasi-identifier universe
    /// (matches [`fred_attack::FuzzyFusionConfig::qi_range`]); used to
    /// map feasible boxes into sensitive-value ranges.
    pub qi_range: (f64, f64),
    /// The adversary's domain knowledge of the sensitive range (matches
    /// [`fred_attack::FuzzyFusionConfig::income_range`]).
    pub income_range: (f64, f64),
}

impl Default for CompositionConfig {
    fn default() -> Self {
        CompositionConfig {
            scenario: ScenarioConfig::default(),
            harvest: HarvestConfig::default(),
            chunk_rows: 1024,
            qi_range: (1.0, 10.0),
            income_range: (40_000.0, 160_000.0),
        }
    }
}

/// Per-target outcome of the composition attack.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionRecord {
    /// Master-table row of the target.
    pub master_row: usize,
    /// Effective anonymity after composition (`|∩ classes|`).
    pub candidates: usize,
    /// Mean feasible-interval width after composition (`None` when no
    /// release bounded any quasi-identifier).
    pub feasible_width: Option<f64>,
    /// Width (in sensitive units) of the feasible sensitive-value range
    /// implied by the composed releases.
    pub feasible_income_width: f64,
    /// The same width under the single-release world at the same `k`.
    /// `feasible_income_width` can only be narrower — the record's
    /// disclosure gain is the difference.
    pub baseline_income_width: f64,
    /// Fused estimate of the sensitive attribute using all releases.
    pub estimate: f64,
    /// Fused estimate using the single-release world at the same `k`.
    pub baseline_estimate: f64,
    /// Ground-truth sensitive value (evaluation only).
    pub truth: f64,
}

/// The end-to-end outcome: per-record results plus the aggregate
/// disclosure measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionOutcome {
    /// Number of composed releases `R`.
    pub releases: usize,
    /// Anonymization level each curator applied.
    pub k: usize,
    /// Per-target records, ascending by master row.
    pub records: Vec<CompositionRecord>,
    /// Mean effective anonymity across targets.
    pub mean_candidates: f64,
    /// Mean feasible width across targets with bounded QIs.
    pub mean_feasible_width: f64,
    /// `(P ∘ P̂)` of the single-release attack at the same `k`.
    pub dissim_single: f64,
    /// `(P ∘ P̂)` after composing all `R` releases.
    pub dissim_composed: f64,
    /// **Per-record disclosure gain**: how much of the feasible
    /// sensitive-value range composition eliminated, averaged across
    /// targets (mean of `baseline_income_width − feasible_income_width`;
    /// `0` at `R = 1`). This is the Ganta-composition measure: the set of
    /// sensitive values consistent with everything published shrinks with
    /// every additional release.
    pub disclosure_gain: f64,
    /// Estimate-side gain: `dissim_single − dissim_composed` (the paper's
    /// `G` along the composition axis; positive when the fused point
    /// estimates also moved closer to the truth).
    pub estimate_gain: f64,
    /// Fraction of targets with harvested auxiliary evidence.
    pub aux_coverage: f64,
    /// Label of the [`crate::DefensePolicy`] the scenario was generated
    /// under (`None` for the undefended attack).
    pub defense: Option<String>,
}

/// Builds the fused pseudo-release: identifiers kept, each
/// quasi-identifier cell narrowed to the intersected feasible interval
/// (falling back to the centroid hint, then to `Missing`), sensitive
/// cells suppressed. Index-aligned with `inters`.
pub fn fused_table(master: &Table, inters: &[TargetIntersection]) -> Result<Table> {
    let qi_cols = master.quasi_identifier_columns();
    let sens_cols = master.sensitive_columns();
    let mut rows = Vec::with_capacity(inters.len());
    for inter in inters {
        let mut row = master.rows()[inter.master_row].clone();
        for (qi, &c) in qi_cols.iter().enumerate() {
            row[c] = match inter.feasible[qi] {
                Some(iv) => Value::Interval(iv),
                None => match inter.centroid_hint[qi] {
                    Some(x) => Value::Float(x),
                    None => Value::Missing,
                },
            };
        }
        for &c in &sens_cols {
            row[c] = Value::Missing;
        }
        rows.push(row);
    }
    Table::with_rows(master.schema().clone(), rows).map_err(Into::into)
}

/// The targets-only release used for harvesting: identifiers are
/// invariant across `k` and `R`, so one harvest serves every cell of a
/// composition sweep.
fn targets_release(master: &Table, targets: &[usize]) -> Result<Table> {
    let rows = targets
        .iter()
        .map(|&t| master.rows()[t].clone())
        .collect::<Vec<_>>();
    let table = Table::with_rows(master.schema().clone(), rows)?;
    Ok(table.suppress_sensitive())
}

/// Ground-truth sensitive values for `targets`.
fn target_truth(master: &Table, targets: &[usize]) -> Result<Vec<f64>> {
    let sens = *master.sensitive_columns().first().ok_or_else(|| {
        CompositionError::InvalidConfig("table has no sensitive attribute".into())
    })?;
    let all = master.numeric_column(sens)?;
    if all.len() != master.len() {
        return Err(CompositionError::InvalidConfig(
            "sensitive column has missing cells".into(),
        ));
    }
    Ok(targets.iter().map(|&t| all[t]).collect())
}

/// Width (in sensitive units) of the feasible sensitive-value range one
/// target's intersection implies: each bounded quasi-identifier pins the
/// target to a fraction of the adversary's QI universe, an unbounded one
/// leaves the whole universe, and the mean fraction scales the sensitive
/// range (the adversary's linear domain calibration — the same knowledge
/// [`fred_attack::LinearFusion`] encodes).
pub(crate) fn implied_income_width(
    inter: &TargetIntersection,
    qi_range: (f64, f64),
    income_range: (f64, f64),
) -> f64 {
    let qi_span = (qi_range.1 - qi_range.0).max(f64::MIN_POSITIVE);
    let fractions: Vec<f64> = inter
        .feasible
        .iter()
        .map(|f| match f {
            Some(iv) => (iv.width() / qi_span).min(1.0),
            None => 1.0,
        })
        .collect();
    // The empty branch is load-bearing twice over: a table with no
    // quasi-identifiers constrains nothing (the whole sensitive range
    // stays feasible, fraction 1.0), and an unguarded `0.0 / 0` here
    // would turn the mean — and with it every downstream
    // disclosure-gain row — into NaN, which sails through
    // strict-monotonicity gates because every NaN comparison is false.
    let mean_fraction = if fractions.is_empty() {
        1.0
    } else {
        fractions.iter().sum::<f64>() / fractions.len() as f64
    };
    let width = mean_fraction * (income_range.1 - income_range.0);
    debug_assert!(
        width.is_finite(),
        "implied income width must be finite, got {width} for {inter:?}"
    );
    width
}

/// One evaluated prefix of a scenario's indexes: intersections,
/// estimates and dissimilarity against the context's shared harvest.
pub(crate) struct CellEval {
    pub inters: Vec<TargetIntersection>,
    pub estimates: Vec<f64>,
    /// Per-target implied sensitive-range widths.
    pub income_widths: Vec<f64>,
    pub dissim: f64,
    pub mean_candidates: f64,
    pub mean_feasible_width: f64,
    pub mean_income_width: f64,
}

/// One `(k, R)` cell: its scenario's single-release world (`base`, the
/// indexes `[..1]`) and its `R`-release composition (`composed`, the
/// indexes `[..R]`; the same evaluation as `base` at `R = 1`). Cells
/// sliced from one scenario share its `base`.
pub(crate) struct Cell {
    pub k: usize,
    pub releases: usize,
    pub base: Arc<CellEval>,
    pub composed: Arc<CellEval>,
}

/// The attack's shared set-up: the target core, its one web harvest and
/// ground truth, and what every cell evaluation reads. The core depends
/// only on `(overlap, seed)` and no defense policy touches its
/// membership, so one context serves the attack and every `(k, R,
/// policy)` cell of the sweeps.
pub(crate) struct AttackContext<'a> {
    master: &'a Table,
    fusion: &'a dyn FusionSystem,
    targets: Vec<usize>,
    pub harvest: Harvest,
    truth: Vec<f64>,
    chunk_rows: usize,
    qi_range: (f64, f64),
    income_range: (f64, f64),
}

impl<'a> AttackContext<'a> {
    /// Harvests the core of `config.scenario` (validated at its `k`)
    /// under `plan`, without anonymizing a throwaway probe world. Returns
    /// the context and the harvest's ledger.
    pub fn new(
        master: &'a Table,
        web: &SearchEngine,
        fusion: &'a dyn FusionSystem,
        config: &CompositionConfig,
        plan: &FaultPlan,
    ) -> Result<(Self, Degradation)> {
        let targets = core_targets(master.len(), &config.scenario)?;
        let release = targets_release(master, &targets)?;
        let (harvest, deg) = harvest_auxiliary_tolerant(&release, web, &config.harvest, plan)?;
        let truth = target_truth(master, &targets)?;
        let ctx = AttackContext {
            master,
            fusion,
            targets,
            harvest,
            truth,
            chunk_rows: config.chunk_rows,
            qi_range: config.qi_range,
            income_range: config.income_range,
        };
        Ok((ctx, deg))
    }

    /// Generates `scenario`, indexes its sources once under `plan`'s
    /// release-level faults (counting into `deg`), and evaluates one cell
    /// per entry of `releases` (each at most `scenario.releases`) as
    /// prefixes of those indexes, all sharing the scenario's `base`.
    pub fn cells(
        &self,
        anonymizer: &dyn Anonymizer,
        scenario: &ScenarioConfig,
        releases: &[usize],
        plan: &FaultPlan,
        deg: &mut Degradation,
    ) -> Result<Vec<Cell>> {
        let generated = generate_scenario(self.master, anonymizer, scenario)?;
        debug_assert_eq!(generated.targets, self.targets);
        let indexes = index_sources(
            &generated.sources,
            self.master.len(),
            self.chunk_rows,
            plan,
            deg,
        )?;
        let base = Arc::new(self.evaluate(&indexes[..1])?);
        releases
            .iter()
            .map(|&r| {
                let composed = if r == 1 {
                    Arc::clone(&base)
                } else {
                    Arc::new(self.evaluate(&indexes[..r])?)
                };
                Ok(Cell {
                    k: scenario.k,
                    releases: r,
                    base: Arc::clone(&base),
                    composed,
                })
            })
            .collect()
    }

    /// Evaluates the composition of the sources `indexes`.
    fn evaluate(&self, indexes: &[SourceIndex]) -> Result<CellEval> {
        let inters = probe(indexes, &self.targets);
        let fused = fused_table(self.master, &inters)?;
        let estimates = self.fusion.estimate(&fused, &self.harvest.records)?;
        let dissim = dissimilarity(&self.truth, &estimates)?;
        let mean_candidates =
            inters.iter().map(|i| i.candidates() as f64).sum::<f64>() / inters.len().max(1) as f64;
        let widths: Vec<f64> = inters
            .iter()
            .filter_map(|i| i.mean_feasible_width())
            .collect();
        let mean_feasible_width = if widths.is_empty() {
            0.0
        } else {
            widths.iter().sum::<f64>() / widths.len() as f64
        };
        let income_widths: Vec<f64> = inters
            .iter()
            .map(|i| implied_income_width(i, self.qi_range, self.income_range))
            .collect();
        let mean_income_width =
            income_widths.iter().sum::<f64>() / income_widths.len().max(1) as f64;
        Ok(CellEval {
            inters,
            estimates,
            income_widths,
            dissim,
            mean_candidates,
            mean_feasible_width,
            mean_income_width,
        })
    }
}

/// Runs the full composition attack under a [`FaultPlan`]: generates the
/// `R`-release world, indexes each release once, intersects the first
/// one and all `R` of them, fuses each posterior with the web harvest,
/// and measures per-record disclosure gain against the single-release
/// world at the same `k` (source construction is `R`-invariant, so the
/// first source *is* that world). The harvest tolerates damaged pages,
/// dropped rows and worker panics, the indexing tolerates release-level
/// corruption, and both count each defect once into the returned
/// [`Degradation`] ledger. The one composition body: [`compose_attack`]
/// is its zero-fault call, and under a zero-rate `plan` the ledger is
/// clean. Callers injecting `worker_panic` should wrap the call in
/// [`rayon::silence_panics`] to keep the contained panics off stderr.
pub fn compose_attack_tolerant(
    master: &Table,
    web: &SearchEngine,
    anonymizer: &dyn Anonymizer,
    fusion: &dyn FusionSystem,
    config: &CompositionConfig,
    plan: &FaultPlan,
) -> Result<(CompositionOutcome, Degradation)> {
    let scenario = &config.scenario;
    let (ctx, mut deg) = AttackContext::new(master, web, fusion, config, plan)?;
    let cell = ctx
        .cells(anonymizer, scenario, &[scenario.releases], plan, &mut deg)?
        .pop()
        .expect("one cell per release count");
    let (baseline, composed) = (&cell.base, &cell.composed);
    let records: Vec<CompositionRecord> = composed
        .inters
        .iter()
        .enumerate()
        .map(|(i, inter)| CompositionRecord {
            master_row: inter.master_row,
            candidates: inter.candidates(),
            feasible_width: inter.mean_feasible_width(),
            feasible_income_width: composed.income_widths[i],
            baseline_income_width: baseline.income_widths[i],
            estimate: composed.estimates[i],
            baseline_estimate: baseline.estimates[i],
            truth: ctx.truth[i],
        })
        .collect();
    let disclosure_gain = records
        .iter()
        .map(|r| r.baseline_income_width - r.feasible_income_width)
        .sum::<f64>()
        / records.len().max(1) as f64;
    let outcome = CompositionOutcome {
        releases: scenario.releases,
        k: scenario.k,
        records,
        mean_candidates: composed.mean_candidates,
        mean_feasible_width: composed.mean_feasible_width,
        dissim_single: baseline.dissim,
        dissim_composed: composed.dissim,
        disclosure_gain,
        estimate_gain: baseline.dissim - composed.dissim,
        aux_coverage: ctx.harvest.coverage(),
        defense: scenario.defense.as_ref().map(|d| d.label()),
    };
    Ok((outcome, deg))
}

/// Runs the full composition attack: the zero-fault call of
/// [`compose_attack_tolerant`], under [`FaultPlan::none`]. A worker panic
/// in the harvest is not contained here: the call panics in turn (the
/// original message has already gone to stderr through the panic hook).
pub fn compose_attack(
    master: &Table,
    web: &SearchEngine,
    anonymizer: &dyn Anonymizer,
    fusion: &dyn FusionSystem,
    config: &CompositionConfig,
) -> Result<CompositionOutcome> {
    compose_attack_tolerant(master, web, anonymizer, fusion, config, &FaultPlan::none()).map(strict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_anon::Mdav;
    use fred_attack::{FuzzyFusion, FuzzyFusionConfig};
    use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
    use fred_web::{build_corpus, CorpusConfig, NameNoise};

    fn world(n: usize) -> (Table, SearchEngine) {
        let people = generate_population(&PopulationConfig {
            size: n,
            web_presence_rate: 0.95,
            seed: 33,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let web = build_corpus(
            &people,
            &CorpusConfig {
                noise: NameNoise::none(),
                pages_per_person: (2, 3),
                ..CorpusConfig::default()
            },
        );
        (table, web)
    }

    #[test]
    fn single_release_attack_has_zero_gain() {
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let outcome = compose_attack(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionConfig {
                scenario: ScenarioConfig {
                    releases: 1,
                    k: 4,
                    ..ScenarioConfig::default()
                },
                ..CompositionConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.releases, 1);
        assert_eq!(outcome.disclosure_gain, 0.0);
        assert_eq!(outcome.dissim_single, outcome.dissim_composed);
        for r in &outcome.records {
            assert_eq!(r.estimate, r.baseline_estimate);
            assert!(r.candidates >= 4);
        }
    }

    #[test]
    fn composition_yields_positive_gain() {
        let (table, web) = world(80);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let outcome = compose_attack(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionConfig {
                scenario: ScenarioConfig {
                    releases: 3,
                    k: 5,
                    ..ScenarioConfig::default()
                },
                ..CompositionConfig::default()
            },
        )
        .unwrap();
        assert!(
            outcome.disclosure_gain > 0.0,
            "composition should help the adversary: {outcome:?}"
        );
        assert!(outcome.mean_candidates < 2.0 * 5.0);
        assert!(outcome.aux_coverage > 0.5);
        assert_eq!(outcome.records.len(), 40);
    }

    #[test]
    fn zero_qi_intersection_yields_full_income_span_not_nan() {
        // A target set with no intersected boxes (no quasi-identifier
        // columns) must imply the *whole* sensitive range — a finite
        // width — never a 0/0 NaN, which would poison every downstream
        // disclosure-gain row and slip past strict-monotonicity gates.
        let inter = TargetIntersection {
            master_row: 0,
            candidate_rows: vec![0],
            feasible: vec![],
            centroid_hint: vec![],
            sources_seen: 1,
        };
        let income_range = (40_000.0, 160_000.0);
        let width = implied_income_width(&inter, (1.0, 10.0), income_range);
        assert!(width.is_finite());
        assert_eq!(width, income_range.1 - income_range.0);
    }

    #[test]
    fn tolerant_compose_with_zero_rate_plan_matches_strict_exactly() {
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let config = CompositionConfig {
            scenario: ScenarioConfig {
                releases: 3,
                k: 4,
                ..ScenarioConfig::default()
            },
            ..CompositionConfig::default()
        };
        let strict = compose_attack(&table, &web, &Mdav::new(), &fusion, &config).unwrap();
        let (tolerant, deg) = compose_attack_tolerant(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &config,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(strict, tolerant);
        assert!(deg.is_clean(), "zero-rate plan must stay clean: {deg:?}");
    }

    #[test]
    #[should_panic(expected = "worker panic(s) contained during a strict call")]
    fn strict_rule_refuses_a_contained_worker_panic() {
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let config = CompositionConfig {
            scenario: ScenarioConfig {
                releases: 2,
                k: 4,
                ..ScenarioConfig::default()
            },
            ..CompositionConfig::default()
        };
        let plan = FaultPlan {
            worker_panic: 1.0,
            ..FaultPlan::none()
        };
        let contained = rayon::silence_panics(|| {
            compose_attack_tolerant(&table, &web, &Mdav::new(), &fusion, &config, &plan)
        })
        .unwrap();
        assert!(contained.1.workers_restarted > 0, "{}", contained.1);
        // The rule `compose_attack` applies to its zero-fault run.
        strict(contained);
    }

    #[test]
    fn tolerant_compose_survives_heavy_corruption_with_finite_metrics() {
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let config = CompositionConfig {
            scenario: ScenarioConfig {
                releases: 3,
                k: 4,
                ..ScenarioConfig::default()
            },
            ..CompositionConfig::default()
        };
        let plan = FaultPlan::uniform(77, 0.1);
        let run = || {
            rayon::silence_panics(|| {
                compose_attack_tolerant(&table, &web, &Mdav::new(), &fusion, &config, &plan)
                    .unwrap()
            })
        };
        let (outcome, deg) = run();
        assert!(
            !deg.is_clean(),
            "10% corruption should register somewhere: {deg:?}"
        );
        assert!(outcome.disclosure_gain.is_finite());
        assert!(outcome.dissim_single.is_finite());
        assert!(outcome.dissim_composed.is_finite());
        assert!(outcome.mean_candidates.is_finite());
        for r in &outcome.records {
            assert!(r.estimate.is_finite());
            assert!(r.feasible_income_width.is_finite());
            assert!(r.baseline_income_width.is_finite());
        }
        // Pure-hash decisions: the degraded run is reproducible.
        let (again, deg_again) = run();
        assert_eq!(outcome, again);
        assert_eq!(deg, deg_again);
    }

    #[test]
    fn attack_ledger_counts_each_defect_once() {
        // The attack's ledger is its harvest's plus one intersection's
        // over the scenario's sources: the single-release baseline is a
        // prefix of the same indexes, so source 0's defects count once.
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let plan = FaultPlan::uniform(91, 0.1);
        for releases in [1, 3] {
            let config = CompositionConfig {
                scenario: ScenarioConfig {
                    releases,
                    k: 4,
                    ..ScenarioConfig::default()
                },
                ..CompositionConfig::default()
            };
            let (_, deg) = rayon::silence_panics(|| {
                compose_attack_tolerant(&table, &web, &Mdav::new(), &fusion, &config, &plan)
            })
            .unwrap();
            let targets = core_targets(table.len(), &config.scenario).unwrap();
            let release = targets_release(&table, &targets).unwrap();
            let (_, mut expected) = rayon::silence_panics(|| {
                harvest_auxiliary_tolerant(&release, &web, &config.harvest, &plan)
            })
            .unwrap();
            let harvested = expected;
            let scenario = generate_scenario(&table, &Mdav::new(), &config.scenario).unwrap();
            crate::intersect::intersect_releases_tolerant(
                &scenario.sources,
                &scenario.targets,
                table.len(),
                config.chunk_rows,
                &plan,
                &mut expected,
            )
            .unwrap();
            assert_ne!(expected, harvested, "R = {releases}: no release defect");
            assert_eq!(deg, expected, "R = {releases}");
        }
    }

    #[test]
    fn fused_table_shape_and_suppression() {
        let (table, _) = world(40);
        let scenario = generate_scenario(
            &table,
            &Mdav::new(),
            &ScenarioConfig {
                releases: 2,
                k: 4,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        let inters =
            crate::intersect::intersect_releases(&scenario.sources, &scenario.targets, 40, 16)
                .unwrap();
        let fused = fused_table(&table, &inters).unwrap();
        assert_eq!(fused.len(), scenario.targets.len());
        let sens = table.sensitive_columns()[0];
        assert!(fused.column(sens).all(Value::is_missing));
        // Identifiers line up with the targets.
        let ids = fused.identifier_strings();
        for (i, &t) in scenario.targets.iter().enumerate() {
            assert_eq!(ids[i], table.identifier_strings()[t]);
        }
        // QI cells are intervals under range style.
        for (i, _) in scenario.targets.iter().enumerate() {
            for &c in &table.quasi_identifier_columns() {
                assert!(fused.cell(i, c).unwrap().as_interval().is_some());
            }
        }
    }
}
