//! The composition sweep: disclosure gain measured over
//! `ks × releases` at a fixed overlap — the new evaluation axis this
//! subsystem adds next to the paper's per-`k` sweep.
//!
//! For each `k` the sweep evaluates the single-release world (`R = 1`,
//! the paper's setting) and every configured release count, all against
//! one shared web harvest (identifiers are invariant across cells). The
//! headline series is per-record disclosure gain versus `R = 1` at the
//! same `k`: privacy that survives one release collapses under
//! composition.

use fred_anon::{Anonymizer, QiStyle};
use fred_attack::{harvest_auxiliary, FusionSystem, HarvestConfig};
use fred_data::Table;
use fred_faults::{Degradation, FaultPlan};
use fred_web::SearchEngine;
use rayon::prelude::*;

use crate::defense::DefensePolicy;
use crate::error::{CompositionError, Result};
use crate::fuse::{evaluate_sources, target_truth, targets_release};
use crate::scenario::ScenarioConfig;

/// Configuration of a composition sweep.
#[derive(Debug, Clone)]
pub struct CompositionSweepConfig {
    /// Anonymization levels to sweep.
    pub ks: Vec<usize>,
    /// Release counts to sweep (an `R = 1` baseline is always evaluated
    /// per `k`, whether or not it is listed).
    pub releases: Vec<usize>,
    /// Fraction of the population shared by every source.
    pub overlap: f64,
    /// Fraction of the non-core rows each source additionally samples
    /// (see [`ScenarioConfig::extras`]).
    pub extras: f64,
    /// Seed for the population split.
    pub seed: u64,
    /// Per-source quasi-identifier styles (cycled).
    pub styles: Vec<QiStyle>,
    /// Harvesting configuration.
    pub harvest: HarvestConfig,
    /// Chunk geometry of the release fault model (see
    /// [`crate::CompositionConfig::chunk_rows`]).
    pub chunk_rows: usize,
    /// Adversary QI-universe knowledge (see
    /// [`crate::CompositionConfig::qi_range`]).
    pub qi_range: (f64, f64),
    /// Adversary sensitive-range knowledge (see
    /// [`crate::CompositionConfig::income_range`]).
    pub income_range: (f64, f64),
    /// Coordination defense applied to every generated scenario (`None`
    /// = the undefended attack sweep).
    pub defense: Option<DefensePolicy>,
}

impl Default for CompositionSweepConfig {
    fn default() -> Self {
        CompositionSweepConfig {
            ks: vec![5],
            releases: vec![1, 2, 3],
            overlap: 0.5,
            extras: 0.5,
            seed: 0xC0DE,
            styles: vec![QiStyle::Range],
            harvest: HarvestConfig::default(),
            chunk_rows: 1024,
            qi_range: (1.0, 10.0),
            income_range: (40_000.0, 160_000.0),
            defense: None,
        }
    }
}

/// One `(k, R)` cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionSweepRow {
    /// Anonymization level.
    pub k: usize,
    /// Number of composed releases.
    pub releases: usize,
    /// Mean effective anonymity (`|∩ classes|`) across targets.
    pub mean_candidates: f64,
    /// Mean feasible-interval width across targets (QI units).
    pub mean_feasible_width: f64,
    /// Mean width of the implied feasible sensitive-value range.
    pub mean_income_width: f64,
    /// `(P ∘ P̂)` after composing the releases.
    pub dissim_composed: f64,
    /// Per-record disclosure gain versus `R = 1` at the same `k`: the
    /// mean sensitive-range width each target lost to composition.
    /// Structurally non-decreasing in `R` — source `s` is identical in
    /// every scenario that contains it, so feasible sets only shrink as
    /// releases accumulate.
    pub disclosure_gain: f64,
    /// Estimate-side gain versus `R = 1` at the same `k`
    /// (`dissim(R=1) − dissim(R)`, the paper's `G` along this axis).
    pub estimate_gain: f64,
    /// Fraction of targets with harvested auxiliary evidence.
    pub aux_coverage: f64,
}

/// The sweep output, ordered by `(k, releases)` ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionSweepReport {
    rows: Vec<CompositionSweepRow>,
}

impl CompositionSweepReport {
    /// All rows, `(k, releases)` ascending.
    pub fn rows(&self) -> &[CompositionSweepRow] {
        &self.rows
    }

    /// Row for a specific `(k, releases)` cell.
    pub fn row_for(&self, k: usize, releases: usize) -> Option<&CompositionSweepRow> {
        self.rows
            .iter()
            .find(|r| r.k == k && r.releases == releases)
    }

    /// Disclosure-gain series over `releases` at one `k`.
    pub fn gain_series(&self, k: usize) -> Vec<(usize, f64)> {
        self.rows
            .iter()
            .filter(|r| r.k == k)
            .map(|r| (r.releases, r.disclosure_gain))
            .collect()
    }

    /// Renders the report as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut out = String::from(
            "   k    R   mean |cand|   feas width   feas income       disclosure gain          est gain  aux-cov\n",
        );
        out.push_str(&"-".repeat(100));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{:4} {:4}  {:>11.2}  {:>11.3}  {:>12.0}  {:>20.1}  {:>16.4e}  {:>7.2}\n",
                r.k,
                r.releases,
                r.mean_candidates,
                r.mean_feasible_width,
                r.mean_income_width,
                r.disclosure_gain,
                r.estimate_gain,
                r.aux_coverage
            ));
        }
        out
    }

    /// Serializes the report as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "k,releases,mean_candidates,mean_feasible_width,mean_income_width,dissim_composed,disclosure_gain,estimate_gain,aux_coverage\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.k,
                r.releases,
                r.mean_candidates,
                r.mean_feasible_width,
                r.mean_income_width,
                r.dissim_composed,
                r.disclosure_gain,
                r.estimate_gain,
                r.aux_coverage
            ));
        }
        out
    }
}

/// The shared per-sweep setup: the target core plus its one web harvest
/// and ground truth. The core depends only on `(overlap, seed)` and no
/// defense policy touches its membership, so one context serves every
/// `(k, R, policy)` cell — [`defense_sweep`] reuses the context its
/// undefended reference sweep built instead of re-harvesting per run.
struct SweepContext {
    targets: Vec<usize>,
    harvest: fred_attack::Harvest,
    truth: Vec<f64>,
}

fn sweep_context(
    table: &Table,
    web: &SearchEngine,
    config: &CompositionSweepConfig,
) -> Result<SweepContext> {
    // The split is k- and R-invariant; probe it via the split alone (no
    // throwaway anonymization), validated at the smallest swept k.
    let k_probe = *config.ks.iter().min().expect("ks non-empty");
    let probe = ScenarioConfig {
        releases: 1,
        overlap: config.overlap,
        extras: config.extras,
        k: k_probe,
        seed: config.seed,
        styles: config.styles.clone(),
        defense: None,
    };
    let targets = crate::scenario::core_targets(table.len(), &probe)?;
    let release = targets_release(table, &targets)?;
    let harvest = harvest_auxiliary(&release, web, &config.harvest)?;
    let truth = target_truth(table, &targets)?;
    Ok(SweepContext {
        targets,
        harvest,
        truth,
    })
}

fn validate_sweep_config(config: &CompositionSweepConfig) -> Result<()> {
    if config.ks.is_empty() || config.releases.is_empty() {
        return Err(CompositionError::InvalidConfig(
            "ks and releases must be non-empty".into(),
        ));
    }
    if config.releases.contains(&0) {
        return Err(CompositionError::InvalidConfig(
            "releases must be >= 1".into(),
        ));
    }
    Ok(())
}

/// Runs the composition sweep.
///
/// The harvest runs once: the shared target core — and therefore the
/// identifier set the web search sees — depends only on `(overlap,
/// seed)`, not on `k` or `R`. Cells are independent given the harvest and
/// evaluate in parallel, collected in `(k, releases)` order.
pub fn composition_sweep(
    table: &Table,
    web: &SearchEngine,
    anonymizer: &dyn Anonymizer,
    fusion: &dyn FusionSystem,
    config: &CompositionSweepConfig,
) -> Result<CompositionSweepReport> {
    validate_sweep_config(config)?;
    let ctx = sweep_context(table, web, config)?;
    composition_sweep_with_context(table, anonymizer, fusion, config, &ctx)
}

fn composition_sweep_with_context(
    table: &Table,
    anonymizer: &dyn Anonymizer,
    fusion: &dyn FusionSystem,
    config: &CompositionSweepConfig,
    ctx: &SweepContext,
) -> Result<CompositionSweepReport> {
    let SweepContext {
        targets,
        harvest,
        truth,
    } = ctx;
    let scenario_for = |k: usize, releases: usize| ScenarioConfig {
        releases,
        overlap: config.overlap,
        extras: config.extras,
        k,
        seed: config.seed,
        styles: config.styles.clone(),
        defense: config.defense.clone(),
    };
    let mut ks = config.ks.clone();
    ks.sort_unstable();
    ks.dedup();
    let mut r_values = config.releases.clone();
    r_values.sort_unstable();
    r_values.dedup();

    // Source construction is R-invariant, so each k needs exactly one
    // scenario at the largest release count; every cell — including the
    // always-evaluated R = 1 baseline — is a prefix of its sources. The
    // per-k work fans out in parallel; cells are pure given the shared
    // harvest. The one exception is CalibratedWiden, which is
    // calibrated against its own release count (at R = 3 it widens more
    // than at R = 2), so its cells generate per R; the other policies'
    // constructions are R-invariant like the undefended one.
    let r_max = *r_values.iter().max().expect("releases non-empty");
    let mut r_cells = r_values.clone();
    if !r_cells.contains(&1) {
        r_cells.insert(0, 1);
    }
    let per_r_generation = matches!(config.defense, Some(DefensePolicy::CalibratedWiden { .. }));
    let evaluated: Vec<((usize, usize), crate::fuse::CellEval)> = ks
        .clone()
        .into_par_iter()
        .map(
            |k| -> Result<Vec<((usize, usize), crate::fuse::CellEval)>> {
                let shared_scenario = if per_r_generation {
                    None
                } else {
                    let scenario = crate::scenario::generate_scenario(
                        table,
                        anonymizer,
                        &scenario_for(k, r_max),
                    )?;
                    debug_assert_eq!(&scenario.targets, targets);
                    Some(scenario)
                };
                r_cells
                    .iter()
                    .map(|&r| {
                        let cell_scenario;
                        let sources = match &shared_scenario {
                            Some(scenario) => &scenario.sources[..r],
                            None => {
                                cell_scenario = crate::scenario::generate_scenario(
                                    table,
                                    anonymizer,
                                    &scenario_for(k, r),
                                )?;
                                debug_assert_eq!(&cell_scenario.targets, targets);
                                &cell_scenario.sources[..]
                            }
                        };
                        let eval = evaluate_sources(
                            table,
                            fusion,
                            harvest,
                            truth,
                            sources,
                            targets,
                            config.chunk_rows,
                            config.qi_range,
                            config.income_range,
                            &FaultPlan::none(),
                            &mut Degradation::muted(),
                        )?;
                        Ok(((k, r), eval))
                    })
                    .collect()
            },
        )
        .collect::<Result<Vec<Vec<_>>>>()?
        .into_iter()
        .flatten()
        .collect();

    let cell_at = |k: usize, r: usize| -> &crate::fuse::CellEval {
        evaluated
            .iter()
            .find(|((ck, cr), _)| *ck == k && *cr == r)
            .map(|(_, e)| e)
            .expect("cell evaluated")
    };
    let mut rows = Vec::new();
    for &k in &ks {
        let baseline = cell_at(k, 1);
        for &r in &r_values {
            let eval = cell_at(k, r);
            rows.push(CompositionSweepRow {
                k,
                releases: r,
                mean_candidates: eval.mean_candidates,
                mean_feasible_width: eval.mean_feasible_width,
                mean_income_width: eval.mean_income_width,
                dissim_composed: eval.dissim,
                disclosure_gain: baseline.mean_income_width - eval.mean_income_width,
                estimate_gain: baseline.dissim - eval.dissim,
                aux_coverage: harvest.coverage(),
            });
        }
    }
    Ok(CompositionSweepReport { rows })
}

/// One `(policy, k, R)` cell of a defense sweep: the attack's residual
/// disclosure under the policy, side by side with the undefended gain
/// and the utility price of the coordination.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseSweepRow {
    /// Stable policy label ([`DefensePolicy::label`]).
    pub policy: String,
    /// Anonymization level.
    pub k: usize,
    /// Number of composed releases.
    pub releases: usize,
    /// Residual disclosure at this `R`, measured from the **undefended
    /// single release** as the common yardstick: how many dollars of the
    /// sensitive range a standard lone release leaves feasible the
    /// defended composition still eliminates. Negative means the
    /// defended composition reveals *less* than even one undefended
    /// release would (the policy over-delivers); at `R = 1` it is
    /// exactly `-utility_cost`. Comparable to `undefended_gain` by
    /// construction — both gains share the same baseline — so
    /// `residual_gain < undefended_gain` iff the defended adversary ends
    /// up with a wider feasible range than the undefended one.
    pub residual_gain: f64,
    /// The undefended sweep's disclosure gain at the same `(k, R)` — the
    /// number the policy is up against.
    pub undefended_gain: f64,
    /// Mean effective anonymity (`|∩ classes|`) under the defense.
    pub mean_candidates: f64,
    /// Utility price of the policy: the defended first release's mean
    /// implied sensitive-range width minus the undefended one's, in
    /// sensitive units. Positive when coordination widened what a single
    /// release reveals; `CalibratedWiden` pays it only at the `R` that
    /// forced the widening.
    pub utility_cost: f64,
    /// Mean feasible-interval width after composition (QI units).
    pub mean_feasible_width: f64,
}

/// The defense sweep output, ordered `(policy-as-given, k, releases)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseSweepReport {
    rows: Vec<DefenseSweepRow>,
}

impl DefenseSweepReport {
    /// All rows, in `(policy-as-given, k, releases)` order.
    pub fn rows(&self) -> &[DefenseSweepRow] {
        &self.rows
    }

    /// Rows of one policy, `(k, releases)` ascending.
    pub fn rows_for(&self, policy_label: &str) -> Vec<&DefenseSweepRow> {
        self.rows
            .iter()
            .filter(|r| r.policy == policy_label)
            .collect()
    }

    /// Renders the report as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut out = String::from(
            "  policy                  k    R    residual gain  undefended gain   mean |cand|  utility cost\n",
        );
        out.push_str(&"-".repeat(96));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<22} {:>3} {:>4}  {:>14.1}  {:>15.1}  {:>12.2}  {:>12.1}\n",
                r.policy,
                r.k,
                r.releases,
                r.residual_gain,
                r.undefended_gain,
                r.mean_candidates,
                r.utility_cost
            ));
        }
        out
    }
}

/// Sweeps every policy over `ks × releases` next to the undefended
/// attack: one undefended [`composition_sweep`] supplies the reference
/// gains, then each policy's scenario is generated *per release count*
/// (a coordination defense is calibrated against the releases actually
/// out there — [`DefensePolicy::CalibratedWiden`] at `R = 3` widens more
/// than at `R = 2`) and attacked with the same intersection engine,
/// fusion system and shared web harvest. Residual and undefended gains
/// are measured from the *same* baseline — the undefended single
/// release — so the two columns compare the adversary's final feasible
/// range directly; a widening policy cannot look good merely by
/// inflating its own baseline (its wide published boxes would inflate a
/// within-policy gain, not this one).
pub fn defense_sweep(
    table: &Table,
    web: &SearchEngine,
    anonymizer: &dyn Anonymizer,
    fusion: &dyn FusionSystem,
    config: &CompositionSweepConfig,
    policies: &[DefensePolicy],
) -> Result<DefenseSweepReport> {
    if policies.is_empty() {
        return Err(CompositionError::InvalidConfig(
            "defense sweep needs at least one policy".into(),
        ));
    }
    let undefended_config = CompositionSweepConfig {
        defense: None,
        ..config.clone()
    };
    validate_sweep_config(&undefended_config)?;
    // One context — core, harvest, truth — serves the undefended
    // reference and every defended cell: the core depends only on
    // (overlap, seed) and no policy touches its membership.
    let ctx = sweep_context(table, web, &undefended_config)?;
    let undefended =
        composition_sweep_with_context(table, anonymizer, fusion, &undefended_config, &ctx)?;
    // Undefended single-release width per k, recoverable from any of the
    // k's rows: gain is measured against the R = 1 cell, so
    // `mean_income_width + disclosure_gain` is that baseline width.
    let undefended_base = |k: usize| -> f64 {
        undefended
            .rows()
            .iter()
            .find(|r| r.k == k)
            .map(|r| r.mean_income_width + r.disclosure_gain)
            .expect("undefended sweep covers every swept k")
    };

    let scenario_for = |k: usize, releases: usize, policy: &DefensePolicy| ScenarioConfig {
        releases,
        overlap: config.overlap,
        extras: config.extras,
        k,
        seed: config.seed,
        styles: config.styles.clone(),
        defense: Some(policy.clone()),
    };
    let mut ks = config.ks.clone();
    ks.sort_unstable();
    ks.dedup();
    let mut r_values = config.releases.clone();
    r_values.sort_unstable();
    r_values.dedup();
    let r_max = *r_values.iter().max().expect("releases non-empty");

    let mut rows = Vec::new();
    for policy in policies {
        // CalibratedWiden is calibrated against its own release count,
        // so its cells generate per R; the other policies' source
        // constructions are R-invariant (shared core partition keyed to
        // the seed, capped extras keyed to (s, seed)), so one max-R
        // scenario per k serves every cell as a prefix — exactly like
        // the undefended sweep.
        let per_r_generation = matches!(policy, DefensePolicy::CalibratedWiden { .. });
        let evaluated: Vec<Vec<DefenseSweepRow>> = ks
            .clone()
            .into_par_iter()
            .map(|k| -> Result<Vec<DefenseSweepRow>> {
                let evaluate = |sources: &[crate::scenario::Source]| {
                    evaluate_sources(
                        table,
                        fusion,
                        &ctx.harvest,
                        &ctx.truth,
                        sources,
                        &ctx.targets,
                        config.chunk_rows,
                        config.qi_range,
                        config.income_range,
                        &FaultPlan::none(),
                        &mut Degradation::muted(),
                    )
                };
                let shared_scenario = if per_r_generation {
                    None
                } else {
                    let scenario = crate::scenario::generate_scenario(
                        table,
                        anonymizer,
                        &scenario_for(k, r_max, policy),
                    )?;
                    debug_assert_eq!(scenario.targets, ctx.targets);
                    Some(scenario)
                };
                let shared_base = match &shared_scenario {
                    Some(scenario) => Some(evaluate(&scenario.sources[..1])?),
                    None => None,
                };
                r_values
                    .iter()
                    .map(|&r| -> Result<DefenseSweepRow> {
                        let cell_scenario;
                        let cell_base;
                        let (sources, base) = match (&shared_scenario, &shared_base) {
                            (Some(scenario), Some(base)) => (&scenario.sources[..r], base),
                            _ => {
                                cell_scenario = crate::scenario::generate_scenario(
                                    table,
                                    anonymizer,
                                    &scenario_for(k, r, policy),
                                )?;
                                debug_assert_eq!(cell_scenario.targets, ctx.targets);
                                cell_base = evaluate(&cell_scenario.sources[..1])?;
                                (&cell_scenario.sources[..], &cell_base)
                            }
                        };
                        let composed = if r == 1 {
                            None
                        } else {
                            Some(evaluate(sources)?)
                        };
                        let composed = composed.as_ref().unwrap_or(base);
                        let undefended_row = undefended
                            .row_for(k, r)
                            .expect("undefended sweep covers every (k, R) cell");
                        Ok(DefenseSweepRow {
                            policy: policy.label(),
                            k,
                            releases: r,
                            residual_gain: undefended_base(k) - composed.mean_income_width,
                            undefended_gain: undefended_row.disclosure_gain,
                            mean_candidates: composed.mean_candidates,
                            utility_cost: base.mean_income_width - undefended_base(k),
                            mean_feasible_width: composed.mean_feasible_width,
                        })
                    })
                    .collect()
            })
            .collect::<Result<Vec<_>>>()?;
        rows.extend(evaluated.into_iter().flatten());
    }
    Ok(DefenseSweepReport { rows })
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
            seed: 44,
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
    fn sweep_produces_a_row_per_cell() {
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let report = composition_sweep(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionSweepConfig {
                ks: vec![4, 2],
                releases: vec![2, 1],
                ..CompositionSweepConfig::default()
            },
        )
        .unwrap();
        let cells: Vec<(usize, usize)> = report.rows().iter().map(|r| (r.k, r.releases)).collect();
        assert_eq!(cells, vec![(2, 1), (2, 2), (4, 1), (4, 2)]);
        for row in report.rows() {
            if row.releases == 1 {
                assert_eq!(row.disclosure_gain, 0.0);
            }
            assert!(row.mean_candidates >= 1.0);
        }
        assert!(report.row_for(2, 2).is_some());
        assert!(report.row_for(9, 1).is_none());
    }

    #[test]
    fn baseline_is_computed_even_when_not_listed() {
        let (table, web) = world(50);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let report = composition_sweep(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionSweepConfig {
                ks: vec![3],
                releases: vec![2, 3],
                ..CompositionSweepConfig::default()
            },
        )
        .unwrap();
        // Only the listed cells appear, but gains are measured vs R = 1.
        let cells: Vec<(usize, usize)> = report.rows().iter().map(|r| (r.k, r.releases)).collect();
        assert_eq!(cells, vec![(3, 2), (3, 3)]);
    }

    #[test]
    fn renders_ascii_and_csv() {
        let (table, web) = world(40);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let report = composition_sweep(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionSweepConfig {
                ks: vec![3],
                releases: vec![1, 2],
                ..CompositionSweepConfig::default()
            },
        )
        .unwrap();
        assert!(report.to_ascii().contains("disclosure gain"));
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("k,releases,"));
    }

    #[test]
    fn defense_sweep_reports_per_policy_rows() {
        let (table, web) = world(80);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let k = 4;
        let config = CompositionSweepConfig {
            ks: vec![k],
            releases: vec![1, 2, 3],
            ..CompositionSweepConfig::default()
        };
        let policies = DefensePolicy::default_set(k);
        let report =
            defense_sweep(&table, &web, &Mdav::new(), &fusion, &config, &policies).unwrap();
        assert_eq!(report.rows().len(), 3 * 3);
        for policy in &policies {
            let rows = report.rows_for(&policy.label());
            assert_eq!(rows.len(), 3);
            assert_eq!(
                rows.iter().map(|r| r.releases).collect::<Vec<_>>(),
                vec![1, 2, 3]
            );
            // R = 1: composition adds nothing, so the residual is
            // exactly the (negated) utility price of the wider publish.
            assert_eq!(rows[0].residual_gain, -rows[0].utility_cost);
            assert_eq!(rows[0].undefended_gain, 0.0);
            for row in &rows {
                assert!(row.residual_gain.is_finite() && row.utility_cost.is_finite());
                assert!(row.mean_candidates >= 1.0);
            }
        }
        // Widening only relaxes the undefended partitions, so the
        // calibrated adversary can never end up knowing more than the
        // undefended one: residual stays at or below the undefended
        // gain at every R (for the other policies this is the bench
        // world's gate, not a structural theorem).
        for row in report.rows_for(&format!("calibrated_widen_k{k}")) {
            assert!(row.residual_gain <= row.undefended_gain + 1e-9, "{row:?}");
        }
        // Coordinated seeds compose zero extra disclosure: the residual
        // is flat in R (every release repeats the same core classes).
        let coordinated = report.rows_for("coordinated_seeds");
        for row in &coordinated {
            assert_eq!(row.residual_gain, coordinated[0].residual_gain, "{row:?}");
            assert!(row.mean_candidates >= k as f64);
        }
        // Calibrated widening holds the candidate floor at every R.
        for row in report.rows_for(&format!("calibrated_widen_k{k}")) {
            assert!(row.mean_candidates >= k as f64, "{row:?}");
        }
        // The undefended reference is the attack sweep's own number.
        let undefended = composition_sweep(&table, &web, &Mdav::new(), &fusion, &config).unwrap();
        for row in report.rows() {
            assert_eq!(
                row.undefended_gain,
                undefended
                    .row_for(row.k, row.releases)
                    .unwrap()
                    .disclosure_gain
            );
        }
        let ascii = report.to_ascii();
        assert!(ascii.contains("residual gain"));
        assert!(ascii.contains("coordinated_seeds"));
    }

    #[test]
    fn defended_sweep_threads_the_policy_through_the_config() {
        let (table, web) = world(60);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        let report = composition_sweep(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionSweepConfig {
                ks: vec![3],
                releases: vec![1, 2, 3],
                defense: Some(DefensePolicy::CoordinatedSeeds),
                ..CompositionSweepConfig::default()
            },
        )
        .unwrap();
        // Under coordinated seeds the composed world never narrows below
        // its own single release: gain pins to zero at every R.
        for row in report.rows() {
            assert_eq!(row.disclosure_gain, 0.0, "{row:?}");
            assert!(row.mean_candidates >= 3.0);
        }
    }

    #[test]
    fn defense_sweep_rejects_empty_policies() {
        let (table, web) = world(30);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        assert!(defense_sweep(
            &table,
            &web,
            &Mdav::new(),
            &fusion,
            &CompositionSweepConfig::default(),
            &[],
        )
        .is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let (table, web) = world(30);
        let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
        for config in [
            CompositionSweepConfig {
                ks: vec![],
                ..CompositionSweepConfig::default()
            },
            CompositionSweepConfig {
                releases: vec![],
                ..CompositionSweepConfig::default()
            },
            CompositionSweepConfig {
                releases: vec![0, 2],
                ..CompositionSweepConfig::default()
            },
        ] {
            assert!(composition_sweep(&table, &web, &Mdav::new(), &fusion, &config).is_err());
        }
    }
}
