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
//!
//! Both sweeps build the attack's one context (core, harvest, truth)
//! once and read their rows off one cell grid. A grid cell is the
//! attack's cell: a scenario's single-release world and its `R`-release
//! composition, both prefixes of the scenario's indexes, each release
//! indexed once. [`composition_sweep`] measures each cell against the
//! `R = 1` cell; [`defense_sweep`] measures each policy's cells against
//! the undefended grid's.

use fred_anon::{Anonymizer, QiStyle};
use fred_attack::{FusionSystem, HarvestConfig};
use fred_data::Table;
use fred_faults::{strict, Degradation, FaultPlan};
use fred_web::SearchEngine;
use rayon::prelude::*;

use crate::defense::DefensePolicy;
use crate::error::{CompositionError, Result};
use crate::fuse::{AttackContext, Cell, CompositionConfig};
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

impl CompositionSweepConfig {
    /// The scenario of the `(k, releases)` cell under `defense`.
    fn scenario(
        &self,
        k: usize,
        releases: usize,
        defense: Option<DefensePolicy>,
    ) -> ScenarioConfig {
        ScenarioConfig {
            releases,
            overlap: self.overlap,
            extras: self.extras,
            k,
            seed: self.seed,
            styles: self.styles.clone(),
            defense,
        }
    }

    /// Validates the grid and returns its `ks` and `releases`, each
    /// ascending and deduplicated.
    fn grid_axes(&self) -> Result<(Vec<usize>, Vec<usize>)> {
        if self.ks.is_empty() || self.releases.is_empty() {
            return Err(CompositionError::InvalidConfig(
                "ks and releases must be non-empty".into(),
            ));
        }
        if self.releases.contains(&0) {
            return Err(CompositionError::InvalidConfig(
                "releases must be >= 1".into(),
            ));
        }
        let sorted = |v: &[usize]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        Ok((sorted(&self.ks), sorted(&self.releases)))
    }

    /// The one context of a sweep: the core is k- and R-invariant, so it
    /// is probed at the smallest swept `k` and harvested once, strictly.
    fn context<'a>(
        &self,
        table: &'a Table,
        web: &SearchEngine,
        fusion: &'a dyn FusionSystem,
        ks: &[usize],
    ) -> Result<AttackContext<'a>> {
        let config = CompositionConfig {
            scenario: self.scenario(ks[0], 1, None),
            harvest: self.harvest.clone(),
            chunk_rows: self.chunk_rows,
            qi_range: self.qi_range,
            income_range: self.income_range,
        };
        AttackContext::new(table, web, fusion, &config, &FaultPlan::none()).map(strict)
    }
}

/// Evaluates the `(k, R)` cells for every `k` in `ks` and every `R` in
/// `releases` (both ascending), in that order, under `defense`, all
/// against the context's one harvest. Each `k` fans out in parallel;
/// cells are pure given the context. Source construction is
/// `R`-invariant for every policy but [`DefensePolicy::CalibratedWiden`],
/// which is calibrated against its own release count (at `R = 3` it
/// widens more than at `R = 2`): it generates one scenario per cell, and
/// every other policy one max-`R` scenario per `k`, its cells prefixes of
/// that scenario's indexes.
fn evaluate_grid(
    ctx: &AttackContext,
    anonymizer: &dyn Anonymizer,
    config: &CompositionSweepConfig,
    defense: Option<&DefensePolicy>,
    ks: &[usize],
    releases: &[usize],
) -> Result<Vec<Cell>> {
    let per_r = matches!(defense, Some(DefensePolicy::CalibratedWiden { .. }));
    let r_max = *releases.last().expect("releases non-empty");
    let cells = ks
        .to_vec()
        .into_par_iter()
        .map(|k| -> Result<Vec<Cell>> {
            let cells = |r: usize, rs: &[usize]| {
                let scenario = config.scenario(k, r, defense.cloned());
                let (plan, mut deg) = (FaultPlan::none(), Degradation::muted());
                ctx.cells(anonymizer, &scenario, rs, &plan, &mut deg)
            };
            if !per_r {
                return cells(r_max, releases);
            }
            let mut out = Vec::with_capacity(releases.len());
            for &r in releases {
                out.extend(cells(r, &[r])?);
            }
            Ok(out)
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(cells.into_iter().flatten().collect())
}

/// `releases` with the `R = 1` baseline every gain is measured from,
/// whether or not it is listed.
fn with_baseline(releases: &[usize]) -> Vec<usize> {
    let mut with_one = releases.to_vec();
    if with_one[0] != 1 {
        with_one.insert(0, 1);
    }
    with_one
}

/// The cell of `(k, releases)` in an evaluated grid.
fn cell_at(cells: &[Cell], k: usize, releases: usize) -> &Cell {
    cells
        .iter()
        .find(|c| c.k == k && c.releases == releases)
        .expect("the grid covers every swept cell")
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
    let (ks, releases) = config.grid_axes()?;
    let ctx = config.context(table, web, fusion, &ks)?;
    let defense = config.defense.as_ref();
    let cells = evaluate_grid(
        &ctx,
        anonymizer,
        config,
        defense,
        &ks,
        &with_baseline(&releases),
    )?;
    let rows = cells
        .iter()
        .filter(|c| releases.contains(&c.releases))
        .map(|c| {
            let (baseline, eval) = (&cell_at(&cells, c.k, 1).composed, &c.composed);
            CompositionSweepRow {
                k: c.k,
                releases: c.releases,
                mean_candidates: eval.mean_candidates,
                mean_feasible_width: eval.mean_feasible_width,
                mean_income_width: eval.mean_income_width,
                dissim_composed: eval.dissim,
                disclosure_gain: baseline.mean_income_width - eval.mean_income_width,
                estimate_gain: baseline.dissim - eval.dissim,
                aux_coverage: ctx.harvest.coverage(),
            }
        })
        .collect();
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
/// attack: one undefended grid (the cells [`composition_sweep`] reads)
/// supplies the reference gains, then each policy's grid is attacked
/// with the same intersection engine, fusion system and shared web
/// harvest. [`DefensePolicy::CalibratedWiden`] is calibrated against the
/// releases actually out there (at `R = 3` it widens more than at
/// `R = 2`), so its scenarios are generated per release count; the other
/// policies' cells are prefixes of one scenario. Residual and
/// undefended gains are measured from the *same* baseline — the
/// undefended single release, read off the undefended `R = 1` cell — so
/// the two columns compare the adversary's final feasible range
/// directly; a widening policy cannot look good merely by inflating its
/// own baseline (its wide published boxes would inflate a within-policy
/// gain, not this one).
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
    let (ks, releases) = config.grid_axes()?;
    // One context — core, harvest, truth — serves the undefended
    // reference and every defended cell.
    let ctx = config.context(table, web, fusion, &ks)?;
    let undefended = evaluate_grid(
        &ctx,
        anonymizer,
        config,
        None,
        &ks,
        &with_baseline(&releases),
    )?;
    let mut rows = Vec::new();
    for policy in policies {
        for cell in evaluate_grid(&ctx, anonymizer, config, Some(policy), &ks, &releases)? {
            // The undefended single release: the yardstick of both gains.
            let base = cell_at(&undefended, cell.k, 1).composed.mean_income_width;
            let attacked = &cell_at(&undefended, cell.k, cell.releases).composed;
            rows.push(DefenseSweepRow {
                policy: policy.label(),
                k: cell.k,
                releases: cell.releases,
                residual_gain: base - cell.composed.mean_income_width,
                undefended_gain: base - attacked.mean_income_width,
                mean_candidates: cell.composed.mean_candidates,
                utility_cost: cell.base.mean_income_width - base,
                mean_feasible_width: cell.composed.mean_feasible_width,
            });
        }
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
