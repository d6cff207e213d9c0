//! `eval_grid_100k`: the hypothesis-test grid at 100k rows, no web stage.
//!
//! For k ∈ {2, 5} one 4-source Mondrian scenario; for R ∈ {2, 3, 4} every
//! row is intersected over the first R sources and the cell is scored.

use fred_anon::Mondrian;
use fred_composition::{generate_scenario, intersect_releases, ScenarioConfig};
use fred_eval::{epsilon_ceiling, evaluate_intersections};

use crate::attack::{check_intersections, eval_populations, mean_candidates, CHUNK_ROWS};
use crate::report::{check, measure, repeated_setup, JobReport, Outcome, Values};
use crate::util::{time_ms, Digest};
use crate::world::{self, World};
use crate::Opts;

const ROWS: usize = 100_000;
const KS: [usize; 2] = [2, 5];
const RELEASES: [usize; 3] = [2, 3, 4];
const SETUP_REPEATS: usize = 5;

/// One pass over the grid. With `check_outputs`, the widest cell of each
/// k is checked against the sequential engine; returns the job and
/// whether its checks passed.
fn grid(world: &World, seed: u64, check_outputs: bool) -> (JobReport, bool) {
    let n = world.table.len();
    let max_r = *RELEASES.last().expect("release list is non-empty");
    let mut digest = Digest::new();
    let mut ok = true;
    let (mut scenario_ms, mut intersect_ms, mut score_ms) = (0.0, 0.0, 0.0);
    let (mut cells, mut saturated, mut candidates) = (0.0, 0.0, Vec::new());
    for k in KS {
        let k = k.min(n);
        let (scenario, ms) = time_ms(|| {
            generate_scenario(
                &world.table,
                &Mondrian::new(),
                &ScenarioConfig {
                    releases: max_r,
                    k,
                    seed,
                    ..ScenarioConfig::default()
                },
            )
            .expect("a generated world holds a k-anonymizable core")
        });
        scenario_ms += ms;
        let mut in_core = vec![false; n];
        for &t in &scenario.targets {
            in_core[t] = true;
        }
        let targets = scenario.targets.len();
        let rows: Vec<usize> = scenario
            .targets
            .iter()
            .copied()
            .chain((0..n).filter(|&r| !in_core[r]))
            .collect();
        for r in RELEASES {
            let sources = &scenario.sources[..r];
            let (inters, ms) = time_ms(|| {
                intersect_releases(sources, &rows, n, CHUNK_ROWS)
                    .expect("intersection over a generated scenario succeeds")
            });
            intersect_ms += ms;
            let (eval, ms) = time_ms(|| {
                let (t, d) = eval_populations(&inters, targets, r);
                evaluate_intersections(t, &d, n)
                    .expect("populations are non-empty with finite scores")
            });
            score_ms += ms;
            cells += 1.0;
            if eval.epsilon == epsilon_ceiling(eval.targets, eval.decoys) {
                saturated += 1.0;
            }
            candidates.push(mean_candidates(&inters[..targets]));
            ok &= check(
                eval.auc.is_finite() && eval.epsilon.is_finite() && eval.tpr_at_low_fpr.is_finite(),
                || format!("cell k = {k}, R = {r} has a non-finite AUC or epsilon"),
            );
            digest.add(&inters);
            digest.add(&(eval.auc, eval.tpr_at_low_fpr, eval.epsilon));
            if check_outputs && r == max_r {
                ok &= check_intersections(sources, &rows, &inters, n, seed ^ k as u64);
            }
        }
    }
    let layers = Values::from([
        ("composition.scenario_ms", scenario_ms),
        ("composition.intersect_ms", intersect_ms),
        (
            "composition.mean_candidates",
            candidates.iter().sum::<f64>() / candidates.len() as f64,
        ),
        ("eval.score_ms", score_ms),
        ("eval.cells", cells),
        ("eval.saturated_cells", saturated),
    ]);
    (
        JobReport {
            digest: digest.hex(),
            total_ms: scenario_ms + intersect_ms + score_ms,
            layers,
        },
        ok,
    )
}

pub fn run(opts: &Opts) -> Outcome {
    let n = opts.rows.unwrap_or(ROWS);
    let (world, setup) = repeated_setup(SETUP_REPEATS, || world::build(n, opts.seed));
    let key = format!("eval_grid_100k-{n}-{}", opts.seed);
    let mut checked = false;
    let job = || {
        let out = grid(&world, opts.seed, !checked);
        checked = true;
        out
    };
    measure(opts.seconds, opts.trace, &key, &setup, job)
}
