//! `attack_100k`: the full fusion attack at 100k rows as one batch job.
//!
//! world → hierarchical MDAV (k = 5) → release → harvest of every name →
//! single-release fuzzy estimate → 3-source scenario → intersection of
//! every core target and every decoy row → fused table + estimate →
//! hypothesis-test evaluation.

use fred_anon::{build_release, Anonymizer, HierarchicalMdav, QiStyle};
use fred_attack::{
    harvest_auxiliary, harvest_auxiliary_reference_sampled, harvest_precision,
    reference_sample_rows, FusionSystem, FuzzyFusion, FuzzyFusionConfig, Harvest, HarvestConfig,
};
use fred_composition::{
    fused_table, generate_scenario, intersect_releases, intersect_releases_sequential,
    ScenarioConfig, TargetIntersection,
};
use fred_data::ShardPlan;
use fred_eval::{epsilon_ceiling, evaluate_intersections};

use crate::report::{check, measure, repeated_setup, JobReport, Outcome, Values};
use crate::util::{loglog_slope, time_ms, Digest};
use crate::world::{self, World};
use crate::Opts;

const ROWS: usize = 100_000;
const K: usize = 5;
const RELEASES: usize = 3;
/// Release chunk size the intersection streams with.
pub const CHUNK_ROWS: usize = 1024;
/// Rows of the sampled exhaustive references the outputs are checked on.
const HARVEST_SAMPLE: usize = 96;
const INTERSECT_SAMPLE: usize = 256;
/// World builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fractions of the full size the traced run's ladder adds.
const LADDER: [usize; 2] = [4, 2];

/// Everything one attack job produced, kept for the output checks.
struct Attack {
    release: fred_data::Table,
    harvest: Harvest,
    sources: Vec<fred_composition::Source>,
    rows: Vec<usize>,
    inters: Vec<TargetIntersection>,
    report: JobReport,
    finite: bool,
}

/// Splits intersections into the core targets and the decoys eligible as
/// negatives: a decoy present in every release is a member of the fused
/// population, so its label is noise (the repository's eval convention).
pub fn eval_populations(
    inters: &[TargetIntersection],
    targets: usize,
    releases: usize,
) -> (&[TargetIntersection], Vec<TargetIntersection>) {
    let (t, d) = inters.split_at(targets);
    let eligible = d
        .iter()
        .filter(|x| x.sources_seen < releases)
        .cloned()
        .collect();
    (t, eligible)
}

/// Mean candidate-set size over intersections.
pub fn mean_candidates(inters: &[TargetIntersection]) -> f64 {
    inters.iter().map(|i| i.candidates() as f64).sum::<f64>() / inters.len().max(1) as f64
}

fn attack(world: &World, seed: u64) -> Attack {
    let n = world.table.len();
    let k = K.min(n);
    let mut layers = Values::new();
    let mut digest = Digest::new();
    let mut finite = true;
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config is valid");
    let hier = HierarchicalMdav::new(ShardPlan::for_size(n, seed));

    let (partition, mdav_ms) = time_ms(|| {
        hier.partition(&world.table, k)
            .expect("a generated world partitions")
    });
    let (release, release_ms) = time_ms(|| {
        build_release(&world.table, &partition, k, QiStyle::Range)
            .expect("a valid partition releases")
            .table
    });
    let (harvest, harvest_ms) = time_ms(|| {
        harvest_auxiliary(&release, &world.web, &HarvestConfig::default())
            .expect("a release with identifiers harvests")
    });
    let (single, fusion_ms) = time_ms(|| {
        fusion
            .estimate(&release, &harvest.records)
            .expect("a release with its harvest estimates")
    });
    let (scenario, scenario_ms) = time_ms(|| {
        generate_scenario(
            &world.table,
            &hier,
            &ScenarioConfig {
                releases: RELEASES,
                k,
                seed,
                ..ScenarioConfig::default()
            },
        )
        .expect("a generated world holds a k-anonymizable core")
    });
    let in_core = {
        let mut mask = vec![false; n];
        for &t in &scenario.targets {
            mask[t] = true;
        }
        mask
    };
    let rows: Vec<usize> = scenario
        .targets
        .iter()
        .copied()
        .chain((0..n).filter(|&r| !in_core[r]))
        .collect();
    let (inters, intersect_ms) = time_ms(|| {
        intersect_releases(&scenario.sources, &rows, n, CHUNK_ROWS)
            .expect("intersection over a generated scenario succeeds")
    });
    let targets = scenario.targets.len();
    let (composed, fuse_ms) = time_ms(|| {
        let fused = fused_table(&world.table, &inters[..targets]).expect("fused table builds");
        let aux: Vec<_> = scenario
            .targets
            .iter()
            .map(|&t| harvest.records[t].clone())
            .collect();
        fusion
            .estimate(&fused, &aux)
            .expect("fused table estimates")
    });
    let (eval, score_ms) = time_ms(|| {
        let (t, d) = eval_populations(&inters, targets, RELEASES);
        evaluate_intersections(t, &d, n).expect("populations are non-empty with finite scores")
    });
    let total_ms = mdav_ms
        + release_ms
        + harvest_ms
        + fusion_ms
        + scenario_ms
        + intersect_ms
        + fuse_ms
        + score_ms;

    let estimates = single.len() + composed.len();
    let non_finite = single
        .iter()
        .chain(&composed)
        .filter(|x| !x.is_finite())
        .count();
    finite &= non_finite == 0;
    finite &= eval.auc.is_finite() && eval.epsilon.is_finite() && eval.tpr_at_low_fpr.is_finite();
    let saturated = eval.epsilon == epsilon_ceiling(eval.targets, eval.decoys);

    digest.add(&partition.class_of_rows());
    digest.add(&harvest);
    digest.add(&single);
    digest.add(&inters);
    digest.add(&composed);
    digest.add(&(eval.auc, eval.tpr_at_low_fpr, eval.epsilon));

    for (name, v) in [
        ("anon.mdav_ms", mdav_ms),
        ("anon.release_ms", release_ms),
        ("anon.classes", partition.len() as f64),
        ("attack.harvest_ms", harvest_ms),
        ("attack.pages_inspected", harvest.pages_inspected as f64),
        ("attack.pages_linked", harvest.pages_linked as f64),
        ("attack.fusion_ms", fusion_ms),
        ("composition.scenario_ms", scenario_ms),
        ("composition.intersect_ms", intersect_ms),
        (
            "composition.mean_candidates",
            mean_candidates(&inters[..targets]),
        ),
        ("composition.fuse_ms", fuse_ms),
        ("eval.score_ms", score_ms),
        ("eval.cells", 1.0),
        ("eval.saturated_cells", f64::from(u8::from(saturated))),
        ("failed_share", non_finite as f64 / estimates.max(1) as f64),
        ("aux_coverage", harvest.coverage()),
        (
            "link_precision",
            harvest_precision(&harvest, &world.web, &world.person_ids)
                .expect("harvest rows align with the population"),
        ),
    ] {
        layers.insert(name, v);
    }
    Attack {
        release,
        harvest,
        sources: scenario.sources,
        rows,
        inters,
        report: JobReport {
            digest: digest.hex(),
            total_ms,
            layers,
        },
        finite,
    }
}

/// The output checks of one attack: the harvest against the exhaustive
/// reference and the intersection against the sequential engine, both on
/// a seeded row sample, plus finiteness. Returns whether all passed.
fn check_attack(world: &World, a: &Attack, seed: u64) -> bool {
    let (rows, reference) = harvest_auxiliary_reference_sampled(
        &a.release,
        &world.web,
        &HarvestConfig::default(),
        HARVEST_SAMPLE,
        seed ^ 0x4A2F,
    )
    .expect("the sampled reference harvests");
    let harvest_ok = rows.iter().enumerate().all(|(i, &row)| {
        reference.records[i] == a.harvest.records[row]
            && reference.linked[i] == a.harvest.linked[row]
    });
    let ok = check(harvest_ok, || {
        "harvest differs from the sampled exhaustive reference".into()
    });
    let ok = check_intersections(&a.sources, &a.rows, &a.inters, world.table.len(), seed) && ok;
    check(a.finite, || {
        "an estimate, AUC or epsilon is not finite".into()
    }) && ok
}

/// Checks `inters` (aligned with `rows`) against the sequential reference
/// engine on a seeded sample of rows.
pub fn check_intersections(
    sources: &[fred_composition::Source],
    rows: &[usize],
    inters: &[TargetIntersection],
    n: usize,
    seed: u64,
) -> bool {
    let picks = reference_sample_rows(rows.len(), INTERSECT_SAMPLE, seed ^ 0x7A46);
    let sample: Vec<usize> = picks.iter().map(|&i| rows[i]).collect();
    let reference = intersect_releases_sequential(sources, &sample, n, CHUNK_ROWS)
        .expect("the sequential engine intersects");
    let ok = picks.iter().zip(&reference).all(|(&i, r)| &inters[i] == r);
    check(ok, || {
        "intersection differs from the sequential engine".into()
    })
}

/// Times the harvest's own searcher, single-threaded over every release
/// identifier of `table` with one scratch and one term cache:
/// `web.search_ms` and `web.hits`.
pub fn search_pass(table: &fred_data::Table, web: &fred_web::SearchEngine) -> Values {
    let names = table.identifier_strings();
    let limit = HarvestConfig::default().hits_per_name;
    let (hits, ms) = time_ms(|| {
        let mut scratch = web.scratch();
        let mut cache = web.term_cache();
        names
            .iter()
            .map(|name| {
                web.search_topk_with(name, limit, &mut scratch, &mut cache)
                    .len()
            })
            .sum::<usize>()
    });
    Values::from([("web.search_ms", ms), ("web.hits", hits as f64)])
}

pub fn run(opts: &Opts) -> Outcome {
    let n = opts.rows.unwrap_or(ROWS);
    let (world, setup) = repeated_setup(SETUP_REPEATS, || world::build(n, opts.seed));
    let key = format!("attack_100k-{n}-{}", opts.seed);
    let mut checked = false;
    let job = || {
        let a = attack(&world, opts.seed);
        let ok = checked || check_attack(&world, &a, opts.seed);
        checked = true;
        (a.report, ok)
    };
    let mut outcome = measure(opts.seconds, opts.trace, &key, &setup, job);
    if !opts.trace {
        return outcome;
    }

    // The traced run adds the searcher pass and the size ladder, whose
    // last rung is the traced jobs' own full-size layer times.
    outcome
        .metrics
        .extend(search_pass(&world.table, &world.web));
    drop(world);
    let mut ladder: Vec<(f64, Values)> = LADDER
        .iter()
        .map(|div| {
            let (w, _) = world::build(n / div, opts.seed);
            (w.table.len() as f64, attack(&w, opts.seed).report.layers)
        })
        .collect();
    ladder.push((n as f64, outcome.metrics.clone()));
    for (metric, layer) in [
        ("attack.harvest_slope", "attack.harvest_ms"),
        ("anon.mdav_slope", "anon.mdav_ms"),
        ("composition.intersect_slope", "composition.intersect_ms"),
    ] {
        let points: Vec<(f64, f64)> = ladder.iter().map(|(x, l)| (*x, l[layer])).collect();
        outcome.metrics.insert(metric, loglog_slope(&points));
    }
    outcome
}
