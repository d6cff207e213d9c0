//! `fred_paper_120`: the paper's Figures 4-8 at department scale, as a
//! closed loop with one client.
//!
//! Set-up builds the 120-row world and derives the Tp/Tu thresholds from
//! one sweep, as `fred_bench::figures::figure8` does. Each request is one
//! `fred_core::sweep` (k = 2..16) plus one `fred_core::fred_anonymize`
//! over the same window.

use fred_anon::{build_release, utility, Anonymizer, Mdav, QiStyle};
use fred_attack::{
    harvest_auxiliary, harvest_precision, FusionSystem, FuzzyFusion, FuzzyFusionConfig,
    HarvestConfig, MidpointEstimator,
};
use fred_core::{
    fred_anonymize, sweep, FredParams, FredWeights, SweepConfig, SweepReport, Thresholds,
};

use crate::report::{check, measure, median_values, repeated_setup, JobReport, Outcome, Values};
use crate::util::{time_ms, Digest};
use crate::world::{self, World};
use crate::Opts;

const ROWS: usize = 120;
const K_MIN: usize = 2;
const K_MAX: usize = 16;
/// The paper's feasible window; thresholds are read at its ends.
const WINDOW: (usize, usize) = (7, 14);
/// Seed of the canonical world, on which k_opt must fall inside the window.
const CANONICAL_SEED: u64 = 2015;
/// Set-ups per run (each takes milliseconds, so many are cheap).
const SETUP_REPEATS: usize = 15;
/// Layer-by-layer replays of one FRED request in the traced run.
const DECOMPOSE_REPEATS: usize = 25;

fn figure_sweep(world: &World) -> SweepReport {
    sweep(
        &world.table,
        &world.web,
        &Mdav::new(),
        &MidpointEstimator::default(),
        &FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config is valid"),
        &SweepConfig {
            k_min: K_MIN,
            k_max: K_MAX,
            style: QiStyle::Range,
            harvest: HarvestConfig::default(),
            chunk_rows: None,
        },
    )
    .expect("a sweep over a generated world succeeds")
}

fn params(thresholds: Thresholds) -> FredParams {
    FredParams {
        thresholds,
        weights: FredWeights::default(),
        k_min: K_MIN,
        k_max: K_MAX,
        style: QiStyle::Range,
        harvest: HarvestConfig::default(),
    }
}

/// One request. Returns the job and whether its outputs checked out.
fn request(world: &World, thresholds: Thresholds) -> (JobReport, bool) {
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config is valid");
    let (report, sweep_ms) = time_ms(|| figure_sweep(world));
    let (result, fred_ms) = time_ms(|| {
        fred_anonymize(
            &world.table,
            &world.web,
            &Mdav::new(),
            &fusion,
            &params(thresholds),
        )
        .expect("the derived window is feasible")
    });
    let finite = report.rows().iter().all(|r| {
        [r.dissim_before, r.dissim_after, r.gain, r.utility]
            .iter()
            .all(|x| x.is_finite())
    }) && result.h_opt.is_finite();
    let ok = check(finite, || "a sweep value or H is not finite".into());
    let mut digest = Digest::new();
    digest.add(&report);
    digest.add(&(result.k_opt, result.h_opt, &result.candidates));
    let layers = Values::from([("core.sweep_ms", sweep_ms), ("core.fred_ms", fred_ms)]);
    (
        JobReport {
            digest: digest.hex(),
            total_ms: sweep_ms + fred_ms,
            layers,
        },
        ok,
    )
}

/// Replays one FRED request layer by layer through the same public calls
/// `fred_anonymize` makes: MDAV, release and harvest at k_min, then MDAV,
/// release and fuzzy estimate per k until utility drops below Tu.
fn fred_layers(world: &World, thresholds: Thresholds) -> Values {
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config is valid");
    let mdav = Mdav::new();
    let (mut mdav_ms, mut release_ms, mut fusion_ms, mut classes) = (0.0, 0.0, 0.0, 0usize);
    let mut release_at = |k: usize, mdav_ms: &mut f64, release_ms: &mut f64| {
        let (partition, ms) = time_ms(|| mdav.partition(&world.table, k).expect("partitions"));
        *mdav_ms += ms;
        let (release, ms) = time_ms(|| {
            build_release(&world.table, &partition, k, QiStyle::Range).expect("releases")
        });
        *release_ms += ms;
        classes += partition.len();
        (partition, release.table)
    };
    let (_, first) = release_at(K_MIN, &mut mdav_ms, &mut release_ms);
    let (harvest, harvest_ms) = time_ms(|| {
        harvest_auxiliary(&first, &world.web, &HarvestConfig::default()).expect("harvests")
    });
    for k in K_MIN..=K_MAX.min(world.table.len()) {
        let (partition, release) = release_at(k, &mut mdav_ms, &mut release_ms);
        let (_, ms) = time_ms(|| {
            fusion
                .estimate(&release, &harvest.records)
                .expect("estimates")
        });
        fusion_ms += ms;
        if utility(&partition, k).expect("utility is defined") < thresholds.tu {
            break;
        }
    }
    Values::from([
        ("anon.mdav_ms", mdav_ms),
        ("anon.release_ms", release_ms),
        ("anon.classes", classes as f64),
        ("attack.harvest_ms", harvest_ms),
        ("attack.pages_inspected", harvest.pages_inspected as f64),
        ("attack.pages_linked", harvest.pages_linked as f64),
        ("attack.fusion_ms", fusion_ms),
        ("aux_coverage", harvest.coverage()),
        (
            "link_precision",
            harvest_precision(&harvest, &world.web, &world.person_ids)
                .expect("harvest rows align with the population"),
        ),
    ])
}

/// Set-up: the world plus the thresholds derived from one sweep.
fn build_setup(n: usize, seed: u64) -> ((World, Thresholds), Values) {
    let (world, times) = world::build(n, seed);
    let report = figure_sweep(&world);
    let row = |k: usize| report.row_for(k).expect("the window lies inside the sweep");
    let thresholds = Thresholds::new(row(WINDOW.0).dissim_after, row(WINDOW.1).utility);
    ((world, thresholds), times)
}

/// The paper's headline check, run on the canonical world whatever the
/// seed: FRED's k_opt lies inside the window the thresholds carve.
fn canonical_k_opt_in_window() -> bool {
    let ((world, thresholds), _) = build_setup(ROWS, CANONICAL_SEED);
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config is valid");
    let result = fred_anonymize(
        &world.table,
        &world.web,
        &Mdav::new(),
        &fusion,
        &params(thresholds),
    )
    .expect("the derived window is feasible");
    check((WINDOW.0..=WINDOW.1).contains(&result.k_opt), || {
        format!(
            "k_opt {} outside {WINDOW:?} on the canonical world",
            result.k_opt
        )
    })
}

pub fn run(opts: &Opts) -> Outcome {
    let n = opts.rows.unwrap_or(ROWS);
    let ((world, thresholds), setup) = repeated_setup(SETUP_REPEATS, || build_setup(n, opts.seed));
    let key = format!("fred_paper_120-{n}-{}", opts.seed);
    let job = || request(&world, thresholds);
    let mut outcome = measure(opts.seconds, opts.trace, &key, &setup, job);
    outcome.failed += u64::from(!canonical_k_opt_in_window());
    if opts.trace {
        let replays: Vec<Values> = (0..DECOMPOSE_REPEATS)
            .map(|_| fred_layers(&world, thresholds))
            .collect();
        outcome.metrics.extend(median_values(&replays));
    }
    outcome
}
