//! `faults_20k`: the harvest and the composition attack through their
//! fault-tolerant paths, on a corpus damaged by a 5% uniform fault plan.

use fred_anon::Mdav;
use fred_attack::{
    harvest_auxiliary_tolerant, harvest_precision, FuzzyFusion, FuzzyFusionConfig, HarvestConfig,
};
use fred_composition::{compose_attack_tolerant, CompositionConfig, ScenarioConfig};
use fred_faults::FaultPlan;
use fred_web::{corrupt_pages, SearchEngine};

use crate::attack::search_pass;
use crate::report::{check, measure, repeated_setup, JobReport, Outcome, Values};
use crate::util::{time_ms, Digest};
use crate::world::{self, World};
use crate::Opts;

const ROWS: usize = 20_000;
const FAULT_RATE: f64 = 0.05;
const RELEASES: usize = 3;
const K: usize = 5;
const SETUP_REPEATS: usize = 7;

/// The world plus its damaged corpus, re-indexed.
struct Damaged {
    world: World,
    engine: SearchEngine,
    plan: FaultPlan,
}

/// One tolerant attack. Returns the job and whether its outputs checked out.
fn attack(d: &Damaged, seed: u64) -> (JobReport, bool) {
    let release = d.world.table.suppress_sensitive();
    let (harvested, harvest_ms) = time_ms(|| {
        rayon::silence_panics(|| {
            harvest_auxiliary_tolerant(&release, &d.engine, &HarvestConfig::default(), &d.plan)
        })
        .expect("the tolerant harvest contains injected faults")
    });
    let (harvest, harvest_deg) = harvested;
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config is valid");
    let config = CompositionConfig {
        scenario: ScenarioConfig {
            releases: RELEASES,
            k: K.min(release.len()),
            seed,
            ..ScenarioConfig::default()
        },
        ..CompositionConfig::default()
    };
    let (composed, compose_ms) = time_ms(|| {
        rayon::silence_panics(|| {
            compose_attack_tolerant(
                &d.world.table,
                &d.engine,
                &Mdav::new(),
                &fusion,
                &config,
                &d.plan,
            )
        })
        .expect("the tolerant composition contains injected faults")
    });
    let (outcome, compose_deg) = composed;

    let non_finite = outcome
        .records
        .iter()
        .filter(|r| !r.estimate.is_finite())
        .count();
    let lost = harvest_deg.rows_skipped
        + harvest_deg.workers_restarted
        + compose_deg.rows_skipped
        + compose_deg.workers_restarted;
    let attempted = release.len() + outcome.records.len();
    let ok = check(
        outcome.disclosure_gain.is_finite() && outcome.dissim_composed.is_finite(),
        || "the tolerant composition produced a non-finite aggregate".into(),
    );
    let precision = harvest_precision(&harvest, &d.engine, &d.world.person_ids)
        .expect("harvest rows align with the population");
    let mut digest = Digest::new();
    digest.add(&harvest);
    digest.add(&outcome);
    digest.add(&(&harvest_deg, &compose_deg));
    let layers = Values::from([
        ("attack.harvest_ms", harvest_ms),
        ("attack.pages_inspected", harvest.pages_inspected as f64),
        ("attack.pages_linked", harvest.pages_linked as f64),
        ("composition.mean_candidates", outcome.mean_candidates),
        (
            "failed_share",
            (lost + non_finite) as f64 / attempted as f64,
        ),
        ("aux_coverage", harvest.coverage()),
        ("link_precision", precision),
    ]);
    (
        JobReport {
            digest: digest.hex(),
            total_ms: harvest_ms + compose_ms,
            layers,
        },
        ok,
    )
}

pub fn run(opts: &Opts) -> Outcome {
    let n = opts.rows.unwrap_or(ROWS);
    let (damaged, setup) = repeated_setup(SETUP_REPEATS, || {
        let (world, mut times) = world::build(n, opts.seed);
        let plan = FaultPlan::uniform(opts.seed ^ 0xFA17, FAULT_RATE);
        let (engine, inject_ms) = time_ms(|| {
            let (pages, _) = corrupt_pages(world.web.pages().to_vec(), &plan);
            SearchEngine::build(pages)
        });
        times.insert("faults.inject_ms", inject_ms);
        (
            Damaged {
                world,
                engine,
                plan,
            },
            times,
        )
    });
    let key = format!("faults_20k-{n}-{}", opts.seed);
    let job = || attack(&damaged, opts.seed);
    let mut outcome = measure(opts.seconds, opts.trace, &key, &setup, job);
    if opts.trace {
        let names = damaged.world.table.suppress_sensitive();
        outcome.metrics.extend(search_pass(&names, &damaged.engine));
    }
    outcome
}
