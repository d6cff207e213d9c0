//! Integration tests spanning the whole workspace: world generation →
//! anonymization → attack → FRED defence, with the paper's qualitative
//! claims asserted end to end.

use fred_suite::anon::{
    anonymity_level, build_release, classes_from_release, closeness, distinct_diversity,
    entropy_diversity, is_k_anonymous, Anonymizer, Mdav, Mondrian, QiStyle,
};
use fred_suite::attack::{
    FusionSystem, FuzzyFusion, FuzzyFusionConfig, MidpointEstimator, WebFusionAttack,
};
use fred_suite::core::{dissimilarity, fred_anonymize, sweep, FredParams, SweepConfig, Thresholds};
use fred_suite::data::{rmse, Table};
use fred_suite::synth::{
    customer_table, faculty_table, generate_population, CustomerConfig, FacultyConfig,
    PopulationConfig,
};
use fred_suite::web::{build_corpus, CorpusConfig, NameNoise, SearchEngine};

fn world(size: usize, seed: u64) -> (Table, SearchEngine, Vec<f64>) {
    let people = generate_population(&PopulationConfig {
        size,
        seed,
        web_presence_rate: 0.9,
        ..PopulationConfig::default()
    });
    let table = customer_table(&people, &CustomerConfig::default());
    let web = build_corpus(&people, &CorpusConfig::default());
    let truth = table.numeric_column(4).unwrap();
    (table, web, truth)
}

#[test]
fn release_is_k_anonymous_and_keeps_identifiers() {
    let (table, _, _) = world(50, 1);
    for k in [2usize, 5, 10] {
        let partition = Mdav::new().partition(&table, k).unwrap();
        let release = build_release(&table, &partition, k, QiStyle::Range).unwrap();
        assert!(is_k_anonymous(&release.table, k).unwrap());
        assert!(anonymity_level(&release.table).unwrap() >= k);
        assert_eq!(
            release.table.identifier_strings(),
            table.identifier_strings()
        );
        // Income fully suppressed.
        assert!(release.table.column(4).all(|v| v.is_missing()));
    }
}

#[test]
fn privacy_checkers_compose_on_releases() {
    let (table, _, _) = world(60, 2);
    let partition = Mdav::new().partition(&table, 5).unwrap();
    let release = build_release(&table, &partition, 5, QiStyle::Range).unwrap();
    let classes = classes_from_release(&release.table).unwrap();
    // Diversity/closeness are measured on the original table's sensitive
    // column against the release-induced classes.
    assert!(distinct_diversity(&table, &classes).unwrap() >= 1);
    assert!(entropy_diversity(&table, &classes).unwrap() >= 1.0);
    let c = closeness(&table, &classes).unwrap();
    assert!((0.0..=1.0).contains(&c));
}

#[test]
fn attack_beats_uninformed_guessing() {
    let (table, web, truth) = world(70, 3);
    let partition = Mdav::new().partition(&table, 4).unwrap();
    let release = build_release(&table, &partition, 4, QiStyle::Range).unwrap();
    let outcome = WebFusionAttack::new()
        .unwrap()
        .run(&release.table, &web)
        .unwrap();
    let fused_err = rmse(&outcome.estimates, &truth).unwrap();
    let guess = MidpointEstimator::default()
        .estimate(&release.table, &vec![None; table.len()])
        .unwrap();
    let guess_err = rmse(&guess, &truth).unwrap();
    assert!(
        fused_err < guess_err * 0.7,
        "attack rmse {fused_err} should decisively beat blind guessing {guess_err}"
    );
}

#[test]
fn anonymization_level_controls_attack_error_trend() {
    let (table, web, truth) = world(120, 4);
    let attack = WebFusionAttack::new().unwrap();
    let mut errors = Vec::new();
    for k in [2usize, 8, 24] {
        let partition = Mdav::new().partition(&table, k).unwrap();
        let release = build_release(&table, &partition, k, QiStyle::Range).unwrap();
        let outcome = attack.run(&release.table, &web).unwrap();
        errors.push(dissimilarity(&truth, &outcome.estimates).unwrap());
    }
    // Heavier anonymization must not make the attack *better* overall.
    assert!(
        errors[2] > errors[0],
        "k=24 error {} should exceed k=2 error {}",
        errors[2],
        errors[0]
    );
}

#[test]
fn sweep_and_fred_agree_on_protection_values() {
    let (table, web, _) = world(60, 5);
    let before = MidpointEstimator::default();
    let after = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
    let report = sweep(
        &table,
        &web,
        &Mdav::new(),
        &before,
        &after,
        &SweepConfig {
            k_min: 2,
            k_max: 8,
            ..SweepConfig::default()
        },
    )
    .unwrap();
    let result = fred_anonymize(
        &table,
        &web,
        &Mdav::new(),
        &after,
        &FredParams {
            k_min: 2,
            k_max: 8,
            ..FredParams::default()
        },
    )
    .unwrap();
    // The per-k protection measured by the sweep equals the candidate
    // protection recorded by Algorithm 1 (same pipeline, same seeds).
    for c in &result.candidates {
        let row = report.row_for(c.k).unwrap();
        assert!(
            (row.dissim_after - c.protection).abs() < 1e-9,
            "k={}: sweep {} vs fred {}",
            c.k,
            row.dissim_after,
            c.protection
        );
        assert!((row.utility - c.utility).abs() < 1e-12);
    }
}

#[test]
fn fred_release_resists_the_simulated_attack_better_than_minimal_k() {
    let (table, web, truth) = world(80, 6);
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
    let result = fred_anonymize(
        &table,
        &web,
        &Mdav::new(),
        &fusion,
        &FredParams {
            // Demand more protection than the k=2 release offers.
            thresholds: Thresholds::new(0.0, 0.0),
            k_max: 12,
            ..FredParams::default()
        },
    )
    .unwrap();
    let attack = WebFusionAttack::new().unwrap();
    let outcome_opt = attack.run(&result.release.table, &web).unwrap();
    let partition2 = Mdav::new().partition(&table, 2).unwrap();
    let release2 = build_release(&table, &partition2, 2, QiStyle::Range).unwrap();
    let outcome2 = attack.run(&release2.table, &web).unwrap();
    let err_opt = dissimilarity(&truth, &outcome_opt.estimates).unwrap();
    let err_2 = dissimilarity(&truth, &outcome2.estimates).unwrap();
    assert!(
        err_opt >= err_2 * 0.98,
        "optimal release {err_opt} should protect at least as well as k=2 ({err_2})"
    );
}

#[test]
fn mondrian_substitutes_for_mdav_in_the_whole_pipeline() {
    let (table, web, _) = world(60, 7);
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap();
    let result = fred_anonymize(
        &table,
        &web,
        &Mondrian::new(),
        &fusion,
        &FredParams {
            k_max: 8,
            ..FredParams::default()
        },
    )
    .unwrap();
    assert!(is_k_anonymous(&result.release.table, result.k_opt).unwrap());
}

#[test]
fn centroid_style_release_still_supports_the_attack() {
    let (table, web, truth) = world(60, 8);
    let partition = Mdav::new().partition(&table, 4).unwrap();
    let release = build_release(&table, &partition, 4, QiStyle::Centroid).unwrap();
    let outcome = WebFusionAttack::new()
        .unwrap()
        .run(&release.table, &web)
        .unwrap();
    let err = rmse(&outcome.estimates, &truth).unwrap();
    assert!(err.is_finite());
    // Centroid publication carries the same class information as ranges
    // (the midpoint of the covering interval vs the mean differ slightly,
    // so errors should be in the same ballpark).
    let range_release = build_release(&table, &partition, 4, QiStyle::Range).unwrap();
    let range_outcome = WebFusionAttack::new()
        .unwrap()
        .run(&range_release.table, &web)
        .unwrap();
    let range_err = rmse(&range_outcome.estimates, &truth).unwrap();
    assert!((err - range_err).abs() < range_err * 0.5);
}

#[test]
fn name_noise_weakens_but_does_not_stop_the_attack() {
    let people = generate_population(&PopulationConfig {
        size: 80,
        seed: 9,
        web_presence_rate: 0.95,
        ..PopulationConfig::default()
    });
    let table = faculty_table(&people, &FacultyConfig::default());
    let truth = table
        .numeric_column(table.schema().sensitive_indices()[0])
        .unwrap();
    let partition = Mdav::new().partition(&table, 4).unwrap();
    let release = build_release(&table, &partition, 4, QiStyle::Range).unwrap();
    let attack = WebFusionAttack::new().unwrap();

    let clean_web = build_corpus(
        &people,
        &CorpusConfig {
            noise: NameNoise::none(),
            ..CorpusConfig::default()
        },
    );
    let noisy_web = build_corpus(
        &people,
        &CorpusConfig {
            noise: NameNoise::heavy(),
            ..CorpusConfig::default()
        },
    );
    let clean = attack.run(&release.table, &clean_web).unwrap();
    let noisy = attack.run(&release.table, &noisy_web).unwrap();
    assert!(noisy.aux_coverage < clean.aux_coverage);
    assert!(
        noisy.aux_coverage > 0.2,
        "linkage should still find some people"
    );
    let clean_err = rmse(&clean.estimates, &truth).unwrap();
    let noisy_err = rmse(&noisy.estimates, &truth).unwrap();
    assert!(
        noisy_err >= clean_err * 0.95,
        "noise should not help the adversary"
    );
}

/// The composition attack at the 100k scale target (`repro --quick --size
/// 100000` exercises the same paths through the bench): hierarchical
/// MDAV partitions the full table, the scenario generator anonymizes
/// each release through it, and the intersection engine composes them
/// for every core target. The paper's composition claim must survive the
/// scale jump: every added release can only shrink the mean candidate
/// pool. Minutes of wall clock on one core — run with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "100k-row sweep (minutes on one core); run with -- --ignored"]
fn composition_stays_monotone_at_100k() {
    use fred_suite::anon::HierarchicalMdav;
    use fred_suite::composition::{generate_scenario, intersect_releases, ScenarioConfig};
    use fred_suite::data::ShardPlan;

    let people = generate_population(&PopulationConfig {
        size: 100_000,
        seed: 2015,
        ..PopulationConfig::default()
    });
    let table = customer_table(&people, &CustomerConfig::default());
    let plan = ShardPlan::for_size(table.len(), 2015);
    assert!(plan.shards() > 1, "100k rows must actually shard");
    let hier = HierarchicalMdav::new(plan);

    let k = 5;
    let mut mean_candidates = Vec::new();
    for releases in [1usize, 2, 3] {
        let scenario = generate_scenario(
            &table,
            &hier,
            &ScenarioConfig {
                releases,
                k,
                seed: 2015,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        let intersections =
            intersect_releases(&scenario.sources, &scenario.targets, table.len(), 1024).unwrap();
        assert_eq!(intersections.len(), scenario.targets.len());
        // Every target keeps at least itself as a candidate, and the
        // single-release pool honors k-anonymity.
        for t in &intersections {
            assert!(
                t.candidate_rows.contains(&(t.master_row as u32)),
                "target {} lost itself",
                t.master_row
            );
        }
        let mean = intersections
            .iter()
            .map(|t| t.candidate_rows.len())
            .sum::<usize>() as f64
            / intersections.len() as f64;
        if releases == 1 {
            assert!(mean >= k as f64, "one release must keep k-anonymity");
        }
        mean_candidates.push(mean);
    }
    assert!(
        mean_candidates.windows(2).all(|w| w[1] <= w[0]),
        "composition grew the candidate pool: {mean_candidates:?}"
    );
    assert!(
        mean_candidates[2] < mean_candidates[0],
        "three releases should compose strictly below one: {mean_candidates:?}"
    );
}
