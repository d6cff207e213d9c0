//! Work scaling of the multi-release intersection, measured with its
//! deterministic `intersect.probes` counter rather than wall clock.
//!
//! The composition attack intersects every row of the master table, so it
//! is linear in the table only while one target's cost stays flat as the
//! table grows. The engine probes the members of a target's smallest
//! class, so its per-target work tracks the partitioner's class sizes:
//! near `k`, growing slightly here (6.9 -> 8.1 probes) because more rows
//! tie on the faculty table's quasi-identifiers and Mondrian cannot split
//! ties. An engine that scans (or ANDs bitsets over) all `n` master rows
//! per target doubles its per-target work when the table doubles.

use fred_suite::anon::Mondrian;
use fred_suite::composition::{generate_scenario, intersect_releases, ScenarioConfig};
use fred_suite::synth::{faculty_table, generate_population, FacultyConfig, PopulationConfig};

/// Mean class members probed per target when every row of a seeded
/// faculty table of `size` rows is intersected over three Mondrian
/// releases at k = 5 (the shape of the benchmark's evaluation grid).
fn probes_per_target(size: usize) -> f64 {
    let people = generate_population(&PopulationConfig::faculty(size, 2015));
    let table = faculty_table(&people, &FacultyConfig::default());
    let scenario = generate_scenario(
        &table,
        &Mondrian::new(),
        &ScenarioConfig {
            releases: 3,
            k: 5,
            seed: 2015,
            ..ScenarioConfig::default()
        },
    )
    .expect("a generated table holds a k-anonymizable core");
    let rows: Vec<usize> = (0..table.len()).collect();
    fred_obs::enable(true);
    let inters = intersect_releases(&scenario.sources, &rows, table.len(), 1024);
    let probes = fred_obs::drain().counter_total("intersect.probes");
    assert_eq!(inters.expect("intersection succeeds").len(), rows.len());
    probes as f64 / rows.len() as f64
}

#[test]
fn probes_per_target_stay_flat_as_the_table_doubles() {
    let small = probes_per_target(20_000);
    let large = probes_per_target(40_000);
    assert!(small > 0.0, "the intersection probes class members");
    assert!(
        large <= 1.3 * small,
        "per-target intersection work grew {:.2}x from 20k to 40k rows \
         ({small:.1} -> {large:.1} probes per target): the engine reads a \
         share of the table instead of one class",
        large / small
    );
}
