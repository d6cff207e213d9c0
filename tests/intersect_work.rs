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
//!
//! `DefensePolicy::CalibratedWiden` is measured the same way, with its
//! `defense.probes` counter: every re-measure and every unblock tally
//! probes one class of the target, so per-target work tracks the sizes
//! of the classes the calibration merges, not the table. Those classes
//! do grow with the table under this merge rule (here source 0 ends as
//! one class and the others' classes roughly double), so the reading
//! rises 68.0 -> 121.1 probes per target (1.78x). The gate holds the
//! growth at 1.9x, below the 1.95x that one O(n) scan per re-measure
//! reads here, and the 40k reading under 1% of the table, which such a
//! scan (~1.5 table reads per target) misses by two orders of magnitude.

use std::sync::Mutex;

use fred_suite::anon::Mondrian;
use fred_suite::composition::{
    generate_scenario, intersect_releases, DefensePolicy, ScenarioConfig,
};
use fred_suite::data::Table;
use fred_suite::synth::{faculty_table, generate_population, FacultyConfig, PopulationConfig};

/// The obs collector is process-global: the tests of this binary take
/// turns enabling and draining it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A seeded faculty table of `size` rows and its three-release scenario
/// at k = 5 (the shape of the benchmark's evaluation grid) under
/// `defense`, with the scenario's counters when `defense` is set.
fn faculty_scenario(
    size: usize,
    defense: Option<DefensePolicy>,
) -> (
    Table,
    fred_suite::composition::CompositionScenario,
    fred_obs::Trace,
) {
    let people = generate_population(&PopulationConfig::faculty(size, 2015));
    let table = faculty_table(&people, &FacultyConfig::default());
    fred_obs::enable(true);
    let scenario = generate_scenario(
        &table,
        &Mondrian::new(),
        &ScenarioConfig {
            releases: 3,
            k: 5,
            seed: 2015,
            defense,
            ..ScenarioConfig::default()
        },
    )
    .expect("a generated table holds a k-anonymizable core");
    (table, scenario, fred_obs::drain())
}

/// Mean class members probed per target when every row of the faculty
/// table is intersected over the three releases.
fn probes_per_target(size: usize) -> f64 {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (table, scenario, _) = faculty_scenario(size, None);
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

/// Mean master rows the calibration probes per core target when the
/// faculty scenario is widened to hold five candidates per target.
fn widen_probes_per_target(size: usize) -> f64 {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, scenario, trace) =
        faculty_scenario(size, Some(DefensePolicy::CalibratedWiden { target_k: 5 }));
    trace.counter_total("defense.probes") as f64 / scenario.targets.len() as f64
}

#[test]
fn widen_probes_per_target_grow_slower_than_the_table() {
    let small = widen_probes_per_target(20_000);
    let large = widen_probes_per_target(40_000);
    assert!(small > 0.0, "the calibration probes class members");
    assert!(
        large <= 0.01 * 40_000.0,
        "the calibration probed {large:.1} rows per target of a 40k-row table"
    );
    assert!(
        large <= 1.9 * small,
        "per-target calibration work grew {:.2}x from 20k to 40k rows \
         ({small:.1} -> {large:.1} probes per target): the calibration \
         scans the table instead of probing one class",
        large / small
    );
}
