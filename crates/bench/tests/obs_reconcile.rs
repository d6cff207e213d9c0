//! Observability ground-truth tests: the obs counters must agree with
//! the pipeline's own ledgers, and deterministic traces must be
//! bit-identical across runs.
//!
//! Four properties:
//!
//! * **Ledger reconciliation** — on a faulted `--quick`-shaped run, every
//!   `faults.*` counter equals the summed degradation fields of the
//!   robustness rows and every `recover.*` counter equals the recovery
//!   ledger, *exactly*, across seeds. Counter and ledger are incremented
//!   by the same source line (`Degradation::record`, the stage runner's
//!   attempt loop), and injected stage transients fire *before* the
//!   compute closure runs, so retries never double-count — any gap is
//!   dropped instrumentation.
//! * **Histogram reconciliation** — the `harvest.name_ms` latency
//!   histogram and the `harvest.names` counter are bumped by the same
//!   per-name routine (the parallel, single-threaded and tolerant paths
//!   all funnel through it), so the histogram's observation count equals
//!   the counter to the unit, and its buckets sum to that count.
//! * **Work-counter reconciliation** — `harvest.postings_scanned`, summed
//!   over the harvest's per-name deltas, equals the postings the searcher
//!   itself reports for the same release names; `intersect.probes` equals
//!   the smallest class size of each target, summed, once per call.
//! * **Deterministic trace bit-identity** — two zero-fault checkpointed
//!   runs of the same configuration (separate stores, both computing
//!   fresh) drain byte-identical trace JSON and the same structural
//!   digest, which also matches the digest embedded in the `profile`
//!   block.
//!
//! The obs collector is process-global, so every test in this binary
//! serializes on one lock; tests that enable tracing must never share a
//! binary with tests that run `quick_bench` concurrently.

use std::path::PathBuf;
use std::sync::Mutex;

use fred_anon::Mondrian;
use fred_attack::{harvest_auxiliary, harvest_auxiliary_tolerant, HarvestConfig};
use fred_bench::perf::{quick_bench, QuickBench, QuickBenchOptions};
use fred_bench::world::WorldConfig;
use fred_composition::{
    candidate_counts, generate_scenario, intersect_releases, intersect_releases_sequential,
    intersect_releases_tolerant, ScenarioConfig,
};
use fred_faults::{Degradation, FaultPlan};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fred_obs_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Counter lookup over the profile's rendered rows (absent names count
/// as zero, matching the gate in `compare.rs`).
fn counter(bench: &QuickBench, name: &str) -> u64 {
    bench
        .profile
        .as_ref()
        .expect("profiled run carries a profile block")
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn faulted_counters_reconcile_with_both_ledgers_across_seeds() {
    let _g = obs_lock();
    for seed in [7, 42, 2008] {
        let bench = quick_bench(
            &WorldConfig {
                size: 30,
                seed,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions {
                large_size: None,
                faults: Some(0.1),
                profile: true,
                ..QuickBenchOptions::default()
            },
        );
        let rob = bench
            .robustness
            .as_ref()
            .expect("faulted run carries the robustness block");
        let sum = |f: fn(&fred_bench::perf::RobustnessBenchRow) -> usize| -> u64 {
            rob.rows.iter().map(f).sum::<usize>() as u64
        };
        let pairs = [
            ("faults.pages_rejected", sum(|r| r.pages_rejected)),
            ("faults.rows_skipped", sum(|r| r.rows_skipped)),
            ("faults.fields_imputed", sum(|r| r.fields_imputed)),
            ("faults.workers_restarted", sum(|r| r.workers_restarted)),
        ];
        for (name, ledger) in pairs {
            assert_eq!(
                counter(&bench, name),
                ledger,
                "seed {seed}: obs counter `{name}` disagrees with the robustness ledger"
            );
        }
        // The uniform sweep at a positive rate must actually have
        // exercised the tolerant paths, or the equalities above are
        // vacuous 0 == 0.
        assert!(
            pairs.iter().any(|(_, ledger)| *ledger > 0),
            "seed {seed}: fault injection produced no defects at all"
        );
        let rec = bench
            .recovery
            .as_ref()
            .expect("faulted run carries the recovery ledger");
        assert_eq!(
            counter(&bench, "recover.attempts"),
            rec.rows.iter().map(|r| r.attempts).sum::<usize>() as u64,
            "seed {seed}: obs counter `recover.attempts` disagrees with the recovery ledger"
        );
        assert_eq!(
            counter(&bench, "recover.retries"),
            rec.retries_total as u64,
            "seed {seed}: obs counter `recover.retries` disagrees with the recovery ledger"
        );
        assert_eq!(
            counter(&bench, "recover.quarantines"),
            rec.quarantined_total as u64,
            "seed {seed}: obs counter `recover.quarantines` disagrees with the recovery ledger"
        );
    }
}

#[test]
fn harvest_latency_histogram_reconciles_with_the_names_counter() {
    let _g = obs_lock();
    for seed in [7, 2008] {
        let bench = quick_bench(
            &WorldConfig {
                size: 30,
                seed,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions {
                large_size: None,
                faults: Some(0.1),
                profile: true,
                ..QuickBenchOptions::default()
            },
        );
        let prof = bench
            .profile
            .as_ref()
            .expect("profiled run carries a profile block");
        let hist = prof
            .hists
            .iter()
            .find(|h| h.name == "harvest.name_ms")
            .expect("profiled harvest records the per-name latency histogram");
        // Non-vacuous: the quick world's harvest classifies real pages.
        assert!(
            hist.count > 0,
            "seed {seed}: harvest recorded no per-name latencies at all"
        );
        assert_eq!(
            hist.count,
            counter(&bench, "harvest.names"),
            "seed {seed}: histogram observations disagree with `harvest.names` — \
             both are written by the same per-name harvest routine"
        );
        assert_eq!(
            hist.buckets.iter().sum::<u64>(),
            hist.count,
            "seed {seed}: histogram buckets do not sum to the observation count"
        );
        assert!(
            hist.sum_ms.is_finite() && hist.sum_ms >= 0.0,
            "seed {seed}: histogram sum must be finite and non-negative"
        );
    }
}

#[test]
fn harvest_postings_counter_reconciles_with_the_searcher() {
    let _g = obs_lock();
    let world = fred_bench::faculty_world(&WorldConfig {
        size: 400,
        ..WorldConfig::default()
    });
    let release = world.table.suppress_sensitive();
    let config = HarvestConfig::default();
    // The searcher's own count over every release name, one scratch.
    let mut scratch = world.web.scratch();
    let mut cache = world.web.term_cache();
    for name in release.identifier_strings() {
        world
            .web
            .search_topk_with(&name, config.hits_per_name, &mut scratch, &mut cache);
    }
    let searched = scratch.postings_scanned();
    assert!(searched > 0, "the release names visit postings");
    // The harvest sums per-name deltas over per-worker scratches; the
    // strict and the zero-rate tolerant path must both land on it.
    fred_obs::enable(true);
    harvest_auxiliary(&release, &world.web, &config).expect("harvest");
    let strict = fred_obs::drain().counter_total("harvest.postings_scanned");
    fred_obs::enable(true);
    harvest_auxiliary_tolerant(&release, &world.web, &config, &FaultPlan::none())
        .expect("tolerant harvest");
    let tolerant = fred_obs::drain().counter_total("harvest.postings_scanned");
    assert_eq!(strict, searched, "strict harvest vs searcher");
    assert_eq!(tolerant, searched, "zero-rate tolerant harvest vs searcher");
}

#[test]
fn intersect_probes_counter_reconciles_with_the_class_sizes() {
    let _g = obs_lock();
    let world = fred_bench::faculty_world(&WorldConfig {
        size: 400,
        ..WorldConfig::default()
    });
    let n = world.table.len();
    // Mondrian's classes vary in size, so the smallest class of a target
    // differs from its others and the pin checks which one is probed.
    let scenario = generate_scenario(
        &world.table,
        &Mondrian::new(),
        &ScenarioConfig {
            releases: 3,
            k: 4,
            ..ScenarioConfig::default()
        },
    )
    .expect("scenario");
    // Every row: the core, and rows some or every source lacks.
    let rows: Vec<usize> = (0..n).collect();
    // The engine probes each target's smallest class over the sources
    // holding it; sizes read straight off the partitions.
    let class_size: Vec<Vec<Option<usize>>> = scenario
        .sources
        .iter()
        .map(|s| {
            let mut size = vec![None; n];
            for class in s.partition.classes() {
                for &local in class {
                    size[s.global_rows[local]] = Some(class.len());
                }
            }
            size
        })
        .collect();
    let expected: u64 = rows
        .iter()
        .map(|&t| class_size.iter().filter_map(|s| s[t]).min().unwrap_or(0) as u64)
        .sum();
    let probes = |call: &dyn Fn()| {
        fred_obs::enable(true);
        call();
        fred_obs::drain().counter_total("intersect.probes")
    };
    let chunk = 64;
    let strict = probes(&|| {
        let inters = intersect_releases(&scenario.sources, &rows, n, chunk).expect("intersect");
        // Every candidate was probed.
        let candidates: usize = inters.iter().map(|t| t.candidates()).sum();
        assert!(candidates as u64 <= expected && candidates > 0);
    });
    let tolerant = probes(&|| {
        let mut deg = Degradation::default();
        intersect_releases_tolerant(
            &scenario.sources,
            &rows,
            n,
            chunk,
            &FaultPlan::none(),
            &mut deg,
        )
        .expect("tolerant intersect");
    });
    let counts = probes(&|| {
        candidate_counts(&scenario.sources, &rows, n, chunk).expect("counts");
    });
    let oracle = probes(&|| {
        intersect_releases_sequential(&scenario.sources, &rows, n, chunk).expect("oracle");
    });
    assert!(expected > n as u64, "the core's classes hold several rows");
    assert_eq!(strict, expected, "strict engine vs class sizes");
    assert_eq!(
        tolerant, expected,
        "zero-rate tolerant engine vs class sizes"
    );
    assert_eq!(counts, expected, "candidate_counts vs class sizes");
    assert_eq!(oracle, 0, "the row-scan oracle probes nothing");
}

#[test]
fn deterministic_trace_is_bit_identical_across_runs() {
    let _g = obs_lock();
    let run = |dir: PathBuf| {
        quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions {
                large_size: Some(40),
                checkpoint_dir: Some(dir),
                profile: true,
                ..QuickBenchOptions::default()
            },
        )
    };
    let a = run(temp_dir("det_a"));
    let b = run(temp_dir("det_b"));
    let (ta, tb) = (
        a.trace.as_ref().expect("profiled run keeps its trace"),
        b.trace.as_ref().expect("profiled run keeps its trace"),
    );
    assert!(
        ta.deterministic,
        "checkpointed runs trace deterministically"
    );
    assert_eq!(
        ta.to_json(),
        tb.to_json(),
        "deterministic trace JSON diverged between two fresh runs"
    );
    assert_eq!(ta.structural_digest(), tb.structural_digest());
    // The digest the profile block publishes is the digest of this tree.
    let prof = a.profile.as_ref().expect("profile block present");
    assert_eq!(prof.span_tree_digest, ta.structural_digest());
    assert!(prof.deterministic);
    // Deterministic profiles must not publish runtime counter rows: a
    // later resumed run would skip compute closures and legitimately
    // count differently.
    assert!(prof.counters.is_empty());
    assert!(prof.hists.is_empty());
    // Every duration in the tree is zeroed at source.
    fn all_zero(node: &fred_obs::SpanNode) -> bool {
        node.start_ms == 0.0 && node.wall_ms == 0.0 && node.children.iter().all(all_zero)
    }
    assert!(ta.spans.iter().all(all_zero));
    // Merged counter totals are still a pure function of the config,
    // and the scheduling-dependent per-worker split is omitted.
    assert_eq!(ta.counters, tb.counters);
    assert!(ta.counter_total("recover.attempts") > 0);
    assert!(ta.worker_counters.is_empty());
}

#[test]
fn resumed_run_keeps_the_span_tree_of_the_uninterrupted_run() {
    let _g = obs_lock();
    let opts = |dir: PathBuf, resume: bool| QuickBenchOptions {
        large_size: Some(40),
        checkpoint_dir: Some(dir),
        resume,
        profile: true,
        ..QuickBenchOptions::default()
    };
    let config = WorldConfig {
        size: 30,
        ..WorldConfig::default()
    };
    let dir = temp_dir("resume");
    let full = quick_bench(&config, 2, 4, 1, &opts(dir.clone(), false));
    // Second run over the same store: every loadable stage is satisfied
    // from its checkpoint, so the compute closures are skipped — the
    // span tree must not notice (spans wrap the runner, not the
    // closures).
    let resumed = quick_bench(&config, 2, 4, 1, &opts(dir, true));
    let full_prof = full.profile.expect("profile present");
    let resumed_prof = resumed.profile.expect("profile present");
    assert_eq!(full_prof.span_tree_digest, resumed_prof.span_tree_digest);
    assert_eq!(
        full_prof
            .stages
            .iter()
            .map(|s| &s.stage)
            .collect::<Vec<_>>(),
        resumed_prof
            .stages
            .iter()
            .map(|s| &s.stage)
            .collect::<Vec<_>>()
    );
}
