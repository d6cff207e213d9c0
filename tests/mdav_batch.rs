//! `Anonymizer::partition_all` against per-table `partition` calls: the
//! batch must return the same partitions in table order and, for MDAV,
//! emit the same summed work counters, at pool widths 1, 2 and 4.
//!
//! MDAV overrides the method with its batched body (every table's leaves
//! in one flat task list); Mondrian keeps the default, a pool map of
//! `partition`. The obs collector is process-global, so this binary holds
//! a single test.

use fred_bench::{faculty_world, WorldConfig};
use fred_suite::anon::{Anonymizer, HierarchicalMdav, Mdav, Mondrian, Partition};
use fred_suite::data::{ShardPlan, Table};

/// The MDAV work counters the batch must reproduce.
const COUNTERS: [&str; 4] = [
    "mdav.rounds",
    "mdav.dist_evals",
    "mdav.nodes_visited",
    "mdav.leaves",
];

/// Runs `f` in a fresh obs window and returns its output with the
/// window's MDAV counter totals.
fn with_counters<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    fred_obs::enable(true);
    let out = f();
    let trace = fred_obs::drain();
    (out, COUNTERS.map(|name| trace.counter_total(name)))
}

#[test]
fn partition_all_equals_per_table_partition_calls() {
    // Three tables of different sizes; the largest two are big enough
    // for a kd-tree (over 1,024 rows per leaf) and for a four-way split.
    let tables: Vec<Table> = [(1_500, 11), (2_600, 12), (4_500, 13)]
        .into_iter()
        .map(|(size, seed)| {
            faculty_world(&WorldConfig {
                size,
                seed,
                ..WorldConfig::default()
            })
            .table
        })
        .collect();
    let tables: Vec<&Table> = tables.iter().collect();
    let anonymizers: [Box<dyn Anonymizer>; 3] = [
        Box::new(Mdav::new()),
        Box::new(HierarchicalMdav::new(ShardPlan::new(4, 0))),
        Box::new(Mondrian::new()),
    ];
    for width in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("the shim always builds");
        pool.install(|| {
            for anonymizer in &anonymizers {
                let name = anonymizer.name();
                for k in [2, 5] {
                    let (batch, batch_work) =
                        with_counters(|| anonymizer.partition_all(&tables, k).unwrap());
                    let (single, single_work) = with_counters(|| {
                        tables
                            .iter()
                            .map(|table| anonymizer.partition(table, k).unwrap())
                            .collect::<Vec<Partition>>()
                    });
                    assert_eq!(batch, single, "{name} k={k} width={width}");
                    assert_eq!(
                        batch_work, single_work,
                        "{name} k={k} width={width}: {COUNTERS:?}"
                    );
                    if name.starts_with("mdav") {
                        assert!(
                            batch_work.iter().all(|&c| c > 0),
                            "{name} emits every MDAV counter: {batch_work:?}"
                        );
                    }
                }
                // A table too small for k fails the batch, as it fails
                // its own call.
                assert!(anonymizer.partition_all(&tables, 1_600).is_err(), "{name}");
                assert_eq!(anonymizer.partition_all(&[], 5).unwrap(), Vec::new());
            }
        });
    }
    // The hierarchical batch really splits: four leaves for each table
    // big enough to cut (a cut keeps both sides at 3k rows or more).
    let (_, work) = with_counters(|| {
        HierarchicalMdav::new(ShardPlan::new(4, 0))
            .partition_all(&tables, 5)
            .unwrap()
    });
    assert_eq!(work[3], 12, "leaves of three four-way splits");
}
