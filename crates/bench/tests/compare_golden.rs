//! Golden-file tests for the perf-smoke gate: two committed
//! `BENCH_sweep.json` snapshots — one clean, one poisoned with a NaN
//! composition row, a missing `composition_defense` block, a
//! robustness block whose zero-fault row both survived defects and
//! drifted, a profile block whose `mdav` stage row vanished and whose
//! `faults.fields_imputed` counter disagrees with the robustness
//! ledger, an eval block with a NaN ε row, an AUC above 1, and a
//! drifted undefended cell, a `large_100k` block over its memory
//! ceiling, and a `harvest.name_ms` histogram that disagrees with the
//! `harvest.names` counter — pin [`fred_bench::compare`] end to end
//! against the *written* baseline format, not just against JSON the
//! tests synthesize themselves: these fixtures make every documented
//! fire/stay-silent decision a committed artifact.

use fred_bench::compare::{compare_baselines, parse_baseline, Baseline, CompareReport};
use fred_bench::perf::CompositionBenchRow;

const CLEAN: &str = include_str!("fixtures/bench_clean.json");
const POISONED: &str = include_str!("fixtures/bench_poisoned.json");

/// Asserts that some violation mentions `needle`.
#[track_caller]
fn assert_fires(report: &CompareReport, needle: &str) {
    assert!(
        report.violations.iter().any(|v| v.contains(needle)),
        "no violation mentions {needle:?}: {:?}",
        report.violations
    );
}

/// Asserts that no violation mentions `needle`.
#[track_caller]
fn assert_silent(report: &CompareReport, needle: &str) {
    assert!(
        !report.violations.iter().any(|v| v.contains(needle)),
        "a violation mentions {needle:?}: {:?}",
        report.violations
    );
}

/// Asserts that some note mentions `needle`.
#[track_caller]
fn assert_notes(report: &CompareReport, needle: &str) {
    assert!(
        report.notes.iter().any(|n| n.contains(needle)),
        "no note mentions {needle:?}: {:?}",
        report.notes
    );
}

fn parse(json: &str) -> Baseline {
    parse_baseline(json).expect("fixture decodes")
}

#[test]
fn clean_fixture_parses_every_documented_block() {
    let b = parse(CLEAN);
    let walls = b.stage_wall_ms();
    // Stages from both worlds share one namespace; the defense stage is
    // a first-class timed stage.
    for stage in [
        "world_build",
        "mdav_k5",
        "composition_sweep",
        "composition_defense",
        "eval_sweep",
        "robustness_sweep",
        "world_build_large",
        "harvest_sequential_large",
        "composition_large",
        "world_build_100k",
        "mdav_hier_100k",
        "harvest_100k",
        "intersect_100k",
        "equivalence_100k",
    ] {
        assert!(
            walls.contains_key(stage),
            "stage `{stage}` missing from the parsed clean fixture"
        );
    }
    let bench = &b.bench;
    let large = bench
        .large
        .as_ref()
        .expect("clean fixture carries a large block");
    assert_eq!(bench.cores, 1);
    assert_eq!(large.cores, 1);
    assert_eq!(bench.speedup_batch_vs_naive, 5.38);
    // The sampled reference records its sample size, not the world size.
    assert_eq!(walls.get("harvest_sequential_large"), Some(&92.126));
    // Both composition series, attributed to their own blocks.
    let series = |rows: &[CompositionBenchRow]| {
        rows.iter()
            .map(|r| (r.releases, r.disclosure_gain, r.mean_candidates))
            .collect::<Vec<_>>()
    };
    let composition = series(&bench.composition.as_ref().expect("composition").rows);
    let composition_large = series(&large.composition.as_ref().expect("composition_large").rows);
    let releases = |rows: &[(usize, f64, f64)]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
    assert_eq!(releases(&composition), vec![1, 2, 3]);
    assert_eq!(releases(&composition_large), vec![1, 2, 3]);
    assert_eq!(composition[2], (3, 8377.8, 1.88));
    assert_eq!(composition_large[2], (3, 2306.2, 1.50));
    // The defense block: nine rows (three policies x three Rs), its own k.
    let defense = bench
        .composition_defense
        .as_ref()
        .expect("clean fixture carries a defense block");
    assert_eq!(defense.k, 5);
    assert_eq!(defense.rows.len(), 9);
    let coordinated: Vec<_> = defense
        .rows
        .iter()
        .filter(|r| r.policy == "coordinated_seeds")
        .collect();
    assert_eq!(coordinated.len(), 3);
    assert_eq!(coordinated[2].releases, 3);
    assert_eq!(coordinated[2].residual_gain, -4148.1);
    assert_eq!(coordinated[2].undefended_gain, 8377.8);
    let widen: Vec<_> = defense
        .rows
        .iter()
        .filter(|r| r.policy == "calibrated_widen_k5")
        .collect();
    assert_eq!(widen.len(), 3);
    assert!(widen.iter().all(|r| r.mean_candidates >= 5.0));
    // The robustness block: zero-fault reference row first, defect-free,
    // then the two faulted rows with their skip-and-count totals pooled
    // into `defects`.
    let robustness = &bench.robustness.as_ref().expect("robustness block").rows;
    assert_eq!(robustness.len(), 3);
    assert_eq!(robustness[0].fault_rate, 0.0);
    assert_eq!(robustness[0].harvest_precision, 1.0);
    assert_eq!(robustness[0].composition_gain, 8377.8);
    assert_eq!(robustness[0].defects(), 0);
    assert_eq!(robustness[1].defects(), 14 + 5 + 9 + 6);
    assert_eq!(robustness[2].fault_rate, 0.1);
    assert_eq!(robustness[2].defects(), 31 + 11 + 17 + 13);
    // The scale block: its MDAV leaf count, the three digest pairs
    // agreeing, and the peak-rss witness.
    let big = bench
        .large_100k
        .as_ref()
        .expect("clean fixture carries the large_100k block");
    assert_eq!(big.size, 100_000);
    assert_eq!(big.shards, 8);
    assert_eq!(big.sample_rows, 2048);
    assert_eq!(big.peak_rss_mb, 612.4);
    assert_eq!(big.harvest_digest_engine, big.harvest_digest_reference);
    assert_eq!(big.intersect_digest_engine, 0xe6b2_0a9f_7d1c_5438);
    // The hypothesis-testing eval block: four undefended cells, one per
    // deployed defense at the stage (k, R), every metric finite.
    let eval = &bench.eval.as_ref().expect("eval block").rows;
    assert_eq!(eval.len(), 7);
    assert_eq!(eval.iter().filter(|r| r.defense == "none").count(), 4);
    let top = eval
        .iter()
        .find(|r| r.k == 5 && r.releases == 3 && r.defense == "none")
        .expect("undefended stage cell present");
    assert_eq!((top.targets, top.decoys), (60, 51));
    assert_eq!(
        (top.auc, top.tpr_at_fpr3, top.epsilon),
        (0.9984, 0.9167, 4.5499)
    );
    assert!(eval
        .iter()
        .any(|r| r.defense == "coordinated_seeds" && r.epsilon == 1.6917));
    // The profile block: header, overhead, one self-time row per runner
    // stage, and the counter rows the reconciliation gate reads.
    let prof = bench
        .profile
        .as_ref()
        .expect("clean fixture carries a profile");
    let counter = |name: &str| {
        prof.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert!(!prof.deterministic);
    assert_eq!(prof.spans_total, 11);
    assert_eq!(prof.span_tree_digest, "3f94c1d2a07be586");
    assert_eq!(prof.overhead_probe_calls, 1_000_000);
    assert_eq!(prof.overhead_pct_of_large, 0.352);
    assert_eq!(prof.stages.len(), 10);
    assert!(prof.stages.iter().any(|s| s.stage == "mdav"));
    assert!(prof.stages.iter().any(|s| s.stage == "eval"));
    assert_eq!(counter("faults.pages_rejected"), Some(45));
    assert_eq!(counter("faults.workers_restarted"), Some(19));
    // The latency histogram the obs-reconciliation gate reads, agreeing
    // with its counter to the unit.
    assert_eq!(counter("harvest.names"), Some(226));
    let hist = prof
        .hists
        .iter()
        .find(|h| h.name == "harvest.name_ms")
        .expect("harvest latency histogram");
    assert_eq!((hist.count, hist.sum_ms), (226, 7.150));
    assert!(b.malformed_rows.is_empty(), "{:?}", b.malformed_rows);
}

#[test]
fn clean_self_diff_stays_silent_and_notes_every_series() {
    let report = compare_baselines(CLEAN, CLEAN);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for expected in [
        "speedup_batch_vs_naive",
        "composition disclosure gain at R=3",
        "composition_large disclosure gain at R=3",
        "defense `coordinated_seeds`",
        "defense `overlap_cap_0.90`",
        "defense `calibrated_widen_k5`",
        "robustness: precision",
        "profile: 11 spans",
        "large_100k: 100000 rows, MDAV leaves 8",
        "eval: 7 cell(s)",
    ] {
        assert!(
            report.notes.iter().any(|n| n.contains(expected)),
            "no note mentioning {expected:?} in {:?}",
            report.notes
        );
    }
}

#[test]
fn poisoned_fresh_run_fires_exactly_the_documented_gates() {
    let b = parse(POISONED);
    // All three NaN rows (composition, robustness, eval ε) must surface
    // as malformed, not silently drop.
    assert_eq!(b.malformed_rows.len(), 3, "{:?}", b.malformed_rows);
    assert!(b.malformed_rows.iter().all(|l| l.contains("NaN")));
    // The NaN ε row drops out of the parsed eval series; the drifted
    // undefended cell and the impossible defended cell stay in.
    assert_eq!(b.bench.eval.as_ref().expect("eval block").rows.len(), 2);
    // The defense block is gone entirely.
    assert!(b.bench.composition_defense.is_none());
    // The NaN robustness row drops out of the parsed series; the other
    // two — the dirty zero row and the collapsed 10% row — stay in.
    let robustness = &b.bench.robustness.as_ref().expect("robustness block").rows;
    assert_eq!(robustness.len(), 2);
    assert_eq!(robustness[0].defects(), 2);
    // The poisoned scale block parses structurally — its defect is
    // semantic (a blown memory ceiling), caught by the gates below, not
    // by the parser.
    let big = b
        .bench
        .large_100k
        .as_ref()
        .expect("poisoned large_100k block parses");
    assert_eq!((big.size, big.shards), (200, 2));

    let report = compare_baselines(CLEAN, POISONED);
    // Exactly seventeen findings: the two timed stages that vanished, the
    // defense series that vanished, the zero-fault robustness row that
    // survived defects AND drifted from the pin, the 10% row breaking
    // both the precision slack and the gain floor, the three NaN rows,
    // the profile stage row that vanished, the obs counter that
    // disagrees with the parsed robustness ledger, the histogram whose
    // observation count disagrees with its counter, the scale block's
    // peak rss over the ceiling, and the eval block's three: an
    // AUC above a perfect test, a defended cell whose undefended
    // reference was eaten by the NaN row, and an undefended cell that
    // drifted from the committed pin. The NaN-adjacent composition
    // series itself (rows 1 and 3 still parse, still increasing) must
    // NOT additionally trip the monotonicity gate, and the NaN
    // robustness row must not be held to the envelope it failed to
    // parse into — nor feed the counter reconciliation, which sums the
    // *parsed* rows only. The scale block's (size, shards) pair differs
    // from the committed block, so the cross-run digest
    // pin is skipped (a note), not fired. The surviving eval pair (one
    // row per (R, defense) group) must not trip the ε-vs-k gate. Two
    // stages vanished, so the runs do not share a configuration and the
    // work-counter pin does not bind to the tampered counters.
    assert_eq!(report.violations.len(), 17, "{:?}", report.violations);
    assert_fires(&report, "AUC 1.2000 is outside");
    assert!(report.violations.iter().any(
        |v| v.contains("eval defended cell `overlap_cap_0.90` at (k=5, R=3) has no undefended")
    ));
    assert_fires(&report, "eval ε drifted at (k=2, R=3, `none`)");
    assert_silent(&report, "ε rose with k");
    assert!(report.violations.iter().any(|v| {
        v.contains("obs histogram `harvest.name_ms` recorded 226")
            && v.contains("`harvest.names` = 230")
    }));
    assert_fires(&report, "large_100k peak rss reached 4096.0 MiB");
    assert_silent(&report, "digests drifted");
    assert_notes(&report, "large_100k config changed");
    assert_fires(&report, "profile stage `mdav` disappeared");
    assert!(report.violations.iter().any(|v| {
        v.contains("obs counter `faults.fields_imputed` = 99")
            && v.contains("robustness ledger total 17")
    }));
    // The identical digest must not fire: the tree did not change shape.
    assert_silent(&report, "span tree digest drifted");
    assert_fires(&report, "stage `composition_defense` disappeared");
    assert_fires(&report, "stage `robustness_sweep` disappeared");
    assert_fires(&report, "composition_defense stage disappeared");
    assert_fires(&report, "zero-fault robustness row survived 2 defect(s)");
    assert_fires(&report, "zero-fault robustness row drifted");
    assert_fires(
        &report,
        "robustness harvest precision at uniform fault rate 0.100",
    );
    assert_fires(
        &report,
        "robustness composition gain at uniform fault rate 0.100",
    );
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| v.contains("non-finite or unparseable") && v.contains("NaN"))
            .count(),
        3,
        "{:?}",
        report.violations
    );
    // Each malformed row names the array it was dropped from.
    for block in ["composition.rows", "eval.rows", "robustness.rows"] {
        assert_fires(
            &report,
            &format!("fresh baseline carries a non-finite or unparseable value at {block}: {{"),
        );
    }
    assert_silent(&report, "not strictly increasing");
}

#[test]
fn poisoned_committed_baseline_refuses_to_gate() {
    // A corrupt committed baseline must not silently disarm its own
    // gates: each NaN row is a violation in itself, prompting a
    // regenerate, even when the fresh run is pristine. The other two
    // findings are the cross-run pins working in reverse — the clean
    // fresh zero-fault row and undefended eval cell legitimately differ
    // from the dirty committed ones, and drift from the committed
    // reference is an alarm in either direction.
    let report = compare_baselines(POISONED, CLEAN);
    assert_eq!(report.violations.len(), 5, "{:?}", report.violations);
    assert_eq!(
        report
            .violations
            .iter()
            .filter(|v| v.contains("committed baseline carries"))
            .count(),
        3,
        "{:?}",
        report.violations
    );
    assert_fires(&report, "zero-fault robustness row drifted");
    assert_fires(&report, "eval ε drifted at (k=2, R=3, `none`)");
    // A fresh run *adding* the defense block on top of a committed
    // baseline without one is growth, not a regression — nothing else
    // fires.
    assert_silent(&report, "composition_defense");
    // The clean fresh scale block passes every in-run gate; the
    // committed block's own poisons never gate (in-run gates read the
    // fresh side only), and its different (size, shards) downgrades the
    // cross-run digest pin to a note.
    assert_silent(&report, "large_100k");
    assert_notes(&report, "large_100k config changed");
}

#[test]
fn vanished_eval_block_fires_the_disappearance_gate() {
    // A fresh run that silently drops the hypothesis-testing block is a
    // regression, not growth-in-reverse: strip the eval block (and only
    // it) from the clean fixture and the dedicated gate must fire. With
    // no fresh cells, every other eval gate — including the cross-run
    // drift pin — has nothing to bind to and must stay silent rather
    // than panic or double-report.
    let mut bench = parse(CLEAN).bench;
    bench.eval = None;
    let stripped = bench.to_json();
    assert!(parse(&stripped).bench.eval.is_none());
    let report = compare_baselines(CLEAN, &stripped);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert!(report.violations[0].contains("eval (hypothesis-testing) block disappeared"));
}
