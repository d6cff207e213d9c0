//! The perf-smoke gate: diffs a fresh `BENCH_sweep.json` against the
//! committed baseline and reports regressions.
//!
//! Both sides of the diff are read with the writer's own codec:
//! [`parse_baseline`] is [`json::parse`] plus [`QuickBench::from_value`]
//! (the schema in [`crate::codec`]), so the gate reads exactly the
//! [`crate::perf`] structs [`QuickBench::to_json`] encoded, at the
//! precision the file prints.
//!
//! [`compare_baselines`] (run by `repro --quick --compare BASELINE` and
//! the CI perf-smoke step) refuses to gate a baseline that fails
//! structural sanity — not valid JSON (a truncated file), not decodable
//! as a bench (a missing key, a wrong type, an unknown stage name), or
//! without stage rows — and otherwise runs the gate's rule table,
//! `RULES`, in order: one function per block, each documented with what
//! it checks. This module is the one place the rules are listed. Most
//! rules are built from four shapes, each written once:
//!
//! * block presence: a block the committed file carries must not vanish;
//! * keyed-row roster: each distinct committed key keeps a fresh row;
//! * matched-configuration pin: where the two runs share a key, a fresh
//!   row or value must agree with the committed one;
//! * counter-vs-ledger reconciliation: an obs counter must equal the
//!   ledger total written by the same source line.

use std::collections::{BTreeMap, BTreeSet};

use fred_recover::{json, Artifact};

use crate::perf::{
    DefenseBench, EvalCellRow, Large100kBench, ProfileBench, QuickBench, RecoveryBench,
    RobustnessBenchRow, StageTiming,
};

/// A stage may regress up to this factor before the gate fails (CI
/// runners are noisy; superlinear blow-ups clear 3× immediately).
pub const MAX_STAGE_REGRESSION: f64 = 3.0;

/// Minimum required compiled-vs-interpreted estimate speedup.
pub const MIN_BATCH_SPEEDUP: f64 = 2.0;

/// Minimum required parallel-vs-sequential harvest speedup on ≥ 4 cores.
pub const MIN_HARVEST_SPEEDUP: f64 = 2.0;

/// Cores below which the harvest-speedup check is vacuous.
pub const HARVEST_SPEEDUP_MIN_CORES: usize = 4;

/// Committed wall-clocks below this are too fast to ratio meaningfully:
/// the baseline and the fresh run are usually taken on *different
/// machines* (a dev box vs a CI runner), where a millisecond-scale stage
/// can miss 3x on clock-speed and scheduler differences alone. Every hot
/// stage the gate exists for (MDAV, harvest, estimates — especially
/// their `_large` variants) sits one to three orders of magnitude above
/// this floor.
pub const STAGE_FLOOR_MS: f64 = 2.0;

/// A faulted robustness row's harvest precision may fall at most this
/// far below the committed row at the same fault rate (corruption is
/// seeded, so rate-matched rows measure the same injected pattern).
pub const ROBUSTNESS_PRECISION_SLACK: f64 = 0.25;

/// A faulted robustness row's composition gain must keep at least this
/// fraction of the committed gain at the same fault rate.
pub const ROBUSTNESS_GAIN_FLOOR: f64 = 0.5;

/// Ceiling on the disabled-tracing overhead probe, as a percentage of
/// the large block's total stage wall. The probe times
/// [`crate::perf::OVERHEAD_PROBE_CALLS`] counter calls against the
/// disabled collector — the cost every uninstrumented run pays.
pub const MAX_OBS_OVERHEAD_PCT: f64 = 3.0;

/// Ceiling on the `large_100k` block's peak resident set, in MiB. The
/// block exists to prove the 100k pipeline keeps memory flat in the row
/// count — an intersection over full-master-width bitsets per
/// equivalence class alone would breach it — so a breach is the very
/// regression the stage guards against. Skipped when the run
/// recorded `0.0` (deterministic mode, or `/proc` unavailable).
pub const MAX_100K_PEAK_RSS_MB: f64 = 2048.0;

/// A fresh eval cell's AUC may dip at most this far below chance-level
/// 0.5: finite decoy populations are noisy, and a defense can push the
/// attacker slightly *past* chance in the wrong direction, but a score
/// that systematically prefers decoys is a scoring-path bug.
pub const EVAL_AUC_SLACK: f64 = 0.05;

/// Tolerance for the ε ordering gates (non-increasing in `k`, defended
/// ≤ undefended) — covers the baseline's 4-decimal print rounding on
/// both sides of a comparison, nothing more.
pub const EVAL_EPSILON_SLACK: f64 = 1e-3;

/// Cross-run drift tolerance per eval metric at a matched `(k, R,
/// defense)` cell when seed and populations match: the cell is seeded
/// and deterministic, so anything past print rounding plus last-ulp
/// libm skew is a behavior change.
pub const EVAL_DRIFT_SLACK: f64 = 0.05;

/// The `large_100k` equivalence digest pairs, `(path, reference, label)`:
/// each path's digest must equal its reference's in-run. The harvest
/// pair digests the full harvest and its exhaustive reference over the
/// same seeded row sample.
pub const DIGEST_PAIRS: [(&str, &str, &str); 3] = [
    ("harvest_engine", "harvest_reference", "harvest"),
    ("mdav_optimized", "mdav_reference", "hierarchical MDAV"),
    ("intersect_engine", "intersect_oracle", "intersection"),
];

/// A decoded baseline: the bench the file encodes, with every row that
/// carried a non-finite value removed from its series.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// The decoded bench.
    pub bench: QuickBench,
    /// `path: text` of each row — and each scalar outside rows — that
    /// carried a non-finite value, where `path` is the dotted key path of
    /// the row's array or of the scalar. Every entry is a gate violation,
    /// on either side of the diff.
    pub malformed_rows: Vec<String>,
}

impl Baseline {
    /// Stage name → wall milliseconds over the quick, large and 100k
    /// stage lists (one namespace: large stages carry a `_large` or
    /// `_100k` suffix by construction).
    pub fn stage_wall_ms(&self) -> BTreeMap<&'static str, f64> {
        all_stages(&self.bench)
            .map(|s| (s.name, s.wall_ms))
            .collect()
    }
}

/// The quick, large and 100k stage lists of a bench, in that order.
fn all_stages(b: &QuickBench) -> impl Iterator<Item = &StageTiming> {
    let large = b.large.iter().flat_map(|l| &l.stages);
    b.stages
        .iter()
        .chain(large)
        .chain(b.large_100k.iter().flat_map(|l| &l.stages))
}

/// The outcome of [`compare_baselines`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Human-readable observations that did not fail the gate.
    pub notes: Vec<String>,
    /// Gate failures; empty means the fresh run passed.
    pub violations: Vec<String>,
}

impl CompareReport {
    fn fail(&mut self, violation: impl Into<String>) {
        self.violations.push(violation.into());
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Parses a `BENCH_sweep.json` with the writer's codec. A row carrying a
/// non-finite number drops out of its series and is listed, with its
/// array's key path, in [`Baseline::malformed_rows`], as is each
/// non-finite scalar outside rows. `Err` names the structural defect of
/// a corrupt file.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut value = json::parse(text).ok_or("not valid JSON (truncated write?)")?;
    let mut malformed_rows = Vec::new();
    drop_non_finite(&mut value, "", &mut malformed_rows);
    let bench = QuickBench::from_value(&value)
        .ok_or("does not decode as a BENCH_sweep.json (missing key, wrong type or unknown name)")?;
    if bench.stages.is_empty() {
        return Err("no stage rows found".into());
    }
    Ok(Baseline {
        bench,
        malformed_rows,
    })
}

/// True when any number inside `value` is non-finite.
fn has_non_finite(value: &json::Value) -> bool {
    match value {
        json::Value::Num(n) => !n.is_finite(),
        json::Value::Arr(items) => items.iter().any(has_non_finite),
        json::Value::Obj(pairs) => pairs.iter().any(|(_, v)| has_non_finite(v)),
        _ => false,
    }
}

/// Removes every array entry (row) that carries a non-finite number and
/// records it as `path: text` under its array's dotted key path; a
/// non-finite scalar outside rows stays in place (the gate reads around
/// it) and is recorded under its own dotted key path.
fn drop_non_finite(value: &mut json::Value, path: &str, malformed: &mut Vec<String>) {
    match value {
        json::Value::Arr(items) => items.retain(|item| {
            let bad = has_non_finite(item);
            if bad {
                malformed.push(format!("{path}: {}", json::render(item)));
            }
            !bad
        }),
        json::Value::Obj(pairs) => {
            for (key, child) in pairs {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                match child {
                    json::Value::Num(n) if !n.is_finite() => {
                        malformed.push(format!("{path}: {}", json::render(child)));
                    }
                    _ => drop_non_finite(child, &path, malformed),
                }
            }
        }
        _ => {}
    }
}

/// One gate rule: reads the committed and the fresh baseline and appends
/// its findings to the report.
type Rule = fn(&Baseline, &Baseline, &mut CompareReport);

/// The gate, in report order.
const RULES: &[Rule] = &[
    timing,
    composition,
    defense,
    eval,
    robustness,
    large_100k,
    recovery,
    profile,
    obs_ledgers,
    obs_counters,
    malformed_values,
    harvest_speedup,
];

/// Diffs a fresh baseline against the committed one: reports each side
/// that is structurally corrupt, and runs every rule of the gate's table
/// in order when both sides parse.
pub fn compare_baselines(committed_json: &str, fresh_json: &str) -> CompareReport {
    let (committed, fresh) = (parse_baseline(committed_json), parse_baseline(fresh_json));
    let mut report = CompareReport::default();
    // Structural corruption disarms every rule (an empty parse trivially
    // has no stages to regress, no blocks to lose), so it must refuse to
    // gate, loudly, before any rule runs.
    if let Err(err) = &committed {
        report.fail(format!(
            "committed baseline is structurally corrupt (regenerate it): {err}"
        ));
    }
    if let Err(err) = &fresh {
        report.fail(format!("fresh baseline is structurally corrupt: {err}"));
    }
    if let (Ok(committed), Ok(fresh)) = (&committed, &fresh) {
        for rule in RULES {
            rule(committed, fresh, &mut report);
        }
    }
    report
}

/// Block presence: a violation when the committed side carries `block`
/// and the fresh side lost it. True when the fresh side carries it.
fn present<T>(report: &mut CompareReport, block: &str, committed: &[T], fresh: &[T]) -> bool {
    if !committed.is_empty() && fresh.is_empty() {
        report.fail(format!("{block} disappeared from the fresh baseline"));
    }
    !fresh.is_empty()
}

/// Keyed-row roster: the distinct committed keys that no fresh row
/// carries, in committed order.
fn missing<K: Ord + Copy, I: IntoIterator<Item = K>>(committed: I, fresh: I) -> Vec<K> {
    let (fresh, mut reported): (BTreeSet<K>, _) = (fresh.into_iter().collect(), BTreeSet::new());
    let lost = |key: &K| !fresh.contains(key) && reported.insert(*key);
    committed.into_iter().filter(lost).collect()
}

/// Matched-configuration pin: each fresh row paired with the first
/// committed row that shares its `key`, as `(committed, fresh)`; the
/// caller holds the two to each other.
fn matched<'a, T, K: PartialEq>(
    committed: &'a [T],
    fresh: impl IntoIterator<Item = &'a T>,
    key: impl Fn(&'a T) -> K,
) -> Vec<(&'a T, &'a T)> {
    let partner = |now| committed.iter().find(|was| key(was) == key(now));
    fresh
        .into_iter()
        .filter_map(|now| Some((partner(now)?, now)))
        .collect()
}

/// Counter-vs-ledger reconciliation: each `(counter, total)` pair whose
/// counter in `p` (absent reads 0) disagrees with the `ledger` total
/// is a violation.
fn reconcile(report: &mut CompareReport, p: &ProfileBench, ledger: &str, sums: &[(&str, usize)]) {
    for &(name, total) in sums {
        let counted = counter(p, name).unwrap_or(0);
        if counted != total as u64 {
            report.fail(format!(
                "obs counter `{name}` = {counted} disagrees with the {ledger} ledger total \
                 {total} — counter and ledger are written by the same line, so a gap is \
                 dropped instrumentation"
            ));
        }
    }
}

/// The timing rules. A *committed* deterministic (checkpointed) baseline
/// is a violation: a checkpointed run zeroes every wall-clock at source
/// so resume can be bit-identical, and zeroed timings cannot gate
/// anything. `speedup_batch_vs_naive` must stay ≥ [`MIN_BATCH_SPEEDUP`];
/// no committed stage (quick, large or 100k) may disappear; and none may
/// run more than [`MAX_STAGE_REGRESSION`] times slower, committed stages
/// faster than [`STAGE_FLOOR_MS`] being skipped as noise. A fresh
/// deterministic run skips the speedup and regression checks, here and
/// in [`harvest_speedup`]; every other rule still applies to it in full.
fn timing(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    if c.bench.deterministic {
        report.fail(
            "committed baseline is a deterministic (checkpointed) run — its zeroed \
             timings disarm every timing gate; regenerate it without --checkpoint-dir",
        );
    }
    // A non-finite speedup (or any other scalar) is already a
    // malformed-value violation; it must not also pass as a note.
    let (speedup, det) = (f.bench.speedup_batch_vs_naive, f.bench.deterministic);
    if det {
        report.note("fresh run is deterministic (checkpointed): timing gates skipped");
    } else if speedup < MIN_BATCH_SPEEDUP {
        report.fail(format!(
            "speedup_batch_vs_naive fell to {speedup:.2} (must stay >= {MIN_BATCH_SPEEDUP:.1})"
        ));
    } else if speedup.is_finite() {
        report.note(format!("speedup_batch_vs_naive = {speedup:.2}"));
    }
    let (committed, fresh) = (c.stage_wall_ms(), f.stage_wall_ms());
    for name in missing(committed.keys(), fresh.keys()) {
        report.fail(format!(
            "stage `{name}` disappeared from the fresh baseline"
        ));
    }
    for (name, &was) in committed.iter().filter(|_| !det) {
        // A vanished stage reads NaN, which passes no ratio check.
        let now = fresh.get(name).copied().unwrap_or(f64::NAN);
        let ratio = now / was;
        if was >= STAGE_FLOOR_MS && ratio > MAX_STAGE_REGRESSION {
            report.fail(format!(
                "stage `{name}` regressed {ratio:.2}x ({was:.3} ms -> {now:.3} ms, \
                 limit {MAX_STAGE_REGRESSION:.1}x)"
            ));
        }
    }
}

/// Each composition block — the quick-world `composition` stage and,
/// independently, the 10k-row `composition_large` stage inside `large` —
/// must not vanish, its per-record disclosure gain must be *strictly
/// increasing* in the number of composed releases, and its mean
/// candidate count must never rise with an added release (composition
/// only adds constraints).
fn composition(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let quick = [c, f].map(|b| b.bench.composition.as_ref());
    let large = [c, f].map(|b| b.bench.large.as_ref().and_then(|l| l.composition.as_ref()));
    for (label, blocks) in [("composition", quick), ("composition_large", large)] {
        let [committed, fresh] = blocks.map(|b| rows_of(b, |b| &b.rows));
        present(report, &format!("{label} stage"), committed, fresh);
        for pair in fresh.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (r0, g0, c0) = (a.releases, a.disclosure_gain, a.mean_candidates);
            let (r1, g1, c1) = (b.releases, b.disclosure_gain, b.mean_candidates);
            if g1 <= g0 {
                report.fail(format!(
                    "{label} disclosure gain not strictly increasing: R={r0} -> {g0:.1}, \
                     R={r1} -> {g1:.1}"
                ));
            }
            if c1 > c0 + 1e-9 {
                report.fail(format!(
                    "{label} candidate count rose with an added release: R={r0} -> {c0:.2}, \
                     R={r1} -> {c1:.2}"
                ));
            }
        }
        if let Some(last) = fresh.last() {
            let (r, gain) = (last.releases, last.disclosure_gain);
            report.note(format!("{label} disclosure gain at R={r} is {gain:.1}"));
        }
    }
}

/// The `composition_defense` block must not vanish, and while it is
/// present neither may any committed policy. A deployed policy that
/// stops defending is a regression just like a slowed stage: per fresh
/// policy, the residual disclosure gain at its top release count must
/// stay *strictly below* the undefended gain at the same `R`, and every
/// `calibrated_widen_*` row must keep `mean_candidates >= k` (the
/// block's own `k`), the floor the calibration exists to hold. A defense
/// row is a pure function of (seed, size, k, overlap, policy, R), so
/// when the committed block was taken at the fresh run's seed, size, `k`
/// and overlap, each `(policy, releases)` row is pinned value-for-value.
fn defense(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let blocks = [c, f].map(|b| b.bench.composition_defense.as_ref());
    let [committed, fresh] = blocks.map(|b| rows_of(b, |d| &d.rows));
    if !present(report, "composition_defense stage", committed, fresh) {
        return;
    }
    let [old, new] = [committed, fresh].map(|rows| rows.iter().map(|r| r.policy.as_str()));
    for policy in missing(old, new) {
        report.fail(format!(
            "defense `{policy}` disappeared from the fresh baseline"
        ));
    }
    let k = blocks[1].map_or(0, |d| d.k);
    for (i, first) in fresh.iter().enumerate() {
        let policy = &first.policy;
        let rows = fresh.iter().filter(|r| &r.policy == policy);
        if fresh[..i].iter().any(|r| &r.policy == policy) {
            continue;
        }
        let last = rows.clone().max_by_key(|r| r.releases).unwrap_or(first);
        let (residual, undefended, r) = (last.residual_gain, last.undefended_gain, last.releases);
        let cost = last.utility_cost;
        if r > 1 && residual >= undefended {
            report.fail(format!(
                "defense `{policy}` residual gain {residual:.1} is not strictly below the \
                 undefended gain {undefended:.1} at R={r}"
            ));
        } else if r > 1 {
            report.note(format!(
                "defense `{policy}`: residual gain {residual:.1} vs undefended {undefended:.1} \
                 at R={r} (utility cost {cost:.1})"
            ));
        }
        let widen = policy.starts_with("calibrated_widen");
        for row in rows.filter(|row| widen && row.mean_candidates + 1e-9 < k as f64) {
            let (floor, r) = (row.mean_candidates, row.releases);
            report.fail(format!(
                "defense `{policy}` mean candidates fell to {floor:.2} at R={r} (must stay >= k = {k})"
            ));
        }
    }
    let config = |b: &Baseline, d: Option<&DefenseBench>| {
        (b.bench.seed, b.bench.size, d.map(|d| (d.k, d.overlap)))
    };
    if config(c, blocks[0]) != config(f, blocks[1]) {
        return;
    }
    for (was, now) in matched(committed, fresh, |r| (r.policy.as_str(), r.releases)) {
        if was != now {
            report.fail(format!(
                "defense `{}` row at R={} drifted from the committed baseline (the defense \
                 is seeded and deterministic): committed {was:?}, fresh {now:?}",
                was.policy, was.releases
            ));
        }
    }
}

/// The `eval` (hypothesis-testing) block must not vanish, and every fresh
/// cell — even against a committed baseline that predates the block —
/// must score both populations, keep its AUC in `[0.5 −`
/// [`EVAL_AUC_SLACK`]`, 1.0]`, its TPR@10⁻³ in `[0, 1]` and its empirical
/// ε non-negative. Stronger anonymity must not leak more: within an `(R,
/// defense)` group, ε is non-increasing in `k`; and a deployed defense
/// must not make the attacker's test better than the undefended cell at
/// the same `(k, R)`, which must exist. A cell is a pure function of
/// (seed, size, defense): at the committed seed, each fresh cell matched
/// on `(k, R, defense, targets, decoys)` must stay within
/// [`EVAL_DRIFT_SLACK`] of its committed cell in AUC, TPR@10⁻³ and ε; a
/// note says so when that pin cannot bind, so it is never silently
/// vacuous. (A cell with a non-finite value is a [`malformed_values`]
/// violation instead.)
fn eval(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let [committed, fresh] = [c, f].map(|b| rows_of(b.bench.eval.as_ref(), |e| &e.rows));
    if !present(report, "eval (hypothesis-testing) block", committed, fresh) {
        return;
    }
    let low = 0.5 - EVAL_AUC_SLACK;
    for row in fresh {
        let cell = format!("eval cell k={} R={} `{}`", row.k, row.releases, row.defense);
        let (auc, tpr, eps) = (row.auc, row.tpr_at_fpr3, row.epsilon);
        if row.targets == 0 || row.decoys == 0 {
            report.fail(format!(
                "{cell} scored an empty population ({} targets, {} decoys) — both classes \
                 are required for a hypothesis test",
                row.targets, row.decoys
            ));
        }
        if auc < low || auc > 1.0 + 1e-9 {
            report.fail(format!(
                "{cell} AUC {auc:.4} is outside [{low:.2}, 1.0] — the score must discriminate \
                 no worse than chance and cannot beat a perfect test"
            ));
        }
        if !(0.0..=1.0 + 1e-9).contains(&tpr) {
            report.fail(format!("{cell} TPR@1e-3 {tpr:.4} is outside [0, 1]"));
        }
        if eps < -EVAL_EPSILON_SLACK {
            report.fail(format!(
                "{cell} empirical ε {eps:.4} is negative — the Laplace-corrected max \
                 log-likelihood ratio over thresholds includes the accept-nothing \
                 threshold, so it cannot fall below 0"
            ));
        }
    }
    for (a, b) in fresh.iter().flat_map(|a| fresh.iter().map(move |b| (a, b))) {
        if (a.defense == b.defense && a.releases == b.releases && a.k < b.k)
            && b.epsilon > a.epsilon + EVAL_EPSILON_SLACK
        {
            report.fail(format!(
                "eval ε rose with k at R={} `{}`: k={} -> {:.4}, k={} -> {:.4} — stronger \
                 anonymity must not leak more",
                a.releases, a.defense, a.k, a.epsilon, b.k, b.epsilon
            ));
        }
    }
    for row in fresh.iter().filter(|r| r.defense != "none") {
        let (k, r, defense, eps) = (row.k, row.releases, &row.defense, row.epsilon);
        let reference = |u: &&EvalCellRow| u.defense == "none" && u.k == k && u.releases == r;
        match fresh.iter().find(reference).map(|u| u.epsilon) {
            Some(undefended) if eps > undefended + EVAL_EPSILON_SLACK => report.fail(format!(
                "eval defended ε {eps:.4} under `{defense}` exceeds the undefended ε \
                 {undefended:.4} at the same (k={k}, R={r}) — the defense made the attacker's \
                 test stronger"
            )),
            Some(_) => {}
            None => report.fail(format!(
                "eval defended cell `{defense}` at (k={k}, R={r}) has no undefended reference \
                 cell to gate against"
            )),
        }
    }
    let n = fresh.len();
    if committed.is_empty() {
        report.note(format!(
            "committed baseline predates the eval block: in-run eval gates applied over {n} \
             cell(s); cross-run drift pin starts once the baseline is regenerated"
        ));
    } else if c.bench.seed != f.bench.seed {
        report.note("eval seed changed: cross-run drift pin skipped, in-run gates still applied");
    }
    let same_seed = c.bench.seed == f.bench.seed;
    let key = |r: &EvalCellRow| (r.k, r.releases, r.defense.clone(), r.targets, r.decoys);
    for (was, now) in matched(committed, fresh.iter().filter(|_| same_seed), key) {
        let (k, r, defense) = (now.k, now.releases, &now.defense);
        for (metric, v, w) in [
            ("AUC", now.auc, was.auc),
            ("TPR@1e-3", now.tpr_at_fpr3, was.tpr_at_fpr3),
            ("ε", now.epsilon, was.epsilon),
        ] {
            if (v - w).abs() > EVAL_DRIFT_SLACK {
                report.fail(format!(
                    "eval {metric} drifted at (k={k}, R={r}, `{defense}`): {v:.4} vs committed \
                     {w:.4} — the cell is seeded and deterministic, so this is a behavior change"
                ));
            }
        }
    }
    let undefended = fresh.iter().filter(|r| r.defense == "none");
    if let Some(top) = undefended.max_by_key(|r| (r.k, r.releases)) {
        let (k, r, auc, eps) = (top.k, top.releases, top.auc, top.epsilon);
        report.note(format!(
            "eval: {n} cell(s); undefended k={k} R={r} reaches AUC {auc:.4}, ε {eps:.4}"
        ));
    }
}

/// The `robustness` block must not vanish, and its zero-fault row must
/// exist, have survived **zero** defects, and match the committed
/// zero-fault row value-for-value: the fault-free path *is* the strict
/// pipeline, so any drift there is a zero-fault behavior change. Each
/// faulted row is held to the committed envelope at the same
/// `(fault_rate, mode)` pair: harvest precision within
/// [`ROBUSTNESS_PRECISION_SLACK`], composition gain at least
/// [`ROBUSTNESS_GAIN_FLOOR`] of the committed gain. Corruption is
/// seeded, so rate-matched rows measure the identical injected pattern;
/// the worst-case `targeted` row shares its rate with a uniform row by
/// design and gates against the committed targeted row only, and a
/// committed targeted row must not vanish.
fn robustness(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let [committed, fresh] = [c, f].map(|b| rows_of(b.bench.robustness.as_ref(), |r| &r.rows));
    if !present(report, "robustness stage", committed, fresh) {
        return;
    }
    let zero = fresh.iter().find(|r| r.fault_rate == 0.0);
    match zero.map(|z| z.defects()) {
        None => report.fail("robustness block carries no zero-fault reference row"),
        Some(0) => {}
        Some(n) => report.fail(format!(
            "zero-fault robustness row survived {n} defect(s) — the fault-free path must be \
             an exact passthrough"
        )),
    }
    for (was, now) in matched(committed, zero, |r| r.fault_rate) {
        if was != now {
            report.fail(format!(
                "zero-fault robustness row drifted from the committed baseline (fault-free \
                 output must stay bit-identical): committed {was:?}, fresh {now:?}"
            ));
        }
    }
    let faulted = fresh.iter().filter(|r| r.fault_rate != 0.0);
    for (was, now) in matched(committed, faulted, |r| (r.fault_rate, r.mode)) {
        let (mode, rate) = (now.mode, now.fault_rate);
        let (precision, floor) = (now.harvest_precision, was.harvest_precision);
        if precision + ROBUSTNESS_PRECISION_SLACK < floor {
            report.fail(format!(
                "robustness harvest precision at {mode} fault rate {rate:.3} fell to \
                 {precision:.4} (committed {floor:.4}, slack {ROBUSTNESS_PRECISION_SLACK})"
            ));
        }
        let (gain, base) = (now.composition_gain, was.composition_gain);
        if base > 0.0 && gain < base * ROBUSTNESS_GAIN_FLOOR {
            report.fail(format!(
                "robustness composition gain at {mode} fault rate {rate:.3} fell to {gain:.1} \
                 (committed {base:.1}, floor {ROBUSTNESS_GAIN_FLOOR} of it)"
            ));
        }
    }
    let [old, new] = [committed, fresh].map(|rows| rows.iter().map(|r| r.mode));
    if missing(old, new).contains(&"targeted") {
        report.fail("targeted (worst-case) robustness row disappeared from the fresh baseline");
    }
    if let Some(top) = fresh.last() {
        let (precision, gain, n) = (top.harvest_precision, top.composition_gain, top.defects());
        let (mode, rate) = (top.mode, top.fault_rate);
        report.note(format!(
            "robustness: precision {precision:.3}, gain {gain:.1} at {mode} fault rate \
             {rate:.3} ({n} defects survived, zero panics)"
        ));
    }
}

/// The `large_100k` block must not vanish, and a fresh block — even
/// against a committed baseline that predates it — must have each of the
/// [`DIGEST_PAIRS`] agree in-run and its peak rss at most
/// [`MAX_100K_PEAK_RSS_MB`]. The scale pipeline is a pure function of
/// (seed, size, MDAV leaves): when the committed block shares the fresh
/// run's seed, size and `shards`, all six digests are pinned exactly; a
/// note says why the pin steps aside otherwise.
fn large_100k(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let [committed, fresh] = [c, f].map(|b| b.bench.large_100k.as_slice());
    if !present(report, "large_100k block", committed, fresh) {
        return;
    }
    let big = &fresh[0];
    let (size, shards, rss) = (big.size, big.shards, big.peak_rss_mb);
    let digests: BTreeMap<_, _> = big.digests().into_iter().collect();
    for (path, reference, label) in DIGEST_PAIRS {
        let (s, u) = (digests[path], digests[reference]);
        if s != u {
            report.fail(format!(
                "large_100k {label} diverged from its reference: digest {s:016x} vs \
                 reference {u:016x}"
            ));
        }
    }
    if rss > MAX_100K_PEAK_RSS_MB {
        report.fail(format!(
            "large_100k peak rss reached {rss:.1} MiB at {size} rows (must stay <= \
             {MAX_100K_PEAK_RSS_MB:.0} MiB — the scale pipeline's memory must not scale \
             with the master width)"
        ));
    }
    match committed.first() {
        Some(base) if (base.size, base.shards, c.bench.seed) == (size, shards, f.bench.seed) => {
            if base.digests() != big.digests() {
                let (was, now) = (hex_digests(base), hex_digests(big));
                report.fail(format!(
                    "large_100k digests drifted at the same (seed, size {size}, shards \
                     {shards}) — the scale pipeline is seeded and deterministic, so this is a \
                     behavior change: committed {was}, fresh {now}"
                ));
            }
        }
        Some(base) => report.note(format!(
            "large_100k config changed (committed size {} / {} shards, fresh size {size} / \
             {shards} shards): cross-run digest pin skipped, in-run equivalence still gated",
            base.size, base.shards
        )),
        None => report.note(format!(
            "committed baseline predates the large_100k block: in-run gates applied at size \
             {size} / {shards} shards; cross-run digest pin starts once the baseline is \
             regenerated"
        )),
    }
    if rss.is_finite() {
        report.note(format!(
            "large_100k: {size} rows, MDAV leaves {shards}, peak rss {rss:.1} MiB"
        ));
    }
}

/// The `recovery` ledger — the witness that the runner absorbed every
/// injected transient — must not vanish, and `escaped_panics` is pinned
/// at zero. Injection sites hash only (plan seed, stage, attempt), so at
/// the committed `(seed, transient_rate, max_attempts)` triple the total
/// retry count is pinned exactly; and no committed stage row may vanish
/// from the fresh ledger.
fn recovery(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let [committed, fresh] = [c, f].map(|b| b.bench.recovery.as_slice());
    if !present(report, "recovery ledger", committed, fresh) {
        return;
    }
    let rec = &fresh[0];
    let (retries, rate, panics) = (rec.retries_total, rec.transient_rate, rec.escaped_panics);
    if panics != 0 {
        report.fail(format!(
            "recovery ledger reports {panics} escaped panic(s) — every injected transient must \
             be absorbed by the retry policy"
        ));
    } else {
        let n = rec.rows.len();
        report.note(format!(
            "recovery: {retries} retries absorbed across {n} stage(s) at transient rate \
             {rate:.3}, zero escaped panics"
        ));
    }
    let (seed, attempts) = (rec.seed, rec.max_attempts);
    let key = |r: &RecoveryBench| (r.seed, r.transient_rate, r.max_attempts);
    for (was, _) in matched(committed, [rec], key) {
        if was.retries_total != retries {
            report.fail(format!(
                "recovery retry trace drifted: {retries} total retries vs committed {} at the \
                 same (seed {seed}, transient rate {rate:.3}, max attempts {attempts}) — seeded \
                 injection makes this a pure function of that triple",
                was.retries_total
            ));
        }
    }
    let [old, new] =
        [committed, fresh].map(|b| b.iter().flat_map(|b| &b.rows).map(|r| r.stage.as_str()));
    for stage in missing(old, new) {
        report.fail(format!(
            "recovery stage `{stage}` vanished from the fresh ledger"
        ));
    }
}

/// The `profile` block must not vanish, its span-tree digest is pinned
/// exactly, and no committed profile stage row may vanish. The tree
/// wraps each runner stage *outside* its compute closure, so it is a
/// pure function of the enabled stages — identical across fresh,
/// deterministic and resumed runs. On a fresh non-deterministic profile
/// the measured cost of *disabled* tracing must stay under
/// [`MAX_OBS_OVERHEAD_PCT`] of the large block's wall; a deterministic
/// profile skips this, [`obs_ledgers`] and [`obs_counters`].
fn profile(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let [committed, fresh] = [c, f].map(|b| b.bench.profile.as_slice());
    if !present(report, "profile block", committed, fresh) {
        return;
    }
    let prof = &fresh[0];
    let tree = &prof.span_tree_digest;
    if let Some(base) = committed.first() {
        let was = &base.span_tree_digest;
        if was != tree {
            report.fail(format!(
                "span tree digest drifted: fresh {tree} vs committed {was} — the tree is a pure \
                 function of the enabled stages, so this is a structural pipeline change, not \
                 noise"
            ));
        }
        let [old, new] = [base, prof].map(|p| p.stages.iter().map(|s| s.stage.as_str()));
        for stage in missing(old, new) {
            report.fail(format!(
                "profile stage `{stage}` disappeared from the fresh profile"
            ));
        }
    }
    if prof.deterministic {
        return report.note("fresh profile is deterministic: overhead and counter gates skipped");
    }
    let (pct, calls) = (prof.overhead_pct_of_large, prof.overhead_probe_calls);
    if pct > MAX_OBS_OVERHEAD_PCT {
        report.fail(format!(
            "disabled-tracing overhead reached {pct:.3}% of the large block over {calls} probe \
             calls (must stay < {MAX_OBS_OVERHEAD_PCT}%)"
        ));
    }
    if pct.is_finite() {
        let (spans, counters) = (prof.spans_total, prof.counters.len());
        report.note(format!(
            "profile: {spans} spans (tree {tree}), {counters} counters; disabled-tracing probe \
             at {pct:.2}% of the large block"
        ));
    }
}

/// On a fresh non-deterministic profile with counter rows, the obs
/// counters reconcile *exactly* against the other ledgers in the same
/// file: the four `faults.*` counters against the robustness rows'
/// summed degradation fields, the `harvest.name_ms` histogram's
/// observation count against `harvest.names`, and `recover.attempts` /
/// `recover.retries` against the recovery ledger. Each pair is written
/// by the same source line or routine, so any gap is dropped
/// instrumentation, not noise. (`recover.quarantines` is reconciled
/// in-process by `tests/obs_reconcile.rs`: quarantines need a checkpoint
/// store, whose deterministic runs omit counters.)
fn obs_ledgers(_: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let Some(prof) = counted(f) else {
        return;
    };
    let rob = rows_of(f.bench.robustness.as_ref(), |r| &r.rows);
    let total = |field: fn(&RobustnessBenchRow) -> usize| rob.iter().map(field).sum();
    let faults = [
        ("faults.pages_rejected", total(|r| r.pages_rejected)),
        ("faults.rows_skipped", total(|r| r.rows_skipped)),
        ("faults.fields_imputed", total(|r| r.fields_imputed)),
        ("faults.workers_restarted", total(|r| r.workers_restarted)),
    ];
    if !rob.is_empty() {
        reconcile(report, prof, "robustness", &faults);
    }
    let hist = prof.hists.iter().find(|h| h.name == "harvest.name_ms");
    if let (Some(hist), Some(names)) = (hist, counter(prof, "harvest.names")) {
        let recorded = hist.count;
        if recorded != names {
            report.fail(format!(
                "obs histogram `harvest.name_ms` recorded {recorded} observation(s) but counter \
                 `harvest.names` = {names} — both are written by the same per-name harvest \
                 routine, so a gap is dropped instrumentation"
            ));
        }
    }
    if let Some(rec) = &f.bench.recovery {
        let (attempts, retries) = (rec.rows.iter().map(|r| r.attempts).sum(), rec.retries_total);
        let sums = [("recover.attempts", attempts), ("recover.retries", retries)];
        reconcile(report, prof, "recovery", &sums);
    }
}

/// Every obs counter is a deterministic work counter — a pure function
/// of the workload, each reading identically at pool widths 1, 2 and 4
/// over repeated CI perf-smoke runs — so when both runs share a
/// configuration (seed, per-stage row counts, span-tree digest and fault
/// rates), each counter on either side must equal its committed value,
/// an absent counter reading 0: a silent algorithmic change and a stale
/// baseline both fail here. Deterministic runs omit counters, so the pin
/// skips a deterministic fresh profile.
fn obs_counters(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let (Some(base), Some(prof)) = (&c.bench.profile, counted(f)) else {
        return;
    };
    let [config_c, config_f] = [&c.bench, &f.bench].map(|b| {
        let stages: Vec<_> = all_stages(b).map(|s| (s.name, s.rows)).collect();
        let faults = b.robustness.as_ref().map(|r| r.max_rate);
        let transients = b.recovery.as_ref().map(|r| r.transient_rate);
        (b.seed, stages, faults, transients)
    });
    if (config_c, &base.span_tree_digest) != (config_f, &prof.span_tree_digest) {
        return;
    }
    let names = [base, prof].map(|p| p.counters.iter().map(|(n, _)| n.as_str()));
    for name in names.into_iter().flatten().collect::<BTreeSet<_>>() {
        let [was, now] = [base, prof].map(|p| counter(p, name).unwrap_or(0));
        if was != now {
            report.fail(format!(
                "obs counter `{name}` = {now} drifted from the committed {was} at the same \
                 configuration — work counters are pure functions of the workload, so this is \
                 an algorithmic change or a stale baseline"
            ));
        }
    }
}

/// Every row or scalar that carried a non-finite or unparseable number
/// is a violation, naming its dotted key path, on either side: a NaN
/// gain would otherwise sail through the strict-monotonicity check (NaN
/// comparisons are all false), and the rows of a corrupt committed
/// baseline drop out of the parsed series, so the presence and series
/// rules would silently stop guarding that block. Regenerating the
/// baseline is the remedy.
fn malformed_values(c: &Baseline, f: &Baseline, report: &mut CompareReport) {
    for line in &f.malformed_rows {
        report.fail(format!(
            "fresh baseline carries a non-finite or unparseable value at {line}"
        ));
    }
    for line in &c.malformed_rows {
        report.fail(format!(
            "committed baseline carries a non-finite or unparseable value at {line} \
             (regenerate it)"
        ));
    }
}

/// On a non-deterministic fresh run whose `large` block ran on ≥
/// [`HARVEST_SPEEDUP_MIN_CORES`] cores, the large-world harvest must keep
/// `speedup_harvest_parallel_vs_single` ≥ [`MIN_HARVEST_SPEEDUP`] —
/// `harvest_auxiliary` against the same call on a one-thread pool, so
/// the ratio is pure thread fan-out. The core count is read from the
/// `large` block itself, so a heterogeneous runner cannot gate the 10k
/// stage against the config block's cores.
fn harvest_speedup(_: &Baseline, f: &Baseline, report: &mut CompareReport) {
    let Some(large) = f.bench.large.as_ref().filter(|_| !f.bench.deterministic) else {
        return;
    };
    let (v, cores) = (large.speedup_harvest_parallel_vs_single, large.cores);
    if cores >= HARVEST_SPEEDUP_MIN_CORES && v < MIN_HARVEST_SPEEDUP {
        report.fail(format!(
            "harvest parallel speedup fell to {v:.2} on {cores} cores \
             (must stay >= {MIN_HARVEST_SPEEDUP:.1} on >= {HARVEST_SPEEDUP_MIN_CORES})"
        ))
    } else if v.is_finite() {
        report.note(format!(
            "harvest parallel speedup = {v:.2} on {cores} core(s)"
        ))
    }
}

/// The rows of an optional block; empty when the block is absent.
fn rows_of<'a, B, R>(block: Option<&'a B>, rows: impl FnOnce(&'a B) -> &'a Vec<R>) -> &'a [R] {
    block.map_or(&[], |b| rows(b))
}

/// The fresh profile, when it recorded counters (a deterministic run
/// omits them).
fn counted(f: &Baseline) -> Option<&ProfileBench> {
    f.bench
        .profile
        .as_ref()
        .filter(|p| !p.deterministic && !p.counters.is_empty())
}

/// A profile counter's total, if the run recorded it.
fn counter(prof: &ProfileBench, name: &str) -> Option<u64> {
    prof.counters.iter().find(|(n, _)| n == name).map(|c| c.1)
}

/// Renders a block's digests as `key=hex` for a drift message.
fn hex_digests(block: &Large100kBench) -> String {
    let pairs = block.digests().map(|(key, d)| format!("{key}={d:016x}"));
    pairs.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{
        quick_bench, CompositionBench, CompositionBenchRow, DefenseBench, DefenseBenchRow,
        Large100kBench, LargeBench, ProfileBench, ProfileStageRow, QuickBenchOptions,
        RecoveryBench, RecoveryBenchRow, RobustnessBench, RobustnessBenchRow, StageTiming,
    };
    use crate::world::WorldConfig;

    fn small_bench_json(large: Option<usize>) -> String {
        quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions {
                large_size: large,
                ..QuickBenchOptions::default()
            },
        )
        .to_json()
    }

    /// Asserts that some violation mentions `needle`.
    #[track_caller]
    fn assert_fires(report: &CompareReport, needle: &str) {
        assert!(
            report.violations.iter().any(|v| v.contains(needle)),
            "no violation mentions {needle:?}: {:?}",
            report.violations
        );
    }

    /// Diffs two baselines and asserts the fresh one passes every gate.
    #[track_caller]
    fn assert_passes(committed: &str, fresh: &str) -> CompareReport {
        let report = compare_baselines(committed, fresh);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        report
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
        parse_baseline(json).expect("baseline decodes")
    }

    /// A decoded writer baseline, mutated and re-rendered.
    fn edit(json: &str, mutate: impl FnOnce(&mut QuickBench)) -> String {
        let mut bench = parse(json).bench;
        mutate(&mut bench);
        bench.to_json()
    }

    /// `(releases, disclosure_gain, mean_candidates)` per composition row.
    fn series(rows: &[CompositionBenchRow]) -> Vec<(usize, f64, f64)> {
        rows.iter()
            .map(|r| (r.releases, r.disclosure_gain, r.mean_candidates))
            .collect()
    }

    #[test]
    fn parses_its_own_writer_round_trip() {
        let json = small_bench_json(Some(40));
        let b = parse(&json);
        let walls = b.stage_wall_ms();
        assert!(walls.contains_key("world_build"));
        assert!(walls.contains_key("mdav_k5"));
        assert!(walls.contains_key("mdav_k5_large"));
        assert!(walls.contains_key("harvest_parallel_large"));
        assert!(b.bench.speedup_batch_vs_naive.is_finite());
        let large = b.bench.large.as_ref().expect("large block decoded");
        assert!(large.speedup_harvest_parallel_vs_single.is_finite());
        assert!(b.bench.cores >= 1);
        assert!(large.cores >= 1);
        assert!(b.malformed_rows.is_empty());
    }

    #[test]
    fn both_composition_blocks_round_trip_separately() {
        let json = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                large_size: Some(40),
                compose: true,
                ..QuickBenchOptions::default()
            },
        )
        .to_json();
        let b = parse(&json);
        // Both series present, attributed to their own blocks, R = 1..=3
        // each — not nine rows pooled into one series.
        let releases =
            |rows: &[CompositionBenchRow]| rows.iter().map(|r| r.releases).collect::<Vec<_>>();
        let quick = b.bench.composition.as_ref().expect("composition block");
        let large = b.bench.large.as_ref().and_then(|l| l.composition.as_ref());
        assert_eq!(releases(&quick.rows), vec![1, 2, 3]);
        assert_eq!(
            releases(&large.expect("composition_large block").rows),
            vec![1, 2, 3]
        );
        assert!(b.stage_wall_ms().contains_key("composition_large"));
        assert!(b.malformed_rows.is_empty());
        // A self-diff passes the gates.
        let report = compare_baselines(&json, &json);
        assert!(
            report.violations.iter().all(|v| !v.contains("composition")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn identical_baselines_pass() {
        // Synthetic timings: a real timed run under parallel-test load can
        // legitimately dip below the speedup gate, which is not what this
        // test is about.
        let json = synthetic_json(100.0, 5.0);
        assert_passes(&json, &json);
    }

    #[test]
    fn slow_batch_speedup_fails() {
        let committed = synthetic_json(100.0, 5.0);
        let degraded = synthetic_json(100.0, 1.10);
        let report = compare_baselines(&committed, &degraded);
        assert_fires(&report, "speedup_batch_vs_naive");
    }

    /// A handcrafted baseline: timings are pinned so the test does not
    /// depend on how fast this machine happens to be.
    fn synthetic(mdav_ms: f64, speedup: f64) -> QuickBench {
        let stage = |name, wall_ms| StageTiming {
            name,
            wall_ms,
            rows: 120,
        };
        QuickBench {
            size: 120,
            seed: 2015,
            cores: 1,
            k_range: (2, 10),
            stages: vec![stage("world_build", 1.5), stage("mdav_k5", mdav_ms)],
            speedup_batch_vs_naive: speedup,
            large: None,
            large_100k: None,
            composition: None,
            composition_defense: None,
            eval: None,
            robustness: None,
            deterministic: false,
            recovery: None,
            profile: None,
            trace: None,
        }
    }

    fn synthetic_json(mdav_ms: f64, speedup: f64) -> String {
        synthetic(mdav_ms, speedup).to_json()
    }

    #[test]
    fn stage_blowup_fails() {
        // Committed: 100 ms (above floor). Fresh: 1000 ms — a 10x blow-up.
        let committed = synthetic_json(100.0, 5.0);
        let fresh = synthetic_json(1000.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "`mdav_k5` regressed");
        // Same blow-up ratio below the floor is ignored as noise.
        let committed = synthetic_json(STAGE_FLOOR_MS / 2.0, 5.0);
        let fresh = synthetic_json(STAGE_FLOOR_MS * 4.0, 5.0);
        assert_passes(&committed, &fresh);
    }

    /// A composition block whose `(releases, gain, candidates)` rows are
    /// caller-controlled.
    fn composition(wall_ms: f64, rows: &[(usize, f64, f64)]) -> CompositionBench {
        CompositionBench {
            k: 5,
            overlap: 0.5,
            wall_ms,
            rows: rows
                .iter()
                .map(
                    |&(releases, disclosure_gain, mean_candidates)| CompositionBenchRow {
                        releases,
                        disclosure_gain,
                        mean_candidates,
                        estimate_gain: 0.0,
                    },
                )
                .collect(),
        }
    }

    /// A synthetic baseline with a composition block whose rows are
    /// caller-controlled.
    fn synthetic_composition_json(rows: &[(usize, f64, f64)]) -> String {
        let mut b = synthetic(100.0, 5.0);
        b.composition = Some(composition(10.0, rows));
        b.to_json()
    }

    #[test]
    fn composition_rows_parse() {
        let json = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
        let b = parse(&json);
        let rows = &b.bench.composition.as_ref().expect("block decoded").rows;
        assert_eq!(series(rows), vec![(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
    }

    #[test]
    fn monotone_composition_passes_and_flat_gain_fails() {
        let committed =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)]);
        assert_passes(&committed, &committed);

        let flat = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 7000.0, 1.7)]);
        let report = compare_baselines(&committed, &flat);
        assert_fires(&report, "not strictly increasing");

        let rising_candidates =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 2.9)]);
        let report = compare_baselines(&committed, &rising_candidates);
        assert_fires(&report, "candidate count rose");
    }

    #[test]
    fn missing_composition_stage_fails() {
        let committed = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "composition stage disappeared");
    }

    #[test]
    fn non_finite_composition_rows_fail() {
        let committed =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)]);
        let poisoned =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, f64::NAN, 2.3), (3, 9000.0, 1.7)]);
        let b = parse(&poisoned);
        // The NaN row must not silently vanish from the series.
        assert_eq!(b.malformed_rows.len(), 1, "{:?}", b.malformed_rows);
        let report = compare_baselines(&committed, &poisoned);
        assert_fires(&report, "non-finite or unparseable");
        // A poisoned COMMITTED baseline must refuse to gate, not let a
        // fresh run with a vanished composition stage sail through
        // (the NaN row drops out of the committed series, so the
        // stage-disappeared check alone would never fire).
        let fresh_without_composition = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&poisoned, &fresh_without_composition);
        assert_fires(&report, "committed baseline carries");
    }

    #[test]
    fn non_finite_scalars_outside_rows_fail_both_sides() {
        // A NaN outside any row cannot drop out of a series: it is a
        // violation on either side of the diff and never a note.
        let clean = {
            let mut b = synthetic(100.0, 5.0);
            b.large_100k = Some(large_100k(200, 2));
            b.profile = Some(profile("00deadbeef00cafe", 0.5, &[("world_build", 1)], &[]));
            b
        };
        type Poison = fn(&mut QuickBench);
        let poisons: [(&str, Poison); 3] = [
            ("speedup_batch_vs_naive", |b| {
                b.speedup_batch_vs_naive = f64::NAN
            }),
            ("large_100k.peak_rss_mb", |b| {
                b.large_100k.as_mut().unwrap().peak_rss_mb = f64::NAN
            }),
            ("profile.overhead.pct_of_large", |b| {
                b.profile.as_mut().unwrap().overhead_pct_of_large = f64::NAN
            }),
        ];
        let clean_json = clean.to_json();
        assert!(compare_baselines(&clean_json, &clean_json)
            .violations
            .is_empty());
        for (key, poison) in poisons {
            let mut poisoned = clean.clone();
            poison(&mut poisoned);
            let poisoned = poisoned.to_json();
            assert_eq!(parse(&poisoned).malformed_rows, vec![format!("{key}: NaN")]);
            for (committed, fresh, side) in [
                (&clean_json, &poisoned, "non-finite"),
                (&poisoned, &clean_json, "committed baseline carries"),
            ] {
                let report = compare_baselines(committed, fresh);
                assert_eq!(report.violations.len(), 1, "{key}: {:?}", report.violations);
                assert!(
                    report.violations[0].contains(side) && report.violations[0].contains(key),
                    "{key}: {:?}",
                    report.violations
                );
                assert!(
                    !report.notes.iter().any(|n| n.contains("NaN")),
                    "{key}: {:?}",
                    report.notes
                );
            }
        }
    }

    /// A synthetic baseline with a `large` block carrying its own cores,
    /// a `composition_large` block, and a quick-world composition block —
    /// the full writer shape, with every number caller-pinned.
    fn synthetic_large_json(
        config_cores: usize,
        large_cores: usize,
        harvest_speedup: f64,
        large_rows: &[(usize, f64, f64)],
        quick_rows: &[(usize, f64, f64)],
    ) -> String {
        let mut b = synthetic(100.0, 5.0);
        b.stages.retain(|s| s.name == "mdav_k5");
        b.cores = config_cores;
        b.large = Some(LargeBench {
            size: 10_000,
            cores: large_cores,
            stages: vec![StageTiming {
                name: "harvest_parallel_large",
                wall_ms: 500.0,
                rows: 10_000,
            }],
            speedup_harvest_parallel_vs_single: harvest_speedup,
            composition: Some(composition(900.0, large_rows)),
        });
        b.composition = Some(composition(10.0, quick_rows));
        b.to_json()
    }

    #[test]
    fn large_composition_block_parses_and_gates_independently() {
        let good = synthetic_large_json(
            1,
            1,
            1.0,
            &[(1, 0.0, 5.0), (2, 4000.0, 2.8), (3, 6000.0, 2.1)],
            &[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)],
        );
        let b = parse(&good);
        let large = b.bench.large.as_ref().expect("large block decoded");
        let large_rows = &large.composition.as_ref().expect("composition_large").rows;
        assert_eq!(b.bench.composition.as_ref().unwrap().rows.len(), 3);
        assert_eq!(large_rows.len(), 3);
        assert_eq!(series(large_rows)[1], (2, 4000.0, 2.8));
        assert_eq!(large.cores, 1);
        assert_eq!(b.bench.cores, 1);
        assert_passes(&good, &good);

        // A flat *large* series fails even while the quick series is
        // fine — the blocks gate independently.
        let flat_large = synthetic_large_json(
            1,
            1,
            1.0,
            &[(1, 0.0, 5.0), (2, 4000.0, 2.8), (3, 4000.0, 2.1)],
            &[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)],
        );
        let report = compare_baselines(&good, &flat_large);
        assert_fires(&report, "composition_large disclosure gain");
    }

    #[test]
    fn harvest_gate_keys_off_the_large_blocks_cores() {
        let rows_l = [(1usize, 0.0, 5.0), (2, 4000.0, 2.8)];
        let rows_q = [(1usize, 0.0, 5.0), (2, 7000.0, 2.3)];
        // Config says 8 cores but the large block ran on 1: the weak
        // harvest speedup must NOT gate.
        let fresh = synthetic_large_json(8, 1, 1.0, &rows_l, &rows_q);
        let report = compare_baselines(&fresh, &fresh);
        assert_silent(&report, "harvest");
        // Config says 1 core but the large block ran on 8: the weak
        // speedup MUST gate.
        let fresh = synthetic_large_json(1, 8, 1.0, &rows_l, &rows_q);
        let report = compare_baselines(&fresh, &fresh);
        assert_fires(&report, "harvest parallel speedup fell");
    }

    /// A synthetic baseline with a `composition_defense` block whose
    /// rows are caller-controlled `(policy, releases, residual,
    /// undefended, candidates)`.
    fn synthetic_defense_json(k: usize, rows: &[(&str, usize, f64, f64, f64)]) -> String {
        let mut b = synthetic(100.0, 5.0);
        b.composition_defense = Some(DefenseBench {
            k,
            overlap: 0.5,
            wall_ms: 25.0,
            rows: rows
                .iter()
                .map(
                    |&(policy, releases, residual_gain, undefended_gain, mean_candidates)| {
                        DefenseBenchRow {
                            policy: policy.to_owned(),
                            releases,
                            residual_gain,
                            undefended_gain,
                            mean_candidates,
                            utility_cost: 100.0,
                        }
                    },
                )
                .collect(),
        });
        b.to_json()
    }

    #[test]
    fn defense_rows_parse_with_their_k() {
        let json = synthetic_defense_json(
            5,
            &[
                ("coordinated_seeds", 1, 0.0, 0.0, 5.0),
                ("coordinated_seeds", 3, 0.0, 9000.0, 5.0),
                ("calibrated_widen_k5", 3, 4000.0, 9000.0, 6.1),
            ],
        );
        let b = parse(&json);
        let defense = b.bench.composition_defense.as_ref().expect("block decoded");
        assert_eq!(defense.k, 5);
        assert_eq!(defense.rows.len(), 3);
        assert_eq!(defense.rows[1].policy, "coordinated_seeds");
        assert_eq!(defense.rows[1].undefended_gain, 9000.0);
        assert_eq!(defense.rows[2].mean_candidates, 6.1);
        assert!(b.malformed_rows.is_empty());
    }

    #[test]
    fn defended_policies_must_beat_the_undefended_gain() {
        let good = synthetic_defense_json(
            5,
            &[
                ("coordinated_seeds", 1, 0.0, 0.0, 5.0),
                ("coordinated_seeds", 3, 0.0, 9000.0, 5.0),
                ("overlap_cap_0.90", 3, 2000.0, 9000.0, 4.0),
            ],
        );
        let report = assert_passes(&good, &good);
        assert_notes(&report, "coordinated_seeds");

        // A policy whose residual gain reaches the undefended gain fails.
        let broken = synthetic_defense_json(
            5,
            &[
                ("coordinated_seeds", 3, 0.0, 9000.0, 5.0),
                ("overlap_cap_0.90", 3, 9000.0, 9000.0, 4.0),
            ],
        );
        let report = compare_baselines(&good, &broken);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("overlap_cap_0.90") && v.contains("strictly below")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn calibrated_widen_rows_gate_the_candidate_floor() {
        let good = synthetic_defense_json(
            5,
            &[
                ("calibrated_widen_k5", 2, 1000.0, 7000.0, 5.0),
                ("calibrated_widen_k5", 3, 2000.0, 9000.0, 5.2),
            ],
        );
        assert!(compare_baselines(&good, &good).violations.is_empty());
        // A single R cell below the floor fails, even when the top-R
        // residual gate passes.
        let sunk = synthetic_defense_json(
            5,
            &[
                ("calibrated_widen_k5", 2, 1000.0, 7000.0, 4.2),
                ("calibrated_widen_k5", 3, 2000.0, 9000.0, 5.2),
            ],
        );
        let report = compare_baselines(&good, &sunk);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("mean candidates fell") && v.contains("R=2")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn single_vanished_policy_fails_even_with_the_block_present() {
        let committed = synthetic_defense_json(
            5,
            &[
                ("coordinated_seeds", 3, 0.0, 9000.0, 5.0),
                ("calibrated_widen_k5", 3, 2000.0, 9000.0, 5.2),
            ],
        );
        let fresh = synthetic_defense_json(5, &[("coordinated_seeds", 3, 0.0, 9000.0, 5.0)]);
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("calibrated_widen_k5") && v.contains("disappeared")),
            "{:?}",
            report.violations
        );
        // The surviving policy still gates (and passes) normally.
        assert_notes(&report, "coordinated_seeds");
    }

    #[test]
    fn defense_rows_are_pinned_across_runs_at_a_matched_configuration() {
        let rows = [
            ("coordinated_seeds", 3, 0.0, 9000.0, 5.0),
            ("calibrated_widen_k5", 3, 2000.0, 9000.0, 5.2),
        ];
        let committed = synthetic_defense_json(5, &rows);
        assert_passes(&committed, &committed);
        // One field of one row moves: the pin fires on that row alone.
        let edited = edit(&committed, |b| {
            b.composition_defense.as_mut().unwrap().rows[1].mean_candidates = 5.3;
        });
        let report = compare_baselines(&committed, &edited);
        assert_fires(&report, "`calibrated_widen_k5` row at R=3 drifted");
        assert_silent(&report, "`coordinated_seeds` row");
        // At another configuration the rows legitimately differ.
        let reseeded = edit(&edited, |b| b.seed += 1);
        assert_silent(&compare_baselines(&committed, &reseeded), "drifted");
    }

    #[test]
    fn missing_defense_stage_fails() {
        let committed = synthetic_defense_json(5, &[("coordinated_seeds", 3, 0.0, 9000.0, 5.0)]);
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "composition_defense stage disappeared");
        // The other direction — a defense block newly appearing — is
        // fine.
        assert_passes(&fresh, &committed);
    }

    #[test]
    fn non_finite_defense_rows_fail_both_sides() {
        let good = synthetic_defense_json(5, &[("coordinated_seeds", 3, 0.0, 9000.0, 5.0)]);
        let poisoned =
            synthetic_defense_json(5, &[("coordinated_seeds", 3, f64::NAN, 9000.0, 5.0)]);
        let b = parse(&poisoned);
        assert_eq!(b.malformed_rows.len(), 1, "{:?}", b.malformed_rows);
        let report = compare_baselines(&good, &poisoned);
        assert_fires(&report, "non-finite or unparseable");
        // A poisoned committed defense series must refuse to gate.
        let fresh_without = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&poisoned, &fresh_without);
        assert_fires(&report, "committed baseline carries");
    }

    /// A synthetic baseline with a `robustness` block whose rows are
    /// caller-controlled `(fault_rate, mode, precision, coverage, gain,
    /// defects)`; the defects are written as `pages_rejected`.
    fn synthetic_mode_robustness_json(
        rows: &[(f64, &'static str, f64, f64, f64, usize)],
    ) -> String {
        let mut b = synthetic(100.0, 5.0);
        b.robustness = Some(RobustnessBench {
            max_rate: 0.1,
            seed: 2015,
            wall_ms: 50.0,
            rows: rows
                .iter()
                .map(
                    |&(fault_rate, mode, precision, coverage, gain, defects)| RobustnessBenchRow {
                        fault_rate,
                        mode,
                        harvest_precision: precision,
                        harvest_coverage: coverage,
                        composition_gain: gain,
                        pages_rejected: defects,
                        rows_skipped: 0,
                        fields_imputed: 0,
                        workers_restarted: 0,
                    },
                )
                .collect(),
        });
        b.to_json()
    }

    /// [`synthetic_mode_robustness_json`] with every row `uniform`.
    fn synthetic_robustness_json(rows: &[(f64, f64, f64, f64, usize)]) -> String {
        let rows: Vec<_> = rows
            .iter()
            .map(|&(rate, prec, cov, gain, defects)| (rate, "uniform", prec, cov, gain, defects))
            .collect();
        synthetic_mode_robustness_json(&rows)
    }

    fn robustness_rows(b: &Baseline) -> &[RobustnessBenchRow] {
        b.bench.robustness.as_ref().map_or(&[], |r| &r.rows)
    }

    #[test]
    fn robustness_rows_parse() {
        let json =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        let b = parse(&json);
        let rows = robustness_rows(&b);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].fault_rate, 0.0);
        assert_eq!(rows[0].defects(), 0);
        assert_eq!(rows[1].harvest_precision, 0.9);
        assert_eq!(rows[1].defects(), 42);
        assert!(b.malformed_rows.is_empty());
        // Robustness rows never leak into the composition series.
        assert!(b.bench.composition.is_none());
        let report = assert_passes(&json, &json);
        assert_notes(&report, "robustness");
    }

    #[test]
    fn zero_fault_robustness_row_is_pinned_exactly() {
        let committed =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        // A dirty zero row fails even against itself.
        let dirty = synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 3)]);
        let report = compare_baselines(&committed, &dirty);
        assert_fires(&report, "exact passthrough");
        // A drifted (but clean) zero row fails the bit-identity pin.
        let drifted =
            synthetic_robustness_json(&[(0.0, 0.94, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        let report = compare_baselines(&committed, &drifted);
        assert_fires(&report, "drifted");
        // A block with no zero row at all fails.
        let no_zero = synthetic_robustness_json(&[(0.1, 0.9, 0.7, 6000.0, 42)]);
        let report = compare_baselines(&committed, &no_zero);
        assert_fires(&report, "no zero-fault reference row");
    }

    #[test]
    fn faulted_robustness_rows_gate_against_the_committed_envelope() {
        let committed =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        // Precision collapse at the same rate fails.
        let collapsed =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.5, 0.7, 6000.0, 42)]);
        let report = compare_baselines(&committed, &collapsed);
        assert_fires(&report, "harvest precision at uniform fault rate");
        // Gain collapse below the committed floor fails.
        let no_gain =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 1000.0, 42)]);
        let report = compare_baselines(&committed, &no_gain);
        assert_fires(&report, "composition gain at uniform fault rate");
        // Within-envelope degradation passes.
        let fine =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.8, 0.6, 4000.0, 50)]);
        assert_passes(&committed, &fine);
    }

    #[test]
    fn missing_robustness_stage_fails_and_non_finite_rows_are_malformed() {
        let committed = synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0)]);
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "robustness stage disappeared");
        // A newly appearing robustness block is fine.
        assert_passes(&fresh, &committed);
        // A NaN metric drops the row into malformed_rows and gates.
        let poisoned = synthetic_robustness_json(&[(0.1, f64::NAN, 0.7, 6000.0, 42)]);
        let b = parse(&poisoned);
        assert_eq!(b.malformed_rows.len(), 1, "{:?}", b.malformed_rows);
        let report = compare_baselines(&committed, &poisoned);
        assert_fires(&report, "non-finite or unparseable");
    }

    #[test]
    fn robustness_mode_is_required_and_round_trips() {
        // Mode-carrying rows keep their mode.
        let new = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "targeted", 0.9, 0.7, 1000.0, 12),
        ]);
        let b = parse(&new);
        assert_eq!(robustness_rows(&b)[1].mode, "targeted");
        assert!(b.malformed_rows.is_empty());
        // A row without a mode does not decode: the writer always emits
        // one, so the file is corrupt.
        let json::Value::Obj(mut row) = robustness_rows(&b)[0].to_value() else {
            unreachable!("a row encodes as an object")
        };
        row.retain(|(key, _)| key != "mode");
        assert!(RobustnessBenchRow::from_value(&json::Value::Obj(row)).is_none());
    }

    #[test]
    fn robustness_envelope_matches_rows_by_rate_and_mode() {
        // Uniform and targeted rows share the 0.1 rate by design. The
        // targeted gain (1000) sits far below the uniform gain (6000):
        // matched by rate alone, a fresh targeted row at 900 would gate
        // against 6000 * 0.5 = 3000 and fail spuriously.
        let committed = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "uniform", 0.9, 0.7, 6000.0, 42),
            (0.1, "targeted", 0.85, 0.6, 1000.0, 12),
        ]);
        let fine = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "uniform", 0.9, 0.7, 6000.0, 42),
            (0.1, "targeted", 0.85, 0.6, 900.0, 12),
        ]);
        assert_passes(&committed, &fine);
        // A genuinely collapsed targeted row still fails against its own
        // committed envelope.
        let collapsed = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "uniform", 0.9, 0.7, 6000.0, 42),
            (0.1, "targeted", 0.85, 0.6, 400.0, 12),
        ]);
        let report = compare_baselines(&committed, &collapsed);
        assert_fires(&report, "targeted fault rate 0.100");
    }

    #[test]
    fn vanished_targeted_row_fails() {
        let committed = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "targeted", 0.85, 0.6, 1000.0, 12),
        ]);
        let fresh = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "uniform", 0.9, 0.7, 6000.0, 42),
        ]);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "targeted (worst-case) robustness row disappeared");
    }

    /// A synthetic baseline with a `recovery` ledger, rows as `(stage,
    /// attempts, retries, backoff_ms)`.
    fn synthetic_recovery_json(
        seed: u64,
        transient_rate: f64,
        max_attempts: usize,
        retries_total: usize,
        escaped_panics: usize,
        rows: &[(&str, usize, usize, f64)],
    ) -> String {
        let rows = rows
            .iter()
            .map(|&(stage, attempts, retries, backoff_ms)| RecoveryBenchRow {
                stage: stage.to_owned(),
                attempts,
                retries,
                backoff_ms,
            })
            .collect();
        let mut b = synthetic(100.0, 5.0);
        b.recovery = Some(RecoveryBench {
            seed,
            transient_rate,
            max_attempts,
            retries_total,
            quarantined_total: 0,
            escaped_panics,
            rows,
            resumed: false,
        });
        b.to_json()
    }

    #[test]
    fn recovery_ledger_parses() {
        let json = synthetic_recovery_json(
            2015,
            0.1,
            4,
            3,
            0,
            &[("world_build", 1, 0, 0.0), ("mdav", 3, 2, 14.5)],
        );
        let b = parse(&json);
        let rec = b.bench.recovery.as_ref().expect("recovery block parsed");
        assert_eq!(rec.seed, 2015);
        assert_eq!(rec.transient_rate, 0.1);
        assert_eq!(rec.max_attempts, 4);
        assert_eq!(rec.retries_total, 3);
        assert_eq!(rec.escaped_panics, 0);
        assert_eq!(rec.rows.len(), 2);
        assert_eq!(rec.rows[1].stage, "mdav");
        assert_eq!(rec.rows[1].attempts, 3);
        assert_eq!(rec.rows[1].backoff_ms, 14.5);
        assert!(b.malformed_rows.is_empty());
        // Recovery rows never leak into the timing-stage namespace.
        assert!(!b.stage_wall_ms().contains_key("mdav"));
        let report = assert_passes(&json, &json);
        assert_notes(&report, "recovery");
    }

    #[test]
    fn vanished_recovery_ledger_and_escaped_panics_fail() {
        let committed = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("world_build", 1, 0, 0.0)]);
        // Ledger disappeared entirely.
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "recovery ledger disappeared");
        // A newly appearing ledger is fine.
        assert_passes(&fresh, &committed);
        // An escaped panic fails even against itself.
        let leaky = synthetic_recovery_json(2015, 0.1, 4, 3, 1, &[("world_build", 1, 0, 0.0)]);
        let report = compare_baselines(&committed, &leaky);
        assert_fires(&report, "escaped panic");
    }

    #[test]
    fn retry_trace_is_pinned_at_the_same_seed_rate_and_policy() {
        let committed = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("robustness", 2, 1, 4.0)]);
        // Same (seed, rate, max_attempts), different total: drift.
        let drifted = synthetic_recovery_json(2015, 0.1, 4, 5, 0, &[("robustness", 2, 1, 4.0)]);
        let report = compare_baselines(&committed, &drifted);
        assert_fires(&report, "retry trace drifted");
        // A different seed legitimately produces a different trace.
        let other_seed = synthetic_recovery_json(77, 0.1, 4, 5, 0, &[("robustness", 2, 1, 4.0)]);
        let report = compare_baselines(&committed, &other_seed);
        assert_silent(&report, "drifted");
        // A stage row vanishing from a still-present ledger fails.
        let hollow = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("world_build", 1, 0, 0.0)]);
        let report = compare_baselines(&committed, &hollow);
        assert_fires(&report, "`robustness` vanished from the fresh ledger");
    }

    /// A synthetic deterministic (checkpointed) run: every wall-clock
    /// zeroed, the speedup at the 0.0 sentinel.
    fn synthetic_det() -> QuickBench {
        let mut b = synthetic(0.0, 0.0);
        b.deterministic = true;
        b.stages.iter_mut().for_each(|s| s.wall_ms = 0.0);
        b
    }

    #[test]
    fn deterministic_fresh_run_skips_timing_gates_but_not_structure() {
        let committed = synthetic_json(100.0, 5.0);
        let det = synthetic_det().to_json();
        assert!(parse(&det).bench.deterministic);
        assert!(!parse(&committed).bench.deterministic);
        // Zeroed speedup and zeroed stage walls pass: timing gates are
        // skipped for a deterministic fresh run.
        let report = assert_passes(&committed, &det);
        assert_notes(&report, "timing gates skipped");
        // The stage-disappeared gate still applies in full.
        let hollow = edit(&det, |b| b.stages.retain(|s| s.name != "mdav_k5"));
        let report = compare_baselines(&committed, &hollow);
        assert_fires(&report, "`mdav_k5` disappeared");
    }

    #[test]
    fn committed_deterministic_baseline_is_a_violation() {
        let det = synthetic_det().to_json();
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&det, &fresh);
        assert_fires(&report, "deterministic (checkpointed) run");
    }

    #[test]
    fn structurally_corrupt_baselines_refuse_to_gate() {
        let good = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
        // A truncated committed baseline (torn write) fails loudly with
        // ONLY structural violations — no spurious disappeared-stage
        // noise from the half-parsed remains.
        let torn = &good[..good.len() / 2];
        assert!(parse_baseline(torn).is_err());
        let report = compare_baselines(torn, &good);
        assert!(!report.violations.is_empty());
        assert!(
            report
                .violations
                .iter()
                .all(|v| v.contains("structurally corrupt")),
            "{:?}",
            report.violations
        );
        assert_fires(&report, "regenerate it");
        // A torn fresh run fails the same way.
        let report = compare_baselines(&good, torn);
        assert_fires(&report, "fresh baseline is structurally corrupt");
        // Not-a-baseline input is one parse error; a well-formed JSON
        // document that is not a bench, or one without stage rows, is
        // corrupt too.
        assert!(parse_baseline("").unwrap_err().contains("not valid JSON"));
        assert!(parse_baseline("{}")
            .unwrap_err()
            .contains("does not decode"));
        let stageless = edit(&good, |b| b.stages.clear());
        assert!(parse_baseline(&stageless)
            .unwrap_err()
            .contains("no stage rows"));
    }

    #[test]
    fn missing_stage_fails() {
        let json = small_bench_json(None);
        let fresh = edit(&json, |b| b.stages.retain(|s| s.name != "mdav_k5"));
        let report = compare_baselines(&json, &fresh);
        assert_fires(&report, "disappeared");
    }

    /// A non-deterministic `profile` block with one self-time row per
    /// `(stage, spans)` and the given counter rows.
    fn profile(
        digest: &str,
        pct: f64,
        stages: &[(&str, usize)],
        counters: &[(&str, u64)],
    ) -> ProfileBench {
        ProfileBench {
            deterministic: false,
            spans_total: stages.len() as u64 + 1,
            events_total: 0,
            span_tree_digest: digest.to_owned(),
            overhead_probe_calls: 1_000_000,
            overhead_wall_ms: 4.0,
            overhead_pct_of_large: pct,
            stages: stages
                .iter()
                .map(|&(stage, spans)| ProfileStageRow {
                    stage: stage.to_owned(),
                    self_ms: 1.0,
                    spans,
                })
                .collect(),
            counters: counters
                .iter()
                .map(|&(name, value)| (name.to_owned(), value))
                .collect(),
            hists: Vec::new(),
        }
    }

    /// Adds a `profile` block onto an existing synthetic baseline.
    fn with_profile(
        json: String,
        digest: &str,
        pct: f64,
        stages: &[(&str, usize)],
        counters: &[(&str, u64)],
    ) -> String {
        edit(&json, |b| {
            b.profile = Some(profile(digest, pct, stages, counters))
        })
    }

    #[test]
    fn profile_block_parses() {
        let json = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1), ("mdav", 1)],
            &[("mdav.rounds", 12), ("release.chunks", 3)],
        );
        let b = parse(&json);
        let prof = b.bench.profile.as_ref().expect("profile block parsed");
        assert!(!prof.deterministic);
        assert_eq!(prof.spans_total, 3);
        assert_eq!(prof.span_tree_digest, "00deadbeef00cafe");
        assert_eq!(prof.overhead_probe_calls, 1_000_000);
        assert_eq!(prof.overhead_pct_of_large, 0.5);
        assert_eq!(prof.stages.len(), 2);
        assert_eq!(prof.stages[1].stage, "mdav");
        assert_eq!(prof.counters[0], ("mdav.rounds".to_owned(), 12));
        assert!(b.malformed_rows.is_empty());
        // Profile stage rows never leak into the timing-stage namespace
        // or the recovery ledger.
        assert!(!b.stage_wall_ms().contains_key("mdav"));
        assert!(b.bench.recovery.is_none());
        let report = assert_passes(&json, &json);
        assert_notes(&report, "profile");
    }

    #[test]
    fn span_tree_digest_is_pinned_and_profile_must_not_vanish() {
        let committed = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1)],
            &[],
        );
        // Digest drift fails.
        let drifted = with_profile(
            synthetic_json(100.0, 5.0),
            "ffffffffffffffff",
            0.5,
            &[("world_build", 1)],
            &[],
        );
        let report = compare_baselines(&committed, &drifted);
        assert_fires(&report, "span tree digest drifted");
        // The whole block vanishing fails.
        let report = compare_baselines(&committed, &synthetic_json(100.0, 5.0));
        assert_fires(&report, "profile block disappeared");
        // A committed stage row vanishing from a still-present block fails.
        let hollow = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            0.5,
            &[("mdav", 1)],
            &[],
        );
        let report = compare_baselines(&committed, &hollow);
        assert_fires(&report, "profile stage `world_build` disappeared");
        // A newly appearing profile is fine.
        assert_passes(&synthetic_json(100.0, 5.0), &committed);
    }

    #[test]
    fn overhead_ceiling_gates_the_disabled_path() {
        let fast = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            MAX_OBS_OVERHEAD_PCT / 2.0,
            &[("world_build", 1)],
            &[],
        );
        assert_passes(&fast, &fast);
        let slow = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            MAX_OBS_OVERHEAD_PCT * 2.0,
            &[("world_build", 1)],
            &[],
        );
        let report = compare_baselines(&fast, &slow);
        assert_fires(&report, "disabled-tracing overhead");
    }

    #[test]
    fn obs_counters_reconcile_against_the_robustness_ledger() {
        // Ledger rows sum to 42 pages_rejected (the helper writes defects
        // as pages_rejected), zero everything else.
        let base =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        let agree = with_profile(
            base.clone(),
            "00deadbeef00cafe",
            0.5,
            &[("robustness", 1)],
            &[
                ("faults.pages_rejected", 42),
                ("faults.rows_skipped", 0),
                ("faults.fields_imputed", 0),
                ("faults.workers_restarted", 0),
            ],
        );
        assert_passes(&agree, &agree);
        // One dropped increment fails — the reconciliation is exact.
        let disagree = with_profile(
            base,
            "00deadbeef00cafe",
            0.5,
            &[("robustness", 1)],
            &[
                ("faults.pages_rejected", 41),
                ("faults.rows_skipped", 0),
                ("faults.fields_imputed", 0),
                ("faults.workers_restarted", 0),
            ],
        );
        let report = compare_baselines(&disagree, &disagree);
        assert_fires(&report, "`faults.pages_rejected` = 41 disagrees");
    }

    #[test]
    fn obs_counters_reconcile_against_the_recovery_ledger() {
        let base = synthetic_recovery_json(
            2015,
            0.1,
            4,
            3,
            0,
            &[("world_build", 1, 0, 0.0), ("mdav", 3, 2, 14.5)],
        );
        // attempts sum to 4, retries_total 3.
        let agree = with_profile(
            base.clone(),
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1), ("mdav", 1)],
            &[("recover.attempts", 4), ("recover.retries", 3)],
        );
        assert_passes(&agree, &agree);
        let disagree = with_profile(
            base,
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1), ("mdav", 1)],
            &[("recover.attempts", 5), ("recover.retries", 3)],
        );
        let report = compare_baselines(&disagree, &disagree);
        assert_fires(&report, "`recover.attempts` = 5 disagrees");
    }

    #[test]
    fn deterministic_profile_skips_counter_and_overhead_gates() {
        // A deterministic profile header with zeroed overhead and no
        // counter rows — what a checkpointed/resumed run emits. Only the
        // structural pins (digest, stage coverage) may gate it.
        let committed = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1)],
            &[],
        );
        let det = edit(&committed, |b| {
            let prof = b.profile.as_mut().unwrap();
            prof.deterministic = true;
            prof.overhead_pct_of_large = 0.0;
        });
        let report = assert_passes(&committed, &det);
        assert_notes(&report, "counter gates skipped");
        // Digest drift still fails a deterministic profile.
        let drifted = edit(&det, |b| {
            b.profile.as_mut().unwrap().span_tree_digest = "ffffffffffffffff".into()
        });
        let report = compare_baselines(&committed, &drifted);
        assert_fires(&report, "span tree digest drifted");
    }

    /// A well-formed `large_100k` block: `shards` MDAV leaves over
    /// `size` rows, all three digest pairs agreeing, peak rss under the
    /// ceiling.
    fn large_100k(size: usize, shards: usize) -> Large100kBench {
        Large100kBench {
            size,
            shards,
            cores: 1,
            sample_rows: size,
            peak_rss_mb: 512.0,
            stages: vec![StageTiming {
                name: "harvest_100k",
                wall_ms: 100.0,
                rows: 200,
            }],
            harvest_digest_engine: 0xaa,
            harvest_digest_reference: 0xaa,
            mdav_digest_optimized: 0xbb,
            mdav_digest_reference: 0xbb,
            intersect_digest_engine: 0xcc,
            intersect_digest_oracle: 0xcc,
        }
    }

    /// A synthetic baseline carrying a [`large_100k`] block.
    fn synthetic_100k_sized_json(size: usize, shards: usize) -> String {
        let mut b = synthetic(100.0, 5.0);
        b.large_100k = Some(large_100k(size, shards));
        b.to_json()
    }

    /// The two-leaf, 200-row default most gate tests mutate.
    fn synthetic_100k_json() -> String {
        synthetic_100k_sized_json(200, 2)
    }

    /// Edits the `large_100k` block of a baseline.
    fn edit_100k(json: &str, mutate: impl FnOnce(&mut Large100kBench)) -> String {
        edit(json, |b| {
            mutate(b.large_100k.as_mut().expect("large_100k block"))
        })
    }

    #[test]
    fn sharded_block_parses_and_self_diff_passes() {
        let json = synthetic_100k_json();
        let b = parse(&json);
        let big = b.bench.large_100k.as_ref().expect("block parsed");
        assert_eq!((big.size, big.shards, big.sample_rows), (200, 2, 200));
        assert_eq!(big.peak_rss_mb, 512.0);
        assert_eq!(big.digests()[2], ("mdav_optimized", 0xbb));
        assert_eq!(b.bench.seed, 2015);
        // The 100k stages share the common timing namespace.
        assert!(b.stage_wall_ms().contains_key("harvest_100k"));
        assert!(b.malformed_rows.is_empty(), "{:?}", b.malformed_rows);
        let report = assert_passes(&json, &json);
        assert_notes(&report, "large_100k");
    }

    #[test]
    fn sharded_digest_mismatch_fails() {
        let committed = synthetic_100k_json();
        let fresh = edit_100k(&committed, |big| big.mdav_digest_reference = 0xbe);
        let report = compare_baselines(&committed, &fresh);
        assert_fires(&report, "hierarchical MDAV diverged");
        // The drifted pair also breaks the cross-run pin at the same
        // (seed, size, shards).
        assert_fires(&report, "digests drifted");
        // A pair that drifts together passes in-run but not cross-run.
        let drifted = edit_100k(&committed, |big| {
            big.intersect_digest_engine = 0xcd;
            big.intersect_digest_oracle = 0xcd;
        });
        let report = compare_baselines(&committed, &drifted);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("intersect_engine=00000000000000cd"));
    }

    #[test]
    fn sharded_rss_ceiling_gates_and_zero_skips() {
        let committed = synthetic_100k_json();
        let breach = edit_100k(&committed, |big| {
            big.peak_rss_mb = MAX_100K_PEAK_RSS_MB * 2.0
        });
        let report = compare_baselines(&committed, &breach);
        assert_fires(&report, "peak rss");
        // A deterministic/unavailable 0.0 reading skips the ceiling.
        let zeroed = edit_100k(&committed, |big| big.peak_rss_mb = 0.0);
        let report = compare_baselines(&committed, &zeroed);
        assert_silent(&report, "peak rss");
    }

    #[test]
    fn pre_shard_committed_baseline_still_gates_the_fresh_block() {
        // Committed predates the block: the in-run gates still fire.
        let committed = synthetic_json(100.0, 5.0);
        let fresh = synthetic_100k_json();
        let report = assert_passes(&committed, &fresh);
        assert_notes(&report, "predates the large_100k block");
        // ... and a broken fresh block fails against that same old
        // baseline — no vacuous pass.
        let broken = edit_100k(&fresh, |big| big.intersect_digest_oracle = 0xcd);
        let report = compare_baselines(&committed, &broken);
        assert_fires(&report, "intersection diverged");
        // A committed block that vanishes from the fresh run fails.
        let report = compare_baselines(&fresh, &committed);
        assert_fires(&report, "large_100k block disappeared");
    }

    #[test]
    fn sharded_config_change_skips_the_cross_run_pin() {
        // Same digests, different (size, leaves): the in-run gates still
        // hold and the cross-run pin steps aside with a note.
        let committed = synthetic_100k_json();
        let fresh = synthetic_100k_sized_json(400, 4);
        let report = assert_passes(&committed, &fresh);
        assert_notes(&report, "cross-run digest pin skipped");
    }

    #[test]
    fn sharded_block_round_trips_from_the_writer() {
        let json = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                size_100k: Some(80),
                ..QuickBenchOptions::default()
            },
        )
        .to_json();
        let b = parse(&json);
        let big = b.bench.large_100k.as_ref().expect("block parsed");
        assert_eq!((big.size, big.shards), (80, 1));
        assert!(b.stage_wall_ms().contains_key("equivalence_100k"));
        assert!(b.malformed_rows.is_empty(), "{:?}", b.malformed_rows);
        let report = compare_baselines(&json, &json);
        assert!(
            report.violations.iter().all(|v| !v.contains("large_100k")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn work_counters_are_pinned_at_a_matched_configuration() {
        let counters = [("mdav.dist_evals", 4_153_961), ("mdav.shell_rebuilds", 348)];
        let stages = [("world_build", 1), ("mdav", 1)];
        let committed = with_profile(synthetic_json(100.0, 5.0), "0d", 0.5, &stages, &counters);
        assert_passes(&committed, &committed);
        let counter = |json: &str, name: &str, value: u64| {
            edit(json, |b| {
                let counters = &mut b.profile.as_mut().expect("profile").counters;
                counters.retain(|(n, _)| n != name);
                counters.extend((value != 0).then(|| (name.to_owned(), value)));
            })
        };
        // One unit off on one counter is one violation naming both values.
        let bumped = counter(&committed, "mdav.dist_evals", 4_153_962);
        let report = compare_baselines(&committed, &bumped);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_fires(
            &report,
            "obs counter `mdav.dist_evals` = 4153962 drifted from the committed 4153961",
        );
        // An omitted counter reads 0, on either side: a counter the
        // committed baseline lacks makes it stale.
        let dropped = counter(&committed, "mdav.shell_rebuilds", 0);
        let report = compare_baselines(&committed, &dropped);
        assert_fires(
            &report,
            "`mdav.shell_rebuilds` = 0 drifted from the committed 348",
        );
        let report = compare_baselines(&dropped, &committed);
        assert_fires(
            &report,
            "`mdav.shell_rebuilds` = 348 drifted from the committed 0",
        );
        // Another seed, another stage size or another span tree measures
        // another workload; a deterministic fresh run carries no counters.
        for other in [
            edit(&bumped, |b| b.seed += 1),
            edit(&bumped, |b| b.stages[0].rows += 1),
            edit(&bumped, |b| {
                b.profile.as_mut().unwrap().span_tree_digest = "0e".into()
            }),
            edit(&dropped, |b| {
                let prof = b.profile.as_mut().unwrap();
                prof.deterministic = true;
                prof.counters.clear();
            }),
        ] {
            assert_silent(&compare_baselines(&committed, &other), "obs counter");
        }
    }

    /// The rule table applied to two parsing baselines: the seam through
    /// which a test runs the gate without some of its rules.
    fn violations_under(rules: &[Rule], committed: &str, fresh: &str) -> Vec<String> {
        let (committed, fresh) = (parse(committed), parse(fresh));
        let mut report = CompareReport::default();
        for rule in rules {
            rule(&committed, &fresh, &mut report);
        }
        report.violations
    }

    #[test]
    fn every_rule_can_fail() {
        // The golden fixture pairs, plus one synthetic pair from the unit
        // tests above for each rule the fixtures do not reach.
        let clean = include_str!("../tests/fixtures/bench_clean.json");
        let poisoned = include_str!("../tests/fixtures/bench_poisoned.json");
        let stripped = edit(clean, |b| b.eval = None);
        let quick_rows = [(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)];
        let flat_rows = [(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 7000.0, 1.7)];
        let recovery =
            |panics| synthetic_recovery_json(2015, 0.1, 4, 3, panics, &[("w", 1, 0, 0.0)]);
        let profiled = |dist_evals| {
            let counters = [("mdav.dist_evals", dist_evals)];
            with_profile(
                synthetic_json(100.0, 5.0),
                "0d",
                0.5,
                &[("mdav", 1)],
                &counters,
            )
        };
        let weak_harvest = synthetic_large_json(1, 8, 1.0, &quick_rows, &quick_rows);
        let cases = [
            (clean.to_owned(), poisoned.to_owned()),
            (poisoned.to_owned(), clean.to_owned()),
            (clean.to_owned(), stripped),
            (synthetic_json(100.0, 5.0), synthetic_json(1000.0, 1.1)),
            (
                synthetic_composition_json(&quick_rows),
                synthetic_composition_json(&flat_rows),
            ),
            (recovery(0), recovery(1)),
            (profiled(9), profiled(10)),
            (weak_harvest.clone(), weak_harvest),
        ];
        for (committed, fresh) in &cases {
            let report = compare_baselines(committed, fresh);
            assert_eq!(violations_under(RULES, committed, fresh), report.violations);
        }
        for skipped in 0..RULES.len() {
            let mut rules = RULES.to_vec();
            rules.remove(skipped);
            let caught = cases.iter().any(|(committed, fresh)| {
                violations_under(&rules, committed, fresh)
                    != violations_under(RULES, committed, fresh)
            });
            assert!(caught, "no case fails rule {skipped} of the table alone");
        }
    }
}
