//! The perf-smoke gate: diffs a fresh `BENCH_sweep.json` against the
//! committed baseline and reports regressions.
//!
//! The workspace builds offline (no serde), and the only JSON either side
//! of the diff ever sees is the output of
//! [`QuickBench::to_json`](crate::perf::QuickBench::to_json), so parsing
//! is a deliberately small line-oriented extractor over that one stable
//! format rather than a general JSON reader.
//!
//! Gate rules (enforced by `repro --quick --compare BASELINE` and the CI
//! perf-smoke step):
//!
//! * `speedup_batch_vs_naive` must stay ≥ 2.0;
//! * no stage present in the committed baseline may run more than 3×
//!   slower (stages faster than the timing floor are skipped as noise);
//! * a stage present in the baseline must not disappear;
//! * on machines with ≥ 4 cores, the large-world harvest must keep
//!   `speedup_harvest_parallel_vs_single` ≥ 2.0 — the parallel cached
//!   path versus the same cached path pinned to one thread, so the ratio
//!   is pure thread fan-out and a runner that silently lost all harvest
//!   parallelism cannot clear the gate on algorithmic gains alone
//!   (single-core runners skip this check — there is nothing to
//!   parallelize over). The core count
//!   is read from the `large` block itself when present (a heterogeneous
//!   runner must not gate the 10k stage against the config block's
//!   cores), falling back to the config block;
//! * when the baseline carries a composition stage — the quick-world
//!   `composition` block or the 10k-row `composition_large` block inside
//!   `large` — the fresh run must carry the same stage, its per-record
//!   disclosure gain must be *strictly increasing* in the number of
//!   composed releases, and the mean candidate count must never rise
//!   with an added release (composition only adds constraints). The two
//!   blocks gate independently;
//! * when the baseline carries a `composition_defense` block (`repro
//!   --quick --compose --defend ...`), the fresh run must carry it too,
//!   every policy's residual disclosure gain at its top release count
//!   must stay *strictly below* the undefended gain at the same `R`
//!   (a defense that stops defending is a regression), and every
//!   `calibrated_widen_*` row must keep `mean_candidates >= k` (the
//!   block's own `k` line) — the floor the calibration exists to hold;
//! * every composition/defense row's numbers must be finite: a NaN gain
//!   would not even parse out of the baseline and would otherwise sail
//!   through the strict-monotonicity check (NaN comparisons are all
//!   false), so an unparseable or non-finite row is itself a violation;
//! * when the baseline carries a `robustness` block (`repro --quick
//!   --faults <rate>`), the fresh run must carry it too, its zero-rate
//!   row must have survived **zero** defects and match the committed
//!   zero-rate row value-for-value (the fault-free path must stay an
//!   exact passthrough of the strict pipeline), and each faulted row is
//!   held to a committed envelope: harvest precision within
//!   [`ROBUSTNESS_PRECISION_SLACK`] of the committed row at the same
//!   `(fault_rate, mode)` pair — the worst-case `targeted` row gates
//!   against the committed targeted row, never against the average-case
//!   uniform row at the same rate — composition gain at least
//!   [`ROBUSTNESS_GAIN_FLOOR`] of it;
//! * when the baseline carries a `recovery` ledger (`repro --quick
//!   --faults <rate>` or any checkpointed run), the fresh run must carry
//!   it too, `escaped_panics` is pinned at zero, no stage row may vanish
//!   from the ledger, and when the fresh run shares the committed
//!   `(seed, transient_rate, max_attempts)` triple the total retry count
//!   is pinned *exactly* — injection is seeded, so the retry trace is a
//!   pure function of that triple and any drift is a behavior change;
//! * a fresh run marked `"deterministic": true` (checkpointed) has every
//!   wall-clock zeroed at source, so the timing gates (batch speedup,
//!   stage regression ratios, harvest speedup) are skipped for it — the
//!   physics gates still apply in full. A *committed* deterministic
//!   baseline is itself a violation: zeroed timings cannot gate anything,
//!   so committing one silently disarms every timing gate;
//! * when the baseline carries a `profile` block (`repro --quick`
//!   self-profiling through `fred_obs`), the fresh run must carry it
//!   too, the span-tree digest is pinned exactly — the tree wraps each
//!   runner stage *outside* its compute closure, so it is a pure
//!   function of the enabled stages and identical across fresh,
//!   deterministic and resumed runs — no committed profile stage row
//!   may vanish, and on a fresh non-deterministic run the obs counters
//!   must reconcile *exactly* against the other ledgers in the same
//!   file: `faults.*` against the robustness rows' summed degradation
//!   fields and `recover.*` against the recovery ledger (counter and
//!   ledger are incremented by the same source line, so any gap is
//!   dropped instrumentation, not noise). The measured cost of
//!   *disabled* tracing is held under [`MAX_OBS_OVERHEAD_PCT`] of the
//!   large block's wall;
//! * when the baseline carries an `eval` block (`repro --quick
//!   --compose` hypothesis-testing evaluation), the fresh run must carry
//!   it too, and the fresh block's physics gate unconditionally — even
//!   against a committed baseline that predates the block: every cell's
//!   AUC must sit in `[0.5 −` [`EVAL_AUC_SLACK`]`, 1.0]`, TPR@10⁻³ in
//!   `[0, 1]`, empirical ε must be non-negative and *non-increasing in
//!   `k`* within a `(R, defense)` group (stronger anonymity must not
//!   leak more), and every defended cell's ε must stay at or below the
//!   undefended ε at the same `(k, R)`. A non-finite cell value is
//!   unparseable by construction and lands in the malformed-row
//!   violations — on *either* side, so a NaN-poisoned committed block
//!   refuses to gate instead of disarming these checks. When the
//!   committed baseline carries the block at the same seed and
//!   populations, each matched `(k, R, defense)` cell is additionally
//!   pinned within [`EVAL_DRIFT_SLACK`] — the cell is seeded and
//!   deterministic, so larger drift is a behavior change;
//! * `large_100k` shard accounting rows carry a `capped` flag that must
//!   agree with the plan derivation at the block's size: a saturated
//!   plan (> 64 derived shards clamped to 64) holds *more* rows per
//!   shard than the one-per-12.5k derivation rate, and a row that
//!   misreports that invites exactly the misread the flag exists to
//!   prevent. Pre-cap baselines parse as uncapped;
//! * when a fresh non-deterministic profile carries histogram rows, the
//!   `harvest.name_ms` histogram's observation count must reconcile
//!   exactly with the `harvest.names` counter — both are written by the
//!   same harvest tail, so a gap is dropped instrumentation;
//! * a baseline that fails structural sanity — no config line, no
//!   parseable stage rows, or a truncated file — is reported as a
//!   violation instead of silently parsing to an empty [`Baseline`]
//!   that gates nothing (a corrupt committed baseline must fail loudly,
//!   not pass vacuously).

use std::collections::BTreeMap;

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

/// One composition-stage row: `(releases, disclosure_gain,
/// mean_candidates)`.
pub type CompositionRow = (usize, f64, f64);

/// One `(k, R, defense)` cell of the hypothesis-testing `eval` block.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Anonymization level the cell's scenario was generated at.
    pub k: usize,
    /// Number of composed releases the adversary scored.
    pub releases: usize,
    /// Defense label (`"none"` for undefended cells).
    pub defense: String,
    /// Core targets scored (the positive population).
    pub targets: usize,
    /// Matched decoys scored through the identical path (the negatives).
    pub decoys: usize,
    /// Trapezoidal area under the ROC curve.
    pub auc: f64,
    /// True-positive rate at the largest threshold with FPR ≤ 10⁻³.
    pub tpr_at_fpr3: f64,
    /// Empirical ε (max log-likelihood ratio over thresholds, Laplace
    /// corrected — finite by construction).
    pub epsilon: f64,
}

/// One robustness-stage row, as parsed from a `robustness` block.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Injected per-fault corruption rate (`0.0` is the passthrough
    /// reference row the bit-identity gate pins).
    pub fault_rate: f64,
    /// Corruption placement: `uniform` (seeded random) or `targeted`
    /// (adversarial, aimed at the highest-gain records). Old baselines
    /// predate the field and parse as `uniform`. Envelope gates match
    /// rows by `(fault_rate, mode)`, never by rate alone.
    pub mode: String,
    /// Harvest precision over the corrupted corpus.
    pub harvest_precision: f64,
    /// Harvest coverage over the corrupted corpus.
    pub harvest_coverage: f64,
    /// Composition disclosure gain under the same faults.
    pub composition_gain: f64,
    /// Total defects the tolerant pipeline survived (pages rejected +
    /// rows skipped + fields imputed + workers restarted + shards lost).
    pub defects: usize,
    /// Pages the tolerant parser rejected outright.
    pub pages_rejected: usize,
    /// Rows dropped by the row-level salvage path.
    pub rows_skipped: usize,
    /// Field values imputed after cell-level damage.
    pub fields_imputed: usize,
    /// Harvest workers restarted after an injected panic.
    pub workers_restarted: usize,
    /// Search shards lost outright and degraded around. Baselines that
    /// predate the shard-loss fault class parse as zero.
    pub shards_lost: usize,
}

/// One defense-stage row, as parsed from a `composition_defense` block.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseRow {
    /// Stable policy label (`calibrated_widen_*` rows carry the
    /// candidate-floor gate).
    pub policy: String,
    /// Number of composed releases.
    pub releases: usize,
    /// Disclosure gain the composition still achieves under the policy.
    pub residual_gain: f64,
    /// The undefended gain at the same release count.
    pub undefended_gain: f64,
    /// Mean effective anonymity under the defense.
    pub mean_candidates: f64,
    /// Widening price of the policy.
    pub utility_cost: f64,
}

/// One per-stage row of a `recovery` ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Checkpoint stage name (`world_build`, `mdav`, ... `large`).
    pub stage: String,
    /// Compute attempts the stage took (1 means first-try success).
    pub attempts: usize,
    /// Retries after injected transients (`attempts - 1` when computed).
    pub retries: usize,
    /// Total deterministic backoff slept before success, in ms.
    pub backoff_ms: f64,
}

/// The `recovery` ledger, as parsed from a checkpointed or faulted run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBlock {
    /// Config seed the retry trace is keyed to.
    pub seed: u64,
    /// Injected transient-failure rate per stage attempt.
    pub transient_rate: f64,
    /// Retry-policy attempt cap in force during the run.
    pub max_attempts: usize,
    /// Total retries across every stage — pinned exactly when the
    /// committed ledger shares `(seed, transient_rate, max_attempts)`.
    pub retries_total: usize,
    /// Checkpoint files quarantined for failing integrity checks.
    /// Baselines that predate the field parse as zero.
    pub quarantined_total: usize,
    /// Panics that escaped the runner. The whole point of the ledger:
    /// this must be zero.
    pub escaped_panics: usize,
    /// Per-stage rows, in pipeline order.
    pub rows: Vec<RecoveryRow>,
}

/// One per-stage row of a `profile` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Runner stage name (`world_build`, `mdav`, ... `large`).
    pub stage: String,
    /// Stage span wall minus its child spans' wall, in ms.
    pub self_ms: f64,
    /// Spans in the stage's subtree (including itself).
    pub spans: usize,
}

/// The `profile` block, as parsed from a self-profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileBlock {
    /// Whether the trace was taken in deterministic mode (durations
    /// zeroed at source, counter rows omitted).
    pub deterministic: bool,
    /// Total spans opened during the run.
    pub spans_total: u64,
    /// Total events recorded during the run.
    pub events_total: u64,
    /// Structural digest of the span tree — pinned committed-vs-fresh.
    pub span_tree_digest: String,
    /// Calls the disabled-tracing overhead probe made.
    pub overhead_probe_calls: u64,
    /// Wall-clock of the probe loop, ms.
    pub overhead_wall_ms: f64,
    /// Probe wall as a percentage of the large block's stage wall — the
    /// number gated under [`MAX_OBS_OVERHEAD_PCT`].
    pub overhead_pct_of_large: f64,
    /// Per-stage self-time rows.
    pub stages: Vec<ProfileRow>,
    /// Merged counter totals by name (empty on deterministic runs).
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms by name → `(count, sum_ms)` (empty on
    /// deterministic runs and on baselines that predate the rows).
    pub hists: BTreeMap<String, (u64, f64)>,
}

/// The `large_100k` block, as parsed from a sharded-scale run
/// (`repro --quick --size 100000`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sharded100kBlock {
    /// World row count the block ran at.
    pub size: usize,
    /// Shards the run's `ShardPlan` derived for that size.
    pub shards: usize,
    /// Rows in the seeded equivalence subsample.
    pub sample_rows: usize,
    /// Peak resident set in MiB (`0.0` = unavailable/deterministic).
    pub peak_rss_mb: f64,
    /// Per-shard accounting rows `(shard, rows, pages, capped)`, as
    /// written — the gate checks exactly `shards` of them, dense and
    /// covering `size` rows, so a vanished shard row cannot pass
    /// silently, and `capped` must agree with the plan derivation at
    /// `size` (baselines that predate the flag parse as uncapped).
    pub shard_rows: Vec<(usize, usize, usize, bool)>,
    /// Equivalence digests by their current [`DIGEST_PAIRS`] name, as hex
    /// strings (keys older baselines wrote are read under their new name).
    pub digests: BTreeMap<String, String>,
}

/// The `large_100k` equivalence digest pairs, `(path, reference, label)`:
/// each path's digest must equal its reference's in-run.
pub const DIGEST_PAIRS: [(&str, &str, &str); 3] = [
    ("harvest_sharded", "harvest_unsharded", "harvest"),
    ("mdav_optimized", "mdav_reference", "hierarchical MDAV"),
    ("intersect_engine", "intersect_oracle", "intersection"),
];

/// Digest keys older baselines wrote, `(legacy, current)`. The MDAV pair
/// always compared the optimized hierarchical partitioner with its
/// reference, never sharded against flat; the intersection pair compared
/// a sharded engine that no longer exists.
const LEGACY_DIGEST_KEYS: [(&str, &str); 4] = [
    ("mdav_sharded", "mdav_optimized"),
    ("mdav_unsharded", "mdav_reference"),
    ("intersect_sharded", "intersect_engine"),
    ("intersect_unsharded", "intersect_oracle"),
];

/// Everything [`parse_baseline`] can recover from one baseline file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Stage name → wall milliseconds (small- and large-world stages share
    /// one namespace; large stages carry a `_large` suffix by construction).
    pub stage_wall_ms: BTreeMap<String, f64>,
    /// `speedup_batch_vs_naive`, when present.
    pub speedup_batch_vs_naive: Option<f64>,
    /// `speedup_harvest_parallel_vs_single` (older baselines:
    /// `speedup_harvest_parallel_vs_seq`), when present.
    pub speedup_harvest_parallel_vs_single: Option<f64>,
    /// `cores` recorded in the config block, when present.
    pub cores: Option<usize>,
    /// `cores` recorded inside the `large` block, when present — the
    /// count the large-world gates key off.
    pub large_cores: Option<usize>,
    /// Quick-world composition rows, ascending in releases, when present.
    pub composition: Vec<CompositionRow>,
    /// Large-world (`composition_large`) rows, when present.
    pub composition_large: Vec<CompositionRow>,
    /// Defense rows (policy-major), when present.
    pub composition_defense: Vec<DefenseRow>,
    /// `k` recorded in the `composition_defense` block, when present —
    /// the floor the `calibrated_widen_*` candidate gate checks against.
    pub defense_k: Option<usize>,
    /// Hypothesis-testing eval cells, when present (undefended cells
    /// first, then one row per defense policy).
    pub eval: Vec<EvalRow>,
    /// Robustness rows, ascending in fault rate, when present.
    pub robustness: Vec<RobustnessRow>,
    /// The sharded-scale `large_100k` block, when present.
    pub large_100k: Option<Sharded100kBlock>,
    /// `seed` recorded in the config block, when present — the
    /// `large_100k` digest pin only binds runs of the same seed.
    pub seed: Option<u64>,
    /// The recovery ledger, when present.
    pub recovery: Option<RecoveryBlock>,
    /// The observability profile block, when present.
    pub profile: Option<ProfileBlock>,
    /// `deterministic` recorded in the config block; `None` for
    /// baselines that predate the field (equivalent to `false`).
    pub deterministic: Option<bool>,
    /// Composition/defense row lines that carried an unparseable or
    /// non-finite value — each one is a gate violation when found in a
    /// fresh run.
    pub malformed_rows: Vec<String>,
    /// Structural sanity failures — a file with any of these is corrupt
    /// (truncated write, wrong file, hand-edit gone wrong) and must not
    /// gate anything: every entry is a violation on either side of the
    /// diff.
    pub structural_errors: Vec<String>,
}

/// The outcome of [`compare_baselines`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Human-readable observations that did not fail the gate.
    pub notes: Vec<String>,
    /// Gate failures; empty means the fresh run passed.
    pub violations: Vec<String>,
}

/// Pulls the quoted value following `"key":` out of a line, if present.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(&rest[..rest.find('"')?])
}

/// Pulls the numeric value following `"key":` out of a line, if present.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = line[line.find(&needle)? + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a `BENCH_sweep.json` produced by
/// [`QuickBench::to_json`](crate::perf::QuickBench::to_json).
///
/// The scan is line-oriented over that one writer's stable shape; the
/// only structure it tracks is which block it is inside — `large` (for
/// its `cores` line) and whichever composition block (`composition` vs
/// `composition_large`) opened most recently (for attributing rows).
pub fn parse_baseline(json: &str) -> Baseline {
    /// Which composition block subsequent rows belong to.
    enum Series {
        Quick,
        Large,
        Defense,
    }
    let mut out = Baseline::default();
    let mut in_large = false;
    let mut in_large_100k = false;
    let mut saw_config = false;
    let mut series = Series::Quick;
    for line in json.lines() {
        if line.contains("\"config\":") {
            saw_config = true;
            if let Some(seed) = num_field(line, "seed") {
                out.seed = Some(seed as u64);
            }
            if line.contains("\"deterministic\": true") {
                out.deterministic = Some(true);
            } else if line.contains("\"deterministic\": false") {
                out.deterministic = Some(false);
            }
        }
        if line.contains("\"large\":") {
            in_large = true;
        }
        if line.contains("\"large_100k\":") {
            // The writer emits the sharded block after (and outside)
            // `large`, so its header closes that block's cores scope.
            in_large_100k = true;
            in_large = false;
            out.large_100k = Some(Sharded100kBlock::default());
        }
        if line.contains("\"composition_defense\":") {
            series = Series::Defense;
            in_large = false;
            in_large_100k = false;
        } else if line.contains("\"composition_large\":") {
            series = Series::Large;
        } else if line.contains("\"composition\":") {
            // The quick-world block closes the large block (the writer
            // emits it after `large`).
            series = Series::Quick;
            in_large = false;
            in_large_100k = false;
        }
        // The sharded block's scalar header lines, shard accounting rows
        // and digest line. Stage rows inside it fall through to the
        // shared `"name"`/`"wall_ms"` branch below: the 100k stages live
        // in the same timing namespace as every other stage.
        if in_large_100k {
            if let Some(big) = &mut out.large_100k {
                if line.contains("\"digests\":") {
                    let mut complete = true;
                    for key in DIGEST_PAIRS.iter().flat_map(|&(a, b, _)| [a, b]) {
                        let legacy = LEGACY_DIGEST_KEYS
                            .iter()
                            .find(|&&(_, current)| current == key)
                            .and_then(|&(old, _)| str_field(line, old));
                        match str_field(line, key).or(legacy) {
                            Some(hex) => {
                                big.digests.insert(key.to_owned(), hex.to_owned());
                            }
                            None => complete = false,
                        }
                    }
                    if !complete {
                        out.malformed_rows.push(line.trim().to_owned());
                    }
                    // The digest line is the block's final field.
                    in_large_100k = false;
                    continue;
                }
                if line.contains("\"shard\":") {
                    match (
                        num_field(line, "shard"),
                        num_field(line, "rows"),
                        num_field(line, "pages"),
                    ) {
                        (Some(shard), Some(rows), Some(pages)) => {
                            // Pre-cap baselines carry no flag; every
                            // size they ran at derived exactly.
                            let capped = line.contains("\"capped\": true");
                            big.shard_rows.push((
                                shard as usize,
                                rows as usize,
                                pages as usize,
                                capped,
                            ));
                        }
                        _ => out.malformed_rows.push(line.trim().to_owned()),
                    }
                    continue;
                }
                if !line.contains("\"name\":") {
                    if let Some(v) = num_field(line, "size") {
                        big.size = v as usize;
                    }
                    if let Some(v) = num_field(line, "shards") {
                        big.shards = v as usize;
                    }
                    if let Some(v) = num_field(line, "sample_rows") {
                        big.sample_rows = v as usize;
                    }
                    if let Some(v) = num_field(line, "peak_rss_mb") {
                        if v.is_finite() {
                            big.peak_rss_mb = v;
                        } else {
                            out.malformed_rows.push(line.trim().to_owned());
                        }
                    }
                }
            }
        }
        if matches!(series, Series::Defense) && line.contains("\"overlap\":") {
            if let Some(k) = num_field(line, "k") {
                out.defense_k = Some(k as usize);
            }
        }
        if let (Some(name), Some(wall)) = (str_field(line, "name"), num_field(line, "wall_ms")) {
            out.stage_wall_ms.insert(name.to_owned(), wall);
            continue;
        }
        if let Some(v) = num_field(line, "speedup_batch_vs_naive") {
            out.speedup_batch_vs_naive = Some(v);
        }
        // Current key first; pre-PR-4 baselines recorded the ratio
        // against the exhaustive sequential reference under the old name.
        if let Some(v) = num_field(line, "speedup_harvest_parallel_vs_single")
            .or_else(|| num_field(line, "speedup_harvest_parallel_vs_seq"))
        {
            out.speedup_harvest_parallel_vs_single = Some(v);
        }
        if let Some(v) = num_field(line, "cores") {
            if line.contains("\"config\"") {
                out.cores = Some(v as usize);
            } else if in_large {
                out.large_cores = Some(v as usize);
            }
        }
        if line.contains("\"fault_rate\":") {
            let fields = (
                num_field(line, "fault_rate"),
                num_field(line, "harvest_precision"),
                num_field(line, "harvest_coverage"),
                num_field(line, "composition_gain"),
                num_field(line, "pages_rejected"),
                num_field(line, "rows_skipped"),
                num_field(line, "fields_imputed"),
                num_field(line, "workers_restarted"),
            );
            match fields {
                (
                    Some(rate),
                    Some(prec),
                    Some(cov),
                    Some(gain),
                    Some(pages),
                    Some(rows),
                    Some(cells),
                    Some(workers),
                ) if rate.is_finite()
                    && prec.is_finite()
                    && cov.is_finite()
                    && gain.is_finite() =>
                {
                    // Pre-shard-loss baselines carry no shards_lost
                    // field; every row they have lost zero shards.
                    let shards = num_field(line, "shards_lost").unwrap_or(0.0);
                    out.robustness.push(RobustnessRow {
                        fault_rate: rate,
                        // Pre-targeted-corruption baselines carry no
                        // mode field; every row they have is uniform.
                        mode: str_field(line, "mode").unwrap_or("uniform").to_owned(),
                        harvest_precision: prec,
                        harvest_coverage: cov,
                        composition_gain: gain,
                        defects: (pages + rows + cells + workers + shards) as usize,
                        pages_rejected: pages as usize,
                        rows_skipped: rows as usize,
                        fields_imputed: cells as usize,
                        workers_restarted: workers as usize,
                        shards_lost: shards as usize,
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // The recovery ledger header — keyed off `transient_rate`, which
        // no other block carries (the robustness header's rate line is
        // `max_rate`).
        if line.contains("\"transient_rate\":") {
            let fields = (
                num_field(line, "seed"),
                num_field(line, "transient_rate"),
                num_field(line, "max_attempts"),
                num_field(line, "retries_total"),
                num_field(line, "escaped_panics"),
            );
            match fields {
                (Some(seed), Some(rate), Some(max_a), Some(total), Some(esc))
                    if rate.is_finite() =>
                {
                    out.recovery = Some(RecoveryBlock {
                        seed: seed as u64,
                        transient_rate: rate,
                        max_attempts: max_a as usize,
                        retries_total: total as usize,
                        // Pre-observability baselines predate the field.
                        quarantined_total: num_field(line, "quarantined_total")
                            .map_or(0, |q| q as usize),
                        escaped_panics: esc as usize,
                        rows: Vec::new(),
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // A recovery stage row — `"stage"` + `"attempts"` together occur
        // nowhere else (timing stages are keyed `"name"`).
        if line.contains("\"stage\":") && line.contains("\"attempts\":") {
            let fields = (
                str_field(line, "stage"),
                num_field(line, "attempts"),
                num_field(line, "retries"),
                num_field(line, "backoff_ms"),
            );
            match (&mut out.recovery, fields) {
                (Some(rec), (Some(stage), Some(att), Some(ret), Some(back)))
                    if back.is_finite() =>
                {
                    rec.rows.push(RecoveryRow {
                        stage: stage.to_owned(),
                        attempts: att as usize,
                        retries: ret as usize,
                        backoff_ms: back,
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // The profile header — keyed off `spans_total`, which no other
        // block carries.
        if line.contains("\"spans_total\":") {
            let fields = (
                num_field(line, "spans_total"),
                num_field(line, "events_total"),
                str_field(line, "span_tree_digest"),
            );
            match fields {
                (Some(spans), Some(events), Some(digest)) => {
                    out.profile = Some(ProfileBlock {
                        deterministic: line.contains("\"deterministic\": true"),
                        spans_total: spans as u64,
                        events_total: events as u64,
                        span_tree_digest: digest.to_owned(),
                        overhead_probe_calls: 0,
                        overhead_wall_ms: 0.0,
                        overhead_pct_of_large: 0.0,
                        stages: Vec::new(),
                        counters: BTreeMap::new(),
                        hists: BTreeMap::new(),
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // The profile's overhead line — `probe_calls` is unique to it.
        if line.contains("\"probe_calls\":") {
            let fields = (
                num_field(line, "probe_calls"),
                num_field(line, "wall_ms"),
                num_field(line, "pct_of_large"),
            );
            match (&mut out.profile, fields) {
                (Some(prof), (Some(calls), Some(wall), Some(pct)))
                    if wall.is_finite() && pct.is_finite() =>
                {
                    prof.overhead_probe_calls = calls as u64;
                    prof.overhead_wall_ms = wall;
                    prof.overhead_pct_of_large = pct;
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // A profile stage row — `"stage"` + `"self_ms"` together occur
        // nowhere else (recovery rows pair `"stage"` with `"attempts"`).
        if line.contains("\"stage\":") && line.contains("\"self_ms\":") {
            let fields = (
                str_field(line, "stage"),
                num_field(line, "self_ms"),
                num_field(line, "spans"),
            );
            match (&mut out.profile, fields) {
                (Some(prof), (Some(stage), Some(self_ms), Some(spans))) if self_ms.is_finite() => {
                    prof.stages.push(ProfileRow {
                        stage: stage.to_owned(),
                        self_ms,
                        spans: spans as usize,
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // A profile counter row.
        if line.contains("\"counter\":") {
            let fields = (str_field(line, "counter"), num_field(line, "value"));
            match (&mut out.profile, fields) {
                (Some(prof), (Some(name), Some(value))) => {
                    prof.counters.insert(name.to_owned(), value as u64);
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // A profile histogram row — `"hist"` occurs nowhere else.
        if line.contains("\"hist\":") {
            let fields = (
                str_field(line, "hist"),
                num_field(line, "count"),
                num_field(line, "sum_ms"),
            );
            match (&mut out.profile, fields) {
                (Some(prof), (Some(name), Some(count), Some(sum))) if sum.is_finite() => {
                    prof.hists.insert(name.to_owned(), (count as u64, sum));
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        // A hypothesis-testing eval cell — `"auc"` occurs nowhere else.
        // A NaN metric does not survive `num_field` (the writer renders
        // it as `NaN`, which the numeric scan rejects), so a poisoned
        // cell lands in `malformed_rows` and refuses to gate instead of
        // slipping past the comparison gates below.
        if line.contains("\"auc\":") {
            let fields = (
                num_field(line, "k"),
                num_field(line, "releases"),
                str_field(line, "defense"),
                num_field(line, "targets"),
                num_field(line, "decoys"),
                num_field(line, "auc"),
                num_field(line, "tpr_at_fpr3"),
                num_field(line, "epsilon"),
            );
            match fields {
                (
                    Some(k),
                    Some(releases),
                    Some(defense),
                    Some(targets),
                    Some(decoys),
                    Some(auc),
                    Some(tpr),
                    Some(eps),
                ) if auc.is_finite() && tpr.is_finite() && eps.is_finite() => {
                    out.eval.push(EvalRow {
                        k: k as usize,
                        releases: releases as usize,
                        defense: defense.to_owned(),
                        targets: targets as usize,
                        decoys: decoys as usize,
                        auc,
                        tpr_at_fpr3: tpr,
                        epsilon: eps,
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        if line.contains("\"residual_gain\":") {
            let fields = (
                str_field(line, "policy"),
                num_field(line, "releases"),
                num_field(line, "residual_gain"),
                num_field(line, "undefended_gain"),
                num_field(line, "mean_candidates"),
                num_field(line, "utility_cost"),
            );
            match fields {
                (Some(policy), Some(r), Some(res), Some(undef), Some(cand), Some(cost))
                    if res.is_finite()
                        && undef.is_finite()
                        && cand.is_finite()
                        && cost.is_finite() =>
                {
                    out.composition_defense.push(DefenseRow {
                        policy: policy.to_owned(),
                        releases: r as usize,
                        residual_gain: res,
                        undefended_gain: undef,
                        mean_candidates: cand,
                        utility_cost: cost,
                    });
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
            continue;
        }
        if line.contains("\"disclosure_gain\":") {
            let fields = (
                num_field(line, "releases"),
                num_field(line, "disclosure_gain"),
                num_field(line, "mean_candidates"),
                num_field(line, "estimate_gain"),
            );
            match fields {
                (Some(r), Some(gain), Some(cand), Some(est))
                    if gain.is_finite() && cand.is_finite() && est.is_finite() =>
                {
                    let row = (r as usize, gain, cand);
                    match series {
                        Series::Quick => out.composition.push(row),
                        Series::Large => out.composition_large.push(row),
                        Series::Defense => out.malformed_rows.push(line.trim().to_owned()),
                    }
                }
                _ => out.malformed_rows.push(line.trim().to_owned()),
            }
        }
    }
    if !saw_config {
        out.structural_errors
            .push("no config line found — not a BENCH_sweep.json".into());
    }
    if out.stage_wall_ms.is_empty() {
        out.structural_errors
            .push("no parseable stage rows found".into());
    }
    if !json.trim_end().ends_with('}') {
        out.structural_errors
            .push("file does not end with a closing brace (truncated write?)".into());
    }
    out
}

/// Diffs a fresh baseline against the committed one under the gate rules.
pub fn compare_baselines(committed_json: &str, fresh_json: &str) -> CompareReport {
    let committed = parse_baseline(committed_json);
    let fresh = parse_baseline(fresh_json);
    let mut report = CompareReport::default();

    // Structural corruption disarms every gate below (an empty parse
    // trivially has no stages to regress, no blocks to lose), so it must
    // refuse to gate, loudly, before anything else runs.
    for err in &committed.structural_errors {
        report.violations.push(format!(
            "committed baseline is structurally corrupt (regenerate it): {err}"
        ));
    }
    for err in &fresh.structural_errors {
        report
            .violations
            .push(format!("fresh baseline is structurally corrupt: {err}"));
    }
    if !report.violations.is_empty() {
        return report;
    }

    // A checkpointed run zeroes every wall-clock at source so resume can
    // be bit-identical; its timings are all sentinel zeros.
    let fresh_det = fresh.deterministic == Some(true);
    if committed.deterministic == Some(true) {
        report.violations.push(
            "committed baseline is a deterministic (checkpointed) run — its zeroed \
             timings disarm every timing gate; regenerate it without --checkpoint-dir"
                .into(),
        );
    }

    if fresh_det {
        report
            .notes
            .push("fresh run is deterministic (checkpointed): timing gates skipped".into());
    } else {
        match fresh.speedup_batch_vs_naive {
            Some(v) if v < MIN_BATCH_SPEEDUP => report.violations.push(format!(
                "speedup_batch_vs_naive fell to {v:.2} (must stay >= {MIN_BATCH_SPEEDUP:.1})"
            )),
            Some(v) => report
                .notes
                .push(format!("speedup_batch_vs_naive = {v:.2}")),
            None => report
                .violations
                .push("fresh baseline carries no speedup_batch_vs_naive".into()),
        }
    }

    for (name, &committed_ms) in &committed.stage_wall_ms {
        let Some(&fresh_ms) = fresh.stage_wall_ms.get(name) else {
            report.violations.push(format!(
                "stage `{name}` disappeared from the fresh baseline"
            ));
            continue;
        };
        if fresh_det || committed_ms < STAGE_FLOOR_MS {
            continue;
        }
        let ratio = fresh_ms / committed_ms;
        if ratio > MAX_STAGE_REGRESSION {
            report.violations.push(format!(
                "stage `{name}` regressed {ratio:.2}x ({committed_ms:.3} ms -> {fresh_ms:.3} ms, \
                 limit {MAX_STAGE_REGRESSION:.1}x)"
            ));
        }
    }

    // The composition gates: the physics of the stage, not its timing. A
    // fresh run must keep the per-record disclosure gain strictly
    // increasing in the release count and never let a target's candidate
    // pool grow with an added release. The quick-world block and the
    // 10k-row `composition_large` block gate independently.
    let gate_series = |label: &str,
                       committed: &[CompositionRow],
                       fresh: &[CompositionRow],
                       report: &mut CompareReport| {
        if !committed.is_empty() && fresh.is_empty() {
            report
                .violations
                .push(format!("{label} stage disappeared from the fresh baseline"));
        }
        for pair in fresh.windows(2) {
            let ((r0, g0, c0), (r1, g1, c1)) = (pair[0], pair[1]);
            if g1 <= g0 {
                report.violations.push(format!(
                    "{label} disclosure gain not strictly increasing: R={r0} -> {g0:.1}, \
                         R={r1} -> {g1:.1}"
                ));
            }
            if c1 > c0 + 1e-9 {
                report.violations.push(format!(
                    "{label} candidate count rose with an added release: R={r0} -> {c0:.2}, \
                         R={r1} -> {c1:.2}"
                ));
            }
        }
        if let Some((r, last_gain, _)) = fresh.last() {
            report.notes.push(format!(
                "{label} disclosure gain at R={r} is {last_gain:.1}"
            ));
        }
    };
    gate_series(
        "composition",
        &committed.composition,
        &fresh.composition,
        &mut report,
    );
    gate_series(
        "composition_large",
        &committed.composition_large,
        &fresh.composition_large,
        &mut report,
    );
    // The defense gates: a deployed policy that stops defending is a
    // regression just like a slowed stage. Per policy, the top-R row
    // must keep its residual gain strictly below the undefended gain,
    // and calibrated widening must hold the candidate floor it is named
    // for at every R.
    if !committed.composition_defense.is_empty() && fresh.composition_defense.is_empty() {
        report
            .violations
            .push("composition_defense stage disappeared from the fresh baseline".into());
    }
    // A single policy vanishing from a still-present block is the same
    // regression as the block vanishing — the per-policy gates below
    // only see the fresh run's policies, so guard the roster here.
    if !fresh.composition_defense.is_empty() {
        for row in &committed.composition_defense {
            if !fresh
                .composition_defense
                .iter()
                .any(|f| f.policy == row.policy)
                && !report.violations.iter().any(|v| v.contains(&row.policy))
            {
                report.violations.push(format!(
                    "defense `{}` disappeared from the fresh baseline",
                    row.policy
                ));
            }
        }
    }
    let mut policies: Vec<&str> = Vec::new();
    for row in &fresh.composition_defense {
        if !policies.contains(&row.policy.as_str()) {
            policies.push(&row.policy);
        }
    }
    for policy in policies {
        let rows: Vec<&DefenseRow> = fresh
            .composition_defense
            .iter()
            .filter(|r| r.policy == policy)
            .collect();
        // `policies` was built from the row list, so a group is never
        // empty — but this path also runs against a *committed* baseline
        // someone may have hand-edited, and the committed side must fail
        // structurally, never panic the gate binary.
        let Some(last) = rows.iter().max_by_key(|r| r.releases) else {
            continue;
        };
        if last.releases > 1 {
            if last.residual_gain >= last.undefended_gain {
                report.violations.push(format!(
                    "defense `{policy}` residual gain {:.1} is not strictly below the \
                     undefended gain {:.1} at R={}",
                    last.residual_gain, last.undefended_gain, last.releases
                ));
            } else {
                report.notes.push(format!(
                    "defense `{policy}`: residual gain {:.1} vs undefended {:.1} at R={} \
                     (utility cost {:.1})",
                    last.residual_gain, last.undefended_gain, last.releases, last.utility_cost
                ));
            }
        }
        if policy.starts_with("calibrated_widen") {
            match fresh.defense_k {
                Some(k) => {
                    for row in &rows {
                        if row.mean_candidates + 1e-9 < k as f64 {
                            report.violations.push(format!(
                                "defense `{policy}` mean candidates fell to {:.2} at R={} \
                                 (must stay >= k = {k})",
                                row.mean_candidates, row.releases
                            ));
                        }
                    }
                }
                None => report.violations.push(format!(
                    "defense `{policy}` rows present but the composition_defense block \
                     carries no k line to gate the candidate floor against"
                )),
            }
        }
    }
    // The hypothesis-testing eval gates: like the shard gates, the
    // block's claims are physics, not timing, so every in-run gate runs
    // on the fresh side even against a committed baseline that predates
    // the block — only the cross-run drift pin needs a committed
    // counterpart (and says so in a note when it cannot bind, so the
    // gate is never silently vacuous).
    if !committed.eval.is_empty() && fresh.eval.is_empty() {
        report
            .violations
            .push("eval (hypothesis-testing) block disappeared from the fresh baseline".into());
    }
    if !fresh.eval.is_empty() {
        for row in &fresh.eval {
            if row.targets == 0 || row.decoys == 0 {
                report.violations.push(format!(
                    "eval cell k={} R={} `{}` scored an empty population ({} targets, \
                     {} decoys) — both classes are required for a hypothesis test",
                    row.k, row.releases, row.defense, row.targets, row.decoys
                ));
            }
            if row.auc < 0.5 - EVAL_AUC_SLACK || row.auc > 1.0 + 1e-9 {
                report.violations.push(format!(
                    "eval cell k={} R={} `{}` AUC {:.4} is outside [{:.2}, 1.0] — the \
                     score must discriminate no worse than chance and cannot beat a \
                     perfect test",
                    row.k,
                    row.releases,
                    row.defense,
                    row.auc,
                    0.5 - EVAL_AUC_SLACK
                ));
            }
            if !(0.0..=1.0 + 1e-9).contains(&row.tpr_at_fpr3) {
                report.violations.push(format!(
                    "eval cell k={} R={} `{}` TPR@1e-3 {:.4} is outside [0, 1]",
                    row.k, row.releases, row.defense, row.tpr_at_fpr3
                ));
            }
            if row.epsilon < -EVAL_EPSILON_SLACK {
                report.violations.push(format!(
                    "eval cell k={} R={} `{}` empirical ε {:.4} is negative — the \
                     Laplace-corrected max log-likelihood ratio over thresholds \
                     includes the accept-nothing threshold, so it cannot fall below 0",
                    row.k, row.releases, row.defense, row.epsilon
                ));
            }
        }
        // Stronger anonymity must not leak more: within a (R, defense)
        // group, ε is non-increasing in k.
        for a in &fresh.eval {
            for b in &fresh.eval {
                if a.defense == b.defense
                    && a.releases == b.releases
                    && a.k < b.k
                    && b.epsilon > a.epsilon + EVAL_EPSILON_SLACK
                {
                    report.violations.push(format!(
                        "eval ε rose with k at R={} `{}`: k={} -> {:.4}, k={} -> {:.4} \
                         — stronger anonymity must not leak more",
                        a.releases, a.defense, a.k, a.epsilon, b.k, b.epsilon
                    ));
                }
            }
        }
        // A deployed defense must not make the attacker's test better
        // than the undefended reference at the same cell.
        for row in fresh.eval.iter().filter(|r| r.defense != "none") {
            match fresh
                .eval
                .iter()
                .find(|u| u.defense == "none" && u.k == row.k && u.releases == row.releases)
            {
                Some(undef) => {
                    if row.epsilon > undef.epsilon + EVAL_EPSILON_SLACK {
                        report.violations.push(format!(
                            "eval defended ε {:.4} under `{}` exceeds the undefended ε \
                             {:.4} at the same (k={}, R={}) — the defense made the \
                             attacker's test stronger",
                            row.epsilon, row.defense, undef.epsilon, row.k, row.releases
                        ));
                    }
                }
                None => report.violations.push(format!(
                    "eval defended cell `{}` at (k={}, R={}) has no undefended \
                     reference cell to gate against",
                    row.defense, row.k, row.releases
                )),
            }
        }
        // Cross-run drift pin: the cell is a pure function of (seed,
        // size, defense), so matched cells must agree across runs.
        if committed.eval.is_empty() {
            report.notes.push(format!(
                "committed baseline predates the eval block: in-run eval gates applied \
                 over {} cell(s); cross-run drift pin starts once the baseline is \
                 regenerated",
                fresh.eval.len()
            ));
        } else if committed.seed != fresh.seed {
            report.notes.push(
                "eval seed changed: cross-run drift pin skipped, in-run gates still applied".into(),
            );
        } else {
            for row in &fresh.eval {
                let Some(base) = committed.eval.iter().find(|b| {
                    b.k == row.k
                        && b.releases == row.releases
                        && b.defense == row.defense
                        && b.targets == row.targets
                        && b.decoys == row.decoys
                }) else {
                    continue;
                };
                for (metric, fresh_v, base_v) in [
                    ("AUC", row.auc, base.auc),
                    ("TPR@1e-3", row.tpr_at_fpr3, base.tpr_at_fpr3),
                    ("ε", row.epsilon, base.epsilon),
                ] {
                    if (fresh_v - base_v).abs() > EVAL_DRIFT_SLACK {
                        report.violations.push(format!(
                            "eval {metric} drifted at (k={}, R={}, `{}`): {fresh_v:.4} \
                             vs committed {base_v:.4} — the cell is seeded and \
                             deterministic, so this is a behavior change",
                            row.k, row.releases, row.defense
                        ));
                    }
                }
            }
        }
        if let Some(top) = fresh
            .eval
            .iter()
            .filter(|r| r.defense == "none")
            .max_by_key(|r| (r.k, r.releases))
        {
            report.notes.push(format!(
                "eval: {} cell(s); undefended k={} R={} reaches AUC {:.4}, ε {:.4}",
                fresh.eval.len(),
                top.k,
                top.releases,
                top.auc,
                top.epsilon
            ));
        }
    }
    // The robustness gates: graceful degradation is a committed
    // property. The fault-free row is pinned exactly (it *is* the strict
    // pipeline, so any drift there is a zero-fault behavior change, not
    // noise), and faulted rows must stay inside the committed envelope —
    // corruption is seeded, so rate-matched rows measure the identical
    // injected pattern and legitimately differ only through code changes.
    if !committed.robustness.is_empty() && fresh.robustness.is_empty() {
        report
            .violations
            .push("robustness stage disappeared from the fresh baseline".into());
    }
    if !fresh.robustness.is_empty() {
        match fresh.robustness.iter().find(|r| r.fault_rate == 0.0) {
            None => report
                .violations
                .push("robustness block carries no zero-fault reference row".into()),
            Some(zero) => {
                if zero.defects != 0 {
                    report.violations.push(format!(
                        "zero-fault robustness row survived {} defect(s) — the fault-free \
                         path must be an exact passthrough",
                        zero.defects
                    ));
                }
                if let Some(pinned) = committed.robustness.iter().find(|r| r.fault_rate == 0.0) {
                    if zero != pinned {
                        report.violations.push(format!(
                            "zero-fault robustness row drifted from the committed baseline \
                             (fault-free output must stay bit-identical): committed \
                             {pinned:?}, fresh {zero:?}"
                        ));
                    }
                }
            }
        }
        // The worst-case `targeted` row shares its rate with a uniform
        // row by design (worst-case next to average-case at the same
        // budget), so envelope rows pair on `(rate, mode)` — matching on
        // rate alone would gate the adversarial row against the much
        // gentler average-case numbers.
        for row in &fresh.robustness {
            if row.fault_rate == 0.0 {
                continue;
            }
            let Some(base) = committed
                .robustness
                .iter()
                .find(|b| b.fault_rate == row.fault_rate && b.mode == row.mode)
            else {
                continue;
            };
            if row.harvest_precision + ROBUSTNESS_PRECISION_SLACK < base.harvest_precision {
                report.violations.push(format!(
                    "robustness harvest precision at {} fault rate {:.3} fell to {:.4} \
                     (committed {:.4}, slack {ROBUSTNESS_PRECISION_SLACK})",
                    row.mode, row.fault_rate, row.harvest_precision, base.harvest_precision
                ));
            }
            if base.composition_gain > 0.0
                && row.composition_gain < base.composition_gain * ROBUSTNESS_GAIN_FLOOR
            {
                report.violations.push(format!(
                    "robustness composition gain at {} fault rate {:.3} fell to {:.1} \
                     (committed {:.1}, floor {ROBUSTNESS_GAIN_FLOOR} of it)",
                    row.mode, row.fault_rate, row.composition_gain, base.composition_gain
                ));
            }
        }
        // A committed targeted row is a committed property like any
        // other: a fresh run that silently stops measuring the
        // worst case has lost the gate, not passed it.
        if committed.robustness.iter().any(|r| r.mode == "targeted")
            && !fresh.robustness.iter().any(|r| r.mode == "targeted")
        {
            report.violations.push(
                "targeted (worst-case) robustness row disappeared from the fresh baseline".into(),
            );
        }
        if let Some(top) = fresh.robustness.last() {
            report.notes.push(format!(
                "robustness: precision {:.3}, gain {:.1} at {} fault rate {:.3} \
                 ({} defects survived, zero panics)",
                top.harvest_precision, top.composition_gain, top.mode, top.fault_rate, top.defects
            ));
        }
    }
    // The sharded-scale gates: the `large_100k` block's claims are
    // structural, not timed, so every one of them holds on fresh runs
    // even against a committed baseline that predates the block — a
    // pre-shard baseline must never make the shard gates vacuous. The
    // sharded paths are pure functions of (seed, size), so when the
    // committed block shares the fresh run's (seed, size, shards)
    // triple, every equivalence digest is pinned exactly.
    if committed.large_100k.is_some() && fresh.large_100k.is_none() {
        report
            .violations
            .push("large_100k (sharded) block disappeared from the fresh baseline".into());
    }
    if let Some(big) = &fresh.large_100k {
        for (path, reference, label) in DIGEST_PAIRS {
            match (big.digests.get(path), big.digests.get(reference)) {
                (Some(s), Some(u)) if s == u => {}
                (Some(s), Some(u)) => report.violations.push(format!(
                    "large_100k {label} diverged from its reference: digest {s} vs \
                     reference {u}"
                )),
                _ => report.violations.push(format!(
                    "large_100k block carries no {label} digest pair — the \
                     equivalence gate cannot run"
                )),
            }
        }
        if big.shard_rows.len() != big.shards {
            report.violations.push(format!(
                "large_100k shard accounting lost a shard: {} row(s) for {} shard(s)",
                big.shard_rows.len(),
                big.shards
            ));
        } else if big
            .shard_rows
            .iter()
            .enumerate()
            .any(|(i, (shard, _, _, _))| *shard != i)
        {
            report.violations.push(format!(
                "large_100k shard rows are not dense ascending: {:?}",
                big.shard_rows
            ));
        }
        let covered: usize = big.shard_rows.iter().map(|(_, rows, _, _)| rows).sum();
        if covered != big.size {
            report.violations.push(format!(
                "large_100k shard rows cover {} of {} master rows — every row must \
                 belong to exactly one shard",
                covered, big.size
            ));
        }
        // The capped flag must agree with the plan derivation: a
        // saturated plan holds more rows per shard than the
        // one-per-12.5k rate, and a row that misreports it reintroduces
        // exactly the misread the flag exists to prevent.
        let expected_cap = fred_data::ShardPlan::for_size_saturated(big.size);
        if big
            .shard_rows
            .iter()
            .any(|(_, _, _, capped)| *capped != expected_cap)
        {
            report.violations.push(format!(
                "large_100k shard rows misreport cap saturation at {} rows across {} \
                 shard(s): expected capped = {expected_cap}",
                big.size, big.shards
            ));
        }
        if expected_cap && !big.shard_rows.is_empty() {
            report.notes.push(format!(
                "large_100k shard plan saturated at the derivation ceiling: {} shard(s) \
                 hold ~{} rows each, not one per 12.5k",
                big.shards,
                big.size / big.shards.max(1)
            ));
        }
        if big.peak_rss_mb > MAX_100K_PEAK_RSS_MB {
            report.violations.push(format!(
                "large_100k peak rss reached {:.1} MiB at {} rows (must stay <= \
                 {MAX_100K_PEAK_RSS_MB:.0} MiB — the sharded pipeline's memory must \
                 not scale with the master width)",
                big.peak_rss_mb, big.size
            ));
        }
        match &committed.large_100k {
            Some(base)
                if base.size == big.size
                    && base.shards == big.shards
                    && committed.seed == fresh.seed =>
            {
                if base.digests != big.digests {
                    report.violations.push(format!(
                        "large_100k digests drifted at the same (seed, size {}, shards {}) \
                         — the sharded pipeline is seeded and deterministic, so this is a \
                         behavior change: committed {:?}, fresh {:?}",
                        big.size, big.shards, base.digests, big.digests
                    ));
                }
            }
            Some(base) => report.notes.push(format!(
                "large_100k config changed (committed size {} / {} shards, fresh size {} / \
                 {} shards): cross-run digest pin skipped, in-run equivalence still gated",
                base.size, base.shards, big.size, big.shards
            )),
            None => report.notes.push(format!(
                "committed baseline predates the large_100k block: in-run shard gates \
                 applied at size {} / {} shards; cross-run digest pin starts once the \
                 baseline is regenerated",
                big.size, big.shards
            )),
        }
        report.notes.push(format!(
            "large_100k: {} rows across {} shard(s), peak rss {:.1} MiB",
            big.size, big.shards, big.peak_rss_mb
        ));
    }
    // The recovery gates: the ledger is the witness that the runner
    // absorbed every injected transient. Losing it, leaking a panic, or
    // drifting off the seeded retry trace are all regressions.
    if committed.recovery.is_some() && fresh.recovery.is_none() {
        report
            .violations
            .push("recovery ledger disappeared from the fresh baseline".into());
    }
    if let Some(rec) = &fresh.recovery {
        if rec.escaped_panics != 0 {
            report.violations.push(format!(
                "recovery ledger reports {} escaped panic(s) — every injected \
                 transient must be absorbed by the retry policy",
                rec.escaped_panics
            ));
        }
        if let Some(base) = &committed.recovery {
            // Injection sites hash only (plan seed, stage, attempt), so
            // the same triple must reproduce the identical retry trace.
            if base.seed == rec.seed
                && base.transient_rate == rec.transient_rate
                && base.max_attempts == rec.max_attempts
                && rec.retries_total != base.retries_total
            {
                report.violations.push(format!(
                    "recovery retry trace drifted: {} total retries vs committed {} \
                     at the same (seed {}, transient rate {:.3}, max attempts {}) — \
                     seeded injection makes this a pure function of that triple",
                    rec.retries_total,
                    base.retries_total,
                    rec.seed,
                    rec.transient_rate,
                    rec.max_attempts
                ));
            }
            for row in &base.rows {
                if !rec.rows.iter().any(|f| f.stage == row.stage) {
                    report.violations.push(format!(
                        "recovery stage `{}` vanished from the fresh ledger",
                        row.stage
                    ));
                }
            }
        }
        if rec.escaped_panics == 0 {
            report.notes.push(format!(
                "recovery: {} retries absorbed across {} stage(s) at transient rate \
                 {:.3}, zero escaped panics",
                rec.retries_total,
                rec.rows.len(),
                rec.transient_rate
            ));
        }
    }
    // The profile gates: the observability layer self-verifies against
    // the other ledgers in the same file. The span tree wraps each
    // runner stage outside its compute closure, so its digest is a pure
    // function of the enabled stages — identical across fresh,
    // deterministic and resumed runs — and is pinned exactly. On a
    // fresh non-deterministic run the obs counters and the robustness/
    // recovery ledgers are incremented by the same source lines, so
    // they must agree to the unit; any gap is dropped instrumentation.
    if committed.profile.is_some() && fresh.profile.is_none() {
        report
            .violations
            .push("profile block disappeared from the fresh baseline".into());
    }
    if let Some(prof) = &fresh.profile {
        if let Some(base) = &committed.profile {
            if base.span_tree_digest != prof.span_tree_digest {
                report.violations.push(format!(
                    "span tree digest drifted: fresh {} vs committed {} — the tree is a \
                     pure function of the enabled stages, so this is a structural \
                     pipeline change, not noise",
                    prof.span_tree_digest, base.span_tree_digest
                ));
            }
            for row in &base.stages {
                if !prof.stages.iter().any(|f| f.stage == row.stage) {
                    report.violations.push(format!(
                        "profile stage `{}` disappeared from the fresh profile",
                        row.stage
                    ));
                }
            }
        }
        if prof.deterministic {
            report
                .notes
                .push("fresh profile is deterministic: overhead and counter gates skipped".into());
        } else {
            if prof.overhead_pct_of_large > MAX_OBS_OVERHEAD_PCT {
                report.violations.push(format!(
                    "disabled-tracing overhead reached {:.3}% of the large block over \
                     {} probe calls (must stay < {MAX_OBS_OVERHEAD_PCT}%)",
                    prof.overhead_pct_of_large, prof.overhead_probe_calls
                ));
            }
            if !prof.counters.is_empty() {
                let count = |name: &str| prof.counters.get(name).copied().unwrap_or(0) as usize;
                if !fresh.robustness.is_empty() {
                    let ledgers = [
                        (
                            "faults.pages_rejected",
                            fresh.robustness.iter().map(|r| r.pages_rejected).sum(),
                        ),
                        (
                            "faults.rows_skipped",
                            fresh.robustness.iter().map(|r| r.rows_skipped).sum(),
                        ),
                        (
                            "faults.fields_imputed",
                            fresh.robustness.iter().map(|r| r.fields_imputed).sum(),
                        ),
                        (
                            "faults.workers_restarted",
                            fresh.robustness.iter().map(|r| r.workers_restarted).sum(),
                        ),
                        (
                            "faults.shards_lost",
                            fresh.robustness.iter().map(|r| r.shards_lost).sum(),
                        ),
                    ];
                    for (name, ledger) in ledgers {
                        let counted = count(name);
                        if counted != ledger {
                            report.violations.push(format!(
                                "obs counter `{name}` = {counted} disagrees with the \
                                 robustness ledger total {ledger} — counter and ledger \
                                 are written by the same line, so a gap is dropped \
                                 instrumentation"
                            ));
                        }
                    }
                }
                // The harvest latency histogram and the harvest.names
                // counter are bumped by the same classify-extract tail
                // (cached, sequential, sharded and tolerant paths all
                // funnel through it), so their totals must agree to the
                // unit whenever the histogram was recorded.
                if let (Some((hist_count, _)), Some(&names)) = (
                    prof.hists.get("harvest.name_ms"),
                    prof.counters.get("harvest.names"),
                ) {
                    if *hist_count != names {
                        report.violations.push(format!(
                            "obs histogram `harvest.name_ms` recorded {hist_count} \
                             observation(s) but counter `harvest.names` = {names} — \
                             both are written by the same harvest tail, so a gap is \
                             dropped instrumentation"
                        ));
                    }
                }
                if let Some(rec) = &fresh.recovery {
                    let attempts: usize = rec.rows.iter().map(|r| r.attempts).sum();
                    let ledgers = [
                        ("recover.attempts", attempts),
                        ("recover.retries", rec.retries_total),
                        ("recover.quarantines", rec.quarantined_total),
                    ];
                    for (name, ledger) in ledgers {
                        let counted = count(name);
                        if counted != ledger {
                            report.violations.push(format!(
                                "obs counter `{name}` = {counted} disagrees with the \
                                 recovery ledger total {ledger} — counter and ledger \
                                 are written by the same line, so a gap is dropped \
                                 instrumentation"
                            ));
                        }
                    }
                }
            }
            report.notes.push(format!(
                "profile: {} spans (tree {}), {} counters; disabled-tracing probe at \
                 {:.2}% of the large block",
                prof.spans_total,
                prof.span_tree_digest,
                prof.counters.len(),
                prof.overhead_pct_of_large
            ));
        }
    }
    for line in &fresh.malformed_rows {
        report.violations.push(format!(
            "composition row carries a non-finite or unparseable value: {line}"
        ));
    }
    // A corrupt committed baseline is just as disarming: its rows drop
    // out of the parsed series, so the disappeared/monotonicity checks
    // above would silently stop guarding that block. Refuse to gate
    // against it — regenerating the baseline is the remedy.
    for line in &committed.malformed_rows {
        report.violations.push(format!(
            "committed baseline carries a non-finite or unparseable composition row \
             (regenerate it): {line}"
        ));
    }

    // Key the large-world harvest gate off the cores that ran the large
    // block when recorded, so a heterogeneous runner cannot gate the 10k
    // stage against the wrong count.
    let fresh_cores = fresh.large_cores.or(fresh.cores).unwrap_or(1);
    match fresh.speedup_harvest_parallel_vs_single {
        _ if fresh_det => {}
        Some(v) if fresh_cores >= HARVEST_SPEEDUP_MIN_CORES && v < MIN_HARVEST_SPEEDUP => {
            report.violations.push(format!(
                "harvest parallel speedup fell to {v:.2} on {fresh_cores} cores \
                 (must stay >= {MIN_HARVEST_SPEEDUP:.1} on >= {HARVEST_SPEEDUP_MIN_CORES})"
            ))
        }
        Some(v) => report.notes.push(format!(
            "harvest parallel speedup = {v:.2} on {fresh_cores} core(s)"
        )),
        None => {}
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{quick_bench, QuickBenchOptions};
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

    #[test]
    fn parses_its_own_writer_round_trip() {
        let json = small_bench_json(Some(40));
        let b = parse_baseline(&json);
        assert!(b.stage_wall_ms.contains_key("world_build"));
        assert!(b.stage_wall_ms.contains_key("mdav_k5"));
        assert!(b.stage_wall_ms.contains_key("mdav_k5_large"));
        assert!(b.stage_wall_ms.contains_key("harvest_parallel_large"));
        assert!(b.speedup_batch_vs_naive.is_some());
        assert!(b.speedup_harvest_parallel_vs_single.is_some());
        assert!(b.cores.unwrap_or(0) >= 1);
        assert!(b.large_cores.unwrap_or(0) >= 1);
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
        let b = parse_baseline(&json);
        // Both series present, attributed to their own blocks, R = 1..=3
        // each — not nine rows pooled into one series.
        let releases = |rows: &[CompositionRow]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(releases(&b.composition), vec![1, 2, 3]);
        assert_eq!(releases(&b.composition_large), vec![1, 2, 3]);
        assert!(b.stage_wall_ms.contains_key("composition_large"));
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
        let report = compare_baselines(&json, &json);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn slow_batch_speedup_fails() {
        let committed = synthetic_json(100.0, 5.0);
        let degraded = synthetic_json(100.0, 1.10);
        let report = compare_baselines(&committed, &degraded);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("speedup_batch_vs_naive")));
    }

    /// A handcrafted baseline in the writer's format: timings are pinned
    /// so the test does not depend on how fast this machine happens to be.
    fn synthetic_json(mdav_ms: f64, speedup: f64) -> String {
        format!(
            "{{\n  \"config\": {{ \"size\": 120, \"seed\": 2015, \"k_min\": 2, \"k_max\": 10, \"cores\": 1 }},\n  \
             \"stages\": [\n    \
             {{ \"name\": \"world_build\", \"wall_ms\": 1.500, \"rows\": 120, \"rows_per_sec\": 80000.0 }},\n    \
             {{ \"name\": \"mdav_k5\", \"wall_ms\": {mdav_ms:.3}, \"rows\": 120, \"rows_per_sec\": 1000.0 }}\n  \
             ],\n  \"speedup_batch_vs_naive\": {speedup:.2}\n}}\n"
        )
    }

    #[test]
    fn stage_blowup_fails() {
        // Committed: 100 ms (above floor). Fresh: 1000 ms — a 10x blow-up.
        let committed = synthetic_json(100.0, 5.0);
        let fresh = synthetic_json(1000.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("`mdav_k5` regressed")),
            "{:?}",
            report.violations
        );
        // Same blow-up ratio below the floor is ignored as noise.
        let committed = synthetic_json(STAGE_FLOOR_MS / 2.0, 5.0);
        let fresh = synthetic_json(STAGE_FLOOR_MS * 4.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// A synthetic baseline with a composition block whose rows are
    /// caller-controlled.
    fn synthetic_composition_json(rows: &[(usize, f64, f64)]) -> String {
        let mut out = synthetic_json(100.0, 5.0);
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(",\n  \"composition\": {\n    \"k\": 5, \"overlap\": 0.50, \"wall_ms\": 10.000,\n    \"rows\": [\n");
        for (i, (r, gain, cand)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"releases\": {r}, \"disclosure_gain\": {gain:.1}, \"mean_candidates\": {cand:.2}, \"estimate_gain\": 0.0 }}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }

    #[test]
    fn composition_rows_parse() {
        let json = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
        let b = parse_baseline(&json);
        assert_eq!(b.composition, vec![(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
    }

    #[test]
    fn monotone_composition_passes_and_flat_gain_fails() {
        let committed =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)]);
        let report = compare_baselines(&committed, &committed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);

        let flat = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 7000.0, 1.7)]);
        let report = compare_baselines(&committed, &flat);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("not strictly increasing")));

        let rising_candidates =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 2.9)]);
        let report = compare_baselines(&committed, &rising_candidates);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("candidate count rose")));
    }

    #[test]
    fn missing_composition_stage_fails() {
        let committed = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("composition stage disappeared")));
    }

    #[test]
    fn non_finite_composition_rows_fail() {
        let committed =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3), (3, 9000.0, 1.7)]);
        let poisoned =
            synthetic_composition_json(&[(1, 0.0, 5.0), (2, f64::NAN, 2.3), (3, 9000.0, 1.7)]);
        let b = parse_baseline(&poisoned);
        // The NaN row must not silently vanish from the series.
        assert_eq!(b.malformed_rows.len(), 1, "{:?}", b.malformed_rows);
        let report = compare_baselines(&committed, &poisoned);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("non-finite or unparseable")),
            "{:?}",
            report.violations
        );
        // A poisoned COMMITTED baseline must refuse to gate, not let a
        // fresh run with a vanished composition stage sail through
        // (the NaN row drops out of the committed series, so the
        // stage-disappeared check alone would never fire).
        let fresh_without_composition = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&poisoned, &fresh_without_composition);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("committed baseline carries")),
            "{:?}",
            report.violations
        );
    }

    /// A handcrafted baseline with a `large` block carrying its own
    /// cores line, a `composition_large` block, and a quick-world
    /// composition block — the full writer shape, with every number
    /// caller-pinned.
    fn synthetic_large_json(
        config_cores: usize,
        large_cores: usize,
        harvest_speedup: f64,
        large_rows: &[(usize, f64, f64)],
        quick_rows: &[(usize, f64, f64)],
    ) -> String {
        let render_rows = |rows: &[(usize, f64, f64)], indent: &str| -> String {
            let mut out = String::new();
            for (i, (r, gain, cand)) in rows.iter().enumerate() {
                out.push_str(&format!(
                    "{indent}{{ \"releases\": {r}, \"disclosure_gain\": {gain:.1}, \"mean_candidates\": {cand:.2}, \"estimate_gain\": 0.0 }}{}\n",
                    if i + 1 < rows.len() { "," } else { "" }
                ));
            }
            out
        };
        format!(
            "{{\n  \"config\": {{ \"size\": 120, \"seed\": 2015, \"k_min\": 2, \"k_max\": 10, \"cores\": {config_cores} }},\n  \
             \"stages\": [\n    \
             {{ \"name\": \"mdav_k5\", \"wall_ms\": 100.000, \"rows\": 120, \"rows_per_sec\": 1000.0 }}\n  \
             ],\n  \"speedup_batch_vs_naive\": 5.00,\n  \
             \"large\": {{\n    \"size\": 10000,\n    \"cores\": {large_cores},\n    \"stages\": [\n      \
             {{ \"name\": \"harvest_parallel_large\", \"wall_ms\": 500.000, \"rows\": 10000, \"rows_per_sec\": 20000.0 }}\n    \
             ],\n    \"speedup_harvest_parallel_vs_single\": {harvest_speedup:.2},\n    \
             \"composition_large\": {{\n      \"k\": 5, \"overlap\": 0.50, \"wall_ms\": 900.000,\n      \"rows\": [\n{}      ]\n    }}\n  }},\n  \
             \"composition\": {{\n    \"k\": 5, \"overlap\": 0.50, \"wall_ms\": 10.000,\n    \"rows\": [\n{}    ]\n  }}\n}}\n",
            render_rows(large_rows, "        "),
            render_rows(quick_rows, "      "),
        )
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
        let b = parse_baseline(&good);
        assert_eq!(b.composition.len(), 3);
        assert_eq!(b.composition_large.len(), 3);
        assert_eq!(b.composition_large[1], (2, 4000.0, 2.8));
        assert_eq!(b.large_cores, Some(1));
        assert_eq!(b.cores, Some(1));
        let report = compare_baselines(&good, &good);
        assert!(report.violations.is_empty(), "{:?}", report.violations);

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
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("composition_large disclosure gain")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn harvest_gate_keys_off_the_large_blocks_cores() {
        let rows_l = [(1usize, 0.0, 5.0), (2, 4000.0, 2.8)];
        let rows_q = [(1usize, 0.0, 5.0), (2, 7000.0, 2.3)];
        // Config says 8 cores but the large block ran on 1: the weak
        // harvest speedup must NOT gate.
        let fresh = synthetic_large_json(8, 1, 1.0, &rows_l, &rows_q);
        let report = compare_baselines(&fresh, &fresh);
        assert!(
            !report.violations.iter().any(|v| v.contains("harvest")),
            "{:?}",
            report.violations
        );
        // Config says 1 core but the large block ran on 8: the weak
        // speedup MUST gate.
        let fresh = synthetic_large_json(1, 8, 1.0, &rows_l, &rows_q);
        let report = compare_baselines(&fresh, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("harvest parallel speedup fell")),
            "{:?}",
            report.violations
        );
    }

    /// A synthetic baseline with a `composition_defense` block whose
    /// rows are caller-controlled `(policy, releases, residual,
    /// undefended, candidates)`.
    fn synthetic_defense_json(k: usize, rows: &[(&str, usize, f64, f64, f64)]) -> String {
        let mut out = synthetic_json(100.0, 5.0);
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(&format!(
            ",\n  \"composition_defense\": {{\n    \"k\": {k}, \"overlap\": 0.50, \"wall_ms\": 25.000,\n    \"rows\": [\n"
        ));
        for (i, (policy, r, res, undef, cand)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"policy\": \"{policy}\", \"releases\": {r}, \"residual_gain\": {res:.1}, \"undefended_gain\": {undef:.1}, \"mean_candidates\": {cand:.2}, \"utility_cost\": 100.0 }}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
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
        let b = parse_baseline(&json);
        assert_eq!(b.defense_k, Some(5));
        assert_eq!(b.composition_defense.len(), 3);
        assert_eq!(b.composition_defense[1].policy, "coordinated_seeds");
        assert_eq!(b.composition_defense[1].undefended_gain, 9000.0);
        assert_eq!(b.composition_defense[2].mean_candidates, 6.1);
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
        let report = compare_baselines(&good, &good);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.notes.iter().any(|n| n.contains("coordinated_seeds")));

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
        assert!(report.notes.iter().any(|n| n.contains("coordinated_seeds")));
    }

    #[test]
    fn missing_defense_stage_fails() {
        let committed = synthetic_defense_json(5, &[("coordinated_seeds", 3, 0.0, 9000.0, 5.0)]);
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("composition_defense stage disappeared")),
            "{:?}",
            report.violations
        );
        // The other direction — a defense block newly appearing — is
        // fine.
        let report = compare_baselines(&fresh, &committed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn non_finite_defense_rows_fail_both_sides() {
        let good = synthetic_defense_json(5, &[("coordinated_seeds", 3, 0.0, 9000.0, 5.0)]);
        let poisoned =
            synthetic_defense_json(5, &[("coordinated_seeds", 3, f64::NAN, 9000.0, 5.0)]);
        let b = parse_baseline(&poisoned);
        assert_eq!(b.malformed_rows.len(), 1, "{:?}", b.malformed_rows);
        let report = compare_baselines(&good, &poisoned);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("non-finite or unparseable")));
        // A poisoned committed defense series must refuse to gate.
        let fresh_without = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&poisoned, &fresh_without);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("committed baseline carries")),
            "{:?}",
            report.violations
        );
    }

    /// A synthetic baseline with a `robustness` block whose rows are
    /// caller-controlled `(fault_rate, precision, coverage, gain,
    /// defects)`.
    fn synthetic_robustness_json(rows: &[(f64, f64, f64, f64, usize)]) -> String {
        let mut out = synthetic_json(100.0, 5.0);
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(
            ",\n  \"robustness\": {\n    \"max_rate\": 0.100, \"seed\": 2015, \"wall_ms\": 50.000,\n    \"rows\": [\n",
        );
        for (i, (rate, prec, cov, gain, defects)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"fault_rate\": {rate:.3}, \"harvest_precision\": {prec:.4}, \"harvest_coverage\": {cov:.4}, \"composition_gain\": {gain:.1}, \"pages_rejected\": {defects}, \"rows_skipped\": 0, \"fields_imputed\": 0, \"workers_restarted\": 0 }}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }

    #[test]
    fn robustness_rows_parse() {
        let json =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        let b = parse_baseline(&json);
        assert_eq!(b.robustness.len(), 2);
        assert_eq!(b.robustness[0].fault_rate, 0.0);
        assert_eq!(b.robustness[0].defects, 0);
        assert_eq!(b.robustness[1].harvest_precision, 0.9);
        assert_eq!(b.robustness[1].defects, 42);
        assert!(b.malformed_rows.is_empty());
        // Robustness rows never leak into the composition series.
        assert!(b.composition.is_empty());
        let report = compare_baselines(&json, &json);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.notes.iter().any(|n| n.contains("robustness")));
    }

    #[test]
    fn zero_fault_robustness_row_is_pinned_exactly() {
        let committed =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        // A dirty zero row fails even against itself.
        let dirty = synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 3)]);
        let report = compare_baselines(&committed, &dirty);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("exact passthrough")),
            "{:?}",
            report.violations
        );
        // A drifted (but clean) zero row fails the bit-identity pin.
        let drifted =
            synthetic_robustness_json(&[(0.0, 0.94, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        let report = compare_baselines(&committed, &drifted);
        assert!(
            report.violations.iter().any(|v| v.contains("drifted")),
            "{:?}",
            report.violations
        );
        // A block with no zero row at all fails.
        let no_zero = synthetic_robustness_json(&[(0.1, 0.9, 0.7, 6000.0, 42)]);
        let report = compare_baselines(&committed, &no_zero);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("no zero-fault reference row")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn faulted_robustness_rows_gate_against_the_committed_envelope() {
        let committed =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 6000.0, 42)]);
        // Precision collapse at the same rate fails.
        let collapsed =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.5, 0.7, 6000.0, 42)]);
        let report = compare_baselines(&committed, &collapsed);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("harvest precision at uniform fault rate")),
            "{:?}",
            report.violations
        );
        // Gain collapse below the committed floor fails.
        let no_gain =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.9, 0.7, 1000.0, 42)]);
        let report = compare_baselines(&committed, &no_gain);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("composition gain at uniform fault rate")),
            "{:?}",
            report.violations
        );
        // Within-envelope degradation passes.
        let fine =
            synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0), (0.1, 0.8, 0.6, 4000.0, 50)]);
        let report = compare_baselines(&committed, &fine);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn missing_robustness_stage_fails_and_non_finite_rows_are_malformed() {
        let committed = synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0)]);
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("robustness stage disappeared")),
            "{:?}",
            report.violations
        );
        // A newly appearing robustness block is fine.
        let report = compare_baselines(&fresh, &committed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // A NaN metric drops the row into malformed_rows and gates.
        let poisoned = synthetic_robustness_json(&[(0.1, f64::NAN, 0.7, 6000.0, 42)]);
        let b = parse_baseline(&poisoned);
        assert_eq!(b.malformed_rows.len(), 1, "{:?}", b.malformed_rows);
        let report = compare_baselines(&committed, &poisoned);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("non-finite or unparseable")),
            "{:?}",
            report.violations
        );
    }

    /// A synthetic robustness block with caller-controlled modes:
    /// `(fault_rate, mode, precision, coverage, gain, defects)`.
    fn synthetic_mode_robustness_json(rows: &[(f64, &str, f64, f64, f64, usize)]) -> String {
        let mut out = synthetic_json(100.0, 5.0);
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(
            ",\n  \"robustness\": {\n    \"max_rate\": 0.100, \"seed\": 2015, \"wall_ms\": 50.000,\n    \"rows\": [\n",
        );
        for (i, (rate, mode, prec, cov, gain, defects)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"fault_rate\": {rate:.3}, \"mode\": \"{mode}\", \"harvest_precision\": {prec:.4}, \"harvest_coverage\": {cov:.4}, \"composition_gain\": {gain:.1}, \"pages_rejected\": {defects}, \"rows_skipped\": 0, \"fields_imputed\": 0, \"workers_restarted\": 0 }}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
    }

    #[test]
    fn robustness_mode_parses_and_defaults_to_uniform() {
        // Mode-less rows (pre-targeted baselines) parse as uniform.
        let old = synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0)]);
        let b = parse_baseline(&old);
        assert_eq!(b.robustness[0].mode, "uniform");
        // Mode-carrying rows keep their mode.
        let new = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "targeted", 0.9, 0.7, 1000.0, 12),
        ]);
        let b = parse_baseline(&new);
        assert_eq!(b.robustness[1].mode, "targeted");
        assert!(b.malformed_rows.is_empty());
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
        let report = compare_baselines(&committed, &fine);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // A genuinely collapsed targeted row still fails against its own
        // committed envelope.
        let collapsed = synthetic_mode_robustness_json(&[
            (0.0, "uniform", 0.95, 0.9, 8000.0, 0),
            (0.1, "uniform", 0.9, 0.7, 6000.0, 42),
            (0.1, "targeted", 0.85, 0.6, 400.0, 12),
        ]);
        let report = compare_baselines(&committed, &collapsed);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("targeted fault rate 0.100")),
            "{:?}",
            report.violations
        );
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
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("targeted (worst-case) robustness row disappeared")),
            "{:?}",
            report.violations
        );
    }

    /// A synthetic baseline with a `recovery` ledger, rows as
    /// `(stage, attempts, retries, backoff_ms)`.
    fn synthetic_recovery_json(
        seed: u64,
        rate: f64,
        max_attempts: usize,
        retries_total: usize,
        escaped: usize,
        rows: &[(&str, usize, usize, f64)],
    ) -> String {
        let mut out = synthetic_json(100.0, 5.0);
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(&format!(
            ",\n  \"recovery\": {{\n    \"seed\": {seed}, \"transient_rate\": {rate:.3}, \"max_attempts\": {max_attempts}, \"retries_total\": {retries_total}, \"escaped_panics\": {escaped},\n    \"rows\": [\n"
        ));
        for (i, (stage, att, ret, back)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"stage\": \"{stage}\", \"attempts\": {att}, \"retries\": {ret}, \"backoff_ms\": {back:.3} }}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
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
        let b = parse_baseline(&json);
        let rec = b.recovery.expect("recovery block parsed");
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
        assert!(!b.stage_wall_ms.contains_key("mdav"));
        let report = compare_baselines(&json, &json);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.notes.iter().any(|n| n.contains("recovery")));
    }

    #[test]
    fn vanished_recovery_ledger_and_escaped_panics_fail() {
        let committed = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("world_build", 1, 0, 0.0)]);
        // Ledger disappeared entirely.
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("recovery ledger disappeared")),
            "{:?}",
            report.violations
        );
        // A newly appearing ledger is fine.
        let report = compare_baselines(&fresh, &committed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // An escaped panic fails even against itself.
        let leaky = synthetic_recovery_json(2015, 0.1, 4, 3, 1, &[("world_build", 1, 0, 0.0)]);
        let report = compare_baselines(&committed, &leaky);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("escaped panic")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn retry_trace_is_pinned_at_the_same_seed_rate_and_policy() {
        let committed = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("robustness", 2, 1, 4.0)]);
        // Same (seed, rate, max_attempts), different total: drift.
        let drifted = synthetic_recovery_json(2015, 0.1, 4, 5, 0, &[("robustness", 2, 1, 4.0)]);
        let report = compare_baselines(&committed, &drifted);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("retry trace drifted")),
            "{:?}",
            report.violations
        );
        // A different seed legitimately produces a different trace.
        let other_seed = synthetic_recovery_json(77, 0.1, 4, 5, 0, &[("robustness", 2, 1, 4.0)]);
        let report = compare_baselines(&committed, &other_seed);
        assert!(
            !report.violations.iter().any(|v| v.contains("drifted")),
            "{:?}",
            report.violations
        );
        // A stage row vanishing from a still-present ledger fails.
        let hollow = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("world_build", 1, 0, 0.0)]);
        let report = compare_baselines(&committed, &hollow);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("`robustness` vanished from the fresh ledger")),
            "{:?}",
            report.violations
        );
    }

    /// A synthetic baseline whose config marks a deterministic
    /// (checkpointed) run: every wall-clock zeroed, speedups at the 0.0
    /// sentinel.
    fn synthetic_det_json() -> String {
        "{\n  \"config\": { \"size\": 120, \"seed\": 2015, \"k_min\": 2, \"k_max\": 10, \"cores\": 1, \"deterministic\": true },\n  \
         \"stages\": [\n    \
         { \"name\": \"world_build\", \"wall_ms\": 0.000, \"rows\": 120, \"rows_per_sec\": 0.0 },\n    \
         { \"name\": \"mdav_k5\", \"wall_ms\": 0.000, \"rows\": 120, \"rows_per_sec\": 0.0 }\n  \
         ],\n  \"speedup_batch_vs_naive\": 0.00\n}\n"
            .to_owned()
    }

    #[test]
    fn deterministic_fresh_run_skips_timing_gates_but_not_structure() {
        let committed = synthetic_json(100.0, 5.0);
        let det = synthetic_det_json();
        assert_eq!(parse_baseline(&det).deterministic, Some(true));
        assert_eq!(parse_baseline(&committed).deterministic, None);
        // Zeroed speedup and zeroed stage walls pass: timing gates are
        // skipped for a deterministic fresh run.
        let report = compare_baselines(&committed, &det);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("timing gates skipped")),
            "{:?}",
            report.notes
        );
        // The stage-disappeared gate still applies in full.
        let hollow: String = det
            .lines()
            .filter(|l| !l.contains("\"mdav_k5\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let report = compare_baselines(&committed, &hollow);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("`mdav_k5` disappeared")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn committed_deterministic_baseline_is_a_violation() {
        let det = synthetic_det_json();
        let fresh = synthetic_json(100.0, 5.0);
        let report = compare_baselines(&det, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("deterministic (checkpointed) run")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn structurally_corrupt_baselines_refuse_to_gate() {
        let good = synthetic_composition_json(&[(1, 0.0, 5.0), (2, 7000.0, 2.3)]);
        // A truncated committed baseline (torn write) fails loudly with
        // ONLY structural violations — no spurious disappeared-stage
        // noise from the half-parsed remains.
        let torn = &good[..good.len() / 2];
        assert!(!parse_baseline(torn).structural_errors.is_empty());
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
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("regenerate it")),
            "{:?}",
            report.violations
        );
        // A torn fresh run fails the same way.
        let report = compare_baselines(&good, torn);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("fresh baseline is structurally corrupt")),
            "{:?}",
            report.violations
        );
        // Not-a-baseline input reports every missing landmark.
        let b = parse_baseline("");
        assert_eq!(b.structural_errors.len(), 3, "{:?}", b.structural_errors);
    }

    #[test]
    fn missing_stage_fails() {
        let json = small_bench_json(None);
        let fresh: String = json
            .lines()
            .filter(|l| !l.contains("\"mdav_k5\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let report = compare_baselines(&json, &fresh);
        assert!(report.violations.iter().any(|v| v.contains("disappeared")));
    }

    /// Appends a `profile` block in the writer's shape onto an existing
    /// synthetic baseline.
    fn with_profile(
        mut out: String,
        digest: &str,
        pct: f64,
        stages: &[(&str, usize)],
        counters: &[(&str, u64)],
    ) -> String {
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(",\n  \"profile\": {\n");
        out.push_str(&format!(
            "    \"deterministic\": false, \"spans_total\": {}, \"events_total\": 0, \"span_tree_digest\": \"{digest}\",\n",
            stages.len() + 1
        ));
        out.push_str(&format!(
            "    \"overhead\": {{ \"probe_calls\": 1000000, \"wall_ms\": 4.000, \"pct_of_large\": {pct:.3} }},\n"
        ));
        out.push_str("    \"stages\": [\n");
        for (i, (stage, spans)) in stages.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"stage\": \"{stage}\", \"self_ms\": 1.000, \"spans\": {spans} }}{}\n",
                if i + 1 < stages.len() { "," } else { "" }
            ));
        }
        out.push_str("    ],\n    \"counters\": [\n");
        for (i, (name, value)) in counters.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"counter\": \"{name}\", \"value\": {value} }}{}\n",
                if i + 1 < counters.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }\n}\n");
        out
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
        let b = parse_baseline(&json);
        let prof = b.profile.expect("profile block parsed");
        assert!(!prof.deterministic);
        assert_eq!(prof.spans_total, 3);
        assert_eq!(prof.span_tree_digest, "00deadbeef00cafe");
        assert_eq!(prof.overhead_probe_calls, 1_000_000);
        assert_eq!(prof.overhead_pct_of_large, 0.5);
        assert_eq!(prof.stages.len(), 2);
        assert_eq!(prof.stages[1].stage, "mdav");
        assert_eq!(prof.counters.get("mdav.rounds"), Some(&12));
        assert!(b.malformed_rows.is_empty());
        // Profile stage rows never leak into the timing-stage namespace
        // or the recovery ledger.
        assert!(!b.stage_wall_ms.contains_key("mdav"));
        assert!(b.recovery.is_none());
        let report = compare_baselines(&json, &json);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.notes.iter().any(|n| n.contains("profile")));
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
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("span tree digest drifted")),
            "{:?}",
            report.violations
        );
        // The whole block vanishing fails.
        let report = compare_baselines(&committed, &synthetic_json(100.0, 5.0));
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("profile block disappeared")),
            "{:?}",
            report.violations
        );
        // A committed stage row vanishing from a still-present block fails.
        let hollow = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            0.5,
            &[("mdav", 1)],
            &[],
        );
        let report = compare_baselines(&committed, &hollow);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("profile stage `world_build` disappeared")),
            "{:?}",
            report.violations
        );
        // A newly appearing profile is fine.
        let report = compare_baselines(&synthetic_json(100.0, 5.0), &committed);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
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
        let report = compare_baselines(&fast, &fast);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let slow = with_profile(
            synthetic_json(100.0, 5.0),
            "00deadbeef00cafe",
            MAX_OBS_OVERHEAD_PCT * 2.0,
            &[("world_build", 1)],
            &[],
        );
        let report = compare_baselines(&fast, &slow);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("disabled-tracing overhead")),
            "{:?}",
            report.violations
        );
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
        let report = compare_baselines(&agree, &agree);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
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
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("`faults.pages_rejected` = 41 disagrees")),
            "{:?}",
            report.violations
        );
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
        // attempts sum to 4, retries_total 3, quarantines default 0.
        let agree = with_profile(
            base.clone(),
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1), ("mdav", 1)],
            &[
                ("recover.attempts", 4),
                ("recover.retries", 3),
                ("recover.quarantines", 0),
            ],
        );
        let report = compare_baselines(&agree, &agree);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let disagree = with_profile(
            base,
            "00deadbeef00cafe",
            0.5,
            &[("world_build", 1), ("mdav", 1)],
            &[
                ("recover.attempts", 5),
                ("recover.retries", 3),
                ("recover.quarantines", 0),
            ],
        );
        let report = compare_baselines(&disagree, &disagree);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("`recover.attempts` = 5 disagrees")),
            "{:?}",
            report.violations
        );
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
        let det = committed
            .replace("\"deterministic\": false", "\"deterministic\": true")
            .replace("\"pct_of_large\": 0.500", "\"pct_of_large\": 0.000");
        let report = compare_baselines(&committed, &det);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("counter gates skipped")),
            "{:?}",
            report.notes
        );
        // Digest drift still fails a deterministic profile.
        let drifted = det.replace("00deadbeef00cafe", "ffffffffffffffff");
        let report = compare_baselines(&committed, &drifted);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("span tree digest drifted")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn quarantined_total_round_trips_and_defaults() {
        // Old-format header (no quarantined_total) parses as zero.
        let old = synthetic_recovery_json(2015, 0.1, 4, 3, 0, &[("world_build", 1, 0, 0.0)]);
        assert_eq!(parse_baseline(&old).recovery.unwrap().quarantined_total, 0);
        // New-format header round-trips the field.
        let new = old.replace(
            "\"retries_total\": 3,",
            "\"retries_total\": 3, \"quarantined_total\": 2,",
        );
        assert_eq!(parse_baseline(&new).recovery.unwrap().quarantined_total, 2);
    }

    /// A synthetic baseline carrying a well-formed `large_100k` block in
    /// the writer's format: `shards` equal shards covering `size` rows,
    /// all three digest pairs agreeing, peak rss under the ceiling.
    fn synthetic_sharded_sized_json(size: usize, shards: usize) -> String {
        let mut out = synthetic_json(100.0, 5.0);
        out.truncate(out.rfind("\n}").expect("closing brace"));
        out.push_str(&format!(
            ",\n  \"large_100k\": {{\n    \"size\": {size},\n    \"shards\": {shards},\n    \
             \"cores\": 1,\n    \"sample_rows\": {size},\n    \"peak_rss_mb\": 512.0,\n"
        ));
        out.push_str(
            "    \"stages\": [\n      \
             { \"name\": \"harvest_sharded_100k\", \"wall_ms\": 100.000, \"rows\": 200, \"rows_per_sec\": 2000.0 }\n    \
             ],\n    \"shard_rows\": [\n",
        );
        for shard in 0..shards {
            out.push_str(&format!(
                "      {{ \"shard\": {shard}, \"rows\": {}, \"pages\": {} }}{}\n",
                size / shards,
                90 - shard,
                if shard + 1 < shards { "," } else { "" }
            ));
        }
        out.push_str(
            "    ],\n    \
             \"digests\": { \"harvest_sharded\": \"00000000000000aa\", \"harvest_unsharded\": \"00000000000000aa\", \"mdav_optimized\": \"00000000000000bb\", \"mdav_reference\": \"00000000000000bb\", \"intersect_engine\": \"00000000000000cc\", \"intersect_oracle\": \"00000000000000cc\" }\n  \
             }\n}\n",
        );
        out
    }

    /// The two-shard, 200-row default most gate tests mutate.
    fn synthetic_sharded_json() -> String {
        synthetic_sharded_sized_json(200, 2)
    }

    #[test]
    fn sharded_block_parses_and_self_diff_passes() {
        let json = synthetic_sharded_json();
        let b = parse_baseline(&json);
        let big = b.large_100k.as_ref().expect("block parsed");
        assert_eq!((big.size, big.shards, big.sample_rows), (200, 2, 200));
        assert_eq!(big.peak_rss_mb, 512.0);
        // Pre-cap rows (no `capped` field) parse as uncapped.
        assert_eq!(
            big.shard_rows,
            vec![(0, 100, 90, false), (1, 100, 89, false)]
        );
        assert_eq!(big.digests.len(), 6);
        assert_eq!(b.seed, Some(2015));
        // The 100k stages share the common timing namespace.
        assert!(b.stage_wall_ms.contains_key("harvest_sharded_100k"));
        assert!(b.malformed_rows.is_empty(), "{:?}", b.malformed_rows);
        let report = compare_baselines(&json, &json);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.notes.iter().any(|n| n.contains("large_100k")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn sharded_digest_mismatch_fails() {
        let committed = synthetic_sharded_json();
        let fresh = committed.replace(
            "\"mdav_reference\": \"00000000000000bb\"",
            "\"mdav_reference\": \"00000000000000be\"",
        );
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("hierarchical MDAV diverged")),
            "{:?}",
            report.violations
        );
        // The drifted pair also breaks the cross-run pin at the same
        // (seed, size, shards).
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("digests drifted")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn legacy_digest_keys_read_under_their_current_names() {
        let current = synthetic_sharded_json();
        let legacy = current
            .replace("mdav_optimized", "mdav_sharded")
            .replace("mdav_reference", "mdav_unsharded")
            .replace("intersect_engine", "intersect_sharded")
            .replace("intersect_oracle", "intersect_unsharded");
        assert_ne!(legacy, current);
        let (old, new) = (parse_baseline(&legacy), parse_baseline(&current));
        assert!(old.malformed_rows.is_empty(), "{:?}", old.malformed_rows);
        let digests = |b: &Baseline| b.large_100k.as_ref().expect("block parsed").digests.clone();
        assert_eq!(digests(&old), digests(&new));
        // An older committed baseline still pins a fresh run's digests.
        let report = compare_baselines(&legacy, &current);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let drifted = current.replace(
            "\"intersect_engine\": \"00000000000000cc\", \"intersect_oracle\": \"00000000000000cc\"",
            "\"intersect_engine\": \"00000000000000cd\", \"intersect_oracle\": \"00000000000000cd\"",
        );
        let report = compare_baselines(&legacy, &drifted);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("digests drifted")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn vanished_shard_row_and_uncovered_rows_fail() {
        let committed = synthetic_sharded_json();
        // Drop the second shard's accounting row entirely.
        let fresh = committed
            .replace(
                "{ \"shard\": 0, \"rows\": 100, \"pages\": 90 },\n",
                "{ \"shard\": 0, \"rows\": 100, \"pages\": 90 }\n",
            )
            .replace("      { \"shard\": 1, \"rows\": 100, \"pages\": 89 }\n", "");
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report.violations.iter().any(|v| v.contains("lost a shard")),
            "{:?}",
            report.violations
        );
        // A present-but-short row count is a coverage violation.
        let fresh = committed.replace(
            "{ \"shard\": 1, \"rows\": 100, \"pages\": 89 }",
            "{ \"shard\": 1, \"rows\": 60, \"pages\": 89 }",
        );
        let report = compare_baselines(&committed, &fresh);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("cover 160 of 200")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn sharded_rss_ceiling_gates_and_zero_skips() {
        let committed = synthetic_sharded_json();
        let breach = committed.replace(
            "\"peak_rss_mb\": 512.0",
            &format!("\"peak_rss_mb\": {:.1}", MAX_100K_PEAK_RSS_MB * 2.0),
        );
        let report = compare_baselines(&committed, &breach);
        assert!(
            report.violations.iter().any(|v| v.contains("peak rss")),
            "{:?}",
            report.violations
        );
        // A deterministic/unavailable 0.0 reading skips the ceiling.
        let zeroed = committed.replace("\"peak_rss_mb\": 512.0", "\"peak_rss_mb\": 0.0");
        let report = compare_baselines(&committed, &zeroed);
        assert!(
            !report.violations.iter().any(|v| v.contains("peak rss")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn pre_shard_committed_baseline_still_gates_the_fresh_block() {
        // Committed predates the block: the in-run gates still fire.
        let committed = synthetic_json(100.0, 5.0);
        let fresh = synthetic_sharded_json();
        let report = compare_baselines(&committed, &fresh);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("predates the large_100k block")),
            "{:?}",
            report.notes
        );
        // ... and a broken fresh block fails against that same old
        // baseline — no pre-shard vacuous pass.
        let broken = fresh.replace(
            "\"intersect_oracle\": \"00000000000000cc\"",
            "\"intersect_oracle\": \"00000000000000cd\"",
        );
        let report = compare_baselines(&committed, &broken);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("intersection diverged")),
            "{:?}",
            report.violations
        );
        // A committed block that vanishes from the fresh run fails.
        let report = compare_baselines(&fresh, &committed);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("large_100k (sharded) block disappeared")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn sharded_config_change_skips_the_cross_run_pin() {
        // Same digests, different (size, shards): the in-run gates still
        // hold and the cross-run pin steps aside with a note.
        let committed = synthetic_sharded_json();
        let fresh = synthetic_sharded_sized_json(400, 4);
        let report = compare_baselines(&committed, &fresh);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("cross-run digest pin skipped")),
            "{:?}",
            report.notes
        );
        // Non-dense shard indices are their own violation even when the
        // count and coverage check out.
        let swapped = committed
            .replace("\"shard\": 1", "\"shard\": 9")
            .replace("\"shard\": 0", "\"shard\": 1")
            .replace("\"shard\": 9", "\"shard\": 0");
        let report = compare_baselines(&committed, &swapped);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("not dense ascending")),
            "{:?}",
            report.violations
        );
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
                sharded_size: Some(80),
                ..QuickBenchOptions::default()
            },
        )
        .to_json();
        let b = parse_baseline(&json);
        let big = b.large_100k.as_ref().expect("block parsed");
        assert_eq!((big.size, big.shards), (80, 1));
        assert_eq!(big.shard_rows.len(), 1);
        assert_eq!(big.digests.len(), 6);
        assert!(b.stage_wall_ms.contains_key("equivalence_100k"));
        assert!(b.malformed_rows.is_empty(), "{:?}", b.malformed_rows);
        let report = compare_baselines(&json, &json);
        assert!(
            report.violations.iter().all(|v| !v.contains("large_100k")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn robustness_shards_lost_parses_and_defaults() {
        // Old-format rows (no shards_lost) parse as zero lost shards.
        let old = synthetic_robustness_json(&[(0.0, 0.95, 0.9, 8000.0, 0)]);
        assert_eq!(parse_baseline(&old).robustness[0].shards_lost, 0);
        // New-format rows fold the field into the defect total.
        let new = old.replace(
            "\"workers_restarted\": 0",
            "\"workers_restarted\": 0, \"shards_lost\": 3",
        );
        let row = &parse_baseline(&new).robustness[0];
        assert_eq!(row.shards_lost, 3);
        assert_eq!(row.defects, 3);
    }
}
