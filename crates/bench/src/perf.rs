//! The `--quick` performance harness behind `repro --quick`: times every
//! stage of the sweep-and-attack pipeline at reduced scale and emits a
//! machine-readable `BENCH_sweep.json` baseline so perf changes across
//! PRs are diffable.
//!
//! The headline number is `speedup_batch_vs_naive`: the same releases and
//! auxiliary records pushed through [`FuzzyFusion::estimate`] (compiled
//! rulebase, parallel rows, reusable scratch) versus
//! [`FuzzyFusion::estimate_interpreted`] (per-row string/`HashMap`
//! lookups). The two paths return bit-identical estimates — the harness
//! asserts it — so the ratio is pure overhead, not changed work.
//!
//! With [`QuickBenchOptions::checkpoint_dir`] set the whole pipeline runs
//! under `fred-recover`'s [`StageRunner`]: every stage boundary commits a
//! checksummed artifact, `resume` restarts from the last valid
//! checkpoint, and all wall-clock fields are zeroed (deterministic mode),
//! so a killed-and-resumed run renders `BENCH_sweep.json` bit-identical
//! to an uninterrupted run of the same seed.

use std::path::PathBuf;
use std::time::Instant;

use fred_anon::{build_release, Anonymizer, HierarchicalMdav, Mdav, Partition, QiStyle, Release};
use fred_attack::{
    harvest_auxiliary, harvest_auxiliary_reference_sampled, harvest_auxiliary_sequential,
    harvest_auxiliary_tolerant, harvest_precision, FusionSystem, FuzzyFusion, FuzzyFusionConfig,
    Harvest, HarvestConfig, MidpointEstimator,
};
use fred_composition::{
    compose_attack, compose_attack_tolerant, composition_sweep, defense_sweep, generate_scenario,
    intersect_releases, intersect_releases_sequential, CompositionConfig, CompositionOutcome,
    CompositionSweepConfig, DefensePolicy, ScenarioConfig, Source, TargetIntersection,
};
use fred_core::{sweep, SweepConfig};
use fred_data::{ShardPlan, Table};
use fred_faults::{FaultPlan, TargetedCorruption};
use fred_recover::{json, Artifact, RetryPolicy, StageRunner};
use fred_web::{corrupt_pages, SearchEngine};

use crate::ckpt::{
    digest_bits, digest_harvest, digest_harvest_rows, digest_world, Digest, EstimatesArtifact,
    StageAnchor, SweepArtifact,
};
use crate::codec::{intern_stage_name, PAYLOAD_SCHEMA};
use crate::stages::{self as sn, runner as rstage};
use crate::world::{faculty_world, World, WorldConfig};

/// Anonymization level used by the dedicated MDAV/harvest/composition
/// stages (matches the `mdav_k5` target the ROADMAP tracks). Public so
/// the `repro` CLI can derive argument bounds from it instead of
/// duplicating the constant.
pub const STAGE_K: usize = 5;

/// Row-chunk size for the streaming-release stage.
const STREAM_CHUNK_ROWS: usize = 1024;

/// Rows the sampled exhaustive harvest reference pins per run (the
/// equality assert behind `harvest_sequential_large`); the full-table
/// reference runs under `repro --quick --exhaustive`. The sample is
/// seeded from the world seed, so each committed baseline pins a fixed
/// subset but different seeds roam the whole release over time.
pub const REFERENCE_SAMPLE_ROWS: usize = 512;

/// Rows in the seeded subsample the `large_100k` equivalence pass pins
/// its harvest, MDAV and intersection digest pairs on. The references
/// are costly: an uncached full comparison per hit (the harvest),
/// per-class farthest scans over one flat pool (MDAV) and a scan of every
/// master row per target (the intersection oracle), so they run on the
/// sample while the optimized paths also run at full size under their
/// own stages.
pub const EQUIVALENCE_SAMPLE_ROWS: usize = 2048;

/// The 100k block (`repro --quick --size 100000`): hierarchical MDAV,
/// the harvest and the intersection of the full scenario core, timed at
/// full size with every optimized path digest-pinned against its
/// reference, plus the peak resident set the flat-memory claim is gated
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct Large100kBench {
    /// World row count.
    pub size: usize,
    /// Hierarchical-MDAV leaves: the [`ShardPlan`] derived for this size
    /// splits the world into this many contiguous row ranges.
    pub shards: usize,
    /// Worker threads that could run at once when this block's numbers
    /// were taken: the pool width capped at the host's parallelism.
    pub cores: usize,
    /// Rows in the seeded equivalence subsample.
    pub sample_rows: usize,
    /// Peak resident set size of the process in MiB (`VmHWM`), `0.0` in
    /// deterministic mode or where `/proc` is unavailable.
    pub peak_rss_mb: f64,
    /// Per-stage timings in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Digest of the full-size parallel harvest at the rows of the
    /// equivalence subsample.
    pub harvest_digest_engine: u64,
    /// Digest of the sampled exhaustive harvest reference over the same
    /// rows (gated equal).
    pub harvest_digest_reference: u64,
    /// Digest of the optimized hierarchical MDAV partition over the
    /// equivalence subsample.
    pub mdav_digest_optimized: u64,
    /// Digest of the reference hierarchical MDAV partition over the same
    /// subsample and leaf split (gated equal).
    pub mdav_digest_reference: u64,
    /// Digest of the intersection engine over the subsample scenario's
    /// core.
    pub intersect_digest_engine: u64,
    /// Digest of the row-scan intersection oracle over the same targets
    /// (gated equal).
    pub intersect_digest_oracle: u64,
}

impl Large100kBench {
    /// The six equivalence digests under their keys in the block's
    /// `digests` object, each path next to its reference.
    pub fn digests(&self) -> [(&'static str, u64); 6] {
        [
            ("harvest_engine", self.harvest_digest_engine),
            ("harvest_reference", self.harvest_digest_reference),
            ("mdav_optimized", self.mdav_digest_optimized),
            ("mdav_reference", self.mdav_digest_reference),
            ("intersect_engine", self.intersect_digest_engine),
            ("intersect_oracle", self.intersect_digest_oracle),
        ]
    }
}

/// Wall-clock + throughput of one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage identifier (stable across PRs; used as the JSON key).
    pub name: &'static str,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Rows (records × levels where applicable) processed.
    pub rows: usize,
}

impl StageTiming {
    /// Rows per second, `0.0` when the stage was too fast to resolve.
    pub fn rows_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.rows as f64 / (self.wall_ms / 1e3)
    }
}

/// The large-world add-on: the same hot stages timed at enterprise scale
/// (defaults to 10 000 rows), where superlinear behavior cannot hide.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeBench {
    /// Large-world row count.
    pub size: usize,
    /// Worker threads that could run at once when *this* block's numbers
    /// were taken (the pool width capped at the host's parallelism).
    /// Recorded alongside the stages (not only in the top-level config)
    /// so a gate evaluated on a heterogeneous runner keys the large-world
    /// checks off the cores that actually ran them.
    pub cores: usize,
    /// Per-stage timings in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Single-threaded fast-path harvest wall-clock over parallel
    /// fast-path wall-clock. Both runs use the identical cached+pruned
    /// classification, so the ratio isolates what the worker threads buy
    /// (scales with cores; ~1 on a single-core machine — the algorithmic
    /// gains cancel out of it by construction).
    pub speedup_harvest_parallel_vs_single: f64,
    /// The composition attack swept at enterprise scale (`repro --quick
    /// --compose` with the large stage enabled): the `R` per-source MDAV
    /// runs fan out across the worker pool and the releases stream
    /// through the intersection engine at `size` rows.
    pub composition: Option<CompositionBench>,
}

/// One `(releases)` cell of the composition stage.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionBenchRow {
    /// Number of composed releases.
    pub releases: usize,
    /// Per-record disclosure gain versus one release (sensitive-range
    /// width eliminated; strictly increasing in `releases` is the gate).
    pub disclosure_gain: f64,
    /// Mean effective anonymity after composition.
    pub mean_candidates: f64,
    /// Estimate-side gain versus one release.
    pub estimate_gain: f64,
}

/// The `--compose` add-on: the composition attack swept over release
/// counts at the tracked `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionBench {
    /// Anonymization level every curator applied.
    pub k: usize,
    /// Shared-core fraction of the scenario.
    pub overlap: f64,
    /// Wall-clock of the whole composition sweep.
    pub wall_ms: f64,
    /// Per-release-count measurements, ascending in `releases`.
    pub rows: Vec<CompositionBenchRow>,
}

/// One `(policy, releases)` cell of the defense stage.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseBenchRow {
    /// Stable policy label ([`DefensePolicy::label`]).
    pub policy: String,
    /// Number of composed releases.
    pub releases: usize,
    /// Disclosure gain the composition still achieves under the policy
    /// (gated strictly below `undefended_gain` at the top release
    /// count).
    pub residual_gain: f64,
    /// The undefended sweep's gain at the same release count.
    pub undefended_gain: f64,
    /// Mean effective anonymity under the defense (gated `>= k` for
    /// `calibrated_widen_*` rows).
    pub mean_candidates: f64,
    /// Widening price: defended-minus-undefended single-release implied
    /// sensitive width.
    pub utility_cost: f64,
}

/// The `--defend` add-on: every policy swept over release counts at the
/// tracked `k`, next to the undefended gain.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseBench {
    /// Anonymization level every curator applied.
    pub k: usize,
    /// Shared-core fraction of the scenario.
    pub overlap: f64,
    /// Wall-clock of the whole defense sweep (including its undefended
    /// reference run).
    pub wall_ms: f64,
    /// Per-policy, per-release-count measurements (policy-major,
    /// ascending in `releases`).
    pub rows: Vec<DefenseBenchRow>,
}

/// One `(k, releases, defense)` cell of the hypothesis-testing
/// evaluation: the composition attack's output rescored as a binary
/// classifier over core targets versus matched decoys.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalCellRow {
    /// Anonymization level every curator applied in this cell.
    pub k: usize,
    /// Number of composed releases the adversary observed.
    pub releases: usize,
    /// `"none"` for the undefended scenario, else the
    /// [`DefensePolicy::label`] the curators coordinated under.
    pub defense: String,
    /// Core targets scored (the positive class).
    pub targets: usize,
    /// Matched decoys scored through the identical path (the negative
    /// class).
    pub decoys: usize,
    /// Trapezoidal area under the ROC curve (gated within
    /// `[0.5 - slack, 1.0]`).
    pub auc: f64,
    /// TPR at FPR ≤ 10⁻³ ([`fred_eval::LOW_FPR`]).
    pub tpr_at_fpr3: f64,
    /// Empirical ε: max over thresholds of `ln((1−FNR)/FPR)` with the
    /// +1/2 Laplace correction — always finite (gated non-increasing in
    /// `k`, and defended ≤ undefended at matching `(k, R)`).
    pub epsilon: f64,
}

/// The hypothesis-testing evaluation stage (`repro --quick --compose`):
/// every `(k, R)` cell of [`EVAL_KS`] × [`EVAL_RELEASES`] scored
/// undefended, plus one defended cell per `--defend` policy at the
/// tracked `k` and top `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalBench {
    /// Wall-clock of the whole evaluation stage.
    pub wall_ms: f64,
    /// Per-cell metrics: undefended cells first (ascending `k`, then
    /// `releases`), then one row per defense policy.
    pub rows: Vec<EvalCellRow>,
}

/// One fault-rate cell of the robustness sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessBenchRow {
    /// Per-fault injection probability every [`FaultPlan`] knob was set
    /// to for this cell (`0.0` is the passthrough reference row). For the
    /// `targeted` row this is the *budget*: the fraction of records the
    /// pointed corruption was allowed to hit.
    pub fault_rate: f64,
    /// How the corruption was aimed: `"uniform"` (every site rolls the
    /// seeded rate independently) or `"targeted"` (the worst-case plan —
    /// exactly the highest-disclosure-gain records from the strict run).
    pub mode: &'static str,
    /// Harvest precision against ground truth over the corrupted corpus.
    pub harvest_precision: f64,
    /// Fraction of release rows with harvested auxiliary evidence.
    pub harvest_coverage: f64,
    /// Per-record composition disclosure gain under the same faults.
    pub composition_gain: f64,
    /// Damaged pages the tolerant extractors rejected.
    pub pages_rejected: usize,
    /// Release/harvest rows dropped by injection and skipped over.
    pub rows_skipped: usize,
    /// Corrupted cells imputed back to the uninformative prior.
    pub fields_imputed: usize,
    /// Worker panics contained by the fault-tolerant pool entry point.
    pub workers_restarted: usize,
}

impl RobustnessBenchRow {
    /// Every defect the tolerant pipeline survived: pages rejected, rows
    /// skipped, fields imputed and workers restarted.
    pub fn defects(&self) -> usize {
        self.pages_rejected + self.rows_skipped + self.fields_imputed + self.workers_restarted
    }
}

/// The `--faults` add-on: the harvest + composition attack re-run under
/// seeded fault injection at increasing corruption rates, recording how
/// gracefully the measured signal degrades.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessBench {
    /// The top corruption rate swept (the CLI's `--faults` argument).
    pub max_rate: f64,
    /// Seed of the [`FaultPlan`] (derived from the world seed, so the
    /// committed baseline pins one reproducible fault pattern).
    pub seed: u64,
    /// Wall-clock of the whole robustness sweep.
    pub wall_ms: f64,
    /// Per-rate measurements, ascending in `fault_rate`, starting at the
    /// gated `0.0` passthrough row. When faults are enabled the last row
    /// is the `targeted` worst-case plan at the top budget.
    pub rows: Vec<RobustnessBenchRow>,
}

/// Disabled-path probe calls the overhead stage times: the committed
/// ceiling in `compare.rs` holds this measurement (as a percentage of
/// the large block's wall) under [`crate::compare::MAX_OBS_OVERHEAD_PCT`].
pub const OVERHEAD_PROBE_CALLS: u64 = 1_000_000;

/// One runner stage's slice of the observability profile: the stage
/// span's self-time (wall minus child spans) and its subtree size.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStageRow {
    /// Runner stage name (see [`crate::stages::runner`]).
    pub stage: String,
    /// Span wall minus the wall of its child spans, ms (`0.0` in
    /// deterministic mode).
    pub self_ms: f64,
    /// Spans in this stage's subtree (including itself).
    pub spans: usize,
}

/// One duration histogram surfaced in the `profile` block: the
/// fixed-bucket distribution a [`fred_obs::observe_ms`] site recorded
/// (e.g. per-name harvest latency under `harvest.name_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileHistRow {
    /// Histogram name (the `observe_ms` site).
    pub name: String,
    /// Total observations — reconciled against the site's companion
    /// counter (`harvest.name_ms` vs `harvest.names`) both in-run by the
    /// compare gate and in `tests/obs_reconcile.rs`.
    pub count: u64,
    /// Sum of observed values in ms.
    pub sum_ms: f64,
    /// Observation counts per bucket ([`fred_obs::HIST_BOUNDS_MS`]
    /// upper bounds plus one overflow bucket).
    pub buckets: Vec<u64>,
}

/// The `profile` block: the drained [`fred_obs`] trace distilled into
/// the gated shape — span-tree structure pin, per-stage self-time,
/// counter totals, and the measured cost of *disabled* tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileBench {
    /// True when the trace was taken in deterministic mode: every
    /// duration below is zeroed and the counter rows are omitted
    /// (checkpoint-resumed stages skip their compute closures, so
    /// runtime counters are not a function of the configuration).
    pub deterministic: bool,
    /// Total spans opened during the run.
    pub spans_total: u64,
    /// Total events recorded during the run.
    pub events_total: u64,
    /// [`fred_obs::Trace::structural_digest`] of the span tree — a pure
    /// function of the enabled stages, pinned committed-vs-fresh.
    pub span_tree_digest: String,
    /// Calls made by the disabled-tracing overhead probe.
    pub overhead_probe_calls: u64,
    /// Wall-clock of the probe loop, ms (`0.0` in deterministic mode).
    pub overhead_wall_ms: f64,
    /// Probe wall as a percentage of the large block's total stage wall
    /// (`0.0` when deterministic or without a large block) — the number
    /// the `< MAX_OBS_OVERHEAD_PCT` gate holds.
    pub overhead_pct_of_large: f64,
    /// Per-runner-stage rows in execution order.
    pub stages: Vec<ProfileStageRow>,
    /// Merged counter totals by name (empty in deterministic mode).
    pub counters: Vec<(String, u64)>,
    /// Duration histograms by name (empty in deterministic mode, like
    /// the counters: resumed stages skip their compute closures, so
    /// observation counts are not a pure function of the
    /// configuration).
    pub hists: Vec<ProfileHistRow>,
}

/// One stage's recovery ledger: how the [`StageRunner`] obtained it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBenchRow {
    /// Checkpoint stage name (the runner's roster, not the timing one).
    pub stage: String,
    /// Attempts made when the artifact was *computed* (1 = first try).
    /// Restored from the checkpoint envelope on resume, so the block is
    /// invariant under kill-and-resume.
    pub attempts: usize,
    /// Retries burned (`attempts - 1`).
    pub retries: usize,
    /// Total deterministic backoff slept before success, in ms.
    pub backoff_ms: f64,
}

/// The self-healing ledger: what the retry/checkpoint protocol did
/// during the run. Emitted whenever faults are enabled or a checkpoint
/// store is attached; the retry trace is a pure function of
/// `(seed, transient_rate, policy)`, which the compare gate pins.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBench {
    /// Seed of the runner's [`FaultPlan`] (world seed folded with
    /// [`RECOVERY_SEED_SALT`]).
    pub seed: u64,
    /// Injected transient-failure probability per `(stage, attempt)`.
    pub transient_rate: f64,
    /// Attempts the [`RetryPolicy`] allowed per stage.
    pub max_attempts: usize,
    /// Retries burned across all stages.
    pub retries_total: usize,
    /// Checkpoint files quarantined for failing integrity checks.
    /// Runtime-only (never serialized): it reflects the *history* of the
    /// store, not the configuration, and would break resume bit-identity.
    pub quarantined_total: usize,
    /// Panics that escaped the retry protocol — always 0 in a bench that
    /// returned at all; serialized as the gate's witness.
    pub escaped_panics: usize,
    /// Per-stage ledgers in execution order.
    pub rows: Vec<RecoveryBenchRow>,
    /// True when at least one stage loaded from a checkpoint.
    /// Runtime-only (never serialized), shown in the ASCII summary.
    pub resumed: bool,
}

/// The quick-bench result.
#[derive(Debug, Clone)]
pub struct QuickBench {
    /// World/sweep parameters the numbers were taken at.
    pub size: usize,
    /// World seed.
    pub seed: u64,
    /// Worker threads that could run at once when the numbers were taken:
    /// the pool width capped at the host's parallelism (parallel speedups
    /// are only meaningful relative to this).
    pub cores: usize,
    /// Swept anonymization levels.
    pub k_range: (usize, usize),
    /// Per-stage timings in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Naive per-row estimate wall-clock over batch wall-clock.
    pub speedup_batch_vs_naive: f64,
    /// The large-world stage, when enabled.
    pub large: Option<LargeBench>,
    /// The 100k block, when enabled (`repro --quick --size 100000`).
    pub large_100k: Option<Large100kBench>,
    /// The composition stage, when enabled (`repro --quick --compose`).
    pub composition: Option<CompositionBench>,
    /// The defense stage, when enabled (`repro --quick --compose
    /// --defend ...`).
    pub composition_defense: Option<DefenseBench>,
    /// The hypothesis-testing evaluation, when enabled (`repro --quick
    /// --compose`; defended cells with `--defend` too).
    pub eval: Option<EvalBench>,
    /// The fault-injection stage, when enabled (`repro --quick
    /// --faults <rate>`).
    pub robustness: Option<RobustnessBench>,
    /// True when the run was taken under a checkpoint store: every
    /// wall-clock field is zeroed so the JSON is a pure function of the
    /// configuration (the resume bit-identity contract). Timing gates do
    /// not apply to such a baseline.
    pub deterministic: bool,
    /// The self-healing ledger, when faults or a checkpoint store were
    /// enabled.
    pub recovery: Option<RecoveryBench>,
    /// The observability profile, when tracing was enabled
    /// ([`QuickBenchOptions::profile`]).
    pub profile: Option<ProfileBench>,
    /// The full drained trace behind the profile block (`repro --trace`
    /// serializes it; never part of `to_json`).
    pub trace: Option<fred_obs::Trace>,
}

/// Optional add-ons of [`quick_bench`] beyond the core timed sweep.
#[derive(Debug, Clone, Default)]
pub struct QuickBenchOptions {
    /// Re-time the hot stages on a world of this many rows.
    pub large_size: Option<usize>,
    /// Run the 100k pipeline on a world of this many rows (the
    /// `large_100k` block; `repro --quick --size N` routes here for
    /// `N >= 20000`).
    pub size_100k: Option<usize>,
    /// Run the composition stage(s).
    pub compose: bool,
    /// Run the defense stage over these policies (requires `compose`).
    pub defend: Option<Vec<DefensePolicy>>,
    /// Run the harvest reference exhaustively over the whole large
    /// release instead of the seeded [`REFERENCE_SAMPLE_ROWS`] sample.
    pub exhaustive: bool,
    /// Run the fault-injection sweep up to this corruption rate. Also
    /// sets the [`StageRunner`]'s transient-stage-failure rate, so the
    /// retry protocol itself is exercised at the same budget.
    pub faults: Option<f64>,
    /// Commit a checksummed artifact at every stage boundary into this
    /// directory and zero all wall-clock fields (deterministic mode).
    pub checkpoint_dir: Option<PathBuf>,
    /// Load valid checkpoints instead of recomputing (requires
    /// `checkpoint_dir`; ignored without one).
    pub resume: bool,
    /// Exit with [`fred_recover::HALT_EXIT_CODE`] right after this
    /// stage's checkpoint commits — the deterministic kill-point for the
    /// resume tests and the CI smoke job. Only honored with a store.
    pub halt_after: Option<String>,
    /// Collect the observability trace: spans around every runner stage,
    /// the pipeline's counters, and the disabled-path overhead probe,
    /// distilled into the gated `profile` block. Off by default — the
    /// collector is process-global, so concurrent `quick_bench` calls
    /// (as in the test suite) must not both enable it.
    pub profile: bool,
}

impl QuickBench {
    /// Renders the machine-readable baseline: [`Self::to_value`]
    /// (the schema in [`crate::codec`]) through [`json::render`].
    pub fn to_json(&self) -> String {
        json::render(&self.to_value()) + "\n"
    }

    /// One-screen human summary for the terminal.
    pub fn to_ascii(&self) -> String {
        let mut out = format!(
            "quick bench — {} records, seed {}, k = {}..={}\n",
            self.size, self.seed, self.k_range.0, self.k_range.1
        );
        out.push_str("  stage                        wall (ms)      rows    rows/sec\n");
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<26} {:>10.2} {:>9} {:>11.0}\n",
                s.name,
                s.wall_ms,
                s.rows,
                s.rows_per_sec()
            ));
        }
        out.push_str(&format!(
            "  batch/parallel estimate is {:.1}x the naive per-row path\n",
            self.speedup_batch_vs_naive
        ));
        let render_composition = |out: &mut String, comp: &CompositionBench, label: &str| {
            out.push_str(&format!(
                "  {label} — k = {}, overlap {:.2} ({:.2} ms):\n",
                comp.k, comp.overlap, comp.wall_ms
            ));
            for row in &comp.rows {
                out.push_str(&format!(
                    "    R = {}: disclosure gain $ {:>8.0}   mean candidates {:>6.2}   estimate gain {:>10.3e}\n",
                    row.releases, row.disclosure_gain, row.mean_candidates, row.estimate_gain
                ));
            }
        };
        if let Some(large) = &self.large {
            out.push_str(&format!(
                "  large world — {} records ({} core{}):\n",
                large.size,
                large.cores,
                if large.cores == 1 { "" } else { "s" }
            ));
            for s in &large.stages {
                out.push_str(&format!(
                    "  {:<26} {:>10.2} {:>9} {:>11.0}\n",
                    s.name,
                    s.wall_ms,
                    s.rows,
                    s.rows_per_sec()
                ));
            }
            out.push_str(&format!(
                "  parallel harvest is {:.1}x the same harvest on one thread\n",
                large.speedup_harvest_parallel_vs_single
            ));
            if let Some(comp) = &large.composition {
                render_composition(&mut out, comp, "composition (large world)");
            }
        }
        if let Some(big) = &self.large_100k {
            out.push_str(&format!(
                "  100k world — {} records, MDAV leaves {} ({} core{}), peak rss {:.1} MiB:\n",
                big.size,
                big.shards,
                big.cores,
                if big.cores == 1 { "" } else { "s" },
                big.peak_rss_mb
            ));
            for s in &big.stages {
                out.push_str(&format!(
                    "  {:<26} {:>10.2} {:>9} {:>11.0}\n",
                    s.name,
                    s.wall_ms,
                    s.rows,
                    s.rows_per_sec()
                ));
            }
            out.push_str(&format!(
                "  optimized paths digest-pinned to references (sample {} rows): harvest {}, mdav {}, intersect {}\n",
                big.sample_rows,
                if big.harvest_digest_engine == big.harvest_digest_reference { "ok" } else { "MISMATCH" },
                if big.mdav_digest_optimized == big.mdav_digest_reference { "ok" } else { "MISMATCH" },
                if big.intersect_digest_engine == big.intersect_digest_oracle { "ok" } else { "MISMATCH" },
            ));
        }
        if let Some(comp) = &self.composition {
            render_composition(&mut out, comp, "composition");
        }
        if let Some(defense) = &self.composition_defense {
            out.push_str(&format!(
                "  defenses — k = {}, overlap {:.2} ({:.2} ms):\n",
                defense.k, defense.overlap, defense.wall_ms
            ));
            for row in &defense.rows {
                out.push_str(&format!(
                    "    {:<22} R = {}: residual $ {:>8.0} vs undefended $ {:>8.0}   candidates {:>6.2}   utility cost $ {:>8.0}\n",
                    row.policy,
                    row.releases,
                    row.residual_gain,
                    row.undefended_gain,
                    row.mean_candidates,
                    row.utility_cost
                ));
            }
        }
        if let Some(eval) = &self.eval {
            out.push_str(&format!(
                "  hypothesis test — {} cells ({:.2} ms):\n",
                eval.rows.len(),
                eval.wall_ms
            ));
            for row in &eval.rows {
                out.push_str(&format!(
                    "    k = {} R = {} {:<22} auc {:.3}   tpr@1e-3 {:.3}   eps {:.2}   ({} targets vs {} decoys)\n",
                    row.k,
                    row.releases,
                    row.defense,
                    row.auc,
                    row.tpr_at_fpr3,
                    row.epsilon,
                    row.targets,
                    row.decoys
                ));
            }
        }
        if let Some(rob) = &self.robustness {
            out.push_str(&format!(
                "  robustness — faults up to {:.0}% ({:.2} ms):\n",
                rob.max_rate * 100.0,
                rob.wall_ms
            ));
            for row in &rob.rows {
                out.push_str(&format!(
                    "    rate {:>5.1}% ({:<8}): precision {:.3}   coverage {:.3}   composition gain $ {:>8.0}   survived {:>4} defects\n",
                    row.fault_rate * 100.0,
                    row.mode,
                    row.harvest_precision,
                    row.harvest_coverage,
                    row.composition_gain,
                    row.defects()
                ));
            }
        }
        if let Some(rec) = &self.recovery {
            out.push_str(&format!(
                "  recovery — transient rate {:.0}%, {} attempts max{}:\n",
                rec.transient_rate * 100.0,
                rec.max_attempts,
                if rec.resumed {
                    " (resumed from checkpoints)"
                } else {
                    ""
                }
            ));
            out.push_str(&format!(
                "    retries {}   quarantined {}   escaped panics {}\n",
                rec.retries_total, rec.quarantined_total, rec.escaped_panics
            ));
            for row in &rec.rows {
                out.push_str(&format!(
                    "    {:<14} attempts {}   retries {}   backoff {:>8.3} ms\n",
                    row.stage, row.attempts, row.retries, row.backoff_ms
                ));
            }
        }
        if let Some(prof) = &self.profile {
            out.push_str(&format!(
                "  profile — {} spans (tree {}), {} counters; disabled-tracing probe {:.3} ms / {} calls ({:.2}% of large)\n",
                prof.spans_total,
                prof.span_tree_digest,
                prof.counters.len(),
                prof.overhead_wall_ms,
                prof.overhead_probe_calls,
                prof.overhead_pct_of_large
            ));
            for row in &prof.stages {
                out.push_str(&format!(
                    "    {:<14} self {:>10.2} ms\n",
                    row.stage, row.self_ms
                ));
            }
            for row in &prof.hists {
                out.push_str(&format!(
                    "    hist {:<20} {:>8} obs   sum {:>10.2} ms   mean {:>8.3} ms\n",
                    row.name,
                    row.count,
                    row.sum_ms,
                    if row.count > 0 {
                        row.sum_ms / row.count as f64
                    } else {
                        0.0
                    }
                ));
            }
        }
        out
    }
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs `f` under an observability span — the stage-boundary wrapper
/// [`quick_bench`] puts around every runner stage. Free when tracing is
/// off.
fn spanned<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = fred_obs::span(name);
    f()
}

/// Runs the reduced sweep-and-attack pipeline with per-stage timing.
///
/// `repeats` controls how many times the two estimate paths run over the
/// full release set (median-free but averaged), keeping the comparison
/// stable at quick scale. [`QuickBenchOptions::large_size`] additionally
/// times the hot stages (world build, MDAV, parallel + sampled-reference
/// harvest, release streaming, streamed estimates) on a world of that
/// many rows. [`QuickBenchOptions::compose`] appends the composition
/// stage: the multi-release intersection attack swept over `R = 1..=3`
/// at the tracked `k`, whose per-record disclosure gain the compare gate
/// requires to be strictly increasing;
/// [`QuickBenchOptions::defend`] additionally sweeps the given defense
/// policies next to it (the `composition_defense` block, gated for
/// residual gain strictly below the undefended gain).
///
/// Every stage runs under a [`StageRunner`]: transient failures (real
/// panics or injected ones at the `--faults` rate) are retried with
/// seeded backoff, and with [`QuickBenchOptions::checkpoint_dir`] set
/// each boundary commits a checksummed artifact. The cheap upstream
/// stages (world, MDAV, harvest) are *anchors* — always recomputed and
/// cross-checked against their stored digests, so a stale checkpoint
/// directory is detected before any expensive stage trusts it.
pub fn quick_bench(
    config: &WorldConfig,
    k_min: usize,
    k_max: usize,
    repeats: usize,
    options: &QuickBenchOptions,
) -> QuickBench {
    let repeats = repeats.max(1);
    let compose = options.compose;
    let det = options.checkpoint_dir.is_some();
    // Deterministic mode zeroes every wall-clock at the source, so the
    // artifacts (and the JSON rendered from them) are pure functions of
    // the configuration — the resume bit-identity contract.
    let t = |wall: f64| if det { 0.0 } else { wall };

    // Observability: spans wrap each runner stage *outside* its compute
    // closure, so the span tree has the same shape whether a stage is
    // computed fresh or satisfied from a checkpoint — one structural
    // digest pins fresh, deterministic and resumed runs alike.
    if options.profile {
        fred_obs::enable(det);
    }
    let root_span = fred_obs::span(sn::SPAN_ROOT);

    let faults_rate = options.faults.map_or(0.0, |r| {
        if r.is_finite() {
            r.clamp(0.0, 1.0)
        } else {
            0.0
        }
    });
    let runner_plan = FaultPlan {
        stage_transient: faults_rate,
        ..FaultPlan::uniform(config.seed ^ RECOVERY_SEED_SALT, 0.0)
    };
    let mut runner = StageRunner::new(
        runner_plan,
        RetryPolicy::default(),
        config_fingerprint(PAYLOAD_SCHEMA, config, k_min, k_max, repeats, options),
    );
    if let Some(dir) = &options.checkpoint_dir {
        runner = runner.with_store(dir.clone(), options.resume);
    }
    runner.halt_after = options.halt_after.clone();

    let mut stages = Vec::new();

    // Stage 1: world generation (anchor: recomputed + digest-checked).
    let mut world_slot: Option<World> = None;
    let anchor = spanned(rstage::WORLD_BUILD, || {
        runner.run_verified(rstage::WORLD_BUILD, || {
            let (world, wall) = time_ms(|| faculty_world(config));
            let rows = world.table.len();
            let content_hash = digest_world(&world);
            world_slot = Some(world);
            StageAnchor {
                label: rstage::WORLD_BUILD.to_string(),
                rows,
                content_hash,
                timings: vec![(sn::WORLD_BUILD.to_string(), t(wall), rows)],
            }
        })
    });
    push_anchor_timings(&mut stages, &anchor);
    let world = world_slot.expect("world anchor always computes");

    // Stage 2: MDAV at the tracked level (the ROADMAP's `mdav_k5`) plus
    // per-level anonymization, as one anchor whose digest folds every
    // level's class assignment.
    let anonymizer = Mdav::new();
    let stage_k = STAGE_K.min(world.table.len());
    let k_max = k_max.min(world.table.len());
    assert!(
        k_min <= k_max,
        "quick bench needs a world with at least {k_min} records to sweep \
         k = {k_min}..; got {} (raise --size)",
        world.table.len()
    );
    let ks: Vec<usize> = (k_min..=k_max).collect();
    let mut releases_slot: Option<Vec<Release>> = None;
    let anchor = spanned(rstage::MDAV, || {
        runner.run_verified(rstage::MDAV, || {
            let (_, mdav_wall) = time_ms(|| {
                anonymizer
                    .partition(&world.table, stage_k)
                    .expect("quick-bench world partitions cleanly")
            });
            let (pairs, anon_wall) = time_ms(|| {
                ks.iter()
                    .map(|&k| {
                        let partition = anonymizer
                            .partition(&world.table, k)
                            .expect("quick-bench world partitions cleanly");
                        let release = build_release(&world.table, &partition, k, QiStyle::Range)
                            .expect("release builds from a valid partition");
                        (partition, release)
                    })
                    .collect::<Vec<_>>()
            });
            let mut digest = Digest::new();
            digest.u64(stage_k as u64);
            for (partition, _) in &pairs {
                for class in partition.class_of_rows() {
                    digest.u64(class as u64);
                }
            }
            releases_slot = Some(pairs.into_iter().map(|(_, release)| release).collect());
            StageAnchor {
                label: rstage::MDAV.to_string(),
                rows: world.table.len(),
                content_hash: digest.finish(),
                timings: vec![
                    (sn::MDAV_K5.to_string(), t(mdav_wall), world.table.len()),
                    (
                        sn::ANONYMIZE_ALL_LEVELS.to_string(),
                        t(anon_wall),
                        world.table.len() * ks.len(),
                    ),
                ],
            }
        })
    });
    push_anchor_timings(&mut stages, &anchor);
    let releases = releases_slot.expect("mdav anchor always computes");

    // Stage 3: auxiliary harvest (shared across levels, like the sweep).
    let mut harvest_slot: Option<Harvest> = None;
    let anchor = spanned(rstage::HARVEST, || {
        runner.run_verified(rstage::HARVEST, || {
            let (harvest, wall) = time_ms(|| {
                harvest_auxiliary(&releases[0].table, &world.web, &HarvestConfig::default())
                    .expect("harvest over a generated corpus cannot fail")
            });
            let content_hash = digest_harvest(&harvest);
            harvest_slot = Some(harvest);
            StageAnchor {
                label: rstage::HARVEST.to_string(),
                rows: world.table.len(),
                content_hash,
                timings: vec![(
                    sn::HARVEST_AUXILIARY.to_string(),
                    t(wall),
                    world.table.len(),
                )],
            }
        })
    });
    push_anchor_timings(&mut stages, &anchor);
    let harvest = harvest_slot.expect("harvest anchor always computes");

    // Stages 4+5: the measured comparison — identical inputs through the
    // naive interpreted path and the compiled batch/parallel path.
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config valid");
    let estimate_rows = world.table.len() * ks.len() * repeats;
    let estimates = spanned(rstage::ESTIMATES, || {
        runner.run(rstage::ESTIMATES, || {
            let (naive, naive_wall) = time_ms(|| run_naive(&fusion, &releases, &harvest, repeats));
            let (batch, batch_wall) = time_ms(|| run_batch(&fusion, &releases, &harvest, repeats));
            assert_eq!(
                naive, batch,
                "batch path must be bit-identical to the naive path"
            );
            EstimatesArtifact {
                naive_ms: t(naive_wall),
                batch_ms: t(batch_wall),
                rows: estimate_rows,
                speedup: if det || batch_wall <= 0.0 {
                    0.0
                } else {
                    naive_wall / batch_wall
                },
                estimate_hash: digest_bits(&naive),
            }
        })
    });
    stages.push(StageTiming {
        name: sn::ESTIMATE_NAIVE_PER_ROW,
        wall_ms: estimates.naive_ms,
        rows: estimates.rows,
    });
    stages.push(StageTiming {
        name: sn::ESTIMATE_BATCH_PARALLEL,
        wall_ms: estimates.batch_ms,
        rows: estimates.rows,
    });

    // Stage 6: the full parallel sweep end-to-end (what figures 4-7 run).
    let before = MidpointEstimator::default();
    let sweep_stage = spanned(rstage::SWEEP, || {
        runner.run(rstage::SWEEP, || {
            let (_, wall) = time_ms(|| {
                sweep(
                    &world.table,
                    &world.web,
                    &anonymizer,
                    &before,
                    &fusion,
                    &SweepConfig {
                        k_min,
                        k_max,
                        ..SweepConfig::default()
                    },
                )
                .expect("quick-bench sweep succeeds")
            });
            SweepArtifact {
                wall_ms: t(wall),
                rows: world.table.len() * ks.len(),
            }
        })
    });
    stages.push(StageTiming {
        name: sn::SWEEP_END_TO_END,
        wall_ms: sweep_stage.wall_ms,
        rows: sweep_stage.rows,
    });

    // Stage 7 (optional): the composition attack at the tracked k.
    let composition = compose.then(|| {
        spanned(rstage::COMPOSITION, || {
            runner.run(rstage::COMPOSITION, || {
                let mut comp = composition_bench(&world);
                comp.wall_ms = t(comp.wall_ms);
                comp
            })
        })
    });
    if let Some(comp) = &composition {
        stages.push(StageTiming {
            name: sn::COMPOSITION_SWEEP,
            wall_ms: comp.wall_ms,
            rows: world.table.len() * comp.rows.len(),
        });
    }

    // Stage 8 (optional): the defense policies against the same attack.
    let composition_defense = match (&options.defend, compose) {
        (Some(policies), true) => {
            let bench = spanned(rstage::DEFENSE, || {
                runner.run(rstage::DEFENSE, || {
                    let mut bench = defense_bench(&world, policies);
                    bench.wall_ms = t(bench.wall_ms);
                    bench
                })
            });
            stages.push(StageTiming {
                name: sn::COMPOSITION_DEFENSE,
                wall_ms: bench.wall_ms,
                rows: world.table.len() * bench.rows.len(),
            });
            Some(bench)
        }
        _ => None,
    };

    // Stage 9 (optional): the hypothesis-testing evaluation — the same
    // scenarios the composition stages attack, rescored as a binary
    // classifier (core targets vs matched decoys) per (k, R, defense)
    // cell.
    let eval = compose.then(|| {
        spanned(rstage::EVAL, || {
            runner.run(rstage::EVAL, || {
                let mut bench = eval_bench(&world, options.defend.as_deref());
                bench.wall_ms = t(bench.wall_ms);
                bench
            })
        })
    });
    if let Some(eval) = &eval {
        stages.push(StageTiming {
            name: sn::EVAL_SWEEP,
            wall_ms: eval.wall_ms,
            rows: eval.rows.iter().map(|r| r.targets + r.decoys).sum(),
        });
    }

    // Stage 10 (optional): the fault-injection sweep.
    let robustness = options.faults.map(|rate| {
        let bench = spanned(rstage::ROBUSTNESS, || {
            runner.run(rstage::ROBUSTNESS, || {
                let mut bench = robustness_bench(config, &world, rate);
                bench.wall_ms = t(bench.wall_ms);
                bench
            })
        });
        stages.push(StageTiming {
            name: sn::ROBUSTNESS_SWEEP,
            wall_ms: bench.wall_ms,
            rows: world.table.len() * bench.rows.len(),
        });
        bench
    });

    // Stage 11 (optional — by far the most expensive of the core
    // pipeline, so a killed run resumes past everything else): the
    // large-world block.
    let large = options.large_size.map(|size| {
        spanned(rstage::LARGE, || {
            runner.run(rstage::LARGE, || {
                let mut bench = large_bench(config, size, compose, options.exhaustive);
                if det {
                    for stage in &mut bench.stages {
                        stage.wall_ms = 0.0;
                    }
                    bench.speedup_harvest_parallel_vs_single = 0.0;
                    if let Some(comp) = &mut bench.composition {
                        comp.wall_ms = 0.0;
                    }
                }
                bench
            })
        })
    });

    // Stage 12 (optional, last): the pipeline at `--size` scale, every
    // optimized path digest-pinned in-process against its reference.
    let large_100k = options.size_100k.map(|size| {
        spanned(rstage::LARGE_100K, || {
            runner.run(rstage::LARGE_100K, || {
                let mut bench = large_100k_bench(config, size);
                if det {
                    for stage in &mut bench.stages {
                        stage.wall_ms = 0.0;
                    }
                    bench.peak_rss_mb = 0.0;
                }
                bench
            })
        })
    });

    // Close the root span, stop collecting, then measure the *disabled*
    // fast path — the cost every uninstrumented run pays. `disable()`
    // keeps the collected window and `drain()` works on a disabled
    // collector, so the probe itself records nothing.
    drop(root_span);
    let (profile, trace) = if options.profile {
        fred_obs::disable();
        let probe_start = std::time::Instant::now();
        for _ in 0..OVERHEAD_PROBE_CALLS {
            fred_obs::counter(
                std::hint::black_box("obs.overhead_probe"),
                std::hint::black_box(1),
            );
        }
        let probe_wall = probe_start.elapsed().as_secs_f64() * 1e3;
        let trace = fred_obs::drain();
        let large_wall: f64 = large
            .as_ref()
            .map(|l| l.stages.iter().map(|s| s.wall_ms).sum())
            .unwrap_or(0.0);
        let profile = distill_profile(&trace, probe_wall, large_wall, det);
        (Some(profile), Some(trace))
    } else {
        (None, None)
    };

    let recovery = (options.faults.is_some() || det).then(|| RecoveryBench {
        seed: config.seed ^ RECOVERY_SEED_SALT,
        transient_rate: faults_rate,
        max_attempts: runner.policy.max_attempts,
        retries_total: runner.retries_total(),
        quarantined_total: runner.quarantined_total(),
        escaped_panics: 0,
        rows: runner
            .reports()
            .iter()
            .map(|r| RecoveryBenchRow {
                stage: r.stage.clone(),
                attempts: r.attempts,
                retries: r.retries,
                backoff_ms: r.backoff_ms,
            })
            .collect(),
        resumed: runner.resumed(),
    });

    QuickBench {
        size: world.table.len(),
        seed: config.seed,
        cores: effective_cores(),
        k_range: (k_min, k_max),
        stages,
        speedup_batch_vs_naive: estimates.speedup,
        large,
        large_100k,
        composition,
        composition_defense,
        eval,
        robustness,
        deterministic: det,
        recovery,
        profile,
        trace,
    }
}

/// Distills a drained trace into the gated `profile` block: per-stage
/// self-time under the [`crate::stages::SPAN_ROOT`] span, the structural
/// digest, and the disabled-path overhead expressed against the large
/// block's wall. Counter rows are dropped in deterministic mode —
/// checkpoint-resumed stages skip their compute closures, so runtime
/// counters are not a pure function of the configuration.
fn distill_profile(
    trace: &fred_obs::Trace,
    probe_wall_ms: f64,
    large_wall_ms: f64,
    det: bool,
) -> ProfileBench {
    fn subtree(node: &fred_obs::SpanNode) -> usize {
        1 + node.children.iter().map(subtree).sum::<usize>()
    }
    let stages = trace
        .spans
        .iter()
        .filter(|root| root.name == crate::stages::SPAN_ROOT)
        .flat_map(|root| root.children.iter())
        .map(|stage| {
            let child_wall: f64 = stage.children.iter().map(|c| c.wall_ms).sum();
            ProfileStageRow {
                stage: stage.name.clone(),
                self_ms: (stage.wall_ms - child_wall).max(0.0),
                spans: subtree(stage),
            }
        })
        .collect();
    let pct = if det || large_wall_ms <= 0.0 {
        0.0
    } else {
        probe_wall_ms / large_wall_ms * 100.0
    };
    ProfileBench {
        deterministic: det,
        spans_total: trace.spans_total,
        events_total: trace.events_total,
        span_tree_digest: trace.structural_digest(),
        overhead_probe_calls: OVERHEAD_PROBE_CALLS,
        overhead_wall_ms: if det { 0.0 } else { probe_wall_ms },
        overhead_pct_of_large: pct,
        stages,
        counters: if det {
            Vec::new()
        } else {
            trace
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        },
        hists: if det {
            Vec::new()
        } else {
            trace
                .histograms
                .iter()
                .map(|(name, h)| ProfileHistRow {
                    name: name.clone(),
                    count: h.count,
                    sum_ms: h.sum_ms,
                    buckets: h.buckets.to_vec(),
                })
                .collect()
        },
    }
}

/// XOR-folded into the world seed to derive the [`StageRunner`]'s fault
/// plan seed — decorrelated from the robustness sweep's
/// `FAULT_SEED_SALT` stream, so retry decisions and corpus corruption
/// never alias.
pub const RECOVERY_SEED_SALT: u64 = 0x5EC0;

/// Hashes the full run configuration and the payload encoding
/// (`schema`, [`PAYLOAD_SCHEMA`] in every run) into the checkpoint
/// fingerprint: a checkpoint written under any other configuration or
/// encoding is stale. Store location, resume flag and halt hook are
/// deliberately excluded — they vary between the runs a resume is
/// supposed to bridge.
fn config_fingerprint(
    schema: u64,
    config: &WorldConfig,
    k_min: usize,
    k_max: usize,
    repeats: usize,
    options: &QuickBenchOptions,
) -> u64 {
    let mut d = Digest::new();
    d.u64(schema);
    d.u64(config.size as u64);
    d.u64(config.seed);
    d.u64(config.web_presence_rate.to_bits());
    d.u64(config.name_noise.to_bits());
    d.u64(config.score_noise.to_bits());
    d.u64(k_min as u64);
    d.u64(k_max as u64);
    d.u64(repeats as u64);
    d.u64(options.compose as u64);
    match &options.defend {
        None => d.u64(0),
        Some(policies) => {
            d.u64(1 + policies.len() as u64);
            for policy in policies {
                d.str(&policy.label());
            }
        }
    }
    d.u64(options.large_size.map_or(u64::MAX, |s| s as u64));
    d.u64(options.size_100k.map_or(u64::MAX, |s| s as u64));
    d.u64(options.exhaustive as u64);
    d.u64(options.faults.map_or(u64::MAX, |r| r.to_bits()));
    d.finish()
}

/// Copies an anchor's timing rows into the bench's stage list,
/// re-interning the stage names into the `&'static str` roster.
fn push_anchor_timings(stages: &mut Vec<StageTiming>, anchor: &StageAnchor) {
    for (name, wall_ms, rows) in &anchor.timings {
        stages.push(StageTiming {
            name: intern_stage_name(name).expect("anchor timing names are in the stage roster"),
            wall_ms: *wall_ms,
            rows: *rows,
        });
    }
}

/// XOR-folded into the world seed to derive the fault-plan seed, so the
/// injected corruption pattern is reproducible from the baseline's
/// `config.seed` but decorrelated from every other seeded stream.
const FAULT_SEED_SALT: u64 = 0xFA17;

/// Shared inputs of one robustness cell.
struct RobustnessCtx<'a> {
    world: &'a World,
    fusion: &'a FuzzyFusion,
    release: &'a Table,
    ids: &'a [usize],
    harvest_config: &'a HarvestConfig,
    compose_config: &'a CompositionConfig,
}

/// Runs the fault-injection sweep: the corpus, harvest and composition
/// attack re-run under a seeded [`FaultPlan`] at rates `0`, `rate/2` and
/// `rate`, through the tolerant skip-and-count pipeline — then once more
/// under the *targeted* plan: the same corruption budget aimed exactly at
/// the records the strict run disclosed hardest (worst case, not average
/// case). The `0.0` row is asserted bit-identical to the strict pipeline
/// in-process (the same passthrough property the compare gate later pins
/// against the committed baseline), every recorded metric is asserted
/// finite, and worker panics are contained by [`rayon::silence_panics`]
/// — a panic escaping the sweep *is* a robustness failure.
fn robustness_bench(config: &WorldConfig, world: &World, rate: f64) -> RobustnessBench {
    let rate = if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mut rates = vec![0.0];
    if rate > 0.0 {
        rates.push(rate / 2.0);
        rates.push(rate);
    }
    rates.dedup();

    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config valid");
    let release = world.table.suppress_sensitive();
    let ids: Vec<usize> = world.people.iter().map(|p| p.id).collect();
    let harvest_config = HarvestConfig::default();
    let compose_config = CompositionConfig {
        scenario: ScenarioConfig {
            releases: 3,
            k: STAGE_K.min(world.table.len()),
            ..ScenarioConfig::default()
        },
        ..CompositionConfig::default()
    };
    let ctx = RobustnessCtx {
        world,
        fusion: &fusion,
        release: &release,
        ids: &ids,
        harvest_config: &harvest_config,
        compose_config: &compose_config,
    };

    let (rows, wall) = time_ms(|| {
        let mut rows = Vec::new();
        let mut strict_outcome: Option<CompositionOutcome> = None;
        for &r in &rates {
            let plan = FaultPlan::uniform(config.seed ^ FAULT_SEED_SALT, r);
            let (row, outcome) = robustness_row(&ctx, &plan, r, "uniform", r == 0.0);
            if r == 0.0 {
                strict_outcome = Some(outcome);
            }
            rows.push(row);
        }
        if rate > 0.0 {
            let strict = strict_outcome
                .as_ref()
                .expect("the zero-rate row always runs first");
            let targets = select_targets(world, strict, rate);
            let plan = FaultPlan {
                targeted: Some(targets),
                ..FaultPlan::uniform(config.seed ^ FAULT_SEED_SALT, 0.0)
            };
            let (row, _) = robustness_row(&ctx, &plan, rate, "targeted", false);
            rows.push(row);
        }
        rows
    });
    RobustnessBench {
        max_rate: rate,
        seed: config.seed ^ FAULT_SEED_SALT,
        wall_ms: wall,
        rows,
    }
}

/// One robustness cell: corrupt the corpus under `plan`, harvest and
/// compose tolerantly, count the damage. With `check_strict` set the
/// result is asserted bit-identical to the strict pipeline (only valid
/// for passthrough plans).
fn robustness_row(
    ctx: &RobustnessCtx,
    plan: &FaultPlan,
    rate_label: f64,
    mode: &'static str,
    check_strict: bool,
) -> (RobustnessBenchRow, CompositionOutcome) {
    let (pages, page_deg) = corrupt_pages(ctx.world.web.pages().to_vec(), plan);
    let engine = SearchEngine::build(pages);
    let (harvest, harvest_deg) = rayon::silence_panics(|| {
        harvest_auxiliary_tolerant(ctx.release, &engine, ctx.harvest_config, plan)
    })
    .expect("tolerant harvest never fails on injected faults");
    let precision = harvest_precision(&harvest, &engine, ctx.ids)
        .expect("harvest rows align with the world population");
    let (outcome, compose_deg) = rayon::silence_panics(|| {
        compose_attack_tolerant(
            &ctx.world.table,
            &engine,
            &Mdav::new(),
            ctx.fusion,
            ctx.compose_config,
            plan,
        )
    })
    .expect("tolerant composition never fails on injected faults");
    let mut deg = page_deg;
    deg.merge(&harvest_deg);
    deg.merge(&compose_deg);
    if check_strict {
        // The passthrough gate, checked at the source: the zero-rate row
        // *is* the strict pipeline.
        assert!(deg.is_clean(), "zero-rate plan must stay clean: {deg:?}");
        let strict = harvest_auxiliary(ctx.release, &engine, ctx.harvest_config)
            .expect("harvest over a generated corpus cannot fail");
        assert_eq!(
            harvest, strict,
            "zero-rate tolerant harvest must be bit-identical to the strict path"
        );
        let strict_outcome = compose_attack(
            &ctx.world.table,
            &engine,
            &Mdav::new(),
            ctx.fusion,
            ctx.compose_config,
        )
        .expect("composition over the quick world succeeds");
        assert_eq!(
            outcome, strict_outcome,
            "zero-rate tolerant composition must be bit-identical to the strict path"
        );
    }
    let row = RobustnessBenchRow {
        fault_rate: rate_label,
        mode,
        harvest_precision: precision,
        harvest_coverage: harvest.coverage(),
        composition_gain: outcome.disclosure_gain,
        pages_rejected: deg.pages_rejected,
        rows_skipped: deg.rows_skipped,
        fields_imputed: deg.fields_imputed,
        workers_restarted: deg.workers_restarted,
    };
    assert!(
        row.harvest_precision.is_finite()
            && row.harvest_coverage.is_finite()
            && row.composition_gain.is_finite(),
        "robustness row at rate {rate_label} ({mode}) carries a non-finite value: {row:?}"
    );
    (row, outcome)
}

/// Builds the worst-case corruption plan from a strict run: the records
/// are ranked by realized disclosure gain (baseline minus composed
/// sensitive-range width, ties broken by row for determinism) and the
/// top `ceil(rate * n)` get their release rows dropped and their web
/// pages tombstoned — an adversary spending the same budget where the
/// attack (equivalently, the honest analyst's signal) is strongest.
fn select_targets(world: &World, strict: &CompositionOutcome, rate: f64) -> TargetedCorruption {
    let mut ranked: Vec<(f64, usize)> = strict
        .records
        .iter()
        .map(|r| {
            (
                r.baseline_income_width - r.feasible_income_width,
                r.master_row,
            )
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let budget = ((rate * ranked.len() as f64).ceil() as usize)
        .min(ranked.len())
        .max(1);
    let rows: Vec<usize> = ranked.iter().take(budget).map(|&(_, row)| row).collect();
    let mut pages = Vec::new();
    for &row in &rows {
        let person = world.people[row].id;
        for page in world.web.pages() {
            if page.person_id == Some(person) {
                pages.push(page.id);
            }
        }
    }
    TargetedCorruption::new(pages, rows)
}

/// Runs the defense sweep (every policy over `R = 1..=3` at the tracked
/// `k`, next to the undefended reference) and extracts the gated rows.
/// Every recorded value is asserted finite — the same NaN-poisoning
/// guard the attack stage carries.
fn defense_bench(world: &crate::world::World, policies: &[DefensePolicy]) -> DefenseBench {
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config valid");
    let config = CompositionSweepConfig {
        ks: vec![STAGE_K.min(world.table.len())],
        releases: vec![1, 2, 3],
        ..CompositionSweepConfig::default()
    };
    let (report, wall) = time_ms(|| {
        defense_sweep(
            &world.table,
            &world.web,
            &Mdav::new(),
            &fusion,
            &config,
            policies,
        )
        .expect("defense sweep over the quick world succeeds")
    });
    let rows: Vec<DefenseBenchRow> = report
        .rows()
        .iter()
        .map(|r| DefenseBenchRow {
            policy: r.policy.clone(),
            releases: r.releases,
            residual_gain: r.residual_gain,
            undefended_gain: r.undefended_gain,
            mean_candidates: r.mean_candidates,
            utility_cost: r.utility_cost,
        })
        .collect();
    for row in &rows {
        assert!(
            row.residual_gain.is_finite()
                && row.undefended_gain.is_finite()
                && row.mean_candidates.is_finite()
                && row.utility_cost.is_finite(),
            "defense row `{}` at R = {} carries a non-finite value: {row:?}",
            row.policy,
            row.releases
        );
    }
    DefenseBench {
        k: config.ks[0],
        overlap: config.overlap,
        wall_ms: wall,
        rows,
    }
}

/// Anonymization levels the hypothesis-testing evaluation sweeps — two
/// distinct ks so the "ε non-increasing in k" gate compares real cells
/// within one run instead of holding vacuously over a single level.
pub const EVAL_KS: [usize; 2] = [2, STAGE_K];

/// Release counts every undefended evaluation cell is scored at.
pub const EVAL_RELEASES: [usize; 2] = [2, 3];

/// The decoy pool for one scenario: every master row outside the
/// target core. Which of them actually count as negatives is decided
/// per cell, after intersection — see [`eval_cell`].
fn eval_decoys(n: usize, targets: &[usize]) -> Vec<usize> {
    let in_core: std::collections::HashSet<usize> = targets.iter().copied().collect();
    (0..n).filter(|row| !in_core.contains(row)).collect()
}

/// Scores one `(sources, targets, decoys)` cell: both populations run
/// through the intersection engine in a single call (so the scoring
/// path cannot drift between them), then split and handed to the
/// threshold sweep.
///
/// Decoy rows that turn out to be present in *every* scored release are
/// dropped before the sweep: such a row is a member of the fused
/// release population, so its "not in the core" label is ground-truth
/// noise, not a measure of attacker power — at low `k` it intersects
/// exactly as sharply as a real target and no score can tell them
/// apart. Excluding it is the membership-inference convention of
/// evaluating only on cleanly-labelled in/out populations, and it is
/// what makes the committed ε genuinely non-increasing in `k` instead
/// of tie-noise.
fn eval_cell(
    sources: &[Source],
    targets: &[usize],
    decoys: &[usize],
    n_master: usize,
) -> fred_eval::EvalReport {
    let mut rows: Vec<usize> = Vec::with_capacity(targets.len() + decoys.len());
    rows.extend_from_slice(targets);
    rows.extend_from_slice(decoys);
    let inters = intersect_releases(sources, &rows, n_master, STREAM_CHUNK_ROWS)
        .expect("intersection over generated sources cannot fail");
    let (target_rows, decoy_rows) = inters.split_at(targets.len());
    let eligible: Vec<TargetIntersection> = decoy_rows
        .iter()
        .filter(|d| d.sources_seen < sources.len())
        .cloned()
        .collect();
    fred_eval::evaluate_intersections(target_rows, &eligible, n_master)
        .expect("eval populations are non-empty with finite scores")
}

/// Runs the hypothesis-testing evaluation on a world: every undefended
/// `(k, R)` cell of [`EVAL_KS`] × [`EVAL_RELEASES`] (ks clamped to the
/// world and deduplicated) scores the scenario's target core against a
/// matched decoy population, sweeps the decision threshold, and records
/// ROC-derived AUC, TPR@FPR=10⁻³ and empirical ε; with `--defend` one
/// extra cell per policy runs at the tracked `k` and top `R`. Each k's
/// lower-R cells score a *prefix* of the same source list, so the only
/// variable across a row group is how much the adversary has seen.
/// Every value is asserted finite — a NaN would sail through the
/// comparison gates (every NaN comparison is false) and disarm them
/// silently.
fn eval_bench(world: &crate::world::World, policies: Option<&[DefensePolicy]>) -> EvalBench {
    let table = &world.table;
    let n = table.len();
    let anonymizer = Mdav::new();
    let base = ScenarioConfig::default();
    let max_r = *EVAL_RELEASES.iter().max().expect("release list non-empty");
    let stage_k = STAGE_K.min(n);
    let mut ks: Vec<usize> = EVAL_KS.iter().map(|&k| k.min(stage_k)).collect();
    ks.sort_unstable();
    ks.dedup();
    let (rows, wall_ms) = time_ms(|| {
        let mut rows: Vec<EvalCellRow> = Vec::new();
        for &k in &ks {
            let config = ScenarioConfig {
                releases: max_r,
                k,
                ..base.clone()
            };
            let scenario = generate_scenario(table, &anonymizer, &config)
                .expect("eval scenario generates over the quick world");
            let decoys = eval_decoys(n, &scenario.targets);
            for &releases in &EVAL_RELEASES {
                let releases = releases.min(scenario.sources.len());
                let report =
                    eval_cell(&scenario.sources[..releases], &scenario.targets, &decoys, n);
                fred_obs::counter("eval.cells", 1);
                fred_obs::counter("eval.scored_rows", (report.targets + report.decoys) as u64);
                rows.push(EvalCellRow {
                    k,
                    releases,
                    defense: "none".to_owned(),
                    targets: report.targets,
                    decoys: report.decoys,
                    auc: report.auc,
                    tpr_at_fpr3: report.tpr_at_low_fpr,
                    epsilon: report.epsilon,
                });
            }
        }
        if let Some(policies) = policies {
            for policy in policies {
                // Defended cells regenerate the full scenario under the
                // policy and score all sources (no prefix slicing:
                // CalibratedWiden calibrates against the whole release
                // set, so a sliced view would misstate the defense).
                let config = ScenarioConfig {
                    releases: max_r,
                    k: stage_k,
                    defense: Some(policy.clone()),
                    ..base.clone()
                };
                let scenario = generate_scenario(table, &anonymizer, &config)
                    .expect("defended eval scenario generates over the quick world");
                let decoys = eval_decoys(n, &scenario.targets);
                let report = eval_cell(&scenario.sources, &scenario.targets, &decoys, n);
                fred_obs::counter("eval.cells", 1);
                fred_obs::counter("eval.scored_rows", (report.targets + report.decoys) as u64);
                rows.push(EvalCellRow {
                    k: stage_k,
                    releases: max_r,
                    defense: policy.label(),
                    targets: report.targets,
                    decoys: report.decoys,
                    auc: report.auc,
                    tpr_at_fpr3: report.tpr_at_low_fpr,
                    epsilon: report.epsilon,
                });
            }
        }
        rows
    });
    for row in &rows {
        assert!(
            row.auc.is_finite() && row.tpr_at_fpr3.is_finite() && row.epsilon.is_finite(),
            "eval cell k = {} R = {} `{}` carries a non-finite value: {row:?}",
            row.k,
            row.releases,
            row.defense
        );
    }
    EvalBench { wall_ms, rows }
}

/// Runs the composition sweep (`R = 1..=3` at the tracked k) on a world
/// and extracts the gated series. Every recorded value is asserted
/// finite: a NaN here would vanish from the line-oriented baseline
/// parser and silently dodge the monotonicity gate.
fn composition_bench(world: &crate::world::World) -> CompositionBench {
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config valid");
    let config = CompositionSweepConfig {
        ks: vec![STAGE_K.min(world.table.len())],
        releases: vec![1, 2, 3],
        ..CompositionSweepConfig::default()
    };
    let (report, wall) = time_ms(|| {
        composition_sweep(&world.table, &world.web, &Mdav::new(), &fusion, &config)
            .expect("composition sweep over the quick world succeeds")
    });
    let rows: Vec<CompositionBenchRow> = report
        .rows()
        .iter()
        .map(|r| CompositionBenchRow {
            releases: r.releases,
            disclosure_gain: r.disclosure_gain,
            mean_candidates: r.mean_candidates,
            estimate_gain: r.estimate_gain,
        })
        .collect();
    for row in &rows {
        assert!(
            row.disclosure_gain.is_finite()
                && row.mean_candidates.is_finite()
                && row.estimate_gain.is_finite(),
            "composition row at R = {} carries a non-finite value: {row:?}",
            row.releases
        );
    }
    CompositionBench {
        k: config.ks[0],
        overlap: config.overlap,
        wall_ms: wall,
        rows,
    }
}

/// Times the hot stages on a large world: this is where the near-linear
/// MDAV, the batched/parallel harvest and the streaming release iterator
/// earn their keep, and where a superlinear regression shows up as a
/// wall-clock cliff rather than noise. With `compose` set (and a world
/// big enough to hold a `STAGE_K`-anonymizable core) the composition
/// attack runs at this scale too: `R` independent per-source MDAV runs
/// fanned across the worker pool, releases streamed through the
/// intersection engine, gains gated like the quick-world stage.
///
/// The exhaustive-reference stage (`harvest_sequential_large`) runs over
/// a seeded [`REFERENCE_SAMPLE_ROWS`]-row sample unless `exhaustive` is
/// set: harvesting is per-name independent and the sampled reference is
/// property-pinned against the full one, so the equality assert keeps
/// its teeth while the stage drops from the bench's single largest cost
/// (~1.2 s at 10 000 rows) to a few tens of milliseconds.
fn large_bench(config: &WorldConfig, size: usize, compose: bool, exhaustive: bool) -> LargeBench {
    let mut stages = Vec::new();
    let large_config = WorldConfig {
        size,
        ..config.clone()
    };

    let (world, wall) = time_ms(|| faculty_world(&large_config));
    stages.push(StageTiming {
        name: sn::WORLD_BUILD_LARGE,
        wall_ms: wall,
        rows: world.table.len(),
    });

    let anonymizer = Mdav::new();
    let stage_k = STAGE_K.min(world.table.len());
    let (partition, wall) = time_ms(|| {
        anonymizer
            .partition(&world.table, stage_k)
            .expect("large world partitions cleanly")
    });
    stages.push(StageTiming {
        name: sn::MDAV_K5_LARGE,
        wall_ms: wall,
        rows: world.table.len(),
    });

    // Stream the release instead of materializing it: peak memory stays
    // one chunk regardless of world size.
    let (streamed_rows, wall) = time_ms(|| {
        Release::chunks(&world.table, &partition, QiStyle::Range, STREAM_CHUNK_ROWS)
            .map(|chunk| chunk.expect("chunk builds from a valid partition").len())
            .sum::<usize>()
    });
    assert_eq!(streamed_rows, world.table.len());
    stages.push(StageTiming {
        name: sn::RELEASE_STREAM_LARGE,
        wall_ms: wall,
        rows: streamed_rows,
    });

    let release = build_release(&world.table, &partition, stage_k, QiStyle::Range)
        .expect("release builds from a valid partition");
    let harvest_config = HarvestConfig::default();
    let (harvest_par, par_wall) = time_ms(|| {
        harvest_auxiliary(&release.table, &world.web, &harvest_config)
            .expect("harvest over a generated corpus cannot fail")
    });
    stages.push(StageTiming {
        name: sn::HARVEST_PARALLEL_LARGE,
        wall_ms: par_wall,
        rows: world.table.len(),
    });

    // The same call on a one-thread pool: the parallelism ratio's
    // denominator. Timing the *exhaustive* reference here instead would
    // fold the algorithmic speedup (top-k search, score floor, agreement
    // memo) into the ratio and let a runner that lost all thread fan-out
    // still clear the >= 4-core gate on caching alone.
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool builds");
    let (harvest_single, single_wall) = time_ms(|| {
        one_thread.install(|| {
            harvest_auxiliary(&release.table, &world.web, &harvest_config)
                .expect("harvest over a generated corpus cannot fail")
        })
    });
    stages.push(StageTiming {
        name: sn::HARVEST_SINGLE_THREAD_LARGE,
        wall_ms: single_wall,
        rows: world.table.len(),
    });

    // The sampled reference always runs under the stable stage name, so
    // baselines stay comparable across modes; --exhaustive *adds* the
    // full-table reference as its own stage instead of silently swapping
    // the workload behind `harvest_sequential_large` (which would trip —
    // or disarm — the 3x stage-ratio gate whenever the two sides of a
    // compare were taken in different modes).
    let (sampled, seq_wall) = time_ms(|| {
        harvest_auxiliary_reference_sampled(
            &release.table,
            &world.web,
            &harvest_config,
            REFERENCE_SAMPLE_ROWS,
            config.seed,
        )
        .expect("harvest over a generated corpus cannot fail")
    });
    let (sample_rows, harvest_ref) = sampled;
    stages.push(StageTiming {
        name: sn::HARVEST_SEQUENTIAL_LARGE,
        wall_ms: seq_wall,
        rows: sample_rows.len(),
    });
    for (i, &row) in sample_rows.iter().enumerate() {
        assert_eq!(
            harvest_ref.records[i], harvest_par.records[row],
            "parallel harvest diverged from the sampled reference at row {row}"
        );
        assert_eq!(
            harvest_ref.linked[i], harvest_par.linked[row],
            "parallel harvest links diverged from the sampled reference at row {row}"
        );
    }
    if exhaustive {
        let (harvest_seq, ex_wall) = time_ms(|| {
            harvest_auxiliary_sequential(&release.table, &world.web, &harvest_config)
                .expect("harvest over a generated corpus cannot fail")
        });
        stages.push(StageTiming {
            name: sn::HARVEST_EXHAUSTIVE_LARGE,
            wall_ms: ex_wall,
            rows: world.table.len(),
        });
        assert_eq!(
            harvest_par, harvest_seq,
            "parallel harvest must be record-for-record identical to the reference"
        );
    }
    assert_eq!(
        harvest_par, harvest_single,
        "the one-thread harvest must be record-for-record identical to the parallel one"
    );

    // The batch/parallel estimator driven through the streaming release —
    // the `SweepConfig::chunk_rows` path at enterprise scale: each chunk
    // pairs with its aligned slice of harvest records, so peak memory
    // stays one chunk while every row flows through
    // `FuzzyFusion::estimate`.
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config valid");
    let (estimated_rows, wall) = time_ms(|| {
        let mut lo = 0usize;
        for chunk in Release::chunks(&world.table, &partition, QiStyle::Range, STREAM_CHUNK_ROWS) {
            let chunk = chunk.expect("chunk builds from a valid partition");
            let hi = lo + chunk.len();
            let est = fusion
                .estimate(&chunk, &harvest_par.records[lo..hi])
                .expect("estimate succeeds");
            debug_assert_eq!(est.len(), chunk.len());
            lo = hi;
        }
        lo
    });
    assert_eq!(estimated_rows, world.table.len());
    stages.push(StageTiming {
        name: sn::ESTIMATE_STREAM_LARGE,
        wall_ms: wall,
        rows: estimated_rows,
    });

    // The composition attack at enterprise scale. Skipped (not failed)
    // when the world cannot hold a STAGE_K-anonymizable core — the same
    // feasibility bound the repro CLI derives for the quick stage.
    let overlap = CompositionSweepConfig::default().overlap;
    let core_rows = (world.table.len() as f64 * overlap).round() as usize;
    let composition = (compose && core_rows >= STAGE_K).then(|| {
        let comp = composition_bench(&world);
        stages.push(StageTiming {
            name: sn::COMPOSITION_LARGE,
            wall_ms: comp.wall_ms,
            rows: world.table.len() * comp.rows.len(),
        });
        comp
    });

    LargeBench {
        size: world.table.len(),
        cores: effective_cores(),
        stages,
        speedup_harvest_parallel_vs_single: if par_wall > 0.0 {
            single_wall / par_wall
        } else {
            0.0
        },
        composition,
    }
}

/// The worker width a block's numbers were taken at: the pool's width,
/// which honors `RAYON_NUM_THREADS`, capped at the host's available
/// parallelism. A pool wider than the host (four workers on two cores)
/// cannot run four at once, and the >=4-core harvest-speedup gate keys
/// off this value, so it must not count the extra workers as cores.
fn effective_cores() -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::current_num_threads().min(host)
}

/// Peak resident set size of this process in MiB, read from
/// `/proc/self/status` (`VmHWM`). `0.0` where `/proc` is unavailable —
/// the compare gate treats a zero ceiling measurement as "not taken"
/// rather than as a regression.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Content digest of a partition's per-row class assignment.
fn digest_partition(partition: &Partition) -> u64 {
    let mut d = Digest::new();
    for class in partition.class_of_rows() {
        d.u64(class as u64);
    }
    d.finish()
}

/// Content digest of an intersection result: candidates, feasible boxes
/// and centroid hints, folded through each target's canonical `Debug`
/// form (floats render shortest-round-trip, so equal digests mean
/// bit-equal results).
fn digest_intersections(targets: &[TargetIntersection]) -> u64 {
    let mut d = Digest::new();
    for t in targets {
        d.str(&format!("{t:?}"));
    }
    d.finish()
}

/// Seeded index sample without replacement (SplitMix64-driven partial
/// Fisher-Yates), returned ascending.
fn sample_indices(n: usize, take: usize, seed: u64) -> Vec<usize> {
    let take = take.min(n);
    let mut rows: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in 0..take {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let j = i + (z as usize) % (n - i);
        rows.swap(i, j);
    }
    rows.truncate(take);
    rows.sort_unstable();
    rows
}

/// XOR salt decorrelating the block's seeded sample from every other
/// seeded stream in the pipeline.
const EQUIVALENCE_SAMPLE_SALT: u64 = 0x5A3D;

/// Times the pipeline at `--size` scale — the `large_100k` block. Peak
/// memory stays flat in the row count: the harvest's top-k search reads
/// a bounded prefix of each query's postings, MDAV recurses into bounded
/// leaves, and the intersection indexes each source in O(n) and probes
/// one class per target. Every optimized path is pinned against its
/// reference in-process on a seeded [`EQUIVALENCE_SAMPLE_ROWS`]
/// subsample — the references are costly (an uncached full comparison
/// per harvest hit, per-class farthest scans over one flat pool, a scan
/// of every master row per target), so running them at 100k would
/// defeat the very claim this block gates.
fn large_100k_bench(config: &WorldConfig, size: usize) -> Large100kBench {
    let mut stages = Vec::new();
    let world_config = WorldConfig {
        size,
        ..config.clone()
    };
    let (world, wall) = time_ms(|| faculty_world(&world_config));
    let n = world.table.len();
    stages.push(StageTiming {
        name: sn::WORLD_BUILD_100K,
        wall_ms: wall,
        rows: n,
    });

    let plan = ShardPlan::for_size(n, config.seed);
    let stage_k = STAGE_K.min(n);
    let hier = HierarchicalMdav::new(plan);

    let (partition, wall) = time_ms(|| {
        hier.partition(&world.table, stage_k)
            .expect("the 100k world partitions cleanly")
    });
    stages.push(StageTiming {
        name: sn::MDAV_HIER_100K,
        wall_ms: wall,
        rows: n,
    });

    let release = build_release(&world.table, &partition, stage_k, QiStyle::Range)
        .expect("release builds from a valid partition");
    let harvest_config = HarvestConfig::default();
    let (harvest, wall) = time_ms(|| {
        harvest_auxiliary(&release.table, &world.web, &harvest_config)
            .expect("harvest over a generated corpus cannot fail")
    });
    stages.push(StageTiming {
        name: sn::HARVEST_100K,
        wall_ms: wall,
        rows: n,
    });

    // The intersection of every core target of a full-size scenario
    // (per-source hierarchical MDAV keeps the scenario build per-leaf
    // too).
    let scenario_config = ScenarioConfig {
        releases: 2,
        k: stage_k,
        seed: config.seed,
        ..ScenarioConfig::default()
    };
    let scenario = generate_scenario(&world.table, &hier, &scenario_config)
        .expect("the 100k world holds a k-anonymizable core");
    let (intersections, wall) = time_ms(|| {
        intersect_releases(&scenario.sources, &scenario.targets, n, STREAM_CHUNK_ROWS)
            .expect("intersection over a generated scenario cannot fail")
    });
    assert_eq!(intersections.len(), scenario.targets.len());
    stages.push(StageTiming {
        name: sn::INTERSECT_100K,
        wall_ms: wall,
        rows: scenario.targets.len(),
    });

    // The equivalence pass: optimized-vs-reference digest pairs on a
    // seeded subsample, asserted equal in-process and re-gated against
    // the committed baseline by `compare.rs`.
    let sample = sample_indices(
        n,
        EQUIVALENCE_SAMPLE_ROWS,
        config.seed ^ EQUIVALENCE_SAMPLE_SALT,
    );
    let sub_table = Table::with_rows(
        world.table.schema().clone(),
        sample
            .iter()
            .map(|&r| world.table.rows()[r].clone())
            .collect(),
    )
    .expect("subsampled rows satisfy the schema they came from");
    let (digests, wall) = time_ms(|| {
        let (harvest_rows, harvest_ref) = harvest_auxiliary_reference_sampled(
            &release.table,
            &world.web,
            &harvest_config,
            EQUIVALENCE_SAMPLE_ROWS,
            config.seed ^ EQUIVALENCE_SAMPLE_SALT,
        )
        .expect("harvest over a generated corpus cannot fail");
        let harvest_engine = digest_harvest_rows(&harvest, harvest_rows.iter().copied());
        let harvest_reference = digest_harvest_rows(&harvest_ref, 0..harvest_rows.len());
        let mdav = Mdav::new();
        let optimized = mdav
            .partition_hierarchical(&sub_table, stage_k, &plan)
            .expect("subsample partitions cleanly");
        let reference = mdav
            .partition_hierarchical_reference(&sub_table, stage_k, &plan)
            .expect("subsample partitions cleanly");
        let sub_scenario = generate_scenario(&sub_table, &hier, &scenario_config)
            .expect("subsample holds a k-anonymizable core");
        let engine = intersect_releases(
            &sub_scenario.sources,
            &sub_scenario.targets,
            sub_table.len(),
            STREAM_CHUNK_ROWS,
        )
        .expect("intersection over a generated scenario cannot fail");
        let oracle = intersect_releases_sequential(
            &sub_scenario.sources,
            &sub_scenario.targets,
            sub_table.len(),
            STREAM_CHUNK_ROWS,
        )
        .expect("intersection over a generated scenario cannot fail");
        assert_eq!(
            engine, oracle,
            "the intersection engine must be bit-identical to the row-scan oracle"
        );
        (
            harvest_engine,
            harvest_reference,
            digest_partition(&optimized),
            digest_partition(&reference),
            digest_intersections(&engine),
            digest_intersections(&oracle),
        )
    });
    let (harvest_engine, harvest_ref, mdav_opt, mdav_ref, int_engine, int_oracle) = digests;
    assert_eq!(
        harvest_engine, harvest_ref,
        "the harvest must match its exhaustive reference on the sampled rows"
    );
    assert_eq!(
        mdav_opt, mdav_ref,
        "hierarchical MDAV must match its per-leaf reference on the subsample"
    );
    stages.push(StageTiming {
        name: sn::EQUIVALENCE_100K,
        wall_ms: wall,
        rows: sub_table.len(),
    });

    Large100kBench {
        size: n,
        shards: plan.shards(),
        cores: effective_cores(),
        sample_rows: sub_table.len(),
        peak_rss_mb: peak_rss_mb(),
        stages,
        harvest_digest_engine: harvest_engine,
        harvest_digest_reference: harvest_ref,
        mdav_digest_optimized: mdav_opt,
        mdav_digest_reference: mdav_ref,
        intersect_digest_engine: int_engine,
        intersect_digest_oracle: int_oracle,
    }
}

fn run_naive(
    fusion: &FuzzyFusion,
    releases: &[Release],
    harvest: &Harvest,
    repeats: usize,
) -> Vec<u64> {
    let mut bits = Vec::new();
    for rep in 0..repeats {
        for release in releases {
            let est = fusion
                .estimate_interpreted(&release.table, &harvest.records)
                .expect("estimate succeeds");
            if rep == 0 {
                bits.extend(est.iter().map(|e| e.to_bits()));
            }
        }
    }
    bits
}

fn run_batch(
    fusion: &FuzzyFusion,
    releases: &[Release],
    harvest: &Harvest,
    repeats: usize,
) -> Vec<u64> {
    let mut bits = Vec::new();
    for rep in 0..repeats {
        for release in releases {
            let est = fusion
                .estimate(&release.table, &harvest.records)
                .expect("estimate succeeds");
            if rep == 0 {
                bits.extend(est.iter().map(|e| e.to_bits()));
            }
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_serializes() {
        let bench = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions::default(),
        );
        assert_eq!(bench.k_range, (2, 4));
        assert_eq!(bench.stages.len(), 7);
        assert!(bench.large.is_none());
        assert!(bench.composition.is_none());
        assert!(bench.cores >= 1);
        let json = bench.to_json();
        assert!(json.contains("\"mdav_k5\""));
        assert!(json.contains("\"cores\""));
        assert!(json.contains("\"estimate_batch_parallel\""));
        assert!(json.contains("\"speedup_batch_vs_naive\""));
        assert!(json.contains("\"deterministic\": false"));
        assert!(!json.contains("\"large\""));
        assert!(!json.contains("\"composition\""));
        // No faults, no checkpoint store: the recovery ledger stays off.
        assert!(bench.recovery.is_none());
        assert!(!json.contains("\"recovery\""));
        assert!(json.trim_end().ends_with('}'));
        let ascii = bench.to_ascii();
        assert!(ascii.contains("rows/sec"));
    }

    #[test]
    fn quick_bench_large_stage_runs_and_serializes() {
        // A "large" world of 80 rows keeps the test fast while driving the
        // exact code path `--size 10_000` exercises.
        let bench = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions {
                large_size: Some(80),
                ..QuickBenchOptions::default()
            },
        );
        let large = bench.large.as_ref().expect("large stage requested");
        assert_eq!(large.size, 80);
        assert!(large.cores >= 1);
        let names: Vec<&str> = large.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "world_build_large",
                "mdav_k5_large",
                "release_stream_large",
                "harvest_parallel_large",
                "harvest_single_thread_large",
                "harvest_sequential_large",
                "estimate_stream_large",
            ]
        );
        assert!(large.speedup_harvest_parallel_vs_single > 0.0);
        // Without --compose the large block carries no composition stage.
        assert!(large.composition.is_none());
        let json = bench.to_json();
        assert!(json.contains("\"large\""));
        assert!(json.contains("\"mdav_k5_large\""));
        assert!(json.contains("\"estimate_stream_large\""));
        assert!(json.contains("\"speedup_harvest_parallel_vs_single\""));
        assert!(json.contains("\"harvest_single_thread_large\""));
        assert!(!json.contains("\"composition_large\""));
        // The large block records its own cores line next to its size.
        assert!(json.contains(&format!(
            "    \"size\": {},\n    \"cores\": {},\n",
            large.size, large.cores
        )));
        let ascii = bench.to_ascii();
        assert!(ascii.contains("large world"));
    }

    #[test]
    fn quick_bench_composition_stage_runs_and_serializes() {
        let bench = quick_bench(
            &WorldConfig {
                size: 40,
                ..WorldConfig::default()
            },
            2,
            4,
            1,
            &QuickBenchOptions {
                compose: true,
                ..QuickBenchOptions::default()
            },
        );
        let comp = bench.composition.as_ref().expect("composition requested");
        assert_eq!(comp.k, STAGE_K);
        let releases: Vec<usize> = comp.rows.iter().map(|r| r.releases).collect();
        assert_eq!(releases, vec![1, 2, 3]);
        assert_eq!(comp.rows[0].disclosure_gain, 0.0);
        // The gate property: strictly increasing per-record gain.
        for pair in comp.rows.windows(2) {
            assert!(
                pair[1].disclosure_gain > pair[0].disclosure_gain,
                "gain not strictly increasing: {:?}",
                comp.rows
            );
        }
        assert!(bench.stages.iter().any(|s| s.name == "composition_sweep"));
        let json = bench.to_json();
        assert!(json.contains("\"composition\""));
        assert!(json.contains("\"disclosure_gain\""));
        assert!(json.trim_end().ends_with('}'));
        let ascii = bench.to_ascii();
        assert!(ascii.contains("disclosure gain"));
        // JSON stays well-formed with both optional blocks present, and
        // --compose + large world yields the composition_large stage.
        let both = quick_bench(
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
        );
        let json = both.to_json();
        assert!(json.contains("\"large\"") && json.contains("\"composition\""));
        assert!(json.contains("\"composition_large\""));
        assert!(json.trim_end().ends_with('}'));
        let large = both.large.as_ref().expect("large stage requested");
        let comp_large = large.composition.as_ref().expect("composition at scale");
        assert_eq!(comp_large.rows[0].disclosure_gain, 0.0);
        for pair in comp_large.rows.windows(2) {
            assert!(
                pair[1].disclosure_gain > pair[0].disclosure_gain,
                "large-world gain not strictly increasing: {:?}",
                comp_large.rows
            );
        }
        assert!(large
            .stages
            .iter()
            .any(|s| s.name == "composition_large" && s.rows == 40 * comp_large.rows.len()));
        assert!(both.to_ascii().contains("composition (large world)"));
    }

    #[test]
    fn quick_bench_defense_stage_runs_and_serializes() {
        let bench = quick_bench(
            &WorldConfig {
                size: 40,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                compose: true,
                defend: Some(DefensePolicy::default_set(STAGE_K)),
                ..QuickBenchOptions::default()
            },
        );
        let defense = bench
            .composition_defense
            .as_ref()
            .expect("defense stage requested");
        assert_eq!(defense.k, STAGE_K);
        // 3 policies x R = 1..=3.
        assert_eq!(defense.rows.len(), 9);
        let policies: std::collections::BTreeSet<&str> =
            defense.rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(policies.len(), 3);
        assert!(policies.contains("coordinated_seeds"));
        let coordinated: Vec<_> = defense
            .rows
            .iter()
            .filter(|r| r.policy == "coordinated_seeds")
            .collect();
        for row in &defense.rows {
            if row.releases == 1 {
                // No composition yet: the residual is exactly the
                // (negated) price of the wider publish.
                assert_eq!(row.residual_gain, -row.utility_cost, "{row:?}");
            }
            if row.policy == "coordinated_seeds" {
                // Identical core classes in every release: composition
                // adds nothing, the residual stays flat in R.
                assert_eq!(row.residual_gain, coordinated[0].residual_gain, "{row:?}");
            }
            if row.policy.starts_with("calibrated_widen") {
                assert!(row.mean_candidates >= STAGE_K as f64, "{row:?}");
            }
        }
        assert!(bench.stages.iter().any(|s| s.name == "composition_defense"));
        let json = bench.to_json();
        assert!(json.contains("\"composition_defense\""));
        assert!(json.contains("\"residual_gain\""));
        assert!(json.contains("\"utility_cost\""));
        assert!(json.trim_end().ends_with('}'));
        assert!(bench.to_ascii().contains("defenses"));
        // Without --compose the defend request is ignored.
        let without = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                defend: Some(DefensePolicy::default_set(STAGE_K)),
                ..QuickBenchOptions::default()
            },
        );
        assert!(without.composition_defense.is_none());
        assert!(!without.to_json().contains("composition_defense"));
    }

    #[test]
    fn quick_bench_robustness_stage_runs_and_serializes() {
        let bench = quick_bench(
            &WorldConfig {
                size: 40,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                faults: Some(0.1),
                ..QuickBenchOptions::default()
            },
        );
        let rob = bench.robustness.as_ref().expect("robustness requested");
        assert_eq!(rob.max_rate, 0.1);
        let rates: Vec<f64> = rob.rows.iter().map(|r| r.fault_rate).collect();
        // Uniform rows at 0, rate/2, rate — then the targeted worst-case
        // row at the same top budget.
        assert_eq!(rates, vec![0.0, 0.05, 0.1, 0.1]);
        let modes: Vec<&str> = rob.rows.iter().map(|r| r.mode).collect();
        assert_eq!(modes, vec!["uniform", "uniform", "uniform", "targeted"]);
        // The zero-rate row is the strict pipeline in disguise: the
        // in-process bit-identity asserts ran, and no defects survived.
        let zero = &rob.rows[0];
        assert_eq!(
            zero.pages_rejected + zero.rows_skipped + zero.fields_imputed + zero.workers_restarted,
            0,
            "{zero:?}"
        );
        // The top uniform rate actually registered damage somewhere.
        let top = &rob.rows[2];
        assert!(
            top.pages_rejected + top.rows_skipped + top.fields_imputed + top.workers_restarted > 0,
            "10% corruption left no trace: {top:?}"
        );
        // The targeted plan hits exactly its victims: release rows
        // dropped, and no more signal than the strict run had.
        let targeted = rob.rows.last().expect("targeted row appended");
        assert!(
            targeted.rows_skipped > 0,
            "targeted corruption dropped no rows: {targeted:?}"
        );
        assert!(
            targeted.composition_gain <= zero.composition_gain,
            "corrupting the top-gain records cannot increase the gain: {targeted:?}"
        );
        assert!(bench.stages.iter().any(|s| s.name == "robustness_sweep"));
        // Faults enabled => the recovery ledger is emitted, with one row
        // per runner stage and no escaped panics.
        let rec = bench.recovery.as_ref().expect("recovery ledger emitted");
        assert_eq!(rec.escaped_panics, 0);
        assert_eq!(rec.transient_rate, 0.1);
        assert!(rec.rows.iter().any(|r| r.stage == "robustness"));
        assert!(!rec.resumed);
        let json = bench.to_json();
        assert!(json.contains("\"robustness\""));
        assert!(json.contains("\"fault_rate\""));
        assert!(json.contains("\"mode\": \"targeted\""));
        assert!(json.contains("\"composition_gain\""));
        assert!(json.contains("\"recovery\""));
        assert!(json.contains("\"transient_rate\""));
        assert!(json.trim_end().ends_with('}'));
        assert!(bench.to_ascii().contains("robustness"));
        assert!(bench.to_ascii().contains("recovery"));
        // A zero --faults rate degenerates to the passthrough row alone.
        let passthrough = quick_bench(
            &WorldConfig {
                size: 40,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                faults: Some(0.0),
                ..QuickBenchOptions::default()
            },
        );
        let rob = passthrough
            .robustness
            .as_ref()
            .expect("robustness requested");
        assert_eq!(rob.rows.len(), 1);
        assert_eq!(rob.rows[0].fault_rate, 0.0);
    }

    #[test]
    fn quick_bench_sharded_stage_runs_and_serializes() {
        // A "100k" world of 80 rows keeps the test fast while driving the
        // exact code path `--size 100000` exercises; below the per-leaf
        // floor the plan degenerates to one hierarchical-MDAV leaf, and
        // the equivalence sample covers every row.
        let bench = quick_bench(
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
        );
        let big = bench.large_100k.as_ref().expect("100k stage requested");
        assert_eq!(big.size, 80);
        assert_eq!(big.shards, 1, "80 rows sit below the 12.5k leaf floor");
        assert!(big.cores >= 1);
        let names: Vec<&str> = big.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "world_build_100k",
                "mdav_hier_100k",
                "harvest_100k",
                "intersect_100k",
                "equivalence_100k",
            ]
        );
        // The in-process equivalence asserts passed, and the recorded
        // digest pairs agree — the same predicate compare.rs re-gates.
        assert_eq!(big.harvest_digest_engine, big.harvest_digest_reference);
        assert_eq!(big.mdav_digest_optimized, big.mdav_digest_reference);
        assert_eq!(big.intersect_digest_engine, big.intersect_digest_oracle);
        assert_eq!(big.sample_rows, 80.min(EQUIVALENCE_SAMPLE_ROWS));
        let json = bench.to_json();
        assert!(json.contains("\"large_100k\""));
        assert!(json.contains("\"mdav_hier_100k\""));
        assert!(json.contains("\"intersect_100k\""));
        assert!(json.contains("\"harvest_engine\""));
        assert!(json.trim_end().ends_with('}'));
        let ascii = bench.to_ascii();
        assert!(ascii.contains("100k world"));
        assert!(ascii.contains("digest-pinned"));
    }

    #[test]
    fn sampled_reference_stage_records_sample_rows() {
        // 30-row large world: the sample covers every row, so the stage
        // is the full reference in miniature; the stage's `rows` records
        // the sample size either way.
        let bench = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                large_size: Some(30),
                ..QuickBenchOptions::default()
            },
        );
        let large = bench.large.as_ref().expect("large stage requested");
        let stage = large
            .stages
            .iter()
            .find(|s| s.name == "harvest_sequential_large")
            .expect("reference stage present");
        assert_eq!(stage.rows, 30.min(REFERENCE_SAMPLE_ROWS));
        // The exhaustive variant keeps the sampled stage and adds the
        // full-table reference as its own stage.
        let exhaustive = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                large_size: Some(30),
                exhaustive: true,
                ..QuickBenchOptions::default()
            },
        );
        let large = exhaustive.large.as_ref().expect("large stage requested");
        let stage = large
            .stages
            .iter()
            .find(|s| s.name == "harvest_sequential_large")
            .expect("sampled reference stage always present");
        assert_eq!(stage.rows, 30.min(REFERENCE_SAMPLE_ROWS));
        let full = large
            .stages
            .iter()
            .find(|s| s.name == "harvest_exhaustive_large")
            .expect("exhaustive stage added on top");
        assert_eq!(full.rows, 30);
        // The default mode never records the exhaustive stage.
        assert!(!bench
            .large
            .as_ref()
            .unwrap()
            .stages
            .iter()
            .any(|s| s.name == "harvest_exhaustive_large"));
    }

    #[test]
    fn infeasible_large_world_skips_composition_stage() {
        // 8 rows at overlap 0.5 leaves a 4-row core — below STAGE_K, so
        // the composition stage must be skipped, not panic.
        let bench = quick_bench(
            &WorldConfig {
                size: 30,
                ..WorldConfig::default()
            },
            2,
            3,
            1,
            &QuickBenchOptions {
                large_size: Some(8),
                compose: true,
                ..QuickBenchOptions::default()
            },
        );
        let large = bench.large.as_ref().expect("large stage requested");
        assert!(large.composition.is_none());
        assert!(!large.stages.iter().any(|s| s.name == "composition_large"));
    }

    #[test]
    fn a_checkpoint_under_another_payload_schema_is_stale_and_recomputed() {
        let dir = std::env::temp_dir().join(format!("fred_schema_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WorldConfig {
            size: 30,
            ..WorldConfig::default()
        };
        let opts = |resume| QuickBenchOptions {
            checkpoint_dir: Some(dir.clone()),
            resume,
            ..QuickBenchOptions::default()
        };
        let fingerprint = |schema| config_fingerprint(schema, &config, 2, 4, 1, &opts(false));
        let (current, older) = (fingerprint(PAYLOAD_SCHEMA), fingerprint(PAYLOAD_SCHEMA + 1));
        assert_ne!(current, older, "the payload schema feeds the fingerprint");
        // An older build's store: the same payload, stamped with the
        // fingerprint its encoding produced.
        let sweep_ckpt = dir.join("sweep.ckpt.json");
        let stamp_older = || {
            let stamp = |fp: u64| format!("\"fingerprint\": \"{fp:016x}\"");
            let text = std::fs::read_to_string(&sweep_ckpt).expect("sweep checkpoint");
            assert!(text.contains(&stamp(current)), "{text}");
            std::fs::write(&sweep_ckpt, text.replace(&stamp(current), &stamp(older)))
                .expect("restamp checkpoint");
        };

        let reference = quick_bench(&config, 2, 4, 1, &opts(false)).to_json();
        stamp_older();
        let resumed = quick_bench(&config, 2, 4, 1, &opts(true));
        assert_eq!(resumed.to_json(), reference);
        let rec = resumed
            .recovery
            .expect("a checkpointed run keeps the ledger");
        assert_eq!(rec.quarantined_total, 1);
        assert!(dir.join("quarantine").join("sweep.0.json").exists());

        // The reason, at the runner: a stale fingerprint, recomputed.
        stamp_older();
        let mut runner = StageRunner::new(FaultPlan::none(), RetryPolicy::default(), current)
            .with_store(dir.clone(), true);
        let fresh = SweepArtifact {
            wall_ms: 0.0,
            rows: 7,
        };
        assert_eq!(runner.run(rstage::SWEEP, || fresh.clone()), fresh);
        assert_eq!(runner.quarantined_files()[0].1, "stale fingerprint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
