//! The `BENCH_sweep.json` schema: one [`Artifact`] impl per bench block,
//! shared by the writer ([`QuickBench::to_json`]), the checkpoints (a
//! block's checkpoint payload is the block's value in the file) and the
//! gate ([`crate::compare::parse_baseline`]).
//!
//! The keys below are the schema; each is spelled once, for both
//! directions. Each float is rounded inside `to_value` to the decimals
//! the file prints ([`json::round_to`]), so a cross-run pin compares
//! exactly what a reader of the file sees, and a decoded block re-encodes
//! to the value it was decoded from. 64-bit digests travel as
//! 16-hex-digit strings; every integer, seeds included, must be a whole
//! number below [`json::MAX_EXACT_INT`]. Decoding is strict: a missing
//! key, a wrong type, an unknown stage name or an unknown robustness mode
//! rejects the block. Non-finite floats decode (checkpoints need them);
//! rejecting them is the gate's call.

use fred_recover::json::{self, Value};
use fred_recover::Artifact;

use crate::perf::{
    CompositionBench, CompositionBenchRow, DefenseBench, DefenseBenchRow, EvalBench, EvalCellRow,
    Large100kBench, LargeBench, ProfileBench, ProfileHistRow, ProfileStageRow, QuickBench,
    RecoveryBench, RecoveryBenchRow, RobustnessBench, RobustnessBenchRow, StageTiming,
};

/// Version of the payload encoding: the keys and field kinds below and
/// in the `StageAnchor` codec (`ckpt.rs`). It is hashed into every
/// checkpoint's config fingerprint, so a store written under another
/// encoding reads as stale and is recomputed instead of decoded. Bump it
/// whenever a key, a field's kind or a block's shape changes.
pub const PAYLOAD_SCHEMA: u64 = 1;

/// An object from `(key, value)` entries, in order.
pub(crate) fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

/// Field encoders, one per kind of field. `fixed` rounds to the given
/// decimals; `exact` keeps full precision (checkpoint-only artifacts).
pub(crate) mod enc {
    use super::{Artifact, Value};

    pub(crate) fn count(n: &usize) -> Value {
        Value::Num(*n as f64)
    }

    pub(crate) fn uint(n: &u64) -> Value {
        debug_assert!(*n < fred_recover::json::MAX_EXACT_INT, "{n} is not exact");
        Value::Num(*n as f64)
    }

    pub(crate) fn fixed(x: &f64, places: usize) -> Value {
        Value::Num(fred_recover::json::round_to(*x, places))
    }

    pub(crate) fn exact(x: &f64) -> Value {
        Value::Num(*x)
    }

    pub(crate) fn flag(b: &bool) -> Value {
        Value::Bool(*b)
    }

    pub(crate) fn text(s: &str) -> Value {
        Value::Str(s.to_owned())
    }

    /// A robustness-row mode label.
    pub(crate) fn mode(m: &&'static str) -> Value {
        text(m)
    }

    /// A 64-bit digest as 16 hex digits.
    pub(crate) fn hex(digest: &u64) -> Value {
        Value::Str(format!("{digest:016x}"))
    }

    pub(crate) fn list<T: Artifact>(items: &[T]) -> Value {
        Value::Arr(items.iter().map(Artifact::to_value).collect())
    }

    pub(crate) fn uints(items: &[u64]) -> Value {
        Value::Arr(items.iter().map(uint).collect())
    }
}

/// Field decoders, mirroring [`enc`]: each rejects a wrong type.
pub(crate) mod dec {
    use super::{Artifact, Value};

    pub(crate) fn count(v: &Value) -> Option<usize> {
        v.as_usize()
    }

    pub(crate) fn uint(v: &Value) -> Option<u64> {
        v.as_u64()
    }

    pub(crate) fn fixed(v: &Value) -> Option<f64> {
        v.as_f64()
    }

    pub(crate) fn exact(v: &Value) -> Option<f64> {
        v.as_f64()
    }

    pub(crate) fn flag(v: &Value) -> Option<bool> {
        v.as_bool()
    }

    pub(crate) fn text(v: &Value) -> Option<String> {
        v.as_str().map(str::to_owned)
    }

    /// Interns a robustness-row mode label; `None` for unknown modes.
    pub(crate) fn mode(v: &Value) -> Option<&'static str> {
        ["uniform", "targeted"]
            .into_iter()
            .find(|&m| Some(m) == v.as_str())
    }

    pub(crate) fn hex(v: &Value) -> Option<u64> {
        u64::from_str_radix(v.as_str()?, 16).ok()
    }

    pub(crate) fn list<T: Artifact>(v: &Value) -> Option<Vec<T>> {
        v.as_arr()?.iter().map(T::from_value).collect()
    }

    pub(crate) fn uints(v: &Value) -> Option<Vec<u64>> {
        v.as_arr()?.iter().map(Value::as_u64).collect()
    }

    /// An optional block: absent decodes to `Some(None)`, present but
    /// malformed to `None`.
    pub(crate) fn opt<T: Artifact>(v: Option<&Value>) -> Option<Option<T>> {
        v.map_or(Some(None), |v| T::from_value(v).map(Some))
    }
}

/// Implements [`Artifact`] for a struct whose every field travels as one
/// key: `field: "key" as kind` (or `as fixed(places)`), with `kind` one
/// of the [`enc`] / [`dec`] pairs.
macro_rules! schema {
    ($ty:ident { $($field:ident: $key:literal as $kind:ident $(($places:literal))?),* $(,)? }) => {
        impl Artifact for $ty {
            fn to_value(&self) -> Value {
                obj([$(($key, enc::$kind(&self.$field $(, $places)?))),*])
            }

            fn from_value(value: &Value) -> Option<$ty> {
                Some($ty { $($field: dec::$kind(value.get($key)?)?),* })
            }
        }
    };
}
pub(crate) use schema;

/// Interns a stage name into the `&'static str` [`StageTiming`] roster.
/// `None` for names this build does not know: a checkpoint naming one is
/// corrupt or stale.
pub(crate) fn intern_stage_name(name: &str) -> Option<&'static str> {
    crate::stages::TIMING_ROSTER
        .iter()
        .find(|&&n| n == name)
        .copied()
}

impl Artifact for StageTiming {
    fn to_value(&self) -> Value {
        // `rows_per_sec` is derived from the rounded wall, so a decoded
        // row re-renders identically; readers ignore it.
        let wall_ms = json::round_to(self.wall_ms, 3);
        let rounded = StageTiming { wall_ms, ..*self };
        obj([
            ("name", enc::text(self.name)),
            ("wall_ms", enc::exact(&wall_ms)),
            ("rows", enc::count(&self.rows)),
            ("rows_per_sec", enc::fixed(&rounded.rows_per_sec(), 1)),
        ])
    }

    fn from_value(value: &Value) -> Option<StageTiming> {
        Some(StageTiming {
            name: intern_stage_name(value.get("name")?.as_str()?)?,
            wall_ms: dec::fixed(value.get("wall_ms")?)?,
            rows: dec::count(value.get("rows")?)?,
        })
    }
}

schema!(CompositionBenchRow {
    releases: "releases" as count,
    disclosure_gain: "disclosure_gain" as fixed(1),
    mean_candidates: "mean_candidates" as fixed(2),
    estimate_gain: "estimate_gain" as fixed(1),
});

schema!(CompositionBench {
    k: "k" as count,
    overlap: "overlap" as fixed(2),
    wall_ms: "wall_ms" as fixed(3),
    rows: "rows" as list,
});

schema!(DefenseBenchRow {
    policy: "policy" as text,
    releases: "releases" as count,
    residual_gain: "residual_gain" as fixed(1),
    undefended_gain: "undefended_gain" as fixed(1),
    mean_candidates: "mean_candidates" as fixed(2),
    utility_cost: "utility_cost" as fixed(1),
});

schema!(DefenseBench {
    k: "k" as count,
    overlap: "overlap" as fixed(2),
    wall_ms: "wall_ms" as fixed(3),
    rows: "rows" as list,
});

schema!(EvalCellRow {
    k: "k" as count,
    releases: "releases" as count,
    defense: "defense" as text,
    targets: "targets" as count,
    decoys: "decoys" as count,
    auc: "auc" as fixed(4),
    tpr_at_fpr3: "tpr_at_fpr3" as fixed(4),
    epsilon: "epsilon" as fixed(4),
});

schema!(EvalBench {
    wall_ms: "wall_ms" as fixed(3),
    rows: "rows" as list,
});

schema!(RobustnessBenchRow {
    fault_rate: "fault_rate" as fixed(3),
    mode: "mode" as mode,
    harvest_precision: "harvest_precision" as fixed(4),
    harvest_coverage: "harvest_coverage" as fixed(4),
    composition_gain: "composition_gain" as fixed(1),
    pages_rejected: "pages_rejected" as count,
    rows_skipped: "rows_skipped" as count,
    fields_imputed: "fields_imputed" as count,
    workers_restarted: "workers_restarted" as count,
});

schema!(RobustnessBench {
    max_rate: "max_rate" as fixed(3),
    seed: "seed" as uint,
    wall_ms: "wall_ms" as fixed(3),
    rows: "rows" as list,
});

impl Artifact for LargeBench {
    fn to_value(&self) -> Value {
        let speedup = enc::fixed(&self.speedup_harvest_parallel_vs_single, 2);
        let composition = self.composition.as_ref().map(Artifact::to_value);
        obj([
            ("size", enc::count(&self.size)),
            ("cores", enc::count(&self.cores)),
            ("stages", enc::list(&self.stages)),
            ("speedup_harvest_parallel_vs_single", speedup),
        ]
        .into_iter()
        .chain(composition.map(|c| ("composition_large", c))))
    }

    fn from_value(value: &Value) -> Option<LargeBench> {
        let get = |key| value.get(key);
        Some(LargeBench {
            size: dec::count(get("size")?)?,
            cores: dec::count(get("cores")?)?,
            stages: dec::list(get("stages")?)?,
            speedup_harvest_parallel_vs_single: dec::fixed(get(
                "speedup_harvest_parallel_vs_single",
            )?)?,
            composition: dec::opt(get("composition_large"))?,
        })
    }
}

impl Artifact for Large100kBench {
    fn to_value(&self) -> Value {
        let digests = self.digests().map(|(key, digest)| (key, enc::hex(&digest)));
        obj([
            ("size", enc::count(&self.size)),
            ("shards", enc::count(&self.shards)),
            ("cores", enc::count(&self.cores)),
            ("sample_rows", enc::count(&self.sample_rows)),
            ("peak_rss_mb", enc::fixed(&self.peak_rss_mb, 1)),
            ("stages", enc::list(&self.stages)),
            ("digests", obj(digests)),
        ])
    }

    fn from_value(value: &Value) -> Option<Large100kBench> {
        let get = |key| value.get(key);
        let digest = |key| dec::hex(get("digests")?.get(key)?);
        Some(Large100kBench {
            size: dec::count(get("size")?)?,
            shards: dec::count(get("shards")?)?,
            cores: dec::count(get("cores")?)?,
            sample_rows: dec::count(get("sample_rows")?)?,
            peak_rss_mb: dec::fixed(get("peak_rss_mb")?)?,
            stages: dec::list(get("stages")?)?,
            harvest_digest_engine: digest("harvest_engine")?,
            harvest_digest_reference: digest("harvest_reference")?,
            mdav_digest_optimized: digest("mdav_optimized")?,
            mdav_digest_reference: digest("mdav_reference")?,
            intersect_digest_engine: digest("intersect_engine")?,
            intersect_digest_oracle: digest("intersect_oracle")?,
        })
    }
}

schema!(RecoveryBenchRow {
    stage: "stage" as text,
    attempts: "attempts" as count,
    retries: "retries" as count,
    backoff_ms: "backoff_ms" as fixed(3),
});

impl Artifact for RecoveryBench {
    /// The runtime-only fields (`quarantined_total`, `resumed`) are not
    /// encoded: they reflect the store's history, not the configuration,
    /// and would break resume bit-identity. They decode as zero / false.
    fn to_value(&self) -> Value {
        obj([
            ("seed", enc::uint(&self.seed)),
            ("transient_rate", enc::fixed(&self.transient_rate, 3)),
            ("max_attempts", enc::count(&self.max_attempts)),
            ("retries_total", enc::count(&self.retries_total)),
            ("escaped_panics", enc::count(&self.escaped_panics)),
            ("rows", enc::list(&self.rows)),
        ])
    }

    fn from_value(value: &Value) -> Option<RecoveryBench> {
        let get = |key| value.get(key);
        Some(RecoveryBench {
            seed: dec::uint(get("seed")?)?,
            transient_rate: dec::fixed(get("transient_rate")?)?,
            max_attempts: dec::count(get("max_attempts")?)?,
            retries_total: dec::count(get("retries_total")?)?,
            quarantined_total: 0,
            escaped_panics: dec::count(get("escaped_panics")?)?,
            rows: dec::list(get("rows")?)?,
            resumed: false,
        })
    }
}

schema!(ProfileStageRow {
    stage: "stage" as text,
    self_ms: "self_ms" as fixed(3),
    spans: "spans" as count,
});

schema!(ProfileHistRow {
    name: "hist" as text,
    count: "count" as uint,
    sum_ms: "sum_ms" as fixed(3),
    buckets: "buckets" as uints,
});

impl Artifact for ProfileBench {
    fn to_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| obj([("counter", enc::text(name)), ("value", enc::uint(value))]));
        let overhead = obj([
            ("probe_calls", enc::uint(&self.overhead_probe_calls)),
            ("wall_ms", enc::fixed(&self.overhead_wall_ms, 3)),
            ("pct_of_large", enc::fixed(&self.overhead_pct_of_large, 3)),
        ]);
        obj([
            ("deterministic", enc::flag(&self.deterministic)),
            ("spans_total", enc::uint(&self.spans_total)),
            ("events_total", enc::uint(&self.events_total)),
            ("span_tree_digest", enc::text(&self.span_tree_digest)),
            ("overhead", overhead),
            ("stages", enc::list(&self.stages)),
            ("counters", Value::Arr(counters.collect())),
            ("hists", enc::list(&self.hists)),
        ])
    }

    fn from_value(value: &Value) -> Option<ProfileBench> {
        let get = |key| value.get(key);
        let overhead = |key| get("overhead")?.get(key);
        let counter =
            |c: &Value| Some((dec::text(c.get("counter")?)?, dec::uint(c.get("value")?)?));
        Some(ProfileBench {
            deterministic: dec::flag(get("deterministic")?)?,
            spans_total: dec::uint(get("spans_total")?)?,
            events_total: dec::uint(get("events_total")?)?,
            span_tree_digest: dec::text(get("span_tree_digest")?)?,
            overhead_probe_calls: dec::uint(overhead("probe_calls")?)?,
            overhead_wall_ms: dec::fixed(overhead("wall_ms")?)?,
            overhead_pct_of_large: dec::fixed(overhead("pct_of_large")?)?,
            stages: dec::list(get("stages")?)?,
            counters: get("counters")?
                .as_arr()?
                .iter()
                .map(counter)
                .collect::<Option<_>>()?,
            hists: dec::list(get("hists")?)?,
        })
    }
}

impl Artifact for QuickBench {
    /// The whole file. The drained trace is never encoded (`repro
    /// --trace` writes it separately) and decodes as `None`.
    fn to_value(&self) -> Value {
        let config = obj([
            ("size", enc::count(&self.size)),
            ("seed", enc::uint(&self.seed)),
            ("k_min", enc::count(&self.k_range.0)),
            ("k_max", enc::count(&self.k_range.1)),
            ("cores", enc::count(&self.cores)),
            ("deterministic", enc::flag(&self.deterministic)),
        ]);
        let blocks = [
            ("large", self.large.as_ref().map(Artifact::to_value)),
            (
                "large_100k",
                self.large_100k.as_ref().map(Artifact::to_value),
            ),
            (
                "composition",
                self.composition.as_ref().map(Artifact::to_value),
            ),
            (
                "composition_defense",
                self.composition_defense.as_ref().map(Artifact::to_value),
            ),
            ("eval", self.eval.as_ref().map(Artifact::to_value)),
            (
                "robustness",
                self.robustness.as_ref().map(Artifact::to_value),
            ),
            ("recovery", self.recovery.as_ref().map(Artifact::to_value)),
            ("profile", self.profile.as_ref().map(Artifact::to_value)),
        ];
        let speedup = enc::fixed(&self.speedup_batch_vs_naive, 2);
        obj([
            ("config", config),
            ("stages", enc::list(&self.stages)),
            ("speedup_batch_vs_naive", speedup),
        ]
        .into_iter()
        .chain(
            blocks
                .into_iter()
                .filter_map(|(key, block)| Some((key, block?))),
        ))
    }

    fn from_value(value: &Value) -> Option<QuickBench> {
        let get = |key| value.get(key);
        let config = |key| get("config")?.get(key);
        Some(QuickBench {
            size: dec::count(config("size")?)?,
            seed: dec::uint(config("seed")?)?,
            cores: dec::count(config("cores")?)?,
            k_range: (dec::count(config("k_min")?)?, dec::count(config("k_max")?)?),
            deterministic: dec::flag(config("deterministic")?)?,
            stages: dec::list(get("stages")?)?,
            speedup_batch_vs_naive: dec::fixed(get("speedup_batch_vs_naive")?)?,
            large: dec::opt(get("large"))?,
            large_100k: dec::opt(get("large_100k"))?,
            composition: dec::opt(get("composition"))?,
            composition_defense: dec::opt(get("composition_defense"))?,
            eval: dec::opt(get("eval"))?,
            robustness: dec::opt(get("robustness"))?,
            recovery: dec::opt(get("recovery"))?,
            profile: dec::opt(get("profile"))?,
            trace: None,
        })
    }
}
