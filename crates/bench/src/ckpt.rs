//! Checkpoint artifacts for the quick-bench pipeline: how each stage's
//! result round-trips through `fred-recover`'s envelope protocol.
//!
//! Two artifact families exist. *Anchors* ([`StageAnchor`]) cover the
//! cheap upstream stages (world build, MDAV + anonymization, harvest)
//! that are always recomputed on resume: the anchor carries a content
//! digest of the recomputed state, so `StageRunner::run_verified` can
//! prove the checkpoint directory still belongs to this exact
//! configuration before any downstream checkpoint is trusted. *Block
//! artifacts* are the bench blocks themselves ([`super::perf`] structs),
//! which a resumed run loads instead of recomputing — the actual time
//! saved by resumption.
//!
//! Every float is rendered with `{:?}` (Rust's shortest round-trip
//! form), so a load-then-render at the bench's fixed precision is
//! bit-identical to an uninterrupted run; 64-bit digests are rendered as
//! hex strings because JSON numbers lose integer precision past 2^53.

use fred_recover::{json, Artifact};

use crate::perf::{
    CompositionBench, CompositionBenchRow, DefenseBench, DefenseBenchRow, EvalBench, EvalCellRow,
    Large100kBench, LargeBench, RobustnessBench, RobustnessBenchRow, ShardBenchRow, StageTiming,
};
use crate::world::World;
use fred_attack::Harvest;

/// Streaming FNV-1a 64 fold over heterogeneous fields — the content
/// digest primitive for anchors.
pub struct Digest(u64);

impl Digest {
    /// A fresh digest at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (length-prefixed fields stay unambiguous).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one string with a length prefix.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The folded hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content digest of a built world: identifier strings, ground-truth
/// sensitive bits and the rendered corpus. Any drift here (changed
/// generator, changed seed handling) invalidates every checkpoint.
pub fn digest_world(world: &World) -> u64 {
    let mut d = Digest::new();
    for s in world.table.identifier_strings() {
        d.str(&s);
    }
    for &v in &world.truth {
        d.u64(v.to_bits());
    }
    for page in world.web.pages() {
        d.u64(page.id as u64);
        d.u64(page.person_id.map_or(u64::MAX, |p| p as u64));
        d.str(&page.text);
    }
    d.finish()
}

/// Content digest of a harvest: per-row consolidated records and page
/// links (via their canonical `Debug` forms, which are deterministic).
pub fn digest_harvest(harvest: &Harvest) -> u64 {
    let mut d = Digest::new();
    for record in &harvest.records {
        d.str(&format!("{record:?}"));
    }
    for links in &harvest.linked {
        d.u64(links.len() as u64);
        for &p in links {
            d.u64(p as u64);
        }
    }
    d.u64(harvest.pages_inspected as u64);
    d.u64(harvest.pages_linked as u64);
    d.finish()
}

/// Digest of an estimate bit-vector (the naive/batch equality witness).
pub fn digest_bits(bits: &[u64]) -> u64 {
    let mut d = Digest::new();
    for &b in bits {
        d.u64(b);
    }
    d.finish()
}

/// Interns a parsed stage name back to the `&'static str` the
/// [`StageTiming`] roster uses. `None` for unknown names — a checkpoint
/// naming a stage this build does not know is corrupt or stale.
pub fn intern_stage_name(name: &str) -> Option<&'static str> {
    crate::stages::TIMING_ROSTER
        .iter()
        .find(|&&n| n == name)
        .copied()
}

/// Interns a robustness-row mode label.
fn intern_mode(mode: &str) -> Option<&'static str> {
    match mode {
        "uniform" => Some("uniform"),
        "targeted" => Some("targeted"),
        _ => None,
    }
}

/// The always-recomputed anchor artifact: a content digest of one cheap
/// upstream stage plus the [`StageTiming`] rows it contributes. Under a
/// checkpoint store timings are zeroed (deterministic mode), so two runs
/// of the same configuration produce `PartialEq`-identical anchors.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAnchor {
    /// Checkpoint stage name.
    pub label: String,
    /// Rows the stage processed.
    pub rows: usize,
    /// Content digest of the recomputed state.
    pub content_hash: u64,
    /// `(stage name, wall_ms, rows)` timing rows for the bench output.
    pub timings: Vec<(String, f64, usize)>,
}

impl Artifact for StageAnchor {
    fn to_payload(&self) -> String {
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(name, wall, rows)| {
                format!(
                    "{{\"name\": \"{}\", \"wall_ms\": {wall:?}, \"rows\": {rows}}}",
                    json::escape(name)
                )
            })
            .collect();
        format!(
            "{{\"label\": \"{}\", \"rows\": {}, \"content_hash\": \"{:016x}\", \"timings\": [{}]}}",
            json::escape(&self.label),
            self.rows,
            self.content_hash,
            timings.join(", ")
        )
    }

    fn from_payload(value: &json::Value) -> Option<StageAnchor> {
        let timings = value
            .get("timings")?
            .as_arr()?
            .iter()
            .map(|t| {
                Some((
                    t.get("name")?.as_str()?.to_string(),
                    t.get("wall_ms")?.as_f64()?,
                    t.get("rows")?.as_usize()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(StageAnchor {
            label: value.get("label")?.as_str()?.to_string(),
            rows: value.get("rows")?.as_usize()?,
            content_hash: u64::from_str_radix(value.get("content_hash")?.as_str()?, 16).ok()?,
            timings,
        })
    }
}

/// The estimate-comparison stage's artifact: both timings, the headline
/// speedup and a digest of the (bit-identical) estimate vector.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatesArtifact {
    /// Naive interpreted-path wall clock (ms; 0 in deterministic mode).
    pub naive_ms: f64,
    /// Batch/parallel-path wall clock (ms; 0 in deterministic mode).
    pub batch_ms: f64,
    /// Rows estimated per path.
    pub rows: usize,
    /// `naive_ms / batch_ms` (0 in deterministic mode).
    pub speedup: f64,
    /// Digest of the estimate bit-vector both paths produced.
    pub estimate_hash: u64,
}

impl Artifact for EstimatesArtifact {
    fn to_payload(&self) -> String {
        format!(
            "{{\"naive_ms\": {:?}, \"batch_ms\": {:?}, \"rows\": {}, \"speedup\": {:?}, \"estimate_hash\": \"{:016x}\"}}",
            self.naive_ms, self.batch_ms, self.rows, self.speedup, self.estimate_hash
        )
    }

    fn from_payload(value: &json::Value) -> Option<EstimatesArtifact> {
        Some(EstimatesArtifact {
            naive_ms: value.get("naive_ms")?.as_f64()?,
            batch_ms: value.get("batch_ms")?.as_f64()?,
            rows: value.get("rows")?.as_usize()?,
            speedup: value.get("speedup")?.as_f64()?,
            estimate_hash: u64::from_str_radix(value.get("estimate_hash")?.as_str()?, 16).ok()?,
        })
    }
}

/// The end-to-end sweep stage's artifact (the sweep result itself is
/// not part of the bench output — only its cost).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArtifact {
    /// Wall clock (ms; 0 in deterministic mode).
    pub wall_ms: f64,
    /// Rows swept (records × levels).
    pub rows: usize,
}

impl Artifact for SweepArtifact {
    fn to_payload(&self) -> String {
        format!(
            "{{\"wall_ms\": {:?}, \"rows\": {}}}",
            self.wall_ms, self.rows
        )
    }

    fn from_payload(value: &json::Value) -> Option<SweepArtifact> {
        Some(SweepArtifact {
            wall_ms: value.get("wall_ms")?.as_f64()?,
            rows: value.get("rows")?.as_usize()?,
        })
    }
}

fn composition_payload(comp: &CompositionBench) -> String {
    let rows: Vec<String> = comp
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"releases\": {}, \"disclosure_gain\": {:?}, \"mean_candidates\": {:?}, \"estimate_gain\": {:?}}}",
                r.releases, r.disclosure_gain, r.mean_candidates, r.estimate_gain
            )
        })
        .collect();
    format!(
        "{{\"k\": {}, \"overlap\": {:?}, \"wall_ms\": {:?}, \"rows\": [{}]}}",
        comp.k,
        comp.overlap,
        comp.wall_ms,
        rows.join(", ")
    )
}

fn composition_from_payload(value: &json::Value) -> Option<CompositionBench> {
    let rows = value
        .get("rows")?
        .as_arr()?
        .iter()
        .map(|r| {
            Some(CompositionBenchRow {
                releases: r.get("releases")?.as_usize()?,
                disclosure_gain: r.get("disclosure_gain")?.as_f64()?,
                mean_candidates: r.get("mean_candidates")?.as_f64()?,
                estimate_gain: r.get("estimate_gain")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CompositionBench {
        k: value.get("k")?.as_usize()?,
        overlap: value.get("overlap")?.as_f64()?,
        wall_ms: value.get("wall_ms")?.as_f64()?,
        rows,
    })
}

impl Artifact for CompositionBench {
    fn to_payload(&self) -> String {
        composition_payload(self)
    }

    fn from_payload(value: &json::Value) -> Option<CompositionBench> {
        composition_from_payload(value)
    }
}

impl Artifact for DefenseBench {
    fn to_payload(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"policy\": \"{}\", \"releases\": {}, \"residual_gain\": {:?}, \"undefended_gain\": {:?}, \"mean_candidates\": {:?}, \"utility_cost\": {:?}}}",
                    json::escape(&r.policy),
                    r.releases,
                    r.residual_gain,
                    r.undefended_gain,
                    r.mean_candidates,
                    r.utility_cost
                )
            })
            .collect();
        format!(
            "{{\"k\": {}, \"overlap\": {:?}, \"wall_ms\": {:?}, \"rows\": [{}]}}",
            self.k,
            self.overlap,
            self.wall_ms,
            rows.join(", ")
        )
    }

    fn from_payload(value: &json::Value) -> Option<DefenseBench> {
        let rows = value
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(DefenseBenchRow {
                    policy: r.get("policy")?.as_str()?.to_string(),
                    releases: r.get("releases")?.as_usize()?,
                    residual_gain: r.get("residual_gain")?.as_f64()?,
                    undefended_gain: r.get("undefended_gain")?.as_f64()?,
                    mean_candidates: r.get("mean_candidates")?.as_f64()?,
                    utility_cost: r.get("utility_cost")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(DefenseBench {
            k: value.get("k")?.as_usize()?,
            overlap: value.get("overlap")?.as_f64()?,
            wall_ms: value.get("wall_ms")?.as_f64()?,
            rows,
        })
    }
}

impl Artifact for EvalBench {
    fn to_payload(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"k\": {}, \"releases\": {}, \"defense\": \"{}\", \"targets\": {}, \"decoys\": {}, \"auc\": {:?}, \"tpr_at_fpr3\": {:?}, \"epsilon\": {:?}}}",
                    r.k,
                    r.releases,
                    json::escape(&r.defense),
                    r.targets,
                    r.decoys,
                    r.auc,
                    r.tpr_at_fpr3,
                    r.epsilon
                )
            })
            .collect();
        format!(
            "{{\"wall_ms\": {:?}, \"rows\": [{}]}}",
            self.wall_ms,
            rows.join(", ")
        )
    }

    fn from_payload(value: &json::Value) -> Option<EvalBench> {
        let rows = value
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(EvalCellRow {
                    k: r.get("k")?.as_usize()?,
                    releases: r.get("releases")?.as_usize()?,
                    defense: r.get("defense")?.as_str()?.to_string(),
                    targets: r.get("targets")?.as_usize()?,
                    decoys: r.get("decoys")?.as_usize()?,
                    auc: r.get("auc")?.as_f64()?,
                    tpr_at_fpr3: r.get("tpr_at_fpr3")?.as_f64()?,
                    epsilon: r.get("epsilon")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(EvalBench {
            wall_ms: value.get("wall_ms")?.as_f64()?,
            rows,
        })
    }
}

impl Artifact for RobustnessBench {
    fn to_payload(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"fault_rate\": {:?}, \"mode\": \"{}\", \"harvest_precision\": {:?}, \"harvest_coverage\": {:?}, \"composition_gain\": {:?}, \"pages_rejected\": {}, \"rows_skipped\": {}, \"fields_imputed\": {}, \"workers_restarted\": {}, \"shards_lost\": {}}}",
                    r.fault_rate,
                    r.mode,
                    r.harvest_precision,
                    r.harvest_coverage,
                    r.composition_gain,
                    r.pages_rejected,
                    r.rows_skipped,
                    r.fields_imputed,
                    r.workers_restarted,
                    r.shards_lost
                )
            })
            .collect();
        format!(
            "{{\"max_rate\": {:?}, \"seed\": {}, \"wall_ms\": {:?}, \"rows\": [{}]}}",
            self.max_rate,
            self.seed,
            self.wall_ms,
            rows.join(", ")
        )
    }

    fn from_payload(value: &json::Value) -> Option<RobustnessBench> {
        let rows = value
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(RobustnessBenchRow {
                    fault_rate: r.get("fault_rate")?.as_f64()?,
                    mode: intern_mode(r.get("mode")?.as_str()?)?,
                    harvest_precision: r.get("harvest_precision")?.as_f64()?,
                    harvest_coverage: r.get("harvest_coverage")?.as_f64()?,
                    composition_gain: r.get("composition_gain")?.as_f64()?,
                    pages_rejected: r.get("pages_rejected")?.as_usize()?,
                    rows_skipped: r.get("rows_skipped")?.as_usize()?,
                    fields_imputed: r.get("fields_imputed")?.as_usize()?,
                    workers_restarted: r.get("workers_restarted")?.as_usize()?,
                    shards_lost: r.get("shards_lost")?.as_usize()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RobustnessBench {
            max_rate: value.get("max_rate")?.as_f64()?,
            seed: value.get("seed")?.as_f64()? as u64,
            wall_ms: value.get("wall_ms")?.as_f64()?,
            rows,
        })
    }
}

impl Artifact for LargeBench {
    fn to_payload(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"wall_ms\": {:?}, \"rows\": {}}}",
                    s.name, s.wall_ms, s.rows
                )
            })
            .collect();
        let composition = match &self.composition {
            Some(comp) => composition_payload(comp),
            None => "null".to_string(),
        };
        format!(
            "{{\"size\": {}, \"cores\": {}, \"speedup_harvest_parallel_vs_single\": {:?}, \"stages\": [{}], \"composition\": {}}}",
            self.size,
            self.cores,
            self.speedup_harvest_parallel_vs_single,
            stages.join(", "),
            composition
        )
    }

    fn from_payload(value: &json::Value) -> Option<LargeBench> {
        let stages = value
            .get("stages")?
            .as_arr()?
            .iter()
            .map(|s| {
                Some(StageTiming {
                    name: intern_stage_name(s.get("name")?.as_str()?)?,
                    wall_ms: s.get("wall_ms")?.as_f64()?,
                    rows: s.get("rows")?.as_usize()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let composition = match value.get("composition")? {
            json::Value::Null => None,
            comp => Some(composition_from_payload(comp)?),
        };
        Some(LargeBench {
            size: value.get("size")?.as_usize()?,
            cores: value.get("cores")?.as_usize()?,
            stages,
            speedup_harvest_parallel_vs_single: value
                .get("speedup_harvest_parallel_vs_single")?
                .as_f64()?,
            composition,
        })
    }
}

impl Artifact for Large100kBench {
    fn to_payload(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"wall_ms\": {:?}, \"rows\": {}}}",
                    s.name, s.wall_ms, s.rows
                )
            })
            .collect();
        let shard_rows: Vec<String> = self
            .shard_rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"shard\": {}, \"rows\": {}, \"pages\": {}, \"capped\": {}}}",
                    r.shard, r.rows, r.pages, r.capped
                )
            })
            .collect();
        format!(
            "{{\"size\": {}, \"shards\": {}, \"cores\": {}, \"sample_rows\": {}, \"peak_rss_mb\": {:?}, \
             \"harvest_digest_sharded\": \"{:016x}\", \"harvest_digest_unsharded\": \"{:016x}\", \
             \"mdav_digest_optimized\": \"{:016x}\", \"mdav_digest_reference\": \"{:016x}\", \
             \"intersect_digest_engine\": \"{:016x}\", \"intersect_digest_oracle\": \"{:016x}\", \
             \"stages\": [{}], \"shard_rows\": [{}]}}",
            self.size,
            self.shards,
            self.cores,
            self.sample_rows,
            self.peak_rss_mb,
            self.harvest_digest_sharded,
            self.harvest_digest_unsharded,
            self.mdav_digest_optimized,
            self.mdav_digest_reference,
            self.intersect_digest_engine,
            self.intersect_digest_oracle,
            stages.join(", "),
            shard_rows.join(", ")
        )
    }

    fn from_payload(value: &json::Value) -> Option<Large100kBench> {
        let stages = value
            .get("stages")?
            .as_arr()?
            .iter()
            .map(|s| {
                Some(StageTiming {
                    name: intern_stage_name(s.get("name")?.as_str()?)?,
                    wall_ms: s.get("wall_ms")?.as_f64()?,
                    rows: s.get("rows")?.as_usize()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let shard_rows = value
            .get("shard_rows")?
            .as_arr()?
            .iter()
            .map(|r| {
                Some(ShardBenchRow {
                    shard: r.get("shard")?.as_usize()?,
                    rows: r.get("rows")?.as_usize()?,
                    pages: r.get("pages")?.as_usize()?,
                    // Checkpoints written before the cap-saturation fix
                    // lack the field; those runs were all well below the
                    // 64-shard ceiling, so absent means uncapped.
                    capped: r.get("capped").and_then(|v| v.as_bool()).unwrap_or(false),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let hex =
            |key: &str| -> Option<u64> { u64::from_str_radix(value.get(key)?.as_str()?, 16).ok() };
        Some(Large100kBench {
            size: value.get("size")?.as_usize()?,
            shards: value.get("shards")?.as_usize()?,
            cores: value.get("cores")?.as_usize()?,
            sample_rows: value.get("sample_rows")?.as_usize()?,
            peak_rss_mb: value.get("peak_rss_mb")?.as_f64()?,
            stages,
            shard_rows,
            harvest_digest_sharded: hex("harvest_digest_sharded")?,
            harvest_digest_unsharded: hex("harvest_digest_unsharded")?,
            mdav_digest_optimized: hex("mdav_digest_optimized")?,
            mdav_digest_reference: hex("mdav_digest_reference")?,
            intersect_digest_engine: hex("intersect_digest_engine")?,
            intersect_digest_oracle: hex("intersect_digest_oracle")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Artifact>(artifact: &T) -> T {
        let payload = artifact.to_payload();
        let value = json::parse(&payload).expect("payload parses");
        T::from_payload(&value).expect("payload decodes")
    }

    #[test]
    fn stage_anchor_round_trips() {
        let anchor = StageAnchor {
            label: "mdav".to_string(),
            rows: 120,
            content_hash: 0xdead_beef_0123_4567,
            timings: vec![
                ("mdav_k5".to_string(), 1.25, 120),
                ("anonymize_all_levels".to_string(), 0.1 + 0.2, 480),
            ],
        };
        let back = round_trip(&anchor);
        assert_eq!(back, anchor);
        assert_eq!(back.timings[1].1.to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn estimates_and_sweep_round_trip() {
        let est = EstimatesArtifact {
            naive_ms: 12.345678901234,
            batch_ms: 2.3,
            rows: 480,
            speedup: 5.367251,
            estimate_hash: 0xffff_ffff_ffff_fffe,
        };
        assert_eq!(round_trip(&est), est);
        let sweep = SweepArtifact {
            wall_ms: 0.0,
            rows: 480,
        };
        assert_eq!(round_trip(&sweep), sweep);
    }

    #[test]
    fn bench_blocks_round_trip() {
        let comp = CompositionBench {
            k: 5,
            overlap: 0.5,
            wall_ms: 3.25,
            rows: vec![CompositionBenchRow {
                releases: 2,
                disclosure_gain: 8377.8,
                mean_candidates: 2.13,
                estimate_gain: 1.88,
            }],
        };
        let back = round_trip(&comp);
        assert_eq!(back.rows[0].disclosure_gain.to_bits(), 8377.8f64.to_bits());

        let defense = DefenseBench {
            k: 5,
            overlap: 0.5,
            wall_ms: 1.0,
            rows: vec![DefenseBenchRow {
                policy: "calibrated_widen_1.5".to_string(),
                releases: 3,
                residual_gain: -12.5,
                undefended_gain: 9000.0,
                mean_candidates: 6.25,
                utility_cost: 120.0,
            }],
        };
        let back = round_trip(&defense);
        assert_eq!(back.rows[0].policy, "calibrated_widen_1.5");

        let eval = EvalBench {
            wall_ms: 2.5,
            rows: vec![
                EvalCellRow {
                    k: 2,
                    releases: 3,
                    defense: "none".to_string(),
                    targets: 60,
                    decoys: 60,
                    auc: 0.9875,
                    tpr_at_fpr3: 0.8166,
                    epsilon: 4.094_344_562_222_1,
                },
                EvalCellRow {
                    k: 5,
                    releases: 3,
                    defense: "coordinated_seeds".to_string(),
                    targets: 60,
                    decoys: 60,
                    auc: 0.5,
                    tpr_at_fpr3: 0.0,
                    epsilon: 0.008_230_486,
                },
            ],
        };
        let back = round_trip(&eval);
        assert_eq!(back, eval);
        assert_eq!(back.rows[1].defense, "coordinated_seeds");
        assert_eq!(
            back.rows[0].epsilon.to_bits(),
            eval.rows[0].epsilon.to_bits()
        );

        let rob = RobustnessBench {
            max_rate: 0.1,
            seed: 2015 ^ 0xFA17,
            wall_ms: 5.0,
            rows: vec![RobustnessBenchRow {
                fault_rate: 0.1,
                mode: "targeted",
                harvest_precision: 0.9321,
                harvest_coverage: 0.85,
                composition_gain: 8123.4,
                pages_rejected: 3,
                rows_skipped: 2,
                fields_imputed: 1,
                workers_restarted: 0,
                shards_lost: 2,
            }],
        };
        let back = round_trip(&rob);
        assert_eq!(back.rows[0].mode, "targeted");
        assert_eq!(back.rows[0].shards_lost, 2);

        let large = LargeBench {
            size: 10_000,
            cores: 8,
            stages: vec![StageTiming {
                name: "mdav_k5_large",
                wall_ms: 250.5,
                rows: 10_000,
            }],
            speedup_harvest_parallel_vs_single: 3.7,
            composition: Some(comp),
        };
        let back = round_trip(&large);
        assert_eq!(back.stages[0].name, "mdav_k5_large");
        assert!(back.composition.is_some());

        let sharded = Large100kBench {
            size: 100_000,
            shards: 8,
            cores: 1,
            sample_rows: 2048,
            peak_rss_mb: 512.25,
            stages: vec![StageTiming {
                name: "harvest_sharded_100k",
                wall_ms: 12_500.75,
                rows: 100_000,
            }],
            shard_rows: vec![ShardBenchRow {
                shard: 0,
                rows: 12_500,
                pages: 11_000,
                capped: true,
            }],
            harvest_digest_sharded: 0x0123_4567_89ab_cdef,
            harvest_digest_unsharded: 0x0123_4567_89ab_cdef,
            mdav_digest_optimized: u64::MAX,
            mdav_digest_reference: u64::MAX,
            intersect_digest_engine: 1,
            intersect_digest_oracle: 1,
        };
        let back = round_trip(&sharded);
        assert_eq!(back, sharded);
        assert_eq!(back.harvest_digest_sharded, 0x0123_4567_89ab_cdef);

        // Checkpoints written before the cap-saturation field still
        // parse, defaulting to uncapped.
        let legacy = sharded.to_payload().replace(", \"capped\": true", "");
        let value = json::parse(&legacy).unwrap();
        let back = Large100kBench::from_payload(&value).expect("legacy payload decodes");
        assert!(!back.shard_rows[0].capped);
    }

    #[test]
    fn unknown_stage_or_mode_rejects_the_payload() {
        let large = "{\"size\": 10, \"cores\": 1, \"speedup_harvest_parallel_vs_single\": 1.0, \
                     \"stages\": [{\"name\": \"not_a_stage\", \"wall_ms\": 1.0, \"rows\": 10}], \
                     \"composition\": null}";
        let value = json::parse(large).unwrap();
        assert!(LargeBench::from_payload(&value).is_none());

        let rob =
            "{\"max_rate\": 0.1, \"seed\": 1, \"wall_ms\": 1.0, \"rows\": [{\"fault_rate\": 0.1, \
                   \"mode\": \"sideways\", \"harvest_precision\": 1.0, \"harvest_coverage\": 1.0, \
                   \"composition_gain\": 1.0, \"pages_rejected\": 0, \"rows_skipped\": 0, \
                   \"fields_imputed\": 0, \"workers_restarted\": 0, \"shards_lost\": 0}]}";
        let value = json::parse(rob).unwrap();
        assert!(RobustnessBench::from_payload(&value).is_none());
    }

    #[test]
    fn digests_separate_fields() {
        let mut a = Digest::new();
        a.str("ab");
        a.str("c");
        let mut b = Digest::new();
        b.str("a");
        b.str("bc");
        assert_ne!(
            a.finish(),
            b.finish(),
            "length prefixes must separate fields"
        );
        assert_eq!(digest_bits(&[1, 2, 3]), digest_bits(&[1, 2, 3]));
        assert_ne!(digest_bits(&[1, 2, 3]), digest_bits(&[1, 2, 4]));
    }
}
