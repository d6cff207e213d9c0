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
//! saved by resumption. Their encoding is [`crate::codec`]'s: a block's
//! checkpoint payload is the block's value in `BENCH_sweep.json`.
//!
//! The checkpoint-only artifacts here keep every float at full precision
//! (rendered in Rust's shortest round-trip form), so a recomputed anchor
//! compares equal to its stored copy; 64-bit digests travel as hex
//! strings because JSON numbers lose integer precision past 2^53.

use fred_recover::{json::Value, Artifact};

use crate::codec::{dec, enc, obj, schema};
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

/// Digest of the given rows of a harvest, in the order given: each row's
/// record and accepted links. The `large_100k` equivalence gate digests
/// the full harvest at the sampled rows and the sampled reference at
/// `0..len`, so the two agree exactly when every sampled row does.
pub(crate) fn digest_harvest_rows(harvest: &Harvest, rows: impl IntoIterator<Item = usize>) -> u64 {
    let mut d = Digest::new();
    for row in rows {
        d.str(&format!("{:?}", harvest.records[row]));
        let links = &harvest.linked[row];
        d.u64(links.len() as u64);
        for &p in links {
            d.u64(p as u64);
        }
    }
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

/// The always-recomputed anchor artifact: a content digest of one cheap
/// upstream stage plus the [`crate::perf::StageTiming`] rows it
/// contributes. Under a checkpoint store timings are zeroed
/// (deterministic mode), so two runs of the same configuration produce
/// `PartialEq`-identical anchors.
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
    fn to_value(&self) -> Value {
        let timing = |(name, wall_ms, rows): &(String, f64, usize)| {
            obj([
                ("name", enc::text(name)),
                ("wall_ms", enc::exact(wall_ms)),
                ("rows", enc::count(rows)),
            ])
        };
        obj([
            ("label", enc::text(&self.label)),
            ("rows", enc::count(&self.rows)),
            ("content_hash", enc::hex(&self.content_hash)),
            (
                "timings",
                Value::Arr(self.timings.iter().map(timing).collect()),
            ),
        ])
    }

    fn from_value(value: &Value) -> Option<StageAnchor> {
        let get = |key| value.get(key);
        let timing = |t: &Value| {
            let field = |key| t.get(key);
            Some((
                dec::text(field("name")?)?,
                dec::exact(field("wall_ms")?)?,
                dec::count(field("rows")?)?,
            ))
        };
        Some(StageAnchor {
            label: dec::text(get("label")?)?,
            rows: dec::count(get("rows")?)?,
            content_hash: dec::hex(get("content_hash")?)?,
            timings: get("timings")?
                .as_arr()?
                .iter()
                .map(timing)
                .collect::<Option<_>>()?,
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

schema!(EstimatesArtifact {
    naive_ms: "naive_ms" as exact,
    batch_ms: "batch_ms" as exact,
    rows: "rows" as count,
    speedup: "speedup" as exact,
    estimate_hash: "estimate_hash" as hex,
});

/// The end-to-end sweep stage's artifact (the sweep result itself is
/// not part of the bench output — only its cost).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArtifact {
    /// Wall clock (ms; 0 in deterministic mode).
    pub wall_ms: f64,
    /// Rows swept (records × levels).
    pub rows: usize,
}

schema!(SweepArtifact {
    wall_ms: "wall_ms" as exact,
    rows: "rows" as count,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{
        CompositionBench, CompositionBenchRow, DefenseBench, DefenseBenchRow, EvalBench,
        EvalCellRow, Large100kBench, LargeBench, RobustnessBench, RobustnessBenchRow, StageTiming,
    };
    use fred_recover::json;

    /// Encodes, renders, parses and decodes an artifact — the checkpoint
    /// path — and checks the decoded artifact re-encodes to the same
    /// value (canonical and idempotent).
    fn round_trip<T: Artifact>(artifact: &T) -> T {
        let payload = json::render(&artifact.to_value());
        let value = json::parse(&payload).expect("payload parses");
        let back = T::from_value(&value).expect("payload decodes");
        assert_eq!(back.to_value(), value, "re-encoding changed the payload");
        back
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
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[1].defense, "coordinated_seeds");
        assert_eq!((back.rows[1].auc, back.rows[1].decoys), (0.5, 60));
        // Blocks keep the precision the file prints: ε to 4 decimals.
        assert_eq!(back.rows[0].epsilon, 4.0943);
        assert_eq!(back.rows[1].epsilon, 0.0082);

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
                workers_restarted: 1,
            }],
        };
        let back = round_trip(&rob);
        assert_eq!(back.rows[0].mode, "targeted");
        assert_eq!(back.rows[0].workers_restarted, 1);

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

        let big = Large100kBench {
            size: 100_000,
            shards: 8,
            cores: 1,
            sample_rows: 2048,
            peak_rss_mb: 512.25,
            stages: vec![StageTiming {
                name: "harvest_100k",
                wall_ms: 12_500.75,
                rows: 100_000,
            }],
            harvest_digest_engine: 0x0123_4567_89ab_cdef,
            harvest_digest_reference: 0x0123_4567_89ab_cdef,
            mdav_digest_optimized: u64::MAX,
            mdav_digest_reference: u64::MAX,
            intersect_digest_engine: 1,
            intersect_digest_oracle: 1,
        };
        let back = round_trip(&big);
        assert_eq!(back.peak_rss_mb, 512.2);
        assert_eq!(back.stages, big.stages);
        assert_eq!(back.digests(), big.digests());
        assert_eq!(back.harvest_digest_engine, 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn unknown_stage_or_mode_rejects_the_payload() {
        let stage = |name| StageTiming {
            name,
            wall_ms: 1.0,
            rows: 10,
        };
        let large = |name| LargeBench {
            size: 10,
            cores: 1,
            stages: vec![stage(name)],
            speedup_harvest_parallel_vs_single: 1.0,
            composition: None,
        };
        assert!(LargeBench::from_value(&large("mdav_k5_large").to_value()).is_some());
        assert!(LargeBench::from_value(&large("not_a_stage").to_value()).is_none());

        let rob = |mode| RobustnessBench {
            max_rate: 0.1,
            seed: 1,
            wall_ms: 1.0,
            rows: vec![RobustnessBenchRow {
                fault_rate: 0.1,
                mode,
                harvest_precision: 1.0,
                harvest_coverage: 1.0,
                composition_gain: 1.0,
                pages_rejected: 0,
                rows_skipped: 0,
                fields_imputed: 0,
                workers_restarted: 0,
            }],
        };
        assert!(RobustnessBench::from_value(&rob("targeted").to_value()).is_some());
        assert!(RobustnessBench::from_value(&rob("sideways").to_value()).is_none());
    }

    #[test]
    fn seeds_at_or_above_2_pow_53_reject_the_payload() {
        // A JSON number cannot carry such a seed exactly, so decoding it
        // would silently resume under a different seed.
        let max = json::MAX_EXACT_INT;
        let rob = |seed: u64| RobustnessBench {
            max_rate: 0.0,
            seed,
            wall_ms: 0.0,
            rows: Vec::new(),
        };
        let mut value = rob(max - 1).to_value();
        assert_eq!(RobustnessBench::from_value(&value), Some(rob(max - 1)));
        let json::Value::Obj(pairs) = &mut value else {
            unreachable!("a block encodes as an object")
        };
        pairs[1] = ("seed".into(), json::Value::Num(max as f64));
        assert!(RobustnessBench::from_value(&value).is_none());
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
