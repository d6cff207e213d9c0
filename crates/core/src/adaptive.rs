//! Adaptive (risk-directed) anonymization — the paper's stated extension.
//!
//! Reference \[11\] of the paper (the authors' companion work, "Adaptive data
//! anonymization against information fusion based privacy attacks", SAC
//! 2008) replaces the single global level `k` with *local* protection:
//! individuals whose sensitive value the fusion attack pins down most
//! accurately get more generalization than individuals the attack already
//! misjudges.
//!
//! This module implements that idea on top of the FRED machinery:
//!
//! 1. anonymize at a base level `k0` and simulate the fusion attack;
//! 2. compute the **per-record risk** — the squared estimation error of
//!    each individual (low error = high risk);
//! 3. while the most at-risk record's error is below the per-record
//!    protection threshold `Tr` and the utility budget `Tu` holds, merge
//!    that record's equivalence class with its nearest class (by
//!    quasi-identifier centroid) and re-simulate;
//! 4. return the locally-generalized release.
//!
//! Unlike raising the global k, merging only the at-risk classes spends
//! utility exactly where the attack bites.

use fred_anon::{build_release, utility, Anonymizer, Partition, QiStyle, Release};
use fred_attack::{harvest_auxiliary, FusionSystem, HarvestConfig};
use fred_data::Table;
use fred_web::SearchEngine;

use crate::error::{CoreError, Result};

/// Parameters of the adaptive defence.
#[derive(Debug, Clone)]
pub struct AdaptiveParams {
    /// Base anonymization level to start from.
    pub k0: usize,
    /// Per-record protection threshold: every record's squared estimation
    /// error must be at least this large.
    pub tr: f64,
    /// Utility floor (`U = 1/C_DM(k0)` must stay at or above this).
    pub tu: f64,
    /// Hard cap on merge steps (safety rail).
    pub max_merges: usize,
    /// Quasi-identifier publication style.
    pub style: QiStyle,
    /// Harvest configuration for the simulated attacks.
    pub harvest: HarvestConfig,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            k0: 3,
            tr: 0.0,
            tu: 0.0,
            max_merges: 64,
            style: QiStyle::Range,
            harvest: HarvestConfig::default(),
        }
    }
}

/// The result of the adaptive defence.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The locally-generalized release.
    pub release: Release,
    /// Number of class merges performed.
    pub merges: usize,
    /// Per-record squared estimation errors under the final release.
    pub record_risks: Vec<f64>,
    /// Utility of the final release (computed at level `k0`).
    pub utility: f64,
    /// Whether every record cleared `Tr` (false when the loop stopped on
    /// the utility floor or the merge cap instead).
    pub fully_protected: bool,
}

impl AdaptiveResult {
    /// The smallest per-record squared error (the residual risk).
    pub fn min_record_risk(&self) -> f64 {
        self.record_risks
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs the adaptive defence.
pub fn adaptive_anonymize(
    table: &Table,
    web: &SearchEngine,
    anonymizer: &dyn Anonymizer,
    fusion: &dyn FusionSystem,
    params: &AdaptiveParams,
) -> Result<AdaptiveResult> {
    if params.k0 < 2 {
        return Err(CoreError::InvalidKRange {
            k_min: params.k0,
            k_max: params.k0,
        });
    }
    let sens_cols = table.sensitive_columns();
    let sens = *sens_cols
        .first()
        .ok_or(CoreError::Anon(fred_anon::AnonError::NoSensitiveAttribute))?;
    let truth = table.numeric_column(sens)?;

    let mut partition = anonymizer.partition(table, params.k0)?;
    let release0 = build_release(table, &partition, params.k0, params.style)?;
    let harvest = harvest_auxiliary(&release0.table, web, &params.harvest)?;

    let qi_cols = table.quasi_identifier_columns();
    let mut merges = 0usize;
    loop {
        let release = build_release(table, &partition, params.k0, params.style)?;
        let estimates = fusion.estimate(&release.table, &harvest.records)?;
        let risks: Vec<f64> = truth
            .iter()
            .zip(&estimates)
            .map(|(&t, &e)| (t - e) * (t - e))
            .collect();
        let u = utility(&partition, params.k0).map_err(CoreError::Anon)?;

        // Find the most at-risk record still below the threshold.
        let worst = risks
            .iter()
            .enumerate()
            .filter(|(_, &r)| r < params.tr)
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i);

        let fully_protected = worst.is_none();
        let can_merge = partition.len() > 1 && merges < params.max_merges && u >= params.tu;
        if fully_protected || !can_merge {
            return Ok(AdaptiveResult {
                release,
                merges,
                record_risks: risks,
                utility: u,
                fully_protected,
            });
        }
        let at_risk_row = worst.expect("checked above");
        partition = merge_class_of(table, &partition, at_risk_row, &qi_cols)?;
        merges += 1;
    }
}

/// Merges the class containing `row` with its nearest class by QI-centroid
/// distance, producing a new valid partition.
fn merge_class_of(
    table: &Table,
    partition: &Partition,
    row: usize,
    qi_cols: &[usize],
) -> Result<Partition> {
    let class_of = partition.class_of_rows();
    let target = class_of[row];
    let centroids = partition.centroids(table, qi_cols)?;
    let mut best: Option<(usize, f64)> = None;
    for (ci, centroid) in centroids.iter().enumerate() {
        if ci == target {
            continue;
        }
        let d: f64 = centroid
            .iter()
            .zip(&centroids[target])
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((ci, d));
        }
    }
    let (other, _) = best.ok_or_else(|| {
        CoreError::Anon(fred_anon::AnonError::InvalidPartition(
            "cannot merge a single-class partition".into(),
        ))
    })?;
    let mut classes: Vec<Vec<usize>> = Vec::with_capacity(partition.len() - 1);
    let mut merged: Vec<usize> = Vec::new();
    for (ci, class) in partition.classes().iter().enumerate() {
        if ci == target || ci == other {
            merged.extend_from_slice(class);
        } else {
            classes.push(class.clone());
        }
    }
    classes.push(merged);
    Partition::new(classes, partition.n_rows()).map_err(CoreError::Anon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_anon::Mdav;
    use fred_attack::{FuzzyFusion, FuzzyFusionConfig};
    use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};
    use fred_web::{build_corpus, CorpusConfig, NameNoise};

    fn world() -> (Table, SearchEngine, Vec<f64>) {
        let people = generate_population(&PopulationConfig {
            size: 50,
            seed: 31,
            web_presence_rate: 0.95,
            ..PopulationConfig::default()
        });
        let table = customer_table(&people, &CustomerConfig::default());
        let web = build_corpus(
            &people,
            &CorpusConfig {
                noise: NameNoise::none(),
                ..CorpusConfig::default()
            },
        );
        let truth = table.numeric_column(4).unwrap();
        (table, web, truth)
    }

    fn fusion() -> FuzzyFusion {
        FuzzyFusion::new(FuzzyFusionConfig::default()).unwrap()
    }

    #[test]
    fn zero_threshold_means_no_merges() {
        let (table, web, _) = world();
        let result = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &fusion(),
            &AdaptiveParams::default(),
        )
        .unwrap();
        assert_eq!(result.merges, 0);
        assert!(result.fully_protected);
        assert_eq!(result.record_risks.len(), 50);
    }

    #[test]
    fn merging_raises_the_minimum_record_risk() {
        let (table, web, _) = world();
        let base = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &fusion(),
            &AdaptiveParams::default(),
        )
        .unwrap();
        // Demand more than the base release delivers for its weakest record.
        let tr = base.min_record_risk() * 4.0 + 1.0;
        let adaptive = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &fusion(),
            &AdaptiveParams {
                tr,
                max_merges: 40,
                ..AdaptiveParams::default()
            },
        )
        .unwrap();
        assert!(
            adaptive.merges > 0,
            "threshold above baseline must force merges"
        );
        assert!(
            adaptive.min_record_risk() > base.min_record_risk(),
            "adaptive {} should exceed base {}",
            adaptive.min_record_risk(),
            base.min_record_risk()
        );
    }

    #[test]
    fn utility_floor_stops_merging() {
        let (table, web, _) = world();
        let base_partition = Mdav::new().partition(&table, 3).unwrap();
        let base_utility = utility(&base_partition, 3).unwrap();
        let result = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &fusion(),
            &AdaptiveParams {
                tr: f64::INFINITY,      // unreachable protection
                tu: base_utility * 0.9, // tight utility floor
                max_merges: 1000,
                ..AdaptiveParams::default()
            },
        )
        .unwrap();
        assert!(!result.fully_protected);
        assert!(
            result.utility >= base_utility * 0.9 * 0.5,
            "utility collapsed"
        );
        // The floor must have stopped it long before 1000 merges.
        assert!(result.merges < 1000);
    }

    #[test]
    fn merge_cap_is_respected() {
        let (table, web, _) = world();
        let result = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &fusion(),
            &AdaptiveParams {
                tr: f64::INFINITY,
                max_merges: 3,
                ..AdaptiveParams::default()
            },
        )
        .unwrap();
        assert_eq!(result.merges, 3);
        assert!(!result.fully_protected);
    }

    #[test]
    fn release_stays_k_anonymous_after_merges() {
        let (table, web, _) = world();
        let result = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &fusion(),
            &AdaptiveParams {
                tr: 1e9,
                max_merges: 10,
                ..AdaptiveParams::default()
            },
        )
        .unwrap();
        // Merging classes only grows them, so k0-anonymity is preserved.
        assert!(fred_anon::is_k_anonymous(&result.release.table, 3).unwrap());
    }

    #[test]
    fn adaptive_beats_global_k_on_utility_at_equal_worst_case_risk() {
        let (table, web, truth) = world();
        let f = fusion();
        // Global approach: raise k until min risk clears the bar.
        let base =
            adaptive_anonymize(&table, &web, &Mdav::new(), &f, &AdaptiveParams::default()).unwrap();
        let bar = base.min_record_risk() * 2.0 + 1.0;
        let adaptive = adaptive_anonymize(
            &table,
            &web,
            &Mdav::new(),
            &f,
            &AdaptiveParams {
                tr: bar,
                max_merges: 200,
                ..AdaptiveParams::default()
            },
        )
        .unwrap();
        if !adaptive.fully_protected {
            // The attack may be too noisy on this seed to clear the bar;
            // the comparison below is only meaningful when it did.
            return;
        }
        // Find the smallest global k whose weakest record clears the bar.
        let harvest =
            harvest_auxiliary(&base.release.table, &web, &HarvestConfig::default()).unwrap();
        let mut global_u = None;
        for k in 3..=30 {
            let p = Mdav::new().partition(&table, k).unwrap();
            let rel = build_release(&table, &p, k, QiStyle::Range).unwrap();
            let est = f.estimate(&rel.table, &harvest.records).unwrap();
            let min_risk = truth
                .iter()
                .zip(&est)
                .map(|(&t, &e)| (t - e) * (t - e))
                .fold(f64::INFINITY, f64::min);
            if min_risk >= bar {
                global_u = Some(utility(&p, 3).unwrap());
                break;
            }
        }
        if let Some(gu) = global_u {
            assert!(
                adaptive.utility >= gu * 0.8,
                "adaptive utility {} should be competitive with global {}",
                adaptive.utility,
                gu
            );
        }
    }
}
