//! Scenario generation: one private population published as several
//! independently k-anonymized releases of overlapping sub-populations.
//!
//! This is the setting of Ganta, Kasiviswanathan & Smith's composition
//! attacks: each curator (hospital, bank, registry) sees its own slice of
//! the population plus a shared core — the people who show up everywhere
//! — and publishes its own k-anonymized release, each safe in isolation.
//! The intersection engine then demonstrates that the *composition* of
//! the releases is not.
//!
//! The sources are anonymized in one batched
//! [`Anonymizer::partition_all`] call rather than one call per source on
//! the pool. The rayon shim runs a parallel call made inside a pool
//! worker inline, so per-source calls would run each source's MDAV
//! leaves one after another on one worker, and with three sources on two
//! workers one worker would take two sources while the other took one;
//! the batch lets MDAV put every source's leaves in one flat task list
//! at the top level.

use fred_anon::{Anonymizer, Partition, QiStyle};
use fred_data::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::defense::{self, DefensePolicy};
use crate::error::{CompositionError, Result};

/// Configuration of a multi-release scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of independently anonymized releases `R`.
    pub releases: usize,
    /// Fraction of the population shared by *every* source (the target
    /// core).
    pub overlap: f64,
    /// Fraction of the *non-core* rows each source additionally holds,
    /// sampled independently per source (two curators may share some of
    /// them, like two hospitals sharing walk-in patients). Keeping this
    /// fixed makes source size — and therefore per-release class
    /// coarseness — invariant in `R`: adding a release only adds
    /// constraints, it never substitutes coarser ones.
    pub extras: f64,
    /// Anonymization level each curator applies.
    pub k: usize,
    /// Seed for the population split and the per-source row shuffles.
    pub seed: u64,
    /// Per-source quasi-identifier styles, cycled when there are more
    /// sources than entries. Defaults to ranges everywhere (the paper's
    /// Table III presentation).
    pub styles: Vec<QiStyle>,
    /// Coordination defense the curators deploy against composition
    /// (`None` = the undefended scenario the attack sweeps measure).
    pub defense: Option<DefensePolicy>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            releases: 3,
            overlap: 0.5,
            extras: 0.5,
            k: 5,
            seed: 0xC0DE,
            styles: vec![QiStyle::Range],
            defense: None,
        }
    }
}

/// One curator's slice of the world: the private sub-table, the partition
/// its anonymizer produced, and the mapping back to master rows. The
/// anonymized release itself is never materialized — the intersection
/// reads one class summary per class instead ([`fred_anon::ClassSummarizer`]).
#[derive(Debug, Clone)]
pub struct Source {
    /// Master-table row id of each sub-table row (release row `i`
    /// describes master row `global_rows[i]`).
    pub global_rows: Vec<usize>,
    /// The curator's private sub-table (sensitive attribute present).
    pub table: Table,
    /// Equivalence classes over the sub-table rows.
    pub partition: Partition,
    /// Anonymization level used.
    pub k: usize,
    /// Quasi-identifier publication style.
    pub style: QiStyle,
}

/// A generated multi-release world.
#[derive(Debug, Clone)]
pub struct CompositionScenario {
    /// Master rows present in *every* source (ascending) — the identities
    /// the composition attack targets.
    pub targets: Vec<usize>,
    /// The independently anonymized sources.
    pub sources: Vec<Source>,
}

/// Seeded Fisher-Yates shuffle (also used by the defense's capped
/// extras construction, so the two stay bit-identical by construction).
pub(crate) fn shuffle(rows: &mut [usize], rng: &mut StdRng) {
    for i in (1..rows.len()).rev() {
        let j = rng.gen_range(0..=i);
        rows.swap(i, j);
    }
}

/// The validated core/rest split behind [`generate_scenario`]: depends
/// only on `(n, overlap, seed)` (plus `k` for feasibility), never on the
/// release count. Returns `(core, rest)` in shuffled order.
fn split(n: usize, config: &ScenarioConfig) -> Result<(Vec<usize>, Vec<usize>)> {
    if config.releases == 0 {
        return Err(CompositionError::InvalidConfig(
            "releases must be >= 1".into(),
        ));
    }
    if !(0.0..=1.0).contains(&config.overlap) {
        return Err(CompositionError::InvalidConfig(format!(
            "overlap {} outside [0, 1]",
            config.overlap
        )));
    }
    if !(0.0..=1.0).contains(&config.extras) {
        return Err(CompositionError::InvalidConfig(format!(
            "extras {} outside [0, 1]",
            config.extras
        )));
    }
    if config.styles.is_empty() {
        return Err(CompositionError::InvalidConfig(
            "styles must not be empty".into(),
        ));
    }
    let core_size = ((n as f64) * config.overlap).round() as usize;
    let core_size = core_size.clamp(1, n);
    if core_size < config.k {
        return Err(CompositionError::InvalidConfig(format!(
            "core of {core_size} rows cannot be {k}-anonymized (need overlap*rows >= k)",
            k = config.k
        )));
    }
    if let Some(defense) = &config.defense {
        defense.validate(core_size)?;
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    shuffle(&mut order, &mut rng);
    let rest = order.split_off(core_size);
    Ok((order, rest))
}

/// The master rows every source will share (ascending) — the composition
/// targets. Identifiers (and therefore the web harvest) depend only on
/// this set, so callers can compute it without anonymizing anything.
pub fn core_targets(n: usize, config: &ScenarioConfig) -> Result<Vec<usize>> {
    let (mut core, _) = split(n, config)?;
    core.sort_unstable();
    Ok(core)
}

/// Splits `table` into `config.releases` overlapping sub-populations and
/// anonymizes each independently.
///
/// The split is deterministic in `config.seed`: a seeded shuffle picks the
/// shared core (`overlap` fraction of the rows, identical for every `R`,
/// so sweeps over `R` compare the same target set); each source then
/// draws its own `extras` sample of the remaining rows and shuffles its
/// row order with a per-source seed — each curator assembled its table
/// independently, so neither membership nor row order leaks across
/// releases, and every source has the same size regardless of how many
/// releases exist.
///
/// Sources are *mutually independent* (each one's RNG stream is seeded
/// from `(seed, s)` alone), so their row samples are drawn across the
/// worker pool, and each sub-table is one [`Table::gather`] of the master
/// rows, itself spread over the pool; then all of them are anonymized in one
/// [`Anonymizer::partition_all`] call, the dominant cost at enterprise
/// scale (see the module docs for why it is one call). Results are
/// collected in source order, so the scenario is bit-identical
/// regardless of thread count.
///
/// When [`ScenarioConfig::defense`] is set, the curators coordinate:
/// [`DefensePolicy::OverlapCap`] replaces the independent extras samples
/// with a capped shared pool, [`DefensePolicy::CoordinatedSeeds`]
/// replaces the per-source core clustering with one shared core
/// partition (each curator still anonymizes its extras alone, and drops
/// them entirely when it holds fewer than `k`), and
/// [`DefensePolicy::CalibratedWiden`] post-processes the generated
/// partitions until the composed intersection keeps every core target at
/// `target_k` candidates. The target core — and therefore the harvest —
/// is identical to the undefended scenario's by construction.
pub fn generate_scenario(
    table: &Table,
    anonymizer: &dyn Anonymizer,
    config: &ScenarioConfig,
) -> Result<CompositionScenario> {
    let (core, rest) = split(table.len(), config)?;
    let extras_per_source = ((rest.len() as f64) * config.extras).round() as usize;

    let mut targets: Vec<usize> = core.clone();
    targets.sort_unstable();

    // OverlapCap pre-computes every source's extras from one capped
    // shared pool; the other paths sample per source below.
    let capped_extras: Option<Vec<Vec<usize>>> = match &config.defense {
        Some(DefensePolicy::OverlapCap {
            max_shared_fraction,
        }) => Some(defense::overlap_cap_extras(
            &rest,
            extras_per_source,
            *max_shared_fraction,
            config.releases,
            config.seed,
        )),
        _ => None,
    };
    // CoordinatedSeeds partitions the shared core exactly once (the
    // "shared partition seed"); classes are kept in master-row ids and
    // mapped into each source's local rows.
    let coordinated_core: Option<Vec<Vec<usize>>> = match &config.defense {
        Some(DefensePolicy::CoordinatedSeeds) => {
            let core_table = table.gather(&core)?;
            let partition = anonymizer.partition(&core_table, config.k)?;
            Some(
                partition
                    .classes()
                    .iter()
                    .map(|class| class.iter().map(|&i| core[i]).collect())
                    .collect(),
            )
        }
        _ => None,
    };

    let selected: Vec<Vec<usize>> = (0..config.releases)
        .into_par_iter()
        .map(|s| {
            // `s + 1`: with a bare `s` the first source's stream would
            // equal the split's (the multiplier zeroes out), replaying
            // the core selection instead of sampling independently.
            let mut source_rng = StdRng::seed_from_u64(
                config.seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut extras: Vec<usize> = match &capped_extras {
                Some(per_source) => per_source[s].clone(),
                None => {
                    let mut pool: Vec<usize> = rest.to_vec();
                    shuffle(&mut pool, &mut source_rng);
                    pool.truncate(extras_per_source);
                    pool
                }
            };
            if coordinated_core.is_some() && extras.len() < config.k {
                // A coordinating curator anonymizes its extras on its
                // own; too few to protect means none get published.
                extras.clear();
            }
            let mut rows: Vec<usize> = core.to_vec();
            rows.extend(extras);
            shuffle(&mut rows, &mut source_rng);
            rows
        })
        .collect();
    // One gather per source, each spread over the pool: a task per
    // source would leave a worker idle whenever the sources do not
    // divide evenly among the workers.
    let built: Vec<(Vec<usize>, Table)> = selected
        .into_iter()
        .map(|rows| {
            let sub_table = table.gather(&rows)?;
            Ok((rows, sub_table))
        })
        .collect::<Result<_>>()?;
    let partitions: Vec<Partition> = match &coordinated_core {
        Some(core_classes) => built
            .par_iter()
            .map(|(rows, sub_table)| {
                defense::coordinated_partition(core_classes, rows, sub_table, anonymizer, config.k)
            })
            .collect::<Result<_>>()?,
        None => {
            let tables: Vec<&Table> = built.iter().map(|(_, sub_table)| sub_table).collect();
            anonymizer.partition_all(&tables, config.k)?
        }
    };
    let mut sources: Vec<Source> = built
        .into_iter()
        .zip(partitions)
        .enumerate()
        .map(|(s, ((rows, sub_table), partition))| Source {
            global_rows: rows,
            table: sub_table,
            partition,
            k: config.k,
            style: config.styles[s % config.styles.len()],
        })
        .collect();
    if let Some(DefensePolicy::CalibratedWiden { target_k }) = config.defense {
        defense::calibrate_widen(&mut sources, &targets, table.len(), target_k)?;
    }
    Ok(CompositionScenario { targets, sources })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_anon::Mdav;
    use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};

    fn master(n: usize) -> Table {
        let people = generate_population(&PopulationConfig {
            size: n,
            seed: 7,
            ..PopulationConfig::default()
        });
        customer_table(&people, &CustomerConfig::default())
    }

    #[test]
    fn split_shares_the_core_and_samples_extras() {
        let table = master(60);
        let config = ScenarioConfig {
            releases: 3,
            overlap: 0.5,
            extras: 0.5,
            k: 3,
            ..ScenarioConfig::default()
        };
        let scenario = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        assert_eq!(scenario.sources.len(), 3);
        assert_eq!(scenario.targets.len(), 30);
        for source in &scenario.sources {
            // Every target appears in every source; sources are all the
            // same size (core + extras), independent of R.
            for &t in &scenario.targets {
                assert!(source.global_rows.contains(&t));
            }
            assert_eq!(source.global_rows.len(), 30 + 15);
            assert!(source.partition.satisfies_k(3));
            assert_eq!(source.table.len(), source.global_rows.len());
            // No duplicate rows within one source.
            let distinct: std::collections::HashSet<_> = source.global_rows.iter().collect();
            assert_eq!(distinct.len(), source.global_rows.len());
        }
        // Independent sampling: the extras of at least two sources differ.
        let extras_of = |s: &Source| -> std::collections::BTreeSet<usize> {
            s.global_rows
                .iter()
                .copied()
                .filter(|g| !scenario.targets.contains(g))
                .collect()
        };
        assert_ne!(
            extras_of(&scenario.sources[0]),
            extras_of(&scenario.sources[1])
        );
    }

    #[test]
    fn sub_tables_carry_master_rows() {
        let table = master(40);
        let scenario = generate_scenario(&table, &Mdav::new(), &ScenarioConfig::default()).unwrap();
        for source in &scenario.sources {
            for (local, &global) in source.global_rows.iter().enumerate() {
                assert_eq!(source.table.rows()[local], table.rows()[global]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let table = master(50);
        let config = ScenarioConfig::default();
        let a = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        let b = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        assert_eq!(a.targets, b.targets);
        for (sa, sb) in a.sources.iter().zip(&b.sources) {
            assert_eq!(sa.global_rows, sb.global_rows);
            assert_eq!(sa.partition, sb.partition);
        }
    }

    #[test]
    fn core_is_invariant_in_release_count() {
        let table = master(50);
        let base = ScenarioConfig {
            overlap: 0.4,
            ..ScenarioConfig::default()
        };
        let targets: Vec<Vec<usize>> = [1usize, 2, 4]
            .iter()
            .map(|&r| {
                generate_scenario(
                    &table,
                    &Mdav::new(),
                    &ScenarioConfig {
                        releases: r,
                        ..base.clone()
                    },
                )
                .unwrap()
                .targets
            })
            .collect();
        assert_eq!(targets[0], targets[1]);
        assert_eq!(targets[1], targets[2]);
    }

    #[test]
    fn coordinated_seeds_share_one_core_partition() {
        let table = master(60);
        let config = ScenarioConfig {
            releases: 3,
            k: 3,
            defense: Some(DefensePolicy::CoordinatedSeeds),
            ..ScenarioConfig::default()
        };
        let scenario = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        // Every source's core classes, mapped back to master rows, are
        // the same family of sets.
        let core_classes_of = |s: &Source| -> std::collections::BTreeSet<Vec<usize>> {
            s.partition
                .classes()
                .iter()
                .filter(|class| {
                    class
                        .iter()
                        .all(|&l| scenario.targets.contains(&s.global_rows[l]))
                })
                .map(|class| {
                    let mut global: Vec<usize> = class.iter().map(|&l| s.global_rows[l]).collect();
                    global.sort_unstable();
                    global
                })
                .collect()
        };
        let first = core_classes_of(&scenario.sources[0]);
        assert!(!first.is_empty());
        for source in &scenario.sources {
            assert!(source.partition.satisfies_k(3));
            assert_eq!(core_classes_of(source), first);
            // No class mixes core and extras rows.
            for class in source.partition.classes() {
                let in_core = class
                    .iter()
                    .filter(|&&l| scenario.targets.contains(&source.global_rows[l]))
                    .count();
                assert!(in_core == 0 || in_core == class.len());
            }
        }
        // The undefended target core is preserved.
        let undefended = generate_scenario(
            &table,
            &Mdav::new(),
            &ScenarioConfig {
                defense: None,
                ..config.clone()
            },
        )
        .unwrap();
        assert_eq!(scenario.targets, undefended.targets);
    }

    #[test]
    fn overlap_cap_zero_makes_sources_disjoint_outside_the_core() {
        let table = master(80);
        let config = ScenarioConfig {
            releases: 3,
            overlap: 0.4,
            k: 4,
            defense: Some(DefensePolicy::OverlapCap {
                max_shared_fraction: 0.0,
            }),
            ..ScenarioConfig::default()
        };
        let scenario = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        let extras_of = |s: &Source| -> std::collections::BTreeSet<usize> {
            s.global_rows
                .iter()
                .copied()
                .filter(|g| !scenario.targets.contains(g))
                .collect()
        };
        for (i, a) in scenario.sources.iter().enumerate() {
            assert!(a.partition.satisfies_k(4));
            for b in scenario.sources.iter().skip(i + 1) {
                assert!(
                    extras_of(a).intersection(&extras_of(b)).next().is_none(),
                    "sources {i} share non-core rows under a zero cap"
                );
            }
        }
    }

    #[test]
    fn calibrated_widen_holds_the_candidate_floor() {
        let table = master(60);
        let target_k = 4;
        let config = ScenarioConfig {
            releases: 3,
            k: 4,
            defense: Some(DefensePolicy::CalibratedWiden { target_k }),
            ..ScenarioConfig::default()
        };
        let scenario = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        let counts: Vec<usize> = crate::intersect::intersect_releases(
            &scenario.sources,
            &scenario.targets,
            table.len(),
            64,
        )
        .unwrap()
        .iter()
        .map(crate::TargetIntersection::candidates)
        .collect();
        assert!(counts.iter().all(|&c| c >= target_k), "{counts:?}");
        for source in &scenario.sources {
            assert!(
                source.partition.satisfies_k(4),
                "widening broke k-anonymity"
            );
        }
    }

    #[test]
    fn calibrated_widen_handles_a_lone_release_with_a_higher_floor() {
        // Regression: with a single release (or a target present in one
        // source only) there is no other source to probe for the unblock
        // tally, which then scans the master table and must count no row
        // past it. A floor above k forces the calibration to actually
        // widen at R = 1.
        let table = master(60);
        let target_k = 5;
        let config = ScenarioConfig {
            releases: 1,
            k: 2,
            defense: Some(DefensePolicy::CalibratedWiden { target_k }),
            ..ScenarioConfig::default()
        };
        let scenario = generate_scenario(&table, &Mdav::new(), &config).unwrap();
        let counts: Vec<usize> = crate::intersect::intersect_releases(
            &scenario.sources,
            &scenario.targets,
            table.len(),
            64,
        )
        .unwrap()
        .iter()
        .map(crate::TargetIntersection::candidates)
        .collect();
        assert!(counts.iter().all(|&c| c >= target_k), "{counts:?}");
        assert!(scenario.sources[0].partition.satisfies_k(2));
    }

    #[test]
    fn invalid_defense_configs_rejected() {
        let table = master(40);
        for defense in [
            DefensePolicy::OverlapCap {
                max_shared_fraction: -0.1,
            },
            DefensePolicy::CalibratedWiden { target_k: 0 },
            DefensePolicy::CalibratedWiden { target_k: 1000 },
        ] {
            let config = ScenarioConfig {
                defense: Some(defense),
                ..ScenarioConfig::default()
            };
            assert!(
                matches!(
                    generate_scenario(&table, &Mdav::new(), &config),
                    Err(CompositionError::InvalidConfig(_))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let table = master(20);
        for config in [
            ScenarioConfig {
                releases: 0,
                ..ScenarioConfig::default()
            },
            ScenarioConfig {
                overlap: 1.5,
                ..ScenarioConfig::default()
            },
            ScenarioConfig {
                overlap: 0.05,
                k: 5,
                ..ScenarioConfig::default()
            },
            ScenarioConfig {
                styles: vec![],
                ..ScenarioConfig::default()
            },
        ] {
            assert!(
                matches!(
                    generate_scenario(&table, &Mdav::new(), &config),
                    Err(CompositionError::InvalidConfig(_))
                ),
                "{config:?}"
            );
        }
    }
}
