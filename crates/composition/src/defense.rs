//! The defense axis: countermeasures a *coordinating* set of curators can
//! deploy against the composition attack, swept with the same harness
//! that measures the attack.
//!
//! The attack works because `R` independently anonymized releases of
//! overlapping populations impose `R` independent constraint sets on the
//! shared individuals; their intersection is tighter than any one of
//! them. Every policy here removes some of that independence:
//!
//! * [`DefensePolicy::CoordinatedSeeds`] — all curators partition the
//!   shared core **once**, from one agreed partition seed, and reuse
//!   those classes verbatim; each curator still anonymizes its private
//!   extras on its own. A core target's class is then identical in every
//!   release, the intersection *is* the single-release class, and the
//!   composed disclosure gain is exactly zero.
//! * [`DefensePolicy::OverlapCap`] — the scenario generator pins the
//!   pairwise record overlap of any two sources **outside the core** at
//!   `max_shared_fraction` of their extras: the shared part is one
//!   designated common pool (the closed form of resampling until the cap
//!   holds), the remainder per-curator disjoint slices. A cap of `0.0`
//!   makes sources disjoint outside the core — every non-core person
//!   appears in at most one release, so composition cannot touch them at
//!   all. Note the measured trade-off on the always-shared core: *low*
//!   caps decorrelate the releases' class geometries and can expose the
//!   core **more**, while high caps make the geometries near-identical
//!   and leave the intersection nothing to cut (see README "Defenses").
//! * [`DefensePolicy::CalibratedWiden`] — post-partition widening: after
//!   every curator has partitioned, classes are iteratively merged with
//!   their nearest neighbor class (widening the published feasible
//!   boxes) until the composed intersection provably keeps
//!   `|∩ classes| ≥ target_k` for every core target. This is noise
//!   calibrated against the *composition*, not against any single
//!   release — a single release at `target_k = k` needs no widening at
//!   all. The calibration works on the intersection engine's class maps
//!   (one class per master row, O(n) per source) plus a member list per
//!   class, relabelled in place as classes merge, and measures a target
//!   by probing its smallest class: O(R·|class|) per re-measure.
//!
//! Policies are threaded through [`crate::ScenarioConfig::defense`]; the
//! harness ([`crate::defense_sweep`], `repro --compose --defend`) reports
//! each policy's *residual* disclosure gain next to the undefended gain
//! plus the utility price of the widened boxes.

use std::collections::{BTreeMap, HashMap};

use fred_anon::{Anonymizer, Partition};
use fred_data::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{CompositionError, Result};
use crate::intersect::{consistent, map_classes, ABSENT};
use crate::scenario::{shuffle, Source};

/// A coordinated-release countermeasure against composition attacks.
#[derive(Debug, Clone, PartialEq)]
pub enum DefensePolicy {
    /// Every curator reuses one shared partition of the core (same
    /// partition seed), so intersecting a core target's classes across
    /// releases returns the class itself — never fewer than `k` rows —
    /// and composes zero disclosure gain.
    CoordinatedSeeds,
    /// Pairwise record overlap outside the core is pinned at this
    /// fraction of each source's extras via one designated shared pool
    /// (`0.0` = fully disjoint outside the core, `1.0` = one common
    /// extras population).
    OverlapCap {
        /// Fraction in `[0, 1]` of each source's extras that any two
        /// sources may share.
        max_shared_fraction: f64,
    },
    /// Classes are merged (feasible boxes widened) until the composed
    /// intersection keeps at least this many candidates for every core
    /// target, at every release count.
    CalibratedWiden {
        /// Effective-anonymity floor the composition must not breach.
        target_k: usize,
    },
}

impl DefensePolicy {
    /// Stable snake-case label used in reports, JSON baselines and the
    /// compare gate (`calibrated_widen_*` rows carry the candidate-floor
    /// gate).
    pub fn label(&self) -> String {
        match self {
            DefensePolicy::CoordinatedSeeds => "coordinated_seeds".to_owned(),
            DefensePolicy::OverlapCap {
                max_shared_fraction,
            } => format!("overlap_cap_{max_shared_fraction:.2}"),
            DefensePolicy::CalibratedWiden { target_k } => {
                format!("calibrated_widen_k{target_k}")
            }
        }
    }

    /// The policy set `repro --defend all` sweeps at anonymization level
    /// `k`: coordinated seeds, the overlap cap at its measured sweet spot
    /// (`0.9` — see the module docs for why *low* caps can backfire on
    /// the core), and widening calibrated to the promise `k` made.
    pub fn default_set(k: usize) -> Vec<DefensePolicy> {
        vec![
            DefensePolicy::CoordinatedSeeds,
            DefensePolicy::OverlapCap {
                max_shared_fraction: 0.9,
            },
            DefensePolicy::CalibratedWiden { target_k: k },
        ]
    }

    /// Validates the policy against a scenario's core size (the maximum
    /// effective anonymity any calibration can guarantee is the shared
    /// core itself).
    pub(crate) fn validate(&self, core_size: usize) -> Result<()> {
        match *self {
            DefensePolicy::CoordinatedSeeds => Ok(()),
            DefensePolicy::OverlapCap {
                max_shared_fraction,
            } => {
                if !(0.0..=1.0).contains(&max_shared_fraction) {
                    return Err(CompositionError::InvalidConfig(format!(
                        "overlap cap {max_shared_fraction} outside [0, 1]"
                    )));
                }
                Ok(())
            }
            DefensePolicy::CalibratedWiden { target_k } => {
                if target_k == 0 {
                    return Err(CompositionError::InvalidConfig(
                        "calibrated widening needs target_k >= 1".into(),
                    ));
                }
                if target_k > core_size {
                    return Err(CompositionError::InvalidConfig(format!(
                        "calibrated widening to {target_k} exceeds the shared core of \
                         {core_size} rows (no widening can conjure candidates beyond it)"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// Per-source extras under [`DefensePolicy::OverlapCap`]: one seeded
/// shuffle of the non-core pool, a designated shared prefix of
/// `round(cap · extras_per_source)` rows common to every source, and
/// per-source disjoint slices of the remainder (truncated when the pool
/// runs out — a curator that cannot fill its quota without breaching the
/// cap publishes fewer rows). Construction depends only on `(s, seed)`,
/// never on the release count, so sweep cells over `R` stay comparable.
pub(crate) fn overlap_cap_extras(
    rest: &[usize],
    extras_per_source: usize,
    max_shared_fraction: f64,
    releases: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let mut pool = rest.to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0E1A_9CA9_05EE_D001);
    shuffle(&mut pool, &mut rng);
    let shared = ((extras_per_source as f64) * max_shared_fraction).round() as usize;
    let shared = shared.min(extras_per_source).min(pool.len());
    let own = extras_per_source - shared;
    (0..releases)
        .map(|s| {
            let mut extras = pool[..shared].to_vec();
            let lo = (shared + s * own).min(pool.len());
            let hi = (lo + own).min(pool.len());
            extras.extend(pool[lo..hi].iter().copied());
            extras
        })
        .collect()
}

/// Builds one source's partition under [`DefensePolicy::CoordinatedSeeds`]:
/// the shared core classes (given in master-row ids) mapped into the
/// source's local row space, plus the curator's own anonymization of its
/// extras. Every class is either a shared core class or an extras-only
/// class, so the partition satisfies `k` whenever both parts do.
pub(crate) fn coordinated_partition(
    core_classes_global: &[Vec<usize>],
    rows: &[usize],
    sub_table: &Table,
    anonymizer: &dyn Anonymizer,
    k: usize,
) -> Result<Partition> {
    let local_of: HashMap<usize, usize> = rows.iter().enumerate().map(|(l, &g)| (g, l)).collect();
    let mut in_core = vec![false; rows.len()];
    let mut classes: Vec<Vec<usize>> = Vec::with_capacity(core_classes_global.len());
    for class in core_classes_global {
        let local: Vec<usize> = class
            .iter()
            .map(|g| {
                local_of.get(g).copied().ok_or_else(|| {
                    CompositionError::InvalidConfig(format!(
                        "coordinated core row {g} missing from a source"
                    ))
                })
            })
            .collect::<Result<_>>()?;
        for &l in &local {
            in_core[l] = true;
        }
        classes.push(local);
    }
    let extras_local: Vec<usize> = (0..rows.len()).filter(|&l| !in_core[l]).collect();
    if !extras_local.is_empty() {
        let extra_table = sub_table.gather(&extras_local)?;
        let extra_partition = anonymizer.partition(&extra_table, k)?;
        classes.extend(
            extra_partition
                .classes()
                .iter()
                .map(|cl| cl.iter().map(|&i| extras_local[i]).collect::<Vec<_>>()),
        );
    }
    Partition::new(classes, rows.len()).map_err(Into::into)
}

/// Work counter: master rows probed by one calibration, summed over its
/// re-measures and unblock tallies.
const DEFENSE_PROBES: &str = "defense.probes";

/// One source's live classes during calibration: the validated class map
/// of [`map_classes`], relabelled in place as classes merge (a merged
/// class carries its lowest original class id), and each class's master
/// rows (empty once merged away).
struct Groups {
    class_of_master: Vec<u32>,
    members: Vec<Vec<u32>>,
}

impl Groups {
    fn new(source: &Source, source_idx: usize, n_master: usize, qi_cols: &[usize]) -> Result<Self> {
        let class_of_master = map_classes(source, source_idx, n_master, qi_cols)?.class_of_master;
        let mut members = vec![Vec::new(); source.partition.len()];
        for (g, &c) in class_of_master.iter().enumerate() {
            if c != ABSENT {
                members[c as usize].push(g as u32);
            }
        }
        Ok(Groups {
            class_of_master,
            members,
        })
    }

    /// The live class of master row `row`, `None` when the source lacks it.
    fn of(&self, row: usize) -> Option<usize> {
        match self.class_of_master[row] {
            ABSENT => None,
            c => Some(c as usize),
        }
    }

    /// Merges classes `a` and `b` under the lower id.
    fn merge(&mut self, a: usize, b: usize) {
        let (lo, hi) = (a.min(b), a.max(b));
        let moved = std::mem::take(&mut self.members[hi]);
        for &g in &moved {
            self.class_of_master[g as usize] = lo as u32;
        }
        self.members[lo].extend(moved);
    }
}

/// The master rows sharing `t`'s class in every source but `skip` that
/// holds `t`, found by probing the smallest such class with
/// [`consistent`]; `None` when no such source holds `t`. Adds the rows
/// probed to `probes`.
fn shared_rows<'a>(
    groups: &'a [Groups],
    t: usize,
    skip: Option<usize>,
    probes: &mut usize,
) -> Option<impl Iterator<Item = usize> + 'a> {
    let held = move || {
        groups
            .iter()
            .enumerate()
            .filter(move |&(s, _)| Some(s) != skip)
            .map(|(_, g)| g)
    };
    let probed = held()
        .filter_map(|g| g.of(t).map(|c| &g.members[c]))
        .min_by_key(|members| members.len())?;
    *probes += probed.len();
    Some(
        probed
            .iter()
            .map(|&r| r as usize)
            .filter(move |&r| consistent(held().map(|g| g.class_of_master.as_slice()), t, r)),
    )
}

/// [`DefensePolicy::CalibratedWiden`] applied in place: walks the core
/// targets and, while one still has fewer than `target_k` candidates,
/// performs **one** targeted merge at a time — in the source (and with
/// the neighbor class) that unblocks the most candidate rows, i.e. rows
/// every *other* release already allows but this source's class
/// excludes — re-measuring the target after every merge against the
/// live merged state. Merging only ever grows classes, so `k`-anonymity
/// is preserved, published feasible boxes only widen and candidate sets
/// only grow; growth is monotone, so once a target reaches the floor no
/// later merge can sink it back, one pass suffices, and in the limit
/// every source is one class whose intersection contains the whole core
/// — the loop provably terminates with `|∩ classes| ≥ target_k` for
/// every target (the scenario validation pins `target_k ≤ core size`).
/// The merge-measure-merge discipline keeps the widening near the
/// minimum the floor needs on small worlds; at 10k rows and more the
/// tie-break to the lowest source still grows source 0 into one class.
///
/// Each source keeps the intersection engine's class map (class per
/// master row, O(n)), relabelled in place on a merge, and a member list
/// per live class. A re-measure probes the members of the target's
/// smallest class against the other sources' maps, O(R·|class|); a
/// source's unblock tally probes the smallest of the *other* sources'
/// classes the same way, and scans the master table only when no other
/// source holds the target. Emits the rows probed as the
/// `defense.probes` work counter.
///
/// Returns the number of class merges performed (the widening budget the
/// calibration spent).
pub(crate) fn calibrate_widen(
    sources: &mut [Source],
    targets: &[usize],
    n_master: usize,
    target_k: usize,
) -> Result<usize> {
    let qi_cols = sources
        .first()
        .map(|s| s.table.quasi_identifier_columns())
        .unwrap_or_default();
    let mut groups: Vec<Groups> = sources
        .iter()
        .enumerate()
        .map(|(s, source)| Groups::new(source, s, n_master, &qi_cols))
        .collect::<Result<_>>()?;
    let total_classes: usize = sources.iter().map(|s| s.partition.len()).sum();
    let mut merges = 0usize;
    let mut probes = 0usize;

    for &t in targets {
        loop {
            // Candidates of t under the current merged state. Core
            // targets sit in every source; an absent target has no
            // classes to widen.
            let Some(candidates) = shared_rows(&groups, t, None, &mut probes) else {
                break;
            };
            if candidates.count() >= target_k {
                break;
            }
            // Best (rows unblocked, source, neighbor class): rows every
            // other release allows that sit in one mergeable class of
            // this source. Sources and classes are visited ascending and
            // only a strictly larger tally replaces the best, so ties
            // resolve to the lowest (source, class) and calibration is
            // deterministic.
            let mut best: Option<(usize, usize, usize)> = None;
            for (s, g) in groups.iter().enumerate() {
                let Some(own) = g.of(t) else {
                    continue;
                };
                let mut tally: BTreeMap<usize, usize> = BTreeMap::new();
                let mut unblock = |row: usize| {
                    if let Some(c) = g.of(row).filter(|&c| c != own) {
                        *tally.entry(c).or_insert(0) += 1;
                    }
                };
                match shared_rows(&groups, t, Some(s), &mut probes) {
                    Some(rows) => rows.for_each(&mut unblock),
                    None => {
                        probes += n_master;
                        (0..n_master).for_each(&mut unblock);
                    }
                }
                for (class, count) in tally {
                    if best.is_none_or(|(bc, _, _)| count > bc) {
                        best = Some((count, s, class));
                    }
                }
            }
            let chosen = best.map(|(_, s, class)| (s, class)).or_else(|| {
                // No single-source blocker (every missing row is blocked
                // by two or more releases): fall back to the first
                // source with something left to merge and take its
                // lowest other class — progress over precision, the next
                // iteration re-measures.
                groups.iter().enumerate().find_map(|(s, g)| {
                    let own = g.of(t)?;
                    (0..g.members.len())
                        .find(|&c| c != own && !g.members[c].is_empty())
                        .map(|c| (s, c))
                })
            });
            let Some((s, neighbor)) = chosen else {
                // Cannot happen when target_k <= core size (validated):
                // with every source single-class the intersection holds
                // the whole core. Bail loudly rather than loop forever
                // on a violated precondition.
                return Err(CompositionError::InvalidConfig(format!(
                    "calibration stalled below target_k = {target_k} with nothing left to merge"
                )));
            };
            let own = groups[s].of(t).expect("a merge source holds the target");
            groups[s].merge(own, neighbor);
            merges += 1;
            assert!(
                merges <= total_classes,
                "calibration exceeded its merge budget (internal invariant broken)"
            );
        }
    }
    fred_obs::counter(DEFENSE_PROBES, probes as u64);
    for (source, g) in sources.iter_mut().zip(&groups) {
        if g.members.iter().all(|m| !m.is_empty()) {
            continue;
        }
        // Rebuild: member classes concatenate in ascending original
        // index under their merged class, merged classes stay in
        // ascending order.
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); g.members.len()];
        for class in source.partition.classes() {
            let merged = g.class_of_master[source.global_rows[class[0]]] as usize;
            grouped[merged].extend(class.iter().copied());
        }
        grouped.retain(|class| !class.is_empty());
        source.partition = Partition::new(grouped, source.global_rows.len())?;
    }
    Ok(merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::intersect_releases;
    use crate::intersect::tests::{hand_source, master};
    use crate::scenario::{generate_scenario, ScenarioConfig};
    use fred_anon::{Mdav, Mondrian, QiStyle};
    use proptest::prelude::*;

    /// The definition-level calibration: [`calibrate_widen`]'s merge rule
    /// with every re-measure and every unblock tally a plain loop over
    /// all `n_master` rows, the tie-break spelled out, and each merge a
    /// relabel of the whole class map.
    fn calibrate_widen_reference(
        sources: &mut [Source],
        targets: &[usize],
        n_master: usize,
        target_k: usize,
    ) -> usize {
        let mut class: Vec<Vec<Option<usize>>> = sources
            .iter()
            .map(|source| {
                let mut of = vec![None; n_master];
                for (c, rows) in source.partition.classes().iter().enumerate() {
                    for &local in rows {
                        of[source.global_rows[local]] = Some(c);
                    }
                }
                of
            })
            .collect();
        // Whether row `r` shares `t`'s class in every source but `skip`
        // that holds `t`.
        let shares = |class: &[Vec<Option<usize>>], t: usize, r: usize, skip: Option<usize>| {
            (0..class.len())
                .all(|s| Some(s) == skip || class[s][t].is_none() || class[s][r] == class[s][t])
        };
        let mut merges = 0usize;
        for &t in targets {
            loop {
                if class.iter().all(|of| of[t].is_none()) {
                    break;
                }
                let count = (0..n_master)
                    .filter(|&r| shares(&class, t, r, None))
                    .count();
                if count >= target_k {
                    break;
                }
                let mut best: Option<(usize, usize, usize)> = None;
                for s in 0..class.len() {
                    let Some(own) = class[s][t] else {
                        continue;
                    };
                    let mut tally: HashMap<usize, usize> = HashMap::new();
                    for r in 0..n_master {
                        if let Some(c) = class[s][r] {
                            if c != own && shares(&class, t, r, Some(s)) {
                                *tally.entry(c).or_insert(0) += 1;
                            }
                        }
                    }
                    for (c, n) in tally {
                        if best.is_none_or(|(bn, bs, bc)| n > bn || (n == bn && (s, c) < (bs, bc)))
                        {
                            best = Some((n, s, c));
                        }
                    }
                }
                let (s, neighbor) = best
                    .map(|(_, s, c)| (s, c))
                    .or_else(|| {
                        (0..class.len()).find_map(|s| {
                            let own = class[s][t]?;
                            let other = class[s].iter().flatten().filter(|&&c| c != own).min();
                            other.map(|&c| (s, c))
                        })
                    })
                    .expect("target_k within the core always leaves a merge");
                let own = class[s][t].expect("the merge source holds the target");
                let (lo, hi) = (own.min(neighbor), own.max(neighbor));
                for label in class[s].iter_mut().filter(|l| **l == Some(hi)) {
                    *label = Some(lo);
                }
                merges += 1;
            }
        }
        for (source, of) in sources.iter_mut().zip(&class) {
            let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); source.partition.len()];
            for rows in source.partition.classes() {
                let merged = of[source.global_rows[rows[0]]].expect("a source holds its rows");
                grouped[merged].extend(rows.iter().copied());
            }
            grouped.retain(|rows| !rows.is_empty());
            source.partition = Partition::new(grouped, source.global_rows.len()).unwrap();
        }
        merges
    }

    /// Runs the calibration and its reference on copies of `sources` and
    /// returns (merges, partitions) of each, after checking the floor.
    fn both_widen(
        sources: &[Source],
        targets: &[usize],
        n_master: usize,
        target_k: usize,
    ) -> [(usize, Vec<Partition>); 2] {
        let mut fast = sources.to_vec();
        let merges = calibrate_widen(&mut fast, targets, n_master, target_k).unwrap();
        for inter in intersect_releases(&fast, targets, n_master, 64).unwrap() {
            if inter.sources_seen > 0 {
                assert!(inter.candidates() >= target_k, "{inter:?}");
            }
        }
        let mut reference = sources.to_vec();
        let reference_merges =
            calibrate_widen_reference(&mut reference, targets, n_master, target_k);
        let partitions = |s: &[Source]| s.iter().map(|s| s.partition.clone()).collect();
        [
            (merges, partitions(&fast)),
            (reference_merges, partitions(&reference)),
        ]
    }

    #[test]
    fn widen_holds_a_target_that_sits_in_one_source_only() {
        // Rows 0 and 1 sit in source 0 only; with no other source to
        // probe, the unblock tally scans the master table, and its 8 rows
        // end short of a 64-row word, so a row-set tally must not count
        // rows past the table.
        let table = master(8, 5);
        let sources = vec![
            hand_source(&table, &[&[0, 1], &[2, 3], &[4, 5]]),
            hand_source(&table, &[&[2, 4], &[3, 5], &[6, 7]]),
        ];
        let [fast, reference] = both_widen(&sources, &[0, 2], table.len(), 4);
        assert_eq!(fast, reference);
        let classes = |p: &Partition| p.classes().to_vec();
        assert_eq!(fast.0, 3);
        assert_eq!(classes(&fast.1[0]), vec![vec![0, 1, 2, 3, 4, 5]]);
        assert_eq!(classes(&fast.1[1]), vec![vec![0, 1, 2, 3], vec![4, 5]]);
        // A lone release widens against the whole table alone: target
        // 0's neighbors {2, 3} and {4, 5} tie at two rows and the lower
        // class wins.
        let [fast, _] = both_widen(&sources[..1], &[0], table.len(), 4);
        assert_eq!(classes(&fast.1[0]), vec![vec![0, 1, 2, 3], vec![4, 5]]);
        for target_k in 2..=6 {
            let [fast, reference] = both_widen(&sources[..1], &[0, 2, 4], table.len(), target_k);
            assert_eq!(fast, reference, "target_k={target_k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn widen_equals_its_row_scan_reference(
            size in 24usize..72,
            seed in 0u64..10_000,
            releases in 1usize..5,
            k in 2usize..6,
            target_pick in 0usize..1_000,
            style_pick in 0usize..3,
            mondrian in any::<bool>(),
        ) {
            let table = master(size, seed);
            let config = ScenarioConfig {
                releases,
                k,
                seed: seed ^ 0xCA1B,
                styles: [
                    vec![QiStyle::Range],
                    vec![QiStyle::Centroid],
                    vec![QiStyle::Range, QiStyle::Centroid],
                ][style_pick]
                    .clone(),
                ..ScenarioConfig::default()
            };
            let core = ((size as f64) * config.overlap).round() as usize;
            prop_assume!(core >= k);
            let target_k = k + target_pick % (core - k + 1);
            let scenario = if mondrian {
                generate_scenario(&table, &Mondrian::new(), &config)
            } else {
                generate_scenario(&table, &Mdav::new(), &config)
            }
            .unwrap();
            let [fast, reference] =
                both_widen(&scenario.sources, &scenario.targets, size, target_k);
            prop_assert_eq!(fast.0, reference.0, "merges at target_k={}", target_k);
            for (s, (a, b)) in fast.1.iter().zip(&reference.1).enumerate() {
                prop_assert_eq!(a, b, "source {} at target_k={}", s, target_k);
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DefensePolicy::CoordinatedSeeds.label(), "coordinated_seeds");
        assert_eq!(
            DefensePolicy::OverlapCap {
                max_shared_fraction: 0.9
            }
            .label(),
            "overlap_cap_0.90"
        );
        assert_eq!(
            DefensePolicy::CalibratedWiden { target_k: 5 }.label(),
            "calibrated_widen_k5"
        );
    }

    #[test]
    fn default_set_has_three_policies_calibrated_to_k() {
        let set = DefensePolicy::default_set(7);
        assert_eq!(set.len(), 3);
        assert!(set.contains(&DefensePolicy::CalibratedWiden { target_k: 7 }));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(DefensePolicy::OverlapCap {
            max_shared_fraction: 1.5
        }
        .validate(10)
        .is_err());
        assert!(DefensePolicy::CalibratedWiden { target_k: 0 }
            .validate(10)
            .is_err());
        assert!(DefensePolicy::CalibratedWiden { target_k: 11 }
            .validate(10)
            .is_err());
        assert!(DefensePolicy::CalibratedWiden { target_k: 10 }
            .validate(10)
            .is_ok());
        assert!(DefensePolicy::CoordinatedSeeds.validate(1).is_ok());
    }

    #[test]
    fn overlap_cap_extras_respects_the_cap_pairwise() {
        let rest: Vec<usize> = (0..40).collect();
        for cap in [0.0f64, 0.25, 0.5, 1.0] {
            let per = overlap_cap_extras(&rest, 10, cap, 3, 99);
            let shared = ((10.0 * cap).round()) as usize;
            for (i, a) in per.iter().enumerate() {
                assert!(a.len() <= 10);
                for b in per.iter().skip(i + 1) {
                    let overlap = a.iter().filter(|x| b.contains(x)).count();
                    assert!(overlap <= shared, "cap {cap}: overlap {overlap} > {shared}");
                }
            }
        }
        // Cap 0 on a tight pool: disjoint, truncated when exhausted.
        let rest: Vec<usize> = (0..12).collect();
        let per = overlap_cap_extras(&rest, 6, 0.0, 3, 7);
        assert_eq!(per[0].len(), 6);
        assert_eq!(per[1].len(), 6);
        assert!(per[2].is_empty(), "pool exhausted -> empty extras");
    }
}
