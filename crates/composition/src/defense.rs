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
//!   all.
//!
//! Policies are threaded through [`crate::ScenarioConfig::defense`]; the
//! harness ([`crate::defense_sweep`], `repro --compose --defend`) reports
//! each policy's *residual* disclosure gain next to the undefended gain
//! plus the utility price of the widened boxes.

use std::collections::HashMap;

use fred_anon::{Anonymizer, Partition};
use fred_data::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{CompositionError, Result};
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
        let extra_rows: Vec<_> = extras_local
            .iter()
            .map(|&l| sub_table.rows()[l].clone())
            .collect();
        let extra_table = Table::with_rows(sub_table.schema().clone(), extra_rows)?;
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

/// Union-find root with path halving.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// One source's candidate geometry, derived from the partition alone (the
/// calibration never needs the published summaries): `class_of_master[g]`
/// is the class index of master row `g` (`u32::MAX` when absent from the
/// source) and `class_bits[c]` is class `c` as a bitset over master rows.
struct ClassBits {
    class_of_master: Vec<u32>,
    class_bits: Vec<Vec<u64>>,
}

fn master_class_bits(source: &Source, n_master: usize) -> ClassBits {
    let class_of_local = source.partition.class_of_rows();
    let words = n_master.div_ceil(64);
    let mut class_bits = vec![vec![0u64; words]; source.partition.len()];
    let mut class_of_master = vec![u32::MAX; n_master];
    for (local, &g) in source.global_rows.iter().enumerate() {
        let class = class_of_local[local];
        class_bits[class][g >> 6] |= 1u64 << (g & 63);
        class_of_master[g] = class as u32;
    }
    ClassBits {
        class_of_master,
        class_bits,
    }
}

/// Set master rows of `bits`.
fn iter_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + b)
        })
    })
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
/// minimum the floor needs instead of flattening whole releases.
///
/// Returns the number of class merges performed (the widening budget the
/// calibration spent).
pub(crate) fn calibrate_widen(
    sources: &mut [Source],
    targets: &[usize],
    n_master: usize,
    target_k: usize,
) -> Result<usize> {
    let words = n_master.div_ceil(64);
    let digests: Vec<ClassBits> = sources
        .iter()
        .map(|s| master_class_bits(s, n_master))
        .collect();
    let mut parents: Vec<Vec<usize>> = sources
        .iter()
        .map(|s| (0..s.partition.len()).collect())
        .collect();
    // Live candidate bitset per class root (meaningful at root indices
    // only); a union ORs the absorbed root into the surviving one.
    let mut root_bits: Vec<Vec<Vec<u64>>> = digests.iter().map(|d| d.class_bits.clone()).collect();
    let total_classes: usize = sources.iter().map(|s| s.partition.len()).sum();
    let mut merges = 0usize;
    let mut cand = vec![0u64; words];
    let mut others = vec![0u64; words];

    for &t in targets {
        loop {
            // Candidates of t under the current merged state.
            let mut seen = 0usize;
            for (s, digest) in digests.iter().enumerate() {
                let class = digest.class_of_master[t];
                if class == u32::MAX {
                    continue;
                }
                let root = find(&mut parents[s], class as usize);
                if seen == 0 {
                    cand.copy_from_slice(&root_bits[s][root]);
                } else {
                    for (w, &src) in cand.iter_mut().zip(&root_bits[s][root]) {
                        *w &= src;
                    }
                }
                seen += 1;
            }
            if seen == 0 {
                // Core targets sit in every source; an absent target has
                // no classes to widen.
                break;
            }
            if cand.iter().map(|w| w.count_ones() as usize).sum::<usize>() >= target_k {
                break;
            }
            // Best (rows unblocked, source, neighbor root): rows every
            // other release allows that sit in one mergeable class of
            // this source. Ties resolve to the lowest (source, root), so
            // calibration is deterministic.
            let mut best: Option<(usize, usize, usize)> = None;
            for (s, digest) in digests.iter().enumerate() {
                let class = digest.class_of_master[t];
                if class == u32::MAX {
                    continue;
                }
                let own_root = find(&mut parents[s], class as usize);
                others.iter_mut().for_each(|w| *w = !0u64);
                for (s2, other) in digests.iter().enumerate() {
                    if s2 == s {
                        continue;
                    }
                    let c2 = other.class_of_master[t];
                    if c2 == u32::MAX {
                        continue;
                    }
                    let r2 = find(&mut parents[s2], c2 as usize);
                    for (w, &src) in others.iter_mut().zip(&root_bits[s2][r2]) {
                        *w &= src;
                    }
                }
                // Clear the padding bits past n_master: with no other
                // source to AND against (a lone release, or a target
                // present in one source only) the all-ones seed would
                // survive into ghost rows beyond the table.
                let tail = n_master % 64;
                if tail != 0 {
                    if let Some(last) = others.last_mut() {
                        *last &= (1u64 << tail) - 1;
                    }
                }
                let mut tally: HashMap<usize, usize> = HashMap::new();
                for row in iter_bits(&others) {
                    let rc = digest.class_of_master[row];
                    if rc == u32::MAX {
                        continue;
                    }
                    let root = find(&mut parents[s], rc as usize);
                    if root != own_root {
                        *tally.entry(root).or_insert(0) += 1;
                    }
                }
                for (&root, &count) in &tally {
                    if best.is_none_or(|(bc, bs, br)| {
                        count > bc || (count == bc && (s, root) < (bs, br))
                    }) {
                        best = Some((count, s, root));
                    }
                }
            }
            let chosen = best.map(|(_, s, root)| (s, root)).or_else(|| {
                // No single-source blocker (every missing row is blocked
                // by two or more releases): fall back to the first
                // source with something left to merge and take its
                // lowest other root — progress over precision, the next
                // iteration re-measures.
                (0..sources.len()).find_map(|s| {
                    let class = digests[s].class_of_master[t];
                    if class == u32::MAX {
                        return None;
                    }
                    let own_root = find(&mut parents[s], class as usize);
                    (0..parents[s].len())
                        .find(|&c| find(&mut parents[s], c) != own_root)
                        .map(|root| (s, root))
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
            let a = find(&mut parents[s], digests[s].class_of_master[t] as usize);
            let b = find(&mut parents[s], neighbor);
            debug_assert_ne!(a, b, "merge candidates are distinct roots");
            let (lo, hi) = (a.min(b), a.max(b));
            parents[s][hi] = lo;
            let (low_slice, high_slice) = root_bits[s].split_at_mut(hi);
            for (w, &src) in low_slice[lo].iter_mut().zip(&high_slice[0]) {
                *w |= src;
            }
            merges += 1;
            assert!(
                merges <= total_classes,
                "calibration exceeded its merge budget (internal invariant broken)"
            );
        }
    }
    for (source, parent) in sources.iter_mut().zip(&mut parents) {
        let n_classes = source.partition.len();
        if (0..n_classes).all(|c| parent[c] == c) {
            continue;
        }
        // Rebuild: member classes concatenate in ascending original
        // index under their root, roots stay in ascending order.
        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
        for c in 0..n_classes {
            let root = find(parent, c);
            grouped[root].extend(source.partition.classes()[c].iter().copied());
        }
        let classes: Vec<Vec<usize>> = grouped.into_iter().filter(|g| !g.is_empty()).collect();
        source.partition = Partition::new(classes, source.global_rows.len())?;
    }
    Ok(merges)
}

#[cfg(test)]
mod tests {
    use super::*;

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
