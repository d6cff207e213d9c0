//! The intersection engine: cross-referencing a target's equivalence
//! classes across independently anonymized releases.
//!
//! Releases retain identifiers (the enterprise requirement the paper's
//! attack rests on), so the adversary can locate a target's row in every
//! release. Each release then constrains the target twice over:
//!
//! * **candidate set** — the identities sharing the target's equivalence
//!   class. One release guarantees at least `k` of them; intersecting the
//!   classes across releases shrinks the set toward the target alone
//!   (Ganta, Kasiviswanathan & Smith's composition collapse). With S(t)
//!   the sources containing target `t`, the candidates are the master rows
//!   `r` with `class_s(r) = class_s(t)` for every `s ∈ S(t)`. A row may sit
//!   in more sources than the target and still qualify.
//! * **feasible box** — interval-style quasi-identifier summaries bound
//!   the target's true attribute vector; intersecting the boxes narrows
//!   the range every estimate is drawn from. Centroid-style summaries are
//!   points, not bounds, and contribute a hint instead.
//!
//! The engine runs in two phases: index each source once, then probe any
//! prefix of the indexes. `index_sources` validates the sources and
//! indexes each in O(n), the sources in parallel: a class per master row,
//! the class members as one CSR list (ascending within each class), and
//! every class's constraints in one flat list, summarized straight from
//! the source table by a [`fred_anon::ClassSummarizer`] — the cells every
//! row of the class carries in the release, which is never materialized.
//! The summarizer reads the source's quasi-identifiers once, into one
//! flat buffer, and folds every class from it. A source's index depends
//! only on the source and its position, so the composition of the first
//! `r` releases is `probe` over `&indexes[..r]`: the attack and the
//! sweeps index a scenario once and evaluate every release count from
//! it. The probe answers a target by probing the members of its smallest
//! class against the other sources' class maps — O(R·|class|) work, no
//! per-target scratch, candidates ascending by construction. Indexing
//! emits the classes summarized as the `intersect.summaries` work
//! counter, and each probe the probed class sizes summed over its
//! targets as `intersect.probes`. [`intersect_releases_tolerant`] is the
//! two phases in sequence. [`intersect_releases_sequential`] is the
//! definition-level oracle: it reads the constraints off each
//! materialized release and scans all `n` master rows per target instead.

use fred_anon::{build_release, ClassSummarizer};
use fred_data::{Interval, Value};
use fred_faults::{key2, key3, salt, Degradation, FaultPlan, InputDefect};
use rayon::prelude::*;

use crate::error::{CompositionError, Result};
use crate::scenario::Source;

/// Work counter: class members probed, summed over a call's targets.
const INTERSECT_PROBES: &str = "intersect.probes";

/// Work counter: class summaries computed, summed over a call's sources.
const INTERSECT_SUMMARIES: &str = "intersect.summaries";

/// Class-map sentinel for a master row absent from a source.
pub(crate) const ABSENT: u32 = u32::MAX;

/// One class's constraint on one quasi-identifier cell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellCon {
    /// Interval summary: the member's true value lies inside.
    Bound(Interval),
    /// Centroid summary: a point estimate, not a bound.
    Point(f64),
    /// No numeric constraint (categorical or suppressed summary).
    Free,
}

impl CellCon {
    fn from_value(v: &Value) -> CellCon {
        // Matches variants directly: `Value::as_interval` views scalars
        // as degenerate intervals, which would promote a centroid (a
        // point *estimate*) into a hard — and wrong — bound.
        match v {
            Value::Interval(iv) => CellCon::Bound(*iv),
            Value::Float(x) => CellCon::Point(*x),
            Value::Int(i) => CellCon::Point(*i as f64),
            _ => CellCon::Free,
        }
    }
}

/// Everything the intersection needs from one source, O(n) in size.
pub(crate) struct SourceIndex {
    /// Class index per master row ([`ABSENT`] when the row is absent).
    class_of_master: Vec<u32>,
    /// CSR offsets: class `c` owns `members[class_start[c]..class_start[c + 1]]`.
    class_start: Vec<u32>,
    /// Master rows grouped by class, ascending within each class.
    members: Vec<u32>,
    /// Per class, per quasi-identifier: the published constraint, class
    /// `c`'s at `class_cons[c * qi_len..(c + 1) * qi_len]`.
    class_cons: Vec<CellCon>,
    /// Quasi-identifiers per class in `class_cons`.
    qi_len: usize,
}

impl SourceIndex {
    /// The class of master row `row`, `None` when the source lacks it.
    fn class(&self, row: usize) -> Option<usize> {
        match self.class_of_master[row] {
            ABSENT => None,
            c => Some(c as usize),
        }
    }

    /// The master rows of `class`, ascending.
    fn members(&self, class: usize) -> &[u32] {
        &self.members[self.class_start[class] as usize..self.class_start[class + 1] as usize]
    }

    /// The published constraints of `class`, one per quasi-identifier.
    fn cons(&self, class: usize) -> &[CellCon] {
        &self.class_cons[class * self.qi_len..(class + 1) * self.qi_len]
    }
}

/// Applies the plan's chosen corruption flavor to one published
/// constraint: either NaN garbage (detected and imputed downstream) or
/// finite out-of-range inflation (harmless by construction — the
/// intersection always keeps the tighter bound, so an inflated interval
/// only loosens what this source contributes).
fn corrupt_con(con: CellCon, plan: &FaultPlan, site: u64) -> CellCon {
    if plan.pick(salt::CELL_FLAVOR, site, 2) == 0 {
        CellCon::Bound(Interval::point(f64::NAN))
    } else {
        match con {
            CellCon::Bound(iv) => {
                let pad = 1e3 * (iv.width() + 1.0);
                CellCon::Bound(Interval::new(iv.lo() - pad, iv.hi() + pad).expect("finite pad"))
            }
            CellCon::Point(x) => CellCon::Point(x + 1e9),
            CellCon::Free => CellCon::Free,
        }
    }
}

/// Validates a constraint read from a possibly-corrupt release cell:
/// non-finite bounds and points are defects; everything else passes.
fn checked_con(con: CellCon) -> std::result::Result<CellCon, InputDefect> {
    match con {
        CellCon::Bound(iv) if !(iv.lo().is_finite() && iv.hi().is_finite()) => {
            Err(InputDefect::NonFiniteValue)
        }
        CellCon::Point(x) if !x.is_finite() => Err(InputDefect::NonFiniteValue),
        ok => Ok(ok),
    }
}

/// One source's class maps, validated against the master table.
pub(crate) struct ClassMaps {
    /// Class index per release (local) row.
    class_of_local: Vec<usize>,
    /// Class index per master row ([`ABSENT`] when the row is absent).
    pub(crate) class_of_master: Vec<u32>,
}

/// Maps one source's rows to their classes. Malformed input is an
/// error, not a panic: a release, partition and master-id list of
/// different lengths, quasi-identifier columns other than `qi_cols`, a
/// release row mapped outside the master table, or the same master row
/// twice in one source.
pub(crate) fn map_classes(
    source: &Source,
    source_idx: usize,
    n_master: usize,
    qi_cols: &[usize],
) -> Result<ClassMaps> {
    let n = source.table.len();
    if source.partition.n_rows() != n || source.global_rows.len() != n {
        return Err(CompositionError::InvalidConfig(format!(
            "source {source_idx}: the release has {n} rows, its partition covers {} and {} \
             carry master ids",
            source.partition.n_rows(),
            source.global_rows.len()
        )));
    }
    if source.table.quasi_identifier_columns() != qi_cols {
        return Err(CompositionError::InvalidConfig(format!(
            "source {source_idx}: quasi-identifier columns differ from source 0's"
        )));
    }
    let class_of_local = source.partition.class_of_rows();
    let mut class_of_master = vec![ABSENT; n_master];
    for (local, &g) in source.global_rows.iter().enumerate() {
        let slot = class_of_master.get_mut(g).ok_or_else(|| {
            CompositionError::InvalidConfig(format!(
                "source {source_idx}: release row {local} maps to master row {g}, \
                 outside the {n_master}-row master table"
            ))
        })?;
        if *slot != ABSENT {
            return Err(CompositionError::InvalidConfig(format!(
                "source {source_idx}: master row {g} appears twice"
            )));
        }
        *slot = class_of_local[local] as u32;
    }
    Ok(ClassMaps {
        class_of_local,
        class_of_master,
    })
}

/// Builds one source's index from its validated class maps, summarizing
/// each class with a readable row once, straight from the source table.
/// Returns the index and the number of classes summarized.
///
/// Under a fault plan, release rows can go missing, class-summary cells
/// can arrive NaN (imputed as unconstrained and counted) or inflated
/// out-of-range (kept — narrowing makes it harmless), and chunks of the
/// release can arrive truncated. `chunk_rows` is that fault model's
/// chunk geometry: chunk `i` holds local rows `[i·chunk_rows,
/// (i+1)·chunk_rows)`, and a truncated chunk keeps only the first half of
/// its rows readable. A class keeps its constraint iff one of its rows
/// is readable and not dropped; otherwise its constraints are all
/// [`CellCon::Free`]. All skip-and-count into `deg`; under [`FaultPlan::none`] the
/// index is the strict one, independent of `chunk_rows`, and `deg`
/// stays clean.
fn index_source(
    source: &Source,
    source_idx: usize,
    maps: ClassMaps,
    qi_len: usize,
    chunk_rows: usize,
    plan: &FaultPlan,
    deg: &mut Degradation,
) -> (SourceIndex, usize) {
    let ClassMaps {
        class_of_local,
        mut class_of_master,
    } = maps;
    let mut dropped_local = vec![false; source.global_rows.len()];
    for (local, &g) in source.global_rows.iter().enumerate() {
        if plan.targets_row(g)
            || plan.decide(plan.row_drop, salt::RELEASE_ROW_DROP, key2(source_idx, g))
        {
            // The row never arrived: it constrains nothing and cannot
            // appear in any candidate set of this source.
            dropped_local[local] = true;
            class_of_master[g] = ABSENT;
            deg.record(InputDefect::MissingRow);
        }
    }

    // Counting sort by class over ascending master rows, so each class's
    // member slice is ascending.
    let n_classes = source.partition.len();
    let mut class_start = vec![0u32; n_classes + 1];
    for &c in &class_of_master {
        if c != ABSENT {
            class_start[c as usize + 1] += 1;
        }
    }
    for c in 0..n_classes {
        class_start[c + 1] += class_start[c];
    }
    let mut next = class_start.clone();
    let mut members = vec![0u32; class_start[n_classes] as usize];
    for (g, &c) in class_of_master.iter().enumerate() {
        if c != ABSENT {
            members[next[c as usize] as usize] = g as u32;
            next[c as usize] += 1;
        }
    }

    // Which classes published a readable row: the chunk geometry decides
    // which rows a truncation hides.
    let n = class_of_local.len();
    let chunk_rows = chunk_rows.max(1);
    let mut readable = vec![false; n_classes];
    for (chunk_idx, lo) in (0..n).step_by(chunk_rows).enumerate() {
        let len = chunk_rows.min(n - lo);
        let take = if plan.decide(
            plan.chunk_truncate,
            salt::CHUNK_TRUNCATE,
            key2(source_idx, chunk_idx),
        ) {
            deg.record(InputDefect::TruncatedChunk);
            len / 2
        } else {
            len
        };
        for local in lo..lo + take {
            if !dropped_local[local] {
                readable[class_of_local[local]] = true;
            }
        }
    }

    // Each readable class is summarized once, from one read of the
    // source's quasi-identifiers; the rest stay all-Free, which
    // `fold_cons` skips — count the imputed fields so the report reflects
    // the loss.
    let mut summarizer = ClassSummarizer::new(&source.table, source.style);
    let mut summarized = 0usize;
    let mut class_cons = Vec::with_capacity(n_classes * qi_len);
    let classes = source.partition.classes().iter().zip(&readable);
    for (class, (rows, &readable)) in classes.enumerate() {
        if !readable {
            for _ in 0..qi_len {
                deg.record(InputDefect::MissingField);
            }
            class_cons.resize(class_cons.len() + qi_len, CellCon::Free);
            continue;
        }
        summarized += 1;
        for (qi, value) in summarizer.summary(rows).iter().enumerate() {
            let mut con = CellCon::from_value(value);
            let site = key3(source_idx, class, qi);
            if plan.decide(plan.cell_corrupt, salt::CELL_CORRUPT, site) {
                con = corrupt_con(con, plan, site);
            }
            class_cons.push(checked_con(con).unwrap_or_else(|defect| {
                deg.record(defect);
                CellCon::Free
            }));
        }
    }
    let index = SourceIndex {
        class_of_master,
        class_start,
        members,
        class_cons,
        qi_len,
    };
    (index, summarized)
}

/// Rejects targets outside the master table.
fn check_targets(targets: &[usize], n_master: usize) -> Result<()> {
    match targets.iter().find(|&&t| t >= n_master) {
        Some(t) => Err(CompositionError::InvalidConfig(format!(
            "target row {t} is outside the {n_master}-row master table"
        ))),
        None => Ok(()),
    }
}

/// Validates the sources and indexes each once, in parallel. Any
/// malformed source ([`map_classes`]) is an error, the first in source
/// order. Every source is validated before any is faulted, so a failed
/// call leaves `deg` untouched. Each source records into its own report,
/// muted iff `deg` is, merged into `deg` in source order. Emits the
/// classes summarized, summed over the sources, as the
/// `intersect.summaries` work counter.
pub(crate) fn index_sources(
    sources: &[Source],
    n_master: usize,
    chunk_rows: usize,
    plan: &FaultPlan,
    deg: &mut Degradation,
) -> Result<Vec<SourceIndex>> {
    let first = sources.first().ok_or_else(|| {
        CompositionError::InvalidConfig("intersection needs at least one source".into())
    })?;
    if n_master > ABSENT as usize {
        return Err(CompositionError::InvalidConfig(format!(
            "{n_master} master rows do not fit the u32 row ids"
        )));
    }
    let qi_cols = first.table.quasi_identifier_columns();
    let maps = (0..sources.len())
        .into_par_iter()
        .map(|idx| map_classes(&sources[idx], idx, n_master, &qi_cols))
        .collect::<Result<Vec<_>>>()?;
    let blank = deg.empty_like();
    let indexed = maps
        .into_iter()
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(idx, maps)| {
            let mut own = blank;
            let (index, summarized) = index_source(
                &sources[idx],
                idx,
                maps,
                qi_cols.len(),
                chunk_rows,
                plan,
                &mut own,
            );
            (index, own, summarized)
        })
        .collect::<Vec<_>>();
    let mut summaries = 0usize;
    let indexes = indexed
        .into_iter()
        .map(|(index, own, summarized)| {
            deg.merge(&own);
            summaries += summarized;
            index
        })
        .collect();
    fred_obs::counter(INTERSECT_SUMMARIES, summaries as u64);
    Ok(indexes)
}

/// What the composition of all releases pins down about one target.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetIntersection {
    /// Master-table row of the target.
    pub master_row: usize,
    /// Master rows still consistent with every release's class of the
    /// target (ascending). Its length is the target's *effective*
    /// anonymity under composition — `>= k` for one release, collapsing
    /// toward 1 as releases accumulate.
    pub candidate_rows: Vec<u32>,
    /// Per-QI feasible interval (`None` = unconstrained by any release).
    pub feasible: Vec<Option<Interval>>,
    /// Per-QI mean of centroid observations, for sources publishing
    /// points instead of ranges.
    pub centroid_hint: Vec<Option<f64>>,
    /// Number of releases that contained the target.
    pub sources_seen: usize,
}

impl TargetIntersection {
    /// Effective anonymity: `|∩ classes|`.
    pub fn candidates(&self) -> usize {
        self.candidate_rows.len()
    }

    /// Mean width of the constrained QIs' feasible intervals; `None`
    /// when no release bounded any QI. Sums left to right without
    /// collecting the widths: scoring calls it once per row.
    pub fn mean_feasible_width(&self) -> Option<f64> {
        let bounded = self.feasible.iter().flatten();
        match bounded.clone().count() {
            0 => None,
            n => Some(bounded.map(Interval::width).sum::<f64>() / n as f64),
        }
    }
}

/// Narrows `cur` by `next`. Disjoint constraints cannot arise from
/// consistent releases (each interval contains the target's true value);
/// if a synthetic scenario produces them anyway, the adversary keeps the
/// tighter of the two.
fn narrow(cur: Interval, next: Interval) -> Interval {
    cur.intersect(&next)
        .unwrap_or(if next.width() < cur.width() {
            next
        } else {
            cur
        })
}

/// Folds one class's constraints into the running per-target state. The
/// engine and the oracle both fold in source order through here, so the
/// box-narrowing float sequence is identical by construction.
fn fold_cons(
    cons: &[CellCon],
    feasible: &mut [Option<Interval>],
    centroid_sum: &mut [f64],
    centroid_n: &mut [usize],
) {
    for (qi, con) in cons.iter().enumerate() {
        match *con {
            CellCon::Bound(iv) => {
                feasible[qi] = Some(match feasible[qi] {
                    None => iv,
                    Some(cur) => narrow(cur, iv),
                });
            }
            CellCon::Point(x) => {
                centroid_sum[qi] += x;
                centroid_n[qi] += 1;
            }
            CellCon::Free => {}
        }
    }
}

/// Whether master row `row` shares `target`'s class in every one of the
/// sources' class maps (class per master row) that contains the target.
pub(crate) fn consistent<'a>(
    class_maps: impl IntoIterator<Item = &'a [u32]>,
    target: usize,
    row: usize,
) -> bool {
    class_maps.into_iter().all(|class_of_master| {
        let class = class_of_master[target];
        class == ABSENT || class_of_master[row] == class
    })
}

/// The class maps of `indexes`, for [`consistent`].
fn class_maps(indexes: &[SourceIndex]) -> impl Iterator<Item = &[u32]> {
    indexes.iter().map(|ix| ix.class_of_master.as_slice())
}

/// The members of `target`'s smallest class over the sources containing
/// it (the first such source on ties); `None` when no source does.
fn probed_class(indexes: &[SourceIndex], target: usize) -> Option<&[u32]> {
    indexes
        .iter()
        .filter_map(|ix| ix.class(target).map(|c| ix.members(c)))
        .min_by_key(|members| members.len())
}

/// `target`'s candidates, ascending, by probing its smallest class.
fn candidates<'a>(
    indexes: &'a [SourceIndex],
    target: usize,
    probed: &'a [u32],
) -> impl Iterator<Item = u32> + 'a {
    probed
        .iter()
        .copied()
        .filter(move |&r| consistent(class_maps(indexes), target, r as usize))
}

/// One target's intersection, with the rows `candidate_rows` yields.
fn intersect_target(
    indexes: &[SourceIndex],
    target: usize,
    candidate_rows: impl FnOnce() -> Vec<u32>,
) -> TargetIntersection {
    let qi_len = indexes.first().map_or(0, |ix| ix.qi_len);
    let mut feasible: Vec<Option<Interval>> = vec![None; qi_len];
    let mut centroid_sum = vec![0.0f64; qi_len];
    let mut centroid_n = vec![0usize; qi_len];
    let mut seen = 0usize;
    for ix in indexes {
        if let Some(class) = ix.class(target) {
            fold_cons(
                ix.cons(class),
                &mut feasible,
                &mut centroid_sum,
                &mut centroid_n,
            );
            seen += 1;
        }
    }
    TargetIntersection {
        master_row: target,
        candidate_rows: if seen == 0 {
            Vec::new()
        } else {
            candidate_rows()
        },
        feasible,
        centroid_hint: (0..qi_len)
            .map(|qi| {
                if centroid_n[qi] > 0 {
                    Some(centroid_sum[qi] / centroid_n[qi] as f64)
                } else {
                    None
                }
            })
            .collect(),
        sources_seen: seen,
    }
}

/// Answers `targets` over the sources `indexes` — all of a call's
/// indexes or any prefix of them — each target by probing its smallest
/// class, the targets in parallel. Emits the probed class sizes, summed
/// over the targets, as the `intersect.probes` work counter. Output is
/// index-aligned with `targets`, which must lie inside the master table.
pub(crate) fn probe(indexes: &[SourceIndex], targets: &[usize]) -> Vec<TargetIntersection> {
    let mut probes = 0usize;
    let out = targets
        .par_iter()
        .map(|&t| {
            let probed = probed_class(indexes, t).unwrap_or_default();
            let inter = intersect_target(indexes, t, || candidates(indexes, t, probed).collect());
            (inter, probed.len())
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|(inter, probed)| {
            probes += probed;
            inter
        })
        .collect();
    fred_obs::counter(INTERSECT_PROBES, probes as u64);
    out
}

/// The intersection engine: indexes the sources in parallel, one summary
/// per class, then answers the targets in parallel by probing each one's
/// smallest class. Output is index-aligned with `targets` and equal to
/// [`intersect_releases_sequential`] (pinned by property test). It is
/// [`intersect_releases_tolerant`] under [`FaultPlan::none`] with a muted
/// report; `chunk_rows` is that fault model's chunk geometry, and strict
/// results never depend on it.
pub fn intersect_releases(
    sources: &[Source],
    targets: &[usize],
    n_master: usize,
    chunk_rows: usize,
) -> Result<Vec<TargetIntersection>> {
    let (plan, mut deg) = (FaultPlan::none(), Degradation::muted());
    intersect_releases_tolerant(sources, targets, n_master, chunk_rows, &plan, &mut deg)
}

/// Fault-tolerant [`intersect_releases`]: indexes every source under the
/// plan's release-level faults (missing rows, corrupt QI cells,
/// truncated chunks) with skip-and-count semantics, then runs the same
/// per-target probe. A chunk is `chunk_rows` consecutive release rows; a
/// truncated one hides the second half of its rows. Targets are
/// validated first, then the sources, so a failed call leaves `deg`
/// untouched; defects are recorded into the caller's `deg`. A target
/// dropped from every source degrades to an empty candidate set with no
/// feasible box — downstream fusion reads that as fully unconstrained —
/// and under a zero-rate plan the result is bit-identical to
/// [`intersect_releases`] with a clean report (pinned by property test).
pub fn intersect_releases_tolerant(
    sources: &[Source],
    targets: &[usize],
    n_master: usize,
    chunk_rows: usize,
    plan: &FaultPlan,
    deg: &mut Degradation,
) -> Result<Vec<TargetIntersection>> {
    check_targets(targets, n_master)?;
    let indexes = index_sources(sources, n_master, chunk_rows, plan, deg)?;
    Ok(probe(&indexes, targets))
}

/// Each class's constraints as the materialized release publishes them:
/// the quasi-identifier cells of the class's first row in
/// [`build_release`]`(..).table`, validated as the engine validates
/// them, class after class.
fn published_cons(source: &Source) -> Result<Vec<CellCon>> {
    let release = build_release(&source.table, &source.partition, source.k, source.style)?;
    let qi_cols = release.table.quasi_identifier_columns();
    Ok(release
        .partition
        .classes()
        .iter()
        .flat_map(|class| {
            let row = &release.table.rows()[class[0]];
            qi_cols
                .iter()
                .map(|&c| checked_con(CellCon::from_value(&row[c])).unwrap_or(CellCon::Free))
        })
        .collect())
}

/// The definition-level oracle: for every target, a plain scan of all
/// `n_master` rows that keeps those sharing the target's class in every
/// source containing it, with the constraints read off each source's
/// materialized release ([`build_release`], one per source, dropped
/// before the next) rather than the engine's class summaries. It shares
/// only the engine's class maps. No probing and no `intersect.probes`.
/// Kept public for equivalence property tests and output checks.
pub fn intersect_releases_sequential(
    sources: &[Source],
    targets: &[usize],
    n_master: usize,
    chunk_rows: usize,
) -> Result<Vec<TargetIntersection>> {
    check_targets(targets, n_master)?;
    let (plan, mut deg) = (FaultPlan::none(), Degradation::muted());
    let mut indexes = index_sources(sources, n_master, chunk_rows, &plan, &mut deg)?;
    for (ix, source) in indexes.iter_mut().zip(sources) {
        ix.class_cons = published_cons(source)?;
    }
    Ok(targets
        .iter()
        .map(|&t| {
            intersect_target(&indexes, t, || {
                (0..n_master)
                    .filter(|&r| consistent(class_maps(&indexes), t, r))
                    .map(|r| r as u32)
                    .collect()
            })
        })
        .collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::{generate_scenario, ScenarioConfig};
    use fred_anon::{Mdav, Partition, QiStyle};
    use fred_data::Table;
    use fred_synth::{customer_table, generate_population, CustomerConfig, PopulationConfig};

    pub(crate) fn master(n: usize, seed: u64) -> Table {
        let people = generate_population(&PopulationConfig {
            size: n,
            seed,
            ..PopulationConfig::default()
        });
        customer_table(&people, &CustomerConfig::default())
    }

    fn scenario(n: usize, releases: usize, k: usize) -> (Table, crate::CompositionScenario) {
        let table = master(n, 21);
        let s = generate_scenario(
            &table,
            &Mdav::new(),
            &ScenarioConfig {
                releases,
                k,
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        (table, s)
    }

    #[test]
    fn single_release_candidates_are_the_equivalence_class() {
        let (table, s) = scenario(60, 1, 4);
        let inters = intersect_releases(&s.sources, &s.targets, table.len(), 16).unwrap();
        for inter in &inters {
            // One release: the candidate set is exactly the k-anonymous
            // class, mapped to master rows.
            assert!(inter.candidates() >= 4, "{inter:?}");
            assert!(inter
                .candidate_rows
                .iter()
                .any(|&c| c as usize == inter.master_row));
            assert_eq!(inter.sources_seen, 1);
        }
    }

    #[test]
    fn candidates_shrink_with_more_releases() {
        let table = master(80, 3);
        let mean_candidates = |releases: usize| -> f64 {
            let s = generate_scenario(
                &table,
                &Mdav::new(),
                &ScenarioConfig {
                    releases,
                    k: 5,
                    ..ScenarioConfig::default()
                },
            )
            .unwrap();
            let inters = intersect_releases(&s.sources, &s.targets, table.len(), 32).unwrap();
            inters.iter().map(|i| i.candidates() as f64).sum::<f64>() / inters.len() as f64
        };
        let one = mean_candidates(1);
        let two = mean_candidates(2);
        let three = mean_candidates(3);
        assert!(one >= 5.0);
        assert!(two < one, "R=2 {two} !< R=1 {one}");
        // By R = 3 the candidate sets are already near-singleton at this
        // scale, so the tail of the curve may plateau — but never rise.
        assert!(three <= two, "R=3 {three} > R=2 {two}");
        assert!(three < one / 2.0, "composition barely collapsed: {three}");
    }

    #[test]
    fn target_always_survives_its_own_intersection() {
        let (table, s) = scenario(70, 3, 4);
        for inter in intersect_releases(&s.sources, &s.targets, table.len(), 8).unwrap() {
            assert!(
                inter
                    .candidate_rows
                    .iter()
                    .any(|&c| c as usize == inter.master_row),
                "target {} fell out of its own candidate set",
                inter.master_row
            );
            assert!(inter.candidates() >= 1);
            assert_eq!(inter.sources_seen, 3);
        }
    }

    #[test]
    fn feasible_boxes_contain_the_truth_and_shrink() {
        let (table, s) = scenario(60, 3, 5);
        let qi_cols = table.quasi_identifier_columns();
        let all = intersect_releases(&s.sources, &s.targets, table.len(), 16).unwrap();
        let one = intersect_releases(&s.sources[..1], &s.targets, table.len(), 16).unwrap();
        let mut shrunk = 0usize;
        for (ia, io) in all.iter().zip(&one) {
            for (qi, &c) in qi_cols.iter().enumerate() {
                let truth = table.rows()[ia.master_row][c].as_f64().unwrap();
                let box_all = ia.feasible[qi].expect("range style bounds every QI");
                let box_one = io.feasible[qi].expect("range style bounds every QI");
                assert!(box_all.contains(truth), "truth outside composed box");
                assert!(box_one.contains(truth), "truth outside single box");
                assert!(
                    box_all.width() <= box_one.width() + 1e-12,
                    "composition widened a box"
                );
                if box_all.width() < box_one.width() - 1e-12 {
                    shrunk += 1;
                }
            }
        }
        assert!(shrunk > 0, "composition never narrowed any box");
    }

    #[test]
    fn centroid_sources_contribute_hints_not_bounds() {
        let table = master(50, 9);
        let s = generate_scenario(
            &table,
            &Mdav::new(),
            &ScenarioConfig {
                releases: 2,
                k: 4,
                styles: vec![QiStyle::Centroid],
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        for inter in intersect_releases(&s.sources, &s.targets, table.len(), 16).unwrap() {
            assert!(inter.feasible.iter().all(Option::is_none));
            assert!(inter.centroid_hint.iter().all(Option::is_some));
            assert!(inter.mean_feasible_width().is_none());
        }
    }

    #[test]
    fn mean_feasible_width_equals_the_collected_mean() {
        // The formula it replaces: collect the widths, then sum them.
        let collected = |inter: &TargetIntersection| {
            let widths: Vec<f64> = inter
                .feasible
                .iter()
                .flatten()
                .map(Interval::width)
                .collect();
            (!widths.is_empty()).then(|| widths.iter().sum::<f64>() / widths.len() as f64)
        };
        let iv = |lo: f64, hi: f64| Some(Interval::new(lo, hi).unwrap());
        let boxes = [
            vec![],
            vec![None, None, None],
            vec![iv(0.0, 0.1), None, iv(0.2, 0.7)],
            vec![None, iv(-3.0, 1e16), iv(0.0, 0.1), iv(1.0, 1.0)],
            vec![iv(-0.0, 0.0)],
        ];
        for feasible in boxes {
            let inter = TargetIntersection {
                master_row: 0,
                candidate_rows: Vec::new(),
                centroid_hint: vec![None; feasible.len()],
                feasible,
                sources_seen: 1,
            };
            let (fast, slow) = (inter.mean_feasible_width(), collected(&inter));
            assert_eq!(fast.map(f64::to_bits), slow.map(f64::to_bits), "{inter:?}");
        }
        let (table, s) = scenario(60, 3, 4);
        for inter in intersect_releases(&s.sources, &every_row(&table), table.len(), 16).unwrap() {
            let (fast, slow) = (inter.mean_feasible_width(), collected(&inter));
            assert_eq!(fast.map(f64::to_bits), slow.map(f64::to_bits), "{inter:?}");
        }
    }

    #[test]
    fn parallel_engine_equals_sequential_reference() {
        let (table, s) = scenario(90, 3, 4);
        let fast = intersect_releases(&s.sources, &s.targets, table.len(), 16).unwrap();
        let reference =
            intersect_releases_sequential(&s.sources, &s.targets, table.len(), 16).unwrap();
        assert_eq!(fast, reference);
    }

    /// Every master row as a target: the core plus the rows some (or
    /// every) source lacks.
    fn every_row(table: &Table) -> Vec<usize> {
        (0..table.len()).collect()
    }

    #[test]
    fn engine_equals_row_scan_oracle_over_every_row() {
        let (table, s) = scenario(90, 3, 4);
        let rows = every_row(&table);
        assert!(
            rows.iter()
                .any(|&r| s.sources.iter().any(|src| !src.global_rows.contains(&r))),
            "the scenario has no row missing from a source"
        );
        for chunk_rows in [1usize, 16, 1024] {
            let fast = intersect_releases(&s.sources, &rows, table.len(), chunk_rows).unwrap();
            let oracle =
                intersect_releases_sequential(&s.sources, &rows, table.len(), chunk_rows).unwrap();
            assert_eq!(fast, oracle, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn engine_handles_mixed_styles() {
        let table = master(50, 9);
        let s = generate_scenario(
            &table,
            &Mdav::new(),
            &ScenarioConfig {
                releases: 2,
                k: 4,
                styles: vec![QiStyle::Centroid, QiStyle::Range],
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        let rows = every_row(&table);
        let fast = intersect_releases(&s.sources, &rows, table.len(), 16).unwrap();
        let oracle = intersect_releases_sequential(&s.sources, &rows, table.len(), 16).unwrap();
        assert_eq!(fast, oracle);
        for inter in fast.iter().filter(|i| i.sources_seen == 2) {
            assert!(inter.feasible.iter().all(Option::is_some));
            assert!(inter.centroid_hint.iter().all(Option::is_some));
        }
    }

    #[test]
    fn tolerant_engine_is_chunk_invariant_without_truncation() {
        // Row drops and cell corruption are keyed by (source, row) and
        // (source, class, qi), never by chunk, so only chunk truncation
        // may make the result depend on `chunk_rows`.
        let (table, s) = scenario(60, 2, 4);
        let plan = FaultPlan {
            chunk_truncate: 0.0,
            ..FaultPlan::uniform(37, 0.2)
        };
        let rows = every_row(&table);
        let run = |chunk_rows: usize| {
            let mut deg = Degradation::default();
            let inters = intersect_releases_tolerant(
                &s.sources,
                &rows,
                table.len(),
                chunk_rows,
                &plan,
                &mut deg,
            )
            .unwrap();
            (inters, deg)
        };
        let (baseline, deg) = run(7);
        assert!(deg.rows_skipped > 0, "{deg}");
        for chunk_rows in [1usize, 13, 1024] {
            assert_eq!(
                run(chunk_rows),
                (baseline.clone(), deg),
                "chunk_rows={chunk_rows}"
            );
        }
    }

    /// A source over `rows` of `table` whose classes are the given groups
    /// of master rows.
    pub(crate) fn hand_source(table: &Table, classes: &[&[usize]]) -> Source {
        let global_rows: Vec<usize> = classes.iter().flat_map(|c| c.iter().copied()).collect();
        let sub = Table::with_rows(
            table.schema().clone(),
            global_rows
                .iter()
                .map(|&g| table.rows()[g].clone())
                .collect(),
        )
        .unwrap();
        let mut local = 0usize;
        let partition = Partition::new(
            classes
                .iter()
                .map(|c| {
                    let class: Vec<usize> = (local..local + c.len()).collect();
                    local += c.len();
                    class
                })
                .collect(),
            global_rows.len(),
        )
        .unwrap();
        Source {
            global_rows,
            table: sub,
            partition,
            k: 2,
            style: QiStyle::Range,
        }
    }

    #[test]
    fn a_row_in_more_sources_than_the_target_is_still_a_candidate() {
        let table = master(8, 5);
        // Row 0 is in sources {0, 1}; row 1 is in {0, 1, 2} and shares
        // row 0's class wherever row 0 appears.
        let sources = vec![
            hand_source(&table, &[&[0, 1], &[2, 3]]),
            hand_source(&table, &[&[0, 1], &[4, 5]]),
            hand_source(&table, &[&[1, 2], &[3, 5]]),
        ];
        let inters = intersect_releases(&sources, &[0, 1, 6], table.len(), 4).unwrap();
        assert_eq!(inters[0].candidate_rows, vec![0, 1]);
        assert_eq!(inters[0].sources_seen, 2);
        // Source 2 separates row 0 from nothing (it lacks row 0) but
        // row 1's class there excludes row 0.
        assert_eq!(inters[1].candidate_rows, vec![1]);
        assert_eq!(inters[1].sources_seen, 3);
        // A row no source holds has no candidates.
        assert!(inters[2].candidate_rows.is_empty());
        assert_eq!(inters[2].sources_seen, 0);
        assert_eq!(
            inters,
            intersect_releases_sequential(&sources, &[0, 1, 6], table.len(), 4).unwrap()
        );
        let counts: Vec<usize> = inters.iter().map(TargetIntersection::candidates).collect();
        assert_eq!(counts, vec![2, 1, 0]);
    }

    /// Whether the strict engine and the tolerant one under a live fault
    /// plan both reject the call as invalid input.
    fn both_reject(sources: &[Source], targets: &[usize], n_master: usize) -> bool {
        let invalid = |r: Result<Vec<TargetIntersection>>| {
            matches!(r, Err(CompositionError::InvalidConfig(_)))
        };
        let plan = FaultPlan::uniform(3, 0.2);
        invalid(intersect_releases(sources, targets, n_master, 4))
            && invalid(intersect_releases_sequential(sources, targets, n_master, 4))
            && invalid(intersect_releases_tolerant(
                sources,
                targets,
                n_master,
                4,
                &plan,
                &mut Degradation::default(),
            ))
    }

    #[test]
    fn global_row_outside_the_master_table_is_rejected() {
        let table = master(8, 5);
        let mut source = hand_source(&table, &[&[0, 1], &[2, 3]]);
        source.global_rows[3] = table.len();
        assert!(both_reject(&[source], &[0], table.len()));
    }

    #[test]
    fn duplicate_master_row_within_a_source_is_rejected() {
        let table = master(8, 5);
        let mut source = hand_source(&table, &[&[0, 1], &[2, 3]]);
        source.global_rows[2] = 1;
        let sources = [source];
        assert!(both_reject(&sources, &[0], table.len()));
    }

    #[test]
    fn target_outside_the_master_table_is_rejected() {
        let table = master(8, 5);
        let sources = [hand_source(&table, &[&[0, 1], &[2, 3]])];
        assert!(both_reject(&sources, &[0, table.len()], table.len()));
        assert!(both_reject(&sources, &[table.len() + 7], table.len()));
    }

    #[test]
    fn release_partition_and_master_ids_of_different_lengths_are_rejected() {
        let table = master(8, 5);
        let source = hand_source(&table, &[&[0, 1], &[2, 3]]);
        let mut short_table = source.clone();
        short_table.table =
            Table::with_rows(table.schema().clone(), source.table.rows()[..3].to_vec()).unwrap();
        let mut long_table = source.clone();
        long_table.table = Table::with_rows(
            table.schema().clone(),
            (0..5).map(|g| table.rows()[g].clone()).collect(),
        )
        .unwrap();
        let mut short_ids = source.clone();
        short_ids.global_rows.pop();
        for bad in [short_table, long_table, short_ids] {
            let bad = [bad];
            assert!(both_reject(&bad, &[0], table.len()));
        }
    }

    #[test]
    fn sources_with_different_quasi_identifiers_are_rejected() {
        let table = master(8, 5);
        let source = hand_source(&table, &[&[0, 1], &[2, 3]]);
        let mut other = hand_source(&table, &[&[4, 5], &[6, 7]]);
        let qi = table.quasi_identifier_columns()[0];
        let schema = table
            .schema()
            .with_role(qi, fred_data::AttributeRole::Insensitive)
            .unwrap();
        other.table = Table::with_rows(schema, other.table.rows().to_vec()).unwrap();
        assert!(both_reject(&[source, other], &[0], table.len()));
    }

    /// The streamed indexing rule the summary index replaces: walk the
    /// rewritten release chunk by chunk, and let the first readable,
    /// undropped row of each class carry the class's constraints.
    fn streamed_cons(
        source: &Source,
        source_idx: usize,
        chunk_rows: usize,
        plan: &FaultPlan,
        deg: &mut Degradation,
    ) -> Vec<Vec<CellCon>> {
        let qi_cols = source.table.quasi_identifier_columns();
        let class_of_local = source.partition.class_of_rows();
        let dropped: Vec<bool> = source
            .global_rows
            .iter()
            .map(|&g| {
                plan.targets_row(g)
                    || plan.decide(plan.row_drop, salt::RELEASE_ROW_DROP, key2(source_idx, g))
            })
            .collect();
        for _ in dropped.iter().filter(|&&d| d) {
            deg.record(InputDefect::MissingRow);
        }
        let mut cons: Vec<Option<Vec<CellCon>>> = vec![None; source.partition.len()];
        let mut lo = 0usize;
        let chunks =
            fred_anon::Release::chunks(&source.table, &source.partition, source.style, chunk_rows);
        for (chunk_idx, chunk) in chunks.enumerate() {
            let chunk = chunk.unwrap();
            let take = if plan.decide(
                plan.chunk_truncate,
                salt::CHUNK_TRUNCATE,
                key2(source_idx, chunk_idx),
            ) {
                deg.record(InputDefect::TruncatedChunk);
                chunk.len() / 2
            } else {
                chunk.len()
            };
            for (i, row) in chunk.rows().iter().take(take).enumerate() {
                let class = class_of_local[lo + i];
                if dropped[lo + i] || cons[class].is_some() {
                    continue;
                }
                cons[class] = Some(
                    qi_cols
                        .iter()
                        .enumerate()
                        .map(|(qi, &c)| {
                            let mut con = CellCon::from_value(&row[c]);
                            let site = key3(source_idx, class, qi);
                            if plan.decide(plan.cell_corrupt, salt::CELL_CORRUPT, site) {
                                con = corrupt_con(con, plan, site);
                            }
                            checked_con(con).unwrap_or_else(|defect| {
                                deg.record(defect);
                                CellCon::Free
                            })
                        })
                        .collect(),
                );
            }
            lo += chunk.len();
        }
        cons.into_iter()
            .map(|c| {
                c.unwrap_or_else(|| {
                    for _ in &qi_cols {
                        deg.record(InputDefect::MissingField);
                    }
                    Vec::new()
                })
            })
            .collect()
    }

    #[test]
    fn summary_index_keeps_the_streamed_fault_geometry() {
        let table = master(90, 9);
        let s = generate_scenario(
            &table,
            &Mdav::new(),
            &ScenarioConfig {
                releases: 3,
                k: 4,
                styles: vec![QiStyle::Range, QiStyle::Centroid],
                ..ScenarioConfig::default()
            },
        )
        .unwrap();
        let plan = FaultPlan {
            chunk_truncate: 0.5,
            row_drop: 0.15,
            cell_corrupt: 0.3,
            ..FaultPlan::uniform(41, 0.0)
        };
        let mut lost_a_class = false;
        for chunk_rows in [1usize, 3, 7, 1024] {
            let mut deg = Degradation::default();
            let indexes =
                index_sources(&s.sources, table.len(), chunk_rows, &plan, &mut deg).unwrap();
            let mut streamed = Degradation::default();
            for (idx, (ix, source)) in indexes.iter().zip(&s.sources).enumerate() {
                let cons = streamed_cons(source, idx, chunk_rows, &plan, &mut streamed);
                // A class with no readable row constrains nothing.
                let lost = vec![CellCon::Free; ix.qi_len];
                for (class, cons) in cons.iter().enumerate() {
                    let expected = if cons.is_empty() { &lost } else { cons };
                    assert_eq!(
                        ix.cons(class),
                        expected.as_slice(),
                        "chunk_rows={chunk_rows} source {idx} class {class}"
                    );
                }
                assert_eq!(ix.class_cons.len(), cons.len() * ix.qi_len);
                lost_a_class |= cons.iter().any(Vec::is_empty);
            }
            assert_eq!(deg, streamed, "chunk_rows={chunk_rows}");
            assert!(
                deg.rows_skipped > 0 && deg.chunks_truncated > 0,
                "chunk_rows={chunk_rows}: {deg}"
            );
        }
        assert!(lost_a_class, "no class ever lost its every readable row");
    }

    #[test]
    fn probing_a_prefix_of_the_indexes_equals_intersecting_the_prefix() {
        // A source's index depends only on the source and its position,
        // faults included, so one indexing serves every release count.
        let (table, s) = scenario(80, 3, 4);
        let rows = every_row(&table);
        let plan = FaultPlan::uniform(43, 0.2);
        let mut deg = Degradation::default();
        let indexes = index_sources(&s.sources, table.len(), 16, &plan, &mut deg).unwrap();
        for r in 1..=3 {
            let mut prefix_deg = Degradation::default();
            let expected = intersect_releases_tolerant(
                &s.sources[..r],
                &rows,
                table.len(),
                16,
                &plan,
                &mut prefix_deg,
            )
            .unwrap();
            assert_eq!(probe(&indexes[..r], &rows), expected, "R = {r}");
            if r == 3 {
                assert_eq!(prefix_deg, deg);
            }
        }
        assert!(!deg.is_clean(), "nothing fired at 20%: {deg}");
    }

    #[test]
    fn chunk_size_does_not_change_the_result() {
        let (table, s) = scenario(60, 2, 4);
        let baseline = intersect_releases(&s.sources, &s.targets, table.len(), 7).unwrap();
        for chunk_rows in [1usize, 13, 1024] {
            let other =
                intersect_releases(&s.sources, &s.targets, table.len(), chunk_rows).unwrap();
            assert_eq!(other, baseline, "chunk_rows={chunk_rows}");
        }
    }

    #[test]
    fn tolerant_intersection_with_zero_rate_plan_is_bit_identical() {
        let (table, s) = scenario(70, 3, 4);
        let strict = intersect_releases(&s.sources, &s.targets, table.len(), 16).unwrap();
        let mut deg = Degradation::default();
        let tolerant = intersect_releases_tolerant(
            &s.sources,
            &s.targets,
            table.len(),
            16,
            &FaultPlan::none(),
            &mut deg,
        )
        .unwrap();
        assert_eq!(tolerant, strict);
        assert!(deg.is_clean(), "{deg}");
    }

    #[test]
    fn tolerant_intersection_survives_every_release_fault_at_once() {
        let (table, s) = scenario(80, 3, 5);
        let plan = FaultPlan::uniform(31, 0.2);
        let mut deg = Degradation::default();
        let inters =
            intersect_releases_tolerant(&s.sources, &s.targets, table.len(), 16, &plan, &mut deg)
                .unwrap();
        assert_eq!(inters.len(), s.targets.len());
        assert!(
            deg.rows_skipped > 0 || deg.fields_imputed > 0 || deg.chunks_truncated > 0,
            "nothing fired at 20%: {deg}"
        );
        for inter in &inters {
            // Degraded, never poisoned: every surviving box is finite.
            for iv in inter.feasible.iter().flatten() {
                assert!(iv.lo().is_finite() && iv.hi().is_finite(), "{inter:?}");
            }
            for hint in inter.centroid_hint.iter().flatten() {
                assert!(hint.is_finite());
            }
        }
        // Determinism: the same plan degrades identically.
        let mut deg_again = Degradation::default();
        let again = intersect_releases_tolerant(
            &s.sources,
            &s.targets,
            table.len(),
            16,
            &plan,
            &mut deg_again,
        )
        .unwrap();
        assert_eq!(again, inters);
        assert_eq!(deg_again, deg);
    }

    #[test]
    fn dropped_release_rows_leave_targets_unseen_not_poisoned() {
        let (table, s) = scenario(60, 2, 4);
        let plan = FaultPlan {
            row_drop: 0.5,
            ..FaultPlan::uniform(33, 0.0)
        };
        let mut deg = Degradation::default();
        let inters =
            intersect_releases_tolerant(&s.sources, &s.targets, table.len(), 16, &plan, &mut deg)
                .unwrap();
        assert!(deg.rows_skipped > 0);
        // With half the rows gone some targets see fewer sources; a
        // fully-dropped target has no candidates and no box, and a
        // surviving one has candidate sets no larger than the full run.
        let strict = intersect_releases(&s.sources, &s.targets, table.len(), 16).unwrap();
        for (t, f) in inters.iter().zip(&strict) {
            assert!(t.sources_seen <= f.sources_seen);
            if t.sources_seen == 0 {
                assert_eq!(t.candidates(), 0);
                assert!(t.feasible.iter().all(Option::is_none));
            }
        }
    }

    #[test]
    fn corrupt_cells_impute_instead_of_propagating_nan() {
        let (table, s) = scenario(60, 2, 4);
        let plan = FaultPlan {
            cell_corrupt: 1.0,
            ..FaultPlan::uniform(35, 0.0)
        };
        let mut deg = Degradation::default();
        let inters =
            intersect_releases_tolerant(&s.sources, &s.targets, table.len(), 16, &plan, &mut deg)
                .unwrap();
        // Every class summary cell was corrupted: roughly half NaN
        // (imputed and counted), half inflated (kept, finite).
        assert!(deg.fields_imputed > 0, "{deg}");
        for inter in &inters {
            for iv in inter.feasible.iter().flatten() {
                assert!(iv.lo().is_finite() && iv.hi().is_finite());
            }
        }
    }

    #[test]
    fn no_sources_errors() {
        assert!(matches!(
            intersect_releases(&[], &[0], 10, 8),
            Err(CompositionError::InvalidConfig(_))
        ));
    }
}
