//! MDAV microaggregation (Maximum Distance to Average Vector).
//!
//! This is the "microaggregation based k-anonymization proposed in \[9\]"
//! (Domingo-Ferrer) that the paper's experiments use as the
//! `Basic_Anonymization` procedure. MDAV builds clusters of exactly `k`
//! records around the two mutually most-distant extremes, repeating until
//! fewer than `3k` records remain; the leftovers form one or two final
//! clusters of size in `[k, 2k-1]`.
//!
//! Distances are computed on column-wise z-score-normalized
//! quasi-identifiers so that attributes with large scales do not dominate.

use crate::anonymizer::{dist2, normalize_columns, numeric_qi_matrix, Anonymizer};
use crate::error::Result;
use crate::partition::Partition;
use fred_data::{ShardPlan, Table};
use rayon::prelude::*;

/// Minimum number of active rows before a distance scan is worth
/// fanning out to worker threads. The rayon shim keeps a persistent
/// worker pool (no per-call thread spawn), so handoff costs a channel
/// send + condvar wait and fan-out pays from a few thousand rows.
const PAR_SCAN_MIN_ROWS: usize = 4 * 1024;

/// The MDAV microaggregation anonymizer.
#[derive(Debug, Clone, Default)]
pub struct Mdav {
    /// When `false`, distances use raw attribute scales. Defaults to `true`.
    skip_normalization: bool,
}

impl Mdav {
    /// Creates an MDAV anonymizer with z-score normalization (recommended).
    pub fn new() -> Self {
        Mdav {
            skip_normalization: false,
        }
    }

    /// Creates an MDAV anonymizer that clusters on raw attribute scales.
    pub fn without_normalization() -> Self {
        Mdav {
            skip_normalization: true,
        }
    }
}

impl Mdav {
    /// The straightforward MDAV loop the optimized
    /// [`partition`](Anonymizer::partition) is pinned against: recomputes
    /// the centroid from scratch every round and selects each cluster by
    /// fully sorting the candidate distances. Kept public so equivalence
    /// property tests (and future anonymizer rewrites) can diff against
    /// the known-good semantics.
    pub fn partition_reference(&self, table: &Table, k: usize) -> Result<Partition> {
        let mut matrix = numeric_qi_matrix(table, k)?;
        if !self.skip_normalization {
            normalize_columns(&mut matrix);
        }
        let n = matrix.len();
        let mut selected = vec![false; n];
        let classes = reference_classes(&matrix, (0..n).collect(), &mut selected, k);
        Partition::new(classes, n)
    }

    /// Hierarchical MDAV: the rows are first recursively split along the
    /// widest-spread quasi-identifier dimension into at most
    /// [`ShardPlan::shards`] leaves (each at least `3k` rows, so every
    /// leaf clusters exactly like a standalone MDAV run), then the
    /// optimized MDAV loop runs independently inside each leaf and the
    /// per-leaf classes are concatenated in deterministic leaf order —
    /// the bounded cross-shard "merge" is that concatenation. Distance
    /// scans therefore touch `n / leaves` rows instead of `n`, turning
    /// the O(n·rounds) flat loop into a per-shard loop.
    ///
    /// With a single-shard plan the split is a no-op and the result is
    /// bit-identical to [`partition`](Anonymizer::partition); for any
    /// plan it is pinned bit-identical to
    /// [`partition_hierarchical_reference`](Mdav::partition_hierarchical_reference)
    /// by property test (same ulp caveat as the flat pair).
    pub fn partition_hierarchical(
        &self,
        table: &Table,
        k: usize,
        plan: &ShardPlan,
    ) -> Result<Partition> {
        let mut matrix = numeric_qi_matrix(table, k)?;
        if !self.skip_normalization {
            normalize_columns(&mut matrix);
        }
        let n = matrix.len();
        let dims = matrix[0].len();
        let leaves = split_leaves(&matrix, (0..n).collect(), plan.shards(), k);
        let mut classes: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);
        for leaf in leaves {
            fred_obs::counter("mdav.leaves", 1);
            let mut flat = Vec::with_capacity(leaf.len() * dims);
            for &r in &leaf {
                flat.extend_from_slice(&matrix[r]);
            }
            for class in pool_classes(flat, leaf.len(), dims, k) {
                classes.push(class.into_iter().map(|local| leaf[local]).collect());
            }
        }
        Partition::new(classes, n)
    }

    /// The reference twin of [`partition_hierarchical`](Mdav::partition_hierarchical):
    /// identical leaf split, but each leaf runs the straightforward
    /// [`partition_reference`](Mdav::partition_reference) loop over its
    /// global row ids. Equivalence tests diff the two.
    pub fn partition_hierarchical_reference(
        &self,
        table: &Table,
        k: usize,
        plan: &ShardPlan,
    ) -> Result<Partition> {
        let mut matrix = numeric_qi_matrix(table, k)?;
        if !self.skip_normalization {
            normalize_columns(&mut matrix);
        }
        let n = matrix.len();
        let leaves = split_leaves(&matrix, (0..n).collect(), plan.shards(), k);
        let mut selected = vec![false; n];
        let mut classes: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);
        for leaf in leaves {
            classes.extend(reference_classes(&matrix, leaf, &mut selected, k));
        }
        Partition::new(classes, n)
    }
}

/// [`Mdav`] in hierarchical mode packaged as a drop-in [`Anonymizer`]:
/// the composition stack selects it for large sweeps where the flat
/// MDAV loop's full-pool distance scans dominate.
#[derive(Debug, Clone)]
pub struct HierarchicalMdav {
    inner: Mdav,
    plan: ShardPlan,
}

impl HierarchicalMdav {
    /// Hierarchical MDAV with z-score normalization, splitting into at
    /// most `plan.shards()` leaves.
    pub fn new(plan: ShardPlan) -> Self {
        HierarchicalMdav {
            inner: Mdav::new(),
            plan,
        }
    }

    /// The shard plan driving the leaf split.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }
}

impl Anonymizer for HierarchicalMdav {
    fn name(&self) -> &'static str {
        "mdav_hier"
    }

    fn partition(&self, table: &Table, k: usize) -> Result<Partition> {
        self.inner.partition_hierarchical(table, k, &self.plan)
    }
}

impl Anonymizer for Mdav {
    fn name(&self) -> &'static str {
        "mdav"
    }

    /// The optimized MDAV loop: quasi-identifiers live in one contiguous
    /// row-major buffer, the global centroid is maintained incrementally
    /// as clusters leave the pool, each cluster is selected with
    /// `select_nth_unstable` (O(n) expected) instead of a full sort, and
    /// removal is a swap-remove over a dense index set. Distance scans fan
    /// out across threads once the active pool is large enough.
    ///
    /// Ties are broken by row index everywhere (farthest scans pick the
    /// lowest-index maximum, nearest selection orders by `(distance, row)`),
    /// matching [`partition_reference`](Mdav::partition_reference); the
    /// equivalence is pinned by property test over random tables. One
    /// caveat: the incrementally maintained centroid can differ from the
    /// reference's fresh per-round fold by an ulp, so on *adversarially
    /// symmetric* normalized data (rows exactly equidistant from the pool
    /// centroid) the two implementations may break such a tie differently
    /// and produce different — equally valid — partitions. Continuous or
    /// raw-integer attribute data is unaffected (ties are measure-zero,
    /// and integer sums are exact in `f64`).
    fn partition(&self, table: &Table, k: usize) -> Result<Partition> {
        let mut matrix = numeric_qi_matrix(table, k)?;
        if !self.skip_normalization {
            normalize_columns(&mut matrix);
        }
        let n = matrix.len();
        let dims = matrix[0].len();
        let mut flat = Vec::with_capacity(n * dims);
        for row in &matrix {
            flat.extend_from_slice(row);
        }
        drop(matrix);
        let classes = pool_classes(flat, n, dims, k);
        Partition::new(classes, n)
    }
}

/// The optimized MDAV loop over a prepared flat point buffer: returns
/// classes of *local* ids `0..n` (the caller maps them back to table
/// rows when the buffer is a leaf subset).
fn pool_classes(flat: Vec<f64>, n: usize, dims: usize, k: usize) -> Vec<Vec<usize>> {
    let mut pool = ActivePool::new(flat, n, dims);
    let mut scored: Vec<(f64, u32)> = Vec::with_capacity(n);
    let mut centroid = vec![0.0f64; dims];
    let mut classes: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);

    while pool.len() >= 3 * k {
        fred_obs::counter("mdav.rounds", 1);
        pool.centroid_into(&mut centroid);
        let r = pool.farthest_from(&centroid);
        let cluster_r = pool.take_nearest(r, k, &mut scored, true);
        // `s`: the record farthest from `r` among what is left. The
        // scored buffer still holds every pre-removal distance to `r`,
        // so the scan is a reduce over it (skipping the rows just
        // removed) instead of a fresh distance pass.
        let s = pool.farthest_in_scored(&scored);
        let cluster_s = pool.take_nearest(s, k, &mut scored, false);
        classes.push(cluster_r);
        classes.push(cluster_s);
    }

    if pool.len() >= 2 * k {
        // Final stage: at most `3k - 1` rows remain, and with `k = 1`
        // the two leftovers are exactly equidistant from their
        // midpoint — a structural tie the incremental sum (off by an
        // ulp from the reference's fresh fold) would break the wrong
        // way. A fresh ascending-order fold is O(k·dims) here and
        // bit-identical to the reference by construction.
        pool.centroid_fresh_into(&mut centroid);
        let r = pool.farthest_from(&centroid);
        let cluster_r = pool.take_nearest(r, k, &mut scored, false);
        classes.push(cluster_r);
        classes.push(pool.drain_sorted());
    } else if !pool.is_empty() {
        classes.push(pool.drain_sorted());
    }

    classes
}

/// The straightforward MDAV loop over the row subset `remaining` of a
/// prepared (normalized) matrix. `selected` is an all-false scratch mask
/// of table size, restored before returning. Classes carry the global
/// row ids from `remaining`.
fn reference_classes(
    matrix: &[Vec<f64>],
    mut remaining: Vec<usize>,
    selected: &mut [bool],
    k: usize,
) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::with_capacity(remaining.len() / k + 1);

    while remaining.len() >= 3 * k {
        let centroid = centroid_of(matrix, &remaining);
        let r = farthest_from_point(matrix, &remaining, &centroid);
        let cluster_r = take_nearest(matrix, &mut remaining, selected, r, k);
        // `s`: the record farthest from `r` among what is left.
        let s = farthest_from_row(matrix, &remaining, &matrix[r]);
        let cluster_s = take_nearest(matrix, &mut remaining, selected, s, k);
        classes.push(cluster_r);
        classes.push(cluster_s);
    }

    if remaining.len() >= 2 * k {
        let centroid = centroid_of(matrix, &remaining);
        let r = farthest_from_point(matrix, &remaining, &centroid);
        let cluster_r = take_nearest(matrix, &mut remaining, selected, r, k);
        classes.push(cluster_r);
        classes.push(std::mem::take(&mut remaining));
    } else if !remaining.is_empty() {
        classes.push(std::mem::take(&mut remaining));
    }

    classes
}

/// Recursively splits `rows` into at most `parts` leaves for
/// hierarchical MDAV. Each split picks the dimension with the widest
/// value spread among the node's rows (ties to the lowest dimension),
/// orders the rows by `(value, row)` along it, and cuts proportionally
/// to the leaf budget of each side. A node stops splitting when its
/// budget reaches one leaf or when a cut would leave a side below `3k`
/// rows — so every leaf is big enough to run the full three-phase MDAV
/// loop, keeping per-leaf cluster sizes in the same `[k, 2k-1]` bounds
/// as a flat run. Leaves come back in deterministic left-to-right order
/// with their rows ascending (the fold order both MDAV loops assume).
fn split_leaves(matrix: &[Vec<f64>], rows: Vec<usize>, parts: usize, k: usize) -> Vec<Vec<usize>> {
    let mut leaves = Vec::with_capacity(parts);
    split_rec(matrix, rows, parts, 3 * k, &mut leaves);
    leaves
}

fn split_rec(
    matrix: &[Vec<f64>],
    rows: Vec<usize>,
    parts: usize,
    min_leaf: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if parts <= 1 || rows.len() < 2 * min_leaf {
        out.push(rows);
        return;
    }
    let dims = matrix[0].len();
    let (split_dim, _) = (0..dims)
        .map(|d| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &r in &rows {
                let v = matrix[r][d];
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (d, hi - lo)
        })
        .fold((0, f64::NEG_INFINITY), |best, cand| {
            if cand.1 > best.1 {
                cand
            } else {
                best
            }
        });
    let left_parts = parts / 2;
    let right_parts = parts - left_parts;
    let target_left = (rows.len() * left_parts / parts).clamp(min_leaf, rows.len() - min_leaf);
    let mut sorted = rows;
    sorted.sort_by(|&a, &b| {
        matrix[a][split_dim]
            .partial_cmp(&matrix[b][split_dim])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut right = sorted.split_off(target_left);
    let mut left = sorted;
    left.sort_unstable();
    right.sort_unstable();
    split_rec(matrix, left, left_parts, min_leaf, out);
    split_rec(matrix, right, right_parts, min_leaf, out);
}

/// The dense set of rows MDAV has not yet clustered. Points are kept
/// *compacted*: `pts[p*dims..]` is the point of `rows[p]`, and removal
/// swap-removes both in lockstep, so every distance scan streams over
/// contiguous memory. The per-dimension sum is maintained incrementally
/// so the global centroid never needs a full recompute.
struct ActivePool {
    dims: usize,
    /// Worker-thread budget for the parallel scans (cached once).
    width: usize,
    /// Compacted point storage, position-aligned with `rows`.
    pts: Vec<f64>,
    /// Active row ids, in arbitrary order (swap-remove).
    rows: Vec<u32>,
    /// `pos[row]` = index of `row` in `rows` (u32::MAX when removed).
    pos: Vec<u32>,
    /// Per-dimension sum over the active rows.
    sum: Vec<f64>,
}

/// Largest cluster size routed through the fused scan-and-select heap;
/// beyond this, `select_nth_unstable` over the scored buffer wins.
const TOP_K_HEAP_MAX: usize = 32;

/// Bounded k-smallest tracker under the `(distance, row)` total order:
/// a candidate enters only by beating the current worst member, so the
/// final contents are exactly the unique k-smallest set.
struct TopK {
    k: usize,
    items: Vec<(f64, u32)>,
    /// Index of the current worst (largest) member once full.
    worst: usize,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            items: Vec::with_capacity(k),
            worst: 0,
        }
    }

    #[inline]
    fn offer(&mut self, d: f64, r: u32) {
        if self.items.len() < self.k {
            self.items.push((d, r));
            if self.items.len() == self.k {
                self.find_worst();
            }
        } else {
            let (wd, wr) = self.items[self.worst];
            if d < wd || (d == wd && r < wr) {
                self.items[self.worst] = (d, r);
                self.find_worst();
            }
        }
    }

    fn find_worst(&mut self) {
        let mut wi = 0;
        for i in 1..self.items.len() {
            let (d, r) = self.items[i];
            let (wd, wr) = self.items[wi];
            if d > wd || (d == wd && r > wr) {
                wi = i;
            }
        }
        self.worst = wi;
    }

    fn into_vec(self) -> Vec<(f64, u32)> {
        self.items
    }
}

/// `(distance, row)` max under the reference tie rule: strictly greater
/// distance wins, equal distance goes to the lower row id. The rule is a
/// total order, so any scan order — sequential, chunked, or over a
/// permuted buffer — produces the same winner.
#[inline]
fn better(d: f64, r: u32, best_d: f64, best_r: u32) -> bool {
    d > best_d || (d == best_d && r < best_r)
}

impl ActivePool {
    fn new(flat: Vec<f64>, n: usize, dims: usize) -> Self {
        let mut sum = vec![0.0f64; dims];
        // Ascending-row fold: the first centroid matches the reference
        // implementation bit-for-bit.
        for r in 0..n {
            for (d, s) in sum.iter_mut().enumerate() {
                *s += flat[r * dims + d];
            }
        }
        ActivePool {
            dims,
            // Effective pool width (honors RAYON_NUM_THREADS) — ranges
            // split for more workers than exist would run sequentially.
            width: rayon::current_num_threads(),
            pts: flat,
            rows: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            sum,
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The point of an *active* row (by row id, through the position map).
    #[inline]
    fn point(&self, row: u32) -> &[f64] {
        let p = self.pos[row as usize] as usize;
        &self.pts[p * self.dims..(p + 1) * self.dims]
    }

    fn centroid_into(&self, out: &mut [f64]) {
        let len = self.rows.len() as f64;
        for (o, &s) in out.iter_mut().zip(&self.sum) {
            *o = s / len;
        }
    }

    /// Centroid recomputed from scratch in ascending row order — the
    /// exact fold the reference implementation performs.
    fn centroid_fresh_into(&self, out: &mut [f64]) {
        let mut sorted: Vec<u32> = self.rows.clone();
        sorted.sort_unstable();
        out.fill(0.0);
        for &r in &sorted {
            let point = self.point(r);
            for (o, &v) in out.iter_mut().zip(point) {
                *o += v;
            }
        }
        let len = self.rows.len() as f64;
        for o in out.iter_mut() {
            *o /= len;
        }
    }

    /// Id of the active row farthest from `point` (ties to the lowest id).
    fn farthest_from(&self, point: &[f64]) -> u32 {
        let reduce = |lo: usize, hi: usize| -> (f64, u32) {
            let mut best_d = -1.0;
            let mut best = self.rows[lo];
            for (p, chunk) in self.pts[lo * self.dims..hi * self.dims]
                .chunks_exact(self.dims)
                .enumerate()
            {
                let d = dist2(chunk, point);
                let r = self.rows[lo + p];
                if better(d, r, best_d, best) {
                    best_d = d;
                    best = r;
                }
            }
            (best_d, best)
        };
        let partials: Vec<(f64, u32)> = match self.par_ranges() {
            Some(ranges) => ranges
                .into_par_iter()
                .map(|range| reduce(range.start, range.end))
                .collect(),
            None => vec![reduce(0, self.rows.len())],
        };
        let mut best = partials[0];
        for &(d, r) in &partials[1..] {
            if better(d, r, best.0, best.1) {
                best = (d, r);
            }
        }
        best.1
    }

    /// Id of the not-yet-removed row with the maximal recorded distance in
    /// `scored` (ties to the lowest id): re-uses the distances-to-`r` scan
    /// of the preceding [`take_nearest`](Self::take_nearest) to pick the
    /// next anchor `s` without touching the point buffer again.
    fn farthest_in_scored(&self, scored: &[(f64, u32)]) -> u32 {
        let mut best_d = -1.0;
        let mut best = u32::MAX;
        for &(d, r) in scored {
            if self.pos[r as usize] != u32::MAX && better(d, r, best_d, best) {
                best_d = d;
                best = r;
            }
        }
        debug_assert!(best != u32::MAX, "scored held only removed rows");
        best
    }

    /// Removes `anchor` and its `k-1` nearest active neighbours,
    /// returning them ordered by `(distance, row)` exactly like the
    /// reference full-sort selection. When `keep_scored` is set, `scored`
    /// is left holding the pre-removal `(distance, row)` pair of *every*
    /// scanned row (the input to [`farthest_in_scored`](Self::farthest_in_scored)).
    ///
    /// Selection runs through a bounded worst-out heap fused into the
    /// distance scan for small `k` (one pass, no full materialization),
    /// falling back to `select_nth_unstable` over the scored buffer for
    /// large `k`. Both compute the unique k-smallest set under the
    /// `(distance, row)` total order, so the cluster is identical.
    fn take_nearest(
        &mut self,
        anchor: u32,
        k: usize,
        scored: &mut Vec<(f64, u32)>,
        keep_scored: bool,
    ) -> Vec<usize> {
        let anchor_point = self.point(anchor).to_vec();
        let cmp = |a: &(f64, u32), b: &(f64, u32)| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let mut selected: Vec<(f64, u32)>;
        if !keep_scored && k <= TOP_K_HEAP_MAX && self.rows.len() > k {
            // Fused scan + bounded selection: track the k best seen so
            // far; a candidate only enters if it beats the current worst.
            let mut heap = TopK::new(k);
            for (chunk, &r) in self.pts.chunks_exact(self.dims).zip(&self.rows) {
                heap.offer(dist2(chunk, &anchor_point), r);
            }
            selected = heap.into_vec();
            selected.sort_unstable_by(cmp);
        } else {
            scored.clear();
            match self.par_ranges() {
                Some(ranges) => {
                    let parts: Vec<Vec<(f64, u32)>> = ranges
                        .into_par_iter()
                        .map(|range| {
                            self.pts[range.start * self.dims..range.end * self.dims]
                                .chunks_exact(self.dims)
                                .enumerate()
                                .map(|(p, chunk)| {
                                    (dist2(chunk, &anchor_point), self.rows[range.start + p])
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect();
                    for part in parts {
                        scored.extend(part);
                    }
                }
                None => {
                    scored.extend(
                        self.pts
                            .chunks_exact(self.dims)
                            .zip(&self.rows)
                            .map(|(chunk, &r)| (dist2(chunk, &anchor_point), r)),
                    );
                }
            }
            if scored.len() > k {
                scored.select_nth_unstable_by(k - 1, cmp);
            }
            let take = k.min(scored.len());
            selected = scored[..take].to_vec();
            selected.sort_unstable_by(cmp);
        }
        let cluster: Vec<usize> = selected.iter().map(|&(_, r)| r as usize).collect();
        for &row in cluster.iter() {
            self.remove(row as u32);
        }
        cluster
    }

    fn remove(&mut self, row: u32) {
        let p = self.pos[row as usize] as usize;
        debug_assert!(p != u32::MAX as usize, "row removed twice");
        let last = self.rows.len() - 1;
        // Update the incremental sum from the still-valid point slot.
        {
            let base = p * self.dims;
            for (d, s) in self.sum.iter_mut().enumerate() {
                *s -= self.pts[base + d];
            }
        }
        // Swap-remove the id and its point in lockstep.
        self.rows.swap_remove(p);
        if p != last {
            let (head, tail) = self.pts.split_at_mut(last * self.dims);
            head[p * self.dims..(p + 1) * self.dims].copy_from_slice(&tail[..self.dims]);
            self.pos[self.rows[p] as usize] = p as u32;
        }
        self.pts.truncate(last * self.dims);
        self.pos[row as usize] = u32::MAX;
    }

    /// Removes every remaining row, returned in ascending row order (the
    /// order the reference implementation's retain-based pool preserves).
    fn drain_sorted(&mut self) -> Vec<usize> {
        let mut rest: Vec<usize> = self.rows.drain(..).map(|r| r as usize).collect();
        for &r in &rest {
            self.pos[r] = u32::MAX;
        }
        self.pts.clear();
        rest.sort_unstable();
        rest
    }

    /// Position ranges for a parallel distance scan, or `None` when the
    /// pool is too small (or the machine too narrow) for fan-out to pay.
    fn par_ranges(&self) -> Option<Vec<std::ops::Range<usize>>> {
        let n = self.rows.len();
        if self.width <= 1 || n < PAR_SCAN_MIN_ROWS {
            return None;
        }
        let chunk = n.div_ceil(self.width);
        Some(
            (0..n)
                .step_by(chunk)
                .map(|lo| lo..(lo + chunk).min(n))
                .collect(),
        )
    }
}

fn centroid_of(matrix: &[Vec<f64>], rows: &[usize]) -> Vec<f64> {
    let dims = matrix[0].len();
    let mut c = vec![0.0; dims];
    for &r in rows {
        for (d, v) in matrix[r].iter().enumerate() {
            c[d] += v;
        }
    }
    for v in &mut c {
        *v /= rows.len() as f64;
    }
    c
}

fn farthest_from_point(matrix: &[Vec<f64>], rows: &[usize], point: &[f64]) -> usize {
    let mut best = rows[0];
    let mut best_d = -1.0;
    for &r in rows {
        let d = dist2(&matrix[r], point);
        if d > best_d {
            best_d = d;
            best = r;
        }
    }
    best
}

fn farthest_from_row(matrix: &[Vec<f64>], rows: &[usize], anchor: &[f64]) -> usize {
    farthest_from_point(matrix, rows, anchor)
}

/// Removes `anchor` and its `k-1` nearest neighbours from `remaining`,
/// returning them as a cluster. `anchor` must be present in `remaining`.
/// `selected` is an all-false scratch mask of table size; it is restored
/// to all-false before returning, so one allocation serves every cluster
/// (the retain test is O(1) per row instead of an O(k) `contains` scan).
fn take_nearest(
    matrix: &[Vec<f64>],
    remaining: &mut Vec<usize>,
    selected: &mut [bool],
    anchor: usize,
    k: usize,
) -> Vec<usize> {
    // Sort candidates by distance to the anchor; ties broken by row index so
    // the algorithm is fully deterministic.
    let anchor_point = matrix[anchor].clone();
    let mut scored: Vec<(f64, usize)> = remaining
        .iter()
        .map(|&r| (dist2(&matrix[r], &anchor_point), r))
        .collect();
    scored.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let cluster: Vec<usize> = scored.iter().take(k).map(|&(_, r)| r).collect();
    for &r in &cluster {
        selected[r] = true;
    }
    remaining.retain(|&r| !selected[r]);
    for &r in &cluster {
        selected[r] = false;
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use fred_data::{Schema, Table, Value};

    fn numeric_table(points: &[(f64, f64)]) -> Table {
        let schema = Schema::builder()
            .quasi_numeric("x")
            .quasi_numeric("y")
            .build()
            .unwrap();
        Table::with_rows(
            schema,
            points
                .iter()
                .map(|&(x, y)| vec![Value::Float(x), Value::Float(y)])
                .collect(),
        )
        .unwrap()
    }

    fn linear_table(n: usize) -> Table {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 2.0 * i as f64)).collect();
        numeric_table(&pts)
    }

    #[test]
    fn cluster_sizes_bounded_by_k_and_2k_minus_1() {
        for n in [6usize, 7, 10, 23, 50] {
            for k in [2usize, 3, 5] {
                if n < k {
                    continue;
                }
                let t = linear_table(n);
                let p = Mdav::new().partition(&t, k).unwrap();
                assert!(p.satisfies_k(k), "n={n} k={k} violated k");
                assert!(
                    p.max_class_size() < 2 * k,
                    "n={n} k={k}: max class {} > 2k-1",
                    p.max_class_size()
                );
                assert_eq!(p.n_rows(), n);
            }
        }
    }

    #[test]
    fn k_equal_to_n_gives_single_class() {
        let t = linear_table(5);
        let p = Mdav::new().partition(&t, 5).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.max_class_size(), 5);
    }

    #[test]
    fn two_well_separated_blobs_are_separated() {
        let mut pts = Vec::new();
        for i in 0..4 {
            pts.push((i as f64 * 0.1, i as f64 * 0.1));
        }
        for i in 0..4 {
            pts.push((100.0 + i as f64 * 0.1, 100.0 + i as f64 * 0.1));
        }
        let t = numeric_table(&pts);
        let p = Mdav::new().partition(&t, 4).unwrap();
        assert_eq!(p.len(), 2);
        for class in p.classes() {
            let all_low = class.iter().all(|&r| r < 4);
            let all_high = class.iter().all(|&r| r >= 4);
            assert!(all_low || all_high, "cluster mixes blobs: {class:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let t = linear_table(20);
        let p1 = Mdav::new().partition(&t, 3).unwrap();
        let p2 = Mdav::new().partition(&t, 3).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn errors_bubble_up() {
        let t = linear_table(4);
        assert!(Mdav::new().partition(&t, 0).is_err());
        assert!(Mdav::new().partition(&t, 5).is_err());
    }

    #[test]
    fn without_normalization_uses_raw_scale() {
        // y spans a much wider range; without normalization it dominates,
        // with normalization both contribute equally. The two configs should
        // produce different clusterings on this adversarial layout.
        let pts = [(0.0, 0.0), (1.0, 1000.0), (0.1, 1000.0), (1.1, 0.0)];
        let t = numeric_table(&pts);
        let raw = Mdav::without_normalization().partition(&t, 2).unwrap();
        // Raw scale: rows pair by y (0 with 3, 1 with 2).
        let mut classes: Vec<Vec<usize>> = raw.classes().to_vec();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        assert_eq!(classes, vec![vec![0, 3], vec![1, 2]]);
    }

    /// Tie-free irregular points: a linear ramp with a large deterministic
    /// jitter, so no two rows are equidistant from any centroid. (On
    /// *exactly* symmetric layouts the optimized path's incrementally
    /// maintained centroid can differ from the reference's fresh sum by an
    /// ulp and break a distance tie the other way — real data has no such
    /// ties, and the equivalence proptest mirrors that.)
    fn jittered_table(n: usize) -> Table {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64 + jitter(), 2.0 * i as f64 + 3.0 * jitter()))
            .collect();
        numeric_table(&pts)
    }

    #[test]
    fn optimized_matches_reference_on_fixtures() {
        for n in [6usize, 7, 10, 23, 50, 101] {
            for k in [1usize, 2, 3, 5, 7] {
                if n < k {
                    continue;
                }
                let jt = jittered_table(n);
                for m in [Mdav::new(), Mdav::without_normalization()] {
                    let fast = m.partition(&jt, k).unwrap();
                    let reference = m.partition_reference(&jt, k).unwrap();
                    assert_eq!(fast, reference, "jittered n={n} k={k}");
                }
                // Integer-valued data without normalization: every sum and
                // difference is exact in f64, so even the tie-heavy linear
                // ramp must match bit-for-bit.
                let lt = linear_table(n);
                let m = Mdav::without_normalization();
                let fast = m.partition(&lt, k).unwrap();
                let reference = m.partition_reference(&lt, k).unwrap();
                assert_eq!(fast, reference, "linear n={n} k={k}");
            }
        }
    }

    #[test]
    fn identity_when_k_is_one() {
        let t = linear_table(4);
        let p = Mdav::new().partition(&t, 1).unwrap();
        assert!(p.satisfies_k(1));
        assert_eq!(p.n_rows(), 4);
        // k=1 MDAV still caps classes at 2k-1 = 1.
        assert_eq!(p.max_class_size(), 1);
    }

    use fred_data::ShardPlan;

    #[test]
    fn hierarchical_single_shard_is_flat() {
        let plan = ShardPlan::single();
        for n in [7usize, 23, 60] {
            for k in [1usize, 2, 4] {
                let t = jittered_table(n);
                let m = Mdav::new();
                assert_eq!(
                    m.partition_hierarchical(&t, k, &plan).unwrap(),
                    m.partition(&t, k).unwrap(),
                    "optimized n={n} k={k}"
                );
                assert_eq!(
                    m.partition_hierarchical_reference(&t, k, &plan).unwrap(),
                    m.partition_reference(&t, k).unwrap(),
                    "reference n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn hierarchical_optimized_matches_reference() {
        for n in [30usize, 81, 150] {
            for k in [2usize, 3, 5] {
                for shards in [2usize, 3, 4, 7] {
                    let plan = ShardPlan::new(shards, 11);
                    let t = jittered_table(n);
                    for m in [Mdav::new(), Mdav::without_normalization()] {
                        let fast = m.partition_hierarchical(&t, k, &plan).unwrap();
                        let reference = m.partition_hierarchical_reference(&t, k, &plan).unwrap();
                        assert_eq!(fast, reference, "n={n} k={k} shards={shards}");
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_cluster_sizes_stay_bounded() {
        for n in [24usize, 50, 120] {
            for k in [2usize, 3, 5] {
                for shards in [2usize, 4, 8] {
                    let plan = ShardPlan::new(shards, 3);
                    let t = jittered_table(n);
                    let p = Mdav::new().partition_hierarchical(&t, k, &plan).unwrap();
                    assert!(p.satisfies_k(k), "n={n} k={k} shards={shards} violated k");
                    assert!(
                        p.max_class_size() < 2 * k,
                        "n={n} k={k} shards={shards}: max class {} > 2k-1",
                        p.max_class_size()
                    );
                    assert_eq!(p.n_rows(), n);
                }
            }
        }
    }

    #[test]
    fn hierarchical_small_input_collapses_to_single_leaf() {
        // n < 6k: no cut can keep both sides at 3k, so the split is a
        // no-op and the result must equal the flat run exactly.
        let t = jittered_table(11);
        let plan = ShardPlan::new(8, 0);
        let m = Mdav::new();
        assert_eq!(
            m.partition_hierarchical(&t, 2, &plan).unwrap(),
            m.partition(&t, 2).unwrap()
        );
    }

    #[test]
    fn hierarchical_anonymizer_wrapper_delegates() {
        let plan = ShardPlan::new(3, 7);
        let t = jittered_table(40);
        let wrapped = HierarchicalMdav::new(plan);
        assert_eq!(wrapped.name(), "mdav_hier");
        assert_eq!(wrapped.plan().shards(), 3);
        assert_eq!(
            wrapped.partition(&t, 3).unwrap(),
            Mdav::new().partition_hierarchical(&t, 3, &plan).unwrap()
        );
    }

    #[test]
    fn split_leaves_cover_rows_exactly_once() {
        let t = jittered_table(90);
        let mut matrix = numeric_qi_matrix(&t, 3).unwrap();
        normalize_columns(&mut matrix);
        let leaves = split_leaves(&matrix, (0..90).collect(), 4, 3);
        assert!(leaves.len() <= 4 && !leaves.is_empty());
        let mut seen = [false; 90];
        for leaf in &leaves {
            assert!(leaf.len() >= 9, "leaf below 3k: {}", leaf.len());
            assert!(leaf.windows(2).all(|w| w[0] < w[1]), "leaf not ascending");
            for &r in leaf {
                assert!(!seen[r], "row {r} in two leaves");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some row missing from leaves");
    }
}
