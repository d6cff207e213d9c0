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
//!
//! The optimized loop keeps the unclustered rows in a static bucketed
//! kd-tree whose nodes carry live-row counts and live bounding boxes.
//! Each round makes four queries. The farthest row from the centroid is
//! read from a *shell*: the rows farthest from an earlier centroid, by
//! that distance descending, scanned only while the triangle inequality
//! (with a margin over float rounding) says a row could still reach the
//! best distance. The k nearest to `r`, the farthest from `r` and the k
//! nearest to `s` walk the tree and prune on box bounds. Every query
//! orders rows by the same `(distance, row)` total order as the
//! reference scan, so the partition is bit-identical to
//! [`Mdav::partition_reference`].
//!
//! MDAV has one body, a batch over tables behind
//! [`partition_all`](Anonymizer::partition_all). It prepares each table
//! (QI points, normalization, leaf split), then runs every `(table, leaf)`
//! pair as one task of a single flat parallel list, one kd-tree per leaf.
//! The body exposes the leaves at the top level because the rayon shim
//! runs a parallel call made from inside a worker inline: a caller that
//! fanned out over tables and let each table fan out over its leaves
//! would leave a worker idle whenever the tables do not divide evenly
//! among the workers. [`Mdav::partition_hierarchical`] is the body's
//! one-table call, a flat [`partition`](Anonymizer::partition) its
//! one-leaf run ([`ShardPlan::single`]), and [`Mdav::partition_reference`]
//! is the one-leaf run of the reference twin. Every MDAV run emits the
//! deterministic work counters `mdav.rounds`, `mdav.dist_evals` (row
//! distance evaluations, the shell's rebuilds included), `mdav.nodes_visited`
//! (kd-tree nodes the queries opened, the walk's bookkeeping),
//! `mdav.shell_rebuilds`, `mdav.shell_fallbacks` (centroid queries the
//! tree walk answered) and `mdav.leaves` once per table.

use crate::anonymizer::{dist2, Anonymizer, Points};
use crate::error::Result;
use crate::partition::Partition;
use fred_data::{ShardPlan, Table};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
        self.partition_hierarchical_reference(table, k, &ShardPlan::single())
    }

    /// Hierarchical MDAV: the rows are first recursively split along the
    /// widest-spread quasi-identifier dimension into at most
    /// [`ShardPlan::shards`] leaves (each at least `3k` rows, so every
    /// leaf clusters exactly like a standalone MDAV run), then the
    /// optimized MDAV loop runs independently inside each leaf and the
    /// per-leaf classes are concatenated in deterministic leaf order —
    /// the bounded cross-shard "merge" is that concatenation. The leaves
    /// cluster independently, so they run in parallel, one leaf per
    /// task, and each leaf's kd-tree holds `n / leaves` rows.
    ///
    /// This is the one-table call of the batched body behind
    /// [`partition_all`](Anonymizer::partition_all). With a single-shard
    /// plan the split is a no-op: that run is
    /// [`partition`](Anonymizer::partition). For any plan the result is
    /// pinned bit-identical to
    /// [`partition_hierarchical_reference`](Mdav::partition_hierarchical_reference)
    /// by property test (same ulp caveat as the flat pair).
    pub fn partition_hierarchical(
        &self,
        table: &Table,
        k: usize,
        plan: &ShardPlan,
    ) -> Result<Partition> {
        let mut partitions = self.partition_leaves(&[table], k, plan.shards())?;
        Ok(partitions.pop().expect("one partition per table"))
    }

    /// The one MDAV body. Each table is prepared on the pool (QI points,
    /// normalization, split into at most `parts` leaves); then every
    /// `(table, leaf)` pair runs the optimized loop as one task of a
    /// single flat parallel list, so a batch of tables keeps every worker
    /// busy even though a nested parallel call would run inline. Each
    /// table's classes are assembled in leaf order, and its work counters
    /// are emitted once per table.
    fn partition_leaves(
        &self,
        tables: &[&Table],
        k: usize,
        parts: usize,
    ) -> Result<Vec<Partition>> {
        let prepared: Vec<Prepared> = tables
            .par_iter()
            .map(|table| self.prepare(table, k, parts))
            .collect::<Result<_>>()?;
        let tasks: Vec<(usize, usize)> = prepared
            .iter()
            .enumerate()
            .flat_map(|(t, p)| (0..p.leaves.len()).map(move |l| (t, l)))
            .collect();
        // The order-preserving collect keeps the leaves in task order.
        let mut per_leaf = tasks
            .into_par_iter()
            .map(|(t, l)| leaf_classes(&prepared[t].points, &prepared[t].leaves[l], k))
            .collect::<Vec<_>>()
            .into_iter();
        prepared
            .iter()
            .map(|p| {
                let n = p.points.len();
                let mut classes: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);
                let mut work = Work::default();
                for (leaf_classes, leaf_work) in per_leaf.by_ref().take(p.leaves.len()) {
                    classes.extend(leaf_classes);
                    work.add(leaf_work);
                }
                work.emit(p.leaves.len());
                Partition::new(classes, n)
            })
            .collect()
    }

    /// A table's (normalized) QI points and its leaves.
    fn prepare(&self, table: &Table, k: usize, parts: usize) -> Result<Prepared> {
        let mut points = Points::numeric_qi(table, k)?;
        if !self.skip_normalization {
            points.normalize();
        }
        let leaves = split_leaves(&points, (0..points.len()).collect(), parts, k);
        Ok(Prepared { points, leaves })
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
        let Prepared { points, leaves } = self.prepare(table, k, plan.shards())?;
        let n = points.len();
        let mut selected = vec![false; n];
        let mut classes: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);
        for leaf in leaves {
            classes.extend(reference_classes(&points, leaf, &mut selected, k));
        }
        Partition::new(classes, n)
    }
}

/// [`Mdav`] in hierarchical mode packaged as a drop-in [`Anonymizer`]:
/// the composition stack selects it for large sweeps, where its
/// parallel leaves beat the flat loop's single tree (at 100k rows and
/// k = 5, ~0.1 s against ~0.3 s on two cores).
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

    /// Every table's leaves run as one flat parallel task list.
    fn partition_all(&self, tables: &[&Table], k: usize) -> Result<Vec<Partition>> {
        self.inner.partition_leaves(tables, k, self.plan.shards())
    }
}

impl Anonymizer for Mdav {
    fn name(&self) -> &'static str {
        "mdav"
    }

    /// The optimized MDAV loop over all rows: the one-leaf run of
    /// [`partition_hierarchical`](Mdav::partition_hierarchical). The
    /// unclustered rows live in a static bucketed kd-tree with live
    /// counts and live bounding boxes, and the global centroid `c` is
    /// maintained incrementally as clusters leave the pool. Each round
    /// makes four queries:
    ///
    /// * **farthest from `c`**, from the shell: the `⌈live / 8⌉` live rows
    ///   (at least 256) farthest from an anchor `a`, the centroid when
    ///   the shell was built, by `d(x, a)` descending. A row lies within
    ///   `d(x, a) + |c − a|` of `c`, so the scan stops once that reach,
    ///   inflated by a relative margin of `1e-9` over float rounding, is
    ///   strictly below the best distance; rows that could tie are still
    ///   compared. When the scan reaches the shell's end and the rows
    ///   left out could still reach the best, the shell is rebuilt around
    ///   `c` by O(live) selection; when even a fresh shell cannot certify
    ///   (more rows tie at the maximum than it holds), the tree walk
    ///   answers;
    /// * **the k nearest to `r`**, **farthest from `r`** among the
    ///   survivors, and **the k nearest to `s`**: kd-tree walks that prune
    ///   subtrees on box bounds instead of scanning every row.
    ///
    /// A pool of at most 1 024 rows is a single bucket, and every query
    /// scans it whole.
    ///
    /// Ties are broken by row index everywhere (farthest queries pick the
    /// lowest-index maximum, nearest selection orders by `(distance, row)`),
    /// and a subtree is pruned only when its bound is strictly worse than
    /// the current best, so the result matches
    /// [`partition_reference`](Mdav::partition_reference); the
    /// equivalence is pinned by property test over random tables. One
    /// caveat: the incrementally maintained centroid can differ from the
    /// reference's fresh per-round fold by an ulp, so on *adversarially
    /// symmetric* normalized data (rows exactly equidistant from the pool
    /// centroid) the two implementations may break such a tie differently
    /// and produce different — equally valid — partitions. Continuous or
    /// raw-integer attribute data is unaffected (ties are measure-zero,
    /// and integer sums are exact in `f64`).
    fn partition(&self, table: &Table, k: usize) -> Result<Partition> {
        self.partition_hierarchical(table, k, &ShardPlan::single())
    }

    /// One task per table: each is a single leaf.
    fn partition_all(&self, tables: &[&Table], k: usize) -> Result<Vec<Partition>> {
        self.partition_leaves(tables, k, 1)
    }
}

/// A table made ready for the leaf loop by [`Mdav::partition_leaves`].
struct Prepared {
    /// The (normalized) QI points, one per table row.
    points: Points,
    /// Ascending table rows of each leaf, in leaf order.
    leaves: Vec<Vec<usize>>,
}

/// Deterministic work tallies of the optimized MDAV loop. They are summed
/// locally and emitted once per call, not once per round: every
/// `fred_obs::counter` call takes the collector's lock.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    rounds: u64,
    dist_evals: u64,
    nodes_visited: u64,
    shell_rebuilds: u64,
    shell_fallbacks: u64,
}

impl Work {
    fn add(&mut self, other: Work) {
        self.rounds += other.rounds;
        self.dist_evals += other.dist_evals;
        self.nodes_visited += other.nodes_visited;
        self.shell_rebuilds += other.shell_rebuilds;
        self.shell_fallbacks += other.shell_fallbacks;
    }

    /// Emits one table's tallies, with the number of leaves it ran.
    fn emit(self, leaves: usize) {
        fred_obs::counter("mdav.rounds", self.rounds);
        fred_obs::counter("mdav.dist_evals", self.dist_evals);
        fred_obs::counter("mdav.nodes_visited", self.nodes_visited);
        fred_obs::counter("mdav.shell_rebuilds", self.shell_rebuilds);
        fred_obs::counter("mdav.shell_fallbacks", self.shell_fallbacks);
        fred_obs::counter("mdav.leaves", leaves as u64);
    }
}

/// Runs the optimized loop over one leaf (ascending table rows of the
/// prepared `points`) and returns its classes in table row ids.
fn leaf_classes(points: &Points, leaf: &[usize], k: usize) -> (Vec<Vec<usize>>, Work) {
    let dims = points.dims;
    let mut flat = Vec::with_capacity(leaf.len() * dims);
    for &r in leaf {
        flat.extend_from_slice(points.row(r));
    }
    let (local, work) = pool_classes(flat, leaf.len(), dims, k);
    let classes = local
        .into_iter()
        .map(|class| class.into_iter().map(|l| leaf[l]).collect())
        .collect();
    (classes, work)
}

/// The optimized MDAV loop over a prepared flat point buffer: returns
/// classes of *local* ids `0..n` (the caller maps them back to table
/// rows when the buffer is a leaf subset) and the loop's work tallies.
/// Each round makes four queries: farthest from the centroid (from the
/// shell), k-nearest to `r`, farthest from `r` among the survivors, and
/// k-nearest to `s` (tree walks).
fn pool_classes(flat: Vec<f64>, n: usize, dims: usize, k: usize) -> (Vec<Vec<usize>>, Work) {
    let mut pool = ActivePool::new(flat, n, dims);
    let mut centroid = vec![0.0f64; dims];
    let mut anchor = vec![0.0f64; dims];
    let mut classes: Vec<Vec<usize>> = Vec::with_capacity(n / k + 1);
    let mut rounds = 0u64;

    while pool.len() >= 3 * k {
        rounds += 1;
        pool.centroid_into(&mut centroid);
        let r = pool.farthest_from_centroid(&centroid);
        anchor.copy_from_slice(pool.point(r));
        let cluster_r = pool.take_nearest(&anchor, k);
        // `s`: the record farthest from `r` among what is left.
        let s = pool.farthest_from(&anchor);
        anchor.copy_from_slice(pool.point(s));
        let cluster_s = pool.take_nearest(&anchor, k);
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
        let r = pool.farthest_from_centroid(&centroid);
        anchor.copy_from_slice(pool.point(r));
        let cluster_r = pool.take_nearest(&anchor, k);
        classes.push(cluster_r);
        classes.push(pool.live_rows_sorted());
    } else if !pool.is_empty() {
        classes.push(pool.live_rows_sorted());
    }

    let work = Work {
        rounds,
        dist_evals: pool.dist_evals,
        nodes_visited: pool.nodes_visited,
        shell_rebuilds: pool.shell_rebuilds,
        shell_fallbacks: pool.shell_fallbacks,
    };
    (classes, work)
}

/// The straightforward MDAV loop over the row subset `remaining` of
/// prepared (normalized) points. `selected` is an all-false scratch mask
/// of table size, restored before returning. Classes carry the global
/// row ids from `remaining`.
fn reference_classes(
    points: &Points,
    mut remaining: Vec<usize>,
    selected: &mut [bool],
    k: usize,
) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::with_capacity(remaining.len() / k + 1);

    while remaining.len() >= 3 * k {
        let centroid = centroid_of(points, &remaining);
        let r = farthest_from_point(points, &remaining, &centroid);
        let cluster_r = take_nearest(points, &mut remaining, selected, r, k);
        // `s`: the record farthest from `r` among what is left.
        let s = farthest_from_row(points, &remaining, points.row(r));
        let cluster_s = take_nearest(points, &mut remaining, selected, s, k);
        classes.push(cluster_r);
        classes.push(cluster_s);
    }

    if remaining.len() >= 2 * k {
        let centroid = centroid_of(points, &remaining);
        let r = farthest_from_point(points, &remaining, &centroid);
        let cluster_r = take_nearest(points, &mut remaining, selected, r, k);
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
/// to the leaf budget of each side. The cut is found by selection, not
/// by sorting: the row at the cut rank is the pivot, and one
/// order-preserving pass sends every row ordered before it left, so a
/// level costs O(n). A node stops splitting when its budget reaches one
/// leaf or when a cut would leave a side below `3k` rows — so every leaf
/// is big enough to run the full three-phase MDAV loop, keeping per-leaf
/// cluster sizes in the same `[k, 2k-1]` bounds as a flat run. Leaves
/// come back in deterministic left-to-right order with their rows
/// ascending (the fold order both MDAV loops assume).
fn split_leaves(points: &Points, rows: Vec<usize>, parts: usize, k: usize) -> Vec<Vec<usize>> {
    let mut leaves = Vec::with_capacity(parts);
    split_rec(points, rows, parts, 3 * k, &mut leaves);
    leaves
}

fn split_rec(
    points: &Points,
    rows: Vec<usize>,
    parts: usize,
    min_leaf: usize,
    out: &mut Vec<Vec<usize>>,
) {
    if parts <= 1 || rows.len() < 2 * min_leaf {
        out.push(rows);
        return;
    }
    let split_dim = widest_dim(points, &rows);
    let left_parts = parts / 2;
    let right_parts = parts - left_parts;
    let target_left = (rows.len() * left_parts / parts).clamp(min_leaf, rows.len() - min_leaf);
    let key = |r: usize| (points.get(r, split_dim), r);
    let mut keys: Vec<(f64, usize)> = rows.iter().map(|&r| key(r)).collect();
    let (_, &mut pivot, _) = keys.select_nth_unstable_by(target_left, split_order);
    drop(keys);
    // Keys are distinct (the row breaks every tie), so exactly
    // `target_left` rows order before the pivot; `rows` is ascending and
    // both sides keep that order.
    let mut left = Vec::with_capacity(target_left);
    let mut right = Vec::with_capacity(rows.len() - target_left);
    for r in rows {
        if split_order(&key(r), &pivot).is_lt() {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    split_rec(points, left, left_parts, min_leaf, out);
    split_rec(points, right, right_parts, min_leaf, out);
}

/// The quasi-identifier dimension with the widest value spread among
/// `rows` (ties to the lowest dimension).
fn widest_dim(points: &Points, rows: &[usize]) -> usize {
    let (split_dim, _) = (0..points.dims)
        .map(|d| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &r in rows {
                let v = points.get(r, d);
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
    split_dim
}

/// The leaf split's `(value, row)` order: `partial_cmp` on the value, so
/// `-0.0` and `0.0` compare equal, then the row id.
fn split_order(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Rows per kd-tree bucket.
const BUCKET: usize = 16;

/// Largest pool kept as a single bucket, where every query is a plain
/// compacted scan. On 3-dimensional data most buckets of a small tree lie
/// on the pool's hull, so a farthest-point walk opens nearly all of them
/// and the tree's bounds and bookkeeping cost more than they save.
/// Measured single-threaded over k = 2..16 on 91-level review-score data,
/// the scan is ~30% faster at 120 rows and ~10% faster at 1,000; the two
/// tie near 2,000, and the tree is ~1.8x faster at 8,000.
const SCAN_ROWS: usize = 1024;

/// The shell of the centroid query holds this share of the live rows
/// (one in `SHELL_SHARE`), and at least `SHELL_MIN` of them. A share, not
/// a fixed size: rebuilds are O(live) each, and a fixed-size shell would
/// need one every few rounds, which makes the loop quadratic.
const SHELL_SHARE: usize = 8;
const SHELL_MIN: usize = 256;

/// Relative margin of the shell's triangle-inequality reach over float
/// rounding: each distance fold and square root is off by a few ulps
/// (about `1e-16` each), far below this.
const SHELL_MARGIN: f64 = 1e-9;

/// One node of the [`ActivePool`] kd-tree.
struct Node {
    /// The node's rows sit at tree positions `start..end`; a bucket keeps
    /// its live rows compacted at `start..start + live`.
    start: u32,
    end: u32,
    /// First child; the second is `left + 1`. Zero marks a bucket (the
    /// root is nobody's child).
    left: u32,
    parent: u32,
    /// Rows under the node not yet clustered.
    live: u32,
}

/// The rows MDAV has not yet clustered, held in a static bucketed kd-tree
/// over their points. The tree is built once per pool. Removing a row
/// swap-removes it to the dead tail of its bucket, decrements the live
/// counts on its path to the root and re-tightens that path's bounding
/// boxes to the live rows, so every query prunes whole subtrees on box
/// bounds and reads a few buckets instead of the whole pool. A pool of
/// one bucket is a plain compacted scan. The per-dimension sum is
/// maintained incrementally so the global centroid never needs a full
/// recompute, and the shell answers the query from the centroid.
struct ActivePool {
    dims: usize,
    /// Points in tree order: `pts[p*dims..]` is the point of `ids[p]`.
    pts: Vec<f64>,
    ids: Vec<u32>,
    /// `pos[row]` = tree position of `row`.
    pos: Vec<u32>,
    /// Bucket node holding each tree position.
    bucket: Vec<u32>,
    nodes: Vec<Node>,
    /// Live bounding box of node `i`: the low corner at `boxes[2*i*dims..]`,
    /// the high corner right after it. A node without live rows holds the
    /// empty box (+∞, −∞) and is skipped before it is ever bounded. The
    /// root is never pruned, so its box is never computed.
    boxes: Vec<f64>,
    /// Per-dimension sum over the live rows.
    sum: Vec<f64>,
    live: usize,
    /// Query scratch: pending `(node, bound)` pairs of the k-nearest
    /// walk, and the pending nodes of the farthest walk.
    stack: Vec<(u32, f64)>,
    heap: BinaryHeap<Pending>,
    /// Refit scratch: one box, and the buckets a cluster's removal touched.
    fit: Vec<f64>,
    touched: Vec<u32>,
    /// The shell of [`farthest_from_centroid`](Self::farthest_from_centroid):
    /// `(distance to the anchor, row)` of the rows that were farthest
    /// from `anchor` when it was built, by distance ascending (scans run
    /// from the end). Rows clustered since are skipped when met.
    shell: Vec<(f64, u32)>,
    /// The largest anchor distance among the live rows the shell left
    /// out, or `None` when it holds every live row. Rows only leave the
    /// pool, so it stays an upper bound until the next rebuild.
    shell_rest: Option<f64>,
    anchor: Vec<f64>,
    /// Row distance evaluations made by queries so far.
    dist_evals: u64,
    /// Tree nodes queries have opened so far (inner nodes whose children
    /// were bounded, and buckets that were scanned).
    nodes_visited: u64,
    /// Shells built, and centroid queries a fresh shell could not
    /// certify (answered by the tree walk instead).
    shell_rebuilds: u64,
    shell_fallbacks: u64,
}

/// A kd-tree node awaiting a farthest-point walk, keyed by the upper
/// bound of its distances (a max-heap pops the most promising first).
struct Pending(f64, u32);

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(other.1.cmp(&self.1))
    }
}

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

    /// Whether no row at distance `bound` or more can enter: the set is
    /// full and `bound` is strictly above its worst distance. At equality
    /// a lower row id could still displace the worst member.
    #[inline]
    fn beyond(&self, bound: f64) -> bool {
        self.items.len() == self.k && bound > self.items[self.worst].0
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
/// total order, so any visiting order — a flat scan or a tree walk —
/// produces the same winner.
#[inline]
fn better(d: f64, r: u32, best_d: f64, best_r: u32) -> bool {
    d > best_d || (d == best_d && r < best_r)
}

/// Reorders `rows` (a kd-tree node's point ids) so that the first `cut`
/// go to the left child, and returns `cut`. The split is the sliding
/// midpoint of the widest dimension, whose cells stay near-cubic where
/// the data are sparse (it reads fewer buckets per farthest-point query
/// than a median split). When the midpoint leaves fewer than a quarter
/// of the rows on one side, the cut slides to that quarter instead, so
/// skewed data cannot deepen the tree past `log4/3(n)` levels.
fn split_point(flat: &[f64], dims: usize, rows: &mut [u32]) -> usize {
    let value = |r: u32, d: usize| flat[r as usize * dims + d];
    let mut widest = (0, 0.0, f64::NEG_INFINITY);
    for d in 0..dims {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &r in rows.iter() {
            lo = lo.min(value(r, d));
            hi = hi.max(value(r, d));
        }
        if hi - lo > widest.2 {
            widest = (d, lo, hi - lo);
        }
    }
    let (dim, lo, spread) = widest;
    let mid = lo + spread / 2.0;
    let mut cut = 0;
    for t in 0..rows.len() {
        if value(rows[t], dim) < mid {
            rows.swap(t, cut);
            cut += 1;
        }
    }
    let (min_cut, max_cut) = (rows.len() / 4, rows.len() * 3 / 4);
    if cut < min_cut || cut > max_cut {
        cut = cut.clamp(min_cut, max_cut);
        rows.select_nth_unstable_by(cut, |&a, &b| value(a, dim).total_cmp(&value(b, dim)));
    }
    cut
}

impl ActivePool {
    fn new(flat: Vec<f64>, n: usize, dims: usize) -> Self {
        let mut sum = vec![0.0f64; dims];
        // Ascending-row fold: the first centroid matches the reference
        // implementation bit-for-bit.
        for point in flat.chunks_exact(dims) {
            for (s, &v) in sum.iter_mut().zip(point) {
                *s += v;
            }
        }
        // Split breadth-first (see `split_point`) until every bucket
        // holds at most `BUCKET` rows, unless the whole pool is small
        // enough to scan. Children are pushed after their parent, so a
        // reverse sweep over `nodes` meets every child before its parent.
        let leaf_rows = if n > SCAN_ROWS { BUCKET } else { n };
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut nodes = vec![Node {
            start: 0,
            end: n as u32,
            left: 0,
            parent: 0,
            live: n as u32,
        }];
        let mut i = 0;
        while i < nodes.len() {
            let (start, end) = (nodes[i].start, nodes[i].end);
            if (end - start) as usize > leaf_rows {
                let rows = &mut ids[start as usize..end as usize];
                let cut = split_point(&flat, dims, rows);
                nodes[i].left = nodes.len() as u32;
                let cut = start + cut as u32;
                for (s, e) in [(start, cut), (cut, end)] {
                    nodes.push(Node {
                        start: s,
                        end: e,
                        left: 0,
                        parent: i as u32,
                        live: e - s,
                    });
                }
            }
            i += 1;
        }
        let mut pts = Vec::with_capacity(n * dims);
        let mut pos = vec![0u32; n];
        for (p, &row) in ids.iter().enumerate() {
            let r = row as usize;
            pts.extend_from_slice(&flat[r * dims..(r + 1) * dims]);
            pos[r] = p as u32;
        }
        let mut bucket = vec![0u32; n];
        for (i, node) in nodes.iter().enumerate() {
            if node.left == 0 {
                bucket[node.start as usize..node.end as usize].fill(i as u32);
            }
        }
        let mut pool = ActivePool {
            dims,
            pts,
            ids,
            pos,
            bucket,
            boxes: vec![0.0; nodes.len() * 2 * dims],
            nodes,
            sum,
            live: n,
            stack: Vec::new(),
            heap: BinaryHeap::new(),
            fit: Vec::with_capacity(2 * dims),
            touched: Vec::new(),
            shell: Vec::new(),
            // An unbounded rest: the first centroid query builds the shell.
            shell_rest: Some(f64::INFINITY),
            anchor: vec![0.0; dims],
            dist_evals: 0,
            nodes_visited: 0,
            shell_rebuilds: 0,
            shell_fallbacks: 0,
        };
        for i in (1..pool.nodes.len()).rev() {
            pool.refit(i);
        }
        pool
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The point of the live row `row`.
    #[inline]
    fn point(&self, row: u32) -> &[f64] {
        let p = self.pos[row as usize] as usize;
        &self.pts[p * self.dims..(p + 1) * self.dims]
    }

    fn centroid_into(&self, out: &mut [f64]) {
        let len = self.live as f64;
        for (o, &s) in out.iter_mut().zip(&self.sum) {
            *o = s / len;
        }
    }

    /// Centroid recomputed from scratch in ascending row order — the
    /// exact fold the reference implementation performs.
    fn centroid_fresh_into(&self, out: &mut [f64]) {
        out.fill(0.0);
        for r in self.live_rows_sorted() {
            for (o, &v) in out.iter_mut().zip(self.point(r as u32)) {
                *o += v;
            }
        }
        let len = self.live as f64;
        for o in out.iter_mut() {
            *o /= len;
        }
    }

    /// The live box of node `i` as its `(low, high)` corners.
    #[inline]
    fn bounds(&self, i: usize) -> (&[f64], &[f64]) {
        self.boxes[2 * i * self.dims..2 * (i + 1) * self.dims].split_at(self.dims)
    }

    /// Upper bound on the `dist2` from `q` to any live row under node `i`:
    /// `dist2`'s own per-dimension fold over the farther box face. Float
    /// rounding is monotone, so no live row's computed distance exceeds it.
    fn max_dist2(&self, i: usize, q: &[f64]) -> f64 {
        let (lo, hi) = self.bounds(i);
        lo.iter()
            .zip(hi)
            .zip(q)
            .map(|((&l, &h), &x)| ((l - x) * (l - x)).max((h - x) * (h - x)))
            .sum()
    }

    /// Lower bound on the `dist2` from `q` to any live row under node `i`,
    /// through the box point nearest to `q` (exact-safe like
    /// [`max_dist2`](Self::max_dist2)).
    fn min_dist2(&self, i: usize, q: &[f64]) -> f64 {
        let (lo, hi) = self.bounds(i);
        lo.iter()
            .zip(hi)
            .zip(q)
            .map(|((&l, &h), &x)| {
                let c = x.clamp(l, h);
                (c - x) * (c - x)
            })
            .sum()
    }

    /// Id of the live row farthest from `q` (ties to the lowest id).
    /// Nodes are opened best-first by upper bound, and the walk stops
    /// once the largest pending bound is strictly below the best
    /// distance, so rows tied with the best are always compared.
    fn farthest_from(&mut self, q: &[f64]) -> u32 {
        let mut best = (-1.0, u32::MAX);
        let (mut evals, mut visited) = (0u64, 0u64);
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        heap.push(Pending(f64::INFINITY, 0));
        while let Some(Pending(bound, i)) = heap.pop() {
            if bound < best.0 {
                break;
            }
            visited += 1;
            let node = &self.nodes[i as usize];
            if node.left == 0 {
                let live = node.start as usize..(node.start + node.live) as usize;
                let pts = &self.pts[live.start * self.dims..live.end * self.dims];
                for (point, &r) in pts.chunks_exact(self.dims).zip(&self.ids[live]) {
                    let d = dist2(point, q);
                    if better(d, r, best.0, best.1) {
                        best = (d, r);
                    }
                }
                evals += node.live as u64;
                continue;
            }
            for c in [node.left, node.left + 1] {
                if self.nodes[c as usize].live > 0 {
                    let bound = self.max_dist2(c as usize, q);
                    if bound >= best.0 {
                        heap.push(Pending(bound, c));
                    }
                }
            }
        }
        self.heap = heap;
        self.dist_evals += evals;
        self.nodes_visited += visited;
        debug_assert!(best.1 != u32::MAX, "farthest query on an empty pool");
        best.1
    }

    /// Id of the live row farthest from the centroid `c` (ties to the
    /// lowest id): the same row as [`farthest_from`](Self::farthest_from),
    /// answered from the shell. By the triangle inequality a row at
    /// distance `d` from the shell's anchor lies within `d + |c − anchor|`
    /// of `c`, so a scan down the shell stops once that reach is strictly
    /// below the best distance. A shell that cannot certify its answer is
    /// rebuilt around `c`; when even a fresh shell cannot (more rows tie
    /// at the maximum than it holds), the tree walk answers. A one-bucket
    /// pool keeps its plain scan.
    fn farthest_from_centroid(&mut self, c: &[f64]) -> u32 {
        if self.nodes.len() == 1 {
            return self.farthest_from(c);
        }
        if let Some(r) = self.shell_scan(c) {
            return r;
        }
        self.build_shell(c);
        if let Some(r) = self.shell_scan(c) {
            return r;
        }
        self.shell_fallbacks += 1;
        self.farthest_from(c)
    }

    /// The farthest live row from `c` if the shell certifies it: every
    /// row the scan does not compare, in the shell or left out of it, has
    /// a reach strictly below the best distance, so it can neither win
    /// nor tie.
    fn shell_scan(&mut self, c: &[f64]) -> Option<u32> {
        let shift = dist2(c, &self.anchor).sqrt();
        // Squared bound on the computed `dist2` from `c` of any row within
        // `d` of the anchor: the relative margin covers the rounding of
        // both square roots and of the three distance folds, the absolute
        // slack their underflow.
        let reach = |d: f64| {
            let r = (d + shift) * (1.0 + SHELL_MARGIN) + f64::MIN_POSITIVE.sqrt();
            r * r
        };
        // MDAV clusters the farthest rows first, so the dead rows gather
        // at the shell's far end: drop them there for good.
        while let Some(&(_, r)) = self.shell.last() {
            if self.is_live(r) {
                break;
            }
            self.shell.pop();
        }
        let mut best = (-1.0, u32::MAX);
        let mut evals = 0u64;
        let mut certified = None;
        for &(d, r) in self.shell.iter().rev() {
            if reach(d) < best.0 {
                certified = Some(best.1);
                break;
            }
            if self.is_live(r) {
                let dr = dist2(self.point(r), c);
                evals += 1;
                if better(dr, r, best.0, best.1) {
                    best = (dr, r);
                }
            }
        }
        self.dist_evals += evals;
        certified.or_else(|| match self.shell_rest {
            None => Some(best.1),
            Some(d) => (reach(d) < best.0).then_some(best.1),
        })
    }

    /// Rebuilds the shell around `c`: the `⌈live / SHELL_SHARE⌉` live rows
    /// (at least `SHELL_MIN`) farthest from `c`, picked by O(live)
    /// selection and then sorted by distance.
    fn build_shell(&mut self, c: &[f64]) {
        self.shell_rebuilds += 1;
        self.dist_evals += self.live as u64;
        self.anchor.copy_from_slice(c);
        let mut shell = std::mem::take(&mut self.shell);
        shell.clear();
        for node in self.nodes.iter().filter(|node| node.left == 0) {
            let live = node.start as usize..(node.start + node.live) as usize;
            let pts = &self.pts[live.start * self.dims..live.end * self.dims];
            for (point, &r) in pts.chunks_exact(self.dims).zip(&self.ids[live]) {
                shell.push((dist2(point, c).sqrt(), r));
            }
        }
        let by_distance = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0);
        let keep = self.live.div_ceil(SHELL_SHARE).max(SHELL_MIN);
        self.shell_rest = if keep < shell.len() {
            let cut = shell.len() - keep;
            let (_, &mut rest, _) = shell.select_nth_unstable_by(cut - 1, by_distance);
            shell.drain(..cut);
            Some(rest.0)
        } else {
            None
        };
        shell.sort_unstable_by(by_distance);
        self.shell = shell;
    }

    /// Whether `row` has not been clustered yet.
    #[inline]
    fn is_live(&self, row: u32) -> bool {
        let p = self.pos[row as usize];
        let node = &self.nodes[self.bucket[p as usize] as usize];
        p < node.start + node.live
    }

    /// Removes the `k` live rows nearest to `q` and returns them ordered
    /// by `(distance, row)`, exactly like the reference full-sort
    /// selection. Subtrees are pruned only when their lower bound is
    /// strictly above the k-th best distance so far.
    fn take_nearest(&mut self, q: &[f64], k: usize) -> Vec<usize> {
        let mut top = TopK::new(k.min(self.live));
        let (mut evals, mut visited) = (0u64, 0u64);
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((0, 0.0));
        while let Some((i, bound)) = stack.pop() {
            if top.beyond(bound) {
                continue;
            }
            visited += 1;
            let node = &self.nodes[i as usize];
            if node.left == 0 {
                let live = node.start as usize..(node.start + node.live) as usize;
                let pts = &self.pts[live.start * self.dims..live.end * self.dims];
                for (point, &r) in pts.chunks_exact(self.dims).zip(&self.ids[live]) {
                    top.offer(dist2(point, q), r);
                }
                evals += node.live as u64;
                continue;
            }
            let mut kids = [(node.left, 0.0), (node.left + 1, 0.0)];
            for kid in &mut kids {
                if self.nodes[kid.0 as usize].live > 0 {
                    kid.1 = self.min_dist2(kid.0 as usize, q);
                } else {
                    kid.1 = f64::INFINITY;
                }
            }
            // Visit the nearer child first: it tightens the k-th best sooner.
            if kids[0].1 < kids[1].1 {
                kids.swap(0, 1);
            }
            for kid in kids {
                if kid.1 != f64::INFINITY && !top.beyond(kid.1) {
                    stack.push(kid);
                }
            }
        }
        self.stack = stack;
        self.dist_evals += evals;
        self.nodes_visited += visited;
        let mut selected = top.into_vec();
        selected.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        // Remove in cluster order: the incremental sum subtracts points
        // in that order, and every later centroid depends on it bit for
        // bit. Boxes are re-tightened once per touched bucket, after the
        // whole cluster has left.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for &(_, row) in &selected {
            let bucket = self.remove(row);
            if !touched.contains(&bucket) {
                touched.push(bucket);
            }
        }
        for &bucket in &touched {
            self.refit_path(bucket as usize);
        }
        self.touched = touched;
        selected.into_iter().map(|(_, r)| r as usize).collect()
    }

    /// Takes `row` out of the sum, swaps it past the live rows of its
    /// bucket, decrements the live counts on its path and returns its
    /// bucket. The path's boxes are left for [`refit_path`](Self::refit_path).
    fn remove(&mut self, row: u32) -> u32 {
        let dims = self.dims;
        let p = self.pos[row as usize] as usize;
        let bucket = self.bucket[p];
        let node = &self.nodes[bucket as usize];
        let last = (node.start + node.live - 1) as usize;
        debug_assert!(p <= last, "row removed twice");
        for (s, &v) in self.sum.iter_mut().zip(&self.pts[p * dims..(p + 1) * dims]) {
            *s -= v;
        }
        if p != last {
            let moved = self.ids[last];
            self.ids.swap(p, last);
            self.pos[moved as usize] = p as u32;
            self.pos[row as usize] = last as u32;
            let (head, tail) = self.pts.split_at_mut(last * dims);
            head[p * dims..(p + 1) * dims].swap_with_slice(&mut tail[..dims]);
        }
        self.live -= 1;
        let mut i = bucket as usize;
        loop {
            self.nodes[i].live -= 1;
            if i == 0 {
                return bucket;
            }
            i = self.nodes[i].parent as usize;
        }
    }

    /// Re-tightens the boxes from node `i` up to (not including) the
    /// root. A box that does not change leaves every ancestor's box (a
    /// union over children) unchanged too, so the walk stops there.
    fn refit_path(&mut self, mut i: usize) {
        while i != 0 && self.refit(i) {
            i = self.nodes[i].parent as usize;
        }
    }

    /// Recomputes node `i`'s box over its live rows (over its children's
    /// boxes for an inner node) and reports whether the box changed.
    fn refit(&mut self, i: usize) -> bool {
        let dims = self.dims;
        let mut fit = std::mem::take(&mut self.fit);
        fit.clear();
        fit.resize(dims, f64::INFINITY);
        fit.resize(2 * dims, f64::NEG_INFINITY);
        let (lo, hi) = fit.split_at_mut(dims);
        let node = &self.nodes[i];
        if node.left == 0 {
            let live = node.start as usize..(node.start + node.live) as usize;
            for point in self.pts[live.start * dims..live.end * dims].chunks_exact(dims) {
                for (d, &v) in point.iter().enumerate() {
                    lo[d] = lo[d].min(v);
                    hi[d] = hi[d].max(v);
                }
            }
        } else {
            for c in [node.left as usize, node.left as usize + 1] {
                if self.nodes[c].live > 0 {
                    let (clo, chi) = self.bounds(c);
                    for d in 0..dims {
                        lo[d] = lo[d].min(clo[d]);
                        hi[d] = hi[d].max(chi[d]);
                    }
                }
            }
        }
        let slot = &mut self.boxes[2 * i * dims..2 * (i + 1) * dims];
        let changed = *slot != *fit;
        if changed {
            slot.copy_from_slice(&fit);
        }
        self.fit = fit;
        changed
    }

    /// Ids of the live rows in ascending order.
    fn live_rows_sorted(&self) -> Vec<usize> {
        let mut rows = Vec::with_capacity(self.live);
        for node in self.nodes.iter().filter(|node| node.left == 0) {
            let live = node.start as usize..(node.start + node.live) as usize;
            rows.extend(self.ids[live].iter().map(|&r| r as usize));
        }
        rows.sort_unstable();
        rows
    }
}

fn centroid_of(points: &Points, rows: &[usize]) -> Vec<f64> {
    let mut c = vec![0.0; points.dims];
    for &r in rows {
        for (d, v) in points.row(r).iter().enumerate() {
            c[d] += v;
        }
    }
    for v in &mut c {
        *v /= rows.len() as f64;
    }
    c
}

fn farthest_from_point(points: &Points, rows: &[usize], point: &[f64]) -> usize {
    let mut best = rows[0];
    let mut best_d = -1.0;
    for &r in rows {
        let d = dist2(points.row(r), point);
        if d > best_d {
            best_d = d;
            best = r;
        }
    }
    best
}

fn farthest_from_row(points: &Points, rows: &[usize], anchor: &[f64]) -> usize {
    farthest_from_point(points, rows, anchor)
}

/// Removes `anchor` and its `k-1` nearest neighbours from `remaining`,
/// returning them as a cluster. `anchor` must be present in `remaining`.
/// `selected` is an all-false scratch mask of table size; it is restored
/// to all-false before returning, so one allocation serves every cluster
/// (the retain test is O(1) per row instead of an O(k) `contains` scan).
fn take_nearest(
    points: &Points,
    remaining: &mut Vec<usize>,
    selected: &mut [bool],
    anchor: usize,
    k: usize,
) -> Vec<usize> {
    // Sort candidates by distance to the anchor; ties broken by row index so
    // the algorithm is fully deterministic.
    let anchor_point = points.row(anchor);
    let mut scored: Vec<(f64, usize)> = remaining
        .iter()
        .map(|&r| (dist2(points.row(r), anchor_point), r))
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
    fn non_finite_quasi_identifiers_are_an_error_not_a_silent_partition() {
        // Flat MDAV used to partition such a table silently, and the
        // release then published `Missing` for every row of each class
        // holding one of these cells.
        let expected = Err(crate::AnonError::NonFiniteQuasiIdentifier {
            row: 3,
            column: "y".into(),
        });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let pts: Vec<(f64, f64)> = (0..400)
                .map(|i| (i as f64, if i % 7 == 3 { bad } else { (i % 13) as f64 }))
                .collect();
            let t = numeric_table(&pts);
            let clean = linear_table(40);
            assert_eq!(Mdav::new().partition(&t, 3), expected, "{bad}");
            assert_eq!(Mdav::without_normalization().partition(&t, 3), expected);
            let hier = HierarchicalMdav::new(ShardPlan::new(4, 7));
            assert_eq!(hier.partition(&t, 3), expected, "{bad}");
            assert_eq!(
                hier.partition_all(&[&clean, &t, &clean], 3),
                expected.clone().map(|p| vec![p]),
                "{bad}"
            );
        }
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

    /// The optimized loop's one-leaf run over `t`, pinned to the
    /// reference partition; returns the run's work tallies.
    fn flat_run_matches_reference(m: &Mdav, t: &Table, k: usize, case: &str) -> Work {
        let Prepared { points, leaves } = m.prepare(t, k, 1).unwrap();
        let (classes, work) = leaf_classes(&points, &leaves[0], k);
        let fast = Partition::new(classes, t.len()).unwrap();
        assert_eq!(fast, m.partition_reference(t, k).unwrap(), "{case}");
        work
    }

    /// `n` points uniform in `[0, 1)²` from a seeded LCG.
    fn unit_points(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| (next(), next())).collect()
    }

    #[test]
    fn shell_falls_back_when_more_rows_tie_at_the_maximum_than_it_holds() {
        // The twelve integer points at distance 5 from the origin, 60
        // copies each, around 800 interior points in ± pairs, all in a
        // shuffled row order. The table is symmetric, so the centroid is
        // exactly the origin, and each round clusters copies of one
        // circle point and of its antipode, which keeps it there: 720
        // rows tie at the maximum, against a fresh shell of 190, so the
        // rows left out tie with the best and the tree walk answers. The
        // winner is the lowest row id among the ties, and the circle
        // point it sits on decides the round's clusters, so a shell that
        // certified its own lowest tie would move the partition. Raw
        // integer data keeps every centroid exact, so the ties are real.
        let circle = [(3.0, 4.0), (4.0, 3.0), (5.0, 0.0), (0.0, 5.0)];
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for &(x, y) in &circle {
            for (sx, sy) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                if (x == 0.0 && sx < 0.0) || (y == 0.0 && sy < 0.0) {
                    continue;
                }
                pts.extend(std::iter::repeat_n((sx * x, sy * y), 60));
            }
        }
        for (x, y) in unit_points(400, 7) {
            let p = ((x * 7.0).floor() - 3.0, (y * 7.0).floor() - 3.0);
            pts.extend([p, (-p.0, -p.1)]);
        }
        let keys = unit_points(pts.len(), 9);
        let mut rows: Vec<usize> = (0..pts.len()).collect();
        rows.sort_by(|&a, &b| keys[a].0.total_cmp(&keys[b].0));
        let pts: Vec<(f64, f64)> = rows.iter().map(|&r| pts[r]).collect();
        assert_eq!(pts.len(), 1_520);
        let t = numeric_table(&pts);
        for k in [2usize, 3, 5] {
            let m = Mdav::without_normalization();
            let work = flat_run_matches_reference(&m, &t, k, &format!("ties k={k}"));
            assert!(work.shell_fallbacks > 0, "k={k}: {work:?}");
            assert!(
                work.shell_rebuilds > work.shell_fallbacks,
                "k={k}: {work:?}"
            );
        }
    }

    #[test]
    fn shell_rebuilds_when_the_centroid_drifts_far() {
        // Two blobs of unequal size, 300 apart: MDAV clusters the far
        // blob first, so the centroid walks toward the large blob and the
        // shell built around the first centroid stops certifying.
        let mut pts = unit_points(1_500, 11);
        pts.extend(
            unit_points(600, 13)
                .iter()
                .map(|&(x, y)| (x + 300.0, y + 300.0)),
        );
        let t = numeric_table(&pts);
        for k in [2usize, 5] {
            for m in [Mdav::new(), Mdav::without_normalization()] {
                let work = flat_run_matches_reference(&m, &t, k, &format!("blobs k={k}"));
                assert!(work.shell_rebuilds > 1, "k={k}: {work:?}");
            }
        }
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
        let mut points = Points::numeric_qi(&t, 3).unwrap();
        points.normalize();
        let leaves = split_leaves(&points, (0..90).collect(), 4, 3);
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

    /// The sort-based split the selection split replaced: every level
    /// stable-sorts the node's rows by `(value, row)`, cuts at the same
    /// rank and re-sorts both halves by row. The reference
    /// [`split_leaves`] is pinned to.
    fn split_leaves_sorted(
        points: &Points,
        rows: Vec<usize>,
        parts: usize,
        k: usize,
    ) -> Vec<Vec<usize>> {
        fn rec(
            points: &Points,
            rows: Vec<usize>,
            parts: usize,
            min_leaf: usize,
            out: &mut Vec<Vec<usize>>,
        ) {
            if parts <= 1 || rows.len() < 2 * min_leaf {
                out.push(rows);
                return;
            }
            let split_dim = widest_dim(points, &rows);
            let left_parts = parts / 2;
            let target_left =
                (rows.len() * left_parts / parts).clamp(min_leaf, rows.len() - min_leaf);
            let mut sorted = rows;
            sorted.sort_by(|&a, &b| {
                points
                    .get(a, split_dim)
                    .partial_cmp(&points.get(b, split_dim))
                    .unwrap_or(Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let mut right = sorted.split_off(target_left);
            let mut left = sorted;
            left.sort_unstable();
            right.sort_unstable();
            rec(points, left, left_parts, min_leaf, out);
            rec(points, right, parts - left_parts, min_leaf, out);
        }
        let mut leaves = Vec::new();
        rec(points, rows, parts, 3 * k, &mut leaves);
        leaves
    }

    /// `n` rows over `dims` columns drawn from `levels` values, so equal
    /// keys are common; level 0 is `0.0` or `-0.0` at random, which the
    /// split's order must treat as equal.
    fn tie_points(n: usize, dims: usize, levels: u64, seed: u64) -> Points {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let coords = (0..n * dims)
            .map(|_| match next() % levels {
                0 if next() % 2 == 0 => -0.0,
                level => level as f64,
            })
            .collect();
        Points { coords, dims }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn selection_split_equals_sorted_split(
            n in 1usize..400,
            dims in 1usize..4,
            levels in 1u64..6,
            seed in 0u64..1_000_000,
            k in 1usize..12,
            parts in 1usize..10,
            near_floor in any::<bool>(),
        ) {
            // Near the floor the root holds about `2 * 3k` rows, the
            // smallest node a cut may split.
            let n = if near_floor { 6 * k + (seed % 5) as usize - 2 } else { n };
            let points = tie_points(n, dims, levels, seed);
            let rows: Vec<usize> = (0..n).collect();
            prop_assert_eq!(
                split_leaves(&points, rows.clone(), parts, k),
                split_leaves_sorted(&points, rows, parts, k),
                "n={} dims={} levels={} k={} parts={}", n, dims, levels, k, parts
            );
        }
    }
}
