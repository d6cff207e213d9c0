//! Seeded, deterministic fault injection and graceful-degradation
//! accounting for the FRED pipeline.
//!
//! The paper's adversary fuses *web-harvested* evidence, which in reality
//! is noisy, truncated and partially garbage. This crate supplies the two
//! halves of the robustness axis:
//!
//! - [`FaultPlan`] — a seeded plan that decides, purely as a function of
//!   `(seed, stage, index)`, whether a given page / row / cell / chunk /
//!   worker / stage attempt / checkpoint is corrupted, one rate per fault
//!   class and one [`salt`] per fault site. There is no RNG stream: every
//!   decision is an independent hash, so decisions are identical
//!   regardless of evaluation order or thread count, and a rate of zero
//!   short-circuits to "no fault" without hashing at all. That makes the zero-rate plan an *exact passthrough*
//!   and every faulted run bit-reproducible.
//! - [`Degradation`] — the skip-and-count report every tolerant stage
//!   returns instead of panicking: how many rows were skipped, pages
//!   rejected, fields imputed and workers restarted, fed by the
//!   [`InputDefect`] taxonomy.

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

/// Per-stage salts separating the hash streams of the different fault
/// sites, so e.g. dropping page 7 is independent of garbling page 7.
///
/// A salt is never renumbered or reused: changing one reshuffles every
/// seeded faulted result that depends on it. `0x4841_5256_0002` belonged
/// to a retired fault class.
pub mod salt {
    /// Page-level: drop (tombstone) a page from the corpus.
    pub const PAGE_DROP: u64 = 0x5041_4745_0001;
    /// Page-level: truncate a page's rendered text.
    pub const PAGE_TRUNCATE: u64 = 0x5041_4745_0002;
    /// Page-level: where (as a fraction of the text) a truncation cuts.
    pub const PAGE_TRUNCATE_AT: u64 = 0x5041_4745_0003;
    /// Page-level: garble a window of a page's text.
    pub const PAGE_GARBLE: u64 = 0x5041_4745_0004;
    /// Page-level: where a garble window starts.
    pub const PAGE_GARBLE_AT: u64 = 0x5041_4745_0005;
    /// Page-level: append a duplicate of a page to the corpus.
    pub const PAGE_DUPLICATE: u64 = 0x5041_4745_0006;
    /// Harvest-level: drop an identifier row before linkage.
    pub const HARVEST_ROW_DROP: u64 = 0x4841_5256_0001;
    /// Worker-level: panic inside the pool while processing a row.
    pub const WORKER_PANIC: u64 = 0x574f_524b_0001;
    /// Release-level: drop a row from a published release.
    pub const RELEASE_ROW_DROP: u64 = 0x5245_4c00_0001;
    /// Release-level: corrupt one QI cell of one class summary.
    pub const CELL_CORRUPT: u64 = 0x5245_4c00_0002;
    /// Release-level: which corruption flavor a corrupt cell gets.
    pub const CELL_FLAVOR: u64 = 0x5245_4c00_0003;
    /// Release-level: truncate one streamed chunk of a release.
    pub const CHUNK_TRUNCATE: u64 = 0x5245_4c00_0004;
    /// Runner-level: one stage attempt fails transiently and is retried.
    pub const STAGE_TRANSIENT: u64 = 0x5245_4356_0001;
    /// Runner-level: deterministic backoff jitter for one retry attempt.
    pub const RETRY_JITTER: u64 = 0x5245_4356_0002;
    /// Checkpoint-level: a checkpoint write is cut short mid-stream.
    pub const CKPT_WRITE_TRUNCATE: u64 = 0x5245_4356_0003;
    /// Checkpoint-level: where (fraction of bytes) a truncated write stops.
    pub const CKPT_TRUNCATE_AT: u64 = 0x5245_4356_0004;
    /// Checkpoint-level: one checkpoint byte is flipped on reload.
    pub const CKPT_BITFLIP: u64 = 0x5245_4356_0005;
    /// Checkpoint-level: which byte a reload bit-flip lands on.
    pub const CKPT_BITFLIP_AT: u64 = 0x5245_4356_0006;
    /// Checkpoint-level: a checkpoint reads back stale on reload.
    pub const CKPT_STALE: u64 = 0x5245_4356_0007;
}

/// SplitMix64-style finalizer over `(seed, salt, index)`.
fn mix(seed: u64, salt: u64, index: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `[0, 1)` from `(seed, salt, index)`.
fn unit(seed: u64, salt: u64, index: u64) -> f64 {
    (mix(seed, salt, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// Packs a `(major, minor)` fault-site coordinate into one hash index.
pub fn key2(major: usize, minor: usize) -> u64 {
    ((major as u64) << 40) ^ (minor as u64)
}

/// Packs a `(major, mid, minor)` fault-site coordinate into one hash index.
pub fn key3(major: usize, mid: usize, minor: usize) -> u64 {
    ((major as u64) << 48) ^ ((mid as u64) << 24) ^ (minor as u64)
}

/// An adversarial (pointed) corruption target set: instead of corrupting
/// a uniform random fraction of sites, the plan corrupts *exactly* the
/// listed corpus pages and release/harvest rows — typically the
/// highest-disclosure-gain targets fed back from a strict run, modelling
/// an adversary (or defender) who knows where the attack's signal lives.
///
/// Lists are kept sorted and deduplicated so membership is a binary
/// search and two target sets compare structurally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetedCorruption {
    /// Corpus page ids whose evidence is destroyed outright.
    pub pages: Vec<usize>,
    /// Release / harvest row indices that go missing.
    pub rows: Vec<usize>,
}

impl TargetedCorruption {
    /// Builds a target set; the lists are sorted and deduplicated.
    pub fn new(mut pages: Vec<usize>, mut rows: Vec<usize>) -> TargetedCorruption {
        pages.sort_unstable();
        pages.dedup();
        rows.sort_unstable();
        rows.dedup();
        TargetedCorruption { pages, rows }
    }

    /// True when the set targets nothing at all.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty() && self.rows.is_empty()
    }
}

/// A seeded, deterministic corruption plan covering every stage boundary
/// of the pipeline: page level (drop / truncate / garble / duplicate),
/// release level (missing rows, NaN or out-of-range QI cells, truncated
/// chunks), worker level (injected panics inside the pool) and runner
/// level (transient stage failures, truncated / bit-flipped / stale
/// checkpoints — consumed by `fred-recover`'s `StageRunner`).
///
/// All rates are probabilities in `[0, 1]`. Each decision hashes
/// `(seed, stage salt, site index)` against its rate; a rate of `0.0`
/// short-circuits to `false` without hashing. On top of the uniform
/// rates, an optional [`TargetedCorruption`] set corrupts exactly the
/// listed pages and rows — the adversarial (non-random) mode.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed separating whole plans from each other.
    pub seed: u64,
    /// Probability a corpus page is dropped (tombstoned in place).
    pub page_drop: f64,
    /// Probability a corpus page's text is truncated.
    pub page_truncate: f64,
    /// Probability a window of a corpus page's text is garbled.
    pub page_garble: f64,
    /// Probability a corpus page is duplicated at the corpus tail.
    pub page_duplicate: f64,
    /// Probability an identifier / release row goes missing.
    pub row_drop: f64,
    /// Probability one QI cell of a class summary is corrupted
    /// (NaN or out-of-range, chosen per cell).
    pub cell_corrupt: f64,
    /// Probability a streamed release chunk arrives truncated.
    pub chunk_truncate: f64,
    /// Probability a pool worker panics on a given row.
    pub worker_panic: f64,
    /// Probability one pipeline-stage attempt fails transiently (the
    /// stage runner retries it with seeded backoff).
    pub stage_transient: f64,
    /// Probability a checkpoint write is cut short mid-stream (the
    /// runner's read-back verification repairs it in place).
    pub ckpt_write_truncate: f64,
    /// Probability a checkpoint byte is flipped on reload (the integrity
    /// check quarantines it and recomputes the stage).
    pub ckpt_bitflip: f64,
    /// Probability a checkpoint reads back stale — wrong fingerprint —
    /// on reload (quarantined and recomputed, like a bit-flip).
    pub ckpt_stale: f64,
    /// Adversarial target set corrupted *in addition to* the uniform
    /// rates: the listed pages are tombstoned and the listed rows go
    /// missing with probability 1.
    pub targeted: Option<TargetedCorruption>,
}

impl FaultPlan {
    /// The no-fault plan: every rate zero. Running any tolerant stage
    /// under this plan is bit-identical to the strict stage.
    pub fn none() -> FaultPlan {
        FaultPlan::uniform(0, 0.0)
    }

    /// A plan applying the same `rate` at every fault site. The rate is
    /// clamped into `[0, 1]` (NaN clamps to zero).
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        FaultPlan {
            seed,
            page_drop: rate,
            page_truncate: rate,
            page_garble: rate,
            page_duplicate: rate,
            row_drop: rate,
            cell_corrupt: rate,
            chunk_truncate: rate,
            worker_panic: rate,
            stage_transient: rate,
            ckpt_write_truncate: rate,
            ckpt_bitflip: rate,
            ckpt_stale: rate,
            targeted: None,
        }
    }

    /// True when every rate is zero and nothing is targeted: the plan
    /// cannot fire anywhere.
    pub fn is_passthrough(&self) -> bool {
        self.page_drop == 0.0
            && self.page_truncate == 0.0
            && self.page_garble == 0.0
            && self.page_duplicate == 0.0
            && self.row_drop == 0.0
            && self.cell_corrupt == 0.0
            && self.chunk_truncate == 0.0
            && self.worker_panic == 0.0
            && self.stage_transient == 0.0
            && self.ckpt_write_truncate == 0.0
            && self.ckpt_bitflip == 0.0
            && self.ckpt_stale == 0.0
            && self.targeted.as_ref().is_none_or(|t| t.is_empty())
    }

    /// True when the plan's adversarial target set names this corpus
    /// page id.
    pub fn targets_page(&self, id: usize) -> bool {
        self.targeted
            .as_ref()
            .is_some_and(|t| t.pages.binary_search(&id).is_ok())
    }

    /// True when the plan's adversarial target set names this harvest /
    /// release row index.
    pub fn targets_row(&self, row: usize) -> bool {
        self.targeted
            .as_ref()
            .is_some_and(|t| t.rows.binary_search(&row).is_ok())
    }

    /// One Bernoulli decision: does the fault with probability `rate`
    /// fire at `(salt, index)`? Deterministic in `(seed, salt, index)`;
    /// `rate <= 0` (and NaN) short-circuit to `false`.
    pub fn decide(&self, rate: f64, salt: u64, index: u64) -> bool {
        rate > 0.0 && unit(self.seed, salt, index) < rate
    }

    /// Uniform value in `[0, 1)` at `(salt, index)` — used to place a
    /// fault (truncation point, garble window) once `decide` fired.
    pub fn fraction(&self, salt: u64, index: u64) -> f64 {
        unit(self.seed, salt, index)
    }

    /// Uniform pick in `0..n` at `(salt, index)` — used to choose a
    /// corruption flavor. Returns 0 when `n == 0`.
    pub fn pick(&self, salt: u64, index: u64, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.fraction(salt, index) * n as f64) as usize % n
        }
    }
}

/// The shared error taxonomy for defective inputs: what a tolerant stage
/// found wrong with one page / row / cell / worker. Each defect maps onto
/// one [`Degradation`] counter via [`Degradation::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InputDefect {
    /// A page whose template markers are cut off mid-text.
    TruncatedPage,
    /// A page with no usable name or text at all (e.g. a tombstone).
    MalformedPage,
    /// A field that should be present but could not be read.
    MissingField,
    /// A numeric value that is NaN or infinite.
    NonFiniteValue,
    /// A numeric value wildly outside its committed range.
    OutOfRangeValue,
    /// A row missing from an identifier list or published release.
    MissingRow,
    /// A streamed release chunk that arrived shorter than declared.
    TruncatedChunk,
    /// A pool worker that panicked mid-row and was restarted.
    WorkerPanic,
}

impl fmt::Display for InputDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InputDefect::TruncatedPage => "truncated page",
            InputDefect::MalformedPage => "malformed page",
            InputDefect::MissingField => "missing field",
            InputDefect::NonFiniteValue => "non-finite value",
            InputDefect::OutOfRangeValue => "out-of-range value",
            InputDefect::MissingRow => "missing row",
            InputDefect::TruncatedChunk => "truncated chunk",
            InputDefect::WorkerPanic => "worker panic",
        };
        f.write_str(s)
    }
}

impl Error for InputDefect {}

/// The skip-and-count report a tolerant stage returns instead of
/// panicking: what the injection did to the inputs (`pages_*`,
/// `duplicates_added`) and what the pipeline survived (`pages_rejected`,
/// `rows_skipped`, `fields_imputed`, `chunks_truncated`,
/// `workers_restarted`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Degradation {
    /// Corpus pages tombstoned by injection.
    pub pages_dropped: usize,
    /// Corpus pages whose text was truncated by injection.
    pub pages_truncated: usize,
    /// Corpus pages with a garbled text window.
    pub pages_garbled: usize,
    /// Duplicate pages appended to the corpus.
    pub duplicates_added: usize,
    /// Pages a tolerant extractor rejected (truncated or malformed).
    pub pages_rejected: usize,
    /// Identifier / release rows skipped because they went missing.
    pub rows_skipped: usize,
    /// QI fields imputed (read as unconstrained) after a defect.
    pub fields_imputed: usize,
    /// Streamed release chunks that arrived truncated.
    pub chunks_truncated: usize,
    /// Pool workers that panicked and were restarted mid-batch.
    pub workers_restarted: usize,
    /// A muted report records defects without mirroring them onto the
    /// global `faults.*` observability counters. Shadow computations
    /// whose report is deliberately discarded (the baseline re-digest of
    /// a source the composed run already counts) use this so counter and
    /// ledger stay in exact agreement.
    muted: bool,
}

/// Equality compares the counted fields only; whether a report is muted
/// is an instrumentation detail, not part of the measurement.
impl PartialEq for Degradation {
    fn eq(&self, other: &Self) -> bool {
        self.pages_dropped == other.pages_dropped
            && self.pages_truncated == other.pages_truncated
            && self.pages_garbled == other.pages_garbled
            && self.duplicates_added == other.duplicates_added
            && self.pages_rejected == other.pages_rejected
            && self.rows_skipped == other.rows_skipped
            && self.fields_imputed == other.fields_imputed
            && self.chunks_truncated == other.chunks_truncated
            && self.workers_restarted == other.workers_restarted
    }
}

impl Eq for Degradation {}

impl Degradation {
    /// A report whose records stay off the global observability
    /// counters. For shadow passes that re-run faulted work the shipped
    /// ledger already counts — merging such a report elsewhere would
    /// make the `faults.*` counters disagree with the degradation
    /// totals, so callers discard it.
    pub fn muted() -> Self {
        Degradation {
            muted: true,
            ..Degradation::default()
        }
    }

    /// Routes one observed defect onto its counter. Every survival-side
    /// field is fed exclusively through here, so each increment is
    /// mirrored onto the matching `faults.*` observability counter
    /// (unless the report is [`muted`](Degradation::muted)) — the two
    /// ledgers are written by the same line and the perf gate can
    /// demand they agree exactly.
    pub fn record(&mut self, defect: InputDefect) {
        let counter = match defect {
            InputDefect::TruncatedPage | InputDefect::MalformedPage => {
                self.pages_rejected += 1;
                "faults.pages_rejected"
            }
            InputDefect::MissingField
            | InputDefect::NonFiniteValue
            | InputDefect::OutOfRangeValue => {
                self.fields_imputed += 1;
                "faults.fields_imputed"
            }
            InputDefect::MissingRow => {
                self.rows_skipped += 1;
                "faults.rows_skipped"
            }
            InputDefect::TruncatedChunk => {
                self.chunks_truncated += 1;
                "faults.chunks_truncated"
            }
            InputDefect::WorkerPanic => {
                self.workers_restarted += 1;
                "faults.workers_restarted"
            }
        };
        if !self.muted {
            fred_obs::counter(counter, 1);
        }
    }

    /// Accumulates another stage's report into this one.
    pub fn merge(&mut self, other: &Degradation) {
        self.pages_dropped += other.pages_dropped;
        self.pages_truncated += other.pages_truncated;
        self.pages_garbled += other.pages_garbled;
        self.duplicates_added += other.duplicates_added;
        self.pages_rejected += other.pages_rejected;
        self.rows_skipped += other.rows_skipped;
        self.fields_imputed += other.fields_imputed;
        self.chunks_truncated += other.chunks_truncated;
        self.workers_restarted += other.workers_restarted;
    }

    /// True when nothing was injected, skipped or imputed anywhere —
    /// the report a zero-rate plan must produce.
    pub fn is_clean(&self) -> bool {
        *self == Degradation::default()
    }

    /// Total count of defects the pipeline *survived* (excludes the
    /// injection-side counters, which describe the inputs, not the
    /// recovery).
    pub fn defects_survived(&self) -> usize {
        self.pages_rejected
            + self.rows_skipped
            + self.fields_imputed
            + self.chunks_truncated
            + self.workers_restarted
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} / truncated {} / garbled {} / duplicated {} pages; \
             rejected {} pages, skipped {} rows, imputed {} fields, \
             {} truncated chunks, restarted {} workers",
            self.pages_dropped,
            self.pages_truncated,
            self.pages_garbled,
            self.duplicates_added,
            self.pages_rejected,
            self.rows_skipped,
            self.fields_imputed,
            self.chunks_truncated,
            self.workers_restarted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let plan = FaultPlan::uniform(42, 0.3);
        let a: Vec<bool> = (0..100)
            .map(|i| plan.decide(plan.page_drop, salt::PAGE_DROP, i))
            .collect();
        let b: Vec<bool> = (0..100)
            .rev()
            .map(|i| plan.decide(plan.page_drop, salt::PAGE_DROP, i))
            .rev()
            .collect();
        assert_eq!(a, b);
        // A different seed gives a different decision vector.
        let other = FaultPlan::uniform(43, 0.3);
        let c: Vec<bool> = (0..100)
            .map(|i| other.decide(other.page_drop, salt::PAGE_DROP, i))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_rate_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_passthrough());
        for i in 0..1000 {
            assert!(!plan.decide(plan.page_drop, salt::PAGE_DROP, i));
            assert!(!plan.decide(plan.worker_panic, salt::WORKER_PANIC, i));
        }
        // Even a seeded plan with rate zero is a passthrough.
        assert!(FaultPlan::uniform(7, 0.0).is_passthrough());
        // NaN / out-of-range rates clamp instead of misfiring.
        assert!(FaultPlan::uniform(7, f64::NAN).is_passthrough());
        assert_eq!(FaultPlan::uniform(7, 2.0).page_drop, 1.0);
        // A NaN rate handed to `decide` directly never fires either.
        assert!(!FaultPlan::none().decide(f64::NAN, salt::PAGE_DROP, 3));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::uniform(9, 0.2);
        let fired = (0..10_000)
            .filter(|&i| plan.decide(plan.row_drop, salt::HARVEST_ROW_DROP, i))
            .count();
        assert!((1_600..=2_400).contains(&fired), "fired {fired}/10000");
        // Rate 1 always fires.
        let all = FaultPlan::uniform(9, 1.0);
        assert!((0..100).all(|i| all.decide(all.row_drop, salt::HARVEST_ROW_DROP, i)));
    }

    #[test]
    fn salts_separate_fault_sites() {
        let plan = FaultPlan::uniform(11, 0.5);
        let drops: Vec<bool> = (0..200)
            .map(|i| plan.decide(plan.page_drop, salt::PAGE_DROP, i))
            .collect();
        let garbles: Vec<bool> = (0..200)
            .map(|i| plan.decide(plan.page_garble, salt::PAGE_GARBLE, i))
            .collect();
        assert_ne!(drops, garbles);
    }

    #[test]
    fn salt_streams_are_pinned() {
        // Fire counts per salt over a fixed (seed, rate): renumbering a
        // salt reshuffles its stream and moves its count, which would
        // silently change every committed faulted result.
        let plan = FaultPlan::uniform(0xFA17, 0.05);
        let pinned = [
            (salt::PAGE_DROP, 484),
            (salt::PAGE_TRUNCATE, 476),
            (salt::PAGE_TRUNCATE_AT, 531),
            (salt::PAGE_GARBLE, 497),
            (salt::PAGE_GARBLE_AT, 506),
            (salt::PAGE_DUPLICATE, 498),
            (salt::HARVEST_ROW_DROP, 501),
            (salt::WORKER_PANIC, 503),
            (salt::RELEASE_ROW_DROP, 490),
            (salt::CELL_CORRUPT, 518),
            (salt::CELL_FLAVOR, 568),
            (salt::CHUNK_TRUNCATE, 518),
            (salt::STAGE_TRANSIENT, 497),
            (salt::RETRY_JITTER, 491),
            (salt::CKPT_WRITE_TRUNCATE, 511),
            (salt::CKPT_TRUNCATE_AT, 476),
            (salt::CKPT_BITFLIP, 495),
            (salt::CKPT_BITFLIP_AT, 496),
            (salt::CKPT_STALE, 507),
        ];
        for (salt, expected) in pinned {
            let fired = (0..10_000u64)
                .filter(|&i| plan.decide(plan.row_drop, salt, i))
                .count();
            assert_eq!(fired, expected, "salt {salt:#x}");
        }
    }

    #[test]
    fn fraction_and_pick_are_in_range() {
        let plan = FaultPlan::uniform(13, 1.0);
        for i in 0..500 {
            let f = plan.fraction(salt::PAGE_TRUNCATE_AT, i);
            assert!((0.0..1.0).contains(&f));
            assert!(plan.pick(salt::CELL_FLAVOR, i, 3) < 3);
        }
        assert_eq!(plan.pick(salt::CELL_FLAVOR, 1, 0), 0);
    }

    #[test]
    fn keys_do_not_collide_over_small_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..20 {
            for b in 0..50 {
                assert!(seen.insert(key2(a, b)));
            }
        }
        let mut seen3 = std::collections::HashSet::new();
        for a in 0..10 {
            for b in 0..20 {
                for c in 0..10 {
                    assert!(seen3.insert(key3(a, b, c)));
                }
            }
        }
    }

    #[test]
    fn targeted_corruption_sorts_dedups_and_answers_membership() {
        let targeted = TargetedCorruption::new(vec![9, 2, 2, 5], vec![4, 4, 1]);
        assert_eq!(targeted.pages, vec![2, 5, 9]);
        assert_eq!(targeted.rows, vec![1, 4]);
        assert!(!targeted.is_empty());
        assert!(TargetedCorruption::default().is_empty());

        let plan = FaultPlan {
            targeted: Some(targeted),
            ..FaultPlan::none()
        };
        assert!(plan.targets_page(2) && plan.targets_page(5) && plan.targets_page(9));
        assert!(!plan.targets_page(3));
        assert!(plan.targets_row(1) && plan.targets_row(4));
        assert!(!plan.targets_row(0));
        // An untargeted plan never targets anything.
        assert!(!FaultPlan::none().targets_page(2));
        assert!(!FaultPlan::none().targets_row(1));
    }

    #[test]
    fn targeted_plans_are_not_passthrough() {
        // Zero rates + a non-empty target set still corrupts.
        let plan = FaultPlan {
            targeted: Some(TargetedCorruption::new(vec![0], vec![])),
            ..FaultPlan::uniform(3, 0.0)
        };
        assert!(!plan.is_passthrough());
        // ... but an *empty* target set is still a passthrough.
        let empty = FaultPlan {
            targeted: Some(TargetedCorruption::default()),
            ..FaultPlan::uniform(3, 0.0)
        };
        assert!(empty.is_passthrough());
    }

    #[test]
    fn uniform_sets_runner_and_checkpoint_rates() {
        let plan = FaultPlan::uniform(21, 0.4);
        assert_eq!(plan.stage_transient, 0.4);
        assert_eq!(plan.ckpt_write_truncate, 0.4);
        assert_eq!(plan.ckpt_bitflip, 0.4);
        assert_eq!(plan.ckpt_stale, 0.4);
        assert!(plan.targeted.is_none());
        // A plan with only a runner-level rate is not a passthrough.
        let runner_only = FaultPlan {
            stage_transient: 0.2,
            ..FaultPlan::uniform(21, 0.0)
        };
        assert!(!runner_only.is_passthrough());
    }

    #[test]
    fn degradation_records_merge_and_report() {
        let mut deg = Degradation::default();
        assert!(deg.is_clean());
        deg.record(InputDefect::TruncatedPage);
        deg.record(InputDefect::MalformedPage);
        deg.record(InputDefect::NonFiniteValue);
        deg.record(InputDefect::MissingRow);
        deg.record(InputDefect::TruncatedChunk);
        deg.record(InputDefect::WorkerPanic);
        assert_eq!(deg.pages_rejected, 2);
        assert_eq!(deg.fields_imputed, 1);
        assert_eq!(deg.rows_skipped, 1);
        assert_eq!(deg.chunks_truncated, 1);
        assert_eq!(deg.workers_restarted, 1);
        assert_eq!(deg.defects_survived(), 6);
        assert!(!deg.is_clean());

        let mut other = Degradation {
            pages_dropped: 3,
            ..Degradation::default()
        };
        other.merge(&deg);
        assert_eq!(other.pages_dropped, 3);
        assert_eq!(other.pages_rejected, 2);
        // Injection-side counters do not count as survived defects.
        assert_eq!(other.defects_survived(), 6);
        let text = format!("{other}");
        assert!(text.contains("dropped 3"), "{text}");
        assert!(text.contains("restarted 1 workers"), "{text}");
    }

    #[test]
    fn defect_display_and_error() {
        let defect = InputDefect::TruncatedChunk;
        assert_eq!(format!("{defect}"), "truncated chunk");
        let boxed: Box<dyn Error> = Box::new(defect);
        assert!(boxed.source().is_none());
    }
}
