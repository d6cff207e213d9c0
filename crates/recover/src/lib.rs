//! Checkpointed stage execution with seeded retry/backoff, artifact
//! integrity and quarantine — the self-healing layer under the bench
//! sweep.
//!
//! The pipeline in `fred-bench` is a sequence of expensive stages (world
//! build, MDAV, harvest, composition, ...). PR 6 made each stage
//! *tolerant* of corrupted inputs; this crate makes the sweep itself
//! durable:
//!
//! - [`StageRunner::run`] wraps a stage in a checkpoint protocol: the
//!   stage's artifact is serialized to canonical JSON, checksummed
//!   (FNV-1a 64 over the exact payload bytes) and committed atomically
//!   (temp file + rename) at the stage boundary. On a resumed run a
//!   valid checkpoint short-circuits the stage entirely.
//! - [`StageRunner::run_verified`] always recomputes but cross-checks
//!   the stored artifact against the fresh one — the anchor protocol for
//!   cheap early stages, which also detects a stale checkpoint directory
//!   (config drift) and poisons everything downstream of the mismatch.
//! - [`RetryPolicy`] retries transiently-failing stages with capped
//!   exponential backoff; the jitter is hashed from `(seed, stage,
//!   attempt)`, so a retry trace is a pure function of the plan and
//!   reproduces bit-identically.
//! - Artifacts that fail integrity checks (bad checksum, truncation,
//!   bit-flips, stale fingerprints) are moved to a `quarantine/`
//!   subdirectory — never silently deleted — and the stage recomputes.
//!
//! Fault injection for all of this lives in `fred-faults`
//! (`stage_transient`, `ckpt_write_truncate`, `ckpt_bitflip`,
//! `ckpt_stale`), so recovery itself is exercised deterministically.

#![warn(missing_docs)]

/// The workspace's JSON codec, which lives in `fred-obs` so the trace
/// writers below this crate share it.
pub use fred_obs::json;

use fred_faults::{salt, FaultPlan};
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Exit code of a run halted deliberately at a stage boundary (the
/// kill-point hook used by the kill-and-resume tests and CI smoke job).
pub const HALT_EXIT_CODE: i32 = 86;

/// FNV-1a 64-bit hash — the checksum primitive for checkpoint payloads
/// and config fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Packs a `(stage, attempt)` coordinate into one fault-site index, so
/// transient-failure and jitter decisions are independent per stage and
/// per attempt.
pub fn stage_site(stage: &str, attempt: usize) -> u64 {
    fnv1a64(stage.as_bytes()).rotate_left(8) ^ attempt as u64
}

/// Capped exponential backoff with deterministic jitter. The pause
/// before retry `attempt` is
/// `min(cap, base * 2^(attempt-1)) * (0.5 + 0.5 * jitter)` where
/// `jitter` is hashed from `(plan seed, stage, attempt)` — two runs with
/// the same seed and policy produce the same pauses to the bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per stage (first try included). At least 1.
    pub max_attempts: usize,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: f64,
    /// Ceiling on any single backoff pause, in milliseconds.
    pub max_backoff_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 4.0,
            max_backoff_ms: 64.0,
        }
    }
}

impl RetryPolicy {
    /// The deterministic pause (ms) before retrying `stage` after failed
    /// attempt number `attempt` (1-based).
    pub fn backoff_ms(&self, plan: &FaultPlan, stage: &str, attempt: usize) -> f64 {
        let exp = self.base_backoff_ms * 2f64.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.max_backoff_ms);
        capped * (0.5 + 0.5 * plan.fraction(salt::RETRY_JITTER, stage_site(stage, attempt)))
    }
}

/// A stage result that can round-trip through a checkpoint: encoded as
/// one JSON [`json::Value`] (rendered with [`json::render`]) and decoded
/// from the parsed value.
///
/// Implementations must be *canonical and idempotent*: `to_value`
/// depends only on the artifact's value, and every `v = a.to_value()`
/// decodes and re-encodes to itself: `to_value(from_value(v)) == v`. An
/// encoder may round (a bench block keeps the precision its file
/// prints), so the decoded artifact need not equal `a`, but a loaded
/// artifact always re-renders to the bytes it was loaded from.
pub trait Artifact: Sized {
    /// Encodes the artifact as one JSON value.
    fn to_value(&self) -> json::Value;
    /// Rebuilds the artifact from a parsed value; `None` if the shape is
    /// wrong (treated as a corrupt checkpoint).
    fn from_value(value: &json::Value) -> Option<Self>;
}

/// What happened to one stage: attempts made, retries burned, total
/// backoff slept, and how the artifact was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The stage name.
    pub stage: String,
    /// Attempts made when the artifact was computed (1 = first try).
    pub attempts: usize,
    /// Retries burned (`attempts - 1`).
    pub retries: usize,
    /// Total deterministic backoff slept before success, in ms.
    pub backoff_ms: f64,
    /// True when the artifact was loaded from a valid checkpoint instead
    /// of recomputed (runtime-only; never serialized into bench JSON).
    pub loaded: bool,
    /// True when a stored checkpoint was cross-checked against a fresh
    /// recompute and matched (runtime-only).
    pub verified: bool,
}

/// Runs pipeline stages under a checkpoint + retry protocol.
///
/// Without a store directory the runner still provides retry/backoff for
/// transient failures; with one (`with_store`) every completed stage
/// commits a checksummed artifact, and a `resume` run loads valid
/// checkpoints instead of recomputing.
pub struct StageRunner {
    /// The fault plan driving transient-failure and checkpoint-damage
    /// injection (checkpoint rates are test-only knobs; see `fred-bench`).
    pub plan: FaultPlan,
    /// The retry policy for every stage.
    pub policy: RetryPolicy,
    /// Halt (exit with [`HALT_EXIT_CODE`]) right after this stage's
    /// checkpoint commits — the deterministic kill-point for resume tests.
    pub halt_after: Option<String>,
    store: Option<PathBuf>,
    resume: bool,
    fingerprint: u64,
    poisoned: bool,
    reports: Vec<StageReport>,
    quarantined_files: Vec<(String, String)>,
    repaired_writes: usize,
    resumed_any: bool,
}

impl StageRunner {
    /// A runner with retry only (no checkpoint store). `fingerprint`
    /// must hash the full run configuration; a checkpoint written under
    /// one fingerprint is stale under any other.
    pub fn new(plan: FaultPlan, policy: RetryPolicy, fingerprint: u64) -> StageRunner {
        StageRunner {
            plan,
            policy,
            halt_after: None,
            store: None,
            resume: false,
            fingerprint,
            poisoned: false,
            reports: Vec::new(),
            quarantined_files: Vec::new(),
            repaired_writes: 0,
            resumed_any: false,
        }
    }

    /// Attaches a checkpoint directory (created if missing). With
    /// `resume` set, valid checkpoints short-circuit their stages.
    pub fn with_store(mut self, dir: PathBuf, resume: bool) -> StageRunner {
        let _ = fs::create_dir_all(&dir);
        self.store = Some(dir);
        self.resume = resume;
        self
    }

    /// Per-stage reports in execution order.
    pub fn reports(&self) -> &[StageReport] {
        &self.reports
    }

    /// Total retries burned across all stages.
    pub fn retries_total(&self) -> usize {
        self.reports.iter().map(|r| r.retries).sum()
    }

    /// Artifacts quarantined for failing integrity checks, as
    /// `(file name, reason)` pairs.
    pub fn quarantined_files(&self) -> &[(String, String)] {
        &self.quarantined_files
    }

    /// Number of artifacts quarantined so far.
    pub fn quarantined_total(&self) -> usize {
        self.quarantined_files.len()
    }

    /// Checkpoint writes that failed read-back verification and were
    /// rewritten in place (e.g. an injected truncated write).
    pub fn repaired_writes(&self) -> usize {
        self.repaired_writes
    }

    /// True when at least one stage was satisfied from a checkpoint.
    pub fn resumed(&self) -> bool {
        self.resumed_any
    }

    /// Runs a stage: on resume, a valid checkpoint satisfies the stage
    /// without computing; otherwise the stage runs under the retry
    /// policy and its artifact is committed to the store.
    pub fn run<T: Artifact>(&mut self, stage: &str, compute: impl FnMut() -> T) -> T {
        if let Some((artifact, report)) = self.try_load::<T>(stage) {
            self.reports.push(report);
            self.resumed_any = true;
            self.maybe_halt(stage);
            return artifact;
        }
        let (artifact, report) = self.execute(stage, compute);
        self.write_checkpoint(stage, &artifact, &report);
        self.reports.push(report);
        self.maybe_halt(stage);
        artifact
    }

    /// Runs a stage that is always recomputed (cheap anchors such as the
    /// world build): the fresh artifact is cross-checked against any
    /// stored checkpoint. A match marks the stage verified; a mismatch
    /// quarantines the stored artifact as stale and poisons resume for
    /// every later stage (their checkpoints derive from bad upstream
    /// state). The fresh artifact is committed and returned either way.
    pub fn run_verified<T: Artifact + PartialEq>(
        &mut self,
        stage: &str,
        compute: impl FnMut() -> T,
    ) -> T {
        let (artifact, mut report) = self.execute(stage, compute);
        if let Some((stored, _)) = self.try_load::<T>(stage) {
            if stored == artifact {
                report.verified = true;
            } else {
                self.quarantine(stage, "stale: recompute mismatch");
                self.poisoned = true;
            }
        }
        self.write_checkpoint(stage, &artifact, &report);
        self.reports.push(report);
        self.maybe_halt(stage);
        artifact
    }

    /// The retry loop. Injected transient failures (from
    /// `plan.stage_transient`) never fire on the final attempt, so a
    /// finite plan always completes; real panics from `compute` are
    /// caught and retried, and rethrown once attempts are exhausted.
    fn execute<T>(&mut self, stage: &str, mut compute: impl FnMut() -> T) -> (T, StageReport) {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut report = StageReport {
            stage: stage.to_string(),
            attempts: 0,
            retries: 0,
            backoff_ms: 0.0,
            loaded: false,
            verified: false,
        };
        for attempt in 1..=max_attempts {
            report.attempts = attempt;
            fred_obs::counter("recover.attempts", 1);
            let injected = attempt < max_attempts
                && self.plan.decide(
                    self.plan.stage_transient,
                    salt::STAGE_TRANSIENT,
                    stage_site(stage, attempt),
                );
            if !injected {
                let outcome = panic::catch_unwind(AssertUnwindSafe(&mut compute));
                match outcome {
                    Ok(artifact) => return (artifact, report),
                    Err(payload) => {
                        if attempt == max_attempts {
                            panic::resume_unwind(payload);
                        }
                    }
                }
            }
            report.retries += 1;
            fred_obs::counter("recover.retries", 1);
            let pause = self.policy.backoff_ms(&self.plan, stage, attempt);
            report.backoff_ms += pause;
            std::thread::sleep(Duration::from_secs_f64(pause / 1000.0));
        }
        unreachable!("final attempt either returns or rethrows");
    }

    fn checkpoint_path(&self, stage: &str) -> Option<PathBuf> {
        self.store
            .as_ref()
            .map(|d| d.join(format!("{stage}.ckpt.json")))
    }

    /// Renders the checkpoint envelope. The payload is the *last* field
    /// so its exact byte range is recoverable for checksumming, and the
    /// checksum covers precisely those bytes.
    fn render_envelope<T: Artifact>(
        &self,
        stage: &str,
        artifact: &T,
        report: &StageReport,
    ) -> String {
        let payload = json::render(&artifact.to_value());
        let checksum = fnv1a64(payload.as_bytes());
        format!(
            "{{\"fred_checkpoint\": 1, \"stage\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"checksum\": \"{:016x}\", \"attempts\": {}, \"retries\": {}, \"backoff_ms\": {:?}, \
             \"payload\": {}}}",
            json::escape(stage),
            self.fingerprint,
            checksum,
            report.attempts,
            report.retries,
            report.backoff_ms,
            payload
        )
    }

    /// Commits a checkpoint atomically (temp file + rename) and verifies
    /// it by reading it back. A write that fails verification — e.g. an
    /// injected truncation — is quarantined and rewritten clean once.
    fn write_checkpoint<T: Artifact>(&mut self, stage: &str, artifact: &T, report: &StageReport) {
        let Some(path) = self.checkpoint_path(stage) else {
            return;
        };
        let envelope = self.render_envelope(stage, artifact, report);
        let mut bytes = envelope.clone().into_bytes();
        let site = stage_site(stage, 0);
        if self.plan.decide(
            self.plan.ckpt_write_truncate,
            salt::CKPT_WRITE_TRUNCATE,
            site,
        ) {
            let cut =
                (bytes.len() as f64 * self.plan.fraction(salt::CKPT_TRUNCATE_AT, site)) as usize;
            bytes.truncate(cut.min(bytes.len().saturating_sub(1)));
        }
        commit_bytes(&path, &bytes);
        fred_obs::counter("recover.commits", 1);
        // Read-back verification: the committed file must parse and
        // checksum exactly. If not (truncated write), quarantine the bad
        // file and rewrite the clean envelope — no re-injection.
        if self.validate_file(&path, stage).is_err() {
            self.quarantine(stage, "write failed read-back verification");
            commit_bytes(&path, envelope.as_bytes());
            self.repaired_writes += 1;
            fred_obs::counter("recover.repaired_writes", 1);
        }
    }

    /// Loads a stage's checkpoint if resuming and it passes every
    /// integrity check; any failure quarantines the file and falls
    /// through to recomputation.
    fn try_load<T: Artifact>(&mut self, stage: &str) -> Option<(T, StageReport)> {
        if !self.resume || self.poisoned {
            return None;
        }
        let path = self.checkpoint_path(stage)?;
        if !path.exists() {
            return None;
        }
        match self.read_validated(&path, stage) {
            Ok((value, attempts, retries, backoff_ms)) => {
                let payload = value.get("payload")?;
                match T::from_value(payload) {
                    Some(artifact) => {
                        fred_obs::counter("recover.loads", 1);
                        Some((
                            artifact,
                            StageReport {
                                stage: stage.to_string(),
                                attempts,
                                retries,
                                backoff_ms,
                                loaded: true,
                                verified: false,
                            },
                        ))
                    }
                    None => {
                        self.quarantine(stage, "payload shape mismatch");
                        None
                    }
                }
            }
            Err(reason) => {
                self.quarantine(stage, reason);
                None
            }
        }
    }

    /// Full integrity pipeline over one checkpoint file: read (with
    /// injected reload damage), structural check, envelope parse,
    /// checksum, fingerprint. Returns the parsed envelope plus the
    /// persisted retry counters.
    fn read_validated(
        &self,
        path: &Path,
        stage: &str,
    ) -> Result<(json::Value, usize, usize, f64), &'static str> {
        let mut bytes = fs::read(path).map_err(|_| "unreadable")?;
        let site = stage_site(stage, 0);
        if self
            .plan
            .decide(self.plan.ckpt_bitflip, salt::CKPT_BITFLIP, site)
            && !bytes.is_empty()
        {
            let at = ((bytes.len() as f64 * self.plan.fraction(salt::CKPT_BITFLIP_AT, site))
                as usize)
                .min(bytes.len() - 1);
            bytes[at] ^= 0x10;
        }
        let text = String::from_utf8(bytes).map_err(|_| "not utf-8")?;
        let (value, payload_bytes) = split_envelope(&text)?;
        if value.get("fred_checkpoint").and_then(json::Value::as_usize) != Some(1) {
            return Err("bad magic");
        }
        if value.get("stage").and_then(json::Value::as_str) != Some(stage) {
            return Err("wrong stage");
        }
        let checksum = value
            .get("checksum")
            .and_then(json::Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing checksum")?;
        if checksum != fnv1a64(payload_bytes) {
            return Err("checksum mismatch");
        }
        let fingerprint = value
            .get("fingerprint")
            .and_then(json::Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing fingerprint")?;
        let forced_stale = self
            .plan
            .decide(self.plan.ckpt_stale, salt::CKPT_STALE, site);
        if fingerprint != self.fingerprint || forced_stale {
            return Err("stale fingerprint");
        }
        let attempts = value
            .get("attempts")
            .and_then(json::Value::as_usize)
            .ok_or("missing attempts")?;
        let retries = value
            .get("retries")
            .and_then(json::Value::as_usize)
            .ok_or("missing retries")?;
        let backoff_ms = value
            .get("backoff_ms")
            .and_then(json::Value::as_f64)
            .ok_or("missing backoff")?;
        Ok((value, attempts, retries, backoff_ms))
    }

    /// Validation-only pass (read-back after a write): no injections, no
    /// counter reads — just structure + checksum + fingerprint.
    fn validate_file(&self, path: &Path, stage: &str) -> Result<(), &'static str> {
        let bytes = fs::read(path).map_err(|_| "unreadable")?;
        let text = String::from_utf8(bytes).map_err(|_| "not utf-8")?;
        let (value, payload_bytes) = split_envelope(&text)?;
        if value.get("stage").and_then(json::Value::as_str) != Some(stage) {
            return Err("wrong stage");
        }
        let checksum = value
            .get("checksum")
            .and_then(json::Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing checksum")?;
        if checksum != fnv1a64(payload_bytes) {
            return Err("checksum mismatch");
        }
        Ok(())
    }

    /// Moves a stage's checkpoint into `quarantine/` (never deletes) and
    /// records the reason.
    fn quarantine(&mut self, stage: &str, reason: &str) {
        let Some(dir) = self.store.clone() else {
            return;
        };
        let Some(path) = self.checkpoint_path(stage) else {
            return;
        };
        let qdir = dir.join("quarantine");
        let _ = fs::create_dir_all(&qdir);
        let name = format!("{stage}.{}.json", self.quarantined_files.len());
        if path.exists() {
            let _ = fs::rename(&path, qdir.join(&name));
        }
        self.quarantined_files.push((name, reason.to_string()));
        fred_obs::counter("recover.quarantines", 1);
        fred_obs::event("quarantine");
    }

    /// Exits with [`HALT_EXIT_CODE`] right after `stage`'s boundary when
    /// the halt hook targets it — only meaningful with a store attached.
    fn maybe_halt(&self, stage: &str) {
        if self.store.is_some() && self.halt_after.as_deref() == Some(stage) {
            std::process::exit(HALT_EXIT_CODE);
        }
    }
}

/// Atomic commit: write to a sibling temp file, then rename over the
/// destination.
fn commit_bytes(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension("tmp");
    if fs::write(&tmp, bytes).is_ok() {
        let _ = fs::rename(&tmp, path);
    }
}

/// Splits a checkpoint envelope into its parsed value and the exact byte
/// range of the payload (the trailing field), which the checksum covers.
fn split_envelope(text: &str) -> Result<(json::Value, &[u8]), &'static str> {
    let body = text.trim_end();
    if !body.ends_with('}') {
        return Err("truncated");
    }
    const MARKER: &str = "\"payload\": ";
    let at = body.find(MARKER).ok_or("missing payload")?;
    let payload = &body[at + MARKER.len()..body.len() - 1];
    let value = json::parse(body).ok_or("unparseable")?;
    Ok((value, payload.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A tiny artifact for exercising the protocol.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob {
        label: String,
        score: f64,
        rows: usize,
    }

    impl Artifact for Blob {
        fn to_value(&self) -> json::Value {
            json::Value::Obj(vec![
                ("label".into(), json::Value::Str(self.label.clone())),
                ("score".into(), json::Value::Num(self.score)),
                ("rows".into(), json::Value::Num(self.rows as f64)),
            ])
        }
        fn from_value(value: &json::Value) -> Option<Blob> {
            Some(Blob {
                label: value.get("label")?.as_str()?.to_string(),
                score: value.get("score")?.as_f64()?,
                rows: value.get("rows")?.as_usize()?,
            })
        }
    }

    fn blob() -> Blob {
        Blob {
            label: "k=5 sweep".to_string(),
            score: 0.1 + 0.2, // deliberately non-representable exactly
            rows: 4096,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fred_recover_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_policy() -> RetryPolicy {
        // Tiny backoffs so retry-heavy tests stay fast.
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 0.01,
            max_backoff_ms: 0.08,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let plan = FaultPlan::uniform(5, 0.0);
        let policy = RetryPolicy::default();
        for attempt in 1..8 {
            let pause = policy.backoff_ms(&plan, "mdav", attempt);
            let cap = policy.max_backoff_ms;
            let exp = (policy.base_backoff_ms * 2f64.powi(attempt as i32 - 1)).min(cap);
            // Jitter keeps the pause within [0.5, 1.0] * deterministic base.
            assert!(
                pause >= 0.5 * exp && pause <= exp,
                "attempt {attempt}: {pause}"
            );
            assert_eq!(pause, policy.backoff_ms(&plan, "mdav", attempt));
        }
        // Different stages and attempts jitter differently.
        assert_ne!(
            policy.backoff_ms(&plan, "mdav", 1),
            policy.backoff_ms(&plan, "harvest", 1)
        );
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let fp = 0xfeed;
        let mut writer =
            StageRunner::new(FaultPlan::none(), quick_policy(), fp).with_store(dir.clone(), false);
        let original = writer.run("sweep", blob);
        assert!(dir.join("sweep.ckpt.json").exists());

        let mut reader =
            StageRunner::new(FaultPlan::none(), quick_policy(), fp).with_store(dir.clone(), true);
        let calls = AtomicUsize::new(0);
        let loaded = reader.run("sweep", || {
            calls.fetch_add(1, Ordering::SeqCst);
            blob()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 0, "resume must not recompute");
        assert_eq!(loaded, original);
        assert_eq!(loaded.score.to_bits(), original.score.to_bits());
        assert!(reader.resumed());
        assert!(reader.reports()[0].loaded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_counters_persist_through_checkpoints() {
        let dir = temp_dir("persist");
        // Find a seed whose transient plan actually burns a retry on
        // this stage, so the persisted counters are non-trivial.
        let plan = (0..64)
            .map(|seed| FaultPlan {
                stage_transient: 0.9,
                ..FaultPlan::uniform(seed, 0.0)
            })
            .find(|p| {
                p.decide(
                    p.stage_transient,
                    salt::STAGE_TRANSIENT,
                    stage_site("sweep", 1),
                )
            })
            .unwrap();
        let mut writer =
            StageRunner::new(plan.clone(), quick_policy(), 1).with_store(dir.clone(), false);
        writer.run("sweep", blob);
        let written = writer.reports()[0].clone();
        assert!(written.retries > 0);

        // A clean-plan resume restores the *compute-time* counters.
        let mut reader =
            StageRunner::new(FaultPlan::none(), quick_policy(), 1).with_store(dir.clone(), true);
        reader.run("sweep", blob);
        let restored = &reader.reports()[0];
        assert_eq!(restored.attempts, written.attempts);
        assert_eq!(restored.retries, written.retries);
        assert_eq!(restored.backoff_ms.to_bits(), written.backoff_ms.to_bits());
        assert!(restored.loaded);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_plan_retries_deterministically_and_completes() {
        let plan = FaultPlan {
            stage_transient: 0.9,
            ..FaultPlan::uniform(11, 0.0)
        };
        let run = |plan: &FaultPlan| {
            let mut runner = StageRunner::new(plan.clone(), quick_policy(), 0);
            let calls = AtomicUsize::new(0);
            let out = runner.run("estimates", || {
                calls.fetch_add(1, Ordering::SeqCst);
                blob()
            });
            assert_eq!(out, blob());
            assert_eq!(
                calls.load(Ordering::SeqCst),
                1,
                "injection must not call compute"
            );
            (runner.retries_total(), runner.reports()[0].backoff_ms)
        };
        let (retries_a, backoff_a) = run(&plan);
        let (retries_b, backoff_b) = run(&plan);
        assert_eq!(retries_a, retries_b);
        assert_eq!(backoff_a.to_bits(), backoff_b.to_bits());
        // At 90% the first attempt nearly always fails for some stage;
        // this seed/stage pair is pinned to retry at least once.
        assert!(retries_a > 0);
        // Even at rate 1.0 the final attempt is injection-free.
        let certain = FaultPlan {
            stage_transient: 1.0,
            ..FaultPlan::uniform(11, 0.0)
        };
        let mut runner = StageRunner::new(certain, quick_policy(), 0);
        let out = runner.run("estimates", blob);
        assert_eq!(out, blob());
        assert_eq!(runner.reports()[0].attempts, quick_policy().max_attempts);
    }

    #[test]
    fn real_panics_are_retried_then_rethrown() {
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        // Panics on the first two attempts, then succeeds.
        let mut runner = StageRunner::new(FaultPlan::none(), quick_policy(), 0);
        let calls = AtomicUsize::new(0);
        let out = runner.run("flaky", || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            blob()
        });
        assert_eq!(out, blob());
        assert_eq!(runner.reports()[0].attempts, 3);
        assert_eq!(runner.reports()[0].retries, 2);

        // Always panics: rethrown after max_attempts.
        let mut runner = StageRunner::new(FaultPlan::none(), quick_policy(), 0);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            runner.run("doomed", || -> Blob { panic!("permanent") })
        }));
        panic::set_hook(hook);
        assert!(outcome.is_err());
    }

    #[test]
    fn corrupt_checkpoints_are_quarantined_and_recomputed() {
        for (tag, damage) in [("flip", 0usize), ("trunc", 1usize), ("garbage", 2usize)] {
            let dir = temp_dir(&format!("quarantine_{tag}"));
            let mut writer = StageRunner::new(FaultPlan::none(), quick_policy(), 7)
                .with_store(dir.clone(), false);
            writer.run("sweep", blob);
            let path = dir.join("sweep.ckpt.json");
            let mut bytes = fs::read(&path).unwrap();
            match damage {
                0 => {
                    // Flip a byte inside the payload region.
                    let at = bytes.len() - 10;
                    bytes[at] ^= 0x04;
                }
                1 => bytes.truncate(bytes.len() / 2),
                _ => bytes = b"not json at all".to_vec(),
            }
            fs::write(&path, &bytes).unwrap();

            let mut reader = StageRunner::new(FaultPlan::none(), quick_policy(), 7)
                .with_store(dir.clone(), true);
            let out = reader.run("sweep", blob);
            assert_eq!(out, blob());
            assert!(
                !reader.resumed(),
                "{tag}: corrupt checkpoint must not satisfy resume"
            );
            assert_eq!(reader.quarantined_total(), 1, "{tag}");
            assert!(
                dir.join("quarantine").join("sweep.0.json").exists(),
                "{tag}"
            );
            // The recompute recommitted a clean checkpoint.
            let mut second = StageRunner::new(FaultPlan::none(), quick_policy(), 7)
                .with_store(dir.clone(), true);
            second.run("sweep", blob);
            assert!(second.resumed(), "{tag}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn stale_fingerprint_is_quarantined() {
        let dir = temp_dir("stale");
        let mut writer =
            StageRunner::new(FaultPlan::none(), quick_policy(), 1).with_store(dir.clone(), false);
        writer.run("sweep", blob);
        // Same file, different config fingerprint: stale.
        let mut reader =
            StageRunner::new(FaultPlan::none(), quick_policy(), 2).with_store(dir.clone(), true);
        reader.run("sweep", blob);
        assert!(!reader.resumed());
        assert_eq!(reader.quarantined_files()[0].1, "stale fingerprint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_reload_damage_is_survived() {
        for field in ["bitflip", "stale"] {
            let dir = temp_dir(&format!("inject_{field}"));
            let mut writer = StageRunner::new(FaultPlan::none(), quick_policy(), 3)
                .with_store(dir.clone(), false);
            writer.run("sweep", blob);
            let plan = match field {
                "bitflip" => FaultPlan {
                    ckpt_bitflip: 1.0,
                    ..FaultPlan::uniform(3, 0.0)
                },
                _ => FaultPlan {
                    ckpt_stale: 1.0,
                    ..FaultPlan::uniform(3, 0.0)
                },
            };
            let mut reader =
                StageRunner::new(plan, quick_policy(), 3).with_store(dir.clone(), true);
            let out = reader.run("sweep", blob);
            assert_eq!(out, blob(), "{field}");
            assert!(!reader.resumed(), "{field}");
            assert_eq!(reader.quarantined_total(), 1, "{field}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn truncated_writes_are_repaired_on_read_back() {
        let dir = temp_dir("repair");
        let plan = FaultPlan {
            ckpt_write_truncate: 1.0,
            ..FaultPlan::uniform(9, 0.0)
        };
        let mut writer = StageRunner::new(plan, quick_policy(), 5).with_store(dir.clone(), false);
        writer.run("sweep", blob);
        assert_eq!(writer.repaired_writes(), 1);
        // The repaired file is valid: a clean resume loads it.
        let mut reader =
            StageRunner::new(FaultPlan::none(), quick_policy(), 5).with_store(dir.clone(), true);
        let out = reader.run("sweep", blob);
        assert_eq!(out, blob());
        assert!(reader.resumed());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_verified_detects_stale_store_and_poisons_downstream() {
        let dir = temp_dir("poison");
        let fp = 11;
        let mut writer =
            StageRunner::new(FaultPlan::none(), quick_policy(), fp).with_store(dir.clone(), false);
        writer.run_verified("anchor", blob);
        writer.run("sweep", blob);

        // Clean resume: the anchor verifies and downstream loads.
        let mut clean =
            StageRunner::new(FaultPlan::none(), quick_policy(), fp).with_store(dir.clone(), true);
        clean.run_verified("anchor", blob);
        assert!(clean.reports()[0].verified);
        clean.run("sweep", blob);
        assert!(clean.resumed());

        // Drifted anchor (same fingerprint, different content — e.g. a
        // code change): quarantined, and downstream recomputes.
        let drifted = Blob { rows: 1, ..blob() };
        let mut reader =
            StageRunner::new(FaultPlan::none(), quick_policy(), fp).with_store(dir.clone(), true);
        let out = reader.run_verified("anchor", || drifted.clone());
        assert_eq!(out, drifted);
        assert_eq!(reader.quarantined_files()[0].1, "stale: recompute mismatch");
        let calls = AtomicUsize::new(0);
        reader.run("sweep", || {
            calls.fetch_add(1, Ordering::SeqCst);
            blob()
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "poisoned resume must recompute"
        );
        assert!(!reader.resumed());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn runner_without_store_never_touches_disk() {
        let mut runner = StageRunner::new(FaultPlan::none(), quick_policy(), 0);
        let out = runner.run("sweep", blob);
        assert_eq!(out, blob());
        assert_eq!(runner.quarantined_total(), 0);
        assert!(!runner.resumed());
    }
}
