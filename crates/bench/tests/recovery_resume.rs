//! End-to-end kill/resume guarantees for the checkpointed sweep.
//!
//! The headline property this suite pins: a `--quick` sweep killed at
//! *any* stage boundary and resumed produces a final JSON **bit-identical**
//! to the uninterrupted run with the same seed. Checkpointed runs zero
//! every wall-clock at source (deterministic mode), so the whole output
//! is a pure function of the config — byte equality is the assertion,
//! not an approximation of it.
//!
//! Four layers:
//!
//! * an in-process boundary matrix — every prefix of the committed
//!   checkpoint roster simulates a kill right after that stage's commit;
//! * one real subprocess kill via `FRED_HALT_AFTER` (the repro binary
//!   exits with [`fred_recover::HALT_EXIT_CODE`] right after the named
//!   stage commits, exactly where CI's kill-and-resume smoke aims);
//! * retry-trace determinism — the same `(seed, transient rate, policy)`
//!   must reproduce the identical retry ledger and final JSON, with a
//!   trace that actually contains retries;
//! * adversarial checkpoint corruption — truncated and bit-flipped
//!   artifacts are quarantined, recomputed, and the final JSON still
//!   matches the clean run byte-for-byte.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use fred_bench::perf::{quick_bench, QuickBench, QuickBenchOptions};
use fred_bench::world::WorldConfig;
use fred_composition::DefensePolicy;

/// The committed checkpoint roster, in pipeline order, for the options
/// used by the boundary matrix (compose + defend + faults + large all
/// on, so every stage the runner knows is exercised).
const ROSTER: &[&str] = &[
    "world_build",
    "mdav",
    "harvest",
    "estimates",
    "sweep",
    "composition",
    "defense",
    "robustness",
    "large",
];

/// Index of the first roster stage satisfied via `StageRunner::run`
/// (the three anchors before it recompute-and-verify on resume, so they
/// never flip the `resumed` flag by themselves).
const FIRST_LOADABLE: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fred_resume_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn config() -> WorldConfig {
    WorldConfig {
        size: 30,
        ..WorldConfig::default()
    }
}

fn options(dir: &Path, resume: bool) -> QuickBenchOptions {
    QuickBenchOptions {
        large_size: Some(40),
        compose: true,
        defend: Some(vec![DefensePolicy::CoordinatedSeeds]),
        faults: Some(0.1),
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
        ..QuickBenchOptions::default()
    }
}

fn run(dir: &Path, resume: bool) -> QuickBench {
    quick_bench(&config(), 2, 4, 1, &options(dir, resume))
}

#[test]
fn resume_from_every_stage_boundary_is_bit_identical() {
    let ref_dir = temp_dir("boundary_ref");
    let reference = run(&ref_dir, false).to_json();
    // The roster above must be the roster the runner actually committed —
    // a silent rename would turn every boundary below into the i = 0 case.
    for stage in ROSTER {
        assert!(
            ref_dir.join(format!("{stage}.ckpt.json")).exists(),
            "reference run committed no `{stage}` checkpoint"
        );
    }
    // i committed stages survive the kill; the resume recomputes the rest.
    for i in 0..=ROSTER.len() {
        let dir = temp_dir(&format!("boundary_{i}"));
        for stage in &ROSTER[..i] {
            let name = format!("{stage}.ckpt.json");
            fs::copy(ref_dir.join(&name), dir.join(&name)).expect("copy checkpoint");
        }
        let bench = run(&dir, true);
        assert_eq!(
            bench.to_json(),
            reference,
            "resume after {i} committed stage(s) diverged from the uninterrupted run"
        );
        let rec = bench
            .recovery
            .expect("checkpointed run emits the recovery ledger");
        assert_eq!(rec.escaped_panics, 0);
        assert_eq!(rec.quarantined_total, 0, "clean checkpoints quarantined");
        if i > FIRST_LOADABLE {
            assert!(rec.resumed, "no checkpoint loaded after boundary {i}");
        }
    }
}

#[test]
fn halted_subprocess_resumes_to_the_uninterrupted_output() {
    let exe = env!("CARGO_BIN_EXE_repro");
    let args = |dir: &Path, out: &Path| {
        vec![
            "--quick".to_owned(),
            "--size".to_owned(),
            "40".to_owned(),
            "--seed".to_owned(),
            "77".to_owned(),
            "--large-size".to_owned(),
            "0".to_owned(),
            "--faults".to_owned(),
            "0.2".to_owned(),
            "--checkpoint-dir".to_owned(),
            dir.display().to_string(),
            "--out".to_owned(),
            out.display().to_string(),
        ]
    };

    // The uninterrupted reference, in its own store.
    let ref_dir = temp_dir("halt_ref");
    let ref_out = ref_dir.join("reference.json");
    let status = Command::new(exe)
        .args(args(&ref_dir, &ref_out))
        .status()
        .expect("spawn repro");
    assert!(status.success(), "reference run failed: {status:?}");

    // Kill right after the harvest anchor commits: the process must die
    // with the halt code, holding checkpoints up to harvest and nothing
    // downstream — no final JSON either.
    let dir = temp_dir("halt");
    let out = dir.join("resumed.json");
    let status = Command::new(exe)
        .args(args(&dir, &out))
        .env("FRED_HALT_AFTER", "harvest")
        .status()
        .expect("spawn repro");
    assert_eq!(
        status.code(),
        Some(fred_recover::HALT_EXIT_CODE),
        "halted run must exit with the halt code"
    );
    assert!(dir.join("harvest.ckpt.json").exists());
    assert!(!dir.join("estimates.ckpt.json").exists());
    assert!(
        !out.exists(),
        "halted run must not have written the final JSON"
    );

    // Resume completes and lands byte-identical to the reference.
    let status = Command::new(exe)
        .args(args(&dir, &out))
        .arg("--resume")
        .status()
        .expect("spawn repro");
    assert!(status.success(), "resume failed: {status:?}");
    let resumed = fs::read_to_string(&out).expect("resumed output");
    let reference = fs::read_to_string(&ref_out).expect("reference output");
    assert_eq!(
        resumed, reference,
        "kill + resume diverged from the uninterrupted run"
    );
}

#[test]
fn retry_traces_are_deterministic_and_actually_retry() {
    // Scan a few seeds for a trace where at least one transient fires —
    // at a 0.1 per-attempt rate over six stages most seeds qualify, and
    // a trace with zero retries would vacuously pass the replay check.
    // Each run gets its own fresh store: byte-identity of the full JSON
    // is only promised in deterministic (checkpointed) mode, where every
    // wall-clock is zeroed at source.
    let base = WorldConfig {
        size: 30,
        ..WorldConfig::default()
    };
    let run_fresh = |seed: u64, tag: &str| {
        let dir = temp_dir(&format!("retry_{seed}_{tag}"));
        let config = WorldConfig {
            seed,
            ..base.clone()
        };
        let options = QuickBenchOptions {
            faults: Some(0.1),
            checkpoint_dir: Some(dir),
            ..QuickBenchOptions::default()
        };
        quick_bench(&config, 2, 4, 1, &options)
    };
    let mut checked = false;
    for seed in 0..16 {
        let first = run_fresh(seed, "a");
        let rec = first
            .recovery
            .as_ref()
            .expect("faulted run emits the ledger");
        if rec.retries_total == 0 {
            continue;
        }
        // Same (seed, transient rate, policy): the retry trace and the
        // whole JSON must replay identically.
        let second = run_fresh(seed, "b");
        assert_eq!(
            second.recovery, first.recovery,
            "retry trace drifted at seed {seed}"
        );
        assert_eq!(
            second.to_json(),
            first.to_json(),
            "faulted JSON drifted at seed {seed}"
        );
        assert_eq!(rec.escaped_panics, 0);
        assert!(rec.rows.iter().any(|r| r.retries > 0));
        checked = true;
        break;
    }
    assert!(
        checked,
        "no seed in 0..16 produced a retrying trace at rate 0.1"
    );
}

#[test]
fn corrupted_checkpoints_are_quarantined_and_resume_stays_bit_identical() {
    let dir = temp_dir("corrupt");
    let reference = run(&dir, false).to_json();

    // Truncate one committed artifact (torn write) ...
    let torn = dir.join("estimates.ckpt.json");
    let text = fs::read_to_string(&torn).expect("read checkpoint");
    fs::write(&torn, &text[..text.len() / 2]).expect("truncate checkpoint");
    // ... and flip one bit inside another's payload (at-rest corruption);
    // the checksum only covers the payload bytes, so the flip must land
    // there to model silent data rot rather than a broken envelope.
    let flipped = dir.join("sweep.ckpt.json");
    let text = fs::read_to_string(&flipped).expect("read checkpoint");
    let mut bytes = text.into_bytes();
    let at = String::from_utf8(bytes.clone())
        .expect("utf8")
        .find("\"payload\":")
        .expect("payload marker")
        + "\"payload\":".len()
        + 4;
    bytes[at] ^= 0x01;
    fs::write(&flipped, &bytes).expect("write corrupted checkpoint");

    let bench = run(&dir, true);
    assert_eq!(
        bench.to_json(),
        reference,
        "resume over corrupted checkpoints diverged from the clean run"
    );
    let rec = bench.recovery.expect("recovery ledger emitted");
    assert!(
        rec.quarantined_total >= 2,
        "both corrupted artifacts must be quarantined, got {}",
        rec.quarantined_total
    );
    assert_eq!(rec.escaped_panics, 0);
    let quarantine = dir.join("quarantine");
    assert!(
        quarantine
            .read_dir()
            .map(|d| d.count() >= 2)
            .unwrap_or(false),
        "quarantine dir must hold the corrupted artifacts"
    );
}

#[test]
fn seeds_at_or_above_2_pow_53_are_rejected_at_the_cli() {
    // JSON numbers carry integers exactly only below 2^53, so a larger
    // seed would be checkpointed rounded and resume under another seed.
    let exe = env!("CARGO_BIN_EXE_repro");
    let max = fred_recover::json::MAX_EXACT_INT;
    for seed in [max, u64::MAX] {
        let out = Command::new(exe)
            .args(["--tables", "--seed", &seed.to_string()])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "seed {seed} accepted");
        assert!(String::from_utf8_lossy(&out.stderr).contains("below 2^53"));
    }
    let out = Command::new(exe)
        .args([
            "--fig",
            "5",
            "--size",
            "20",
            "--seed",
            &(max - 1).to_string(),
        ])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "largest exact seed rejected: {out:?}");
}
