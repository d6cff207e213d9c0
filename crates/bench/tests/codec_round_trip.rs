//! The one-codec contract for `BENCH_sweep.json`: with every block
//! enabled, decoding the written file and re-rendering it reproduces it
//! byte for byte, and each block's checkpoint payload is exactly that
//! block's value in the file.
//!
//! One test in its own binary: it enables the process-global
//! observability collector, which no concurrent `quick_bench` may share.

use std::fs;

use fred_bench::perf::{quick_bench, QuickBench, QuickBenchOptions, STAGE_K};
use fred_bench::stages::runner;
use fred_bench::world::WorldConfig;
use fred_composition::DefensePolicy;
use fred_recover::{json, Artifact};

/// Every optional block on, at test scale.
fn options() -> QuickBenchOptions {
    QuickBenchOptions {
        large_size: Some(40),
        size_100k: Some(80),
        compose: true,
        defend: Some(DefensePolicy::default_set(STAGE_K)),
        faults: Some(0.1),
        profile: true,
        ..QuickBenchOptions::default()
    }
}

fn run(options: &QuickBenchOptions) -> String {
    let config = WorldConfig {
        size: 30,
        ..WorldConfig::default()
    };
    quick_bench(&config, 2, 4, 1, options).to_json()
}

/// `render(from_value(parse(json)))`, with the writer's trailing newline.
fn re_render(json_text: &str) -> String {
    let value = json::parse(json_text).expect("bench JSON parses");
    let bench = QuickBench::from_value(&value).expect("bench JSON decodes");
    bench.to_json()
}

#[test]
fn bench_json_re_renders_byte_identically_and_checkpoints_hold_block_values() {
    // A timed run: real wall-clocks at every precision the file prints.
    let timed = run(&options());
    let decoded = json::parse(&timed).expect("parses");
    for block in [
        "large",
        "large_100k",
        "composition",
        "composition_defense",
        "eval",
        "robustness",
        "recovery",
        "profile",
    ] {
        assert!(decoded.get(block).is_some(), "block `{block}` missing");
    }
    assert_eq!(re_render(&timed), timed);

    // A checkpointed run: each block-artifact checkpoint carries the
    // block's value in the file, not a second encoding of it.
    let dir = std::env::temp_dir().join(format!("fred_codec_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let checkpointed = run(&QuickBenchOptions {
        checkpoint_dir: Some(dir.clone()),
        ..options()
    });
    assert_eq!(re_render(&checkpointed), checkpointed);
    let file = json::parse(&checkpointed).expect("parses");
    for (stage, block) in [
        (runner::COMPOSITION, "composition"),
        (runner::DEFENSE, "composition_defense"),
        (runner::EVAL, "eval"),
        (runner::ROBUSTNESS, "robustness"),
        (runner::LARGE, "large"),
        (runner::LARGE_100K, "large_100k"),
    ] {
        let envelope = fs::read_to_string(dir.join(format!("{stage}.ckpt.json")))
            .unwrap_or_else(|e| panic!("no `{stage}` checkpoint: {e}"));
        let envelope = json::parse(&envelope).expect("checkpoint parses");
        assert_eq!(
            envelope.get("payload"),
            file.get(block),
            "`{stage}` checkpoint payload differs from the `{block}` block"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
