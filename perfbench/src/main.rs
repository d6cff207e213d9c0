//! The fusion-attack benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows <n>]
//! ```
//!
//! Builds the workload's world from the seed, times its set-up several
//! times, then runs its jobs for `--seconds` (at least one job), checks
//! every output, and prints one JSON line: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run. `--rows` shrinks a workload for the smoke check.
//! Progress and check failures go to stderr; the JSON line is the last
//! line of stdout.

mod attack;
mod eval_grid;
mod faults;
mod fred_paper;
mod report;
mod util;
mod world;

use report::Outcome;

/// Rayon pool width every workload runs with (capped by the machine).
const POOL_WIDTH: usize = 2;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Row-count override for the smoke check (`None` = the workload's
    /// own size).
    pub rows: Option<usize>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 2015,
        seconds: 10.0,
        trace: false,
        rows: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rows" => opts.rows = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The shim reads its width once, on the first parallel call; nothing
    // has run in parallel yet and no other thread exists.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", POOL_WIDTH.min(cores).to_string());

    let outcome: Outcome = match opts.workload.as_str() {
        "attack_100k" => attack::run(&opts),
        "eval_grid_100k" => eval_grid::run(&opts),
        "fred_paper_120" => fred_paper::run(&opts),
        "faults_20k" => faults::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} cores {} jobs {}",
        opts.workload,
        opts.seed,
        rayon::current_num_threads(),
        outcome.attempted
    );
    println!("{}", outcome.to_json(opts.trace));
}
