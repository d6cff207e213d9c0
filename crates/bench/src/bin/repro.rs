//! The reproduction harness: regenerates every table and figure of
//! "On Breaching Enterprise Data Privacy Through Adversarial Information
//! Fusion" (ICDE 2008) and prints the same rows/series the paper reports.
//!
//! Usage:
//!   repro                 # everything
//!   repro --tables        # Tables I-IV + Figure 2 walk-through
//!   repro --fig 4         # one figure (4, 5, 6, 7 or 8)
//!   repro --ablations     # the extension ablations (A1-A6)
//!   repro --compose       # the multi-release composition attack sweep
//!   repro --compose --defend all   # + the defense policies side by side
//!   repro --quick         # reduced timed sweep -> BENCH_sweep.json
//!   repro --quick --compose  # + composition stages (quick world and,
//!                            # with the large stage enabled, the 10k-row
//!                            # composition_large block) and the gated
//!                            # hypothesis-testing eval block (ROC AUC,
//!                            # TPR@FPR=1e-3, empirical epsilon per
//!                            # (k, R, defense) cell) in BENCH_sweep.json
//!   repro --quick --compose --defend all  # + the composition_defense block
//!                                         # and one defended eval cell per
//!                                         # policy at the stage (k, R)
//!   repro --quick --exhaustive  # + the full-table harvest reference next
//!                               # to the seeded 512-row sample
//!   repro --quick --faults 0.1  # + the fault-injection robustness sweep
//!                               # (robustness block in BENCH_sweep.json)
//!   repro --quick --checkpoint-dir ckpt  # commit a checksummed artifact at
//!                                        # every stage boundary (deterministic
//!                                        # mode -> BENCH_sweep.ckpt.json)
//!   repro --quick --checkpoint-dir ckpt --resume  # restart from the last
//!                                                 # valid checkpoint; the JSON
//!                                                 # is bit-identical to an
//!                                                 # uninterrupted run
//!   repro --quick --trace trace.json  # + the span/counter trace (canonical
//!                                     # JSON) and trace.json.chrome.json
//!                                     # for chrome://tracing / Perfetto
//!   repro --quick --out perf.json
//!   repro --size 240 --seed 2008
//!
//! `FRED_HALT_AFTER=<stage>` makes a checkpointed run exit with code 86
//! right after that stage's checkpoint commits — the deterministic
//! kill-point the resume tests and the CI smoke job use.

use fred_bench::compare::compare_baselines;
use fred_bench::figures::{ascii_plot, figure8, figure_sweep};
use fred_bench::perf::{quick_bench, QuickBenchOptions};
use fred_bench::tables::{figure2_demo, render_all};
use fred_bench::{ablations, faculty_world, WorldConfig};
use fred_composition::DefensePolicy;

/// Default large-world size for `--quick` (override with `--large-size N`,
/// disable with `--large-size 0`).
const DEFAULT_LARGE_SIZE: usize = 10_000;

/// `--size` requests at or above this row count run the `large_100k`
/// stage instead of blowing up the quick sweep's quadratic estimate
/// references.
const SIZE_100K_THRESHOLD: usize = 20_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = WorldConfig::default();
    let mut want_tables = false;
    let mut want_ablations = false;
    let mut want_compose = false;
    let mut want_quick = false;
    let mut want_exhaustive = false;
    let mut faults: Option<f64> = None;
    let mut defend: Option<Vec<DefensePolicy>> = None;
    let mut out_given = false;
    let mut out_path = String::from("BENCH_sweep.json");
    let mut large_size = DEFAULT_LARGE_SIZE;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut compare_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut figs: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tables" => want_tables = true,
            "--ablations" => want_ablations = true,
            "--compose" => want_compose = true,
            "--quick" => want_quick = true,
            "--exhaustive" => want_exhaustive = true,
            "--faults" => {
                i += 1;
                let rate: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--faults needs a rate in 0.0..=1.0"));
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    usage("--faults needs a rate in 0.0..=1.0");
                }
                faults = Some(rate);
            }
            "--defend" => {
                i += 1;
                let which = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--defend needs a policy (or `all`)"));
                defend = Some(parse_defend(&which));
            }
            "--out" => {
                i += 1;
                out_given = true;
                out_path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--large-size" => {
                i += 1;
                large_size = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--large-size needs an integer (0 disables)"));
            }
            "--checkpoint-dir" => {
                i += 1;
                checkpoint_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--checkpoint-dir needs a path")),
                );
            }
            "--resume" => resume = true,
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--trace needs an output path")),
                );
            }
            "--compare" => {
                i += 1;
                compare_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--compare needs a baseline path")),
                );
            }
            "--fig" => {
                i += 1;
                figs.push(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--fig needs a number in 4..=8")),
                );
            }
            "--size" => {
                i += 1;
                config.size = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--size needs an integer"));
            }
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if (out_given
        || compare_path.is_some()
        || large_size != DEFAULT_LARGE_SIZE
        || want_exhaustive
        || faults.is_some()
        || checkpoint_dir.is_some()
        || resume
        || trace_path.is_some())
        && !want_quick
    {
        usage(
            "--out/--compare/--large-size/--exhaustive/--faults/--checkpoint-dir/--resume/--trace \
             only apply together with --quick",
        );
    }
    if resume && checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint-dir (nothing to resume from)");
    }
    if defend.is_some() && !want_compose {
        usage("--defend only applies together with --compose");
    }
    if want_quick {
        if checkpoint_dir.is_some() && !out_given {
            // A checkpointed run is deterministic (zeroed timings): don't
            // let it silently replace the committed timing baseline.
            out_path = String::from("BENCH_sweep.ckpt.json");
            println!(
                "note: checkpointed runs zero all timings; writing to {out_path} \
                 (use --out to override)"
            );
        }
        let large = if large_size == 0 {
            None
        } else {
            Some(large_size)
        };
        // `--size 100000`-scale requests route to the 100k block: the
        // quick sweep's estimate references are quadratic in the world
        // size, so the sweep keeps its default world and the big number
        // drives the scale pipeline instead.
        let size_100k = if config.size >= SIZE_100K_THRESHOLD {
            let size = config.size;
            config.size = WorldConfig::default().size;
            println!(
                "note: --size {size} >= {SIZE_100K_THRESHOLD} runs the large_100k \
                 stage; the quick sweep keeps its default {}-record world",
                config.size
            );
            Some(size)
        } else {
            None
        };
        run_quick(
            &config,
            &out_path,
            compare_path.as_deref(),
            trace_path.as_deref(),
            &QuickBenchOptions {
                large_size: large,
                size_100k,
                compose: want_compose,
                defend,
                exhaustive: want_exhaustive,
                faults,
                checkpoint_dir: checkpoint_dir.map(std::path::PathBuf::from),
                resume,
                halt_after: std::env::var("FRED_HALT_AFTER").ok(),
                // Every quick run self-profiles: the baseline's `profile`
                // block is part of what `--compare` gates.
                profile: true,
            },
        );
        return;
    }
    let all = !want_tables && !want_ablations && !want_compose && figs.is_empty();

    if want_tables || all {
        print_tables();
    }
    if all {
        figs = vec![4, 5, 6, 7, 8];
    }
    if !figs.is_empty() {
        print_figures(&config, &figs);
    }
    if want_ablations || all {
        print_ablations(&config);
    }
    if want_compose || all {
        print_composition(&config, defend.as_deref());
    }
}

/// Parses the `--defend` argument: a policy name or `all`.
fn parse_defend(which: &str) -> Vec<DefensePolicy> {
    let k = fred_bench::perf::STAGE_K;
    match which {
        "all" => DefensePolicy::default_set(k),
        "coordinated-seeds" => vec![DefensePolicy::CoordinatedSeeds],
        "overlap-cap" => vec![DefensePolicy::OverlapCap {
            max_shared_fraction: 0.9,
        }],
        "calibrated-widen" => vec![DefensePolicy::CalibratedWiden { target_k: k }],
        other => usage(&format!(
            "unknown defense `{other}` (use all, coordinated-seeds, overlap-cap or \
             calibrated-widen)"
        )),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--tables] [--fig N]... [--ablations] [--compose] \
         [--defend POLICY] [--quick] [--exhaustive] [--faults RATE] \
         [--checkpoint-dir PATH] [--resume] [--trace PATH] \
         [--out PATH] [--large-size N] [--compare BASELINE] [--size N] [--seed N]\n\
         regenerates the paper's tables (I-IV) and figures (4-8);\n\
         --compose runs the multi-release composition attack sweep\n\
         (with --quick: records the composition stage in the baseline,\n\
         plus the composition_large stage at the large-world size when\n\
         the large stage is enabled);\n\
         --defend sweeps composition defenses next to the attack\n\
         (all, coordinated-seeds, overlap-cap, calibrated-widen; with\n\
         --quick: records the composition_defense block in the baseline);\n\
         --quick runs a reduced timed sweep plus a large-world stage\n\
         (default 10000 rows; --large-size 0 disables) and writes a\n\
         machine-readable perf baseline (default BENCH_sweep.json);\n\
         --size N with --quick sizes the sweep world; N >= 20000 instead\n\
         runs the scale pipeline at N rows (the large_100k block:\n\
         hierarchical MDAV, harvest, full-core intersection,\n\
         digest-pinned to their references) while the sweep\n\
         keeps its default world;\n\
         --exhaustive additionally runs the full-table harvest reference\n\
         (harvest_exhaustive_large) next to the seeded 512-row sample;\n\
         --faults re-runs harvest + composition under seeded corruption at\n\
         rates 0, RATE/2 and RATE through the fault-tolerant pipeline (plus\n\
         a targeted worst-case row), records the gated robustness block,\n\
         and injects transient stage failures at RATE into the retry\n\
         protocol (the recovery block);\n\
         --checkpoint-dir commits a checksummed artifact at every stage\n\
         boundary (deterministic mode: all timings zeroed; default output\n\
         moves to BENCH_sweep.ckpt.json);\n\
         --resume restarts from the last valid checkpoint in that\n\
         directory — the resulting JSON is bit-identical to an\n\
         uninterrupted run of the same configuration;\n\
         --compare gates the fresh run against a committed baseline and\n\
         exits non-zero on a perf regression;\n\
         --trace additionally writes the run's span/counter trace as\n\
         canonical JSON to PATH plus a chrome://tracing events file to\n\
         PATH.chrome.json (open via ui.perfetto.dev or chrome://tracing)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// `--quick`: the reduced timed sweep, printed and persisted as JSON.
fn run_quick(
    config: &WorldConfig,
    out_path: &str,
    compare: Option<&str>,
    trace_path: Option<&str>,
    options: &QuickBenchOptions,
) {
    if config.size < 2 {
        usage("--quick needs --size >= 2 (the sweep starts at k = 2)");
    }
    if options.compose {
        // The composition stage k-anonymizes a core of overlap * size
        // rows; derive the bound from the stage's actual parameters so
        // this guard cannot drift out of sync with them.
        let overlap = fred_composition::CompositionSweepConfig::default().overlap;
        let min_size = (2..)
            .find(|&n| (n as f64 * overlap).round() as usize >= fred_bench::perf::STAGE_K)
            .expect("some size satisfies the core bound");
        if config.size < min_size {
            usage(&format!(
                "--quick --compose needs --size >= {min_size} (the composition core must hold \
                 k = {} rows)",
                fred_bench::perf::STAGE_K
            ));
        }
    }
    println!("======================================================================");
    println!(
        " Quick perf sweep: {} records, seed {}",
        config.size, config.seed
    );
    println!("======================================================================");
    // Load the comparison baseline BEFORE any write: when `--out` (or its
    // default) points at the same file as `--compare`, writing first would
    // silently diff the fresh run against itself.
    let committed = compare.map(
        |baseline_path| match std::fs::read_to_string(baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: could not read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        },
    );
    let bench = quick_bench(config, 2, 10, 3, options);
    print!("{}", bench.to_ascii());
    let fresh_json = bench.to_json();
    if let Some(trace_path) = trace_path {
        write_trace(&bench, trace_path);
    }
    let clobbers_baseline = compare.is_some_and(|baseline_path| {
        let canon = |p: &str| std::fs::canonicalize(p).unwrap_or_else(|_| p.into());
        canon(baseline_path) == canon(out_path)
    });
    if clobbers_baseline {
        // A gate run must not replace the baseline it is gating against;
        // regenerating the baseline is a deliberate act (`--out`, no
        // `--compare`).
        println!("  fresh baseline NOT written: {out_path} is the baseline under comparison");
    } else {
        if let Err(e) = std::fs::write(out_path, &fresh_json) {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
        println!("  baseline written to {out_path}");
    }
    if let (Some(baseline_path), Some(committed)) = (compare, committed) {
        let report = compare_baselines(&committed, &fresh_json);
        for note in &report.notes {
            println!("  compare: {note}");
        }
        if report.violations.is_empty() {
            println!("  compare: no perf regression versus {baseline_path}");
        } else {
            for v in &report.violations {
                eprintln!("  REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// `--trace`: persists the drained span/counter trace as canonical JSON
/// plus a `chrome://tracing` events file, after validating both that the
/// canonical parser round-trips it and that the digest embedded in the
/// baseline's `profile` block matches the tree being written.
fn write_trace(bench: &fred_bench::perf::QuickBench, trace_path: &str) {
    let trace = bench
        .trace
        .as_ref()
        .expect("--quick runs always collect a trace");
    let trace_json = trace.to_json();
    if fred_recover::json::parse(&trace_json).is_none() {
        eprintln!("error: trace JSON failed self-validation (canonical parser rejected it)");
        std::process::exit(1);
    }
    let profile = bench
        .profile
        .as_ref()
        .expect("--quick runs always distill a profile");
    if profile.span_tree_digest != trace.structural_digest() {
        eprintln!(
            "error: trace digest {} disagrees with the profile block's {}",
            trace.structural_digest(),
            profile.span_tree_digest
        );
        std::process::exit(1);
    }
    let chrome_path = format!("{trace_path}.chrome.json");
    for (path, payload) in [
        (trace_path, trace_json),
        (&chrome_path[..], trace.to_chrome_json()),
    ] {
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "  trace written to {trace_path} ({} spans, {} events; chrome-tracing view: {chrome_path})",
        trace.spans_total, trace.events_total
    );
}

fn print_tables() {
    println!("======================================================================");
    println!(" Running example: Tables I-IV (paper Section I)");
    println!("======================================================================");
    println!("{}", render_all());
    let (estimate, truth) = figure2_demo();
    println!("== Figure 2 walk-through: fusing Robert's release row with his web profile ==");
    println!("  paper: adversary concludes ~ $95,000 (true salary $98,230)");
    println!("  ours : fused estimate      $ {estimate:.0} (true salary $ {truth:.0})");
    println!();
}

fn print_figures(config: &WorldConfig, figs: &[u32]) {
    println!("======================================================================");
    println!(
        " Evaluation world: {} faculty, seed {} (paper Section VI-A)",
        config.size, config.seed
    );
    println!("======================================================================");
    let world = faculty_world(config);
    let report = figure_sweep(&world);
    println!("{}", report.to_ascii());
    let ks = report.ks();
    for &fig in figs {
        match fig {
            4 => println!(
                "{}",
                ascii_plot(
                    "Figure 4 — before information fusion (P o P'): flat in k",
                    &ks,
                    &report.before_series()
                )
            ),
            5 => println!(
                "{}",
                ascii_plot(
                    "Figure 5 — after information fusion (P o P^): below Fig 4, rising in k",
                    &ks,
                    &report.after_series()
                )
            ),
            6 => println!(
                "{}",
                ascii_plot(
                    "Figure 6 — information gain G: positive, trending down in k",
                    &ks,
                    &report.gain_series()
                )
            ),
            7 => println!(
                "{}",
                ascii_plot(
                    "Figure 7 — utility U_k = 1/C_DM(k): decreasing in k",
                    &ks,
                    &report.utility_series()
                )
            ),
            8 => {
                let (result, thresholds) = figure8(&world, (7, 14));
                println!("Figure 8 — weighted objective H over the feasible window");
                println!(
                    "  thresholds: Tp = {:.4e} (paper: 3.075e8), Tu = {:.4e} (paper: 0.0018)",
                    thresholds.tp, thresholds.tu
                );
                let space = result.solution_space();
                let ks: Vec<usize> = space.iter().map(|c| c.k).collect();
                let hs: Vec<f64> = space.iter().map(|c| c.h.unwrap_or(0.0)).collect();
                println!("{}", ascii_plot("  H over the solution space", &ks, &hs));
                println!(
                    "  k_opt = {} with H = {:.4} (paper reports k = 12 on its dataset)",
                    result.k_opt, result.h_opt
                );
                println!();
            }
            other => eprintln!("no figure {other}; the paper's evaluation has figures 4-8"),
        }
    }
}

fn print_composition(config: &WorldConfig, defend: Option<&[DefensePolicy]>) {
    use fred_attack::{FuzzyFusion, FuzzyFusionConfig};
    use fred_composition::{composition_sweep, defense_sweep, CompositionSweepConfig};

    println!("======================================================================");
    println!(" Composition: several independently k-anonymized releases, one core");
    println!(" (Ganta, Kasiviswanathan & Smith; extension beyond the paper)");
    println!("======================================================================");
    let world = faculty_world(config);
    let fusion = FuzzyFusion::new(FuzzyFusionConfig::default()).expect("default config valid");
    let sweep_config = CompositionSweepConfig {
        ks: vec![3, 5, 8],
        releases: vec![1, 2, 3, 4],
        ..CompositionSweepConfig::default()
    };
    match composition_sweep(
        &world.table,
        &world.web,
        &fred_anon::Mdav::new(),
        &fusion,
        &sweep_config,
    ) {
        Ok(report) => {
            println!("{}", report.to_ascii());
            println!(
                "  reading: every added release shrinks each target's candidate set and\n\
                 \x20 feasible sensitive range — k-anonymity does not compose."
            );
            println!();
        }
        Err(e) => eprintln!("composition sweep failed: {e}"),
    }
    if let Some(policies) = defend {
        println!("== Defenses: coordinated releases against the same adversary ==");
        let defense_config = CompositionSweepConfig {
            ks: vec![fred_bench::perf::STAGE_K],
            releases: vec![1, 2, 3],
            ..CompositionSweepConfig::default()
        };
        match defense_sweep(
            &world.table,
            &world.web,
            &fred_anon::Mdav::new(),
            &fusion,
            &defense_config,
            policies,
        ) {
            Ok(report) => {
                println!("{}", report.to_ascii());
                println!(
                    "  reading: coordination removes the independence the attack feeds on —\n\
                     \x20 residual gain stays below the undefended column, at the listed\n\
                     \x20 utility cost in published sensitive-range width."
                );
                println!();
            }
            Err(e) => eprintln!("defense sweep failed: {e}"),
        }
    }
}

fn print_ablations(config: &WorldConfig) {
    println!("======================================================================");
    println!(" Ablations (extensions beyond the paper; DESIGN.md section 5)");
    println!("======================================================================");
    let world = faculty_world(config);

    println!("-- A1: Basic_Anonymization swapped (post-fusion dissimilarity per k) --");
    for series in ablations::anonymizer_ablation(&world, 2, 12) {
        let after = series.report.after_series();
        let ks = series.report.ks();
        let cells: Vec<String> = ks
            .iter()
            .zip(&after)
            .map(|(k, a)| format!("k{k}:{a:.3e}"))
            .collect();
        println!("  {:<12} {}", series.label, cells.join("  "));
    }

    println!("-- A2: adversary strength (mean post-fusion dissimilarity, k=2..12) --");
    for series in ablations::fusion_ablation(&world, 2, 12) {
        let after = series.report.after_series();
        let mean = after.iter().sum::<f64>() / after.len() as f64;
        println!("  {:<20} {mean:.4e}", series.label);
    }

    println!("-- A3: web name noise vs attack (k = 6) --");
    for (scale, dissim, cov) in ablations::noise_ablation(config, 6, &[0.0, 0.5, 1.0, 2.0, 4.0]) {
        println!("  noise x{scale:<4} dissim_after = {dissim:.4e}  aux coverage = {cov:.2}");
    }

    println!("-- A4: web presence vs attack (k = 6) --");
    for (rate, dissim, cov) in ablations::coverage_ablation(config, 6, &[0.2, 0.4, 0.6, 0.8, 1.0]) {
        println!("  presence {rate:<4} dissim_after = {dissim:.4e}  aux coverage = {cov:.2}");
    }

    println!("-- A5: publisher preference W1 (protection weight) vs chosen k_opt --");
    for (w1, k_opt) in ablations::weight_ablation(&world, 14, &[0.0, 0.25, 0.5, 0.75, 1.0]) {
        println!("  W1 = {w1:<5} -> k_opt = {k_opt}");
    }

    println!("-- A6: beyond k-anonymity on the patient dataset (full-domain generalization) --");
    println!("   (note how worst-case diversity does NOT improve with k — the");
    println!("    l-diversity critique of k-anonymity, reference [4] of the paper)");
    println!("  k    distinct-l   entropy-l   t-closeness");
    for (k, d, e, c) in ablations::diversity_ablation(&[2, 4, 8, 16]) {
        println!("  {k:<4} {d:<12} {e:<11.2} {c:.3}");
    }
}
