//! The metric registry, the run outcome and its JSON line, plus the two
//! loops every workload shares: repeated set-up and the timed job loop.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::{median, peak_rss_mb, quantile};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("attack_s", "s"),
    ("fred_p50_ms", "ms"),
    ("fred_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`); a layer
/// the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.population_ms", "ms"),
    ("web.corpus_ms", "ms"),
    ("faults.inject_ms", "ms"),
    ("anon.mdav_ms", "ms"),
    ("anon.mdav_rounds", "count"),
    ("anon.release_ms", "ms"),
    ("anon.release_chunks", "count"),
    ("anon.classes", "count"),
    ("attack.harvest_ms", "ms"),
    ("attack.pages_inspected", "count"),
    ("attack.pages_linked", "count"),
    ("web.search_ms", "ms"),
    ("web.hits", "count"),
    ("linkage.cache_hits", "count"),
    ("linkage.floor_prunes", "count"),
    ("attack.fusion_ms", "ms"),
    ("composition.fuse_ms", "ms"),
    ("composition.scenario_ms", "ms"),
    ("composition.intersect_ms", "ms"),
    ("composition.mean_candidates", "rows"),
    ("eval.score_ms", "ms"),
    ("eval.cells", "count"),
    ("eval.saturated_cells", "count"),
    ("core.sweep_ms", "ms"),
    ("core.fred_ms", "ms"),
    ("faults.rows_lost", "count"),
    ("faults.pages_rejected", "count"),
    ("faults.workers_restarted", "count"),
    ("failed_share", "share"),
    ("aux_coverage", "share"),
    ("link_precision", "share"),
    ("obs.overhead_pct", "%"),
    ("attack.harvest_slope", "exponent"),
    ("anon.mdav_slope", "exponent"),
    ("composition.intersect_slope", "exponent"),
    ("jobs", "count"),
    ("cores", "count"),
];

/// Named values of one job or one run.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run measured and whether its outputs checked out.
pub struct Outcome {
    pub metrics: Values,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones. `correct` is false when any check failed.
    pub fn to_json(&self, trace: bool) -> String {
        let registry = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = registry
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (shortest round-trip form); a non-finite
/// value, which only a bug produces, prints as -1 so it cannot pass.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".into()
    }
}

/// Records a failed output check on stderr; returns `ok` so checks chain.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> bool {
    if !ok {
        eprintln!("perfbench: CHECK FAILED: {}", what());
    }
    ok
}

/// Runs `build` `repeats` times, dropping each result before the next
/// build, and returns the last result with the median of every timing.
pub fn repeated_setup<T>(repeats: usize, mut build: impl FnMut() -> (T, Values)) -> (T, Values) {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let started = Instant::now();
        let (value, times) = build();
        samples
            .entry("setup_s")
            .or_default()
            .push(started.elapsed().as_secs_f64());
        for (name, ms) in times {
            samples.entry(name).or_default().push(ms);
        }
        last = Some(value);
    }
    let medians = samples.iter().map(|(k, v)| (*k, median(v))).collect();
    (last.expect("at least one set-up ran"), medians)
}

/// One job's result: its output digest, its wall time and the per-layer
/// values it measured.
pub struct JobReport {
    pub digest: String,
    pub total_ms: f64,
    pub layers: Values,
}

/// Jobs an untraced run measures at least, whatever `--seconds` allows, so
/// the 100k workloads' median has one job on each side of it and a single
/// job slowed by the machine cannot set `attack_s` alone.
const MIN_UNTRACED_JOBS: usize = 3;

/// Runs a workload's jobs and checks their outputs, for `seconds` of job
/// time and at least [`MIN_UNTRACED_JOBS`] jobs (one round when traced).
/// A job is one unit of measured work; it returns its report and whether
/// its output checks passed.
///
/// Untraced, the jobs run with `fred_obs` off and the end-to-end metrics
/// come from their latencies. Traced, rounds of one untraced and one
/// traced job alternate, closed by one more untraced job, so every traced
/// job sits between two untraced ones and slow drift of the machine
/// cancels out of `obs.overhead_pct`; the per-layer metrics are the traced
/// jobs' medians plus the `fred_obs` counters they drained, per job.
pub fn measure(
    seconds: f64,
    trace: bool,
    key: &str,
    setup: &Values,
    mut job: impl FnMut() -> (JobReport, bool),
) -> Outcome {
    let mut failed = 0;
    let mut run = |failed: &mut u64| {
        let (report, ok) = job();
        *failed += u64::from(!ok);
        report
    };
    let budget_ms = seconds * 1e3;
    let mut untraced: Vec<JobReport> = Vec::new();
    let mut traced: Vec<JobReport> = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let spent = |reports: &[JobReport]| reports.iter().map(|r| r.total_ms).sum::<f64>();
    loop {
        untraced.push(run(&mut failed));
        if trace {
            fred_obs::enable(false);
            traced.push(run(&mut failed));
            for (name, n) in fred_obs::drain().counters {
                *counters.entry(name).or_insert(0) += n;
            }
        }
        let enough_jobs = trace || untraced.len() >= MIN_UNTRACED_JOBS;
        if enough_jobs && spent(&untraced) + spent(&traced) >= budget_ms {
            break;
        }
    }
    if trace {
        untraced.push(run(&mut failed));
    }
    let all: Vec<&JobReport> = untraced.iter().chain(&traced).collect();
    failed += digest_failures(key, &all);
    let metrics = if trace {
        traced_layers(setup, &untraced, &traced, &counters)
    } else {
        end_to_end(setup, &untraced)
    };
    Outcome {
        metrics,
        attempted: all.len() as u64,
        failed,
    }
}

/// Median of each named value across samples.
pub fn median_values<'a>(samples: impl IntoIterator<Item = &'a Values>) -> Values {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for values in samples {
        for (name, v) in values {
            by_name.entry(name).or_default().push(*v);
        }
    }
    by_name.iter().map(|(k, v)| (*k, median(v))).collect()
}

fn latencies(reports: &[JobReport]) -> Vec<f64> {
    reports.iter().map(|r| r.total_ms).collect()
}

/// The tail quantile a run of `samples` jobs can report: p90 when at
/// least ten samples lie beyond it, else the highest quantile that has
/// ten beyond it, and the median when there are fewer than twenty.
fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.9)
}

/// The end-to-end metrics of an untraced run: set-up, the job latency
/// median (`attack_s`) and its median and tail in ms, and peak memory.
fn end_to_end(setup: &Values, reports: &[JobReport]) -> Values {
    let ms = latencies(reports);
    let q = |p: f64| quantile(&ms, p);
    let tail = tail_quantile(ms.len());
    eprintln!(
        "perfbench: {} jobs, latency ms min {:.3} p10 {:.3} p50 {:.3} p{:.0} {:.3} max {:.3}",
        ms.len(),
        q(0.0),
        q(0.1),
        q(0.5),
        tail * 100.0,
        q(tail),
        q(1.0)
    );
    Values::from([
        ("setup_s", setup["setup_s"]),
        ("attack_s", q(0.5) / 1e3),
        ("fred_p50_ms", q(0.5)),
        ("fred_p90_ms", q(tail)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Checks that every job of the run produced the same output digest, and
/// the same one earlier runs of this build recorded for `key`. Returns the
/// number of failed checks.
fn digest_failures(key: &str, reports: &[&JobReport]) -> u64 {
    let first = &reports[0].digest;
    let mut failed = reports.iter().filter(|r| &r.digest != first).count() as u64;
    if failed > 0 {
        eprintln!("perfbench: CHECK FAILED: {failed} jobs of one seed produced different outputs");
    }
    if !check(crate::util::digest_matches_earlier_runs(key, first), || {
        format!("output digest {first} differs from an earlier run of `{key}`")
    }) {
        failed += 1;
    }
    failed
}

/// The per-layer metrics of a traced run: set-up layers, the traced jobs'
/// median layer values, the drained counters per traced job, and the
/// tracing overhead against the untraced jobs.
fn traced_layers(
    setup: &Values,
    untraced: &[JobReport],
    traced: &[JobReport],
    counters: &BTreeMap<String, u64>,
) -> Values {
    let mut m = setup.clone();
    m.extend(median_values(traced.iter().map(|r| &r.layers)));
    let per_job =
        |counter: &str| counters.get(counter).copied().unwrap_or(0) as f64 / traced.len() as f64;
    for (metric, counter) in [
        ("linkage.cache_hits", "harvest.cache_hits"),
        ("linkage.floor_prunes", "harvest.floor_prunes"),
        ("anon.mdav_rounds", "mdav.rounds"),
        ("anon.release_chunks", "release.chunks"),
        ("faults.rows_lost", "faults.rows_skipped"),
        ("faults.pages_rejected", "faults.pages_rejected"),
        ("faults.workers_restarted", "faults.workers_restarted"),
    ] {
        m.insert(metric, per_job(counter));
    }
    let base = median(&latencies(untraced));
    m.insert(
        "obs.overhead_pct",
        100.0 * (median(&latencies(traced)) - base) / base,
    );
    m.insert("jobs", (untraced.len() + traced.len()) as f64);
    m.insert("cores", rayon::current_num_threads() as f64);
    m
}
