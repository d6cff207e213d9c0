//! Timing, statistics, memory and digest helpers shared by the workloads.

use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Runs `f` and returns its result with the wall time in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Least-squares slope of `ln(y)` against `ln(x)`: the scaling exponent
/// of a layer across a size ladder.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    if logs.len() < 2 {
        return 0.0;
    }
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over everything formatted into it: `write!(d, "{x:?}")` folds a
/// value's canonical `Debug` form (floats print shortest-round-trip, so
/// equal digests mean bit-equal outputs) without building the string.
#[derive(Clone)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `value`'s `Debug` form into the digest.
    pub fn add(&mut self, value: &impl std::fmt::Debug) {
        write!(self, "{value:?}|").expect("writing into a digest cannot fail");
    }

    /// Folds raw bytes into the digest.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.add_bytes(s.as_bytes());
        Ok(())
    }
}

/// Compares `digest` with the one an earlier run of the same executable
/// recorded for `key`, recording it when there is none. The store sits
/// next to the benchmark executable, inside the build directory, under a
/// digest of the executable's bytes, so runs of one build share it and a
/// rebuild of changed code in the same directory never reads the old
/// build's digests. Returns `false` on a mismatch.
pub fn digest_matches_earlier_runs(key: &str, digest: &str) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        return true;
    };
    let (Some(bin_dir), Some(build)) = (exe.parent(), file_digest(&exe)) else {
        return true;
    };
    let dir: PathBuf = bin_dir.join("perfbench-digests").join(build.hex());
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => earlier.trim() == digest,
        Err(_) => {
            // Best effort: a store that cannot be written only loses the
            // cross-run comparison, never the run.
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, digest);
            true
        }
    }
}

/// Digest of a file's bytes, read through a small buffer so hashing the
/// executable does not raise the run's peak memory.
fn file_digest(path: &Path) -> Option<Digest> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut buf = [0u8; 1 << 16];
    let mut digest = Digest::new();
    loop {
        match file.read(&mut buf).ok()? {
            0 => return Some(digest),
            n => digest.add_bytes(&buf[..n]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn slope_of_power_law() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0].iter().map(|&x| (x, 3.0 * x * x)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.add(&1);
        a.add(&2);
        let mut b = Digest::new();
        b.add(&2);
        b.add(&1);
        assert_ne!(a.hex(), b.hex());
    }
}
