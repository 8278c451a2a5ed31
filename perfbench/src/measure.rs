//! Sample statistics, process counters, output checks and the report.

use serde::Value;

/// Nearest-rank percentile `p` (0–100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The highest of a run's per-pass throughputs: its best pass. Noise on a
/// shared machine only ever slows a pass, so the best pass is the
/// steadiest estimate of what the code can do.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Per-position best times over a run's passes. Every pass of a run
/// performs the same operations in the same order (the seed fixes them,
/// and the output checks confirm it), so each position keeps its lowest
/// time over the passes, since contention from other tenants only ever
/// adds time. Each position needs one quiet moment among the passes,
/// where a pass-level best needs a whole quiet pass.
#[derive(Debug, Default)]
pub struct BestTimes {
    best: Vec<f64>,
    /// Samples seen.
    pub count: u64,
}

impl BestTimes {
    /// Takes one pass's times, leaving `pass` empty. Returns false, and
    /// keeps none of them, if the pass recorded a different number of
    /// times than the first pass.
    pub fn end_pass(&mut self, pass: &mut Vec<f64>) -> bool {
        if self.best.is_empty() {
            self.best = std::mem::take(pass);
        } else if self.best.len() == pass.len() {
            for (b, &x) in self.best.iter_mut().zip(pass.iter()) {
                *b = b.min(x);
            }
            pass.clear();
        } else {
            pass.clear();
            return false;
        }
        self.count += self.best.len() as u64;
        true
    }

    /// Percentile `p` (0–100) of the best times.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&mut self.best.clone(), p)
    }

    /// Sum of the best times.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// Peak resident set size in MiB (`VmHWM`; 0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Operations attempted and failed; every failure is also described on
/// stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one run prints: the determinism record and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Deterministic outputs of the simulation (digest and counts).
    pub determinism: Vec<(String, Value)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a deterministic output.
    pub fn det(&mut self, name: &str, value: Value) {
        self.determinism.push((name.to_owned(), value));
    }

    /// Prints the determinism line and, last, the result object.
    /// Returns whether every check passed.
    pub fn print(&self, workload: &str, seed: u64) -> bool {
        let mut det = vec![
            ("workload".to_owned(), Value::Str(workload.to_owned())),
            ("seed".to_owned(), Value::UInt(seed)),
        ];
        det.extend(self.determinism.iter().cloned());
        println!(
            "determinism {}",
            serde_json::to_string(&Value::Object(det)).expect("render determinism")
        );
        let correct = self.checks.failed == 0;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::Float(v)),
                        ("unit".to_owned(), Value::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect();
        let out = Value::Object(vec![
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), Value::UInt(self.checks.attempted)),
            ("failed".to_owned(), Value::UInt(self.checks.failed)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        println!("{}", serde_json::to_string(&out).expect("render result"));
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
