//! The result line, the operation count, and the statistics the metrics
//! are reduced with.

use serde::Value;

/// What one run found: operations attempted and failed, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks other than known program faults.
    pub unexpected_failures: u64,
    /// `(name, value, unit)` in the order they were added.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; a failure is logged to stderr and
    /// counted, and the run goes on.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.unexpected_failures += 1;
            eprintln!("perfbench: check {name} FAILED: {why}");
        }
    }

    /// Counts a check that guards a known program fault: its failure is
    /// counted in `failed` but leaves `correct` true.
    pub fn check_known_fault(&mut self, name: &str, fault: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check {name} failed (known fault: {fault}): {why}");
        }
    }

    /// Adds a metric.  Metrics that do not apply to a workload are never
    /// added, so nothing is reported as a placeholder zero.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// `true` when every check that is not a known fault passed.
    pub fn correct(&self) -> bool {
        self.unexpected_failures == 0
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { Value::Float(*value) } else { Value::Null };
                let entry = Value::Object(vec![
                    ("value".to_string(), value),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
/// On an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Resident memory of this process in MiB (`/proc/self/statm`, 4 KiB
/// pages), if the platform reports it.
fn rss_mib() -> Option<f64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / (1024.0 * 1024.0))
}

/// Runs `f` while a second thread samples the resident memory every
/// [`RSS_SAMPLE`], and returns `f`'s result with the largest sample.
///
/// The process-wide high-water mark (`VmHWM`) only ever grows, so it cannot
/// give one figure per round; sampling does, and the median over rounds
/// keeps one round's scheduling-dependent allocation peak from deciding
/// the figure.
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, Option<f64>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mib()?;
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_SAMPLE);
                peak = peak.max(rss_mib()?);
            }
            Some(peak)
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("the memory sampler does not panic");
        (out, peak.zip(rss_mib()).map(|(a, b)| a.max(b)))
    })
}

/// How often [`with_peak_rss`] samples.
const RSS_SAMPLE: std::time::Duration = std::time::Duration::from_millis(5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn known_faults_count_as_failed_but_keep_the_run_correct() {
        let mut r = Report::default();
        r.check("ok", Ok(()));
        r.check_known_fault("probe", "a named fault", Err("differs".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.correct());
        r.check("bad", Err("wrong".into()));
        assert!(!r.correct());
        r.metric("run_s", 1.25, "s");
        let line = r.to_json();
        assert!(line.starts_with(r#"{"correct":false,"attempted":3,"failed":2,"metrics":{"#));
        assert!(line.contains(r#""run_s":{"value":1.25,"unit":"s"}"#), "{line}");
    }
}
