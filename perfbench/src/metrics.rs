//! Sample statistics, the metric table and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Every metric name, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; they cannot arise from the
            // finite sample sets above, but never emit an invalid line.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reductions or requests), traced ones included.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Human-readable description of every failed check (capped).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// Escapes `s` as a JSON string body (control characters become spaces).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Starts a new peak-RSS window: asks the kernel to reset this
/// process's high-water mark to its current RSS (`clear_refs` value 5,
/// which touches no page state). Returns `false` where unsupported; the
/// windows then all report the process-lifetime peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the
/// last [`reset_peak_rss`], if the platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metrics.set("op_ms_p50", 1.25, "ms");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        o.fail("boom".into());
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
