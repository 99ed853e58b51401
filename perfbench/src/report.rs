//! Run bookkeeping: metrics, correctness checks, operation counts, and
//! the output format (readable lines, then one JSON line).

use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 3] = ["setup_s", "served_Bps", "peak_rss_MB"];

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by nearest rank (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, over the whole `window`s of `span`, of the events per
/// second completed in each; `done` holds each event's completion offset
/// from the start of the span. A stretch of the run slowed by the host
/// moves a few windows, not the median. Falls back to the plain rate
/// when the span holds no whole window.
pub fn median_rate(done: &[Duration], window: Duration, span: Duration) -> f64 {
    let whole = (span.as_nanos() / window.as_nanos().max(1)) as usize;
    if whole == 0 {
        return done.len() as f64 / span.as_secs_f64();
    }
    let mut counts = vec![0u64; whole];
    for t in done {
        let w = (t.as_nanos() / window.as_nanos()) as usize;
        if w < whole {
            counts[w] += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / window.as_secs_f64())
        .collect();
    median(&rates)
}

/// Nanosecond samples as microseconds.
pub fn us(samples_ns: &[u64]) -> Vec<f64> {
    samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    checks: Vec<(String, bool, String)>,
    /// Operations attempted (requests, sections).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
}

impl Report {
    /// Records a metric; a later value under the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Records a correctness check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    /// Whether every check passed.
    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the readable lines, then the result JSON carrying exactly
    /// the metrics named in `keep`. Returns false (and prints no JSON)
    /// if one of them was not measured or is not finite.
    pub fn print(&self, keep: &[&str]) -> bool {
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name}: {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "metric fail_share = {share} share ({} of {})",
            self.failed, self.attempted
        );
        let mut json = String::new();
        for name in keep {
            let Some((_, value, unit)) = self.metrics.iter().find(|(n, _, _)| n == name) else {
                eprintln!("metric {name} was not measured");
                return false;
            };
            if !value.is_finite() {
                eprintln!("metric {name} is not finite: {value}");
                return false;
            }
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.all_checks_pass(),
            self.attempted.max(1),
            self.failed,
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_rate_ignores_one_slow_window() {
        let ms = Duration::from_millis;
        // 10 events in each of windows 0, 1 and 3, one in window 2.
        let mut done: Vec<Duration> = (0..10).map(|i| ms(i * 10)).collect();
        done.extend((0..10).map(|i| ms(100 + i * 10)));
        done.push(ms(250));
        done.extend((0..10).map(|i| ms(300 + i * 10)));
        assert_eq!(median_rate(&done, ms(100), ms(400)), 100.0);
        assert_eq!(median_rate(&done, ms(1000), ms(400)), 31.0 / 0.4);
    }

    #[test]
    fn a_failed_check_counts_as_a_failure() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.check("a", true, "");
        r.check("b", false, "mismatch");
        assert_eq!(r.failed, 1);
        assert!(!r.all_checks_pass());
    }
}
