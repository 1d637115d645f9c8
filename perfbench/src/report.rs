//! Metrics, summary statistics and the run's result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// VMs whose migration the run attempted.
    pub attempted: u64,
    /// Human-readable reason per failed VM.
    pub failures: Vec<String>,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (sample counts, accounting).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed VM.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Folds another workload's outcome into this one (`--workload all`).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// The median of `values` (0 for an empty slice, so a run whose every VM
/// failed still prints a well-formed line).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A finite JSON number: JSON has no NaN or infinity.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len()
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            o,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    o.push_str("}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.5, "s");
        o.metric("bad", f64::NAN, "s");
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
