//! Order statistics, metric naming, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median and 99th percentile of a sample, with the sample count they
/// rest on. `p99` has fewer than ten samples beyond it when `n < 1000`;
/// the count is reported so a reader can tell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

/// Nearest-rank percentiles of `xs`; `None` for an empty sample.
pub fn percentiles(xs: &[f64]) -> Option<Percentiles> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let r = (q * sorted.len() as f64).ceil() as usize;
        sorted[r.clamp(1, sorted.len()) - 1]
    };
    Some(Percentiles {
        p50: rank(0.50),
        p99: rank(0.99),
        n: sorted.len(),
    })
}

/// The nearest-rank median (`NaN` for an empty sample, which the
/// renderer rejects).
pub fn median(xs: &[f64]) -> f64 {
    percentiles(xs).map_or(f64::NAN, |p| p.p50)
}

/// Arithmetic mean (`NaN` for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Sets `name` to the median and adds `name.p99` and `name.n`.
    pub fn set_percentiles(&mut self, name: &str, p: Option<Percentiles>) {
        let p = p.unwrap_or(Percentiles {
            p50: f64::NAN,
            p99: f64::NAN,
            n: 0,
        });
        self.set(name, p.p50);
        self.set(&format!("{name}.p99"), p.p99);
        self.set(&format!("{name}.n"), p.n as f64);
    }
}

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being exactly `declared`, in
/// order. A declared metric without a finite value, or a value without a
/// declaration, is an error: the benchmark then prints no result.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut extra: Vec<&String> = values.0.keys().collect();
    extra.retain(|k| !declared.iter().any(|(d, _)| d == k));
    if !extra.is_empty() {
        return Err(format!("undeclared metrics {extra:?}"));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        if !valid_metric_name(name) {
            return Err(format!("illegal metric name {name:?}"));
        }
        let v = *values
            .0
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // `{}` on f64 prints the shortest string that reads back to the
        // same bits: every measured digit survives.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_their_sample_count() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = percentiles(&xs).unwrap();
        assert_eq!(p.n, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
        let one = percentiles(&[7.0]).unwrap();
        assert_eq!((one.p50, one.p99, one.n), (7.0, 7.0, 1));
        assert!(percentiles(&[]).is_none());

        let mut v = Values::default();
        v.set_percentiles("x_us", percentiles(&[3.0, 1.0, 2.0]));
        assert_eq!(v.0["x_us"], 2.0);
        assert_eq!(v.0["x_us.p99"], 3.0);
        assert_eq!(v.0["x_us.n"], 3.0);
    }

    #[test]
    fn metric_name_rule() {
        for ok in ["setup_s", "core.phase.sample_ms.p99", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "x:y", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn render_checks_the_declared_set() {
        let declared = [("a_s", "s"), ("b", "count")];
        let mut v = Values::default();
        v.set("a_s", 0.5);
        assert!(render(true, 1, 0, &declared, &v).is_err(), "missing b");
        v.set("b", 3.0);
        let line = render(true, 2, 0, &declared, &v).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        v.set("c", 1.0);
        assert!(render(true, 2, 0, &declared, &v).is_err(), "undeclared c");
        v = Values::default();
        v.set("a_s", f64::NAN);
        v.set("b", 1.0);
        assert!(render(true, 1, 0, &declared, &v).is_err(), "NaN a_s");
    }
}
