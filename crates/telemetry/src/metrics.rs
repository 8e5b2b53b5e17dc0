//! Prometheus-format metrics exposition for long-running trains.
//!
//! A [`MetricsRegistry`] holds counters, gauges, and fixed-bucket
//! histograms keyed by metric name + label set, rendered in the
//! Prometheus text exposition format (version 0.0.4: `# HELP` / `# TYPE`
//! headers, escaped label values, cumulative `le` buckets with `+Inf`,
//! `_sum` and `_count` series). The registry is fed from the engine's
//! existing [`Monitor`](crate::monitor::Monitor) quantities and traffic
//! totals at superstep boundaries — it never touches the data plane, so
//! metering and trace↔meter reconciliation are unaffected.
//!
//! [`MetricsRegistry::serve`] starts a tiny blocking HTTP responder on a
//! dedicated thread (one request per connection, `GET /metrics` only),
//! deliberately dependency-free; [`MetricsRegistry::snapshot_to`] writes
//! the same rendering to a file so tests and scripts can assert on it
//! without a scrape.

#![expect(clippy::disallowed_types, reason = "/metrics serves no training bytes")]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Scalar(f64),
    Histogram {
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

#[derive(Debug, Clone)]
struct Family {
    help: String,
    kind: Kind,
    /// Histogram upper bounds shared by every series of the family.
    bounds: Vec<f64>,
    /// Series keyed by their rendered label block (`{a="b"}` or empty),
    /// BTreeMap so the exposition is deterministic.
    series: BTreeMap<String, Series>,
}

/// A shared, thread-safe registry of metric families. Cloning shares the
/// underlying state.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a label set as the `{k="v",...}` block ("" when empty).
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// Renders a sample value: integers without a fraction, `+Inf`-safe.
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, kind: Kind, bounds: Vec<f64>) {
        let mut fams = self.families.lock().unwrap();
        fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            bounds,
            series: BTreeMap::new(),
        });
    }

    /// Declares a counter family (idempotent).
    pub fn register_counter(&self, name: &str, help: &str) {
        self.register(name, help, Kind::Counter, Vec::new());
    }

    /// Declares a gauge family (idempotent).
    pub fn register_gauge(&self, name: &str, help: &str) {
        self.register(name, help, Kind::Gauge, Vec::new());
    }

    /// Declares a histogram family with the given ascending upper bounds
    /// (`+Inf` is implicit; idempotent).
    pub fn register_histogram(&self, name: &str, help: &str, bounds: &[f64]) {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        self.register(name, help, Kind::Histogram, bounds.to_vec());
    }

    fn with_series<F: FnOnce(&mut Series)>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        f: F,
    ) {
        let mut fams = self.families.lock().unwrap();
        let Some(fam) = fams.get_mut(name) else {
            debug_assert!(false, "metric {name} used before registration");
            return;
        };
        debug_assert_eq!(fam.kind, kind, "metric {name} used as the wrong kind");
        let bounds = fam.bounds.clone();
        let series = fam
            .series
            .entry(label_block(labels))
            .or_insert_with(|| match kind {
                Kind::Histogram => Series::Histogram {
                    counts: vec![0; bounds.len()],
                    bounds,
                    sum: 0.0,
                    count: 0,
                },
                _ => Series::Scalar(0.0),
            });
        f(series);
    }

    /// Adds `v` (>= 0) to a counter series.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        debug_assert!(v >= 0.0, "counters only go up");
        self.with_series(name, labels, Kind::Counter, |s| {
            if let Series::Scalar(x) = s {
                *x += v;
            }
        });
    }

    /// Sets a gauge series.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.with_series(name, labels, Kind::Gauge, |s| {
            if let Series::Scalar(x) = s {
                *x = v;
            }
        });
    }

    /// Observes one sample in a histogram series.
    pub fn histogram_observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.with_series(name, labels, Kind::Histogram, |s| {
            if let Series::Histogram {
                bounds,
                counts,
                sum,
                count,
            } = s
            {
                for (i, b) in bounds.iter().enumerate() {
                    if v <= *b {
                        counts[i] += 1;
                    }
                }
                *sum += v;
                *count += 1;
            }
        });
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, series) in &fam.series {
                match series {
                    Series::Scalar(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_value(*v));
                    }
                    Series::Histogram {
                        bounds,
                        counts,
                        sum,
                        count,
                    } => {
                        // Cumulative buckets merge with any existing
                        // labels; `le` is appended inside the block.
                        let merge = |le: &str| {
                            if labels.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                            }
                        };
                        for (b, c) in bounds.iter().zip(counts) {
                            let _ = writeln!(out, "{name}_bucket{} {c}", merge(&fmt_value(*b)));
                        }
                        let _ = writeln!(out, "{name}_bucket{} {count}", merge("+Inf"));
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_value(*sum));
                        let _ = writeln!(out, "{name}_count{labels} {count}");
                    }
                }
            }
        }
        out
    }

    /// Writes the current rendering to `path` (test/scripting hook).
    pub fn snapshot_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Binds `addr` and serves `GET /metrics` from a detached thread, one
    /// request per connection. Returns the bound address (pass port 0 to
    /// let the OS pick). The thread lives for the rest of the process —
    /// the responder is control-plane-only and holds no engine state
    /// beyond this registry clone.
    pub fn serve(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let reg = self.clone();
        std::thread::Builder::new()
            .name("metrics-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(mut stream) = conn else { continue };
                    let _ = serve_one(&mut stream, &reg);
                }
            })?;
        Ok(bound)
    }
}

/// Handles one HTTP exchange: minimal request-line parse, `200` with the
/// exposition for `/metrics` (and `/`), `404` otherwise.
fn serve_one(stream: &mut std::net::TcpStream, reg: &MetricsRegistry) -> std::io::Result<()> {
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, body) = if path == "/metrics" || path == "/" {
        ("200 OK", reg.render())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_text_exposition() {
        let reg = MetricsRegistry::new();
        reg.register_counter("test_requests_total", "Requests handled.");
        reg.register_gauge("test_loss", "Current loss.");
        reg.register_histogram("test_compute_seconds", "Compute time.", &[0.1, 1.0]);
        reg.counter_add("test_requests_total", &[("worker", "0")], 3.0);
        reg.counter_add("test_requests_total", &[("worker", "1")], 1.5);
        reg.gauge_set("test_loss", &[], 0.25);
        reg.histogram_observe("test_compute_seconds", &[], 0.05);
        reg.histogram_observe("test_compute_seconds", &[], 0.5);
        reg.histogram_observe("test_compute_seconds", &[], 5.0);
        let expected = "\
# HELP test_compute_seconds Compute time.
# TYPE test_compute_seconds histogram
test_compute_seconds_bucket{le=\"0.1\"} 1
test_compute_seconds_bucket{le=\"1\"} 2
test_compute_seconds_bucket{le=\"+Inf\"} 3
test_compute_seconds_sum 5.55
test_compute_seconds_count 3
# HELP test_loss Current loss.
# TYPE test_loss gauge
test_loss 0.25
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total{worker=\"0\"} 3
test_requests_total{worker=\"1\"} 1.5
";
        assert_eq!(reg.render(), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.register_gauge("test_esc", "Escaping.");
        reg.gauge_set("test_esc", &[("path", "a\\b\"c\nd")], 1.0);
        assert_eq!(
            reg.render(),
            "# HELP test_esc Escaping.\n# TYPE test_esc gauge\n\
             test_esc{path=\"a\\\\b\\\"c\\nd\"} 1\n"
        );
    }

    #[test]
    fn labeled_histogram_merges_le_into_block() {
        let reg = MetricsRegistry::new();
        reg.register_histogram("test_h", "H.", &[1.0]);
        reg.histogram_observe("test_h", &[("phase", "gather")], 0.5);
        let r = reg.render();
        assert!(
            r.contains("test_h_bucket{phase=\"gather\",le=\"1\"} 1"),
            "{r}"
        );
        assert!(
            r.contains("test_h_bucket{phase=\"gather\",le=\"+Inf\"} 1"),
            "{r}"
        );
        assert!(r.contains("test_h_sum{phase=\"gather\"} 0.5"), "{r}");
    }

    #[test]
    fn http_responder_serves_metrics_and_404() {
        let reg = MetricsRegistry::new();
        reg.register_counter("test_http_total", "Scrapes.");
        reg.counter_add("test_http_total", &[], 7.0);
        let addr = reg.serve("127.0.0.1:0").expect("bind");
        for (path, want_status, want_body) in [
            ("/metrics", "200 OK", "test_http_total 7"),
            ("/nope", "404 Not Found", "not found"),
        ] {
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
            s.write_all(req.as_bytes()).unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            assert!(
                resp.starts_with(&format!("HTTP/1.1 {want_status}")),
                "{resp}"
            );
            assert!(resp.contains(want_body), "{resp}");
            assert!(resp.contains("version=0.0.4"), "{resp}");
        }
    }
}
