//! The name → instrument table and the Prometheus text renderer.
//!
//! Series names carry their labels inline, exactly as they render:
//! `remi_http_request_duration_ns{route="describe",status="200"}`. The
//! registry lock is only taken at instrument creation/registration and at
//! render time — hot paths hold `Arc`s to the instruments themselves.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{bucket_upper_edge, Counter, Gauge, Histogram, BUCKETS};

/// Build a series name from a family and label pairs:
/// `series("x_total", &[("route", "stats")])` → `x_total{route="stats"}`.
pub fn series(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    if v.contains(['\\', '"', '\n']) {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    } else {
        v.to_string()
    }
}

/// `fam{a="b"}` → (`fam`, `a="b"`); `fam` → (`fam`, ``).
fn split_series(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((family, rest)) => (family, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    metric: Metric,
}

/// A process- or server-wide table of named instruments.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if let Metric::Counter(c) = &e.metric {
                if e.name == name {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.to_string(),
            metric: Metric::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if let Metric::Gauge(g) = &e.metric {
                if e.name == name {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.to_string(),
            metric: Metric::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Get or create the histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut entries = self.entries.lock();
        for e in entries.iter() {
            if let Metric::Histogram(h) = &e.metric {
                if e.name == name {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_string(),
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Attach an instrument that was created elsewhere (pool and kb build
    /// theirs standalone so those crates stay registry-free).
    pub fn register_counter(&self, name: &str, c: Arc<Counter>) {
        self.entries.lock().push(Entry {
            name: name.to_string(),
            metric: Metric::Counter(c),
        });
    }

    pub fn register_gauge(&self, name: &str, g: Arc<Gauge>) {
        self.entries.lock().push(Entry {
            name: name.to_string(),
            metric: Metric::Gauge(g),
        });
    }

    pub fn register_histogram(&self, name: &str, h: Arc<Histogram>) {
        self.entries.lock().push(Entry {
            name: name.to_string(),
            metric: Metric::Histogram(h),
        });
    }

    /// Render every registered instrument in Prometheus text exposition
    /// format, grouped by family with one `# TYPE` line each.
    pub fn render_prometheus(&self) -> String {
        let mut snap: Vec<(String, Metric)> = {
            let entries = self.entries.lock();
            entries
                .iter()
                .map(|e| (e.name.clone(), e.metric.clone()))
                .collect()
        };
        // Stable, family-grouped output regardless of registration order.
        snap.sort_by(|a, b| {
            let (fa, _) = split_series(&a.0);
            let (fb, _) = split_series(&b.0);
            fa.cmp(fb).then_with(|| a.0.cmp(&b.0))
        });
        let mut w = PromText::new();
        for (name, metric) in &snap {
            match metric {
                Metric::Counter(c) => w.counter(name, c.get()),
                Metric::Gauge(g) => w.gauge(name, g.get()),
                Metric::Histogram(h) => w.histogram(name, h),
            }
        }
        w.into_string()
    }
}

/// The incremental Prometheus text writer behind
/// [`Registry::render_prometheus`]. Emits each family's `# TYPE` line
/// exactly once, on first sight.
#[derive(Default)]
struct PromText {
    out: String,
    typed: Vec<String>,
}

impl PromText {
    fn new() -> Self {
        PromText::default()
    }

    fn type_line(&mut self, family: &str, kind: &str) {
        if self.typed.iter().any(|f| f == family) {
            return;
        }
        self.typed.push(family.to_string());
        let _ = writeln!(self.out, "# TYPE {family} {kind}");
    }

    fn counter(&mut self, name: &str, value: u64) {
        let (family, _) = split_series(name);
        self.type_line(family, "counter");
        let _ = writeln!(self.out, "{name} {value}");
    }

    fn gauge(&mut self, name: &str, value: u64) {
        let (family, _) = split_series(name);
        self.type_line(family, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Render a histogram as cumulative `_bucket{le=...}` series (buckets
    /// past the last occupied one are elided; `+Inf` always present) plus
    /// `_sum` and `_count`.
    fn histogram(&mut self, name: &str, h: &Histogram) {
        let snap = h.snapshot();
        let (family, labels) = split_series(name);
        self.type_line(family, "histogram");
        let highest = snap
            .buckets()
            .iter()
            .rposition(|&n| n != 0)
            .map(|i| (i + 1).min(BUCKETS - 1))
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, n) in snap.buckets().iter().enumerate().take(highest) {
            cumulative = cumulative.saturating_add(*n);
            let le = bucket_upper_edge(i).to_string();
            let _ = writeln!(
                self.out,
                "{}_bucket{{{}}} {cumulative}",
                family,
                join_labels(labels, &le)
            );
        }
        let _ = writeln!(
            self.out,
            "{}_bucket{{{}}} {}",
            family,
            join_labels(labels, "+Inf"),
            snap.count()
        );
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(self.out, "{family}_sum{suffix} {}", snap.sum());
        let _ = writeln!(self.out, "{family}_count{suffix} {}", snap.count());
    }

    fn into_string(self) -> String {
        self.out
    }
}

fn join_labels(existing: &str, le: &str) -> String {
    if existing.is_empty() {
        format!("le=\"{le}\"")
    } else {
        format!("{existing},le=\"{le}\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_builds_label_sets() {
        assert_eq!(series("x_total", &[]), "x_total");
        assert_eq!(
            series("x_total", &[("route", "stats"), ("status", "200")]),
            "x_total{route=\"stats\",status=\"200\"}"
        );
        assert_eq!(series("x", &[("v", "a\"b")]), "x{v=\"a\\\"b\"}");
    }

    #[test]
    fn get_or_create_dedups_by_name_and_type() {
        let r = Registry::new();
        let a = r.counter("hits_total");
        let b = r.counter("hits_total");
        a.inc();
        assert_eq!(b.get(), 1);
        // A gauge under a different name is a distinct instrument.
        let g = r.gauge("depth");
        g.set(7);
        assert_eq!(r.gauge("depth").get(), 7);
    }

    #[test]
    fn renders_counters_gauges_and_histograms() {
        let r = Registry::new();
        r.counter("remi_requests_total{route=\"stats\"}").add(3);
        r.counter("remi_requests_total{route=\"describe\"}").add(5);
        r.gauge("remi_depth").set(2);
        let h = r.histogram("remi_latency_ns{route=\"describe\"}");
        h.record(100);
        h.record(5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE remi_requests_total counter"));
        // The TYPE line appears once for the family, not per series.
        assert_eq!(text.matches("# TYPE remi_requests_total").count(), 1);
        assert!(text.contains("remi_requests_total{route=\"stats\"} 3"));
        assert!(text.contains("remi_requests_total{route=\"describe\"} 5"));
        assert!(text.contains("# TYPE remi_depth gauge"));
        assert!(text.contains("remi_depth 2"));
        assert!(text.contains("# TYPE remi_latency_ns histogram"));
        assert!(text.contains("remi_latency_ns_bucket{route=\"describe\",le=\"+Inf\"} 2"));
        assert!(text.contains("remi_latency_ns_sum{route=\"describe\"} 105"));
        assert!(text.contains("remi_latency_ns_count{route=\"describe\"} 2"));
        // Cumulative buckets are monotone non-decreasing.
        let mut last = 0u64;
        for line in text.lines() {
            if line.starts_with("remi_latency_ns_bucket") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "bucket series must be cumulative: {line}");
                last = v;
            }
        }
    }

    #[test]
    fn registered_external_instruments_render() {
        let r = Registry::new();
        let c = Arc::new(Counter::new());
        c.add(9);
        r.register_counter("remi_pool_steals_total", Arc::clone(&c));
        assert!(r.render_prometheus().contains("remi_pool_steals_total 9"));
    }
}
