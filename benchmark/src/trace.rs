//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a layer, start and end times, the span that caused
//! it, and the id of the operation (request or target set) it belongs
//! to. Spans stay in memory during the run and are written out as JSON
//! lines when it ends. A span's self time is its duration minus the part
//! of it its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// The layer of spans that stand for time no measurement attributes to a
/// layer (such as the part of a round trip outside the server's own span
/// beyond the idle floor).
pub const UNATTRIBUTED: &str = "unattributed";

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a span and returns its id (for children to name).
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            op,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Records `phases` as consecutive children of `parent` from
    /// `start_ns`, each clipped to end by `limit_ns`; returns where the
    /// last one ended.
    pub fn record_sequence(
        &mut self,
        op: u64,
        parent: usize,
        layer: &'static str,
        phases: &[(&'static str, u64)],
        start_ns: u64,
        limit_ns: u64,
    ) -> u64 {
        let mut at = start_ns;
        for &(name, ns) in phases {
            let end = (at + ns).min(limit_ns);
            self.record(op, Some(parent), layer, name, at, end);
            at = end;
        }
        at
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per operation: `(root duration, self time per layer)`.
    pub fn per_op(&self) -> BTreeMap<u64, (u64, BTreeMap<&'static str, u64>)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let entry = out.entry(s.op).or_default();
            if s.parent.is_none() {
                entry.0 += s.end_ns - s.start_ns;
            }
            *entry.1.entry(s.layer).or_default() += own;
        }
        out
    }

    /// Per operation, the share of its root span that the self times of
    /// layer spans account for. Spans of the [`UNATTRIBUTED`] layer are
    /// excluded: they mark time nothing measured explains.
    pub fn coverage(&self) -> Vec<f64> {
        let selfs = self.self_times();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            if s.parent.is_some() && s.layer != UNATTRIBUTED {
                *covered.entry(s.op).or_default() += own;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.end_ns > s.start_ns)
            .map(|s| {
                covered.get(&s.op).copied().unwrap_or(0) as f64 / (s.end_ns - s.start_ns) as f64
            })
            .collect()
    }

    /// Mean self time per operation of each layer, in ms.
    pub fn mean_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let ops = self.per_op();
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (_, layers) in ops.values() {
            for (&l, &ns) in layers {
                *sums.entry(l).or_default() += ns as f64 / 1e6;
            }
        }
        let n = ops.len().max(1) as f64;
        sums.values_mut().for_each(|v| *v /= n);
        sums
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Whether a traced run traces operation `op`: a fixed pseudo-random half
/// of all operations, so the untraced half is a like-for-like baseline
/// whatever the operation's position, class or client.
pub fn sampled(op: u64) -> bool {
    op.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0
}

/// The server's `?trace=1` echo: its total time before the write and the
/// phases it closed, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Echo {
    pub total_ns: u64,
    pub phases: Vec<(String, u64)>,
}

impl Echo {
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, ns)| ns)
            .sum()
    }
}

fn as_u64(v: &remi_serve::json::Value) -> Option<u64> {
    match *v {
        remi_serve::json::Value::Number(n) if n >= 0.0 => Some(n as u64),
        _ => None,
    }
}

/// Extracts the `"trace"` object of a response body.
pub fn parse_echo(body: &str) -> Result<Echo, String> {
    let doc = remi_serve::json::parse(body.as_bytes())?;
    let trace = doc.get("trace").ok_or("response carries no trace echo")?;
    let total_ns = trace
        .get("total_ns")
        .and_then(as_u64)
        .ok_or("trace echo lacks total_ns")?;
    let phases = trace
        .get("phases")
        .and_then(|p| p.as_array())
        .ok_or("trace echo lacks phases")?
        .iter()
        .map(|p| {
            let name = p.get("phase").and_then(|v| v.as_str());
            let ns = p.get("ns").and_then(as_u64);
            name.zip(ns)
                .map(|(n, ns)| (n.to_string(), ns))
                .ok_or_else(|| "malformed trace phase".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Echo { total_ns, phases })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_of_all_operations_are_traced() {
        let n = (0..10_000u64).filter(|&op| sampled(op)).count();
        assert!((4_900..=5_100).contains(&n), "{n}");
        // Neither parity nor any short period decides it.
        assert!((0..100u64).any(|k| sampled(2 * k)) && (0..100u64).any(|k| !sampled(2 * k)));
    }

    #[test]
    fn parses_the_trace_echo() {
        let body = "{\"entity\":\"e:A\",\"results\":[],\"trace\":{\"route\":\"describe\",\"total_ns\":5000000123,\
                    \"phases\":[{\"phase\":\"parse\",\"ns\":1200},{\"phase\":\"admission\",\"ns\":300},\
                    {\"phase\":\"cache\",\"ns\":50},{\"phase\":\"mine\",\"ns\":4999998000}]}}";
        let echo = parse_echo(body).unwrap();
        assert_eq!(echo.total_ns, 5_000_000_123);
        assert_eq!(echo.phases.len(), 4);
        assert_eq!(echo.phase_ns("mine"), 4_999_998_000);
        assert_eq!(echo.phase_ns("ingest"), 0);
        assert!(parse_echo("{\"entity\":\"e:A\"}").is_err());
        assert!(parse_echo("{\"trace\":{\"total_ns\":1,\"phases\":[{\"phase\":3}]}}").is_err());
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut t = Tracer::default();
        let root = t.record(7, None, "client", "request", 0, 100);
        let end = t.record_sequence(7, root, "serve", &[("parse", 10), ("mine", 60)], 5, 100);
        assert_eq!(end, 75);
        // Overlapping grandchildren must not be double-counted.
        t.record(7, Some(2), "core", "setup", 20, 50);
        t.record(7, Some(2), "core", "queue", 40, 60);
        let selfs = t.self_times();
        assert_eq!(selfs[root], 30);
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 20);
        let (root_ns, layers) = &t.per_op()[&7];
        assert_eq!(*root_ns, 100);
        assert_eq!(layers["client"], 30);
        assert_eq!(layers["serve"], 30);
        assert_eq!(layers["core"], 50);
    }

    #[test]
    fn sequences_are_clipped_to_their_parent() {
        let mut t = Tracer::default();
        let root = t.record(1, None, "client", "request", 0, 50);
        let end = t.record_sequence(1, root, "serve", &[("parse", 30), ("mine", 60)], 0, 50);
        assert_eq!(end, 50);
        assert_eq!(t.self_times()[root], 0);
        let (root_ns, layers) = &t.per_op()[&1];
        assert_eq!(layers.values().sum::<u64>(), *root_ns);
        assert_eq!(t.coverage(), vec![1.0]);
    }
}
