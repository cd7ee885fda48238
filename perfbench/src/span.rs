//! In-memory spans recorded around calls into the simulator's crates.
//!
//! A span has a name, a start, an end and the span that encloses it. The
//! benchmark nests them workload -> kernel or phase -> layer call; a layer
//! call is named `<layer>.<call>` (`sim.run`, `dse.run_sweep`, ...), with
//! `<layer>` one of [`LAYERS`]. The spans stay in memory and are written
//! out once, when the run ends.

use crate::host::wall_ns;
use std::fmt::Write as _;

/// The layers (crates) whose calls the benchmark wraps in spans.
pub const LAYERS: [&str; 7] = ["workloads", "func", "sim", "mem", "uarch", "sample", "dse"];

/// One recorded span (times are wall nanoseconds since process start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>` for a layer call; a free-form label otherwise.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a call span belongs to (`sim` for `sim.run`), or `None`
    /// for a grouping span (workload, kernel, phase), whatever dots the
    /// kernel name in it holds (`kernel:gzip.c`).
    pub fn layer(&self) -> Option<&'static str> {
        let (prefix, _) = self.name.split_once('.')?;
        LAYERS.into_iter().find(|&l| l == prefix)
    }
}

/// Records spans when on; runs the closures bare when off.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `name` (the name is only built when
    /// recording).
    pub fn span<R>(
        &mut self,
        name: impl FnOnce() -> String,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name(),
            start_ns: wall_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = wall_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self seconds per layer (`bench` for grouping spans), sorted by
/// layer name.
pub fn self_seconds_by_layer(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by: Vec<(String, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer = s.layer().unwrap_or("bench");
        match by.iter_mut().find(|(l, _)| l == layer) {
            Some((_, acc)) => *acc += t as f64 / 1e9,
            None => by.push((layer.to_string(), t as f64 / 1e9)),
        }
    }
    by.sort_by(|a, b| a.0.cmp(&b.0));
    by
}

/// The spans as JSON lines, each with its self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{t}}}",
            s.name.replace('\\', "\\\\").replace('"', "\\\""),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("detail", 0, 100, None),
            span("kernel", 10, 60, Some(0)),
            span("sim.run", 20, 50, Some(1)),
            span("kernel:gzip.c", 60, 90, Some(0)),
            // Overlaps its sibling: the shared 70..80 counts once.
            span("func.run", 65, 80, Some(3)),
            span("mem.warm", 70, 85, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 10, 15, 15]);
        let by = self_seconds_by_layer(&spans);
        let names: Vec<&str> = by.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(names, ["bench", "func", "mem", "sim"]);
        // The dotted kernel name stays a grouping span: bench's self time
        // is the workload's 20 plus both kernels' 20 and 10.
        assert_eq!(spans[3].layer(), None);
        assert!((by[0].1 - 50e-9).abs() < 1e-15);
        for name in [
            "job:perl.i/reno",
            "probe:func/gs.de",
            "probe:checkpoint/mpg2.de",
        ] {
            assert_eq!(span(name, 0, 1, None).layer(), None, "{name}");
        }
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::on();
        let v = t.span(|| "w".into(), |t| t.span(|| "sim.run".into(), |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.spans()[1].layer(), Some("sim"));
        assert!(to_json_lines(t.spans()).contains("\"name\":\"sim.run\""));

        let mut off = Tracer::off();
        off.span(|| unreachable!("names are not built when off"), |_| ());
        assert!(off.spans().is_empty());
    }
}
