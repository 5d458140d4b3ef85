//! In-memory span recording for the traced run: spans are taken around
//! calls into each layer's public functions, kept in a vector, reduced to
//! per-layer self times, and written out at the end as a Chrome trace
//! through [`bfpp::sim::observe::ChromeTraceWriter`].

use std::collections::BTreeMap;
use std::time::Instant;

use bfpp::sim::observe::{ArgValue, ChromeTraceWriter, OpCategory, TraceOp, Track};
use bfpp::sim::{OpGraph, SimDuration};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`wire.parse`, `planner.session`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (request or step) the span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled recorder keeps nothing, so the same code
/// path runs traced and untraced and the difference is the tracing cost.
/// Recording can be switched per operation: the traced runs trace a
/// seeded half of their operations and compare them with the other half.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`usize::MAX` when recording is off).
pub type SpanId = usize;

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off from the next span on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let t = self.now_ns();
        self.record(name, op, parent, t, t)
    }

    /// Closes an open span at the current time.
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let t = self.now_ns();
            self.spans[id].end_ns = t;
        }
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.filter(|&p| p != usize::MAX),
            op,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Which of `n` replayed operations are traced: a seeded half, so the
/// traced and untraced halves share the process and host conditions of
/// one replay and their difference is the tracing overhead.
pub fn halves(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = crate::workload::Rng::new(seed, 5);
    (0..n).map(|_| rng.below(2) == 0).collect()
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Per-layer totals of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this layer.
    pub count: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
}

/// Self time and duration summed per layer name, over the spans of the
/// operations `ops` selects.
pub fn layer_totals(
    spans: &[Span],
    ops: impl Fn(u64) -> bool,
) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if !ops(s.op) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += self_ns;
        t.total_ns += s.dur_ns();
    }
    out
}

/// A waterfall: the self time of every layer under a root span name,
/// checked against the roots' total duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Waterfall {
    /// Root spans (operations) covered.
    pub ops: u64,
    /// Sum of the roots' durations — the traced end-to-end time, ns.
    pub total_ns: u64,
    /// `(layer, summed self time ns)`, excluding the root's own self
    /// time, which is the residual.
    pub rows: Vec<(&'static str, u64)>,
    /// Root self time: traced time no layer span accounts for, ns.
    pub residual_ns: u64,
}

impl Waterfall {
    /// Residual as a share of the traced end-to-end time.
    pub fn residual_frac(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.residual_ns as f64 / self.total_ns as f64
        }
    }

    /// Human-readable rendering, one row per layer.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# waterfall: {} ops, traced e2e {:.3} ms/op\n",
            self.ops,
            self.total_ns as f64 / self.ops.max(1) as f64 / 1e6
        );
        for (name, ns) in &self.rows {
            s.push_str(&format!(
                "#   {name:<24} {:>10.1} us/op {:>6.2}%\n",
                *ns as f64 / self.ops.max(1) as f64 / 1e3,
                100.0 * *ns as f64 / self.total_ns.max(1) as f64
            ));
        }
        s.push_str(&format!(
            "#   {:<24} {:>10.1} us/op {:>6.2}%\n",
            "(residual)",
            self.residual_ns as f64 / self.ops.max(1) as f64 / 1e3,
            100.0 * self.residual_frac()
        ));
        s
    }
}

/// Builds the waterfall of every operation whose root span is `root`.
pub fn waterfall(spans: &[Span], root: &'static str) -> Waterfall {
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == root && s.parent.is_none())
        .map(|s| s.op)
        .collect();
    let totals = layer_totals(spans, |op| roots.contains(&op));
    let (ops, total_ns, residual_ns) = totals
        .get(root)
        .map_or((0, 0, 0), |t| (t.count, t.total_ns, t.self_ns));
    let rows = totals
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(name, t)| (*name, t.self_ns))
        .collect();
    Waterfall {
        ops,
        total_ns,
        rows,
        residual_ns,
    }
}

/// Nesting depth of every span (roots are 0).
fn depths(spans: &[Span]) -> Vec<usize> {
    let mut d = vec![0; spans.len()];
    for i in 0..spans.len() {
        // Parents are always recorded before their children.
        if let Some(p) = spans[i].parent {
            d[i] = d[p] + 1;
        }
    }
    d
}

/// Renders the spans as a Chrome trace (open in Perfetto or
/// `chrome://tracing`). Each nesting depth is one track; the spans of a
/// track become ops of a graph whose solved timeline reproduces the
/// recorded start and end times exactly, with the time between two spans
/// shown as a `(gap)` slice.
pub fn chrome_trace(spans: &[Span]) -> String {
    let depth = depths(spans);
    let tracks = depth.iter().max().map_or(0, |d| d + 1);
    let mut per_track: Vec<Vec<usize>> = vec![Vec::new(); tracks];
    for (i, &d) in depth.iter().enumerate() {
        per_track[d].push(i);
    }
    let selfs = self_times(spans);
    // Tag: `Some(span index)` for a span, `None` for a gap.
    let mut graph: OpGraph<Option<usize>> = OpGraph::new();
    for (d, members) in per_track.iter_mut().enumerate() {
        let r = graph.add_resource(format!("depth{d}"));
        members.sort_by_key(|&i| (spans[i].start_ns, spans[i].end_ns));
        let mut cursor = 0u64;
        for &i in members.iter() {
            let s = &spans[i];
            // Overlapping spans on one track (none are recorded so) are
            // clipped to keep the track FIFO.
            let start = s.start_ns.max(cursor);
            if start > cursor {
                graph.add_op(r, SimDuration::from_nanos(start - cursor), &[], None);
            }
            let end = s.end_ns.max(start);
            graph.add_op(r, SimDuration::from_nanos(end - start), &[], Some(i));
            cursor = end;
        }
    }
    let timeline = graph
        .solve()
        .expect("a graph without dependencies always solves");
    let mut writer = ChromeTraceWriter::new();
    writer.add_timeline(
        &graph,
        &timeline,
        |r| Track {
            pid: 0,
            process: "e2ebench".to_string(),
            thread: match r.index() {
                0 => "operation".to_string(),
                1 => "layer".to_string(),
                d => format!("sub-layer {}", d - 1),
            },
        },
        |_, tag| match tag {
            Some(i) => TraceOp {
                name: spans[*i].name.to_string(),
                category: OpCategory::Compute,
                args: vec![
                    ("op".to_string(), ArgValue::U64(spans[*i].op)),
                    ("self_us".to_string(), ArgValue::F64(selfs[*i] as f64 / 1e3)),
                ],
            },
            None => TraceOp {
                name: "(gap)".to_string(),
                category: OpCategory::DpComm,
                args: Vec::new(),
            },
        },
    );
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn waterfall_rows_and_residual_add_up() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 60, Some(0)),
            span("x", 10, 20, Some(1)),
            span("b", 60, 95, Some(0)),
        ];
        let w = waterfall(&spans, "op");
        let rows: u64 = w.rows.iter().map(|(_, ns)| ns).sum();
        assert_eq!(rows + w.residual_ns, w.total_ns);
        assert_eq!(w.residual_ns, 5);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_every_span() {
        let spans = vec![
            span("op", 5, 100, None),
            span("a", 10, 60, Some(0)),
            span("op", 120, 130, None),
        ];
        let json = chrome_trace(&spans);
        bfpp::sim::observe::validate_json(&json).expect("valid JSON");
        assert_eq!(json.matches("\"name\":\"op\"").count(), 2);
        assert!(json.contains("\"ts\":0.120,\"dur\":0.010"));
    }
}
