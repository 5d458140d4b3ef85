//! Order statistics, metric records and the result line.

use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `v` by the nearest-rank rule on a
/// sorted copy; `0.0` for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Per-operation latencies of a run that repeats the same operations in
/// passes: `passes[p][i]` is operation `i`'s latency in pass `p` (a pass
/// cut short holds a prefix). Returns, for every operation, the median
/// over the passes that reached it, so a host hiccup that slows an
/// operation in a minority of passes does not show.
pub fn per_op_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            median(
                &passes
                    .iter()
                    .filter_map(|p| p.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Operations per second of one closed-loop client whose operations
/// take `lat_ms` each: their count over their summed latency.
pub fn closed_loop_rate(lat_ms: &[f64]) -> f64 {
    ratio(lat_ms.len() as f64, lat_ms.iter().sum::<f64>() / 1e3)
}

/// The arithmetic mean of `v`; `0.0` for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Tracing overhead of a replay that traced a seeded half of its
/// operations. Each operation's replay time is divided by the time the
/// same operation took in the untraced timed window, which cancels the
/// operations' differing costs; the result is the median of those ratios
/// over the traced half, divided by their median over the untraced half,
/// minus one.
pub fn trace_overhead(replayed: &[f64], window: &[f64], traced: &[bool]) -> f64 {
    let half = |want: bool| {
        let r: Vec<f64> = replayed
            .iter()
            .zip(window)
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|((&a, &b), _)| ratio(a, b))
            .collect();
        median(&r)
    };
    ratio(half(true), half(false)) - 1.0
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Human-readable notes on each failure (printed on stderr).
    pub problems: Vec<String>,
    /// Metrics of this run: end-to-end for an untraced run, per-layer
    /// for a traced one.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Renders a finite `f64` as a JSON number (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (`{"name": {"value": v, "unit": u}}`).
pub fn result_line(outcome: &Outcome, metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(",")
    )
}

/// The peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
