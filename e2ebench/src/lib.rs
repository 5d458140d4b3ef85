//! End-to-end and per-layer benchmark of the bfpp planner daemon and the
//! pipelined training step. See `README.md` in this directory for the
//! workloads, every metric's definition and how to run it.

use std::collections::BTreeMap;
use std::time::Duration;

pub mod host;
pub mod plan;
pub mod spans;
pub mod stats;
pub mod train;
pub mod workload;

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How many times a run sets up before its timed window (`plan-cold`
/// sets up once per pass instead); `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Operation ids from here up name the traced runs' direct layer probes
/// (`layer.probe` spans); lower ids are workload operations.
pub const PROBE_OPS: u64 = 1 << 40;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct cold plan requests through the daemon.
    PlanCold,
    /// What-if re-plans and elastic deltas against a primed daemon.
    PlanReplan,
    /// Pipelined training steps in-process.
    TrainStep,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PlanCold,
        Workload::PlanReplan,
        Workload::TrainStep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanCold => "plan-cold",
            Workload::PlanReplan => "plan-replan",
            Workload::TrainStep => "train-step",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The parsed command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Path of the `planner_daemon` executable.
    pub daemon: String,
}

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// End-to-end metrics `(name, unit, better)`, reported by every untraced
/// run. `failed_frac` is printed but not part of the result object,
/// whose `attempted` and `failed` fields carry it exactly.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("latency_p50_ms", "ms", Better::Lower),
    ("latency_p99_ms", "ms", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("failed_frac", "frac", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// End-to-end metrics left out of the result object (see
/// [`END_TO_END`]).
pub const PRINTED_ONLY: [&str; 1] = ["failed_frac"];

/// Per-layer metrics `(name, unit, better)`, reported by every traced
/// run; a layer that does no work in a workload reports 0.
pub const PER_LAYER: [(&str, &str, Better); 43] = [
    ("daemon.overhead_us", "us", Better::Lower),
    ("wire.parse_us", "us", Better::Lower),
    ("wire.render_us", "us", Better::Lower),
    ("planner.first_event_ms", "ms", Better::Lower),
    ("planner.session_ms", "ms", Better::Lower),
    ("search.enumerate_us", "us", Better::Lower),
    ("search.prune_us", "us", Better::Lower),
    ("search.evaluate_us", "us", Better::Lower),
    ("search.probe_us", "us", Better::Lower),
    ("search.other_us", "us", Better::Lower),
    ("search.enumerated", "count", Better::Lower),
    ("search.pruned_memory", "count", Better::Higher),
    ("search.pruned_throughput", "count", Better::Higher),
    ("search.simulated", "count", Better::Lower),
    ("search.simulated_frac", "frac", Better::Lower),
    ("search.candidates_per_s", "1/s", Better::Higher),
    ("candidates.enumerate_ns_per_candidate", "ns", Better::Lower),
    ("prune.ns_per_candidate", "ns", Better::Lower),
    ("lower.ns_per_op", "ns", Better::Lower),
    ("lower.ops_per_candidate", "count", Better::Lower),
    ("solver.solve_ns_per_op", "ns", Better::Lower),
    ("solver.replay_ns_per_op", "ns", Better::Lower),
    ("class_cache.hit_frac", "frac", Better::Higher),
    ("class_cache.misses", "count", Better::Lower),
    ("schedule_cache.hit_frac", "frac", Better::Higher),
    ("warm.hit_frac", "frac", Better::Higher),
    ("warm.lowerings_reused", "count", Better::Higher),
    ("executor.busy_frac", "frac", Better::Higher),
    ("executor.steals", "count", Better::Lower),
    ("executor.tasks", "count", Better::Lower),
    ("train.serial_step_ms", "ms", Better::Lower),
    ("train.pipeline_overhead_frac", "frac", Better::Lower),
    ("layers.forward_us", "us", Better::Lower),
    ("layers.backward_us", "us", Better::Lower),
    ("optim.step_us", "us", Better::Lower),
    ("collectives.all_reduce_us", "us", Better::Lower),
    ("collectives.reduce_scatter_us", "us", Better::Lower),
    ("collectives.all_gather_us", "us", Better::Lower),
    ("collectives.bytes_per_step", "B", Better::Lower),
    ("p2p.bytes_per_step", "B", Better::Lower),
    ("schedule.idle_frac", "frac", Better::Lower),
    ("trace.overhead_frac", "frac", Better::Lower),
    ("waterfall.residual_frac", "frac", Better::Lower),
];

/// Writes the traced run's spans as a Chrome trace to
/// `.bench_out/<workload>-seed<seed>.trace.json` under the working
/// directory and prints the path on stderr.
pub fn write_trace(args: &RunArgs, spans: &[spans::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, spans::chrome_trace(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("# chrome trace: {}", path.display());
    Ok(())
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the benchmark itself cannot run (the daemon
/// does not start, a set-up request fails, a file cannot be written).
/// Wrong outputs are not errors: they are counted in the outcome.
pub fn run(args: &RunArgs) -> Result<stats::Outcome, String> {
    let mut out = stats::Outcome::default();
    let measured = match args.workload {
        Workload::PlanCold => plan::plan_cold(args, &mut out)?,
        Workload::PlanReplan => plan::plan_replan(args, &mut out)?,
        Workload::TrainStep => train::train_step(args, &mut out)?,
    };
    let catalog: &[(&str, &str, Better)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    out.metrics = catalog
        .iter()
        .map(|&(name, unit, _)| {
            stats::metric(name, unit, measured.get(name).copied().unwrap_or(0.0))
        })
        .collect();
    Ok(out)
}
