//! The `plan-cold` and `plan-replan` workloads: one closed-loop client
//! drives `planner_daemon` over stdin/stdout in passes that repeat the
//! same request lines, then checks every answer in-process. The traced
//! run replays the first pass's lines in-process through the planner's
//! public API with spans around each layer call, and times the search
//! layers directly on the workload's own candidates.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfpp::exec::candidates::enumerate;
use bfpp::exec::prune::prune_reason;
use bfpp::exec::search::{best_config_with_report, SearchOptions, SearchReport, SearchResult};
use bfpp::exec::{lower, ClassCache, Perturbation};
use bfpp::planner::json::Value;
use bfpp::planner::wire::{done_line, improved_line, parse_line, Request};
use bfpp::planner::{PlanEvent, PlanRequest, Planner};
use bfpp::sim::{SimDuration, Solver};

use crate::spans::{halves, layer_totals, waterfall, Recorder, Span, Waterfall};
use crate::stats::{
    closed_loop_rate, median, ms, per_op_medians, quantile, ratio, trace_overhead, us, Outcome,
};
use crate::workload::{
    cold_keys, prime_lines, replan_pool, ReplanStream, Rng, COLD_THREADS, REPLAN_PASS_ROUNDS,
};
use crate::{Metrics, RunArgs, PROBE_OPS, SETUP_REPEATS};

/// A request without a terminal event after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// Admission cap the in-process replay planner runs with (the daemon's
/// default).
const MAX_IN_FLIGHT: usize = 32;
/// `plan-replan` warm answers checked against a cold plan per run.
const REPLAN_CHECKS: usize = 150;
/// Requests whose candidates the layer probes time directly.
const PROBE_REQUESTS: usize = 12;
/// Survivors per probed request that are lowered and solved.
const PROBE_SURVIVORS: usize = 4;
/// The request `plan-cold` set-up sends once the daemon answers a ping,
/// so lazy initialization is paid before timing: the paper's Figure 5a
/// cell (BERT 52B on the evaluation cluster), outside the cold key space.
const COLD_WARMUP: &str = "{\"id\":\"warmup\",\"model\":\"bert-52b\",\"cluster\":\"paper\",\"method\":\"breadth_first\",\"batch\":128,\"threads\":2}";
/// The traced run's tolerance on the waterfall residual, as a share of
/// the traced end-to-end time.
const WATERFALL_TOLERANCE: f64 = 0.02;

/// A running `planner_daemon` with a reader thread forwarding its stdout
/// lines.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<String>,
    reader: JoinHandle<()>,
}

impl Daemon {
    fn spawn(path: &str) -> Result<Daemon, String> {
        let mut child = Command::new(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {path}: {e}"))?;
        let stdin = child.stdin.take().ok_or("daemon stdin")?;
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Daemon {
            child,
            stdin,
            lines,
            reader,
        })
    }

    /// Sends one line and waits for the terminal event of request `id`
    /// (or for a `pong` when `id` is empty), skipping `improved` lines.
    fn round_trip(&mut self, line: &str, id: &str) -> Result<String, String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to daemon: {e}"))?;
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let reply = match self.lines.recv_timeout(left) {
                Ok(l) => l,
                Err(RecvTimeoutError::Timeout) => return Err(format!("{id}: timed out")),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("{id}: daemon closed its output"))
                }
            };
            let v =
                Value::parse(&reply).map_err(|e| format!("bad daemon line {reply:?}: {e:?}"))?;
            let event = v.get("event").and_then(Value::as_str).unwrap_or("");
            if id.is_empty() {
                if event == "pong" {
                    return Ok(reply);
                }
                continue;
            }
            let terminal = matches!(event, "done" | "failed" | "rejected" | "error");
            if terminal && v.get("id").and_then(Value::as_str) == Some(id) {
                return Ok(reply);
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes stdin (the daemon drains and exits on EOF) and waits for the
    /// process and the reader thread.
    fn shutdown(self) -> Result<(), String> {
        let Daemon {
            mut child,
            stdin,
            lines,
            reader,
        } = self;
        drop(stdin);
        let status = child
            .wait()
            .map_err(|e| format!("waiting for daemon: {e}"))?;
        drop(lines);
        reader.join().map_err(|_| "daemon reader panicked")?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

/// The `id` field of a request line.
fn id_of(line: &str) -> String {
    Value::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Spawns a daemon, pings it and sends every priming line; returns the
/// ready daemon and how long that took.
fn set_up(daemon: &str, prime: &[String]) -> Result<(Daemon, Duration), String> {
    let t = Instant::now();
    let mut d = Daemon::spawn(daemon)?;
    d.round_trip("{\"ping\":true}", "")?;
    for line in prime {
        let reply = d.round_trip(line, &id_of(line))?;
        answer_problem(&reply).map_or(Ok(()), Err)?;
    }
    Ok((d, t.elapsed()))
}

/// Why a terminal line is not a successful plan, if it is not.
fn answer_problem(reply: &str) -> Option<String> {
    let v = match Value::parse(reply) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparsable answer {reply:?}: {e:?}")),
    };
    let ok = v.get("event").and_then(Value::as_str) == Some("done")
        && v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("cancelled").and_then(Value::as_bool) == Some(false)
        && v.get("timed_out").and_then(Value::as_bool) == Some(false);
    (!ok).then(|| format!("not a successful plan: {reply}"))
}

/// The winner and search counters of a `done` line: everything between
/// the event tag and the warm-start flags.
fn winner_fields(done: &str) -> &str {
    let start = done.find("\"ok\"").unwrap_or(0);
    let end = done.find(",\"warm_start\"").unwrap_or(done.len());
    &done[start..end.max(start)]
}

/// Parses a request line and applies its elastic delta, the way the
/// daemon does, without touching any planner state.
fn what_if(line: &str) -> Result<(String, PlanRequest), String> {
    match parse_line(line, "x").map_err(|e| e.msg)? {
        Request::Plan { id, req, delta } => {
            let mut req = *req;
            if let Some(d) = delta {
                req.cluster = d.apply(&req.cluster).map_err(|e| e.to_string())?;
            }
            Ok((id, req))
        }
        other => Err(format!("not a plan request: {other:?}")),
    }
}

/// The `done` line a cold, private, in-process search gives for `line`.
fn cold_done_line(line: &str) -> Result<String, String> {
    let (id, req) = what_if(line)?;
    let opts = SearchOptions {
        threads: 1,
        ..req.opts.clone()
    };
    let (result, report) = best_config_with_report(
        &req.model,
        &req.cluster,
        req.method,
        req.global_batch,
        &req.kernel,
        &opts,
    );
    Ok(done_line(&id, result.as_ref(), &report))
}

/// What a run's timed window measured. Every pass sends the same `lines`
/// in the same order, so each line's latency can be taken as its median
/// over the passes.
struct Window {
    prime: Vec<String>,
    lines: Vec<String>,
    ids: Vec<String>,
    /// `replies[p][i]`: pass `p`'s answer to line `i`. A pass cut short
    /// by a dead daemon holds a prefix.
    replies: Vec<Vec<Result<String, String>>>,
    /// `latency_ms[p][i]`: the same operation's latency.
    latency_ms: Vec<Vec<f64>>,
    setups: Vec<f64>,
    peak_rss_mib: Vec<f64>,
}

impl Window {
    /// Each line's median latency over the passes, in ms.
    fn op_latencies(&self) -> Vec<f64> {
        per_op_medians(&self.latency_ms)
    }

    /// Sends every line once, closed loop. Returns `false` when the
    /// daemon died: the failed operation is kept and nothing more is sent.
    fn pass(&mut self, daemon: &mut Daemon) -> bool {
        let mut lat = Vec::with_capacity(self.lines.len());
        let mut replies = Vec::with_capacity(self.lines.len());
        let mut alive = true;
        for (line, id) in self.lines.iter().zip(&self.ids) {
            let t = Instant::now();
            let reply = daemon.round_trip(line, id);
            lat.push(ms(t.elapsed()));
            alive = reply.is_ok() || !daemon.child.try_wait().is_ok_and(|s| s.is_some());
            replies.push(reply);
            if !alive {
                break;
            }
        }
        self.latency_ms.push(lat);
        self.replies.push(replies);
        alive
    }
}

/// Runs closed-loop passes over `lines` until the window has lasted
/// `args.seconds` (at least one pass). With `fresh_per_pass` every pass
/// gets a daemon of its own, set up inside the window, so no line repeats
/// within a daemon's life; otherwise set-up runs [`SETUP_REPEATS`] times
/// before the window and every pass runs on the last daemon, whose state
/// carries over from pass to pass.
fn measure(
    args: &RunArgs,
    prime: Vec<String>,
    lines: Vec<String>,
    fresh_per_pass: bool,
) -> Result<Window, String> {
    let ids = lines.iter().map(|l| id_of(l)).collect();
    let mut w = Window {
        prime,
        lines,
        ids,
        replies: Vec::new(),
        latency_ms: Vec::new(),
        setups: Vec::new(),
        peak_rss_mib: Vec::new(),
    };
    let set_up_one = |w: &mut Window| -> Result<Daemon, String> {
        let (d, took) = set_up(&args.daemon, &w.prime)?;
        w.setups.push(took.as_secs_f64());
        Ok(d)
    };
    let mut daemon = None;
    if !fresh_per_pass {
        for _ in 0..SETUP_REPEATS {
            if let Some(d) = daemon.take() {
                Daemon::shutdown(d)?;
            }
            daemon = Some(set_up_one(&mut w)?);
        }
    }
    let start = Instant::now();
    loop {
        let mut d = match daemon.take() {
            Some(d) => d,
            None => set_up_one(&mut w)?,
        };
        let alive = w.pass(&mut d);
        let more = alive && start.elapsed() < args.seconds;
        if fresh_per_pass || !more {
            w.peak_rss_mib
                .push(crate::stats::peak_rss_mib(&d.pid()).unwrap_or(0.0));
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
        if !more {
            return Ok(w);
        }
    }
}

/// The end-to-end metrics of a window, from each operation's median
/// latency over the passes.
fn end_to_end(w: &Window, out: &mut Outcome) -> Metrics {
    let lat = w.op_latencies();
    let mut m = Metrics::new();
    m.insert("latency_p50_ms", median(&lat));
    m.insert("latency_p99_ms", quantile(&lat, 0.99));
    m.insert("ops_per_s", closed_loop_rate(&lat));
    m.insert(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.insert("peak_rss_mib", median(&w.peak_rss_mib));
    m.insert("setup_s", median(&w.setups));
    m
}

/// Checks every answer of the window: each must be a successful plan,
/// and in every pass the answers to the lines at `compare` must match an
/// in-process cold search of the same request — the whole line when
/// `exact`, else the winner and search counters.
fn check_answers(w: &Window, out: &mut Outcome, compare: &[usize], exact: bool) {
    out.attempted = w.replies.iter().map(|p| p.len() as u64).sum();
    let mut good: Vec<Vec<bool>> = Vec::with_capacity(w.replies.len());
    for pass in &w.replies {
        let mut ok = Vec::with_capacity(pass.len());
        for reply in pass {
            let problem = match reply {
                Ok(reply) => answer_problem(reply),
                Err(e) => Some(e.clone()),
            };
            ok.push(problem.is_none());
            if let Some(p) = problem {
                out.fail(p);
            }
        }
        good.push(ok);
    }
    for &i in compare {
        let line = &w.lines[i];
        let want = match cold_done_line(line) {
            Ok(want) => want,
            Err(e) => {
                out.fail(format!("{line}: {e}"));
                continue;
            }
        };
        for (pass, ok) in w.replies.iter().zip(&good) {
            let (Some(Ok(got)), Some(true)) = (pass.get(i), ok.get(i)) else {
                continue;
            };
            let same = if exact {
                want == *got
            } else {
                winner_fields(&want) == winner_fields(got)
            };
            if !same {
                out.fail(format!("winner differs from a cold plan: {line}"));
            }
        }
    }
}

/// Runs `plan-cold`.
pub fn plan_cold(args: &RunArgs, out: &mut Outcome) -> Result<Metrics, String> {
    let lines = cold_keys(args.seed)
        .iter()
        .enumerate()
        .map(|(i, k)| k.line(&format!("c{i}"), COLD_THREADS))
        .collect();
    let w = measure(args, vec![COLD_WARMUP.to_string()], lines, true)?;
    // Keys never repeat within a daemon's life, so every answer is cold:
    // the daemon's line must equal a private in-process search's byte
    // for byte.
    let all: Vec<usize> = (0..w.lines.len()).collect();
    check_answers(&w, out, &all, true);
    finish(args, &w, out)
}

/// Runs `plan-replan`.
pub fn plan_replan(args: &RunArgs, out: &mut Outcome) -> Result<Metrics, String> {
    let pool = replan_pool();
    let mut stream = ReplanStream::new(args.seed, pool.clone());
    let n = REPLAN_PASS_ROUNDS * stream.round_len();
    let lines = (0..n).map(|_| stream.next_line()).collect();
    let w = measure(args, prime_lines(&pool), lines, false)?;
    // A seeded sample of the lines answered warm in some pass must, in
    // every pass, equal a cold plan of the same what-if request (the
    // warm path's bit-identity guarantee).
    let mut warm: Vec<usize> = (0..w.lines.len())
        .filter(|&i| {
            w.replies.iter().any(|pass| {
                pass.get(i).is_some_and(|r| {
                    r.as_deref()
                        .is_ok_and(|r| r.contains("\"warm_start\":true"))
                })
            })
        })
        .collect();
    Rng::new(args.seed, 4).shuffle(&mut warm);
    warm.truncate(REPLAN_CHECKS);
    if warm.is_empty() {
        out.fail("no re-plan warm-started".to_string());
    }
    check_answers(&w, out, &warm, false);
    finish(args, &w, out)
}

/// End-to-end metrics for an untraced run; the in-process replays and
/// layer probes for a traced one.
fn finish(args: &RunArgs, w: &Window, out: &mut Outcome) -> Result<Metrics, String> {
    let e2e = end_to_end(w, out);
    if !args.trace {
        return Ok(e2e);
    }
    let n = w.lines.len();
    let mut rec = Recorder::new(true);
    let replayed = replay(&w.prime, &w.lines, &halves(args.seed, n), &mut rec, out);
    // The in-process replay follows the first pass's request sequence
    // from the same empty state, so it must answer line for line the same.
    for (i, (reply, r)) in w.replies[0].iter().zip(&replayed.ops).enumerate() {
        if reply.as_deref().ok() != Some(r.done_line.as_str()) {
            out.fail(format!(
                "in-process replay differs from the daemon at op {i}"
            ));
        }
    }
    let probes = probe_layers(&w.lines, &replayed, &mut rec);
    let wf = waterfall(rec.spans(), "plan.request");
    eprint!("{}", wf.render());
    if wf.residual_frac() > WATERFALL_TOLERANCE {
        out.fail(format!(
            "waterfall rows miss {:.2}% of the traced time (tolerance {:.0}%)",
            100.0 * wf.residual_frac(),
            100.0 * WATERFALL_TOLERANCE
        ));
    }
    crate::write_trace(args, rec.spans())?;
    Ok(layer_metrics(w, &replayed, &probes, &wf, rec.spans()))
}

/// One replayed operation.
struct ReplayOp {
    traced: bool,
    total: Duration,
    session: Duration,
    first_event: Duration,
    report: SearchReport,
    done_line: String,
}

/// An in-process replay and the cache/executor traffic it caused.
struct Replay {
    ops: Vec<ReplayOp>,
    class_hits: u64,
    class_misses: u64,
    executor_busy_ns: u64,
    executor_threads: usize,
    executor_steals: u64,
    executor_tasks: u64,
}

/// Runs one request through `planner` on this thread: submit, stream
/// events (rendering `improved` lines as the daemon does) up to the
/// terminal one. Returns the winner, report and time to first event.
fn run_session(
    planner: &Arc<Planner>,
    id: &str,
    req: PlanRequest,
) -> Result<(Option<SearchResult>, SearchReport, Duration), String> {
    let t = Instant::now();
    let handle = planner
        .try_submit(req)
        .map_err(|e| format!("{id}: rejected: {e}"))?;
    let mut first = None;
    loop {
        let ev = handle.recv();
        first.get_or_insert_with(|| t.elapsed());
        match ev {
            Some(PlanEvent::Improved(r)) => {
                std::hint::black_box(improved_line(id, &r));
            }
            Some(PlanEvent::Done { result, report }) => {
                return Ok((result, report, first.unwrap_or_default()))
            }
            Some(PlanEvent::Failed { error }) => return Err(format!("{id}: failed: {error}")),
            None => return Err(format!("{id}: stream ended without a terminal event")),
        }
    }
}

/// Replays `prime` (untimed) then `lines` through a fresh in-process
/// planner, with spans around the operations `traced` marks.
fn replay(
    prime: &[String],
    lines: &[String],
    traced: &[bool],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Replay {
    ClassCache::global().clear();
    let planner = Arc::new(Planner::with_admission(0, MAX_IN_FLIGHT));
    for line in prime {
        if let Err(e) = what_if(line).and_then(|(id, req)| run_session(&planner, &id, req)) {
            out.fail(format!("replay priming: {e}"));
        }
    }
    let classes = ClassCache::global();
    let (hits0, misses0) = (classes.hits(), classes.misses());
    let ex = &planner.env().executor;
    let busy =
        |ex: &bfpp::exec::Executor| ex.worker_busy_ns().iter().sum::<u64>() + ex.helper_busy_ns();
    let (busy0, steals0, tasks0) = (busy(ex), ex.steals(), ex.tasks_executed());
    let mut ops = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let op = i as u64;
        rec.set_enabled(traced[i]);
        let t = Instant::now();
        let root = rec.open("plan.request", op, None);
        let parsed = rec.time("wire.parse", op, Some(root), || parse_line(line, "x"));
        let (id, req, delta) = match parsed {
            Ok(Request::Plan { id, req, delta }) => (id, *req, delta),
            Ok(_) | Err(_) => {
                out.fail(format!("replay: unparsable line {line}"));
                continue;
            }
        };
        let req = match delta {
            Some(d) => match rec.time("planner.apply_delta", op, Some(root), || {
                planner.apply_delta(&req, &d)
            }) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("replay: delta does not apply: {e}"));
                    continue;
                }
            },
            None => req,
        };
        let session = rec.open("planner.session", op, Some(root));
        let s0 = Instant::now();
        let ran = run_session(&planner, &id, req);
        let session_time = s0.elapsed();
        rec.close(session);
        let (result, report, first_event) = match ran {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("replay: {e}"));
                continue;
            }
        };
        if rec.enabled() {
            // The report's phase spans are per-request totals (prune and
            // evaluate alternate per chunk); they are laid end to end
            // from the session's start as its children.
            let mut cursor = rec.spans()[session].start_ns;
            for (name, phase) in PHASES {
                let d = report.counters.span(phase).as_nanos() as u64;
                rec.record(name, op, Some(session), cursor, cursor + d);
                cursor += d;
            }
        }
        let done = rec.time("wire.render", op, Some(root), || {
            done_line(&id, result.as_ref(), &report)
        });
        rec.close(root);
        ops.push(ReplayOp {
            traced: traced[i],
            total: t.elapsed(),
            session: session_time,
            first_event,
            report,
            done_line: done,
        });
    }
    rec.set_enabled(true);
    Replay {
        ops,
        class_hits: classes.hits() - hits0,
        class_misses: classes.misses() - misses0,
        executor_busy_ns: busy(ex) - busy0,
        executor_threads: ex.threads(),
        executor_steals: ex.steals() - steals0,
        executor_tasks: ex.tasks_executed() - tasks0,
    }
}

/// `SearchReport` phase spans and the layer names they are reported as.
const PHASES: [(&str, &str); 4] = [
    ("search.enumerate", "enumerate"),
    ("search.prune", "prune"),
    ("search.evaluate", "evaluate"),
    ("search.probe", "probe"),
];

/// Direct timings of the search layers on the workload's own candidates.
#[derive(Debug, Default)]
struct Probes {
    candidates: u64,
    enumerate_ns: u64,
    prune_ns: u64,
    lowered: u64,
    lowered_ops: u64,
    lower_ns: u64,
    solved_ops: u64,
    solve_ns: u64,
    replay_ns: u64,
}

/// Times `candidates::enumerate`, `prune::prune_reason`, `lower::lower`,
/// `Solver::solve_stats` and `Solver::solve_stats_with_durations` on
/// [`PROBE_REQUESTS`] requests spread over the replayed window.
fn probe_layers(lines: &[String], replay: &Replay, rec: &mut Recorder) -> Probes {
    let mut p = Probes::default();
    let step = (lines.len() / PROBE_REQUESTS).max(1);
    for (k, i) in (0..lines.len())
        .step_by(step)
        .take(PROBE_REQUESTS)
        .enumerate()
    {
        let Ok((_, req)) = what_if(&lines[i]) else {
            continue;
        };
        let op = PROBE_OPS + k as u64;
        let root = rec.open("layer.probe", op, None);
        let (model, cluster) = (&req.model, &req.cluster);
        let overlap = req.method.overlap();
        let t = Instant::now();
        let cands: Vec<_> = rec.time("candidates.enumerate", op, Some(root), || {
            enumerate(model, cluster, req.method, req.global_batch, &req.opts).collect()
        });
        p.enumerate_ns += t.elapsed().as_nanos() as u64;
        p.candidates += cands.len() as u64;
        let best = replay.ops.get(i).and_then(|o| o.report.best);
        let speedup = req.opts.perturbation.max_speedup();
        let t = Instant::now();
        let survivors: Vec<_> = rec.time("prune.prune_reason", op, Some(root), || {
            cands
                .iter()
                .filter(|c| {
                    prune_reason(model, cluster, c, overlap, &req.kernel, best, speedup).is_none()
                })
                .copied()
                .collect()
        });
        p.prune_ns += t.elapsed().as_nanos() as u64;
        let what_if = if req.opts.perturbation.is_identity() {
            Perturbation::reference_probe()
        } else {
            req.opts.perturbation.clone()
        };
        for cand in survivors.iter().take(PROBE_SURVIVORS) {
            let cfg = cand.config_on(model, cluster);
            let t = Instant::now();
            let lowered = rec.time("lower.lower", op, Some(root), || {
                lower(model, cluster, &cfg, cand.kind, overlap, &req.kernel)
            });
            let lower_ns = t.elapsed().as_nanos() as u64;
            let Ok(lowered) = lowered else { continue };
            let n_ops = lowered.graph.num_ops() as u64;
            p.lowered += 1;
            p.lowered_ops += n_ops;
            p.lower_ns += lower_ns;
            let mut solver = Solver::new(&lowered.graph);
            let t = Instant::now();
            let solved = rec.time("solver.solve_stats", op, Some(root), || {
                solver.solve_stats()
            });
            let solve_ns = t.elapsed().as_nanos() as u64;
            if solved.is_err() {
                continue;
            }
            let mut durations: Vec<SimDuration> = Vec::new();
            lowered.perturbed_durations(&what_if, &mut durations);
            let t = Instant::now();
            let replayed = rec.time("solver.replay", op, Some(root), || {
                solver.solve_stats_with_durations(&durations)
            });
            let replay_ns = t.elapsed().as_nanos() as u64;
            if replayed.is_ok() {
                p.solved_ops += n_ops;
                p.solve_ns += solve_ns;
                p.replay_ns += replay_ns;
            }
        }
        rec.close(root);
    }
    p
}

/// The per-layer metrics of a traced plan run.
fn layer_metrics(
    w: &Window,
    replay: &Replay,
    probes: &Probes,
    wf: &Waterfall,
    spans: &[Span],
) -> Metrics {
    let n = replay.ops.len().max(1) as f64;
    let totals = layer_totals(spans, |op| op < PROBE_OPS);
    let self_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / wf.ops.max(1) as f64)
    };
    let reports: Vec<&SearchReport> = replay.ops.iter().map(|o| &o.report).collect();
    let sum = |f: &dyn Fn(&SearchReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    let enumerated = sum(&|r| r.enumerated);
    let simulated = sum(&|r| r.simulated);
    let session_s: f64 = replay.ops.iter().map(|o| o.session.as_secs_f64()).sum();
    let sched_hits = sum(&|r| r.counters.count("cache_hits"));
    let sched_misses = sum(&|r| r.counters.count("cache_misses"));
    let warm = sum(&|r| u64::from(r.counters.count("warm_start") > 0));
    let window = w.op_latencies();
    let overhead: Vec<f64> = window
        .iter()
        .zip(&replay.ops)
        .map(|(&d, r)| 1e3 * d - us(r.session))
        .collect();
    let replayed: Vec<f64> = replay.ops.iter().map(|o| ms(o.total)).collect();
    let traced: Vec<bool> = replay.ops.iter().map(|o| o.traced).collect();

    let mut m = Metrics::new();
    m.insert("daemon.overhead_us", median(&overhead));
    m.insert("wire.parse_us", self_us("wire.parse"));
    m.insert("wire.render_us", self_us("wire.render"));
    m.insert(
        "planner.first_event_ms",
        median(
            &replay
                .ops
                .iter()
                .map(|o| ms(o.first_event))
                .collect::<Vec<_>>(),
        ),
    );
    m.insert(
        "planner.session_ms",
        median(&replay.ops.iter().map(|o| ms(o.session)).collect::<Vec<_>>()),
    );
    m.insert("search.enumerate_us", self_us("search.enumerate"));
    m.insert("search.prune_us", self_us("search.prune"));
    m.insert("search.evaluate_us", self_us("search.evaluate"));
    m.insert("search.probe_us", self_us("search.probe"));
    m.insert("search.other_us", self_us("planner.session"));
    m.insert("search.enumerated", enumerated / n);
    m.insert("search.pruned_memory", sum(&|r| r.pruned_memory) / n);
    m.insert(
        "search.pruned_throughput",
        sum(&|r| r.pruned_throughput) / n,
    );
    m.insert("search.simulated", simulated / n);
    m.insert("search.simulated_frac", ratio(simulated, enumerated));
    m.insert("search.candidates_per_s", ratio(enumerated, session_s));
    m.insert(
        "candidates.enumerate_ns_per_candidate",
        ratio(probes.enumerate_ns as f64, probes.candidates as f64),
    );
    m.insert(
        "prune.ns_per_candidate",
        ratio(probes.prune_ns as f64, probes.candidates as f64),
    );
    m.insert(
        "lower.ns_per_op",
        ratio(probes.lower_ns as f64, probes.lowered_ops as f64),
    );
    m.insert(
        "lower.ops_per_candidate",
        ratio(probes.lowered_ops as f64, probes.lowered as f64),
    );
    m.insert(
        "solver.solve_ns_per_op",
        ratio(probes.solve_ns as f64, probes.solved_ops as f64),
    );
    m.insert(
        "solver.replay_ns_per_op",
        ratio(probes.replay_ns as f64, probes.solved_ops as f64),
    );
    m.insert(
        "class_cache.hit_frac",
        ratio(
            replay.class_hits as f64,
            (replay.class_hits + replay.class_misses) as f64,
        ),
    );
    m.insert("class_cache.misses", replay.class_misses as f64 / n);
    m.insert(
        "schedule_cache.hit_frac",
        ratio(sched_hits, sched_hits + sched_misses),
    );
    m.insert("warm.hit_frac", warm / n);
    m.insert("warm.lowerings_reused", sum(&|r| r.warm_hits) / n);
    m.insert(
        "executor.busy_frac",
        ratio(
            replay.executor_busy_ns as f64 / 1e9,
            replay.executor_threads as f64 * session_s,
        ),
    );
    m.insert("executor.steals", replay.executor_steals as f64 / n);
    m.insert("executor.tasks", replay.executor_tasks as f64 / n);
    m.insert(
        "trace.overhead_frac",
        trace_overhead(&replayed, &window, &traced),
    );
    m.insert("waterfall.residual_frac", wf.residual_frac());
    m
}
