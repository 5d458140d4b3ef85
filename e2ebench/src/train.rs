//! The `train-step` workload: in-process stateful pipelined training
//! with `run_batch_stateful` semantics, round-robin over seven 2-thread
//! configurations, every step's losses checked bit for bit against the
//! serial reference run from the same pre-step state.

use std::time::{Duration, Instant};

use bfpp::collectives::thread::CommGroup;
use bfpp::core::{bubble::bubble_overhead, Direction, Schedule};
use bfpp::parallel::DataParallelism;
use bfpp::train::loss::mse;
use bfpp::train::optim::OptimizerKind;
use bfpp::train::pipeline::{try_run_batch_stateful, HarnessOptions, TrainError};
use bfpp::train::serial::run_serial_stateful;
use bfpp::train::tensor::Tensor;

use crate::spans::{halves, Recorder};
use crate::stats::{
    closed_loop_rate, mean, median, ms, per_op_medians, ratio, trace_overhead, us, Outcome,
};
use crate::workload::{
    train_batch, train_state, TrainConfig, TrainState, TRAIN_BATCHES, TRAIN_CONFIGS, TRAIN_HIDDEN,
    TRAIN_LR, TRAIN_MICROBATCHES, TRAIN_TOKENS,
};
use crate::{Metrics, RunArgs, PROBE_OPS, SETUP_REPEATS};

/// Steps the traced run replays (a prefix of the timed window's).
const REPLAY_CAP: usize = 1400;
/// Steps run back to back between two rounds of serial-reference checks
/// (twenty per configuration). Every burst runs the configurations in
/// the same order, so step `j` of each burst is the same operation.
const CHECK_BURST: usize = 140;
/// Timed calls per layer probe.
const PROBE_REPEATS: usize = 20;

/// Seeded batches of every configuration.
type Batches = Vec<Vec<(Vec<Tensor>, Vec<Tensor>)>>;

/// Fresh training state and batches for every configuration.
fn fresh(seed: u64) -> (Vec<TrainState>, Batches) {
    let n = TRAIN_CONFIGS.len();
    let states = (0..n).map(|c| train_state(seed, c)).collect();
    let batches = (0..n)
        .map(|c| {
            (0..TRAIN_BATCHES)
                .map(|b| train_batch(seed, c, b))
                .collect()
        })
        .collect();
    (states, batches)
}

/// One pipelined step of configuration `c` on batch `b`, advancing
/// `states[c]`. Returns the step's losses (or the error, leaving the
/// state as it was) and the call's wall time.
fn step(
    states: &mut [TrainState],
    batches: &Batches,
    c: usize,
    b: usize,
) -> (Result<Vec<f32>, TrainError>, Duration) {
    let cfg = &TRAIN_CONFIGS[c];
    let (inputs, targets) = &batches[c][b];
    let before = states[c].clone();
    let t = Instant::now();
    let r = try_run_batch_stateful(
        &cfg.spec(),
        before.stages,
        before.states,
        inputs,
        targets,
        &HarnessOptions::default(),
    );
    let took = t.elapsed();
    let r = r.map(|(res, opt)| {
        states[c] = TrainState {
            stages: res.stages,
            states: opt,
        };
        res.losses
    });
    (r, took)
}

/// The `i`-th step's (configuration, batch): configurations round-robin,
/// each cycling through its batches.
fn schedule_of(i: usize) -> (usize, usize) {
    let n = TRAIN_CONFIGS.len();
    (i % n, (i / n) % TRAIN_BATCHES as usize)
}

/// Runs `train-step`.
pub fn train_step(args: &RunArgs, out: &mut Outcome) -> Result<Metrics, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (states, batches) = fresh(args.seed);
        // Warm-up: one step per configuration on a throwaway copy, so
        // lazy allocation and thread start-up are paid before timing.
        let mut scratch = states.clone();
        for (c, cfg) in TRAIN_CONFIGS.iter().enumerate() {
            step(&mut scratch, &batches, c, 0)
                .0
                .map_err(|e| format!("warm-up step {}: {e}", cfg.name))?;
        }
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((states, batches));
    }
    let (mut states, batches) = ready.ok_or("no set-up ran")?;

    let mut lat = Vec::new();
    let mut bursts = Vec::new();
    let mut serial = Vec::new();
    let mut window = Duration::ZERO;
    let mut burst = Vec::with_capacity(CHECK_BURST);
    while window < args.seconds {
        // Untimed warm-up, one step per configuration on throwaway
        // copies, so the burst does not pay for the caches and threads
        // the checks left cold.
        let mut scratch = states.clone();
        for (c, cfg) in TRAIN_CONFIGS.iter().enumerate() {
            step(&mut scratch, &batches, c, 0)
                .0
                .map_err(|e| format!("warm-up step {}: {e}", cfg.name))?;
        }
        // Steps run back to back in bursts, as in a training loop; each
        // burst keeps its pre-step states for the untimed check after it.
        let t = Instant::now();
        while burst.len() < CHECK_BURST {
            let (c, b) = schedule_of(lat.len() + burst.len());
            let pre = states[c].clone();
            let (losses, took) = step(&mut states, &batches, c, b);
            burst.push((pre, losses, took));
        }
        window += t.elapsed();
        bursts.push(burst.iter().map(|(_, _, took)| ms(*took)).collect());
        for (pre, losses, took) in burst.drain(..) {
            // The serial reference from the same pre-step state must give
            // the same losses, bit for bit.
            let i = lat.len();
            lat.push(ms(took));
            let (c, b) = schedule_of(i);
            let cfg = &TRAIN_CONFIGS[c];
            let (inputs, targets) = &batches[c][b];
            let t = Instant::now();
            let (reference, _) = run_serial_stateful(
                pre.stages,
                inputs,
                targets,
                cfg.n_dp,
                OptimizerKind::adam(TRAIN_LR),
                pre.states,
            );
            serial.push(ms(t.elapsed()));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            match losses {
                Ok(l) if bits(&l) == bits(&reference.losses) => {}
                Ok(_) => out.fail(format!(
                    "step {i} ({}): losses differ from the serial reference",
                    cfg.name
                )),
                Err(e) => out.fail(format!("step {i} ({}): {e}", cfg.name)),
            }
        }
    }
    out.attempted = lat.len() as u64;

    // Each step of a burst by its median over the bursts.
    let per_step = per_op_medians(&bursts);
    let mut m = Metrics::new();
    m.insert("latency_p50_ms", median(&per_step));
    m.insert("latency_p99_ms", crate::stats::quantile(&per_step, 0.99));
    m.insert("ops_per_s", closed_loop_rate(&per_step));
    m.insert(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.insert(
        "peak_rss_mib",
        crate::stats::peak_rss_mib("self").unwrap_or(0.0),
    );
    m.insert("setup_s", median(&setups));
    if !args.trace {
        return Ok(m);
    }

    let n = lat.len().min(REPLAY_CAP);
    let mut rec = Recorder::new(true);
    let traced = halves(args.seed, n);
    let steps = replay(args.seed, &traced, &mut rec, out);
    let mut layers = probe_layers(args.seed, &mut rec);
    crate::write_trace(args, rec.spans())?;
    let step_ms = median(&per_step);
    let serial_ms = median(&serial);
    layers.insert("train.serial_step_ms", serial_ms);
    layers.insert(
        "train.pipeline_overhead_frac",
        ratio(step_ms - serial_ms, step_ms),
    );
    layers.insert("trace.overhead_frac", trace_overhead(&steps, &lat, &traced));
    Ok(layers)
}

/// Replays the first `traced.len()` steps from fresh state; returns each
/// step's wall time in ms, tracing included. The steps `traced` marks are
/// `train.step` spans.
fn replay(seed: u64, traced: &[bool], rec: &mut Recorder, out: &mut Outcome) -> Vec<f64> {
    let (mut states, batches) = fresh(seed);
    let steps = traced
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            rec.set_enabled(t);
            let (c, b) = schedule_of(i);
            let t0 = Instant::now();
            let span = rec.open("train.step", i as u64, None);
            let (r, _) = step(&mut states, &batches, c, b);
            rec.close(span);
            if let Err(e) = r {
                out.fail(format!("replayed step {i}: {e}"));
            }
            ms(t0.elapsed())
        })
        .collect();
    rec.set_enabled(true);
    steps
}

/// Parameters per data-parallel shard, padded so two ranks split evenly.
fn even(n: usize) -> usize {
    n + n % 2
}

/// Times the training layers directly: `Stage::forward`/`backward` per
/// stage per micro-batch, `OptimizerKind::step` per stage, and the three
/// collectives at stage-parameter size over a 2-rank `CommGroup`; adds
/// the computed traffic counts and the schedule's ideal idle share.
fn probe_layers(seed: u64, rec: &mut Recorder) -> Metrics {
    let (states, batches) = fresh(seed);
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    let mut opt = Vec::new();
    let optimizer = OptimizerKind::adam(TRAIN_LR);
    for (c, st) in states.iter().enumerate() {
        let op = PROBE_OPS + c as u64;
        let root = rec.open("layer.probe", op, None);
        let (inputs, targets) = &batches[c][0];
        let mut grads: Vec<Vec<f32>> = st
            .stages
            .iter()
            .map(|s| vec![0.0; s.num_params()])
            .collect();
        for (x0, target) in inputs.iter().zip(targets).take(TRAIN_MICROBATCHES as usize) {
            let mut xs = vec![x0.clone()];
            for s in &st.stages {
                let t = Instant::now();
                let y = rec.time("layers.forward", op, Some(root), || {
                    s.forward(xs.last().expect("input"))
                });
                fwd.push(us(t.elapsed()));
                xs.push(y);
            }
            let (_, mut g) = mse(xs.last().expect("output"), target);
            for (si, s) in st.stages.iter().enumerate().rev() {
                let t = Instant::now();
                g = rec.time("layers.backward", op, Some(root), || {
                    s.backward(&xs[si], &g, &mut grads[si])
                });
                bwd.push(us(t.elapsed()));
            }
        }
        for ((s, g), state) in st.stages.iter().zip(&grads).zip(&st.states) {
            let mut params = s.param_vector();
            let mut state = state.clone();
            let t = Instant::now();
            rec.time("optim.step", op, Some(root), || {
                optimizer.step(&mut state, &mut params, g)
            });
            opt.push(us(t.elapsed()));
        }
        rec.close(root);
    }

    // Collectives at the size of one data-parallel stage's parameters.
    let dp_cfg = TRAIN_CONFIGS
        .iter()
        .position(|c| c.n_dp == 2)
        .expect("a data-parallel configuration");
    let stage_params = even(states[dp_cfg].stages[0].num_params());
    let (all_reduce, reduce_scatter, all_gather) = time_collectives(stage_params, rec);

    let configs = TRAIN_CONFIGS.len() as f64;
    let mut m = Metrics::new();
    m.insert("layers.forward_us", mean(&fwd));
    m.insert("layers.backward_us", mean(&bwd));
    m.insert("optim.step_us", mean(&opt));
    m.insert("collectives.all_reduce_us", all_reduce);
    m.insert("collectives.reduce_scatter_us", reduce_scatter);
    m.insert("collectives.all_gather_us", all_gather);
    m.insert(
        "collectives.bytes_per_step",
        TRAIN_CONFIGS
            .iter()
            .zip(&states)
            .map(|(cfg, st)| {
                collective_bytes(
                    cfg,
                    &st.stages.iter().map(|s| s.num_params()).collect::<Vec<_>>(),
                )
            })
            .sum::<f64>()
            / configs,
    );
    m.insert(
        "p2p.bytes_per_step",
        TRAIN_CONFIGS.iter().map(p2p_bytes).sum::<f64>() / configs,
    );
    m.insert(
        "schedule.idle_frac",
        TRAIN_CONFIGS
            .iter()
            .map(|cfg| {
                let b = bubble_overhead(cfg.n_pp, TRAIN_MICROBATCHES, cfg.n_loop);
                b / (1.0 + b)
            })
            .sum::<f64>()
            / configs,
    );
    m
}

/// Mean µs per call of all-reduce, reduce-scatter and all-gather of
/// `len` floats over a 2-rank group (timed on rank 0; rank 1 mirrors the
/// calls on its own thread).
fn time_collectives(len: usize, rec: &mut Recorder) -> (f64, f64, f64) {
    let mut ranks = CommGroup::new(2);
    let peer = ranks.pop().expect("rank 1");
    let me = ranks.pop().expect("rank 0");
    let op = PROBE_OPS + TRAIN_CONFIGS.len() as u64;
    let root = rec.open("layer.probe", op, None);
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut data = vec![1.0f32; len];
            for _ in 0..PROBE_REPEATS {
                peer.all_reduce(&mut data);
                let shard = peer.reduce_scatter(&data);
                std::hint::black_box(peer.all_gather(&shard));
            }
        });
        let mut data = vec![1.0f32; len];
        for _ in 0..PROBE_REPEATS {
            let t = Instant::now();
            rec.time("collectives.all_reduce", op, Some(root), || {
                me.all_reduce(&mut data)
            });
            times[0].push(us(t.elapsed()));
            let t = Instant::now();
            let shard = rec.time("collectives.reduce_scatter", op, Some(root), || {
                me.reduce_scatter(&data)
            });
            times[1].push(us(t.elapsed()));
            let t = Instant::now();
            std::hint::black_box(rec.time("collectives.all_gather", op, Some(root), || {
                me.all_gather(&shard)
            }));
            times[2].push(us(t.elapsed()));
        }
    });
    rec.close(root);
    (mean(&times[0]), mean(&times[1]), mean(&times[2]))
}

/// Bytes one rank moves through data-parallel collectives in one step,
/// by the ring-algorithm count on `n` ranks: all-reduce
/// `2(n−1)/n · 4P`, reduce-scatter and all-gather `(n−1)/n · 4P` each,
/// for a stage of `P` parameters. `DP_0` all-reduces each stage's
/// gradients once; `DP_PS` reduce-scatters them and all-gathers the
/// weights; `DP_FS` all-gathers the weights before every same-(stage,
/// direction) run of the schedule and reduce-scatters after every
/// backward run.
fn collective_bytes(cfg: &TrainConfig, stage_params: &[usize]) -> f64 {
    if cfg.n_dp < 2 {
        return 0.0;
    }
    let n = f64::from(cfg.n_dp);
    let one_way = (n - 1.0) / n * 4.0;
    match cfg.dp {
        DataParallelism::Unsharded | DataParallelism::PartiallySharded => {
            stage_params.iter().map(|&p| 2.0 * one_way * p as f64).sum()
        }
        DataParallelism::FullySharded => {
            let schedule = Schedule::generate(cfg.kind, cfg.placement(), TRAIN_MICROBATCHES)
                .expect("benchmark configurations generate");
            let mut bytes = 0.0;
            for (_, actions) in schedule.devices() {
                let mut prev = None;
                for a in actions {
                    if prev != Some((a.stage, a.dir)) {
                        let p = stage_params[a.stage.0 as usize] as f64;
                        bytes += one_way * p;
                        if a.dir == Direction::Backward {
                            bytes += one_way * p;
                        }
                        prev = Some((a.stage, a.dir));
                    }
                }
            }
            bytes
        }
    }
}

/// Bytes crossing pipeline-device boundaries in one step: every
/// micro-batch's activation forward and gradient backward over each
/// stage boundary whose two stages sit on different devices (fp32).
fn p2p_bytes(cfg: &TrainConfig) -> f64 {
    let placement = cfg.placement();
    let stages = placement.num_stages();
    let crossings = (1..stages)
        .filter(|&s| {
            placement.device_of_stage(bfpp::parallel::StageId(s - 1))
                != placement.device_of_stage(bfpp::parallel::StageId(s))
        })
        .count() as f64;
    let tensor = f64::from(TRAIN_TOKENS) * TRAIN_HIDDEN as f64 * 4.0;
    crossings * f64::from(TRAIN_MICROBATCHES * cfg.n_dp) * 2.0 * tensor
}
