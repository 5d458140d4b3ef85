//! Seeded workload generators. Each takes the run's seed and returns
//! plain inputs — NDJSON request lines for the planner daemon, training
//! configurations and batches for the pipelined step — so the program
//! under test sees only generated data.

use bfpp::core::ScheduleKind;
use bfpp::parallel::{DataParallelism, Placement};
use bfpp::train::builder::{build_transformer_stages, synthetic_batch};
use bfpp::train::layers::Stage;
use bfpp::train::optim::{OptimizerKind, OptimizerState};
use bfpp::train::tensor::Tensor;

/// splitmix64: a tiny, seedable generator whose stream is fixed by the
/// seed alone (no dependence on library versions).
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` mixed with a per-use `salt`, so
    /// independent streams of one run do not share draws.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`, rounded to two decimals so request lines
    /// stay short and exactly reproducible.
    pub fn hundredths(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 100.0).round() as u64;
        lo + self.below(steps) as f64 / 100.0
    }

    /// Shuffles `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One planning-request key: the fields that make a request's warm-start
/// signature distinct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Model preset name.
    pub model: &'static str,
    /// Cluster preset name.
    pub cluster: &'static str,
    /// Node count the preset is scaled to.
    pub nodes: u32,
    /// Parallelization method.
    pub method: &'static str,
    /// Global batch size.
    pub batch: u64,
    /// Kernel-efficiency model.
    pub kernel: &'static str,
}

impl PlanKey {
    /// The request's NDJSON fields (no braces, no id, no options).
    pub fn fields(&self) -> String {
        format!(
            "\"model\":\"{}\",\"cluster\":\"{}\",\"nodes\":{},\"method\":\"{}\",\"batch\":{},\"kernel\":\"{}\"",
            self.model, self.cluster, self.nodes, self.method, self.batch, self.kernel
        )
    }

    /// A clean (unperturbed) request line.
    pub fn line(&self, id: &str, threads: u32) -> String {
        format!(
            "{{\"id\":\"{id}\",{},\"threads\":{threads}}}",
            self.fields()
        )
    }
}

/// Every cluster preset the daemon accepts with a node count.
const CLUSTERS: [&str; 6] = [
    "dgx1_v100",
    "dgx1_v100_ethernet",
    "dgx_a100",
    "dgx_a100_80gb",
    "mixed_v100_a100",
    "mixed_v100_a100_asym",
];
/// Every method the daemon accepts.
const METHODS: [&str; 4] = ["breadth_first", "depth_first", "non_looped", "no_pipeline"];
/// Every kernel model the daemon accepts.
const KERNELS: [&str; 3] = ["v100", "a100", "ideal"];

/// (model, node counts, methods) triples whose every cluster, batch and
/// kernel has a configuration that fits device memory, so no request of
/// the space is answered `"ok":false`. Odd node counts and the larger
/// models on small fleets leave whole cells infeasible and are left out;
/// depth-first GPT-3 on eight nodes fits on no 40 GB-class preset.
const SHAPES: [(&str, &[u32], &[&str]); 3] = [
    ("bert-6.6b", &[2, 4, 8], &METHODS),
    ("bert-52b", &[8], &METHODS),
    (
        "gpt-3",
        &[8],
        &["breadth_first", "non_looped", "no_pipeline"],
    ),
];

/// Global batch sizes of the space: multiples of 8 up to 256.
fn batches() -> impl Iterator<Item = u64> {
    (8..=256).step_by(8)
}

/// The whole key space `plan-cold` samples, in a fixed order.
pub fn plan_space() -> Vec<PlanKey> {
    let mut keys = Vec::new();
    for (model, node_counts, methods) in SHAPES {
        for &nodes in node_counts {
            for cluster in CLUSTERS {
                for &method in methods {
                    for batch in batches() {
                        for kernel in KERNELS {
                            keys.push(PlanKey {
                                model,
                                cluster,
                                nodes,
                                method,
                                batch,
                                kernel,
                            });
                        }
                    }
                }
            }
        }
    }
    keys
}

/// Worker threads a `plan-cold` request asks for.
pub(crate) const COLD_THREADS: u32 = 2;
/// Rounds of the seeded [`ReplanStream`] in one `plan-replan` pass: a
/// multiple of three, so every base meets each what-if kind equally often,
/// and 1113 requests, so about ten lie beyond the 99th percentile.
pub const REPLAN_PASS_ROUNDS: usize = 21;
/// Worker threads a `plan-replan` request asks for (the executor is
/// bypassed).
const REPLAN_THREADS: u32 = 1;

/// The cells of the key space — one per (model, nodes, cluster, method)
/// — in the space's fixed order, each holding its keys.
fn cells(keys: Vec<PlanKey>) -> Vec<Vec<PlanKey>> {
    let mut cells: Vec<Vec<PlanKey>> = Vec::new();
    for k in keys {
        match cells.last_mut() {
            Some(c)
                if (c[0].model, c[0].nodes, c[0].cluster, c[0].method)
                    == (k.model, k.nodes, k.cluster, k.method) =>
            {
                c.push(k)
            }
            _ => cells.push(vec![k]),
        }
    }
    cells
}

/// The batches of a `plan-cold` pass: one near the middle of each ninth
/// of the batch range.
pub const COLD_BATCHES: [u64; 9] = [24, 48, 80, 104, 136, 160, 192, 216, 248];

/// The `plan-cold` request keys of one pass: in every cell of the space
/// one key per batch of [`COLD_BATCHES`], the kernels dealt in turn, so
/// three keys of each of the 114 cells. The set is a fixed, stratified
/// sample of the space: a few BERT 52B keys cost tens of times the median
/// request, so a seed-drawn set moves the median and the tail with the
/// draw. The seed shuffles the order, which decides the mix of requests
/// each one follows and which request first meets each topology class.
/// No key repeats.
pub fn cold_keys(seed: u64) -> Vec<PlanKey> {
    let mut keys: Vec<PlanKey> = cells(plan_space())
        .into_iter()
        .enumerate()
        .flat_map(|(c, cell)| {
            COLD_BATCHES
                .iter()
                .enumerate()
                .map(move |(j, &batch)| PlanKey {
                    batch,
                    kernel: KERNELS[(c + j) % KERNELS.len()],
                    ..cell[0].clone()
                })
        })
        .collect();
    Rng::new(seed, 1).shuffle(&mut keys);
    keys
}

/// The warm store's default record capacity
/// (`bfpp::exec::WarmCache::new`).
pub const WARM_CAPACITY: usize = 64;

/// Homogeneous presets with the node preset `add_node` appends to them
/// and the method their elastic base plans. One elastic base per preset,
/// so a drop's quarantine — which clears every record of the base's
/// (model, cluster) — touches only that base.
const ELASTIC: [(&str, &str, &str); 4] = [
    ("dgx1_v100", "dgx1_v100", "breadth_first"),
    ("dgx1_v100_ethernet", "dgx1_v100_ethernet", "depth_first"),
    ("dgx_a100", "dgx_a100_40gb", "non_looped"),
    ("dgx_a100_80gb", "dgx_a100_80gb", "no_pipeline"),
];
/// Elastic bases run BERT 6.6B on four nodes with a batch divisible by
/// 3, 4 and 5, so the three-node (drop) and five-node (add) topologies
/// fit as well as the base.
const ELASTIC_NODES: u32 = 4;
const ELASTIC_BATCH: u64 = 240;
/// One regular base per batch tercile: these batches.
const BASE_BATCHES: [u64; 3] = [48, 136, 216];

/// A base request of the `plan-replan` pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Base {
    /// The request key.
    pub key: PlanKey,
    /// The node preset an `add_node` delta appends, for elastic bases.
    pub add_node: Option<&'static str>,
}

/// The `plan-replan` base pool — the workload's working set, the same
/// for every seed (the seed drives the request stream over it). Regular
/// bases: for every (model, nodes, method) of the cold space except
/// BERT 6.6B on four nodes (the elastic bases' own), one base per batch
/// tercile, the clusters and kernels dealt in turn. Elastic bases: one
/// per homogeneous preset. Set-up primes the daemon with every base.
pub fn replan_pool() -> Vec<Base> {
    let mut pool = Vec::new();
    for (model, node_counts, methods) in SHAPES {
        for &nodes in node_counts {
            if model == "bert-6.6b" && nodes == ELASTIC_NODES {
                continue;
            }
            for &method in methods {
                for batch in BASE_BATCHES {
                    let i = pool.len();
                    pool.push(Base {
                        key: PlanKey {
                            model,
                            cluster: CLUSTERS[i % CLUSTERS.len()],
                            nodes,
                            method,
                            batch,
                            kernel: KERNELS[i / CLUSTERS.len() % KERNELS.len()],
                        },
                        add_node: None,
                    });
                }
            }
        }
    }
    for (cluster, node, method) in ELASTIC {
        pool.push(Base {
            key: PlanKey {
                model: "bert-6.6b",
                cluster,
                nodes: ELASTIC_NODES,
                method,
                batch: ELASTIC_BATCH,
                kernel: "v100",
            },
            add_node: Some(node),
        });
    }
    pool
}

/// Warm-store records a `plan-replan` run can hold at once: every base,
/// plus the dropped and the added topology of every elastic base.
pub fn replan_working_set(pool: &[Base]) -> usize {
    pool.len() + 2 * pool.iter().filter(|b| b.add_node.is_some()).count()
}

/// The priming lines set-up sends: every base, clean.
pub fn prime_lines(pool: &[Base]) -> Vec<String> {
    pool.iter()
        .enumerate()
        .map(|(i, b)| b.key.line(&format!("p{i}"), REPLAN_THREADS))
        .collect()
}

/// What-if kinds a re-plan draws its perturbation from.
const WHAT_IFS: u64 = 3;

/// One visit of a `plan-replan` round.
#[derive(Debug, Clone, Copy)]
enum Visit {
    /// A what-if re-plan of this base.
    WhatIf(usize),
    /// An elastic delta on this (elastic) base.
    Delta(usize),
}

/// The endless, seeded `plan-replan` request stream. It runs in rounds
/// that every seed fills alike: each round re-plans every base once
/// under a straggler, jitter or link degradation — each base cycling
/// through the three kinds from round to round — and sends one
/// `drop_node`/`add_node` delta on every elastic base, alternating
/// between the two. The seed sets the order within each round, where
/// each base starts its cycle of kinds, and every perturbation's values.
#[derive(Debug, Clone)]
pub struct ReplanStream {
    pool: Vec<Base>,
    elastic: Vec<usize>,
    round: Vec<Visit>,
    rounds: u64,
    phase: u64,
    rng: Rng,
    next_id: u64,
}

impl ReplanStream {
    /// The stream for `seed` over `pool`.
    pub fn new(seed: u64, pool: Vec<Base>) -> ReplanStream {
        let elastic = (0..pool.len())
            .filter(|&i| pool[i].add_node.is_some())
            .collect();
        let mut rng = Rng::new(seed, 3);
        let phase = rng.below(WHAT_IFS);
        ReplanStream {
            pool,
            elastic,
            round: Vec::new(),
            rounds: 0,
            phase,
            rng,
            next_id: 0,
        }
    }

    /// Requests in one round: a re-plan of every base plus one delta per
    /// elastic base.
    pub fn round_len(&self) -> usize {
        self.pool.len() + self.elastic.len()
    }

    /// The next request line.
    pub fn next_line(&mut self) -> String {
        let id = format!("r{}", self.next_id);
        self.next_id += 1;
        if self.round.is_empty() {
            self.round = (0..self.pool.len())
                .map(Visit::WhatIf)
                .chain(self.elastic.iter().map(|&i| Visit::Delta(i)))
                .collect();
            self.rng.shuffle(&mut self.round);
            self.rounds += 1;
        }
        let visit = self.round.pop().expect("a round holds every base");
        let rng = &mut self.rng;
        match visit {
            Visit::Delta(i) => {
                let base = &self.pool[i];
                let delta = match base.add_node {
                    Some(node) if (self.rounds + i as u64).is_multiple_of(2) => {
                        format!("{{\"add_node\":\"{node}\"}}")
                    }
                    _ => format!("{{\"drop_node\":{}}}", rng.below(u64::from(base.key.nodes))),
                };
                format!(
                    "{{\"id\":\"{id}\",{},\"threads\":{REPLAN_THREADS},\"delta\":{delta}}}",
                    base.key.fields()
                )
            }
            Visit::WhatIf(i) => {
                let base = &self.pool[i];
                let seed = rng.below(1 << 32);
                let what_if = match (i as u64 + self.rounds + self.phase) % WHAT_IFS {
                    0 => format!(
                        "\"straggler\":{{\"device\":{},\"factor\":{}}}",
                        rng.below(8),
                        rng.hundredths(1.1, 2.0)
                    ),
                    1 => format!("\"jitter\":{}", rng.hundredths(0.01, 0.1)),
                    _ => format!("\"link_degradation\":{}", rng.hundredths(1.1, 3.0)),
                };
                format!(
                    "{{\"id\":\"{id}\",{},\"threads\":{REPLAN_THREADS},{what_if},\"seed\":{seed}}}",
                    base.key.fields()
                )
            }
        }
    }
}

/// Hidden size of the training workload's transformer stages.
pub const TRAIN_HIDDEN: usize = 32;
/// Tokens per micro-batch (one sequence).
pub const TRAIN_TOKENS: u32 = 16;
/// Micro-batches per replica per step.
pub const TRAIN_MICROBATCHES: u32 = 4;
/// Distinct seeded batches each configuration cycles through.
pub const TRAIN_BATCHES: u64 = 8;
/// Adam learning rate.
pub const TRAIN_LR: f32 = 0.01;

/// One pipelined-training configuration of the `train-step` rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainConfig {
    /// Display name.
    pub name: &'static str,
    /// Pipeline schedule.
    pub kind: ScheduleKind,
    /// Pipeline devices.
    pub n_pp: u32,
    /// Stages per device.
    pub n_loop: u32,
    /// Data-parallel replicas.
    pub n_dp: u32,
    /// Sharding level.
    pub dp: DataParallelism,
}

impl TrainConfig {
    /// The stage placement.
    pub fn placement(&self) -> Placement {
        Placement::looping(self.n_pp, self.n_loop)
    }

    /// Device threads one step spawns: one per (pipeline device,
    /// data-parallel replica).
    pub fn device_threads(&self) -> u32 {
        self.n_pp * self.n_dp
    }

    /// The step's [`bfpp::train::pipeline::TrainSpec`].
    pub fn spec(&self) -> bfpp::train::pipeline::TrainSpec {
        bfpp::train::pipeline::TrainSpec {
            kind: self.kind,
            placement: self.placement(),
            n_mb: TRAIN_MICROBATCHES,
            n_dp: self.n_dp,
            dp: self.dp,
            optimizer: OptimizerKind::adam(TRAIN_LR),
            half_comms: false,
        }
    }
}

/// The seven 2-thread configurations `train-step` rotates through.
pub const TRAIN_CONFIGS: [TrainConfig; 7] = [
    TrainConfig {
        name: "bf-pp2-loop2",
        kind: ScheduleKind::BreadthFirst,
        n_pp: 2,
        n_loop: 2,
        n_dp: 1,
        dp: DataParallelism::Unsharded,
    },
    TrainConfig {
        name: "df-pp2-loop2",
        kind: ScheduleKind::DepthFirst,
        n_pp: 2,
        n_loop: 2,
        n_dp: 1,
        dp: DataParallelism::Unsharded,
    },
    TrainConfig {
        name: "1f1b-pp2",
        kind: ScheduleKind::OneFOneB,
        n_pp: 2,
        n_loop: 1,
        n_dp: 1,
        dp: DataParallelism::Unsharded,
    },
    TrainConfig {
        name: "gpipe-pp2",
        kind: ScheduleKind::GPipe,
        n_pp: 2,
        n_loop: 1,
        n_dp: 1,
        dp: DataParallelism::Unsharded,
    },
    TrainConfig {
        name: "bf-loop4-dp2-dp0",
        kind: ScheduleKind::BreadthFirst,
        n_pp: 1,
        n_loop: 4,
        n_dp: 2,
        dp: DataParallelism::Unsharded,
    },
    TrainConfig {
        name: "bf-loop4-dp2-dpps",
        kind: ScheduleKind::BreadthFirst,
        n_pp: 1,
        n_loop: 4,
        n_dp: 2,
        dp: DataParallelism::PartiallySharded,
    },
    TrainConfig {
        name: "bf-loop4-dp2-dpfs",
        kind: ScheduleKind::BreadthFirst,
        n_pp: 1,
        n_loop: 4,
        n_dp: 2,
        dp: DataParallelism::FullySharded,
    },
];

/// One configuration's training state: stages plus Adam state.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// The model, one entry per global stage.
    pub stages: Vec<Stage>,
    /// One full-length optimizer state per stage.
    pub states: Vec<OptimizerState>,
}

/// Fresh seeded training state for configuration `c`.
pub fn train_state(seed: u64, c: usize) -> TrainState {
    let cfg = &TRAIN_CONFIGS[c];
    let stages = build_transformer_stages(
        TRAIN_HIDDEN,
        cfg.placement().num_stages(),
        true,
        Rng::new(seed, 10 + c as u64).next_u64(),
    );
    let optimizer = OptimizerKind::adam(TRAIN_LR);
    let states = stages
        .iter()
        .map(|s| optimizer.init_state(s.num_params()))
        .collect();
    TrainState { stages, states }
}

/// Seeded `(inputs, targets)` batch `b` of configuration `c`:
/// `n_dp · n_mb` micro-batches of one [`TRAIN_TOKENS`]-token sequence.
pub fn train_batch(seed: u64, c: usize, b: u64) -> (Vec<Tensor>, Vec<Tensor>) {
    let cfg = &TRAIN_CONFIGS[c];
    synthetic_batch(
        TRAIN_HIDDEN,
        TRAIN_HIDDEN,
        cfg.n_dp * TRAIN_MICROBATCHES,
        TRAIN_TOKENS,
        Rng::new(seed, 100 + 16 * c as u64 + b).next_u64(),
    )
}
