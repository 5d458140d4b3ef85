//! Property test of the batched topology-class evaluator: for random
//! methods, batch sizes, limits and perturbations, the engine (one CSR
//! per shape class, SoA duration rows, trace replay) must be
//! **bit-identical** to the serial test reference (lower + full solve
//! per candidate) — same winner, same measurement to the bit, same
//! prune counters — at every thread count.

mod common;

use bfpp_cluster::presets::dgx1_v100;
use bfpp_exec::search::{best_config_with_report, Method, SearchOptions};
use bfpp_exec::KernelModel;
use bfpp_model::presets::bert_6_6b;
use bfpp_sim::Perturbation;
use proptest::prelude::*;

fn perturbations() -> Vec<Perturbation> {
    vec![
        Perturbation::none(),
        Perturbation::with_seed(42),
        Perturbation::with_seed(7).with_straggler(0, 1.4),
        Perturbation::with_seed(9)
            .with_jitter(0.1)
            .with_link_degradation(1.2),
    ]
}

fn searches() -> impl Strategy<Value = (Method, u64, SearchOptions)> {
    (
        proptest::sample::select(Method::ALL.to_vec()),
        proptest::sample::select(vec![8u64, 16, 24, 48]),
        proptest::sample::select(vec![2u32, 4]),
        proptest::sample::select(vec![4u32, 8]),
        proptest::sample::select(perturbations()),
    )
        .prop_map(|(method, batch, max_microbatch, max_loop, perturbation)| {
            (
                method,
                batch,
                SearchOptions {
                    max_microbatch,
                    max_loop,
                    max_actions: 20_000,
                    perturbation,
                    ..SearchOptions::default()
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Grouping candidates into topology classes and re-timing them by
    /// trace replay must never change the answer or the accounting.
    #[test]
    fn batched_equals_serial_reference((method, batch, opts) in searches()) {
        let model = bert_6_6b();
        let cluster = dgx1_v100(1);
        let kernel = KernelModel::v100();
        let reference = common::serial_reference(&model, &cluster, method, batch, &kernel, &opts);
        for threads in [1usize, 2, 4] {
            let batched = best_config_with_report(
                &model,
                &cluster,
                method,
                batch,
                &kernel,
                &SearchOptions { threads, ..opts.clone() },
            );
            prop_assert_eq!(
                &batched.0,
                &reference.0,
                "winner: {} @ batch {} threads {} with {:?}",
                method,
                batch,
                threads,
                &opts
            );
            prop_assert_eq!(
                common::deterministic(&batched.1),
                common::deterministic(&reference.1),
                "report: {} @ batch {} threads {}",
                method,
                batch,
                threads
            );
        }
    }
}

/// The winner's full measurement — makespan, memory, utilization — must
/// match to the bit on a known-nontrivial cell (the paper's Fig. 5a
/// shape), not merely compare equal through the throughput ordering.
#[test]
fn fig5a_cell_winner_measurement_is_bit_identical() {
    let model = bert_6_6b();
    let cluster = dgx1_v100(8);
    let kernel = KernelModel::v100();
    let (reference, _) = common::serial_reference(
        &model,
        &cluster,
        Method::BreadthFirst,
        16,
        &kernel,
        &SearchOptions::default(),
    );
    let reference = reference.expect("Fig. 5a cell has a winner");
    for threads in [1usize, 2, 4] {
        let (batched, _) = best_config_with_report(
            &model,
            &cluster,
            Method::BreadthFirst,
            16,
            &kernel,
            &SearchOptions {
                threads,
                ..SearchOptions::default()
            },
        );
        let batched = batched.expect("batched search finds the same winner");
        assert_eq!(batched.cfg, reference.cfg, "threads={threads}");
        assert_eq!(
            batched.measurement, reference.measurement,
            "threads={threads}: measurement must be bit-identical"
        );
    }
}
