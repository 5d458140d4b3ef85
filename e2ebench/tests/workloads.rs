//! Tests of the seeded workload generators and of the metric catalog's
//! agreement with `BENCHMARK.json`.

use std::collections::HashSet;
use std::sync::Arc;

use bfpp::planner::json::Value;
use bfpp::planner::wire::{parse_line, Request};
use bfpp::planner::{Planner, SessionOutcome};
use e2ebench::workload::{
    cold_keys, plan_space, prime_lines, replan_pool, replan_working_set, train_batch, train_state,
    PlanKey, ReplanStream, COLD_BATCHES, TRAIN_CONFIGS, WARM_CAPACITY,
};
use e2ebench::{Better, END_TO_END, PER_LAYER, PRINTED_ONLY};

#[test]
fn the_same_seed_gives_the_same_inputs() {
    assert_eq!(cold_keys(7), cold_keys(7));
    assert_eq!(replan_lines(7, 500), replan_lines(7, 500));
    for c in 0..TRAIN_CONFIGS.len() {
        let (a, b) = (train_state(7, c), train_state(7, c));
        for (x, y) in a.stages.iter().zip(&b.stages) {
            assert_eq!(x.param_vector(), y.param_vector());
        }
        let bits = |t: &[bfpp::train::tensor::Tensor]| {
            t.iter()
                .flat_map(|x| x.data().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        let (a, b) = (train_batch(7, c, 3), train_batch(7, c, 3));
        assert_eq!(bits(&a.0), bits(&b.0));
        assert_eq!(bits(&a.1), bits(&b.1));
    }
}

/// The first `n` lines of seed `seed`'s `plan-replan` stream.
fn replan_lines(seed: u64, n: usize) -> Vec<String> {
    let mut s = ReplanStream::new(seed, replan_pool());
    (0..n).map(|_| s.next_line()).collect()
}

#[test]
fn other_seeds_give_other_inputs() {
    assert_ne!(cold_keys(1)[..200], cold_keys(2)[..200]);
    assert_ne!(replan_lines(1, 200), replan_lines(2, 200));
}

#[test]
fn plan_replan_rounds_visit_every_base_once() {
    let pool = replan_pool();
    let round = ReplanStream::new(4, pool.clone()).round_len();
    let lines = replan_lines(4, round);
    let plain: Vec<&String> = lines.iter().filter(|l| !l.contains("delta")).collect();
    assert_eq!(plain.len(), pool.len());
    let mut bases: Vec<usize> = plain
        .iter()
        .map(|l| {
            pool.iter()
                .position(|b| l.contains(&b.key.fields()))
                .expect("a base")
        })
        .collect();
    bases.sort_unstable();
    bases.dedup();
    assert_eq!(
        bases.len(),
        pool.len(),
        "no base is visited twice in a round"
    );
    let elastic = pool.iter().filter(|b| b.add_node.is_some()).count();
    assert_eq!(
        lines.len() - plain.len(),
        elastic,
        "one delta per elastic base"
    );
}

#[test]
fn plan_replan_bases_meet_every_what_if_kind_equally() {
    let pool = replan_pool();
    let round = ReplanStream::new(6, pool.clone()).round_len();
    let mut seen = HashSet::new();
    for l in replan_lines(6, 3 * round)
        .iter()
        .filter(|l| !l.contains("delta"))
    {
        let base = pool
            .iter()
            .position(|b| l.contains(&b.key.fields()))
            .expect("a base");
        let kind = ["straggler", "jitter", "link_degradation"]
            .iter()
            .position(|k| l.contains(k))
            .expect("a what-if kind");
        assert!(seen.insert((base, kind)), "{l}");
    }
    assert_eq!(seen.len(), 3 * pool.len(), "three rounds, each kind once");
}

#[test]
fn plan_cold_keys_never_repeat_in_a_run() {
    let keys = cold_keys(11);
    let space: HashSet<_> = plan_space().into_iter().collect();
    assert!(
        keys.iter().all(|k| space.contains(k)),
        "a key outside the space"
    );
    let distinct: HashSet<_> = keys.iter().collect();
    assert_eq!(distinct.len(), keys.len(), "a key repeats");
}

#[test]
fn plan_cold_passes_hold_every_cell_at_every_batch() {
    let cells: HashSet<_> = plan_space()
        .into_iter()
        .map(|k| (k.model, k.nodes, k.cluster, k.method))
        .collect();
    let keys = cold_keys(3);
    assert_eq!(keys.len(), cells.len() * COLD_BATCHES.len());
    let seen: HashSet<_> = keys
        .iter()
        .map(|k| (k.model, k.nodes, k.cluster, k.method, k.batch))
        .collect();
    assert_eq!(seen.len(), keys.len(), "every (cell, batch) once");
    // Every seed sends the same keys, each in its own order.
    let sorted = |mut v: Vec<PlanKey>| {
        v.sort_by_key(|k| k.line("", 0));
        v
    };
    assert_eq!(sorted(cold_keys(3)), sorted(cold_keys(4)));
}

#[test]
fn every_request_line_parses() {
    for k in cold_keys(5).iter().take(300) {
        let line = k.line("x", 2);
        assert!(
            matches!(parse_line(&line, "x"), Ok(Request::Plan { .. })),
            "{line}"
        );
    }
    let pool = replan_pool();
    let mut s = ReplanStream::new(5, pool.clone());
    let mut deltas = 0;
    for line in prime_lines(&pool)
        .into_iter()
        .chain((0..2000).map(|_| s.next_line()))
    {
        match parse_line(&line, "x") {
            Ok(Request::Plan { delta, .. }) => deltas += usize::from(delta.is_some()),
            other => panic!("{line}: {other:?}"),
        }
    }
    assert!(
        (80..=250).contains(&deltas),
        "{deltas} deltas in 2000 re-plans"
    );
}

#[test]
fn plan_replan_pool_stays_below_the_warm_store_capacity() {
    let pool = replan_pool();
    assert!(
        replan_working_set(&pool) < WARM_CAPACITY,
        "{} records",
        replan_working_set(&pool)
    );
    let keys: HashSet<_> = pool.iter().map(|b| &b.key).collect();
    assert_eq!(keys.len(), pool.len(), "bases are distinct");
}

#[test]
fn a_primed_planner_keeps_every_base_warm() {
    let pool = replan_pool();
    let planner = Arc::new(Planner::with_threads(1));
    let run = |line: &str| {
        let Ok(Request::Plan { req, .. }) = parse_line(line, "x") else {
            panic!("{line}")
        };
        match planner.submit(*req).wait_outcome() {
            SessionOutcome::Done { result, report } => {
                assert!(result.is_some(), "{line}: nothing fits");
                report
            }
            other => panic!("{line}: {other:?}"),
        }
    };
    for line in prime_lines(&pool) {
        run(&line);
    }
    assert_eq!(planner.warm().expect("warm store").len(), pool.len());
    // The first base primed is still held: a what-if re-plan of it warm-starts.
    let first = prime_lines(&pool)[0].replace("}", ",\"jitter\":0.05,\"seed\":3}");
    assert!(run(&first).counters.count("warm_start") > 0);
}

#[test]
fn every_train_step_config_spawns_at_most_two_device_threads() {
    for cfg in TRAIN_CONFIGS {
        assert!(cfg.device_threads() <= 2, "{}", cfg.name);
    }
}

/// The `"name"` values of the objects in one array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let v = Value::parse(json).expect("BENCHMARK.json parses");
    let Some(Value::Arr(items)) = v.get(key) else {
        panic!("BENCHMARK.json has no array {key:?}")
    };
    items
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_catalog_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter(|(n, _, _)| !PRINTED_ONLY.contains(n))
        .map(|(n, _, _)| n.to_string())
        .collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
    let workloads: Vec<String> = e2ebench::Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if PRINTED_ONLY.contains(name) {
            continue;
        }
        let want = format!(
            "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        );
        assert!(json.contains(&want), "BENCHMARK.json lacks {want}");
    }
}
