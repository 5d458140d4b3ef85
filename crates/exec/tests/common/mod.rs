//! The serial bit-identity reference for the search engine's
//! candidate evaluation: the same chunked enumerate → prune → evaluate →
//! reduce loop as `search::search_observed`, with every survivor lowered
//! and solved on its own (`simulate_perturbed`) instead of replayed over
//! a topology-class base. One thread, no caches, no classes.

use bfpp_cluster::ClusterSpec;
use bfpp_exec::candidates::{enumerate, Candidate};
use bfpp_exec::prune::{prune_reason, PruneReason};
use bfpp_exec::search::{Method, SearchOptions, SearchReport, SearchResult};
use bfpp_exec::{simulate_perturbed, KernelModel, Perturbation};
use bfpp_model::TransformerConfig;

/// The engine's prune/reduce chunk: each chunk is pruned against the
/// best of the chunks before it only, which is what the report's
/// counters depend on.
const CHUNK: usize = 32;

/// The winner and the report's deterministic fields (`enumerated`,
/// the prune split, `simulated`, `best`, `robust_tflops`, `retention`)
/// as the engine must produce them for any thread count.
pub fn serial_reference(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> (Option<SearchResult>, SearchReport) {
    let overlap = method.overlap();
    let speedup = opts.perturbation.max_speedup();
    let cands: Vec<Candidate> = enumerate(model, cluster, method, global_batch, opts).collect();
    let mut report = SearchReport {
        enumerated: cands.len() as u64,
        ..SearchReport::default()
    };
    let mut best: Option<SearchResult> = None;
    for chunk in cands.chunks(CHUNK) {
        let best_tflops = best.as_ref().map(|b| b.measurement.tflops_per_gpu);
        let mut survivors = Vec::new();
        for cand in chunk {
            match prune_reason(model, cluster, cand, overlap, kernel, best_tflops, speedup) {
                Some(PruneReason::Memory) => report.pruned_memory += 1,
                Some(PruneReason::Throughput) => report.pruned_throughput += 1,
                None => survivors.push(*cand),
            }
        }
        report.simulated += survivors.len() as u64;
        for cand in survivors {
            let cfg = cand.config_on(model, cluster);
            let Ok(m) = simulate_perturbed(
                model,
                cluster,
                &cfg,
                cand.kind,
                overlap,
                kernel,
                &opts.perturbation,
            ) else {
                continue;
            };
            // Strictly-greater replaces: the first of equally fast
            // candidates wins.
            let better = best
                .as_ref()
                .is_none_or(|b| m.tflops_per_gpu > b.measurement.tflops_per_gpu);
            if !m.fits(cluster.min_memory_bytes()) || !better {
                continue;
            }
            best = Some(SearchResult {
                method,
                kind: cand.kind,
                cfg,
                overlap,
                measurement: m,
            });
        }
    }
    report.best = best.as_ref().map(|b| b.measurement.tflops_per_gpu);
    if let Some(b) = &best {
        let probe = Perturbation::reference_probe();
        let m = simulate_perturbed(model, cluster, &b.cfg, b.kind, overlap, kernel, &probe)
            .expect("the winner simulated once, so it simulates under the probe");
        report.robust_tflops = Some(m.tflops_per_gpu);
        report.retention = Some(m.tflops_per_gpu / b.measurement.tflops_per_gpu);
    }
    (best, report)
}

/// The report fields the engine guarantees bit-identical to
/// [`serial_reference`] at any thread count.
pub fn deterministic(
    report: &SearchReport,
) -> (u64, u64, u64, u64, Option<f64>, Option<f64>, Option<f64>) {
    (
        report.enumerated,
        report.pruned_memory,
        report.pruned_throughput,
        report.simulated,
        report.best,
        report.robust_tflops,
        report.retention,
    )
}
