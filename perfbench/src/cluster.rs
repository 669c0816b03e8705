//! `cluster-h4`: functional distributed discovery through
//! `cluster::driver::distributed_discover4` on 2 ranks x 2 simulated GPUs
//! (one rank per core of a 2-core host), panel written as TSV. One
//! operation runs a batch of `BATCH` cohorts of G = 120, 240 / 120
//! samples, about 4% passenger density.

use crate::{
    batch_seeds, measure_batch, median, ratio, secs, timed_setups, Report, RunOpts, Samples,
};
use multihit_cluster::driver::{distributed_discover4_obs, DistResult, DistributedConfig};
use multihit_cluster::topology::ClusterShape;
use multihit_core::bitmat::BitMatrix;
use multihit_core::greedy::{discover, GreedyConfig};
use multihit_core::obs::{EventKind, Obs};
use multihit_data::results::{ResultRow, ResultsFile};
use multihit_data::synth::{gene_symbols, generate, CohortSpec};
use std::path::PathBuf;
use std::time::Instant;

/// Cohorts per operation. How many iterations the frontier settles decides
/// how many full kernel rounds run, so one cohort's distributed discovery
/// time swings with the seed; the mean over the batch holds still. Drivers
/// are fully penetrant for the same reason: with 90% penetrance the weak
/// tail iterations make single-cohort times swing by about 30%.
const BATCH: u64 = 16;

fn cohorts(seed: u64) -> Vec<CohortSpec> {
    batch_seeds(seed, BATCH)
        .map(|seed| CohortSpec {
            n_genes: 120,
            n_tumor: 240,
            n_normal: 120,
            n_driver_combos: 6,
            hits_per_combo: 4,
            driver_penetrance: 1.0,
            passenger_rate_tumor: 0.03,
            passenger_rate_normal: 0.03,
            seed,
        })
        .collect()
}

fn config() -> DistributedConfig {
    DistributedConfig {
        shape: ClusterShape {
            nodes: 2,
            gpus_per_node: 2,
        },
        ..DistributedConfig::default()
    }
}

struct Inputs {
    tumor: BitMatrix,
    normal: BitMatrix,
    genes: Vec<String>,
    out_path: PathBuf,
    /// Single-process `discover::<4>` panel the distributed run must equal.
    reference: Vec<[u32; 4]>,
    reference_uncovered: u32,
}

fn setup(spec: &CohortSpec, out_path: PathBuf) -> Inputs {
    let c = generate(spec);
    let genes = gene_symbols(&c);
    let reference = discover::<4>(&c.tumor, &c.normal, &GreedyConfig::default());
    Inputs {
        tumor: c.tumor,
        normal: c.normal,
        genes,
        out_path,
        reference: reference.combinations,
        reference_uncovered: reference.uncovered,
    }
}

/// One distributed discovery, panel written; returns (seconds, result).
fn solve(inp: &Inputs, obs: &Obs) -> (f64, DistResult) {
    let start = Instant::now();
    let res = distributed_discover4_obs(&inp.tumor, &inp.normal, &config(), obs);
    let n_tumor = inp.tumor.n_samples() as u32;
    let n_normal = inp.normal.n_samples() as u32;
    let rows = res
        .iterations
        .iter()
        .enumerate()
        .map(|(iteration, it)| ResultRow {
            iteration,
            genes: it
                .best
                .genes
                .iter()
                .map(|&g| inp.genes[g as usize].clone())
                .collect(),
            f: it.best.f_value(config().alpha, n_tumor, n_normal),
            tp: it.best.tp,
            tn: it.best.tn,
        })
        .collect();
    let rf = ResultsFile {
        cohort: "cluster".to_string(),
        hits: 4,
        rows,
    };
    std::fs::write(&inp.out_path, rf.to_tsv()).expect("write results TSV");
    (start.elapsed().as_secs_f64(), res)
}

fn check(inp: &Inputs, res: &DistResult) -> Result<(), String> {
    if res.combinations != inp.reference || res.uncovered != inp.reference_uncovered {
        return Err(format!(
            "distributed panel ({} combinations, {} uncovered) differs from single-process \
             discover ({} combinations, {} uncovered)",
            res.combinations.len(),
            res.uncovered,
            inp.reference.len(),
            inp.reference_uncovered
        ));
    }
    Ok(())
}

pub fn run(opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let specs = cohorts(opts.seed);
    let batch = timed_setups(&mut report, || {
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| setup(spec, opts.dir.join(format!("cluster{i}.tsv"))))
            .collect::<Vec<_>>()
    });

    measure_batch(
        opts,
        &mut report,
        &batch,
        |inp, obs, report| {
            let (s, res) = solve(inp, obs);
            report.check(check(inp, &res));
            (s, res)
        },
        record_layers,
    );
    report
}

fn record_layers(res: &DistResult, obs: &Obs, layers: &mut Samples) {
    let events = obs.events();
    let c = obs.counters();
    let counter = |k: &str| c.get(k).copied().unwrap_or(0);

    // Per-rank busy (kernel) and comm (reduce + broadcast) time, summed over
    // the run's `rank_exec` points.
    let mut busy: Vec<u64> = Vec::new();
    let mut comm: Vec<u64> = Vec::new();
    for e in events
        .iter()
        .filter(|e| e.kind == EventKind::Point && e.name == "rank_exec")
    {
        let rank = e.u64("rank").unwrap_or(0) as usize;
        if busy.len() <= rank {
            busy.resize(rank + 1, 0);
            comm.resize(rank + 1, 0);
        }
        busy[rank] += e.u64("busy_ns").unwrap_or(0);
        comm[rank] += e.u64("comm_ns").unwrap_or(0);
    }
    let ranks = busy.len().max(1) as f64;
    let busy_s = secs(busy.iter().sum()) / ranks;
    layers.push("rank.busy_s", busy_s);
    layers.push("rank.comm_s", secs(comm.iter().sum()) / ranks);
    let max_busy = busy.iter().copied().max().unwrap_or(0) as f64;
    layers.push("rank.imbalance", ratio(max_busy, busy_s * 1e9));
    // Combinations the GPUs actually evaluated, not C(G, 4) per iteration:
    // frontier-hit iterations launch no kernels and add nothing here.
    let evaluated: u64 = res
        .iterations
        .iter()
        .flat_map(|it| it.combos_per_gpu.iter())
        .sum();
    layers.push("dist.evaluated", evaluated as f64);
    layers.push("dist.evals_per_s", ratio(evaluated as f64, busy_s));
    layers.push("dist.frontier_hits", counter("dist.frontier_hits") as f64);
    layers.push("sched.partition_s", secs(counter("sched.partition_ns")));
    let mut imbalance: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Point && e.name == "sched_partition")
        .filter_map(|e| e.f64("imbalance"))
        .collect();
    layers.push("sched.imbalance", median(&mut imbalance));
}
