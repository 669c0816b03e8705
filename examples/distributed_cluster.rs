//! Functional distributed discovery: run the 4-hit search across simulated
//! cluster nodes — real rank threads, real kernel execution on the GPU
//! simulator, real binomial-tree reduction — and verify the result is
//! bit-identical to the single-process reference at every cluster shape.
//!
//! ```text
//! cargo run --example distributed_cluster --release
//! ```

use multihit::cluster::driver::{distributed_discover4, DistributedConfig, SchedulerKind};
use multihit::cluster::topology::ClusterShape;
use multihit::core::greedy::{discover, GreedyConfig};
use multihit::core::schemes::Scheme4;
use multihit::data::synth::{generate, CohortSpec};

fn main() {
    let cohort = generate(&CohortSpec {
        n_genes: 14,
        n_tumor: 150,
        n_normal: 80,
        n_driver_combos: 3,
        hits_per_combo: 4,
        driver_penetrance: 0.9,
        passenger_rate_tumor: 0.05,
        passenger_rate_normal: 0.02,
        seed: 99,
    });
    println!(
        "cohort: {} genes → C(G,4) = {} combinations per iteration",
        14,
        multihit::core::combin::binomial(14, 4)
    );

    // Single-process reference.
    let reference = discover::<4>(
        &cohort.tumor,
        &cohort.normal,
        &GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        },
    );
    println!(
        "reference run: {} combinations",
        reference.combinations.len()
    );

    for (nodes, gpus) in [(1usize, 2usize), (2, 3), (4, 6)] {
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes,
                gpus_per_node: gpus,
            },
            scheme: Scheme4::ThreeXOne,
            scheduler: SchedulerKind::EquiArea,
            ..DistributedConfig::default()
        };
        let dist = distributed_discover4(&cohort.tumor, &cohort.normal, &cfg);
        let agree = dist.combinations == reference.combinations;
        println!(
            "  {nodes} node(s) x {gpus} GPU(s) = {:>2} ranges: {} combinations, matches reference: {agree}",
            nodes * gpus,
            dist.combinations.len(),
        );
        assert!(agree, "distributed result diverged from reference");
        // Show the equi-area balance of the first iteration, and how much
        // of it the pruned slab scans actually scored.
        let first = &dist.iterations[0];
        let max = first.assigned_per_gpu.iter().max().unwrap();
        let min = first.assigned_per_gpu.iter().min().unwrap();
        let scored: u64 = first.combos_per_gpu.iter().sum();
        println!("      per-GPU combinations: min {min}, max {max}; {scored} scored in total");
    }
    println!("\nall cluster shapes reproduce the reference exactly.");
}
