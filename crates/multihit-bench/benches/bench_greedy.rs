//! End-to-end greedy discovery benchmarks: hit counts 2–4, sequential vs
//! work-stealing parallel scanning, the scalar/vectorized/pruned scan
//! ladder, and the functional distributed driver.

use criterion::{criterion_group, criterion_main, Criterion};
use multihit_cluster::driver::{distributed_discover4, DistributedConfig};
use multihit_cluster::topology::ClusterShape;
use multihit_core::greedy::{best_combination, discover, GreedyConfig};
use multihit_core::kernel;
use multihit_data::synth::{generate, CohortSpec};

fn cohort(g: usize, h: usize) -> (multihit_core::BitMatrix, multihit_core::BitMatrix) {
    let c = generate(&CohortSpec {
        n_genes: g,
        n_tumor: 180,
        n_normal: 90,
        n_driver_combos: 3,
        hits_per_combo: h,
        ..CohortSpec::default()
    });
    (c.tumor, c.normal)
}

fn bench_hits(c: &mut Criterion) {
    let mut grp = c.benchmark_group("greedy_discover");
    grp.sample_size(10);
    let (t2, n2) = cohort(160, 2);
    grp.bench_function("h2_g160", |b| {
        b.iter(|| {
            discover::<2>(
                &t2,
                &n2,
                &GreedyConfig {
                    parallel: false,
                    max_combinations: 3,
                    ..Default::default()
                },
            )
            .combinations
            .len()
        })
    });
    let (t3, n3) = cohort(60, 3);
    grp.bench_function("h3_g60", |b| {
        b.iter(|| {
            discover::<3>(
                &t3,
                &n3,
                &GreedyConfig {
                    parallel: false,
                    max_combinations: 3,
                    ..Default::default()
                },
            )
            .combinations
            .len()
        })
    });
    let (t4, n4) = cohort(30, 4);
    grp.bench_function("h4_g30", |b| {
        b.iter(|| {
            discover::<4>(
                &t4,
                &n4,
                &GreedyConfig {
                    parallel: false,
                    max_combinations: 3,
                    ..Default::default()
                },
            )
            .combinations
            .len()
        })
    });
    grp.finish();
}

fn bench_scan_ladder(c: &mut Criterion) {
    // The PR-3 acceptance surface: one 3-hit argmax scan at G = 300,
    // climbing scalar → vectorized → vectorized+pruned. All three arms
    // return bit-identical winners (asserted by tests and bench_scan).
    let (t, n) = cohort(300, 3);
    let mut grp = c.benchmark_group("scan_h3_g300");
    grp.sample_size(10);
    for (name, scalar, prune) in [
        ("scalar_unpruned", true, false),
        ("vector_unpruned", false, false),
        ("vector_pruned", false, true),
    ] {
        grp.bench_function(name, |b| {
            kernel::force_scalar(scalar);
            let cfg = GreedyConfig {
                parallel: true,
                prune,
                ..GreedyConfig::default()
            };
            b.iter(|| {
                best_combination::<3>(&t, &n, None, &cfg, 1, 0)
                    .0
                    .best()
                    .score
            });
            kernel::force_scalar(false);
        });
    }
    grp.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let (t, n) = cohort(48, 3);
    let mut grp = c.benchmark_group("greedy_h3_g48_parallelism");
    grp.sample_size(10);
    for (name, par) in [("sequential", false), ("work_stealing", true)] {
        grp.bench_function(name, |b| {
            b.iter(|| {
                discover::<3>(
                    &t,
                    &n,
                    &GreedyConfig {
                        parallel: par,
                        max_combinations: 2,
                        ..Default::default()
                    },
                )
                .combinations
                .len()
            })
        });
    }
    grp.finish();
}

fn bench_distributed(c: &mut Criterion) {
    let (t, n) = cohort(20, 4);
    let mut grp = c.benchmark_group("distributed_h4_g20");
    grp.sample_size(10);
    for nodes in [1usize, 2, 4] {
        grp.bench_function(format!("{nodes}nodes_x2gpus"), |b| {
            b.iter(|| {
                distributed_discover4(
                    &t,
                    &n,
                    &DistributedConfig {
                        shape: ClusterShape {
                            nodes,
                            gpus_per_node: 2,
                        },
                        max_combinations: 1,
                        ..DistributedConfig::default()
                    },
                )
                .combinations
                .len()
            })
        });
    }
    grp.finish();
}

criterion_group!(
    benches,
    bench_hits,
    bench_scan_ladder,
    bench_parallel_scan,
    bench_distributed
);
criterion_main!(benches);
