//! Property tests for the slab → colex-run mapping the distributed drivers
//! scan with: the runs tile the enumeration under every scheduler (and
//! after elastic slab moves), and the pruned per-GPU scans reproduce the
//! single-process discovery at every cluster shape.

use multihit_cluster::driver::{
    distributed_discover4, distributed_discover4_ft, DistributedConfig, SchedulerKind,
};
use multihit_cluster::fault::FtParams;
use multihit_cluster::sched::{rebalance_join, validate_cover, Partition};
use multihit_cluster::topology::ClusterShape;
use multihit_core::bitmat::BitMatrix;
use multihit_core::combin::{binomial, rank_tuple};
use multihit_core::greedy::{discover, GreedyConfig};
use multihit_core::obs::Obs;
use multihit_core::schemes::Scheme4;
use multihit_core::sweep::levels_scheme4;
use proptest::prelude::*;

fn lcg_matrices(g: usize, nt: usize, nn: usize, seed: u64, density: u64) -> (BitMatrix, BitMatrix) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    let mut t = BitMatrix::zeros(g, nt);
    let mut n = BitMatrix::zeros(g, nn);
    for gene in 0..g {
        for s in 0..nt {
            if next() % density == 0 {
                t.set(gene, s, true);
            }
        }
        for s in 0..nn {
            if next() % (density + 2) == 0 {
                n.set(gene, s, true);
            }
        }
    }
    (t, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn colex_runs_tile_the_space(g in 4u32..15, parts in 1usize..7, joiners in 1usize..4) {
        let total = binomial(u64::from(g), 4);
        for scheme in Scheme4::ALL {
            let name = scheme.name();
            let mut schedules: Vec<Vec<Partition>> = [
                SchedulerKind::EquiDistance,
                SchedulerKind::EquiArea,
                SchedulerKind::EquiCost,
            ]
            .iter()
            .map(|s| s.partitions(scheme, g, parts))
            .collect();
            let levels = levels_scheme4(scheme, g);
            if let Ok((moved, _)) = rebalance_join(&levels, &schedules[1], joiners) {
                schedules.push(moved);
            }
            for slabs in &schedules {
                let mut all_runs = Vec::new();
                for p in slabs {
                    let runs = scheme.colex_runs(p.lo, p.hi, g);
                    for w in runs.windows(2) {
                        prop_assert!(w[0].end <= w[1].start, "{name}: runs not ascending");
                    }
                    let from_runs: Vec<u64> = runs.iter().flat_map(|r| r.clone()).collect();
                    let mut from_combos = Vec::new();
                    for lambda in p.lo..p.hi {
                        scheme.for_each_combo(lambda, g, |c| from_combos.push(rank_tuple(&c)));
                    }
                    from_combos.sort_unstable();
                    prop_assert!(from_runs == from_combos, "{name} slab {p:?}: runs miss combinations");
                    all_runs.extend(runs.into_iter().map(|r| Partition { lo: r.start, hi: r.end }));
                }
                prop_assert!(
                    validate_cover(&all_runs, total).is_ok(),
                    "{name}: runs of {slabs:?} do not tile C({g},4)"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn distributed_drivers_match_discover(seed in 0u64..10_000, density in 2u64..5) {
        let (t, n) = lcg_matrices(11, 70, 40, seed, density);
        let reference = discover::<4>(
            &t,
            &n,
            &GreedyConfig { parallel: false, max_combinations: 4, ..GreedyConfig::default() },
        );
        for nodes in 1..=3 {
            for gpus_per_node in 1..=3 {
                for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
                    for frontier_k in [0usize, 1, 64] {
                        let cfg = DistributedConfig {
                            shape: ClusterShape { nodes, gpus_per_node },
                            scheme,
                            frontier_k,
                            max_combinations: 4,
                            ..DistributedConfig::default()
                        };
                        let at = format!("{nodes}x{gpus_per_node} {} k={frontier_k}", scheme.name());
                        let plain = distributed_discover4(&t, &n, &cfg);
                        let ft = distributed_discover4_ft(
                            &t, &n, &cfg, None, FtParams::fast_test(), &Obs::disabled(),
                        )
                        .result;
                        prop_assert!(plain.combinations == reference.combinations, "plain {at}");
                        prop_assert!(ft.combinations == reference.combinations, "ft {at}");
                        prop_assert_eq!(plain.iterations.len(), reference.iterations.len());
                        let iters = plain.iterations.iter().zip(&ft.iterations);
                        for ((p, f), r) in iters.zip(&reference.iterations) {
                            prop_assert!(p.best == r.best && f.best == r.best, "best {at}");
                            prop_assert!(p.combos_per_gpu == f.combos_per_gpu, "scored {at}");
                            prop_assert!(p.assigned_per_gpu == f.assigned_per_gpu, "assigned {at}");
                        }
                    }
                }
            }
        }
    }
}
