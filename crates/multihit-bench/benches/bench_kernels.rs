//! Kernel benchmarks: one GPU's pruned λ-slab scan under the 2x2 and 3x1
//! schemes, the incremental combination scanner, the staged reductions, and
//! the modeled-profile evaluation rate at paper scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use multihit_core::combin::binomial;
use multihit_core::frontier::TopK;
use multihit_core::greedy::{scan_ranges, ComboScanner, ScanStats};
use multihit_core::kernel;
use multihit_core::reduce::{gpu_reduce, tree_reduce};
use multihit_core::schemes::Scheme4;
use multihit_core::weight::{Alpha, Scored};
use multihit_data::synth::{generate, CohortSpec};
use multihit_gpusim::profile::{kernel_levels4, profile_partitions};
use multihit_gpusim::{CostModel, GpuSpec};

fn cohort(g: usize) -> (multihit_core::BitMatrix, multihit_core::BitMatrix) {
    let c = generate(&CohortSpec {
        n_genes: g,
        n_tumor: 240,
        n_normal: 120,
        n_driver_combos: 4,
        hits_per_combo: 4,
        ..CohortSpec::default()
    });
    (c.tumor, c.normal)
}

fn bench_slab_scans(c: &mut Criterion) {
    // One GPU's share of a 4-GPU EA split, scanned the way cluster ranks
    // scan it: one pruned scanner re-seeked across the slab's colex runs.
    let (t, n) = cohort(28);
    let mut grp = c.benchmark_group("slab_scan_g28");
    grp.sample_size(20);
    for scheme in [Scheme4::TwoXTwo, Scheme4::ThreeXOne] {
        let parts = multihit_cluster::sched::schedule_ea_fast(
            &multihit_core::sweep::levels_scheme4(scheme, 28),
            4,
        );
        let runs = scheme.colex_runs(parts[0].lo, parts[0].hi, 28);
        grp.bench_function(scheme.name(), |b| {
            b.iter(|| {
                let mut acc = TopK::new(1);
                let build = |start| ComboScanner::<4>::new(&t, &n, None, Alpha::PAPER, start);
                scan_ranges(runs.iter().cloned(), build, &mut acc, true, None);
                acc.into_sorted()
            })
        });
    }
    grp.finish();
}

fn bench_popcount_kernels(c: &mut Criterion) {
    // The word-level primitives everything above bottoms out in: portable
    // unrolled scalar vs the runtime-dispatched AVX2/POPCNT path, on a
    // BitSplicing-realistic row length (4096 samples = 64 words).
    let a: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let b: Vec<u64> = (0..64u64)
        .map(|i| !i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .collect();
    let mut dst = vec![0u64; 64];
    let mut grp = c.benchmark_group("kernel_64words");
    grp.bench_function(format!("and_popcount_{}", kernel::active().name()), |bch| {
        bch.iter(|| kernel::and_popcount(black_box(&a), black_box(&b)))
    });
    grp.bench_function("and_popcount_scalar", |bch| {
        bch.iter(|| kernel::and_popcount_scalar(black_box(&a), black_box(&b)))
    });
    grp.bench_function(
        format!("and_store_popcount_{}", kernel::active().name()),
        |bch| bch.iter(|| kernel::and_store_popcount(black_box(&mut dst), &a, &b)),
    );
    grp.finish();
}

fn bench_scanner(c: &mut Criterion) {
    let (t, n) = cohort(40);
    let total = binomial(40, 4);
    c.bench_function("combo_scanner_h4_g40", |b| {
        b.iter(|| {
            let mut sc = ComboScanner::<4>::new(&t, &n, None, Alpha::PAPER, 0);
            let mut acc = TopK::new(1);
            sc.scan(
                black_box(total),
                &mut acc,
                false,
                None,
                &mut ScanStats::default(),
            );
            acc.into_sorted()
        })
    });
}

fn bench_reductions(c: &mut Criterion) {
    let scores: Vec<Scored<4>> = (0..100_000u32)
        .map(|i| Scored {
            score: u64::from(i.wrapping_mul(2654435761) % 99_991),
            tp: 0,
            tn: 0,
            genes: [i % 1000, i % 1000 + 1, i % 1000 + 2, i % 1000 + 3],
        })
        .collect();
    let mut grp = c.benchmark_group("reduction_100k_records");
    grp.bench_function("gpu_reduce_block512", |b| {
        b.iter(|| gpu_reduce(black_box(&scores), 512).0)
    });
    grp.bench_function("tree_only", |b| {
        b.iter(|| tree_reduce(black_box(scores.clone())).0)
    });
    grp.finish();
}

fn bench_model_eval(c: &mut Criterion) {
    // One full paper-scale modeled iteration: 6000 partitions over G=19411.
    let levels = kernel_levels4(Scheme4::ThreeXOne, 19411);
    let parts = multihit_cluster::sched::schedule_ea_fast(
        &multihit_core::sweep::levels_scheme4(Scheme4::ThreeXOne, 19411),
        6000,
    );
    let bounds = multihit_cluster::sched::partitions_to_ranges(&parts);
    let model = CostModel::new(GpuSpec::v100_summit());
    c.bench_function("model_iteration_G19411_P6000", |b| {
        b.iter(|| {
            profile_partitions(black_box(&levels), &bounds, 21, 3, false)
                .iter()
                .map(|p| model.evaluate(p).time_s)
                .fold(0.0f64, f64::max)
        })
    });
}

fn bench_packed_vs_byte_matrix(c: &mut Criterion) {
    // §II-C's compressed-representation contribution: packed u64 rows with
    // popcount vs the uncompressed byte matrix, full 3-hit argmax scan.
    let (t, n) = cohort(36);
    let bt = multihit_core::naive::ByteMatrix::from_bitmat(&t);
    let bn = multihit_core::naive::ByteMatrix::from_bitmat(&n);
    let mut grp = c.benchmark_group("compressed_vs_byte_h3_g36");
    grp.sample_size(20);
    grp.bench_function("packed_bitmat", |b| {
        let cfg = multihit_core::greedy::GreedyConfig {
            parallel: false,
            ..multihit_core::greedy::GreedyConfig::default()
        };
        b.iter(|| {
            multihit_core::greedy::best_combination::<3>(&t, &n, None, &cfg, 1, 0)
                .0
                .best()
        })
    });
    grp.bench_function("byte_matrix", |b| {
        b.iter(|| multihit_core::naive::best_combination_naive::<3>(&bt, &bn, Alpha::PAPER))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_slab_scans,
    bench_popcount_kernels,
    bench_scanner,
    bench_reductions,
    bench_model_eval,
    bench_packed_vs_byte_matrix
);
criterion_main!(benches);
