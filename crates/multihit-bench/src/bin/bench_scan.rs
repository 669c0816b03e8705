//! Record the scan-acceleration ladder into `BENCH_scan.json`.
//!
//! ```text
//! bench_scan [--out FILE] [--genes G] [--reps R] [--force-scalar] [--no-block-sweep]
//! ```
//!
//! Runs one 3-hit argmax scan over a synthetic cohort five ways — scalar
//! un-pruned (the pre-PR-3 baseline), vectorized un-pruned, vectorized +
//! bound-pruned (all three stepping one combination at a time), then the
//! block-swept scan with and without pruning — each `R` times, reporting
//! the **median** wall time so the `bench_compare` 0.7× gate judges a
//! central tendency instead of a single lucky sample. All arms must return
//! bit-identical winners; any divergence exits nonzero so CI fails loudly.
//! The JSON records combos/s (over the full enumerated space, so pruning
//! shows up as throughput), the pruned fraction, rows per block sweep, and
//! work-stealing block/steal counts.
//!
//! `--force-scalar` pins every arm to the scalar kernels (the CI leg that
//! keeps the reference path exercised on AVX hosts); `--no-block-sweep`
//! runs the block arms with sweeping disabled, degrading them to the
//! stepping scan so that fallback stays covered too.

use multihit_core::combin::binomial;
use multihit_core::greedy::{best_combination, GreedyConfig, ScanStats};
use multihit_core::kernel;
use multihit_core::weight::Scored;
use multihit_data::synth::{generate, CohortSpec};
use std::time::Instant;

const N_TUMOR: usize = 240;
const N_NORMAL: usize = 120;

struct Arm {
    name: &'static str,
    kernel: String,
    prune: bool,
    block_sweep: bool,
    median_ns: u128,
    combos_per_sec: f64,
    stats: ScanStats,
    best: Scored<3>,
}

/// Median of the collected rep times (upper median on even counts): the
/// robust summary the regression gate consumes.
fn median_ns(mut reps: Vec<u128>) -> u128 {
    reps.sort_unstable();
    reps[reps.len() / 2]
}

#[allow(clippy::too_many_arguments)]
fn run_arm(
    name: &'static str,
    scalar: bool,
    prune: bool,
    block_sweep: bool,
    reps: usize,
    total: u64,
    t: &multihit_core::BitMatrix,
    n: &multihit_core::BitMatrix,
) -> Arm {
    kernel::force_scalar(scalar);
    let cfg = GreedyConfig {
        parallel: true,
        prune,
        block_sweep,
        ..GreedyConfig::default()
    };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (fr, stats) = best_combination::<3>(t, n, None, &cfg, 1, 0);
        let out = (fr.best(), stats);
        times.push(start.elapsed().as_nanos());
        last = Some(out);
    }
    let (best, stats) = last.expect("reps >= 1");
    let kern = kernel::active().name().to_string();
    kernel::force_scalar(false);
    let median_ns = median_ns(times);
    Arm {
        name,
        kernel: kern,
        prune,
        block_sweep,
        median_ns,
        combos_per_sec: total as f64 / (median_ns as f64 / 1e9),
        stats,
        best,
    }
}

fn arm_json(a: &Arm) -> String {
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"kernel\": \"{}\",\n      \
         \"prune\": {},\n      \"block_sweep\": {},\n      \
         \"median_ns\": {},\n      \
         \"combos_per_sec\": {:.0},\n      \"pruned_fraction\": {:.4},\n      \
         \"pruned_subtrees\": {},\n      \"block_sweeps\": {},\n      \
         \"rows_per_sweep\": {:.2},\n      \"steal_blocks\": {},\n      \
         \"steals\": {},\n      \"best_score\": {},\n      \
         \"best_genes\": [{}, {}, {}]\n    }}",
        a.name,
        a.kernel,
        a.prune,
        a.block_sweep,
        a.median_ns,
        a.combos_per_sec,
        a.stats.pruned_fraction(),
        a.stats.pruned_subtrees,
        a.stats.block_sweeps,
        a.stats.rows_per_sweep(),
        a.stats.blocks,
        a.stats.steals,
        a.best.score,
        a.best.genes[0],
        a.best.genes[1],
        a.best.genes[2],
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_scan.json");
    let mut genes = 300usize;
    let mut reps = 3usize;
    let take = |flag: &str, args: &mut Vec<String>| -> Option<String> {
        let pos = args.iter().position(|a| a == flag)?;
        if pos + 1 >= args.len() {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
        let v = args.remove(pos + 1);
        args.remove(pos);
        Some(v)
    };
    let has_flag = |flag: &str, args: &mut Vec<String>| -> bool {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            args.remove(pos);
            true
        } else {
            false
        }
    };
    if let Some(v) = take("--out", &mut args) {
        out = v;
    }
    if let Some(v) = take("--genes", &mut args) {
        genes = v.parse().expect("--genes expects an integer");
    }
    if let Some(v) = take("--reps", &mut args) {
        reps = v
            .parse::<usize>()
            .expect("--reps expects an integer")
            .max(1);
    }
    let force_scalar = has_flag("--force-scalar", &mut args);
    let no_block_sweep = has_flag("--no-block-sweep", &mut args);
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        std::process::exit(2);
    }

    let cohort = generate(&CohortSpec {
        n_genes: genes,
        n_tumor: N_TUMOR,
        n_normal: N_NORMAL,
        n_driver_combos: 4,
        hits_per_combo: 3,
        ..CohortSpec::default()
    });
    let total = binomial(genes as u64, 3);
    eprintln!(
        "bench_scan: G={genes} H=3 Nt={N_TUMOR} Nn={N_NORMAL} \
         combos={total} reps={reps} kernel={} force_scalar={force_scalar} \
         block_sweep={}",
        kernel::active().name(),
        !no_block_sweep,
    );

    // The three stepping arms run with sweeping off (they are the reference
    // the block arms are judged against); the block arms sweep unless
    // --no-block-sweep degrades them to the stepping path.
    let sweep = !no_block_sweep;
    let arms = [
        ("scalar_unpruned", true, false, false),
        ("vector_unpruned", force_scalar, false, false),
        ("vector_pruned", force_scalar, true, false),
        ("block_swept", force_scalar, false, sweep),
        ("block_swept_pruned", force_scalar, true, sweep),
    ]
    .map(|(name, scalar, prune, block_sweep)| {
        let arm = run_arm(
            name,
            scalar,
            prune,
            block_sweep,
            reps,
            total,
            &cohort.tumor,
            &cohort.normal,
        );
        eprintln!(
            "  {:20} {:>8.1} ms  {:>6.2} Mcombos/s  pruned {:.1}%  \
             {:.1} rows/sweep  {} blocks ({} steals)",
            arm.name,
            arm.median_ns as f64 / 1e6,
            arm.combos_per_sec / 1e6,
            arm.stats.pruned_fraction() * 100.0,
            arm.stats.rows_per_sweep(),
            arm.stats.blocks,
            arm.stats.steals,
        );
        arm
    });

    let identical = arms.iter().all(|a| a.best == arms[0].best);
    let speedup_vector = arms[1].combos_per_sec / arms[0].combos_per_sec;
    let speedup_pruned = arms[2].combos_per_sec / arms[0].combos_per_sec;
    let speedup_block = arms[3].combos_per_sec / arms[1].combos_per_sec;
    let speedup_block_pruned = arms[4].combos_per_sec / arms[1].combos_per_sec;
    eprintln!(
        "  speedups: vector {speedup_vector:.2}x, vector+pruned {speedup_pruned:.2}x \
         (vs scalar); block {speedup_block:.2}x, block+pruned \
         {speedup_block_pruned:.2}x (vs vector_unpruned); identical={identical}"
    );

    let body: Vec<String> = arms.iter().map(arm_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"scan_h3\",\n  \"genes\": {genes},\n  \"hits\": 3,\n  \
         \"n_tumor\": {N_TUMOR},\n  \"n_normal\": {N_NORMAL},\n  \
         \"combos\": {total},\n  \"reps\": {reps},\n  \
         \"dispatch\": \"{}\",\n  \"arms\": [\n{}\n  ],\n  \
         \"speedup_vector\": {speedup_vector:.3},\n  \
         \"speedup_pruned\": {speedup_pruned:.3},\n  \
         \"speedup_block\": {speedup_block:.3},\n  \
         \"speedup_block_pruned\": {speedup_block_pruned:.3},\n  \
         \"identical\": {identical}\n}}\n",
        kernel::active().name(),
        body.join(",\n"),
    );
    std::fs::write(&out, json).expect("write BENCH_scan.json");
    eprintln!("  wrote {out}");

    if !identical {
        eprintln!(
            "FAIL: scan arms diverged — pruned/vectorized/block-swept winner \
             differs from scalar reference"
        );
        std::process::exit(1);
    }
}
