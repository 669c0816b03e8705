//! The distributed greedy driver, in two modes:
//!
//! * [`distributed_discover4`] — **functional**: real rank threads, each
//!   scoring its GPUs' λ-slabs with the branch-and-bound [`ComboScanner`]
//!   (a slab is a list of ascending colex runs, [`Scheme4::colex_runs`]),
//!   real binomial-tree reduction of one record per rank, BitSplicing
//!   between iterations. Produces exactly the combinations the
//!   single-process reference produces (tested), at any cluster shape.
//! * [`model_run`] — **modeled**: the same schedule and communication
//!   pattern priced by the gpusim cost model and the α–β comm model, usable
//!   at paper scale (`G = 19411`, 6000 GPUs) where functional execution
//!   would take 6000 GPU-days. This is what regenerates the paper's scaling
//!   figures.

use crate::comm::{run_ranks, BcastMsg, CommModel, FtCtx, FtStats};
use crate::fault::{FaultState, FtParams};
use crate::sched::{rebalance_join, schedule_ea_fast, schedule_ed, validate_cover, Partition};
use crate::topology::ClusterShape;
use multihit_core::bitmat::BitMatrix;
use multihit_core::combin::binomial;
use multihit_core::frontier::{self, Frontier, TopK};
use multihit_core::greedy::{scan_ranges, ComboScanner, ScanStats};
use multihit_core::kernelize::{kernelize, ReductionCert};
use multihit_core::obs::Obs;
use multihit_core::par::{default_workers, par_map_indexed, StealStats};
use multihit_core::reduce::{fold_partials, merge_top_k};
use multihit_core::schemes::Scheme4;
use multihit_core::sweep::levels_scheme4;
use multihit_core::weight::{Alpha, Scored};
use multihit_gpusim::counters::{apply_jitter, record_run_metrics, run_metrics};
use multihit_gpusim::device::NodeSpec;
use multihit_gpusim::profile::{kernel_levels4, prefetch_depth4, profile_partitions};
use multihit_gpusim::{CostModel, GpuCost};
use std::collections::BTreeSet;
use std::time::Instant;

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Convert a duration in seconds to nanoseconds, saturating at the `u64`
/// range. Durations must be well-formed: debug builds assert against NaN
/// and (beyond float round-off) negative inputs instead of silently mapping
/// them to 0; release builds saturate (NaN/negative → 0, +∞ → `u64::MAX`).
fn secs_to_ns(s: f64) -> u64 {
    debug_assert!(!s.is_nan(), "NaN duration");
    debug_assert!(s >= -1e-9, "negative duration: {s}");
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    let ns = (s * 1e9).round();
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    }
}

/// Which scheduler partitions the λ-range across GPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Equal thread counts per GPU.
    EquiDistance,
    /// Equal workload areas per GPU (the paper's scheduler).
    EquiArea,
    /// Equal modeled cost per GPU (the §V memory-latency-aware extension;
    /// see [`crate::sched_weighted`]).
    EquiCost,
}

impl SchedulerKind {
    /// Stable name used in metric streams and figure labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::EquiDistance => "ED",
            SchedulerKind::EquiArea => "EA",
            SchedulerKind::EquiCost => "EC",
        }
    }

    /// Partition the scheme's λ-range for `parts` GPUs.
    #[must_use]
    pub fn partitions(self, scheme: Scheme4, g: u32, parts: usize) -> Vec<Partition> {
        match self {
            SchedulerKind::EquiDistance => schedule_ed(scheme.thread_count(g), parts),
            SchedulerKind::EquiArea => schedule_ea_fast(&levels_scheme4(scheme, g), parts),
            SchedulerKind::EquiCost => crate::sched_weighted::schedule_ea_weighted(
                &levels_scheme4(scheme, g),
                parts,
                &crate::sched_weighted::CostWeights::v100_3x1(),
            ),
        }
    }

    /// [`SchedulerKind::partitions`] with observability: wall time of the
    /// scheduler itself (`partition_ns`) plus the EA-area imbalance of the
    /// partitioning it produced, as a `sched_partition` point and `sched.*`
    /// counters.
    #[must_use]
    pub fn partitions_obs(
        self,
        scheme: Scheme4,
        g: u32,
        parts: usize,
        obs: &Obs,
    ) -> Vec<Partition> {
        let start = Instant::now();
        let partitions = self.partitions(scheme, g, parts);
        let partition_ns = elapsed_ns(start);
        if obs.is_enabled() {
            let levels = levels_scheme4(scheme, g);
            let imbalance = crate::sched::imbalance(&levels, &partitions);
            obs.point(
                "sched_partition",
                &[
                    ("scheduler", self.name().into()),
                    ("scheme", scheme.name().into()),
                    ("parts", parts.into()),
                    ("partition_ns", partition_ns.into()),
                    ("imbalance", imbalance.into()),
                ],
            );
            obs.counter_add("sched.calls", 1);
            obs.counter_add("sched.partition_ns", partition_ns);
            obs.gauge_set("sched.imbalance", imbalance);
        }
        partitions
    }
}

/// Configuration of a functional distributed run.
#[derive(Clone, Copy, Debug)]
pub struct DistributedConfig {
    /// Cluster allocation.
    pub shape: ClusterShape,
    /// Parallelization scheme (paper: `3x1` in production, `2x2` earlier).
    pub scheme: Scheme4,
    /// λ-range scheduler.
    pub scheduler: SchedulerKind,
    /// TP weight α.
    pub alpha: Alpha,
    /// Cap on discovered combinations (0 = run to full cover).
    pub max_combinations: usize,
    /// Lazy-greedy frontier size per rank (0 disables the frontier; the
    /// selected combinations are bit-identical either way).
    pub frontier_k: usize,
    /// Kernelize the instance once on rank 0 and broadcast the reduction
    /// certificate before the main loop (see [`multihit_core::kernelize`]).
    /// The selected combinations are bit-identical either way.
    pub kernelize: bool,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            shape: ClusterShape::summit(2),
            scheme: Scheme4::ThreeXOne,
            scheduler: SchedulerKind::EquiArea,
            alpha: Alpha::PAPER,
            max_combinations: 0,
            frontier_k: frontier::DEFAULT_FRONTIER_K,
            kernelize: false,
        }
    }
}

/// Per-iteration record of a functional distributed run.
#[derive(Clone, Debug)]
pub struct DistIteration {
    /// The globally reduced winner.
    pub best: Scored<4>,
    /// Tumor samples still uncovered after splicing.
    pub remaining: u32,
    /// Combinations each GPU actually scored (the rest of its slab was
    /// pruned; 0 on every GPU in a frontier-hit iteration).
    pub combos_per_gpu: Vec<u64>,
    /// Combinations assigned to each GPU: its λ-slab's area, or 0 when the
    /// kernels never ran. `combos_per_gpu[i] <= assigned_per_gpu[i]`.
    pub assigned_per_gpu: Vec<u64>,
}

/// Result of a functional distributed run.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// Selected combinations in order.
    pub combinations: Vec<[u32; 4]>,
    /// Per-iteration records.
    pub iterations: Vec<DistIteration>,
    /// Tumor samples never covered.
    pub uncovered: u32,
}

fn ser_scored(s: &Scored<4>) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.extend_from_slice(&s.score.to_le_bytes());
    b.extend_from_slice(&s.tp.to_le_bytes());
    b.extend_from_slice(&s.tn.to_le_bytes());
    for g in s.genes {
        b.extend_from_slice(&g.to_le_bytes());
    }
    b
}

fn de_scored(b: &[u8]) -> Scored<4> {
    let score = u64::from_le_bytes(b[0..8].try_into().unwrap());
    let tp = u32::from_le_bytes(b[8..12].try_into().unwrap());
    let tn = u32::from_le_bytes(b[12..16].try_into().unwrap());
    let mut genes = [0u32; 4];
    for (i, g) in genes.iter_mut().enumerate() {
        *g = u32::from_le_bytes(b[16 + 4 * i..20 + 4 * i].try_into().unwrap());
    }
    Scored {
        score,
        tp,
        tn,
        genes,
    }
}

/// Serialize the kernel-round verdict: the winner plus the global K-th
/// frontier floor (40 bytes), so every rank learns the next iteration's
/// floor alongside the combination it splices on.
fn ser_scored_floor(v: &(Scored<4>, u64)) -> Vec<u8> {
    let mut b = ser_scored(&v.0);
    b.extend_from_slice(&v.1.to_le_bytes());
    b
}

fn de_scored_floor(b: &[u8]) -> (Scored<4>, u64) {
    (
        de_scored(&b[..32]),
        u64::from_le_bytes(b[32..40].try_into().unwrap()),
    )
}

/// Serialize a rank's top-K shard for the list reduction: a `u32` count
/// followed by `count` 32-byte [`Scored`] records.
fn ser_scored_list(l: &Vec<Scored<4>>) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + 32 * l.len());
    b.extend_from_slice(
        &u32::try_from(l.len())
            .expect("shard fits u32")
            .to_le_bytes(),
    );
    for s in l {
        b.extend_from_slice(&ser_scored(s));
    }
    b
}

fn de_scored_list(b: &[u8]) -> Vec<Scored<4>> {
    let n = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    (0..n)
        .map(|i| de_scored(&b[4 + 32 * i..4 + 32 * (i + 1)]))
        .collect()
}

/// Driver-held lazy-greedy frontier of a distributed run: every rank's
/// locally retained top-K shard plus the global K-th floor from the build
/// iteration. The union of the per-rank shards is a superset of the global
/// top-K, so rescoring all shards and reducing with the deterministic max
/// visits every global frontier member — any combination outside the union
/// scored at most `floor` at build time and (numerator monotonicity, see
/// [`multihit_core::frontier`]) at most that now.
struct DistFrontier {
    /// Per-**original**-rank retained lists; empty for ranks that retain
    /// nothing (e.g. ranks that have died since the build).
    lists: Vec<Vec<Scored<4>>>,
    /// Global K-th score at build time (0 when `complete`).
    floor: u64,
    /// The shards jointly hold the entire enumeration, so every rescore
    /// round is a hit by construction.
    complete: bool,
}

/// One GPU's pruned scan of its λ-slab.
struct SlabScan {
    /// The slab's argmax (the head of `shard` in top-K rounds).
    best: Scored<4>,
    /// The slab's top-`frontier_k` (empty when the frontier is off).
    shard: Vec<Scored<4>>,
    /// Combinations in the slab (its area).
    assigned: u64,
    /// `scored + pruned_combos == assigned`.
    stats: ScanStats,
}

/// Score GPU slab `p` with [`ComboScanner`] and branch-and-bound pruning.
///
/// The slab is its ascending colex runs ([`Scheme4::colex_runs`]), scanned
/// by [`scan_ranges`]: one scanner re-seeked per run, threading the slab's
/// top-K (K = 1 with the frontier off) through the runs. Every incumbent is
/// colex-earlier than the run being scanned, so the scanner's cut rule
/// stays exact: the best and the shard equal the exhaustive ones over the
/// slab. No bound is shared with other GPUs, so the scored count depends
/// on the slab alone.
fn scan_slab(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    p: Partition,
) -> SlabScan {
    let runs = cfg.scheme.colex_runs(p.lo, p.hi, tumor.n_genes() as u32);
    let assigned = runs.iter().map(|r| r.end - r.start).sum();
    let mut acc = TopK::new(cfg.frontier_k.max(1));
    let build = |start| ComboScanner::new(tumor, normal, None, cfg.alpha, start);
    let stats = scan_ranges(runs, build, &mut acc, true, None);
    debug_assert_eq!(stats.scored + stats.pruned_combos, assigned);
    let top = acc.into_sorted();
    let best = top.first().copied().unwrap_or(Scored::NEG_INFINITY);
    let shard = if cfg.frontier_k > 0 { top } else { Vec::new() };
    SlabScan {
        best,
        shard,
        assigned,
        stats,
    }
}

/// One rank's kernel round: its GPUs' slabs scanned through the
/// work-stealing dispatcher, so a heavy slab overlaps the light ones.
struct RankScan {
    /// The rank's argmax.
    best: Scored<4>,
    /// The merged top-K of the rank's GPU shards (empty with no frontier).
    list: Vec<Scored<4>>,
    /// Combinations each GPU scored.
    scored: Vec<u64>,
    /// Combinations assigned to each GPU.
    assigned: Vec<u64>,
    /// Combinations the rank's GPUs skipped inside pruned subtrees.
    pruned: u64,
    /// Block-kernel invocations of the rank's scanners.
    block_sweeps: u64,
    /// GPU dispatch accounting.
    steal: StealStats,
}

fn scan_rank(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    slabs: &[Partition],
) -> RankScan {
    let (gpus, steal) = par_map_indexed(slabs.len(), default_workers(), |i| {
        scan_slab(tumor, normal, cfg, slabs[i])
    });
    let mut rank = RankScan {
        best: fold_partials(gpus.iter().map(|s| s.best)),
        list: Vec::new(),
        scored: Vec::with_capacity(gpus.len()),
        assigned: Vec::with_capacity(gpus.len()),
        pruned: 0,
        block_sweeps: 0,
        steal,
    };
    let mut shards = Vec::with_capacity(gpus.len());
    for s in gpus {
        rank.scored.push(s.stats.scored);
        rank.assigned.push(s.assigned);
        rank.pruned += s.stats.pruned_combos;
        rank.block_sweeps += s.stats.block_sweeps;
        shards.push(s.shard);
    }
    rank.list = merge_top_k(&shards, cfg.frontier_k);
    rank
}

/// Kernelize the instance once on rank 0 and broadcast the serialized
/// [`ReductionCert`] to every rank over the same binomial broadcast tree
/// the winner takes each iteration — the distributed analogue of
/// "preprocess on the driver, ship the certificate". Every rank checks the
/// received certificate against the root's (the simulation shares memory;
/// the assert stands in for the MPI-world invariant that all ranks reduce
/// identically). Emits the `kernelize` point/counters via the core module.
fn kernelize_broadcast(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    obs: &Obs,
) -> (BitMatrix, BitMatrix, ReductionCert) {
    let span = obs.span("kernelize");
    let start = Instant::now();
    let (red_t, red_n, cert) = kernelize(tumor, normal, 4);
    let bytes = cert.to_bytes();
    let bytes_ref = &bytes;
    let received: Vec<Vec<u8>> = run_ranks(cfg.shape.nodes, |ctx| {
        ctx.broadcast((ctx.rank == 0).then(|| bytes_ref.clone()))
    });
    for (rank, got) in received.iter().enumerate() {
        assert_eq!(
            ReductionCert::from_bytes(got),
            cert,
            "rank {rank} received a diverging certificate"
        );
    }
    let kernelize_ns = elapsed_ns(start);
    drop(span);
    if obs.is_enabled() {
        let s = cert.stats();
        obs.point(
            "kernelize",
            &[
                ("kernelize_ns", kernelize_ns.into()),
                ("orig_genes", u64::from(s.orig_genes).into()),
                ("kept_genes", u64::from(s.kept_genes).into()),
                ("useless_genes", u64::from(s.useless_genes).into()),
                ("dominated_genes", u64::from(s.dominated_genes).into()),
                ("zero_tumor_cols", u64::from(s.zero_tumor_cols).into()),
                ("zero_normal_cols", u64::from(s.zero_normal_cols).into()),
                ("ones_normal_cols", u64::from(s.ones_normal_cols).into()),
                ("forced_tumor_cols", u64::from(s.forced_tumor_cols).into()),
                ("dup_tumor_cols", u64::from(s.dup_tumor_cols).into()),
                ("gene_reduction", s.gene_reduction().into()),
                ("cert_bytes", (bytes.len() as u64).into()),
            ],
        );
        obs.counter_add("kernelize.runs", 1);
        obs.counter_add("kernelize.ns", kernelize_ns);
        obs.counter_add(
            "kernelize.genes_removed",
            u64::from(s.useless_genes + s.dominated_genes),
        );
        obs.counter_add("dist.cert_broadcast_bytes", bytes.len() as u64);
    }
    (red_t, red_n, cert)
}

/// Map a reduced-instance [`DistResult`] back to original indices: combos
/// un-mapped through the certificate, per-iteration winners re-scored with
/// the zero-normal TN shift, and the uncoverable tumor columns re-added to
/// `remaining`/`uncovered`.
fn unmap_dist_result(r: DistResult, cert: &ReductionCert, alpha: Alpha) -> DistResult {
    let zt = cert.stats().zero_tumor_cols;
    DistResult {
        combinations: r
            .combinations
            .into_iter()
            .map(|c| cert.unmap_combo(c))
            .collect(),
        iterations: r
            .iterations
            .into_iter()
            .map(|it| DistIteration {
                best: cert.unmap_scored(it.best, alpha),
                remaining: it.remaining + zt,
                combos_per_gpu: it.combos_per_gpu,
                assigned_per_gpu: it.assigned_per_gpu,
            })
            .collect(),
        uncovered: r.uncovered + zt,
    }
}

/// The stalled result a kernelized run returns when fewer than 4 genes
/// survive reduction: every original combination contains a removed gene,
/// so the unkernelized run stalls on iteration 1 with an empty panel.
fn stalled_dist_result(tumor: &BitMatrix) -> DistResult {
    DistResult {
        combinations: Vec::new(),
        iterations: Vec::new(),
        uncovered: tumor.n_samples() as u32,
    }
}

/// Run 4-hit greedy discovery functionally across simulated ranks and GPUs.
///
/// Every rank scores the λ-slabs of its node's GPUs with the pruned
/// [`ComboScanner`], one scanner per GPU walking the slab's ascending colex
/// runs ([`Scheme4::colex_runs`]) with a GPU-local bound; it reduces
/// locally, then participates in the binomial-tree reduction of one 32-byte
/// record (or, with the frontier on, its top-K shard) to rank 0; rank 0
/// broadcasts the winner and every rank splices covered samples — the exact
/// communication structure of §III-E. No bound is shared across GPUs or
/// ranks, so [`DistIteration::combos_per_gpu`] is deterministic.
#[must_use]
pub fn distributed_discover4(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
) -> DistResult {
    distributed_discover4_obs(tumor, normal, cfg, &Obs::disabled())
}

/// [`distributed_discover4`] with observability: scheduler timing
/// (`sched_partition`), a `rank_exec` point per rank per iteration (kernel
/// wall time vs. reduce+broadcast wall time), and a `dist_iter` point per
/// iteration. The discovered combinations are identical to the
/// uninstrumented run by construction.
#[must_use]
pub fn distributed_discover4_obs(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    obs: &Obs,
) -> DistResult {
    if cfg.kernelize {
        let (red_t, red_n, cert) = kernelize_broadcast(tumor, normal, cfg, obs);
        if cert.kept_genes() < 4 {
            return stalled_dist_result(tumor);
        }
        let inner = DistributedConfig {
            kernelize: false,
            ..*cfg
        };
        let r = distributed_discover4_obs(&red_t, &red_n, &inner, obs);
        return unmap_dist_result(r, &cert, cfg.alpha);
    }
    let _run_span = obs.span("distributed_discover");
    let g = tumor.n_genes() as u32;
    let mut work_tumor = tumor.clone();
    let mut remaining = tumor.n_samples() as u32;
    let mut combinations = Vec::new();
    let mut iterations = Vec::new();
    let n_gpus = cfg.shape.total_gpus();
    let k = cfg.frontier_k;
    let total_combos = binomial(u64::from(g), 4);
    let mut frontier_state: Option<DistFrontier> = None;

    while remaining > 0 {
        if cfg.max_combinations != 0 && combinations.len() >= cfg.max_combinations {
            break;
        }
        let iter_idx = iterations.len();
        let iter_start = Instant::now();
        let tumor_ref = &work_tumor;

        // Lazy-greedy rescore round: every rank rescores its retained shard
        // against the spliced matrix and the deterministic max is reduced to
        // rank 0 and broadcast back. If the rescored best strictly clears
        // the build-time floor it is provably the global argmax and the full
        // kernel round is skipped.
        let mut frontier_hit = false;
        let mut frontier_best = Scored::NEG_INFINITY;
        if let Some(fr) = frontier_state.as_ref() {
            let lists_ref = &fr.lists;
            let rank_results: Vec<Option<Scored<4>>> = run_ranks(cfg.shape.nodes, |ctx| {
                let busy_start = Instant::now();
                let mut local = Scored::NEG_INFINITY;
                for e in &lists_ref[ctx.rank] {
                    local = local.max_det(frontier::rescore_combo(
                        tumor_ref, normal, None, &e.genes, cfg.alpha,
                    ));
                }
                let busy_ns = elapsed_ns(busy_start);
                let comm_start = Instant::now();
                let root = ctx.reduce_to_root(local, Scored::max_det, ser_scored, de_scored);
                let winner_bytes = ctx.broadcast(root.as_ref().map(ser_scored));
                let comm_ns = elapsed_ns(comm_start);
                let winner = de_scored(&winner_bytes);
                if obs.is_enabled() {
                    obs.point(
                        "rank_exec",
                        &[
                            ("iter", iter_idx.into()),
                            ("rank", ctx.rank.into()),
                            ("busy_ns", busy_ns.into()),
                            ("comm_ns", comm_ns.into()),
                            ("combos", 0u64.into()),
                            ("rescored", (lists_ref[ctx.rank].len() as u64).into()),
                        ],
                    );
                    obs.counter_add("dist.rank_busy_ns", busy_ns);
                    obs.counter_add("dist.rank_comm_ns", comm_ns);
                }
                Some(winner)
            });
            let w = rank_results[0].expect("root rescore result");
            debug_assert!(rank_results.iter().all(|x| *x == Some(w)));
            if fr.complete || w.score > fr.floor {
                frontier_hit = true;
                frontier_best = w;
            }
        }

        let (best, combos_per_gpu, assigned_per_gpu) = if frontier_hit {
            // The kernels never ran: zero combos on every GPU this round.
            (frontier_best, vec![0u64; n_gpus], vec![0u64; n_gpus])
        } else {
            let parts = cfg.scheduler.partitions_obs(cfg.scheme, g, n_gpus, obs);
            // One OS thread per rank; each scans its GPUs' λ-slabs.
            let rank_results: Vec<((Scored<4>, u64), RankScan)> =
                run_ranks(cfg.shape.nodes, |ctx| {
                    let busy_start = Instant::now();
                    let scan = scan_rank(
                        tumor_ref,
                        normal,
                        cfg,
                        &parts[cfg.shape.gpus_of_rank(ctx.rank)],
                    );
                    let busy_ns = elapsed_ns(busy_start);
                    let comm_start = Instant::now();
                    // With a frontier the rank shards reduce (binomial tree,
                    // count-prefixed records) to the global top-K at rank 0,
                    // whose head is the winner and whose K-th score is the
                    // floor broadcast for later rescore rounds. Without one,
                    // the single 32-byte winner reduces. Rank 0 broadcasts
                    // the verdict so every rank splices alike.
                    let verdict = if k > 0 {
                        let root_list = ctx.reduce_to_root(
                            scan.list.clone(),
                            |a, b| merge_top_k(&[a, b], k),
                            ser_scored_list,
                            de_scored_list,
                        );
                        let verdict = root_list.map(|l| {
                            let fr = Frontier::new(l, total_combos);
                            ser_scored_floor(&(fr.best(), fr.floor()))
                        });
                        de_scored_floor(&ctx.broadcast(verdict))
                    } else {
                        let root =
                            ctx.reduce_to_root(scan.best, Scored::max_det, ser_scored, de_scored);
                        (de_scored(&ctx.broadcast(root.as_ref().map(ser_scored))), 0)
                    };
                    let comm_ns = elapsed_ns(comm_start);
                    if obs.is_enabled() {
                        obs.point(
                            "rank_exec",
                            &[
                                ("iter", iter_idx.into()),
                                ("rank", ctx.rank.into()),
                                ("busy_ns", busy_ns.into()),
                                ("comm_ns", comm_ns.into()),
                                ("combos", scan.scored.iter().sum::<u64>().into()),
                                ("pruned", scan.pruned.into()),
                                ("steal_blocks", scan.steal.blocks.into()),
                                ("steals", scan.steal.steals.into()),
                                ("block_sweeps", scan.block_sweeps.into()),
                            ],
                        );
                        obs.counter_add("dist.rank_busy_ns", busy_ns);
                        obs.counter_add("dist.rank_comm_ns", comm_ns);
                        obs.counter_add("dist.steal_blocks", scan.steal.blocks);
                        obs.counter_add("dist.steals", scan.steal.steals);
                        obs.counter_add("dist.block_sweeps", scan.block_sweeps);
                        obs.counter_add("dist.pruned_combos", scan.pruned);
                    }
                    (verdict, scan)
                });
            let (best, floor) = rank_results[0].0;
            // All ranks agreed on the verdict.
            debug_assert!(rank_results.iter().all(|(v, _)| *v == (best, floor)));
            let (mut lists, mut scored, mut assigned) = (Vec::new(), Vec::new(), Vec::new());
            for (_, r) in rank_results {
                scored.extend(r.scored);
                assigned.extend(r.assigned);
                lists.push(r.list);
            }
            if k > 0 {
                frontier_state = Some(DistFrontier {
                    lists,
                    floor,
                    complete: total_combos <= k as u64,
                });
            }
            (best, scored, assigned)
        };
        if best.tp == 0 {
            break;
        }
        remaining -= best.tp;
        let cov = work_tumor.cover_mask(&best.genes);
        let mut keep = work_tumor.full_mask();
        for (k, c) in keep.iter_mut().zip(cov.iter()) {
            *k &= !c;
        }
        work_tumor = work_tumor.splice_columns(&keep);
        combinations.push(best.genes);
        iterations.push(DistIteration {
            best,
            remaining,
            combos_per_gpu,
            assigned_per_gpu,
        });
        if obs.is_enabled() {
            obs.point(
                "dist_iter",
                &[
                    ("iter", iter_idx.into()),
                    ("iter_ns", elapsed_ns(iter_start).into()),
                    ("newly_covered", u64::from(best.tp).into()),
                    ("remaining", u64::from(remaining).into()),
                    ("frontier_hit", u64::from(frontier_hit).into()),
                ],
            );
            obs.counter_add("dist.iterations", 1);
            if frontier_hit {
                obs.counter_add("dist.frontier_hits", 1);
            }
        }
    }

    DistResult {
        combinations,
        iterations,
        uncovered: remaining,
    }
}

// ---------------------------------------------------------------------------
// Fault-tolerant functional runs
// ---------------------------------------------------------------------------

/// Recovery bookkeeping of a fault-tolerant functional run: how much λ-work
/// was re-executed, what the protocol retried, and who died.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Iteration attempts that had to be re-executed.
    pub re_executed_iterations: u64,
    /// Combinations scored on attempts whose results were discarded (the
    /// re-executed λ-work).
    pub re_executed_combos: u64,
    /// Ranks declared dead, by original id, in death order.
    pub dead_ranks: Vec<usize>,
    /// Ranks admitted mid-run, by original id, in admission order.
    pub joined_ranks: Vec<usize>,
    /// Membership epochs consumed: one per roster change (admission
    /// barrier), so a churn-free run reports 0.
    pub membership_epochs: u64,
    /// Merged per-rank protocol counters (retransmits, CRC rejects, …).
    pub ft: FtStats,
}

/// Result of a fault-tolerant functional run.
#[derive(Clone, Debug)]
pub struct FtDistResult {
    /// The discovery result — bit-identical to the fault-free reference
    /// whenever the run completes.
    pub result: DistResult,
    /// What recovery cost.
    pub recovery: RecoveryStats,
}

enum RankOutcome {
    /// Normal completion: the broadcast verdict and this rank's audit data.
    Done {
        winner: Scored<4>,
        /// Global K-th frontier floor from the verdict (0 outside top-K
        /// kernel rounds).
        floor: u64,
        /// This rank's retained top-K shard (empty outside top-K kernel
        /// rounds).
        list: Vec<Scored<4>>,
        /// Combinations each of the rank's GPUs scored.
        scored: Vec<u64>,
        /// Combinations assigned to each of the rank's GPUs.
        assigned: Vec<u64>,
        stats: FtStats,
    },
    /// The rank was killed by the fault plan (analog of a process death the
    /// MPI runtime reports).
    Crashed,
    /// The iteration aborted on this rank; `dead` holds the original ids of
    /// the ranks it learned are gone.
    Aborted {
        dead: Vec<usize>,
        scored: Vec<u64>,
        stats: FtStats,
    },
}

/// Cap on an injected straggler delay, so delayed ranks stay well inside
/// the failure detector's retry budget (a straggler is slow, not dead).
const STRAGGLER_DELAY_CAP: std::time::Duration = std::time::Duration::from_millis(10);

/// Membership epoch protocol: admit `joiners` (original rank ids — freshly
/// provisioned replacements or scale-up slots) into the roster at the
/// iteration barrier before `iter_idx`. Already-alive ids are ignored.
///
/// The admission has three legs:
///
/// 1. **JOIN announcement** — rank 0 broadcasts a [`BcastMsg::Join`]
///    carrying the bumped epoch and the roster (in compact-rank order)
///    through the same CRC-framed, retransmitted FT broadcast the
///    FAIL/Abort verdicts take; every rank confirms the announced roster
///    against its own view, so the whole mesh converges on one epoch.
/// 2. **Incremental re-partitioning** — each new GPU takes the high half of
///    the currently largest λ-partition ([`rebalance_join`]): only joiner
///    boundaries move, the donors' loads never grow, and
///    [`crate::sched::validate_cover`] proves the moved slabs still tile
///    `C(G,4)` exactly.
/// 3. **Frontier shard transfer** — the joiner receives half of the largest
///    holder's retained top-K shard over the count-prefixed wire format the
///    shard reduce uses. A join removes no record from the shard union, so
///    (unlike a death) it does **not** invalidate the frontier: the next
///    rescore round reduces the identical union and the discovered panel
///    stays bit-identical to the fault-free reference.
///
/// If any leg fails (an announcement that never converges under wire
/// faults, an un-tileable slab move) the join degrades instead of
/// corrupting state: the roster keeps the joiners but the driver falls back
/// to a full re-shard and a full kernel rescan — always correct, just not
/// incremental.
#[allow(clippy::too_many_arguments)]
fn admit_joiners(
    cfg: &DistributedConfig,
    faults: Option<&FaultState>,
    params: FtParams,
    obs: &Obs,
    g: u32,
    iter_idx: usize,
    joiners: &[usize],
    alive: &mut Vec<usize>,
    epoch: &mut u32,
    elastic_parts: &mut Option<Vec<Partition>>,
    frontier_state: &mut Option<DistFrontier>,
    recovery: &mut RecoveryStats,
) {
    let admitted: Vec<usize> = joiners
        .iter()
        .copied()
        .filter(|r| !alive.contains(r))
        .collect();
    if admitted.is_empty() {
        return;
    }
    let n_prev_gpus = alive.len() * cfg.shape.gpus_per_node;
    alive.extend(admitted.iter().copied());
    *epoch += 1;
    recovery.membership_epochs += 1;
    recovery.joined_ranks.extend(admitted.iter().copied());

    // Leg 1: the JOIN control frame, agreed on at the barrier.
    let announce = BcastMsg::Join {
        epoch: *epoch,
        roster: alive.clone(),
    };
    let confirmations: Vec<(bool, FtStats)> = run_ranks(alive.len(), |ctx| {
        let mut ft = FtCtx::new(&ctx, params, faults, iter_idx);
        let root = (ctx.rank == 0).then(|| announce.clone());
        let ok = match ft.broadcast(root) {
            Ok((msg, suspects)) => suspects.is_empty() && msg == announce,
            Err(_) => false,
        };
        (ok, ft.stats)
    });
    let mut converged = true;
    for (ok, stats) in &confirmations {
        converged &= *ok;
        recovery.ft.merge(stats);
    }

    // Leg 2: boundary slab moves instead of a full re-shard.
    let mut incremental = converged;
    let mut slab_moves = 0usize;
    let mut moved_area = 0u64;
    if incremental {
        let base = match elastic_parts.take() {
            Some(p) => p,
            None => cfg
                .scheduler
                .partitions_obs(cfg.scheme, g, n_prev_gpus, obs),
        };
        let levels = levels_scheme4(cfg.scheme, g);
        match rebalance_join(&levels, &base, admitted.len() * cfg.shape.gpus_per_node) {
            Ok((parts, moves)) => {
                slab_moves = moves.len();
                moved_area = moves.iter().map(|m| m.area).sum();
                *elastic_parts = Some(parts);
            }
            Err(_) => incremental = false,
        }
    }

    // Leg 3: frontier shard transfer — or, on a degraded join, the same
    // invalidation a death forces (full re-shard + full rescan).
    let mut records_moved = 0u64;
    if incremental {
        if let Some(fr) = frontier_state.as_mut() {
            let cap = alive.iter().copied().max().map_or(0, |m| m + 1);
            if fr.lists.len() < cap {
                fr.lists.resize_with(cap, Vec::new);
            }
            for &joiner in &admitted {
                let donor = alive
                    .iter()
                    .copied()
                    .filter(|&r| r != joiner)
                    .max_by_key(|&r| (fr.lists[r].len(), std::cmp::Reverse(r)));
                let Some(donor) = donor else { continue };
                let list = std::mem::take(&mut fr.lists[donor]);
                let keep = list.len() / 2;
                let shipped = list[keep..].to_vec();
                fr.lists[donor] = list[..keep].to_vec();
                // The shard rides the same count-prefixed record format the
                // top-K reduce uses; the joiner decodes exactly what the
                // donor encoded.
                fr.lists[joiner] = de_scored_list(&ser_scored_list(&shipped));
                records_moved += fr.lists[joiner].len() as u64;
            }
        }
    } else {
        *elastic_parts = None;
        *frontier_state = None;
    }

    if obs.is_enabled() {
        obs.point(
            "membership",
            &[
                ("iter", iter_idx.into()),
                ("epoch", u64::from(*epoch).into()),
                ("joined", admitted.len().into()),
                ("roster", alive.len().into()),
                ("incremental", u64::from(incremental).into()),
                ("slab_moves", slab_moves.into()),
                ("moved_area", moved_area.into()),
                ("frontier_records_moved", records_moved.into()),
            ],
        );
        obs.counter_add("elastic.joins", admitted.len() as u64);
        obs.counter_add("elastic.epochs", 1);
        if moved_area > 0 {
            obs.counter_add("elastic.moved_slab_area", moved_area);
        }
        if records_moved > 0 {
            obs.counter_add("elastic.frontier_records_moved", records_moved);
        }
        if !incremental {
            obs.counter_add("elastic.rejected_incremental", 1);
        }
    }
}

/// [`distributed_discover4`] hardened against rank crashes, stragglers, and
/// lost/corrupt messages. Each iteration runs the usual kernels + reduce +
/// broadcast over the currently-alive ranks via the fault-tolerant framed
/// collectives ([`FtCtx`]); if any rank dies or the verdict is an abort,
/// the dead ranks are removed and the **same iteration is re-executed** with
/// the survivors — the full λ-range is re-partitioned across the remaining
/// GPUs by the configured scheduler, so (by associativity + commutativity
/// of the deterministic max) the chosen combinations are bit-identical to
/// the fault-free reference no matter who died when.
///
/// With `faults: None` the discovered combinations equal
/// [`distributed_discover4`]'s exactly (tested); the plain path itself is
/// untouched.
///
/// # Panics
/// Panics if iterations repeatedly fail without identifying a dead rank
/// (cannot happen under the injection model: bounded message faults are
/// always recovered by retransmission).
#[must_use]
pub fn distributed_discover4_ft(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &DistributedConfig,
    faults: Option<&FaultState>,
    params: FtParams,
    obs: &Obs,
) -> FtDistResult {
    if cfg.kernelize {
        let (red_t, red_n, cert) = kernelize_broadcast(tumor, normal, cfg, obs);
        if cert.kept_genes() < 4 {
            return FtDistResult {
                result: stalled_dist_result(tumor),
                recovery: RecoveryStats::default(),
            };
        }
        let inner = DistributedConfig {
            kernelize: false,
            ..*cfg
        };
        let mut r = distributed_discover4_ft(&red_t, &red_n, &inner, faults, params, obs);
        r.result = unmap_dist_result(r.result, &cert, cfg.alpha);
        return r;
    }
    let _run_span = obs.span("distributed_discover_ft");
    let g = tumor.n_genes() as u32;
    let total_threads = cfg.scheme.thread_count(g);
    let mut work_tumor = tumor.clone();
    let mut remaining = tumor.n_samples() as u32;
    let mut combinations = Vec::new();
    let mut iterations = Vec::new();
    let mut recovery = RecoveryStats::default();
    // Original rank ids still alive; position in this vector is the compact
    // rank id inside the current mesh.
    let mut alive: Vec<usize> = (0..cfg.shape.nodes).collect();
    let k = cfg.frontier_k;
    let total_combos = binomial(u64::from(g), 4);
    let mut frontier_state: Option<DistFrontier> = None;
    let mut membership_epoch: u32 = 0;
    // λ-partitions maintained incrementally across joins. `None` means
    // re-shard from scratch each attempt — the launch state, and the state
    // after any death (the survivor-shrink path re-partitions the full
    // range across survivors exactly as before this refactor).
    let mut elastic_parts: Option<Vec<Partition>> = None;

    'outer: while remaining > 0 {
        if cfg.max_combinations != 0 && combinations.len() >= cfg.max_combinations {
            break;
        }
        if alive.is_empty() {
            break;
        }
        let iter_idx = iterations.len();
        let iter_start = Instant::now();
        // Elastic membership: planned joiners are admitted here, at the
        // iteration barrier, before any attempt of this iteration runs.
        if let Some(f) = faults {
            let joiners = f.take_joins(iter_idx);
            if !joiners.is_empty() {
                admit_joiners(
                    cfg,
                    faults,
                    params,
                    obs,
                    g,
                    iter_idx,
                    &joiners,
                    &mut alive,
                    &mut membership_epoch,
                    &mut elastic_parts,
                    &mut frontier_state,
                    &mut recovery,
                );
            }
        }
        let mut fruitless_attempts = 0u32;
        // Attempt the cheap frontier-rescore round first whenever a frontier
        // is live; any failed attempt invalidates it (a dead rank's shard is
        // gone) and falls back to the full kernels.
        let mut try_frontier = k > 0 && frontier_state.is_some();
        let mut frontier_hit = false;
        let (best, combos_per_gpu, assigned_per_gpu) = loop {
            let n_ranks = alive.len();
            let n_gpus = n_ranks * cfg.shape.gpus_per_node;
            let rescore_round = try_frontier;
            let parts = if rescore_round {
                Vec::new()
            } else if let Some(p) = &elastic_parts {
                // Slab-moved partitions from the membership protocol: GPU
                // order no longer follows λ order, but the set still tiles
                // the full range (proven at admission, re-checked below).
                p.clone()
            } else {
                cfg.scheduler.partitions_obs(cfg.scheme, g, n_gpus, obs)
            };
            debug_assert!(rescore_round || validate_cover(&parts, total_threads).is_ok());
            debug_assert!(rescore_round || parts.len() == n_gpus);
            let tumor_ref = &work_tumor;
            let alive_ref = &alive;
            let lists_ref = frontier_state.as_ref().map(|f| &f.lists);
            let outcomes: Vec<RankOutcome> = run_ranks(n_ranks, |ctx| {
                let orig = alive_ref[ctx.rank];
                if let Some(f) = faults {
                    if f.should_kill(orig, iter_idx) {
                        return RankOutcome::Crashed;
                    }
                }
                let busy_start = Instant::now();
                let gpus = cfg.shape.gpus_per_node;
                let scan = if rescore_round {
                    // Rescore the retained shard instead of scanning; the
                    // kernels never run, so every GPU audits zero combos.
                    let mut best = Scored::NEG_INFINITY;
                    for e in &lists_ref.expect("live frontier")[orig] {
                        best = best.max_det(frontier::rescore_combo(
                            tumor_ref, normal, None, &e.genes, cfg.alpha,
                        ));
                    }
                    RankScan {
                        best,
                        list: Vec::new(),
                        scored: vec![0; gpus],
                        assigned: vec![0; gpus],
                        pruned: 0,
                        block_sweeps: 0,
                        steal: StealStats::default(),
                    }
                } else {
                    scan_rank(
                        tumor_ref,
                        normal,
                        cfg,
                        &parts[ctx.rank * gpus..(ctx.rank + 1) * gpus],
                    )
                };
                let busy_ns = elapsed_ns(busy_start);
                let scored_total: u64 = scan.scored.iter().sum();
                if let Some(f) = faults {
                    if let Some(factor) = f.straggler_factor(orig) {
                        let delay = std::time::Duration::from_nanos(
                            ((busy_ns as f64) * (factor - 1.0)) as u64,
                        )
                        .min(STRAGGLER_DELAY_CAP);
                        std::thread::sleep(delay);
                        f.note_straggle(orig, iter_idx, factor, delay.as_nanos() as u64);
                    }
                }
                let comm_start = Instant::now();
                let mut ft = FtCtx::new(&ctx, params, faults, iter_idx);
                // Top-K kernel rounds reduce the rank shards (the merged
                // head is the winner, the merged K-th the floor); every
                // other round reduces the single 32-byte winner with a zero
                // floor. Either way the verdict broadcast is (winner, floor).
                let (root_verdict, red_dead, red_failed, red_parent_dead) = if !rescore_round
                    && k > 0
                {
                    let red = ft.reduce_to_root(
                        scan.list.clone(),
                        |a, b| merge_top_k(&[a, b], k),
                        ser_scored_list,
                        de_scored_list,
                    );
                    (
                        red.root_value.map(|l| {
                            let fr = Frontier::new(l, total_combos);
                            (fr.best(), fr.floor())
                        }),
                        red.dead,
                        red.failed,
                        red.parent_dead,
                    )
                } else {
                    let red = ft.reduce_to_root(scan.best, Scored::max_det, ser_scored, de_scored);
                    (
                        red.root_value.map(|w| (w, 0u64)),
                        red.dead,
                        red.failed,
                        red.parent_dead,
                    )
                };
                let to_orig =
                    |d: &BTreeSet<usize>| d.iter().map(|&c| alive_ref[c]).collect::<Vec<_>>();
                if red_parent_dead {
                    return RankOutcome::Aborted {
                        dead: to_orig(&red_dead),
                        scored: scan.scored,
                        stats: ft.stats,
                    };
                }
                let verdict = if ctx.rank == 0 {
                    Some(if red_failed {
                        BcastMsg::Abort(red_dead.iter().copied().collect())
                    } else {
                        BcastMsg::Value(ser_scored_floor(&root_verdict.expect("root fold")))
                    })
                } else {
                    None
                };
                let outcome = match ft.broadcast(verdict) {
                    Ok((BcastMsg::Value(v), suspects)) if suspects.is_empty() => {
                        let (winner, floor) = de_scored_floor(&v);
                        RankOutcome::Done {
                            winner,
                            floor,
                            list: scan.list,
                            scored: scan.scored,
                            assigned: scan.assigned,
                            stats: ft.stats,
                        }
                    }
                    Ok((BcastMsg::Value(_), suspects)) => RankOutcome::Aborted {
                        dead: to_orig(&suspects),
                        scored: scan.scored,
                        stats: ft.stats,
                    },
                    Ok((BcastMsg::Abort(dead), suspects)) => {
                        let mut all: BTreeSet<usize> = dead.iter().copied().collect();
                        all.extend(suspects.iter().copied());
                        RankOutcome::Aborted {
                            dead: to_orig(&all),
                            scored: scan.scored,
                            stats: ft.stats,
                        }
                    }
                    // A membership announcement where a verdict was expected
                    // is a protocol violation (epochs only change at the
                    // iteration barrier): abort the attempt.
                    Ok((BcastMsg::Join { .. }, _)) | Err(_) => RankOutcome::Aborted {
                        dead: to_orig(&red_dead),
                        scored: scan.scored,
                        stats: ft.stats,
                    },
                };
                if obs.is_enabled() {
                    obs.point(
                        "rank_exec",
                        &[
                            ("iter", iter_idx.into()),
                            ("rank", orig.into()),
                            ("busy_ns", busy_ns.into()),
                            ("comm_ns", elapsed_ns(comm_start).into()),
                            ("combos", scored_total.into()),
                            ("pruned", scan.pruned.into()),
                            ("block_sweeps", scan.block_sweeps.into()),
                        ],
                    );
                    obs.counter_add("dist.rank_busy_ns", busy_ns);
                    obs.counter_add("dist.block_sweeps", scan.block_sweeps);
                    obs.counter_add("dist.pruned_combos", scan.pruned);
                }
                outcome
            });

            let mut dead: BTreeSet<usize> = BTreeSet::new();
            let mut all_done = true;
            let mut winner: Option<(Scored<4>, u64)> = None;
            let mut attempt_scored: Vec<u64> = Vec::new();
            let mut attempt_assigned: Vec<u64> = Vec::new();
            // Sized by the highest original id in the roster: joins can push
            // ids past the launch size (scale-up slots).
            let roster_cap = alive.iter().copied().max().map_or(0, |m| m + 1);
            let mut rank_lists: Vec<Vec<Scored<4>>> = vec![Vec::new(); roster_cap];
            for (i, out) in outcomes.iter().enumerate() {
                match out {
                    RankOutcome::Done {
                        winner: w,
                        floor,
                        list,
                        scored,
                        assigned,
                        stats,
                    } => {
                        if i == 0 {
                            winner = Some((*w, *floor));
                        }
                        debug_assert!(winner.is_none_or(|(ww, ff)| ww == *w && ff == *floor));
                        rank_lists[alive[i]] = list.clone();
                        attempt_scored.extend_from_slice(scored);
                        attempt_assigned.extend_from_slice(assigned);
                        recovery.ft.merge(stats);
                    }
                    RankOutcome::Crashed => {
                        all_done = false;
                        dead.insert(alive[i]);
                    }
                    RankOutcome::Aborted {
                        dead: d,
                        scored,
                        stats,
                    } => {
                        all_done = false;
                        dead.extend(d.iter().copied());
                        attempt_scored.extend_from_slice(scored);
                        recovery.ft.merge(stats);
                    }
                }
            }

            // `winner` can only be `None` here if rank 0's outcome went
            // missing entirely; degrade to the failed-attempt path below
            // instead of panicking the aggregation.
            if all_done {
                if let Some((w, floor)) = winner {
                    if rescore_round {
                        let fr = frontier_state.as_ref().expect("live frontier");
                        if fr.complete || w.score > fr.floor {
                            frontier_hit = true;
                            break (w, attempt_scored, attempt_assigned);
                        }
                        // Floor miss: discard the (cheap) rescore round and
                        // fall through to a full kernel attempt.
                        try_frontier = false;
                        continue;
                    }
                    if k > 0 {
                        frontier_state = Some(DistFrontier {
                            lists: rank_lists,
                            floor,
                            complete: total_combos <= k as u64,
                        });
                    }
                    break (w, attempt_scored, attempt_assigned);
                }
            }

            // Failed attempt: discard its work, drop the dead, re-execute.
            // Dead ranks take their frontier shards with them, so the
            // frontier is invalidated and the retry runs the full kernels —
            // keeping the discovery bit-identical to the fault-free run.
            frontier_state = None;
            try_frontier = false;
            recovery.re_executed_iterations += 1;
            let wasted: u64 = attempt_scored.iter().sum();
            recovery.re_executed_combos += wasted;
            if dead.is_empty() {
                fruitless_attempts += 1;
                assert!(
                    fruitless_attempts <= 3,
                    "iteration {iter_idx} failed repeatedly without identifying a dead rank"
                );
            } else {
                fruitless_attempts = 0;
                alive.retain(|r| !dead.contains(r));
                recovery.dead_ranks.extend(dead.iter().copied());
                // A death invalidates the incremental partitions along with
                // the frontier: survivors re-shard the full λ-range.
                elastic_parts = None;
            }
            if obs.is_enabled() {
                obs.point(
                    "recovery",
                    &[
                        ("iter", iter_idx.into()),
                        ("dead", dead.len().into()),
                        ("survivors", alive.len().into()),
                        ("re_executed_combos", wasted.into()),
                    ],
                );
                obs.counter_add("recovery.re_executed_iterations", 1);
                obs.counter_add("recovery.re_executed_combos", wasted);
                obs.counter_add("recovery.dead_ranks", dead.len() as u64);
            }
            if alive.is_empty() {
                break 'outer;
            }
        };

        if best.tp == 0 {
            break;
        }
        remaining -= best.tp;
        let cov = work_tumor.cover_mask(&best.genes);
        let mut keep = work_tumor.full_mask();
        for (k, c) in keep.iter_mut().zip(cov.iter()) {
            *k &= !c;
        }
        work_tumor = work_tumor.splice_columns(&keep);
        combinations.push(best.genes);
        iterations.push(DistIteration {
            best,
            remaining,
            combos_per_gpu,
            assigned_per_gpu,
        });
        if obs.is_enabled() {
            obs.point(
                "dist_iter",
                &[
                    ("iter", iter_idx.into()),
                    ("iter_ns", elapsed_ns(iter_start).into()),
                    ("newly_covered", u64::from(best.tp).into()),
                    ("remaining", u64::from(remaining).into()),
                    ("frontier_hit", u64::from(frontier_hit).into()),
                ],
            );
            obs.counter_add("dist.iterations", 1);
            if frontier_hit {
                obs.counter_add("dist.frontier_hits", 1);
            }
        }
    }

    if obs.is_enabled() {
        // Nonzero-only so fault-free runs keep a byte-identical counter
        // registry to the plain driver's.
        let ft = &recovery.ft;
        for (name, v) in [
            ("ft.retrans_requests", ft.retrans_requests),
            ("ft.retransmits", ft.retransmits),
            ("ft.crc_failures", ft.crc_failures),
            ("ft.duplicates", ft.duplicates),
            ("ft.timeouts", ft.timeouts),
        ] {
            if v > 0 {
                obs.counter_add(name, v);
            }
        }
    }

    FtDistResult {
        result: DistResult {
            combinations,
            iterations,
            uncovered: remaining,
        },
        recovery,
    }
}

// ---------------------------------------------------------------------------
// Modeled (paper-scale) runs
// ---------------------------------------------------------------------------

/// Configuration of a modeled paper-scale run.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Cluster allocation.
    pub shape: ClusterShape,
    /// Parallelization scheme.
    pub scheme: Scheme4,
    /// λ-range scheduler.
    pub scheduler: SchedulerKind,
    /// Gene universe size.
    pub g: u32,
    /// Tumor samples (drives word counts and BitSplicing shrinkage).
    pub n_tumor: u32,
    /// Normal samples.
    pub n_normal: u32,
    /// Node hardware.
    pub node: NodeSpec,
    /// Interconnect model.
    pub comm: CommModel,
    /// Node-to-node performance jitter amplitude (0 disables).
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
    /// Fraction of tumor samples still uncovered at the start of each
    /// iteration (first entry normally 1.0); its length is the iteration
    /// count. See [`coverage_profile`].
    pub coverage: Vec<f64>,
}

impl ModelConfig {
    /// The BRCA production configuration on `nodes` Summit nodes.
    #[must_use]
    pub fn brca(nodes: usize) -> Self {
        ModelConfig {
            shape: ClusterShape::summit(nodes),
            scheme: Scheme4::ThreeXOne,
            scheduler: SchedulerKind::EquiArea,
            g: 19411,
            n_tumor: 911,
            n_normal: 329,
            node: NodeSpec::summit(),
            comm: CommModel::summit(),
            jitter: 0.03,
            seed: 2021,
            coverage: coverage_profile(911, 0.55),
        }
    }

    /// The ACC configuration (smallest dataset; Fig 6's subject).
    #[must_use]
    pub fn acc(nodes: usize) -> Self {
        ModelConfig {
            g: 8354,
            n_tumor: 77,
            n_normal: 329,
            coverage: coverage_profile(77, 0.55),
            ..ModelConfig::brca(nodes)
        }
    }
}

/// Geometric coverage decay: iteration `i` starts with `ratio^i` of the
/// tumor samples uncovered; stops when fewer than one sample remains.
/// `ratio` is the fraction *not* covered by each winning combination.
#[must_use]
pub fn coverage_profile(n_tumor: u32, ratio: f64) -> Vec<f64> {
    assert!((0.0..1.0).contains(&ratio), "ratio must be in [0,1)");
    let mut v = Vec::new();
    let mut frac = 1.0f64;
    while frac * f64::from(n_tumor) >= 1.0 {
        v.push(frac);
        frac *= ratio;
    }
    if v.is_empty() {
        v.push(1.0);
    }
    v
}

/// Modeled cost of one iteration.
#[derive(Clone, Debug)]
pub struct ModeledIteration {
    /// Per-GPU launch costs (jittered), in global GPU order.
    pub per_gpu: Vec<GpuCost>,
    /// Per-rank computation time (max of its GPUs).
    pub per_rank_comp: Vec<f64>,
    /// Communication time of the reduce+broadcast pair.
    pub comm_s: f64,
    /// Iteration wall time: straggler rank + communication.
    pub time_s: f64,
}

/// Modeled cost of a whole run.
#[derive(Clone, Debug)]
pub struct ModeledRun {
    /// Iterations in order.
    pub iterations: Vec<ModeledIteration>,
    /// End-to-end wall time.
    pub total_s: f64,
}

impl ModeledRun {
    /// Per-rank total computation time across iterations (Fig 8's bars).
    #[must_use]
    pub fn rank_comp_totals(&self) -> Vec<f64> {
        let ranks = self.iterations.first().map_or(0, |i| i.per_rank_comp.len());
        let mut out = vec![0.0; ranks];
        for it in &self.iterations {
            for (o, c) in out.iter_mut().zip(&it.per_rank_comp) {
                *o += c;
            }
        }
        out
    }

    /// Total communication time across iterations.
    #[must_use]
    pub fn comm_total(&self) -> f64 {
        self.iterations.iter().map(|i| i.comm_s).sum()
    }
}

/// Price a full run under the cost models. `O(iterations × gpus × G)`.
#[must_use]
pub fn model_run(cfg: &ModelConfig) -> ModeledRun {
    model_run_obs(cfg, &Obs::disabled())
}

/// [`model_run`] with observability: scheduler timing (`sched_partition`),
/// one `model_iter` point per iteration (modeled compute/comm/wall
/// nanoseconds), and — for the first iteration, where the matrix is whole —
/// the full per-GPU NVPROF-style profile via
/// [`multihit_gpusim::counters::record_run_metrics`]. Modeled times are
/// emitted in nanoseconds so the stream is unit-uniform with measured spans.
#[must_use]
pub fn model_run_obs(cfg: &ModelConfig, obs: &Obs) -> ModeledRun {
    let _run_span = obs.span("model_run");
    let n_gpus = cfg.shape.total_gpus();
    let model = CostModel::new(cfg.node.gpu.clone());
    let wn = u64::from(cfg.n_normal.div_ceil(64));
    let parts = cfg.scheduler.partitions_obs(cfg.scheme, cfg.g, n_gpus, obs);
    let levels = kernel_levels4(cfg.scheme, cfg.g);
    let prefetch = prefetch_depth4(cfg.scheme);
    let mid = matches!(cfg.scheme, Scheme4::TwoXTwo | Scheme4::OneXThree);

    let mut iterations = Vec::with_capacity(cfg.coverage.len());
    let mut total_s = 0.0;
    for (it_idx, frac) in cfg.coverage.iter().enumerate() {
        // BitSplicing: the tumor matrix shrinks with coverage.
        let remaining = (f64::from(cfg.n_tumor) * frac).ceil() as u32;
        let wt = u64::from(remaining.div_ceil(64).max(1));
        let w = wt + wn;
        let bounds = crate::sched::partitions_to_ranges(&parts);
        let costs: Vec<GpuCost> = profile_partitions(&levels, &bounds, w, prefetch, mid)
            .iter()
            .map(|pr| model.evaluate(pr))
            .collect();
        let costs = if cfg.jitter > 0.0 {
            apply_jitter(&costs, cfg.jitter, cfg.seed.wrapping_add(it_idx as u64))
        } else {
            costs
        };
        // GPUs of a node run concurrently; the rank waits on its slowest.
        let per_rank_comp: Vec<f64> = (0..cfg.shape.nodes)
            .map(|r| {
                cfg.shape
                    .gpus_of_rank(r)
                    .map(|gi| costs[gi].time_s)
                    .fold(0.0f64, f64::max)
            })
            .collect();
        let comp = per_rank_comp.iter().copied().fold(0.0f64, f64::max);
        let comm_s = cfg.comm.reduce(32, cfg.shape.nodes) + cfg.comm.broadcast(32, cfg.shape.nodes);
        let time_s = comp + comm_s;
        total_s += time_s;
        if obs.is_enabled() {
            obs.point(
                "model_iter",
                &[
                    ("iter", it_idx.into()),
                    ("remaining", u64::from(remaining).into()),
                    ("comp_ns", secs_to_ns(comp).into()),
                    ("comm_ns", secs_to_ns(comm_s).into()),
                    ("time_ns", secs_to_ns(time_s).into()),
                ],
            );
            obs.counter_add("model.iterations", 1);
            obs.counter_add("model.comm_ns", secs_to_ns(comm_s));
            if it_idx == 0 {
                // Per-GPU profile rows only for the representative first
                // iteration: paper-scale fleets would otherwise dominate
                // the stream (6000 GPUs × ~15 iterations).
                record_run_metrics(obs, &run_metrics(&model, &costs));
            }
        }
        iterations.push(ModeledIteration {
            per_gpu: costs,
            per_rank_comp,
            comm_s,
            time_s,
        });
    }
    ModeledRun {
        iterations,
        total_s,
    }
}

/// Replay a modeled run through the discrete-event simulator
/// ([`crate::des`]): one [`Timeline`](crate::des::Timeline) per iteration,
/// built from the same per-GPU costs `model_run` prices. Gives per-rank
/// busy/idle/communication attribution instead of aggregate times.
#[must_use]
pub fn timeline_run(cfg: &ModelConfig) -> Vec<crate::des::Timeline> {
    timeline_run_obs(cfg, &Obs::disabled())
}

/// [`timeline_run`] with observability: one `rank` point per rank per
/// iteration attributing the makespan into `busy_ns` (concurrent kernel
/// wall + communication), `idle_ns` (waiting on the straggler) and
/// `comm_ns`, plus one `timeline_iter` point per iteration. By the DES
/// accounting, `busy_ns + idle_ns = makespan_ns` per rank (up to clamping
/// and nanosecond rounding) — the driver-level test asserts it.
#[must_use]
pub fn timeline_run_obs(cfg: &ModelConfig, obs: &Obs) -> Vec<crate::des::Timeline> {
    let run = model_run_obs(cfg, obs);
    run.iterations
        .iter()
        .enumerate()
        .map(|(it_idx, it)| {
            let times: Vec<f64> = it.per_gpu.iter().map(|c| c.time_s).collect();
            let tl = crate::des::simulate_iteration(&times, &cfg.shape, &cfg.comm, 32);
            if obs.is_enabled() {
                for rank in 0..cfg.shape.nodes {
                    let kernel_ns = secs_to_ns(tl.rank_kernel_time(&cfg.shape, rank));
                    let comm_ns = secs_to_ns(tl.rank_comm_time(rank));
                    let idle_ns = secs_to_ns(tl.rank_idle_time(&cfg.shape, rank));
                    let makespan_ns = secs_to_ns(tl.makespan);
                    let busy_ns = makespan_ns.saturating_sub(idle_ns);
                    obs.point(
                        "rank",
                        &[
                            ("iter", it_idx.into()),
                            ("rank", rank.into()),
                            ("busy_ns", busy_ns.into()),
                            ("idle_ns", idle_ns.into()),
                            ("comm_ns", comm_ns.into()),
                            ("kernel_ns", kernel_ns.into()),
                            ("makespan_ns", makespan_ns.into()),
                        ],
                    );
                    obs.counter_add("rank.busy_ns", busy_ns);
                    obs.counter_add("rank.idle_ns", idle_ns);
                }
                obs.point(
                    "timeline_iter",
                    &[
                        ("iter", it_idx.into()),
                        ("makespan_ns", secs_to_ns(tl.makespan).into()),
                    ],
                );
            }
            tl
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Modeled failures
// ---------------------------------------------------------------------------

/// A modeled paper-scale run with MTBF-driven failures priced in
/// ([`model_run_faulty`]).
#[derive(Clone, Debug)]
pub struct FaultyModeledRun {
    /// The fault-free modeled run.
    pub base: ModeledRun,
    /// Sampled failure times on the useful-work clock, seconds.
    pub failures: Vec<f64>,
    /// Checkpoint cost over the run (one write per iteration), seconds.
    pub ckpt_cost_s: f64,
    /// Work lost to failures and re-executed, seconds.
    pub rework_s: f64,
    /// Restart latency paid across failures, seconds.
    pub restart_s: f64,
    /// End-to-end wall time including all overheads.
    pub total_s: f64,
    /// Closed-form expected overhead at Young's optimal checkpoint
    /// interval, for comparison with the per-iteration policy.
    pub expected: crate::timing::FailureOverhead,
}

impl FaultyModeledRun {
    /// Overhead of failures + checkpointing relative to the useful time.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        (self.total_s - self.base.total_s) / self.base.total_s
    }
}

/// Price a paper-scale run under failures: the fault-free iterations come
/// from [`model_run`], failure events are sampled from the MTBF by
/// [`crate::des::sample_failures`], and every failure costs the restart
/// latency plus re-execution of the interrupted iteration from its start
/// (the greedy loop checkpoints after every iteration, so at most one
/// iteration of work is ever lost). Emits one `fault` point per sampled
/// failure and a `recovery` summary point.
#[must_use]
pub fn model_run_faulty(
    cfg: &ModelConfig,
    fm: &crate::timing::FailureModel,
    obs: &Obs,
) -> FaultyModeledRun {
    let base = model_run_obs(cfg, obs);
    let mtbf = fm.system_mtbf_s(cfg.shape.nodes);
    let failures = crate::des::sample_failures(mtbf, base.total_s, cfg.seed);
    let ckpt_cost_s = base.iterations.len() as f64 * fm.ckpt_write_s;
    let mut rework_s = 0.0f64;
    for &t in &failures {
        // Locate the iteration the failure interrupts; the time already
        // spent in it is lost and re-executed.
        let mut start = 0.0f64;
        let mut lost = 0.0f64;
        let mut iter_idx = base.iterations.len().saturating_sub(1);
        for (i, it) in base.iterations.iter().enumerate() {
            if t < start + it.time_s {
                lost = t - start;
                iter_idx = i;
                break;
            }
            start += it.time_s;
        }
        rework_s += lost;
        if obs.is_enabled() {
            obs.point(
                "fault",
                &[
                    ("kind", "node_failure".into()),
                    ("iter", iter_idx.into()),
                    ("t_ns", secs_to_ns(t).into()),
                    ("lost_ns", secs_to_ns(lost).into()),
                ],
            );
            obs.counter_add("fault.node_failure", 1);
        }
    }
    let restart_s = failures.len() as f64 * fm.recovery_s;
    let total_s = base.total_s + ckpt_cost_s + rework_s + restart_s;
    let expected = fm.expected_overhead(
        cfg.shape.nodes,
        base.total_s,
        fm.young_interval_s(cfg.shape.nodes),
    );
    if obs.is_enabled() {
        obs.point(
            "recovery",
            &[
                ("kind", "modeled".into()),
                ("failures", failures.len().into()),
                ("ckpt_cost_ns", secs_to_ns(ckpt_cost_s).into()),
                ("rework_ns", secs_to_ns(rework_s).into()),
                ("restart_ns", secs_to_ns(restart_s).into()),
                (
                    "overhead_fraction",
                    ((total_s - base.total_s) / base.total_s).into(),
                ),
            ],
        );
        obs.counter_add("recovery.modeled_failures", failures.len() as u64);
    }
    FaultyModeledRun {
        base,
        failures,
        ckpt_cost_s,
        rework_s,
        restart_s,
        total_s,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_core::greedy::{discover, Exclusion, GreedyConfig};

    fn lcg_matrices(g: usize, nt: usize, nn: usize, seed: u64) -> (BitMatrix, BitMatrix) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut t = BitMatrix::zeros(g, nt);
        let mut n = BitMatrix::zeros(g, nn);
        for gene in 0..g {
            for s in 0..nt {
                if next() % 2 == 0 {
                    t.set(gene, s, true);
                }
            }
            for s in 0..nn {
                if next() % 6 == 0 {
                    n.set(gene, s, true);
                }
            }
        }
        (t, n)
    }

    #[test]
    fn distributed_matches_single_process_reference() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let reference = discover::<4>(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::BitSplice,
                parallel: false,
                max_combinations: 3,
                ..GreedyConfig::default()
            },
        );
        for scheduler in [SchedulerKind::EquiArea, SchedulerKind::EquiDistance] {
            for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
                let cfg = DistributedConfig {
                    shape: ClusterShape {
                        nodes: 3,
                        gpus_per_node: 2,
                    },
                    scheme,
                    scheduler,
                    max_combinations: 3,
                    ..DistributedConfig::default()
                };
                let dist = distributed_discover4(&t, &n, &cfg);
                assert_eq!(
                    dist.combinations,
                    reference.combinations,
                    "{scheduler:?} {}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn secs_to_ns_saturates_cleanly() {
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(-0.0), 0);
        // Float round-off below zero saturates to 0 instead of wrapping.
        assert_eq!(secs_to_ns(-1e-12), 0);
        assert_eq!(secs_to_ns(f64::INFINITY), u64::MAX);
        assert_eq!(secs_to_ns(1e300), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "NaN duration")]
    #[cfg(debug_assertions)]
    fn secs_to_ns_rejects_nan_in_debug() {
        let _ = secs_to_ns(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    #[cfg(debug_assertions)]
    fn secs_to_ns_rejects_negative_in_debug() {
        let _ = secs_to_ns(-1.0);
    }

    #[test]
    fn kernelized_distributed_matches_unkernelized() {
        // A cohort with useless genes (zero tumor rows) and duplicate rows so
        // the reduction actually removes something, plus random filler.
        let (mut t, n) = lcg_matrices(14, 90, 60, 29);
        for s in 0..90 {
            t.set(12, s, false);
            t.set(13, s, t.get(0, s));
        }
        let base = DistributedConfig {
            shape: ClusterShape {
                nodes: 3,
                gpus_per_node: 2,
            },
            max_combinations: 3,
            ..DistributedConfig::default()
        };
        let plain = distributed_discover4(&t, &n, &base);
        let kern = distributed_discover4(
            &t,
            &n,
            &DistributedConfig {
                kernelize: true,
                ..base
            },
        );
        assert_eq!(kern.combinations, plain.combinations);
        assert_eq!(kern.uncovered, plain.uncovered);
        for (a, b) in kern.iterations.iter().zip(&plain.iterations) {
            assert_eq!(a.best, b.best);
        }

        let ft = distributed_discover4_ft(
            &t,
            &n,
            &DistributedConfig {
                kernelize: true,
                ..base
            },
            None,
            crate::fault::FtParams::fast_test(),
            &Obs::disabled(),
        );
        assert_eq!(ft.result.combinations, plain.combinations);
        assert_eq!(ft.result.uncovered, plain.uncovered);
    }

    #[test]
    fn kernelized_distributed_stalls_on_degenerate_reduction() {
        // Every gene has a zero tumor row: reduction keeps < 4 genes, the
        // driver must stall with an empty panel and everything uncovered.
        let t = BitMatrix::zeros(6, 40);
        let n = BitMatrix::zeros(6, 20);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 2,
                gpus_per_node: 1,
            },
            kernelize: true,
            max_combinations: 2,
            ..DistributedConfig::default()
        };
        let r = distributed_discover4(&t, &n, &cfg);
        assert!(r.combinations.is_empty());
        assert_eq!(r.uncovered, 40);
    }

    #[test]
    fn ft_driver_without_faults_matches_plain_driver() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 3,
                gpus_per_node: 2,
            },
            max_combinations: 3,
            ..DistributedConfig::default()
        };
        let plain = distributed_discover4(&t, &n, &cfg);
        let ft = distributed_discover4_ft(
            &t,
            &n,
            &cfg,
            None,
            crate::fault::FtParams::fast_test(),
            &Obs::disabled(),
        );
        assert_eq!(ft.result.combinations, plain.combinations);
        assert_eq!(ft.result.uncovered, plain.uncovered);
        assert_eq!(ft.recovery.re_executed_iterations, 0);
        assert_eq!(ft.recovery.dead_ranks, Vec::<usize>::new());
        for (a, b) in ft.result.iterations.iter().zip(&plain.iterations) {
            assert_eq!(a.best, b.best);
            assert_eq!(a.combos_per_gpu, b.combos_per_gpu);
            assert_eq!(a.assigned_per_gpu, b.assigned_per_gpu);
        }
    }

    #[test]
    fn frontier_driver_matches_disabled_frontier_driver() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let total = binomial(11, 4);
        for nodes in [1, 4] {
            let base = DistributedConfig {
                shape: ClusterShape {
                    nodes,
                    gpus_per_node: 2,
                },
                ..DistributedConfig::default()
            };
            let full = distributed_discover4(
                &t,
                &n,
                &DistributedConfig {
                    frontier_k: 0,
                    ..base
                },
            );
            let obs = Obs::enabled();
            let lazy = distributed_discover4_obs(&t, &n, &base, &obs);
            assert_eq!(lazy.combinations, full.combinations, "{nodes} nodes");
            assert_eq!(lazy.uncovered, full.uncovered, "{nodes} nodes");
            for (a, b) in lazy.iterations.iter().zip(&full.iterations) {
                assert_eq!(a.best, b.best);
                assert_eq!(a.remaining, b.remaining);
            }
            // Every iteration either skipped the kernels outright (hit) or
            // rescanned the full enumeration (floor miss), and the hit
            // counter agrees with the audit.
            let hits = lazy
                .iterations
                .iter()
                .filter(|it| {
                    let sum: u64 = it.assigned_per_gpu.iter().sum();
                    assert!(sum == 0 || sum == total, "partial scan audited: {sum}");
                    assert_scored_within_assigned(it);
                    sum == 0
                })
                .count() as u64;
            assert_eq!(
                obs.counters()
                    .get("dist.frontier_hits")
                    .copied()
                    .unwrap_or(0),
                hits,
                "{nodes} nodes"
            );
        }
    }

    #[test]
    fn complete_frontier_skips_every_later_kernel_round() {
        let (t, n) = lcg_matrices(9, 70, 40, 3);
        // K >= C(9,4): the frontier holds the whole enumeration, so every
        // iteration after the first is a hit by construction.
        let total = binomial(9, 4);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 2,
                gpus_per_node: 2,
            },
            frontier_k: total as usize,
            ..DistributedConfig::default()
        };
        let lazy = distributed_discover4(&t, &n, &cfg);
        let full = distributed_discover4(
            &t,
            &n,
            &DistributedConfig {
                frontier_k: 0,
                ..cfg
            },
        );
        assert_eq!(lazy.combinations, full.combinations);
        assert!(lazy.iterations.len() > 1, "fixture should iterate");
        for (i, it) in lazy.iterations.iter().enumerate() {
            let sum: u64 = it.assigned_per_gpu.iter().sum();
            assert_eq!(sum, if i == 0 { total } else { 0 }, "iteration {i}");
            assert_scored_within_assigned(it);
        }
    }

    #[test]
    fn ft_frontier_driver_matches_plain_frontier_driver() {
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 3,
                gpus_per_node: 2,
            },
            ..DistributedConfig::default()
        };
        assert!(cfg.frontier_k > 0);
        let plain = distributed_discover4(&t, &n, &cfg);
        let ft = distributed_discover4_ft(
            &t,
            &n,
            &cfg,
            None,
            crate::fault::FtParams::fast_test(),
            &Obs::disabled(),
        );
        assert_eq!(ft.result.combinations, plain.combinations);
        // Hit/miss decisions are deterministic, so the per-GPU audits agree
        // exactly — including the all-zero rows of frontier-hit iterations.
        for (a, b) in ft.result.iterations.iter().zip(&plain.iterations) {
            assert_eq!(a.combos_per_gpu, b.combos_per_gpu);
        }
    }

    #[test]
    fn distributed_workload_audit_matches_scheduler() {
        let (t, n) = lcg_matrices(12, 64, 32, 5);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 2,
                gpus_per_node: 3,
            },
            max_combinations: 1,
            ..DistributedConfig::default()
        };
        let obs = Obs::enabled();
        let dist = distributed_discover4_obs(&t, &n, &cfg, &obs);
        let combos: u64 = dist.iterations[0].assigned_per_gpu.iter().sum();
        assert_eq!(combos, multihit_core::combin::binomial(12, 4));
        assert_scored_within_assigned(&dist.iterations[0]);
        // EA: per-GPU combos within ±1 thread-workload of each other.
        // Guarded defaults: a run whose audit stream came back partial (a
        // killed rank, an aborted attempt) must degrade this check to an
        // explicit empty-audit failure, not an unwrap panic.
        let max = dist.iterations[0]
            .assigned_per_gpu
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        let min = dist.iterations[0]
            .assigned_per_gpu
            .iter()
            .min()
            .copied()
            .unwrap_or(0);
        assert!(
            !dist.iterations[0].assigned_per_gpu.is_empty(),
            "empty per-GPU audit"
        );
        assert!(max - min <= 12, "spread {}", max - min);
        // Every assigned combination was either scored or pruned.
        for p in obs.events().iter().filter(|e| e.name == "rank_exec") {
            let rank = p.u64("rank").unwrap_or(0) as usize;
            let assigned: u64 = dist.iterations[0].assigned_per_gpu[cfg.shape.gpus_of_rank(rank)]
                .iter()
                .sum();
            let scored = p.u64("combos").unwrap_or(0);
            let pruned = p.u64("pruned").unwrap_or(0);
            assert_eq!(scored + pruned, assigned, "rank {rank}");
        }
    }

    #[test]
    fn slab_scan_matches_exhaustive_slab() {
        use multihit_core::reduce::top_k;
        use multihit_core::weight::score_combo;
        let (t, n) = lcg_matrices(12, 96, 64, 29);
        for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
            for p in SchedulerKind::EquiArea.partitions(scheme, 12, 3) {
                let mut all = Vec::new();
                for lambda in p.lo..p.hi {
                    scheme.for_each_combo(lambda, 12, |c| {
                        all.push(score_combo(&t, &n, &c, Alpha::PAPER));
                    });
                }
                for k in [0usize, 1, 8, 64] {
                    let cfg = DistributedConfig {
                        scheme,
                        frontier_k: k,
                        ..DistributedConfig::default()
                    };
                    let scan = scan_slab(&t, &n, &cfg, p);
                    let at = format!("{} {p:?} k={k}", scheme.name());
                    assert_eq!(scan.best, fold_partials(all.iter().copied()), "{at}");
                    assert_eq!(scan.shard, top_k(&all, k), "{at}");
                    assert_eq!(scan.assigned, all.len() as u64, "{at}");
                    assert_eq!(
                        scan.stats.scored + scan.stats.pruned_combos,
                        scan.assigned,
                        "{at}"
                    );
                }
            }
        }
    }

    fn assert_scored_within_assigned(it: &DistIteration) {
        assert_eq!(it.combos_per_gpu.len(), it.assigned_per_gpu.len());
        for (s, a) in it.combos_per_gpu.iter().zip(&it.assigned_per_gpu) {
            assert!(s <= a, "scored {s} > assigned {a}");
        }
    }

    #[test]
    fn coverage_profile_shapes() {
        let p = coverage_profile(911, 0.55);
        assert_eq!(p[0], 1.0);
        assert!(p.len() > 5 && p.len() < 30);
        assert!(p.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(coverage_profile(1, 0.5), vec![1.0]);
    }

    #[test]
    fn model_run_produces_finite_times() {
        let run = model_run(&ModelConfig::brca(100));
        assert!(run.total_s.is_finite() && run.total_s > 0.0);
        assert_eq!(run.iterations[0].per_gpu.len(), 600);
        assert_eq!(run.iterations[0].per_rank_comp.len(), 100);
        // Later iterations are cheaper (BitSplicing shrinks the matrix).
        let t0 = run.iterations[0].time_s;
        let tl = run.iterations.last().unwrap().time_s;
        assert!(tl < t0);
    }

    #[test]
    fn modeled_failures_price_sanely() {
        use crate::timing::FailureModel;
        let cfg = ModelConfig::brca(100);
        // Astronomical MTBF → no failures, overhead is checkpointing only.
        let calm = FailureModel {
            node_mtbf_s: 1e18,
            ..FailureModel::summit_like()
        };
        let quiet = model_run_faulty(&cfg, &calm, &Obs::disabled());
        assert!(quiet.failures.is_empty());
        assert!((quiet.rework_s, quiet.restart_s) == (0.0, 0.0));
        assert!(quiet.total_s >= quiet.base.total_s);
        // Absurdly failure-prone cluster → failures land, overhead grows,
        // and the run is deterministic in the seed.
        let frail = FailureModel {
            node_mtbf_s: cfg.shape.nodes as f64 * quiet.base.total_s / 5.0,
            ..FailureModel::summit_like()
        };
        let rough = model_run_faulty(&cfg, &frail, &Obs::disabled());
        assert!(!rough.failures.is_empty());
        assert!(rough.total_s > rough.base.total_s);
        assert!(rough.overhead_fraction() > 0.0);
        let again = model_run_faulty(&cfg, &frail, &Obs::disabled());
        assert_eq!(rough.failures, again.failures);
        // The closed-form expectation agrees on the failure count scale.
        assert!(rough.expected.expected_failures > 0.0);
    }

    #[test]
    fn modeled_ea_beats_ed() {
        // The paper's §IV-B: EA ≈ 3× faster than ED for 2x2 at 100 nodes.
        let mut cfg = ModelConfig::brca(100);
        cfg.scheme = Scheme4::TwoXTwo;
        cfg.jitter = 0.0;
        cfg.coverage = vec![1.0];
        let ea = model_run(&cfg).total_s;
        cfg.scheduler = SchedulerKind::EquiDistance;
        let ed = model_run(&cfg).total_s;
        let speedup = ed / ea;
        assert!(speedup > 2.0, "EA speedup only {speedup:.2}×");
    }

    #[test]
    fn des_timeline_agrees_with_flat_model() {
        // Per iteration, the DES makespan brackets the flat estimate:
        // ≥ max(comp), ≤ max(comp) + full tree cost.
        let cfg = ModelConfig::brca(100);
        let run = model_run(&cfg);
        let timelines = timeline_run(&cfg);
        assert_eq!(timelines.len(), run.iterations.len());
        for (tl, it) in timelines.iter().zip(&run.iterations) {
            let comp = it.per_rank_comp.iter().copied().fold(0.0f64, f64::max);
            assert!(tl.makespan >= comp - 1e-9);
            assert!(tl.makespan <= comp + it.comm_s + 1e-9);
        }
    }

    #[test]
    fn rank_points_account_for_makespan() {
        // Per iteration and per rank, the `rank` points in the metrics
        // stream must satisfy busy_ns + idle_ns = makespan_ns: the stream
        // is a complete attribution of each rank's wall clock.
        let cfg = ModelConfig::brca(20);
        let obs = Obs::enabled();
        let tls = timeline_run_obs(&cfg, &obs);
        let events = obs.events();
        let rank_points: Vec<_> = events.iter().filter(|e| e.name == "rank").collect();
        assert_eq!(rank_points.len(), tls.len() * cfg.shape.nodes);
        for p in &rank_points {
            // Guarded defaults: a partial metrics stream (e.g. a rank killed
            // mid-iteration dropped a field) degrades to 0 and fails the
            // attribution check below with the offending point named,
            // instead of panicking the aggregation.
            let busy = p.u64("busy_ns").unwrap_or(0);
            let idle = p.u64("idle_ns").unwrap_or(0);
            let makespan = p.u64("makespan_ns").unwrap_or(0);
            assert!(makespan > 0, "rank point missing makespan_ns: {p:?}");
            let sum = busy + idle;
            let diff = sum.abs_diff(makespan);
            assert!(
                diff <= 1,
                "busy {busy} + idle {idle} != makespan {makespan}"
            );
        }
        // Aggregated the same way RunReport does: mean utilization is a
        // genuine ratio and some rank is fully busy each iteration.
        let report = multihit_core::obs::RunReport::from_events(&events);
        assert_eq!(report.ranks.len(), cfg.shape.nodes);
        let util = report.mean_rank_utilization();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        assert!(report.rank_imbalance() >= 1.0);
        assert_eq!(report.makespan_ns.len(), tls.len());
    }

    #[test]
    fn obs_run_matches_plain_run() {
        // Instrumentation must not perturb the model: same iterations,
        // same makespans, bit-identical schedule.
        let cfg = ModelConfig::brca(20);
        let plain = timeline_run(&cfg);
        let observed = timeline_run_obs(&cfg, &Obs::enabled());
        assert_eq!(plain.len(), observed.len());
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.intervals.len(), b.intervals.len());
        }
    }

    #[test]
    fn comm_is_hidden_by_computation() {
        // Fig 8: message-passing overhead is dwarfed by computation.
        let run = model_run(&ModelConfig::brca(1000));
        let comp: f64 = run
            .iterations
            .iter()
            .map(|i| i.per_rank_comp.iter().copied().fold(0.0f64, f64::max))
            .sum();
        assert!(run.comm_total() < 0.01 * comp);
    }
}
