//! The greedy weighted-set-cover loop (§II-B) and a fast combination
//! scanner.
//!
//! Per iteration the algorithm (1) scores **every** `C(G,H)` combination,
//! (2) picks the deterministic argmax-F, (3) excludes the tumor samples that
//! combination covers, and repeats until every tumor sample is covered (or a
//! combination covers nothing new).
//!
//! The scan is the expensive part. [`ComboScanner`] walks combinations in
//! colex order keeping a stack of partial row-ANDs — when only the lowest
//! coordinate advances (the overwhelmingly common case), scoring one more
//! combination costs a single fused AND+popcount pass per matrix (via
//! [`crate::kernel`], runtime-dispatched to AVX2/POPCNT). This is the CPU
//! realization of the paper's MemOpt prefetching, generalized to every
//! level of the `H`-deep loop.
//!
//! There is one scan loop, [`ComboScanner::scan`], and it scores into a
//! [`TopK`] collector: the argmax is a collector of one, the lazy-greedy
//! frontier a collector of `frontier_k`. Each level-0 sibling run is taken
//! either as a block sweep or one step at a time. Two exact accelerations
//! sit on top:
//!
//! * **Branch-and-bound pruning**: at colex level `t` the partial-AND
//!   popcount bounds TP for *every* completion of the lower coordinates, so
//!   `F_ub = (α·TP_partial + Nn)/(Nt+Nn)`; when `F_ub` cannot enter the
//!   full collector, the entire subtree sharing that prefix — `C(c[t], t)`
//!   combinations — is skipped. The result is bit-identical to the
//!   un-pruned scan by construction (ties lose to the colex-earlier
//!   incumbents), and the test suite asserts it.
//! * **Work stealing** ([`best_combination`], the one scan entry point): an
//!   atomic λ-cursor ([`crate::par::BlockQueue`]) hands out guided-size
//!   blocks so pruning- and splice-induced imbalance cannot stall workers
//!   on static chunks; each worker runs [`scan_ranges`] and the per-worker
//!   shards merge with the deterministic [`Scored`] order. Workers share
//!   their full-heap floor through an atomic, which only ever *increases*
//!   pruning power (strict-inequality cut), so the merge stays
//!   bit-identical to the sequential scan.
//!
//! Covered samples are excluded either by **BitSplicing** (physically
//! shrinking the tumor matrix, §III-D) or by carrying an active-column mask
//! (the unspliced baseline the Fig 5 ablation compares against). Both modes
//! produce identical combinations; tests assert it.

use crate::bitmat::{BitMatrix, SkipIndex};
use crate::combin::{binomial, unrank_tuple};
use crate::frontier::{self, Frontier, TopK};
use crate::kernel;
use crate::obs::Obs;
use crate::par::{self, BlockQueue};
use crate::weight::{Alpha, Combo, Scored};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How covered tumor samples are excluded between iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exclusion {
    /// Physically remove covered columns (the paper's BitSplicing).
    BitSplice,
    /// Keep the matrix intact and AND an active mask into every score.
    Mask,
}

impl Exclusion {
    /// Stable name used in metric streams.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Exclusion::BitSplice => "BitSplice",
            Exclusion::Mask => "Mask",
        }
    }
}

/// When the scan uses the sparse (skip-list) partial-AND representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseMode {
    /// Measure the matrices' zero-word fraction and enable the sparse path
    /// when at least [`SPARSE_AUTO_THRESHOLD`] of packed words are zero.
    Auto,
    /// Always scan sparse.
    On,
    /// Always scan dense.
    Off,
}

impl SparseMode {
    /// Stable name used in metric streams and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SparseMode::Auto => "auto",
            SparseMode::On => "on",
            SparseMode::Off => "off",
        }
    }
}

/// Zero-word fraction (across tumor + normal words) at which
/// [`SparseMode::Auto`] switches the scan to the sparse path.
pub const SPARSE_AUTO_THRESHOLD: f64 = 0.5;

/// Configuration for a greedy discovery run.
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// True-positive weight α (paper: 0.1).
    pub alpha: Alpha,
    /// Exclusion strategy between iterations.
    pub exclusion: Exclusion,
    /// Stop after this many combinations even if tumors remain (0 = no cap).
    pub max_combinations: usize,
    /// Score combinations across work-stealing worker threads.
    pub parallel: bool,
    /// Skip subtrees whose F upper bound cannot beat the running best.
    /// Exact: the selected combinations are bit-identical either way.
    pub prune: bool,
    /// Lazy-greedy frontier size: retain the top-K combinations after a
    /// full scan and skip later scans whose argmax the frontier proves
    /// (see [`crate::frontier`]). 0 disables the frontier; the selected
    /// combinations are bit-identical either way.
    pub frontier_k: usize,
    /// Run the exact [`crate::kernelize`] reduction before the greedy loop
    /// and un-map the result. The selected panel is bit-identical either
    /// way; defaults off so existing call sites keep their exact behavior.
    pub kernelize: bool,
    /// Sparse (skip-list) scan selection; bit-identical in every mode.
    pub sparse: SparseMode,
    /// Score level-0 sibling runs through the gene-tiled block kernels
    /// ([`kernel::and_popcount_block`]) instead of stepping one combination
    /// at a time. Bit-identical either way (level-0 siblings are never
    /// individually pruned); off restores the stepping reference path.
    pub block_sweep: bool,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            alpha: Alpha::PAPER,
            exclusion: Exclusion::BitSplice,
            max_combinations: 0,
            parallel: true,
            prune: true,
            frontier_k: frontier::DEFAULT_FRONTIER_K,
            kernelize: false,
            sparse: SparseMode::Auto,
            block_sweep: true,
        }
    }
}

/// Work accounting of one combination scan (sequential or work-stealing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Combinations actually scored.
    pub scored: u64,
    /// Subtrees eliminated by the F upper bound.
    pub pruned_subtrees: u64,
    /// Combinations skipped inside pruned subtrees.
    pub pruned_combos: u64,
    /// λ-blocks dispatched by the work-stealing cursor.
    pub blocks: u64,
    /// Blocks beyond each worker's first (load rebalanced at runtime).
    pub steals: u64,
    /// All-zero 64-bit words the sparse scan never touched (0 when dense).
    pub words_skipped: u64,
    /// Level-0 block-kernel invocations (0 when stepping).
    pub block_sweeps: u64,
    /// Candidate gene rows scored through the block kernel.
    pub swept_rows: u64,
    /// Scanners constructed (allocation events) during this scan. Workers
    /// re-seek one scanner across stolen blocks, so this stays at one per
    /// participating worker no matter how many blocks churn.
    pub scanner_builds: u64,
}

impl ScanStats {
    /// Accumulate another worker's counters.
    pub fn merge(&mut self, other: &ScanStats) {
        self.scored += other.scored;
        self.pruned_subtrees += other.pruned_subtrees;
        self.pruned_combos += other.pruned_combos;
        self.blocks += other.blocks;
        self.steals += other.steals;
        self.words_skipped += other.words_skipped;
        self.block_sweeps += other.block_sweeps;
        self.swept_rows += other.swept_rows;
        self.scanner_builds += other.scanner_builds;
    }

    /// Mean candidate rows per block-kernel call (0 when stepping).
    #[must_use]
    pub fn rows_per_sweep(&self) -> f64 {
        if self.block_sweeps == 0 {
            0.0
        } else {
            self.swept_rows as f64 / self.block_sweeps as f64
        }
    }

    /// Fraction of the enumerated range eliminated without scoring.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.scored + self.pruned_combos;
        if total == 0 {
            0.0
        } else {
            self.pruned_combos as f64 / total as f64
        }
    }
}

/// One greedy iteration's outcome.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord<const H: usize> {
    /// The winning combination of this iteration.
    pub best: Scored<H>,
    /// F value (Eq. 1) against the *original* cohort totals.
    pub f: f64,
    /// Newly covered tumor samples.
    pub newly_covered: u32,
    /// Tumor samples still uncovered after this iteration.
    pub remaining: u32,
    /// Tumor-matrix words per row when this iteration scanned (shows the
    /// BitSplicing shrinkage).
    pub words_per_row: usize,
}

/// Result of a full greedy run.
#[derive(Clone, Debug)]
pub struct GreedyResult<const H: usize> {
    /// The selected combinations, in selection order.
    pub combinations: Vec<Combo<H>>,
    /// Per-iteration diagnostics.
    pub iterations: Vec<IterationRecord<H>>,
    /// Tumor samples never covered (nonzero only if capped or stalled).
    pub uncovered: u32,
}

impl<const H: usize> GreedyResult<H> {
    /// Fraction of tumor samples covered by the selected set.
    #[must_use]
    pub fn coverage(&self, n_tumor: u32) -> f64 {
        if n_tumor == 0 {
            return 1.0;
        }
        f64::from(n_tumor - self.uncovered) / f64::from(n_tumor)
    }
}

/// Incremental colex-order scanner over all `C(G,H)` combinations.
///
/// Maintains, per level `t`, the AND of the rows of genes `c[t..H]`
/// (tumor and normal separately, plus an optional tumor column mask folded
/// into the top level). Advancing the combination recomputes only the
/// levels at or below the coordinate that moved.
pub struct ComboScanner<'a, const H: usize> {
    tumor: &'a BitMatrix,
    normal: &'a BitMatrix,
    tumor_mask: Option<&'a [u64]>,
    alpha: Alpha,
    g: u32,
    n_normal: u32,
    /// partial_t[t] = AND over tumor rows of genes c[t..H] (and the mask).
    /// Empty (unallocated) when scanning sparse.
    partial_t: Vec<Vec<u64>>,
    partial_n: Vec<Vec<u64>>,
    /// Sparse mode: per-gene skip lists over all-zero words. When set, the
    /// per-level partials are kept *compacted* as parallel (word index,
    /// word value) vectors instead of dense rows — the AND support only
    /// shrinks as the chain deepens, so deeper rebuilds touch fewer words.
    skip: Option<(&'a SkipIndex, &'a SkipIndex)>,
    sp_idx_t: Vec<Vec<u32>>,
    sp_val_t: Vec<Vec<u64>>,
    sp_idx_n: Vec<Vec<u32>>,
    sp_val_n: Vec<Vec<u64>>,
    /// Words a dense rebuild would have touched that the sparse path
    /// skipped (both matrices).
    words_skipped: u64,
    /// pop_t[t] = popcount of partial_t[t], maintained by the fused
    /// AND+store+popcount kernel during rebuilds. pop_t[0] is TP; every
    /// higher level is the branch-and-bound TP upper bound for its subtree.
    pop_t: [u32; H],
    pop_n: [u32; H],
    combo: [u32; H],
    /// Rows per level-0 block-kernel call; `<= 1` falls back to stepping.
    sweep_width: usize,
    /// Block-kernel invocations made by this scanner.
    block_sweeps: u64,
    /// Candidate rows scored through the block kernel.
    swept_rows: u64,
}

impl<'a, const H: usize> ComboScanner<'a, H> {
    /// Create a scanner positioned at combination rank `start`.
    ///
    /// `tumor_mask`, when given, restricts TP counting to active columns.
    ///
    /// # Panics
    /// Panics if the matrices disagree on gene count or `H > G`.
    #[must_use]
    pub fn new(
        tumor: &'a BitMatrix,
        normal: &'a BitMatrix,
        tumor_mask: Option<&'a [u64]>,
        alpha: Alpha,
        start: u64,
    ) -> Self {
        Self::build(tumor, normal, tumor_mask, alpha, start, None)
    }

    /// [`Self::new`] scanning through per-gene skip lists: partial ANDs are
    /// kept compacted and all-zero words are never touched. Bit-identical
    /// to the dense scanner (zero words contribute nothing to any AND or
    /// popcount); [`Self::words_skipped`] reports the saved word traffic.
    ///
    /// The indexes must have been built from exactly these matrices.
    ///
    /// # Panics
    /// Panics if the matrices disagree on gene count or `H > G`.
    #[must_use]
    pub fn with_skip(
        tumor: &'a BitMatrix,
        normal: &'a BitMatrix,
        tumor_mask: Option<&'a [u64]>,
        alpha: Alpha,
        start: u64,
        skip: (&'a SkipIndex, &'a SkipIndex),
    ) -> Self {
        Self::build(tumor, normal, tumor_mask, alpha, start, Some(skip))
    }

    fn build(
        tumor: &'a BitMatrix,
        normal: &'a BitMatrix,
        tumor_mask: Option<&'a [u64]>,
        alpha: Alpha,
        start: u64,
        skip: Option<(&'a SkipIndex, &'a SkipIndex)>,
    ) -> Self {
        assert_eq!(tumor.n_genes(), normal.n_genes(), "gene universes differ");
        let g = tumor.n_genes() as u32;
        assert!(H as u32 <= g, "H = {H} exceeds G = {g}");
        let sparse = skip.is_some();
        let dense_alloc = |words: usize| {
            if sparse {
                Vec::new()
            } else {
                vec![vec![0; words]; H]
            }
        };
        let sparse_idx = |words: usize| {
            if sparse {
                vec![Vec::with_capacity(words); H]
            } else {
                Vec::new()
            }
        };
        let sparse_val = |words: usize| {
            if sparse {
                vec![Vec::with_capacity(words); H]
            } else {
                Vec::new()
            }
        };
        let mut s = ComboScanner {
            tumor,
            normal,
            tumor_mask,
            alpha,
            g,
            n_normal: normal.n_samples() as u32,
            partial_t: dense_alloc(tumor.words_per_row()),
            partial_n: dense_alloc(normal.words_per_row()),
            skip,
            sp_idx_t: sparse_idx(tumor.words_per_row()),
            sp_val_t: sparse_val(tumor.words_per_row()),
            sp_idx_n: sparse_idx(normal.words_per_row()),
            sp_val_n: sparse_val(normal.words_per_row()),
            words_skipped: 0,
            pop_t: [0; H],
            pop_n: [0; H],
            combo: unrank_tuple::<H>(start),
            // Sweeping needs a fixed level-1 partial above the run; H = 1
            // has no such level, so it always steps.
            sweep_width: if H >= 2 { kernel::SWEEP_BLOCK } else { 1 },
            block_sweeps: 0,
            swept_rows: 0,
        };
        s.rebuild_from(H - 1);
        s
    }

    /// All-zero words the sparse path skipped so far (0 for dense scans).
    #[must_use]
    pub fn words_skipped(&self) -> u64 {
        self.words_skipped
    }

    /// Block-kernel invocations made so far (0 when stepping).
    #[must_use]
    pub fn block_sweeps(&self) -> u64 {
        self.block_sweeps
    }

    /// Candidate gene rows scored through the block kernel so far.
    #[must_use]
    pub fn swept_rows(&self) -> u64 {
        self.swept_rows
    }

    /// Cap the rows per level-0 block-kernel call. `width <= 1` disables the
    /// sweep (the stepping reference path); anything larger is clamped to
    /// [`kernel::SWEEP_BLOCK`]. The scanned results are bit-identical at
    /// every width.
    pub fn set_sweep_width(&mut self, width: usize) {
        let was_sweeping = self.sweep_enabled();
        self.sweep_width = if H >= 2 {
            width.clamp(1, kernel::SWEEP_BLOCK)
        } else {
            1
        };
        if was_sweeping && !self.sweep_enabled() {
            // Sweeping leaves the level-0 partial stale (it scores candidate
            // rows straight off level 1); stepping reads it, so refresh.
            self.rebuild_level(0);
        }
    }

    #[inline]
    fn sweep_enabled(&self) -> bool {
        H >= 2 && self.sweep_width > 1
    }

    /// Reposition the scanner at combination rank `start`, reusing every
    /// allocation. Equivalent to building a fresh scanner at `start` (the
    /// accumulated counters are deliberately kept — harvest them once at
    /// the end of a worker's life, not per block).
    pub fn reseek(&mut self, start: u64) {
        self.combo = unrank_tuple::<H>(start);
        self.rebuild_from(H - 1);
    }

    /// Recompute partial ANDs (and their popcounts) for levels `t..=0` after
    /// `combo[t..]` changed. While sweeping, level 0 is left untouched — the
    /// sweep scores candidate rows straight off the level-1 partial, so
    /// rebuilding the leaf would be pure waste (build and every per-block
    /// re-seek would pay it).
    fn rebuild_from(&mut self, t: usize) {
        let floor = usize::from(self.sweep_enabled());
        for level in (floor..=t).rev() {
            self.rebuild_level(level);
        }
    }

    /// Recompute one level's partial AND, assuming the level above is fresh.
    fn rebuild_level(&mut self, level: usize) {
        if self.skip.is_some() {
            self.rebuild_level_sparse(level);
            return;
        }
        let gene = self.combo[level] as usize;
        if level == H - 1 {
            let row_t = self.tumor.row(gene);
            match self.tumor_mask {
                Some(m) => {
                    self.pop_t[level] = kernel::and_store_popcount(
                        &mut self.partial_t[level],
                        row_t,
                        &m[..row_t.len()],
                    );
                }
                None => {
                    self.partial_t[level].copy_from_slice(row_t);
                    self.pop_t[level] = kernel::popcount(row_t);
                }
            }
            let row_n = self.normal.row(gene);
            self.partial_n[level].copy_from_slice(row_n);
            self.pop_n[level] = kernel::popcount(row_n);
        } else {
            let (lower_t, upper_t) = self.partial_t.split_at_mut(level + 1);
            self.pop_t[level] =
                kernel::and_store_popcount(&mut lower_t[level], self.tumor.row(gene), &upper_t[0]);
            let (lower_n, upper_n) = self.partial_n.split_at_mut(level + 1);
            self.pop_n[level] =
                kernel::and_store_popcount(&mut lower_n[level], self.normal.row(gene), &upper_n[0]);
        }
    }

    /// Sparse [`Self::rebuild_level`]: the top level seeds its compact
    /// partial from the gene's skip list (folding in the mask); lower
    /// levels AND their row into the level above's compact support via
    /// [`kernel::and_compact`], dropping words that go to zero.
    fn rebuild_level_sparse(&mut self, level: usize) {
        let gene = self.combo[level] as usize;
        let (t_skip, n_skip) = self.skip.expect("sparse rebuild without skip index");
        let wt = self.tumor.words_per_row() as u64;
        let wn = self.normal.words_per_row() as u64;
        if level == H - 1 {
            let row = self.tumor.row(gene);
            let list = t_skip.row(gene);
            let idx = &mut self.sp_idx_t[level];
            let val = &mut self.sp_val_t[level];
            idx.clear();
            val.clear();
            let mut pop = 0u32;
            match self.tumor_mask {
                Some(m) => {
                    for &wi in list {
                        let w = row[wi as usize] & m[wi as usize];
                        if w != 0 {
                            idx.push(wi);
                            val.push(w);
                            pop += w.count_ones();
                        }
                    }
                }
                None => {
                    for &wi in list {
                        let w = row[wi as usize];
                        idx.push(wi);
                        val.push(w);
                        pop += w.count_ones();
                    }
                }
            }
            self.pop_t[level] = pop;
            self.words_skipped += wt - list.len() as u64;

            let row = self.normal.row(gene);
            let list = n_skip.row(gene);
            let idx = &mut self.sp_idx_n[level];
            let val = &mut self.sp_val_n[level];
            idx.clear();
            val.clear();
            let mut pop = 0u32;
            for &wi in list {
                let w = row[wi as usize];
                idx.push(wi);
                val.push(w);
                pop += w.count_ones();
            }
            self.pop_n[level] = pop;
            self.words_skipped += wn - list.len() as u64;
        } else {
            let (lo_i, hi_i) = self.sp_idx_t.split_at_mut(level + 1);
            let (lo_v, hi_v) = self.sp_val_t.split_at_mut(level + 1);
            self.pop_t[level] = kernel::and_compact(
                &hi_i[0],
                &hi_v[0],
                self.tumor.row(gene),
                &mut lo_i[level],
                &mut lo_v[level],
            );
            self.words_skipped += wt - hi_i[0].len() as u64;

            let (lo_i, hi_i) = self.sp_idx_n.split_at_mut(level + 1);
            let (lo_v, hi_v) = self.sp_val_n.split_at_mut(level + 1);
            self.pop_n[level] = kernel::and_compact(
                &hi_i[0],
                &hi_v[0],
                self.normal.row(gene),
                &mut lo_i[level],
                &mut lo_v[level],
            );
            self.words_skipped += wn - hi_i[0].len() as u64;
        }
    }

    /// Score the current combination (O(1): popcounts are maintained by the
    /// rebuild kernel).
    #[inline]
    fn score_current(&self) -> Scored<H> {
        let tp = self.pop_t[0];
        let tn = self.n_normal - self.pop_n[0];
        Scored {
            score: self.alpha.score(tp, tn),
            tp,
            tn,
            genes: self.combo,
        }
    }

    /// Exclusive upper end of the current level-0 sibling run: the lowest
    /// coordinate sweeps `[combo[0], combo[1])` while every higher
    /// coordinate stays fixed. Only meaningful for `H >= 2`.
    #[inline]
    fn level0_limit(&self) -> u32 {
        self.combo[1]
    }

    /// Score the next `n` level-0 siblings `combo[0], combo[0]+1, ..` against
    /// the fixed level-1 partial through the gene-tiled block kernels,
    /// feeding each [`Scored`] to `f` in ascending gene order — exactly the
    /// colex enumeration order, so `max_det`/top-K folds over the callbacks
    /// tie-break identically to stepping. Leaves `combo[0]` at the last gene
    /// swept; the level-0 partial is left stale (sweeping never reads it).
    ///
    /// `n` must be at least 1 and not overrun the run
    /// (`combo[0] + n <= combo[1]`).
    fn sweep_level0<F: FnMut(Scored<H>)>(&mut self, n: usize, mut f: F) {
        debug_assert!(H >= 2);
        debug_assert!(n >= 1 && self.combo[0] + n as u32 <= self.level0_limit());
        let lo = self.combo[0] as usize;
        let tumor = self.tumor;
        let normal = self.normal;
        let sparse = self.skip.is_some();
        // Sparse accounting: each swept candidate would have touched every
        // word of both matrices in a dense rebuild, but only the compact
        // level-1 support is read.
        let skipped_per_row = if sparse {
            (tumor.words_per_row() as u64 - self.sp_idx_t[1].len() as u64)
                + (normal.words_per_row() as u64 - self.sp_idx_n[1].len() as u64)
        } else {
            0
        };
        let mut done = 0usize;
        while done < n {
            let chunk = (n - done).min(self.sweep_width);
            let base = lo + done;
            // Stream the *next* chunk's contiguous row slab toward L1 while
            // this chunk is being scored (MemOpt row prefetching); the block
            // kernels additionally prefetch row-to-row inside the chunk.
            let next_end = (base + 2 * chunk).min(lo + n);
            if base + chunk < next_end {
                kernel::prefetch_words(tumor.rows_slab(base + chunk, next_end));
            }
            let mut rows_t: [&[u64]; kernel::SWEEP_BLOCK] = [&[]; kernel::SWEEP_BLOCK];
            let mut rows_n: [&[u64]; kernel::SWEEP_BLOCK] = [&[]; kernel::SWEEP_BLOCK];
            for r in 0..chunk {
                rows_t[r] = tumor.row(base + r);
                rows_n[r] = normal.row(base + r);
            }
            let mut out_t = [0u32; kernel::SWEEP_BLOCK];
            let mut out_n = [0u32; kernel::SWEEP_BLOCK];
            if sparse {
                kernel::and_compact_popcount_block(
                    &self.sp_idx_t[1],
                    &self.sp_val_t[1],
                    &rows_t[..chunk],
                    &mut out_t,
                );
                kernel::and_compact_popcount_block(
                    &self.sp_idx_n[1],
                    &self.sp_val_n[1],
                    &rows_n[..chunk],
                    &mut out_n,
                );
                self.words_skipped += chunk as u64 * skipped_per_row;
            } else {
                kernel::and_popcount_block(&self.partial_t[1], &rows_t[..chunk], &mut out_t);
                kernel::and_popcount_block(&self.partial_n[1], &rows_n[..chunk], &mut out_n);
            }
            self.block_sweeps += 1;
            self.swept_rows += chunk as u64;
            for r in 0..chunk {
                let mut genes = self.combo;
                genes[0] = (base + r) as u32;
                let tp = out_t[r];
                let tn = self.n_normal - out_n[r];
                f(Scored {
                    score: self.alpha.score(tp, tn),
                    tp,
                    tn,
                    genes,
                });
            }
            done += chunk;
        }
        self.combo[0] = (lo + n - 1) as u32;
    }

    /// Scan `count` combinations from the current position into the top-K
    /// collector `acc` — the one scan loop. An argmax is `TopK::new(1)`.
    ///
    /// Each level-0 sibling run `[combo[0], combo[1])` is scored as a block
    /// sweep (`sweep_level0`) or, with sweeping off (and always for
    /// `H = 1`), one combination at a time. Between runs the scanner
    /// advances in colex order; with `prune` it checks the F upper bound at
    /// every rebuilt level `>= 1` and skips the whole subtree when the bound
    /// cannot enter the collector. Level-0 siblings are never individually
    /// pruned, so sweeping and stepping make identical cut decisions.
    ///
    /// The cut requires a *full* heap: with K entries, each scoring at
    /// least the floor and each colex-earlier than the subtree (callers
    /// scan monotonically increasing ranges into one collector), every
    /// subtree member whose bound does not exceed the floor loses the entry
    /// rule to all K incumbents — so the result is identical to
    /// [`crate::reduce::top_k`] over the range. `shared`, when given,
    /// carries the highest full-heap floor published by any worker (or a
    /// seed witnessed by K real combinations); since K combinations
    /// elsewhere score at least it, the shared cut is strict. Every
    /// enumerated combination lands in `stats.scored` or
    /// `stats.pruned_combos`.
    pub fn scan(
        &mut self,
        count: u64,
        acc: &mut TopK<H>,
        prune: bool,
        shared: Option<&AtomicU64>,
        stats: &mut ScanStats,
    ) {
        let sweep = self.sweep_enabled();
        let mut remaining = count;
        while remaining > 0 {
            let n = if sweep {
                let run = u64::from(self.level0_limit() - self.combo[0]);
                let n = run.min(remaining);
                self.sweep_level0(n as usize, |s| offer(acc, shared, s));
                n
            } else {
                offer(acc, shared, self.score_current());
                1
            };
            stats.scored += n;
            remaining -= n;
            if remaining == 0 || !self.advance(&mut remaining, acc, prune, shared, stats) {
                break;
            }
        }
    }

    /// Advance to the next combination whose subtree survives the cut (any
    /// combination when `!prune`). Decrements `remaining` by the
    /// combinations each pruned subtree would have scored (clamped so a
    /// subtree overhanging the caller's range never over-counts). Returns
    /// `false` when the enumeration is exhausted; `remaining == 0` on return
    /// means the range ended inside a pruned subtree.
    ///
    /// Rebuilds levels down to 1 while sweeping (the sweep scores candidate
    /// rows straight off the level-1 partial) and down to 0 when stepping
    /// (the leaf partial feeds [`Self::score_current`]).
    fn advance(
        &mut self,
        remaining: &mut u64,
        acc: &TopK<H>,
        prune: bool,
        shared: Option<&AtomicU64>,
        stats: &mut ScanStats,
    ) -> bool {
        let floor = usize::from(self.sweep_enabled());
        // Smallest level allowed to move; pruning at level `t` resumes the
        // colex enumeration at the first combination past the subtree, which
        // is exactly "advance at level >= t".
        let mut from = 0usize;
        'advance: loop {
            let Some(moved) = (from..H).find(|&t| {
                let limit = if t + 1 < H { self.combo[t + 1] } else { self.g };
                self.combo[t] + 1 < limit
            }) else {
                return false;
            };
            self.combo[moved] += 1;
            // Reset all lower coordinates to their minimal values.
            for (low, c) in self.combo.iter_mut().enumerate().take(moved) {
                *c = low as u32;
            }
            // Rebuild top-down, checking the F upper bound at every level
            // above the leaves. After the advance, coordinates below `level`
            // are minimal, so the C(c[level], level) combinations of the
            // subtree are exactly the next ones in colex order.
            for level in (floor..=moved).rev() {
                self.rebuild_level(level);
                if !prune || level == 0 {
                    continue;
                }
                let bound = self.alpha.score(self.pop_t[level], self.n_normal);
                let cut = (acc.is_full() && bound <= acc.floor_score())
                    || shared.is_some_and(|sh| bound < sh.load(Ordering::Relaxed));
                if cut {
                    let subtree = binomial(u64::from(self.combo[level]), level as u64);
                    let skipped = subtree.min(*remaining);
                    stats.pruned_subtrees += 1;
                    stats.pruned_combos += skipped;
                    *remaining -= skipped;
                    if *remaining == 0 {
                        return true;
                    }
                    from = level;
                    continue 'advance;
                }
            }
            return true;
        }
    }
}

/// Offer one scored combination to the collector and, once the heap is
/// full, publish its floor to the shared bound.
#[inline]
fn offer<const H: usize>(acc: &mut TopK<H>, shared: Option<&AtomicU64>, s: Scored<H>) {
    if acc.offer(s) && acc.is_full() {
        if let Some(sh) = shared {
            sh.fetch_max(acc.floor_score(), Ordering::Relaxed);
        }
    }
}

/// The per-worker scan loop: build one scanner at the first range with
/// `build`, [`ComboScanner::reseek`] it for every later range (range
/// turnover must not re-allocate the per-level partials), scan each range
/// into `acc`, and harvest the scanner's counters once at the end.
///
/// `ranges` must be ascending and disjoint so every incumbent in `acc` is
/// colex-earlier than the range being scanned (the cut rule's premise).
/// The returned stats count each range as a block and every block beyond
/// the first as a steal. Serves both the [`BlockQueue`] workers of
/// [`best_combination`] and the cluster ranks' λ-slab scans.
pub fn scan_ranges<'a, const H: usize>(
    ranges: impl IntoIterator<Item = Range<u64>>,
    build: impl Fn(u64) -> ComboScanner<'a, H>,
    acc: &mut TopK<H>,
    prune: bool,
    shared: Option<&AtomicU64>,
) -> ScanStats {
    let mut st = ScanStats::default();
    let mut scanner: Option<ComboScanner<'a, H>> = None;
    for range in ranges {
        st.blocks += 1;
        let sc = match scanner.as_mut() {
            Some(sc) => {
                sc.reseek(range.start);
                sc
            }
            None => {
                st.scanner_builds += 1;
                scanner.insert(build(range.start))
            }
        };
        sc.scan(range.end - range.start, acc, prune, shared, &mut st);
    }
    if let Some(sc) = &scanner {
        st.words_skipped += sc.words_skipped();
        st.block_sweeps += sc.block_sweeps();
        st.swept_rows += sc.swept_rows();
    }
    st.steals = st.blocks.saturating_sub(1);
    st
}

/// Resolve [`GreedyConfig::sparse`] for a scan over these matrices: build
/// the per-gene skip indexes (once per scan; splicing invalidates them) and
/// keep them only when forced on or the zero-word fraction clears
/// [`SPARSE_AUTO_THRESHOLD`].
fn build_skip(
    mode: SparseMode,
    tumor: &BitMatrix,
    normal: &BitMatrix,
) -> Option<(SkipIndex, SkipIndex)> {
    if mode == SparseMode::Off {
        return None;
    }
    let ts = SkipIndex::build(tumor);
    let ns = SkipIndex::build(normal);
    let frac = (ts.zero_word_fraction() + ns.zero_word_fraction()) / 2.0;
    (mode == SparseMode::On || frac >= SPARSE_AUTO_THRESHOLD).then_some((ts, ns))
}

/// Scan all `C(G,H)` combinations for the global top-`k` (an argmax is
/// `k = 1`: the answer is [`Frontier::best`]) and report how the scan got
/// there.
///
/// With `cfg.parallel` a [`BlockQueue`] λ-cursor hands guided-size blocks to
/// one worker per core; each worker threads its own [`TopK`] through
/// consecutive (colex-ordered) blocks via [`scan_ranges`] and publishes its
/// full-heap floor to a shared atomic that tightens every worker's pruning
/// bound. A single worker scans the whole space as one block. Per-worker
/// shards merge with [`Frontier::from_shards`] (the
/// [`crate::reduce::merge_top_k`] rule), so the result is bit-identical to
/// the sequential scan regardless of schedule, and with `cfg.prune` off it
/// is bit-identical to the exhaustive reference.
///
/// `seed` hot-starts the shared cut. It must be witnessed by `k` current
/// combinations scoring at least it (the rescored frontier's K-th score
/// qualifies) or be 0; seeding never changes the result.
///
/// # Panics
/// Panics if `k == 0`.
#[must_use]
pub fn best_combination<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    tumor_mask: Option<&[u64]>,
    cfg: &GreedyConfig,
    k: usize,
    seed: u64,
) -> (Frontier<H>, ScanStats) {
    assert!(k >= 1, "a scan needs a collector of at least one entry");
    let g = tumor.n_genes() as u64;
    let total = binomial(g, H as u64);
    let mut stats = ScanStats::default();
    if total == 0 {
        return (Frontier::new(Vec::new(), 0), stats);
    }
    // Never spawn more workers than there are min-grain blocks of work.
    let workers = if cfg.parallel {
        let cap = usize::try_from(total.div_ceil(par::DEFAULT_MIN_GRAIN)).unwrap_or(usize::MAX);
        par::default_workers().min(cap).max(1)
    } else {
        1
    };
    let skip = build_skip(cfg.sparse, tumor, normal);
    let make_scanner = |start: u64| {
        let mut sc = match &skip {
            Some((ts, ns)) => {
                ComboScanner::<H>::with_skip(tumor, normal, tumor_mask, cfg.alpha, start, (ts, ns))
            }
            None => ComboScanner::<H>::new(tumor, normal, tumor_mask, cfg.alpha, start),
        };
        if !cfg.block_sweep {
            sc.set_sweep_width(1);
        }
        sc
    };
    // Align λ-boundaries to the sweep chunk so block handoffs land on
    // whole sweep-kernel chunks (ragged tails only at run/range ends).
    let align = if cfg.block_sweep {
        kernel::SWEEP_BLOCK as u64
    } else {
        1
    };
    let grain = if workers == 1 {
        total
    } else {
        par::DEFAULT_MIN_GRAIN
    };
    let queue = BlockQueue::with_grain_aligned(total, workers, grain, align);
    let shared = AtomicU64::new(seed);
    let results = par::run_workers(workers, |_| {
        let mut acc = TopK::new(k);
        let blocks = std::iter::from_fn(|| queue.next()).map(|(lo, hi)| lo..hi);
        let st = scan_ranges(blocks, make_scanner, &mut acc, cfg.prune, Some(&shared));
        (acc.into_sorted(), st)
    });
    let mut shards = Vec::with_capacity(results.len());
    for (shard, st) in results {
        stats.merge(&st);
        shards.push(shard);
    }
    // Block churn must never re-allocate scanners: one build per worker.
    debug_assert!(
        stats.scanner_builds <= workers as u64,
        "{} scanner builds for {workers} workers",
        stats.scanner_builds
    );
    (Frontier::from_shards(&shards, k, total), stats)
}

/// Run the full greedy weighted-set-cover discovery for `H`-hit
/// combinations.
#[must_use]
pub fn discover<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
) -> GreedyResult<H> {
    discover_obs(tumor, normal, cfg, &Obs::disabled())
}

/// [`discover`] with per-iteration observability.
///
/// Emits one `greedy_iter` point per iteration (`scan_ns`, `combos_scored`,
/// `combos_per_sec`, `splice_ns`, coverage progress) plus `greedy.*`
/// counters, all under a `discover` span. With a disabled [`Obs`] the
/// instrumentation is branch-only and the selected combinations are
/// identical to [`discover`] by construction.
#[must_use]
pub fn discover_obs<const H: usize>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
    obs: &Obs,
) -> GreedyResult<H> {
    if cfg.kernelize {
        // Reduce first, run the greedy loop on the reduced instance, and
        // un-map. Bit-identical panels either way (see `crate::kernelize`).
        return crate::kernelize::discover_kernelized_obs::<H>(tumor, normal, cfg, obs);
    }
    let _run_span = obs.span("discover");
    let n_tumor = tumor.n_samples() as u32;
    let n_normal = normal.n_samples() as u32;
    let mut work_tumor = tumor.clone();
    let mut mask = tumor.full_mask();
    let mut remaining = n_tumor;
    let mut combinations = Vec::new();
    let mut iterations = Vec::new();
    // Lazy-greedy frontier, carried across iterations (see `frontier`).
    let mut frontier_state: Option<Frontier<H>> = None;

    while remaining > 0 {
        if cfg.max_combinations != 0 && combinations.len() >= cfg.max_combinations {
            break;
        }
        let iter_span = obs.span("greedy_iter");
        let mask_arg = match cfg.exclusion {
            Exclusion::BitSplice => None,
            Exclusion::Mask => Some(mask.as_slice()),
        };
        let combos_scored = binomial(work_tumor.n_genes() as u64, H as u64);
        let mut frontier_hit = false;
        let mut frontier_rescored = 0u64;
        let scan_start = Instant::now();
        // Rescore the retained top-K; a strict floor clear proves the global
        // argmax without scanning. On a miss (or with the frontier off)
        // scan, seeding the shared cut from the rescored K-th score
        // (witnessed by K current combinations).
        let mut seed = 0u64;
        let mut hit = None;
        if let Some(fr) = frontier_state.as_ref() {
            let r = fr.rescore(&work_tumor, normal, mask_arg, cfg.alpha);
            frontier_rescored = r.rescored;
            if fr.is_hit(&r.best) {
                frontier_hit = true;
                hit = Some(r.best);
            } else {
                seed = r.kth_score;
            }
        }
        let (best, scan_stats) = match hit {
            Some(best) => (best, ScanStats::default()),
            None => {
                let k = cfg.frontier_k.max(1);
                let (fr, st) = best_combination::<H>(&work_tumor, normal, mask_arg, cfg, k, seed);
                let best = fr.best();
                if cfg.frontier_k > 0 {
                    frontier_state = Some(fr);
                }
                (best, st)
            }
        };
        let scan_ns = u64::try_from(scan_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if best.tp == 0 {
            // No combination covers any remaining tumor sample: stall.
            drop(iter_span);
            break;
        }
        let newly = best.tp;
        remaining -= newly;
        let words = work_tumor.words_per_row();
        let splice_start = Instant::now();
        let mut splice_words = 0u64;
        match cfg.exclusion {
            Exclusion::BitSplice => {
                let cov = work_tumor.cover_mask(&best.genes);
                let mut keep = work_tumor.full_mask();
                for (k, c) in keep.iter_mut().zip(cov.iter()) {
                    *k &= !c;
                }
                splice_words = work_tumor.splice_words_written(&keep);
                work_tumor = work_tumor.splice_columns(&keep);
            }
            Exclusion::Mask => {
                let cov = work_tumor.cover_mask(&best.genes);
                for (m, c) in mask.iter_mut().zip(cov.iter()) {
                    *m &= !c;
                }
            }
        }
        let splice_ns = u64::try_from(splice_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if obs.is_enabled() {
            // Throughput of the combinations actually evaluated: a pruned
            // scan counts its scored ones, a frontier hit none.
            let combos_per_sec = if scan_ns == 0 {
                0.0
            } else {
                scan_stats.scored as f64 / (scan_ns as f64 / 1e9)
            };
            obs.point(
                "greedy_iter",
                &[
                    ("iter", iterations.len().into()),
                    ("scan_ns", scan_ns.into()),
                    ("combos_scored", combos_scored.into()),
                    ("combos_per_sec", combos_per_sec.into()),
                    ("exclusion", cfg.exclusion.name().into()),
                    ("splice_ns", splice_ns.into()),
                    ("splice_words", splice_words.into()),
                    ("newly_covered", u64::from(newly).into()),
                    ("remaining", u64::from(remaining).into()),
                    ("words_per_row", words.into()),
                    ("scan_scored", scan_stats.scored.into()),
                    ("pruned_combos", scan_stats.pruned_combos.into()),
                    ("pruned_subtrees", scan_stats.pruned_subtrees.into()),
                    ("steal_blocks", scan_stats.blocks.into()),
                    ("steals", scan_stats.steals.into()),
                    ("frontier_hit", u64::from(frontier_hit).into()),
                    ("frontier_rescored", frontier_rescored.into()),
                    ("words_skipped", scan_stats.words_skipped.into()),
                    ("block_sweeps", scan_stats.block_sweeps.into()),
                    ("swept_rows", scan_stats.swept_rows.into()),
                    ("kernel", kernel::active().name().into()),
                ],
            );
            obs.counter_add("greedy.iterations", 1);
            obs.counter_add("greedy.frontier_hits", u64::from(frontier_hit));
            obs.counter_add("greedy.frontier_rescored", frontier_rescored);
            obs.counter_add("greedy.full_rescans", u64::from(!frontier_hit));
            obs.counter_add("greedy.combos_scored", combos_scored);
            obs.counter_add("greedy.scan_scored", scan_stats.scored);
            obs.counter_add("greedy.pruned_combos", scan_stats.pruned_combos);
            obs.counter_add("greedy.pruned_subtrees", scan_stats.pruned_subtrees);
            obs.counter_add("greedy.steal_blocks", scan_stats.blocks);
            obs.counter_add("greedy.steals", scan_stats.steals);
            obs.counter_add("greedy.words_skipped", scan_stats.words_skipped);
            obs.counter_add("greedy.block_sweeps", scan_stats.block_sweeps);
            obs.counter_add("greedy.swept_rows", scan_stats.swept_rows);
            obs.counter_add(
                match kernel::active() {
                    kernel::Dispatch::Scalar => "greedy.dispatch_scalar",
                    kernel::Dispatch::Avx2 => "greedy.dispatch_avx2",
                    kernel::Dispatch::Avx512 => "greedy.dispatch_avx512",
                },
                1,
            );
            obs.counter_add("greedy.scan_ns", scan_ns);
            obs.counter_add("greedy.splice_ns", splice_ns);
            obs.counter_add("greedy.splice_words", splice_words);
        }
        drop(iter_span);
        iterations.push(IterationRecord {
            best,
            f: best.f_value(cfg.alpha, n_tumor, n_normal),
            newly_covered: newly,
            remaining,
            words_per_row: words,
        });
        combinations.push(best.genes);
    }

    GreedyResult {
        combinations,
        iterations,
        uncovered: remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::score_combo;

    /// The argmax through the one entry point (K = 1, unseeded).
    fn argmax<const H: usize>(
        t: &BitMatrix,
        n: &BitMatrix,
        mask: Option<&[u64]>,
        cfg: &GreedyConfig,
    ) -> Scored<H> {
        argmax_stats(t, n, mask, cfg).0
    }

    fn argmax_stats<const H: usize>(
        t: &BitMatrix,
        n: &BitMatrix,
        mask: Option<&[u64]>,
        cfg: &GreedyConfig,
    ) -> (Scored<H>, ScanStats) {
        let (fr, st) = best_combination::<H>(t, n, mask, cfg, 1, 0);
        (fr.best(), st)
    }

    /// Exhaustive (unpruned) argmax of the next `count` combinations.
    fn scan_best<const H: usize>(sc: &mut ComboScanner<'_, H>, count: u64) -> Scored<H> {
        let mut acc = TopK::new(1);
        sc.scan(count, &mut acc, false, None, &mut ScanStats::default());
        acc.into_sorted()[0]
    }

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

    fn brute_best<const H: usize>(t: &BitMatrix, n: &BitMatrix, mask: Option<&[u64]>) -> Scored<H> {
        let g = t.n_genes() as u64;
        let mut best = Scored::NEG_INFINITY;
        for l in 0..binomial(g, H as u64) {
            let genes = unrank_tuple::<H>(l);
            let mut s = score_combo(t, n, &genes, Alpha::PAPER);
            if let Some(m) = mask {
                // Recount TP under the mask.
                let cov = t.cover_mask(&genes);
                let tp: u32 = cov.iter().zip(m).map(|(c, mm)| (c & mm).count_ones()).sum();
                s = Scored {
                    score: Alpha::PAPER.score(tp, s.tn),
                    tp,
                    tn: s.tn,
                    genes,
                };
            }
            best = best.max_det(s);
        }
        best
    }

    #[test]
    fn scanner_matches_brute_force_h2_h3_h4() {
        let (t, n) = lcg_matrices(11, 100, 60, 5);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        assert_eq!(
            argmax::<2>(&t, &n, None, &cfg),
            brute_best::<2>(&t, &n, None)
        );
        assert_eq!(
            argmax::<3>(&t, &n, None, &cfg),
            brute_best::<3>(&t, &n, None)
        );
        assert_eq!(
            argmax::<4>(&t, &n, None, &cfg),
            brute_best::<4>(&t, &n, None)
        );
    }

    #[test]
    fn parallel_equals_sequential() {
        let (t, n) = lcg_matrices(13, 128, 64, 21);
        let seq = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let par = GreedyConfig {
            parallel: true,
            ..GreedyConfig::default()
        };
        for _ in 0..2 {
            assert_eq!(
                argmax::<3>(&t, &n, None, &par),
                argmax::<3>(&t, &n, None, &seq)
            );
        }
    }

    #[test]
    fn scanner_respects_mask() {
        let (t, n) = lcg_matrices(9, 70, 40, 2);
        // Mask off the first word of samples.
        let mut mask = t.full_mask();
        mask[0] = 0;
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let got = argmax::<2>(&t, &n, Some(&mask), &cfg);
        assert_eq!(got, brute_best::<2>(&t, &n, Some(&mask)));
    }

    #[test]
    fn scanner_chunked_start_positions() {
        // Starting mid-range must continue the same enumeration.
        let (t, n) = lcg_matrices(10, 64, 32, 8);
        let total = binomial(10, 3);
        let mut full = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let whole = scan_best(&mut full, total);
        let mut a = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let first = scan_best(&mut a, total / 2);
        let mut b = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, total / 2);
        let second = scan_best(&mut b, total - total / 2);
        assert_eq!(first.max_det(second), whole);
    }

    #[test]
    fn sparse_scan_is_bit_identical_to_dense() {
        use crate::bitmat::SkipIndex;
        for seed in [4u64, 19, 73] {
            let (t, n) = lcg_matrices(12, 200, 130, seed);
            let total = binomial(12, 3);
            let ts = SkipIndex::build(&t);
            let ns = SkipIndex::build(&n);
            let mut dense = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
            let mut sparse =
                ComboScanner::<3>::with_skip(&t, &n, None, Alpha::PAPER, 0, (&ts, &ns));
            assert_eq!(scan_best(&mut sparse, total), scan_best(&mut dense, total));
            // Under a mask too.
            let mut mask = t.full_mask();
            mask[0] &= 0x0f0f_0f0f_0f0f_0f0f;
            let mut dense = ComboScanner::<3>::new(&t, &n, Some(&mask), Alpha::PAPER, 0);
            let mut sparse =
                ComboScanner::<3>::with_skip(&t, &n, Some(&mask), Alpha::PAPER, 0, (&ts, &ns));
            assert_eq!(scan_best(&mut sparse, total), scan_best(&mut dense, total));
        }
    }

    #[test]
    fn sparse_mode_on_matches_off_end_to_end() {
        let (t, n) = lcg_matrices(14, 150, 90, 33);
        let base = GreedyConfig {
            parallel: false,
            sparse: SparseMode::Off,
            ..GreedyConfig::default()
        };
        let on = GreedyConfig {
            sparse: SparseMode::On,
            ..base
        };
        let want = discover::<3>(&t, &n, &base);
        let got = discover::<3>(&t, &n, &on);
        assert_eq!(want.combinations, got.combinations);
        assert_eq!(want.uncovered, got.uncovered);
        // On a genuinely sparse input the sparse path must skip zero words
        // (and Auto must pick it up).
        let mut st = BitMatrix::zeros(8, 640);
        let mut sn = BitMatrix::zeros(8, 640);
        for g in 0..8 {
            st.set(g, g * 70, true);
            st.set(g, g * 70 + 3, true);
            sn.set(g, 639 - g, true);
        }
        let auto = GreedyConfig {
            sparse: SparseMode::Auto,
            ..base
        };
        let (_, stats) = argmax_stats::<3>(&st, &sn, None, &auto);
        assert!(stats.words_skipped > 0, "stats: {stats:?}");
    }

    #[test]
    fn pruned_scan_is_bit_identical_to_unpruned() {
        for seed in [3u64, 17, 99] {
            let (t, n) = lcg_matrices(12, 120, 60, seed);
            let unpruned = GreedyConfig {
                parallel: false,
                prune: false,
                ..GreedyConfig::default()
            };
            let pruned = GreedyConfig {
                parallel: false,
                prune: true,
                ..GreedyConfig::default()
            };
            let (want, base) = argmax_stats::<3>(&t, &n, None, &unpruned);
            let (got, st) = argmax_stats::<3>(&t, &n, None, &pruned);
            assert_eq!(got, want);
            // Pruning must account for every enumerated combination exactly.
            assert_eq!(st.scored + st.pruned_combos, base.scored);
        }
    }

    #[test]
    fn pruned_scan_identical_under_mask() {
        let (t, n) = lcg_matrices(10, 90, 45, 41);
        let mut mask = t.full_mask();
        mask[0] &= 0x00ff_00ff_00ff_00ff;
        let unpruned = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let pruned = GreedyConfig {
            parallel: false,
            prune: true,
            ..GreedyConfig::default()
        };
        assert_eq!(
            argmax::<3>(&t, &n, Some(&mask), &pruned),
            argmax::<3>(&t, &n, Some(&mask), &unpruned)
        );
    }

    #[test]
    fn pruned_scan_handles_all_zero_tumor() {
        // Every combination has TP = 0, so every subtree bound is 0 and the
        // scan prunes to a single scored combination — which must still be
        // the colex-first one the unpruned scan returns by tie-break.
        let t = BitMatrix::zeros(8, 50);
        let (_, n) = lcg_matrices(8, 50, 30, 7);
        let unpruned = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let pruned = GreedyConfig {
            parallel: false,
            prune: true,
            ..GreedyConfig::default()
        };
        let want = argmax::<3>(&t, &n, None, &unpruned);
        let (got, st) = argmax_stats::<3>(&t, &n, None, &pruned);
        assert_eq!(got, want);
        assert_eq!(got.genes, [0, 1, 2]);
        assert_eq!(st.scored, 1, "everything after the first combo prunes");
    }

    #[test]
    fn pruned_scan_range_splits_compose() {
        // Pruned scans over [0, k) and [k, total) with the collector
        // threaded through must equal one scan over [0, total): the
        // block-queue contract.
        let (t, n) = lcg_matrices(11, 80, 40, 23);
        let total = binomial(11, 3);
        let mut whole = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let mut want = TopK::new(1);
        whole.scan(total, &mut want, true, None, &mut ScanStats::default());
        let want = want.into_sorted();
        for k in [1, 7, total / 3, total / 2, total - 1] {
            let mut st = ScanStats::default();
            let mut acc = TopK::new(1);
            let mut a = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
            a.scan(k, &mut acc, true, None, &mut st);
            let mut b = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, k);
            b.scan(total - k, &mut acc, true, None, &mut st);
            assert_eq!(acc.into_sorted(), want, "split at {k}");
            assert_eq!(st.scored + st.pruned_combos, total);
        }
    }

    #[test]
    fn parallel_pruned_equals_sequential_unpruned() {
        let (t, n) = lcg_matrices(13, 128, 64, 55);
        let reference = GreedyConfig {
            parallel: false,
            prune: false,
            ..GreedyConfig::default()
        };
        let accelerated = GreedyConfig {
            parallel: true,
            prune: true,
            ..GreedyConfig::default()
        };
        let want = argmax::<3>(&t, &n, None, &reference);
        for _ in 0..3 {
            assert_eq!(argmax::<3>(&t, &n, None, &accelerated), want);
        }
    }

    #[test]
    fn discover_agrees_across_all_scan_modes() {
        let (t, n) = lcg_matrices(10, 150, 80, 61);
        let reference = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                prune: false,
                ..GreedyConfig::default()
            },
        );
        for parallel in [false, true] {
            for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
                let got = discover::<2>(
                    &t,
                    &n,
                    &GreedyConfig {
                        parallel,
                        prune: true,
                        exclusion,
                        ..GreedyConfig::default()
                    },
                );
                assert_eq!(got.combinations, reference.combinations);
                assert_eq!(got.uncovered, reference.uncovered);
            }
        }
    }

    #[test]
    fn greedy_covers_all_tumors_on_easy_data() {
        // Plant two 2-hit combos that jointly cover everything.
        let mut t = BitMatrix::zeros(6, 80);
        let mut n = BitMatrix::zeros(6, 40);
        for s in 0..40 {
            t.set(0, s, true);
            t.set(1, s, true);
        }
        for s in 40..80 {
            t.set(2, s, true);
            t.set(3, s, true);
        }
        // Sprinkle normals with singleton mutations only.
        for s in 0..40 {
            n.set(4, s % 40, true);
        }
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(res.uncovered, 0);
        assert_eq!(res.combinations.len(), 2);
        let set: std::collections::HashSet<_> = res.combinations.iter().copied().collect();
        assert!(set.contains(&[0, 1]) && set.contains(&[2, 3]));
        assert!((res.coverage(80) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splice_and_mask_modes_select_identical_combinations() {
        let (t, n) = lcg_matrices(10, 150, 80, 33);
        let a = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::BitSplice,
                parallel: false,
                ..Default::default()
            },
        );
        let b = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::Mask,
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(a.combinations, b.combinations);
        assert_eq!(a.uncovered, b.uncovered);
        // Splicing shrinks rows over iterations; masking never does.
        let spliced_words: Vec<_> = a.iterations.iter().map(|r| r.words_per_row).collect();
        let masked_words: Vec<_> = b.iterations.iter().map(|r| r.words_per_row).collect();
        assert!(spliced_words.last().unwrap() <= spliced_words.first().unwrap());
        assert!(masked_words.iter().all(|&w| w == masked_words[0]));
    }

    #[test]
    fn greedy_iteration_records_are_consistent() {
        let (t, n) = lcg_matrices(8, 100, 50, 12);
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let mut covered = 0u32;
        for rec in &res.iterations {
            covered += rec.newly_covered;
            assert_eq!(rec.remaining, 100 - covered);
            assert!(rec.newly_covered > 0);
            assert!(rec.f > 0.0);
        }
        assert_eq!(res.uncovered, 100 - covered);
    }

    #[test]
    fn max_combinations_caps_the_run() {
        let (t, n) = lcg_matrices(8, 200, 50, 90);
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                max_combinations: 1,
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(res.combinations.len(), 1);
    }

    #[test]
    fn frontier_scan_matches_stats_scan_and_brute_top_k() {
        use crate::reduce::top_k;
        for (k, seed) in [(1usize, 3u64), (4, 17), (64, 99)] {
            let (t, n) = lcg_matrices(12, 120, 60, seed);
            let cfg = GreedyConfig {
                parallel: false,
                frontier_k: k,
                ..GreedyConfig::default()
            };
            let (want, _) = argmax_stats::<3>(&t, &n, None, &cfg);
            let (fr, st) = best_combination::<3>(&t, &n, None, &cfg, k, 0);
            assert_eq!(fr.best(), want, "k={k}");
            // The pruned top-K scan must still account for every combination.
            let total = binomial(12, 3);
            assert_eq!(st.scored + st.pruned_combos, total, "k={k}");
            // And the retained entries are the exhaustive top-K.
            let all: Vec<Scored<3>> = (0..total)
                .map(|l| score_combo(&t, &n, &unrank_tuple::<3>(l), Alpha::PAPER))
                .collect();
            assert_eq!(fr.entries(), &top_k(&all, k)[..], "k={k}");
        }
    }

    #[test]
    fn frontier_scan_parallel_equals_sequential() {
        let (t, n) = lcg_matrices(13, 128, 64, 31);
        for k in [1usize, 8, 64] {
            let seq = GreedyConfig {
                parallel: false,
                frontier_k: k,
                ..GreedyConfig::default()
            };
            let par = GreedyConfig {
                parallel: true,
                frontier_k: k,
                ..GreedyConfig::default()
            };
            let (wf, _) = best_combination::<3>(&t, &n, None, &seq, k, 0);
            for _ in 0..2 {
                let (gf, _) = best_combination::<3>(&t, &n, None, &par, k, 0);
                assert_eq!(gf.best(), wf.best(), "k={k}");
                assert_eq!(gf.entries(), wf.entries(), "k={k}");
                assert_eq!(gf.floor(), wf.floor(), "k={k}");
            }
        }
    }

    #[test]
    fn seeded_scan_matches_unseeded() {
        let (t, n) = lcg_matrices(12, 100, 50, 47);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let (want, _) = argmax_stats::<3>(&t, &n, None, &cfg);
        // Any achieved score is a sound seed, including the argmax's own.
        let weaker = score_combo(&t, &n, &[0, 1, 2], Alpha::PAPER);
        for seed in [0, weaker.score, want.score] {
            let (got, _) = best_combination::<3>(&t, &n, None, &cfg, 1, seed);
            assert_eq!(got.best(), want, "seed={seed}");
        }
        let par = GreedyConfig {
            parallel: true,
            ..GreedyConfig::default()
        };
        let (got, _) = best_combination::<3>(&t, &n, None, &par, 1, want.score);
        assert_eq!(got.best(), want);
    }

    #[test]
    fn frontier_discovery_is_bit_identical_to_disabled() {
        let (t, n) = lcg_matrices(10, 150, 80, 61);
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            let reference = discover::<2>(
                &t,
                &n,
                &GreedyConfig {
                    parallel: false,
                    frontier_k: 0,
                    exclusion,
                    ..GreedyConfig::default()
                },
            );
            for k in [1usize, 4, 64] {
                for parallel in [false, true] {
                    let got = discover::<2>(
                        &t,
                        &n,
                        &GreedyConfig {
                            parallel,
                            frontier_k: k,
                            exclusion,
                            ..GreedyConfig::default()
                        },
                    );
                    assert_eq!(
                        got.combinations, reference.combinations,
                        "k={k} parallel={parallel} {exclusion:?}"
                    );
                    assert_eq!(got.uncovered, reference.uncovered);
                }
            }
        }
    }

    #[test]
    fn frontier_counters_track_hits_and_misses() {
        let (t, n) = lcg_matrices(9, 140, 70, 13);
        // K = 1: the floor equals the old max, a rescored member can never
        // strictly clear it, so every iteration past the first must be a
        // full rescan (the fallback path fires).
        let obs = Obs::enabled();
        let res = discover_obs::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                frontier_k: 1,
                ..GreedyConfig::default()
            },
            &obs,
        );
        let c = obs.counters();
        let iters = res.iterations.len() as u64;
        assert!(iters >= 2, "need a multi-iteration run");
        assert_eq!(c.get("greedy.frontier_hits").copied(), Some(0));
        assert_eq!(c.get("greedy.full_rescans").copied(), Some(iters));
        assert_eq!(c.get("greedy.frontier_rescored").copied(), Some(iters - 1));

        // K ≥ C(G,2): the frontier is complete after iteration 1 and every
        // later iteration is a hit with zero scan work.
        let obs = Obs::enabled();
        let res = discover_obs::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                frontier_k: binomial(9, 2) as usize,
                ..GreedyConfig::default()
            },
            &obs,
        );
        let c = obs.counters();
        let iters = res.iterations.len() as u64;
        assert_eq!(c.get("greedy.frontier_hits").copied(), Some(iters - 1));
        assert_eq!(c.get("greedy.full_rescans").copied(), Some(1));
        let hit_iters: Vec<_> = obs
            .events()
            .iter()
            .filter(|e| e.name == "greedy_iter" && e.u64("frontier_hit") == Some(1))
            .map(|e| e.u64("scan_scored").unwrap())
            .collect();
        assert_eq!(hit_iters.len() as u64, iters - 1);
        assert!(hit_iters.iter().all(|&s| s == 0), "hits must not scan");
        // Throughput counts evaluated combinations: a hit evaluates none.
        let hit_rates: Vec<_> = obs
            .events()
            .iter()
            .filter(|e| e.name == "greedy_iter" && e.u64("frontier_hit") == Some(1))
            .map(|e| e.f64("combos_per_sec").unwrap())
            .collect();
        assert!(
            hit_rates.iter().all(|&r| r == 0.0),
            "hit rates: {hit_rates:?}"
        );
    }

    #[test]
    fn block_sweep_matches_stepping_every_width() {
        use crate::bitmat::SkipIndex;
        let (t, n) = lcg_matrices(13, 120, 60, 9);
        let total = binomial(13, 3);
        let ts = SkipIndex::build(&t);
        let ns = SkipIndex::build(&n);
        let mut mask = t.full_mask();
        mask[0] &= 0x0ff0_0ff0_0ff0_0ff0;
        for masked in [None, Some(&mask)] {
            for sparse in [false, true] {
                let build = |start: u64| {
                    let m = masked.map(|m| &m[..]);
                    if sparse {
                        ComboScanner::<3>::with_skip(&t, &n, m, Alpha::PAPER, start, (&ts, &ns))
                    } else {
                        ComboScanner::<3>::new(&t, &n, m, Alpha::PAPER, start)
                    }
                };
                // Stepping reference.
                let mut reference = build(0);
                reference.set_sweep_width(1);
                let want = scan_best(&mut reference, total);
                assert_eq!(reference.block_sweeps(), 0);
                // Widths that do and do not divide typical run lengths.
                for width in [2usize, 3, 5, kernel::SWEEP_BLOCK] {
                    let mut sc = build(0);
                    sc.set_sweep_width(width);
                    assert_eq!(
                        scan_best(&mut sc, total),
                        want,
                        "width={width} sparse={sparse}"
                    );
                    assert!(sc.block_sweeps() > 0, "sweep never engaged");
                    assert_eq!(sc.swept_rows(), total, "every combo swept");
                    // Pruned sweep: same winner, exact accounting.
                    let mut st = ScanStats::default();
                    let mut sc = build(0);
                    sc.set_sweep_width(width);
                    let mut acc = TopK::new(1);
                    sc.scan(total, &mut acc, true, None, &mut st);
                    assert_eq!(
                        acc.into_sorted(),
                        [want],
                        "pruned width={width} sparse={sparse}"
                    );
                    assert_eq!(st.scored + st.pruned_combos, total);
                    assert_eq!(sc.swept_rows(), st.scored, "every scored combo swept");
                    // Mid-range start (scanner begins inside a run).
                    let k = total / 3 + 1;
                    let mut a = build(0);
                    a.set_sweep_width(width);
                    let first = scan_best(&mut a, k);
                    let mut b = build(k);
                    b.set_sweep_width(width);
                    let second = scan_best(&mut b, total - k);
                    assert_eq!(first.max_det(second), want, "split width={width}");
                }
            }
        }
    }

    #[test]
    fn block_sweep_sparse_words_skipped_matches_stepping() {
        use crate::bitmat::SkipIndex;
        // Sparse input so the skip lists actually drop words.
        let mut t = BitMatrix::zeros(10, 640);
        let mut n = BitMatrix::zeros(10, 640);
        for g in 0..10 {
            t.set(g, g * 60, true);
            t.set(g, g * 60 + 7, true);
            n.set(g, 639 - g, true);
        }
        let ts = SkipIndex::build(&t);
        let ns = SkipIndex::build(&n);
        let total = binomial(10, 3);
        let mut step = ComboScanner::<3>::with_skip(&t, &n, None, Alpha::PAPER, 0, (&ts, &ns));
        step.set_sweep_width(1);
        let want = scan_best(&mut step, total);
        let mut swept = ComboScanner::<3>::with_skip(&t, &n, None, Alpha::PAPER, 0, (&ts, &ns));
        swept.set_sweep_width(kernel::SWEEP_BLOCK);
        assert_eq!(scan_best(&mut swept, total), want);
        // Same per-combo accounting: every level-0 candidate charges the full
        // dense width minus the level-1 support, in both modes.
        assert_eq!(swept.words_skipped(), step.words_skipped());
    }

    #[test]
    fn block_sweep_discovery_bit_identical_across_modes() {
        let (t, n) = lcg_matrices(11, 150, 80, 29);
        for exclusion in [Exclusion::BitSplice, Exclusion::Mask] {
            let reference = discover::<3>(
                &t,
                &n,
                &GreedyConfig {
                    parallel: false,
                    block_sweep: false,
                    exclusion,
                    ..GreedyConfig::default()
                },
            );
            for parallel in [false, true] {
                let got = discover::<3>(
                    &t,
                    &n,
                    &GreedyConfig {
                        parallel,
                        block_sweep: true,
                        exclusion,
                        ..GreedyConfig::default()
                    },
                );
                assert_eq!(
                    got.combinations, reference.combinations,
                    "parallel={parallel} {exclusion:?}"
                );
                assert_eq!(got.uncovered, reference.uncovered);
            }
        }
    }

    #[test]
    fn reseek_reuses_allocations_and_matches_fresh_build() {
        let (t, n) = lcg_matrices(12, 100, 50, 83);
        let total = binomial(12, 3);
        let k = total / 2;
        let mut reused = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, 0);
        let _ = scan_best(&mut reused, k);
        let bufs_before: Vec<*const u64> = reused.partial_t.iter().map(|b| b.as_ptr()).collect();
        reused.reseek(k);
        let bufs_after: Vec<*const u64> = reused.partial_t.iter().map(|b| b.as_ptr()).collect();
        assert_eq!(bufs_before, bufs_after, "reseek must not re-allocate");
        let mut fresh = ComboScanner::<3>::new(&t, &n, None, Alpha::PAPER, k);
        assert_eq!(
            scan_best(&mut reused, total - k),
            scan_best(&mut fresh, total - k)
        );
    }

    #[test]
    fn workers_build_at_most_one_scanner_each() {
        let (t, n) = lcg_matrices(40, 90, 45, 3);
        let cfg = GreedyConfig {
            parallel: true,
            prune: false,
            ..GreedyConfig::default()
        };
        let total = binomial(40, 3);
        let workers = par::default_workers()
            .min(usize::try_from(total.div_ceil(par::DEFAULT_MIN_GRAIN)).unwrap())
            .max(1);
        let (_, st) = argmax_stats::<3>(&t, &n, None, &cfg);
        assert!(st.blocks >= 1);
        assert!(st.scanner_builds >= 1);
        assert!(
            st.scanner_builds <= workers as u64,
            "scan built {} scanners for {workers} workers ({} blocks)",
            st.scanner_builds,
            st.blocks
        );
    }

    #[test]
    fn scan_stats_merge_covers_every_counter() {
        let a = ScanStats {
            scored: 1,
            pruned_subtrees: 2,
            pruned_combos: 3,
            blocks: 4,
            steals: 5,
            words_skipped: 6,
            block_sweeps: 7,
            swept_rows: 8,
            scanner_builds: 9,
        };
        let mut m = a;
        m.merge(&a);
        assert_eq!(
            m,
            ScanStats {
                scored: 2,
                pruned_subtrees: 4,
                pruned_combos: 6,
                blocks: 8,
                steals: 10,
                words_skipped: 12,
                block_sweeps: 14,
                swept_rows: 16,
                scanner_builds: 18,
            }
        );
        assert!((m.rows_per_sweep() - 16.0 / 14.0).abs() < 1e-12);
        assert_eq!(ScanStats::default().rows_per_sweep(), 0.0);
    }

    #[test]
    fn greedy_f_is_nonincreasing() {
        // Each iteration's F (on the shrinking tumor set) cannot beat the
        // previous pick's F: the previous argmax dominated the same pool plus
        // covered samples.
        let (t, n) = lcg_matrices(9, 120, 60, 77);
        let res = discover::<2>(
            &t,
            &n,
            &GreedyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        for w in res.iterations.windows(2) {
            assert!(w[1].f <= w[0].f + 1e-12);
        }
    }
}
