//! The uncompressed baseline: one byte per matrix entry, scalar counting.
//!
//! §II-C's first optimization packs 64 samples per machine word — "a 32×
//! reduction in memory utilization" versus the uncompressed representation —
//! and replaces per-sample arithmetic with bitwise AND + popcount. This
//! module keeps the *pre-optimization* implementation alive as a measurable
//! comparator: a dense byte matrix scored entry by entry, exactly what the
//! original single-CPU two-hit code did. Tests pin its results to the
//! packed implementation; the `bench_kernels` group measures the gap.

use crate::bitmat::BitMatrix;
use crate::weight::{Alpha, Combo, Scored};

/// A dense, row-major, one-byte-per-entry gene×sample matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ByteMatrix {
    n_genes: usize,
    n_samples: usize,
    data: Vec<u8>,
}

impl ByteMatrix {
    /// An all-zero matrix.
    #[must_use]
    pub fn zeros(n_genes: usize, n_samples: usize) -> Self {
        ByteMatrix {
            n_genes,
            n_samples,
            data: vec![0; n_genes * n_samples],
        }
    }

    /// Convert from the packed representation.
    #[must_use]
    pub fn from_bitmat(m: &BitMatrix) -> Self {
        let mut out = Self::zeros(m.n_genes(), m.n_samples());
        for g in 0..m.n_genes() {
            for s in 0..m.n_samples() {
                out.data[g * m.n_samples() + s] = u8::from(m.get(g, s));
            }
        }
        out
    }

    /// Number of genes.
    #[must_use]
    pub fn n_genes(&self) -> usize {
        self.n_genes
    }

    /// Number of samples.
    #[must_use]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Entry `(g, s)`.
    #[inline]
    #[must_use]
    pub fn get(&self, g: usize, s: usize) -> bool {
        self.data[g * self.n_samples + s] != 0
    }

    /// Heap bytes of the dense data.
    #[must_use]
    pub fn dense_bytes(&self) -> usize {
        self.data.len()
    }

    /// Count samples mutated in all `H` genes — the scalar inner loop the
    /// packed popcount replaces.
    #[must_use]
    pub fn count_all<const H: usize>(&self, genes: &Combo<H>) -> u32 {
        let rows: [&[u8]; H] = std::array::from_fn(|t| {
            let off = genes[t] as usize * self.n_samples;
            &self.data[off..off + self.n_samples]
        });
        let mut n = 0u32;
        for s in 0..self.n_samples {
            if rows.iter().all(|r| r[s] != 0) {
                n += 1;
            }
        }
        n
    }
}

/// Score one combination on byte matrices (the uncompressed path).
#[must_use]
pub fn score_combo_naive<const H: usize>(
    tumor: &ByteMatrix,
    normal: &ByteMatrix,
    genes: &Combo<H>,
    alpha: Alpha,
) -> Scored<H> {
    let tp = tumor.count_all(genes);
    let tn = normal.n_samples() as u32 - normal.count_all(genes);
    Scored {
        score: alpha.score(tp, tn),
        tp,
        tn,
        genes: *genes,
    }
}

/// Full argmax scan over all `C(G,H)` combinations on byte matrices — the
/// original sequential algorithm's shape (no prefetch reuse, no packing).
#[must_use]
pub fn best_combination_naive<const H: usize>(
    tumor: &ByteMatrix,
    normal: &ByteMatrix,
    alpha: Alpha,
) -> Scored<H> {
    let g = tumor.n_genes() as u64;
    let mut best = Scored::NEG_INFINITY;
    for lambda in 0..crate::combin::binomial(g, H as u64) {
        let genes = crate::combin::unrank_tuple::<H>(lambda);
        best = best.max_det(score_combo_naive(tumor, normal, &genes, alpha));
    }
    best
}

/// The §II-C compression ratio versus a 4-byte-per-entry representation
/// (the paper compares against `int` matrices): packed bytes → ratio.
#[must_use]
pub fn compression_ratio_vs_int(m: &BitMatrix) -> f64 {
    (m.n_genes() * m.n_samples() * 4) as f64 / m.packed_bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{best_combination, GreedyConfig};

    fn lcg_bitmat(g: usize, n: usize, seed: u64) -> BitMatrix {
        let mut state = seed | 1;
        let mut m = BitMatrix::zeros(g, n);
        for gene in 0..g {
            for s in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (state >> 33).is_multiple_of(3) {
                    m.set(gene, s, true);
                }
            }
        }
        m
    }

    #[test]
    fn conversion_roundtrip() {
        let b = lcg_bitmat(7, 130, 3);
        let d = ByteMatrix::from_bitmat(&b);
        for g in 0..7 {
            for s in 0..130 {
                assert_eq!(d.get(g, s), b.get(g, s));
            }
        }
    }

    #[test]
    fn counts_match_packed() {
        let bt = lcg_bitmat(9, 200, 5);
        let dt = ByteMatrix::from_bitmat(&bt);
        for i in 0..9u32 {
            for j in i + 1..9 {
                assert_eq!(dt.count_all(&[i, j]), bt.count_all(&[i, j]));
                for k in j + 1..9 {
                    assert_eq!(dt.count_all(&[i, j, k]), bt.count_all(&[i, j, k]));
                }
            }
        }
    }

    #[test]
    fn naive_argmax_matches_packed_scanner() {
        let bt = lcg_bitmat(11, 150, 9);
        let bn = lcg_bitmat(11, 70, 10);
        let dt = ByteMatrix::from_bitmat(&bt);
        let dn = ByteMatrix::from_bitmat(&bn);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        assert_eq!(
            best_combination_naive::<3>(&dt, &dn, Alpha::PAPER),
            best_combination::<3>(&bt, &bn, None, &cfg, 1, 0).0.best()
        );
        assert_eq!(
            best_combination_naive::<2>(&dt, &dn, Alpha::PAPER),
            best_combination::<2>(&bt, &bn, None, &cfg, 1, 0).0.best()
        );
    }

    #[test]
    fn memory_footprints_show_the_paper_ratio() {
        // §II-C: "32x reduction in memory utilization" vs int matrices —
        // i.e. 8× vs our byte matrices.
        let b = BitMatrix::zeros(100, 6400);
        let d = ByteMatrix::from_bitmat(&b);
        assert!((compression_ratio_vs_int(&b) - 32.0).abs() < 1e-12);
        assert_eq!(d.dense_bytes() / b.packed_bytes(), 8);
    }
}
