//! The paper's four parallelization schemes for the 4-hit nested loop
//! (§III-A) plus the 3-hit analogues.
//!
//! A *scheme* `a×b` flattens the `a` outermost of the four loops into one
//! linear thread index λ (via the maps in [`crate::combin`]) and leaves a
//! `b`-deep nested loop inside each thread:
//!
//! | scheme | threads      | work per thread          | λ → tuple map |
//! |--------|--------------|---------------------------|---------------|
//! | `1x3`  | `G`          | `C(G−1−λ, 3)`             | identity      |
//! | `2x2`  | `C(G,2)`     | `C(G−1−j, 2)`             | triangular    |
//! | `3x1`  | `C(G,3)`     | `G−1−k`                   | tetrahedral   |
//! | `4x1`  | `C(G,4)`     | `1`                       | 4-simplex     |
//!
//! The paper implements `2x2` and `3x1`; `1x3` parallelizes too little and
//! `4x1` launches an astronomical grid. We implement **all four** so the
//! benches can show the trade-off, and the scheduler can reason about any of
//! them through [`Scheme4::workload`].

use crate::combin::{binomial, tri, unrank_pair, unrank_triple, unrank_tuple};

/// A parallelization scheme for 4-hit enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme4 {
    /// One thread per outermost index `i`; 3-deep inner loop.
    OneXThree,
    /// One thread per `(i,j)` pair; 2-deep inner loop (Algorithm 2).
    TwoXTwo,
    /// One thread per `(i,j,k)` triple; single inner loop (Algorithm 3).
    ThreeXOne,
    /// One thread per full combination; constant work.
    FourXOne,
}

impl Scheme4 {
    /// All schemes, in the paper's order.
    pub const ALL: [Scheme4; 4] = [
        Scheme4::OneXThree,
        Scheme4::TwoXTwo,
        Scheme4::ThreeXOne,
        Scheme4::FourXOne,
    ];

    /// The paper's name for the scheme.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme4::OneXThree => "1x3",
            Scheme4::TwoXTwo => "2x2",
            Scheme4::ThreeXOne => "3x1",
            Scheme4::FourXOne => "4x1",
        }
    }

    /// Number of threads the scheme launches for `g` genes.
    #[must_use]
    pub fn thread_count(self, g: u32) -> u64 {
        let g = u64::from(g);
        match self {
            Scheme4::OneXThree => g,
            Scheme4::TwoXTwo => binomial(g, 2),
            Scheme4::ThreeXOne => binomial(g, 3),
            Scheme4::FourXOne => binomial(g, 4),
        }
    }

    /// Number of 4-hit combinations thread λ evaluates ("workload",
    /// defined in §III-A as the combination count, all combinations assumed
    /// an equal number of arithmetic ops).
    #[must_use]
    pub fn workload(self, lambda: u64, g: u32) -> u64 {
        match self {
            Scheme4::OneXThree => binomial(u64::from(g) - 1 - lambda, 3),
            Scheme4::TwoXTwo => {
                let (_i, j) = unrank_pair(lambda);
                tri(u64::from(g - 1 - j))
            }
            Scheme4::ThreeXOne => {
                let (_i, _j, k) = unrank_triple(lambda);
                u64::from(g - 1 - k)
            }
            Scheme4::FourXOne => 1,
        }
    }

    /// Difference in workload between the heaviest (first) and lightest
    /// (last) thread — the imbalance the paper's Fig 2 charts.
    #[must_use]
    pub fn workload_spread(self, g: u32) -> u64 {
        let n = self.thread_count(g);
        if n == 0 {
            return 0;
        }
        self.workload(0, g) - self.workload(n - 1, g)
    }

    /// Visit every 4-hit combination assigned to thread λ, in order.
    ///
    /// This is the per-thread body of the CUDA kernel: the caller supplies
    /// the scoring closure.
    pub fn for_each_combo<F: FnMut([u32; 4])>(self, lambda: u64, g: u32, mut f: F) {
        match self {
            Scheme4::OneXThree => {
                let i = lambda as u32;
                for j in i + 1..g {
                    for k in j + 1..g {
                        for l in k + 1..g {
                            f([i, j, k, l]);
                        }
                    }
                }
            }
            Scheme4::TwoXTwo => {
                let (i, j) = unrank_pair(lambda);
                for k in j + 1..g {
                    for l in k + 1..g {
                        f([i, j, k, l]);
                    }
                }
            }
            Scheme4::ThreeXOne => {
                let (i, j, k) = unrank_triple(lambda);
                for l in k + 1..g {
                    f([i, j, k, l]);
                }
            }
            Scheme4::FourXOne => {
                let c = unrank_tuple::<4>(lambda);
                if c[3] < g {
                    f(c);
                }
            }
        }
    }

    /// Visit thread λ's combinations grouped by fixed prefix: each call gets
    /// the three fixed coordinates and the contiguous range the last
    /// coordinate streams over. Equivalent to [`Self::for_each_combo`] with
    /// `[p[0], p[1], p[2], l]` for `l` in the range, but exposes the run
    /// structure a kernel launch prefetches and streams (the gpusim profile
    /// audit counts its traffic this way).
    pub fn for_each_prefix<F: FnMut([u32; 3], std::ops::Range<u32>)>(
        self,
        lambda: u64,
        g: u32,
        mut f: F,
    ) {
        match self {
            Scheme4::OneXThree => {
                let i = lambda as u32;
                for j in i + 1..g {
                    for k in j + 1..g {
                        f([i, j, k], k + 1..g);
                    }
                }
            }
            Scheme4::TwoXTwo => {
                let (i, j) = unrank_pair(lambda);
                for k in j + 1..g {
                    f([i, j, k], k + 1..g);
                }
            }
            Scheme4::ThreeXOne => {
                let (i, j, k) = unrank_triple(lambda);
                f([i, j, k], k + 1..g);
            }
            Scheme4::FourXOne => {
                let c = unrank_tuple::<4>(lambda);
                if c[3] < g {
                    f([c[0], c[1], c[2]], c[3]..c[3] + 1);
                }
            }
        }
    }

    /// Total combinations over all threads — must equal `C(g, 4)` for every
    /// scheme (the schemes repartition, never duplicate or drop, work).
    #[must_use]
    pub fn total_work(self, g: u32) -> u64 {
        binomial(u64::from(g), 4)
    }

    /// The combinations of threads `[lo, hi)` as ascending colex-rank runs
    /// (ranks as in [`crate::combin::rank_tuple`]).
    ///
    /// Scheme `a×b` fixes the lowest `a` coordinates with λ = the colex
    /// rank of that prefix, so for each upper tuple `(c_a < … < c_3)` the
    /// slab covers the single run `[R+lo, R+min(hi, C(c_a, a)))` with
    /// `R = Σ_{t≥a} C(c_t, t+1)`. Upper tuples are visited in colex order,
    /// which keeps the runs ascending; empty runs are omitted. The runs
    /// enumerate exactly the combinations [`Self::for_each_combo`] visits
    /// for λ in the slab.
    #[must_use]
    pub fn colex_runs(self, lo: u64, hi: u64, g: u32) -> Vec<std::ops::Range<u64>> {
        let c = |n: u32, k: u64| binomial(u64::from(n), k);
        let mut runs = Vec::new();
        let mut push = |base: u64, cap: u64| {
            if cap > lo && hi > lo {
                runs.push(base + lo..base + hi.min(cap));
            }
        };
        match self {
            Scheme4::OneXThree => {
                for l in 3..g {
                    for k in 2..l {
                        for j in 1..k {
                            push(c(j, 2) + c(k, 3) + c(l, 4), u64::from(j));
                        }
                    }
                }
            }
            Scheme4::TwoXTwo => {
                for l in 3..g {
                    for k in 2..l {
                        push(c(k, 3) + c(l, 4), c(k, 2));
                    }
                }
            }
            Scheme4::ThreeXOne => {
                for l in 3..g {
                    push(c(l, 4), c(l, 3));
                }
            }
            Scheme4::FourXOne => push(0, c(g, 4)),
        }
        runs
    }
}

/// A parallelization scheme for 3-hit enumeration (the prior single-GPU work
/// in §II-C used `2x1`, Algorithm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme3 {
    /// One thread per `i`; 2-deep inner loop.
    OneXTwo,
    /// One thread per `(i,j)`; single inner loop over `k` (Algorithm 1).
    TwoXOne,
    /// One thread per full triple.
    ThreeXZero,
}

impl Scheme3 {
    /// All 3-hit schemes.
    pub const ALL: [Scheme3; 3] = [Scheme3::OneXTwo, Scheme3::TwoXOne, Scheme3::ThreeXZero];

    /// Scheme name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme3::OneXTwo => "1x2",
            Scheme3::TwoXOne => "2x1",
            Scheme3::ThreeXZero => "3x0",
        }
    }

    /// Threads launched for `g` genes.
    #[must_use]
    pub fn thread_count(self, g: u32) -> u64 {
        let g = u64::from(g);
        match self {
            Scheme3::OneXTwo => g,
            Scheme3::TwoXOne => binomial(g, 2),
            Scheme3::ThreeXZero => binomial(g, 3),
        }
    }

    /// 3-hit combinations evaluated by thread λ.
    #[must_use]
    pub fn workload(self, lambda: u64, g: u32) -> u64 {
        match self {
            Scheme3::OneXTwo => tri(u64::from(g) - 1 - lambda),
            Scheme3::TwoXOne => {
                let (_i, j) = unrank_pair(lambda);
                u64::from(g - 1 - j)
            }
            Scheme3::ThreeXZero => 1,
        }
    }

    /// Visit every triple assigned to thread λ.
    pub fn for_each_combo<F: FnMut([u32; 3])>(self, lambda: u64, g: u32, mut f: F) {
        match self {
            Scheme3::OneXTwo => {
                let i = lambda as u32;
                for j in i + 1..g {
                    for k in j + 1..g {
                        f([i, j, k]);
                    }
                }
            }
            Scheme3::TwoXOne => {
                let (i, j) = unrank_pair(lambda);
                for k in j + 1..g {
                    f([i, j, k]);
                }
            }
            Scheme3::ThreeXZero => {
                let (i, j, k) = unrank_triple(lambda);
                if k < g {
                    f([i, j, k]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn all_quads(g: u32) -> HashSet<[u32; 4]> {
        let mut s = HashSet::new();
        for i in 0..g {
            for j in i + 1..g {
                for k in j + 1..g {
                    for l in k + 1..g {
                        s.insert([i, j, k, l]);
                    }
                }
            }
        }
        s
    }

    #[test]
    fn every_scheme4_covers_every_combination_exactly_once() {
        let g = 11;
        let expect = all_quads(g);
        for scheme in Scheme4::ALL {
            let mut seen = Vec::new();
            for l in 0..scheme.thread_count(g) {
                scheme.for_each_combo(l, g, |c| seen.push(c));
            }
            assert_eq!(seen.len() as u64, scheme.total_work(g), "{}", scheme.name());
            let set: HashSet<_> = seen.into_iter().collect();
            assert_eq!(set, expect, "scheme {} mis-covers", scheme.name());
        }
    }

    #[test]
    fn every_scheme3_covers_every_triple_exactly_once() {
        let g = 13;
        let mut expect = HashSet::new();
        for i in 0..g {
            for j in i + 1..g {
                for k in j + 1..g {
                    expect.insert([i, j, k]);
                }
            }
        }
        for scheme in Scheme3::ALL {
            let mut seen = Vec::new();
            for l in 0..scheme.thread_count(g) {
                scheme.for_each_combo(l, g, |c| seen.push(c));
            }
            assert_eq!(seen.len(), expect.len(), "{}", scheme.name());
            let set: HashSet<_> = seen.into_iter().collect();
            assert_eq!(set, expect, "scheme {} mis-covers", scheme.name());
        }
    }

    #[test]
    fn workload_matches_actual_combo_count() {
        let g = 12;
        for scheme in Scheme4::ALL {
            for l in 0..scheme.thread_count(g) {
                let mut n = 0u64;
                scheme.for_each_combo(l, g, |_| n += 1);
                assert_eq!(n, scheme.workload(l, g), "scheme {} λ={l}", scheme.name());
            }
        }
        for scheme in Scheme3::ALL {
            for l in 0..scheme.thread_count(g) {
                let mut n = 0u64;
                scheme.for_each_combo(l, g, |_| n += 1);
                assert_eq!(n, scheme.workload(l, g), "scheme {} λ={l}", scheme.name());
            }
        }
    }

    #[test]
    fn prefix_enumeration_matches_combo_enumeration() {
        let g = 11;
        for scheme in Scheme4::ALL {
            for l in 0..scheme.thread_count(g) {
                let mut stepped = Vec::new();
                scheme.for_each_combo(l, g, |c| stepped.push(c));
                let mut grouped = Vec::new();
                scheme.for_each_prefix(l, g, |p, range| {
                    for last in range {
                        grouped.push([p[0], p[1], p[2], last]);
                    }
                });
                assert_eq!(grouped, stepped, "scheme {} λ={l}", scheme.name());
            }
        }
    }

    #[test]
    fn colex_runs_enumerate_the_slab() {
        let g = 10;
        for scheme in Scheme4::ALL {
            let n = scheme.thread_count(g);
            for (lo, hi) in [(0, n), (n / 3, 2 * n / 3), (n / 2, n / 2)] {
                let mut expect = Vec::new();
                for l in lo..hi {
                    scheme.for_each_combo(l, g, |c| expect.push(crate::combin::rank_tuple(&c)));
                }
                expect.sort_unstable();
                let got: Vec<u64> = scheme.colex_runs(lo, hi, g).into_iter().flatten().collect();
                assert_eq!(got, expect, "scheme {} [{lo}, {hi})", scheme.name());
            }
        }
    }

    #[test]
    fn spread_shrinks_from_2x2_to_3x1_to_4x1() {
        // Fig 2's point: tetrahedral mapping spreads work across more threads
        // with smaller per-thread imbalance; 4x1 is perfectly balanced.
        let g = 10;
        let s22 = Scheme4::TwoXTwo.workload_spread(g);
        let s31 = Scheme4::ThreeXOne.workload_spread(g);
        let s41 = Scheme4::FourXOne.workload_spread(g);
        assert_eq!(s22, tri(u64::from(g) - 2)); // C(G-2, 2)
        assert_eq!(s31, u64::from(g) - 3); // G-3
        assert_eq!(s41, 0);
        assert!(s22 > s31 && s31 > s41);
    }

    #[test]
    fn thread_counts_match_paper_formulas() {
        let g = 19411; // BRCA
        assert_eq!(Scheme4::OneXThree.thread_count(g), 19411);
        assert_eq!(Scheme4::TwoXTwo.thread_count(g), binomial(19411, 2));
        assert_eq!(Scheme4::ThreeXOne.thread_count(g), binomial(19411, 3));
        // "astronomically large": ~5.9e15 threads, one per combination.
        assert_eq!(Scheme4::FourXOne.thread_count(g), binomial(19411, 4));
        assert!(Scheme4::FourXOne.thread_count(g) > 5_000_000_000_000_000);
    }

    #[test]
    fn first_thread_dominates_in_2x2() {
        // The heaviest 2x2 thread does C(G-2,2) combinations while the
        // lightest does 0 — the O(G²) gap §III-B motivates 3x1 with.
        let g = 100;
        assert_eq!(Scheme4::TwoXTwo.workload(0, g), tri(98));
        let last = Scheme4::TwoXTwo.thread_count(g) - 1;
        assert_eq!(Scheme4::TwoXTwo.workload(last, g), 0);
    }
}
