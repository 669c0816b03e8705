//! Property-based tests for the GPU substrate: profile additivity over
//! random cuts, cost-model monotonicity, stall normalization, and
//! enumeration/analytic agreement at random λ-ranges.

use multihit_core::schemes::Scheme4;
use multihit_gpusim::cost::CostModel;
use multihit_gpusim::device::GpuSpec;
use multihit_gpusim::profile::{
    inner_len4, kernel_levels4, prefetch_depth4, profile_partitions, profile_range4, WorkProfile,
};
use proptest::prelude::*;

fn model() -> CostModel {
    CostModel::new(GpuSpec::v100_summit())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn profile_additive_over_random_cuts(
        g in 10u32..120,
        cuts in prop::collection::vec(0.0f64..1.0, 1..6),
        w in 1u64..32,
    ) {
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let mut bounds: Vec<u64> = cuts.iter().map(|c| (c * n as f64) as u64).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        let whole = profile_range4(scheme, g, w, 0, n);
        let merged = bounds
            .windows(2)
            .map(|b| profile_range4(scheme, g, w, b[0], b[1]))
            .fold(WorkProfile::default(), WorkProfile::merge);
        prop_assert_eq!(merged.combos, whole.combos);
        prop_assert_eq!(merged.inner_words, whole.inner_words);
        prop_assert_eq!(merged.prefetch_words, whole.prefetch_words);
        prop_assert_eq!(merged.ops, whole.ops);
        prop_assert!((merged.inv_inner_sum - whole.inv_inner_sum).abs() < 1e-6);
    }

    #[test]
    fn batch_profiles_match_individual(
        g in 10u32..100,
        k in 2usize..8,
        w in 1u64..16,
    ) {
        let scheme = Scheme4::TwoXTwo;
        let n = scheme.thread_count(g);
        let levels = kernel_levels4(scheme, g);
        let bounds: Vec<(u64, u64)> = (0..k as u64)
            .map(|i| (i * n / k as u64, (i + 1) * n / k as u64))
            .collect();
        let batch = profile_partitions(&levels, &bounds, w, 2, true);
        for (b, &(lo, hi)) in batch.iter().zip(&bounds) {
            prop_assert_eq!(b, &profile_range4(scheme, g, w, lo, hi));
        }
    }

    #[test]
    fn cost_monotone_in_range_width(
        g in 50u32..300,
        frac in 0.05f64..0.95,
        w in 1u64..24,
    ) {
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let mid = ((n as f64) * frac) as u64;
        prop_assume!(mid > 0 && mid < n);
        let m = model();
        let part = m.evaluate(&profile_range4(scheme, g, w, 0, mid));
        let full = m.evaluate(&profile_range4(scheme, g, w, 0, n));
        prop_assert!(full.time_s >= part.time_s, "full {} < part {}", full.time_s, part.time_s);
        prop_assert!(full.bytes >= part.bytes);
    }

    #[test]
    fn cost_outputs_are_physical(
        g in 20u32..400,
        lo_f in 0.0f64..0.8,
        len_f in 0.01f64..0.2,
        w in 1u64..32,
    ) {
        let scheme = Scheme4::ThreeXOne;
        let n = scheme.thread_count(g);
        let lo = (lo_f * n as f64) as u64;
        let hi = (lo + (len_f * n as f64) as u64 + 1).min(n);
        let m = model();
        let c = m.evaluate(&profile_range4(scheme, g, w, lo, hi));
        prop_assert!(c.time_s > 0.0 && c.time_s.is_finite());
        prop_assert!((0.0..=1.0).contains(&c.occupancy));
        prop_assert!(c.bw_fraction > 0.0 && c.bw_fraction <= m.spec.bw_efficiency_peak + 1e-12);
        prop_assert!(c.dram_gbps() <= m.spec.dram_peak_bps / 1e9 + 1e-9);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c.issue_efficiency()));
        let s = m.stalls(&c);
        prop_assert!((s.total() - (1.0 - c.issue_efficiency())).abs() < 1e-9);
        prop_assert!(s.memory_dependency >= 0.0 && s.memory_throttle >= 0.0);
    }
}

/// The profile a literal kernel launch over threads `[lo, hi)` audits,
/// counted by enumerating every thread's prefixes with
/// [`Scheme4::for_each_prefix`]: one fixed-coordinate prefetch per thread,
/// one streamed row read and one AND + popcount per combination.
fn enumeration_profile4(scheme: Scheme4, g: u32, w: u64, lo: u64, hi: u64) -> WorkProfile {
    let mut p = WorkProfile::default();
    for lambda in lo..hi {
        let mut inner = 0u64;
        scheme.for_each_prefix(lambda, g, |_, range| {
            inner += u64::from(range.end - range.start);
        });
        p.n_threads += 1;
        p.combos += inner;
        p.inner_words += inner * w;
        p.prefetch_words += prefetch_depth4(scheme) * w;
        p.ops += inner * 2 * w;
        p.inv_inner_sum += 1.0 / (inner_len4(scheme, lambda, g) as f64 + 1.0);
    }
    p
}

#[test]
fn audited_profile_matches_analytic_profile() {
    let g = 15;
    let w = 4;
    for scheme in [Scheme4::ThreeXOne, Scheme4::TwoXTwo] {
        let total = scheme.thread_count(g);
        let lo = total / 4;
        let hi = 3 * total / 4;
        let audit = enumeration_profile4(scheme, g, w, lo, hi);
        let analytic = profile_range4(scheme, g, w, lo, hi);
        let name = scheme.name();
        assert_eq!(audit.n_threads, analytic.n_threads, "{name}");
        assert_eq!(audit.combos, analytic.combos, "{name}");
        assert_eq!(audit.prefetch_words, analytic.prefetch_words, "{name}");
        assert!(
            (audit.inv_inner_sum - analytic.inv_inner_sum).abs() < 1e-9,
            "{name}"
        );
        if scheme == Scheme4::ThreeXOne {
            // 3x1 audits inner reads identically; the 2x2 model adds the
            // mid-loop row reads the enumeration does not count.
            assert_eq!(audit.inner_words, analytic.inner_words);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn enumeration_audit_agrees_with_analytic_profile_on_random_ranges(
        g in 4u32..40,
        lo_f in 0.0f64..0.9,
        len_f in 0.02f64..0.3,
        w in 1u64..16,
    ) {
        let scheme = Scheme4::ThreeXOne;
        let total = scheme.thread_count(g);
        let lo = (lo_f * total as f64) as u64;
        let hi = (lo + (len_f * total as f64) as u64 + 1).min(total);
        let audit = enumeration_profile4(scheme, g, w, lo, hi);
        let analytic = profile_range4(scheme, g, w, lo, hi);
        prop_assert_eq!(audit.combos, analytic.combos);
        prop_assert_eq!(audit.inner_words, analytic.inner_words);
        prop_assert_eq!(audit.n_threads, analytic.n_threads);
    }
}
