//! # multihit-gpusim
//!
//! A V100-like GPU substrate for the multihit reproduction: the paper ran on
//! real Summit GPUs; this crate substitutes a **structural cost model**
//! ([`cost`]) that converts the kernel's own traffic/op counts ([`profile`])
//! into time and NVPROF-style counters ([`counters`]). Functional runs score
//! each simulated GPU's λ-slab with `multihit_core::greedy::ComboScanner`
//! (see `multihit_cluster::driver`); this crate only prices launches.
//!
//! The model's device constants are fixed once in
//! [`device::GpuSpec::v100_summit`]; no experiment retunes them (DESIGN.md,
//! calibration note). Paper-scale launches (10¹² threads) are profiled in
//! `O(G)` via the workload-level decomposition; tests pin the analytic
//! profiles against a literal enumeration of small launches.

pub mod cachesim;
pub mod cost;
pub mod counters;
pub mod device;
pub mod launch;
pub mod profile;

pub use cost::{CostModel, GpuCost, StallBreakdown};
pub use counters::{run_metrics, GpuRunMetrics};
pub use device::{GpuSpec, NodeSpec};
pub use launch::LaunchConfig;
pub use profile::{profile_range4, WorkProfile};
