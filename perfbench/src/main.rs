//! The repository benchmark: end-to-end and per-layer numbers for what a
//! user of `multihit` runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `discover-dense-h4`, `discover-sparse-h3` — MAF in, results TSV out,
//!   through the same public calls `multihit discover` makes;
//! * `cluster-h4` — `cluster::driver::distributed_discover4` on 2 ranks x
//!   2 simulated GPUs;
//! * `serve-binary` — an open-loop binary-frame load against the TCP
//!   server, with publish control frames beside the reads.
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! reports the end-to-end metrics, measured with the program's
//! observability off. With `--trace 1` it spends part of `--seconds`
//! untraced (the baseline for `trace.overhead_frac`) and the rest traced,
//! and reports the per-layer metrics: times the
//! benchmark takes around its calls into each layer, plus the counts the
//! program already emits through `Obs` / `RunReport`. Every operation is
//! checked against a reference; any failure makes the run exit 1.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A human-readable table with sample counts and the host fingerprint goes
//! to standard error.

mod cluster;
mod discover;
mod serve;

use multihit_core::obs::Obs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, identical in name and meaning for every workload
/// (the "operation" is one discovery, or one served request).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics. A workload that does not reach a layer reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("maf.parse_s", "s"),
    ("maf.records_per_s", "1/s"),
    ("matrix.build_s", "s"),
    ("kernelize.s", "s"),
    ("kernelize.genes_kept_frac", "frac"),
    ("scan.s", "s"),
    ("scan.evaluated", "count"),
    ("scan.evals_per_s", "1/s"),
    ("scan.logical_combos", "count"),
    ("scan.pruned_frac", "frac"),
    ("scan.rows_per_sweep", "count"),
    ("scan.words_skipped", "count"),
    ("scan.steals", "count"),
    ("frontier.hit_frac", "frac"),
    ("frontier.rescored", "count"),
    ("frontier.hit_iter_s", "s"),
    ("splice.s", "s"),
    ("splice.words", "count"),
    ("tsv.write_s", "s"),
    ("discover.solve_s", "s"),
    ("discover.unattributed_frac", "frac"),
    ("rank.busy_s", "s"),
    ("rank.comm_s", "s"),
    ("rank.imbalance", "ratio"),
    ("dist.evaluated", "count"),
    ("dist.evals_per_s", "1/s"),
    ("dist.frontier_hits", "count"),
    ("sched.partition_s", "s"),
    ("sched.imbalance", "ratio"),
    ("serve.frames_decoded", "count"),
    ("reactor.busy_frac", "frac"),
    ("server.p99_us", "us"),
    ("client.p50_us", "us"),
    ("client.p99_us", "us"),
    ("serve.slo_rps", "1/s"),
    ("batch.mean_fill", "frac"),
    ("batch.count", "count"),
    ("queue.max_depth", "count"),
    ("queue.shed", "count"),
    ("cache.hit_frac", "frac"),
    ("cache.stale_evictions", "count"),
    ("admission.admitted", "count"),
    ("admission.shed", "count"),
    ("publish.compile_s", "s"),
    ("publish.ack_ms", "ms"),
    ("serve.swaps", "count"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
];

/// A workload set up as a whole (`cluster-h4`, `serve-binary`) builds its
/// set-up at least `SETUP_REPS` times and keeps going until `SETUP_BUDGET`
/// has passed (at most `SETUP_MAX_REPS`); `setup_s` is the median, so a
/// cheap set-up gets enough samples to hold still. The discover workloads
/// time each cohort's set-up instead (see `batch_setups`).
pub const SETUP_REPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_MAX_REPS: usize = 50;

/// What one run of a workload is asked to do.
pub struct RunOpts {
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    /// Scratch directory inside the checkout for MAFs and TSVs.
    pub dir: PathBuf,
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// What a workload hands back: operation counts and named values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Count one checked operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Per-name samples across operations, reported as medians.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Move every series into `report` as its median.
    pub fn medians_into(self, report: &mut Report) {
        for (name, mut v) in self.0 {
            let n = v.len();
            report.set(name, median(&mut v), n);
        }
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank (ceiling) percentile of a sorted slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Build the workload's state repeatedly, keep the last, and report the
/// median build time as `setup_s`.
pub fn timed_setups<T>(report: &mut Report, mut build: impl FnMut() -> T) -> T {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPS
        || (start.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX_REPS)
    {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    let n = times.len();
    report.set("setup_s", median(&mut times), n);
    state.expect("at least one set-up")
}

/// Set up each cohort of a batch once and report the median cohort set-up
/// time as `setup_s`: every cohort is one set-up, so a batch gives as many
/// samples as it has cohorts without being built several times over.
pub fn batch_setups<S, T>(
    report: &mut Report,
    specs: &[S],
    mut build: impl FnMut(usize, &S) -> T,
) -> Vec<T> {
    let mut times = Vec::with_capacity(specs.len());
    let batch = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let t0 = Instant::now();
            let item = build(i, spec);
            times.push(t0.elapsed().as_secs_f64());
            item
        })
        .collect();
    let n = times.len();
    report.set("setup_s", median(&mut times), n);
    batch
}

/// The seeds of a batch of `k` cohorts derived from the run's `seed`;
/// distinct run seeds give disjoint batches.
pub fn batch_seeds(seed: u64, k: u64) -> impl Iterator<Item = u64> {
    (0..k).map(move |i| seed.wrapping_mul(k).wrapping_add(i))
}

/// Mean over a batch's items of each item's median time, and the number of
/// timed solves behind it. The per-item median drops the solves a burst of
/// host contention slowed; the mean over items weighs every cohort alike.
fn mean_of_medians(per_item: &mut [Vec<f64>]) -> (f64, usize) {
    let n = per_item.iter().map(Vec::len).sum();
    let total: f64 = per_item.iter_mut().map(|v| median(v)).sum();
    (ratio(total, per_item.len() as f64), n)
}

/// Measure a batch workload: one pass solves every item of the batch once.
/// A first, untimed pass warms caches and allocator (its output is still
/// checked); untimed passes then fill the budget (half of it with
/// `--trace`), and `latency_p50_ms` is the mean over items of each item's
/// median seconds. Traced passes fill the rest, and `record` turns each
/// traced solve into per-layer samples. `solve` checks its own output into
/// the report.
pub fn measure_batch<T, R>(
    opts: &RunOpts,
    report: &mut Report,
    batch: &[T],
    mut solve: impl FnMut(&T, &Obs, &mut Report) -> (f64, R),
    mut record: impl FnMut(&R, &Obs, &mut Samples),
) {
    let untraced_budget = if opts.trace {
        opts.measure / 2
    } else {
        opts.measure
    };
    let start = Instant::now();
    for item in batch {
        solve(item, &Obs::disabled(), report);
    }
    let mut untraced = vec![Vec::new(); batch.len()];
    repeat_for(untraced_budget.saturating_sub(start.elapsed()), || {
        for (item, times) in batch.iter().zip(&mut untraced) {
            times.push(solve(item, &Obs::disabled(), report).0);
        }
    });
    let (untraced, n) = mean_of_medians(&mut untraced);
    if !opts.trace {
        report.set("latency_p50_ms", untraced * 1e3, n);
        return;
    }

    let mut layers = Samples::default();
    let mut traced = vec![Vec::new(); batch.len()];
    repeat_for(opts.measure.saturating_sub(start.elapsed()), || {
        for (item, times) in batch.iter().zip(&mut traced) {
            let obs = Obs::enabled();
            let (s, out) = solve(item, &obs, report);
            times.push(s);
            layers.push("discover.solve_s", s);
            record(&out, &obs, &mut layers);
        }
    });
    layers.push(
        "trace.overhead_frac",
        ratio(mean_of_medians(&mut traced).0, untraced) - 1.0,
    );
    layers.medians_into(report);
}

/// Run `op` back to back while `budget` lasts (at least once). It stops
/// when one more `op` as long as the last would end past the budget by more
/// than half its length, so a run takes `--seconds` give or take half an
/// operation rather than up to a whole one more.
pub fn repeat_for(budget: Duration, mut op: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        op();
        if start.elapsed() + t.elapsed() / 2 >= budget {
            return;
        }
    }
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host fingerprint: absolute numbers compare only between equal ones.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"dispatch\": \"{}\", \"rustc\": \"{}\"}}",
        cpu.replace('"', "'"),
        multihit_core::kernel::active().name(),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

/// Warn when this host differs from the one the bounds were recorded on.
fn compare_fingerprint(fp: &str) {
    let recorded = Path::new(env!("CARGO_MANIFEST_DIR")).join("host.json");
    let Ok(text) = std::fs::read_to_string(&recorded) else {
        return;
    };
    if text.trim() != fp {
        eprintln!(
            "warning: host fingerprint differs from {}; absolute numbers are not comparable\n  \
             recorded: {}\n  this host: {fp}",
            recorded.display(),
            text.trim()
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

const WORKLOADS: [&str; 4] = [
    "discover-dense-h4",
    "discover-sparse-h3",
    "cluster-h4",
    "serve-binary",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let fp = fingerprint();
    compare_fingerprint(&fp);

    let dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let opts = RunOpts {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir: dir.clone(),
    };
    let mut report = match args.workload.as_str() {
        "discover-dense-h4" => discover::run(discover::Shape::DenseH4, &opts),
        "discover-sparse-h3" => discover::run(discover::Shape::SparseH3, &opts),
        "cluster-h4" => cluster::run(&opts),
        "serve-binary" => serve::run(&opts),
        _ => unreachable!("workload validated in parse_args"),
    };
    report.set("peak_rss_mib", peak_rss_mib(), 1);
    report.set(
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
        usize::try_from(report.attempted).unwrap_or(usize::MAX),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "{} seed {} ({} s, trace {}) on {fp}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let v = report.values.get(name).copied().unwrap_or(Value {
            value: 0.0,
            samples: 0,
        });
        eprintln!("  {name:28} {:>16.6} {unit:6} n={}", v.value, v.samples);
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &report.errors {
        eprintln!("  FAILED: {e}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!("host {fp}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
