//! `discover-dense-h4` and `discover-sparse-h3`: MAF in, results TSV out.
//!
//! One operation is the pipeline `multihit discover` runs: read both MAFs,
//! `maf::parse_maf`, build the gene universe, `maf::summarize`,
//! `greedy::discover_obs` with kernelize on, `ResultsFile::to_tsv`, write.
//! The benchmark times each of those calls itself; the scan, frontier,
//! splice and kernelize figures come from the counters discovery already
//! emits through `Obs`.

use crate::{batch_seeds, batch_setups, measure_batch, ratio, secs, Report, RunOpts, Samples};
use multihit_core::bitmat::BitMatrix;
use multihit_core::greedy::{discover, discover_obs, GreedyConfig};
use multihit_core::obs::{Obs, RunReport};
use multihit_core::weight::{score_combo, Alpha};
use multihit_data::maf::{matrix_to_records, parse_maf, summarize, write_maf};
use multihit_data::results::{ResultRow, ResultsFile};
use multihit_data::synth::{gene_symbols, generate, CohortSpec};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// The two discovery workloads.
///
/// One pass discovers a batch of cohorts, each derived from the run's
/// seed. Branch-and-bound pruning makes a single cohort's discovery time
/// swing by 15-25% from one seed to the next; the mean over a batch is
/// what holds still enough to gate a regression on.
#[derive(Clone, Copy)]
pub enum Shape {
    /// 16 cohorts, G = 800, 400 / 200 samples, about 5.5% of cells
    /// mutated, 16 planted 4-gene combinations. Drivers are 90% penetrant,
    /// so the weak, badly pruned combinations that cover the last tumors
    /// are part of the work; planting 16 rather than 8 spreads each
    /// cohort's time over more iterations, which steadies it.
    DenseH4,
    /// 12 cohorts, G = 5000, 600 / 300 samples, about 0.7% mutated
    /// (TCGA-like sparsity: the skip-list scan is active). Drivers are fully
    /// penetrant: the weak tail's cost swings with the seed, and this
    /// workload is about kernelize and the sparse path, not that tail.
    SparseH3,
}

impl Shape {
    fn hits(self) -> usize {
        match self {
            Shape::DenseH4 => 4,
            Shape::SparseH3 => 3,
        }
    }

    /// The batch of cohorts one operation discovers. Passenger rates are
    /// per-gene means; the generator's long-tailed gene weights lift the
    /// realised density to the figures above.
    pub fn cohorts(self, seed: u64) -> Vec<CohortSpec> {
        let (k, spec) = match self {
            Shape::DenseH4 => (
                16,
                CohortSpec {
                    n_genes: 800,
                    n_tumor: 400,
                    n_normal: 200,
                    n_driver_combos: 16,
                    hits_per_combo: 4,
                    driver_penetrance: 0.9,
                    passenger_rate_tumor: 0.04,
                    passenger_rate_normal: 0.04,
                    seed,
                },
            ),
            Shape::SparseH3 => (
                12,
                CohortSpec {
                    n_genes: 5000,
                    n_tumor: 600,
                    n_normal: 300,
                    n_driver_combos: 24,
                    hits_per_combo: 3,
                    driver_penetrance: 1.0,
                    passenger_rate_tumor: 0.005,
                    passenger_rate_normal: 0.005,
                    seed,
                },
            ),
        };
        batch_seeds(seed, k)
            .map(|seed| CohortSpec { seed, ..spec })
            .collect()
    }
}

/// MAF-derived matrices and the gene universe, as `multihit discover`
/// builds them.
pub struct Matrices {
    pub tumor: BitMatrix,
    pub normal: BitMatrix,
    pub genes: Vec<String>,
}

/// Build the sorted symbol universe and summarize both record sets.
fn build_matrices(
    t_recs: &[multihit_data::maf::MafRecord],
    n_recs: &[multihit_data::maf::MafRecord],
) -> Matrices {
    let mut genes: Vec<String> = t_recs
        .iter()
        .chain(n_recs)
        .map(|r| r.hugo_symbol.clone())
        .collect();
    genes.sort();
    genes.dedup();
    let index: HashMap<String, usize> = genes
        .iter()
        .enumerate()
        .map(|(i, g)| (g.clone(), i))
        .collect();
    Matrices {
        tumor: summarize(t_recs, &index).matrix,
        normal: summarize(n_recs, &index).matrix,
        genes,
    }
}

/// Write a cohort as a tumor and a normal MAF under `dir`.
pub fn write_mafs(spec: &CohortSpec, dir: &std::path::Path, label: &str) -> Files {
    let cohort = generate(spec);
    let names = gene_symbols(&cohort);
    let tumor = dir.join("tumor.maf");
    let normal = dir.join("normal.maf");
    std::fs::write(
        &tumor,
        write_maf(&matrix_to_records(&cohort.tumor, &names, "TUMOR")),
    )
    .expect("write tumor MAF");
    std::fs::write(
        &normal,
        write_maf(&matrix_to_records(&cohort.normal, &names, "NORMAL")),
    )
    .expect("write normal MAF");
    Files {
        tumor,
        normal,
        out: dir.join(format!("{label}.tsv")),
    }
}

/// Read and summarize the MAFs outside any timing.
fn load(tumor: &std::path::Path, normal: &std::path::Path) -> Matrices {
    let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("read MAF");
    let t = parse_maf(&read(tumor)).expect("generated MAF parses");
    let n = parse_maf(&read(normal)).expect("generated MAF parses");
    build_matrices(&t, &n)
}

/// The pipeline's input MAFs and output TSV.
pub struct Files {
    pub tumor: PathBuf,
    pub normal: PathBuf,
    pub out: PathBuf,
}

/// Inputs on disk, the matrices they summarize to, and the reference panel.
pub struct Inputs {
    pub files: Files,
    pub matrices: Matrices,
    /// Gene symbols of each reference combination, in selection order.
    pub reference: Vec<Vec<String>>,
}

/// Generate the cohort, write its MAFs, and compute the reference panel
/// with plain `greedy::discover` (default configuration: no kernelize).
pub fn setup<const H: usize>(spec: &CohortSpec, dir: &std::path::Path, label: &str) -> Inputs {
    let files = write_mafs(spec, dir, label);
    let matrices = load(&files.tumor, &files.normal);
    let run = discover::<H>(&matrices.tumor, &matrices.normal, &GreedyConfig::default());
    let reference = ResultsFile::from_run(label, &run, &matrices.genes)
        .rows
        .into_iter()
        .map(|r| r.genes)
        .collect();
    Inputs {
        files,
        matrices,
        reference,
    }
}

/// Wall time of each stage of one pipeline run, nanoseconds.
#[derive(Default)]
pub struct Stages {
    pub read: u64,
    pub parse: u64,
    pub build: u64,
    pub tsv: u64,
    pub total: u64,
    pub records: u64,
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One `multihit discover` run: MAFs in, TSV written; returns the TSV text.
pub fn pipeline<const H: usize>(files: &Files, label: &str, obs: &Obs) -> (Stages, String) {
    let mut st = Stages::default();
    let start = Instant::now();
    let t = Instant::now();
    let t_text = std::fs::read_to_string(&files.tumor).expect("read tumor MAF");
    let n_text = std::fs::read_to_string(&files.normal).expect("read normal MAF");
    st.read = ns(t);
    let t = Instant::now();
    let t_recs = parse_maf(&t_text).expect("generated MAF parses");
    let n_recs = parse_maf(&n_text).expect("generated MAF parses");
    st.parse = ns(t);
    st.records = (t_recs.len() + n_recs.len()) as u64;
    let t = Instant::now();
    let m = build_matrices(&t_recs, &n_recs);
    st.build = ns(t);
    let cfg = GreedyConfig {
        kernelize: true,
        ..GreedyConfig::default()
    };
    let run = discover_obs::<H>(&m.tumor, &m.normal, &cfg, obs);
    let t = Instant::now();
    let text = ResultsFile::from_run(label, &run, &m.genes).to_tsv();
    std::fs::write(&files.out, &text).expect("write results TSV");
    st.tsv = ns(t);
    st.total = ns(start);
    (st, text)
}

/// Check a written panel: the same combinations as the reference, and each
/// row's F / TP / TN equal to `score_combo` replayed on the spliced matrix.
pub fn check_panel<const H: usize>(
    tsv: &str,
    reference: &[Vec<String>],
    m: &Matrices,
) -> Result<(), String> {
    let rf = ResultsFile::from_tsv(tsv)?;
    let genes: Vec<&Vec<String>> = rf.rows.iter().map(|r| &r.genes).collect();
    if genes.len() != reference.len() || genes.iter().zip(reference).any(|(a, b)| *a != b) {
        return Err(format!(
            "panel of {} combinations differs from the {}-combination reference",
            genes.len(),
            reference.len()
        ));
    }
    let index: HashMap<&str, u32> = m
        .genes
        .iter()
        .enumerate()
        .map(|(i, g)| (g.as_str(), i as u32))
        .collect();
    let n_tumor = m.tumor.n_samples() as u32;
    let n_normal = m.normal.n_samples() as u32;
    let mut work = m.tumor.clone();
    for row in &rf.rows {
        let combo = row_combo::<H>(row, &index)?;
        let s = score_combo(&work, &m.normal, &combo, Alpha::PAPER);
        let f = format!("{:.6}", s.f_value(Alpha::PAPER, n_tumor, n_normal));
        if s.tp != row.tp || s.tn != row.tn || f != format!("{:.6}", row.f) {
            return Err(format!(
                "row {}: TSV F/TP/TN {:.6}/{}/{} but rescoring gives {f}/{}/{}",
                row.iteration, row.f, row.tp, row.tn, s.tp, s.tn
            ));
        }
        let cov = work.cover_mask(&combo);
        let mut keep = work.full_mask();
        for (k, c) in keep.iter_mut().zip(&cov) {
            *k &= !c;
        }
        work = work.splice_columns(&keep);
    }
    Ok(())
}

fn row_combo<const H: usize>(
    row: &ResultRow,
    index: &HashMap<&str, u32>,
) -> Result<[u32; H], String> {
    let mut combo = [0u32; H];
    if row.genes.len() != H {
        return Err(format!(
            "row {} has {} genes",
            row.iteration,
            row.genes.len()
        ));
    }
    for (slot, g) in combo.iter_mut().zip(&row.genes) {
        *slot = *index
            .get(g.as_str())
            .ok_or_else(|| format!("row {}: unknown gene {g}", row.iteration))?;
    }
    Ok(combo)
}

pub fn run(shape: Shape, opts: &RunOpts) -> Report {
    match shape.hits() {
        3 => run_h::<3>(shape, opts),
        4 => run_h::<4>(shape, opts),
        h => unreachable!("no {h}-hit discovery workload"),
    }
}

fn run_h<const H: usize>(shape: Shape, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let specs = shape.cohorts(opts.seed);
    let label = "bench";
    let batch = batch_setups(&mut report, &specs, |i, spec| {
        let dir = opts.dir.join(format!("cohort{i}"));
        std::fs::create_dir_all(&dir).expect("create cohort directory");
        setup::<H>(spec, &dir, label)
    });

    measure_batch(
        opts,
        &mut report,
        &batch,
        |inp, obs, report| {
            let (st, text) = pipeline::<H>(&inp.files, label, obs);
            report.check(check_panel::<H>(&text, &inp.reference, &inp.matrices));
            (secs(st.total), st)
        },
        record_layers,
    );
    report
}

/// Per-layer figures of one traced discovery.
fn record_layers(st: &Stages, obs: &Obs, layers: &mut Samples) {
    let rr = RunReport::from_events(&obs.events());
    let c = obs.counters();
    let counter = |k: &str| c.get(k).copied().unwrap_or(0);

    let parse_s = secs(st.read + st.parse);
    layers.push("maf.parse_s", parse_s);
    layers.push("maf.records_per_s", ratio(st.records as f64, parse_s));
    layers.push("matrix.build_s", secs(st.build));

    let (kernelize_s, kept) = rr.kernelize.as_ref().map_or((0.0, 0.0), |k| {
        (
            secs(k.kernelize_ns),
            ratio(k.kept_genes as f64, k.orig_genes as f64),
        )
    });
    layers.push("kernelize.s", kernelize_s);
    layers.push("kernelize.genes_kept_frac", kept);

    let scan_s = secs(counter("greedy.scan_ns"));
    let evaluated = counter("greedy.scan_scored") as f64;
    layers.push("scan.s", scan_s);
    layers.push("scan.evaluated", evaluated);
    layers.push("scan.evals_per_s", ratio(evaluated, scan_s));
    layers.push(
        "scan.logical_combos",
        counter("greedy.combos_scored") as f64,
    );
    // Pruning is judged on the iterations that scanned: frontier hits
    // skip the scan and would otherwise count as fully pruned.
    let full: Vec<_> = rr
        .greedy_iters
        .iter()
        .filter(|i| i.frontier_hit == 0)
        .collect();
    let full_logical: u64 = full.iter().map(|i| i.combos_scored).sum();
    let pruned: u64 = full.iter().map(|i| i.pruned_combos).sum();
    layers.push(
        "scan.pruned_frac",
        ratio(pruned as f64, full_logical as f64),
    );
    layers.push("scan.rows_per_sweep", rr.mean_rows_per_sweep());
    layers.push("scan.words_skipped", counter("greedy.words_skipped") as f64);
    layers.push("scan.steals", counter("greedy.steals") as f64);

    layers.push("frontier.hit_frac", rr.frontier_hit_rate());
    layers.push(
        "frontier.rescored",
        counter("greedy.frontier_rescored") as f64,
    );
    let hit_ns: u64 = rr
        .greedy_iters
        .iter()
        .filter(|i| i.frontier_hit == 1)
        .map(|i| i.scan_ns)
        .sum();
    layers.push("frontier.hit_iter_s", secs(hit_ns));

    let splice_s = secs(counter("greedy.splice_ns"));
    layers.push("splice.s", splice_s);
    layers.push("splice.words", counter("greedy.splice_words") as f64);
    layers.push("tsv.write_s", secs(st.tsv));

    let solve_s = secs(st.total);
    let attributed = parse_s + secs(st.build) + kernelize_s + scan_s + splice_s + secs(st.tsv);
    layers.push(
        "discover.unattributed_frac",
        1.0 - ratio(attributed, solve_s),
    );
}
