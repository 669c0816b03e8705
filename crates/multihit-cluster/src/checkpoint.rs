//! Checkpoint/restart for long discovery runs.
//!
//! §IV-A notes Summit caps small allocations at 2 hours — production runs
//! of an iterative algorithm must survive allocation boundaries. A
//! checkpoint captures everything the greedy loop needs to resume:
//! the combinations already chosen and the covered-tumor mask (the spliced
//! matrix is reconstructed from the original input plus the mask, so the
//! checkpoint stays tiny — tens of bytes per iteration, not gigabytes of
//! matrix).
//!
//! The format is a versioned, line-oriented text file: portable, diffable,
//! and parsable without extra dependencies. Version 2 appends a CRC-32
//! trailer over the whole body, so torn writes and silent media corruption
//! are detected at resume instead of resuming from garbage; version 1 files
//! (no trailer) still parse. [`CheckpointStore`] adds the durable on-disk
//! protocol: write-to-temp + rename atomicity, a `.bak` of the previous
//! good checkpoint, and automatic fallback to it when the primary file is
//! corrupt.

use crate::fault::{crc32, CheckpointFault, FaultState};
use multihit_core::bitmat::BitMatrix;
use multihit_core::greedy::{best_combination, GreedyConfig};
use multihit_core::obs::Obs;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Resumable state of a 4-hit discovery run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Format version.
    pub version: u32,
    /// Gene universe size (validated on resume).
    pub n_genes: usize,
    /// Original tumor sample count (validated on resume).
    pub n_tumor: usize,
    /// Combinations chosen so far, in order.
    pub chosen: Vec<[u32; 4]>,
    /// Packed mask of still-uncovered tumor columns (original indexing).
    pub uncovered_mask: Vec<u64>,
}

/// Current format version (2 = CRC-32 trailer; 1 = legacy, no trailer).
pub const CHECKPOINT_VERSION: u32 = 2;

impl Checkpoint {
    /// A fresh checkpoint for an input cohort (nothing chosen yet).
    #[must_use]
    pub fn fresh(tumor: &BitMatrix) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            n_genes: tumor.n_genes(),
            n_tumor: tumor.n_samples(),
            chosen: Vec::new(),
            uncovered_mask: tumor.full_mask(),
        }
    }

    /// Uncovered tumor samples remaining.
    #[must_use]
    pub fn remaining(&self) -> u32 {
        BitMatrix::mask_popcount(&self.uncovered_mask)
    }

    /// Serialize to the text format. Version ≥ 2 appends a `crc` trailer
    /// line: CRC-32 over every byte before it.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "multihit-checkpoint\tv{}", self.version);
        let _ = writeln!(out, "genes\t{}", self.n_genes);
        let _ = writeln!(out, "tumors\t{}", self.n_tumor);
        let _ = writeln!(out, "mask\t{}", hex_words(&self.uncovered_mask));
        for c in &self.chosen {
            let _ = writeln!(out, "combo\t{}\t{}\t{}\t{}", c[0], c[1], c[2], c[3]);
        }
        if self.version >= 2 {
            let _ = writeln!(out, "crc\t{:08x}", crc32(out.as_bytes()));
        }
        out
    }

    /// Parse the text format. Version 2 requires (and verifies) the CRC
    /// trailer; version 1 has none. Rejects duplicate header records,
    /// out-of-range gene ids, and a mask whose length disagrees with the
    /// tumor count — corruption that slips past the CRC (or a legacy v1
    /// file) must not resume into a silently wrong run.
    ///
    /// # Errors
    /// Returns a message naming the offending line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        // Split off the trailer first: everything before it is the body the
        // CRC covers.
        let (body, crc_hex) = match text.rfind("\ncrc\t") {
            Some(pos) => (&text[..pos + 1], Some(text[pos + 5..].trim_end())),
            None => (text, None),
        };
        let mut lines = body.lines();
        let head = lines.next().ok_or("empty checkpoint")?;
        let version: u32 = head
            .strip_prefix("multihit-checkpoint\tv")
            .and_then(|v| v.parse().ok())
            .ok_or("bad checkpoint header")?;
        if !(1..=CHECKPOINT_VERSION).contains(&version) {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        if version >= 2 {
            let hex = crc_hex.ok_or("missing crc trailer")?;
            let stated =
                u32::from_str_radix(hex, 16).map_err(|_| format!("bad crc trailer {hex:?}"))?;
            let actual = crc32(body.as_bytes());
            if stated != actual {
                return Err(format!(
                    "crc mismatch: file says {stated:08x}, content is {actual:08x}"
                ));
            }
        }
        let mut n_genes: Option<usize> = None;
        let mut n_tumor: Option<usize> = None;
        let mut uncovered_mask: Option<Vec<u64>> = None;
        let mut chosen: Vec<[u32; 4]> = Vec::new();
        for (idx, line) in lines.enumerate() {
            let err = |what: &str| format!("line {}: {what}", idx + 2);
            let mut f = line.split('\t');
            match f.next() {
                Some("genes") => {
                    if n_genes.is_some() {
                        return Err(err("duplicate genes record"));
                    }
                    n_genes = Some(
                        f.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad genes"))?,
                    );
                }
                Some("tumors") => {
                    if n_tumor.is_some() {
                        return Err(err("duplicate tumors record"));
                    }
                    n_tumor = Some(
                        f.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad tumors"))?,
                    );
                }
                Some("mask") => {
                    if uncovered_mask.is_some() {
                        return Err(err("duplicate mask record"));
                    }
                    uncovered_mask =
                        Some(parse_hex_words(f.next().unwrap_or("")).map_err(|e| err(&e))?);
                }
                Some("combo") => {
                    let mut c = [0u32; 4];
                    for slot in &mut c {
                        *slot = f
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err("bad combo"))?;
                    }
                    chosen.push(c);
                }
                Some("") | None => continue,
                Some(other) => return Err(err(&format!("unknown record {other}"))),
            }
        }
        let n_genes = n_genes.ok_or("missing genes record")?;
        let n_tumor = n_tumor.ok_or("missing tumors record")?;
        let uncovered_mask = uncovered_mask.ok_or("missing mask record")?;
        let expect_words = n_tumor.div_ceil(64);
        if uncovered_mask.len() != expect_words {
            return Err(format!(
                "mask has {} words, {n_tumor} tumors need {expect_words}",
                uncovered_mask.len()
            ));
        }
        for (i, c) in chosen.iter().enumerate() {
            if let Some(&g) = c.iter().find(|&&g| g as usize >= n_genes) {
                return Err(format!(
                    "combo {i} has gene id {g} outside the {n_genes}-gene universe"
                ));
            }
        }
        Ok(Checkpoint {
            version,
            n_genes,
            n_tumor,
            chosen,
            uncovered_mask,
        })
    }

    /// Validate that this checkpoint belongs to the given input cohort.
    ///
    /// # Errors
    /// Returns a mismatch description.
    pub fn validate(&self, tumor: &BitMatrix) -> Result<(), String> {
        if self.n_genes != tumor.n_genes() {
            return Err(format!(
                "checkpoint has {} genes, input has {}",
                self.n_genes,
                tumor.n_genes()
            ));
        }
        if self.n_tumor != tumor.n_samples() {
            return Err(format!(
                "checkpoint has {} tumor samples, input has {}",
                self.n_tumor,
                tumor.n_samples()
            ));
        }
        Ok(())
    }
}

/// Durable on-disk checkpoint storage.
///
/// Saves are atomic: the text is written to `<path>.tmp` and renamed over
/// `<path>`, so a crash mid-write never destroys the previous checkpoint;
/// the previous good file is additionally kept as `<path>.bak`. Loads
/// verify the format CRC and fall back to the `.bak` automatically when the
/// primary file is corrupt, emitting a `recovery` obs point — production
/// resume loses at most one iteration of progress, which the greedy loop
/// recomputes identically.
pub struct CheckpointStore {
    path: PathBuf,
    obs: Obs,
}

impl CheckpointStore {
    /// A store rooted at `path`. The directory must exist.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, obs: &Obs) -> Self {
        CheckpointStore {
            path: path.into(),
            obs: obs.clone(),
        }
    }

    /// Primary checkpoint path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sibling(&self, ext: &str) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(ext);
        PathBuf::from(os)
    }

    /// Atomically persist `ckpt`, rotating the previous good file to
    /// `.bak`. `faults` lets an armed plan damage the file *after* the
    /// writer believes the save durable (torn write / media corruption) —
    /// exactly what the CRC + fallback protocol must survive.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, ckpt: &Checkpoint, faults: Option<&FaultState>) -> std::io::Result<()> {
        let tmp = self.sibling(".tmp");
        if self.path.exists() {
            fs::copy(&self.path, self.sibling(".bak"))?;
        }
        fs::write(&tmp, ckpt.to_text())?;
        fs::rename(&tmp, &self.path)?;
        if let Some(f) = faults {
            match f.on_checkpoint_save() {
                CheckpointFault::None => {}
                CheckpointFault::Truncate => {
                    let bytes = fs::read(&self.path)?;
                    fs::write(&self.path, &bytes[..bytes.len() / 2])?;
                }
                CheckpointFault::Bitflip(word) => {
                    let mut bytes = fs::read(&self.path)?;
                    if !bytes.is_empty() {
                        let bit = word as usize % (bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        fs::write(&self.path, &bytes)?;
                    }
                }
            }
        }
        if self.obs.is_enabled() {
            self.obs.counter_add("ckpt.saves", 1);
        }
        Ok(())
    }

    /// Load the newest good checkpoint: the primary file if it parses and
    /// its CRC checks out, else the `.bak` (recorded as a `recovery` point
    /// with kind `ckpt_fallback`).
    ///
    /// # Errors
    /// Returns a message when neither file yields a valid checkpoint.
    pub fn load(&self) -> Result<Checkpoint, String> {
        let primary = fs::read_to_string(&self.path)
            .map_err(|e| format!("read {}: {e}", self.path.display()))
            .and_then(|t| Checkpoint::from_text(&t));
        let err = match primary {
            Ok(c) => return Ok(c),
            Err(e) => e,
        };
        let bak = self.sibling(".bak");
        let fallback = fs::read_to_string(&bak)
            .map_err(|e| format!("read {}: {e}", bak.display()))
            .and_then(|t| Checkpoint::from_text(&t))
            .map_err(|bak_err| {
                format!("primary checkpoint invalid ({err}); backup invalid too ({bak_err})")
            })?;
        if self.obs.is_enabled() {
            self.obs.point(
                "recovery",
                &[
                    ("kind", "ckpt_fallback".into()),
                    ("error", err.as_str().into()),
                ],
            );
            self.obs.counter_add("recovery.ckpt_fallbacks", 1);
        }
        Ok(fallback)
    }
}

fn hex_words(words: &[u64]) -> String {
    words
        .iter()
        .map(|w| format!("{w:016x}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_hex_words(s: &str) -> Result<Vec<u64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|w| u64::from_str_radix(w, 16).map_err(|_| format!("bad mask word {w}")))
        .collect()
}

/// Run (or resume) 4-hit greedy discovery, checkpointing after every
/// iteration via `save`. `budget_iterations` bounds the work done in this
/// call (the "allocation"); the returned checkpoint resumes seamlessly.
///
/// Uses the masked-exclusion path so the checkpoint's original-indexing
/// mask applies directly.
///
/// # Panics
/// Panics if the checkpoint fails validation against the input.
pub fn run_with_checkpoints<F: FnMut(&Checkpoint)>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
    ckpt: Checkpoint,
    budget_iterations: usize,
    save: F,
) -> Checkpoint {
    run_with_checkpoints_obs(
        tumor,
        normal,
        cfg,
        ckpt,
        budget_iterations,
        save,
        &Obs::disabled(),
    )
}

/// [`run_with_checkpoints`] with observability: one `checkpoint` point per
/// iteration recording the scan wall time and — the quantity a production
/// run budgets against its allocation — the `save_ns` the checkpoint write
/// callback took.
///
/// # Panics
/// Panics if the checkpoint fails validation against the input.
#[allow(clippy::too_many_arguments)]
pub fn run_with_checkpoints_obs<F: FnMut(&Checkpoint)>(
    tumor: &BitMatrix,
    normal: &BitMatrix,
    cfg: &GreedyConfig,
    mut ckpt: Checkpoint,
    budget_iterations: usize,
    mut save: F,
    obs: &Obs,
) -> Checkpoint {
    ckpt.validate(tumor)
        .expect("checkpoint does not match input");
    let _run_span = obs.span("checkpointed_run");
    for _ in 0..budget_iterations {
        if ckpt.remaining() == 0 {
            break;
        }
        if cfg.max_combinations != 0 && ckpt.chosen.len() >= cfg.max_combinations {
            break;
        }
        let scan_start = std::time::Instant::now();
        let (fr, _) = best_combination::<4>(tumor, normal, Some(&ckpt.uncovered_mask), cfg, 1, 0);
        let best = fr.best();
        let scan_ns = u64::try_from(scan_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if best.tp == 0 {
            break;
        }
        let cov = tumor.cover_mask(&best.genes);
        for (m, c) in ckpt.uncovered_mask.iter_mut().zip(cov.iter()) {
            *m &= !c;
        }
        ckpt.chosen.push(best.genes);
        let save_start = std::time::Instant::now();
        save(&ckpt);
        let save_ns = u64::try_from(save_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if obs.is_enabled() {
            obs.point(
                "checkpoint",
                &[
                    ("iter", (ckpt.chosen.len() - 1).into()),
                    ("scan_ns", scan_ns.into()),
                    ("save_ns", save_ns.into()),
                    ("remaining", u64::from(ckpt.remaining()).into()),
                ],
            );
            obs.counter_add("checkpoint.saves", 1);
            obs.counter_add("checkpoint.save_ns", save_ns);
        }
    }
    ckpt
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihit_core::greedy::{discover, Exclusion};

    fn lcg_matrices(g: usize, nt: usize, nn: usize, seed: u64) -> (BitMatrix, BitMatrix) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
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
                if next() % 5 == 0 {
                    n.set(gene, s, true);
                }
            }
        }
        (t, n)
    }

    #[test]
    fn text_roundtrip() {
        let (t, _) = lcg_matrices(10, 130, 10, 1);
        let mut c = Checkpoint::fresh(&t);
        c.chosen.push([1, 4, 7, 9]);
        c.uncovered_mask[0] = 0xDEADBEEF;
        let back = Checkpoint::from_text(&c.to_text()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Checkpoint::from_text("").is_err());
        assert!(Checkpoint::from_text("multihit-checkpoint\tv9\n").is_err());
        assert!(Checkpoint::from_text("multihit-checkpoint\tv1\nbogus\t3\n").is_err());
        let missing_mask = "multihit-checkpoint\tv1\ngenes\t5\ntumors\t10\n";
        assert!(Checkpoint::from_text(missing_mask)
            .unwrap_err()
            .contains("mask"));
    }

    /// A small valid v2 checkpoint to corrupt in the tests below.
    fn sample_text() -> String {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.chosen.push([0, 3, 6, 9]);
        c.to_text()
    }

    #[test]
    fn parse_rejects_truncation() {
        let text = sample_text();
        for frac in [1, 2, 3] {
            let cut = &text[..text.len() * frac / 4];
            assert!(
                Checkpoint::from_text(cut).is_err(),
                "survived cut to {frac}/4"
            );
        }
    }

    #[test]
    fn no_single_bitflip_parses_to_a_different_checkpoint() {
        // The CRC can't make every flip a parse error (flipping the case of
        // a trailer hex digit is a no-op), but no flip may ever parse into
        // a checkpoint that differs from the original — that would be the
        // silent corruption the format exists to stop.
        let text = sample_text();
        let original = Checkpoint::from_text(&text).unwrap();
        let mut bytes = text.as_bytes().to_vec();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Some(parsed) = String::from_utf8(bytes.clone())
                .ok()
                .and_then(|s| Checkpoint::from_text(&s).ok())
            {
                assert_eq!(parsed, original, "bit {bit} flip silently corrupted");
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn parse_rejects_bad_hex_mask() {
        let text = sample_text().replace("mask\t", "mask\tzz");
        assert!(Checkpoint::from_text(&text).is_err());
    }

    #[test]
    fn parse_rejects_duplicate_headers() {
        // Rebuild with a duplicate record and a fresh CRC so only the
        // duplication (not the checksum) can be the rejection reason.
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let c = Checkpoint::fresh(&t);
        for record in ["genes\t10\n", "tumors\t70\n"] {
            let mut body: String = c
                .to_text()
                .lines()
                .filter(|l| !l.starts_with("crc\t"))
                .map(|l| format!("{l}\n"))
                .collect();
            body.push_str(record);
            let with_crc = format!("{body}crc\t{:08x}\n", crc32(body.as_bytes()));
            let err = Checkpoint::from_text(&with_crc).unwrap_err();
            assert!(err.contains("duplicate"), "{record:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_out_of_range_gene_ids() {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.chosen.push([0, 3, 6, 10]); // gene 10 in a 10-gene universe
        let err = Checkpoint::from_text(&c.to_text()).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn parse_rejects_wrong_mask_length() {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.uncovered_mask.push(0); // 70 tumors need 2 words, not 3
        let err = Checkpoint::from_text(&c.to_text()).unwrap_err();
        assert!(err.contains("words"), "{err}");
    }

    #[test]
    fn parse_accepts_legacy_v1_without_crc() {
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        c.version = 1;
        let text = c.to_text();
        assert!(!text.contains("crc"), "v1 must not carry a trailer");
        assert_eq!(Checkpoint::from_text(&text).unwrap(), c);
    }

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("multihit-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.ckpt")
    }

    #[test]
    fn store_round_trips_atomically() {
        use crate::fault::{FaultPlan, FaultState};
        let path = temp_store_path("roundtrip");
        let obs = Obs::disabled();
        let store = CheckpointStore::new(&path, &obs);
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        store.save(&c, None).unwrap();
        assert_eq!(store.load().unwrap(), c);
        c.chosen.push([1, 2, 3, 4]);
        let st = FaultState::new(FaultPlan::none(), &obs);
        store.save(&c, Some(&st)).unwrap();
        assert_eq!(store.load().unwrap(), c);
        assert!(!store.path().with_extension("ckpt.tmp").exists());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn store_falls_back_to_backup_on_corruption() {
        use crate::fault::{FaultPlan, FaultState};
        for (tag, spec) in [("trunc", "ckpt-truncate=1"), ("flip", "ckpt-bitflip=1")] {
            let path = temp_store_path(tag);
            let obs = Obs::enabled();
            let store = CheckpointStore::new(&path, &obs);
            let st = FaultState::new(FaultPlan::parse(spec, 9).unwrap(), &obs);
            let (t, _) = lcg_matrices(10, 70, 10, 2);
            let mut good = Checkpoint::fresh(&t);
            store.save(&good, Some(&st)).unwrap(); // save 0: intact
            good.chosen.push([1, 2, 3, 4]);
            store.save(&good, Some(&st)).unwrap(); // save 1: damaged on disk
            let loaded = store.load().unwrap();
            // The damaged save is rejected; resume restarts from save 0.
            assert_eq!(loaded.chosen.len(), 0, "{spec}");
            assert_eq!(st.fired().len(), 1, "{spec}");
            let events = obs.events();
            assert!(
                events
                    .iter()
                    .any(|e| e.name == "recovery" && e.str("kind") == Some("ckpt_fallback")),
                "{spec}: no fallback recovery point"
            );
            std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn store_survives_compound_corruption_plans() {
        // Satellite (c): both checkpoint fault kinds armed in ONE plan.
        // Each damaged save is individually survived via the `.bak` as long
        // as a good save lands in between (the rotation keeps exactly one
        // generation of history).
        use crate::fault::{FaultPlan, FaultState};
        let path = temp_store_path("compound");
        let obs = Obs::enabled();
        let store = CheckpointStore::new(&path, &obs);
        let st = FaultState::new(
            FaultPlan::parse("ckpt-truncate=1, ckpt-bitflip=3", 9).unwrap(),
            &obs,
        );
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        store.save(&c, Some(&st)).unwrap(); // save 0: intact
        c.chosen.push([1, 2, 3, 4]);
        store.save(&c, Some(&st)).unwrap(); // save 1: truncated on disk
        assert_eq!(store.load().unwrap().chosen.len(), 0, "fell back to save 0");
        c.chosen.push([2, 3, 4, 5]);
        store.save(&c, Some(&st)).unwrap(); // save 2: intact again
        assert_eq!(store.load().unwrap().chosen.len(), 2);
        c.chosen.push([3, 4, 5, 6]);
        store.save(&c, Some(&st)).unwrap(); // save 3: bit-flipped on disk
        assert_eq!(store.load().unwrap().chosen.len(), 2, "fell back to save 2");
        assert_eq!(st.fired().len(), 2, "both fault kinds fired in one plan");
        assert_eq!(obs.counters().get("recovery.ckpt_fallbacks"), Some(&2));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn consecutive_damaged_saves_fail_loudly_not_silently() {
        // The protocol keeps one generation of history: two damaged saves
        // in a row leave both the primary and the `.bak` corrupt, and load
        // must report that — never resume from garbage.
        use crate::fault::{FaultPlan, FaultState};
        let path = temp_store_path("double");
        let obs = Obs::disabled();
        let store = CheckpointStore::new(&path, &obs);
        let st = FaultState::new(
            FaultPlan::parse("ckpt-truncate=1, ckpt-bitflip=2", 9).unwrap(),
            &obs,
        );
        let (t, _) = lcg_matrices(10, 70, 10, 2);
        let mut c = Checkpoint::fresh(&t);
        store.save(&c, Some(&st)).unwrap(); // save 0: intact
        c.chosen.push([1, 2, 3, 4]);
        store.save(&c, Some(&st)).unwrap(); // save 1: truncated
        c.chosen.push([2, 3, 4, 5]);
        store.save(&c, Some(&st)).unwrap(); // save 2: rotates the damaged
                                            // save 1 into `.bak`, then flips
        let err = store.load().unwrap_err();
        assert!(
            err.contains("backup invalid too"),
            "double corruption must name both failures: {err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn restore_across_a_membership_epoch_change() {
        // Satellite (c): a checkpoint written BEFORE a membership epoch
        // change resumes to the same answer the churned cluster produced.
        // The checkpoint format is roster-free by design (combinations +
        // uncovered mask), so a resume never depends on which ranks were
        // alive when it was written.
        use crate::driver::{distributed_discover4_ft, DistributedConfig};
        use crate::fault::{FaultPlan, FaultState, FtParams};
        use crate::topology::ClusterShape;
        let (t, n) = lcg_matrices(11, 90, 60, 13);
        let cfg = DistributedConfig {
            shape: ClusterShape {
                nodes: 4,
                gpus_per_node: 2,
            },
            max_combinations: 3,
            ..DistributedConfig::default()
        };
        // Churned run: rank 2 dies at iteration 0, a replacement joins at
        // the iteration-1 barrier — one membership epoch.
        let plan = FaultPlan::parse("rank-kill=2@0, rank-join=2-1", 7).unwrap();
        let faults = FaultState::new(plan, &Obs::disabled());
        let ft = distributed_discover4_ft(
            &t,
            &n,
            &cfg,
            Some(&faults),
            FtParams::fast_test(),
            &Obs::disabled(),
        );
        assert_eq!(ft.recovery.membership_epochs, 1);
        assert!(
            ft.result.combinations.len() >= 2,
            "need iterations on both sides"
        );

        // The checkpoint as the epoch-0 roster would have written it after
        // the first combination — before the join existed.
        let mut ck = Checkpoint::fresh(&t);
        let first = ft.result.combinations[0];
        let cov = t.cover_mask(&first);
        for (m, c) in ck.uncovered_mask.iter_mut().zip(cov.iter()) {
            *m &= !c;
        }
        ck.chosen.push(first);
        // Persist + reload through the store (process restart), then resume.
        let path = temp_store_path("epoch");
        let store = CheckpointStore::new(&path, &Obs::disabled());
        store.save(&ck, None).unwrap();
        let resumed = store.load().unwrap();
        let done = run_with_checkpoints(
            &t,
            &n,
            &GreedyConfig {
                exclusion: Exclusion::Mask,
                parallel: false,
                max_combinations: cfg.max_combinations,
                ..GreedyConfig::default()
            },
            resumed,
            usize::MAX,
            |_| {},
        );
        assert_eq!(done.chosen, ft.result.combinations);
        assert_eq!(done.remaining(), ft.result.uncovered);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn resumed_run_equals_uninterrupted_run() {
        let (t, n) = lcg_matrices(10, 120, 60, 42);
        let cfg = GreedyConfig {
            exclusion: Exclusion::Mask,
            parallel: false,
            ..GreedyConfig::default()
        };
        // Uninterrupted reference.
        let reference = discover::<4>(&t, &n, &cfg);
        // Interrupted: budget 2 iterations per "allocation", serialize the
        // checkpoint across allocations through text.
        let mut ckpt = Checkpoint::fresh(&t);
        loop {
            let before = ckpt.chosen.len();
            ckpt = run_with_checkpoints(&t, &n, &cfg, ckpt, 2, |_| {});
            // Simulate writing to disk and restarting the process.
            ckpt = Checkpoint::from_text(&ckpt.to_text()).unwrap();
            if ckpt.chosen.len() == before {
                break;
            }
        }
        assert_eq!(ckpt.chosen, reference.combinations);
        assert_eq!(ckpt.remaining(), reference.uncovered);
    }

    #[test]
    fn save_hook_fires_every_iteration() {
        let (t, n) = lcg_matrices(9, 80, 40, 7);
        let cfg = GreedyConfig {
            parallel: false,
            ..GreedyConfig::default()
        };
        let mut saves = 0;
        let ckpt = run_with_checkpoints(&t, &n, &cfg, Checkpoint::fresh(&t), 3, |c| {
            saves += 1;
            assert_eq!(c.chosen.len(), saves);
        });
        assert_eq!(saves, ckpt.chosen.len().min(3));
    }

    #[test]
    #[should_panic(expected = "does not match input")]
    fn validation_catches_wrong_cohort() {
        let (t, n) = lcg_matrices(9, 80, 40, 7);
        let (other, _) = lcg_matrices(11, 80, 40, 8);
        let cfg = GreedyConfig::default();
        let _ = run_with_checkpoints(&t, &n, &cfg, Checkpoint::fresh(&other), 1, |_| {});
    }

    #[test]
    fn checkpoint_is_small() {
        // Tens of bytes per iteration + one mask: ~n_tumor/8 bytes, not the
        // matrix's n_genes × n_tumor / 8.
        let (t, _) = lcg_matrices(500, 960, 10, 3);
        let c = Checkpoint::fresh(&t);
        let text = c.to_text();
        assert!(text.len() < 400, "checkpoint {} bytes", text.len());
    }
}
