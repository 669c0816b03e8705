//! Integration tests for the `multihit` command-line tool: synth →
//! discover → classify as subprocesses, exercising the binary exactly as a
//! user would.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_multihit"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("multihit-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn synth_discover_classify_pipeline() {
    let dir = tempdir("pipeline");
    let out = bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args([
            "--genes", "24", "--hits", "2", "--combos", "2", "--seed", "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["tumor.maf", "normal.maf", "truth.txt"] {
        assert!(dir.join(f).exists(), "{f} missing");
    }

    let results = dir.join("results.tsv");
    let out = bin()
        .args(["discover", "--hits", "2", "--cohort", "clitest", "--tumor"])
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .arg("--out")
        .arg(&results)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "discover failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&results).unwrap();
    assert!(text.starts_with("#cohort\tclitest"));
    assert!(
        text.lines().count() > 3,
        "no combinations discovered:\n{text}"
    );

    // The planted truth must appear among the discovered combinations.
    let truth = std::fs::read_to_string(dir.join("truth.txt")).unwrap();
    for planted in truth.lines().filter(|l| !l.is_empty()) {
        let mut genes: Vec<&str> = planted.split(',').collect();
        genes.sort_unstable();
        let found = text.lines().skip(3).any(|row| {
            let combo = row.split('\t').nth(1).unwrap_or("");
            let mut c: Vec<&str> = combo.split(',').collect();
            c.sort_unstable();
            c == genes
        });
        assert!(found, "planted {planted} not in results:\n{text}");
    }

    let out = bin()
        .args(["classify", "--results"])
        .arg(&results)
        .arg("--tumor")
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sensitivity"), "{stdout}");
    assert!(stdout.contains("specificity"), "{stdout}");
    // Training-set evaluation of planted data: sensitivity near 1.
    let sens: f64 = stdout
        .lines()
        .find(|l| l.starts_with("sensitivity"))
        .and_then(|l| l.split('\t').nth(1))
        .unwrap()
        .parse()
        .unwrap();
    assert!(sens > 0.8, "sensitivity {sens}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn discover_rejects_bad_hits() {
    let dir = tempdir("badhits");
    bin()
        .args(["synth", "--out-dir"])
        .arg(&dir)
        .args(["--genes", "12", "--hits", "2", "--combos", "2"])
        .output()
        .unwrap();
    let out = bin()
        .args(["discover", "--hits", "9", "--tumor"])
        .arg(dir.join("tumor.maf"))
        .arg("--normal")
        .arg(dir.join("normal.maf"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not supported"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_arguments_are_reported() {
    let out = bin().arg("discover").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tumor"));
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn discover_rejects_unknown_flags() {
    // A retired scan-mode flag and a typo must both fail loudly, naming the
    // flag, rather than silently running the default path.
    for flag in ["--no-prune", "--no-kernalize"] {
        let out = bin()
            .args([
                "discover", "--tumor", "t.maf", "--normal", "n.maf", "--hits", "2", flag,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag} not named in: {err}");
    }
}

#[test]
fn loadgen_smoke_is_clean_and_writes_bench_json() {
    let dir = tempdir("loadgen");
    let bench = dir.join("BENCH_serve.json");
    let out = bin()
        .args([
            "loadgen",
            "--clients",
            "8",
            "--requests",
            "3000",
            "--profiles",
            "128",
            "--seed",
            "5",
            "--out",
        ])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lost\t0"), "{stdout}");
    assert!(stdout.contains("divergent\t0"), "{stdout}");
    let json = std::fs::read_to_string(&bench).unwrap();
    for key in [
        "\"bench\":\"serve\"",
        "\"requests\":3000",
        "\"lost\":0",
        "\"divergent\":0",
        "p50_latency_ns",
        "p95_latency_ns",
        "p99_latency_ns",
        "cache_hit_rate",
        "throughput_rps",
        "\"shed\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_smoke_answers_over_tcp() {
    // Bind an ephemeral port for a short window, classify over the socket.
    use std::io::{BufRead, BufReader, Write};
    let mut child = bin()
        .args([
            "serve",
            "--synth",
            "--addr",
            "127.0.0.1:0",
            "--duration-secs",
            "10",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"id\":1,\"model\":\"synth\",\"genes\":\"G0,G1,G2\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"ok\""), "{line}");
    assert!(line.contains("\"id\":1"), "{line}");
    // Unknown model errors without killing the connection.
    writer
        .write_all(b"{\"id\":2,\"model\":\"nope\",\"genes\":\"\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"error\""), "{line}");
    drop(writer);
    drop(reader);
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: multihit"));
}
