//! Every workload, end to end, at smoke length: one set-up, one timed
//! round, all output checks, untraced and traced.

use std::path::{Path, PathBuf};
use std::process::Command;

use vase::diag::json::Json;

const WORKLOADS: [&str; 4] = ["serve_corpus", "scale_synth", "map_search", "sim_corpus"];

/// The target directory this test was built into.
fn target_dir() -> PathBuf {
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    exe.parent()
        .and_then(Path::parent)
        .expect("bin lives in <target>/<profile>/")
        .to_owned()
}

/// Build the release `vase` binary the serve workload drives.
fn vase_bin() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "vase",
            "--bin",
            "vase",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target_dir())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building vase failed");
    target_dir().join("release").join("vase")
}

fn run(workload: &str, trace: bool, vase: &Path) -> Json {
    let out = target_dir()
        .join("perfbench-smoke")
        .join(format!("{workload}-{trace}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--vase-bin")
        .arg(vase)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let file = std::fs::read_to_string(&out).expect("results file written");
    assert!(
        Json::parse(file.trim()).is_ok(),
        "{workload}: results file is JSON"
    );
    result
}

#[test]
fn every_workload_runs_and_checks_its_outputs() {
    let vase = vase_bin();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = run(workload, trace, &vase);
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}: {}",
                r.to_line()
            );
            let attempted = r
                .get("attempted")
                .and_then(Json::as_int)
                .expect("attempted");
            let failed = r.get("failed").and_then(Json::as_int).expect("failed");
            assert!(
                attempted >= 1 && failed <= attempted,
                "{workload}: {}",
                r.to_line()
            );
            // Only the simulator's known netlist faults and, in
            // `map_search`, the faulty mapping of each of its two
            // regression graphs may fail.
            match workload {
                "sim_corpus" => {}
                "map_search" => assert!(failed <= 2, "{workload}: {}", r.to_line()),
                _ => assert_eq!(failed, 0, "{workload}: {}", r.to_line()),
            }
            let metrics = r.get("metrics").expect("metrics");
            let Json::Obj(fields) = metrics else {
                panic!("metrics is an object")
            };
            let expected = if trace { 44 } else { 5 };
            assert_eq!(fields.len(), expected, "{workload}: {}", r.to_line());
            for (name, m) in fields {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {m:?}"
                );
                if !trace {
                    assert!(value.is_some_and(|v| v > 0.0), "{workload}: {name} = {m:?}");
                }
            }
        }
    }
}

#[test]
fn a_directory_without_the_program_fails_without_a_result() {
    let dir = target_dir().join("perfbench-empty");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "serve_corpus",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--vase-bin", "does/not/exist"])
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
