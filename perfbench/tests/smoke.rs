//! A tiny-size traced run of every workload through the built binaries:
//! each must exit 0, pass every correctness check, and report every
//! per-layer metric.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Builds the shipped `cascn-serve` into the repository's target directory
/// and returns its path.
fn server_bin() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "cascn-serve",
            "--bin",
            "cascn-serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building cascn-serve failed");
    target.join("release").join("cascn-serve")
}

fn per_layer_names() -> Vec<String> {
    let json = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json sits beside the benchmark");
    let section = json
        .split("\"per_layer\"")
        .nth(1)
        .expect("per_layer section");
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn every_workload_runs_traced_at_tiny_size() {
    let server = server_bin();
    let names = per_layer_names();
    assert!(names.len() > 20, "per-layer metrics listed: {names:?}");
    for workload in ["train", "serve_cold", "serve_stream"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cascn-perfbench"))
            .args([
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "1",
                "--tiny",
            ])
            .arg("--server-bin")
            .arg(&server)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().unwrap_or_default();
        assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
        assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
        for name in &names {
            assert!(
                last.contains(&format!("\"{name}\":{{\"value\":")),
                "{workload} lacks {name}"
            );
        }
        assert_eq!(
            last.matches("\"value\":").count(),
            names.len(),
            "{workload}: {last}"
        );
    }
}
