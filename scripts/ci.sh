#!/usr/bin/env bash
# CI gate: release build, the cascn-lint contract ratchet (all nine rules:
# the five token rules plus the per-crate concurrency passes — lock-order,
# guard-across-blocking, wait-loop, atomic-ordering), clippy with
# warnings-as-errors, the full test suite, the tensor crate's tests, the
# cascade decoders' tests and properties, the training bit pins and the
# thread-parity suite in release (optimized float codegen, with the
# vectorized matmul kernels, is the configuration that ships; integer
# overflow panics in debug but wraps in release, so a decoder is checked in
# the profile that ships too; the CasCN, GL and Path pins and the deep
# baselines' pins), bench compilation, the perfbench harness's own tests
# (a tiny traced run of every workload, so a library API the benchmark calls
# cannot break unnoticed),
# the perf ratchet (BENCH_train.json vs bench-baseline.json:
# sparse-kernel speedup, kernel-accuracy and next-user Hit@10 gates plus
# banded wall-clock), the kill-and-resume smoke test, the serving smoke
# test, the next-user train→serve smoke test, and the fleet smoke test
# (3-replica tier behind cascn-router surviving a kill -9 under load with
# zero non-503 errors and a warm restart, plus the /predict_next leg gated
# by serve_check against serve-baseline.json).
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release
cargo run --release -p cascn-lint -- --check
cargo clippy --all-targets -- -D warnings
cargo test -q
cargo test -q --release -p cascn-tensor
cargo test -q --release -p cascn-cascades
cargo test -q --release -p cascn --test training_bits
cargo test -q --release -p cascn-baselines --test training_bits
cargo test -q --release -p cascn --test thread_parity
cargo bench --no-run -p cascn-bench
cargo test --release --manifest-path perfbench/Cargo.toml
cargo run --release -q -p cascn-bench --bin record -- --check
scripts/resume_smoke.sh
scripts/serve_smoke.sh
scripts/next_user_smoke.sh
scripts/fleet_smoke.sh
