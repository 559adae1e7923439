#!/usr/bin/env bash
# Builds the shipped `cascn-serve` binary and the benchmark from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Both builds share CARGO_TARGET_DIR (default
# `target`); build output goes to stderr, and the last line of stdout is the
# JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p cascn-serve --bin cascn-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/cascn-perfbench" --server-bin "$target/release/cascn-serve" "$@"
