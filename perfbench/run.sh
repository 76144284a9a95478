#!/usr/bin/env bash
# Build the `vase` binary and the benchmark in release mode, then run one
# workload. Arguments are passed through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload serve_corpus --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Cargo's own output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p vase --bin vase >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --vase-bin "$CARGO_TARGET_DIR/release/vase" "$@"
