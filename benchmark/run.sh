#!/usr/bin/env bash
# The one command of the repository's benchmark: build release, then run.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--out FILE]   every workload, one process each
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1  one workload (last stdout line: JSON)
#   benchmark/run.sh --smoke                                           small scales, traced pass, validation
#   benchmark/run.sh --compare A.json B.json                           two result sets against the bounds
#   benchmark/run.sh --spread A.json B.json ...                        run-to-run spread against the bounds
#
# Builds offline from the sources next to this directory (../crates), so
# it fails — without printing a result — where those are absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GTS_BENCHMARK_HOME="$here"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# called from; pin it down so the binary is found wherever that is.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's lines.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/gts-benchmark" "$@"
