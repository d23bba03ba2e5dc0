#!/usr/bin/env bash
# The repository's benchmark: builds the standalone package in this
# directory, then runs it. See README.md here for workloads, metrics and
# how to read the output.
#
#   benchmark/run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
#                    [--quick] [--runs N] [--out FILE] [--expected DIR] [--bless]
#   benchmark/run.sh --compare A B | --selftest | --list
#
# With one --workload the last line of standard output is the result
# object {"correct", "attempted", "failed", "metrics"}; exit status is
# non-zero if any output check failed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/vsnoop-benchmark" --home "$here" "$@"
