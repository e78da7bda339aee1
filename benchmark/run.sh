#!/usr/bin/env bash
# The repo benchmark, one command: builds the standalone workspace in
# this directory (offline, release) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload untraced (end-to-end numbers), then traced
#       (per-layer numbers + tracing overhead), outputs checked, every
#       metric printed by name and unit
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result JSON
#   benchmark/run.sh compare <setA> <setB> | sweep ... | probe ...
#
# Writes only under benchmark/out/ (and cargo's target directory).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bin cbt-benchmark -- "$@"
