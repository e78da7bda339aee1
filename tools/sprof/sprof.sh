#!/usr/bin/env bash
# Profiles one run of a workspace binary with the sprof sampler.
#
#   tools/sprof/sprof.sh [--manifest PATH] BIN [ARGS...]
#
# Builds the sampler library and BIN (from PATH, default the root
# Cargo.toml; the repo benchmark is --manifest benchmark/Cargo.toml)
# with frame pointers and line tables into target/sprof, runs BIN ARGS
# under LD_PRELOAD, and prints the self/inclusive table of
# tools/sprof/report.py. The raw profile and the folded stacks stay in
# target/sprof/out/; report.py pools several profiles given together
# (runs over several seeds, say). Example:
#
#   tools/sprof/sprof.sh --manifest benchmark/Cargo.toml cbt-benchmark \
#       --workload fleet_churn --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
manifest="$root/Cargo.toml"
if [[ "${1:-}" == --manifest ]]; then
    manifest="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
    shift 2
fi
[[ $# -ge 1 ]] || { sed -n '2,15p' "$0"; exit 2; }
bin="$1"; shift

export CARGO_TARGET_DIR="$root/target/sprof"
export RUSTFLAGS="-C force-frame-pointers=yes"
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sprof
cargo build --release --offline --quiet --manifest-path "$manifest" --bin "$bin"

out="$CARGO_TARGET_DIR/out"
mkdir -p "$out"
prefix="$out/$bin-$(date +%Y%m%dT%H%M%S)-$$"
SPROF_OUT="$prefix" LD_PRELOAD="$CARGO_TARGET_DIR/release/libsprof.so" \
    "$CARGO_TARGET_DIR/release/$bin" "$@"
profile="$(ls "$prefix".* | head -1)"
echo "# profile: $profile" >&2
python3 "$root/tools/sprof/report.py" "$profile" --folded "$profile.folded"
