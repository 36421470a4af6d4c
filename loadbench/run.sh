#!/usr/bin/env bash
# Builds the release `flexctl` and the load benchmark from this checkout,
# then runs one benchmark run:
#
#   bash loadbench/run.sh --workload query-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and per-run scratch files
# go to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
    echo "error: $root is not a flexoffers checkout; the benchmark builds flexctl from it" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin flexctl >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/loadbench" --flexctl "$target/release/flexctl" --scratch "$target/loadbench" "$@"
