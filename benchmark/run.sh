#!/usr/bin/env bash
# Build the benchmark from source and run it. The one command of this
# directory:
#
#   benchmark/run.sh --workload <w> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke]
#   benchmark/run.sh repeat --runs <n> [--seeds a,b,c]
#
# Works from any directory. The build goes to $CARGO_TARGET_DIR when that is
# set, else to benchmark/target; nothing is fetched (--offline).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Cargo's progress goes to stderr and only when the build fails: the last
# line of standard output must be the result.
if ! log="$(CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 2>&1)"; then
    printf '%s\n' "$log" >&2
    exit 3
fi

# Out-of-core runs hold a file open per live segment; lift the soft limit to
# the hard one (the binary checks that it is enough and says so if not).
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true

# The stamp every output carries.
export SCALPARC_BENCH_RUSTC="${SCALPARC_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export SCALPARC_BENCH_DATE="${SCALPARC_BENCH_DATE:-$(date -u +%F)}"
export SCALPARC_BENCH_COMMIT="${SCALPARC_BENCH_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

exec "$target/release/scalparc-benchmark" "$@"
