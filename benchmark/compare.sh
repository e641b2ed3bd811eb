#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Sets two results files (benchmark/run.sh writes them) side by side:
# per workload and end-to-end metric both medians with quartiles, how
# much worse B is against the metric's bound, and `unresolved` where
# the run-to-run spread exceeds the bound. Exits 1 if a metric
# regressed.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-$root/.bench_build}
( cd "$root" && CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2 )
exec "$target/release/scsq-benchmark" compare "$@"
