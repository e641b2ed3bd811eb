#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--runs R] [--seconds S] [--smoke]
#       builds scsqd and the benchmark, runs the four workloads untraced
#       (R runs each, seeds N..N+R-1; default seed 11, 1 run), then one
#       traced run per workload with the layer micro-drivers, checks
#       every output, prints every metric as `name value unit` and
#       writes benchmark/out/results.json and four trace files.
#   benchmark/run.sh --aa [--runs R] [--seconds S]
#       two full sets of runs of the same build (default 10 runs each),
#       compared by compare.sh; writes benchmark/out/aa_spreads.json.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the JSON
#       result object (the form BENCHMARK.json's `command` uses).
#
# Everything is built from source, offline, into $CARGO_TARGET_DIR
# (default .bench_build in the repository root).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}

# The program under test (the daemon binary of the root package), then
# the benchmark package. Both go to stderr so stdout stays the report.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin scsqd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin=$CARGO_TARGET_DIR/release/scsq-benchmark

mode=suite
args=()
for arg in "$@"; do
    case $arg in
        --workload) mode=run ;;
        --aa) mode=aa; continue ;;
    esac
    args+=("$arg")
done

case $mode in
    run) exec "$bin" run "${args[@]}" ;;
    suite) exec "$bin" suite "${args[@]}" ;;
    aa)
        mkdir -p benchmark/out
        status=0
        "$bin" suite --runs 10 "${args[@]}" --out benchmark/out/aa_A.json || status=$?
        "$bin" suite --runs 10 "${args[@]}" --out benchmark/out/aa_B.json || status=$?
        "$bin" compare benchmark/out/aa_A.json benchmark/out/aa_B.json \
            --spreads benchmark/out/aa_spreads.json || status=$?
        exit "$status"
        ;;
esac
