#!/usr/bin/env bash
# Alternating A/B pairs of the repo benchmark: a parent revision against
# the working tree.
#
#   scripts/ab_pairs.sh <parent-rev> <workload> [--pairs N] [--seconds S] [--seed K] [--aa]
#
# Builds scsqd and the benchmark twice, each into its own target
# directory: once from <parent-rev>, exported with `git archive` into a
# temporary checkout (no worktree is registered in .git), and once from
# the working tree. Then runs N untraced pairs (default 10 pairs of 10 s
# runs, seed 11), alternating which side goes first, since a host's
# speed drifts for minutes at a time. Prints each pair's relative delta
# (working tree against parent) on the five end-to-end metrics, then per
# metric the parent's median and quartiles, the working tree's median,
# the median delta and how many pairs the working tree won.
#
# --aa is the A/A control: the working tree is replaced by a second
# export of <parent-rev> into another directory, built into its own
# target directory, so the pairs run the parent against itself. Its
# deltas are what code layout, build path and host drift alone produce
# on that workload; a claim that a change is "within noise" compares
# its deltas with these, not with zero.
#
# Builds are cached under $AB_PAIRS_DIR (default $TMPDIR/scsq-ab-pairs,
# or /tmp/scsq-ab-pairs), keyed by the parent's commit hash; delete the
# directory to reclaim the space.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> [--pairs N] [--seconds S] [--seed K] [--aa]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
pairs=10 seconds=10 seed=11 aa=0
while [ $# -gt 0 ]; do
    if [ "$1" = --aa ]; then
        aa=1
        shift
        continue
    fi
    [ $# -ge 2 ] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        *) usage ;;
    esac
    shift 2
done

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
cache=${AB_PAIRS_DIR:-${TMPDIR:-/tmp}/scsq-ab-pairs}
parent_src=$cache/src-$sha
mkdir -p "$cache"

# export <dir>: <parent-rev>'s tree in <dir>, unless already there.
export_parent() {
    if [ ! -f "$1/Cargo.toml" ]; then
        rm -rf "$1"
        mkdir -p "$1"
        git -C "$root" archive "$sha" | tar -x -C "$1"
    fi
}
export_parent "$parent_src"

# The other side: the working tree, or for --aa a second export.
if ((aa)); then
    work_src=$cache/src-$sha-aa
    work_target=$cache/target-$sha-aa
    export_parent "$work_src"
else
    work_src=$root
    work_target=$cache/target-work
fi

# build <source dir> <target dir>: what benchmark/run.sh builds.
build() {
    echo "==> building $1 into $2" >&2
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" --bin scsqd >&2
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" >&2
}
build "$parent_src" "$cache/target-$sha"
build "$work_src" "$work_target"

# run <side>: one untraced run, appending `side metric value` lines.
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
run() {
    local src bin
    case $1 in
        parent) src=$parent_src bin=$cache/target-$sha/release/scsq-benchmark ;;
        work) src=$work_src bin=$work_target/release/scsq-benchmark ;;
    esac
    (cd "$src" && "$bin" run --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) |
        awk -v side="$1" -v pair="$2" \
            'NF == 3 && $1 !~ /^#/ { print pair, side, $1, $2 }' >> "$runs"
}

other="working tree"
if ((aa)); then
    other="a second export of itself (A/A control)"
fi
echo "# $workload: parent ${sha:0:12} vs $other; $pairs pairs, seed $seed, $seconds s runs"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$i"
        run work "$i"
    else
        run work "$i"
        run parent "$i"
    fi
done

awk -v pairs="$pairs" '
    function median(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
            }
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # Quartile by linear interpolation on the sorted sample (sorted by
    # the median() call that precedes every use).
    function quart(a, n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    { v[$1, $2, $3] = $4 }
    END {
        split("setup_s op_p50_ms op_p95_ms work_per_s peak_rss_mb failed_share", m, " ")
        split("lower lower lower higher lower lower", better, " ")
        printf "%-5s %-7s", "pair", "first"
        for (k = 1; k <= 6; k++) printf " %13s", m[k]
        printf "\n"
        for (i = 1; i <= pairs; i++) {
            printf "%-5d %-7s", i, (i % 2 ? "parent" : "work")
            for (k = 1; k <= 6; k++) {
                p = v[i, "parent", m[k]]; w = v[i, "work", m[k]]
                if (m[k] == "failed_share") { printf " %6.3f/%-6.3f", p, w; continue }
                d = p != 0 ? 100 * (w - p) / p : 0
                printf " %+12.2f%%", d
                delta[k, i] = d; pv[k, i] = p; wv[k, i] = w
                if ((better[k] == "higher" && w > p) || (better[k] == "lower" && w < p)) won[k]++
            }
            printf "\n"
        }
        printf "\n%-13s %12s %12s %12s %12s %10s %6s\n", "metric", "parent_q1", "parent_med",
            "parent_q3", "work_med", "delta_med", "wins"
        for (k = 1; k <= 5; k++) {
            for (i = 1; i <= pairs; i++) { a[i] = pv[k, i]; b[i] = wv[k, i]; c[i] = delta[k, i] }
            pm = median(a, pairs)
            printf "%-13s %12.6g %12.6g %12.6g %12.6g %+9.2f%% %3d/%d\n", m[k],
                quart(a, pairs, 0.25), pm, quart(a, pairs, 0.75), median(b, pairs),
                median(c, pairs), won[k] + 0, pairs
        }
    }' "$runs"
