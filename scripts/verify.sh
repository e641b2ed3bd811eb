#!/usr/bin/env bash
# The repository's verification gate: the tier-1 commands plus style and
# lint checks. CI runs exactly this script; run it locally before
# pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
# The whole workspace, not just the root package: the transport, engine
# equivalence and figure-CSV suites live under crates/*/tests.
cargo test -q --workspace

echo "==> bash -n scripts/ab_pairs.sh"
# The A/B pairs script is only run by hand (it takes minutes per
# workload); keep it at least parseable.
bash -n scripts/ab_pairs.sh

echo "==> bash -n scripts/loc.sh"
# The non-test line counter; cheap, so also run it once.
bash -n scripts/loc.sh
bash scripts/loc.sh > /dev/null

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
# --all-targets compiles every test, example and binary too.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Workspace crates only (not the vendored proptest); broken intra-doc
# links and any other rustdoc warning fail.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps \
    -p scsq-sim -p scsq-net -p scsq-cluster -p scsq-transport \
    -p scsq-ql -p scsq-engine -p scsq-fft -p scsq-core \
    -p scsq-bench -p scsq

echo "==> doc links"
bash scripts/check_doc_links.sh

echo "==> obs_overhead (observability ceiling on the jittered per-event grid)"
# Fails if a profiled run costs at least max(2%, 3 x MAD_off / wall_off)
# over a plain one (medians of 7 interleaved passes), or changes a series.
cargo run -q --release -p scsq-bench --example obs_overhead

echo "==> coalstat counts (the paper sweep's per-point coalescer counts)"
# Digests, jumps, dispatched events, coordinates and shape words per
# digest at all 102 paper-sweep points, seed-11 spec: exact counts, so
# any drift from the pinned table fails.
cargo build -q --release -p scsq-bench --example coalstat
./target/release/examples/coalstat 100 0 11 counts |
    diff crates/scsq-bench/tests/golden/coalstat_counts.csv -
echo "    102 points unchanged"

echo "==> profiled representative run with a simulated-timeline trace"
# The same run CI archives: --trace writes the profiled run's own spans.
# Fails unless the trace holds at least one span and every begin event
# has its end event.
trace_dir=$(mktemp -d)
./target/release/fig6_p2p --quick --profile --trace "$trace_dir/trace.json" > /dev/null
begins=$(grep -c '"ph":"B"' "$trace_dir/trace.json" || true)
ends=$(grep -c '"ph":"E"' "$trace_dir/trace.json" || true)
rm -rf "$trace_dir"
if [ "$begins" -lt 1 ] || [ "$begins" -ne "$ends" ]; then
    echo "trace has $begins begin and $ends end events"
    exit 1
fi
echo "    $begins spans, every one closed"

echo "==> benchmark unit tests"
# The benchmark is its own workspace, so `cargo test --workspace` above
# never reaches its tests; among them is the check that its metric names
# still match BENCHMARK.json. Same build tree as the smoke run below.
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build} \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (closed-form answers, per-pass digests, declined-leg verdict)"
# The repo benchmark at reduced scale, for its output checks, not its
# timings: every workload's answers against closed forms, simtime.digest
# equal on every pass of a run, the declined leg still declined. A
# service-charging or transport change that drifts fails here first.
# Builds into .bench_build (its own workspace); the report is kept quiet
# unless a check fails.
bash benchmark/run.sh --smoke > /tmp/bench-smoke-verify.txt || {
    tail -n 40 /tmp/bench-smoke-verify.txt
    exit 1
}
rm -f /tmp/bench-smoke-verify.txt

echo "==> scsqd smoke (served transcript == local shell transcript, TCP == Unix socket)"
# Start the daemon on an OS-assigned port, run a prepare/run/show-catalog
# script through the scsqc client, and diff the served transcript against
# the scsql shell running the same script locally: the deterministic
# simulation backend makes the two byte-identical. Then ask the daemon to
# shut itself down and check it exits cleanly. A second daemon on a Unix
# socket must serve the same transcript: the two transports share every
# byte of the framing and differ only in the socket (and TCP_NODELAY).
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cat > "$smoke_dir/smoke.scsql" <<'EOF'
prepare p2p as select extract(b) from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and a=sp(gen_array(300000,10),'bg',1);
run p2p;
run p2p;
show catalog;
EOF
./target/release/scsqd --listen 127.0.0.1:0 > "$smoke_dir/scsqd.out" &
scsqd_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^LISTEN //p' "$smoke_dir/scsqd.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "scsqd never announced its listen address"
    kill "$scsqd_pid" 2>/dev/null || true
    exit 1
fi
./target/release/scsqc "$addr" "$smoke_dir/smoke.scsql" > "$smoke_dir/served.out"
./target/release/scsql "$smoke_dir/smoke.scsql" > "$smoke_dir/local.out"
diff "$smoke_dir/served.out" "$smoke_dir/local.out"
printf '.shutdown\n' | ./target/release/scsqc "$addr" > /dev/null
wait "$scsqd_pid"
./target/release/scsqd --unix "$smoke_dir/scsqd.sock" > /dev/null &
scsqd_pid=$!
for _ in $(seq 1 100); do
    [ -S "$smoke_dir/scsqd.sock" ] && break
    sleep 0.1
done
./target/release/scsqc "unix:$smoke_dir/scsqd.sock" "$smoke_dir/smoke.scsql" > "$smoke_dir/unix.out"
diff "$smoke_dir/unix.out" "$smoke_dir/served.out"
printf '.shutdown\n' | ./target/release/scsqc "unix:$smoke_dir/scsqd.sock" > /dev/null
wait "$scsqd_pid"
echo "    served == local over TCP and the Unix socket, daemons exited cleanly"

echo "verify: OK"
