#!/usr/bin/env bash
# Repo-wide checks: formatting, lints, and the tier-1 build+test gate.
# Run from the repository root. Fails fast on the first broken check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps --document-private-items (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items --quiet

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> vendored serde's own unit tests (not a workspace member)"
cargo test -q -p serde

echo "==> benchmark builds against the current library (perfbench/)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --bins

echo "==> smoke: trace_export round-trip (emitted Chrome trace must parse)"
cargo run --release -q -p capuchin-bench --bin trace_export -- --smoke

echo "==> smoke: cluster_bench scenario table (invariants of every scenario + committed-row gates)"
cargo run --release -q -p capuchin-bench --bin cluster_bench -- --smoke

echo "==> smoke: serve daemon, in-process (TCP submit/subscribe/drain, stats byte-identity)"
cargo run --release -q -p capuchin-bench --bin serve_smoke

echo "==> smoke: serve daemon, external process on an ephemeral port"
serve_log="$(mktemp)"
./target/release/capuchin-serve --addr 127.0.0.1:0 --clock virtual \
  --gpus 2 --admission tf-ori --elastic on > "$serve_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
for _ in $(seq 1 50); do
  grep -q 'listening on ' "$serve_log" && break
  sleep 0.1
done
serve_addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" | head -1)"
[ -n "$serve_addr" ] || { echo "capuchin-serve never reported its address"; exit 1; }
./target/release/serve_smoke --connect "$serve_addr"
# The shutdown op must terminate the daemon cleanly, and within 10 s:
# a hung shutdown fails this step instead of hanging CI.
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "capuchin-serve still running 10 s after shutdown; killing it"
  kill "$serve_pid"
  exit 1
fi
wait "$serve_pid"
trap - EXIT
rm -f "$serve_log"

echo "==> all checks passed"
