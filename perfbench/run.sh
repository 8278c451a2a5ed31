#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <fleet|admit|swap|serve> --seed <n> \
#       --seconds <n> --trace <0|1>
#
# Run from the repository root. `--trace 0` runs the end-to-end binary
# (system allocator, no spans); `--trace 1` runs the traced binary
# (counting allocator, spans written under perfbench/traces/). Build
# output goes to $CARGO_TARGET_DIR, or perfbench/target when it is unset.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

bin=perfbench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=perfbench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
