#!/usr/bin/env bash
# The repo's benchmark. One command builds the program from source and
# runs it; see README.md beside this file.
#
#   benchmark/run.sh                      every workload, both passes
#   benchmark/run.sh --check              … and validate against BENCHMARK.json
#   benchmark/run.sh --repeat 2           … twice, and compare the runs
#   benchmark/run.sh --quick              1 rep, quarter-size inputs (smoke)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as the driver calls it
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Build into the root target directory unless told otherwise; a relative
# CARGO_TARGET_DIR is relative to the root, as it is for the driver.
target="${CARGO_TARGET_DIR:-$root/target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --bin bench-e2e --bin bench-trace 1>&2

# `--trace 1` on one workload is the traced pass; everything else
# (`--trace 0`, the whole suite) starts in the end-to-end binary.
bin=bench-e2e
workload=no
trace=0
prev=""
for arg in "$@"; do
    case "$prev" in
        --trace) trace="$arg" ;;
    esac
    [ "$arg" = "--workload" ] && workload=yes
    prev="$arg"
done
if [ "$workload" = yes ] && [ "$trace" = 1 ]; then
    bin=bench-trace
fi
exec "$target/release/$bin" "$@"
