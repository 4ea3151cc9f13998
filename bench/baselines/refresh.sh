#!/usr/bin/env sh
# Regenerate the committed bench baselines that CI's bench_compare gate
# diffs against (bench/bench_compare.cpp).
#
# Run from the repo root after an INTENTIONAL performance change, commit the
# resulting JSON together with the change, and say why in the message:
#
#   ./bench/baselines/refresh.sh [build-dir]     # default: build
#
# The baselines are recorded with --small (the same shape CI runs). Absolute
# times in them are machine-specific and never gated across machines — the
# CI gate covers the dimensionless ratio metrics (speedups, throughput
# rates), which travel. To gate times too, e.g. in a same-host A/B check:
#
#   ./build/bench/bench_compare old.json new.json --time-tolerance 0.25
set -eu

BUILD="${1:-build}"
HERE="$(dirname "$0")"

cmake --build "$BUILD" -j --target \
  bench_serve bench_view_fixpoint bench_incremental bench_compare

"$BUILD/bench/bench_serve" --small --check --out "$HERE/BENCH_serve.json"
"$BUILD/bench/bench_serve" --overhead-check --small --out "$HERE/BENCH_overhead.json"
"$BUILD/bench/bench_view_fixpoint" --small --out "$HERE/BENCH_view.json"
"$BUILD/bench/bench_incremental" --small --check --out "$HERE/BENCH_incremental.json"

echo "baselines refreshed under $HERE — review the diff before committing:"
for f in BENCH_serve BENCH_overhead BENCH_view BENCH_incremental; do
  echo "  $f.json"
done
