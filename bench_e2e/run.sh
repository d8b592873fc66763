#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, out of tree) if needed and
# runs one workload. Run from the repository root:
#
#   bash bench_e2e/run.sh --workload matmul --seed 1 --seconds 15 --trace 0
#
# Every flag is passed to bench_e2e unchanged; the last line of stdout
# is its JSON result. Build output goes to stderr, the build tree to
# $CARGO_TARGET_DIR (default .bench_build), results to .bench_out/.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -d src || ! -f bench_e2e/CMakeLists.txt ]]; then
  echo "run.sh: run from the repository root (CMakeLists.txt, src/ and" \
       "bench_e2e/ must be present)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
jobs="$(nproc 2>/dev/null || echo 2)"
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S bench_e2e -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}"
  fi
  cmake --build "$build" --target bench_e2e -j "$jobs"
} >&2

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
# Not exec: the build's children would count toward the bench's
# RUSAGE_CHILDREN peak (rusage survives execve).
"$build/bench_e2e" --commit "$commit" "$@"
