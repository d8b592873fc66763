#!/usr/bin/env bash
# Runs every workload of the end-to-end benchmark, each as its own
# process, for N sets. Run from the repository root:
#
#   bash bench_e2e/run_benchmark.sh [--sets N] [--seed N] [--seconds S]
#                                   [--trace] [--smoke] [--out DIR]
#
# Layout (DIR defaults to .bench_runs/<UTC time>):
#
#   DIR/set-K/<workload>[-trace]/result.json        bench_e2e result
#   DIR/set-K/<workload>[-trace]/result.trace.json  spans (traced runs)
#   DIR/set-K/<workload>[-trace]/meta.json          command, commit, host,
#                                                   start/end, exit code
#   DIR/set-K/<workload>[-trace]/stdout.txt, stderr.txt
#
# Every set uses the same seed, so deterministic values (digests, task
# counts, simulated makespans) must match across sets. Odd sets run the
# workloads in catalogue order, even sets in reverse, so no workload
# always runs first. --trace adds a traced run after each untraced one.
# --smoke is one set of 0.5 s runs, for CI. Diff two sets with
#
#   .bench_build/bench_e2e_compare DIR/set-1 DIR/set-2
#
# (build it with: cmake --build .bench_build --target bench_e2e_compare).
# Exits 1 when any run failed.
set -uo pipefail

# Same names, same order as the workloads of BENCHMARK.json.
workloads=(matmul kmeans wf-fine service sim-study)
sets=2
seed=1
seconds=15
trace=0
out=""

usage() {
  echo "usage: run_benchmark.sh [--sets N] [--seed N] [--seconds S]" \
       "[--trace] [--smoke] [--out DIR]" >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --sets) sets="${2:-}"; shift 2 ;;
    --seed) seed="${2:-}"; shift 2 ;;
    --seconds) seconds="${2:-}"; shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) sets=1; seconds=0.5; shift ;;
    --out) out="${2:-}"; shift 2 ;;
    *) usage ;;
  esac
done
[[ "$sets" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ &&
   "$seconds" =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage
if [[ ! -f bench_e2e/run.sh ]]; then
  echo "run_benchmark.sh: run from the repository root" >&2
  exit 2
fi
out="${out:-.bench_runs/$(date -u +%Y%m%dT%H%M%SZ)}"

json_str() {
  local s="${1//\\/\\\\}"
  printf '"%s"' "${s//\"/\\\"}"
}

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
host="{\"hostname\": $(json_str "$(hostname 2>/dev/null || echo unknown)"),"
host+=" \"nproc\": $(nproc 2>/dev/null || echo 0),"
host+=" \"kernel\": $(json_str "$(uname -sr 2>/dev/null || echo unknown)")}"

status=0
for ((set = 1; set <= sets; ++set)); do
  order=("${workloads[@]}")
  if ((set % 2 == 0)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; --i)); do
      order+=("${workloads[i]}")
    done
  fi
  traces=(0)
  if ((trace)); then traces=(0 1); fi
  for w in "${order[@]}"; do
    for t in "${traces[@]}"; do
      dir="$out/set-$set/$w"
      if ((t)); then dir+="-trace"; fi
      mkdir -p "$dir"
      cmd=(bash bench_e2e/run.sh --workload "$w" --seed "$seed"
           --seconds "$seconds" --trace "$t" --out "$dir/result.json")
      start="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
      "${cmd[@]}" > "$dir/stdout.txt" 2> "$dir/stderr.txt"
      code=$?
      end="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
      command_json=""
      for arg in "${cmd[@]}"; do
        command_json+="${command_json:+, }$(json_str "$arg")"
      done
      printf '{"command": [%s], "commit": %s, "host": %s, "start": "%s", "end": "%s", "exit_code": %d}\n' \
        "$command_json" "$(json_str "$commit")" "$host" "$start" "$end" \
        "$code" > "$dir/meta.json"
      echo "set $set $w trace=$t exit=$code $(tail -n 1 "$dir/stdout.txt" | cut -c1-120)"
      if ((code != 0)); then status=1; fi
    done
  done
done
echo "results in $out"
exit "$status"
