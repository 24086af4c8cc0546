#!/usr/bin/env bash
# Repo verification gate (the merge bar — CI runs exactly this):
#   1. tier-1: configure + build + full ctest in ./build
#   2. fleet: `ctest -L fleet_shard` (spill/checkpoint/resume property
#      tests) plus a smoke of the fig10 sweep — the same calls under
#      --processes 1 and --processes 2 must merge to byte-identical
#      percentiles, metrics, and timeline artifacts, and the in-process run
#      without --spill-dir must print and write the same bytes.
#   3. tsan: rebuild the concurrency-sensitive suites under ThreadSanitizer
#      (-DKWIKR_SANITIZE=thread) and run `ctest -L obs` + `ctest -L faults`
#      + `ctest -L frame_path` + `ctest -L cc_aqm` + `ctest -L timeline`
#      + `ctest -L fleet_shard` (registry merge paths, fleet sharding, the
#      golden corpus whose byte-stability depends on worker-count
#      independence, the frame-path primitives the sharded runs lean on,
#      the CC x qdisc grid that rides the same fleet, the timeline
#      telemetry whose population byte-identity runs worker-local samplers
#      in parallel, and the multi-process shard runner whose fork/merge
#      paths must stay clean when the chunk functions spin up their own
#      pools).
#   4. perf: Release-mode micro_eventloop + micro_channel smoke against the
#      committed BENCH_eventloop.json / BENCH_channel.json — fails when the
#      headline throughput regresses more than 20% or the dispatch / frame
#      path allocates.
#
# Usage: scripts/check.sh [--ci] [--no-tsan] [--no-bench]
#   --ci  machine-readable per-step summary lines (CHECK-STEP|name|status)
#         on stdout and, when $GITHUB_STEP_SUMMARY is set, a markdown table
#         appended there. All steps run even after a failure so CI reports
#         every broken leg at once; the exit code is non-zero if any failed.
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/common.sh
source scripts/common.sh
jobs=$(nproc 2>/dev/null || echo 4)

ci=0
run_tsan=1
run_bench=1
for arg in "$@"; do
  case "$arg" in
    --ci) ci=1 ;;
    --no-tsan) run_tsan=0 ;;
    --no-bench) run_bench=0 ;;
    *) echo "usage: scripts/check.sh [--ci] [--no-tsan] [--no-bench]" >&2
       exit 2 ;;
  esac
done

declare -a step_names=()
declare -a step_results=()
failed=0

# run_step <name> <function>: runs the step in a subshell with errexit so a
# failing command anywhere inside fails the whole step (calling a function
# from a conditional would silently disable `set -e` within it — the classic
# exit-propagation bug this wrapper exists to avoid). In --ci mode failures
# are recorded and reported at the end; interactively they abort at once.
run_step() {
  local name="$1" fn="$2"
  echo "== $name =="
  local status=ok
  if ! (set -euo pipefail; "$fn"); then
    status=fail
    failed=1
  fi
  step_names+=("$name")
  step_results+=("$status")
  if [[ "$ci" == 1 ]]; then
    echo "CHECK-STEP|$name|$status"
  elif [[ "$status" == fail ]]; then
    echo "check.sh: step '$name' failed" >&2
    exit 1
  fi
}

skip_step() {
  local name="$1" reason="$2"
  echo "warning: skipping step '$name': $reason" >&2
  step_names+=("$name")
  step_results+=("skipped: $reason")
  [[ "$ci" == 1 ]] && echo "CHECK-STEP|$name|skipped"
  return 0
}

step_tier1() {
  ensure_build_dir build "" ""
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

step_fleet() {
  cmake --build build -j "$jobs" --target fleet_shard_test fig10_wild_delay
  ctest --test-dir build -L fleet_shard --output-on-failure -j "$jobs"
  # Spill-mode smoke: one worker process vs two must merge byte-identically,
  # and the in-process run of the same sweep (no --spill-dir) must report
  # the same percentiles record, metrics and timeline bytes. The calls are
  # long enough that every one clears fig10's 10-sample floor, so the
  # percentile compare covers real distributions, not empty histograms.
  local fig10=./build/bench/fig10_wild_delay
  local smoke=build/fleet-smoke
  local sweep=(--calls 12 --call-seconds 8)
  local spill=(--checkpoint-every 4 --metrics --timeline)
  ensure_spill_dir "$smoke/p1"
  ensure_spill_dir "$smoke/p2"
  ensure_spill_dir "$smoke/in-process"
  "$fig10" "${sweep[@]}" "${spill[@]}" --spill-dir "$smoke/p1" \
    --processes 1 > /dev/null
  "$fig10" "${sweep[@]}" "${spill[@]}" --spill-dir "$smoke/p2" \
    --processes 2 > /dev/null
  "$fig10" "${sweep[@]}" --jobs 2 \
    --metrics-out "$smoke/in-process/metrics.prom" \
    --timeline-out "$smoke/in-process/timeline.jsonl" \
    > "$smoke/in-process/stdout"
  grep '^{"bench":"fig10_wild_delay","calls"' "$smoke/in-process/stdout" \
    > "$smoke/in-process/percentiles.json"
  grep -q '"calls_below_floor":0}' "$smoke/in-process/percentiles.json"
  local artifact
  for artifact in percentiles.json metrics.prom timeline.jsonl; do
    cmp "$smoke/p1/merged/$artifact" "$smoke/p2/merged/$artifact"
    cmp "$smoke/p1/merged/$artifact" "$smoke/in-process/$artifact"
  done
  echo "fleet spill smoke: merged artifacts byte-identical across" \
       "--processes 1, --processes 2 and the in-process run"
}

step_tsan() {
  ensure_build_dir build-tsan "" thread
  cmake --build build-tsan -j "$jobs" \
    --target obs_test fleet_test faults_test frame_path_test cc_aqm_test \
    timeline_test fleet_shard_test golden_runner
  ctest --test-dir build-tsan -L obs --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L faults --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L frame_path --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L cc_aqm --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L timeline --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L fleet_shard --output-on-failure -j "$jobs"
}

step_bench() {
  ensure_build_dir build-bench Release ""
  cmake --build build-bench -j "$jobs" --target micro_eventloop micro_channel
  ./build-bench/bench/micro_eventloop --quick --baseline BENCH_eventloop.json
  if [[ -f BENCH_channel.json ]]; then
    ./build-bench/bench/micro_channel --quick --baseline BENCH_channel.json
  else
    # Not silent for the same reason as the missing-eventloop baseline below.
    echo "warning: BENCH_channel.json not committed; frame-path perf gate" \
         "inactive — run scripts/bench.sh" >&2
    ./build-bench/bench/micro_channel --quick
  fi
}

run_step "tier-1: build + full test suite" step_tier1
run_step "fleet: shard-runner suite + fig10 source-agreement smoke" step_fleet

if [[ "$run_tsan" == 1 ]]; then
  run_step "tsan: obs + faults suites under ThreadSanitizer" step_tsan
else
  skip_step "tsan" "--no-tsan requested"
fi

if [[ "$run_bench" == 0 ]]; then
  skip_step "bench" "--no-bench requested"
elif [[ ! -f BENCH_eventloop.json ]]; then
  # Not silent: a missing baseline means the perf gate is not protecting
  # anything, and whoever reads the log should know that.
  skip_step "bench" "BENCH_eventloop.json not committed; run scripts/bench.sh"
else
  run_step "perf: micro bench smoke vs committed baselines" step_bench
fi

if [[ "$ci" == 1 && -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
  {
    echo "### check.sh"
    echo "| step | result |"
    echo "| --- | --- |"
    for i in "${!step_names[@]}"; do
      echo "| ${step_names[$i]} | ${step_results[$i]} |"
    done
  } >> "$GITHUB_STEP_SUMMARY"
fi

if [[ "$failed" == 1 ]]; then
  echo "check.sh: FAILED" >&2
  exit 1
fi
echo "check.sh: all green"
