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
#   4. pins: exact work counts. perfbench's traced run (seed 1, 1 s) of each
#      BENCHMARK.json workload must reproduce every sim.events* count,
#      wifi.dispatches_per_frame and alloc.per_event, and the fig10 fixed
#      sweep (150 calls, seed 1010) its "events" total, as committed in
#      scripts/work_pins.json. The counts repeat exactly on every host, so
#      any mismatch is a change in the simulator's work: the step prints
#      the actual counts, and the pins are updated by hand with a
#      CHANGES.md line that explains the change. Speed is gated separately,
#      by scripts/bench.sh --ab against the merge base (CI's perfbench-ab
#      job), because only a same-host pair can tell a slowdown from noise.
#
# Usage: scripts/check.sh [--ci] [--no-tsan]
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
for arg in "$@"; do
  case "$arg" in
    --ci) ci=1 ;;
    --no-tsan) run_tsan=0 ;;
    *) echo "usage: scripts/check.sh [--ci] [--no-tsan]" >&2
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

step_pins() {
  cmake --build build -j "$jobs" --target fig10_wild_delay
  python3 - "$jobs" <<'PY'
import json
import subprocess
import sys

pins = json.load(open("scripts/work_pins.json"))
workloads = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
actual = {}
for workload in workloads:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"pins: perfbench {workload} run was incorrect or had "
                 "failed calls")
    actual[workload] = {
        name: metric["value"] for name, metric in result["metrics"].items()
        if name.startswith("sim.events")
        or name in ("wifi.dispatches_per_frame", "alloc.per_event")}
out = subprocess.run(
    ["build/bench/fig10_wild_delay", "--calls", "150", "--jobs", sys.argv[1]],
    check=True, stdout=subprocess.PIPE, text=True).stdout
record = next(line for line in out.splitlines()
              if line.startswith('{"bench":"fig10_wild_delay","calls"'))
actual["fig10_fixed_sweep"] = {"events": json.loads(record)["events"]}

if actual != pins:
    for group in sorted(set(pins) | set(actual)):
        want, got = pins.get(group, {}), actual.get(group, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                print(f"pins: {group} {name}: pinned {want.get(name)}, "
                      f"actual {got.get(name)}")
    print("pins: work changed; if that is intended, replace "
          "scripts/work_pins.json with the counts below and explain the "
          "change in CHANGES.md:")
    print(json.dumps(actual, indent=2))
    sys.exit(1)
print("pins: every work count matches scripts/work_pins.json")
PY
}

run_step "tier-1: build + full test suite" step_tier1
run_step "fleet: shard-runner suite + fig10 source-agreement smoke" step_fleet

if [[ "$run_tsan" == 1 ]]; then
  run_step "tsan: obs + faults suites under ThreadSanitizer" step_tsan
else
  skip_step "tsan" "--no-tsan requested"
fi

run_step "pins: exact work counts vs scripts/work_pins.json" step_pins

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
