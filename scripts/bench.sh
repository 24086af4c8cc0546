#!/usr/bin/env bash
# Perf-regression bench harness. Builds the bench binaries in Release mode
# and records the repo's two committed perf-trajectory baselines:
#
#   BENCH_eventloop.json — micro_eventloop: schedule/cancel/dispatch
#       throughput of the allocation-free scheduler (events/sec,
#       allocs/event, wall time, peak RSS).
#   BENCH_channel.json   — micro_channel: saturated multi-AC EDCA contention
#       plus a ping-pair probe through wifi::Channel (frames/sec,
#       allocs/frame — must be zero, busy fraction, peak RSS).
#   BENCH_fleet.json     — spill-mode fig10 sweep through the multi-process
#       shard runner (calls/sec, peak worker RSS, RSS per 10^5 calls). Two
#       population sizes gate the flat-memory claim: peak worker RSS of the
#       4x-larger sweep must stay within 1.35x of the smaller one, because
#       spill streaming makes the footprint independent of call count. The
#       merged percentiles are also byte-compared between --processes 1 and
#       --processes 4.
#   BENCH_fig10.json     — fixed-seed fig10 wild-population sweep
#       (simulated events/sec inside a full scenario, wall time, peak RSS),
#       plus a byte-identity check of --metrics-out between --jobs 1 and
#       --jobs 8: the scheduler rewrite must never change simulated results.
#       A second record ("fig10_wild_delay_timeline") repeats the sweep with
#       10 ms timeline sampling on, so the committed trajectory tracks the
#       sampler's events/sec overhead against the sampling-off number; the
#       timeline bytes are also compared between --jobs 1 and --jobs 8, and
#       the timeline run's peak RSS is gated at 2.5x the sampling-off run.
#
# Usage: scripts/bench.sh [--quick] [--no-fig10] [--no-fleet]
#   --quick     shrink the micro workload (CI smoke; not for committing).
#   --no-fig10  skip the scenario sweep (micro numbers only).
#   --no-fleet  skip the spill-mode shard-runner sweep.
#
# Paired A/B of the repository benchmark (perfbench, BENCHMARK.json)
# against another revision; records nothing:
#
#   scripts/bench.sh --ab <rev> [--seed N] [--workload W]
#
# Builds <rev>'s perfbench in a temporary git worktree and this checkout's
# perfbench, each in its own CARGO_TARGET_DIR, then runs 10 pairs of
# BENCHMARK.json's run_seconds runs per workload (default: every
# BENCHMARK.json workload) at --seed (default 1), alternating which side
# runs first. Prints, per workload and end-to-end metric, both sides'
# median and quartiles and how many pairs the checkout won.
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/common.sh
source scripts/common.sh
jobs=$(nproc 2>/dev/null || echo 4)

usage="usage: scripts/bench.sh [--quick] [--no-fig10] [--no-fleet]
       scripts/bench.sh --ab <rev> [--seed N] [--workload W]"
quick=""
run_fig10=1
run_fleet=1
ab_rev=""
ab_seed=1
ab_workloads=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick="--quick" ;;
    --no-fig10) run_fig10=0 ;;
    --no-fleet) run_fleet=0 ;;
    --ab|--seed|--workload)
      [[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
      case "$1" in
        --ab) ab_rev="$2" ;;
        --seed) ab_seed="$2" ;;
        --workload) ab_workloads="$2" ;;
      esac
      shift ;;
    *) echo "$usage" >&2
       exit 2 ;;
  esac
  shift
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [[ -n "$ab_rev" ]]; then
  base_sha=$(git rev-parse --verify "${ab_rev}^{commit}")
  trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
        rm -rf "$tmp"' EXIT
  git worktree add --quiet --detach "$tmp/base" "$base_sha" >/dev/null
  ab_seconds=$(python3 -c \
    'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
  [[ -n "$ab_workloads" ]] || ab_workloads=$(python3 -c \
    'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

  # ab_perfbench <side> <run.py args...>: perfbench/run.py of the base
  # worktree or of this checkout, each with its own build and work dir.
  ab_perfbench() {
    local side="$1" tree=.
    shift
    [[ "$side" == base ]] && tree="$tmp/base"
    CARGO_TARGET_DIR="$tmp/build-$side" python3 "$tree/perfbench/run.py" \
      --seed "$ab_seed" --trace 0 --work-dir "$tmp/work-$side" "$@" \
      2>>"$tmp/build-$side.log"
  }

  # ab_run <side> <workload> <pair>: one timed run; appends its result line,
  # tagged, to $tmp/ab.jsonl.
  ab_run() {
    local line
    line=$(ab_perfbench "$1" --workload "$2" --seconds "$ab_seconds" \
      | tail -1) || true
    [[ "$line" == "{"* ]] || line="{}"
    echo "{\"side\":\"$1\",\"workload\":\"$2\",\"pair\":$3,\"result\":$line}" \
      >> "$tmp/ab.jsonl"
    echo "  $2 pair $3 $1: $line"
  }

  echo "== build perfbench: base ${base_sha:0:12} and this checkout =="
  for side in base change; do
    ab_perfbench "$side" --workload congested_cell --seconds 0.5 --tiny \
      > /dev/null || { cat "$tmp/build-$side.log" >&2; exit 1; }
  done

  for workload in $ab_workloads; do
    echo "== $workload: 10 pairs of ${ab_seconds} s, seed $ab_seed =="
    for ((pair = 0; pair < 10; ++pair)); do
      if ((pair % 2 == 0)); then
        ab_run change "$workload" "$pair"; ab_run base "$workload" "$pair"
      else
        ab_run base "$workload" "$pair"; ab_run change "$workload" "$pair"
      fi
    done
  done

  python3 - "$tmp/ab.jsonl" "${base_sha:0:12}" <<'PY'
import json
import statistics
import sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
print(f"== A/B: this checkout (change) vs {sys.argv[2]} (base); "
      "median [q1, q3], wins = pairs the change was strictly better ==")
for workload in dict.fromkeys(r["workload"] for r in runs):
    rows = [r for r in runs if r["workload"] == workload]
    pairs = sorted({r["pair"] for r in rows})
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        value = {(r["side"], r["pair"]): r["result"]["metrics"][name]["value"]
                 for r in rows if name in r["result"].get("metrics", {})}
        summary = []
        for side in ("base", "change"):
            xs = [value[side, p] for p in pairs if (side, p) in value]
            if len(xs) < 2:
                summary.append(f"{side} n={len(xs)}")
                continue
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            summary.append(f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}]")
        both = [p for p in pairs if ("base", p) in value and ("change", p) in value]
        wins = sum((value["change", p] > value["base", p]) if higher else
                   (value["change", p] < value["base", p]) for p in both)
        print(f"{workload:15} {name:15} {metric['unit']:9} "
              f"{summary[0]:32} {summary[1]:32} wins {wins}/{len(both)}")
bad = [f'{r["workload"]} pair {r["pair"]} {r["side"]}' for r in runs
       if not r["result"].get("correct") or r["result"].get("failed")]
if bad:
    print("runs with failed calls or an incorrect result:", ", ".join(bad))
PY
  exit 0
fi

echo "== build (Release) =="
# ensure_build_dir wipes a build-bench poisoned by a leftover sanitizer
# cache entry — Release numbers from an instrumented build are garbage.
ensure_build_dir build-bench Release ""
cmake --build build-bench -j "$jobs" \
  --target micro_eventloop micro_channel fig10_wild_delay

echo "== micro_eventloop =="
./build-bench/bench/micro_eventloop $quick --json BENCH_eventloop.json

echo "== micro_channel =="
./build-bench/bench/micro_channel $quick --json BENCH_channel.json

if [[ "$run_fig10" == 1 ]]; then
  echo "== fig10 fixed-seed sweep (150 calls, seed 1010) =="
  fig10=./build-bench/bench/fig10_wild_delay

  "$fig10" --calls 150 --jobs 1 --metrics-out "$tmp/metrics_j1.json" \
    | tee "$tmp/fig10_j1.out"
  "$fig10" --calls 150 --jobs 8 --metrics-out "$tmp/metrics_j8.json" \
    | tee "$tmp/fig10_j8.out"

  echo "== determinism: --metrics-out must be byte-identical across --jobs =="
  if ! cmp "$tmp/metrics_j1.json" "$tmp/metrics_j8.json"; then
    echo "FAIL: fig10 metrics differ between --jobs 1 and --jobs 8" >&2
    exit 1
  fi
  echo "fig10 metrics byte-identical between --jobs 1 and --jobs 8"

  # The jobs=8 timing record becomes the committed trajectory baseline (the
  # percentiles record the bench also prints starts with "calls", not
  # "jobs").
  grep '^{"bench":"fig10_wild_delay","jobs"' "$tmp/fig10_j8.out" | tail -1 \
    > BENCH_fig10.json

  echo "== fig10 + 10 ms timeline sampling (sampler overhead record) =="
  "$fig10" --calls 150 --jobs 1 --timeline-out "$tmp/timeline_j1.jsonl" \
    > /dev/null
  "$fig10" --calls 150 --jobs 8 --timeline-out "$tmp/timeline_j8.jsonl" \
    | tee "$tmp/fig10_tl_j8.out"

  echo "== determinism: --timeline-out must be byte-identical across --jobs =="
  if ! cmp "$tmp/timeline_j1.jsonl" "$tmp/timeline_j8.jsonl"; then
    echo "FAIL: fig10 timeline differs between --jobs 1 and --jobs 8" >&2
    exit 1
  fi
  echo "fig10 timeline byte-identical between --jobs 1 and --jobs 8"

  # Second trajectory record: same sweep with the sampler attached. The
  # events/sec delta against the first record is the sampling overhead.
  grep '^{"bench":"fig10_wild_delay","jobs"' "$tmp/fig10_tl_j8.out" | tail -1 \
    | sed 's/"bench":"fig10_wild_delay"/"bench":"fig10_wild_delay_timeline"/' \
    >> BENCH_fig10.json

  echo "== gate: timeline sampling must not blow up peak RSS =="
  # Relative gate (machine-independent): the timeline run holds every call's
  # serialized series until the index-ordered hand-off, and an unbounded
  # sampler once pushed it to 4x the sampling-off footprint. The per-call
  # point budget keeps it under 2.5x; regressions past that fail the run.
  rss_plain=$(grep -o '"peak_rss_kb":[0-9]*' BENCH_fig10.json \
    | head -1 | cut -d: -f2)
  rss_timeline=$(grep -o '"peak_rss_kb":[0-9]*' BENCH_fig10.json \
    | tail -1 | cut -d: -f2)
  if (( rss_timeline * 10 > rss_plain * 25 )); then
    echo "FAIL: timeline peak RSS ${rss_timeline} kB exceeds 2.5x the" \
      "sampling-off ${rss_plain} kB" >&2
    exit 1
  fi
  echo "timeline peak RSS ${rss_timeline} kB vs ${rss_plain} kB sampling-off" \
    "(gate: 2.5x)"
fi

if [[ "$run_fleet" == 1 ]]; then
  echo "== fleet: spill-mode shard-runner sweep =="
  fig10=./build-bench/bench/fig10_wild_delay
  # Two population sizes for the flat-memory gate; --quick shrinks both but
  # keeps the 4x ratio the gate leans on.
  small_calls=400
  large_calls=1600
  if [[ -n "$quick" ]]; then
    small_calls=60
    large_calls=240
  fi

  ensure_spill_dir "$tmp/fleet_small"
  ensure_spill_dir "$tmp/fleet_large"
  ensure_spill_dir "$tmp/fleet_serial"
  "$fig10" --calls "$small_calls" --call-seconds 1 --processes 4 \
    --checkpoint-every 64 --spill-dir "$tmp/fleet_small" \
    | tee "$tmp/fleet_small.out"
  "$fig10" --calls "$large_calls" --call-seconds 1 --processes 4 \
    --checkpoint-every 64 --spill-dir "$tmp/fleet_large" \
    | tee "$tmp/fleet_large.out"
  "$fig10" --calls "$large_calls" --call-seconds 1 --processes 1 \
    --checkpoint-every 64 --spill-dir "$tmp/fleet_serial" > /dev/null

  echo "== determinism: merged percentiles across --processes 1 vs 4 =="
  if ! cmp "$tmp/fleet_serial/merged/percentiles.json" \
           "$tmp/fleet_large/merged/percentiles.json"; then
    echo "FAIL: fleet percentiles differ between --processes 1 and 4" >&2
    exit 1
  fi
  echo "fleet percentiles byte-identical between --processes 1 and 4"

  echo "== gate: spill streaming must keep worker RSS flat =="
  # Absolute RSS is machine-dependent; the *ratio* between a sweep and one
  # 4x its size is not. In-RAM accumulation scales it ~linearly with the
  # call count; spill streaming holds it at the checkpoint-chunk high-water
  # mark, so anything past 1.35x is a regression toward buffering.
  rss_small=$(grep -o '"peak_worker_rss_kb":[0-9]*' "$tmp/fleet_small.out" \
    | cut -d: -f2)
  rss_large=$(grep -o '"peak_worker_rss_kb":[0-9]*' "$tmp/fleet_large.out" \
    | cut -d: -f2)
  if (( rss_large * 100 > rss_small * 135 )); then
    echo "FAIL: peak worker RSS grew from ${rss_small} kB (${small_calls}" \
      "calls) to ${rss_large} kB (${large_calls} calls) — spill streaming" \
      "is no longer flat-memory" >&2
    exit 1
  fi
  echo "peak worker RSS ${rss_small} kB @ ${small_calls} calls vs" \
    "${rss_large} kB @ ${large_calls} calls (gate: 1.35x)"

  if [[ -z "$quick" ]]; then
    grep '^{"bench":"fleet_shard"' "$tmp/fleet_large.out" | tail -1 \
      > BENCH_fleet.json
  fi
fi

echo "== results =="
cat BENCH_eventloop.json
cat BENCH_channel.json
[[ "$run_fig10" == 1 ]] && cat BENCH_fig10.json
[[ "$run_fleet" == 1 && -f BENCH_fleet.json ]] && cat BENCH_fleet.json
echo "bench.sh: done"
