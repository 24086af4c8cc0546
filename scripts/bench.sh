#!/usr/bin/env bash
# Paired A/B gate of the repository benchmark (perfbench, BENCHMARK.json)
# against another revision:
#
#   scripts/bench.sh --ab <rev> [--seed N] [--workload W]
#
# Builds <rev>'s perfbench in a temporary git worktree and this checkout's
# perfbench, each in its own CARGO_TARGET_DIR, then runs 10 pairs of
# BENCHMARK.json's run_seconds runs per workload (default: every
# BENCHMARK.json workload) at --seed (default 1), alternating which side
# runs first. Prints, per workload and end-to-end metric, both sides'
# median and quartiles, how many pairs the checkout won, and a verdict.
#
# Exits non-zero when any run is missing, incorrect or has failed calls, or
# when, for any workload and end-to-end metric, the checkout's median is
# worse than <rev>'s by more than the metric's BENCHMARK.json bound. Both
# sides run on one host, interleaved, so host speed cancels out. A metric
# whose median is worse but within the bound, while <rev>'s own
# interquartile spread exceeds the bound, is reported as "unresolved": the
# runs cannot tell that change from noise.
set -euo pipefail

cd "$(dirname "$0")/.."

usage="usage: scripts/bench.sh --ab <rev> [--seed N] [--workload W]"
ab_rev=""
ab_seed=1
ab_workloads=""
while [[ $# -gt 0 ]]; do
  case "$1" in
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
[[ -n "$ab_rev" ]] || { echo "$usage" >&2; exit 2; }

tmp=$(mktemp -d)
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
# tagged, to $tmp/ab.jsonl. A run that crashes or prints no result is
# recorded as {} and fails the gate at the end, after every pair has run.
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
      "median [q1, q3], wins = pairs the change was strictly better, "
      "worse = change median vs base median ==")
bad = [f'{r["workload"]} pair {r["pair"]} {r["side"]}' for r in runs
       if not r["result"].get("correct") or r["result"].get("failed", 1)
       or "metrics" not in r["result"]]
regressions = []
for workload in dict.fromkeys(r["workload"] for r in runs):
    rows = [r for r in runs if r["workload"] == workload]
    pairs = sorted({r["pair"] for r in rows})
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        value = {(r["side"], r["pair"]): r["result"]["metrics"][name]["value"]
                 for r in rows if name in r["result"].get("metrics", {})}
        xs = {side: [value[side, p] for p in pairs if (side, p) in value]
              for side in ("base", "change")}
        if min(len(xs["base"]), len(xs["change"])) < 2:
            print(f"{workload:15} {name:15} too few runs: base "
                  f"n={len(xs['base'])}, change n={len(xs['change'])}")
            regressions.append(f"{workload} {name}")
            continue
        q = {side: statistics.quantiles(xs[side], n=4) for side in xs}
        base_q1, base_med, base_q3 = q["base"]
        change_med = q["change"][1]
        delta = (base_med - change_med) if higher else (change_med - base_med)
        worse = delta / base_med if base_med else (0.0 if delta == 0
                                                   else float("inf"))
        spread = (base_q3 - base_q1) / base_med if base_med else 0.0
        if worse > metric["bound"]:
            verdict = "REGRESSION"
            regressions.append(f"{workload} {name}")
        elif worse > 0 and spread > metric["bound"]:
            verdict = f"unresolved (base IQR {spread:.1%} > bound)"
        else:
            verdict = "ok"
        both = [p for p in pairs if ("base", p) in value
                and ("change", p) in value]
        wins = sum((value["change", p] > value["base", p]) if higher else
                   (value["change", p] < value["base", p]) for p in both)
        summary = [f"{side} {q[side][1]:.4g} [{q[side][0]:.4g}, "
                   f"{q[side][2]:.4g}]" for side in ("base", "change")]
        print(f"{workload:15} {name:15} {metric['unit']:9} {summary[0]:32} "
              f"{summary[1]:32} wins {wins}/{len(both)} worse {worse:+.1%} "
              f"(bound {metric['bound']:.0%}) {verdict}")
if bad:
    print("FAIL: runs missing, incorrect or with failed calls:",
          ", ".join(bad))
if regressions:
    print("FAIL: worse than the base by more than the bound:",
          ", ".join(regressions))
sys.exit(1 if bad or regressions else 0)
PY
