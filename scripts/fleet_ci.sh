#!/usr/bin/env bash
# Fleet-determinism gate (CI's fleet-determinism job runs exactly this):
# proves the shard runner's two headline claims on a mid-size sweep of the
# real fig10 wild-population scenario, then the fig10 runner's jobs
# invariance and two memory ratios.
#
#   1. Split invariance — one 600-call sweep, three topologies:
#        1 process  x 1 shard   (the reference)
#        4 processes x 2 shards (two invocations against one spill dir —
#                                the cluster shape; the first merge reports
#                                "pending", the second completes it)
#        8 processes x 1 shard
#      All three must merge to byte-identical percentiles.json,
#      metrics.prom, and timeline.jsonl.
#   2. Crash durability — SIGKILL the sweep mid-run, wait for the orphaned
#      workers to drain, rerun with --resume, and require the merged
#      artifacts to be byte-identical to the uninterrupted reference.
#   3. In-process jobs invariance — the fixed-seed 150-call fig10 sweep
#      must write byte-identical --metrics-out and --timeline-out under
#      --jobs 1 and --jobs 8.
#   4. Memory ratios, which unlike absolute RSS do not depend on the host:
#      the 150-call sweep with 10 ms timeline sampling must peak at most
#      2.5x the RSS of the sampling-off sweep (the per-call point budget
#      holds it there; an unbounded sampler once reached 4x), and spill
#      streaming must keep the peak worker RSS of a 1600-call sweep within
#      1.35x of a 400-call one (in-RAM accumulation would grow it with the
#      call count).
#
# Merged artifacts and the shard runner's fleet_shard record land in
# $ARTIFACT_DIR (default fleet-ci-artifacts/) for upload.
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/common.sh
source scripts/common.sh
jobs=$(nproc 2>/dev/null || echo 4)
artifact_dir=${ARTIFACT_DIR:-fleet-ci-artifacts}

ensure_build_dir build-bench Release ""
cmake --build build-bench -j "$jobs" --target fig10_wild_delay
fig10=./build-bench/bench/fig10_wild_delay

calls=600
common=(--calls "$calls" --call-seconds 1 --metrics --timeline)
d=build-bench/fleet-ci
mkdir -p "$artifact_dir"

echo "== split invariance: 1x1 vs 4x2 vs 8x1 =="
ensure_spill_dir "$d/1x1"
ensure_spill_dir "$d/4x2"
ensure_spill_dir "$d/8x1"
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/1x1" \
  --processes 1 | tee "$d/1x1.out"
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/4x2" \
  --processes 4 --shard 0/2
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/4x2" \
  --processes 4 --shard 1/2
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/8x1" \
  --processes 8 | tee "$d/8x1.out"
for artifact in percentiles.json metrics.prom timeline.jsonl; do
  cmp "$d/1x1/merged/$artifact" "$d/4x2/merged/$artifact"
  cmp "$d/1x1/merged/$artifact" "$d/8x1/merged/$artifact"
done
echo "merged artifacts byte-identical across 1x1 / 4x2 / 8x1"

echo "== crash durability: SIGKILL mid-run, resume, byte-compare =="
ensure_spill_dir "$d/kill"
"$fig10" "${common[@]}" --checkpoint-every 16 --spill-dir "$d/kill" \
  --processes 2 > "$d/kill_first.out" 2>&1 &
pid=$!
# Kill once the first checkpoints exist, so the resume has real progress to
# pick up — but don't insist the kill lands mid-run: on a fast machine the
# sweep may complete first, in which case the resume degenerates to an
# (equally valid) all-resumed no-op.
for _ in $(seq 1 200); do
  [[ -f "$d/kill/shard0of1_worker0.manifest.json" ]] && break
  sleep 0.05
done
sleep 0.3
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
# Orphaned workers stop at their next chunk boundary (the runner's getppid
# guard) and may linger briefly as zombies until init reaps them; the
# per-worker flock makes a premature resume fail loudly rather than race,
# but draining first keeps this script deterministic.
for _ in $(seq 1 300); do
  pgrep -f 'fig10_wild_delay.*fleet-ci/kill' > /dev/null || break
  sleep 0.1
done
"$fig10" "${common[@]}" --checkpoint-every 16 --spill-dir "$d/kill" \
  --processes 2 --resume | tee "$d/resume.out"
for artifact in percentiles.json metrics.prom timeline.jsonl; do
  cmp "$d/kill/merged/$artifact" "$d/1x1/merged/$artifact"
done
echo "kill + --resume converged to the uninterrupted artifacts"

echo "== jobs invariance: fig10 150-call sweep, --jobs 1 vs --jobs 8 =="
for j in 1 8; do
  "$fig10" --calls 150 --jobs "$j" --metrics-out "$d/metrics_j$j.prom" \
    > "$d/plain_j$j.out"
  "$fig10" --calls 150 --jobs "$j" --timeline-out "$d/timeline_j$j.jsonl" \
    > "$d/timeline_j$j.out"
done
cmp "$d/metrics_j1.prom" "$d/metrics_j8.prom"
cmp "$d/timeline_j1.jsonl" "$d/timeline_j8.jsonl"
echo "--metrics-out and --timeline-out byte-identical across --jobs 1 / 8"

# record_field <file> <field>: an integer field of the last timing record.
record_field() {
  grep -o "\"$2\":[0-9]*" "$1" | tail -1 | cut -d: -f2
}

echo "== memory: timeline sampling peak RSS <= 2.5x sampling-off =="
rss_plain=$(record_field "$d/plain_j8.out" peak_rss_kb)
rss_timeline=$(record_field "$d/timeline_j8.out" peak_rss_kb)
echo "peak RSS ${rss_timeline} kB with the timeline vs ${rss_plain} kB without"
(( rss_timeline * 10 <= rss_plain * 25 )) ||
  { echo "FAIL: timeline sampling peak RSS exceeds 2.5x" >&2; exit 1; }

echo "== memory: spill-mode peak worker RSS flat from 400 to 1600 calls =="
for calls in 400 1600; do
  ensure_spill_dir "$d/flat$calls"
  "$fig10" --calls "$calls" --call-seconds 1 --processes 4 \
    --checkpoint-every 64 --spill-dir "$d/flat$calls" > "$d/flat$calls.out"
done
rss_small=$(record_field "$d/flat400.out" peak_worker_rss_kb)
rss_large=$(record_field "$d/flat1600.out" peak_worker_rss_kb)
echo "peak worker RSS ${rss_small} kB @ 400 calls vs ${rss_large} kB @ 1600"
(( rss_large * 100 <= rss_small * 135 )) ||
  { echo "FAIL: spill-mode worker RSS grew past 1.35x" >&2; exit 1; }

grep '^{"bench":"fleet_shard"' "$d/8x1.out" | tail -1 \
  > "$artifact_dir/fleet_shard_record.json"
cp "$d/1x1/merged/percentiles.json" "$d/1x1/merged/metrics.prom" \
   "$d/resume.out" "$artifact_dir/"
echo "fleet_ci.sh: all green (artifacts in $artifact_dir/)"
