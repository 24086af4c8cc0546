// Figure 10: Wi-Fi downlink delay "in the wild". For every call in the
// Monte-Carlo population we take the 95th-percentile Ping-Pair queueing
// delay, attributed to the call itself ("Skype") vs cross-traffic, and plot
// the distribution of those per-call percentiles (paper Section 8.4; the
// production study covered 119,789 calls — we scale the population down and
// keep the statistic definitions identical).
//
// One report, two result sources:
//
//  * By default the population runs in this process (scenario::RunWildRange
//    over [0, --calls) on --jobs threads) and each call's result is folded
//    into the report as the sink receives it.
//  * With --spill-dir DIR the fleet::ShardRunner streams per-call results to
//    JSONL spill files from forked worker processes (--processes P),
//    optionally as one shard of a cluster-wide sweep (--shard k/n),
//    checkpointing every --checkpoint-every calls so a killed run continues
//    with --resume; the report is then fed from the merged spills, so peak
//    RSS is independent of --calls.
//
// Either way the percentiles come from mergeable stats::Histogram sketches
// under stats::Percentile's rank convention, and the percentiles record,
// metrics and timeline are byte-identical across sources, worker counts and
// worker x shard splits.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/shard_runner.h"
#include "obs/exporters.h"
#include "obs/registry_io.h"
#include "scenario/wild_population.h"
#include "stats/histogram.h"

using namespace kwikr;

namespace {

bool EnsureDir(const std::string& path) {
  return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

/// Delay-distribution accumulator, fed one call at a time so nothing
/// per-call stays resident.
struct DelayAccumulator {
  // [0, 1000] ms at ~0.5 ms resolution: queueing delays beyond a second
  // clamp into the top bin but keep their exact max.
  static constexpr stats::Histogram::Config kBinning{0.0, 1000.0, 2048};
  /// Paper §3.2: a per-call p95 needs at least this many ping-pair samples
  /// to be meaningful; calls below the floor are excluded from every
  /// distribution (and counted, so short --call-seconds runs warn loudly
  /// instead of silently reporting percentiles of near-empty calls).
  static constexpr int kSampleFloor = 10;
  static constexpr double kPercentiles[] = {50.0, 75.0, 90.0, 95.0, 99.0};
  stats::Histogram self_ms{kBinning};
  stats::Histogram cross_ms{kBinning};
  stats::Histogram total_ms{kBinning};
  std::uint64_t measurable = 0;
  std::uint64_t cross_dominated = 0;
  std::uint64_t events = 0;
  std::uint64_t below_floor = 0;  ///< calls excluded by kSampleFloor.

  void Add(const scenario::WildCallResult& call) {
    events += call.events_executed;
    if (call.probe_samples < kSampleFloor) {
      ++below_floor;
      return;
    }
    self_ms.Add(call.p95_ta_ms);
    cross_ms.Add(call.p95_tc_ms);
    total_ms.Add(call.p95_tq_ms);
    if (call.p95_tq_ms > 1.0) {
      ++measurable;
      if (call.p95_tc_ms > call.p95_ta_ms) ++cross_dominated;
    }
  }

  [[nodiscard]] double DominatedPct() const {
    return measurable > 0 ? 100.0 * static_cast<double>(cross_dominated) /
                                static_cast<double>(measurable)
                          : 0.0;
  }

  void PrintTable() const {
    std::printf("distribution of per-call 95th%%ile queueing delay (ms), "
                "n=%lld calls:\n\n",
                static_cast<long long>(total_ms.count()));
    std::printf("%-18s %8s %8s %8s %8s %8s\n", "", "50th", "75th", "90th",
                "95th", "99th");
    auto row = [](const char* label, const stats::Histogram& h) {
      std::printf("%-18s", label);
      for (double p : kPercentiles) {
        std::printf(" %8.1f", h.OrderStatisticPercentile(p));
      }
      std::printf("\n");
    };
    row("Skype (self)", self_ms);
    row("Cross-traffic", cross_ms);
    row("Total", total_ms);
    std::printf("\ncross-traffic exceeds self-delay in %.0f%% of calls with "
                "measurable delay\n\n",
                DominatedPct());
  }

  /// Canonical JSON for the byte-compare gates: every number is either an
  /// exact integer or a %.17g double of a deterministic quantity.
  [[nodiscard]] std::string Json(int calls) const {
    char buffer[256];
    std::string out = "{\"bench\":\"fig10_wild_delay\"";
    std::snprintf(buffer, sizeof(buffer), ",\"calls\":%d,\"n\":%lld", calls,
                  static_cast<long long>(total_ms.count()));
    out += buffer;
    auto series = [&](const char* name, const stats::Histogram& h) {
      std::snprintf(buffer, sizeof(buffer),
                    ",\"%s\":{\"p50\":%.17g,\"p75\":%.17g,\"p90\":%.17g,"
                    "\"p95\":%.17g,\"p99\":%.17g,\"max\":%.17g}",
                    name, h.OrderStatisticPercentile(50.0),
                    h.OrderStatisticPercentile(75.0),
                    h.OrderStatisticPercentile(90.0),
                    h.OrderStatisticPercentile(95.0),
                    h.OrderStatisticPercentile(99.0), h.max());
      out += buffer;
    };
    series("self_ms", self_ms);
    series("cross_ms", cross_ms);
    series("total_ms", total_ms);
    std::snprintf(buffer, sizeof(buffer),
                  ",\"cross_dominates_pct\":%.17g,\"events\":%llu,"
                  "\"sample_floor\":%llu,\"calls_below_floor\":%llu}\n",
                  DominatedPct(), static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(kSampleFloor),
                  static_cast<unsigned long long>(below_floor));
    out += buffer;
    return out;
  }

  /// Table, loud sub-floor warning and the percentiles record on stdout;
  /// returns the record. Percentiles computed from calls with almost no
  /// probe samples are statistical noise, so short --call-seconds runs must
  /// not pass silently.
  std::string Report(int calls, int call_seconds) const {
    PrintTable();
    if (below_floor > 0) {
      std::fprintf(
          stderr,
          "WARNING: %llu of %llu calls produced fewer than %llu ping-pair "
          "samples (the paper's Section 3.2 floor) and were EXCLUDED from "
          "every percentile above — a per-call p95 over so few samples is "
          "noise, not a delay estimate. Raise --call-seconds (currently %d) "
          "until every call clears the floor.\n",
          static_cast<unsigned long long>(below_floor),
          static_cast<unsigned long long>(
              below_floor + static_cast<std::uint64_t>(total_ms.count())),
          static_cast<unsigned long long>(kSampleFloor), call_seconds);
    }
    std::string record = Json(calls);
    std::fputs(record.c_str(), stdout);
    return record;
  }
};

/// Everything the sweep reports, whichever source fills it.
struct Sweep {
  scenario::WildConfig wild;
  int call_seconds = 60;
  bool metrics_on = false;
  const char* timeline_out = nullptr;

  DelayAccumulator delays;
  obs::MetricsRegistry registry;
  /// Population timeline, written in call-index order (each line carries
  /// "call":N), which makes the bytes independent of --jobs and the split.
  std::vector<std::ofstream> timeline_files;

  void WriteTimeline(std::string_view bytes) {
    for (std::ofstream& file : timeline_files) {
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  }
};

/// Default source: the population in this process, folded into the report
/// call by call.
int RunInProcess(int argc, char** argv, Sweep& sweep) {
  if (sweep.metrics_on) sweep.wild.metrics = &sweep.registry;
  if (sweep.timeline_out != nullptr) {
    sweep.timeline_files.emplace_back(sweep.timeline_out,
                                      std::ios::binary | std::ios::trunc);
  }
  bench::WallTimer timer;
  try {
    scenario::RunWildRange(
        sweep.wild, 0,
        static_cast<std::uint64_t>(std::max(sweep.wild.calls, 0)),
        [&](std::uint64_t, scenario::WildCallResult&& call) {
          sweep.delays.Add(call);
          sweep.WriteTimeline(call.timeline_jsonl);
        });
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "fig10: %s\n", e.what());
    return 1;
  }
  const double wall_ms = timer.ElapsedMs();

  sweep.delays.Report(sweep.wild.calls, sweep.call_seconds);
  bench::PrintFleetTiming("fig10_wild_delay", sweep.wild.jobs, wall_ms,
                          sweep.wild.calls, sweep.delays.events);
  bench::ExportMetrics(argc, argv, sweep.registry);
  if (sweep.timeline_out != nullptr) {
    std::ofstream& file = sweep.timeline_files.front();
    const auto bytes = static_cast<long long>(file.tellp());
    file.close();
    if (file) {
      std::printf("timeline: wrote %lld bytes to %s\n", bytes,
                  sweep.timeline_out);
    } else {
      std::fprintf(stderr, "timeline: cannot write %s\n", sweep.timeline_out);
    }
  }
  return 0;
}

/// --spill-dir source: shard-runner execution + hierarchical merge.
int RunSpilled(int argc, char** argv, Sweep& sweep, const char* spill_dir) {
  const scenario::WildConfig& wild = sweep.wild;
  const int calls = wild.calls;
  fleet::ShardRunnerConfig config;
  config.total_items = static_cast<std::uint64_t>(std::max(calls, 0));
  const char* shard_text =
      bench::ParseStringFlag(argc, argv, "--shard", "0/1");
  if (std::sscanf(shard_text, "%d/%d", &config.shard.index,
                  &config.shard.count) != 2 ||
      config.shard.count < 1 || config.shard.index < 0 ||
      config.shard.index >= config.shard.count) {
    std::fprintf(stderr, "--shard wants k/n with 0 <= k < n, got '%s'\n",
                 shard_text);
    return 2;
  }
  config.processes = bench::ParseIntFlag(argc, argv, "--processes", 1);
  config.spill_dir = spill_dir;
  config.checkpoint_every = static_cast<std::uint64_t>(std::max(
      bench::ParseIntFlag(argc, argv, "--checkpoint-every", 256), 1));
  config.resume = bench::HasFlag(argc, argv, "--resume");
  // Everything that shapes per-call bytes; deliberately NOT --processes,
  // --jobs, or --checkpoint-every — those repartition work without changing
  // any result, and a resume may legally alter them per worker topology
  // rules (the manifest pins processes per shard separately).
  {
    char fp[256];
    std::snprintf(fp, sizeof(fp),
                  "fig10;calls=%d;seed=%llu;call_seconds=%d;shards=%d;"
                  "metrics=%d;timeline=%d;interval_ms=%d",
                  calls, static_cast<unsigned long long>(wild.base_seed),
                  sweep.call_seconds, config.shard.count,
                  sweep.metrics_on ? 1 : 0, wild.timeline ? 1 : 0,
                  static_cast<int>(wild.timeline_interval / sim::Millis(1)));
    config.fingerprint = fp;
  }

  if (!EnsureDir(config.spill_dir)) {
    std::fprintf(stderr, "cannot create spill dir %s\n",
                 config.spill_dir.c_str());
    return 1;
  }

  fleet::ShardRunStatus run_status;
  run_status.ok = true;
  double run_wall_ms = 0.0;
  if (!bench::HasFlag(argc, argv, "--merge-only")) {
    fleet::ShardRunner runner(
        config, [&](std::uint64_t begin, std::uint64_t end) {
          fleet::ChunkOutput out;
          scenario::WildConfig chunk_config = wild;
          obs::MetricsRegistry chunk_registry;
          if (sweep.metrics_on) chunk_config.metrics = &chunk_registry;
          scenario::RunWildRange(
              chunk_config, begin, end,
              [&](std::uint64_t index, scenario::WildCallResult&& result) {
                out.results_jsonl +=
                    scenario::EncodeWildCallLine(index, result);
                out.timeline_jsonl += result.timeline_jsonl;
              });
          if (sweep.metrics_on) {
            out.metrics_jsonl = obs::SerializeRegistry(chunk_registry);
          }
          return out;
        });
    bench::WallTimer timer;
    run_status = runner.Run();
    run_wall_ms = timer.ElapsedMs();
    if (!run_status.ok) {
      std::fprintf(stderr, "fleet: %s\n", run_status.error.c_str());
      return 1;
    }
    std::printf("fleet: shard %d/%d finished %llu calls (%llu resumed from "
                "checkpoints) in %.1f ms with %d worker process(es)\n",
                config.shard.index, config.shard.count,
                static_cast<unsigned long long>(run_status.items_done),
                static_cast<unsigned long long>(run_status.items_resumed),
                run_wall_ms, std::max(config.processes, 1));
  }

  // ---- hierarchical merge: worker spills -> shard -> global artifacts ----
  const std::string merged_dir = config.spill_dir + "/merged";
  if (!EnsureDir(merged_dir)) {
    std::fprintf(stderr, "cannot create %s\n", merged_dir.c_str());
    return 1;
  }
  if (wild.timeline) {
    sweep.timeline_files.emplace_back(merged_dir + "/timeline.jsonl",
                                      std::ios::binary | std::ios::trunc);
    if (sweep.timeline_out != nullptr) {
      sweep.timeline_files.emplace_back(sweep.timeline_out,
                                        std::ios::binary | std::ios::trunc);
    }
  }

  std::uint64_t decode_failures = 0;
  fleet::MergeConsumer consumer;
  consumer.on_result_line = [&](std::uint64_t index, std::string_view line) {
    scenario::WildCallResult call;
    std::uint64_t decoded_index = 0;
    if (!scenario::DecodeWildCallLine(line, &decoded_index, &call) ||
        decoded_index != index) {
      ++decode_failures;
      return;
    }
    sweep.delays.Add(call);
  };
  if (sweep.metrics_on) consumer.metrics = &sweep.registry;
  if (wild.timeline) {
    consumer.on_timeline = [&](std::string_view bytes) {
      sweep.WriteTimeline(bytes);
    };
  }

  const fleet::MergeStatus merge = fleet::MergeShardSpills(config, consumer);
  if (!merge.ok) {
    std::fprintf(stderr, "merge: %s\n", merge.error.c_str());
    return 1;
  }
  const std::uint64_t peak_rss =
      std::max(merge.peak_worker_rss_kb, run_status.peak_worker_rss_kb);
  char headline[512];
  std::snprintf(
      headline, sizeof(headline),
      "{\"bench\":\"fleet_shard\",\"calls\":%d,\"shard\":\"%d/%d\","
      "\"processes\":%d,\"jobs\":%d,\"checkpoint_every\":%llu,"
      "\"items_done\":%llu,\"items_resumed\":%llu,\"wall_ms\":%.1f,"
      "\"calls_per_sec\":%.2f,\"peak_worker_rss_kb\":%llu,"
      "\"rss_kb_per_1e5_calls\":%.1f}",
      calls, config.shard.index, config.shard.count,
      std::max(config.processes, 1), wild.jobs,
      static_cast<unsigned long long>(config.checkpoint_every),
      static_cast<unsigned long long>(run_status.items_done),
      static_cast<unsigned long long>(run_status.items_resumed), run_wall_ms,
      run_wall_ms > 0.0
          ? static_cast<double>(run_status.items_done) / (run_wall_ms / 1e3)
          : 0.0,
      static_cast<unsigned long long>(peak_rss),
      calls > 0 ? static_cast<double>(peak_rss) * 1e5 /
                      static_cast<double>(calls)
                : 0.0);
  if (!merge.complete) {
    // Nothing wrong: another shard of the cluster sweep is still running
    // (or this machine only owns a slice). Report and exit cleanly.
    std::printf("merge pending: %s\n", merge.error.c_str());
    std::printf("%s\n", headline);
    return 0;
  }
  if (decode_failures > 0) {
    std::fprintf(stderr,
                 "merge: %llu spill lines failed to decode — corrupt spill\n",
                 static_cast<unsigned long long>(decode_failures));
    return 1;
  }

  const std::string percentiles =
      sweep.delays.Report(calls, sweep.call_seconds);
  {
    std::ofstream out(merged_dir + "/percentiles.json",
                      std::ios::binary | std::ios::trunc);
    out << percentiles;
  }
  std::printf("merged %llu calls -> %s/percentiles.json\n",
              static_cast<unsigned long long>(merge.items),
              merged_dir.c_str());
  if (sweep.metrics_on) {
    obs::WritePrometheus(sweep.registry,
                         (merged_dir + "/metrics.prom").c_str());
    bench::ExportMetrics(argc, argv, sweep.registry);
  }
  if (wild.timeline) {
    sweep.timeline_files.clear();  // flush before announcing.
    std::printf("timeline: merged stream at %s/timeline.jsonl\n",
                merged_dir.c_str());
  }
  std::printf("%s\n", headline);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Figure 10 — Wi-Fi downlink delay in the wild",
                "Per-call 95th-pct queueing delay, split self vs "
                "cross-traffic.\nPaper: cross-traffic dominates; worst 5% of "
                "calls see >= ~98 ms of cross-traffic delay.");

  const char* spill_dir = bench::ParseStringFlag(argc, argv, "--spill-dir");
  if (spill_dir == nullptr && (bench::HasFlag(argc, argv, "--processes") ||
                               bench::HasFlag(argc, argv, "--shard") ||
                               bench::HasFlag(argc, argv, "--resume") ||
                               bench::HasFlag(argc, argv, "--merge-only"))) {
    std::fprintf(stderr,
                 "--processes/--shard/--resume/--merge-only need --spill-dir "
                 "DIR (the multi-process runner streams results through "
                 "spill files)\n");
    return 2;
  }

  Sweep sweep;
  sweep.wild.calls = bench::ParseIntFlag(argc, argv, "--calls", 150);
  sweep.wild.base_seed = 1010;
  sweep.call_seconds = bench::ParseIntFlag(argc, argv, "--call-seconds", 60);
  sweep.wild.call_duration = sim::Seconds(sweep.call_seconds);
  sweep.wild.jobs = bench::ParseJobs(argc, argv);
  // --metrics-out (or --metrics): merged per-environment registry; every
  // value in it is a simulated quantity, so the export is bit-identical for
  // any --jobs or split.
  sweep.metrics_on = bench::MetricsRequested(argc, argv) ||
                     bench::HasFlag(argc, argv, "--metrics");
  // --timeline-out (or --timeline): sim-time series sampling on every Kwikr
  // arm, written as one JSONL stream for the whole population.
  sweep.timeline_out = bench::ParseStringFlag(argc, argv, "--timeline-out");
  sweep.wild.timeline = sweep.timeline_out != nullptr ||
                        bench::HasFlag(argc, argv, "--timeline");
  sweep.wild.timeline_interval = sim::Millis(
      bench::ParseIntFlag(argc, argv, "--timeline-interval-ms", 10));

  const int status = spill_dir != nullptr
                         ? RunSpilled(argc, argv, sweep, spill_dir)
                         : RunInProcess(argc, argv, sweep);
  if (status != 0) return status;

  // KWIKR_TRACE_DIR: Chrome-trace one example call (the Kwikr arm of the
  // first environment's configuration) rather than the whole population.
  if (bench::TraceDir() != nullptr) {
    obs::ChromeTraceWriter writer;
    obs::Tracer tracer;
    tracer.SetSink(&writer);
    scenario::ExperimentConfig example;
    example.seed = sweep.wild.base_seed;
    example.duration = sim::Seconds(30);
    example.sample_queue = true;
    example.calls[0].kwikr = true;
    example.tracer = &tracer;
    scenario::RunCallExperiment(example);
    bench::ExportTrace(writer);
  }
  return 0;
}
