#include "scenario/wild_population.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fleet/fleet_runner.h"
#include "sim/decimal.h"
#include "sim/rng.h"
#include "stats/percentile.h"
#include "stats/welch.h"
#include "wifi/rate_table.h"

namespace kwikr::scenario {
namespace {

/// Probability an AP supports WMM (the paper's measured prevalence: 77%).
constexpr double kWmmProbability = 0.77;
/// Per-call timeline point budget (rows before the sampler decimates). A
/// population run holds every call's serialized timeline in memory until
/// the index-ordered hand-off to the sink, so the budget is deliberately
/// smaller than a single-scenario run's default — 150 calls at the
/// single-scenario 2048 kept ~24 MB of JSONL resident and quadrupled the
/// bench's peak RSS. Decimation is deterministic in tick counts, so this
/// only trades resolution, never the any-`jobs` byte-identity.
constexpr std::size_t kTimelineSeriesCapacity = 512;

/// Draws one random Wi-Fi environment. The marginals are chosen so that most
/// calls see little or no cross traffic while a tail sees heavy congestion —
/// the shape Figure 10 reports from production.
ExperimentConfig DrawEnvironment(sim::Rng& rng, const WildConfig& wild,
                                 std::uint64_t seed) {
  ExperimentConfig config;
  config.seed = seed;
  config.duration = wild.call_duration;
  config.band = rng.Bernoulli(0.5) ? wifi::Band::k2_4GHz : wifi::Band::k5GHz;
  config.wmm_enabled = rng.Bernoulli(kWmmProbability);

  const auto rates = wifi::McsRates(config.band);
  const auto mcs = static_cast<std::size_t>(
      rng.UniformInt(2, static_cast<std::int64_t>(rates.size()) - 1));
  config.client_rate_bps = rates[mcs];

  // ~40% of calls see no cross traffic at all.
  if (rng.Bernoulli(0.4)) {
    config.cross_stations = 0;
  } else {
    config.cross_stations = static_cast<int>(rng.UniformInt(1, 3));
    config.flows_per_station = static_cast<int>(rng.UniformInt(1, 12));
    // A congestion episode covering a random chunk of the call. The paper's
    // production calls average 967 s with episodes being a small fraction;
    // shorter simulated calls use a modest fraction for the same reason.
    const double len_frac = rng.Uniform(0.15, 0.5);
    const double start_frac = rng.Uniform(0.05, 0.9 - len_frac * 0.9);
    config.congestion_start = static_cast<sim::Time>(
        start_frac * static_cast<double>(wild.call_duration));
    config.congestion_end = static_cast<sim::Time>(
        (start_frac + len_frac) * static_cast<double>(wild.call_duration));
  }
  config.calls = {CallConfig{}};
  return config;
}

double SamplePercentileMs(const std::vector<core::PingPairSample>& samples,
                          double p, sim::Duration core::PingPairSample::*field) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const auto& s : samples) ms.push_back(sim::ToMillis(s.*field));
  return stats::Percentile(ms, p);
}

/// One arm of the paired A/B — an independent co-channel BSS-group replica.
/// The environment (seed, topology, congestion schedule) is common random
/// numbers; only the adaptation arm differs.
ExperimentMetrics RunArm(ExperimentConfig experiment, const WildConfig& config,
                         std::size_t index, bool kwikr,
                         obs::MetricsRegistry* metrics) {
  experiment.metrics = metrics;  // worker-local; merged by the caller.
  experiment.calls[0].kwikr = kwikr;
  if (kwikr && config.timeline) {
    // Telemetry rides on the Kwikr arm only (the arm that probes in
    // production); the baseline arm's event schedule stays untouched.
    experiment.timeline.enabled = true;
    experiment.timeline.interval = config.timeline_interval;
    experiment.timeline.series_capacity = kTimelineSeriesCapacity;
    experiment.timeline.call_index = static_cast<std::int64_t>(index);
  }
  return RunCallExperiment(experiment);
}

/// One environment end to end: both arms back-to-back in one task. All
/// randomness flows from `call_rng` — a per-index fork of the population
/// RNG — so environments are independent tasks the fleet runner can
/// execute on any worker in any order.
WildCallResult RunOneEnvironment(const WildConfig& config, std::size_t index,
                                 sim::Rng call_rng,
                                 obs::MetricsRegistry* metrics) {
  const std::uint64_t call_seed = call_rng.Next();
  ExperimentConfig experiment = DrawEnvironment(call_rng, config, call_seed);
  if (!config.fault_matrix.empty()) {
    experiment.faults = config.fault_matrix[index % config.fault_matrix.size()];
  }
  const ExperimentMetrics baseline =
      RunArm(experiment, config, index, /*kwikr=*/false, metrics);
  ExperimentMetrics kwikr =
      RunArm(experiment, config, index, /*kwikr=*/true, metrics);

  WildCallResult r;
  const CallMetrics& b = baseline.calls[0];
  const CallMetrics& k = kwikr.calls[0];
  r.p95_tq_ms = SamplePercentileMs(k.probe_samples, 95.0,
                                   &core::PingPairSample::tq);
  r.p95_ta_ms = SamplePercentileMs(k.probe_samples, 95.0,
                                   &core::PingPairSample::ta);
  r.p95_tc_ms = SamplePercentileMs(k.probe_samples, 95.0,
                                   &core::PingPairSample::tc);
  r.probe_samples = static_cast<int>(k.probe_samples.size());
  r.baseline_rate_kbps = b.mean_rate_kbps;
  r.kwikr_rate_kbps = k.mean_rate_kbps;
  r.baseline_loss_pct = b.loss_pct;
  r.kwikr_loss_pct = k.loss_pct;
  r.baseline_rtt_p50_ms = stats::Percentile(b.rtt_ms, 50.0);
  r.kwikr_rtt_p50_ms = stats::Percentile(k.rtt_ms, 50.0);
  r.wmm_enabled = experiment.wmm_enabled;
  r.cross_stations = experiment.cross_stations;
  r.events_executed = baseline.events_executed + kwikr.events_executed;
  // Only the Kwikr arm samples a timeline.
  r.timeline_jsonl = std::move(kwikr.timeline_jsonl);
  return r;
}

}  // namespace

void RunWildRange(
    const WildConfig& config, std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t index, WildCallResult&& result)>&
        sink) {
  if (end <= begin) return;
  const sim::Rng base_rng(config.base_seed);
  // Each environment records into its own registry and merges it once into
  // this stage, which reaches the caller's registry only if the whole range
  // succeeds.
  obs::MetricsRegistry stage;
  auto report = fleet::RunFleet(
      static_cast<std::size_t>(end - begin), config.jobs,
      [&](std::size_t local) {
        const auto index = static_cast<std::size_t>(begin + local);
        if (config.metrics == nullptr) {
          return RunOneEnvironment(config, index, base_rng.Fork(index),
                                   nullptr);
        }
        obs::MetricsRegistry local_registry;
        WildCallResult result = RunOneEnvironment(
            config, index, base_rng.Fork(index), &local_registry);
        stage.Merge(local_registry);
        return result;
      });
  if (!report.ok()) {
    const fleet::TaskFailure& first = report.failures.front();
    throw std::runtime_error(
        "wild call " + std::to_string(begin + first.index) + ": " +
        first.error);
  }
  if (config.metrics != nullptr) config.metrics->Merge(stage);
  for (std::size_t local = 0; local < report.results.size(); ++local) {
    sink(begin + local, std::move(report.results[local]));
  }
}

WildResults RunWildPopulation(const WildConfig& config) {
  WildResults results;
  const auto calls = static_cast<std::uint64_t>(std::max(config.calls, 0));
  results.calls.reserve(calls);
  RunWildRange(config, 0, calls,
               [&](std::uint64_t, WildCallResult&& result) {
                 results.calls.push_back(std::move(result));
               });
  return results;
}

namespace {

void AppendDoubleField(std::string* out, const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ",\"%s\":%.17g", key, value);
  *out += buffer;
}

/// Strict sequential field parsers (same pattern as the checkpoint
/// manifest's): machine-written lines have a fixed key order, so any
/// deviation is corruption, not style.
bool ParseKey(std::string_view line, std::size_t* pos, std::string_view key) {
  std::string expect = ",\"";
  expect += key;
  expect += "\":";
  if (line.substr(*pos, expect.size()) != expect) return false;
  *pos += expect.size();
  return true;
}

bool ParseDoubleField(std::string_view line, std::size_t* pos,
                      std::string_view key, double* out) {
  if (!ParseKey(line, pos, key)) return false;
  // The numeric token ends at the next ',' or '}' — both are impossible
  // inside a %.17g rendering.
  const std::size_t stop = line.find_first_of(",}", *pos);
  if (stop == std::string_view::npos || stop == *pos) return false;
  const std::string token(line.substr(*pos, stop - *pos));
  char* parse_end = nullptr;
  *out = std::strtod(token.c_str(), &parse_end);
  if (parse_end != token.c_str() + token.size()) return false;
  *pos = stop;
  return true;
}

bool ParseIntField(std::string_view line, std::size_t* pos,
                   std::string_view key, std::uint64_t* out) {
  return ParseKey(line, pos, key) && sim::ParseDecimalU64(line, pos, out);
}

}  // namespace

std::string EncodeWildCallLine(std::uint64_t index,
                               const WildCallResult& result) {
  std::string out = "{\"call\":" + std::to_string(index);
  AppendDoubleField(&out, "p95_tq_ms", result.p95_tq_ms);
  AppendDoubleField(&out, "p95_ta_ms", result.p95_ta_ms);
  AppendDoubleField(&out, "p95_tc_ms", result.p95_tc_ms);
  out += ",\"probe_samples\":" + std::to_string(result.probe_samples);
  AppendDoubleField(&out, "baseline_rate_kbps", result.baseline_rate_kbps);
  AppendDoubleField(&out, "kwikr_rate_kbps", result.kwikr_rate_kbps);
  AppendDoubleField(&out, "baseline_loss_pct", result.baseline_loss_pct);
  AppendDoubleField(&out, "kwikr_loss_pct", result.kwikr_loss_pct);
  AppendDoubleField(&out, "baseline_rtt_p50_ms", result.baseline_rtt_p50_ms);
  AppendDoubleField(&out, "kwikr_rtt_p50_ms", result.kwikr_rtt_p50_ms);
  out += ",\"wmm\":";
  out += result.wmm_enabled ? '1' : '0';
  out += ",\"cross_stations\":" + std::to_string(result.cross_stations);
  out += ",\"events\":" + std::to_string(result.events_executed);
  out += "}\n";
  return out;
}

bool DecodeWildCallLine(std::string_view line, std::uint64_t* index,
                        WildCallResult* result) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  constexpr std::string_view kPrefix = "{\"call\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::size_t pos = kPrefix.size();
  if (!sim::ParseDecimalU64(line, &pos, index)) return false;

  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  WildCallResult r;
  std::uint64_t probe_samples = 0;
  std::uint64_t wmm = 0;
  std::uint64_t cross_stations = 0;
  if (!ParseDoubleField(line, &pos, "p95_tq_ms", &r.p95_tq_ms) ||
      !ParseDoubleField(line, &pos, "p95_ta_ms", &r.p95_ta_ms) ||
      !ParseDoubleField(line, &pos, "p95_tc_ms", &r.p95_tc_ms) ||
      !ParseIntField(line, &pos, "probe_samples", &probe_samples) ||
      !ParseDoubleField(line, &pos, "baseline_rate_kbps",
                        &r.baseline_rate_kbps) ||
      !ParseDoubleField(line, &pos, "kwikr_rate_kbps", &r.kwikr_rate_kbps) ||
      !ParseDoubleField(line, &pos, "baseline_loss_pct",
                        &r.baseline_loss_pct) ||
      !ParseDoubleField(line, &pos, "kwikr_loss_pct", &r.kwikr_loss_pct) ||
      !ParseDoubleField(line, &pos, "baseline_rtt_p50_ms",
                        &r.baseline_rtt_p50_ms) ||
      !ParseDoubleField(line, &pos, "kwikr_rtt_p50_ms", &r.kwikr_rtt_p50_ms) ||
      !ParseIntField(line, &pos, "wmm", &wmm) || wmm > 1 ||
      !ParseIntField(line, &pos, "cross_stations", &cross_stations) ||
      !ParseIntField(line, &pos, "events", &r.events_executed)) {
    return false;
  }
  if (line.substr(pos) != "}" || probe_samples > kIntMax ||
      cross_stations > kIntMax) {
    return false;
  }
  r.probe_samples = static_cast<int>(probe_samples);
  r.wmm_enabled = wmm == 1;
  r.cross_stations = static_cast<int>(cross_stations);
  *result = std::move(r);
  return true;
}

AbBucketRow ComputeAbBucket(const WildResults& results, double threshold_ms) {
  AbBucketRow row;
  row.threshold_ms = threshold_ms;
  std::vector<double> baseline;
  std::vector<double> kwikr;
  for (const auto& call : results.calls) {
    if (call.p95_tc_ms >= threshold_ms) {
      baseline.push_back(call.baseline_rate_kbps);
      kwikr.push_back(call.kwikr_rate_kbps);
    }
  }
  row.calls_in_bucket = static_cast<int>(baseline.size());
  if (results.calls.empty() || baseline.empty()) return row;
  row.percent_calls_covered = 100.0 * static_cast<double>(baseline.size()) /
                              static_cast<double>(results.calls.size());

  const stats::TestResult welch = stats::WelchTTestGreater(kwikr, baseline);
  if (welch.mean_b > 0.0) {
    row.avg_gain_percent = 100.0 * (welch.mean_a - welch.mean_b) /
                           welch.mean_b;
  }
  row.avg_gain_p_value = welch.p_value;

  const double median_b = stats::Percentile(baseline, 50.0);
  const double median_k = stats::Percentile(kwikr, 50.0);
  if (median_b > 0.0) {
    row.median_gain_percent = 100.0 * (median_k - median_b) / median_b;
  }
  row.median_gain_p_value = stats::MannWhitneyUGreater(kwikr, baseline).p_value;
  return row;
}

}  // namespace kwikr::scenario
