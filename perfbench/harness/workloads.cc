#include "workloads.h"

#include <cinttypes>
#include <cstdio>

#include "sim/rng.h"
#include "stats/percentile.h"
#include "transport/congestion_control.h"
#include "wifi/queue_discipline.h"
#include "wifi/rate_table.h"

namespace perfbench {
namespace {

namespace core = kwikr::core;
namespace stats = kwikr::stats;
namespace transport = kwikr::transport;
namespace wifi = kwikr::wifi;

/// Saturated contention: three cross stations with twelve bulk TCP flows
/// each, congested from 1 s to the end of the call. Even calls run
/// DropTail + Reno, odd calls FQ-CoDel + CUBIC, so a pass drives the qdisc
/// and CC layers both ways.
scenario::ExperimentConfig CongestedCell(const WorkloadSpec& spec,
                                         std::uint64_t call_seed, int index) {
  scenario::ExperimentConfig config;
  config.seed = call_seed;
  config.duration = spec.call_duration;
  config.cross_stations = 3;
  config.flows_per_station = 12;
  config.congestion_start = sim::Seconds(1);
  config.congestion_end = spec.call_duration;
  if (index % 2 == 0) {
    config.qdisc.kind = wifi::QdiscKind::kDropTail;
    config.cross_cc = transport::CcAlgorithm::kReno;
  } else {
    config.qdisc.kind = wifi::QdiscKind::kFqCoDel;
    config.cross_cc = transport::CcAlgorithm::kCubic;
  }
  config.calls = {scenario::CallConfig{}};
  config.calls[0].kwikr = true;
  return config;
}

/// No cross traffic; the cost is the control and telemetry path: dual
/// Ping-Pair every 100 ms and the 10 ms timeline sampler.
scenario::ExperimentConfig QuietCall(const WorkloadSpec& spec,
                                     std::uint64_t call_seed) {
  scenario::ExperimentConfig config;
  config.seed = call_seed;
  config.duration = spec.call_duration;
  config.cross_stations = 0;
  config.congestion_start = 0;
  config.congestion_end = 0;
  config.probe_interval = sim::Millis(100);
  config.dual_ping_pair = true;
  config.timeline.enabled = true;
  config.timeline.interval = sim::Millis(10);
  config.calls = {scenario::CallConfig{}};
  config.calls[0].kwikr = true;
  return config;
}

/// The Fig. 10 environment draw: band, WMM (77%), client MCS, and either no
/// cross traffic (40%) or 1-3 stations with 1-12 flows congesting a random
/// 15-50% episode of the call.
scenario::ExperimentConfig WildEnvironment(const WorkloadSpec& spec,
                                           sim::Rng rng) {
  scenario::ExperimentConfig config;
  config.seed = rng.Next();
  config.duration = spec.call_duration;
  config.band = rng.Bernoulli(0.5) ? wifi::Band::k2_4GHz : wifi::Band::k5GHz;
  config.wmm_enabled = rng.Bernoulli(0.77);
  const auto rates = wifi::McsRates(config.band);
  config.client_rate_bps = rates[static_cast<std::size_t>(
      rng.UniformInt(2, static_cast<std::int64_t>(rates.size()) - 1))];
  if (rng.Bernoulli(0.4)) {
    config.cross_stations = 0;
  } else {
    config.cross_stations = static_cast<int>(rng.UniformInt(1, 3));
    config.flows_per_station = static_cast<int>(rng.UniformInt(1, 12));
    const double len_frac = rng.Uniform(0.15, 0.5);
    const double start_frac = rng.Uniform(0.05, 0.9 - len_frac * 0.9);
    const auto duration = static_cast<double>(spec.call_duration);
    config.congestion_start =
        static_cast<sim::Time>(start_frac * duration);
    config.congestion_end =
        static_cast<sim::Time>((start_frac + len_frac) * duration);
  }
  config.calls = {scenario::CallConfig{}};
  return config;
}

double P95Ms(const std::vector<core::PingPairSample>& samples,
             sim::Duration core::PingPairSample::*field) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const auto& s : samples) ms.push_back(sim::ToMillis(s.*field));
  return stats::Percentile(ms, 95.0);
}

void AppendDouble(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g,", value);
  *out += buf;
}

void AppendUint(std::string* out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ",", value);
  *out += buf;
}

}  // namespace

bool MakeSpec(std::string_view name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec s;
  if (name == "congested_cell") {
    s.workload = Workload::kCongestedCell;
    s.name = "congested_cell";
    s.call_duration = sim::Seconds(tiny ? 2 : 60);
    s.batch = 2;
  } else if (name == "quiet_call") {
    s.workload = Workload::kQuietCall;
    s.name = "quiet_call";
    s.call_duration = sim::Seconds(tiny ? 2 : 60);
    s.batch = tiny ? 2 : 4;
  } else if (name == "wild_sweep") {
    s.workload = Workload::kWildSweep;
    s.name = "wild_sweep";
    s.call_duration = sim::Seconds(tiny ? 2 : 6);
    s.batch = tiny ? 6 : 100;
    s.slices = tiny ? 2 : 4;
    s.checkpoint_every = tiny ? 2 : 25;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

std::vector<scenario::ExperimentConfig> GenerateConfigs(
    const WorkloadSpec& spec, std::uint64_t seed, int slice) {
  const sim::Rng base(seed);
  std::vector<scenario::ExperimentConfig> configs;
  configs.reserve(static_cast<std::size_t>(spec.batch));
  for (int i = 0; i < spec.batch; ++i) {
    sim::Rng rng =
        base.Fork(static_cast<std::uint64_t>(slice * spec.batch + i));
    switch (spec.workload) {
      case Workload::kCongestedCell:
        configs.push_back(CongestedCell(spec, rng.Next(), i));
        break;
      case Workload::kQuietCall:
        configs.push_back(QuietCall(spec, rng.Next()));
        break;
      case Workload::kWildSweep:
        configs.push_back(WildEnvironment(spec, rng));
        break;
    }
  }
  return configs;
}

scenario::WildCallResult PairArms(const scenario::ExperimentConfig& config,
                                  const scenario::ExperimentMetrics& baseline,
                                  const scenario::ExperimentMetrics& kwikr) {
  const scenario::CallMetrics& b = baseline.calls.at(0);
  const scenario::CallMetrics& k = kwikr.calls.at(0);
  scenario::WildCallResult r;
  r.p95_tq_ms = P95Ms(k.probe_samples, &core::PingPairSample::tq);
  r.p95_ta_ms = P95Ms(k.probe_samples, &core::PingPairSample::ta);
  r.p95_tc_ms = P95Ms(k.probe_samples, &core::PingPairSample::tc);
  r.probe_samples = static_cast<int>(k.probe_samples.size());
  r.baseline_rate_kbps = b.mean_rate_kbps;
  r.kwikr_rate_kbps = k.mean_rate_kbps;
  r.baseline_loss_pct = b.loss_pct;
  r.kwikr_loss_pct = k.loss_pct;
  r.baseline_rtt_p50_ms = stats::Percentile(b.rtt_ms, 50.0);
  r.kwikr_rtt_p50_ms = stats::Percentile(k.rtt_ms, 50.0);
  r.wmm_enabled = config.wmm_enabled;
  r.cross_stations = config.cross_stations;
  r.events_executed = baseline.events_executed + kwikr.events_executed;
  return r;
}

std::string CanonicalCall(const scenario::ExperimentMetrics& metrics) {
  std::string out;
  AppendUint(&out, metrics.events_executed);
  for (const scenario::CallMetrics& call : metrics.calls) {
    AppendDouble(&out, call.mean_rate_kbps);
    AppendDouble(&out, call.mean_rate_congested_kbps);
    AppendDouble(&out, call.loss_pct);
    AppendUint(&out, call.probe_samples.size());
    AppendDouble(&out, P95Ms(call.probe_samples, &core::PingPairSample::tq));
    AppendDouble(&out, P95Ms(call.probe_samples, &core::PingPairSample::ta));
    AppendDouble(&out, P95Ms(call.probe_samples, &core::PingPairSample::tc));
  }
  AppendUint(&out, metrics.timeline_jsonl.size());
  AppendUint(&out, Fnv1a(metrics.timeline_jsonl));
  return out;
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
