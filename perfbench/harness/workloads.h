#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/call_experiment.h"
#include "scenario/wild_population.h"

namespace perfbench {

namespace scenario = kwikr::scenario;
namespace sim = kwikr::sim;

enum class Workload { kCongestedCell, kQuietCall, kWildSweep };

/// Input size of one workload. A "pass" is the unit the benchmark repeats
/// until its time is up: `batch` serial calls, or one sweep of `batch`
/// paired environments through the shard runner.
struct WorkloadSpec {
  Workload workload = Workload::kCongestedCell;
  const char* name = "";
  sim::Duration call_duration = 0;
  int batch = 0;
  /// Distinct input sets a run cycles through, one per pass (wild_sweep:
  /// sweeps of different environments, so a run samples `slices * batch`
  /// environments of the population; 1 for the serial workloads).
  int slices = 1;
  /// Shard-runner checkpoint granularity (wild_sweep only).
  std::uint64_t checkpoint_every = 0;
};

/// Worker processes of a wild_sweep pass: at most 2 of a 4-core host.
inline constexpr int kWildProcesses = 2;

/// Parses a workload name; false when unknown. `tiny` selects the smoke-test
/// size (short calls, small batches) used by the benchmark's own tests.
bool MakeSpec(std::string_view name, bool tiny, WorkloadSpec* spec);

/// The inputs of one pass over input set `slice`, generated from `seed`
/// alone. For wild_sweep each entry is one environment; the benchmark runs
/// it twice (baseline and Kwikr arm).
std::vector<scenario::ExperimentConfig> GenerateConfigs(
    const WorkloadSpec& spec, std::uint64_t seed, int slice = 0);

/// One environment's paired result, assembled from its two arms the way the
/// Fig. 10 population does (p95 Ping-Pair decomposition from the Kwikr arm).
scenario::WildCallResult PairArms(const scenario::ExperimentConfig& config,
                                  const scenario::ExperimentMetrics& baseline,
                                  const scenario::ExperimentMetrics& kwikr);

/// Canonical text of one serial call's outputs: events, per-call rates,
/// loss, probe-sample count, Tq/Ta/Tc p95 and the timeline bytes, doubles in
/// %.17g so equal text means bit-equal results.
std::string CanonicalCall(const scenario::ExperimentMetrics& metrics);

/// 64-bit FNV-1a.
std::uint64_t Fnv1a(std::string_view bytes);

}  // namespace perfbench
