#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "scenario/call_experiment.h"

namespace kwikr::scenario {

/// Monte-Carlo stand-in for the paper's production A/B deployment
/// (Section 8.4): a heterogeneous population of Wi-Fi environments, each
/// hosting one paired pair of calls (baseline and Kwikr) under common random
/// numbers. Reproduces Figure 10 (wild downlink-delay distribution) and
/// Table 3 (bandwidth gains bucketed by cross-traffic-induced delay).
struct WildConfig {
  int calls = 200;              ///< population size (paper: 119,789).
  std::uint64_t base_seed = 42;
  sim::Duration call_duration = sim::Seconds(60);  ///< paper mean: 967 s.
  /// Worker threads for the population sweep (fleet runner): 1 = serial on
  /// the calling thread, 0 = one per hardware thread. Every environment is
  /// seeded from `base_seed` and its own index, so results are bit-identical
  /// for any value of `jobs`.
  int jobs = 1;

  /// Fault matrix: environment `i` runs under `fault_matrix[i % size]`
  /// (empty = no faults anywhere). This is how a population sweep shards a
  /// set of impairment profiles across its environments; because the
  /// assignment depends only on the index, the determinism guarantee above
  /// is unchanged.
  std::vector<faults::FaultSpec> fault_matrix;

  /// Sim-time timeline telemetry on the Kwikr arm of every environment
  /// (the arm that runs the probing in production). Each call's series are
  /// stamped with `"call":<index>`, so concatenating per-call timelines in
  /// index order yields a population timeline that is byte-identical for
  /// any `jobs`. Off by default — enabling it adds periodic timer events,
  /// which changes the Kwikr arm's event count (never its media results).
  bool timeline = false;
  sim::Duration timeline_interval = sim::Millis(10);

  /// Optional observability sink. Each environment accumulates simulated
  /// counters/histograms into its own worker-local registry which is merged
  /// once when the task completes — since every merge rule is associative
  /// and commutative, the aggregate is bit-identical for any `jobs`.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of one environment (paired calls).
struct WildCallResult {
  // Per-call 95th-percentile Ping-Pair delay decomposition, milliseconds
  // (measured on the Kwikr arm, which runs the probing in production).
  double p95_tq_ms = 0.0;
  double p95_ta_ms = 0.0;  ///< delay due to the call itself ("Skype").
  double p95_tc_ms = 0.0;  ///< delay due to cross-traffic.
  int probe_samples = 0;

  double baseline_rate_kbps = 0.0;
  double kwikr_rate_kbps = 0.0;
  double baseline_loss_pct = 0.0;
  double kwikr_loss_pct = 0.0;
  double baseline_rtt_p50_ms = 0.0;
  double kwikr_rtt_p50_ms = 0.0;

  bool wmm_enabled = false;
  int cross_stations = 0;
  /// Events dispatched across both arms' loops (scheduler-throughput
  /// accounting for the bench harness).
  std::uint64_t events_executed = 0;
  /// Kwikr-arm timeline JSONL (empty unless WildConfig::timeline); every
  /// line carries this environment's `"call":<index>` stamp.
  std::string timeline_jsonl;
};

struct WildResults {
  std::vector<WildCallResult> calls;
};

/// Runs the contiguous population slice [begin, end) and hands each
/// environment's result to `sink` in ascending global-index order, never
/// holding more than the slice in RAM. Seeds fork from `config.base_seed`
/// at the *global* index (and the fault matrix likewise keys on the global
/// index), so any partition of [0, calls) into ranges reproduces the whole
/// population's per-call results bit-identically. `config.calls` is
/// ignored; `config.jobs` parallelizes within the slice, never changing the
/// results. Throws std::runtime_error naming the first failed call index if
/// any environment in the slice fails, before calling `sink` or touching
/// `config.metrics` — a range is all-or-nothing, so a spilled checkpoint
/// never records a hole and no failed environment enters the statistics.
void RunWildRange(
    const WildConfig& config, std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t index, WildCallResult&& result)>&
        sink);

/// The whole population [0, config.calls) in RAM: RunWildRange with a sink
/// that collects the results in index order. Same determinism and
/// all-or-nothing contract.
WildResults RunWildPopulation(const WildConfig& config);

/// Canonical spill-line codec for one environment's result:
/// `{"call":<index>,...}\n` with %.17g doubles, so a decode → encode
/// round-trip is byte-identical and merged spill files compare with cmp(1).
/// `timeline_jsonl` is deliberately excluded — timeline bytes travel in
/// their own spill stream.
std::string EncodeWildCallLine(std::uint64_t index,
                               const WildCallResult& result);
/// Strict parse of one line (with or without the trailing '\n'); false on
/// any deviation from the canonical form.
bool DecodeWildCallLine(std::string_view line, std::uint64_t* index,
                        WildCallResult* result);

/// One row of Table 3: calls whose p95 cross-traffic delay is at least
/// `threshold_ms`, with the average/median bandwidth gain and significance.
struct AbBucketRow {
  double threshold_ms = 0.0;
  double percent_calls_covered = 0.0;
  double avg_gain_percent = 0.0;
  double avg_gain_p_value = 1.0;     ///< one-sided Welch t-test.
  double median_gain_percent = 0.0;
  double median_gain_p_value = 1.0;  ///< one-sided Mann-Whitney U.
  int calls_in_bucket = 0;
};

AbBucketRow ComputeAbBucket(const WildResults& results, double threshold_ms);

}  // namespace kwikr::scenario
