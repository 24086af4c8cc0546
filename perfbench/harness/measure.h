#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Heap allocations made by this process so far (alloc_counter.cc).
std::uint64_t AllocationCount();

/// One reported metric. `exact` marks a count (or a ratio of counts) that
/// must repeat bit for bit between runs of one seed; the exact-count audit
/// checks exactly these.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool exact;
};

/// Printed with --trace 0, in this order.
std::span<const MetricSpec> EndToEndMetrics();
/// Printed with --trace 1, in this order. A metric of a layer the workload
/// does not exercise (fleet.* on the serial workloads) reads 0.
std::span<const MetricSpec> PerLayerMetrics();

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for spill files and per-seed state; must exist.
  std::string work_dir;
  /// Per-call digests of an earlier invocation with the same seed and
  /// binary (empty: none recorded yet). Every pass must reproduce them.
  std::vector<std::uint64_t> reference_digests;
  /// Test hooks: the call (wild_sweep: its chunk) that throws, and the call
  /// whose digest is corrupted in every pass after the first. -1 = off.
  int inject_failure = -1;
  int inject_mismatch = -1;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< calls (wild_sweep: environments).
  std::uint64_t failed = 0;
  /// Why calls failed, one entry per distinct reason.
  std::vector<std::string> problems;
  /// Per-call digests of this run (the reference every pass matched).
  std::vector<std::uint64_t> digests;
  std::uint64_t passes = 0;
  /// wild_sweep: environments of the first sweep under Fig. 10's 10-sample
  /// floor (reported, not failed).
  std::uint64_t calls_below_floor = 0;
  std::map<std::string, double> metrics;
  /// The run's quickest CalibrationSample(), one taken before every pass.
  /// sim_speed and setup_s are scaled by it to the reference host.
  double calibration_s = 0.0;
  /// Exact metrics that differed between passes of this run.
  std::vector<std::string> non_repeating;
};

/// Runs the workload closed-loop until `seconds` have elapsed (at least one
/// pass, or one untraced/traced pair with `trace`), checking every output.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench
