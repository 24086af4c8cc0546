#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Where a record came from. Commit, dirty flag and source hash are supplied
/// by run.py (the benchmark may run in a checkout that is not a git
/// repository); everything else is known to the binary.
struct Provenance {
  std::string commit = "unknown";
  std::string dirty = "unknown";
  std::string source_sha = "unknown";
  std::uint64_t seed = 0;
  double load_before[3] = {0, 0, 0};
  double load_after[3] = {0, 0, 0};
};

/// Why this binary's timings are not fit to report (a Debug or sanitizer
/// build), or empty when they are.
std::string UnfitForTiming();

/// Reads the 1/5/15-minute load averages into `out`.
void ReadLoadAverage(double out[3]);

/// One-line JSON object: the fields above plus compiler, build type and
/// flags, and nproc.
std::string ProvenanceJson(const Provenance& p);

/// Escapes `s` for use inside a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench
