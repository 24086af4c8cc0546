// perfbench: the repository benchmark. One invocation runs one workload for
// a fixed host-time window, checks every output, and prints its metrics; the
// last stdout line is the machine-readable result
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Usually launched through run.py, which builds this binary first:
//   python3 perfbench/run.py --workload congested_cell --seed 1
//       --seconds 10 --trace 0
// See perfbench/README.md for the workloads and metrics.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.h"
#include "measure.h"
#include "provenance.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
  bool tiny = false;
  int inject_failure = -1;
  int inject_mismatch = -1;
  Provenance provenance;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload congested_cell|quiet_call|"
               "wild_sweep --seed N --seconds S --trace 0|1\n"
               "  [--work-dir DIR] [--tiny] [--commit SHA] [--dirty 0|1]\n"
               "  [--source-sha HEX]\n"
               "  [--inject-failure CALL] [--inject-mismatch CALL]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else if (flag == "--inject-failure") {
      a->inject_failure = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--inject-mismatch") {
      a->inject_mismatch =
          static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--commit") {
      a->provenance.commit = value;
    } else if (flag == "--dirty") {
      a->provenance.dirty = value;
    } else if (flag == "--source-sha") {
      a->provenance.source_sha = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return !a->workload.empty() && a->seconds > 0.0 && std::isfinite(a->seconds) &&
         (a->trace == 0 || a->trace == 1);
}

/// FNV-1a of this executable's bytes: keys the per-seed state so a rebuilt
/// binary starts a fresh reference instead of comparing against stale ones.
std::uint64_t BinaryHash() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return Fnv1a(bytes.str());
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::uint64_t> LoadDigests(const std::string& path) {
  std::vector<std::uint64_t> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    digests.push_back(std::strtoull(line.c_str(), nullptr, 16));
  }
  return digests;
}

void StoreDigests(const std::string& path,
                  const std::vector<std::uint64_t>& digests) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::uint64_t d : digests) out << Hex(d) << "\n";
}

/// Exact-count values of an earlier traced run of this seed and binary.
std::map<std::string, std::string> LoadCounts(const std::string& path) {
  std::map<std::string, std::string> counts;
  std::ifstream in(path);
  std::string name;
  std::string value;
  while (in >> name >> value) counts[name] = value;
  return counts;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  RunOptions options;
  if (!MakeSpec(args.workload, args.tiny, &options.spec)) {
    return Usage("unknown workload");
  }
  const std::string unfit = UnfitForTiming();
  if (!unfit.empty()) {
    std::fprintf(stderr,
                 "perfbench: THIS BUILD IS NOT FIT FOR TIMING (%s); refusing "
                 "to report. Rebuild with -DCMAKE_BUILD_TYPE=Release.\n",
                 unfit.c_str());
    return 3;
  }
  args.provenance.seed = args.seed;
  ReadLoadAverage(args.provenance.load_before);

  std::error_code ec;
  const std::string state_dir = args.work_dir + "/state";
  std::filesystem::create_directories(state_dir, ec);
  if (ec) return Usage(("cannot create " + state_dir).c_str());
  const std::string key = state_dir + "/" + args.workload + "-" +
                          std::to_string(args.seed) +
                          (args.tiny ? "-tiny-" : "-") + Hex(BinaryHash());

  options.seed = args.seed;
  options.seconds = args.seconds;
  options.trace = args.trace == 1;
  options.work_dir = args.work_dir;
  options.inject_failure = args.inject_failure;
  options.inject_mismatch = args.inject_mismatch;
  const bool hooked = args.inject_failure >= 0 || args.inject_mismatch >= 0;
  // A test hook's corrupted results must neither become nor be judged
  // against the stored reference of this seed.
  if (!hooked) options.reference_digests = LoadDigests(key + ".digests");
  const bool had_reference = !options.reference_digests.empty();

  const RunResult result = RunWorkload(options);
  // A clean run records the digests it added (all of them the first time;
  // input sets a traced run never visits on later runs).
  if (!hooked && result.failed == 0 &&
      result.digests != options.reference_digests) {
    StoreDigests(key + ".digests", result.digests);
  }

  // Exact-count audit: within the run (every pass) and against an earlier
  // traced invocation of the same seed and binary.
  std::vector<std::string> audit_mismatch = result.non_repeating;
  std::string audit_previous = "n/a";
  if (options.trace && !hooked) {
    const std::map<std::string, std::string> previous =
        LoadCounts(key + ".counts");
    std::ostringstream current;
    for (const MetricSpec& spec : PerLayerMetrics()) {
      if (!spec.exact) continue;
      const auto it = result.metrics.find(spec.name);
      const std::string value =
          Number(it == result.metrics.end() ? 0.0 : it->second);
      current << spec.name << " " << value << "\n";
      const auto prev = previous.find(spec.name);
      if (prev != previous.end() && prev->second != value) {
        audit_mismatch.push_back(spec.name);
      }
    }
    if (previous.empty()) {
      std::ofstream(key + ".counts", std::ios::trunc) << current.str();
      audit_previous = "first traced run of this seed";
    } else {
      audit_previous = "compared with the previous traced run of this seed";
    }
  }
  ReadLoadAverage(args.provenance.load_after);

  std::string run_digest;
  for (const std::uint64_t d : result.digests) run_digest += Hex(d);
  run_digest = Hex(Fnv1a(run_digest));
  const double failed_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  const bool correct = result.failed == 0 && result.attempted > 0;

  std::printf("perfbench: workload=%s seed=%" PRIu64 " trace=%d passes=%" PRIu64
              " attempted=%" PRIu64 " failed=%" PRIu64
              " failed_frac=%.6g digest=%s%s\n",
              args.workload.c_str(), args.seed, args.trace, result.passes,
              result.attempted, result.failed, failed_frac, run_digest.c_str(),
              !had_reference       ? ""
              : result.failed == 0 ? " (matches the stored reference)"
                                   : " (checked against the stored reference)");
  if (options.spec.workload == Workload::kWildSweep) {
    std::printf("perfbench: environments of the first sweep below Fig. 10's "
                "10-sample floor: %" PRIu64 " of %d\n",
                result.calls_below_floor, options.spec.batch);
  }
  const double to_reference =
      result.calibration_s > 0.0 ? kCalibrationReferenceS / result.calibration_s
                                 : 1.0;
  std::printf("perfbench: host calibration %.4f ms (reference %.4f ms); "
              "host times scaled by %.4f",
              result.calibration_s * 1e3, kCalibrationReferenceS * 1e3,
              to_reference);
  if (!options.trace) {
    const auto speed = result.metrics.find("sim_speed");
    std::printf("; unscaled sim_speed=%s",
                Number(speed == result.metrics.end()
                           ? 0.0
                           : speed->second * to_reference)
                    .c_str());
  }
  std::printf("\n");
  for (const std::string& why : result.problems) {
    std::printf("perfbench: FAILED: %s\n", why.c_str());
  }
  const auto specs = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics_json;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::printf("  %-30s %-18s %s\n", spec.name, Number(value).c_str(),
                spec.unit);
    if (!metrics_json.empty()) metrics_json += ",";
    metrics_json += "\"" + std::string(spec.name) + "\":{\"value\":" +
                    Number(value) + ",\"unit\":\"" + spec.unit + "\"}";
  }
  std::string audit_json = "null";
  if (options.trace) {
    std::string list;
    for (const std::string& name : audit_mismatch) {
      std::printf("perfbench: AUDIT: count metric %s did not repeat exactly\n",
                  name.c_str());
      list += (list.empty() ? "\"" : ",\"") + name + "\"";
    }
    std::printf("perfbench: audit: %s (%s)\n",
                audit_mismatch.empty() ? "every count metric repeated exactly"
                                       : "SOME COUNT METRICS DID NOT REPEAT",
                audit_previous.c_str());
    audit_json = "{\"non_repeating\":[" + list + "],\"against\":\"" +
                 JsonEscape(audit_previous) + "\"}";
  }
  const std::string provenance = ProvenanceJson(args.provenance);
  std::printf("perfbench: provenance %s\n", provenance.c_str());

  std::string problems;
  for (const std::string& why : result.problems) {
    problems += (problems.empty() ? "\"" : ",\"") + JsonEscape(why) + "\"";
  }
  std::ofstream(args.work_dir + "/records.jsonl", std::ios::app)
      << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"trace\":" << args.trace << ",\"tiny\":" << (args.tiny ? 1 : 0)
      << ",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << result.attempted << ",\"failed\":"
      << result.failed << ",\"failed_frac\":" << Number(failed_frac)
      << ",\"passes\":" << result.passes
      << ",\"calibration_ms\":" << Number(result.calibration_s * 1e3)
      << ",\"digest\":\"" << run_digest
      << "\",\"problems\":[" << problems << "],\"metrics\":{" << metrics_json
      << "},\"audit\":" << audit_json << ",\"provenance\":" << provenance
      << "}\n";

  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{%s}}\n",
              correct ? "true" : "false", result.attempted, result.failed,
              metrics_json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
