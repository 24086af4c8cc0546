#include "fleet/shard_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <utility>

#include "fleet/spill.h"
#include "obs/registry_io.h"
#include "sim/decimal.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/prctl.h>
#include <csignal>
#endif

namespace kwikr::fleet {
namespace {

ShardRunStatus Fail(std::string message) {
  ShardRunStatus status;
  status.error = std::move(message);
  return status;
}

/// VmHWM of this process in kB (0 when /proc is unavailable) — the
/// flat-memory headline is per *worker* process, so each worker records its
/// own peak into its manifest.
std::uint64_t PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

/// Validates that `line` is one complete result line for `expected` — the
/// `{"call":<expected>,` prefix ChunkFn promises — so a shuffled, stale, or
/// corrupt spill can never merge silently.
bool CheckResultLine(std::string_view line, std::uint64_t expected) {
  constexpr std::string_view kPrefix = "{\"call\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::size_t pos = kPrefix.size();
  std::uint64_t index = 0;
  if (!sim::ParseDecimalU64(line, &pos, &index) || pos >= line.size() ||
      line[pos] != ',') {
    return false;
  }
  return index == expected && line.back() == '\n';
}

/// Splits a chunk's results payload back into lines and checks the index
/// sequence [begin, end) — run in the worker right after ChunkFn so a
/// producer bug is caught before the bytes hit the spill.
bool CheckChunkResults(std::string_view results, std::uint64_t begin,
                       std::uint64_t end) {
  std::uint64_t expected = begin;
  std::size_t pos = 0;
  while (pos < results.size()) {
    std::size_t newline = results.find('\n', pos);
    if (newline == std::string_view::npos) return false;
    if (expected >= end ||
        !CheckResultLine(results.substr(pos, newline - pos + 1), expected)) {
      return false;
    }
    ++expected;
    pos = newline + 1;
  }
  return expected == end;
}

std::string RangeText(const ItemRange& range) {
  return "[" + std::to_string(range.begin) + ", " +
         std::to_string(range.end) + ")";
}

/// Exclusive per-worker advisory lock held for the duration of a worker's
/// chunk loop. Two processes must never append to the same spill: a resumed
/// run racing a still-live orphan from a killed sweep would interleave lines
/// and corrupt the stream past repair. The kernel drops a flock on process
/// death — SIGKILL included — so a crashed worker can never wedge a resume;
/// a LIVE one makes the resume fail fast with a clear message instead.
class WorkerLock {
 public:
  WorkerLock() = default;
  ~WorkerLock() { Release(); }
  WorkerLock(const WorkerLock&) = delete;
  WorkerLock& operator=(const WorkerLock&) = delete;

  bool Acquire(const std::string& path, std::string* error) {
#if defined(__unix__) || defined(__APPLE__)
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      if (error != nullptr) *error = "cannot open lock file " + path;
      return false;
    }
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd_);
      fd_ = -1;
      if (error != nullptr) {
        *error = "spill is locked by another live worker process (" + path +
                 ") — an earlier run's worker is still finishing; wait for "
                 "it to exit before resuming";
      }
      return false;
    }
#else
    (void)path;
    (void)error;
#endif
    return true;
  }

  void Release() {
#if defined(__unix__) || defined(__APPLE__)
    if (fd_ >= 0) {
      ::close(fd_);  // closing the fd releases the flock.
      fd_ = -1;
    }
#endif
  }

 private:
  int fd_ = -1;
};

ItemRange WorkerItemRange(const ShardRunnerConfig& config, int shard,
                          int processes, int worker) {
  const ItemRange shard_range =
      PartitionItems(config.total_items, config.shard.count, shard);
  ItemRange range = PartitionItems(shard_range.size(), processes, worker);
  range.begin += shard_range.begin;
  range.end += shard_range.begin;
  return range;
}

}  // namespace

ItemRange PartitionItems(std::uint64_t total, int parts, int part) {
  const auto n = static_cast<std::uint64_t>(std::max(parts, 1));
  const auto i = static_cast<std::uint64_t>(std::clamp(part, 0, parts - 1));
  const std::uint64_t base = total / n;
  const std::uint64_t extra = total % n;
  ItemRange range;
  range.begin = i * base + std::min(i, extra);
  range.end = range.begin + base + (i < extra ? 1 : 0);
  return range;
}

SpillPaths WorkerSpillPaths(const std::string& spill_dir, ShardSpec shard,
                            int worker) {
  const std::string stem = spill_dir + "/shard" + std::to_string(shard.index) +
                           "of" + std::to_string(shard.count) + "_worker" +
                           std::to_string(worker);
  SpillPaths paths;
  paths.results = stem + ".results.jsonl";
  paths.metrics = stem + ".metrics.jsonl";
  paths.timeline = stem + ".timeline.jsonl";
  paths.manifest = stem + ".manifest.json";
  return paths;
}

ShardRunner::ShardRunner(ShardRunnerConfig config, ChunkFn chunk_fn)
    : config_(std::move(config)), chunk_fn_(std::move(chunk_fn)) {}

ShardRunStatus ShardRunner::RunWorkerInline(int worker,
                                            std::uint64_t stop_after_chunks) {
  const ItemRange range =
      WorkerItemRange(config_, config_.shard.index, config_.processes, worker);
  const SpillPaths paths =
      WorkerSpillPaths(config_.spill_dir, config_.shard, worker);

  WorkerLock lock;
  std::string lock_error;
  if (!lock.Acquire(paths.manifest + ".lock", &lock_error)) {
    return Fail("shard worker " + std::to_string(worker) + ": " + lock_error);
  }

  CheckpointManifest manifest;
  manifest.fingerprint = config_.fingerprint;
  manifest.shard = config_.shard.index;
  manifest.shard_count = config_.shard.count;
  manifest.worker = worker;
  manifest.processes = config_.processes;
  manifest.range_begin = range.begin;
  manifest.range_end = range.end;
  manifest.completed = range.begin;

  if (config_.resume) {
    bool parse_failed = false;
    std::string load_error;
    if (auto loaded = LoadCheckpointManifest(paths.manifest, &parse_failed,
                                             &load_error)) {
      if (loaded->fingerprint != config_.fingerprint) {
        return Fail("shard worker " + std::to_string(worker) +
                    ": checkpoint fingerprint mismatch (manifest '" +
                    loaded->fingerprint + "' vs run '" + config_.fingerprint +
                    "') — refusing to resume a different sweep's spill");
      }
      if (loaded->shard != config_.shard.index ||
          loaded->shard_count != config_.shard.count ||
          loaded->worker != worker ||
          loaded->processes != config_.processes ||
          loaded->range_begin != range.begin ||
          loaded->range_end != range.end) {
        return Fail("shard worker " + std::to_string(worker) +
                    ": checkpoint topology mismatch — resume must use the "
                    "same --shard and --processes split as the original run");
      }
      manifest = *loaded;
    } else if (parse_failed) {
      return Fail(load_error);
    }
    // No manifest at all: fall through and start this worker from scratch
    // (e.g. the run was killed before its first checkpoint).
  }
  const std::uint64_t resumed = manifest.completed - range.begin;

  // Open the spills truncated to exactly the checkpointed bytes. A torn or
  // corrupt trailing line from a killed chunk lies beyond these offsets and
  // is dropped here; its items re-run below. A file *shorter* than the
  // manifest fails instead (see TruncateSpillFile).
  SpillWriter results;
  SpillWriter metrics;
  SpillWriter timeline;
  std::string error;
  if (!results.Open(paths.results, manifest.results_bytes, &error) ||
      !metrics.Open(paths.metrics, manifest.metrics_bytes, &error) ||
      !timeline.Open(paths.timeline, manifest.timeline_bytes, &error)) {
    return Fail("shard worker " + std::to_string(worker) + ": " + error);
  }
  // Commit the starting state (fresh runs: an empty manifest) so a kill at
  // any later point resumes against consistent offsets.
  manifest.peak_rss_kb = std::max(manifest.peak_rss_kb, PeakRssKb());
  if (!WriteCheckpointManifest(paths.manifest, manifest, &error)) {
    return Fail("shard worker " + std::to_string(worker) + ": " + error);
  }

  std::uint64_t chunks_done = 0;
  while (manifest.completed < range.end && chunks_done < stop_after_chunks) {
#if defined(__unix__) || defined(__APPLE__)
    // Orphan guard for forked workers: PR_SET_PDEATHSIG is best-effort (a
    // seccomp filter may silence it), so a worker whose parent died — it is
    // reparented, so getppid() changes — stops at the next chunk boundary
    // instead of appending to spills a resumed run is about to take over.
    if (parent_pid_ != 0 && static_cast<long>(::getppid()) != parent_pid_) {
      ::_exit(4);
    }
#endif
    const std::uint64_t chunk_begin = manifest.completed;
    const std::uint64_t chunk_end =
        std::min(chunk_begin + std::max<std::uint64_t>(config_.checkpoint_every,
                                                       1),
                 range.end);
    ChunkOutput output;
    try {
      output = chunk_fn_(chunk_begin, chunk_end);
    } catch (const std::exception& e) {
      return Fail("shard worker " + std::to_string(worker) + ": chunk [" +
                  std::to_string(chunk_begin) + ", " +
                  std::to_string(chunk_end) + ") threw: " + e.what());
    }
    if (!CheckChunkResults(output.results_jsonl, chunk_begin, chunk_end)) {
      return Fail("shard worker " + std::to_string(worker) +
                  ": chunk produced malformed result lines for [" +
                  std::to_string(chunk_begin) + ", " +
                  std::to_string(chunk_end) + ")");
    }
    if (!results.Append(output.results_jsonl) ||
        !metrics.Append(output.metrics_jsonl) ||
        !timeline.Append(output.timeline_jsonl) || !results.Flush() ||
        !metrics.Flush() || !timeline.Flush()) {
      return Fail("shard worker " + std::to_string(worker) +
                  ": spill write failed (disk full?)");
    }
    manifest.completed = chunk_end;
    manifest.results_bytes = results.bytes();
    manifest.metrics_bytes = metrics.bytes();
    manifest.timeline_bytes = timeline.bytes();
    manifest.peak_rss_kb = std::max(manifest.peak_rss_kb, PeakRssKb());
    if (!WriteCheckpointManifest(paths.manifest, manifest, &error)) {
      return Fail("shard worker " + std::to_string(worker) + ": " + error);
    }
    ++chunks_done;
  }

  ShardRunStatus status;
  status.ok = true;
  status.items_done = manifest.completed - range.begin;
  status.items_resumed = resumed;
  status.peak_worker_rss_kb = manifest.peak_rss_kb;
  return status;
}

ShardRunStatus ShardRunner::Run() {
  if (config_.spill_dir.empty()) return Fail("shard runner: no spill dir");
  if (config_.shard.count < 1 || config_.shard.index < 0 ||
      config_.shard.index >= config_.shard.count) {
    return Fail("shard runner: invalid --shard k/n");
  }
  const int processes = std::max(config_.processes, 1);

  if (processes == 1) return RunWorkerInline(0);

#if defined(__unix__) || defined(__APPLE__)
  // The resumed-item tally has to come from the manifests BEFORE the
  // children advance them; the children's own counts die with their address
  // spaces.
  std::uint64_t items_resumed = 0;
  if (config_.resume) {
    for (int worker = 0; worker < processes; ++worker) {
      const SpillPaths paths =
          WorkerSpillPaths(config_.spill_dir, config_.shard, worker);
      bool parse_failed = false;
      std::string error;
      if (const auto manifest =
              LoadCheckpointManifest(paths.manifest, &parse_failed, &error)) {
        if (manifest->fingerprint == config_.fingerprint &&
            manifest->completed >= manifest->range_begin) {
          items_resumed += manifest->completed - manifest->range_begin;
        }
      }
    }
  }

  // Flush before forking so buffered output is not duplicated into every
  // child. The parent must be single-threaded here — the runner forks
  // before any thread pool exists; pools live inside the workers.
  std::fflush(nullptr);
  parent_pid_ = static_cast<long>(::getpid());
  std::vector<pid_t> pids(static_cast<std::size_t>(processes), -1);
  for (int worker = 0; worker < processes; ++worker) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Reap what was already started before reporting.
      for (const pid_t started : pids) {
        if (started > 0) ::waitpid(started, nullptr, 0);
      }
      return Fail("shard runner: fork failed for worker " +
                  std::to_string(worker));
    }
    if (pid == 0) {
#if defined(__linux__)
      // Die with the parent: a SIGKILL'd sweep must not leave orphan
      // workers appending to the spill a resume is about to truncate.
      // Best-effort (seccomp may filter it) — the chunk loop's getppid()
      // orphan guard and the per-worker flock are the hard backstops.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
      const ShardRunStatus status = RunWorkerInline(worker);
      if (!status.ok) {
        std::fprintf(stderr, "%s\n", status.error.c_str());
        std::fflush(stderr);
        ::_exit(3);
      }
      ::_exit(0);
    }
    pids[static_cast<std::size_t>(worker)] = pid;
  }

  // The waitpid barrier is the forked-process analogue of ThreadPool's
  // task-exception isolation: every child gets reaped, every failure is
  // attributed to the call range it owned, and a dead worker fails the run
  // with a message instead of wedging the merge.
  std::string failures;
  for (int worker = 0; worker < processes; ++worker) {
    int wait_status = 0;
    if (::waitpid(pids[static_cast<std::size_t>(worker)], &wait_status, 0) <
        0) {
      failures += "shard worker " + std::to_string(worker) +
                  ": waitpid failed; ";
      continue;
    }
    const ItemRange range =
        WorkerItemRange(config_, config_.shard.index, processes, worker);
    if (WIFSIGNALED(wait_status)) {
      const int sig = WTERMSIG(wait_status);
      failures += "shard worker " + std::to_string(worker) + " (calls " +
                  RangeText(range) + ") killed by signal " +
                  std::to_string(sig) + " (" + strsignal(sig) + "); ";
    } else if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
      failures += "shard worker " + std::to_string(worker) + " (calls " +
                  RangeText(range) + ") exited with status " +
                  std::to_string(WIFEXITED(wait_status)
                                     ? WEXITSTATUS(wait_status)
                                     : -1) +
                  " (see its stderr above); ";
    }
  }
  if (!failures.empty()) {
    failures += "spill checkpoints are intact — rerun with --resume to "
                "continue from the last completed call ranges";
    return Fail(std::move(failures));
  }

  // Aggregate progress from the manifests the children committed.
  ShardRunStatus status;
  status.ok = true;
  status.items_resumed = items_resumed;
  for (int worker = 0; worker < processes; ++worker) {
    const SpillPaths paths =
        WorkerSpillPaths(config_.spill_dir, config_.shard, worker);
    bool parse_failed = false;
    std::string error;
    const auto manifest =
        LoadCheckpointManifest(paths.manifest, &parse_failed, &error);
    if (!manifest.has_value()) {
      return Fail("shard runner: worker " + std::to_string(worker) +
                  " exited cleanly but left no readable manifest" +
                  (parse_failed ? (": " + error) : ""));
    }
    status.items_done += manifest->completed - manifest->range_begin;
    status.peak_worker_rss_kb =
        std::max(status.peak_worker_rss_kb, manifest->peak_rss_kb);
  }
  return status;
#else
  return Fail("shard runner: multi-process mode requires a POSIX platform "
              "(use --processes 1)");
#endif
}

MergeStatus MergeShardSpills(const ShardRunnerConfig& config,
                             const MergeConsumer& consumer) {
  MergeStatus status;
  auto fail = [&status](std::string message) -> MergeStatus& {
    status.ok = false;
    status.complete = false;
    status.error = std::move(message);
    return status;
  };
  auto pending = [&status](std::string message) -> MergeStatus& {
    status.ok = true;
    status.complete = false;
    status.error = std::move(message);
    return status;
  };

  std::uint64_t expected_index = 0;
  for (int shard = 0; shard < config.shard.count; ++shard) {
    const ShardSpec spec{shard, config.shard.count};
    // Worker 0's manifest tells us how many processes ran this shard — a
    // cluster may size each shard invocation differently.
    const SpillPaths first = WorkerSpillPaths(config.spill_dir, spec, 0);
    bool parse_failed = false;
    std::string error;
    const auto lead =
        LoadCheckpointManifest(first.manifest, &parse_failed, &error);
    if (!lead.has_value()) {
      if (parse_failed) return fail(error);
      return pending("shard " + std::to_string(shard) + "/" +
                     std::to_string(config.shard.count) +
                     " has no checkpoint yet — merge pending");
    }
    const int processes = std::max(lead->processes, 1);

    for (int worker = 0; worker < processes; ++worker) {
      const SpillPaths paths = WorkerSpillPaths(config.spill_dir, spec, worker);
      const auto manifest =
          LoadCheckpointManifest(paths.manifest, &parse_failed, &error);
      if (!manifest.has_value()) {
        if (parse_failed) return fail(error);
        return pending("shard " + std::to_string(shard) + " worker " +
                       std::to_string(worker) +
                       " has no checkpoint yet — merge pending");
      }
      if (manifest->fingerprint != config.fingerprint) {
        return fail("merge: shard " + std::to_string(shard) + " worker " +
                    std::to_string(worker) +
                    " fingerprint mismatch — the spill dir holds a "
                    "different sweep's checkpoints");
      }
      const ItemRange range = [&] {
        ShardRunnerConfig scoped = config;
        scoped.shard = spec;
        return WorkerItemRange(scoped, shard, processes, worker);
      }();
      if (manifest->range_begin != range.begin ||
          manifest->range_end != range.end ||
          manifest->processes != processes ||
          manifest->shard_count != config.shard.count) {
        return fail("merge: shard " + std::to_string(shard) + " worker " +
                    std::to_string(worker) +
                    " manifest range disagrees with the sweep topology");
      }
      if (!manifest->done()) {
        return pending("shard " + std::to_string(shard) + " worker " +
                       std::to_string(worker) + " is at call " +
                       std::to_string(manifest->completed) + " of " +
                       RangeText(range) + " — merge pending");
      }

      if (manifest->range_begin != expected_index) {
        return fail("merge: shard " + std::to_string(shard) + " worker " +
                    std::to_string(worker) + " starts at " +
                    std::to_string(manifest->range_begin) + ", expected " +
                    std::to_string(expected_index));
      }

      // Results: stream, validate the index sequence, hand lines over.
      if (!ForEachSpillLine(
              paths.results, manifest->results_bytes,
              [&](std::string_view line) {
                if (!CheckResultLine(line, expected_index)) return false;
                if (consumer.on_result_line) {
                  consumer.on_result_line(expected_index, line);
                }
                ++expected_index;
                return true;
              },
              &error)) {
        return fail(error.empty()
                        ? ("merge: " + paths.results +
                           " holds a corrupt or out-of-sequence line near "
                           "call " + std::to_string(expected_index))
                        : error);
      }
      if (expected_index != range.end) {
        return fail("merge: " + paths.results + " holds " +
                    std::to_string(expected_index - range.begin) +
                    " calls, manifest promises " +
                    std::to_string(range.size()));
      }

      // Metrics: parse-merge each serialized chunk registry line.
      if (consumer.metrics != nullptr && manifest->metrics_bytes > 0) {
        if (!ForEachSpillLine(
                paths.metrics, manifest->metrics_bytes,
                [&](std::string_view line) {
                  // Lines keep their '\n'; the codec takes the bare line.
                  return obs::MergeSerializedRegistryLine(
                      line.substr(0, line.size() - 1), consumer.metrics,
                      &error);
                },
                &error)) {
          return fail("merge: " + paths.metrics + ": " + error);
        }
      }

      // Timeline: pure ordered concatenation (per-call lines are already
      // "call":N-stamped and internally (t)-ordered, so worker-major order
      // equals the (t, shard) stream-merge rule applied per call).
      if (consumer.on_timeline && manifest->timeline_bytes > 0) {
        if (!ForEachSpillChunk(paths.timeline, manifest->timeline_bytes,
                               consumer.on_timeline, &error)) {
          return fail("merge: " + paths.timeline + ": " + error);
        }
      }

      status.peak_worker_rss_kb =
          std::max(status.peak_worker_rss_kb, manifest->peak_rss_kb);
    }
  }
  if (expected_index != config.total_items) {
    return fail("merge: shards cover " + std::to_string(expected_index) +
                " calls, sweep declares " +
                std::to_string(config.total_items));
  }
  status.ok = true;
  status.complete = true;
  status.items = expected_index;
  return status;
}

}  // namespace kwikr::fleet
