#include "measure.h"

#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "fleet/shard_runner.h"
#include "fleet/spill.h"
#include "obs/metrics.h"
#include "obs/registry_io.h"
#include "obs/span.h"

#include "calibration.h"

namespace perfbench {
namespace {

namespace fleet = kwikr::fleet;
namespace obs = kwikr::obs;
using Clock = std::chrono::steady_clock;
using Config = scenario::ExperimentConfig;

constexpr MetricSpec kEndToEnd[] = {
    {"sim_speed", "call-s/s", false},
    {"peak_rss_kb", "kB", false},
    {"setup_s", "s", false},
    {"completed_frac", "fraction", false},
};

/// The sim::EventLoop event types reported one by one (sim_events_total).
constexpr const char* kEventTags[] = {
    "wifi.arbitration", "wifi.tx_done",   "wifi.deliver",
    "wifi.txop_burst",  "wifi.qdisc_refill", "net.wire_tx",
    "net.wire_prop",    "tcp.rto",        "probe.timeout",
    "timer",            "event",
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count", true},
    {"sim.events_per_call_s", "1/s", true},
    {"sim.events.wifi.arbitration", "count", true},
    {"sim.events.wifi.tx_done", "count", true},
    {"sim.events.wifi.deliver", "count", true},
    {"sim.events.wifi.txop_burst", "count", true},
    {"sim.events.wifi.qdisc_refill", "count", true},
    {"sim.events.net.wire_tx", "count", true},
    {"sim.events.net.wire_prop", "count", true},
    {"sim.events.tcp.rto", "count", true},
    {"sim.events.probe.timeout", "count", true},
    {"sim.events.timer", "count", true},
    {"sim.events.event", "count", true},
    {"sim.ns_per_event", "ns", false},
    {"alloc.per_event", "allocs/event", true},
    {"wifi.dispatches_per_frame", "events/frame", true},
    {"wifi.collisions_per_tx", "ratio", true},
    {"wifi.busy_fraction", "fraction", true},
    {"ap.queue_drops", "count", true},
    {"net.events_per_frame", "events/frame", true},
    {"tcp.segments_acked", "count", true},
    {"tcp.retx_ratio", "ratio", true},
    {"tcp.timeouts", "count", true},
    {"qdisc.drop_ratio", "ratio", true},
    {"rtc.estimator_updates", "count", true},
    {"probe.rounds", "count", true},
    {"probe.valid_ratio", "ratio", true},
    {"obs.timeline_bytes", "bytes", true},
    {"obs.collect_ms_per_call", "ms", false},
    {"scenario.setup_ms_per_call", "ms", false},
    {"fleet.chunk_s", "s", false},
    {"fleet.overhead_s", "s", false},
    {"fleet.merge_s", "s", false},
    {"fleet.spill_bytes", "bytes", true},
    {"fleet.worker_imbalance", "ratio", false},
    {"trace_overhead_frac", "fraction", false},
};

/// Set-up repetitions before each pass; setup_s is Quickest() of all.
constexpr int kSetupRepsPerPass = 3;
/// Fig. 10's per-call measurability floor (Ping-Pair samples).
constexpr int kSampleFloor = 10;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Other tenants of a shared host only ever slow a pass down, and they do
/// so for seconds at a time: on a 4-core VM the median pass of ten 10 s
/// congested_cell runs ranged over 447-784 call-s/s, while their upper
/// deciles had an IQR of 11% of their median. Speeds are therefore the upper
/// decile of their passes and host times the lower decile of their samples:
/// still a quantile backed by many samples, but one that tracks the
/// unloaded host rather than the neighbours.
double Fastest(std::vector<double> speeds) {
  return Quantile(std::move(speeds), 0.9);
}
double Quickest(std::vector<double> times) {
  return Quantile(std::move(times), 0.1);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// VmHWM of this process, kB.
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

/// Counts `calls` failed calls and records `why` once.
void Fail(RunResult* r, const std::string& why, std::uint64_t calls = 1) {
  r->failed += calls;
  if (std::find(r->problems.begin(), r->problems.end(), why) ==
      r->problems.end()) {
    r->problems.push_back(why);
  }
}

/// Host-time sums of one pass. Lives in shared memory for wild_sweep so
/// forked shard workers can add to it.
struct CallTimes {
  std::atomic<std::uint64_t> call_wall_ns{0};  ///< full RunCallExperiment.
  std::atomic<std::uint64_t> span_ns{0};       ///< its call_experiment span.
  std::atomic<std::uint64_t> setup_ns{0};      ///< zero-duration twin runs.
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process counters need lock-free atomics");

constexpr int kMaxWorkers = 8;
struct WorkerSlot {
  std::atomic<std::uint64_t> chunk_ns{0};
  std::atomic<std::uint64_t> first_chunk_at_ns{0};
  std::atomic<std::uint64_t> last_chunk_end_ns{0};
};

struct SharedState {
  CallTimes times;
  std::atomic<std::uint64_t> pass{0};
  std::atomic<int> next_slot{0};
  WorkerSlot slots[kMaxWorkers];

  void Reset(std::uint64_t new_pass) {
    times.call_wall_ns = 0;
    times.span_ns = 0;
    times.setup_ns = 0;
    next_slot = 0;
    for (WorkerSlot& s : slots) {
      s.chunk_ns = 0;
      s.first_chunk_at_ns = 0;
      s.last_chunk_end_ns = 0;
    }
    pass = new_pass;
  }
};

/// Anonymous shared mapping holding a SharedState across fork().
class SharedMapping {
 public:
  SharedMapping() {
    void* p = ::mmap(nullptr, sizeof(SharedState), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of shared stats failed");
    state_ = new (p) SharedState();
  }
  ~SharedMapping() {
    state_->~SharedState();
    ::munmap(state_, sizeof(SharedState));
  }
  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;

  SharedState* get() const { return state_; }

 private:
  SharedState* state_ = nullptr;
};

/// This process's slot for the current pass (claimed on first use; a fresh
/// worker process, or a new pass, claims a new one).
WorkerSlot& ClaimSlot(SharedState* shared) {
  static long claimed_pid = 0;
  static std::uint64_t claimed_pass = 0;
  static WorkerSlot* slot = nullptr;
  const long pid = static_cast<long>(::getpid());
  const std::uint64_t pass = shared->pass.load();
  if (slot == nullptr || claimed_pid != pid || claimed_pass != pass) {
    const int index = std::min(shared->next_slot.fetch_add(1), kMaxWorkers - 1);
    slot = &shared->slots[index];
    claimed_pid = pid;
    claimed_pass = pass;
  }
  return *slot;
}

/// Rotates the process over the CPUs it may use, one set per round. A
/// neighbour loading the hardware behind one virtual CPU slows that CPU for
/// seconds (four pinned copies of one pass took 0.14-0.25 s, each CPU
/// slow at different times); rotating lets a run sample every CPU instead
/// of sitting on whichever one the scheduler kept it on. Forked shard
/// workers inherit the set. The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to `count` consecutive allowed CPUs starting at `round`.
  void Pin(std::uint64_t round, int count) {
    if (cpus_.size() <= static_cast<std::size_t>(count)) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < count; ++i) {
      CPU_SET(cpus_[(round + static_cast<std::uint64_t>(i)) % cpus_.size()],
              &set);
    }
    ::sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Receives the call_experiment run span (wall time of RunUntil).
class RunSpanSink final : public obs::TraceSink {
 public:
  void OnSpan(const char* name, const char* /*category*/, sim::Time /*begin*/,
              sim::Duration /*duration*/, double wall_us,
              const obs::SpanArgs& /*args*/) override {
    if (std::string_view(name) == "call_experiment") wall_us_ += wall_us;
  }
  void OnInstant(const char*, const char*, sim::Time,
                 const obs::SpanArgs&) override {}
  void OnCounter(const char*, const char*, sim::Time,
                 const obs::SpanArgs&) override {}

  [[nodiscard]] double wall_us() const { return wall_us_; }

 private:
  double wall_us_ = 0.0;
};

std::uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

scenario::ExperimentMetrics RunPlainCall(const Config& config,
                                         CallTimes* times) {
  const auto start = Clock::now();
  scenario::ExperimentMetrics m = scenario::RunCallExperiment(config);
  times->call_wall_ns += ElapsedNs(start);
  return m;
}

/// One traced call: a zero-duration twin of the config times set-up (and
/// counts its allocations), then the full run with profile_loop, a metrics
/// registry and the run-span sink. Both runs record into fresh registries,
/// so their series-creation allocations match; the full run's registry is
/// merged into `pass_registry` afterwards, outside the timed window.
scenario::ExperimentMetrics RunTracedCall(Config config,
                                          obs::MetricsRegistry* pass_registry,
                                          CallTimes* times) {
  config.profile_loop = true;
  // Counter-track sampling would add events and allocations; push its
  // first tick past the end of the call so the sink sees only the spans.
  config.trace_sample_interval = config.duration + sim::Seconds(1);
  std::uint64_t setup_allocs = 0;
  {
    Config setup = config;
    setup.duration = 0;
    obs::MetricsRegistry throwaway;
    RunSpanSink sink;
    obs::Tracer tracer;
    tracer.SetSink(&sink);
    setup.metrics = &throwaway;
    setup.tracer = &tracer;
    const std::uint64_t allocs = AllocationCount();
    const auto start = Clock::now();
    scenario::RunCallExperiment(setup);
    times->setup_ns += ElapsedNs(start);
    setup_allocs = AllocationCount() - allocs;
  }
  obs::MetricsRegistry registry;
  RunSpanSink sink;
  obs::Tracer tracer;
  tracer.SetSink(&sink);
  config.metrics = &registry;
  config.tracer = &tracer;
  const std::uint64_t allocs = AllocationCount();
  const auto start = Clock::now();
  scenario::ExperimentMetrics m = scenario::RunCallExperiment(config);
  times->call_wall_ns += ElapsedNs(start);
  const std::uint64_t run_allocs = AllocationCount() - allocs;
  times->span_ns += static_cast<std::uint64_t>(std::llround(sink.wall_us() * 1e3));

  pass_registry->Merge(registry);
  pass_registry->GetCounter("perfbench_run_allocs_total").Add(run_allocs);
  pass_registry->GetCounter("perfbench_setup_allocs_total").Add(setup_allocs);
  pass_registry->GetCounter("perfbench_busy_ppm_total")
      .Add(static_cast<std::uint64_t>(
          std::llround(m.channel_busy_fraction * 1e6)));
  pass_registry->GetCounter("perfbench_timeline_bytes_total")
      .Add(m.timeline_jsonl.size());
  return m;
}

/// Per-layer metrics of one traced pass, from its merged registry and the
/// pass's host-time sums. `call_s` is one experiment's simulated length.
std::map<std::string, double> LayerMetrics(const obs::MetricsRegistry& registry,
                                           double call_s,
                                           const CallTimes& times) {
  std::map<std::string, double> sum;
  std::map<std::string, double> events;
  for (const auto& row : registry.Snapshot()) {
    if (row.kind != obs::MetricsRegistry::Row::Kind::kCounter) continue;
    const auto value = static_cast<double>(row.counter_value);
    sum[row.name] += value;
    if (row.name == "sim_events_total") {
      for (const auto& [key, label] : row.labels) {
        if (key == "type") events[label] += value;
      }
    }
  }
  double total_events = 0.0;
  double wifi_events = 0.0;
  for (const auto& [tag, n] : events) {
    total_events += n;
    if (tag.rfind("wifi.", 0) == 0) wifi_events += n;
  }
  const double experiments = sum["experiments_total"];
  const double delivered = sum["ap_delivered_total"];
  const double qdisc_drops =
      sum["qdisc_aqm_drops_total"] + sum["qdisc_overflow_drops_total"];
  const double span_ns = static_cast<double>(times.span_ns.load());
  const double setup_ns = static_cast<double>(times.setup_ns.load());
  const double wall_ns = static_cast<double>(times.call_wall_ns.load());

  std::map<std::string, double> m;
  m["sim.events"] = total_events;
  m["sim.events_per_call_s"] = Ratio(total_events, experiments * call_s);
  for (const char* tag : kEventTags) {
    m[std::string("sim.events.") + tag] = events[tag];
  }
  m["sim.ns_per_event"] = Ratio(span_ns, total_events);
  m["alloc.per_event"] =
      Ratio(sum["perfbench_run_allocs_total"] -
                sum["perfbench_setup_allocs_total"],
            total_events);
  m["wifi.dispatches_per_frame"] = Ratio(wifi_events, delivered);
  m["wifi.collisions_per_tx"] =
      Ratio(sum["wifi_collisions_total"],
            events["wifi.tx_done"] + events["wifi.txop_burst"]);
  m["wifi.busy_fraction"] =
      Ratio(sum["perfbench_busy_ppm_total"] / 1e6, experiments);
  m["ap.queue_drops"] = sum["ap_queue_drops_total"];
  m["net.events_per_frame"] =
      Ratio(events["net.wire_tx"] + events["net.wire_prop"], delivered);
  m["tcp.segments_acked"] = sum["tcp_segments_acked_total"];
  m["tcp.retx_ratio"] =
      Ratio(sum["tcp_retransmissions_total"], sum["tcp_segments_acked_total"]);
  m["tcp.timeouts"] = sum["tcp_timeouts_total"];
  m["qdisc.drop_ratio"] =
      Ratio(qdisc_drops, sum["qdisc_forwarded_total"] + qdisc_drops);
  m["rtc.estimator_updates"] = sum["rtc_estimator_updates_total"];
  m["probe.rounds"] = sum["probe_rounds_total"];
  m["probe.valid_ratio"] =
      Ratio(sum["probe_valid_total"], sum["probe_rounds_total"]);
  m["obs.timeline_bytes"] = sum["perfbench_timeline_bytes_total"];
  m["obs.collect_ms_per_call"] =
      Ratio(wall_ns - span_ns - setup_ns, experiments) / 1e6;
  m["scenario.setup_ms_per_call"] = Ratio(setup_ns, experiments) / 1e6;
  return m;
}

/// Per-call reference digests: adopted from the first pass unless an
/// earlier invocation supplied them; every later pass must match.
class DigestBook {
 public:
  DigestBook(std::vector<std::uint64_t> reference, std::size_t calls)
      : digests_(std::move(reference)) {
    if (digests_.size() != calls) digests_.assign(calls, 0);
  }
  [[nodiscard]] bool Seen(std::size_t index) const {
    return digests_.at(index) != 0;
  }
  bool Check(std::size_t index, std::uint64_t digest) {
    std::uint64_t& ref = digests_.at(index);
    if (ref == 0) ref = digest;
    return ref == digest;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& digests() const {
    return digests_;
  }

 private:
  std::vector<std::uint64_t> digests_;
};

/// Combines the passes of one run into the reported per-layer metrics:
/// exact metrics from the first traced pass (and every later pass must
/// repeat them), host times as Quickest().
void SummarizeLayers(const std::vector<std::map<std::string, double>>& passes,
                     RunResult* r) {
  if (passes.empty()) return;
  for (const MetricSpec& spec : kPerLayer) {
    const auto first = passes.front().find(spec.name);
    if (first == passes.front().end()) continue;
    if (spec.exact) {
      r->metrics[spec.name] = first->second;
      for (const auto& pass : passes) {
        const auto it = pass.find(spec.name);
        if (it == pass.end() || it->second != first->second) {
          r->non_repeating.push_back(spec.name);
          break;
        }
      }
    } else {
      std::vector<double> values;
      for (const auto& pass : passes) values.push_back(pass.at(spec.name));
      r->metrics[spec.name] = Quickest(std::move(values));
    }
  }
}

// ------------------------------------------------------------ serial ----

struct SerialPass {
  double wall_s = 0.0;
  std::map<std::string, double> layers;  ///< traced passes only.
  double call_wall_s = 0.0;
};

SerialPass RunSerialPass(const RunOptions& o, const std::vector<Config>& configs,
                         bool traced, DigestBook* book, RunResult* r) {
  ++r->passes;
  obs::MetricsRegistry registry;
  CallTimes times;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ++r->attempted;
    try {
      if (static_cast<int>(i) == o.inject_failure) {
        throw std::runtime_error("injected failure");
      }
      const scenario::ExperimentMetrics m =
          traced ? RunTracedCall(configs[i], &registry, &times)
                 : RunPlainCall(configs[i], &times);
      std::uint64_t digest = Fnv1a(CanonicalCall(m));
      if (static_cast<int>(i) == o.inject_mismatch && book->Seen(i)) {
        digest ^= 1;
      }
      if (!book->Check(i, digest)) {
        Fail(r, "call " + std::to_string(i) +
                    ": outputs differ from the reference digest");
      }
    } catch (const std::exception& e) {
      Fail(r, "call " + std::to_string(i) + " threw: " + e.what());
    }
  }
  SerialPass out;
  out.wall_s = SecondsSince(start);
  out.call_wall_s = static_cast<double>(times.call_wall_ns.load()) / 1e9;
  if (traced) {
    out.layers = LayerMetrics(registry, sim::ToSeconds(o.spec.call_duration),
                              times);
  }
  return out;
}

RunResult RunSerial(const RunOptions& o) {
  RunResult r;
  const std::vector<Config> configs = GenerateConfigs(o.spec, o.seed);
  DigestBook book(o.reference_digests, configs.size());
  const double pass_call_s =
      sim::ToSeconds(o.spec.call_duration) * static_cast<double>(configs.size());

  std::vector<double> speeds;
  std::vector<double> overheads;
  std::vector<std::map<std::string, double>> traced_layers;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(o.seconds);
  std::vector<double> setup_samples;
  std::vector<double> calibration;
  CpuRotation rotation;
  std::uint64_t round = 0;
  do {
    rotation.Pin(round++, 1);
    calibration.push_back(CalibrationSample());
    if (!o.trace) {
      // Set-up: config generation from the seed plus the first Testbed
      // build (a zero-duration run of the first call).
      for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
        const auto start = Clock::now();
        std::vector<Config> fresh = GenerateConfigs(o.spec, o.seed);
        fresh.front().duration = 0;
        scenario::RunCallExperiment(fresh.front());
        setup_samples.push_back(SecondsSince(start));
      }
      speeds.push_back(pass_call_s /
                       RunSerialPass(o, configs, false, &book, &r).wall_s);
      continue;
    }
    // An untraced and a traced pass, alternating which goes first.
    const bool traced_first = traced_layers.size() % 2 == 1;
    SerialPass plain;
    SerialPass traced;
    if (traced_first) traced = RunSerialPass(o, configs, true, &book, &r);
    plain = RunSerialPass(o, configs, false, &book, &r);
    if (!traced_first) traced = RunSerialPass(o, configs, true, &book, &r);
    overheads.push_back(Ratio(traced.call_wall_s, plain.call_wall_s) - 1.0);
    traced_layers.push_back(std::move(traced.layers));
  } while (Clock::now() < deadline);
  r.digests = book.digests();
  r.calibration_s = Quickest(calibration);

  if (!o.trace) {
    r.metrics["sim_speed"] = Fastest(speeds);
    r.metrics["peak_rss_kb"] = static_cast<double>(PeakRssKb());
    r.metrics["setup_s"] = Quickest(setup_samples);
  } else {
    SummarizeLayers(traced_layers, &r);
    r.metrics["trace_overhead_frac"] = Median(overheads);
  }
  return r;
}

// -------------------------------------------------------- wild_sweep ----

struct WildPass {
  bool ok = false;
  double wall_s = 0.0;
  double to_first_chunk_s = 0.0;
  double merge_s = 0.0;
  double chunk_s = 0.0;
  double overhead_s = 0.0;
  double imbalance = 0.0;
  double call_wall_s = 0.0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_rss_kb = 0;
  std::map<std::string, double> layers;  ///< traced passes only.
};

/// One chunk of environments in a shard worker: both arms of each, encoded
/// as the canonical spill line.
fleet::ChunkOutput RunWildChunk(const RunOptions& o,
                                const std::vector<Config>& configs,
                                bool traced, SharedState* shared,
                                std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t chunk_start = NowNs();
  WorkerSlot& slot = ClaimSlot(shared);
  std::uint64_t unset = 0;
  slot.first_chunk_at_ns.compare_exchange_strong(unset, chunk_start);
  fleet::ChunkOutput out;
  obs::MetricsRegistry registry;
  for (std::uint64_t i = begin; i < end; ++i) {
    if (static_cast<int>(i) == o.inject_failure) {
      throw std::runtime_error("injected failure");
    }
    Config baseline = configs.at(i);
    baseline.calls.at(0).kwikr = false;
    Config kwikr = configs.at(i);
    kwikr.calls.at(0).kwikr = true;
    const scenario::ExperimentMetrics b =
        traced ? RunTracedCall(baseline, &registry, &shared->times)
               : RunPlainCall(baseline, &shared->times);
    const scenario::ExperimentMetrics k =
        traced ? RunTracedCall(kwikr, &registry, &shared->times)
               : RunPlainCall(kwikr, &shared->times);
    out.results_jsonl +=
        scenario::EncodeWildCallLine(i, PairArms(configs.at(i), b, k));
  }
  if (traced) out.metrics_jsonl = obs::SerializeRegistry(registry);
  const std::uint64_t chunk_end = NowNs();
  slot.chunk_ns += chunk_end - chunk_start;
  slot.last_chunk_end_ns = chunk_end;
  return out;
}

WildPass RunWildSweep(const RunOptions& o, int slice, bool traced,
                      SharedState* shared, DigestBook* book, RunResult* r) {
  const std::uint64_t pass = r->passes++;
  WildPass s;
  shared->Reset(pass + 1);
  const auto start = Clock::now();
  const std::uint64_t start_ns = NowNs();
  const std::vector<Config> configs = GenerateConfigs(o.spec, o.seed, slice);
  const std::uint64_t calls = configs.size();
  r->attempted += calls;

  fleet::ShardRunnerConfig config;
  config.total_items = calls;
  config.processes = kWildProcesses;
  config.spill_dir = o.work_dir + "/spill";
  config.checkpoint_every = o.spec.checkpoint_every;
  config.fingerprint = std::string("perfbench;") + o.spec.name +
                       ";seed=" + std::to_string(o.seed) +
                       ";slice=" + std::to_string(slice) +
                       ";calls=" + std::to_string(calls) +
                       ";traced=" + (traced ? "1" : "0");
  std::error_code ec;
  std::filesystem::remove_all(config.spill_dir, ec);
  std::filesystem::create_directories(config.spill_dir, ec);
  if (ec) {
    Fail(r, "cannot create spill dir " + config.spill_dir, calls);
    return s;
  }

  fleet::ShardRunner runner(config, [&](std::uint64_t begin, std::uint64_t end) {
    return RunWildChunk(o, configs, traced, shared, begin, end);
  });
  const std::uint64_t fork_ns = NowNs();
  const fleet::ShardRunStatus run = runner.Run();

  const auto merge_start = Clock::now();
  obs::MetricsRegistry registry;
  std::uint64_t next_index = 0;
  fleet::MergeConsumer consumer;
  consumer.on_result_line = [&](std::uint64_t index, std::string_view line) {
    const std::uint64_t global =
        static_cast<std::uint64_t>(slice) * calls + index;
    const std::string name = "environment " + std::to_string(global);
    if (index != next_index) {
      Fail(r, "merged index sequence skips " + name,
           index > next_index ? index - next_index : 1);
    }
    next_index = index + 1;
    scenario::WildCallResult call;
    std::uint64_t decoded = 0;
    if (!scenario::DecodeWildCallLine(line, &decoded, &call) ||
        decoded != index ||
        scenario::EncodeWildCallLine(decoded, call) != line) {
      Fail(r, name + ": spill line does not decode");
      return;
    }
    if (pass == 0 && call.probe_samples < kSampleFloor) {
      ++r->calls_below_floor;
    }
    std::uint64_t digest = Fnv1a(line);
    if (static_cast<int>(global) == o.inject_mismatch && book->Seen(global)) {
      digest ^= 1;
    }
    if (!book->Check(global, digest)) {
      Fail(r, name + ": outputs differ from the reference digest");
    }
  };
  if (traced) consumer.metrics = &registry;
  fleet::MergeStatus merge;
  if (run.ok) merge = fleet::MergeShardSpills(config, consumer);
  s.merge_s = SecondsSince(merge_start);
  s.wall_s = SecondsSince(start);

  if (!run.ok || !merge.ok || !merge.complete) {
    const std::string why = !run.ok ? run.error : merge.error;
    Fail(r, "sweep failed: " + why, calls);
    return s;
  }
  if (next_index < calls) {
    Fail(r, "merged results stop before call " + std::to_string(next_index),
         calls - next_index);
  }

  s.ok = true;
  s.peak_rss_kb = std::max(run.peak_worker_rss_kb, merge.peak_worker_rss_kb);
  std::uint64_t first_chunk = ~0ull;
  std::vector<double> worker_walls;
  for (int w = 0; w < std::min(shared->next_slot.load(), kMaxWorkers); ++w) {
    const WorkerSlot& slot = shared->slots[w];
    first_chunk = std::min(first_chunk, slot.first_chunk_at_ns.load());
    const double wall =
        static_cast<double>(slot.last_chunk_end_ns.load() - fork_ns) / 1e9;
    worker_walls.push_back(wall);
    s.chunk_s += static_cast<double>(slot.chunk_ns.load()) / 1e9;
    s.overhead_s += wall - static_cast<double>(slot.chunk_ns.load()) / 1e9;
  }
  if (first_chunk != ~0ull && first_chunk > start_ns) {
    s.to_first_chunk_s = static_cast<double>(first_chunk - start_ns) / 1e9;
  }
  if (!worker_walls.empty()) {
    double total = 0.0;
    for (const double w : worker_walls) total += w;
    s.imbalance = Ratio(*std::max_element(worker_walls.begin(),
                                          worker_walls.end()),
                        total / static_cast<double>(worker_walls.size()));
  }
  for (int w = 0; w < kWildProcesses; ++w) {
    const fleet::SpillPaths paths =
        fleet::WorkerSpillPaths(config.spill_dir, config.shard, w);
    for (const std::string* path :
         {&paths.results, &paths.metrics, &paths.timeline}) {
      s.spill_bytes += fleet::SpillFileSize(*path).value_or(0);
    }
  }
  s.call_wall_s = static_cast<double>(shared->times.call_wall_ns.load()) / 1e9;
  if (traced) {
    s.layers = LayerMetrics(registry, sim::ToSeconds(o.spec.call_duration),
                            shared->times);
  }
  return s;
}

RunResult RunWild(const RunOptions& o) {
  RunResult r;
  SharedMapping shared;
  // setup_s = the time from sweep start (config generation, spill-dir and
  // worker set-up) to the first chunk, plus the first Testbed build, timed
  // as a zero-duration run of the first environment before each sweep.
  std::vector<double> build_samples;
  Config first_build = GenerateConfigs(o.spec, o.seed).front();
  first_build.duration = 0;
  DigestBook book(o.reference_digests,
                  static_cast<std::size_t>(o.spec.batch * o.spec.slices));
  const double sweep_call_s = 2.0 * sim::ToSeconds(o.spec.call_duration) *
                              static_cast<double>(o.spec.batch);

  // The untraced sweeps cycle through the slices, so one run samples
  // slices * batch environments of the population; the traced run stays on
  // slice 0, so its counts repeat pass after pass.
  std::vector<std::vector<double>> slice_walls(
      static_cast<std::size_t>(o.spec.slices));
  std::vector<WildPass> plain;
  std::vector<double> overheads;
  std::vector<std::map<std::string, double>> traced_layers;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(o.seconds);
  CpuRotation rotation;
  std::uint64_t round = 0;
  std::vector<double> calibration;
  do {
    const int slice =
        o.trace ? 0 : static_cast<int>(round % slice_walls.size());
    rotation.Pin(round++, kWildProcesses);
    calibration.push_back(CalibrationSample());
    if (!o.trace) {
      for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
        const auto start = Clock::now();
        scenario::RunCallExperiment(first_build);
        build_samples.push_back(SecondsSince(start));
      }
      plain.push_back(
          RunWildSweep(o, slice, false, shared.get(), &book, &r));
      if (plain.back().ok) slice_walls[slice].push_back(plain.back().wall_s);
      continue;
    }
    const bool traced_first = traced_layers.size() % 2 == 1;
    WildPass traced;
    if (traced_first) {
      traced = RunWildSweep(o, slice, true, shared.get(), &book, &r);
    }
    plain.push_back(
        RunWildSweep(o, slice, false, shared.get(), &book, &r));
    if (!traced_first) {
      traced = RunWildSweep(o, slice, true, shared.get(), &book, &r);
    }
    if (traced.ok && plain.back().ok) {
      overheads.push_back(
          Ratio(traced.call_wall_s, plain.back().call_wall_s) - 1.0);
      traced_layers.push_back(std::move(traced.layers));
    }
  } while (Clock::now() < deadline);
  r.digests = book.digests();
  r.calibration_s = Quickest(calibration);
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir + "/spill", ec);

  std::vector<double> to_first_chunk, rss, chunk_s, overhead_s, merge_s,
      imbalance;
  std::vector<std::map<std::string, double>> spill;
  for (const WildPass& p : plain) {
    if (!p.ok) continue;
    to_first_chunk.push_back(p.to_first_chunk_s);
    rss.push_back(static_cast<double>(p.peak_rss_kb));
    chunk_s.push_back(p.chunk_s);
    overhead_s.push_back(p.overhead_s);
    merge_s.push_back(p.merge_s);
    imbalance.push_back(p.imbalance);
    spill.push_back({{"fleet.spill_bytes", static_cast<double>(p.spill_bytes)}});
  }
  if (!o.trace) {
    // Each slice's quickest sweep, combined over the slices measured.
    double call_s = 0.0;
    double wall_s = 0.0;
    for (const std::vector<double>& walls : slice_walls) {
      if (walls.empty()) continue;
      call_s += sweep_call_s;
      wall_s += Quickest(walls);
    }
    r.metrics["sim_speed"] = Ratio(call_s, wall_s);
    r.metrics["peak_rss_kb"] = Median(rss);
    r.metrics["setup_s"] = Quickest(to_first_chunk) + Quickest(build_samples);
  } else {
    SummarizeLayers(traced_layers, &r);
    SummarizeLayers(spill, &r);
    r.metrics["fleet.chunk_s"] = Quickest(chunk_s);
    r.metrics["fleet.overhead_s"] = Quickest(overhead_s);
    r.metrics["fleet.merge_s"] = Quickest(merge_s);
    r.metrics["fleet.worker_imbalance"] = Median(imbalance);
    r.metrics["trace_overhead_frac"] = Median(overheads);
  }
  return r;
}

}  // namespace

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }

RunResult RunWorkload(const RunOptions& options) {
  RunResult r = options.spec.workload == Workload::kWildSweep
                    ? RunWild(options)
                    : RunSerial(options);
  if (!options.trace && r.calibration_s > 0.0) {
    const double to_reference = kCalibrationReferenceS / r.calibration_s;
    r.metrics["sim_speed"] /= to_reference;
    r.metrics["setup_s"] *= to_reference;
  }
  r.metrics["completed_frac"] =
      r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 0.0;
  return r;
}

}  // namespace perfbench
