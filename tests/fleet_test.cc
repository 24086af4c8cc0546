#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fleet/fleet_metrics.h"
#include "fleet/fleet_runner.h"
#include "fleet/thread_pool.h"
#include "scenario/wild_population.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/summary.h"

namespace kwikr::fleet {
namespace {

// ----------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, StartsAndStopsWithoutTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
}

TEST(ThreadPool, ExecutesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

// ------------------------------------------------------------- RunFleet ----

TEST(RunFleet, ResultsAreOrderedByTaskIndex) {
  const auto report =
      RunFleet(64, 8, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.results.size(), 64u);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i], static_cast<int>(i) * 3);
  }
}

TEST(RunFleet, SerialAndParallelProduceIdenticalResults) {
  auto task = [](std::size_t i) {
    sim::Rng rng = sim::Rng(7).Fork(i);
    return rng.UniformDouble() + rng.Exponential(2.0);
  };
  const auto serial = RunFleet(40, 1, task);
  const auto parallel = RunFleet(40, 8, task);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.results[i], parallel.results[i]);
  }
}

TEST(RunFleet, ExceptionIsIsolatedToItsTask) {
  const auto report = RunFleet(10, 4, [](std::size_t i) -> int {
    if (i == 3) throw std::runtime_error("env 3 exploded");
    return static_cast<int>(i) + 1;
  });
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 3u);
  EXPECT_EQ(report.failures[0].error, "env 3 exploded");
  EXPECT_FALSE(report.ok());
  // Every other task still completed; the failed slot holds the default.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(report.results[i], i == 3 ? 0 : static_cast<int>(i) + 1);
  }
}

TEST(RunFleet, FailuresAreSortedByIndexForAnyWorkerCount) {
  const auto report = RunFleet(20, 8, [](std::size_t i) -> int {
    if (i % 3 == 0) throw std::runtime_error("boom");
    return 1;
  });
  ASSERT_EQ(report.failures.size(), 7u);
  for (std::size_t f = 1; f < report.failures.size(); ++f) {
    EXPECT_LT(report.failures[f - 1].index, report.failures[f].index);
  }
}

TEST(RunFleet, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_GE(ResolveJobs(0), 1);
  const auto report =
      RunFleet(8, 0, [](std::size_t i) { return static_cast<int>(i); });
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.results.back(), 7);
}

// --------------------------------------------------------- FleetMetrics ----

TEST(FleetMetrics, ConcurrentMergesMatchSerialReduction) {
  FleetMetrics metrics;
  constexpr int kTasks = 32;
  RunFleet(kTasks, 8, [&metrics](std::size_t i) -> int {
    sim::Rng rng = sim::Rng(11).Fork(i);
    stats::RunningSummary local;
    stats::Histogram histogram({0.0, 100.0, 64});
    for (int n = 0; n < 50; ++n) {
      const double sample = rng.Uniform(0.0, 100.0);
      local.Add(sample);
      histogram.Add(sample);
    }
    metrics.MergeSummary("uniform", local);
    metrics.MergeHistogram("uniform", histogram);
    return 0;
  });

  // Serial reference over the same forked streams.
  stats::RunningSummary expected;
  for (int i = 0; i < kTasks; ++i) {
    sim::Rng rng = sim::Rng(11).Fork(i);
    for (int n = 0; n < 50; ++n) expected.Add(rng.Uniform(0.0, 100.0));
  }
  const stats::RunningSummary merged = metrics.Summary("uniform");
  EXPECT_EQ(merged.count(), expected.count());
  EXPECT_NEAR(merged.mean(), expected.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), expected.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), expected.min());
  EXPECT_DOUBLE_EQ(merged.max(), expected.max());
  EXPECT_EQ(metrics.HistogramSketch("uniform").count(), expected.count());
}

TEST(FleetMetrics, UnknownKeyReturnsEmptyReducers) {
  FleetMetrics metrics;
  EXPECT_EQ(metrics.Summary("missing").count(), 0);
  EXPECT_EQ(metrics.Confusion("missing").total(), 0);
  EXPECT_EQ(metrics.HistogramSketch("missing").count(), 0);
}

// ------------------------------------------------------------ Histogram ----

TEST(Histogram, MergedShardsEqualSingleHistogram) {
  sim::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.Normal(50.0, 15.0));

  stats::Histogram whole({0.0, 100.0, 200});
  stats::Histogram merged({0.0, 100.0, 200});
  for (int shard = 0; shard < 4; ++shard) {
    stats::Histogram part({0.0, 100.0, 200});
    for (int i = shard; i < 4000; i += 4) part.Add(samples[i]);
    merged.Merge(part);
  }
  for (const double s : samples) whole.Add(s);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.counts(), whole.counts());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (const double p : {5.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), whole.Percentile(p));
  }
}

TEST(Histogram, PercentileTracksExactWithinBinWidth) {
  sim::Rng rng(9);
  std::vector<double> samples;
  stats::Histogram histogram({0.0, 200.0, 400});  // bin width 0.5.
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(rng.Uniform(0.0, 200.0));
    histogram.Add(samples.back());
  }
  for (const double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0}) {
    EXPECT_NEAR(histogram.Percentile(p), stats::Percentile(samples, p), 0.5)
        << "p=" << p;
  }
}

// ----------------------------------------------- population determinism ----

TEST(FleetDeterminism, WildPopulationIsIdenticalAcrossWorkerCounts) {
  scenario::WildConfig config;
  config.calls = 8;
  config.base_seed = 321;
  config.call_duration = sim::Seconds(15);

  config.jobs = 1;
  const scenario::WildResults serial = scenario::RunWildPopulation(config);
  config.jobs = 8;
  const scenario::WildResults parallel = scenario::RunWildPopulation(config);

  ASSERT_EQ(serial.calls.size(), 8u);
  ASSERT_EQ(parallel.calls.size(), 8u);
  for (std::size_t i = 0; i < serial.calls.size(); ++i) {
    const auto& a = serial.calls[i];
    const auto& b = parallel.calls[i];
    EXPECT_DOUBLE_EQ(a.p95_tq_ms, b.p95_tq_ms);
    EXPECT_DOUBLE_EQ(a.p95_ta_ms, b.p95_ta_ms);
    EXPECT_DOUBLE_EQ(a.p95_tc_ms, b.p95_tc_ms);
    EXPECT_EQ(a.probe_samples, b.probe_samples);
    EXPECT_DOUBLE_EQ(a.baseline_rate_kbps, b.baseline_rate_kbps);
    EXPECT_DOUBLE_EQ(a.kwikr_rate_kbps, b.kwikr_rate_kbps);
    EXPECT_DOUBLE_EQ(a.baseline_loss_pct, b.baseline_loss_pct);
    EXPECT_DOUBLE_EQ(a.kwikr_loss_pct, b.kwikr_loss_pct);
    EXPECT_DOUBLE_EQ(a.baseline_rtt_p50_ms, b.baseline_rtt_p50_ms);
    EXPECT_DOUBLE_EQ(a.kwikr_rtt_p50_ms, b.kwikr_rtt_p50_ms);
    EXPECT_EQ(a.wmm_enabled, b.wmm_enabled);
    EXPECT_EQ(a.cross_stations, b.cross_stations);
  }
}

}  // namespace
}  // namespace kwikr::fleet
