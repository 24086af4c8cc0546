#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.h"
#include "stats/confusion.h"
#include "stats/distributions.h"
#include "stats/ewma.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/stump.h"
#include "stats/summary.h"
#include "stats/welch.h"

namespace kwikr::stats {
namespace {

// ---------------------------------------------------------------- Ewma ----

TEST(Ewma, FirstSampleInitializes) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.initialized());
  EXPECT_DOUBLE_EQ(ewma.Update(10.0), 10.0);
  EXPECT_TRUE(ewma.initialized());
}

TEST(Ewma, BlendsTowardNewSamples) {
  Ewma ewma(0.5);
  ewma.Update(0.0);
  EXPECT_DOUBLE_EQ(ewma.Update(10.0), 5.0);
  EXPECT_DOUBLE_EQ(ewma.Update(10.0), 7.5);
}

TEST(Ewma, AlphaOneTracksExactly) {
  Ewma ewma(1.0);
  ewma.Update(3.0);
  EXPECT_DOUBLE_EQ(ewma.Update(7.0), 7.0);
}

TEST(Ewma, ResetForgets) {
  Ewma ewma(0.3);
  ewma.Update(42.0);
  ewma.Reset();
  EXPECT_FALSE(ewma.initialized());
  EXPECT_DOUBLE_EQ(ewma.value(), 0.0);
  EXPECT_DOUBLE_EQ(ewma.Update(1.0), 1.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma ewma(0.25);
  for (int i = 0; i < 100; ++i) ewma.Update(5.0);
  EXPECT_NEAR(ewma.value(), 5.0, 1e-9);
}

// ----------------------------------------------------------- Histogram ----

TEST(Histogram, EmptyMatchesPercentileContract) {
  Histogram histogram({0.0, 10.0, 10});
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
}

TEST(Histogram, OutOfRangeSamplesClampToEdgeBinsWithHonestExtremes) {
  Histogram histogram({0.0, 10.0, 10});
  histogram.Add(-5.0);
  histogram.Add(25.0);
  EXPECT_EQ(histogram.count(), 2);
  EXPECT_DOUBLE_EQ(histogram.min(), -5.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 25.0);
  // Quantiles are clamped to the observed extremes, never outside them.
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100.0), 25.0);
}

TEST(Histogram, SingleBinValueIsRecovered) {
  Histogram histogram({0.0, 100.0, 100});
  for (int i = 0; i < 10; ++i) histogram.Add(42.5);
  EXPECT_NEAR(histogram.Percentile(50.0), 42.5, 1.0);  // bin width 1.
}

TEST(Histogram, OrderStatisticPercentileIsWithinOneBinOfPercentile) {
  // fig10's binning. Sparse trials spread a handful of samples with wide
  // gaps over the whole range, where the in-bin closest-rank estimate of
  // Percentile() lands far from the interpolated order statistics; the
  // dense trial piles 10^4 samples into the low bins.
  constexpr Histogram::Config kBinning{0.0, 1000.0, 2048};
  constexpr double kPs[] = {0.0, 1.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0};
  sim::Rng rng(1010);
  auto check = [&](const std::vector<double>& samples) {
    Histogram histogram(kBinning);
    for (double s : samples) histogram.Add(s);
    for (double p : kPs) {
      const double exact = Percentile(samples, p);
      const double got = histogram.OrderStatisticPercentile(p);
      EXPECT_LE(std::abs(got - exact), histogram.BinWidth())
          << "n=" << samples.size() << " p=" << p;
      if (p == 0.0 || p == 100.0) {
        EXPECT_EQ(got, exact) << "p=" << p;
      }
    }
  };
  for (int n = 2; n <= 40; ++n) {
    std::vector<double> samples;
    for (int i = 0; i < n; ++i) samples.push_back(rng.Uniform(0.0, 1000.0));
    check(samples);
  }
  std::vector<double> dense;
  for (int i = 0; i < 10000; ++i) dense.push_back(rng.Exponential(20.0));
  check(dense);

  EXPECT_EQ(Histogram(kBinning).OrderStatisticPercentile(50.0), 0.0);
}

TEST(Histogram, ResetForgets) {
  Histogram histogram({0.0, 10.0, 10});
  histogram.Add(3.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50.0), 0.0);
}

// ---------------------------------------------------------- Percentile ----

TEST(Percentile, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

TEST(Percentile, EmptyInputContractHoldsEverywhere) {
  // Regression for the documented empty-input contract: every percentile
  // entry point returns 0.0 (not NaN, not UB) on empty samples, so callers
  // summarising possibly-empty buckets need no guard of their own.
  for (const double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile({}, p), 0.0);
  }
  const std::vector<double> ps = {25.0, 50.0, 99.0};
  const std::vector<double> out = Percentiles({}, ps);
  ASSERT_EQ(out.size(), 3u);
  for (const double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
  EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.Quantile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v = {7.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 7.0);
}

TEST(Percentile, MedianOfOddCount) {
  const std::vector<double> v = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25.0), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  const std::vector<double> v = {5.0, -1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), -1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 9.0);
}

TEST(Percentile, ClampsOutOfRangeP) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 200.0), 2.0);
}

TEST(Percentile, PercentileMatchesSortedReference) {
  // The single-p overload selects with std::nth_element instead of sorting;
  // golden outputs depend on it staying BIT-identical to the sorted +
  // linear-interpolation reference. Randomized sizes, values (including
  // duplicates and negatives) and percentiles, fixed seed.
  sim::Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(1, 400));
    std::vector<double> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Coarse grid: plenty of exact duplicates to stress tie handling.
      samples.push_back(
          static_cast<double>(rng.UniformInt(-50, 50)) / 4.0);
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (int k = 0; k < 5; ++k) {
      const double p = rng.Uniform(-5.0, 105.0);  // includes the clamp range.
      const double clamped = std::clamp(p, 0.0, 100.0);
      const double rank =
          clamped / 100.0 * static_cast<double>(sorted.size() - 1);
      const auto lo = static_cast<std::size_t>(std::floor(rank));
      const auto hi = static_cast<std::size_t>(std::ceil(rank));
      const double frac = rank - static_cast<double>(lo);
      const double reference =
          sorted[lo] + frac * (sorted[hi] - sorted[lo]);
      const double got = Percentile(samples, p);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got, reference) << "n=" << n << " p=" << p;
    }
  }
}

TEST(Percentiles, MultipleAtOnceMatchSingle) {
  const std::vector<double> v = {4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
  const std::vector<double> ps = {10.0, 50.0, 90.0};
  const auto result = Percentiles(v, ps);
  ASSERT_EQ(result.size(), 3u);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(result[i], Percentile(v, ps[i]));
  }
}

TEST(EmpiricalCdf, AtReturnsFractionBelow) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.At(10.0), 1.0);
}

TEST(EmpiricalCdf, QuantileMatchesPercentile) {
  const std::vector<double> v = {5.0, 1.0, 3.0};
  EmpiricalCdf cdf(v);
  EXPECT_DOUBLE_EQ(cdf.Quantile(50.0), Percentile(v, 50.0));
}

TEST(EmpiricalCdf, CurveEndsAtOne) {
  EmpiricalCdf cdf({1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0});
  const auto curve = cdf.Curve(3);
  ASSERT_FALSE(curve.empty());
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
  // Curve x-values must be non-decreasing.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
  }
}

// ------------------------------------------------------ RunningSummary ----

TEST(RunningSummary, MeanAndVariance) {
  RunningSummary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningSummary, SingleSampleHasZeroVariance) {
  RunningSummary s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderror(), 0.0);
}

TEST(RunningSummary, MergeMatchesSequential) {
  RunningSummary all;
  RunningSummary a;
  RunningSummary b;
  for (int i = 0; i < 10; ++i) {
    const double x = i * 1.7 - 3.0;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningSummary, MergeWithEmptyIsNoop) {
  RunningSummary a;
  a.Add(1.0);
  a.Add(2.0);
  RunningSummary empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
}

TEST(RunningSummary, Ci95ShrinksWithSamples) {
  RunningSummary small;
  RunningSummary large;
  for (int i = 0; i < 10; ++i) small.Add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 1000; ++i) large.Add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

// ------------------------------------------------------- Distributions ----

TEST(Distributions, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(Distributions, StudentTCdfSymmetry) {
  for (double df : {1.0, 5.0, 30.0}) {
    for (double t : {0.5, 1.0, 2.5}) {
      EXPECT_NEAR(StudentTCdf(t, df) + StudentTCdf(-t, df), 1.0, 1e-10);
    }
  }
}

TEST(Distributions, StudentTCdfKnownValues) {
  // t distribution with 10 df: P(T <= 2.228) ~= 0.975 (classic table value).
  EXPECT_NEAR(StudentTCdf(2.228, 10.0), 0.975, 1e-3);
  // With 1 df (Cauchy): P(T <= 1) = 0.75.
  EXPECT_NEAR(StudentTCdf(1.0, 1.0), 0.75, 1e-6);
}

TEST(Distributions, StudentTApproachesNormalForLargeDf) {
  EXPECT_NEAR(StudentTCdf(1.5, 1e6), NormalCdf(1.5), 1e-4);
}

TEST(Distributions, IncompleteBetaBounds) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(Distributions, IncompleteBetaUniformCase) {
  // I_x(1,1) = x.
  for (double x : {0.1, 0.35, 0.8}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
  }
}

TEST(Distributions, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(RegularizedIncompleteBeta(2.5, 4.0, 0.3),
              1.0 - RegularizedIncompleteBeta(4.0, 2.5, 0.7), 1e-10);
}

// --------------------------------------------------------------- Welch ----

TEST(Welch, IdenticalSamplesGiveHighPValue) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto result = WelchTTest(a, a);
  EXPECT_NEAR(result.p_value, 1.0, 1e-9);
}

TEST(Welch, ClearlySeparatedSamplesAreSignificant) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(10.0 + (i % 3));
    b.push_back(1.0 + (i % 3));
  }
  const auto result = WelchTTest(a, b);
  EXPECT_LT(result.p_value, 1e-6);
  EXPECT_GT(result.statistic, 0.0);
}

TEST(Welch, OneSidedHalvesTwoSidedForPositiveT) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(5.0 + 0.5 * (i % 5));
    b.push_back(4.5 + 0.5 * (i % 5));
  }
  const auto two = WelchTTest(a, b);
  const auto one = WelchTTestGreater(a, b);
  EXPECT_NEAR(one.p_value, two.p_value / 2.0, 1e-9);
}

TEST(Welch, OneSidedWrongDirectionIsNearOne) {
  std::vector<double> low;
  std::vector<double> high;
  for (int i = 0; i < 20; ++i) {
    low.push_back(1.0 + 0.1 * (i % 4));
    high.push_back(3.0 + 0.1 * (i % 4));
  }
  const auto result = WelchTTestGreater(low, high);
  EXPECT_GT(result.p_value, 0.99);
}

TEST(Welch, TooFewSamplesIsInconclusive) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {2.0, 3.0};
  EXPECT_DOUBLE_EQ(WelchTTest(a, b).p_value, 1.0);
}

TEST(Welch, ReportsMeans) {
  const std::vector<double> a = {2.0, 4.0};
  const std::vector<double> b = {1.0, 3.0};
  const auto result = WelchTTest(a, b);
  EXPECT_DOUBLE_EQ(result.mean_a, 3.0);
  EXPECT_DOUBLE_EQ(result.mean_b, 2.0);
}

TEST(MannWhitney, SeparatedSamplesAreSignificant) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 25; ++i) {
    a.push_back(100.0 + i);
    b.push_back(i);
  }
  EXPECT_LT(MannWhitneyU(a, b).p_value, 1e-6);
  EXPECT_LT(MannWhitneyUGreater(a, b).p_value, 1e-6);
}

TEST(MannWhitney, InterleavedSamplesNotSignificant) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 25; ++i) {
    a.push_back(2.0 * i);
    b.push_back(2.0 * i + 1.0);
  }
  EXPECT_GT(MannWhitneyU(a, b).p_value, 0.5);
}

TEST(MannWhitney, HandlesTies) {
  const std::vector<double> a = {1.0, 1.0, 2.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 2.0, 3.0, 3.0};
  const auto result = MannWhitneyU(a, b);
  EXPECT_GE(result.p_value, 0.0);
  EXPECT_LE(result.p_value, 1.0);
  EXPECT_GT(result.p_value, 0.3);  // nearly identical distributions.
}

// ----------------------------------------------------------- Confusion ----

TEST(Confusion, CountsCells) {
  ConfusionMatrix m;
  m.Add(true, true);    // TP
  m.Add(true, false);   // FN
  m.Add(false, false);  // TN
  m.Add(false, false);  // TN
  m.Add(false, true);   // FP
  EXPECT_EQ(m.true_positives(), 1);
  EXPECT_EQ(m.false_negatives(), 1);
  EXPECT_EQ(m.true_negatives(), 2);
  EXPECT_EQ(m.false_positives(), 1);
  EXPECT_EQ(m.total(), 5);
}

TEST(Confusion, Rates) {
  ConfusionMatrix m;
  for (int i = 0; i < 9; ++i) m.Add(true, true);
  m.Add(true, false);
  for (int i = 0; i < 8; ++i) m.Add(false, false);
  for (int i = 0; i < 2; ++i) m.Add(false, true);
  EXPECT_DOUBLE_EQ(m.true_positive_rate(), 0.9);
  EXPECT_DOUBLE_EQ(m.true_negative_rate(), 0.8);
  EXPECT_DOUBLE_EQ(m.accuracy(), 17.0 / 20.0);
}

TEST(Confusion, EmptyMatrixRatesAreZero) {
  ConfusionMatrix m;
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(m.true_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.true_negative_rate(), 0.0);
}

TEST(Confusion, MergeAddsCells) {
  ConfusionMatrix a;
  a.Add(true, true);
  ConfusionMatrix b;
  b.Add(false, true);
  a.Merge(b);
  EXPECT_EQ(a.total(), 2);
  EXPECT_EQ(a.false_positives(), 1);
}

TEST(Confusion, TableRowsContainCounts) {
  ConfusionMatrix m;
  m.Add(true, true);
  m.Add(false, false);
  const std::string rows = m.ToTableRows();
  EXPECT_NE(rows.find("Non-persistent"), std::string::npos);
  EXPECT_NE(rows.find("Persistent"), std::string::npos);
}

// --------------------------------------------------------------- Stump ----

TEST(Stump, LearnsPerfectSplit) {
  std::vector<LabelledSample> data;
  for (int i = 0; i < 20; ++i) data.push_back({1.0 + 0.1 * i, false});
  for (int i = 0; i < 20; ++i) data.push_back({10.0 + 0.1 * i, true});
  const DecisionStump stump = DecisionStump::Train(data);
  EXPECT_GT(stump.threshold(), 2.9);
  EXPECT_LT(stump.threshold(), 10.0);
  EXPECT_FALSE(stump.Predict(2.0));
  EXPECT_TRUE(stump.Predict(11.0));
}

TEST(Stump, NoisyDataStillMostlyCorrect) {
  std::vector<LabelledSample> data;
  for (int i = 0; i < 50; ++i) data.push_back({static_cast<double>(i % 5), false});
  for (int i = 0; i < 50; ++i) data.push_back({8.0 + i % 5, true});
  // Flip a few labels.
  data[0].positive = true;
  data[60].positive = false;
  const DecisionStump stump = DecisionStump::Train(data);
  int correct = 0;
  for (const auto& s : data) {
    if (stump.Predict(s.feature) == s.positive) ++correct;
  }
  EXPECT_GE(correct, 95);
}

TEST(Stump, EmptyDataYieldsDefault) {
  const DecisionStump stump = DecisionStump::Train({});
  EXPECT_DOUBLE_EQ(stump.threshold(), 0.0);
}

TEST(Stump, CrossValidationReportsHighAccuracyOnSeparableData) {
  std::vector<LabelledSample> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back({static_cast<double>(i % 10), false});
    data.push_back({20.0 + i % 10, true});
  }
  const auto cv = CrossValidateStump(data, 10);
  EXPECT_GT(cv.mean_accuracy, 0.99);
  EXPECT_EQ(cv.fold_thresholds.size(), 10u);
  EXPECT_TRUE(cv.final_stump.Predict(25.0));
  EXPECT_FALSE(cv.final_stump.Predict(5.0));
}

TEST(Stump, CrossValidationFoldThresholdsAreStable) {
  std::vector<LabelledSample> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back({static_cast<double>(i % 7), false});
    data.push_back({50.0 + i % 7, true});
  }
  const auto cv = CrossValidateStump(data, 10);
  for (double t : cv.fold_thresholds) {
    EXPECT_GT(t, 6.0);
    EXPECT_LT(t, 50.0);
  }
}

}  // namespace
}  // namespace kwikr::stats
