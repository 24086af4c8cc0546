#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kwikr::stats {

/// Fixed-bin histogram percentile sketch.
///
/// The mergeable counterpart of `Percentile`: each worker of a parallel
/// sweep accumulates samples into its own Histogram and the shards are
/// combined with `Merge` (exactly associative — a merged histogram equals
/// the histogram of the concatenated samples). Quantile queries interpolate
/// within a bin, so the error is bounded by one bin width inside [lo, hi];
/// samples outside the range are clamped into the edge bins but the exact
/// observed min/max are tracked so extreme quantiles stay honest.
class Histogram {
 public:
  struct Config {
    double lo = 0.0;
    double hi = 1000.0;
    std::size_t bins = 256;
  };

  Histogram();  ///< default binning (Config{}).
  explicit Histogram(Config config);

  void Add(double sample);

  /// Merges another histogram into this one. Both must share the same
  /// binning (lo/hi/bins); merging incompatible sketches is a logic error.
  void Merge(const Histogram& other);

  /// Reconstructs a histogram from its serialized parts — the inverse of
  /// reading (config, counts, count, min, max) off an existing sketch. The
  /// cross-process spill/merge codecs depend on this to rebuild a worker's
  /// sketch exactly on the other side of a file. `counts` must have
  /// `config.bins` entries and sum to `count`; violating that is a logic
  /// error (the codecs validate before calling).
  static Histogram FromParts(Config config, std::vector<std::int64_t> counts,
                             std::int64_t count, double min, double max);

  /// p-th percentile estimate, p in [0, 100]. An empty histogram returns
  /// 0.0, matching `stats::Percentile` on an empty input. This targets the
  /// cumulative count p·(n−1)+1 and interpolates inside that one bin, so on
  /// sparse data it can sit far from `stats::Percentile`'s answer; use
  /// OrderStatisticPercentile where the two must agree.
  [[nodiscard]] double Percentile(double p) const;

  /// p-th percentile under `stats::Percentile`'s rank convention: the order
  /// statistics at ⌊p·(n−1)⌋ and ⌈p·(n−1)⌉ are each estimated inside their
  /// bin (the first and last exactly, as min and max) and interpolated by
  /// the same fraction. For samples inside [lo, hi] the result is within
  /// BinWidth() of `stats::Percentile` over the samples; p = 0 and 100
  /// return the exact min and max. An empty histogram returns 0.0.
  [[nodiscard]] double OrderStatisticPercentile(double p) const;

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const std::vector<std::int64_t>& counts() const {
    return counts_;
  }

  [[nodiscard]] double BinWidth() const;

  void Reset();

 private:
  /// Estimate of the rank-th smallest sample (0-based, rank < count).
  [[nodiscard]] double OrderStatistic(std::int64_t rank) const;

  Config config_;
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace kwikr::stats
