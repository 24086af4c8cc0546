#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "wifi/edca.h"

namespace kwikr::wifi {

/// Shared (rate_bps, size_bytes) -> frame-airtime table for wifi::Channel.
///
/// PhyParams::FrameAirtime is a pure function, so this cache can never change
/// behaviour — only skip the TransmissionTime division. It replaces the old
/// per-contender one-entry memo, which thrashed whenever two frame shapes
/// alternated on one contender (rate-adaptation ladder walks) and recomputed
/// the same shape once per contender in multi-station scenarios. A run's
/// distinct frame shapes number in the dozens (payload sizes x rate ladder
/// steps), so a small fixed table holds the entire working set.
///
/// Layout: open-addressed, power-of-two sized, linear probe of at most
/// kProbeLimit slots, then a deterministic overwrite of the home slot (the
/// eviction victim depends only on the key sequence — determinism is free
/// because values are pure anyway, but keeping the *cost* sequence
/// deterministic keeps wall-clock profiles reproducible). rate_bps == 0 marks
/// an empty slot (a 0 bps rate is not transmittable). Storage is sized once
/// at construction and never reallocates: the steady-state frame cycle stays
/// zero-allocation (frame_path_test's operator-new counter enforces it).
class AirtimeCache {
 public:
  static constexpr std::size_t kDefaultSlots = 256;
  static constexpr std::size_t kProbeLimit = 4;

  explicit AirtimeCache(const PhyParams& phy,
                        std::size_t slots = kDefaultSlots)
      : phy_(&phy), mask_(RoundUpPow2(slots) - 1), table_(mask_ + 1) {}

  /// Airtime of a frame shape, computed at most once per shape per eviction
  /// lifetime. Always equals phy.FrameAirtime(size_bytes, rate_bps).
  ///
  /// A one-entry front memo short-circuits the hash for back-to-back
  /// lookups of one shape — the TXOP-burst pattern, where the same queue
  /// head shape is probed once per continuation. Unlike the retired
  /// per-contender memo this sits in FRONT of the shared table, so
  /// alternating shapes fall through to their table slots instead of
  /// recomputing the PHY division.
  [[nodiscard]] sim::Duration Lookup(std::int32_t size_bytes,
                                     std::int64_t rate_bps) {
    if (last_rate_bps_ == rate_bps && last_size_bytes_ == size_bytes) {
      ++hits_;
      return last_airtime_;
    }
    const sim::Duration airtime = LookupTable(size_bytes, rate_bps);
    last_rate_bps_ = rate_bps;
    last_size_bytes_ = size_bytes;
    last_airtime_ = airtime;
    return airtime;
  }

  /// Table path behind the front memo (hash + bounded linear probe).
  [[nodiscard]] sim::Duration LookupTable(std::int32_t size_bytes,
                                          std::int64_t rate_bps) {
    const std::size_t home = Hash(size_bytes, rate_bps) & mask_;
    std::size_t idx = home;
    for (std::size_t probe = 0; probe < kProbeLimit; ++probe) {
      Entry& e = table_[idx];
      if (e.rate_bps == rate_bps && e.size_bytes == size_bytes) {
        ++hits_;
        return e.airtime;
      }
      if (e.rate_bps == 0) {
        ++misses_;
        e.rate_bps = rate_bps;
        e.size_bytes = size_bytes;
        e.airtime = phy_->FrameAirtime(size_bytes, rate_bps);
        return e.airtime;
      }
      idx = (idx + 1) & mask_;
    }
    // Probe run exhausted: overwrite the home slot. Deterministic, and the
    // displaced shape simply recomputes on its next appearance.
    ++misses_;
    ++evictions_;
    Entry& e = table_[home];
    e.rate_bps = rate_bps;
    e.size_bytes = size_bytes;
    e.airtime = phy_->FrameAirtime(size_bytes, rate_bps);
    return e.airtime;
  }

  // Introspection for the frame_path tests (hit rate, eviction
  // determinism).
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::size_t slots() const { return mask_ + 1; }

 private:
  struct Entry {
    std::int64_t rate_bps = 0;  ///< 0 = empty (rate 0 is untransmittable).
    std::int32_t size_bytes = 0;
    sim::Duration airtime = 0;
  };

  static std::size_t RoundUpPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static std::uint64_t Hash(std::int32_t size_bytes, std::int64_t rate_bps) {
    // SplitMix64-style finalizer over the packed key: both fields influence
    // every output bit, so ladder-adjacent rates don't cluster.
    std::uint64_t x = (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(size_bytes))
                       << 32) ^
                      static_cast<std::uint64_t>(rate_bps);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  const PhyParams* phy_;
  std::size_t mask_;
  std::vector<Entry> table_;
  // One-entry front memo (see Lookup). rate 0 = empty, as in Entry.
  std::int64_t last_rate_bps_ = 0;
  std::int32_t last_size_bytes_ = 0;
  sim::Duration last_airtime_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace kwikr::wifi
