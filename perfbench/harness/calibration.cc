#include "calibration.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {
namespace {
constexpr int kTimers = 4096;
constexpr int kFirings = 50'000;
volatile std::uint64_t g_sink = 0;  // keeps the kernel's result observable
}  // namespace

double CalibrationSample() {
  using Timer = std::pair<std::uint64_t, std::uint32_t>;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  for (std::uint32_t id = 0; id < kTimers; ++id) {
    heap.emplace(next() % 1'000'000, id);
  }
  std::uint64_t acc = 0;
  for (int n = 0; n < kFirings; ++n) {
    const auto [at, id] = heap.top();
    heap.pop();
    std::uint64_t& s = state[id & 255];
    s = s * 31 + at;
    acc += s >> 7;
    heap.emplace(at + 1 + next() % 10'000, id);
  }
  g_sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
