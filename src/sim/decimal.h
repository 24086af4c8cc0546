#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace kwikr::sim {

/// Parses the run of decimal digits at `text[*pos]` into `*out` and advances
/// `*pos` past it. Returns false — leaving `*pos` and `*out` untouched — when
/// there is no digit at the cursor or the value does not fit a uint64. The
/// one digit loop behind every decoder of persisted bytes (spill lines,
/// checkpoint manifests, registry dumps, timeline streams), so a corrupt or
/// adversarial number is rejected instead of silently wrapping.
inline bool ParseDecimalU64(std::string_view text, std::size_t* pos,
                            std::uint64_t* out) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::size_t i = *pos;
  std::uint64_t value = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    const auto digit = static_cast<std::uint64_t>(text[i] - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
    ++i;
  }
  if (i == *pos) return false;
  *pos = i;
  *out = value;
  return true;
}

/// ParseDecimalU64 with an optional leading '-': accepts exactly the int64
/// range [-2^63, 2^63 - 1].
inline bool ParseDecimalI64(std::string_view text, std::size_t* pos,
                            std::int64_t* out) {
  constexpr std::uint64_t kMaxPositive =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  std::size_t i = *pos;
  const bool negative = i < text.size() && text[i] == '-';
  if (negative) ++i;
  std::uint64_t magnitude = 0;
  if (!ParseDecimalU64(text, &i, &magnitude)) return false;
  if (magnitude > kMaxPositive + (negative ? 1 : 0)) return false;
  // Negate in unsigned arithmetic (modular, so 2^63 maps to INT64_MIN with
  // no signed overflow); the C++20 conversion back is two's complement.
  *out = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
  *pos = i;
  return true;
}

}  // namespace kwikr::sim
