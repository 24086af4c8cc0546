#include "fleet/scenario_shards.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>

#include "sim/decimal.h"

namespace kwikr::fleet {
namespace {

/// Extracts the sim-time stamp from one JSONL line: the integer after the
/// first `"t":`. Returns false when the line has no stamp or the stamp does
/// not fit an int64.
bool LineTime(std::string_view line, std::int64_t* t) {
  const std::size_t key = line.find("\"t\":");
  if (key == std::string_view::npos) return false;
  std::size_t i = key + 4;
  return sim::ParseDecimalI64(line, &i, t);
}

struct MergeLine {
  std::int64_t t = 0;
  std::uint32_t shard = 0;
  std::uint32_t begin = 0;  ///< offset into its shard's stream.
  std::uint32_t length = 0;
};

}  // namespace

std::string MergeShardStreams(const std::vector<std::string>& shards) {
  std::vector<MergeLine> lines;
  std::size_t total_bytes = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string& stream = shards[s];
    total_bytes += stream.size();
    // Untimed lines inherit the previous line's stamp so preamble/summary
    // annotations stay attached; a leading untimed line sorts first.
    std::int64_t last_t = std::numeric_limits<std::int64_t>::min();
    std::size_t begin = 0;
    while (begin < stream.size()) {
      std::size_t end = stream.find('\n', begin);
      if (end == std::string::npos) {
        end = stream.size();
      } else {
        ++end;  // keep the newline with its line.
      }
      std::int64_t t = last_t;
      if (LineTime(std::string_view(stream).substr(begin, end - begin), &t)) {
        last_t = t;
      }
      lines.push_back(MergeLine{t, static_cast<std::uint32_t>(s),
                                static_cast<std::uint32_t>(begin),
                                static_cast<std::uint32_t>(end - begin)});
      begin = end;
    }
  }
  // Stable sort on (t, shard): a shard's equal-time lines keep their
  // original relative order, and ties across shards resolve by shard index
  // — the deterministic cross-shard ordering rule (DESIGN.md §14).
  std::stable_sort(lines.begin(), lines.end(),
                   [](const MergeLine& a, const MergeLine& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.shard < b.shard;
                   });
  std::string out;
  out.reserve(total_bytes);
  for (const MergeLine& line : lines) {
    out.append(shards[line.shard], line.begin, line.length);
  }
  return out;
}

}  // namespace kwikr::fleet
