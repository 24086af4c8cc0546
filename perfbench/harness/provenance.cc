#include "provenance.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace perfbench {

std::string UnfitForTiming() {
  std::string why;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += "sanitizer build; ";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  why += "sanitizer build; ";
#endif
#endif
  if (std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos) {
    why += "compiled with -fsanitize; ";
  }
#ifndef NDEBUG
  why += "assertions enabled (NDEBUG unset); ";
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) == "Debug" ||
      std::string_view(PERFBENCH_BUILD_TYPE).empty()) {
    why += std::string("build type '") + PERFBENCH_BUILD_TYPE + "'; ";
  }
  if (!why.empty()) why.resize(why.size() - 2);  // the last "; "
  return why;
}

void ReadLoadAverage(double out[3]) {
  if (::getloadavg(out, 3) != 3) out[0] = out[1] = out[2] = -1.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ProvenanceJson(const Provenance& p) {
  char loads[256];
  std::snprintf(loads, sizeof(loads),
                "\"loadavg_before\":[%.2f,%.2f,%.2f],"
                "\"loadavg_after\":[%.2f,%.2f,%.2f]",
                p.load_before[0], p.load_before[1], p.load_before[2],
                p.load_after[0], p.load_after[1], p.load_after[2]);
  return "{\"commit\":\"" + JsonEscape(p.commit) + "\",\"dirty\":\"" +
         JsonEscape(p.dirty) + "\",\"source_sha\":\"" +
         JsonEscape(p.source_sha) + "\",\"compiler\":\"" +
         JsonEscape(PERFBENCH_COMPILER) + "\",\"compiler_version\":\"" +
         JsonEscape(__VERSION__) + "\",\"build_type\":\"" +
         JsonEscape(PERFBENCH_BUILD_TYPE) + "\",\"cxx_flags\":\"" +
         JsonEscape(PERFBENCH_CXX_FLAGS) + "\",\"nproc\":" +
         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) + "," + loads +
         ",\"seed\":" + std::to_string(p.seed) + "}";
}

}  // namespace perfbench
