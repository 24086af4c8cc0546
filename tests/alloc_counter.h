#pragma once

// Process-wide heap-allocation counter for the zero-allocation tests. A test
// binary that includes this header links alloc_counter.cc, whose global
// operator new/delete replacements count every allocation the binary makes
// (library code included). Tests sample the count immediately around the
// code under test and expect no change.

#include <cstdint>

namespace kwikr {

/// Allocations made by this process so far. Atomic underneath, because
/// fleet-backed tests in the same binary allocate from worker threads.
std::uint64_t AllocationCount();

}  // namespace kwikr
