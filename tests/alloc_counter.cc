// Global allocation-function replacements behind alloc_counter.h. Every
// variant is replaced, nothrow and aligned ones included, so that under
// AddressSanitizer (which supplies its own operator new set) no pointer is
// allocated by one family and freed by another.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) & ~(a - 1));
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

std::uint64_t kwikr::AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
