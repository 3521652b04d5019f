// Global operator-new counting hook (see alloc_stats.hpp for the linkage
// contract).  Replacement operators and accessors deliberately share this
// translation unit: referencing an accessor pulls the operators into the
// final binary.
#include "common/alloc_stats.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__has_include)
#if __has_include(<malloc.h>)
#include <malloc.h>
#define HP2P_HAVE_MALLOC_USABLE_SIZE 1
#endif
#endif

namespace hp2p::alloc_stats::detail {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_live_bytes{0};

}  // namespace hp2p::alloc_stats::detail

namespace {

using hp2p::alloc_stats::detail::g_alloc_bytes;
using hp2p::alloc_stats::detail::g_allocs;
using hp2p::alloc_stats::detail::g_live_bytes;

inline std::uint64_t usable_size(void* p, std::size_t requested) {
#if defined(HP2P_HAVE_MALLOC_USABLE_SIZE)
  (void)requested;
  return static_cast<std::uint64_t>(malloc_usable_size(p));
#else
  (void)p;
  return static_cast<std::uint64_t>(requested);
#endif
}

/// Returns nullptr when malloc fails.
void* counted_alloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::uint64_t>(size),
                          std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p != nullptr) {
    g_live_bytes.fetch_add(usable_size(p, size), std::memory_order_relaxed);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}

void counted_free(void* p, std::size_t requested) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(usable_size(p, requested),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them): every allocation and free must go through one allocator.
void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p, 0); }
void operator delete[](void* p) noexcept { counted_free(p, 0); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p, 0);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p, 0);
}
void operator delete(void* p, std::size_t size) noexcept {
  counted_free(p, size);
}
void operator delete[](void* p, std::size_t size) noexcept {
  counted_free(p, size);
}
