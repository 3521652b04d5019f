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

/// Returns nullptr when malloc fails.  `align` 0 means the default
/// alignment; an over-aligned new passes its power of two.
void* counted_alloc(std::size_t size,
                    std::align_val_t align = std::align_val_t{0}) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::uint64_t>(size),
                          std::memory_order_relaxed);
  if (size == 0) size = 1;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = a == 0 ? std::malloc(size)
                   : std::aligned_alloc(a, (size + a - 1) & ~(a - 1));
  if (p != nullptr) {
    g_live_bytes.fetch_add(usable_size(p, size), std::memory_order_relaxed);
  }
  return p;
}

void* counted_alloc_or_throw(std::size_t size,
                             std::align_val_t align = std::align_val_t{0}) {
  if (void* p = counted_alloc(size, align)) return p;
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
// uses them), and so are the over-aligned ones (types declared alignas(N)
// past the default new alignment): every allocation and free must go
// through one allocator.  aligned_alloc's blocks are released by free().
using std::align_val_t;
using std::nothrow_t;
using std::size_t;

void* operator new(size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](size_t n) { return counted_alloc_or_throw(n); }
void* operator new(size_t n, const nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](size_t n, const nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(size_t n, align_val_t a) {
  return counted_alloc_or_throw(n, a);
}
void* operator new[](size_t n, align_val_t a) {
  return counted_alloc_or_throw(n, a);
}
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { counted_free(p, 0); }
void operator delete[](void* p) noexcept { counted_free(p, 0); }
void operator delete(void* p, const nothrow_t&) noexcept { counted_free(p, 0); }
void operator delete[](void* p, const nothrow_t&) noexcept {
  counted_free(p, 0);
}
void operator delete(void* p, size_t n) noexcept { counted_free(p, n); }
void operator delete[](void* p, size_t n) noexcept { counted_free(p, n); }
void operator delete(void* p, align_val_t) noexcept { counted_free(p, 0); }
void operator delete[](void* p, align_val_t) noexcept { counted_free(p, 0); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept {
  counted_free(p, 0);
}
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept {
  counted_free(p, 0);
}
void operator delete(void* p, size_t n, align_val_t) noexcept {
  counted_free(p, n);
}
void operator delete[](void* p, size_t n, align_val_t) noexcept {
  counted_free(p, n);
}
