// Process-wide allocation counting, for the zero-allocation instruments.
//
// Including this header replaces the global operator new/delete of the
// final binary with counting versions that forward to malloc/free.
// Include it from exactly ONE translation unit of a dedicated binary
// (bench_micro_core, tests/perf_alloc_test) — never from the library:
// replaced allocation functions are program-wide, and sharing this header
// keeps both instruments counting the same way.
//
// The operators are noinline: when GCC inlines them it pairs the visible
// malloc/free with the surrounding new/delete expressions and raises
// -Wmismatched-new-delete (an error under the CI's -Werror) for what is a
// deliberate, matched replacement of both sides.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace bcp::util {
/// Total operator-new/new[] calls in this process since start.
inline std::uint64_t g_alloc_count = 0;
/// Total bytes those calls requested.
inline std::uint64_t g_alloc_bytes = 0;
}  // namespace bcp::util

#if defined(__GNUC__) || defined(__clang__)
#define BCP_ALLOC_HOOK_NOINLINE __attribute__((noinline))
#else
#define BCP_ALLOC_HOOK_NOINLINE
#endif

BCP_ALLOC_HOOK_NOINLINE void* operator new(std::size_t n) {
  ++bcp::util::g_alloc_count;
  bcp::util::g_alloc_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
BCP_ALLOC_HOOK_NOINLINE void operator delete(void* p) noexcept {
  std::free(p);
}
BCP_ALLOC_HOOK_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
BCP_ALLOC_HOOK_NOINLINE void* operator new[](std::size_t n) {
  ++bcp::util::g_alloc_count;
  bcp::util::g_alloc_bytes += n;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
BCP_ALLOC_HOOK_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
BCP_ALLOC_HOOK_NOINLINE void operator delete[](void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

#undef BCP_ALLOC_HOOK_NOINLINE
