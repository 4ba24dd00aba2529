// A software prefetch hint for kernels that walk an array in an order the
// hardware prefetcher cannot follow: list scheduling in LPT order, the
// bucket scatter of order_by_time. A hint only; it never faults and never
// changes a result.
#pragma once

namespace rdp {

inline void prefetch(const void* address) noexcept {
#if defined(__GNUC__)
  __builtin_prefetch(address);
#else
  (void)address;
#endif
}

}  // namespace rdp
