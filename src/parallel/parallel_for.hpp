// Blocked parallel_for on top of ThreadPool. The body receives [begin,
// end) index ranges; determinism is the caller's responsibility (write to
// disjoint slots, derive RNG streams from the index).
#pragma once

#include <cstddef>
#include <functional>

namespace rdp {

class ThreadPool;

/// Runs body(begin, end) over `count` indices split into blocks of at
/// most `block` (0 = pick count/4T, minimum 1). Blocks run on `pool`;
/// the call returns when all finished. Task exceptions propagate; blocks
/// not yet started when the first exception is recorded are dropped, not
/// executed.
void parallel_for_blocked(ThreadPool& pool, std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& body,
                          std::size_t block = 0);

/// Per-index convenience wrapper.
void parallel_for_each_index(ThreadPool& pool, std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             std::size_t block = 0);

}  // namespace rdp
