// Cache-line layout primitives for hot shared structures. Concurrently
// touched fields that share a 64-byte line ping-pong it between cores
// (false sharing); the fix is mechanical — align each independently
// written field (or shard) to its own line and pad to a full line so
// neighbors can't move in. offsetof/sizeof static_asserts pin the layout
// at compile time so a refactor can't silently re-pack it.
#pragma once

#include <cstddef>
#include <new>

namespace hsd::par {

/// Destructive-interference granularity. Hard-wired to 64 rather than
/// std::hardware_destructive_interference_size: every x86-64 / mainstream
/// AArch64 part lines at 64, and a constant keeps the static_asserted
/// layouts identical across toolchains.
inline constexpr std::size_t kCacheLineSize = 64;

/// T on its own cache line(s): aligned to a line start and padded to a
/// line multiple, so adjacent array elements never share a line. Use for
/// arrays of per-worker counters and shard heads.
template <typename T>
struct alignas(kCacheLineSize) CachePadded {
  T value;
};

static_assert(sizeof(CachePadded<char>) == kCacheLineSize,
              "padding must round up to a full line");
static_assert(alignof(CachePadded<char>) == kCacheLineSize,
              "element must start on a line boundary");
static_assert(offsetof(CachePadded<char>, value) == 0,
              "value must sit at the line start");

}  // namespace hsd::par
