// Per-clip bump arena: the allocation substrate of the steady-state hot
// path. Evaluation stages carve feature/scratch buffers out of a
// thread-local arena and rewind it at clip end, so after warm-up the
// extract→features→svm pipeline performs zero per-clip heap allocations
// (tests/test_hotpath.cpp proves this with an operator-new counter).
//
// Shape: a singly-linked chain of cache-line-aligned blocks, each a
// 64-byte Block header followed by its payload. Allocation bumps an
// offset in the current block and walks/extends the chain when full;
// rewind()/reset() drop the offset without freeing, so capacity is
// retained across clips. Not thread-safe — use one arena per thread
// (threadScratch()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <type_traits>

namespace hsd::engine {

class Arena {
 public:
  /// Payload capacity of the first block; later blocks double (capped)
  /// so pathological clips don't chain hundreds of tiny blocks.
  static constexpr std::size_t kDefaultBlockBytes = 16 * 1024;
  static constexpr std::size_t kMaxBlockBytes = 1024 * 1024;

  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw bytes, aligned to `align` (power of two, at most 64). Never
  /// returns nullptr; grows the chain on demand.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  /// n default-uninitialized Ts (trivially destructible only — the arena
  /// never runs destructors).
  template <typename T>
  std::span<T> allocSpan(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is rewound, never destroyed");
    return {static_cast<T*>(allocate(n * sizeof(T), alignof(T))), n};
  }

  /// A rewind point. Valid until the arena is reset past it or destroyed;
  /// rewinding invalidates every allocation made after the mark.
  struct Mark {
    void* block = nullptr;
    std::size_t offset = 0;
    std::size_t used = 0;
  };
  Mark mark() const { return {cur_, offset_, used_}; }
  void rewind(const Mark& m);
  /// Rewind everything; capacity (all blocks) is retained.
  void reset();

  // Introspection (tests and stats; not hot).
  std::size_t capacity() const { return capacity_; }  ///< payload bytes held
  std::size_t used() const { return used_; }          ///< live payload bytes
  std::size_t highWater() const { return highWater_; }
  std::size_t blockCount() const { return blocks_; }

 private:
  struct Block;
  Block* grow(std::size_t bytes);

  Block* head_ = nullptr;
  void* cur_ = nullptr;        ///< current Block (void* keeps Block private)
  std::size_t offset_ = 0;     ///< bump offset within cur_'s payload
  std::size_t used_ = 0;
  std::size_t highWater_ = 0;
  std::size_t capacity_ = 0;
  std::size_t blocks_ = 0;
};

/// RAII rewind: carve allocations inside the scope, drop them on exit.
/// Nests — inner scopes rewind to their own mark, not the outer one.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& a) : arena_(a), mark_(a.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  Arena& arena() { return arena_; }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// A std::pmr view of an arena, so pmr containers (e.g. CoverGrid's cell
/// storage) can carve their buffers out of it. Deallocation is a no-op:
/// the memory comes back when the enclosing ArenaScope rewinds, so every
/// container built on it must die inside that scope.
class ArenaResource final : public std::pmr::memory_resource {
 public:
  explicit ArenaResource(Arena& a) : arena_(a) {}

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    return arena_.allocate(bytes, align);
  }
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  bool do_is_equal(const std::pmr::memory_resource& o) const noexcept override {
    return this == &o;
  }

  Arena& arena_;
};

/// The calling thread's scratch arena (one per thread, lazily created;
/// lives until thread exit). Stage bodies running under parallelFor each
/// see their own, so no synchronization is ever needed.
Arena& threadScratch();

/// Cumulative payload bytes every arena in the process has ever reserved
/// (monotone; destruction does not subtract). Moves only when an arena
/// grows — never in steady state — so per-request deltas expose exactly
/// the allocations a request forced. Backs the /detect X-Profile report.
std::uint64_t arenaReservedBytes();

}  // namespace hsd::engine
