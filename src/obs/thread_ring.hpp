// The per-thread recording core shared by the obs recorders
// (TraceRecorder, LogRecorder, ModelStatsRecorder). Three pieces:
//
//  - ThreadRing<T> is a single-writer, drop-oldest ring of a trivially
//    copyable T that readers may copy while the writer runs. Every slot
//    carries a sequence number (a seqlock): the writer marks the slot
//    busy (odd), stores the payload, then publishes the even generation
//    of the append it holds. A reader keeps a copy only if the slot
//    carried the expected generation both before and after the copy; a
//    slot overwritten mid-copy counts as dropped. Payload words move
//    through atomics (std::atomic_ref), so a reader racing the writer is
//    never a plain-memory race. The writer never blocks or allocates.
//
//  - RecorderCore<T, Extra> is everything else a recorder shares: it
//    hands every recording thread its own ThreadRing<T> plus an Extra
//    (a thread name, per-thread counters), built on the thread's first
//    call and kept for the core's lifetime; it stamps records against
//    one steady epoch; and it walks every thread's ring for snapshots
//    and the dropped/resident sums. A typed thread_local slot caches the
//    last (core, state) pair, so the steady-state lookup is one compare;
//    only a thread's first call into a core takes the mutex. The slot is
//    keyed by an owner id unique among cores of that type, never by
//    address, so a destroyed core's state can't be revived by a new one
//    at the same address.
//
//  - keepNewest() is the one "filter, keep the newest N by time, oldest
//    first" cut every snapshot surface renders through (/tracez, /logz,
//    the --log-out dump, /modelz captures).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "par/cacheline.hpp"

namespace hsd::obs {

template <class T>
class ThreadRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots are copied word by word");
  static_assert(sizeof(T) % sizeof(std::uint64_t) == 0,
                "payload must be a whole number of words");
  static constexpr std::size_t kWords = sizeof(T) / sizeof(std::uint64_t);

 public:
  /// `capacity` == 0 is clamped to 1.
  explicit ThreadRing(std::size_t capacity)
      : slots_(std::max<std::size_t>(capacity, 1)) {
    static_assert(offsetof(ThreadRing, slots_) == par::kCacheLineSize,
                  "the writer's index fills the first line alone");
    static_assert(alignof(ThreadRing) == par::kCacheLineSize,
                  "no other thread's ring may share the index's line");
  }

  /// Appends overwritten by later ones so far (drop-oldest).
  std::uint64_t dropped() const {
    const std::uint64_t w = head_.value.load(std::memory_order_acquire);
    return w > capacity() ? w - capacity() : 0;
  }

  /// Records resident now: appends minus dropped().
  std::size_t size() const {
    return std::size_t(std::min<std::uint64_t>(
        head_.value.load(std::memory_order_acquire), capacity()));
  }

  /// Writer thread only: append `v`, overwriting the oldest record when
  /// full.
  void push(const T& v) {
    const std::uint64_t k = head_.value.load(std::memory_order_relaxed);
    Slot& s = slots_[k % slots_.size()];
    s.seq.store(2 * k + 1, std::memory_order_relaxed);
    // Each release store orders the busy mark before itself: a reader
    // that loads any word of this append also sees the slot busy.
    const auto* src = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < kWords; ++i) {
      std::uint64_t word;
      std::memcpy(&word, src + i * sizeof word, sizeof word);
      std::atomic_ref<std::uint64_t>(s.words[i]).store(
          word, std::memory_order_release);
    }
    s.seq.store(2 * k + 2, std::memory_order_release);
    head_.value.store(k + 1, std::memory_order_release);
  }

  /// fn(const T&) for every whole resident record, oldest first, from
  /// one cut of the ring. Returns the appends before that cut it did not
  /// return: those overwritten before the pass plus those overwritten
  /// while it copied them. Safe to run while the writer appends.
  template <class Fn>
  std::uint64_t read(Fn&& fn) const {
    const std::uint64_t w = head_.value.load(std::memory_order_acquire);
    const std::uint64_t first = w > capacity() ? w - capacity() : 0;
    std::uint64_t dropped = first;
    for (std::uint64_t k = first; k < w; ++k) {
      T v;
      if (copy(slots_[k % slots_.size()], 2 * k + 2, v))
        fn(static_cast<const T&>(v));
      else
        ++dropped;
    }
    return dropped;
  }

 private:
  std::size_t capacity() const { return slots_.size(); }

  struct Slot {
    /// 2k+1 while append k is being stored, 2k+2 once it is published.
    std::atomic<std::uint64_t> seq{0};
    /// mutable: readers load through std::atomic_ref, which needs a
    /// non-const referent.
    mutable std::uint64_t words[kWords];
  };

  /// Copies `s` into `out` if it holds generation `gen` before and after.
  static bool copy(const Slot& s, std::uint64_t gen, T& out) {
    if (s.seq.load(std::memory_order_acquire) != gen) return false;
    auto* dst = reinterpret_cast<unsigned char*>(&out);
    // Acquire loads keep the re-check below after every word load.
    for (std::size_t i = 0; i < kWords; ++i) {
      const std::uint64_t word = std::atomic_ref<std::uint64_t>(s.words[i])
                                     .load(std::memory_order_acquire);
      std::memcpy(dst + i * sizeof word, &word, sizeof word);
    }
    return s.seq.load(std::memory_order_relaxed) == gen;
  }

  /// Total appends, unwrapped — the only field the writer stores to.
  par::CachePadded<std::atomic<std::uint64_t>> head_{};
  std::vector<Slot> slots_;
};

/// Per-thread Extra of a recorder that needs only the ring.
struct NoExtra {};

template <class T, class Extra = NoExtra>
class RecorderCore {
 public:
  using Clock = std::chrono::steady_clock;

  /// One recording thread's state.
  struct State {
    ThreadRing<T> ring;
    Extra extra;
  };

  /// A snapshot record plus the dense id of the thread that wrote it.
  struct Tagged {
    T record;
    std::uint32_t tid = 0;
  };

  /// `capacity` records per thread (0 is clamped to 1); `makeExtra`
  /// builds a thread's Extra on its first local() call.
  explicit RecorderCore(
      std::size_t capacity,
      std::function<Extra()> makeExtra = [] { return Extra{}; })
      : capacity_(capacity),
        makeExtra_(std::move(makeExtra)),
        epoch_(Clock::now()),
        id_(nextId_.fetch_add(1, std::memory_order_relaxed)) {}
  RecorderCore(const RecorderCore&) = delete;
  RecorderCore& operator=(const RecorderCore&) = delete;

  /// ns from the core's construction to `t`, clamped at 0: a record whose
  /// time predates the recorder (e.g. a request submitted before tracing
  /// was attached) lands at 0 instead of at a negative stamp.
  std::int64_t sinceEpochNs(Clock::time_point t) const {
    return std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
               .count());
  }
  std::int64_t nowNs() const { return sinceEpochNs(Clock::now()); }

  /// The calling thread's state. Its first call builds the state under
  /// the mutex; after that this is lock-free and allocation-free.
  State& local() {
    if (tls_.owner == id_) return *tls_.state;
    return registerThisThread();
  }

  /// Append `v` to the calling thread's ring (drop-oldest).
  void push(const T& v) { local().ring.push(v); }

  /// fn(tid, state) for every registered thread in tid order; a thread's
  /// tid is its registration index. Holds the mutex throughout, so a
  /// thread's first local() call waits for it.
  template <class Fn>
  void forEach(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t tid = 0; tid < states_.size(); ++tid)
      fn(std::uint32_t(tid), static_cast<const State&>(*states_[tid]));
  }

  /// Every whole resident record as Out{record, tid}, in (tid, record
  /// order), oldest first per thread, from one pass over the rings.
  /// `dropped`, when given, receives the records appended before this
  /// cut that it does not return (ring wrap, including mid-copy
  /// overwrites). Safe to run while threads record.
  template <class Out = Tagged>
  std::vector<Out> snapshot(std::uint64_t* dropped = nullptr) const {
    std::vector<Out> out;
    std::uint64_t lost = 0;
    forEach([&](std::uint32_t tid, const State& st) {
      lost += st.ring.read([&](const T& v) { out.push_back(Out{v, tid}); });
    });
    if (dropped != nullptr) *dropped = lost;
    return out;
  }

  /// Records overwritten because a ring was full, over every thread.
  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    forEach([&](std::uint32_t, const State& st) { n += st.ring.dropped(); });
    return n;
  }

  /// Records resident now, over every thread (drops excluded).
  std::size_t size() const {
    std::size_t n = 0;
    forEach([&](std::uint32_t, const State& st) { n += st.ring.size(); });
    return n;
  }

 private:
  struct Tls {
    std::uint64_t owner = 0;
    State* state = nullptr;
  };
  /// Ids only need to be unique per core type: so is the slot.
  static inline std::atomic<std::uint64_t> nextId_{1};
  static inline thread_local Tls tls_{};

  State& registerThisThread() {
    const std::lock_guard<std::mutex> lock(mu_);
    State*& slot = registered_[std::this_thread::get_id()];
    if (slot == nullptr) {
      states_.push_back(std::unique_ptr<State>(
          new State{ThreadRing<T>(capacity_), makeExtra_()}));
      slot = states_.back().get();
    }
    tls_ = {id_, slot};
    return *slot;
  }

  const std::size_t capacity_;
  const std::function<Extra()> makeExtra_;
  const Clock::time_point epoch_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<State>> states_;
  std::unordered_map<std::thread::id, State*> registered_;
};

/// The one cut every snapshot surface renders through: drops the records
/// `keep` rejects, then keeps the `limit` newest by key(record) — a time
/// stamp — ordered oldest first. Ties keep snapshot order.
template <class R, class Keep, class Key>
void keepNewest(std::vector<R>& records, std::size_t limit, Keep keep,
                Key key) {
  records.erase(std::remove_if(records.begin(), records.end(),
                               [&](const R& r) { return !keep(r); }),
                records.end());
  std::stable_sort(records.begin(), records.end(),
                   [&](const R& a, const R& b) { return key(a) < key(b); });
  if (records.size() > limit)
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(limit));
}

}  // namespace hsd::obs
