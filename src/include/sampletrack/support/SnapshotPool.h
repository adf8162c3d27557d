//===- sampletrack/support/SnapshotPool.h - Pooled CoW snapshots -*- C++ -*-==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A free-list pool of refcounted snapshot buffers (OrderedList, TreeClock)
/// backing the zero-allocation hot path of the copy-on-write publish
/// scheme (Algorithm 4's shared lists, and the analogous tree-clock
/// buffers).
///
/// The cycle: a thread publishes its clock as an immutable shared snapshot
/// (a cheap \ref SnapshotPool::Ref copy), keeps mutating only after a
/// CoW break, and the break's replacement buffer comes from the pool's
/// free list instead of the allocator. When the last reference to a buffer
/// drops — typically when a sync object's snapshot is overwritten by a
/// newer release — the buffer (vector capacity and all) returns to the
/// free list, so a steady-state run recycles a small working set of
/// buffers instead of allocating one per deep copy.
///
/// Refs also expose \ref Ref::unique, which is what makes the copy *lazy*:
/// an owner whose publication has since been dropped by every reader can
/// simply resume mutating in place — copy only when contended.
///
/// Thread-safety is a compile-time sharing mode (\ref PoolSharing):
///   - Concurrent: refs may be copied, dropped and acquired from any thread
///     at once. Refcounts are atomic and a mutex guards the free list. The
///     online Runtime needs this: its threads drop snapshot references that
///     other threads published.
///   - LanePrivate: one thread at a time touches the pool and every ref it
///     minted, so refcounts are plain words and the free list is unlocked.
///     An engine lane (PolicyEngine) owns its pool: its snapshots never
///     leave the lane, and Detector's concurrency contract hands a lane to
///     another thread only across a happens-before edge.
/// In both modes the buffers follow the usual CoW discipline: immutable
/// while shared, mutated only by their unique owner.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H
#define SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>

namespace sampletrack {

/// Who may touch a SnapshotPool and its refs at once (see the file
/// comment).
enum class PoolSharing {
  Concurrent,  ///< Any thread: atomic refcounts, a locked free list.
  LanePrivate, ///< One thread at a time: plain refcounts, no lock.
};

/// Free-list pool of intrusively refcounted \p T buffers.
///
/// \p T must be default-constructible; recycled buffers keep their previous
/// contents (that is the point — their heap capacity is the asset), so the
/// caller re-initializes or copy-assigns over them after \ref acquire.
template <typename T, PoolSharing Sharing = PoolSharing::Concurrent>
class SnapshotPool {
  static constexpr bool Concurrent = Sharing == PoolSharing::Concurrent;

  /// A reference count: atomic when Concurrent, a plain word otherwise.
  class Count {
  public:
    explicit Count(uint64_t N) : V(N) {}
    void add() {
      if constexpr (Concurrent)
        V.fetch_add(1, std::memory_order_relaxed);
      else
        ++V;
    }
    /// Drops one reference; true when it was the last.
    bool drop() {
      if constexpr (Concurrent)
        return V.fetch_sub(1, std::memory_order_acq_rel) == 1;
      else
        return --V == 0;
    }
    uint64_t get() const {
      if constexpr (Concurrent)
        return V.load(std::memory_order_acquire);
      else
        return V;
    }
    void set(uint64_t N) {
      if constexpr (Concurrent)
        V.store(N, std::memory_order_relaxed);
      else
        V = N;
    }

  private:
    std::conditional_t<Concurrent, std::atomic<uint64_t>, uint64_t> V;
  };

  /// The free-list lock of a LanePrivate pool: none.
  struct NoLock {
    void lock() {}
    void unlock() {}
  };
  using Lock = std::conditional_t<Concurrent, std::mutex, NoLock>;
  using Guard = std::lock_guard<Lock>;

  struct Core;
  struct Node {
    T Value;
    /// Intrusive reference count: no control-block allocation per snapshot,
    /// unlike std::shared_ptr with a custom deleter.
    Count Refs{0};
    Core *C = nullptr;
    Node *NextFree = nullptr;
  };

  struct Core {
    Lock M;
    Node *FreeHead = nullptr;
    size_t FreeCount = 0;
    bool Dying = false;
    bool Enabled = true;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// One reference per live Node plus one for the pool object itself;
    /// whoever drops the last one frees the Core. This lets outstanding
    /// Refs outlive the pool (they fall back to plain deletion).
    Count CoreRefs{1};
  };

  static void dropCore(Core *C) {
    if (C->CoreRefs.drop())
      delete C;
  }

  static void releaseNode(Node *N) {
    if (!N->Refs.drop())
      return;
    Core *C = N->C;
    bool Recycled = false;
    {
      Guard G(C->M);
      if (!C->Dying && C->Enabled) {
        N->NextFree = C->FreeHead;
        C->FreeHead = N;
        ++C->FreeCount;
        Recycled = true;
      }
    }
    if (!Recycled) {
      delete N;
      dropCore(C);
    }
  }

public:
  /// A shared reference to a pooled buffer. Pointer-sized; copying bumps
  /// the intrusive refcount. When the last Ref drops, the buffer returns
  /// to its pool's free list (or is deleted if the pool is gone).
  class Ref {
  public:
    Ref() = default;
    Ref(const Ref &O) : N(O.N) {
      if (N)
        N->Refs.add();
    }
    Ref(Ref &&O) noexcept : N(O.N) { O.N = nullptr; }
    Ref &operator=(const Ref &O) {
      if (O.N)
        O.N->Refs.add();
      Node *Old = N;
      N = O.N;
      if (Old)
        releaseNode(Old);
      return *this;
    }
    Ref &operator=(Ref &&O) noexcept {
      if (this != &O) {
        Node *Old = N;
        N = O.N;
        O.N = nullptr;
        if (Old)
          releaseNode(Old);
      }
      return *this;
    }
    ~Ref() { reset(); }

    void reset() {
      if (N) {
        releaseNode(N);
        N = nullptr;
      }
    }

    explicit operator bool() const { return N != nullptr; }
    T *get() const { return N ? &N->Value : nullptr; }
    T &operator*() const { return N->Value; }
    T *operator->() const { return &N->Value; }

    /// True iff this is the only reference — the owner may mutate in place
    /// (the lazy-CoW check: no reader holds the published snapshot).
    bool unique() const { return N && N->Refs.get() == 1; }

    /// Identity comparison (same buffer, not same contents); tests use it
    /// to check snapshot sharing and recycling.
    bool operator==(const Ref &O) const { return N == O.N; }
    bool operator!=(const Ref &O) const { return N != O.N; }

  private:
    friend class SnapshotPool;
    explicit Ref(Node *N) : N(N) {}
    Node *N = nullptr;
  };

  /// A read-only reference to a published snapshot: same refcounting as
  /// \ref Ref, const-only access. Sync objects hold their snapshots
  /// through this, restoring the compile-time "immutable while shared"
  /// guarantee the shared_ptr<const T> representation used to give.
  class ConstRef {
  public:
    ConstRef() = default;
    ConstRef(Ref R) : R(std::move(R)) {}
    ConstRef &operator=(Ref O) {
      R = std::move(O);
      return *this;
    }

    void reset() { R.reset(); }
    explicit operator bool() const { return static_cast<bool>(R); }
    const T *get() const { return R.get(); }
    const T &operator*() const { return *R; }
    const T *operator->() const { return R.get(); }

    /// Identity comparison against the owner's mutable ref (tests check
    /// snapshot sharing).
    bool operator==(const Ref &O) const { return R == O; }

  private:
    Ref R;
  };

  SnapshotPool() : C(new Core) {}
  SnapshotPool(const SnapshotPool &) = delete;
  SnapshotPool &operator=(const SnapshotPool &) = delete;

  ~SnapshotPool() {
    Node *Head;
    {
      Guard G(C->M);
      C->Dying = true;
      Head = C->FreeHead;
      C->FreeHead = nullptr;
      C->FreeCount = 0;
    }
    while (Head) {
      Node *N = Head;
      Head = N->NextFree;
      delete N;
      dropCore(C);
    }
    dropCore(C); // The pool's own Core reference.
  }

  /// Returns a buffer with refcount 1. Served from the free list when
  /// possible (\p Reused set true — a PoolHit; the contents are stale and
  /// must be overwritten), else freshly allocated (\p Reused false).
  Ref acquire(bool *Reused = nullptr) {
    Node *N = nullptr;
    {
      Guard G(C->M);
      if (C->Enabled && C->FreeHead) {
        N = C->FreeHead;
        C->FreeHead = N->NextFree;
        --C->FreeCount;
        ++C->Hits;
      } else {
        ++C->Misses;
      }
    }
    if (Reused)
      *Reused = N != nullptr;
    if (!N) {
      C->CoreRefs.add();
      N = new Node;
      N->C = C;
    }
    N->NextFree = nullptr;
    N->Refs.set(1);
    return Ref(N);
  }

  /// Disables (or re-enables) recycling: disabled, every acquire allocates
  /// and every final release deletes — the unpooled reference behavior the
  /// differential harness compares against. Disabling drains the free list.
  void setEnabled(bool Enabled) {
    Node *Head = nullptr;
    {
      Guard G(C->M);
      C->Enabled = Enabled;
      if (!Enabled) {
        Head = C->FreeHead;
        C->FreeHead = nullptr;
        C->FreeCount = 0;
      }
    }
    while (Head) {
      Node *N = Head;
      Head = N->NextFree;
      delete N;
      dropCore(C);
    }
  }

  bool enabled() const {
    Guard G(C->M);
    return C->Enabled;
  }

  /// Buffers currently parked on the free list.
  size_t freeCount() const {
    Guard G(C->M);
    return C->FreeCount;
  }

  /// Acquires served by the free list / by the allocator.
  uint64_t hits() const {
    Guard G(C->M);
    return C->Hits;
  }
  uint64_t misses() const {
    Guard G(C->M);
    return C->Misses;
  }

private:
  Core *C;
};

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_SNAPSHOTPOOL_H
