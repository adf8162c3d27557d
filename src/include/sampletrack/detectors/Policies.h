//===- sampletrack/detectors/Policies.h - Engine policies ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of each timestamping algorithm the paper
/// evaluates, shared by the offline detectors (PolicyDetector) and the
/// online runtime (rt::Runtime):
///
///  - FastTrackPolicy: "FT" over epoch histories, "Djit+" (Algorithm 1)
///    over vector-clock histories,
///  - SamplingNaivePolicy: "ST", Algorithm 2,
///  - SamplingUClockPolicy: "SU", Algorithm 3,
///  - SamplingOrderedListPolicy: "SO", Algorithm 4,
///  - TreeClockPolicy: "TC", the Section 7 tree-clock ablation (offline
///    only).
///
/// A policy has three parts: per-thread state (\c Thread), per-sync-object
/// state (\c Sync) and the handlers. Access handlers check and update one
/// variable's access history (\c History) and report each race through a
/// callback; sync handlers update thread and sync state. Every handler
/// counts its work into the Metrics it is given. A default-constructed
/// Sync is a sync object nobody has released yet: the handlers read it as
/// bottom and allocate its clocks only when something is stored into it.
///
/// Callers own storage and concurrency. The offline detectors keep flat
/// vectors and run single-threaded. The runtime runs a Sync's handlers
/// under that object's mutex and a History's under its shadow shard lock,
/// with per-thread Metrics. SO's acquire comes in two parts for it: an
/// O(1) snapshot read under the mutex, and the prefix traversal, which
/// needs only the pinned snapshot and thread-owned state.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_POLICIES_H
#define SAMPLETRACK_DETECTORS_POLICIES_H

#include "sampletrack/detectors/Metrics.h"
#include "sampletrack/support/OrderedList.h"
#include "sampletrack/support/SnapshotPool.h"
#include "sampletrack/support/TreeClock.h"
#include "sampletrack/support/VectorClock.h"

#include <vector>

namespace sampletrack {

/// How an engine represents access histories (Cw_x / Cr_x).
///
/// The paper presents Djit+-style vector-clock histories (Algorithms 1 and
/// 2) and notes that FastTrack's epoch optimization "is independent of our
/// innovations" (Section 2.1): under sampling, Proposition 3 makes the
/// scalar epoch comparison exact for marked events, so histories can be
/// epochs with adaptive read promotion exactly as in FastTrack, cutting the
/// per-access cost from O(T) to amortized O(1). Djit+ and FT are the same
/// policy over the two kinds.
enum class HistoryKind {
  VectorClocks, ///< Algorithm 2 as printed: full Cw/Cr vector clocks.
  Epochs,       ///< FastTrack-style write epoch + adaptive read history.
};

using ListPool = SnapshotPool<OrderedList>;

/// FastTrack's access history: a write epoch and a read epoch, the latter
/// promoted to a read vector clock once concurrent reads are seen. FT uses
/// it, and so do the sampling engines under HistoryKind::Epochs.
struct EpochHistory {
  ThreadId WTid = 0;
  ThreadId RTid = 0;
  ClockValue WClk = 0;
  ClockValue RClk = 0;
  /// The read clock, sized at the first promotion.
  VectorClock R;
  bool ReadShared = false;

  /// Forgets the history, keeping R's storage for reuse.
  void reset() {
    WTid = RTid = 0;
    WClk = RClk = 0;
    R.clear();
    ReadShared = false;
  }
};

/// Algorithm 2's access history: write and read vector clocks, each sized
/// on first use (an unsized clock is bottom).
struct VectorHistory {
  VectorClock W, R;

  /// Forgets the history, keeping the clocks' storage for reuse.
  void reset() {
    W.clear();
    R.clear();
  }
};

/// What every policy has: the clock width, and the access handlers of both
/// history kinds. \p ThreadT supplies the accessing thread's (effective)
/// clock: epoch(T), at(T, Of), covers(T, H) and snapshot(T, Out).
class PolicyBase {
public:
  explicit PolicyBase(size_t NumThreads) : NumThreads(NumThreads) {}

  /// Routes snapshot buffers through (or around) a SnapshotPool. Only the
  /// copy-on-write policies (SO, TC) have any.
  void setPoolingEnabled(bool) {}

  /// FastTrack's read check over an epoch history.
  template <typename ThreadT, typename RaceFn>
  void read(const ThreadT &TS, ThreadId T, EpochHistory &H, Metrics &M,
            RaceFn &&Race) {
    ClockValue Now = TS.epoch(T);
    // Same-epoch fast path: this exact read is already recorded.
    if (!H.ReadShared && H.RTid == T && H.RClk == Now)
      return;
    if (H.ReadShared && H.R.get(T) == Now)
      return;
    ++M.RaceChecks;
    // Write-read race. Under sampling, Proposition 3 makes the scalar
    // comparison against the effective clock exact for marked events.
    if (H.WClk > TS.at(T, H.WTid))
      Race();
    if (H.ReadShared) {
      H.R.set(T, Now);
      return;
    }
    if (H.RClk <= TS.at(T, H.RTid)) {
      // Reads stay thread-exclusive: the previous read happens-before us.
      H.RTid = T;
      H.RClk = Now;
      return;
    }
    // Concurrent reads: promote to a read vector clock.
    if (H.R.size())
      H.R.clear();
    else
      H.R = VectorClock(NumThreads);
    ++M.FullClockOps;
    H.R.set(H.RTid, H.RClk);
    H.R.set(T, Now);
    H.ReadShared = true;
  }

  /// FastTrack's write check over an epoch history.
  template <typename ThreadT, typename RaceFn>
  void write(const ThreadT &TS, ThreadId T, EpochHistory &H, Metrics &M,
             RaceFn &&Race) {
    ClockValue Now = TS.epoch(T);
    if (H.WTid == T && H.WClk == Now)
      return;
    ++M.RaceChecks;
    if (H.WClk > TS.at(T, H.WTid))
      Race();
    if (H.ReadShared) {
      ++M.FullClockOps;
      if (!TS.covers(T, H.R))
        Race();
      // Demote: this write supersedes the read set.
      H.R.clear();
      H.RTid = 0;
      H.RClk = 0;
      H.ReadShared = false;
    } else if (H.RClk > TS.at(T, H.RTid)) {
      Race();
    }
    H.WTid = T;
    H.WClk = Now;
  }

  /// Algorithm 2's read check over vector-clock histories (Djit+'s, with
  /// the thread's full clock as the effective clock).
  template <typename ThreadT, typename RaceFn>
  void read(const ThreadT &TS, ThreadId T, VectorHistory &H, Metrics &M,
            RaceFn &&Race) {
    ++M.RaceChecks;
    if (H.W.size() && !TS.covers(T, H.W))
      Race();
    if (!H.R.size())
      H.R = VectorClock(NumThreads);
    H.R.set(T, TS.epoch(T));
  }

  /// Algorithm 2's write check over vector-clock histories.
  template <typename ThreadT, typename RaceFn>
  void write(const ThreadT &TS, ThreadId T, VectorHistory &H, Metrics &M,
             RaceFn &&Race) {
    ++M.RaceChecks;
    if ((H.R.size() && !TS.covers(T, H.R)) ||
        (H.W.size() && !TS.covers(T, H.W)))
      Race();
    if (!H.W.size())
      H.W = VectorClock(NumThreads);
    TS.snapshot(T, H.W);
    ++M.FullClockOps;
  }

protected:
  /// Re-owns the snapshot \p R before its owner mutates it (lazy
  /// copy-on-write): in place when every published reference has been
  /// dropped (only the owner mints new ones), else a pooled deep copy.
  template <typename T>
  static void ensureOwned(SnapshotPool<T> &Pool,
                          typename SnapshotPool<T>::Ref &R, bool &Shared,
                          Metrics &M) {
    if (!Shared)
      return;
    if (R.unique()) {
      Shared = false;
      return;
    }
    ++M.CowBreaks;
    bool Reused = false;
    typename SnapshotPool<T>::Ref Copy = Pool.acquire(&Reused);
    M.PoolHits += Reused ? 1 : 0;
    *Copy = *R; // Flat copy; readers keep the immutable snapshot.
    R = std::move(Copy);
    Shared = false;
    ++M.DeepCopies;
    ++M.FullClockOps;
  }

  const size_t NumThreads;
};

//===----------------------------------------------------------------------===//
// FT: FastTrack
//===----------------------------------------------------------------------===//

/// Full happens-before analysis: every access is checked, every sync
/// event pays one whole-clock join or copy. Over epoch histories this is
/// FastTrack (Flanagan & Freund, PLDI 2009), "FT"; over vector-clock
/// histories it is Djit+ (Algorithm 1), the baseline the sampling
/// timestamps are defined against (Section 2.1).
class FastTrackPolicy : public PolicyBase {
public:
  static constexpr bool SkipUnsampled = false;
  static constexpr bool ForeignHook = false;
  static constexpr bool SplitAcquire = false;
  /// The history the online runtime keeps.
  using History = EpochHistory;

  struct Thread {
    /// The thread's vector clock; its own component is the current epoch.
    VectorClock C;

    ClockValue epoch(ThreadId Self) const { return C.get(Self); }
    ClockValue at(ThreadId, ThreadId Of) const { return C.get(Of); }
    bool covers(ThreadId, const VectorClock &H) const { return H.leq(C); }
    void snapshot(ThreadId, VectorClock &Out) const { Out.copyFrom(C); }
  };

  struct Sync {
    VectorClock C;
  };

  using PolicyBase::PolicyBase;

  void initThread(Thread &TS, ThreadId T) const {
    // C_t starts at bottom[t -> 1] (Line 3 of Algorithm 1).
    TS.C = VectorClock(NumThreads);
    TS.C.set(T, 1);
  }

  void acquire(Thread &TS, ThreadId, Sync &S, Metrics &M) const {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    ++M.FullClockOps;
    if (S.C.size()) // A never-released sync object is bottom.
      TS.C.joinWith(S.C);
  }
  void release(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    ++M.FullClockOps;
    S.C.copyFrom(TS.C);
    TS.C.bump(T);
  }
  void releaseStore(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    release(TS, T, S, M);
  }
  void releaseJoin(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    ++M.FullClockOps;
    if (S.C.size())
      S.C.joinWith(TS.C);
    else
      S.C.copyFrom(TS.C);
    TS.C.bump(T);
  }
  void fork(Thread &P, ThreadId Parent, Thread &C, ThreadId,
            Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    ++M.FullClockOps;
    C.C.joinWith(P.C);
    P.C.bump(Parent);
  }
  void join(Thread &P, ThreadId, Thread &C, ThreadId Child,
            Metrics &M) const {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    ++M.FullClockOps;
    P.C.joinWith(C.C);
    C.C.bump(Child);
  }
};

//===----------------------------------------------------------------------===//
// Shared sampling core (Algorithm 2's access handlers and local epoch)
//===----------------------------------------------------------------------===//

/// Per-thread state every sampling engine has: the live local epoch e_t
/// and the dirty bit implementing RelAfter_S (Eq. 5).
struct SamplingThread {
  /// e_t; starts at 1 (Algorithm 2, Line 3).
  ClockValue Epoch = 1;
  /// A sampled event happened since the last release-like event (the
  /// guard of Algorithm 2, Line 19).
  bool Dirty = false;

  ClockValue epoch(ThreadId) const { return Epoch; }
};

/// The access handlers of Algorithm 2, identical across ST/SU/SO (the
/// paper presents them once): PolicyBase's checks over the effective clock
/// C_t[t -> e_t], plus the dirty bit. Only sampled accesses reach them, so
/// their total work is O(|S| T) with vector-clock histories and amortized
/// O(|S|) with epochs. A sampled access analyzed by another shard still
/// sets the dirty bit (ForeignHook).
class SamplingPolicyBase : public PolicyBase {
public:
  static constexpr bool SkipUnsampled = true;
  static constexpr bool ForeignHook = true;
  /// The history the online runtime keeps.
  using History = VectorHistory;
  using PolicyBase::PolicyBase;

  template <typename ThreadT, typename HistoryT, typename RaceFn>
  void read(ThreadT &TS, ThreadId T, HistoryT &H, Metrics &M,
            RaceFn &&Race) {
    TS.Dirty = true;
    PolicyBase::read(TS, T, H, M, Race);
  }

  template <typename ThreadT, typename HistoryT, typename RaceFn>
  void write(ThreadT &TS, ThreadId T, HistoryT &H, Metrics &M,
             RaceFn &&Race) {
    TS.Dirty = true;
    PolicyBase::write(TS, T, H, M, Race);
  }
};

//===----------------------------------------------------------------------===//
// ST: Algorithm 2
//===----------------------------------------------------------------------===//

/// ST: the sampling timestamp C_sam with naive communication. Local clocks
/// advance only at the first release after a sampled event, but every sync
/// event still pays a whole-clock operation.
class SamplingNaivePolicy : public SamplingPolicyBase {
public:
  static constexpr bool SplitAcquire = false;

  struct Thread : SamplingThread {
    /// The sampling clock C_t. Unlike Djit+, it starts at bottom: C_t(t)
    /// is the local time of the last *sampled* event.
    VectorClock C;

    ClockValue at(ThreadId Self, ThreadId Of) const {
      return Of == Self ? Epoch : C.get(Of);
    }
    bool covers(ThreadId Self, const VectorClock &H) const {
      return H.leqWithOverride(C, Self, Epoch);
    }
    void snapshot(ThreadId Self, VectorClock &Out) const {
      Out.copyFrom(C);
      Out.set(Self, Epoch);
    }
  };

  struct Sync {
    VectorClock C;
  };

  using SamplingPolicyBase::SamplingPolicyBase;

  void initThread(Thread &TS, ThreadId) const {
    TS.C = VectorClock(NumThreads);
  }

  /// Lines 19-21 of Algorithm 2: publish e_t if the thread performed a
  /// sampled event since its last release-like event.
  void flush(Thread &TS, ThreadId T) const {
    if (!TS.Dirty)
      return;
    TS.C.set(T, TS.Epoch++);
    TS.Dirty = false;
  }

  void acquire(Thread &TS, ThreadId, Sync &S, Metrics &M) const {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    ++M.FullClockOps;
    if (S.C.size()) // A never-released sync object is bottom.
      TS.C.joinWith(S.C);
  }
  void release(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(TS, T);
    ++M.FullClockOps;
    S.C.copyFrom(TS.C);
  }
  void releaseStore(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    release(TS, T, S, M);
  }
  void releaseJoin(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(TS, T);
    ++M.FullClockOps;
    if (S.C.size())
      S.C.joinWith(TS.C);
    else
      S.C.copyFrom(TS.C);
  }
  /// A fork is a release-like edge: flush the parent's epoch so the child
  /// sees the sampled events before the fork, then join thread to thread.
  void fork(Thread &P, ThreadId Parent, Thread &C, ThreadId,
            Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(P, Parent);
    ++M.FullClockOps;
    C.C.joinWith(P.C);
  }
  void join(Thread &P, ThreadId, Thread &C, ThreadId Child,
            Metrics &M) const {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    flush(C, Child);
    ++M.FullClockOps;
    P.C.joinWith(C.C);
  }
};

//===----------------------------------------------------------------------===//
// SU: Algorithm 3
//===----------------------------------------------------------------------===//

/// SU: sampling clocks plus freshness clocks U counting per-entry updates
/// (the VT timestamp, Eq. 9). Scalar freshness comparisons let acquires
/// skip joins that bring nothing new (Proposition 5) and releases skip
/// copies the sync object already holds.
///
/// Non-mutex synchronization follows appendix A.2: a release-store may
/// skip only as a monotone update, i.e. when the storing thread observed
/// the object's current content; a release-join makes the object
/// multi-source, which disables acquire-side skips until the next
/// exclusive release.
class SamplingUClockPolicy : public SamplingPolicyBase {
public:
  static constexpr bool SplitAcquire = false;

  /// ST's thread state plus the freshness clock U_t.
  struct Thread : SamplingNaivePolicy::Thread {
    VectorClock U;
  };

  struct Sync {
    VectorClock C, U;
    /// Thread that performed the last exclusive release (LR_l), or
    /// NoThread.
    ThreadId LastReleaser = NoThread;
    /// Set by release-joins: the content blends several threads and the
    /// scalar freshness check no longer applies (A.2).
    bool MultiSource = false;
    /// AcquiredSince[t]: thread t imported the current content, so a
    /// release-store by t is a monotone update. Sized on first use.
    std::vector<bool> AcquiredSince;
  };

  using SamplingPolicyBase::SamplingPolicyBase;

  void initThread(Thread &TS, ThreadId) const {
    TS.C = VectorClock(NumThreads);
    TS.U = VectorClock(NumThreads);
  }

  /// Algorithm 2's epoch flush; publishing the epoch is itself one entry
  /// update (Line 17 of Algorithm 3).
  void flush(Thread &TS, ThreadId T) const {
    if (!TS.Dirty)
      return;
    TS.C.set(T, TS.Epoch++);
    TS.U.bump(T);
    TS.Dirty = false;
  }

  void acquire(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.AcquiresTotal;
    markObserved(S, T);
    // The freshness check of Line 7: if the acquirer already knows the
    // releaser's clock at the version the lock holds, the join is
    // redundant (Proposition 5). A never-released lock is bottom.
    if (!S.MultiSource &&
        (S.LastReleaser == NoThread ||
         componentOf(S.U, S.LastReleaser) <= TS.U.get(S.LastReleaser))) {
      ++M.AcquiresSkipped;
      return;
    }
    ++M.AcquiresProcessed;
    joinClocks(TS, T, S.C, S.U, M);
  }

  void release(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    flush(TS, T);
    S.LastReleaser = T;
    S.MultiSource = false;
    // Mutex discipline: T acquired the lock before, so the copy is a
    // monotone update and the skip of Line 19 is sound.
    if (TS.U.get(T) == componentOf(S.U, T)) {
      ++M.ReleasesSkipped;
      markObserved(S, T);
      return;
    }
    store(TS, T, S, M);
  }

  void releaseStore(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    flush(TS, T);
    bool Monotone = !S.MultiSource && observed(S, T);
    S.LastReleaser = T;
    S.MultiSource = false;
    if (Monotone && TS.U.get(T) == componentOf(S.U, T)) {
      ++M.ReleasesSkipped;
      markObserved(S, T);
      return;
    }
    store(TS, T, S, M);
  }

  void releaseJoin(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(TS, T);
    if (!S.C.size()) {
      S.C = VectorClock(NumThreads);
      S.U = VectorClock(NumThreads);
    }
    S.C.joinWith(TS.C);
    S.U.joinWith(TS.U);
    M.FullClockOps += 2;
    S.MultiSource = true;
    S.LastReleaser = T;
    // Nobody, T included, is known to dominate the blended content.
    S.AcquiredSince.assign(NumThreads, false);
  }

  void fork(Thread &P, ThreadId Parent, Thread &C, ThreadId Child,
            Metrics &M) const {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(P, Parent);
    joinClocks(C, Child, P.C, P.U, M);
  }
  void join(Thread &P, ThreadId Parent, Thread &C, ThreadId Child,
            Metrics &M) const {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    flush(C, Child);
    joinClocks(P, Parent, C.C, C.U, M);
  }

private:
  /// Component \p I of \p C, reading a never-allocated clock as bottom.
  static ClockValue componentOf(const VectorClock &C, ThreadId I) {
    return C.size() ? C.get(I) : 0;
  }
  static bool observed(const Sync &S, ThreadId T) {
    return T < S.AcquiredSince.size() && S.AcquiredSince[T];
  }
  void markObserved(Sync &S, ThreadId T) const {
    if (S.AcquiredSince.empty())
      S.AcquiredSince.assign(NumThreads, false);
    S.AcquiredSince[T] = true;
  }

  /// Lines 8-12: joins U, joins C counting the changed entries, and
  /// charges each change to U_t(t) (one tick of Eq. 9 per entry).
  static void joinClocks(Thread &D, ThreadId Dst, const VectorClock &C,
                         const VectorClock &U, Metrics &M) {
    D.U.joinWith(U);
    ++M.FullClockOps;
    unsigned Changed = D.C.joinCountingChanges(C);
    ++M.FullClockOps;
    D.U.bump(Dst, Changed);
  }

  /// The unskipped exclusive release: copy both clocks; T alone has
  /// observed the new content.
  void store(Thread &TS, ThreadId T, Sync &S, Metrics &M) const {
    S.C.copyFrom(TS.C);
    S.U.copyFrom(TS.U);
    M.FullClockOps += 2;
    ++M.ReleasesProcessed;
    S.AcquiredSince.assign(NumThreads, false);
    S.AcquiredSince[T] = true;
  }
};

//===----------------------------------------------------------------------===//
// SO: Algorithm 4
//===----------------------------------------------------------------------===//

/// SO: sampling clocks stored in ordered lists, shared between threads and
/// sync objects by reference with copy-on-write, plus the scalar freshness
/// check. A release is O(1); an acquire traverses only the
/// U_l - U_t(LR_l) freshest list entries (Proposition 6).
///
/// Snapshot lifecycle: a release publishes the thread's list by reference;
/// the owner's next mutation re-owns it, in place when every published
/// reference has since been dropped, or by a pooled deep copy (a CowBreak)
/// when a sync object still holds it.
///
/// LocalEpochOpt (Section 6.1) carries the thread's own component next to
/// the list as a scalar, so publishing a new local epoch never forces a
/// deep copy. Release-stores are releases: a shallow snapshot has
/// replacement semantics by construction (A.2). Release-joins convert the
/// sync object to an owned blended vector clock (multi-source), which
/// acquires join in full.
class SamplingOrderedListPolicy : public SamplingPolicyBase {
public:
  static constexpr bool SplitAcquire = true;

  struct Thread : SamplingThread {
    ListPool::Ref O;
    /// shared_t of Algorithm 4: sync objects may reference O, so it must
    /// be re-owned before mutation.
    bool Shared = false;
    VectorClock U;
    /// The paper's C_t(t), the local time of the last sampled event. Under
    /// LocalEpochOpt this is authoritative and the list entry may lag.
    ClockValue OwnTime = 0;

    /// C_t(Of): the list entry, except the out-of-line own component.
    ClockValue component(ThreadId Self, ThreadId Of) const {
      return Of == Self ? OwnTime : O->get(Of);
    }
    ClockValue at(ThreadId Self, ThreadId Of) const {
      return Of == Self ? Epoch : O->get(Of);
    }
    /// The only possibly stale list entry is the thread's own, and the
    /// effective-epoch override replaces it anyway (e_t >= OwnTime).
    bool covers(ThreadId Self, const VectorClock &H) const {
      return O->dominatesWithOverride(H, Self, Epoch);
    }
    void snapshot(ThreadId Self, VectorClock &Out) const {
      O->toVectorClock(Out, Self, Epoch);
    }
  };

  struct Sync {
    /// Single-source snapshot, immutable while shared.
    ListPool::ConstRef Ref;
    ThreadId LastReleaser = NoThread;
    /// U_l: the releaser's own freshness count at release.
    ClockValue UScalar = 0;
    /// The releaser's C_t(t) at release, carried as a scalar so releases
    /// stay O(1) under LocalEpochOpt.
    ClockValue OwnTimeAtRelease = 0;
    /// Multi-source (release-join) content in C/U, joined without skips.
    bool MultiSource = false;
    VectorClock C, U;
  };

  /// The part of an acquire that runs after the snapshot read.
  struct Prefix {
    const OrderedList *List = nullptr;
    /// Keeps List alive while it is traversed outside the sync's lock.
    ListPool::ConstRef Pin;
    ThreadId LastReleaser = NoThread;
    ClockValue OwnTimeAtRelease = 0;
    size_t Length = 0;
  };

  explicit SamplingOrderedListPolicy(size_t NumThreads,
                                     bool LocalEpochOpt = true)
      : SamplingPolicyBase(NumThreads), LocalEpochOpt(LocalEpochOpt) {}

  void setPoolingEnabled(bool Enabled) { Lists.setEnabled(Enabled); }

  void initThread(Thread &TS, ThreadId) {
    TS.O = Lists.acquire();
    TS.O->reset(NumThreads);
    TS.U = VectorClock(NumThreads);
  }

  /// Algorithm 2's epoch flush. The own component goes out of line under
  /// LocalEpochOpt; without it, into the list, which may force a copy.
  void flush(Thread &TS, ThreadId T, Metrics &M) {
    if (!TS.Dirty)
      return;
    TS.OwnTime = TS.Epoch++;
    TS.Dirty = false;
    TS.U.bump(T);
    if (!LocalEpochOpt) {
      ensureOwned(TS, M);
      TS.O->set(T, TS.OwnTime);
    }
  }

  /// The part of an acquire that reads the sync object: the O(1)
  /// freshness check of Line 7, or the full join of multi-source content
  /// (A.2: no skip applies there). Returns true when a prefix traversal is
  /// owed; \p Pin also pins the snapshot for a traversal outside the
  /// sync's lock.
  bool acquireSnapshot(Thread &TS, ThreadId T, const Sync &S, Metrics &M,
                       Prefix &P, bool Pin) {
    ++M.AcquiresTotal;
    if (S.MultiSource) {
      ++M.AcquiresProcessed;
      joinEntries(TS, T, S.U, [&](ThreadId Of) { return S.C.get(Of); }, M);
      return false;
    }
    if (S.LastReleaser == NoThread) {
      ++M.AcquiresSkipped;
      return false;
    }
    ClockValue Known = TS.U.get(S.LastReleaser);
    if (S.UScalar <= Known) {
      ++M.AcquiresSkipped;
      return false;
    }
    ++M.AcquiresProcessed;
    TS.U.set(S.LastReleaser, S.UScalar);
    P.List = S.Ref.get();
    if (Pin)
      P.Pin = S.Ref;
    P.LastReleaser = S.LastReleaser;
    P.OwnTimeAtRelease = S.OwnTimeAtRelease;
    P.Length = static_cast<size_t>(S.UScalar - Known);
    return true;
  }

  /// The traversal: the releaser's out-of-line component, then only the
  /// first U_l - U_t(LR_l) list entries, which are the only ones that can
  /// be ahead of us (Proposition 6).
  void acquirePrefix(Thread &TS, ThreadId T, const Prefix &P, Metrics &M) {
    unsigned Changed = 0;
    ++M.EntriesTraversed;
    Changed += applyEntry(TS, T, P.LastReleaser, P.OwnTimeAtRelease, M);
    P.List->visitPrefix(P.Length, [&](ThreadId Of, ClockValue Val) {
      ++M.EntriesTraversed;
      Changed += applyEntry(TS, T, Of, Val, M);
    });
    M.TraversalOpportunities += NumThreads;
    TS.U.bump(T, Changed);
  }

  void acquire(Thread &TS, ThreadId T, const Sync &S, Metrics &M) {
    Prefix P;
    if (acquireSnapshot(TS, T, S, M, P, /*Pin=*/false))
      acquirePrefix(TS, T, P, M);
  }

  /// Lines 24-27: O(1) shallow publication. Once shared, the list is
  /// immutable (copy-on-write).
  void release(Thread &TS, ThreadId T, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    flush(TS, T, M);
    S.Ref = TS.O;
    S.LastReleaser = T;
    S.UScalar = TS.U.get(T);
    S.OwnTimeAtRelease = TS.OwnTime;
    S.MultiSource = false;
    TS.Shared = true;
    ++M.ShallowCopies;
  }
  void releaseStore(Thread &TS, ThreadId T, Sync &S, Metrics &M) {
    release(TS, T, S, M);
  }

  void releaseJoin(Thread &TS, ThreadId T, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(TS, T, M);
    if (!S.MultiSource) {
      if (!S.C.size()) {
        S.C = VectorClock(NumThreads);
        S.U = VectorClock(NumThreads);
      }
      if (S.Ref) {
        // Materialize the single-source snapshot, honoring the releaser's
        // out-of-line component.
        S.Ref->toVectorClock(S.C, S.LastReleaser, S.OwnTimeAtRelease);
        S.U.clear();
        S.U.set(S.LastReleaser, S.UScalar);
        M.FullClockOps += 2;
        S.Ref.reset();
      }
      S.MultiSource = true;
    }
    // Blend this thread's effective clock into the owned content.
    for (ThreadId Of = 0; Of < NumThreads; ++Of) {
      ClockValue Val = TS.component(T, Of);
      if (Val > S.C.get(Of))
        S.C.set(Of, Val);
    }
    S.U.joinWith(TS.U);
    M.FullClockOps += 2;
  }

  /// Fork and join are direct thread-to-thread edges: the receiver imports
  /// the sender's whole effective clock and freshness clock.
  void fork(Thread &P, ThreadId Parent, Thread &C, ThreadId Child,
            Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    flush(P, Parent, M);
    joinEntries(C, Child, P.U,
                [&](ThreadId Of) { return P.component(Parent, Of); }, M);
  }
  void join(Thread &P, ThreadId Parent, Thread &C, ThreadId Child,
            Metrics &M) {
    ++M.AcquiresTotal;
    ++M.AcquiresProcessed;
    flush(C, Child, M);
    joinEntries(P, Parent, C.U,
                [&](ThreadId Of) { return C.component(Child, Of); }, M);
  }

private:
  void ensureOwned(Thread &TS, Metrics &M) {
    PolicyBase::ensureOwned(Lists, TS.O, TS.Shared, M);
  }

  /// Applies one foreign entry; returns 1 if it strictly increased. A
  /// thread's own component is authored locally and is never stale.
  unsigned applyEntry(Thread &TS, ThreadId T, ThreadId Of, ClockValue Val,
                      Metrics &M) {
    if (Of == T || Val <= TS.O->get(Of))
      return 0;
    ensureOwned(TS, M);
    TS.O->set(Of, Val);
    return 1;
  }

  /// Full join of the clock \p Src (one value per thread) and freshness
  /// clock \p U into thread \p T, without the freshness skip.
  template <typename SourceFn>
  void joinEntries(Thread &TS, ThreadId T, const VectorClock &U,
                   SourceFn &&Src, Metrics &M) {
    TS.U.joinWith(U);
    ++M.FullClockOps;
    unsigned Changed = 0;
    for (ThreadId Of = 0; Of < NumThreads; ++Of) {
      ++M.EntriesTraversed;
      Changed += applyEntry(TS, T, Of, Src(Of), M);
    }
    M.TraversalOpportunities += NumThreads;
    ++M.FullClockOps;
    TS.U.bump(T, Changed);
  }

  const bool LocalEpochOpt;
  ListPool Lists;
};

//===----------------------------------------------------------------------===//
// TC: the tree-clock ablation (Section 7)
//===----------------------------------------------------------------------===//

using TreeClockPool = SnapshotPool<TreeClock>;

/// Tree clocks are an optimal structure for the full happens-before
/// relation, but they cannot soundly prune joins under the sampling
/// timestamp: one component value may stand for growing knowledge, which
/// defeats value-based subtree pruning. So this ablation computes full-HB
/// timestamps in tree clocks, advancing the local component at every
/// release as FastTrack does, and checks only sampled accesses.
/// bench_ablation_treeclock compares its acquire-side traversal work
/// against SO's ordered-list prefix walks.
///
/// Sync objects hold copy-on-write snapshots of the releasing thread's
/// tree. Full-HB timestamps change at every release, so the releaser's
/// next mutation almost always pays a deep copy: the redundancy the
/// sampling timestamp removes. Release-joins fall back conservatively to
/// release-stores (replacement); the ablation runs on mutex and fork/join
/// traces only.
class TreeClockPolicy : public PolicyBase {
public:
  static constexpr bool SkipUnsampled = true;
  static constexpr bool ForeignHook = false;

  struct Thread {
    TreeClockPool::Ref TC;
    /// Sync objects may reference TC, so it must be re-owned before
    /// mutation.
    bool Shared = false;

    ClockValue epoch(ThreadId Self) const { return TC->get(Self); }
    ClockValue at(ThreadId, ThreadId Of) const { return TC->get(Of); }
    bool covers(ThreadId, const VectorClock &H) const {
      for (ThreadId I = 0; I < H.size(); ++I)
        if (H.get(I) > TC->get(I))
          return false;
      return true;
    }
    void snapshot(ThreadId, VectorClock &Out) const { TC->toVectorClock(Out); }
  };

  struct Sync {
    /// Published snapshot; immutable while shared.
    TreeClockPool::ConstRef Ref;
  };

  using PolicyBase::PolicyBase;

  void setPoolingEnabled(bool Enabled) { Clocks.setEnabled(Enabled); }

  void initThread(Thread &TS, ThreadId T) {
    TS.TC = Clocks.acquire();
    TS.TC->reset(NumThreads, T);
    // Full-HB local time starts at 1, as in Djit+ and FastTrack.
    TS.TC->setRootTime(1);
  }

  void acquire(Thread &TS, ThreadId, const Sync &S, Metrics &M) {
    ++M.AcquiresTotal;
    if (!S.Ref) {
      ++M.AcquiresSkipped;
      return;
    }
    joinInto(TS, *S.Ref, M);
  }
  /// Publishes a snapshot, then advances local time.
  void release(Thread &TS, ThreadId, Sync &S, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    S.Ref = TS.TC;
    TS.Shared = true;
    ++M.ShallowCopies;
    advance(TS, M);
  }
  void releaseStore(Thread &TS, ThreadId T, Sync &S, Metrics &M) {
    release(TS, T, S, M);
  }
  void releaseJoin(Thread &TS, ThreadId T, Sync &S, Metrics &M) {
    release(TS, T, S, M);
  }
  /// The child's import counts as acquire-side work, as in the other
  /// engines.
  void fork(Thread &P, ThreadId, Thread &C, ThreadId, Metrics &M) {
    ++M.ReleasesTotal;
    ++M.ReleasesProcessed;
    ++M.AcquiresTotal;
    joinInto(C, *P.TC, M);
    advance(P, M);
  }
  void join(Thread &P, ThreadId, Thread &C, ThreadId, Metrics &M) {
    ++M.AcquiresTotal;
    joinInto(P, *C.TC, M);
    advance(C, M);
  }

private:
  void advance(Thread &TS, Metrics &M) {
    ensureOwned(Clocks, TS.TC, TS.Shared, M);
    TS.TC->incrementRoot();
  }

  /// Joins \p Src into \p TS's clock. Fast path: under full-HB timestamps
  /// equal root values imply equal knowledge, since the local component
  /// advances at every release.
  void joinInto(Thread &TS, const TreeClock &Src, Metrics &M) {
    if (Src.get(Src.root()) <= TS.TC->get(Src.root())) {
      ++M.AcquiresSkipped;
      return;
    }
    ensureOwned(Clocks, TS.TC, TS.Shared, M);
    M.EntriesTraversed += TS.TC->joinFrom(Src);
    M.TraversalOpportunities += NumThreads;
    ++M.AcquiresProcessed;
  }

  TreeClockPool Clocks;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_POLICIES_H
