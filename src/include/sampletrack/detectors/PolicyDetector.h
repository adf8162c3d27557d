//===- sampletrack/detectors/PolicyDetector.h - Offline engine -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline form of an engine policy (sampletrack/detectors/
/// Policies.h). \ref PolicyEngine is the one engine loop every engine runs:
/// plain, non-polymorphic state (the lane's \ref LaneState, the policy,
/// and flat thread, sync and access-history tables) with the batch loops,
/// the per-event reference loop and the handlers they call.
/// \ref PolicyDetector wraps it in the type-erased Detector interface. All
/// six engines are this template: FT and Djit+ over FastTrackPolicy (epoch
/// and vector-clock histories), ST, SU and SO over their sampling
/// policies, and TC over TreeClockPolicy. The online runtime drives the
/// same policies concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_POLICYDETECTOR_H
#define SAMPLETRACK_DETECTORS_POLICYDETECTOR_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/detectors/Policies.h"

#include <algorithm>
#include <type_traits>
#include <vector>

namespace sampletrack {

/// A single-threaded engine over \p Policy. Two policy traits shape its
/// loops:
///   - SkipUnsampled: accesses outside S reach no handler (Algorithm 2,
///     Line 9; TC's sampled race checks). Full analysis (FT, Djit+) checks
///     every access.
///   - ForeignHook: in a sharded run, a sampled access owned by another
///     shard still sets the accessing thread's dirty bit, the one
///     thread-local side effect of the sampling engines' access handlers
///     (it gates the release-side epoch flush, Algorithm 2, Line 19).
///     Every other engine's access handlers are variable-local.
template <typename Policy> struct PolicyEngine : LaneState {
  template <typename... PolicyArgs>
  PolicyEngine(size_t NumThreads, HistoryKind Histories, PolicyArgs... Args)
      : LaneState(NumThreads), Pol(NumThreads, Args...),
        Histories(Histories), Threads(NumThreads) {
    for (size_t T = 0; T < NumThreads; ++T)
      Pol.initThread(Threads[T], static_cast<ThreadId>(T));
  }

  /// The access handler. Unsampled accesses are skipped here when the
  /// policy says so, on every path. The two handlers are inlined into each
  /// loop, so every loop switches on the event kind once.
  [[gnu::always_inline]] void access(const Event &E, bool Sampled) {
    if (Policy::SkipUnsampled && !Sampled)
      return;
    const ThreadId T = E.Tid;
    const VarId X = E.var();
    auto Race = [this, T, X, K = E.Kind] { declareRace(T, X, K); };
    if (Histories == HistoryKind::Epochs)
      accessHistory(E.Kind, T, var(EpochVars, X), Race);
    else
      accessHistory(E.Kind, T, var(VectorVars, X), Race);
  }

  /// The sync handlers. An acquire-load is an acquire.
  [[gnu::always_inline]] void sync(const Event &E) {
    const ThreadId T = E.Tid;
    switch (E.Kind) {
    case OpKind::Acquire:
    case OpKind::AcquireLoad:
      Pol.acquire(Threads[T], T, syncState(E.sync()), Stats);
      break;
    case OpKind::Release:
      Pol.release(Threads[T], T, syncState(E.sync()), Stats);
      break;
    case OpKind::ReleaseStore:
      Pol.releaseStore(Threads[T], T, syncState(E.sync()), Stats);
      break;
    case OpKind::ReleaseJoin:
      Pol.releaseJoin(Threads[T], T, syncState(E.sync()), Stats);
      break;
    case OpKind::Fork:
      Pol.fork(Threads[T], T, Threads[E.childThread()], E.childThread(),
               Stats);
      break;
    case OpKind::Join:
      Pol.join(Threads[T], T, Threads[E.childThread()], E.childThread(),
               Stats);
      break;
    case OpKind::Read:
    case OpKind::Write:
      assert(false && "an access routed as a sync event");
      break;
    }
  }

  /// Sharded runs: a sampled access another shard analyzed (see
  /// ForeignHook above).
  void foreignSampledAccess(ThreadId T) {
    if constexpr (Policy::ForeignHook)
      Threads[T].Dirty = true;
  }

  /// The unsharded batch loop: one lane-guard entry and one bulk stats
  /// update per batch, a direct switch per event. Bit-identical to
  /// \ref reference: the stream position still advances per event
  /// (declareRace records it), and the bulk counter updates commute.
  void batch(std::span<const Event> Events,
             std::span<const uint8_t> Sampled) {
    assert(Events.size() == Sampled.size() && "one decision per event");
    assert(!Map.count() && "a shard is driven by batchSharded");
#ifndef NDEBUG
    DriverScope Guard(*this);
#endif
    uint64_t Accesses = 0, SampledAccesses = 0;
    for (size_t I = 0, N = Events.size(); I < N; ++I) {
      const Event &E = Events[I];
      if (isAccess(E.Kind)) {
        ++Accesses;
        const bool IsSampled = Sampled[I] != 0;
        SampledAccesses += IsSampled ? 1 : 0;
        access(E, IsSampled);
      } else {
        sync(E);
      }
      ++Position;
    }
    Stats.Events += Events.size();
    Stats.Accesses += Accesses;
    Stats.SampledAccesses += SampledAccesses;
  }

  /// The batch loop of a shard (Map.count() >= 2). \p Owners is the
  /// batch's routing (ShardMap::route), computed once by the driver and
  /// shared by every shard of the lane, so no shard re-derives an owner.
  /// ShardMap::visits turns each 64 owners into a bit mask of the events
  /// this shard must see, and only those reach a handler, so a shard's
  /// cost per batch tracks its own work:
  ///   - its own accesses, analyzed as sequential would;
  ///   - every sync event, replicated so the per-thread clock state
  ///     evolves exactly as sequential;
  ///   - foreign *sampled* accesses, collapsed to
  ///     \ref foreignSampledAccess — only under ForeignHook. For every
  ///     other engine foreign accesses cost nothing here.
  /// Metrics stay a field-wise *sum* over shards: access-side counters are
  /// naturally disjoint, and the replicated sync-side work is attributed
  /// to shard 0 only (the other shards run each run of consecutive sync
  /// handlers for its state effect under one save/restore of Stats).
  /// Position still advances over *every* event, owned or not, so exemplar
  /// positions are globally comparable and the per-shard sink merge can
  /// reproduce sequential first-seen order (triage::mergeShardSummaries).
  void batchSharded(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled,
                    std::span<const uint8_t> Owners) {
    assert(Events.size() == Sampled.size() && "one decision per event");
    assert(Events.size() == Owners.size() && "one owner per event");
    assert(Map.count() >= 2 && "sharded dispatch on an unsharded lane");
#ifndef NDEBUG
    DriverScope Guard(*this);
#endif
    const size_t N = Events.size();
    const uint32_t Me = ShardIdx;
    const bool CountsSync = Me == 0;
    const uint64_t Base = Position;
    uint64_t SyncEvents = 0, Accesses = 0, SampledAccesses = 0;
    // Set while a non-primary shard is inside a run of sync events.
    bool Saving = false;
    Metrics Saved;
    for (size_t W = 0; W < N; W += 64) {
      const size_t Len = std::min<size_t>(64, N - W);
      uint64_t Visit =
          ShardMap::visits(Owners.subspan(W, Len), Sampled.subspan(W, Len),
                           Me, Policy::ForeignHook);
      for (; Visit; Visit &= Visit - 1) {
        const size_t I = W + static_cast<size_t>(__builtin_ctzll(Visit));
        const Event &E = Events[I];
        const uint8_t O = Owners[I];
        if (O == ShardMap::Replicated) {
          if (!CountsSync && !Saving) {
            Saved = Stats;
            Saving = true;
          }
          ++SyncEvents;
          Position = Base + I;
          sync(E);
          continue;
        }
        if (Saving) {
          Stats = Saved;
          Saving = false;
        }
        if (O != Me) {
          foreignSampledAccess(E.Tid);
          continue;
        }
        ++Accesses;
        const bool IsSampled = Sampled[I] != 0;
        SampledAccesses += IsSampled ? 1 : 0;
        Position = Base + I;
        access(E, IsSampled);
      }
    }
    if (Saving)
      Stats = Saved;
    Position = Base + N;
    Stats.Events += Accesses + (CountsSync ? SyncEvents : 0);
    Stats.Accesses += Accesses;
    Stats.SampledAccesses += SampledAccesses;
  }

  /// The per-event reference loop: what the batch loops must reproduce
  /// bit for bit, written independently of them. A shard routes with a
  /// plain VarId % count, not ShardMap.
  void reference(std::span<const Event> Events,
                 std::span<const uint8_t> Sampled) {
    assert(Events.size() == Sampled.size() && "one decision per event");
    for (size_t I = 0, N = Events.size(); I < N; ++I) {
#ifndef NDEBUG
      DriverScope Guard(*this);
#endif
      if (Map.count())
        processEventSharded(Events[I], Sampled[I] != 0);
      else
        processEvent(Events[I], Sampled[I] != 0);
      ++Position;
    }
  }

  // The policy owns the pools, so it outlives the state below.
  Policy Pol;
  const HistoryKind Histories;
  std::vector<typename Policy::Thread> Threads;
  std::vector<typename Policy::Sync> Syncs;
  /// One of the two is used, as Histories says; both are indexed by the
  /// dense per-shard slot (LaneState::varSlot).
  std::vector<VectorHistory> VectorVars;
  std::vector<EpochHistory> EpochVars;

private:
  template <typename H, typename RaceFn>
  void accessHistory(OpKind K, ThreadId T, H &History, RaceFn &Race) {
    if (K == OpKind::Read)
      Pol.read(Threads[T], T, History, Stats, Race);
    else
      Pol.write(Threads[T], T, History, Stats, Race);
  }

  void processEvent(const Event &E, bool Sampled) {
    ++Stats.Events;
    if (isAccess(E.Kind)) {
      ++Stats.Accesses;
      if (Sampled)
        ++Stats.SampledAccesses;
      access(E, Sampled);
    } else {
      sync(E);
    }
  }

  void processEventSharded(const Event &E, bool Sampled) {
    if (isAccess(E.Kind)) {
      if (static_cast<uint32_t>(E.var() % Map.count()) == ShardIdx)
        processEvent(E, Sampled);
      else if (Sampled)
        foreignSampledAccess(E.Tid);
      return;
    }
    // Sync events replicate into every shard for their clock-state effect;
    // only shard 0 accounts for them (batchSharded explains why the
    // shard-summed metrics then match sequential field-for-field).
    if (ShardIdx == 0) {
      processEvent(E, Sampled);
      return;
    }
    Metrics Saved = Stats;
    sync(E);
    Stats = Saved;
  }

  /// Lazily grown per-variable state.
  template <typename H>
  [[gnu::always_inline]] H &var(std::vector<H> &Vec, VarId X) {
    size_t I = varSlot(X);
    growToIndex(Vec, I);
    return Vec[I];
  }
  [[gnu::always_inline]] typename Policy::Sync &syncState(SyncId S) {
    growToIndex(Syncs, S);
    return Syncs[S];
  }
};

/// The Detector over \p Policy: the type-erased lane around a
/// PolicyEngine, crossing the virtual boundary once per batch.
template <typename Policy> class PolicyDetector : public Detector {
public:
  template <typename... PolicyArgs>
  PolicyDetector(std::string Name, size_t NumThreads, HistoryKind Histories,
                 PolicyArgs... Args)
      : Detector(std::move(Name), &Eng), Eng(NumThreads, Histories, Args...) {
  }

  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) final {
    Eng.batch(Events, Sampled);
  }
  void processShardBatch(std::span<const Event> Events,
                         std::span<const uint8_t> Sampled,
                         std::span<const uint8_t> Owners) final {
    Eng.batchSharded(Events, Sampled, Owners);
  }
  void processBatchGeneric(std::span<const Event> Events,
                           std::span<const uint8_t> Sampled) final {
    Eng.reference(Events, Sampled);
  }

  void setPoolingEnabled(bool Enabled) final {
    Eng.Pol.setPoolingEnabled(Enabled);
  }

  /// Local epoch e_t of thread \p T (sampling engines).
  ClockValue localEpoch(ThreadId T) const
    requires std::is_base_of_v<SamplingThread, typename Policy::Thread>
  {
    return Eng.Threads[T].Epoch;
  }

protected:
  const typename Policy::Thread &thread(ThreadId T) const {
    return Eng.Threads[T];
  }

private:
  PolicyEngine<Policy> Eng;
};

extern template struct PolicyEngine<FastTrackPolicy>;
extern template struct PolicyEngine<SamplingNaivePolicy>;
extern template struct PolicyEngine<SamplingUClockPolicy>;
extern template struct PolicyEngine<SamplingOrderedListPolicy>;
extern template struct PolicyEngine<TreeClockPolicy>;
extern template class PolicyDetector<FastTrackPolicy>;
extern template class PolicyDetector<SamplingNaivePolicy>;
extern template class PolicyDetector<SamplingUClockPolicy>;
extern template class PolicyDetector<SamplingOrderedListPolicy>;
extern template class PolicyDetector<TreeClockPolicy>;

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_POLICYDETECTOR_H
