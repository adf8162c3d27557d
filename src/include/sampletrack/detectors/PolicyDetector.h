//===- sampletrack/detectors/PolicyDetector.h - Offline engine -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline form of an engine policy (sampletrack/detectors/
/// Policies.h): a Detector that keeps the policy's thread, sync and
/// access-history state in flat vectors and forwards each event to the
/// policy's handler. FT, ST, SU and SO are this template over their
/// policies; the online runtime drives the same policies concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_POLICYDETECTOR_H
#define SAMPLETRACK_DETECTORS_POLICYDETECTOR_H

#include "sampletrack/detectors/Detector.h"
#include "sampletrack/detectors/Policies.h"

#include <vector>

namespace sampletrack {

/// A single-threaded Detector over \p Policy.
///
/// Sampling policies skip unsampled accesses (Algorithm 2, Line 9) and can
/// keep access histories as epochs instead of vector clocks
/// (HistoryKind); FT checks every access against epoch histories.
template <typename Policy> class PolicyDetector : public Detector {
public:
  template <typename... PolicyArgs>
  PolicyDetector(size_t NumThreads, HistoryKind Histories,
                 PolicyArgs... Args)
      : Detector(NumThreads), Pol(NumThreads, Args...),
        Histories(Histories) {
    Threads.resize(NumThreads);
    for (size_t T = 0; T < NumThreads; ++T)
      Pol.initThread(Threads[T], static_cast<ThreadId>(T));
  }

  void onRead(ThreadId T, VarId X, bool Sampled) final {
    if (Policy::Sampling && !Sampled)
      return;
    auto Race = [&] { declareRace(T, X, OpKind::Read); };
    if (Policy::Sampling && Histories == HistoryKind::Epochs)
      Pol.read(Threads[T], T, var(EpochVars, X), Stats, Race);
    else
      Pol.read(Threads[T], T, var(Vars, X), Stats, Race);
  }
  void onWrite(ThreadId T, VarId X, bool Sampled) final {
    if (Policy::Sampling && !Sampled)
      return;
    auto Race = [&] { declareRace(T, X, OpKind::Write); };
    if (Policy::Sampling && Histories == HistoryKind::Epochs)
      Pol.write(Threads[T], T, var(EpochVars, X), Stats, Race);
    else
      Pol.write(Threads[T], T, var(Vars, X), Stats, Race);
  }

  void onAcquire(ThreadId T, SyncId L) final {
    Pol.acquire(Threads[T], T, sync(L), Stats);
  }
  void onRelease(ThreadId T, SyncId L) final {
    Pol.release(Threads[T], T, sync(L), Stats);
  }
  void onFork(ThreadId Parent, ThreadId Child) final {
    Pol.fork(Threads[Parent], Parent, Threads[Child], Child, Stats);
  }
  void onJoin(ThreadId Parent, ThreadId Child) final {
    Pol.join(Threads[Parent], Parent, Threads[Child], Child, Stats);
  }
  void onReleaseStore(ThreadId T, SyncId S) final {
    Pol.releaseStore(Threads[T], T, sync(S), Stats);
  }
  void onReleaseJoin(ThreadId T, SyncId S) final {
    Pol.releaseJoin(Threads[T], T, sync(S), Stats);
  }
  void onAcquireLoad(ThreadId T, SyncId S) final {
    Pol.acquire(Threads[T], T, sync(S), Stats);
  }

  /// Sharded runs: a sampled access another shard analyzed. Its only
  /// thread-local side effect is the dirty bit gating the release-side
  /// epoch flush, so replicate it to keep this shard's clocks identical to
  /// an unsharded run's. FT's access handlers are variable-local.
  void onForeignSampledAccess(ThreadId T) final {
    if constexpr (Policy::Sampling)
      Threads[T].Dirty = true;
  }

  // Full analysis processes unsampled accesses too (it ignores S); only
  // the sampling engines have a foreign-access side effect (the dirty bit).
  void processBatch(std::span<const Event> Events,
                    std::span<const uint8_t> Sampled) final {
    batchDispatch<Policy::Sampling>(*this, Events, Sampled);
  }
  void processShardBatch(std::span<const Event> Events,
                         std::span<const uint8_t> Sampled,
                         std::span<const uint8_t> Owners) final {
    batchDispatchSharded<Policy::Sampling, Policy::Sampling>(*this, Events,
                                                             Sampled, Owners);
  }

  void setPoolingEnabled(bool Enabled) final {
    Pol.setPoolingEnabled(Enabled);
  }

  /// Local epoch e_t of thread \p T (sampling engines).
  ClockValue localEpoch(ThreadId T) const { return Threads[T].Epoch; }

protected:
  const typename Policy::Thread &thread(ThreadId T) const {
    return Threads[T];
  }

private:
  /// Lazily grown per-variable state, indexed by the dense per-shard slot
  /// (see Detector::varSlot).
  template <typename H> H &var(std::vector<H> &Vec, VarId X) {
    size_t I = varSlot(X);
    growToIndex(Vec, I);
    return Vec[I];
  }
  typename Policy::Sync &sync(SyncId S) {
    growToIndex(Syncs, S);
    return Syncs[S];
  }

  // The policy owns the pools, so it outlives the state below.
  Policy Pol;
  HistoryKind Histories;
  std::vector<typename Policy::Thread> Threads;
  std::vector<typename Policy::Sync> Syncs;
  std::vector<typename Policy::History> Vars;
  /// Sampling engines under HistoryKind::Epochs.
  std::vector<EpochHistory> EpochVars;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_POLICYDETECTOR_H
