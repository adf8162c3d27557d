//===- detectors/HBClosureOracle.cpp - Reference HB ---------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/HBClosureOracle.h"

#include "sampletrack/triage/RaceSink.h"

#include <cassert>

using namespace sampletrack;

HBClosureOracle::HBClosureOracle(const Trace &T) : Tr(T) {
  size_t NT = T.numThreads();
  std::vector<VectorClock> Threads(NT, VectorClock(NT));
  for (ThreadId I = 0; I < NT; ++I)
    Threads[I].set(I, 1);
  std::vector<VectorClock> Syncs(T.numSyncs(), VectorClock(NT));

  Stamps.reserve(T.size());
  Locals.reserve(T.size());

  for (const Event &E : T) {
    ThreadId Tid = E.Tid;
    // Acquire-like edges land before the event is stamped: the event's
    // HB-past includes the matching release.
    switch (E.Kind) {
    case OpKind::Acquire:
    case OpKind::AcquireLoad:
      Threads[Tid].joinWith(Syncs[E.sync()]);
      break;
    case OpKind::Join:
      Threads[Tid].joinWith(Threads[E.childThread()]);
      break;
    default:
      break;
    }

    Stamps.push_back(Threads[Tid]);
    Locals.push_back(Threads[Tid].get(Tid));

    // Release-like edges publish the stamped clock, then advance local
    // time so later events of this thread are distinguishable.
    switch (E.Kind) {
    case OpKind::Release:
    case OpKind::ReleaseStore:
      Syncs[E.sync()].copyFrom(Threads[Tid]);
      Threads[Tid].bump(Tid);
      break;
    case OpKind::ReleaseJoin:
      Syncs[E.sync()].joinWith(Threads[Tid]);
      Threads[Tid].bump(Tid);
      break;
    case OpKind::Fork:
      Threads[E.childThread()].joinWith(Threads[Tid]);
      Threads[Tid].bump(Tid);
      break;
    case OpKind::Join:
      Threads[E.childThread()].bump(E.childThread());
      break;
    default:
      break;
    }
  }
}

bool HBClosureOracle::happensBefore(size_t I, size_t J) const {
  if (I == J)
    return true;
  // The trace order is a linearization of HB (releases precede their
  // matching acquires in the stream), so an event later in the trace can
  // never happen-before an earlier one. Answering backward queries — the
  // tests ask them to assert non-orderings — instead of asserting on them.
  if (I > J)
    return false;
  ThreadId Ti = Tr[I].Tid;
  if (Ti == Tr[J].Tid)
    return true;
  // Proposition 1.
  return Stamps[I].get(Ti) <= Stamps[J].get(Ti);
}

bool HBClosureOracle::conflicting(size_t I, size_t J) const {
  const Event &A = Tr[I];
  const Event &B = Tr[J];
  if (!isAccess(A.Kind) || !isAccess(B.Kind))
    return false;
  if (A.Tid == B.Tid || A.var() != B.var())
    return false;
  return A.Kind == OpKind::Write || B.Kind == OpKind::Write;
}

std::vector<std::pair<size_t, size_t>> HBClosureOracle::allRacePairs() const {
  std::vector<std::pair<size_t, size_t>> Out;
  for (size_t J = 0; J < Tr.size(); ++J)
    for (size_t I = 0; I < J; ++I)
      if (isRace(I, J))
        Out.push_back({I, J});
  return Out;
}

std::vector<std::pair<size_t, size_t>>
HBClosureOracle::markedRacePairs() const {
  std::vector<std::pair<size_t, size_t>> Out;
  for (size_t J = 0; J < Tr.size(); ++J) {
    if (!Tr[J].Marked)
      continue;
    for (size_t I = 0; I < J; ++I)
      if (Tr[I].Marked && isRace(I, J))
        Out.push_back({I, J});
  }
  return Out;
}

std::vector<size_t> HBClosureOracle::declaredRaces(bool MarkedOnly) const {
  std::vector<size_t> Out;
  // Last write event per variable; last read event per (variable, thread).
  std::vector<size_t> LastWrite(Tr.numVars(), SIZE_MAX);
  std::vector<std::vector<size_t>> LastRead(Tr.numVars());

  for (size_t J = 0; J < Tr.size(); ++J) {
    const Event &E = Tr[J];
    if (!isAccess(E.Kind))
      continue;
    if (MarkedOnly && !E.Marked)
      continue;
    VarId X = E.var();
    bool Racy = false;
    size_t LW = LastWrite[X];
    if (LW != SIZE_MAX && !happensBefore(LW, J))
      Racy = true;
    if (E.Kind == OpKind::Write && !LastRead[X].empty())
      for (size_t LR : LastRead[X])
        if (LR != SIZE_MAX && !happensBefore(LR, J))
          Racy = true;
    if (Racy)
      Out.push_back(J);

    if (E.Kind == OpKind::Write) {
      LastWrite[X] = J;
    } else {
      if (LastRead[X].empty())
        LastRead[X].assign(Tr.numThreads(), SIZE_MAX);
      LastRead[X][E.Tid] = J;
    }
  }
  return Out;
}

std::vector<ClockValue> HBClosureOracle::samplingLocalTimes() const {
  std::vector<ClockValue> Out;
  Out.reserve(Tr.size());
  std::vector<ClockValue> Esam(Tr.numThreads(), 1);
  std::vector<bool> Dirty(Tr.numThreads(), false);
  for (const Event &E : Tr) {
    Out.push_back(Esam[E.Tid]);
    if (isAccess(E.Kind) && E.Marked)
      Dirty[E.Tid] = true;
    if (isReleaseLike(E.Kind) && Dirty[E.Tid]) {
      ++Esam[E.Tid];
      Dirty[E.Tid] = false;
    }
  }
  return Out;
}

std::vector<VectorClock> HBClosureOracle::samplingTimestamps() const {
  std::vector<ClockValue> Lsam = samplingLocalTimes();
  std::vector<VectorClock> Out(Tr.size(), VectorClock(Tr.numThreads()));
  // Direct evaluation of Eq. 7: C_sam(e)(t) = max L_sam over marked f of
  // thread t with f <=HB e. O(N^2); oracle use only.
  for (size_t J = 0; J < Tr.size(); ++J)
    for (size_t I = 0; I <= J; ++I) {
      const Event &F = Tr[I];
      if (!F.Marked)
        continue;
      if (!happensBefore(I, J))
        continue;
      if (Lsam[I] > Out[J].get(F.Tid))
        Out[J].set(F.Tid, Lsam[I]);
    }
  return Out;
}

std::vector<VectorClock> HBClosureOracle::freshnessTimestamps() const {
  std::vector<VectorClock> Csam = samplingTimestamps();
  size_t NT = Tr.numThreads();

  // VT(e) (Eq. 9): per thread, accumulate the number of components by which
  // consecutive same-thread sampling timestamps differ.
  std::vector<ClockValue> VT(Tr.size(), 0);
  std::vector<ClockValue> Acc(NT, 0);
  std::vector<size_t> LastOfThread(NT, SIZE_MAX);
  for (size_t J = 0; J < Tr.size(); ++J) {
    ThreadId Tid = Tr[J].Tid;
    if (LastOfThread[Tid] != SIZE_MAX) {
      size_t P = LastOfThread[Tid];
      unsigned Diff = 0;
      for (ThreadId K = 0; K < NT; ++K)
        if (Csam[P].get(K) != Csam[J].get(K))
          ++Diff;
      Acc[Tid] += Diff;
    }
    VT[J] = Acc[Tid];
    LastOfThread[Tid] = J;
  }

  // U(e) (Eq. 10): max VT over marked HB-predecessors, per thread.
  std::vector<VectorClock> Out(Tr.size(), VectorClock(NT));
  for (size_t J = 0; J < Tr.size(); ++J)
    for (size_t I = 0; I <= J; ++I) {
      const Event &F = Tr[I];
      if (!F.Marked)
        continue;
      if (!happensBefore(I, J))
        continue;
      if (VT[I] > Out[J].get(F.Tid))
        Out[J].set(F.Tid, VT[I]);
    }
  return Out;
}

std::vector<size_t>
sampletrack::dedupDeclaredRaces(const Trace &T,
                                const std::vector<size_t> &Declared) {
  triage::RaceSink Sink(Declared.size() + 1);
  std::vector<size_t> Out;
  for (size_t I : Declared) {
    const Event &E = T[I];
    if (Sink.insert(RaceReport{I, E.Tid, E.var(), E.Kind}))
      Out.push_back(I);
  }
  return Out;
}
