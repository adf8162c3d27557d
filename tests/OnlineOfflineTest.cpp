//===- tests/OnlineOfflineTest.cpp - Exact online/offline differential -----==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online runtime and the offline engines must agree exactly, not only
/// on "same racy location". Each case drives rt::Runtime's hooks from one
/// thread in the order of a trace, with recording on, then replays the
/// recording through the same-mode offline engine with the recorded sample
/// set (api::SamplerKind::Marked). Every Metrics field, the racy-location
/// set and the race-signature set with its hit counts must match.
///
/// The runtime hashes addresses into shadow cells, and two addresses that
/// share a cell evict each other's history, which the offline engines never
/// do. Each case therefore picks addresses whose cells are pairwise
/// distinct, and asserts it on the recording.
///
/// Case counts scale with SAMPLETRACK_FUZZ_CASES (the `ctest -L
/// differential` label group).
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/explore/Scheduler.h"
#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/support/Rng.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace sampletrack;

namespace {

/// Case count for one fuzz loop: \p Default, unless SAMPLETRACK_FUZZ_CASES
/// overrides it.
int fuzzCases(int Default) {
  if (const char *V = std::getenv("SAMPLETRACK_FUZZ_CASES"))
    return std::max(1, std::atoi(V));
  return Default;
}

EngineKind offlineEngine(rt::Mode M) {
  switch (M) {
  case rt::Mode::FT:
    return EngineKind::FastTrack;
  case rt::Mode::ST:
    return EngineKind::SamplingNaive;
  case rt::Mode::SU:
    return EngineKind::SamplingU;
  default:
    return EngineKind::SamplingO;
  }
}

constexpr size_t ShadowCells = 1 << 16;

/// Addresses for the variables of \p T whose shadow cells are pairwise
/// distinct. A recording ET runtime maps candidate addresses to cells (the
/// recorded VarId of an access is its cell); each variable takes the next
/// candidate whose cell is still free.
std::unordered_map<VarId, uint64_t> distinctCellAddresses(const Trace &T) {
  std::vector<VarId> Vars;
  std::set<VarId> Seen;
  for (const Event &E : T)
    if (isAccess(E.Kind) && Seen.insert(E.var()).second)
      Vars.push_back(E.var());

  rt::Config C;
  C.AnalysisMode = rt::Mode::ET;
  C.RecordTrace = true;
  C.MaxThreads = 1;
  C.ShadowCells = ShadowCells;
  rt::Runtime Probe(C);
  size_t Candidates = 4 * Vars.size() + 64;
  for (size_t K = 0; K < Candidates; ++K)
    Probe.onRead(0, 0x100000 + 64 * K);
  Trace Cells = Probe.recordedTrace();

  std::unordered_map<VarId, uint64_t> Addr;
  std::set<VarId> Taken;
  size_t K = 0;
  for (VarId X : Vars) {
    while (K < Candidates && !Taken.insert(Cells[K].var()).second)
      ++K;
    EXPECT_LT(K, Candidates) << "ran out of collision-free addresses";
    Addr[X] = 0x100000 + 64 * K++;
  }
  return Addr;
}

struct OnlineRun {
  Trace Recorded;
  Metrics Stats;
  triage::TriageSummary Summary;
  size_t RacyLocations = 0;
};

/// Drives \p T through an online runtime in mode \p M, one hook per event,
/// from this thread.
OnlineRun driveOnline(const Trace &T, rt::Mode M, double Rate, bool Pooling,
                      uint64_t Seed) {
  rt::Config C;
  C.AnalysisMode = M;
  C.SamplingRate = Rate;
  C.Seed = Seed;
  C.MaxThreads = T.numThreads();
  C.ShadowCells = ShadowCells;
  C.RecordTrace = true;
  C.PoolingEnabled = Pooling;
  rt::Runtime Rt(C);
  for (ThreadId Tid = 1; Tid < T.numThreads(); ++Tid)
    EXPECT_EQ(Rt.registerThread(), Tid);
  for (SyncId S = 0; S < T.numSyncs(); ++S)
    EXPECT_EQ(Rt.registerSync(), S);

  std::unordered_map<VarId, uint64_t> Addr = distinctCellAddresses(T);
  for (const Event &E : T) {
    switch (E.Kind) {
    case OpKind::Read:
      Rt.onRead(E.Tid, Addr.at(E.var()));
      break;
    case OpKind::Write:
      Rt.onWrite(E.Tid, Addr.at(E.var()));
      break;
    case OpKind::Acquire:
      Rt.onAcquire(E.Tid, E.sync());
      break;
    case OpKind::Release:
      Rt.onRelease(E.Tid, E.sync());
      break;
    case OpKind::Fork:
      Rt.onFork(E.Tid, E.childThread());
      break;
    case OpKind::Join:
      Rt.onJoin(E.Tid, E.childThread());
      break;
    case OpKind::ReleaseStore:
      Rt.onReleaseStore(E.Tid, E.sync());
      break;
    case OpKind::ReleaseJoin:
      Rt.onReleaseJoin(E.Tid, E.sync());
      break;
    case OpKind::AcquireLoad:
      Rt.onAcquireLoad(E.Tid, E.sync());
      break;
    }
  }

  OnlineRun R;
  R.Recorded = Rt.recordedTrace();
  R.Stats = Rt.aggregatedMetrics();
  R.Summary = Rt.triageSummary();
  R.RacyLocations = Rt.racyLocationCount();

  // The recording is the input event for event, with each variable on a
  // shadow cell of its own.
  EXPECT_EQ(R.Recorded.size(), T.size());
  std::unordered_map<VarId, VarId> CellOf;
  std::set<VarId> Cells;
  for (size_t I = 0; I < T.size() && I < R.Recorded.size(); ++I) {
    const Event &In = T[I], &Out = R.Recorded[I];
    EXPECT_EQ(In.Tid, Out.Tid) << "event " << I;
    EXPECT_EQ(In.Kind, Out.Kind) << "event " << I;
    if (!isAccess(In.Kind)) {
      EXPECT_EQ(In.Target, Out.Target) << "event " << I;
      continue;
    }
    auto [It, New] = CellOf.emplace(In.var(), Out.var());
    EXPECT_EQ(It->second, Out.var()) << "event " << I;
    if (New) {
      EXPECT_TRUE(Cells.insert(Out.var()).second)
          << "shadow cells collide at event " << I;
    }
  }
  return R;
}

std::set<VarId> racySet(const triage::TriageSummary &S) {
  std::set<VarId> Out;
  for (const triage::TriageEntry &E : S.Entries)
    Out.insert(E.Exemplar.Var);
  return Out;
}

std::map<uint64_t, uint64_t> signatureHits(const triage::TriageSummary &S) {
  std::map<uint64_t, uint64_t> Out;
  for (const triage::TriageEntry &E : S.Entries)
    Out[E.Signature] += E.Hits;
  return Out;
}

/// Runs \p T online and replays the recording offline under one
/// configuration; returns the two runs' metrics (online, offline).
std::pair<Metrics, Metrics> expectAgreement(const Trace &T, rt::Mode M,
                                            double Rate, bool Pooling,
                                            uint64_t Seed,
                                            const std::string &Case) {
  std::ostringstream Where;
  Where << Case << " mode=" << rt::modeName(M) << " rate=" << Rate
        << " pooling=" << Pooling << " seed=" << Seed;
  SCOPED_TRACE(Where.str());

  OnlineRun On = driveOnline(T, M, Rate, Pooling, Seed);

  api::SessionConfig SC;
  SC.Engines = {offlineEngine(M)};
  SC.Sampling = api::SamplerKind::Marked;
  SC.PoolingEnabled = Pooling;
  SC.NumThreads = T.numThreads();
  api::SessionResult Off = api::AnalysisSession(SC).run(On.Recorded);
  const api::EngineRun &E = Off.Engines.at(0);

  EXPECT_EQ(On.Stats, E.Stats) << "online:\n"
                               << On.Stats.str() << "offline:\n"
                               << E.Stats.str();
  EXPECT_EQ(On.RacyLocations, E.NumRacyLocations);
  EXPECT_EQ(racySet(On.Summary), racySet(Off.Triage));
  EXPECT_EQ(signatureHits(On.Summary), signatureHits(Off.Triage));
  EXPECT_FALSE(On.Summary.Capped);
  EXPECT_FALSE(Off.Triage.Capped);
  return {On.Stats, E.Stats};
}

/// FT/ST/SU/SO x sampling rates x pooling on/off.
void sweep(const Trace &T, uint64_t Seed, const std::string &Case) {
  for (rt::Mode M : {rt::Mode::FT, rt::Mode::ST, rt::Mode::SU, rt::Mode::SO})
    for (double Rate : {0.03, 0.3, 1.0})
      for (bool Pooling : {true, false})
        expectAgreement(T, M, Rate, Pooling, Seed, Case);
}

/// Lock-based shapes from TraceGen.
Trace randomLockTrace(SplitMix64 &Rng) {
  switch (Rng.nextBelow(5)) {
  case 0: {
    GenConfig C;
    C.NumThreads = 2 + Rng.nextBelow(5);
    C.NumLocks = 1 + Rng.nextBelow(6);
    C.NumVars = 8 + Rng.nextBelow(40);
    C.NumEvents = 100 + Rng.nextBelow(500);
    C.AccessFraction = 0.2 + Rng.nextDouble() * 0.6;
    C.UnprotectedFraction = Rng.nextDouble() * 0.2;
    C.MaxNesting = 1 + Rng.nextBelow(3);
    C.Seed = Rng.next();
    return generateWorkload(C);
  }
  case 1:
    return generateForkJoin(1 + Rng.nextBelow(3), 2 + Rng.nextBelow(10),
                            Rng.next(), Rng.nextBool(0.5));
  case 2:
    return generateBarrierRounds(2 + Rng.nextBelow(4), 2 + Rng.nextBelow(6),
                                 2 + Rng.nextBelow(6), Rng.next());
  case 3:
    return generateProducerConsumer(1 + Rng.nextBelow(3),
                                    1 + Rng.nextBelow(3),
                                    10 + Rng.nextBelow(40), Rng.next());
  default:
    return generatePingPong(2 + Rng.nextBelow(4), 1 + Rng.nextBelow(4),
                            10 + Rng.nextBelow(40), Rng.next());
  }
}

/// Mutex critical sections mixed with release-stores, release-joins and
/// acquire-loads on atomic sync objects (ids after the locks), plus
/// protected and unprotected accesses. Every worker is forked first and
/// joined last; lock discipline holds throughout.
Trace randomAtomicMixTrace(SplitMix64 &Rng) {
  size_t Threads = 2 + Rng.nextBelow(5);
  size_t Locks = 1 + Rng.nextBelow(3);
  size_t Atomics = 1 + Rng.nextBelow(3);
  size_t Vars = 4 + Rng.nextBelow(12);
  size_t Steps = 100 + Rng.nextBelow(400);
  Trace T;
  for (ThreadId Tid = 1; Tid < Threads; ++Tid)
    T.fork(0, Tid);
  std::vector<ThreadId> Holder(Locks, NoThread);
  std::vector<std::vector<SyncId>> Held(Threads);
  for (size_t I = 0; I < Steps; ++I) {
    ThreadId Tid = static_cast<ThreadId>(Rng.nextBelow(Threads));
    SyncId Atomic = static_cast<SyncId>(Locks + Rng.nextBelow(Atomics));
    uint64_t Pick = Rng.nextBelow(100);
    if (Pick < 20) {
      if (!Held[Tid].empty() && Rng.nextBool(0.6)) {
        SyncId L = Held[Tid].back();
        Held[Tid].pop_back();
        Holder[L] = NoThread;
        T.release(Tid, L);
        continue;
      }
      SyncId L = static_cast<SyncId>(Rng.nextBelow(Locks));
      if (Holder[L] == NoThread) {
        Holder[L] = Tid;
        Held[Tid].push_back(L);
        T.acquire(Tid, L);
        continue;
      }
    } else if (Pick < 35) {
      T.releaseStore(Tid, Atomic);
      continue;
    } else if (Pick < 45) {
      T.releaseJoin(Tid, Atomic);
      continue;
    } else if (Pick < 60) {
      T.acquireLoad(Tid, Atomic);
      continue;
    }
    VarId X = static_cast<VarId>(Rng.nextBelow(Vars));
    if (Rng.nextBool(0.5))
      T.write(Tid, X);
    else
      T.read(Tid, X);
  }
  for (ThreadId Tid = 0; Tid < Threads; ++Tid)
    while (!Held[Tid].empty()) {
      T.release(Tid, Held[Tid].back());
      Held[Tid].pop_back();
    }
  for (ThreadId Tid = 1; Tid < Threads; ++Tid)
    T.join(0, Tid);
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Named divergences between the former online copy and the offline engines
//===----------------------------------------------------------------------===//

TEST(OnlineOffline, EventsAreCountedAsOffline) {
  GenConfig C;
  C.NumThreads = 8;
  C.NumEvents = 40000;
  C.Seed = 7;
  Trace T = generateWorkload(C);
  for (rt::Mode M : {rt::Mode::FT, rt::Mode::SO}) {
    auto [On, Off] = expectAgreement(T, M, 0.03, true, 7, "workload-40k");
    EXPECT_EQ(On.Events, T.size());
    EXPECT_EQ(Off.Events, T.size());
  }
}

TEST(OnlineOffline, AcquireOfNeverReleasedSyncIsNotSkipped) {
  // FastTrack and Algorithm 2 never skip: an acquire of a sync object
  // nobody released joins with bottom.
  Trace T;
  T.fork(0, 1);
  T.acquire(1, 0);
  T.write(1, 0);
  T.release(1, 0);
  T.acquire(0, 1);
  T.read(0, 0);
  T.release(0, 1);
  T.acquireLoad(1, 2);
  T.join(0, 1);
  for (rt::Mode M : {rt::Mode::FT, rt::Mode::ST}) {
    auto [On, Off] = expectAgreement(T, M, 1.0, true, 3, "never-released");
    EXPECT_EQ(Off.AcquiresSkipped, 0u);
    EXPECT_EQ(On.AcquiresSkipped, 0u);
    EXPECT_EQ(On.AcquiresProcessed, On.AcquiresTotal);
  }
}

TEST(OnlineOffline, OrderedListForkAndJoinCountTwoClockOps) {
  // SO's fork and join each join the freshness clock and traverse the
  // whole list: two whole-clock operations, online as offline.
  Trace Tiny;
  Tiny.fork(0, 1);
  Tiny.write(1, 0);
  Tiny.join(0, 1);
  auto [On, Off] = expectAgreement(Tiny, rt::Mode::SO, 1.0, true, 1, "tiny");
  EXPECT_EQ(Off.FullClockOps, 5u); // fork 2 + write 1 + join 2
  EXPECT_EQ(On.FullClockOps, Off.FullClockOps);
  expectAgreement(generateForkJoin(3, 50, 3), rt::Mode::SO, 1.0, true, 3,
                  "forkjoin");
  expectAgreement(generateBarrierRounds(6, 20, 30, 5), rt::Mode::SO, 1.0,
                  true, 5, "barrier");
}

TEST(OnlineOffline, ReleaseStoreAfterAcquireLoadOfNeverStoredAtomic) {
  // Algorithm 3 (A.2): an acquire-load marks the thread as having observed
  // the atomic's content even when nothing was ever stored (bottom), so
  // the following release-store is a monotone update and may skip.
  Trace T;
  T.fork(0, 1);
  T.acquireLoad(1, 0);
  T.releaseStore(1, 0);
  T.acquireLoad(0, 0);
  T.releaseStore(0, 0);
  T.join(0, 1);
  auto [On, Off] = expectAgreement(T, rt::Mode::SU, 1.0, true, 1, "atomic");
  EXPECT_EQ(Off.ReleasesSkipped, 2u);
  EXPECT_EQ(On.ReleasesSkipped, Off.ReleasesSkipped);
  EXPECT_EQ(On.FullClockOps, Off.FullClockOps);
}

TEST(OnlineOffline, MoreThanSixtyFourThreads) {
  // SO's prefix-walk scratch and SU's observed-thread set are sized by the
  // thread count; 72 threads take both past one 64-bit word.
  GenConfig C;
  C.NumThreads = 72;
  C.NumLocks = 4;
  C.NumVars = 48;
  C.NumEvents = 4000;
  C.UnprotectedFraction = 0.05;
  C.MeanBurst = 2;
  C.Seed = 9;
  Trace T = generateWorkload(C);
  ASSERT_EQ(T.numThreads(), 72u);
  for (rt::Mode M : {rt::Mode::SU, rt::Mode::SO})
    for (double Rate : {0.3, 1.0}) {
      auto [On, Off] = expectAgreement(T, M, Rate, true, 9, "72-threads");
      EXPECT_GT(Off.AcquiresSkipped, 0u);
      EXPECT_GT(Off.AcquiresProcessed, 0u);
    }
}

//===----------------------------------------------------------------------===//
// Random families: FT/ST/SU/SO x rates {0.03, 0.3, 1.0} x pooling on/off
//===----------------------------------------------------------------------===//

TEST(OnlineOffline, RandomLockTraces) {
  SplitMix64 Rng(0x0a11ce);
  for (int Case = 0, N = fuzzCases(6); Case < N; ++Case) {
    Trace T = randomLockTrace(Rng);
    sweep(T, Rng.next(), "lock-case-" + std::to_string(Case));
  }
}

TEST(OnlineOffline, RandomAtomicMixTraces) {
  SplitMix64 Rng(0xa70a1c);
  for (int Case = 0, N = fuzzCases(8); Case < N; ++Case) {
    Trace T = randomAtomicMixTrace(Rng);
    std::string Err;
    ASSERT_TRUE(T.validate(&Err)) << Err;
    sweep(T, Rng.next(), "atomic-case-" + std::to_string(Case));
  }
}

TEST(OnlineOffline, SmallbankSchedules) {
  // A recorded smallbank program, re-interleaved by the explorer: each
  // materialized schedule is one more input for the differential.
  workload::BenchmarkSpec Spec = *workload::findBenchmark("smallbank");
  Spec.RowsPerTable = 16;
  Spec.OpsMin = 2;
  Spec.OpsMax = 4;
  Spec.UnprotectedProb = 0.2;
  workload::RunConfig Config;
  Config.NumClients = 2;
  Config.RequestsPerClient = 4;
  Config.Rt.AnalysisMode = rt::Mode::SO;
  Config.Rt.MaxThreads = 8;
  Config.Seed = 5;
  explore::Workload W = workload::recordPrograms(Spec, Config);

  explore::ExploreConfig EC;
  EC.Mode = explore::ExploreMode::Random;
  EC.MaxSchedules = static_cast<size_t>(fuzzCases(4));
  EC.Seed = 17;
  explore::Scheduler S(W, EC);
  explore::Schedule Sch;
  size_t Runs = 0;
  while (S.next(Sch)) {
    Trace T = explore::Scheduler::materialize(W, Sch.Choices);
    sweep(T, Sch.Hash, "smallbank-schedule-" + std::to_string(Sch.Index));
    ++Runs;
  }
  EXPECT_GT(Runs, 0u);
}
