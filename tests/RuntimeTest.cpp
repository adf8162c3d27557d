//===- tests/RuntimeTest.cpp - Online runtime tests ------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for the online runtime: seeded races must be found,
/// well-locked programs must stay race-free under every analysis mode, and
/// metric invariants must hold under multithreaded stress. The storage
/// tests cover sync slots allocated chunk by chunk at registration, shadow
/// cells that take a fresh history when another address claims them, and
/// the registration limits.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/runtime/Runtime.h"

#include "sampletrack/support/Rng.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

using namespace sampletrack;
using namespace sampletrack::rt;

namespace {

Config makeConfig(Mode M, double Rate = 1.0, uint64_t Seed = 1) {
  Config C;
  C.AnalysisMode = M;
  C.SamplingRate = Rate;
  C.Seed = Seed;
  C.MaxThreads = 16;
  return C;
}

class AllAnalysisModes : public ::testing::TestWithParam<Mode> {};

} // namespace

TEST_P(AllAnalysisModes, SeededRaceIsDetected) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  uint64_t Shared = 0;
  uint64_t Addr = reinterpret_cast<uint64_t>(&Shared);

  ThreadId A = Rt.registerThread();
  ThreadId B = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onFork(0, B);
  std::thread Ta([&] {
    Rt.onWrite(A, Addr);
    reinterpret_cast<std::atomic<uint64_t> &>(Shared).fetch_add(1);
  });
  std::thread Tb([&] {
    Rt.onWrite(B, Addr);
    reinterpret_cast<std::atomic<uint64_t> &>(Shared).fetch_add(1);
  });
  Ta.join();
  Tb.join();
  Rt.onJoin(0, A);
  Rt.onJoin(0, B);

  if (M == Mode::NT || M == Mode::ET) {
    EXPECT_EQ(Rt.raceCount(), 0u);
  } else {
    // The two writes are HB-unordered; whichever hook runs second must
    // declare the race (sampling modes run at rate 1.0 here).
    EXPECT_GE(Rt.raceCount(), 1u);
    EXPECT_EQ(Rt.racyLocationCount(), 1u);
  }
}

TEST_P(AllAnalysisModes, LockedCounterIsRaceFree) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  Mutex Lock(Rt);
  uint64_t Counter = 0;
  uint64_t Addr = reinterpret_cast<uint64_t>(&Counter);

  constexpr size_t NumWorkers = 6;
  constexpr size_t Iters = 400;
  std::vector<ThreadId> Tids;
  for (size_t W = 0; W < NumWorkers; ++W) {
    ThreadId T = Rt.registerThread();
    Rt.onFork(0, T);
    Tids.push_back(T);
  }
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers.emplace_back([&, W] {
      for (size_t I = 0; I < Iters; ++I) {
        Lock.lock(Tids[W]);
        Rt.onRead(Tids[W], Addr);
        uint64_t V = Counter;
        Rt.onWrite(Tids[W], Addr);
        Counter = V + 1;
        Lock.unlock(Tids[W]);
      }
    });
  }
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers[W].join();
    Rt.onJoin(0, Tids[W]);
  }

  EXPECT_EQ(Counter, NumWorkers * Iters);
  EXPECT_EQ(Rt.raceCount(), 0u) << "false positive in mode "
                                << modeName(M);
}

TEST_P(AllAnalysisModes, StressManyLocksManyThreadsNoFalsePositives) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M, /*Rate=*/0.5, /*Seed=*/42));
  constexpr size_t NumLocks = 8;
  constexpr size_t NumWorkers = 8;
  constexpr size_t Iters = 500;

  std::vector<std::unique_ptr<Mutex>> Locks;
  for (size_t L = 0; L < NumLocks; ++L)
    Locks.push_back(std::make_unique<Mutex>(Rt));
  // One data word per lock; accessed only under its lock.
  std::vector<uint64_t> Data(NumLocks, 0);

  std::vector<ThreadId> Tids;
  for (size_t W = 0; W < NumWorkers; ++W) {
    ThreadId T = Rt.registerThread();
    Rt.onFork(0, T);
    Tids.push_back(T);
  }
  std::vector<std::thread> Workers;
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers.emplace_back([&, W] {
      SplitMix64 Rng(W * 7 + 1);
      for (size_t I = 0; I < Iters; ++I) {
        size_t L = Rng.nextBelow(NumLocks);
        Locks[L]->lock(Tids[W]);
        uint64_t Addr = reinterpret_cast<uint64_t>(&Data[L]);
        Rt.onRead(Tids[W], Addr);
        uint64_t V = Data[L];
        Rt.onWrite(Tids[W], Addr);
        Data[L] = V + 1;
        Locks[L]->unlock(Tids[W]);
      }
    });
  }
  for (size_t W = 0; W < NumWorkers; ++W) {
    Workers[W].join();
    Rt.onJoin(0, Tids[W]);
  }

  EXPECT_EQ(Rt.raceCount(), 0u);
  uint64_t Sum = 0;
  for (uint64_t V : Data)
    Sum += V;
  EXPECT_EQ(Sum, NumWorkers * Iters);

  Metrics Agg = Rt.aggregatedMetrics();
  if (M != Mode::NT && M != Mode::ET) {
    EXPECT_EQ(Agg.AcquiresSkipped + Agg.AcquiresProcessed,
              Agg.AcquiresTotal);
    EXPECT_LE(Agg.ReleasesSkipped + Agg.ReleasesProcessed,
              Agg.ReleasesTotal);
    EXPECT_GE(Agg.AcquiresTotal, NumWorkers * Iters);
  }
  if (M == Mode::SO) {
    EXPECT_LE(Agg.DeepCopies, Agg.ShallowCopies + NumWorkers);
  }
}

TEST_P(AllAnalysisModes, SyncIdsAtChunkEdgesAndTheLastIdOrderAccesses) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  for (size_t I = 0; I < Runtime::MaxSyncs; ++I)
    ASSERT_EQ(Rt.registerSync(), I);
  ThreadId A = Rt.registerThread();
  ThreadId B = Rt.registerThread();
  ThreadId C = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onFork(0, B);
  Rt.onFork(0, C);
  const SyncId Ids[] = {255, 256, Runtime::MaxSyncs - 1};
  Metrics Before = Rt.aggregatedMetrics();
  for (size_t K = 0; K < 3; ++K) {
    SyncId S = Ids[K];
    uint64_t ToB = 0x10000 + 128 * K, ToC = ToB + 64;
    Rt.onWrite(A, ToB);
    Rt.onWrite(A, ToC);
    Rt.onRelease(A, S);
    // A hands ToB to B through the sync: no race.
    Rt.onAcquire(B, S);
    Rt.onWrite(B, ToB);
    // C acquires the neighbouring slot and the same slot of another
    // chunk, which nobody released: a race on ToC.
    Rt.onAcquire(C, S ^ 1);
    Rt.onAcquire(C, S < 512 ? S + 256 : S - 256);
    Rt.onWrite(C, ToC);
  }
  bool Analyses = M != Mode::NT && M != Mode::ET;
  EXPECT_EQ(Rt.racyLocationCount(), Analyses ? 3u : 0u);
  if (Analyses) {
    Metrics After = Rt.aggregatedMetrics();
    EXPECT_EQ(After.AcquiresTotal - Before.AcquiresTotal, 9u);
    EXPECT_EQ(After.ReleasesTotal - Before.ReleasesTotal, 3u);
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(Rt.registerSync(), "sync limit exceeded .Runtime::MaxSyncs = "
                                  "16384.");
}

TEST_P(AllAnalysisModes, RegisteringSyncsWhileHooksRunOnOthers) {
  Mode M = GetParam();
  Runtime Rt(makeConfig(M));
  constexpr size_t NumLocks = 4, NumWorkers = 3, NumRegistrars = 3;
  constexpr size_t Iters = 600;
  std::vector<std::unique_ptr<Mutex>> Locks;
  for (size_t L = 0; L < NumLocks; ++L)
    Locks.push_back(std::make_unique<Mutex>(Rt));
  std::vector<uint64_t> Data(NumLocks, 0);

  std::vector<ThreadId> Tids;
  for (size_t W = 0; W < NumWorkers + NumRegistrars; ++W) {
    ThreadId T = Rt.registerThread();
    Rt.onFork(0, T);
    Tids.push_back(T);
  }
  Metrics Before = Rt.aggregatedMetrics();
  // Each registrar registers syncs (crossing chunk edges, racing the other
  // registrars for each chunk) and uses each one at once.
  std::vector<std::vector<SyncId>> Registered(NumRegistrars);
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < NumWorkers; ++W)
    Threads.emplace_back([&, W] {
      for (size_t I = 0; I < Iters; ++I) {
        size_t L = (W + I) % NumLocks;
        Locks[L]->lock(Tids[W]);
        uint64_t Addr = reinterpret_cast<uint64_t>(&Data[L]);
        Rt.onRead(Tids[W], Addr);
        Rt.onWrite(Tids[W], Addr);
        ++Data[L];
        Locks[L]->unlock(Tids[W]);
      }
    });
  for (size_t R = 0; R < NumRegistrars; ++R)
    Threads.emplace_back([&, R] {
      ThreadId T = Tids[NumWorkers + R];
      for (size_t I = 0; I < Iters; ++I) {
        SyncId S = Rt.registerSync();
        Rt.onAcquire(T, S);
        Rt.onRelease(T, S);
        Registered[R].push_back(S);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Metrics After = Rt.aggregatedMetrics();
  for (ThreadId T : Tids)
    Rt.onJoin(0, T);

  EXPECT_EQ(Rt.raceCount(), 0u);
  std::vector<bool> Seen(Runtime::MaxSyncs, false);
  for (const std::vector<SyncId> &Ids : Registered)
    for (SyncId S : Ids) {
      ASSERT_LT(S, NumLocks + NumRegistrars * Iters);
      EXPECT_FALSE(Seen[S]) << "sync id " << S << " handed out twice";
      Seen[S] = true;
    }
  if (M != Mode::NT && M != Mode::ET) {
    EXPECT_EQ(After.AcquiresTotal - Before.AcquiresTotal,
              (NumWorkers + NumRegistrars) * Iters);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AllAnalysisModes,
                         ::testing::Values(Mode::NT, Mode::ET, Mode::FT,
                                           Mode::ST, Mode::SU, Mode::SO),
                         [](const ::testing::TestParamInfo<Mode> &Info) {
                           return modeName(Info.param);
                         });

TEST(RuntimeSampling, RateZeroNeverChecksAccesses) {
  Runtime Rt(makeConfig(Mode::SO, /*Rate=*/0.0));
  uint64_t X = 0;
  ThreadId A = Rt.registerThread();
  Rt.onFork(0, A);
  for (int I = 0; I < 100; ++I)
    Rt.onWrite(A, reinterpret_cast<uint64_t>(&X));
  Rt.onJoin(0, A);
  Metrics Agg = Rt.aggregatedMetrics();
  EXPECT_EQ(Agg.SampledAccesses, 0u);
  EXPECT_EQ(Agg.RaceChecks, 0u);
  EXPECT_EQ(Rt.raceCount(), 0u);
}

TEST(RuntimeSampling, SamplingSkipsReduceSyncWork) {
  // At a tiny sampling rate, SU must skip most acquire joins in a
  // ping-pong pattern (the Fig. 6(b) effect, online).
  Runtime Rt(makeConfig(Mode::SU, /*Rate=*/0.001, /*Seed=*/7));
  Mutex Lock(Rt);
  uint64_t X = 0;
  ThreadId A = Rt.registerThread();
  ThreadId B = Rt.registerThread();
  Rt.onFork(0, A);
  Rt.onFork(0, B);
  auto Work = [&](ThreadId T) {
    for (int I = 0; I < 2000; ++I) {
      Lock.lock(T);
      Rt.onRead(T, reinterpret_cast<uint64_t>(&X));
      Lock.unlock(T);
    }
  };
  std::thread Ta([&] { Work(A); });
  std::thread Tb([&] { Work(B); });
  Ta.join();
  Tb.join();
  Rt.onJoin(0, A);
  Rt.onJoin(0, B);

  Metrics Agg = Rt.aggregatedMetrics();
  EXPECT_GT(Agg.AcquiresSkipped, Agg.AcquiresTotal / 2)
      << "expected >50% of acquires skipped at 0.1% sampling";
}

TEST(RuntimeShadow, ClaimByASecondAddressStartsFromAnEmptyHistory) {
  for (Mode M : {Mode::FT, Mode::ST, Mode::SU, Mode::SO}) {
    // One cell: every address claims the same history.
    Config C = makeConfig(M);
    C.ShadowCells = 1;
    C.ShadowShards = 1;
    Runtime Rt(C);
    ThreadId A = Rt.registerThread();
    ThreadId B = Rt.registerThread();
    Rt.onFork(0, A);
    Rt.onFork(0, B);
    constexpr uint64_t X = 0x1000, Y = 0x2000;
    Rt.onWrite(A, X);
    Rt.onRead(A, X);
    // B is unordered with A, but Y's claim forgets X's history.
    Rt.onWrite(B, Y);
    EXPECT_EQ(Rt.raceCount(), 0u) << modeName(M);
    // X's second claim forgets Y's: B's write to X is checked against
    // nothing, so A's earlier write to X goes unseen (eviction is a false
    // negative, as in TSan).
    Rt.onWrite(B, X);
    EXPECT_EQ(Rt.raceCount(), 0u) << modeName(M);
    // X still owns the cell, so A's write now meets B's.
    Rt.onWrite(A, X);
    EXPECT_EQ(Rt.raceCount(), 1u) << modeName(M);
    EXPECT_EQ(Rt.racyLocationCount(), 1u) << modeName(M);
  }
}

TEST(RuntimeLimits, RegisteringOneThreadTooManyEndsTheProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (Mode M : {Mode::NT, Mode::SO}) {
    Config C = makeConfig(M);
    C.MaxThreads = 2;
    Runtime Rt(C);
    EXPECT_EQ(Rt.registerThread(), 1u);
    EXPECT_DEATH(Rt.registerThread(),
                 "thread limit exceeded .Config::MaxThreads = 2.")
        << modeName(M);
  }
}
