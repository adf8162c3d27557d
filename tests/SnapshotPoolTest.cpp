//===- tests/SnapshotPoolTest.cpp - Pooled CoW snapshot buffers ------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for SnapshotPool: refcount semantics, free-list recycling,
/// the lazy-CoW unique() contract and pool death with outstanding
/// references in both sharing modes, cross-thread release safety of the
/// concurrent mode, and the detector-level integration (pooled and unpooled
/// runs bit-identical modulo PoolHits; recycling actually observed on
/// CoW-heavy traces).
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/support/SnapshotPool.h"
#include "sampletrack/support/VectorClock.h"
#include "sampletrack/trace/Trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace sampletrack;

namespace {

/// The single-thread cases run over both sharing modes: a lane-private
/// pool keeps every contract of the concurrent one except cross-thread use.
template <typename Pool> class SnapshotPoolModes : public ::testing::Test {};
using PoolModes =
    ::testing::Types<SnapshotPool<VectorClock, PoolSharing::Concurrent>,
                     SnapshotPool<VectorClock, PoolSharing::LanePrivate>>;
struct PoolModeName {
  template <typename Pool> static std::string GetName(int I) {
    return I == 0 ? "Concurrent" : "LanePrivate";
  }
};
TYPED_TEST_SUITE(SnapshotPoolModes, PoolModes, PoolModeName);

} // namespace

TYPED_TEST(SnapshotPoolModes, AcquireStartsUniqueAndMisses) {
  TypeParam P;
  bool Reused = true;
  auto R = P.acquire(&Reused);
  EXPECT_FALSE(Reused) << "empty pool cannot serve from the free list";
  EXPECT_TRUE(static_cast<bool>(R));
  EXPECT_TRUE(R.unique());
  EXPECT_EQ(P.hits(), 0u);
  EXPECT_EQ(P.misses(), 1u);
  EXPECT_EQ(P.freeCount(), 0u);
}

TYPED_TEST(SnapshotPoolModes, LastReleaseRecyclesAndNextAcquireReuses) {
  TypeParam P;
  auto R = P.acquire();
  R->resize(4);
  R->set(2, 42);
  VectorClock *Raw = R.get();
  R.reset();
  EXPECT_EQ(P.freeCount(), 1u);

  bool Reused = false;
  auto R2 = P.acquire(&Reused);
  EXPECT_TRUE(Reused);
  EXPECT_EQ(R2.get(), Raw) << "free list returned the same buffer";
  EXPECT_EQ(R2->get(2), 42u) << "recycled contents are stale by contract";
  EXPECT_EQ(P.hits(), 1u);
  EXPECT_EQ(P.freeCount(), 0u);
}

TYPED_TEST(SnapshotPoolModes, UniqueTracksReferenceCount) {
  TypeParam P;
  auto Owner = P.acquire();
  EXPECT_TRUE(Owner.unique());
  {
    auto Snapshot = Owner; // Publish: a sync object now holds it.
    EXPECT_FALSE(Owner.unique());
    EXPECT_TRUE(Snapshot == Owner);
  }
  // Snapshot dropped (overwritten by a newer release): owner may mutate in
  // place again — the lazy-CoW fast path.
  EXPECT_TRUE(Owner.unique());
  EXPECT_EQ(P.freeCount(), 0u) << "buffer still referenced, not recycled";
}

TYPED_TEST(SnapshotPoolModes, CopyAndMoveSemantics) {
  TypeParam P;
  auto A = P.acquire();
  auto B = A;
  auto C = std::move(A);
  EXPECT_FALSE(static_cast<bool>(A));
  EXPECT_TRUE(B == C);
  auto &BAlias = B;
  B = BAlias; // Self-assignment must not drop the buffer.
  EXPECT_TRUE(static_cast<bool>(B));
  C.reset();
  EXPECT_TRUE(B.unique());
  B.reset();
  EXPECT_EQ(P.freeCount(), 1u);
}

TYPED_TEST(SnapshotPoolModes, DisabledPoolNeverReuses) {
  TypeParam P;
  P.setEnabled(false);
  auto R = P.acquire();
  R.reset();
  EXPECT_EQ(P.freeCount(), 0u) << "disabled pool deletes instead of parking";
  bool Reused = true;
  auto R2 = P.acquire(&Reused);
  EXPECT_FALSE(Reused);
  EXPECT_EQ(P.hits(), 0u);
}

TYPED_TEST(SnapshotPoolModes, DisablingDrainsTheFreeList) {
  TypeParam P;
  auto A = P.acquire();
  auto B = P.acquire();
  A.reset();
  B.reset();
  EXPECT_EQ(P.freeCount(), 2u);
  P.setEnabled(false);
  EXPECT_EQ(P.freeCount(), 0u);
}

TYPED_TEST(SnapshotPoolModes, OutstandingRefsSurviveThePool) {
  typename TypeParam::Ref Survivor;
  {
    TypeParam P;
    Survivor = P.acquire();
    Survivor->resize(3);
    Survivor->set(1, 7);
    auto Parked = P.acquire();
    Parked.reset(); // One buffer on the free list when the pool dies.
  }
  ASSERT_TRUE(static_cast<bool>(Survivor));
  EXPECT_EQ(Survivor->get(1), 7u) << "buffer outlives its pool";
  Survivor.reset(); // Falls back to plain deletion; must not crash/leak.
}

TEST(SnapshotPool, CrossThreadReleaseIsSafe) {
  // The online Runtime drops snapshot references on whichever thread
  // overwrites the sync object; a concurrent pool's acquire+release must
  // tolerate that.
  SnapshotPool<VectorClock> P;
  constexpr int N = 64;
  std::vector<SnapshotPool<VectorClock>::Ref> Refs;
  Refs.reserve(N);
  for (int I = 0; I < N; ++I)
    Refs.push_back(P.acquire());
  std::vector<std::thread> Threads;
  for (int W = 0; W < 4; ++W)
    Threads.emplace_back([&Refs, W] {
      for (int I = W; I < N; I += 4)
        Refs[I].reset();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(P.freeCount(), static_cast<size_t>(N));
  bool Reused = false;
  auto R = P.acquire(&Reused);
  EXPECT_TRUE(Reused);
}

//===----------------------------------------------------------------------===//
// Detector-level integration
//===----------------------------------------------------------------------===//

namespace {

/// Two threads cross-publishing over two locks with sampled writes: each
/// thread acquires the *other* thread's lock right after releasing its own,
/// so every join mutates a list whose snapshot is still referenced by the
/// thread's own lock — a CoW break per round, the recycling steady state.
/// (A single shared lock would never break: its snapshot is overwritten
/// before the owner mutates, which the lazy unique() check turns into a
/// free in-place re-own.)
Trace cowHeavyTrace(int Rounds) {
  Trace T;
  for (int I = 0; I < Rounds; ++I) {
    T.write(0, 0, /*Marked=*/true);
    T.release(0, 0);
    T.write(1, 1, /*Marked=*/true);
    T.release(1, 1);
    T.acquire(0, 1);
    T.acquire(1, 0);
  }
  return T;
}

} // namespace

TEST(SnapshotPoolIntegration, PooledRunRecyclesBuffersOnCowHeavyTrace) {
  Trace T = cowHeavyTrace(200);
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO};
  Cfg.SamplingRate = 1.0;
  api::EngineRun R = api::AnalysisSession(Cfg).run(T).Engines.front();
  EXPECT_GT(R.Stats.CowBreaks, 0u) << "trace must actually contend";
  EXPECT_EQ(R.Stats.CowBreaks, R.Stats.DeepCopies)
      << "on the lazy path every deep copy is a CoW break";
  EXPECT_GT(R.Stats.PoolHits, 0u) << "steady state must reuse buffers";
  // After warm-up (one buffer per thread in flight plus one per sync), all
  // breaks are served by the free list.
  EXPECT_GE(R.Stats.PoolHits + 4, R.Stats.CowBreaks);
}

TEST(SnapshotPoolIntegration, PooledAndUnpooledRunsAreBitIdentical) {
  Trace T = cowHeavyTrace(100);
  markTrace(T, 0.5, 99);
  for (EngineKind K : {EngineKind::SamplingO, EngineKind::SamplingONoEpochOpt,
                       EngineKind::TreeClockFull}) {
    std::unique_ptr<Detector> Pooled = createDetector(K, T.numThreads());
    std::unique_ptr<Detector> Unpooled = createDetector(K, T.numThreads());
    Unpooled->setPoolingEnabled(false);
    MarkedSampler S1, S2;
    api::AnalysisSession().addDetector(*Pooled).withSampler(S1).run(T);
    api::AnalysisSession().addDetector(*Unpooled).withSampler(S2).run(T);

    EXPECT_EQ(Pooled->races(), Unpooled->races());
    EXPECT_EQ(Unpooled->metrics().PoolHits, 0u);
    Metrics A = Pooled->metrics(), B = Unpooled->metrics();
    A.PoolHits = B.PoolHits = 0; // The only counter pooling may move.
    EXPECT_EQ(A, B) << engineKindName(K);
  }
}
