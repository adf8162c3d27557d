//===- tests/ClockTest.cpp - Clock data structure tests --------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for VectorClock, OrderedList and TreeClock:
/// algebraic laws of join/leq, structural invariants under random operation
/// sequences, and agreement between the three representations.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/support/OrderedList.h"
#include "sampletrack/support/Rng.h"
#include "sampletrack/support/TreeClock.h"
#include "sampletrack/support/VectorClock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace sampletrack;

//===----------------------------------------------------------------------===//
// VectorClock
//===----------------------------------------------------------------------===//

TEST(VectorClock, BottomIsLeqEverything) {
  VectorClock Bot(4), Other(4);
  Other.set(2, 7);
  EXPECT_TRUE(Bot.leq(Other));
  EXPECT_FALSE(Other.leq(Bot));
  EXPECT_TRUE(Bot.leq(Bot));
}

TEST(VectorClock, JoinIsPointwiseMax) {
  VectorClock A(3), B(3);
  A.set(0, 5);
  A.set(1, 1);
  B.set(1, 4);
  B.set(2, 2);
  A.joinWith(B);
  EXPECT_EQ(A.get(0), 5u);
  EXPECT_EQ(A.get(1), 4u);
  EXPECT_EQ(A.get(2), 2u);
  EXPECT_TRUE(B.leq(A));
}

TEST(VectorClock, JoinCountingChangesCountsExactly) {
  VectorClock A(4), B(4);
  B.set(0, 1);
  B.set(2, 3);
  EXPECT_EQ(A.joinCountingChanges(B), 2u);
  EXPECT_EQ(A.joinCountingChanges(B), 0u) << "idempotent join";
}

TEST(VectorClock, LeqWithOverrideAppliesToRhs) {
  VectorClock Hist(3), Clock(3);
  Hist.set(1, 5);
  Clock.set(1, 2);
  EXPECT_FALSE(Hist.leq(Clock));
  // Effective clock raises component 1 to 6.
  EXPECT_TRUE(Hist.leqWithOverride(Clock, 1, 6));
  EXPECT_FALSE(Hist.leqWithOverride(Clock, 0, 99));
}

TEST(VectorClock, JoinLaws) {
  // Commutativity, associativity, idempotence on random clocks.
  SplitMix64 Rng(99);
  for (int Iter = 0; Iter < 200; ++Iter) {
    VectorClock A(6), B(6), C(6);
    for (ThreadId T = 0; T < 6; ++T) {
      A.set(T, Rng.nextBelow(10));
      B.set(T, Rng.nextBelow(10));
      C.set(T, Rng.nextBelow(10));
    }
    VectorClock AB = A, BA = B;
    AB.joinWith(B);
    BA.joinWith(A);
    EXPECT_EQ(AB, BA);

    VectorClock L = A, R = B;
    L.joinWith(B);
    L.joinWith(C);
    R.joinWith(C);
    R.joinWith(A);
    EXPECT_EQ(L, R);

    VectorClock AA = A;
    AA.joinWith(A);
    EXPECT_EQ(AA, A);
    EXPECT_TRUE(A.leq(AB) && B.leq(AB));
  }
}

//===----------------------------------------------------------------------===//
// OrderedList
//===----------------------------------------------------------------------===//

TEST(OrderedList, GetSetIncrementBasics) {
  OrderedList O(5);
  EXPECT_EQ(O.get(3), 0u);
  O.set(3, 7);
  EXPECT_EQ(O.get(3), 7u);
  EXPECT_EQ(O.head(), 3u) << "set moves the node to the head";
  O.increment(1, 2);
  EXPECT_EQ(O.get(1), 2u);
  EXPECT_EQ(O.head(), 1u) << "increment moves the node to the head";
  EXPECT_TRUE(O.checkStructure());
}

TEST(OrderedList, PaperExampleFigure4) {
  // Fig. 4: <t1:6, t2:20, t3:8, t4:0, t5:1> with list order
  // t1 < t2 < t5 < t3 < t4; then O.set(t4, 6); then O.inc(t1, 1).
  OrderedList O(5); // t1..t5 are ids 0..4 here.
  // Build the order by setting in reverse: last set is at the head.
  O.set(3, 0);  // t4
  O.set(2, 8);  // t3
  O.set(4, 1);  // t5
  O.set(1, 20); // t2
  O.set(0, 6);  // t1
  EXPECT_EQ(O.get(2), 8u);

  O.set(3, 6); // O.set(t4, 6)
  EXPECT_EQ(O.head(), 3u);
  EXPECT_EQ(O.get(3), 6u);

  O.increment(0, 1); // O.inc(t1, 1)
  EXPECT_EQ(O.head(), 0u);
  EXPECT_EQ(O.get(0), 7u);
  // Order now: t1, t4, t2, t5, t3.
  ThreadId Cur = O.head();
  std::vector<ThreadId> Order;
  while (Cur != NoThread) {
    Order.push_back(Cur);
    Cur = O.next(Cur);
  }
  EXPECT_EQ(Order, (std::vector<ThreadId>{0, 3, 1, 4, 2}));
  EXPECT_TRUE(O.checkStructure());
}

TEST(OrderedList, VisitPrefixStopsAtK) {
  OrderedList O(4);
  O.set(2, 5);
  O.set(0, 3);
  size_t Count = 0;
  O.visitPrefix(2, [&](ThreadId, ClockValue) { ++Count; });
  EXPECT_EQ(Count, 2u);
  Count = 0;
  O.visitPrefix(100, [&](ThreadId, ClockValue) { ++Count; });
  EXPECT_EQ(Count, 4u) << "clamped to list length";
}

TEST(OrderedList, PrefixCoversMostRecentUpdates) {
  // Property: after any sequence of sets, the K most recently updated
  // distinct threads are exactly the first K list entries.
  SplitMix64 Rng(4242);
  for (int Iter = 0; Iter < 100; ++Iter) {
    constexpr size_t N = 8;
    OrderedList O(N);
    std::vector<ThreadId> RecencyOrder; // most recent first
    for (int Step = 0; Step < 50; ++Step) {
      ThreadId T = static_cast<ThreadId>(Rng.nextBelow(N));
      O.set(T, Step + 1);
      RecencyOrder.erase(
          std::remove(RecencyOrder.begin(), RecencyOrder.end(), T),
          RecencyOrder.end());
      RecencyOrder.insert(RecencyOrder.begin(), T);
    }
    ASSERT_TRUE(O.checkStructure());
    std::vector<ThreadId> Prefix;
    O.visitPrefix(RecencyOrder.size(),
                  [&](ThreadId T, ClockValue) { Prefix.push_back(T); });
    Prefix.resize(RecencyOrder.size());
    EXPECT_EQ(Prefix, RecencyOrder);
  }
}

TEST(OrderedList, RandomOpsKeepStructureAndMatchVectorClock) {
  SplitMix64 Rng(7);
  constexpr size_t N = 6;
  OrderedList O(N);
  VectorClock Ref(N);
  for (int Step = 0; Step < 1000; ++Step) {
    ThreadId T = static_cast<ThreadId>(Rng.nextBelow(N));
    if (Rng.nextBool(0.5)) {
      ClockValue V = Ref.get(T) + Rng.nextBelow(5);
      O.set(T, V);
      Ref.set(T, V);
    } else {
      O.increment(T, 1);
      Ref.bump(T, 1);
    }
    ASSERT_TRUE(O.checkStructure());
  }
  for (ThreadId T = 0; T < N; ++T)
    EXPECT_EQ(O.get(T), Ref.get(T));
  VectorClock Snap(N);
  O.toVectorClock(Snap, 0, Ref.get(0));
  EXPECT_EQ(Snap, Ref);
}

TEST(OrderedList, DominatesWithOverride) {
  OrderedList O(3);
  O.set(1, 4);
  VectorClock H(3);
  H.set(0, 2);
  EXPECT_FALSE(O.dominatesWithOverride(H, 2, 0));
  EXPECT_TRUE(O.dominatesWithOverride(H, 0, 2)) << "override supplies t0";
  H.set(1, 4);
  EXPECT_TRUE(O.dominatesWithOverride(H, 0, 2));
  H.set(1, 5);
  EXPECT_FALSE(O.dominatesWithOverride(H, 0, 2));
}

//===----------------------------------------------------------------------===//
// TreeClock
//===----------------------------------------------------------------------===//

TEST(TreeClock, RootOperations) {
  TreeClock TC(4, 1);
  EXPECT_EQ(TC.root(), 1u);
  EXPECT_EQ(TC.get(1), 0u);
  TC.setRootTime(3);
  EXPECT_EQ(TC.get(1), 3u);
  TC.incrementRoot();
  EXPECT_EQ(TC.get(1), 4u);
  EXPECT_TRUE(TC.checkStructure());
}

TEST(TreeClock, JoinImportsKnowledge) {
  TreeClock A(4, 0), B(4, 1);
  B.setRootTime(5);
  unsigned Examined = A.joinFrom(B);
  EXPECT_GT(Examined, 0u);
  EXPECT_EQ(A.get(1), 5u);
  EXPECT_TRUE(A.checkStructure());
  // Idempotent: joining again examines nothing (fast path).
  EXPECT_EQ(A.joinFrom(B), 0u);
}

TEST(TreeClock, TransitiveKnowledgeFlows) {
  // C learns about A through B.
  TreeClock A(4, 0), B(4, 1), C(4, 2);
  A.setRootTime(3);
  B.joinFrom(A);
  B.setRootTime(7);
  C.joinFrom(B);
  EXPECT_EQ(C.get(0), 3u);
  EXPECT_EQ(C.get(1), 7u);
  EXPECT_TRUE(C.checkStructure());
}

TEST(TreeClock, RandomJoinsMatchVectorClocks) {
  // Simulate full-HB communication: threads increment their roots and join
  // each other through lock-style snapshots; tree clock components must
  // match a parallel vector-clock simulation at every step.
  SplitMix64 Rng(123);
  constexpr size_t N = 6;
  for (int Iter = 0; Iter < 30; ++Iter) {
    std::vector<TreeClock> TCs;
    std::vector<VectorClock> VCs(N, VectorClock(N));
    for (ThreadId T = 0; T < N; ++T) {
      TCs.emplace_back(N, T);
      TCs[T].setRootTime(1);
      VCs[T].set(T, 1);
    }
    for (int Step = 0; Step < 120; ++Step) {
      ThreadId Src = static_cast<ThreadId>(Rng.nextBelow(N));
      ThreadId Dst = static_cast<ThreadId>(Rng.nextBelow(N));
      if (Src == Dst)
        continue;
      // Snapshot-and-bump models release; join models the next acquire.
      TreeClock Snap;
      Snap = TCs[Src];
      VectorClock VSnap = VCs[Src];
      TCs[Src].incrementRoot();
      VCs[Src].bump(Src);
      TCs[Dst].joinFrom(Snap);
      VCs[Dst].joinWith(VSnap);
      ASSERT_TRUE(TCs[Dst].checkStructure());
      for (ThreadId T = 0; T < N; ++T)
        ASSERT_EQ(TCs[Dst].get(T), VCs[Dst].get(T))
            << "iter " << Iter << " step " << Step;
    }
  }
}

//===----------------------------------------------------------------------===//
// SIMD kernel tiers: every tier the host supports must be bit-identical to
// scalar on every public clock operation, at widths straddling the vector
// boundaries (AVX2 = 4 lanes, NEON = 2), including the override and
// counting variants and the OrderedList interop paths.
//===----------------------------------------------------------------------===//

namespace {

/// Forces a tier for one scope and restores the previously active one.
class TierGuard {
public:
  explicit TierGuard(simd::Tier T)
      : Saved(simd::activeTier()), Ok(simd::forceTier(T)) {}
  ~TierGuard() { simd::forceTier(Saved); }
  bool ok() const { return Ok; }

private:
  simd::Tier Saved;
  bool Ok;
};

/// Tiers worth testing on this host beyond scalar. Restores whatever tier
/// was active before probing.
std::vector<simd::Tier> hostSimdTiers() {
  simd::Tier Before = simd::activeTier();
  std::vector<simd::Tier> Tiers;
  for (simd::Tier T : {simd::Tier::Avx2, simd::Tier::Neon})
    if (simd::forceTier(T))
      Tiers.push_back(T);
  simd::forceTier(Before);
  return Tiers;
}

/// A random clock of width N. Mostly small values with zero runs (the
/// realistic mostly-idle shape), plus occasional huge values to exercise
/// the unsigned-compare sign-flip path above 2^63.
VectorClock randomClock(SplitMix64 &Rng, size_t N) {
  VectorClock C(N);
  for (ThreadId T = 0; T < N; ++T) {
    uint64_t Roll = Rng.nextBelow(10);
    if (Roll < 4)
      continue; // Keep zero: exercises the high-water mark paths.
    if (Roll == 9)
      C.set(T, ~uint64_t(0) - Rng.nextBelow(1000)); // Sign-bit territory.
    else
      C.set(T, 1 + Rng.nextBelow(50));
  }
  return C;
}

} // namespace

TEST(SimdKernels, AllTiersMatchScalarAcrossWidthBoundaries) {
  std::vector<simd::Tier> Tiers = hostSimdTiers();
  if (Tiers.empty())
    GTEST_SKIP() << "host supports no SIMD tier; scalar is the only tier";
  SplitMix64 Rng(2025);
  // T=1..17 straddles both the NEON (2) and AVX2 (4) lane widths and the
  // inline-scalar dispatch threshold.
  for (size_t N = 1; N <= 17; ++N) {
    for (int Iter = 0; Iter < 60; ++Iter) {
      VectorClock A = randomClock(Rng, N);
      VectorClock B = randomClock(Rng, N);
      ThreadId OverTid = static_cast<ThreadId>(Rng.nextBelow(N));
      ClockValue OverVal = Rng.nextBelow(2) ? Rng.nextBelow(60)
                                            : ~uint64_t(0) - Rng.nextBelow(9);

      // Scalar reference results.
      bool RefLeq, RefLeqOv;
      unsigned RefChanged;
      VectorClock RefJoin(N), RefCount(N);
      {
        TierGuard G(simd::Tier::Scalar);
        ASSERT_TRUE(G.ok());
        RefLeq = A.leq(B);
        RefLeqOv = A.leqWithOverride(B, OverTid, OverVal);
        RefJoin.copyFrom(A);
        RefJoin.joinWith(B);
        RefCount.copyFrom(A);
        RefChanged = RefCount.joinCountingChanges(B);
      }

      for (simd::Tier T : Tiers) {
        TierGuard G(T);
        ASSERT_TRUE(G.ok());
        EXPECT_EQ(A.leq(B), RefLeq) << simd::tierName(T) << " N=" << N;
        EXPECT_EQ(A.leqWithOverride(B, OverTid, OverVal), RefLeqOv)
            << simd::tierName(T) << " N=" << N << " tid=" << OverTid;
        VectorClock J(N);
        J.copyFrom(A);
        J.joinWith(B);
        EXPECT_EQ(J, RefJoin) << simd::tierName(T) << " N=" << N;
        VectorClock JC(N);
        JC.copyFrom(A);
        EXPECT_EQ(JC.joinCountingChanges(B), RefChanged)
            << simd::tierName(T) << " N=" << N;
        EXPECT_EQ(JC, RefCount) << simd::tierName(T) << " N=" << N;
      }
    }
  }
}

TEST(SimdKernels, OrderedListInteropMatchesScalar) {
  std::vector<simd::Tier> Tiers = hostSimdTiers();
  if (Tiers.empty())
    GTEST_SKIP() << "host supports no SIMD tier; scalar is the only tier";
  SplitMix64 Rng(777);
  for (size_t N = 1; N <= 17; ++N) {
    for (int Iter = 0; Iter < 40; ++Iter) {
      OrderedList O(N);
      for (int Op = 0; Op < 24; ++Op) {
        ThreadId T = static_cast<ThreadId>(Rng.nextBelow(N));
        if (Rng.nextBool(0.5))
          O.set(T, Rng.nextBelow(2) ? Rng.nextBelow(40)
                                    : ~uint64_t(0) - Rng.nextBelow(5));
        else
          O.increment(T, 1 + Rng.nextBelow(9));
      }
      VectorClock C = randomClock(Rng, N);
      ThreadId OverTid = static_cast<ThreadId>(Rng.nextBelow(N));
      ClockValue OverVal = Rng.nextBelow(80);

      bool RefDom;
      VectorClock RefSnap(N);
      {
        TierGuard G(simd::Tier::Scalar);
        ASSERT_TRUE(G.ok());
        RefDom = O.dominatesWithOverride(C, OverTid, OverVal);
        O.toVectorClock(RefSnap, OverTid, OverVal);
      }
      for (simd::Tier T : Tiers) {
        TierGuard G(T);
        ASSERT_TRUE(G.ok());
        EXPECT_EQ(O.dominatesWithOverride(C, OverTid, OverVal), RefDom)
            << simd::tierName(T) << " N=" << N;
        VectorClock Snap(N);
        O.toVectorClock(Snap, OverTid, OverVal);
        EXPECT_EQ(Snap, RefSnap) << simd::tierName(T) << " N=" << N;
      }
    }
  }
}

TEST(VectorClock, HighWaterMarkStaysConservative) {
  // After any operation sequence, every component at or beyond activeLen()
  // must be zero, and the clock must behave exactly like a full-width one.
  SplitMix64 Rng(4242);
  for (int Iter = 0; Iter < 200; ++Iter) {
    size_t N = 1 + Rng.nextBelow(33);
    VectorClock C(N);
    std::vector<ClockValue> Mirror(N, 0);
    for (int Op = 0; Op < 30; ++Op) {
      switch (Rng.nextBelow(5)) {
      case 0: {
        ThreadId T = static_cast<ThreadId>(Rng.nextBelow(N));
        ClockValue V = Rng.nextBelow(30); // May be zero: hwm stays put.
        C.set(T, V);
        Mirror[T] = V;
        break;
      }
      case 1: {
        ThreadId T = static_cast<ThreadId>(Rng.nextBelow(N));
        C.bump(T);
        ++Mirror[T];
        break;
      }
      case 2: {
        VectorClock Other = randomClock(Rng, N);
        C.joinWith(Other);
        for (ThreadId T = 0; T < N; ++T)
          Mirror[T] = std::max(Mirror[T], Other.get(T));
        break;
      }
      case 3: {
        VectorClock Other = randomClock(Rng, N);
        C.copyFrom(Other);
        for (ThreadId T = 0; T < N; ++T)
          Mirror[T] = Other.get(T);
        break;
      }
      case 4:
        C.clear();
        std::fill(Mirror.begin(), Mirror.end(), 0);
        break;
      }
      ASSERT_LE(C.activeLen(), N);
      for (size_t I = C.activeLen(); I < N; ++I)
        ASSERT_EQ(C.get(static_cast<ThreadId>(I)), 0u)
            << "hwm invariant broken at iter " << Iter;
      for (ThreadId T = 0; T < N; ++T)
        ASSERT_EQ(C.get(T), Mirror[T]);
    }
  }
}

TEST(OrderedList, StructureSurvivesRandomStorms) {
  // SoA rewrite guard: heavy random set/increment storms (every move-to-
  // head shape: head, tail, middle, repeated) must keep the doubly-linked
  // chain intact and agree with a plain map of the values.
  SplitMix64 Rng(31337);
  for (int Iter = 0; Iter < 80; ++Iter) {
    size_t N = 1 + Rng.nextBelow(20);
    OrderedList O(N);
    std::vector<ClockValue> Mirror(N, 0);
    for (int Op = 0; Op < 200; ++Op) {
      ThreadId T = static_cast<ThreadId>(Rng.nextBelow(N));
      if (Rng.nextBool(0.5)) {
        ClockValue V = Rng.nextBelow(100);
        O.set(T, V);
        Mirror[T] = V;
      } else {
        ClockValue K = 1 + Rng.nextBelow(5);
        O.increment(T, K);
        Mirror[T] += K;
      }
      ASSERT_EQ(O.head(), T) << "updated node must move to the head";
    }
    ASSERT_TRUE(O.checkStructure()) << "iter " << Iter << ": " << O.str();
    for (ThreadId T = 0; T < N; ++T)
      ASSERT_EQ(O.get(T), Mirror[T]);
    // The list order visits every node exactly once (checkStructure), and
    // visitPrefix over the full width sees each thread's current value.
    size_t Seen = 0;
    O.visitPrefix(N, [&](ThreadId T, ClockValue V) {
      ASSERT_EQ(V, Mirror[T]);
      ++Seen;
    });
    ASSERT_EQ(Seen, N);
  }
}
