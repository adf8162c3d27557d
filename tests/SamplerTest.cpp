//===- tests/SamplerTest.cpp - Sampling strategies -------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/sampling/Sampler.h"

#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

Event access(VarId X = 0) { return Event(0, OpKind::Read, X); }

Trace smallTrace(uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 4;
  C.NumLocks = 4;
  C.NumEvents = 5000;
  C.Seed = Seed;
  return generateWorkload(C);
}

} // namespace

TEST(Samplers, AlwaysAndNever) {
  AlwaysSampler A;
  NeverSampler N;
  for (int I = 0; I < 10; ++I) {
    EXPECT_TRUE(A.shouldSample(access()));
    EXPECT_FALSE(N.shouldSample(access()));
  }
}

TEST(Samplers, BernoulliHitsTheRate) {
  for (double Rate : {0.003, 0.03, 0.1, 0.5}) {
    BernoulliSampler S(Rate, 12345);
    constexpr int N = 200000;
    int Hits = 0;
    for (int I = 0; I < N; ++I)
      if (S.shouldSample(access()))
        ++Hits;
    double Observed = static_cast<double>(Hits) / N;
    EXPECT_NEAR(Observed, Rate, Rate * 0.15 + 0.001) << "rate " << Rate;
  }
}

TEST(Samplers, BernoulliIsDeterministicInSeed) {
  BernoulliSampler A(0.1, 7), B(0.1, 7), C(0.1, 8);
  std::vector<bool> Da, Db, Dc;
  for (int I = 0; I < 1000; ++I) {
    Da.push_back(A.shouldSample(access()));
    Db.push_back(B.shouldSample(access()));
    Dc.push_back(C.shouldSample(access()));
  }
  EXPECT_EQ(Da, Db);
  EXPECT_NE(Da, Dc);
}

TEST(Samplers, PeriodicSamplesEveryKth) {
  PeriodicSampler S(3);
  std::vector<bool> D;
  for (int I = 0; I < 9; ++I)
    D.push_back(S.shouldSample(access()));
  EXPECT_EQ(D, (std::vector<bool>{true, false, false, true, false, false,
                                  true, false, false}));
}

TEST(Samplers, TargetedSamplesOnlyChosenLocations) {
  TargetedSampler S({3, 5});
  EXPECT_TRUE(S.shouldSample(access(3)));
  EXPECT_FALSE(S.shouldSample(access(4)));
  EXPECT_TRUE(S.shouldSample(access(5)));
}

TEST(Samplers, MarkedFollowsTheTraceBit) {
  MarkedSampler S;
  Event E = access(1);
  EXPECT_FALSE(S.shouldSample(E));
  E.Marked = true;
  EXPECT_TRUE(S.shouldSample(E));
}

TEST(Samplers, Names) {
  EXPECT_EQ(AlwaysSampler().name(), "always");
  EXPECT_EQ(BernoulliSampler(0.03, 1).name(), "bernoulli(3%)");
  EXPECT_EQ(PeriodicSampler(5).name(), "periodic(5)");
}

TEST(Zipf, SkewsTowardLowIndices) {
  SplitMix64 Rng(1);
  ZipfDistribution Z(100, 1.0);
  std::vector<int> Counts(100, 0);
  for (int I = 0; I < 100000; ++I)
    ++Counts[Z.sample(Rng)];
  EXPECT_GT(Counts[0], Counts[10]);
  EXPECT_GT(Counts[10], Counts[99]);
  // Theta = 0 is uniform-ish.
  ZipfDistribution U(10, 0.0);
  std::vector<int> UCounts(10, 0);
  for (int I = 0; I < 100000; ++I)
    ++UCounts[U.sample(Rng)];
  for (int C : UCounts)
    EXPECT_NEAR(C, 10000, 1500);
}

TEST(MarkTrace, IsDeterministicAndRateAccurate) {
  Trace A = smallTrace(1), B = smallTrace(1);
  markTrace(A, 0.1, 42);
  markTrace(B, 0.1, 42);
  ASSERT_EQ(A.countMarked(), B.countMarked());
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(A[I].Marked, B[I].Marked) << "event " << I;

  size_t Accesses = A.countKind(OpKind::Read) + A.countKind(OpKind::Write);
  double Observed = static_cast<double>(A.countMarked()) / Accesses;
  EXPECT_NEAR(Observed, 0.1, 0.03);

  Trace C = smallTrace(1);
  markTrace(C, 0.1, 43);
  bool Differs = false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Marked != C[I].Marked)
      Differs = true;
  EXPECT_TRUE(Differs) << "different seeds must give different sample sets";
}

TEST(MarkTrace, FullRateMarksEveryAccess) {
  Trace T = smallTrace(2);
  markTrace(T, 1.0, 0);
  for (const Event &E : T)
    EXPECT_EQ(E.Marked, isAccess(E.Kind));
}
