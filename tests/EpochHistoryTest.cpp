//===- tests/EpochHistoryTest.cpp - FastTrack histories under sampling -----==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FastTrack epoch optimization applied to the sampling engines' access
/// histories (the paper notes it is independent of its contributions,
/// Section 2.1). FastTrack-style histories may declare fewer *events*
/// (same-epoch fast paths, post-race demotion) but must find exactly the
/// same racy locations, and the first declaration on each location must
/// coincide. These properties are checked for all three engines against
/// their vector-clock-history twins on randomized traces.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/detectors/PolicyDetector.h"
#include "sampletrack/trace/TraceGen.h"

#include <gtest/gtest.h>

#include <map>

using namespace sampletrack;

namespace {

Trace racyTrace(uint64_t Seed, double Rate) {
  GenConfig C;
  C.NumThreads = 5;
  C.NumLocks = 4;
  C.NumVars = 24;
  C.NumEvents = 800;
  C.UnprotectedFraction = 0.10;
  C.RacyVars = 4;
  C.Seed = Seed;
  Trace T = generateWorkload(C);
  markTrace(T, Rate, Seed * 17 + 3);
  return T;
}

/// Runs \p D over \p T and returns (racy locations, first declaration per
/// location).
std::pair<std::unordered_set<VarId>, std::map<VarId, uint64_t>>
runAndSummarize(const Trace &T, Detector &D) {
  MarkedSampler S;
  api::AnalysisSession().addDetector(D).withSampler(S).run(T);
  std::map<VarId, uint64_t> First;
  for (const RaceReport &R : D.races())
    if (!First.count(R.Var))
      First[R.Var] = R.EventIndex;
  return {D.racyLocations(), First};
}

class EpochHistorySweep
    : public ::testing::TestWithParam<std::pair<uint64_t, double>> {};

} // namespace

TEST_P(EpochHistorySweep, SameRacyLocationsAndFirstDeclarations) {
  auto [Seed, Rate] = GetParam();
  Trace T = racyTrace(Seed, Rate);
  size_t NT = T.numThreads();

  struct EnginePair {
    const char *Name;
    std::unique_ptr<Detector> Vc, Eh;
  };
  EnginePair Pairs[3];
  Pairs[0] = {"ST", createDetector(EngineKind::SamplingNaive, NT),
              std::make_unique<PolicyDetector<SamplingNaivePolicy>>(
                  "ST", NT, HistoryKind::Epochs)};
  Pairs[1] = {"SU", createDetector(EngineKind::SamplingU, NT),
              std::make_unique<PolicyDetector<SamplingUClockPolicy>>(
                  "SU", NT, HistoryKind::Epochs)};
  Pairs[2] = {"SO", createDetector(EngineKind::SamplingO, NT),
              std::make_unique<PolicyDetector<SamplingOrderedListPolicy<>>>(
                  "SO", NT, HistoryKind::Epochs)};

  for (EnginePair &P : Pairs) {
    auto [VcLocs, VcFirst] = runAndSummarize(T, *P.Vc);
    auto [EhLocs, EhFirst] = runAndSummarize(T, *P.Eh);
    EXPECT_EQ(VcLocs, EhLocs) << P.Name << " racy locations diverged";
    EXPECT_EQ(VcFirst, EhFirst)
        << P.Name << " first race per location diverged";
  }
}

TEST_P(EpochHistorySweep, EpochHistoriesDoLessAccessWork) {
  auto [Seed, Rate] = GetParam();
  if (Rate < 0.2)
    GTEST_SKIP() << "needs enough samples to measure";
  Trace T = racyTrace(Seed, Rate);
  PolicyDetector<SamplingOrderedListPolicy<>> Vc("SO", T.numThreads(),
                                                 HistoryKind::VectorClocks);
  PolicyDetector<SamplingOrderedListPolicy<>> Eh("SO", T.numThreads(),
                                                 HistoryKind::Epochs);
  MarkedSampler S1, S2;
  api::AnalysisSession().addDetector(Vc).withSampler(S1).run(T);
  api::AnalysisSession().addDetector(Eh).withSampler(S2).run(T);
  // VC histories snapshot a full clock at every sampled write; epochs only
  // pay O(T) on read promotions and shared-read write checks.
  EXPECT_LT(Eh.metrics().FullClockOps, Vc.metrics().FullClockOps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EpochHistorySweep,
    ::testing::Values(std::pair<uint64_t, double>{1, 0.05},
                      std::pair<uint64_t, double>{2, 0.3},
                      std::pair<uint64_t, double>{3, 1.0},
                      std::pair<uint64_t, double>{4, 0.5},
                      std::pair<uint64_t, double>{5, 1.0},
                      std::pair<uint64_t, double>{6, 0.1},
                      std::pair<uint64_t, double>{7, 0.7},
                      std::pair<uint64_t, double>{8, 1.0}));

TEST(EpochHistories, FirstRacePerLocationMatchesOracle) {
  // The first declaration on each location must agree with the
  // last-access-history oracle semantics even under epoch histories.
  for (uint64_t Seed : {11u, 12u, 13u}) {
    Trace T = racyTrace(Seed, 0.5);
    HBClosureOracle Oracle(T);
    std::map<VarId, uint64_t> OracleFirst;
    for (size_t E : Oracle.declaredRaces(/*MarkedOnly=*/true))
      if (!OracleFirst.count(T[E].var()))
        OracleFirst[T[E].var()] = E;

    PolicyDetector<SamplingOrderedListPolicy<>> Eh("SO", T.numThreads(),
                                                   HistoryKind::Epochs);
    auto [Locs, First] = runAndSummarize(T, Eh);
    EXPECT_EQ(OracleFirst, First) << "seed " << Seed;
  }
}
