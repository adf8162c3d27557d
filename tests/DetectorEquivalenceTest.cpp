//===- tests/DetectorEquivalenceTest.cpp - Engine equivalence -------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness tests: Lemmas 4, 7 and 8 state that ST, SU and SO
/// declare races on exactly the same events, and that those events are
/// exactly the ones a last-access-history detector with perfect
/// happens-before information would flag. These tests sweep randomized
/// traces and sampling rates and check both claims, plus the full-detection
/// baselines against the oracle. The ShardMap tests hold the sharded
/// routing's divide-free owner/slot arithmetic and visit masks to plain
/// % and / on every shard count.
///
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/trace/SuiteGen.h"
#include "sampletrack/trace/TraceGen.h"

#include <limits>
#include <random>

#include <gtest/gtest.h>

using namespace sampletrack;

namespace {

/// Runs engine \p K over pre-marked trace \p T and returns the indices of
/// events where a race was declared.
std::vector<size_t> declaredEvents(const Trace &T, EngineKind K) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  MarkedSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  std::vector<size_t> Out;
  for (const RaceReport &R : D->races())
    Out.push_back(R.EventIndex);
  return Out;
}

/// A small racy mutex-structured trace (acquire/release plus protected and
/// unprotected accesses).
Trace mixedTrace(uint64_t Seed) {
  GenConfig C;
  C.NumThreads = 4;
  C.NumLocks = 3;
  C.NumVars = 24;
  C.NumEvents = 600;
  C.UnprotectedFraction = 0.08;
  C.RacyVars = 3;
  C.Seed = Seed;
  return generateWorkload(C);
}

struct SweepParam {
  uint64_t Seed;
  double Rate;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

} // namespace

//===----------------------------------------------------------------------===//
// Lemmas 7 and 8: ST, SU, SO (and SO without the local-epoch optimization)
// declare races on exactly the same events, given the same sample set.
//===----------------------------------------------------------------------===//

TEST_P(EquivalenceSweep, SamplingEnginesAgreeEventwise) {
  SweepParam P = GetParam();
  Trace T = mixedTrace(P.Seed);
  ASSERT_TRUE(T.validate());
  markTrace(T, P.Rate, P.Seed * 7919 + 13);

  std::vector<size_t> ST = declaredEvents(T, EngineKind::SamplingNaive);
  std::vector<size_t> SU = declaredEvents(T, EngineKind::SamplingU);
  std::vector<size_t> SO = declaredEvents(T, EngineKind::SamplingO);
  std::vector<size_t> SON = declaredEvents(T, EngineKind::SamplingONoEpochOpt);

  EXPECT_EQ(ST, SU) << "SU diverged from ST (Lemma 7)";
  EXPECT_EQ(ST, SO) << "SO diverged from ST (Lemma 8)";
  EXPECT_EQ(ST, SON) << "SO-noepoch diverged from ST";
}

//===----------------------------------------------------------------------===//
// Lemma 4: the sampling engines match the declarative last-access-history
// semantics computed with exact happens-before.
//===----------------------------------------------------------------------===//

TEST_P(EquivalenceSweep, SamplingEnginesMatchOracle) {
  SweepParam P = GetParam();
  Trace T = mixedTrace(P.Seed);
  markTrace(T, P.Rate, P.Seed * 104729 + 7);

  HBClosureOracle Oracle(T);
  // The detectors warehouse duplicates (first declaration per signature),
  // so the oracle's full declaration list is deduped the same way.
  std::vector<size_t> Expected =
      dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/true));

  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingNaive));
  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingU));
  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingO));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceSweep,
    ::testing::Values(SweepParam{1, 0.0}, SweepParam{1, 0.03},
                      SweepParam{1, 0.3}, SweepParam{1, 1.0},
                      SweepParam{2, 0.03}, SweepParam{2, 0.3},
                      SweepParam{3, 0.1}, SweepParam{4, 0.1},
                      SweepParam{5, 0.03}, SweepParam{5, 1.0},
                      SweepParam{6, 0.5}, SweepParam{7, 0.05},
                      SweepParam{8, 0.2}, SweepParam{9, 0.03},
                      SweepParam{10, 0.3}, SweepParam{11, 1.0},
                      SweepParam{12, 0.02}, SweepParam{13, 0.15},
                      SweepParam{14, 0.08}, SweepParam{15, 0.6}));

//===----------------------------------------------------------------------===//
// Full-detection baselines against the oracle.
//===----------------------------------------------------------------------===//

namespace {

class FullDetectionSweep : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FullDetectionSweep, DjitMatchesOracleEventwise) {
  Trace T = mixedTrace(GetParam());
  HBClosureOracle Oracle(T);
  std::vector<size_t> Expected =
      dedupDeclaredRaces(T, Oracle.declaredRaces(/*MarkedOnly=*/false));
  EXPECT_EQ(Expected, declaredEvents(T, EngineKind::Djit));
}

TEST_P(FullDetectionSweep, FastTrackFindsSameRacyLocationsAsDjit) {
  Trace T = mixedTrace(GetParam());
  std::unique_ptr<Detector> Djit = createDetector(EngineKind::Djit,
                                                  T.numThreads());
  std::unique_ptr<Detector> FT = createDetector(EngineKind::FastTrack,
                                                T.numThreads());
  AlwaysSampler S;
  api::AnalysisSession().addDetector(*Djit).withSampler(S).run(T);
  AlwaysSampler S2;
  api::AnalysisSession().addDetector(*FT).withSampler(S2).run(T);
  EXPECT_EQ(Djit->racyLocations(), FT->racyLocations());
}

TEST_P(FullDetectionSweep, SamplingAt100PercentMatchesDjitVerdicts) {
  Trace T = mixedTrace(GetParam());
  markTrace(T, 1.0, 0);
  std::vector<size_t> Djit = declaredEvents(T, EngineKind::Djit);
  EXPECT_EQ(Djit, declaredEvents(T, EngineKind::SamplingNaive));
  EXPECT_EQ(Djit, declaredEvents(T, EngineKind::SamplingO));
}

TEST_P(FullDetectionSweep, RacyLocationsCoverAllRacyPairs) {
  // Location-level completeness: every location with an HB-race pair is
  // reported by the history-based detector.
  Trace T = mixedTrace(GetParam());
  HBClosureOracle Oracle(T);
  std::unordered_set<VarId> PairLocations;
  for (auto [I, J] : Oracle.allRacePairs())
    PairLocations.insert(T[J].var());

  std::unique_ptr<Detector> D = createDetector(EngineKind::Djit,
                                               T.numThreads());
  AlwaysSampler S;
  api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
  EXPECT_EQ(PairLocations, D->racyLocations());
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullDetectionSweep,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Tree-clock ablation engine: full-HB timestamps imply it must agree with
// the sampling engines' verdicts on mutex/fork-join traces.
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Structured traces with fork/join and non-mutex synchronization
// (appendix A.2 paths).
//===----------------------------------------------------------------------===//

namespace {

std::vector<Trace> structuredTraces(uint64_t Seed) {
  std::vector<Trace> Out;
  Out.push_back(generateProducerConsumer(3, 3, 40, Seed));
  Out.push_back(generateForkJoin(3, 10, Seed));
  Out.push_back(generateBarrierRounds(4, 8, 6, Seed));
  Out.push_back(generatePipeline(2, 3, 60, Seed));
  Out.push_back(generatePingPong(4, 3, 50, Seed));
  return Out;
}

} // namespace

TEST(StructuredTraces, SamplingEnginesAgreeAndMatchOracle) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    size_t Idx = 0;
    for (Trace &T : structuredTraces(Seed)) {
      ASSERT_TRUE(T.validate()) << "trace " << Idx;
      for (double Rate : {0.05, 0.5, 1.0}) {
        markTrace(T, Rate, Seed + Idx * 31);
        HBClosureOracle Oracle(T);
        std::vector<size_t> Expected =
            Oracle.declaredRaces(/*MarkedOnly=*/true);
        EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingNaive))
            << "ST trace " << Idx << " rate " << Rate << " seed " << Seed;
        EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingU))
            << "SU trace " << Idx << " rate " << Rate << " seed " << Seed;
        EXPECT_EQ(Expected, declaredEvents(T, EngineKind::SamplingO))
            << "SO trace " << Idx << " rate " << Rate << " seed " << Seed;
      }
      ++Idx;
    }
  }
}

TEST(StructuredTraces, DjitMatchesOracleWithAtomicsAndForkJoin) {
  for (uint64_t Seed : {1u, 2u}) {
    for (Trace &T : structuredTraces(Seed)) {
      HBClosureOracle Oracle(T);
      EXPECT_EQ(Oracle.declaredRaces(false),
                declaredEvents(T, EngineKind::Djit));
    }
  }
}

TEST(StructuredTraces, WellSynchronizedTracesAreRaceFree) {
  // Producer/consumer, fork/join trees, barriers and pipelines are fully
  // synchronized by construction: no engine may report a race.
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    for (Trace &T : structuredTraces(Seed)) {
      markTrace(T, 1.0, Seed);
      EXPECT_TRUE(declaredEvents(T, EngineKind::Djit).empty());
      EXPECT_TRUE(declaredEvents(T, EngineKind::SamplingO).empty());
    }
  }
}

TEST(TreeClockEngine, MatchesSamplingVerdictsOnMutexTraces) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Trace T = mixedTrace(Seed);
    markTrace(T, 0.2, Seed);
    std::vector<size_t> SO = declaredEvents(T, EngineKind::SamplingO);
    std::vector<size_t> TC = declaredEvents(T, EngineKind::TreeClockFull);
    EXPECT_EQ(SO, TC) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Pinned counters of the two full-HB engines. The differential harnesses
// compare two paths of one build, so a counter drift in both passes them,
// and the fig8 gate covers SU/SO only. These values were recorded from the
// stand-alone Djit+ and tree-clock detectors that the policies replaced.
//===----------------------------------------------------------------------===//

namespace {

struct PinnedRun {
  EngineKind Engine;
  /// A suite benchmark (mutex only), or "barrier" for release-join /
  /// acquire-load rounds.
  const char *TraceName;
  double Rate;
  uint64_t Counters[std::size(MetricsFields)];
  std::vector<size_t> Declared;
};

Trace pinnedTrace(const std::string &Name, double Rate) {
  Trace T = Name == "barrier" ? generateBarrierRounds(4, 8, 6, 1)
                              : generateSuiteTrace(Name, 0.05, 1);
  markTrace(T, Rate, 11);
  return T;
}

const PinnedRun PinnedRuns[] = {
    {EngineKind::Djit, "bufwriter", 0.03,
     {6001, 4609, 131, 696, 0, 696, 696, 0, 696, 0, 0, 0, 0, 0, 0, 4671, 4609,
      3548},
     {76, 84, 86, 87, 92, 133, 134, 135, 137, 149, 157, 167, 179, 238, 243,
      645}},
    {EngineKind::Djit, "bufwriter", 1.0,
     {6001, 4609, 4609, 696, 0, 696, 696, 0, 696, 0, 0, 0, 0, 0, 0, 4671,
      4609, 3548},
     {76, 84, 86, 87, 92, 133, 134, 135, 137, 149, 157, 167, 179, 238, 243,
      645}},
    {EngineKind::Djit, "jigsaw", 0.03,
     {5005, 1175, 29, 1915, 0, 1915, 1915, 0, 1915, 0, 0, 0, 0, 0, 0, 4181,
      1175, 11},
     {118, 1136, 2129, 2955, 3358, 4914, 4963}},
    {EngineKind::Djit, "jigsaw", 1.0,
     {5005, 1175, 1175, 1915, 0, 1915, 1915, 0, 1915, 0, 0, 0, 0, 0, 0, 4181,
      1175, 11},
     {118, 1136, 2129, 2955, 3358, 4914, 4963}},
    {EngineKind::TreeClockFull, "bufwriter", 0.03,
     {6001, 4609, 131, 696, 592, 104, 696, 0, 696, 696, 696, 695, 696, 466,
      624, 792, 131, 88},
     {211, 253, 318, 736, 963, 979, 1001, 1230, 1236, 1237, 2861, 2988, 4856}},
    {EngineKind::TreeClockFull, "bufwriter", 1.0,
     {6001, 4609, 4609, 696, 592, 104, 696, 0, 696, 696, 696, 695, 696, 466,
      624, 3975, 4609, 3548},
     {76, 84, 86, 87, 92, 133, 134, 135, 137, 149, 157, 167, 179, 238, 243,
      645}},
    {EngineKind::TreeClockFull, "jigsaw", 0.03,
     {5005, 1175, 29, 1915, 1224, 691, 1915, 0, 1915, 1915, 1915, 1883, 1915,
      3808, 6910, 1924, 29, 0},
     {}},
    {EngineKind::TreeClockFull, "jigsaw", 1.0,
     {5005, 1175, 1175, 1915, 1224, 691, 1915, 0, 1915, 1915, 1915, 1883,
      1915, 3808, 6910, 2266, 1175, 11},
     {118, 1136, 2129, 2955, 3358, 4914, 4963}},
    {EngineKind::Djit, "barrier", 0.3,
     {430, 360, 93, 35, 0, 35, 35, 0, 35, 0, 0, 0, 0, 0, 0, 262, 360, 0},
     {}},
};

} // namespace

TEST(PinnedCounters, DjitAndTreeClockDoTheRecordedWork) {
  for (const PinnedRun &P : PinnedRuns) {
    SCOPED_TRACE(std::string(engineKindName(P.Engine)) + " on " +
                 P.TraceName + " at " + std::to_string(P.Rate));
    Trace T = pinnedTrace(P.TraceName, P.Rate);
    std::unique_ptr<Detector> D = createDetector(P.Engine, T.numThreads());
    MarkedSampler S;
    api::AnalysisSession().addDetector(*D).withSampler(S).run(T);
    for (size_t I = 0; I < std::size(MetricsFields); ++I)
      EXPECT_EQ(D->metrics().*MetricsFields[I].Member, P.Counters[I])
          << MetricsFields[I].Name;
    std::vector<size_t> Declared;
    for (const RaceReport &R : D->races())
      Declared.push_back(R.EventIndex);
    EXPECT_EQ(Declared, P.Declared);
  }
}

TEST(ShardMap, OwnerAndSlotMatchDivisionForEveryCount) {
  std::mt19937_64 Rng(42);
  const uint64_t Max = std::numeric_limits<uint64_t>::max();
  for (uint32_t Count = 2; Count <= ShardMap::MaxShards; ++Count) {
    ShardMap M(Count);
    std::vector<uint64_t> Xs = {0, 1, Count - 1, Count, Count + 1, Max,
                                Max - 1, Max - Count, uint64_t(1) << 32,
                                (uint64_t(1) << 32) - 1, uint64_t(1) << 63};
    // Neighbours of multiples of Count, where a rounding error would show.
    for (uint64_t Q : {uint64_t(1), uint64_t(1000), Max / Count / 3,
                       Max / Count})
      for (int64_t D = -1; D <= 1; ++D)
        Xs.push_back(Q * Count + static_cast<uint64_t>(D));
    for (int I = 0; I < 200; ++I)
      Xs.push_back(Rng() >> (Rng() % 64));
    for (uint64_t X : Xs) {
      ASSERT_EQ(M.slot(X), X / Count) << "X=" << X << " Count=" << Count;
      ASSERT_EQ(M.owner(X), X % Count) << "X=" << X << " Count=" << Count;
    }
  }
}

TEST(ShardMap, RouteAndVisitsMatchTheirDefinitions) {
  std::mt19937_64 Rng(7);
  const OpKind Kinds[] = {OpKind::Read,    OpKind::Write,
                          OpKind::Acquire, OpKind::Release,
                          OpKind::Fork,    OpKind::AcquireLoad};
  for (uint32_t Count : {2u, 3u, 4u, 7u, 8u, 100u, ShardMap::MaxShards}) {
    ShardMap M(Count);
    for (size_t N : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(63), size_t(64)}) {
      std::vector<Event> Events;
      std::vector<uint8_t> Sampled;
      for (size_t I = 0; I < N; ++I) {
        Events.emplace_back(0, Kinds[Rng() % std::size(Kinds)], Rng());
        Sampled.push_back(Rng() % 3 == 0 ? uint8_t(Rng() | 1) : 0);
      }
      std::vector<uint8_t> Owners(N);
      M.route(Events, Owners);
      for (size_t I = 0; I < N; ++I)
        ASSERT_EQ(Owners[I], isAccess(Events[I].Kind)
                                 ? M.owner(Events[I].Target)
                                 : ShardMap::Replicated);
      for (uint32_t Shard = 0; Shard < Count; ++Shard)
        for (bool Foreign : {false, true}) {
          uint64_t Want = 0;
          for (size_t I = 0; I < N; ++I)
            if (Owners[I] == Shard || Owners[I] == ShardMap::Replicated ||
                (Foreign && Sampled[I]))
              Want |= uint64_t(1) << I;
          ASSERT_EQ(ShardMap::visits(Owners, Sampled, Shard, Foreign), Want)
              << "Count=" << Count << " N=" << N << " Shard=" << Shard;
        }
    }
  }
}
