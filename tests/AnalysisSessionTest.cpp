//===- tests/AnalysisSessionTest.cpp - Pipeline API tests ------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The engine-equivalence golden tests: a K-engine AnalysisSession fan-out
// over a single trace traversal must be bit-identical — metrics, race
// lists, sample sets — to K standalone one-lane runs, each a fresh detector
// fed a fresh Bernoulli stream with the same seed. Plus coverage for the batched/shim ingestion paths,
// streamed sources, live hooks, truncation surfacing and the reporters.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"

#include "sampletrack/api/Report.h"
#include "sampletrack/trace/SuiteGen.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/trace/TraceIO.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace sampletrack;

namespace {

/// A mid-sized suite trace with plenty of real races and all event kinds.
Trace goldenTrace() { return generateSuiteTrace("bufwriter", 0.25, 3); }

const EngineKind FanOutKinds[] = {
    EngineKind::Djit, EngineKind::FastTrack, EngineKind::SamplingNaive,
    EngineKind::SamplingU, EngineKind::SamplingO};

/// Runs kind \p K standalone (fresh detector, fresh Bernoulli stream) and
/// returns (result, race list).
std::pair<api::EngineRun, std::vector<RaceReport>>
standaloneRun(const Trace &T, EngineKind K, double Rate, uint64_t Seed) {
  std::unique_ptr<Detector> D = createDetector(K, T.numThreads());
  BernoulliSampler S(Rate, Seed);
  api::EngineRun R = api::AnalysisSession()
      .addDetector(*D)
      .withSampler(S)
      .run(T)
      .Engines.front();
  return {R, D->races()};
}

} // namespace

TEST(AnalysisSession, FanOutMatchesLegacyEngineRunsBitForBit) {
  Trace T = goldenTrace();
  const double Rate = 0.03;
  const uint64_t Seed = 7;

  api::SessionConfig Cfg;
  Cfg.Engines.assign(std::begin(FanOutKinds), std::end(FanOutKinds));
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = Rate;
  Cfg.Seed = Seed;
  api::SessionResult Fan = api::AnalysisSession(Cfg).run(T);

  ASSERT_EQ(Fan.Engines.size(), std::size(FanOutKinds));
  EXPECT_EQ(Fan.EventsProcessed, T.size());

  for (size_t I = 0; I < std::size(FanOutKinds); ++I) {
    SCOPED_TRACE(engineKindName(FanOutKinds[I]));
    auto [Standalone, StandaloneRaces] =
        standaloneRun(T, FanOutKinds[I], Rate, Seed);
    const api::EngineRun &Lane = Fan.Engines[I];

    EXPECT_EQ(Lane.Engine, Standalone.Engine);
    // Bit-identical sample set: every lane shares one decision stream that
    // equals what a standalone Bernoulli sampler with the same seed draws.
    EXPECT_EQ(Lane.SampleSize, Standalone.SampleSize);
    EXPECT_EQ(Lane.Stats, Standalone.Stats);
    EXPECT_EQ(Lane.NumRaces, Standalone.NumRaces);
    EXPECT_EQ(Lane.NumRacyLocations, Standalone.NumRacyLocations);
    EXPECT_EQ(Lane.Races, StandaloneRaces);
    EXPECT_EQ(Lane.RacesTruncated, Standalone.RacesTruncated);

    // Each lane's own bookkeeping agrees with itself.
    EXPECT_EQ(Lane.Stats.Events, T.size());
    EXPECT_EQ(Lane.Stats.SampledAccesses, Lane.SampleSize);
    EXPECT_EQ(Lane.NumRaces, Lane.Stats.RacesDeclared);
    EXPECT_GT(Lane.WallNanos, 0u);
  }

  // The fan-out actually found work to disagree about: the full engines
  // and sampling engines see different race universes.
  EXPECT_GT(Fan.Engines[1].NumRaces, 0u); // FT, full detection on samples.

  // A Bernoulli rate of 1.0 degrades to the always sampler: S is every
  // access, whatever the seed.
  Cfg.SamplingRate = 1.0;
  api::SessionResult Full = api::AnalysisSession(Cfg).run(T);
  uint64_t Accesses = 0;
  for (const Event &E : T)
    Accesses += isAccess(E.Kind);
  for (const api::EngineRun &Lane : Full.Engines) {
    EXPECT_EQ(Lane.SamplerName, "always");
    EXPECT_EQ(Lane.SampleSize, Accesses);
  }
}

TEST(AnalysisSession, StreamedBinarySourceIsReadOnceAndMatchesInMemory) {
  Trace T = goldenTrace();
  markTrace(T, 0.05, 11);

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingU,
                 EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Marked;
  Cfg.BatchSize = 512; // Force many small batches through the decoder.
  api::SessionResult InMemory = api::AnalysisSession(Cfg).run(T);

  // A stringstream is consumable exactly once: if any lane triggered a
  // second traversal, decoding would fail and the run would error out.
  std::ostringstream Bin;
  writeTraceBinary(Bin, T);
  std::istringstream Is(Bin.str());
  api::SessionResult Streamed;
  std::string Err;
  ASSERT_TRUE(api::AnalysisSession(Cfg).run(Is, Streamed, &Err)) << Err;

  ASSERT_EQ(Streamed.Engines.size(), InMemory.Engines.size());
  EXPECT_EQ(Streamed.EventsProcessed, InMemory.EventsProcessed);
  EXPECT_EQ(Streamed.NumThreads, InMemory.NumThreads);
  for (size_t I = 0; I < Streamed.Engines.size(); ++I) {
    EXPECT_EQ(Streamed.Engines[I].Stats, InMemory.Engines[I].Stats);
    EXPECT_EQ(Streamed.Engines[I].Races, InMemory.Engines[I].Races);
    EXPECT_EQ(Streamed.Engines[I].SampleSize, InMemory.Engines[I].SampleSize);
  }
}

TEST(AnalysisSession, BatchedIngestionEqualsPerEventShim) {
  Trace T = goldenTrace();
  markTrace(T, 0.1, 5);

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO};
  Cfg.Sampling = api::SamplerKind::Marked;

  api::AnalysisSession Batched(Cfg);
  ASSERT_TRUE(Batched.begin(T.numThreads()));
  Batched.process(std::span<const Event>(T.events()));
  api::SessionResult A = Batched.finish();

  api::AnalysisSession Shimmed(Cfg);
  ASSERT_TRUE(Shimmed.begin(T.numThreads()));
  for (const Event &E : T)
    Shimmed.process(E);
  api::SessionResult B = Shimmed.finish();

  ASSERT_EQ(A.Engines.size(), 1u);
  ASSERT_EQ(B.Engines.size(), 1u);
  EXPECT_EQ(A.Engines[0].Stats, B.Engines[0].Stats);
  EXPECT_EQ(A.Engines[0].Races, B.Engines[0].Races);
  EXPECT_EQ(A.EventsProcessed, B.EventsProcessed);
}

TEST(AnalysisSession, LiveHooksMatchEquivalentTrace) {
  // The same execution, fed once through live hooks and once as a trace:
  //   t0: acq(l) w(x) rel(l) w(y)   t1: acq(l) w(x) rel(l) w(y)
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Always;
  Cfg.MaxThreads = 4;

  api::AnalysisSession Live(Cfg);
  ASSERT_TRUE(Live.begin());
  api::SessionHooks Hooks(Live);
  ThreadId T1 = Hooks.registerThread();
  SyncId L = Hooks.registerSync();
  Hooks.onAcquire(0, L);
  Hooks.onWrite(0, 0);
  Hooks.onRelease(0, L);
  Hooks.onWrite(0, 1);
  Hooks.onAcquire(T1, L);
  Hooks.onWrite(T1, 0);
  Hooks.onRelease(T1, L);
  Hooks.onWrite(T1, 1);
  api::SessionResult FromHooks = Live.finish();

  Trace T(4, 1, 2);
  T.acquire(0, 0);
  T.write(0, 0);
  T.release(0, 0);
  T.write(0, 1);
  T.acquire(1, 0);
  T.write(1, 0);
  T.release(1, 0);
  T.write(1, 1);
  Cfg.NumThreads = 4;
  api::SessionResult FromTrace = api::AnalysisSession(Cfg).run(T);

  ASSERT_EQ(FromHooks.Engines.size(), 1u);
  ASSERT_EQ(FromTrace.Engines.size(), 1u);
  EXPECT_EQ(FromHooks.Engines[0].Stats, FromTrace.Engines[0].Stats);
  EXPECT_EQ(FromHooks.Engines[0].Races, FromTrace.Engines[0].Races);
  EXPECT_EQ(FromHooks.Engines[0].NumRaces, 1u); // The unprotected w(y) pair.
}

TEST(AnalysisSession, ThreadOverrideBelowTheSourceFailsBegin) {
  // Every lane sizes its thread table by the universe, so a source thread
  // id past an override would index past it.
  Trace T = goldenTrace();
  ASSERT_GT(T.numThreads(), 2u);
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.NumThreads = 2;
  std::string Err;
  EXPECT_FALSE(api::AnalysisSession(Cfg).begin(T.numThreads(), &Err));
  EXPECT_NE(Err.find("NumThreads = 2 "), std::string::npos) << Err;
  EXPECT_NE(Err.find("thread count " + std::to_string(T.numThreads())),
            std::string::npos)
      << Err;
  EXPECT_TRUE(api::AnalysisSession(Cfg).run(T).Engines.empty());

  // An override at or above the source's count still wins.
  Cfg.NumThreads = T.numThreads() + 2;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);
  ASSERT_EQ(R.Engines.size(), 1u);
  EXPECT_EQ(R.NumThreads, T.numThreads() + 2);
}

TEST(AnalysisSession, RegisteringPastTheThreadUniverseEndsTheProcess) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.MaxThreads = 2;
  api::AnalysisSession Session(Cfg);
  ASSERT_TRUE(Session.begin());
  api::SessionHooks Hooks(Session);
  EXPECT_EQ(Hooks.registerThread(), 1u);
  EXPECT_DEATH(Hooks.registerThread(),
               "thread universe exhausted .2 threads.");
}

TEST(AnalysisSession, DuplicateDeclarationsDedupWithoutTruncation) {
  // Two threads alternating unsynchronized writes to one location: every
  // access after the first declares a race — historically this overflowed
  // the stored-race cap; the warehouse sink dedups all of it into one
  // signature with a hit count instead, and truncation stays off.
  constexpr size_t NumEvents = 1 << 16;
  Trace T(3, 0, 1);
  for (size_t I = 0; I < NumEvents; ++I)
    T.write(1 + I % 2, 0, /*Marked=*/true); // Two worker threads: one role,
                                            // one signature.

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Marked;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);

  const api::EngineRun &Ft = R.Engines.front();
  EXPECT_GT(Ft.NumRaces, NumEvents / 2); // Nearly every write races.
  EXPECT_EQ(Ft.DistinctRaces, 1u);
  EXPECT_EQ(Ft.Races.size(), 1u);
  EXPECT_FALSE(Ft.RacesTruncated);
  EXPECT_EQ(R.Triage.distinct(), 1u);
  EXPECT_EQ(R.Triage.Entries[0].Hits, Ft.NumRaces);
  EXPECT_NE(api::toJson(R).find("\"distinctRaces\": 1"), std::string::npos);
}

TEST(AnalysisSession, RaceSinkTruncationIsSurfaced) {
  // Truncation now means "distinct signatures exceeded the sink capacity":
  // 96 distinct racy locations against a 64-signature sink. Two worker
  // threads (same role) write each location back-to-back, so every
  // location contributes exactly one signature.
  constexpr size_t NumVars = 96, Cap = 64;
  Trace T(3, 0, NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    T.write(1, V, /*Marked=*/true);
    T.write(2, V, /*Marked=*/true);
  }

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Marked;
  Cfg.TriageCapacity = Cap;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);

  const api::EngineRun &Ft = R.Engines.front();
  EXPECT_EQ(Ft.NumRaces, NumVars);
  EXPECT_EQ(Ft.DistinctRaces, Cap);
  EXPECT_EQ(Ft.Races.size(), Cap);
  EXPECT_TRUE(Ft.RacesTruncated);
  EXPECT_TRUE(R.Triage.Capped);
  EXPECT_EQ(R.Triage.DroppedDeclarations, NumVars - Cap);

  // The truncation flag travels through both reporters, and distinct-vs-
  // declared makes a capped run distinguishable from a deduplicated one.
  EXPECT_NE(api::toJson(R).find("\"racesTruncated\": true"),
            std::string::npos);
  EXPECT_NE(api::toJson(R).find("\"distinctRaces\": 64"), std::string::npos);
  EXPECT_NE(api::toCsv(R).find(",1,"), std::string::npos);

  // An uncapped run over the same trace: everything distinct, no
  // truncation.
  Cfg.TriageCapacity = 0;
  api::SessionResult Full = api::AnalysisSession(Cfg).run(T);
  EXPECT_EQ(Full.Engines.front().DistinctRaces, NumVars);
  EXPECT_FALSE(Full.Engines.front().RacesTruncated);

  // And stays off when nothing was dropped.
  api::SessionResult Small = api::AnalysisSession(Cfg).run(goldenTrace());
  EXPECT_FALSE(Small.Engines.front().RacesTruncated);
  EXPECT_NE(api::toJson(Small).find("\"racesTruncated\": false"),
            std::string::npos);
}

TEST(AnalysisSession, ReportersCarryEveryLane) {
  Trace T = goldenTrace();
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingO};
  Cfg.SamplingRate = 0.05;
  api::SessionResult R = api::AnalysisSession(Cfg).run(T);

  std::string Json = api::toJson(R, /*MaxRaces=*/4);
  EXPECT_NE(Json.find("\"engine\": \"ST\""), std::string::npos);
  EXPECT_NE(Json.find("\"engine\": \"SO\""), std::string::npos);
  EXPECT_NE(Json.find("\"raceReports\""), std::string::npos);
  EXPECT_NE(Json.find("\"sampler\": \"bernoulli(5%)\""), std::string::npos);

  std::string Csv = api::toCsv(R);
  // Header plus one row per engine.
  EXPECT_EQ(std::count(Csv.begin(), Csv.end(), '\n'), 3);
  EXPECT_NE(Csv.find("ST,"), std::string::npos);
  EXPECT_NE(Csv.find("SO,"), std::string::npos);

  // Lane lookup helper.
  ASSERT_NE(R.find("SO"), nullptr);
  EXPECT_EQ(R.find("SO")->Engine, "SO");
  EXPECT_EQ(R.find("nope"), nullptr);
}

TEST(AnalysisSession, AblationLanesKeepTheirOwnNames) {
  // SO and its local-epoch ablation run the same policy; each lane still
  // reports, and profiles under, its own name.
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO, EngineKind::SamplingONoEpochOpt};
  Cfg.SamplingRate = 0.05;
  Cfg.ProfilingEnabled = true;
  api::SessionResult R = api::AnalysisSession(Cfg).run(goldenTrace());

  ASSERT_NE(R.find("SO"), nullptr);
  ASSERT_NE(R.find("SO-noepoch"), nullptr);
  EXPECT_EQ(R.find("SO")->Stats.RacesDeclared,
            R.find("SO-noepoch")->Stats.RacesDeclared);

  const prof::ReportNode *Analyze = nullptr;
  for (const prof::ReportNode &Session : R.Profile.Root.Children)
    if (Session.Name == "session")
      for (const prof::ReportNode &N : Session.Children)
        if (N.Name == "analyze")
          Analyze = &N;
  ASSERT_NE(Analyze, nullptr);
  ASSERT_EQ(Analyze->Children.size(), 2u);
  EXPECT_EQ(Analyze->Children[0].Name, "SO");
  EXPECT_EQ(Analyze->Children[1].Name, "SO-noepoch");
}

TEST(DetectorFactory, ParseIsCaseInsensitiveAndRoundTrips) {
  for (EngineKind K : allEngineKinds()) {
    std::string Name = engineKindName(K);
    SCOPED_TRACE(Name);
    // Round-trip: the printed name parses back to the same kind.
    ASSERT_TRUE(parseEngineKind(Name).has_value());
    EXPECT_EQ(*parseEngineKind(Name), K);
    // Case-insensitively.
    std::string Upper = Name, Lower = Name;
    for (char &C : Upper)
      C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    for (char &C : Lower)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    ASSERT_TRUE(parseEngineKind(Upper).has_value());
    EXPECT_EQ(*parseEngineKind(Upper), K);
    ASSERT_TRUE(parseEngineKind(Lower).has_value());
    EXPECT_EQ(*parseEngineKind(Lower), K);
  }
  EXPECT_EQ(parseEngineKind("fasttrack"), EngineKind::FastTrack);
  EXPECT_EQ(parseEngineKind("DJIT"), EngineKind::Djit);
  EXPECT_EQ(parseEngineKind("TreeClock"), EngineKind::TreeClockFull);
  EXPECT_EQ(parseEngineKind("so-NOEPOCH"), EngineKind::SamplingONoEpochOpt);
  EXPECT_FALSE(parseEngineKind("warp-drive").has_value());
}

TEST(DetectorFactory, CreateDetectorsPreservesPresentationOrder) {
  std::vector<EngineKind> Kinds = allEngineKinds();
  std::vector<std::unique_ptr<Detector>> Ds = createDetectors(Kinds, 8);
  ASSERT_EQ(Ds.size(), Kinds.size());
  for (size_t I = 0; I < Ds.size(); ++I) {
    ASSERT_NE(Ds[I], nullptr);
    EXPECT_EQ(Ds[I]->numThreads(), 8u);
    // Every lane reports the name its kind prints, ablation variants too.
    EXPECT_EQ(Ds[I]->name(), engineKindName(Kinds[I]));
  }
}
