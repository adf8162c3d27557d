//===- tests/ShardDeterminismTest.cpp - Intra-engine shard determinism ----===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// The sharding contract of api::AnalysisSession: for any SessionConfig::
// Shards, the SessionResult — minus the wall-clock/shape fields stripTiming
// zeroes — is byte-identical to the unsharded run. Access events are
// analyzed by exactly one shard (VarId % Shards), sync events replicate
// into every shard, and the per-shard sinks/metrics fold back into the
// sequential numbers (position-ordered re-capping, field-wise sums).
// Covers the full axis cross with worker counts, pooling, and per-event
// dispatch, the racesTruncated path near the retention cap, and the
// single-engine speedup demonstration (skipped on hosts without the
// cores to show parallelism).
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"

#include "sampletrack/trace/SuiteGen.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

// The wall-clock speedup assertion is meaningless under ThreadSanitizer
// (5-15x serialized slowdown); the identity checks still run there.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SAMPLETRACK_UNDER_TSAN 1
#endif
#endif
#if !defined(SAMPLETRACK_UNDER_TSAN) && defined(__SANITIZE_THREAD__)
#define SAMPLETRACK_UNDER_TSAN 1
#endif

using namespace sampletrack;

namespace {

const size_t ShardCounts[] = {0, 2, 4, 8};
const size_t WorkerCounts[] = {0, 1, 2, 8};

/// The acceptance lane set: full detection plus all three sampling engines.
const EngineKind FourLanes[] = {EngineKind::FastTrack,
                                EngineKind::SamplingNaive,
                                EngineKind::SamplingO, EngineKind::SamplingU};

api::SessionResult runWith(api::SessionConfig Cfg, const Trace &T,
                           size_t Shards, size_t Workers) {
  Cfg.Shards = Shards;
  Cfg.NumWorkers = Workers;
  return api::AnalysisSession(std::move(Cfg)).run(T);
}

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

TEST(ShardDeterminism, ResultIsIdenticalAcrossShardAndWorkerCounts) {
  Trace T = generateSuiteTrace("bufwriter", 0.25, 3);

  api::SessionConfig Cfg;
  Cfg.Engines.assign(std::begin(FourLanes), std::end(FourLanes));
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = 0.03;
  Cfg.Seed = 7;
  Cfg.BatchSize = 777; // Deliberately odd: span boundaries must not matter.

  api::SessionResult Baseline = api::stripTiming(runWith(Cfg, T, 0, 0));
  ASSERT_EQ(Baseline.Engines.size(), std::size(FourLanes));
  EXPECT_GT(Baseline.Engines[0].NumRaces, 0u); // FT found real work.

  for (size_t S : ShardCounts)
    for (size_t W : WorkerCounts) {
      SCOPED_TRACE("shards=" + std::to_string(S) +
                   " workers=" + std::to_string(W));
      EXPECT_TRUE(api::stripTiming(runWith(Cfg, T, S, W)) == Baseline);
    }
}

TEST(ShardDeterminism, HotPathAxesDoNotChangeShardedResults) {
  // Pooling and the per-event reference loop are the differential
  // harness's hot-path axes; sharding must be invisible to both.
  Trace T = generateSuiteTrace("bufwriter", 0.25, 3);

  api::SessionConfig Cfg;
  Cfg.Engines.assign(std::begin(FourLanes), std::end(FourLanes));
  Cfg.Sampling = api::SamplerKind::Bernoulli;
  Cfg.SamplingRate = 0.03;
  Cfg.Seed = 11;

  api::SessionResult Baseline = api::stripTiming(runWith(Cfg, T, 0, 0));
  for (bool Pooled : {true, false})
    for (bool PerEvent : {true, false})
      for (size_t S : {size_t(2), size_t(4)}) {
        SCOPED_TRACE("pooled=" + std::to_string(Pooled) +
                     " perEvent=" + std::to_string(PerEvent) +
                     " shards=" + std::to_string(S));
        api::SessionConfig C = Cfg;
        C.PoolingEnabled = Pooled;
        C.PerEventDispatch = PerEvent;
        api::SessionResult R = api::stripTiming(runWith(C, T, S, 2));
        // Pooling only moves PoolHits (pool-served vs fresh allocations);
        // everything observable must match the unpooled baseline too.
        if (Pooled == Cfg.PoolingEnabled) {
          EXPECT_TRUE(R == Baseline);
        } else {
          api::SessionResult B = Baseline;
          for (auto *Res : {&R, &B})
            for (api::EngineRun &E : Res->Engines)
              E.Stats.PoolHits = 0;
          EXPECT_TRUE(R == B);
        }
      }
}

TEST(ShardDeterminism, ShardCountIsReportedAndComposesWithWorkers) {
  Trace T = generateSuiteTrace("bufwriter", 0.1, 3);
  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::SamplingO, EngineKind::SamplingU};

  // Shards < 2 normalizes to unsharded; the echo says what actually ran.
  EXPECT_EQ(runWith(Cfg, T, 0, 0).Shards, 0u);
  EXPECT_EQ(runWith(Cfg, T, 1, 0).Shards, 0u);
  api::SessionResult R = runWith(Cfg, T, 4, 0);
  EXPECT_EQ(R.Shards, 4u);
  for (const api::EngineRun &E : R.Engines)
    EXPECT_EQ(E.Shards, 4u);

  // Workers clamp against lanes x shards, not the lane count: 2 lanes x 4
  // shards = 8 schedulable units.
  EXPECT_EQ(runWith(Cfg, T, 4, 16).NumWorkers, 8u);
  EXPECT_EQ(runWith(Cfg, T, 0, 16).NumWorkers, 2u);
}

TEST(ShardDeterminism, TruncatedRaceListsStayIdenticalAcrossShardCounts) {
  // More distinct racy locations than the sink capacity, plus heavy
  // duplicate traffic on the stored ones. The sequential sink keeps the
  // first Cap signatures in first-seen order; the per-shard sinks each
  // keep their own first Cap and the merge re-caps by exemplar position —
  // the stored exemplars, truncation flag, overflow counters and merged
  // triage summary must all land on the sequential values.
  const size_t Cap = 128;
  const size_t NumVars = 512;
  Trace T(3, 0, NumVars);
  for (size_t Round = 0; Round < 3; ++Round)
    for (size_t V = 0; V < NumVars; ++V) {
      T.write(1, V, /*Marked=*/true);
      T.write(2, V, /*Marked=*/true);
    }

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack, EngineKind::SamplingNaive};
  Cfg.Sampling = api::SamplerKind::Marked;
  Cfg.TriageCapacity = Cap;

  api::SessionResult Baseline = api::stripTiming(runWith(Cfg, T, 0, 0));
  const api::EngineRun &Ft = Baseline.Engines.front();
  ASSERT_TRUE(Ft.RacesTruncated);
  ASSERT_EQ(Ft.Races.size(), Cap);
  ASSERT_EQ(Ft.DistinctRaces, Cap);
  ASSERT_GT(Ft.NumRaces, Cap);
  ASSERT_TRUE(Baseline.Triage.Capped);

  for (size_t S : ShardCounts)
    for (size_t W : {size_t(0), size_t(2)}) {
      SCOPED_TRACE("shards=" + std::to_string(S) +
                   " workers=" + std::to_string(W));
      api::SessionResult R = api::stripTiming(runWith(Cfg, T, S, W));
      EXPECT_TRUE(R == Baseline);
    }
}

TEST(ShardDeterminism, SingleEngineFtAndSoBitIdenticalOnFig5bWorkload) {
  // The acceptance check: one engine, the fig5b workload shape at 100%
  // sampling, Shards=4 vs unsharded — signature sets and metrics must be
  // bit-identical (only timing/shape echoes may differ).
  Trace T = generateSuiteTrace("bufwriter", 1.0, 5);

  for (EngineKind K : {EngineKind::FastTrack, EngineKind::SamplingO}) {
    api::SessionConfig Cfg;
    Cfg.Engines = {K};
    Cfg.Sampling = api::SamplerKind::Always;

    api::SessionResult Seq = api::stripTiming(runWith(Cfg, T, 0, 0));
    ASSERT_EQ(Seq.Engines.size(), 1u);
    EXPECT_GT(Seq.Engines[0].NumRaces, 0u);
    for (size_t W : {size_t(0), size_t(4)}) {
      SCOPED_TRACE("engine=" + std::string(Seq.Engines[0].Engine) +
                   " workers=" + std::to_string(W));
      EXPECT_TRUE(api::stripTiming(runWith(Cfg, T, 4, W)) == Seq);
    }
  }
}

TEST(ShardDeterminism, SingleEngineShardSpeedupOnFig5bWorkload) {
  // The point of sharding: ONE engine on one big trace scales past one
  // core. FT at 100% sampling, Shards=4 x NumWorkers=4 vs sequential
  // unsharded, expecting >= 1.5x on a host with >= 4 usable cores. The
  // wall clock is the only thing allowed to differ — the results must
  // still be byte-identical. Hosts without the cores verify identity only.
  const unsigned Cores = std::thread::hardware_concurrency();

  Trace T = generateSuiteTrace("bufwriter", 1.0, 5);

  api::SessionConfig Cfg;
  Cfg.Engines = {EngineKind::FastTrack};
  Cfg.Sampling = api::SamplerKind::Always; // Access work dominates.

  auto Measure = [&](size_t Shards, size_t Workers, api::SessionResult &Out) {
    // Best-of-3 tames scheduler noise without hiding real overhead.
    uint64_t Best = ~uint64_t(0);
    for (int Rep = 0; Rep < 3; ++Rep) {
      uint64_t T0 = nowNanos();
      Out = runWith(Cfg, T, Shards, Workers);
      Best = std::min(Best, nowNanos() - T0);
    }
    return Best;
  };

  api::SessionResult Seq, Sharded;
  uint64_t SeqNanos = Measure(0, 0, Seq);
  uint64_t ShardedNanos = Measure(4, 4, Sharded);

  EXPECT_TRUE(api::stripTiming(Sharded) == api::stripTiming(Seq));

#ifdef SAMPLETRACK_UNDER_TSAN
  GTEST_SKIP() << "under ThreadSanitizer; wall-clock speedup is not "
                  "meaningful (identity verified above)";
#endif
  if (Cores < 4)
    GTEST_SKIP() << "only " << Cores
                 << " hardware threads; speedup needs >= 4";
  double Speedup = static_cast<double>(SeqNanos) /
                   static_cast<double>(std::max<uint64_t>(ShardedNanos, 1));
  RecordProperty("speedup", std::to_string(Speedup));
  EXPECT_GE(Speedup, 1.5) << "sequential " << SeqNanos << "ns vs sharded "
                          << ShardedNanos << "ns; last run: sequential lane "
                          << Seq.Engines[0].WallNanos << "ns, ingest "
                          << Seq.IngestNanos << "ns; sharded lane "
                          << Sharded.Engines[0].WallNanos
                          << "ns summed over shards, ingest "
                          << Sharded.IngestNanos << "ns";
}
