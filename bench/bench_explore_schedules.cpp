//===- bench/bench_explore_schedules.cpp - Exploration throughput -----------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput of the schedule-exploration pipeline, split into its two
/// costs so regressions are attributable:
///
///  - enumerate: the scheduler alone (walk generation + dedup +
///    materialization), schedules/second;
///  - explore: the full api::runExploration loop — per-schedule sampling,
///    a multi-engine AnalysisSession, the O(N T) exact-HB oracle and the
///    signature cross-check — schedules/second and events/second.
///
/// The oracle dominates by design (it is the per-schedule correctness
/// gate); this bench is what keeps that cost visible as workloads scale.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <chrono>

using namespace sampletrack;
using namespace stbench;

namespace {

uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  std::printf("== explore: schedule enumeration + analysis throughput ==\n\n");

  GenConfig G;
  G.NumThreads = 6;
  G.NumLocks = 6;
  G.NumVars = 128;
  G.NumEvents = static_cast<size_t>(2000 * O.Scale) + 200;
  G.UnprotectedFraction = 0.04;
  G.Seed = O.Seed;
  explore::Workload W = explore::Workload::fromTrace(generateWorkload(G));
  const size_t Budget = static_cast<size_t>(120 * O.Scale) + 8;

  Table Out({"phase", "mode", "schedules", "events", "ms", "sched/s",
             "Mevents/s"});
  JsonReport Json("explore", O);

  for (explore::ExploreMode M :
       {explore::ExploreMode::Random, explore::ExploreMode::Pct}) {
    explore::ExploreConfig EC;
    EC.Mode = M;
    EC.Seed = O.Seed;
    EC.MaxSchedules = Budget;

    // Phase 1: enumeration alone.
    uint64_t T0 = nowNanos();
    explore::Scheduler Sched(W, EC);
    explore::Schedule S;
    uint64_t Emitted = 0, Events = 0;
    while (Sched.next(S)) {
      Trace T = explore::Scheduler::materialize(W, S.Choices);
      ++Emitted;
      Events += T.size();
    }
    uint64_t EnumNanos = nowNanos() - T0;
    double EnumMs = EnumNanos / 1e6;
    Out.addRow({"enumerate", exploreModeName(M), std::to_string(Emitted),
                std::to_string(Events), Table::fmt(EnumMs),
                Table::fmt(Emitted / (EnumNanos / 1e9)),
                Table::fmt(Events / (EnumNanos / 1e3))});
    Metrics None;
    Json.addRow(std::string("enumerate-") + exploreModeName(M), "none", 0,
                Events, EnumNanos, None, {{"schedules", Emitted}});

    // Phase 2: the full exploration pipeline (session + oracle + gate).
    api::SessionConfig Cfg;
    Cfg.Engines = {EngineKind::Djit, EngineKind::FastTrack,
                   EngineKind::SamplingO};
    Cfg.Sampling = api::SamplerKind::Bernoulli;
    Cfg.SamplingRate = 0.03;
    Cfg.Seed = O.Seed;
    Cfg.NumWorkers = O.Workers;
    T0 = nowNanos();
    explore::ExploreReport R = api::runExploration(Cfg, W, EC);
    uint64_t RunNanos = nowNanos() - T0;
    double RunMs = RunNanos / 1e6;
    if (!R.AllAgreed) {
      std::fprintf(stderr, "FATAL: exploration disagreed with the oracle\n");
      return 1;
    }
    Out.addRow({"explore", exploreModeName(M),
                std::to_string(R.SchedulesRun),
                std::to_string(R.EventsAnalyzed), Table::fmt(RunMs),
                Table::fmt(R.SchedulesRun / (RunNanos / 1e9)),
                Table::fmt(R.EventsAnalyzed / (RunNanos / 1e3))});
    Json.addRow(std::string("explore-") + exploreModeName(M), "Djit+FT+SO",
                Cfg.SamplingRate, R.EventsAnalyzed, RunNanos, None,
                {{"schedules", R.SchedulesRun},
                 {"racySchedules", R.SchedulesWithOracleRaces}});
  }

  finish(Out, O);
  // Self-profile attachment + chrome trace: one profiled Random-mode
  // exploration at a reduced budget. A separate run — the timed rows above
  // never pay the profiling branch.
  {
    explore::ExploreConfig EC;
    EC.Mode = explore::ExploreMode::Random;
    EC.Seed = O.Seed;
    EC.MaxSchedules = std::min<size_t>(Budget, 8);
    api::SessionConfig Cfg;
    Cfg.Engines = {EngineKind::Djit, EngineKind::FastTrack,
                   EngineKind::SamplingO};
    Cfg.Sampling = api::SamplerKind::Bernoulli;
    Cfg.SamplingRate = 0.03;
    Cfg.Seed = O.Seed;
    prof::Profiler P;
    api::runExploration(Cfg, W, EC, &P);
    Json.attachProfile(P.report());
    writeTraceIfRequested(O, prof::toChromeTrace(P, "explore"));
  }
  Json.writeIfRequested(O);
  return 0;
}
