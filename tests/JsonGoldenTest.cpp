//===- tests/JsonGoldenTest.cpp - Byte-pinned JSON documents --------------===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// Every JSON document the library renders, pinned byte for byte on fixed
// inputs: the session report, the warehouse dashboard, the exploration
// coverage report, the flat profile array and the chrome trace. The other
// suites check these documents by round trip or by comparing two runs, so
// only a golden notices a change of layout, separators, number format or
// escaping. (SARIF has its own golden in TriageTest; the triaged bodies
// have theirs in TriagedTest.)
//
//===----------------------------------------------------------------------===//

#include "sampletrack/SampleTrack.h"

#include <gtest/gtest.h>

#include <string>

using namespace sampletrack;

namespace {

/// A merged profile with nested spans, user counters and a name that needs
/// escaping.
prof::Report handBuiltProfile() {
  prof::ReportNode Analyze;
  Analyze.Name = "analyze";
  Analyze.Count = 2;
  Analyze.InclusiveNanos = 4000;
  Analyze.ExclusiveNanos = 4000;
  Analyze.Counters = {{"batches", 3}, {"events", 120}};

  prof::ReportNode Session;
  Session.Name = "session";
  Session.Count = 1;
  Session.InclusiveNanos = 5000;
  Session.ExclusiveNanos = 1000;
  Session.Children = {Analyze};

  prof::ReportNode Odd;
  Odd.Name = "req\"x\ty";
  Odd.Count = 7;
  Odd.InclusiveNanos = 70;
  Odd.ExclusiveNanos = 70;
  Odd.Counters = {{"q\\", 1}};

  prof::Report R;
  R.Root.Children = {Session, Odd};
  return R;
}

Metrics countingMetrics(uint64_t Base) {
  Metrics M;
  uint64_t V = Base;
  for (uint64_t *F :
       {&M.Events, &M.Accesses, &M.SampledAccesses, &M.AcquiresTotal,
        &M.AcquiresSkipped, &M.AcquiresProcessed, &M.ReleasesTotal,
        &M.ReleasesSkipped, &M.ReleasesProcessed, &M.ShallowCopies,
        &M.DeepCopies, &M.PoolHits, &M.CowBreaks, &M.EntriesTraversed,
        &M.TraversalOpportunities, &M.FullClockOps, &M.RaceChecks,
        &M.RacesDeclared})
    *F = V++;
  return M;
}

/// A deduplicated one-run summary with the given per-var hit counts:
/// worker-thread writes in insertion order.
triage::TriageSummary runWith(
    std::initializer_list<std::pair<VarId, uint64_t>> VarHits) {
  triage::RaceSink Sink;
  uint64_t Pos = 0;
  for (auto [Var, N] : VarHits)
    for (uint64_t I = 0; I < N; ++I)
      Sink.insert(RaceReport{Pos++, 1, Var, OpKind::Write});
  return Sink.summary();
}

/// Replaces the "ts" value of every counter ("C") event, which comes from a
/// clock read, with "#".
std::string maskCounterTimestamps(const std::string &Doc) {
  std::string Out;
  size_t From = 0, At;
  while ((At = Doc.find("\"ph\": \"C\"", From)) != std::string::npos) {
    size_t Ts = Doc.find("\"ts\": ", At) + 6;
    Out.append(Doc, From, Ts - From);
    Out += '#';
    From = Doc.find(',', Ts);
  }
  Out.append(Doc, From);
  return Out;
}

} // namespace

TEST(JsonGolden, SessionReport) {
  // Two engine lanes: the first lists more races than MaxRaces keeps, the
  // second has a truncated sink and a name that needs escaping.
  api::SessionResult R;
  R.EventsProcessed = 1200;
  R.NumThreads = 4;
  R.NumWorkers = 2;
  R.Shards = 3;
  R.WallNanos = 987654321;
  R.IngestNanos = 12345;

  api::EngineRun FT;
  FT.Engine = "FT";
  FT.SamplerName = "bernoulli(rate=0.03,seed=7)";
  FT.Stats = countingMetrics(1);
  FT.NumRaces = 9;
  FT.NumRacyLocations = 2;
  FT.DistinctRaces = 3;
  FT.SampleSize = 40;
  FT.WallNanos = 5555;
  FT.Shards = 3;
  FT.Races = {RaceReport{10, 1, 100, OpKind::Write},
              RaceReport{11, 2, 100, OpKind::Read},
              RaceReport{12, 3, 101, OpKind::Write}};

  api::EngineRun SO = FT;
  SO.Engine = "S\"O";
  SO.Stats = countingMetrics(100);
  SO.NumRaces = 1;
  SO.RacesTruncated = true;
  SO.Races = {RaceReport{42, 0, 7, OpKind::Read}};

  R.Engines = {FT, SO};
  R.Triage = runWith({{100, 2}, {101, 1}});
  R.Triage.DroppedDeclarations = 4;
  R.Triage.Capped = true;
  R.Profile = handBuiltProfile();

  EXPECT_EQ(api::toJson(R, /*MaxRaces=*/2), R"json({
  "eventsProcessed": 1200,
  "numThreads": 4,
  "numWorkers": 2,
  "shards": 3,
  "wallNanos": 987654321,
  "ingestNanos": 12345,
  "engines": [
    {
      "engine": "FT",
      "sampler": "bernoulli(rate=0.03,seed=7)",
      "races": 9,
      "distinctRaces": 3,
      "racyLocations": 2,
      "sampleSize": 40,
      "shards": 3,
      "wallNanos": 5555,
      "racesTruncated": false,
      "raceReports": [
        {"event": 10, "thread": 1, "var": 100, "op": "w"},
        {"event": 11, "thread": 2, "var": 100, "op": "r"}
      ],
      "metrics": {
        "events": 1,
        "accesses": 2,
        "sampledAccesses": 3,
        "acquiresTotal": 4,
        "acquiresSkipped": 5,
        "acquiresProcessed": 6,
        "releasesTotal": 7,
        "releasesSkipped": 8,
        "releasesProcessed": 9,
        "shallowCopies": 10,
        "deepCopies": 11,
        "poolHits": 12,
        "cowBreaks": 13,
        "entriesTraversed": 14,
        "traversalOpportunities": 15,
        "fullClockOps": 16,
        "raceChecks": 17,
        "racesDeclared": 18
      }
    },
    {
      "engine": "S\"O",
      "sampler": "bernoulli(rate=0.03,seed=7)",
      "races": 1,
      "distinctRaces": 3,
      "racyLocations": 2,
      "sampleSize": 40,
      "shards": 3,
      "wallNanos": 5555,
      "racesTruncated": true,
      "raceReports": [
        {"event": 42, "thread": 0, "var": 7, "op": "r"}
      ],
      "metrics": {
        "events": 100,
        "accesses": 101,
        "sampledAccesses": 102,
        "acquiresTotal": 103,
        "acquiresSkipped": 104,
        "acquiresProcessed": 105,
        "releasesTotal": 106,
        "releasesSkipped": 107,
        "releasesProcessed": 108,
        "shallowCopies": 109,
        "deepCopies": 110,
        "poolHits": 111,
        "cowBreaks": 112,
        "entriesTraversed": 113,
        "traversalOpportunities": 114,
        "fullClockOps": 115,
        "raceChecks": 116,
        "racesDeclared": 117
      }
    }
  ],
  "triage": {
    "distinctSignatures": 2,
    "racesDeclared": 3,
    "droppedDeclarations": 4,
    "capped": true
  },
  "profile": [{"path": "session", "count": 1, "inclusiveNanos": 5000, "exclusiveNanos": 1000}, {"path": "session/analyze", "count": 2, "inclusiveNanos": 4000, "exclusiveNanos": 4000, "counters": {"batches": 3, "events": 120}}, {"path": "req\"x\ty", "count": 7, "inclusiveNanos": 70, "exclusiveNanos": 70, "counters": {"q\\": 1}}]
}
)json");

  // No lanes, no race reports, no profile: the empty containers.
  EXPECT_EQ(api::toJson(api::SessionResult{}, /*MaxRaces=*/0), R"json({
  "eventsProcessed": 0,
  "numThreads": 0,
  "numWorkers": 0,
  "shards": 0,
  "wallNanos": 0,
  "ingestNanos": 0,
  "engines": [
  ],
  "triage": {
    "distinctSignatures": 0,
    "racesDeclared": 0,
    "droppedDeclarations": 0,
    "capped": false
  },
  "profile": []
}
)json");
}

TEST(JsonGolden, WarehouseDashboard) {
  EXPECT_EQ(triage::toJson(triage::TriageStore{}), R"json({
  "signatureVersion": 1,
  "runs": 0,
  "distinctSignatures": 0,
  "races": [
  ]
}
)json");

  // Three records over two runs: known, new, and a suppressed one.
  triage::TriageStore Store;
  Store.mergeRun(runWith({{10, 5}, {20, 2}}));
  Store.mergeRun(runWith({{10, 1}, {30, 3}}));
  Store.suppress(triage::RaceSignature::of(20, OpKind::Write, 1).Value);
  EXPECT_EQ(triage::toJson(Store), R"json({
  "signatureVersion": 1,
  "runs": 2,
  "distinctSignatures": 3,
  "races": [
    {"signature": "4b621cf676431f58", "hits": 6, "runs": 2, "firstSeenRun": 1, "lastSeenRun": 2, "suppressed": false, "status": "known", "var": 10, "op": "w", "threadRole": "worker", "exemplarEvent": 0, "exemplarThread": 1},
    {"signature": "97a5a1b724a8d374", "hits": 3, "runs": 1, "firstSeenRun": 2, "lastSeenRun": 2, "suppressed": false, "status": "new", "var": 30, "op": "w", "threadRole": "worker", "exemplarEvent": 1, "exemplarThread": 1},
    {"signature": "010491fb522c0070", "hits": 2, "runs": 1, "firstSeenRun": 1, "lastSeenRun": 1, "suppressed": true, "status": "new", "var": 20, "op": "w", "threadRole": "worker", "exemplarEvent": 5, "exemplarThread": 1}
  ]
}
)json");
}

TEST(JsonGolden, ExplorationCoverage) {
  explore::ExploreReport R;
  R.Mode = "random";
  R.Seed = 1234;
  R.SchedulesRequested = 8;
  R.SchedulesRun = 2;
  R.DeadlockedSchedules = 1;
  R.DuplicateSchedules = 5;
  R.EventsAnalyzed = 600;
  R.OracleDistinctSignatures = 3;
  R.OracleFullDistinctSignatures = 4;
  R.SchedulesWithOracleRaces = 1;
  R.AllAgreed = false;
  R.Engines = {{"FT", 2, 2, 1, 1, 3, 1.0}, {"SO", 2, 1, 3, 1, 2, 1.0 / 3}};
  R.Schedules = {{0xdeadbeefull, 300, 2, 3, true},
                 {0x0123456789abcdefull, 300, 0, 1, false}};
  EXPECT_EQ(explore::toJson(R), R"json({
  "mode": "random",
  "seed": 1234,
  "schedulesRequested": 8,
  "schedulesRun": 2,
  "deadlockedSchedules": 1,
  "duplicateSchedules": 5,
  "eventsAnalyzed": 600,
  "oracleDistinctSignatures": 3,
  "oracleFullDistinctSignatures": 4,
  "schedulesWithOracleRaces": 1,
  "allAgreed": false,
  "engines": [
    {"engine": "FT", "schedulesChecked": 2, "schedulesAgreed": 2, "oracleRacySchedules": 1, "detectedRacySchedules": 1, "distinctSignatures": 3, "detectionRate": 1.0000},
    {"engine": "SO", "schedulesChecked": 2, "schedulesAgreed": 1, "oracleRacySchedules": 3, "detectedRacySchedules": 1, "distinctSignatures": 2, "detectionRate": 0.3333}
  ],
  "schedules": [
    {"hash": "00000000deadbeef", "events": 300, "oracleSignatures": 2, "oracleFullSignatures": 3, "agreed": true},
    {"hash": "0123456789abcdef", "events": 300, "oracleSignatures": 0, "oracleFullSignatures": 1, "agreed": false}
  ]
}
)json");
}

TEST(JsonGolden, ProfileArray) {
  // Pre-order, path-flattened, counters only where a span has some.
  EXPECT_EQ(prof::toJsonArray(handBuiltProfile()), R"json([{"path": "session", "count": 1, "inclusiveNanos": 5000, "exclusiveNanos": 1000}, {"path": "session/analyze", "count": 2, "inclusiveNanos": 4000, "exclusiveNanos": 4000, "counters": {"batches": 3, "events": 120}}, {"path": "req\"x\ty", "count": 7, "inclusiveNanos": 70, "exclusiveNanos": 70, "counters": {"q\\": 1}}])json");
  EXPECT_EQ(prof::toJsonArray(prof::Report{}), "[]");
}

TEST(JsonGolden, ChromeTrace) {
  // Spans at fixed offsets from the profiler's epoch, so their timestamps
  // are fixed; the counter sample's timestamp is a clock read and masked.
  prof::Profiler P;
  prof::Tree *Main = P.makeTree("main");
  prof::Tree *Worker = P.makeTree("worker \"1\"");
  uint64_t E = P.epochNanos();
  prof::NodeId Ingest = Main->internPath({"session", "ingest"});
  Main->addSpan(Ingest, E + 1500, E + 4250);
  Main->addSpan(Ingest, E + 1000000, E + 1000001);
  Main->counterEvent(Ingest, "queue", 7);
  prof::NodeId Lane = Worker->internPath({"session", "analyze", "FT"});
  Worker->addSpan(Lane, E + 2000, E + 2000);
  EXPECT_EQ(maskCounterTimestamps(prof::toChromeTrace(P, "fig\"8")),
            R"json({"traceEvents": [
  {"ph": "M", "name": "process_name", "pid": 1, "tid": 0, "args": {"name": "fig\"8"}},
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "main"}},
  {"ph": "X", "name": "ingest", "cat": "fig\"8", "pid": 1, "tid": 1, "ts": 1.500, "dur": 2.750},
  {"ph": "X", "name": "ingest", "cat": "fig\"8", "pid": 1, "tid": 1, "ts": 1000.000, "dur": 0.001},
  {"ph": "C", "name": "queue", "pid": 1, "tid": 1, "ts": #, "args": {"queue": 7}},
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2, "args": {"name": "worker \"1\""}},
  {"ph": "X", "name": "FT", "cat": "fig\"8", "pid": 1, "tid": 2, "ts": 2.000, "dur": 0.000}
], "displayTimeUnit": "ms"}
)json");
}
