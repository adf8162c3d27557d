//===- explore/Coverage.cpp - Exploration coverage ---------------------------//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/explore/Coverage.h"

#include "sampletrack/support/Json.h"

#include <cstdio>

using namespace sampletrack;
using namespace sampletrack::explore;

namespace {

std::string hex16(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

std::string sampletrack::explore::toJson(const ExploreReport &R) {
  constexpr auto Inline = support::JsonWriter::Inline;
  support::JsonWriter W;
  W.object().fields(
      {{"mode", R.Mode}, {"seed", R.Seed},
       {"schedulesRequested", R.SchedulesRequested},
       {"schedulesRun", R.SchedulesRun},
       {"deadlockedSchedules", R.DeadlockedSchedules},
       {"duplicateSchedules", R.DuplicateSchedules},
       {"eventsAnalyzed", R.EventsAnalyzed},
       {"oracleDistinctSignatures", R.OracleDistinctSignatures},
       {"oracleFullDistinctSignatures", R.OracleFullDistinctSignatures},
       {"schedulesWithOracleRaces", R.SchedulesWithOracleRaces},
       {"allAgreed", R.AllAgreed}});
  W.key("engines").array();
  for (const EngineCoverage &E : R.Engines)
    W.object(Inline)
        .fields({{"engine", E.Engine},
                 {"schedulesChecked", E.SchedulesChecked},
                 {"schedulesAgreed", E.SchedulesAgreed},
                 {"oracleRacySchedules", E.OracleRacySchedules},
                 {"detectedRacySchedules", E.DetectedRacySchedules},
                 {"distinctSignatures", E.DistinctSignatures},
                 // Fixed precision, so equal rates are equal bytes.
                 {"detectionRate", support::JsonWriter::Fixed{
                                       E.DetectionRate, 4}}})
        .end();
  W.end().key("schedules").array();
  for (const ScheduleOutcome &S : R.Schedules)
    W.object(Inline)
        .fields({{"hash", hex16(S.Hash)}, {"events", S.Events},
                 {"oracleSignatures", S.OracleSignatures},
                 {"oracleFullSignatures", S.OracleFullSignatures},
                 {"agreed", S.Agreed}})
        .end();
  W.end().end();
  return W.take();
}
