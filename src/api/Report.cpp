//===- api/Report.cpp - Session result reporters ---------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/Report.h"

#include "sampletrack/support/Json.h"
#include "sampletrack/triage/Exporters.h"

#include <fstream>
#include <sstream>

using namespace sampletrack;
using namespace sampletrack::api;

std::string sampletrack::api::toJson(const SessionResult &R,
                                     size_t MaxRaces) {
  support::JsonWriter W;
  W.object().fields({{"eventsProcessed", R.EventsProcessed},
                     {"numThreads", R.NumThreads},
                     {"numWorkers", R.NumWorkers}, {"shards", R.Shards},
                     {"wallNanos", R.WallNanos},
                     {"ingestNanos", R.IngestNanos}});
  W.key("engines").array();
  for (const EngineRun &E : R.Engines) {
    W.object().fields({{"engine", E.Engine}, {"sampler", E.SamplerName},
                       {"races", E.NumRaces},
                       {"distinctRaces", E.DistinctRaces},
                       {"racyLocations", E.NumRacyLocations},
                       {"sampleSize", E.SampleSize}, {"shards", E.Shards},
                       {"wallNanos", E.WallNanos},
                       {"racesTruncated", E.RacesTruncated}});
    if (MaxRaces) {
      W.key("raceReports").array();
      for (size_t J = 0; J < std::min(MaxRaces, E.Races.size()); ++J) {
        const RaceReport &Race = E.Races[J];
        W.object(support::JsonWriter::Inline)
            .fields({{"event", Race.EventIndex}, {"thread", Race.Tid},
                     {"var", Race.Var}, {"op", opKindName(Race.Kind)}})
            .end();
      }
      W.end();
    }
    W.key("metrics").object();
    for (const MetricsField &F : MetricsFields)
      W.field(F.Name, E.Stats.*F.Member);
    W.end().end();
  }
  W.end();

  // The run's warehouse view: what the lanes' declarations dedup to.
  const triage::TriageSummary &T = R.Triage;
  W.key("triage")
      .object()
      .fields({{"distinctSignatures", T.distinct()},
               {"racesDeclared", T.RacesDeclared},
               {"droppedDeclarations", T.DroppedDeclarations},
               {"capped", T.Capped}})
      .end();
  // The self-profile (empty array unless ProfilingEnabled): one object per
  // span in pre-order, path-flattened.
  prof::toJsonArray(W.key("profile"), R.Profile);
  W.end();
  return W.take();
}

std::string sampletrack::api::toCsv(const SessionResult &R) {
  std::ostringstream OS;
  OS << "engine,sampler,races,distinct_races,racy_locations,"
        "races_truncated,sample_size,shards,"
        "events,accesses,acquires_total,acquires_skipped,releases_total,"
        "releases_skipped,deep_copies,pool_hits,cow_breaks,"
        "entries_traversed,full_clock_ops,wall_nanos\n";
  for (const EngineRun &E : R.Engines) {
    const Metrics &M = E.Stats;
    OS << E.Engine << ',' << E.SamplerName << ',' << E.NumRaces << ','
       << E.DistinctRaces << ',' << E.NumRacyLocations << ','
       << (E.RacesTruncated ? 1 : 0) << ','
       << E.SampleSize << ',' << E.Shards << ',' << M.Events << ','
       << M.Accesses << ','
       << M.AcquiresTotal << ',' << M.AcquiresSkipped << ','
       << M.ReleasesTotal << ',' << M.ReleasesSkipped << ',' << M.DeepCopies
       << ',' << M.PoolHits << ',' << M.CowBreaks << ','
       << M.EntriesTraversed << ',' << M.FullClockOps << ','
       << E.WallNanos << '\n';
  }
  return OS.str();
}

std::string sampletrack::api::toProfileCsv(const SessionResult &R) {
  return prof::toCsv(R.Profile);
}

std::string sampletrack::api::toSarif(const SessionResult &R) {
  // A single-run SARIF log is the warehouse export of a one-run store.
  triage::TriageStore Once;
  Once.mergeRun(R.Triage);
  return triage::toSarif(Once);
}

bool sampletrack::api::runTriage(const SessionConfig &Cfg,
                                 const SessionResult &R, TriageOutcome &Out,
                                 std::string *Error) {
  Out.Store = triage::TriageStore();
  Out.Merge = triage::TriageStore::MergeResult();
  if (!Cfg.TriageStorePath.empty() &&
      !Out.Store.loadIfExists(Cfg.TriageStorePath, Error))
    return false;
  if (!Cfg.SuppressionFile.empty() &&
      !Out.Store.loadSuppressionFile(Cfg.SuppressionFile, Error))
    return false;
  Out.Merge = Out.Store.mergeRun(R.Triage);
  if (!Cfg.TriageStorePath.empty() &&
      !Out.Store.save(Cfg.TriageStorePath, Error))
    return false;
  return true;
}

bool sampletrack::api::writeFile(const std::string &Path,
                                 const std::string &Content) {
  std::ofstream Os(Path, std::ios::binary);
  if (!Os)
    return false;
  Os << Content;
  return static_cast<bool>(Os);
}
