//===- triage/Exporters.cpp - Warehouse renderings --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triage/Exporters.h"

#include "sampletrack/support/Json.h"

#include <sstream>

using namespace sampletrack;
using namespace sampletrack::triage;

namespace {

std::string hexOf(uint64_t Sig) { return RaceSignature{Sig}.hex(); }

const char *roleName(ThreadId T) {
  return threadRole(T) == ThreadRole::Main ? "main" : "worker";
}

/// One human-readable line describing a record's exemplar.
std::string describe(const TriageStore::Record &R) {
  std::ostringstream OS;
  OS << (R.Exemplar.Kind == OpKind::Write ? "write" : "read") << " race on V"
     << R.Exemplar.Var << " by " << roleName(R.Exemplar.Tid) << " thread";
  return OS.str();
}

} // namespace

std::string sampletrack::triage::toText(const TriageStore &Store,
                                        size_t TopN) {
  std::ostringstream OS;
  std::vector<const TriageStore::Record *> Ranked = Store.ranked(TopN);
  OS << "race warehouse: " << Store.size() << " distinct signature(s) over "
     << Store.runCount() << " run(s)";
  if (TopN && Store.size() > TopN)
    OS << " (top " << TopN << " shown)";
  OS << "\n";
  OS << "  rank        hits  runs  signature         status      exemplar\n";
  size_t Rank = 0;
  for (const TriageStore::Record *R : Ranked) {
    char Line[160];
    // The classification of the record's latest sighting; a record absent
    // from the most recent run shows as "quiet" (it may be fixed — or the
    // next sighting will classify it regressed).
    const char *Status = R->Suppressed ? "suppressed"
                         : R->LastSeenRun < Store.runCount()
                             ? "quiet"
                             : raceStatusName(R->LastStatus);
    std::snprintf(Line, sizeof(Line),
                  "  %4zu  %10llu  %4u  %s  %-10s  %s\n", ++Rank,
                  static_cast<unsigned long long>(R->Hits), R->Runs,
                  hexOf(R->Signature).c_str(), Status,
                  describe(*R).c_str());
    OS << Line;
  }
  return OS.str();
}

std::string sampletrack::triage::toJson(const TriageStore &Store) {
  support::JsonWriter W;
  W.object().fields({{"signatureVersion", RaceSignature::Version},
                     {"runs", Store.runCount()},
                     {"distinctSignatures", Store.size()}});
  W.key("races").array();
  for (const TriageStore::Record *RP : Store.ranked()) {
    const TriageStore::Record &R = *RP;
    W.object(support::JsonWriter::Inline)
        .fields({{"signature", hexOf(R.Signature)}, {"hits", R.Hits},
                 {"runs", R.Runs}, {"firstSeenRun", R.FirstSeenRun},
                 {"lastSeenRun", R.LastSeenRun}, {"suppressed", R.Suppressed},
                 {"status", raceStatusName(R.LastStatus)},
                 {"var", R.Exemplar.Var}, {"op", opKindName(R.Exemplar.Kind)},
                 {"threadRole", roleName(R.Exemplar.Tid)},
                 {"exemplarEvent", R.Exemplar.EventIndex},
                 {"exemplarThread", R.Exemplar.Tid}})
        .end();
  }
  W.end().end();
  return W.take();
}

std::string sampletrack::triage::toSarif(const TriageStore &Store,
                                         const std::string &ToolVersion) {
  constexpr auto Inline = support::JsonWriter::Inline;
  support::JsonWriter W;
  W.object().fields(
      {{"$schema", "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json"},
       {"version", "2.1.0"}});
  W.key("runs").array().object().key("tool").object().key("driver").object();
  W.fields({{"name", "SampleTrack"}, {"version", ToolVersion}});
  W.key("rules").array().object();
  W.fields({{"id", "sampletrack/data-race"}, {"name", "DataRace"}});
  W.key("shortDescription")
      .object(Inline)
      .field("text", "Data race detected by sampling-based happens-before "
                     "analysis")
      .end();
  W.end().end().end().end(); // The rule, rules, driver, tool.
  W.key("results").array();
  for (const TriageStore::Record *RP : Store.ranked()) {
    const TriageStore::Record &R = *RP;
    if (R.Suppressed)
      continue; // Suppressions are the SARIF consumer's "dismissed" state.
    W.object().fields(
        {{"ruleId", "sampletrack/data-race"}, {"level", "warning"}});
    W.key("message")
        .object(Inline)
        .field("text", describe(R) + ": " + std::to_string(R.Hits) +
                           " declaration(s) across " +
                           std::to_string(R.Runs) + " run(s)")
        .end();
    W.key("partialFingerprints")
        .object(Inline)
        .field("raceSignature/v" + std::to_string(RaceSignature::Version),
               hexOf(R.Signature))
        .end();
    W.key("locations").array().object(Inline);
    W.key("logicalLocations").array(Inline).object(Inline);
    W.fields({{"fullyQualifiedName", "var:" + std::to_string(R.Exemplar.Var)},
              {"kind", "variable"}});
    // The logical location, logicalLocations, the location, locations.
    W.end().end().end().end();
    W.key("properties")
        .object(Inline)
        .fields({{"hits", R.Hits}, {"runs", R.Runs},
                 {"firstSeenRun", R.FirstSeenRun},
                 {"lastSeenRun", R.LastSeenRun},
                 {"threadRole", roleName(R.Exemplar.Tid)},
                 {"op", opKindName(R.Exemplar.Kind)}})
        .end()
        .end();
  }
  W.end().end().end().end(); // results, the run, runs, the log.
  return W.take();
}
