//===- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-reproduction benches: scale-flag parsing
/// and common offline-run plumbing. Every bench prints the same rows/series
/// the corresponding paper figure reports, plus a CSV next to the binary
/// when --csv is passed.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_BENCH_BENCHCOMMON_H
#define SAMPLETRACK_BENCH_BENCHCOMMON_H

#include "sampletrack/SampleTrack.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace stbench {

/// Common bench options. Scale multiplies trace sizes / request counts so
/// the default "for b in build/bench/*; do $b; done" loop stays fast while
/// --scale 1 approaches paper-sized runs.
struct Options {
  double Scale = 0.25;
  uint64_t Seed = 1;
  /// Detector-lane worker threads for the offline session runs (the
  /// --workers axis; 0 = sequential). Results are bit-identical across
  /// values — only wall-clock changes — so every figure is safe to run at
  /// any worker count.
  size_t Workers = 0;
  /// Intra-engine shard count for the offline session runs (the --shards
  /// axis; 0 = unsharded). Same determinism contract as Workers: results
  /// are bit-identical across values, only wall-clock changes.
  size_t Shards = 0;
  std::string CsvPath;
  /// Machine-readable results (--json PATH): the perf-trajectory format CI
  /// snapshots as BENCH_<fig>.json at the repo root.
  std::string JsonPath;
  /// Chrome-trace output (--trace OUT.json): the bench re-runs one
  /// representative configuration with profiling on and writes the span
  /// timeline as Trace Event Format JSON, loadable in Perfetto /
  /// chrome://tracing. Profiled runs are separate from the timed rows, so
  /// --trace never perturbs the recorded numbers.
  std::string TracePath;

  static Options parse(int Argc, char **Argv) {
    Options O;
    for (int A = 1; A < Argc; ++A) {
      std::string Arg = Argv[A];
      auto Next = [&]() -> const char * {
        if (A + 1 >= Argc) {
          std::fprintf(stderr, "missing value for %s\n", Arg.c_str());
          exit(2);
        }
        return Argv[++A];
      };
      if (Arg == "--scale")
        O.Scale = std::atof(Next());
      else if (Arg == "--seed")
        O.Seed = std::strtoull(Next(), nullptr, 10);
      else if (Arg == "--workers")
        O.Workers = std::strtoull(Next(), nullptr, 10);
      else if (Arg == "--shards")
        O.Shards = std::strtoull(Next(), nullptr, 10);
      else if (Arg == "--csv")
        O.CsvPath = Next();
      else if (Arg == "--json")
        O.JsonPath = Next();
      else if (Arg == "--trace")
        O.TracePath = Next();
      else {
        std::fprintf(stderr,
                     "usage: %s [--scale S] [--seed N] [--workers W] "
                     "[--shards S] [--csv PATH] [--json PATH] "
                     "[--trace OUT.json]\n",
                     Argv[0]);
        exit(2);
      }
    }
    return O;
  }
};

/// Machine-readable bench output: one row per measurement, one JSON
/// document per bench run. The schema is the repo's perf trajectory —
/// CI runs fig5b/fig8 with --json and keeps BENCH_<fig>.json at the repo
/// root so every PR is held to the previous numbers:
///
///   {"bench": "fig8", "scale": 0.25, "seed": 1, "rows": [
///     {"series": "...", "engine": "SO", "rate": 0.03, "events": N,
///      "wallNanos": W, "nsPerEvent": W/N, "deepCopies": ..,
///      "cowBreaks": .., "poolHits": .., "shallowCopies": ..,
///      "releasesTotal": .., "racesDeclared": ..}, ...]}
class JsonReport {
public:
  using JsonWriter = sampletrack::support::JsonWriter;

  JsonReport(const std::string &Bench, const Options &O) {
    W.object(JsonWriter::Inline)
        .fields({{"bench", Bench},
                 {"scale", JsonWriter::General{O.Scale}},
                 {"seed", O.Seed}})
        .key("rows")
        .array();
  }

  /// Records one measurement. \p Series names the workload/config axis
  /// (trace name, "workers=4", ...); \p Rate is the sampling rate (1.0 for
  /// full analysis, 0 when not applicable). \p Extras are the bench's own
  /// columns after the common ones (e.g. fig6a's dedup axis:
  /// racyLocations, distinctRaces).
  void addRow(const std::string &Series, const std::string &Engine,
              double Rate, uint64_t Events, uint64_t WallNanos,
              const sampletrack::Metrics &M,
              std::initializer_list<JsonWriter::Member> Extras = {}) {
    double NsPerEvent =
        Events ? static_cast<double>(WallNanos) / static_cast<double>(Events)
               : 0.0;
    W.object(JsonWriter::Inline)
        .fields({{"series", Series}, {"engine", Engine},
                 {"rate", JsonWriter::General{Rate}}, {"events", Events},
                 {"wallNanos", WallNanos},
                 {"nsPerEvent", JsonWriter::Fixed{NsPerEvent, 2}},
                 {"deepCopies", M.DeepCopies}, {"cowBreaks", M.CowBreaks},
                 {"poolHits", M.PoolHits}, {"shallowCopies", M.ShallowCopies},
                 {"releasesTotal", M.ReleasesTotal},
                 {"racesDeclared", M.RacesDeclared}})
        .fields(Extras)
        .end();
  }

  /// Attaches a self-profile summary: the document gains a top-level
  /// "profile" key (flat span array, see prof::toJsonArray). The perf gate
  /// skips it — span nanos are not gated metrics — so baselines may carry
  /// it freely.
  void attachProfile(const sampletrack::prof::Report &R) { Profile = R; }

  /// Writes the document if --json was passed; returns false only on I/O
  /// failure (missing --json is not an error).
  bool writeIfRequested(const Options &O) const {
    if (O.JsonPath.empty())
      return true;
    JsonWriter Doc = W; // The rows so far.
    Doc.end();
    if (!Profile.empty())
      sampletrack::prof::toJsonArray(Doc.key("profile"), Profile);
    if (!sampletrack::api::writeFile(O.JsonPath, Doc.end().take())) {
      std::fprintf(stderr, "warning: cannot write %s\n", O.JsonPath.c_str());
      return false;
    }
    std::printf("\n(json written to %s)\n", O.JsonPath.c_str());
    return true;
  }

private:
  JsonWriter W;
  sampletrack::prof::Report Profile;
};

/// Runs engine \p K over a pre-marked trace \p T, replaying the Marked bits
/// as the sample set, and returns the single-lane result. \p NumWorkers
/// threads drive the lane(s) when nonzero (bit-identical to sequential).
inline sampletrack::api::EngineRun
runMarked(const sampletrack::Trace &T, sampletrack::EngineKind K,
          size_t NumWorkers = 0) {
  sampletrack::api::SessionConfig Cfg;
  Cfg.Engines = {K};
  Cfg.Sampling = sampletrack::api::SamplerKind::Marked;
  Cfg.NumWorkers = NumWorkers;
  sampletrack::api::SessionResult R =
      sampletrack::api::AnalysisSession(Cfg).run(T);
  return std::move(R.Engines.front());
}

/// Fans every engine in \p Kinds out over a single traversal of the
/// pre-marked trace \p T (identical sample sets by construction), with
/// \p NumWorkers lane worker threads (0 = sequential).
inline sampletrack::api::SessionResult
runMarkedAll(const sampletrack::Trace &T,
             std::span<const sampletrack::EngineKind> Kinds,
             size_t NumWorkers = 0) {
  sampletrack::api::SessionConfig Cfg;
  Cfg.Engines.assign(Kinds.begin(), Kinds.end());
  Cfg.Sampling = sampletrack::api::SamplerKind::Marked;
  Cfg.NumWorkers = NumWorkers;
  return sampletrack::api::AnalysisSession(Cfg).run(T);
}

/// Writes \p Trace (chrome Trace Event Format JSON) to O.TracePath if
/// --trace was passed. Benches call this with
/// prof::toChromeTrace(...) of a profiled re-run.
inline void writeTraceIfRequested(const Options &O, const std::string &Trace) {
  if (O.TracePath.empty())
    return;
  if (sampletrack::api::writeFile(O.TracePath, Trace))
    std::printf("(chrome trace written to %s)\n", O.TracePath.c_str());
  else
    std::fprintf(stderr, "warning: cannot write %s\n", O.TracePath.c_str());
}

/// Runs one profiled session over the pre-marked trace \p T (the same
/// configuration as runMarkedAll) and returns the full result including
/// SessionResult::Profile. Used for the --trace export and the "profile"
/// attachment — a separate run, so profiling never perturbs timed rows.
inline sampletrack::api::SessionResult
runMarkedAllProfiled(const sampletrack::Trace &T,
                     std::span<const sampletrack::EngineKind> Kinds,
                     size_t NumWorkers, size_t Shards,
                     std::unique_ptr<sampletrack::prof::Profiler> *ProfOut =
                         nullptr) {
  sampletrack::api::SessionConfig Cfg;
  Cfg.Engines.assign(Kinds.begin(), Kinds.end());
  Cfg.Sampling = sampletrack::api::SamplerKind::Marked;
  Cfg.NumWorkers = NumWorkers;
  Cfg.Shards = Shards;
  Cfg.ProfilingEnabled = true;
  sampletrack::api::AnalysisSession S(Cfg);
  sampletrack::api::SessionResult R = S.run(T);
  if (ProfOut)
    *ProfOut = S.takeProfiler();
  return R;
}

/// \p Num / \p Den with the trajectory's zero convention: rows whose
/// denominator never accumulated (empty traces, skipped configs) report 0
/// rather than poisoning the JSON/CSV with inf or nan — the same guard
/// JsonReport::addRow applies to nsPerEvent.
inline double safeRatio(double Num, double Den) {
  return Den > 0 ? Num / Den : 0.0;
}

/// Emits the table and optional CSV.
inline void finish(sampletrack::Table &T, const Options &O) {
  T.print();
  if (!O.CsvPath.empty()) {
    if (T.writeCsv(O.CsvPath))
      std::printf("\n(csv written to %s)\n", O.CsvPath.c_str());
    else
      std::fprintf(stderr, "warning: cannot write %s\n", O.CsvPath.c_str());
  }
}

} // namespace stbench

#endif // SAMPLETRACK_BENCH_BENCHCOMMON_H
