//===- perfbench/src/FileWorkloads.cpp - Trace file -> report --------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// The trace file -> report workload. Set-up writes one binary trace
/// file; every measured pass analyses it from disk and writes the JSON
/// report, as the offline CLI does: the loop AnalysisSession::runFile runs
/// (BinaryTraceReader::read and AnalysisSession::process per batch), then
/// finish(), api::toJson and api::writeFile. A pass times each batch (read
/// plus process, the call a streaming caller waits on); a traced pass also
/// puts every call into the library in its own span.
///
/// Every timed pass is sequential (NumWorkers=0). With two lane workers the
/// pass time on a shared 4-vCPU host moved by 25% between two ten-run sets
/// made 15 minutes apart, as much as the largest bound allows, so the
/// parallel executor is timed only in the traced run, as per-layer metrics.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/api/Report.h"
#include "sampletrack/trace/SuiteGen.h"
#include "sampletrack/trace/TraceIO.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>

using namespace perfbench;
using namespace sampletrack;

namespace {

struct FileWorkload {
  const char *Name;
  api::SessionConfig Cfg;
  std::function<Trace(uint64_t Seed)> Generate;
};

/// The exact counters of a lane: equal across passes of one input.
bool sameCounters(const api::EngineRun &A, const api::EngineRun &B) {
  return A.Stats == B.Stats && A.NumRaces == B.NumRaces &&
         A.NumRacyLocations == B.NumRacyLocations &&
         A.DistinctRaces == B.DistinctRaces && A.SampleSize == B.SampleSize;
}

struct PassCheck {
  std::string Error; // Empty when the pass's outputs are correct.
  bool CountersDiffer = false;
};

PassCheck checkPass(const FileWorkload &W, const api::SessionResult &R,
                    uint64_t Events, const api::SessionResult *First) {
  PassCheck C;
  if (R.EventsProcessed != Events || R.Engines.size() != W.Cfg.Engines.size()) {
    C.Error = "pass analysed " + std::to_string(R.EventsProcessed) + " of " +
              std::to_string(Events) + " events";
    return C;
  }
  for (const api::EngineRun &E : R.Engines)
    if (E.NumRaces != R.Engines[0].NumRaces ||
        E.NumRacyLocations != R.Engines[0].NumRacyLocations ||
        E.DistinctRaces != R.Engines[0].DistinctRaces)
      C.Error = E.Engine + " disagrees with " + R.Engines[0].Engine +
                " on races";
  if (First)
    for (size_t I = 0; I < R.Engines.size(); ++I)
      if (!sameCounters(R.Engines[I], First->Engines[I])) {
        C.CountersDiffer = true;
        if (C.Error.empty())
          C.Error = R.Engines[I].Engine + " counters differ from pass 1";
      }
  return C;
}

/// Per-pass measurements. The span-derived fields are 0 unless \p Sp of
/// runPass records spans.
struct Pass {
  double WallNs = 0, DecodeNs = 0, ProcessNs = 0, FinishNs = 0, ReportNs = 0;
  /// Read plus process of each batch: wall and process CPU time.
  std::vector<double> BatchNs, BatchCpuNs;
  /// Self time of the pass's spans by module (trace, api, bench).
  std::map<std::string, uint64_t> Self;
  api::SessionResult R;
};

/// One pass through the loop runFile runs, then the report, with a span
/// around every call into the library.
bool runPass(const api::SessionConfig &Cfg, Spans &Sp, const std::string &Path,
             const std::string &ReportPath, Pass &Out, std::string &Err) {
  uint64_t Since = nowNs();
  Spans::Scope Pass(Sp, "bench/pass");
  std::ifstream Is(Path, std::ios::binary);
  BinaryTraceReader Rd;
  if (!Is || !sniffBinaryTrace(Is) || !Rd.open(Is, &Err))
    return false;
  api::AnalysisSession S(Cfg);
  {
    Spans::Scope B(Sp, "api/begin");
    if (!S.begin(Rd.numThreads(), &Err))
      return false;
  }
  std::vector<Event> Batch;
  size_t BatchSize = Cfg.BatchSize ? Cfg.BatchSize : 4096;
  while (!Rd.done()) {
    uint64_t T0 = nowNs(), C0 = processCpuNs();
    {
      Spans::Scope D(Sp, "trace/read");
      if (!Rd.read(Batch, BatchSize, &Err))
        return false;
    }
    {
      Spans::Scope P(Sp, "api/process");
      S.process(std::span<const Event>(Batch.data(), Batch.size()));
    }
    Out.BatchNs.push_back(nowNs() - T0);
    Out.BatchCpuNs.push_back(processCpuNs() - C0);
  }
  {
    Spans::Scope F(Sp, "api/finish");
    Out.R = S.finish();
  }
  {
    Spans::Scope Rep(Sp, "api/report");
    if (!api::writeFile(ReportPath, api::toJson(Out.R, /*MaxRaces=*/32))) {
      Err = "cannot write the report";
      return false;
    }
  }
  Out.WallNs = Pass.close();
  Out.DecodeNs = Sp.totalNanos("trace/read", Since);
  Out.ProcessNs = Sp.totalNanos("api/process", Since);
  Out.FinishNs = Sp.totalNanos("api/finish", Since);
  Out.ReportNs = Sp.totalNanos("api/report", Since);
  Out.Self = Sp.selfNanosByModule(Since);
  return true;
}

/// Replays a fresh sampler's decisions over the decoded trace: the time
/// per access decision and the sample count (which must equal the
/// session's SampleSize).
bool replaySampler(const FileWorkload &W, Spans &Sp, const std::string &Path,
                   double &NsPerAccess, uint64_t &Sampled, uint64_t &Accesses) {
  std::ifstream Is(Path, std::ios::binary);
  BinaryTraceReader Rd;
  if (!Is || !sniffBinaryTrace(Is) || !Rd.open(Is))
    return false;
  std::unique_ptr<Sampler> Smp = W.Cfg.makeSampler();
  std::vector<Event> Batch;
  uint64_t Nanos = 0;
  Sampled = Accesses = 0;
  while (!Rd.done()) {
    if (!Rd.read(Batch, 4096))
      return false;
    uint64_t T0 = nowNs();
    for (const Event &E : Batch)
      if (isAccess(E.Kind)) {
        ++Accesses;
        Sampled += Smp->shouldSample(E);
      }
    uint64_t T1 = nowNs();
    Sp.add("sampling/shouldSample", T0, T1);
    Nanos += T1 - T0;
  }
  NsPerAccess = ratio(double(Nanos), double(Accesses));
  return true;
}

template <typename F> double medianOf(const std::vector<Pass> &Ps, F Get) {
  std::vector<double> V;
  for (const Pass &P : Ps)
    V.push_back(Get(P));
  return median(std::move(V));
}

void setLayerMetrics(Result &Res, const std::vector<Pass> &Ps,
                     uint64_t Events,
                     uint64_t FileBytes, double DecideNsPerAccess,
                     uint64_t Accesses) {
  const api::SessionResult &R0 = Ps.front().R;
  double Decode = medianOf(Ps, [](auto &P) { return P.DecodeNs; });
  Res.set("trace.decode_ns", Decode, "ns");
  Res.set("trace.decode_ns_per_event", ratio(Decode, Events), "ns");
  Res.set("trace.bytes_per_event", ratio(FileBytes, Events), "B");
  Res.set("sampling.decide_ns_per_access", DecideNsPerAccess, "ns");
  Res.set("sampling.sampled_accesses", R0.Engines[0].SampleSize, "count");
  Res.set("api.process_ns", medianOf(Ps, [](auto &P) { return P.ProcessNs; }),
          "ns");
  Res.set("api.finish_ns", medianOf(Ps, [](auto &P) { return P.FinishNs; }),
          "ns");
  Res.set("api.report_ns", medianOf(Ps, [](auto &P) { return P.ReportNs; }),
          "ns");
  Res.set("api.ingest_ns",
          medianOf(Ps, [](auto &P) { return double(P.R.IngestNanos); }), "ns");

  uint64_t PoolHits = 0, CowBreaks = 0, SinkDistinct = 0;
  double DetectorNs = 0;
  for (size_t I = 0; I < R0.Engines.size(); ++I) {
    const api::EngineRun &E = R0.Engines[I];
    const Metrics &M = E.Stats;
    std::string P = "detectors." + E.Engine + ".";
    double Busy = medianOf(
        Ps, [I](auto &Pass) { return double(Pass.R.Engines[I].WallNanos); });
    DetectorNs += Busy;
    Res.set(P + "busy_ns", Busy, "ns");
    Res.set(P + "ns_per_event", ratio(Busy, Events), "ns");
    Res.set(P + "acquires_skipped_ratio",
            ratio(M.AcquiresSkipped, M.AcquiresTotal), "fraction");
    Res.set(P + "full_clock_ops", M.FullClockOps, "count");
    Res.set(P + "race_checks", M.RaceChecks, "count");
    Res.set(P + "races_declared", M.RacesDeclared, "count");
    if (E.Engine == "SU")
      Res.set(P + "releases_skipped_ratio",
              ratio(M.ReleasesSkipped, M.ReleasesTotal), "fraction");
    if (E.Engine == "SO") {
      Res.set(P + "traversal_ratio",
              ratio(M.EntriesTraversed, M.TraversalOpportunities), "fraction");
      Res.set(P + "deep_copies", M.DeepCopies, "count");
    }
    PoolHits += M.PoolHits;
    CowBreaks += M.CowBreaks;
    SinkDistinct += E.DistinctRaces;
  }
  Res.set("support.pool_hits", PoolHits, "count");
  Res.set("support.cow_breaks", CowBreaks, "count");
  Res.set("triage.sink_distinct", SinkDistinct, "count");

  // Module split of one pass. The lanes and the sampler run inside
  // process(), so their time comes out of the api spans' self time.
  double SamplingNs = DecideNsPerAccess * Accesses;
  double ApiSelf =
      medianOf(Ps, [](auto &P) { return double(P.Self.at("api")); }) -
      SamplingNs - DetectorNs;
  Res.set("trace.self_ns",
          medianOf(Ps, [](auto &P) { return double(P.Self.at("trace")); }),
          "ns");
  Res.set("sampling.self_ns", SamplingNs, "ns");
  Res.set("api.self_ns", std::max(0.0, ApiSelf), "ns");
  Res.set("detectors.self_ns", DetectorNs, "ns");
  Res.set("bench.self_ns",
          medianOf(Ps, [](auto &P) { return double(P.Self.at("bench")); }),
          "ns");
}

Result runFileWorkload(const FileWorkload &W, const Options &O, Spans &Sp) {
  Result Res;
  std::string Path = O.WorkDir + "/" + W.Name + ".trace";
  std::string ReportPath = O.WorkDir + "/" + W.Name + ".report.json";

  // Set-up: generate and write the trace file (median of five), in a
  // child process so that the generator's memory stays out of this one.
  std::vector<double> SetupS;
  for (int I = 0; I < (O.Trace ? 1 : 5); ++I) {
    uint64_t T0 = nowNs();
    bool Ok = !inChild([&] {
                 return writeTraceFileBinary(Path, W.Generate(O.Seed))
                            ? std::string("ok")
                            : std::string();
               }).empty();
    SetupS.push_back((nowNs() - T0) / 1e9);
    if (!Ok) {
      Res.check(false, "cannot generate and write the trace file");
      return Res;
    }
  }
  uint64_t FileBytes = std::filesystem::file_size(Path);
  uint64_t Events = 0;
  {
    std::ifstream Is(Path, std::ios::binary);
    BinaryTraceReader Rd;
    if (sniffBinaryTrace(Is) && Rd.open(Is))
      Events = Rd.size();
  }

  // Peak RSS of one pass in a fresh child process, as one CLI run has it.
  // Measured once, before this process holds any results: later passes'
  // allocator state depends on how the earlier ones were scheduled.
  std::string Err;
  Spans Off(false);
  double PeakRssMb = std::atof(inChild([&] {
                                 Pass P;
                                 return runPass(W.Cfg, Off, Path, ReportPath,
                                                P, Err)
                                            ? std::to_string(peakRssMb())
                                            : std::string();
                               }).c_str());
  Res.check(PeakRssMb > 0, "one-pass child process failed");

  // A first pass, in this process: the exact counters every later pass
  // must repeat.
  api::SessionResult First;
  {
    Pass P;
    if (!runPass(W.Cfg, Off, Path, ReportPath, P, Err)) {
      Res.check(false, "first pass: " + Err);
      return Res;
    }
    First = std::move(P.R);
  }
  std::string FirstError = checkPass(W, First, Events, nullptr).Error;
  Res.check(FirstError.empty(), "first pass: " + FirstError);

  uint64_t CountersDiffer = 0;
  auto Record = [&](bool Differ, const std::string &Error) {
    CountersDiffer += Differ;
    Res.check(Error.empty(), Error);
  };

  // Measured phase. An untraced run makes each pass in a fresh child
  // process, as one CLI run. A traced run makes every pass in this process
  // (its spans live here), half of them untraced, the reference for
  // prof.tracing_overhead. Each pass reports the wall and CPU time of each
  // batch, and last those of the rest of the pass (begin, finish and the
  // report).
  struct PassTimes {
    std::vector<double> WallNs, CpuNs;
  };
  auto Measure = [&](PassTimes &T) {
    uint64_t T0 = nowNs(), C0 = processCpuNs();
    Pass P;
    if (!runPass(W.Cfg, Off, Path, ReportPath, P, Err))
      return PassCheck{"pass failed: " + Err, false};
    double Wall = nowNs() - T0, Cpu = processCpuNs() - C0;
    T.WallNs = std::move(P.BatchNs);
    T.CpuNs = std::move(P.BatchCpuNs);
    T.WallNs.push_back(
        Wall - std::accumulate(T.WallNs.begin(), T.WallNs.end(), 0.0));
    T.CpuNs.push_back(
        Cpu - std::accumulate(T.CpuNs.begin(), T.CpuNs.end(), 0.0));
    return checkPass(W, P.R, Events, &First);
  };
  // Each part's time is its best over the run's passes (see fastTenth).
  // A batch of about 0.4 ms meets a quiet moment of the host far more often
  // than a whole pass does. Over ten 35-second runs the best whole pass
  // spread 0.19 (IQR / median); over five later runs, the pass time built
  // from best batches spread 0.013.
  std::vector<double> BestNs, BestCpuNs;
  size_t NumPasses = 0;
  auto Keep = [&](const PassTimes &T) {
    if (NumPasses++ == 0) {
      BestNs = T.WallNs;
      BestCpuNs = T.CpuNs;
      return true;
    }
    if (T.WallNs.size() != BestNs.size() || T.CpuNs.size() != BestNs.size())
      return false;
    for (size_t I = 0; I < BestNs.size(); ++I) {
      BestNs[I] = std::min(BestNs[I], T.WallNs[I]);
      BestCpuNs[I] = std::min(BestCpuNs[I], T.CpuNs[I]);
    }
    return true;
  };
  std::vector<double> PassMs; // Wall time of each pass.
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  uint64_t Start = nowNs();
  for (size_t N = 0; N == 0 || (nowNs() - Start) / 1e9 < Budget; ++N) {
    PassTimes T;
    PassCheck C;
    if (O.Trace) {
      C = Measure(T);
    } else {
      // The child writes "<differ> <parts> (<wall> <cpu>)*\n<error>".
      std::string Out = inChild([&] {
        PassCheck C = Measure(T);
        std::string S = std::to_string(int(C.CountersDiffer)) + " " +
                        std::to_string(T.WallNs.size());
        for (size_t I = 0; I < T.WallNs.size(); ++I)
          S += " " + std::to_string(T.WallNs[I]) + " " +
               std::to_string(T.CpuNs[I]);
        return S + "\n" + C.Error;
      });
      std::istringstream Is(Out);
      size_t Parts = 0;
      Is >> C.CountersDiffer >> Parts;
      T.WallNs.resize(Parts);
      T.CpuNs.resize(Parts);
      for (size_t I = 0; I < Parts; ++I)
        Is >> T.WallNs[I] >> T.CpuNs[I];
      Is.ignore(1);
      if (!Is || Parts == 0)
        C.Error = "pass process failed";
      else
        std::getline(Is, C.Error, '\0');
    }
    if (C.Error.empty()) {
      PassMs.push_back(
          std::accumulate(T.WallNs.begin(), T.WallNs.end(), 0.0) / 1e6);
      if (!Keep(T))
        C.Error = "a pass read a different number of batches";
    }
    Record(C.CountersDiffer, C.Error);
  }
  if (NumPasses == 0) {
    Res.check(false, "no pass succeeded");
    return Res;
  }

  std::vector<double> BestBatchNs(BestNs.begin(), BestNs.end() - 1);
  double PassNs = std::accumulate(BestNs.begin(), BestNs.end(), 0.0);
  double CpuNs = std::accumulate(BestCpuNs.begin(), BestCpuNs.end(), 0.0);
  double EventsPerS = ratio(Events, PassNs / 1e9);
  double P50Ms = median(BestBatchNs) / 1e6;
  double P99Ms = quantile(BestBatchNs, 0.99) / 1e6;
  std::printf("report_s %.6f s (best parts of %zu passes; median pass "
              "%.6f s)\n"
              "events_per_s %.1f events/s\nbatch_ms.p50 %.6f ms\n"
              "batch_ms.p99 %.6f ms\n",
              PassNs / 1e9, NumPasses, median(PassMs) / 1e3, EventsPerS, P50Ms,
              P99Ms);
  setEndToEnd(Res, median(SetupS), PeakRssMb, CpuNs / 1e9, EventsPerS, P50Ms,
              P99Ms);
  if (!O.Trace)
    return Res;

  // Traced half: sequential passes, then as many passes through the
  // parallel executor with two lane workers. Their exact counters must
  // equal the sequential first pass's.
  auto TracedPasses = [&](const api::SessionConfig &Cfg, double Seconds,
                          std::vector<Pass> &Out) {
    uint64_t T0 = nowNs();
    while (Out.empty() || (nowNs() - T0) / 1e9 < Seconds) {
      Pass P;
      if (!runPass(Cfg, Sp, Path, ReportPath, P, Err)) {
        Res.check(false, "traced pass failed: " + Err);
        return false;
      }
      PassCheck C = checkPass(W, P.R, Events, &First);
      Record(C.CountersDiffer, C.Error);
      Out.push_back(std::move(P));
    }
    return true;
  };
  std::vector<Pass> Traced, Executor;
  api::SessionConfig Par = W.Cfg;
  Par.NumWorkers = 2;
  if (!TracedPasses(W.Cfg, Budget / 2, Traced) ||
      !TracedPasses(Par, Budget / 2, Executor))
    return Res;
  double DecideNs = 0;
  uint64_t Sampled = 0, Accesses = 0;
  bool Replayed = replaySampler(W, Sp, Path, DecideNs, Sampled, Accesses);
  Res.check(Replayed && Sampled == First.Engines[0].SampleSize,
            "a fresh sampler's replay disagrees with the session's sample");
  setLayerMetrics(Res, Traced, Events, FileBytes, DecideNs, Accesses);
  // Lanes run from the first process() to the end of finish(), while the
  // ingest thread also decodes the next batches.
  Res.set("api.parallel_efficiency", medianOf(Executor, [](auto &P) {
            double Busy = 0;
            for (const api::EngineRun &E : P.R.Engines)
              Busy += E.WallNanos;
            return ratio(Busy,
                         double(P.R.NumWorkers) * (P.WallNs - P.ReportNs));
          }),
          "fraction");
  Res.set("api.parallel_ingest_ns", medianOf(Executor, [](auto &P) {
            return double(P.R.IngestNanos);
          }),
          "ns");
  Res.set("api.parallel_speedup",
          ratio(medianOf(Traced, [](auto &P) { return P.WallNs; }),
                medianOf(Executor, [](auto &P) { return P.WallNs; })),
          "x");
  Res.set("exact.passes_differing", CountersDiffer, "count");
  Res.set("prof.tracing_overhead",
          ratio(medianOf(Traced, [](auto &P) { return P.WallNs; }),
                median(PassMs) * 1e6) -
              1,
          "fraction");
  return Res;
}

} // namespace

Result perfbench::runFileSyncHeavy(const Options &O, Spans &Sp) {
  FileWorkload W;
  W.Name = "file-sync-heavy";
  // The CLI's default engine set and rate, sequential.
  W.Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingU,
                   EngineKind::SamplingO};
  W.Cfg.Sampling = api::SamplerKind::Bernoulli;
  W.Cfg.SamplingRate = 0.03;
  W.Cfg.Seed = O.Seed;
  W.Cfg.NumWorkers = 0;
  // cassandra at scale 6: about 4.2M events, 24 threads, 128 locks.
  W.Generate = [](uint64_t Seed) {
    return generateSuiteTrace("cassandra", 6.0, Seed);
  };
  return runFileWorkload(W, O, Sp);
}
