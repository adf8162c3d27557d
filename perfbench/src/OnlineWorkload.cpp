//===- perfbench/src/OnlineWorkload.cpp - Instrumented program -> report ---==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// online-tpcc: workload::runBenchmark drives the benchbase tpcc spec on
/// rt::Runtime under Mode::SO at 3% with 64-slot clocks. Three client
/// threads run a closed loop of a fixed number of requests each; the
/// measured phase repeats such rounds, each with its own seed derived from
/// the benchmark's. The traced run also runs rounds under Mode::NT and
/// Mode::ET, the reference points of the instrumentation and analysis
/// shares.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "sampletrack/workload/Workload.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;
using namespace sampletrack;

namespace {

constexpr size_t Clients = 3;
constexpr size_t RequestsPerClient = 20000;

workload::RunConfig roundConfig(uint64_t Seed, uint64_t Round, rt::Mode M,
                                size_t Requests) {
  workload::RunConfig C;
  C.NumClients = Clients;
  C.RequestsPerClient = Requests;
  C.Seed = Seed * 1000003 + Round;
  C.Rt.AnalysisMode = M;
  C.Rt.SamplingRate = 0.03;
  C.Rt.Seed = C.Seed;
  C.Rt.MaxThreads = 64;
  return C;
}

struct Round {
  rt::Mode Mode = rt::Mode::SO;
  workload::RunStats S;
  /// Peak RSS of the round's process.
  double RssMb = 0;
  /// CPU seconds of the round's process.
  double CpuS = 0;
};

/// Runs one round and checks that every client finished its requests. With
/// \p Isolated the round runs in a fresh child process, as one program run,
/// and only the summary fields come back. On a shared host one long-lived
/// process runs at a speed of its own, so fresh processes sample that
/// speed once per round.
Round runRound(Result &Res, Spans &Sp, const workload::BenchmarkSpec &Spec,
               uint64_t Seed, uint64_t Index, rt::Mode M, bool Isolated) {
  Round R;
  R.Mode = M;
  workload::RunConfig Cfg = roundConfig(Seed, Index, M, RequestsPerClient);
  if (Isolated) {
    std::string Out = inChild([&] {
      double Cpu0 = cpuSeconds();
      workload::RunStats S = workload::runBenchmark(Spec, Cfg);
      char Buf[200];
      std::snprintf(Buf, sizeof(Buf), "%llu %llu %.17g %.17g %.17g %.17g",
                    static_cast<unsigned long long>(S.TotalRequests),
                    static_cast<unsigned long long>(S.WallNanos),
                    S.LatencyNs.P50, S.LatencyNs.P95, peakRssMb(),
                    cpuSeconds() - Cpu0);
      return std::string(Buf);
    });
    unsigned long long Total = 0, Wall = 0;
    std::sscanf(Out.c_str(), "%llu %llu %lf %lf %lf %lf", &Total, &Wall,
                &R.S.LatencyNs.P50, &R.S.LatencyNs.P95, &R.RssMb, &R.CpuS);
    R.S.TotalRequests = Total;
    R.S.WallNanos = Wall;
  } else {
    Spans::Scope S(Sp, std::string("workload/runBenchmark:") + rt::modeName(M));
    double Cpu0 = cpuSeconds();
    R.S = workload::runBenchmark(Spec, Cfg);
    R.CpuS = cpuSeconds() - Cpu0;
    R.RssMb = peakRssMb();
  }
  uint64_t Want = Clients * RequestsPerClient;
  Res.Attempted += Want;
  if (R.S.TotalRequests != Want)
    Res.fail("round " + std::to_string(Index) + ": " +
             std::to_string(R.S.TotalRequests) + " of " + std::to_string(Want) +
             " requests finished");
  return R;
}

double reqPerSec(const std::vector<Round> &Rs, rt::Mode M) {
  double Req = 0, Ns = 0;
  for (const Round &R : Rs)
    if (R.Mode == M) {
      Req += R.S.TotalRequests;
      Ns += R.S.WallNanos;
    }
  return ratio(Req, Ns / 1e9);
}

} // namespace

Result perfbench::runOnlineTpcc(const Options &O, Spans &Sp) {
  Result Res;
  const workload::BenchmarkSpec *Spec = workload::findBenchmark("tpcc");
  if (!Spec) {
    Res.check(false, "no tpcc spec");
    return Res;
  }

  // Set-up: runtime construction plus a warm-up round of half size
  // (median of five).
  std::vector<double> SetupS;
  for (int I = 0; I < (O.Trace ? 1 : 5); ++I) {
    uint64_t T0 = nowNs();
    workload::runBenchmark(*Spec, roundConfig(O.Seed, 0, rt::Mode::SO,
                                              RequestsPerClient / 2));
    SetupS.push_back((nowNs() - T0) / 1e9);
  }

  std::vector<Round> Rounds;
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  uint64_t Start = nowNs();
  Spans Off(false);
  while (Rounds.empty() || (nowNs() - Start) / 1e9 < Budget)
    Rounds.push_back(runRound(Res, Off, *Spec, O.Seed, Rounds.size() + 1,
                              rt::Mode::SO, /*Isolated=*/!O.Trace));

  // Every timing is the fast tenth of the run's rounds (see fastTenth):
  // requests per second, CPU, p50 and p95. A traced run makes its rounds in
  // this process (its spans live here), so its untraced half is the
  // like-for-like reference for prof.tracing_overhead.
  std::vector<double> P50, P95, RoundReqPerS, RssMb, CpuS;
  for (const Round &R : Rounds) {
    RssMb.push_back(R.RssMb);
    CpuS.push_back(R.CpuS);
    P50.push_back(R.S.LatencyNs.P50);
    P95.push_back(R.S.LatencyNs.P95);
    RoundReqPerS.push_back(ratio(R.S.TotalRequests, R.S.WallNanos / 1e9));
  }
  double ReqPerS = fastTenthRate(RoundReqPerS);
  std::printf("req_per_s %.1f req/s (%zu rounds of %zu requests)\n"
              "req_latency_us.p50 %.3f us\nreq_latency_us.p95 %.3f us\n",
              ReqPerS, Rounds.size(), Clients * RequestsPerClient,
              fastTenth(P50) / 1e3, fastTenth(P95) / 1e3);
  setEndToEnd(Res, median(SetupS), median(RssMb), fastTenth(CpuS), ReqPerS,
              fastTenth(P50) / 1e6, fastTenth(P95) / 1e6);
  if (!O.Trace)
    return Res;

  // Traced half: NT, ET and SO rounds in turn, same seeds per cycle.
  std::vector<Round> Traced;
  const rt::Mode Modes[] = {rt::Mode::NT, rt::Mode::ET, rt::Mode::SO};
  Start = nowNs();
  for (uint64_t Cycle = 1;
       Traced.size() < 3 || (nowNs() - Start) / 1e9 < Budget; ++Cycle)
    for (rt::Mode M : Modes)
      Traced.push_back(
          runRound(Res, Sp, *Spec, O.Seed, Cycle, M, /*Isolated=*/false));

  double Nt = reqPerSec(Traced, rt::Mode::NT);
  double Et = reqPerSec(Traced, rt::Mode::ET);
  double So = reqPerSec(Traced, rt::Mode::SO);
  Res.set("runtime.nt_req_per_s", Nt, "req/s");
  Res.set("runtime.et_req_per_s", Et, "req/s");
  Res.set("runtime.instrumentation_share", 1 - ratio(Et, Nt), "fraction");
  Res.set("runtime.analysis_share", 1 - ratio(So, Et), "fraction");

  // Schedule-dependent counters: median and spread over the SO rounds.
  std::vector<double> Skipped, FullOps, DeepCopies;
  for (const Round &R : Traced)
    if (R.Mode == rt::Mode::SO) {
      const Metrics &M = R.S.Stats;
      Skipped.push_back(ratio(M.AcquiresSkipped, M.AcquiresTotal));
      FullOps.push_back(M.FullClockOps);
      DeepCopies.push_back(M.DeepCopies);
    }
  auto WithSpread = [&](const std::string &Name, const std::vector<double> &V,
                        const char *Unit) {
    Res.set(Name, median(V), Unit);
    Res.set(Name + ".spread", relativeSpread(V), "fraction");
  };
  WithSpread("runtime.acquires_skipped_ratio", Skipped, "fraction");
  WithSpread("runtime.full_clock_ops", FullOps, "count");
  WithSpread("runtime.deep_copies", DeepCopies, "count");

  // Module split of one request, in client-thread nanoseconds: the
  // uninstrumented program is the workload's own time; what SO adds on top
  // is the runtime's.
  double NtNs = ratio(1e9 * Clients, Nt), SoNs = ratio(1e9 * Clients, So);
  Res.set("workload.self_ns", NtNs, "ns");
  Res.set("runtime.self_ns", std::max(0.0, SoNs - NtNs), "ns");
  Res.set("prof.tracing_overhead", ratio(median(RoundReqPerS), So) - 1,
          "fraction");
  return Res;
}
