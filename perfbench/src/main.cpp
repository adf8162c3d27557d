//===- perfbench/src/main.cpp - Benchmark entry point ----------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --workdir DIR --outdir DIR
///
/// Runs one workload and prints, in order: a "host" line (the host
/// descriptor as JSON), one "name value unit" line per metric, and as the
/// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
/// An untraced run's metrics are the end-to-end ones; a traced run's are
/// the per-layer ones, each workload reporting 0 for layers it does not
/// pass through. A traced run also writes a Chrome-trace file of its spans
/// to DIR/<workload>-seed<N>.trace.json.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"cpu_s", "s"},
    {"success_rate", "fraction"},
    {"throughput_per_s", "1/s"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.tail", "ms"},
};

const MetricDef PerLayer[] = {
    {"trace.decode_ns", "ns"},
    {"trace.decode_ns_per_event", "ns"},
    {"trace.bytes_per_event", "B"},
    {"trace.self_ns", "ns"},
    {"sampling.decide_ns_per_access", "ns"},
    {"sampling.sampled_accesses", "count"},
    {"sampling.self_ns", "ns"},
    {"api.process_ns", "ns"},
    {"api.finish_ns", "ns"},
    {"api.report_ns", "ns"},
    {"api.ingest_ns", "ns"},
    {"api.parallel_efficiency", "fraction"},
    {"api.parallel_ingest_ns", "ns"},
    {"api.parallel_speedup", "x"},
    {"api.self_ns", "ns"},
    {"detectors.self_ns", "ns"},
#define ENGINE(E)                                                              \
  {"detectors." E ".busy_ns", "ns"}, {"detectors." E ".ns_per_event", "ns"},   \
      {"detectors." E ".acquires_skipped_ratio", "fraction"},                  \
      {"detectors." E ".full_clock_ops", "count"},                             \
      {"detectors." E ".race_checks", "count"},                                \
      {"detectors." E ".races_declared", "count"}
    ENGINE("ST"),
    ENGINE("SU"),
    ENGINE("SO"),
#undef ENGINE
    {"detectors.SU.releases_skipped_ratio", "fraction"},
    {"detectors.SO.traversal_ratio", "fraction"},
    {"detectors.SO.deep_copies", "count"},
    {"support.pool_hits", "count"},
    {"support.cow_breaks", "count"},
    {"triage.sink_distinct", "count"},
    {"triage.merge_ns", "ns"},
    {"triage.append_ns", "ns"},
    {"triage.bytes_appended_per_upload", "B"},
    {"triage.compactions", "count"},
    {"triage.self_ns", "ns"},
    {"triaged.server_upload_us.p50", "us"},
    {"triaged.server_upload_us.p95", "us"},
    {"triaged.server_ranked_us.p50", "us"},
    {"triaged.client_wait_us", "us"},
    {"triaged.parse_ns", "ns"},
    {"triaged.analyze_ns", "ns"},
    {"triaged.shed", "count"},
    {"triaged.timeouts", "count"},
    {"triaged.bad_requests", "count"},
    {"triaged.self_ns", "ns"},
    {"runtime.nt_req_per_s", "req/s"},
    {"runtime.et_req_per_s", "req/s"},
    {"runtime.instrumentation_share", "fraction"},
    {"runtime.analysis_share", "fraction"},
    {"runtime.acquires_skipped_ratio", "fraction"},
    {"runtime.acquires_skipped_ratio.spread", "fraction"},
    {"runtime.full_clock_ops", "count"},
    {"runtime.full_clock_ops.spread", "fraction"},
    {"runtime.deep_copies", "count"},
    {"runtime.deep_copies.spread", "fraction"},
    {"runtime.self_ns", "ns"},
    {"workload.self_ns", "ns"},
    {"bench.self_ns", "ns"},
    {"exact.passes_differing", "count"},
    {"prof.tracing_overhead", "fraction"},
    {"host.nproc", "count"},
    {"host.spin_scaling", "x"},
};

struct WorkloadDef {
  const char *Name;
  Result (*Run)(const Options &, Spans &);
};

const WorkloadDef Workloads[] = {
    {"file-sync-heavy", runFileSyncHeavy},
    {"online-tpcc", runOnlineTpcc},
    {"upload-mix", runUploadMix},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR --outdir DIR\n",
               Why);
  std::exit(2);
}

/// Prints a number with every digit it carries (the JSON has no NaN/inf).
std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

void perfbench::setEndToEnd(Result &R, double SetupS, double PeakRssMb,
                            double CpuS,
                            double Throughput, double LatencyP50Ms,
                            double LatencyTailMs) {
  R.set("setup_s", SetupS, "s");
  R.set("peak_rss_mb", PeakRssMb, "MiB");
  R.set("cpu_s", CpuS, "s");
  R.set("success_rate", 1 - ratio(R.Failed, R.Attempted), "fraction");
  R.set("throughput_per_s", Throughput, "1/s");
  R.set("latency_ms.p50", LatencyP50Ms, "ms");
  R.set("latency_ms.tail", LatencyTailMs, "ms");
}

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage("missing value");
      return argv[++I];
    };
    const char *A = argv[I];
    if (!std::strcmp(A, "--workload"))
      O.Workload = Next();
    else if (!std::strcmp(A, "--seed")) {
      O.Seed = std::strtoull(Next(), nullptr, 10);
      HaveSeed = true;
    } else if (!std::strcmp(A, "--seconds"))
      O.Seconds = std::atof(Next());
    else if (!std::strcmp(A, "--trace")) {
      O.Trace = std::atoi(Next()) != 0;
      HaveTrace = true;
    } else if (!std::strcmp(A, "--workdir"))
      O.WorkDir = Next();
    else if (!std::strcmp(A, "--outdir"))
      O.OutDir = Next();
    else
      usage("unknown argument");
  }
  const WorkloadDef *W = nullptr;
  for (const WorkloadDef &D : Workloads)
    if (O.Workload == D.Name)
      W = &D;
  if (!W || !HaveSeed || !HaveTrace || !(O.Seconds > 0) || O.WorkDir.empty() ||
      O.OutDir.empty())
    usage("missing or invalid arguments");

  std::filesystem::remove_all(O.WorkDir);
  std::filesystem::create_directories(O.WorkDir);
  std::filesystem::create_directories(O.OutDir);

  Host H = probeHost();
  std::printf("host %s\n", hostJson(H).c_str());
  std::fflush(stdout);

  Spans Sp(O.Trace);
  Result R = W->Run(O, Sp);
  R.set("host.nproc", H.Nproc, "count");
  R.set("host.spin_scaling", H.SpinScaling, "x");
  std::filesystem::remove_all(O.WorkDir);
  if (O.Trace) {
    std::string Path = O.OutDir + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + ".trace.json";
    std::ofstream(Path) << Sp.chromeTrace("perfbench " + O.Workload);
    std::printf("chrome trace: %s\n", Path.c_str());
  }

  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", F.c_str());
  std::printf("error_rate %.6g fraction (%llu of %llu operations failed)\n",
              ratio(R.Failed, R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  std::string Metrics;
  for (const MetricDef &M : O.Trace ? std::span<const MetricDef>(PerLayer)
                                    : std::span<const MetricDef>(EndToEnd)) {
    const double *V = R.find(M.Name);
    double Value = V ? *V : 0;
    std::printf("%s %s %s\n", M.Name, num(Value).c_str(), M.Unit);
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + M.Name +
               "\": {\"value\": " + num(Value) + ", \"unit\": \"" + M.Unit +
               "\"}";
  }
  bool Correct = R.Attempted > 0 && R.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
