//===- perfbench/src/Workloads.h - The three benchmark workloads -*- C++ -*-==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload generates its inputs from Options::Seed, sets up, measures
/// for Options::Seconds, checks its outputs, and fills a Result.
///
/// End-to-end metrics (set by every run):
///   setup_s, peak_rss_mb, cpu_s, success_rate, throughput_per_s,
///   latency_ms.p50, latency_ms.tail
/// plus, for the human-readable lines only, the workload's own names for
/// the same numbers (report_s.p50, events_per_s, req_per_s, ...).
///
/// A traced run (Options::Trace) additionally sets the per-layer metrics of
/// the layers the workload passes through; main() zero-fills the rest.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// Trace file -> report, sync-heavy suite trace, ST,SU,SO at 3%.
Result runFileSyncHeavy(const Options &O, Spans &Sp);
/// Instrumented program -> race report: tpcc under rt::Mode::SO.
Result runOnlineTpcc(const Options &O, Spans &Sp);
/// Client upload -> durable ack against an in-process triaged server.
Result runUploadMix(const Options &O, Spans &Sp);

/// Sets the end-to-end metrics every workload reports; success_rate comes
/// from R's attempted and failed counts.
void setEndToEnd(Result &R, double SetupS, double PeakRssMb, double CpuS,
                 double Throughput, double LatencyP50Ms, double LatencyTailMs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
