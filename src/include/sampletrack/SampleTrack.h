//===- sampletrack/SampleTrack.h - Umbrella header -------------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella header exposing the whole public API:
///
///  - api: AnalysisSession, the composable analysis pipeline (the preferred
///    entry point — see README.md for a quickstart)
///  - support: VectorClock, OrderedList, TreeClock, RNG, tables
///  - trace: events, traces, text I/O, synthetic generators, the offline
///    benchmark suite
///  - sampling: the Sampler strategies
///  - detectors: Djit+/FastTrack and the paper's ST/SU/SO engines, plus the
///    reference oracle
///  - rt/workload: the online runtime and the OLTP workload simulator
///  - triage: the race warehouse (signature dedup, cross-run store,
///    ranked/SARIF/JSON export)
///  - triaged: the fleet ingestion service (HTTP/1.1 run uploads,
///    single-writer merge, ranked/new/regressed queries, SARIF pulls)
///  - explore: deterministic schedule exploration (random / PCT /
///    exhaustive interleaving enumeration, per-schedule oracle
///    cross-checks via api::runExploration)
///  - prof: the hierarchical self-profiler (RAII spans, deterministic
///    merged reports, chrome-trace export)
///  - perfgate: the CI bench regression gate over the BENCH_*.json
///    trajectory
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SAMPLETRACK_H
#define SAMPLETRACK_SAMPLETRACK_H

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/api/Exploration.h"
#include "sampletrack/api/Report.h"
#include "sampletrack/api/SessionConfig.h"
#include "sampletrack/explore/Coverage.h"
#include "sampletrack/explore/Scheduler.h"
#include "sampletrack/explore/Workload.h"
#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/detectors/HBClosureOracle.h"
#include "sampletrack/detectors/PolicyDetector.h"
#include "sampletrack/perfgate/PerfGate.h"
#include "sampletrack/prof/ChromeTrace.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/prof/Report.h"
#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/sampling/Sampler.h"
#include "sampletrack/support/FaultInjectionFs.h"
#include "sampletrack/support/FileSystem.h"
#include "sampletrack/support/Json.h"
#include "sampletrack/support/LatencyHistogram.h"
#include "sampletrack/support/OrderedList.h"
#include "sampletrack/support/Rng.h"
#include "sampletrack/support/Table.h"
#include "sampletrack/support/TreeClock.h"
#include "sampletrack/support/VectorClock.h"
#include "sampletrack/trace/SuiteGen.h"
#include "sampletrack/trace/Trace.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/trace/TraceIO.h"
#include "sampletrack/trace/TraceStats.h"
#include "sampletrack/triage/Exporters.h"
#include "sampletrack/triage/RaceSignature.h"
#include "sampletrack/triage/RaceSink.h"
#include "sampletrack/triage/TriageLog.h"
#include "sampletrack/triage/TriageStore.h"
#include "sampletrack/triaged/Client.h"
#include "sampletrack/triaged/Http.h"
#include "sampletrack/triaged/Server.h"
#include "sampletrack/triaged/Wire.h"
#include "sampletrack/workload/Workload.h"

#endif // SAMPLETRACK_SAMPLETRACK_H
