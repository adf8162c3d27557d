//===- sampletrack/api/SessionConfig.h - Pipeline configuration -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration record for the whole analysis pipeline: sampling
/// (rate/seed), rt::Config (clock size, shadow table geometry, recording)
/// and engine sets, so an AnalysisSession, an online Runtime and a bench
/// harness can all be driven from the same record.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_API_SESSIONCONFIG_H
#define SAMPLETRACK_API_SESSIONCONFIG_H

#include "sampletrack/detectors/DetectorFactory.h"
#include "sampletrack/runtime/Runtime.h"
#include "sampletrack/sampling/Sampler.h"

#include <memory>
#include <vector>

namespace sampletrack {
namespace api {

/// Which sampling strategy the session instantiates (Section 3's Sampling
/// Problem). All engines of one session share one decision stream, so they
/// see the identical sample set S (appendix A.1's apples-to-apples rule).
enum class SamplerKind : uint8_t {
  Always,    ///< Every access is in S (full detection).
  Never,     ///< Empty S; isolates streaming overhead.
  Bernoulli, ///< Independent coin per access at SamplingRate (the paper's
             ///< strategy). A rate >= 1.0 degrades to Always so runs stay
             ///< deterministic.
  Periodic,  ///< Every SamplePeriod-th access (deterministic; tests).
  Marked,    ///< Replay the Marked bits carried by the trace.
};

/// Printable name ("always", "bernoulli", ...).
const char *samplerKindName(SamplerKind K);

/// Configuration of an analysis pipeline: which engines run, how the sample
/// set is chosen, and how the (optional) online runtime is shaped.
struct SessionConfig {
  /// Engines fanned out over the event stream, in presentation order.
  std::vector<EngineKind> Engines;

  // -- Sampling ---------------------------------------------------------
  SamplerKind Sampling = SamplerKind::Bernoulli;
  /// Bernoulli rate (fraction of accesses in S).
  double SamplingRate = 0.03;
  /// Seed for the Bernoulli decision stream.
  uint64_t Seed = 1;
  /// Period for SamplerKind::Periodic.
  uint64_t SamplePeriod = 32;

  // -- Ingestion --------------------------------------------------------
  /// Events decoded per batch when streaming from a file/istream source.
  size_t BatchSize = 4096;
  /// Detector-lane worker threads. 0 runs every lane inline on the ingest
  /// thread (the classic sequential mode); N > 0 fans batches out over a
  /// bounded hand-off ring to min(N, #units) workers (a unit is a lane, or
  /// one shard of a sharded lane). The ingest thread is one of them and
  /// the other N - 1 are helper threads, kept in a process-wide pool
  /// between runs, so the run never has more than N runnable analysis
  /// threads and starts none. Each worker prefers its own units and
  /// takes over the unit furthest behind when it runs out of work, one
  /// batch at a time. The sampler always runs on the ingest thread and its
  /// decision stream is shipped alongside each batch, so every unit sees
  /// the identical event + decision sequence regardless of the worker
  /// count: results are bit-identical to sequential mode by construction
  /// (only wall-clock timing fields differ).
  size_t NumWorkers = 0;
  /// Intra-engine sharding: partition each engine lane's variable shadow
  /// state into S detectors by VarId % S. Access events are analyzed by
  /// the owning shard only; sync events are replicated into every shard
  /// (the per-thread clock state is lightweight, so replication beats
  /// cross-shard coordination); per-shard race sinks and metrics merge
  /// back into one EngineRun. 0 or 1 = unsharded; values above
  /// ShardMap::MaxShards (255) run as 255, and the Shards echoes report
  /// the count that ran. Results are bit-identical to unsharded runs by
  /// construction — signature sets, metrics, racesTruncated, everything
  /// but the timing/shape echoes. Composes with NumWorkers: N lanes x S
  /// shards yield N*S schedulable units, so a *single* engine on a huge
  /// trace scales past one core.
  ///
  /// Cost model: the session routes each batch once (one owner byte per
  /// event, no divide), and a shard's work per batch is its own accesses,
  /// every sync event, and — for the sampling engines only, whose dirty
  /// bit needs them — the foreign sampled accesses; every other event
  /// costs it one bit test per 8 events. Sharding therefore pays when
  /// access work dominates (high sampling rates / full detection: FT at
  /// 100% on the fig5b bufwriter trace runs about 2x faster with 4 shards
  /// on 4 workers than sequential); at low rates the replicated sync work
  /// caps the win.
  size_t Shards = 0;
  /// Thread-universe size for detector construction. 0 means "derive from
  /// the source" (trace header or Trace::numThreads); live-hook sessions
  /// fall back to MaxThreads.
  size_t NumThreads = 0;

  // -- Test seams (differential-harness axes) ----------------------------
  // Neither changes a result; production runs leave both at their
  // defaults. They are public fields because the harnesses drive whole
  // sessions (DifferentialFuzzTest, ShardDeterminismTest,
  // OnlineOfflineTest) through the same SessionConfig a user writes, so
  // the seam sits on the path it checks rather than behind a test hook.
  /// Test seam: serve clock-snapshot buffers from the per-detector
  /// SnapshotPool (the zero-allocation copy-on-write path). Off = plain
  /// heap allocation per copy. Results are bit-identical either way; only
  /// Metrics::PoolHits (and allocator traffic) moves. It stays public for
  /// a second reason: \ref runtimeConfig forwards it to
  /// rt::Config::PoolingEnabled, so the online runtime's pooled and
  /// unpooled paths are compared against the same offline session.
  bool PoolingEnabled = true;
  /// Test seam: drive lanes through the per-event reference loop
  /// (Detector::processBatchGeneric) instead of the batch loops.
  /// Bit-identical and slower; it is the independent path the harness
  /// holds the batch loops to.
  bool PerEventDispatch = false;

  // -- Race triage (the warehouse workflow) -----------------------------
  /// Distinct-signature capacity of every lane's race sink (0 = the
  /// detector default, ~1M). Duplicate declarations dedup and never
  /// truncate; only exceeding this many *distinct* signatures sets
  /// racesTruncated. Also forwarded to the online runtime's per-thread
  /// sinks via \ref runtimeConfig.
  size_t TriageCapacity = 0;
  /// Cross-run warehouse file for api::runTriage: loaded (if present)
  /// before the run's summary is merged, saved after. Empty disables
  /// persistence (the merge still classifies against an empty store).
  std::string TriageStorePath;
  /// Optional suppression list for api::runTriage: one hex race signature
  /// per line, '#' comments. Suppressed signatures never surface as new.
  std::string SuppressionFile;

  // -- Online runtime shape (subsumes rt::Config) -----------------------
  /// Fixed vector-clock size for the online runtime, and the live-hook
  /// thread capacity when NumThreads is 0.
  size_t MaxThreads = 64;
  size_t ShadowCells = 1 << 16;
  size_t ShadowShards = 256;
  /// Record online hooks as an offline trace for record/replay triage.
  bool RecordTrace = false;

  // -- Self-profiling ---------------------------------------------------
  /// Build the hierarchical span profile (sampletrack/prof) while the
  /// session runs: per-phase and per-engine counts/nanos land in
  /// SessionResult::Profile (deterministic modulo nanos across worker and
  /// shard counts), and the session's profiler is exposed for chrome-trace
  /// export. Off (the default) costs one pointer test per batch; analysis
  /// results are bit-identical either way. Also forwarded to the online
  /// runtime via \ref runtimeConfig.
  bool ProfilingEnabled = false;

  /// Instantiates the configured sampling strategy. Each call returns a
  /// fresh sampler whose decision stream starts over (so two sessions with
  /// equal configs see identical sample sets).
  std::unique_ptr<Sampler> makeSampler() const;

  /// Derives the rt::Runtime configuration for online mode \p M from the
  /// shared knobs (rate, seed, clock size, shadow geometry, recording).
  rt::Config runtimeConfig(rt::Mode M) const;
};

} // namespace api
} // namespace sampletrack

#endif // SAMPLETRACK_API_SESSIONCONFIG_H
