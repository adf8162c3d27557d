//===- sampletrack/api/AnalysisSession.h - Composable pipeline -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified analysis pipeline: one event source (an in-memory Trace, a
/// streamed trace file, or live instrumentation hooks), one shared sampling
/// decision stream, and any number of detector lanes fanned out over a
/// single traversal of the source.
///
/// \code
///   api::SessionConfig Cfg;
///   Cfg.Engines = {EngineKind::SamplingNaive, EngineKind::SamplingO};
///   Cfg.SamplingRate = 0.03;
///   api::SessionResult R = api::AnalysisSession(Cfg).run(T);
///   std::puts(api::toJson(R).c_str());
/// \endcode
///
/// Because every lane consumes the same per-event decision, K engines in
/// one session see the identical sample set S that K standalone one-lane
/// sessions with the same seed would see (appendix A.1), while the trace
/// is read exactly once instead of K times. Ingestion is batched
/// (\ref AnalysisSession::process over a span); the single-event overload
/// remains as a compatibility shim for per-event producers.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_API_ANALYSISSESSION_H
#define SAMPLETRACK_API_ANALYSISSESSION_H

#include "sampletrack/api/SessionConfig.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/trace/Trace.h"
#include "sampletrack/triage/RaceSink.h"

#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace sampletrack {
namespace api {

/// Structured result of one detector lane over one session run.
struct EngineRun {
  /// Engine name as used in the paper ("FT", "ST", ...).
  std::string Engine;
  /// The shared sampler's configuration string.
  std::string SamplerName;
  Metrics Stats;
  uint64_t NumRaces = 0;
  uint64_t NumRacyLocations = 0;
  /// Distinct race signatures this lane's sink deduplicated NumRaces
  /// declarations into.
  uint64_t DistinctRaces = 0;
  /// Number of access events placed in S (identical across lanes).
  uint64_t SampleSize = 0;
  /// Wall-clock nanoseconds spent inside this lane's detector(s); for a
  /// sharded lane, summed over its shard detectors.
  uint64_t WallNanos = 0;
  /// Shard count this lane's shadow state was partitioned into
  /// (SessionConfig::Shards; 0 = unsharded). Execution shape only: Stats,
  /// Races and every other field are bit-identical across shard counts
  /// (stripTiming zeroes this echo so the determinism tests can say so).
  size_t Shards = 0;
  /// The deduplicated race exemplars (first report per signature, in
  /// first-seen order; signatures beyond the sink capacity are missing if
  /// RacesTruncated is set). Only populated for session-owned engine
  /// lanes; a lane added via addDetector leaves this empty because the
  /// caller still holds the detector and its races().
  std::vector<RaceReport> Races;
  bool RacesTruncated = false;

  /// Memberwise equality, including the nondeterministic WallNanos; strip
  /// timing first (\ref stripTiming) to compare runs for determinism.
  bool operator==(const EngineRun &O) const = default;
};

/// Result of one session run: one EngineRun per lane, in lane order, plus
/// stream-level totals.
struct SessionResult {
  std::vector<EngineRun> Engines;
  /// The run's race-warehouse view: every lane's sink merged in lane order
  /// (hits accumulate per signature, first lane's exemplar wins). Feed it
  /// to triage::TriageStore::mergeRun — or api::runTriage, which also
  /// handles persistence and suppressions — for the cross-run workflow.
  triage::TriageSummary Triage;
  /// Events ingested from the source (each lane saw all of them).
  uint64_t EventsProcessed = 0;
  /// Thread-universe size the detectors were built with.
  size_t NumThreads = 0;
  /// Lane worker threads the run actually used, the ingest thread included
  /// (0 = sequential mode).
  size_t NumWorkers = 0;
  /// Intra-engine shard count the run used (0 = unsharded). With S shards
  /// and K engine lanes the session drives K*S shard detectors; NumWorkers
  /// clamps against that product, not the lane count.
  size_t Shards = 0;
  /// End-to-end wall-clock nanoseconds, begin() to finish().
  uint64_t WallNanos = 0;
  /// Nanoseconds the ingest thread spent drawing sampling decisions, routing
  /// batches to shards and (in parallel mode) handing batches off to the
  /// workers. In sequential unsharded mode this is pure sampling cost; in
  /// parallel mode it also absorbs back-pressure stalls when the slowest
  /// unit falls behind, but not the batches the ingest thread drives
  /// itself meanwhile (those count toward their lane's WallNanos).
  uint64_t IngestNanos = 0;
  /// Merged span profile (empty unless SessionConfig::ProfilingEnabled).
  /// The tree's shape, counts and counters are deterministic — identical
  /// across worker and shard counts — and the same single measurements
  /// feed the legacy fields: session/ingest's nanos are IngestNanos,
  /// session/analyze/<engine>'s nanos are that lane's WallNanos. The
  /// session span runs from begin() to the end of finish(), so in a
  /// sequential run the exclusive times of all nodes sum to its inclusive
  /// time. Strip timing (\ref stripTiming) before comparing runs.
  prof::Report Profile;

  /// Lane lookup by engine name; nullptr if absent.
  const EngineRun *find(const std::string &Engine) const;

  /// Memberwise equality, including the nondeterministic timing fields;
  /// strip timing first (\ref stripTiming) to compare runs for determinism.
  bool operator==(const SessionResult &O) const = default;
};

/// Returns \p R with every execution-shape field zeroed: the wall-clock
/// fields (WallNanos, IngestNanos, per-lane WallNanos, every nanosecond in
/// the Profile tree) and the NumWorkers and Shards echoes. Two runs of an
/// identically configured session are guaranteed byte-identical after
/// stripping, for any worker count *and* any shard count — the determinism
/// contract the tests enforce.
SessionResult stripTiming(SessionResult R);

/// Builder-style analysis pipeline. Configure (engines, sampling), then
/// either hand it a whole source (\ref run, \ref runFile) — one traversal,
/// however many lanes — or drive it incrementally with
/// \ref begin / \ref process / \ref finish.
///
/// The ingest side is single-threaded: callers feeding events from several
/// threads serialize through \ref SessionHooks. With
/// SessionConfig::NumWorkers > 0 the detector work runs on the workers (the
/// ingest thread and NumWorkers - 1 helper threads) behind a bounded
/// hand-off ring; with SessionConfig::Shards >= 2 each engine lane is
/// additionally split into per-shard detectors partitioning the variable
/// space (N lanes x S shards schedulable drives). Every detector instance
/// is still driven by one thread at a time, in trace order, with a
/// happens-before edge at each hand-off, so no detector state is ever
/// shared.
class AnalysisSession {
public:
  AnalysisSession(); // Out of line: ParallelExecutor is incomplete here.
  explicit AnalysisSession(SessionConfig C);
  /// Joins any still-running lane workers (a session abandoned without
  /// finish() must not leak threads).
  ~AnalysisSession();

  // -- Builder ----------------------------------------------------------
  /// Adds a caller-owned detector lane. The detector must outlive the run
  /// and is single-use.
  AnalysisSession &addDetector(Detector &D);
  /// Replaces the config-made sampler with a caller-owned one (borrowed) or
  /// a session-owned one. Decisions are drawn once per access event and
  /// shared by every lane.
  AnalysisSession &withSampler(Sampler &S);
  AnalysisSession &withSampler(std::unique_ptr<Sampler> S);

  const SessionConfig &config() const { return Cfg; }

  // -- Incremental ingestion -------------------------------------------
  /// Materializes the lanes and the sampler. The thread-universe size is
  /// Config.NumThreads when nonzero, else \p NumThreads (the source-derived
  /// size), else Config.MaxThreads (the live-hook fallback). Fails if
  /// already active, if no lane is configured, or if a nonzero
  /// Config.NumThreads is below a nonzero \p NumThreads (the source's
  /// thread ids would index past the lanes' thread tables).
  bool begin(size_t NumThreads = 0, std::string *Error = nullptr);
  bool active() const { return Active; }
  /// Thread-universe size of the active run (0 when inactive).
  size_t numThreads() const { return Active ? RunThreads : 0; }

  /// Batched hot path: draws the sampling decision for every access in
  /// \p Batch once, then feeds the batch to every lane.
  void process(std::span<const Event> Batch);
  /// Compatibility shim for per-event producers. With NumWorkers > 0 each
  /// call pays a full ring hand-off for a one-event batch — correct, but
  /// far slower than sequential mode; per-event sources (SessionHooks
  /// included) should keep NumWorkers = 0 or batch upstream.
  void process(const Event &E) { process(std::span<const Event>(&E, 1)); }

  /// Tears down the run and returns the per-lane results.
  SessionResult finish();

  // -- One-shot sources (each is a single traversal) -------------------
  /// In-memory source. Returns an empty result if begin() would fail (no
  /// lanes configured, or the session is already active).
  SessionResult run(const Trace &T);
  /// Streamed source: binary traces are decoded incrementally in
  /// Config.BatchSize chunks (the whole trace is never materialized); text
  /// traces, whose header carries no universe sizes, are loaded in-memory
  /// first. Returns false on malformed input or a begin() failure.
  bool run(std::istream &Is, SessionResult &Out, std::string *Error = nullptr);
  /// Streamed source from a file, with format auto-detection.
  bool runFile(const std::string &Path, SessionResult &Out,
               std::string *Error = nullptr);

  // -- Self-profiling ---------------------------------------------------
  /// The last run's profiler (timelines for prof::toChromeTrace), alive
  /// until the next begin(). Null unless Config.ProfilingEnabled.
  prof::Profiler *profiler() { return Prof.get(); }
  /// Transfers ownership of the profiler (e.g. to outlive the session for
  /// trace export). The next profiled begin() makes a fresh one.
  std::unique_ptr<prof::Profiler> takeProfiler() { return std::move(Prof); }

private:
  /// One schedulable detector drive: an unsharded lane contributes one
  /// unit, a sharded lane one unit per shard. Units are what the executor
  /// distributes over workers — N lanes x S shards flatten into N*S units,
  /// so Shards composes with NumWorkers with no second fan-out layer.
  struct Unit {
    /// The detector this unit drives: \ref Owned, or a borrowed
    /// (addDetector) one. Null until \ref prepareUnit builds it.
    Detector *D = nullptr;
    /// Session-owned detector; null for a borrowed lane.
    std::unique_ptr<Detector> Owned;
    /// What \ref prepareUnit builds for a session-owned unit: the engine
    /// and, in a sharded lane, the shard index.
    EngineKind Kind = EngineKind::FastTrack;
    uint32_t Shard = 0;
    uint64_t Nanos = 0;
    /// Differential-harness axis (SessionConfig::PerEventDispatch): route
    /// this unit through the per-event reference loop instead of the
    /// engine's devirtualized batch override.
    bool PerEvent = false;
    /// Only the lane's primary drive (shard 0 / unsharded) bumps the span
    /// count; other shards contribute nanos only — that keeps the merged
    /// count equal to the batch count at every shard count.
    bool CountsProfile = false;

    /// Feeds one batch to D (a shard with the batch's routing \p Owners),
    /// folds the elapsed time into Nanos and returns it.
    uint64_t drive(std::span<const Event> Events,
                   std::span<const uint8_t> Ds,
                   std::span<const uint8_t> Owners);
  };

  /// Where one thread records the unit spans it drives: its profile tree
  /// (null when profiling is off) and each unit's session/analyze/<engine>
  /// node in it, interned on first use. Every thread interns the same
  /// paths, so the merged report's shape does not depend on which thread
  /// drove a unit.
  struct SpanTable {
    static constexpr prof::NodeId NoNode = ~prof::NodeId(0);
    prof::Tree *T = nullptr;
    std::vector<prof::NodeId> Nodes;

    void reset(prof::Tree *Tree, size_t NumUnits);
    prof::NodeId node(const Unit &U, size_t I);
    void record(const Unit &U, size_t I, uint64_t Dt);
  };

  /// One reported detector lane (one EngineRun): the
  /// [FirstUnit, FirstUnit+NumUnits) slice of \ref Units that drives its
  /// detectors (one, or one per shard). Borrowed lanes never shard: the
  /// caller reads races() off their own detector, which must therefore see
  /// the full variable space.
  struct Lane {
    size_t FirstUnit = 0;
    size_t NumUnits = 1;
    /// Shard count of this lane (0 = unsharded).
    size_t Shards = 0;
  };

  /// The parallel engine (defined in AnalysisSession.cpp): a bounded
  /// single-producer broadcast ring with a cursor per unit, driven by the
  /// ingest thread and NumWorkers - 1 helper threads.
  class ParallelExecutor;

  /// Builds the session-owned detector of \p U (a no-op for a borrowed
  /// lane). Parallel mode calls it on the thread that first drives the
  /// unit, so the detector's state is allocated where it is used.
  void prepareUnit(Unit &U) const;

  /// Shared driver behind run(Trace) and the text-stream fallback:
  /// begin + batched feed + finish, propagating begin() failures.
  bool runLoaded(const Trace &T, SessionResult &Out, std::string *Error);

  SessionConfig Cfg;
  std::vector<Detector *> BorrowedDetectors;
  Sampler *BorrowedSampler = nullptr;
  std::unique_ptr<Sampler> OwnedSampler;

  // Active-run state.
  bool Active = false;
  /// Set while feeding from a source that outlives the run (an in-memory
  /// Trace): parallel hand-off then ships spans of the caller's memory
  /// instead of copying each batch into the ring.
  bool StableSource = false;
  std::vector<Lane> Lanes;
  std::vector<Unit> Units;
  std::unique_ptr<ParallelExecutor> Par;
  /// Sequential mode's unit spans, in the ingest thread's tree.
  SpanTable IngestSpans;
  Sampler *S = nullptr;
  std::vector<uint8_t> Decisions;
  /// The run's variable partition (count() == 0 when unsharded) and, in
  /// sequential mode, the current batch's routing through it.
  ShardMap Route;
  std::vector<uint8_t> Owners;
  uint64_t SampleSize = 0;
  uint64_t EventsProcessed = 0;
  uint64_t IngestNanos = 0;
  size_t RunThreads = 0;
  size_t RunWorkers = 0;
  uint64_t StartNanos = 0;

  // Self-profiling state (all null/0 unless Cfg.ProfilingEnabled). The
  // profiler outlives finish() so callers can export the timeline; a new
  // begin() replaces it.
  std::unique_ptr<prof::Profiler> Prof;
  prof::Tree *IngestTree = nullptr;
  prof::NodeId SessionNode = 0;
  prof::NodeId IngestNode = 0;
  prof::NodeId DecodeNode = 0;
  prof::NodeId FinishNode = 0;
};

/// Live event source: translates instrumentation hooks (the rt::Runtime
/// hook vocabulary) into session events, serializing concurrent callers
/// through one mutex. This is deliberately the cheap-and-correct adapter —
/// the contended-performance path remains rt::Runtime; SessionHooks is for
/// feeding the offline engines from a live program or simulator. Emits one
/// event per hook, so pair it with a sequential session (NumWorkers = 0);
/// see the per-event process() shim's note.
class SessionHooks {
public:
  /// The session must already be begun (with capacity for every thread id
  /// that will register).
  explicit SessionHooks(AnalysisSession &Session) : Session(Session) {}

  /// Dense thread ids; 0 is pre-registered as the main thread. Registering
  /// past the session's thread universe aborts with a message in every
  /// build type (as rt::Runtime::registerThread does).
  ThreadId registerThread();
  SyncId registerSync();

  void onRead(ThreadId T, VarId X);
  void onWrite(ThreadId T, VarId X);
  void onAcquire(ThreadId T, SyncId L);
  void onRelease(ThreadId T, SyncId L);
  void onFork(ThreadId Parent, ThreadId Child);
  void onJoin(ThreadId Parent, ThreadId Child);
  void onReleaseStore(ThreadId T, SyncId Sy);
  void onReleaseJoin(ThreadId T, SyncId Sy);
  void onAcquireLoad(ThreadId T, SyncId Sy);

private:
  void emit(const Event &E);

  AnalysisSession &Session;
  std::mutex M;
  ThreadId NextThread = 1;
  SyncId NextSync = 0;
};

} // namespace api
} // namespace sampletrack

#endif // SAMPLETRACK_API_ANALYSISSESSION_H
