//===- sampletrack/detectors/Detector.h - Detector interface ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming race-detector interface shared by all engines (Djit+,
/// FastTrack, the sampling engines ST/SU/SO and their ablations, and the
/// tree-clock ablation TC). A detector consumes batches of events; access
/// events carry the sampling decision, realizing the adaptive "marked
/// events" formulation of the Analysis Problem (Problem 1).
/// Synchronization events are always processed.
///
/// The interface is type-erased at batch granularity only, with one batch
/// entry for sharded and unsharded lanes alike. Its one implementation,
/// PolicyDetector (sampletrack/detectors/PolicyDetector.h), runs the
/// per-event path on plain, non-polymorphic state: \ref LaneState plus the
/// engine policy's thread, sync and history tables.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_DETECTOR_H
#define SAMPLETRACK_DETECTORS_DETECTOR_H

#include "sampletrack/detectors/Metrics.h"
#include "sampletrack/detectors/ShardMap.h"
#include "sampletrack/trace/Event.h"
#include "sampletrack/triage/RaceSink.h"

#include <atomic>
#include <cassert>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

namespace sampletrack {

/// What every engine lane records, whatever its policy: the stream
/// position, the metrics, the race sink with its racy-location set, and
/// the shard layout. Plain data, so the per-event path that updates it
/// never touches a polymorphic object.
struct LaneState {
  explicit LaneState(size_t NumThreads) : NumThreads(NumThreads) {}

  /// See Detector::setShard.
  void setShard(uint32_t Index, uint32_t Count) {
    assert(Position == 0 && "shard layout must be fixed before any event");
    assert(Count >= 2 && Index < Count && "index out of range");
    ShardIdx = Index;
    Map = ShardMap(Count);
  }

  /// Dense per-shard slot of an owned VarId: only VarIds congruent to
  /// ShardIdx arrive at a shard's access handlers, so dividing by the
  /// shard count (ShardMap::slot, no hardware divide) packs each shard's
  /// shadow table to ~1/Count the unsharded footprint instead of leaving
  /// Count-1 holes per owned variable.
  size_t varSlot(VarId X) const {
    return static_cast<size_t>(Map.count() ? Map.slot(X) : X);
  }

  /// Records a race declaration at the current stream position. The hot
  /// path is allocation-free once the sink is warm (every distinct
  /// signature and racy location seen once): re-declarations are an O(1)
  /// probe + hit-count bump in the sink and a no-op set insert here.
  void declareRace(ThreadId T, VarId X, OpKind K) {
    ++Stats.RacesDeclared;
    RacyLocations.insert(X);
    Sink.insert(RaceReport{Position, T, X, K});
  }

  const size_t NumThreads;
  uint32_t ShardIdx = 0;
  ShardMap Map; // count() == 0: unsharded.
  /// Index of the next event.
  uint64_t Position = 0;
  Metrics Stats;
  triage::RaceSink Sink;
  std::unordered_set<VarId> RacyLocations;

  /// Lane-affinity guard: set while a thread drives the lane. Two
  /// overlapping drivers mean two lanes share one detector — the exact bug
  /// class parallel sessions must never exhibit. The member is present in
  /// every build (so the layout never depends on NDEBUG); only the
  /// checking scope below is debug-only.
  std::atomic<bool> InHandler{false};

#ifndef NDEBUG
  struct DriverScope {
    explicit DriverScope(LaneState &L) : L(L) {
      bool WasBusy = L.InHandler.exchange(true, std::memory_order_acquire);
      assert(!WasBusy &&
             "detector entered concurrently; each lane owns its detector");
      (void)WasBusy;
    }
    ~DriverScope() { L.InHandler.store(false, std::memory_order_release); }
    LaneState &L;
  };
#endif
};

/// Base class of every race-detection engine: the type-erased lane
/// interface (name, batch entry points, shard setup, pooling and the
/// result accessors). Batches must arrive in trace order. Thread ids must
/// be < the NumThreads given at construction.
///
/// Concurrency contract (the parallel-lane mode of api::AnalysisSession
/// relies on it): a detector instance is lane-local — all mutable state,
/// including the race buffer behind races()/racesTruncated(), belongs to
/// whichever thread is currently driving a batch, and drivers must hand
/// the instance off with a happens-before edge (a join, a mutex as
/// SessionHooks uses, or the acquire/release claim of the session's
/// parallel executor). Nothing here is synchronized; running K detectors
/// on K threads is safe precisely because no two lanes share an instance.
/// The engines' snapshot pools rely on this too: a lane's SnapshotPool is
/// PoolSharing::LanePrivate, with plain refcounts and an unlocked free
/// list, since no snapshot leaves the lane. Debug builds assert that no two
/// threads are ever inside one instance at the same time.
class Detector {
public:
  virtual ~Detector() = default;

  /// Engine name as used in the paper ("FT", "ST", "SU", "SO", ...).
  const std::string &name() const { return Name; }

  /// One event, through the per-event reference loop. \p Sampled is
  /// ignored for non-access events. Unsharded instances only.
  void processEvent(const Event &E, bool Sampled) {
    assert(!shardCount() && "a shard is driven by processBatch");
    const uint8_t Decision = Sampled ? 1 : 0;
    processBatchGeneric({&E, 1}, {&Decision, 1});
  }

  /// Batched ingestion: dispatches Events[I] with decision Sampled[I]
  /// (nonzero = in S; only meaningful for access events) through the
  /// engine's batch loop, crossing the virtual boundary once per batch.
  /// Bit-identical to \ref processBatchGeneric. A shard (\ref setShard)
  /// reads \p Owners, the batch's routing
  /// ShardMap(shardCount()).route(Events), which a driver computes once per
  /// batch and shares across the lane's shards, so the per-batch cost
  /// tracks the shard's own events. An unsharded instance takes \p Owners
  /// empty.
  virtual void processBatch(std::span<const Event> Events,
                            std::span<const uint8_t> Sampled,
                            std::span<const uint8_t> Owners) = 0;

  /// The per-event reference loop. A shard routes each event here with a
  /// plain VarId % shardCount(), independently of ShardMap. Kept
  /// separately callable so harnesses can differential-test the batch
  /// loops against it (SessionConfig::PerEventDispatch routes lanes here).
  virtual void processBatchGeneric(std::span<const Event> Events,
                                   std::span<const uint8_t> Sampled) = 0;

  /// Routes snapshot buffers through (or around) the engine's SnapshotPool.
  /// Engines without pooled state ignore it. Call before the first event;
  /// the differential harness runs pooled against unpooled lanes.
  virtual void setPoolingEnabled(bool Enabled) = 0;

  size_t numThreads() const { return Lane.NumThreads; }
  const Metrics &metrics() const { return Lane.Stats; }

  /// Deduplicated race reports: the *first* report per race signature, in
  /// first-seen order. Re-declarations of the same logical race bump a
  /// hit counter instead of appending — read \ref raceSink for the counts.
  const std::vector<RaceReport> &races() const {
    return Lane.Sink.exemplars();
  }

  /// True iff the sink ran out of distinct-signature capacity, i.e. some
  /// logical race has no exemplar in \ref races. Duplicate declarations
  /// never truncate (they dedup); RacesDeclared counts every declaration
  /// either way. Lane-local like every other accessor: only meaningful on
  /// the driving thread, or after the run has been joined
  /// (api::AnalysisSession::finish reads it strictly after its lane
  /// workers exit).
  bool racesTruncated() const { return Lane.Sink.capped(); }

  /// Number of distinct race signatures declared so far.
  uint64_t distinctRaces() const { return Lane.Sink.distinct(); }

  /// The dedup sink behind race declarations — hit counts, exemplars and
  /// the overflow accounting (feeds the warehouse via summary()).
  const triage::RaceSink &raceSink() const { return Lane.Sink; }

  /// Rebounds the sink's distinct-signature capacity. Must be called
  /// before the first event (api::AnalysisSession forwards
  /// SessionConfig::TriageCapacity here).
  void setRaceCapacity(size_t Capacity) { Lane.Sink.setCapacity(Capacity); }

  /// Transfers the stored exemplars out without copying. Leaves \ref races
  /// empty; read \ref racesTruncated and \ref raceSink before calling.
  std::vector<RaceReport> takeRaces() { return Lane.Sink.takeExemplars(); }

  /// Distinct memory locations on which at least one race was declared (the
  /// paper's "racy locations" of Fig. 6(a)).
  const std::unordered_set<VarId> &racyLocations() const {
    return Lane.RacyLocations;
  }

  /// Configures this instance as shard \p Index of \p Count in a sharded
  /// single-engine run (api::AnalysisSession calls it for
  /// SessionConfig::Shards >= 2). The shard owns exactly the variables with
  /// VarId % Count == Index (\ref ShardMap): it analyzes their accesses,
  /// replicates every sync event (so its per-thread clock state is
  /// byte-identical to an unsharded run's), sees foreign sampled accesses
  /// only through the policy's ForeignHook, and skips every other foreign
  /// access without touching it. Drive it with \ref processBatch (or
  /// \ref processBatchGeneric). Must be called before the first event.
  void setShard(uint32_t Index, uint32_t Count) {
    Lane.setShard(Index, Count);
  }

  /// Shard count this instance was configured with; 0 when unsharded.
  uint32_t shardCount() const { return Lane.Map.count(); }

protected:
  /// \p Lane is the derived engine's state; only its address is taken
  /// here, so it may still be under construction.
  Detector(std::string Name, LaneState *Lane)
      : Name(std::move(Name)), Lane(*Lane) {}

private:
  const std::string Name;
  LaneState &Lane;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_DETECTOR_H
