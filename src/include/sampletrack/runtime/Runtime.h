//===- sampletrack/runtime/Runtime.h - Online instrumented runtime -*- C++ -*-/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online race-detection runtime standing in for the paper's modified
/// ThreadSanitizer (Section 6.1). Real application threads call the hook
/// API (onRead/onWrite/onAcquire/onRelease/...) and the runtime performs
/// the configured engine's analysis concurrently:
///
///  - NT: hooks return immediately (uninstrumented baseline),
///  - ET: hooks pay only "instrumentation" cost — address hashing and a
///        per-thread counter — with no analysis (Empty-TSan),
///  - FT: FastTrack full analysis (Full-TSan),
///  - ST/SU/SO: the paper's sampling engines at a configurable rate.
///
/// The analysis is the offline engines' own code: each mode runs its
/// policy from sampletrack/detectors/Policies.h (FastTrackPolicy,
/// SamplingNaivePolicy, SamplingUClockPolicy, SamplingOrderedListPolicy),
/// so the online and offline results agree exactly (OnlineOfflineTest).
/// The runtime adds what running on live threads needs:
///
///  - Locking split (mirrors TSan's): a thread's policy state and Metrics
///    are owned by that thread and need no lock. Each sync object's state
///    is guarded by its own mutex, so the analysis work nests inside the
///    application's critical section, which is exactly how vanilla
///    timestamping "exacerbates existing lock contention". SO does only
///    the O(1) snapshot read under that mutex and traverses the pinned,
///    immutable list outside it.
///  - Shadow cells: addresses hash into a fixed table of cells guarded by
///    sharded mutexes. A cell belongs to the last address that claimed it;
///    a colliding address evicts its history, a false-negative-only
///    approximation like TSan's shadow eviction.
///  - Sampling decisions from a per-thread RNG, per-thread race sinks and
///    profiler trees, and optional trace recording for offline replay.
///
/// Memory grows with what the program registers and touches, as TSan's
/// shadow does:
///
///  - one sync slot (a mutex and the policy's sync state) per registered
///    sync object, allocated 256 at a time as registerSync reaches them;
///  - 16 bytes per shadow cell (Config::ShadowCells of them, made up
///    front: the owning address and a pointer to its history);
///  - one access history per claimed cell, allocated on the cell's first
///    claim and reused when another address claims the cell;
///  - clocks Config::MaxThreads wide, in every thread's state, in the
///    sync state of the analyses that keep clocks there, and in the
///    vector-clock histories of the sampling analyses (Algorithm 2).
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_RUNTIME_RUNTIME_H
#define SAMPLETRACK_RUNTIME_RUNTIME_H

#include "sampletrack/detectors/Metrics.h"
#include "sampletrack/prof/Profiler.h"
#include "sampletrack/prof/Report.h"
#include "sampletrack/trace/Trace.h"
#include "sampletrack/triage/RaceSink.h"
#include "sampletrack/support/Rng.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sampletrack {
namespace rt {

/// Analysis configuration ladder of Section 6.2.2.
enum class Mode {
  NT, ///< No instrumentation.
  ET, ///< Instrumentation callbacks without analysis.
  FT, ///< Full FastTrack analysis.
  ST, ///< Sampling, naive synchronization handling (Algorithm 2).
  SU, ///< Sampling with freshness clocks (Algorithm 3).
  SO, ///< Sampling with ordered lists and lazy copies (Algorithm 4).
};

const char *modeName(Mode M);

/// True for the three sampling modes.
inline bool isSamplingMode(Mode M) {
  return M == Mode::ST || M == Mode::SU || M == Mode::SO;
}

struct Config {
  Mode AnalysisMode = Mode::FT;
  /// Sampling rate for ST/SU/SO (fraction of accesses in S).
  double SamplingRate = 0.03;
  uint64_t Seed = 1;
  /// Fixed vector-clock size; registering one thread more ends the process
  /// (TSan v3 uses a fixed 256-slot clock; we default lower to match our
  /// workloads). Every clock the analysis keeps is this wide: thread
  /// clocks, sync clocks and the sampling analyses' history clocks.
  size_t MaxThreads = 64;
  /// Number of shadow cells (addresses are hashed into this space). Each
  /// cell takes 16 bytes up front; its access history is allocated when an
  /// address first claims it.
  size_t ShadowCells = 1 << 16;
  /// Number of shard mutexes protecting the shadow table.
  size_t ShadowShards = 256;
  /// Record every hook invocation as an offline trace event (under a global
  /// mutex — slow; for debugging and cross-validation against the offline
  /// engines). Access events carry their sampling decision in the Marked
  /// bit, so an offline replay sees the identical sample set.
  bool RecordTrace = false;
  /// Serve SO's copy-on-write list buffers from a recycling SnapshotPool
  /// instead of the allocator. Results are identical either way; only the
  /// PoolHits metric (and allocator traffic) moves. The differential tests
  /// run both.
  bool PoolingEnabled = true;
  /// Distinct-signature capacity of each thread's race sink (0 = the
  /// default, 1<<16 per thread). Race declarations dedup into per-thread
  /// sinks lock-free; \ref Runtime::triageSummary merges the shards.
  size_t TriageCapacity = 0;
  /// Build the hierarchical span profile (sampletrack/prof) while the
  /// runtime runs: per-thread access/sync span trees, merged by
  /// \ref Runtime::profileReport. Off by default — hooks pay only one
  /// predictable branch when disabled.
  bool ProfilingEnabled = false;
};

/// The concurrent analysis runtime. Thread-compatible: each registered
/// thread may invoke hooks concurrently with all others.
class Runtime {
public:
  explicit Runtime(const Config &C);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Sync-object ids registerSync can hand out; one more ends the process.
  static constexpr size_t MaxSyncs = 1 << 14;

  const Config &config() const { return Cfg; }

  /// Registers the calling thread; returns its dense id. Must be called
  /// before any other hook from that thread. Thread 0 is pre-registered as
  /// the "main" thread; ids stay below Config::MaxThreads.
  ThreadId registerThread();

  /// Creates a new sync object (lock/atomic) id, below MaxSyncs.
  SyncId registerSync();

  // -- Instrumentation hooks -------------------------------------------
  void onRead(ThreadId T, uint64_t Addr);
  void onWrite(ThreadId T, uint64_t Addr);
  void onAcquire(ThreadId T, SyncId L);
  void onRelease(ThreadId T, SyncId L);
  void onFork(ThreadId Parent, ThreadId Child);
  void onJoin(ThreadId Parent, ThreadId Child);

  // Non-mutex synchronization (appendix A.2): atomic release-stores
  // (replacement semantics), release-joins (RMW/shared release sequences,
  // blending semantics) and acquire-loads.
  void onReleaseStore(ThreadId T, SyncId S);
  void onReleaseJoin(ThreadId T, SyncId S);
  void onAcquireLoad(ThreadId T, SyncId S);

  // -- Results ----------------------------------------------------------
  /// Total races declared (cheap, atomic).
  uint64_t raceCount() const;
  /// Distinct racy shadow cells ("racy locations", Fig. 6(a)).
  size_t racyLocationCount() const;
  /// Deduplicated race warehouse view: per-thread sink shards merged in
  /// thread order. Call only when no hooks are running (like
  /// aggregatedMetrics).
  triage::TriageSummary triageSummary() const;
  /// Distinct race signatures across all threads (quiescent-only).
  uint64_t distinctRaceCount() const;
  /// Merged per-thread metrics. Call only when no hooks are running.
  Metrics aggregatedMetrics() const;
  /// The recorded execution (empty unless Config::RecordTrace). The order
  /// is a valid linearization of the hooks: per-thread order and per-sync
  /// release-before-acquire order are preserved; only mutually racing
  /// accesses may be permuted. Call only when no hooks are running.
  Trace recordedTrace() const;
  /// Merged self-profile across all registered threads (empty unless
  /// Config::ProfilingEnabled). Spans: rt-thread trees with
  /// runtime/access/{read,write} aggregate samples and
  /// runtime/sync/{acquire,release,...} timed spans. Call only when no
  /// hooks are running.
  prof::Report profileReport() const;
  /// The underlying profiler (null unless Config::ProfilingEnabled), for
  /// chrome-trace export alongside other profilers. Quiescent-only.
  const prof::Profiler *profiler() const;

private:
  struct ThreadState;
  struct Impl;
  struct Analysis;
  template <typename Policy> class Engine;

  /// The common hook bodies: counting, sampling, recording and ET; the
  /// configured Analysis does the rest.
  void access(ThreadId T, uint64_t Addr, OpKind K);
  void sync(ThreadId T, OpKind K, uint32_t Target);
  /// Records a race (atomic counter, racy-cell set, thread's sink).
  void reportRace(ThreadId T, uint64_t Cell, bool OnWrite);
  /// Appends \p E to the recorded trace if recording is enabled.
  void record(const Event &E);

  Config Cfg;
  std::unique_ptr<Impl> I;
};

/// An instrumented mutex: wraps a real std::mutex and reports acquire and
/// release to the runtime, in the same order TSan does (acquire hook after
/// locking, release hook before unlocking).
class Mutex {
public:
  explicit Mutex(Runtime &Rt) : Rt(Rt), Id(Rt.registerSync()) {}

  void lock(ThreadId T) {
    M.lock();
    Rt.onAcquire(T, Id);
  }
  void unlock(ThreadId T) {
    Rt.onRelease(T, Id);
    M.unlock();
  }
  SyncId id() const { return Id; }

private:
  Runtime &Rt;
  SyncId Id;
  std::mutex M;
};

/// An instrumented atomic word with release/acquire message-passing
/// semantics: store publishes the writer's timestamp (release-store),
/// load imports it (acquire-load).
class AtomicFlag {
public:
  explicit AtomicFlag(Runtime &Rt) : Rt(Rt), Id(Rt.registerSync()) {}

  void store(ThreadId T, uint64_t V) {
    Rt.onReleaseStore(T, Id);
    Value.store(V, std::memory_order_release);
  }
  uint64_t load(ThreadId T) {
    uint64_t V = Value.load(std::memory_order_acquire);
    Rt.onAcquireLoad(T, Id);
    return V;
  }
  SyncId id() const { return Id; }

private:
  Runtime &Rt;
  SyncId Id;
  std::atomic<uint64_t> Value{0};
};

/// An instrumented N-party barrier. Arrivals blend their timestamps into
/// the barrier's sync object (release-join); departures import the blend
/// (acquire-load) — every pre-barrier event happens-before every
/// post-barrier event, in both the real execution and the analysis.
class Barrier {
public:
  Barrier(Runtime &Rt, size_t Parties)
      : Rt(Rt), Id(Rt.registerSync()), Parties(Parties) {}

  void arriveAndWait(ThreadId T) {
    Rt.onReleaseJoin(T, Id);
    std::unique_lock<std::mutex> G(M);
    size_t MyGen = Generation;
    if (++Waiting == Parties) {
      Waiting = 0;
      ++Generation;
      Cv.notify_all();
    } else {
      Cv.wait(G, [&] { return Generation != MyGen; });
    }
    G.unlock();
    Rt.onAcquireLoad(T, Id);
  }

private:
  Runtime &Rt;
  SyncId Id;
  size_t Parties;
  std::mutex M;
  std::condition_variable Cv;
  size_t Waiting = 0;
  size_t Generation = 0;
};

} // namespace rt
} // namespace sampletrack

#endif // SAMPLETRACK_RUNTIME_RUNTIME_H
