//===- api/AnalysisSession.cpp - Composable pipeline ------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"

#include "sampletrack/trace/TraceIO.h"

#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <system_error>
#include <thread>

#include <unistd.h>

using namespace sampletrack;
using namespace sampletrack::api;

namespace {

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

uint64_t AnalysisSession::Unit::drive(std::span<const Event> Events,
                                      std::span<const uint8_t> Ds,
                                      std::span<const uint8_t> Owners) {
  uint64_t T0 = nowNanos();
  if (PerEvent)
    D->processBatchGeneric(Events, Ds);
  else if (D->shardCount())
    D->processShardBatch(Events, Ds, Owners);
  else
    D->processBatch(Events, Ds);
  uint64_t Dt = nowNanos() - T0;
  Nanos += Dt;
  return Dt;
}

void AnalysisSession::SpanTable::reset(prof::Tree *Tree, size_t NumUnits) {
  T = Tree;
  Nodes.assign(NumUnits, NoNode);
}

prof::NodeId AnalysisSession::SpanTable::node(const Unit &U, size_t I) {
  if (Nodes[I] == NoNode)
    Nodes[I] = T->internPath({"session", "analyze", U.D->name()});
  return Nodes[I];
}

void AnalysisSession::SpanTable::record(const Unit &U, size_t I,
                                        uint64_t Dt) {
  // One measurement, two consumers: the EngineRun::WallNanos fold in
  // Unit::drive and the profile span. Non-primary shards add nanos only.
  if (T)
    T->addSample(node(U, I), Dt, U.CountsProfile ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// ParallelExecutor
//===----------------------------------------------------------------------===//

namespace {

/// One pause of a spin-wait loop.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spin-then-park waiting on a condition over atomics. A waiter spins for
/// up to SpinNanos (hand-offs here are tens of microseconds apart, less
/// than a sleep/wake round trip), then sleeps on a condition variable.
/// The advancing side calls wake() after its store and pays for the mutex
/// only when a waiter actually sleeps.
///
/// No lost wake-up: the waiter registers in Sleepers (seq_cst), then
/// re-checks the condition with seq_cst loads; the waker stores, issues a
/// seq_cst fence (its store may be a plain release), then reads Sleepers.
/// So either the waiter sees the store or the waker sees the sleeper, and
/// the waker's empty critical section orders its notify after the
/// sleeper's wait began.
class Parking {
public:
  template <typename Pred> void wait(Pred Ready) {
    if (Ready())
      return;
    uint64_t Deadline = nowNanos() + SpinNanos;
    for (unsigned I = 1;; ++I) {
      cpuRelax();
      if (Ready())
        return;
      if (I % 64 == 0 && nowNanos() > Deadline)
        break;
    }
    std::unique_lock<std::mutex> L(M);
    Sleepers.fetch_add(1);
    Cv.wait(L, Ready);
    Sleepers.fetch_sub(1);
  }

  /// Wakes every sleeper (\p All) or one of them.
  void wake(bool All = true) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (Sleepers.load() == 0)
      return;
    { std::lock_guard<std::mutex> L(M); }
    if (All)
      Cv.notify_all();
    else
      Cv.notify_one();
  }

private:
  static constexpr uint64_t SpinNanos = 100'000;
  std::mutex M;
  std::condition_variable Cv;
  std::atomic<uint32_t> Sleepers{0};
};

/// Helper threads kept for the life of the process, so a parallel run does
/// not start threads: on a shared host one thread start takes 30-200 us,
/// and started one after another they held a short run's last helper back
/// by up to 0.6 ms. A run leases idle helpers (the pool grows when none is
/// idle) and hands each a job; a helper waits spin-then-park for the next.
/// The pool is never destroyed, so no static destructor can race a job;
/// idle helpers simply end with the process. A forked child inherits the
/// pool but not its threads, so it starts a pool of its own.
class HelperPool {
public:
  struct Helper {
    /// Set (after Job) to hand the job over; cleared when it has run.
    std::atomic<bool> Busy{false};
    std::function<void()> Job;
    Parking Assigned; ///< The helper waits here for a job.
    Parking Finished; ///< The lessee waits here for the job's end.
    std::thread T;
  };

  static HelperPool &forThisProcess() {
    static std::atomic<HelperPool *> Current{nullptr};
    HelperPool *P = Current.load();
    while (!P || P->Pid != getpid()) {
      HelperPool *Fresh = new HelperPool;
      if (Current.compare_exchange_strong(P, Fresh))
        return *Fresh;
      delete Fresh; // Another thread installed one; P now holds it.
    }
    return *P;
  }

  /// Runs \p Job on an idle helper, starting one if none is idle (which
  /// throws std::system_error if the thread cannot be started).
  Helper &start(std::function<void()> Job) {
    Helper *H;
    {
      std::lock_guard<std::mutex> L(M);
      if (Idle.empty()) {
        auto Fresh = std::make_unique<Helper>();
        Fresh->T = std::thread([H = Fresh.get()] { loop(*H); });
        Idle.push_back(Fresh.get());
        All.push_back(std::move(Fresh));
      }
      H = Idle.back();
      Idle.pop_back();
    }
    H->Job = std::move(Job);
    H->Busy.store(true);
    H->Assigned.wake();
    return *H;
  }

  /// Waits for \p H's job to end and returns \p H to the idle set.
  void finish(Helper &H) {
    H.Finished.wait([&] { return !H.Busy.load(); });
    std::lock_guard<std::mutex> L(M);
    Idle.push_back(&H);
  }

private:
  static void loop(Helper &H) {
    for (;;) {
      H.Assigned.wait([&] { return H.Busy.load(); });
      H.Job();
      H.Job = nullptr;
      H.Busy.store(false);
      H.Finished.wake();
    }
  }

  const pid_t Pid = getpid();
  std::mutex M;
  std::vector<Helper *> Idle;               ///< Guarded by M.
  std::vector<std::unique_ptr<Helper>> All; ///< Guarded by M.
};

} // namespace

/// Fans batches out to NumWorkers threads over a bounded broadcast ring.
///
/// The workers are the ingest thread itself plus NumWorkers - 1 helper
/// threads, so a run never has more runnable analysis threads than
/// NumWorkers. The ingest thread fills a slot (the pre-drawn sampling
/// decisions, the shard routing, and the events or a view of them) and
/// publishes it. Every unit (one detector drive: an unsharded lane, or one
/// shard of a sharded lane) then consumes every slot in publication order,
/// one batch at a time, under a per-unit cursor: a worker claims a unit
/// whose cursor is behind the stream, drives it over its next batch and
/// advances the cursor. A worker prefers its own units (I % NumWorkers)
/// and otherwise takes the unit furthest behind, so the ingest thread's
/// own share of decoding and sampling is spread over every worker instead
/// of holding back one unit.
///
/// A slot is recycled once every unit is past it, which bounds memory to
/// RingSize batches and applies back-pressure: a full ring sends the
/// ingest thread to drive pending batches itself, and it parks only when
/// the remaining work is in other workers' hands. Idle helpers and the
/// ingest thread wait spin-then-park (\ref Parking), each woken only by
/// what it waits for; no lock is taken per batch. Thread start-up stays off
/// the run's path: helpers come from a process-wide pool
/// (\ref HelperPool), and each builds its own units' detectors while the
/// ingest thread is already publishing.
///
/// A claim (an acquire CAS on the unit's cursor) and its release (a
/// release store) order every hand-off of a unit between threads, so each
/// unit is driven by one thread at a time, in trace order, with the exact
/// decision stream sequential mode would use — results are bit-identical
/// by construction, not by replayed luck.
class AnalysisSession::ParallelExecutor {
public:
  struct Slot {
    /// What the workers read. Either views caller memory directly (stable
    /// sources like an in-memory Trace, which outlives the run) or views
    /// \ref Storage (streamed sources, whose batch buffer is recycled).
    std::span<const Event> Events;
    std::vector<Event> Storage;
    std::vector<uint8_t> Decisions;
    /// ShardMap::route of Events; empty when the run is unsharded.
    std::vector<uint8_t> Owners;
  };

  explicit ParallelExecutor(AnalysisSession &Session)
      : Session(Session), Units(Session.Units),
        NumWorkers(Session.RunWorkers), Cursors(Units.size()) {
    assert(NumWorkers > 0 && NumWorkers <= Units.size());
    Ingest.Index = NumWorkers - 1;
    Ingest.Spans.reset(Session.IngestTree, Units.size());
    HelperPool &Pool = HelperPool::forThisProcess();
    for (size_t W = 0; W + 1 < NumWorkers; ++W) {
      // A helper that cannot be started only costs parallelism: any worker
      // takes over units nobody drives.
      try {
        Helpers.push_back(&Pool.start([this, W] { helperMain(W); }));
      } catch (const std::system_error &) {
        break;
      }
    }
  }

  ~ParallelExecutor() { shutdown(); }

  /// The next ring slot for the ingest thread to fill. While a unit still
  /// needs the batch that slot holds, the ingest thread drives pending
  /// batches itself, adding the time that took to \p DriveNanos. Workers
  /// never read the slot until \ref publish.
  Slot &acquireSlot(uint64_t &DriveNanos) {
    const uint64_t Next = Published.load(std::memory_order_relaxed);
    auto Free = [&] {
      if (Next < RingSize)
        return true;
      for (const Cursor &C : Cursors)
        if ((C.State.load() >> 1) <= Next - RingSize)
          return false;
      return true;
    };
    while (!Free()) {
      if (runOne(Ingest, &DriveNanos))
        continue;
      SlotFreed.wait([&] { return Free() || claimable(); });
    }
    return Ring[Next % RingSize];
  }

  /// Makes the slot filled after \ref acquireSlot visible to every worker.
  void publish() {
    Published.store(Published.load(std::memory_order_relaxed) + 1);
    WorkReady.wake();
  }

  /// Publishes end-of-stream, works off pending batches alongside the
  /// helpers, and joins them (idempotent). After this returns, every unit
  /// has consumed every published batch.
  void shutdown() {
    Eof.store(true);
    WorkReady.wake();
    while (runOne(Ingest))
      ;
    HelperPool &Pool = HelperPool::forThisProcess();
    for (HelperPool::Helper *H : Helpers)
      Pool.finish(*H);
    Helpers.clear();
  }

private:
  /// A unit's progress, (batches consumed << 1) | claimed. Padded so
  /// workers claiming different units never share a cache line.
  struct alignas(64) Cursor {
    std::atomic<uint64_t> State{0};
  };

  /// A worker's identity: its index (it prefers units I % NumWorkers ==
  /// Index) and where it records the spans of the units it drives.
  struct Worker {
    size_t Index = 0;
    SpanTable Spans;
  };

  static constexpr uint64_t Claimed = 1;

  /// True if some unit is unclaimed and behind the published stream.
  bool claimable() const {
    const uint64_t Pub = Published.load();
    for (const Cursor &C : Cursors) {
      uint64_t S = C.State.load();
      if (!(S & Claimed) && (S >> 1) < Pub)
        return true;
    }
    return false;
  }

  /// Claims one unit that is behind the stream, drives it over its next
  /// batch (adding the time to \p DriveNanos, if given), and releases it.
  /// False if no unit was claimable.
  bool runOne(Worker &W, uint64_t *DriveNanos = nullptr) {
    const uint64_t Pub = Published.load();
    size_t Pick = Units.size();
    uint64_t PickState = 0;
    auto Consider = [&](size_t I) {
      uint64_t S = Cursors[I].State.load(std::memory_order_relaxed);
      if (!(S & Claimed) && (S >> 1) < Pub &&
          (Pick == Units.size() || S < PickState)) {
        Pick = I;
        PickState = S;
      }
    };
    // Own units first (they stay on one thread's caches); otherwise the
    // unit furthest behind, which also frees ring slots soonest.
    for (size_t I = W.Index; I < Units.size(); I += NumWorkers)
      Consider(I);
    if (Pick == Units.size())
      for (size_t I = 0; I < Units.size(); ++I)
        Consider(I);
    if (Pick == Units.size())
      return false;
    std::atomic<uint64_t> &State = Cursors[Pick].State;
    if (!State.compare_exchange_strong(PickState, PickState | Claimed,
                                       std::memory_order_acquire))
      return true; // Another worker took it; look again.
    Unit &U = Units[Pick];
    if (!U.D)
      Session.prepareUnit(U);
    // Safe without a lock: the ingest thread never refills this slot
    // while the unit's cursor is at or before it.
    const uint64_t Batch = PickState >> 1;
    const Slot &S = Ring[Batch % RingSize];
    uint64_t Dt = U.drive(S.Events, S.Decisions, S.Owners);
    W.Spans.record(U, Pick, Dt);
    if (DriveNanos)
      *DriveNanos += Dt;
    State.store((Batch + 1) << 1, std::memory_order_release);
    // The ingest thread may be waiting for this slot; a helper, for this
    // unit's next batch.
    SlotFreed.wake();
    if (Batch + 1 < Published.load())
      WorkReady.wake(/*All=*/false);
    return true;
  }

  void helperMain(size_t Index) {
    // Each helper records into its own tree; units intern their span under
    // the same session/analyze path everywhere, so the merged report is
    // identical in shape whichever thread drove a unit.
    Worker W;
    W.Index = Index;
    W.Spans.reset(Session.Prof
                      ? Session.Prof->makeTree("worker-" + std::to_string(Index))
                      : nullptr,
                  Units.size());
    // Build this helper's own detectors on this thread, so their state is
    // allocated where it is used. A claim guards each build: a unit another
    // worker took first is built by that worker.
    for (size_t I = Index; I < Units.size(); I += NumWorkers) {
      uint64_t S = Cursors[I].State.load(std::memory_order_relaxed);
      if (S & Claimed ||
          !Cursors[I].State.compare_exchange_strong(
              S, S | Claimed, std::memory_order_acquire))
        continue;
      if (!Units[I].D)
        Session.prepareUnit(Units[I]);
      Cursors[I].State.store(S, std::memory_order_release);
    }
    SlotFreed.wake();
    WorkReady.wake();
    for (;;) {
      if (runOne(W))
        continue;
      bool Stop = false;
      WorkReady.wait([&] {
        // Eof first: once it reads true, Published is final.
        Stop = Eof.load();
        return Stop || claimable();
      });
      // At end of stream, whatever is not claimable is either done or in
      // the hands of a worker that will finish it.
      if (Stop && !claimable())
        return;
    }
  }

  static constexpr size_t RingSize = 8;

  const AnalysisSession &Session;
  std::vector<Unit> &Units;
  const size_t NumWorkers;
  std::array<Slot, RingSize> Ring;

  alignas(64) std::atomic<uint64_t> Published{0};
  std::atomic<bool> Eof{false};
  std::vector<Cursor> Cursors;
  /// Helpers wait for claimable work (a publish, or a released unit with
  /// batches left); the ingest thread waits for a free slot or claimable
  /// work (any release).
  Parking WorkReady;
  Parking SlotFreed;
  Worker Ingest;
  /// Leased from HelperPool; each runs helperMain until shutdown.
  std::vector<HelperPool::Helper *> Helpers;
};

AnalysisSession::AnalysisSession() = default;
AnalysisSession::AnalysisSession(SessionConfig C) : Cfg(std::move(C)) {}
// Joins the helpers first: a run abandoned without finish() still drains,
// and its workers record into the profiler declared after Par.
AnalysisSession::~AnalysisSession() { Par.reset(); }

SessionResult sampletrack::api::stripTiming(SessionResult R) {
  R.WallNanos = 0;
  R.IngestNanos = 0;
  R.NumWorkers = 0;
  R.Shards = 0;
  for (EngineRun &E : R.Engines) {
    E.WallNanos = 0;
    E.Shards = 0;
  }
  R.Profile = prof::stripTiming(std::move(R.Profile));
  return R;
}

const EngineRun *SessionResult::find(const std::string &Engine) const {
  for (const EngineRun &R : Engines)
    if (R.Engine == Engine)
      return &R;
  return nullptr;
}

AnalysisSession &AnalysisSession::configure(SessionConfig C) {
  assert(!Active && "cannot reconfigure a running session");
  Cfg = std::move(C);
  return *this;
}

AnalysisSession &AnalysisSession::addEngine(EngineKind K) {
  assert(!Active && "cannot add lanes to a running session");
  Cfg.Engines.push_back(K);
  return *this;
}

AnalysisSession &AnalysisSession::addEngines(std::span<const EngineKind> Ks) {
  for (EngineKind K : Ks)
    addEngine(K);
  return *this;
}

AnalysisSession &AnalysisSession::addDetector(Detector &D) {
  assert(!Active && "cannot add lanes to a running session");
  BorrowedDetectors.push_back(&D);
  return *this;
}

AnalysisSession &AnalysisSession::withSampler(Sampler &Sm) {
  assert(!Active && "cannot swap samplers on a running session");
  BorrowedSampler = &Sm;
  OwnedSampler.reset();
  return *this;
}

AnalysisSession &AnalysisSession::withSampler(std::unique_ptr<Sampler> Sm) {
  assert(!Active && "cannot swap samplers on a running session");
  OwnedSampler = std::move(Sm);
  BorrowedSampler = nullptr;
  return *this;
}

bool AnalysisSession::begin(size_t NumThreads, std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Active)
    return Fail("session already active");
  if (Cfg.Engines.empty() && BorrowedDetectors.empty())
    return Fail("no engines or detectors configured");

  RunThreads = Cfg.NumThreads ? Cfg.NumThreads
                              : (NumThreads ? NumThreads : Cfg.MaxThreads);
  if (!RunThreads)
    return Fail("thread universe size is zero");

  Lanes.clear();
  Units.clear();
  // Fresh profiler per run: the previous run's timeline (if any) is owned
  // by whoever took it; pointers into the old trees die with the old units.
  Prof.reset();
  IngestTree = nullptr;
  if (Cfg.ProfilingEnabled) {
    Prof = std::make_unique<prof::Profiler>();
    IngestTree = Prof->makeTree("ingest");
    SessionNode = IngestTree->internPath({"session"});
    IngestNode = IngestTree->internPath({"session", "ingest"});
    DecodeNode = IngestTree->internPath({"session", "decode"});
    FinishNode = IngestTree->internPath({"session", "finish"});
  }

  // Shards < 2 means one detector per lane (1 shard is just sequential
  // with extra bookkeeping, so it is normalized away); the batch routing
  // names a shard in one byte, which caps the count.
  size_t Shards =
      Cfg.Shards >= 2 ? std::min<size_t>(Cfg.Shards, ShardMap::MaxShards) : 0;
  for (EngineKind K : Cfg.Engines) {
    Lane L;
    L.Shards = Shards;
    L.FirstUnit = Units.size();
    L.NumUnits = Shards ? Shards : 1;
    for (size_t I = 0; I < L.NumUnits; ++I) {
      Unit U;
      U.Kind = K;
      U.Shard = static_cast<uint32_t>(I);
      U.PerEvent = Cfg.PerEventDispatch;
      // Only the lane's primary drive counts profile calls (shard-count
      // invariance); every drive contributes nanos.
      U.CountsProfile = I == 0;
      Units.push_back(std::move(U));
    }
    Lanes.push_back(L);
  }
  for (Detector *D : BorrowedDetectors) {
    // Borrowed detectors keep their owner's pooling configuration — and
    // never shard (the caller reads races() off the full variable space).
    Lane L;
    L.FirstUnit = Units.size();
    Unit U;
    U.D = D;
    U.PerEvent = Cfg.PerEventDispatch;
    U.CountsProfile = true;
    Units.push_back(std::move(U));
    Lanes.push_back(L);
  }

  if (BorrowedSampler)
    S = BorrowedSampler;
  else {
    if (!OwnedSampler)
      OwnedSampler = Cfg.makeSampler();
    S = OwnedSampler.get();
  }

  SampleSize = 0;
  EventsProcessed = 0;
  IngestNanos = 0;
  Route = Shards ? ShardMap(static_cast<uint32_t>(Shards)) : ShardMap();
  RunWorkers = std::min(Cfg.NumWorkers, Units.size());
  // Sequential mode builds every detector here. In parallel mode the
  // ingest thread builds only its own units (I % RunWorkers ==
  // RunWorkers - 1) before the helpers start; each helper builds its own.
  IngestSpans.reset(IngestTree, Units.size());
  for (size_t I = RunWorkers ? RunWorkers - 1 : 0; I < Units.size();
       I += RunWorkers ? RunWorkers : 1)
    prepareUnit(Units[I]);
  if (RunWorkers)
    Par = std::make_unique<ParallelExecutor>(*this);
  StartNanos = nowNanos();
  Active = true;
  return true;
}

void AnalysisSession::prepareUnit(Unit &U) const {
  if (U.D)
    return;
  U.Owned = createDetector(U.Kind, RunThreads);
  if (Route.count())
    // Every shard keeps the full lane sink capacity: the merge re-caps
    // (triage::mergeShardSummaries), which is what makes truncation land
    // on exactly the signatures sequential would have dropped.
    U.Owned->setShard(U.Shard, Route.count());
  if (!Cfg.PoolingEnabled)
    U.Owned->setPoolingEnabled(false);
  if (Cfg.TriageCapacity)
    U.Owned->setRaceCapacity(Cfg.TriageCapacity);
  U.D = U.Owned.get();
}

void AnalysisSession::process(std::span<const Event> Batch) {
  assert(Active && "begin() the session before feeding events");
  if (Batch.empty())
    return;

  // Draw the shared decision stream once, on this (the ingest) thread, in
  // trace order; every lane then replays the same decisions, which is what
  // makes K session lanes byte-equivalent to K standalone runs over the
  // same seed — sequential or parallel alike. One loop serves both modes
  // (only the destination buffer differs) so they cannot drift apart.
  uint64_t T0 = nowNanos();
  // In parallel mode a full ring has the ingest thread drive pending
  // batches; that time is the units' (their WallNanos and analyze spans),
  // not ingest.
  uint64_t Driven = 0;
  ParallelExecutor::Slot *Slot = Par ? &Par->acquireSlot(Driven) : nullptr;
  uint64_t TFill = Slot ? nowNanos() : T0;
  if (Slot) {
    if (StableSource) {
      // The source outlives the run (an in-memory Trace): workers can read
      // the caller's memory directly, no O(batch) copy on the ingest path.
      Slot->Events = Batch;
    } else {
      // The caller's span may be reused or freed the moment we return (the
      // streamed reader recycles its batch vector), so the hand-off copies.
      Slot->Storage.assign(Batch.begin(), Batch.end());
      Slot->Events = std::span<const Event>(Slot->Storage);
    }
  }
  std::vector<uint8_t> &Ds = Slot ? Slot->Decisions : Decisions;
  Ds.resize(Batch.size());
  for (size_t I = 0, N = Batch.size(); I < N; ++I) {
    bool Sampled = isAccess(Batch[I].Kind) && S->shouldSample(Batch[I]);
    Ds[I] = Sampled ? 1 : 0;
    SampleSize += Sampled ? 1 : 0;
  }
  // Sharded runs route the batch once here; every shard of every lane
  // reads the same owners instead of re-deriving them.
  std::vector<uint8_t> &Os = Slot ? Slot->Owners : Owners;
  if (Route.count()) {
    Os.resize(Batch.size());
    Route.route(Batch, Os);
  }
  if (Slot)
    Par->publish();
  uint64_t T1 = nowNanos();
  IngestNanos += T1 - T0 - Driven;
  // The profile's session/ingest span is the same measurement IngestNanos
  // accumulates — folded, not re-measured: the wait for a slot (less the
  // driving) as nanos, the fill as the timeline span.
  if (IngestTree) {
    if (TFill > T0)
      IngestTree->addSample(IngestNode, TFill - T0 - Driven, 0);
    IngestTree->addSpan(IngestNode, TFill, T1);
  }
  if (!Slot) {
    std::span<const uint8_t> DsView(Decisions.data(), Batch.size());
    for (size_t I = 0; I < Units.size(); ++I)
      IngestSpans.record(Units[I], I, Units[I].drive(Batch, DsView, Os));
  }
  EventsProcessed += Batch.size();
}

SessionResult AnalysisSession::finish() {
  assert(Active && "finish() without begin()");
  if (Par) {
    Par->shutdown(); // Drains the ring; all lanes caught up after this.
    Par.reset();
  }
  SessionResult R;
  R.EventsProcessed = EventsProcessed;
  R.NumThreads = RunThreads;
  R.NumWorkers = RunWorkers;
  R.Shards = Route.count();
  R.IngestNanos = IngestNanos;
  R.WallNanos = nowNanos() - StartNanos;
  uint64_t FinishT0 = IngestTree ? nowNanos() : 0;
  // A unit no worker ever claimed (a run with no batches) still reports,
  // and its span exists in every mode.
  for (size_t I = 0; I < Units.size(); ++I) {
    prepareUnit(Units[I]);
    if (IngestTree)
      IngestSpans.node(Units[I], I);
  }
  R.Engines.reserve(Lanes.size());
  std::vector<triage::TriageSummary> LaneSummaries;
  LaneSummaries.reserve(Lanes.size());
  for (Lane &L : Lanes) {
    EngineRun E;
    // The result-bearing detector: shard 0 (whose sink feeds the merge
    // first) or the single unsharded/borrowed detector.
    Unit &First = Units[L.FirstUnit];
    Detector *Primary = First.D;
    E.Engine = Primary->name();
    E.SamplerName = S->name();
    E.SampleSize = SampleSize;
    E.Shards = L.Shards;
    for (size_t I = 0; I < L.NumUnits; ++I)
      E.WallNanos += Units[L.FirstUnit + I].Nanos;
    if (!L.Shards) {
      E.Stats = Primary->metrics();
      E.NumRaces = E.Stats.RacesDeclared;
      E.NumRacyLocations = Primary->racyLocations().size();
      E.DistinctRaces = Primary->distinctRaces();
      // The warehouse summary and the truncation flag must both be read
      // before the move below empties the sink's exemplar list.
      LaneSummaries.push_back(Primary->raceSink().summary());
      E.RacesTruncated = Primary->racesTruncated();
      // Session-owned detectors die right after this loop, so steal their
      // (potentially million-entry) race lists. Borrowed detectors keep
      // theirs — the caller owns the detector and reads races() directly,
      // so no copy is made here.
      if (First.Owned)
        E.Races = First.Owned->takeRaces();
    } else {
      // Sharded lane: fold the shards back into exactly the unsharded
      // numbers. Metrics sum field-wise (the dispatch contract makes the
      // sum exact — see PolicyEngine::batchSharded), racy-location
      // sets are disjoint by construction, and the sinks merge through
      // the position-ordered re-capping of mergeShardSummaries.
      std::vector<triage::TriageSummary> ShardSummaries;
      ShardSummaries.reserve(L.NumUnits);
      for (size_t I = 0; I < L.NumUnits; ++I) {
        const Detector *D = Units[L.FirstUnit + I].D;
        E.Stats += D->metrics();
        E.NumRacyLocations += D->racyLocations().size();
        ShardSummaries.push_back(D->raceSink().summary());
      }
      triage::TriageSummary Merged = triage::mergeShardSummaries(
          ShardSummaries, Primary->raceSink().capacity());
      E.NumRaces = E.Stats.RacesDeclared;
      E.DistinctRaces = Merged.distinct();
      E.RacesTruncated = Merged.Capped;
      E.Races.reserve(Merged.Entries.size());
      for (const triage::TriageEntry &Te : Merged.Entries)
        E.Races.push_back(Te.Exemplar);
      LaneSummaries.push_back(std::move(Merged));
    }
    R.Engines.push_back(std::move(E));
  }
  R.Triage = triage::mergeSummaries(LaneSummaries);

  if (IngestTree) {
    // session/finish covers the sink/metric merge above; the session root
    // covers the whole run, finish included (count 1), and carries the
    // deterministic stream counters.
    const uint64_t FinishT1 = nowNanos();
    IngestTree->addSpan(FinishNode, FinishT0, FinishT1);
    IngestTree->addSpan(SessionNode, StartNanos, FinishT1);
    IngestTree->counterEvent(SessionNode, "events", EventsProcessed);
    IngestTree->counterEvent(SessionNode, "sampledAccesses", SampleSize);
    R.Profile = Prof->report();
    IngestTree = nullptr; // The profiler stays readable; recording is done.
  }

  // Lanes (and any session-owned detectors) are single-use; a later begin()
  // builds fresh ones. Borrowed detectors and samplers stay with their
  // owners and are dropped from the session's lists.
  Lanes.clear();
  Units.clear();
  BorrowedDetectors.clear();
  BorrowedSampler = nullptr;
  OwnedSampler.reset();
  S = nullptr;
  StableSource = false;
  Active = false;
  return R;
}

bool AnalysisSession::runLoaded(const Trace &T, SessionResult &Out,
                                std::string *Error) {
  if (!begin(T.numThreads(), Error))
    return false;
  StableSource = true; // T outlives the run; spans can cross the hand-off.
  const std::vector<Event> &Events = T.events();
  size_t Step = Cfg.BatchSize ? Cfg.BatchSize : Events.size();
  for (size_t I = 0; I < Events.size(); I += Step)
    process(std::span<const Event>(Events.data() + I,
                                   std::min(Step, Events.size() - I)));
  Out = finish();
  return true;
}

SessionResult AnalysisSession::run(const Trace &T) {
  SessionResult R;
  runLoaded(T, R, nullptr); // Failure leaves R empty (no lanes configured).
  return R;
}

bool AnalysisSession::run(std::istream &Is, SessionResult &Out,
                          std::string *Error) {
  if (sniffBinaryTrace(Is)) {
    BinaryTraceReader Reader;
    if (!Reader.open(Is, Error))
      return false;
    if (!begin(Reader.numThreads(), Error))
      return false;
    std::vector<Event> Batch;
    while (!Reader.done()) {
      uint64_t DecodeT0 = IngestTree ? nowNanos() : 0;
      if (!Reader.read(Batch, Cfg.BatchSize ? Cfg.BatchSize : 4096, Error)) {
        finish(); // Abandon the partial run; lanes are single-use anyway.
        return false;
      }
      if (IngestTree)
        IngestTree->addSpan(DecodeNode, DecodeT0, nowNanos());
      process(std::span<const Event>(Batch.data(), Batch.size()));
    }
    Out = finish();
    return true;
  }

  // The text format carries no machine-readable universe sizes, so stream
  // ingestion cannot size the detectors up front; load it in-memory.
  Trace T;
  if (!readTrace(Is, T, Error))
    return false;
  return runLoaded(T, Out, Error);
}

bool AnalysisSession::runFile(const std::string &Path, SessionResult &Out,
                              std::string *Error) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return false;
  }
  return run(Is, Out, Error);
}

//===----------------------------------------------------------------------===//
// SessionHooks
//===----------------------------------------------------------------------===//

ThreadId SessionHooks::registerThread() {
  std::lock_guard<std::mutex> G(M);
  assert(NextThread < Session.numThreads() &&
         "thread universe exhausted; begin() the session with more threads");
  return NextThread++;
}

SyncId SessionHooks::registerSync() {
  std::lock_guard<std::mutex> G(M);
  return NextSync++;
}

void SessionHooks::emit(const Event &E) {
  std::lock_guard<std::mutex> G(M);
  Session.process(E);
}

void SessionHooks::onRead(ThreadId T, VarId X) {
  emit(Event(T, OpKind::Read, X));
}
void SessionHooks::onWrite(ThreadId T, VarId X) {
  emit(Event(T, OpKind::Write, X));
}
void SessionHooks::onAcquire(ThreadId T, SyncId L) {
  emit(Event(T, OpKind::Acquire, L));
}
void SessionHooks::onRelease(ThreadId T, SyncId L) {
  emit(Event(T, OpKind::Release, L));
}
void SessionHooks::onFork(ThreadId Parent, ThreadId Child) {
  emit(Event(Parent, OpKind::Fork, Child));
}
void SessionHooks::onJoin(ThreadId Parent, ThreadId Child) {
  emit(Event(Parent, OpKind::Join, Child));
}
void SessionHooks::onReleaseStore(ThreadId T, SyncId Sy) {
  emit(Event(T, OpKind::ReleaseStore, Sy));
}
void SessionHooks::onReleaseJoin(ThreadId T, SyncId Sy) {
  emit(Event(T, OpKind::ReleaseJoin, Sy));
}
void SessionHooks::onAcquireLoad(ThreadId T, SyncId Sy) {
  emit(Event(T, OpKind::AcquireLoad, Sy));
}
