//===- runtime/Runtime.cpp - Online instrumented runtime ---------------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/runtime/Runtime.h"

#include "sampletrack/detectors/Policies.h"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

using namespace sampletrack;
using namespace sampletrack::rt;

const char *sampletrack::rt::modeName(Mode M) {
  switch (M) {
  case Mode::NT:
    return "NT";
  case Mode::ET:
    return "ET";
  case Mode::FT:
    return "FT";
  case Mode::ST:
    return "ST";
  case Mode::SU:
    return "SU";
  case Mode::SO:
    return "SO";
  }
  return "?";
}

namespace {

/// Mixes an address into a shadow-cell index.
inline uint64_t hashAddress(uint64_t Addr) {
  Addr *= 0x9e3779b97f4a7c15ULL;
  return Addr ^ (Addr >> 29);
}

/// Per-thread race-sink capacity when Config::TriageCapacity is 0. Online
/// runs hash addresses into ShadowCells (<= 64K by default), so 64K
/// distinct signatures per thread is effectively unbounded.
constexpr size_t DefaultThreadSinkCapacity = 1 << 16;

/// Sync slots are allocated this many at a time, when registerSync hands
/// out the first id of a chunk.
constexpr size_t SyncChunkSlots = 256;

/// Access histories are allocated this many at a time, per shadow shard.
constexpr size_t HistoryBlock = 16;

/// Ends the process: an id past a fixed limit would index past
/// the runtime's tables, in every build type.
[[noreturn]] void limitExceeded(const char *What, const char *Limit,
                                size_t Value) {
  std::fprintf(stderr,
               "sampletrack::rt::Runtime: %s limit exceeded (%s = %zu)\n",
               What, Limit, Value);
  std::abort();
}

/// Times one access-hook body into the thread's span tree, aggregate-only:
/// access hooks fire millions of times per run, so no per-invocation
/// timeline event is recorded. One branch when profiling is off.
struct HookSample {
  prof::Tree *PT;
  prof::NodeId Id;
  uint64_t T0;
  HookSample(prof::Tree *PT, prof::NodeId Id)
      : PT(PT), Id(Id), T0(PT ? prof::nowNanos() : 0) {}
  ~HookSample() {
    if (PT)
      PT->addSample(Id, prof::nowNanos() - T0, 1);
  }
};

/// Times one sync-hook body as a real span (aggregate plus a timeline
/// event, capped per tree): sync hooks are rare enough to afford it.
struct HookSpan {
  prof::Tree *PT;
  prof::NodeId Id;
  uint64_t T0;
  HookSpan(prof::Tree *PT, prof::NodeId Id)
      : PT(PT), Id(Id), T0(PT ? prof::nowNanos() : 0) {}
  ~HookSpan() {
    if (PT)
      PT->addSpan(Id, T0, prof::nowNanos());
  }
};

} // namespace

/// Per-thread runtime state. Owned by its thread: only the owner mutates
/// it, so no locking is needed. Padded against false sharing.
struct Runtime::ThreadState {
  bool Registered = false;

  /// Self-profiling (null unless Config::ProfilingEnabled): this thread's
  /// span tree plus one pre-interned node per hook kind, indexed by
  /// OpKind. Access hooks fold aggregate samples (no timeline event — far
  /// too hot); sync hooks emit timed spans.
  prof::Tree *PT = nullptr;
  std::array<prof::NodeId, 9> PNode{};

  /// Per-thread sampling RNG and counters (merged at the end).
  SplitMix64 Rng{0};
  double SamplingRate = 0;
  Metrics Stats;
  uint64_t EtCounter = 0;

  /// This thread's shard of the race warehouse: declarations dedup here
  /// lock-free (single-writer, like every other ThreadState member) and
  /// Runtime::triageSummary merges the shards when the run is quiescent.
  triage::RaceSink Sink;

  alignas(64) char Pad[64] = {};

  bool sampleNext() { return Rng.nextBool(SamplingRate); }
};

/// The analysis half of an FT/ST/SU/SO runtime.
struct Runtime::Analysis {
  virtual ~Analysis() = default;
  virtual void addThread(ThreadId T) = 0;
  virtual void addSync(SyncId S) = 0;
  virtual void access(ThreadId T, uint64_t Addr, uint64_t Cell,
                      bool IsWrite) = 0;
  virtual void sync(ThreadId T, OpKind K, uint32_t Target) = 0;
};

struct Runtime::Impl {
  explicit Impl(const Config &C) : Threads(C.MaxThreads) {
    if (C.ProfilingEnabled)
      Prof = std::make_unique<prof::Profiler>();
    if (C.AnalysisMode == Mode::ET)
      EtShadow.assign(C.ShadowCells, 0);
  }

  /// Self-profiler (null unless Config::ProfilingEnabled). Trees are
  /// per-thread and single-writer; makeTree itself is mutex-protected, so
  /// concurrent registerThread calls are fine.
  std::unique_ptr<prof::Profiler> Prof;

  std::vector<ThreadState> Threads;
  /// The analysis (null under NT and ET).
  std::unique_ptr<Analysis> A;
  /// ET's shadow words: Empty-TSan touches shadow state, which is most of
  /// TSan's instrumentation cost, but runs no analysis.
  std::vector<uint64_t> EtShadow;

  std::atomic<uint32_t> NextThread{0};
  std::atomic<uint32_t> NextSync{0};
  std::atomic<uint64_t> Races{0};

  std::mutex RacyMu;
  std::unordered_set<uint64_t> RacyCells;

  std::mutex RecMu;
  std::vector<Event> Recorded;
};

/// Runs \p Policy on live threads: per-thread policy state, per-sync state
/// under a mutex each, access histories in sharded shadow cells. Sync
/// slots and histories are allocated as the program registers syncs and
/// claims cells, not up front.
template <typename Policy> class Runtime::Engine final : public Analysis {
public:
  Engine(Runtime &Rt, const Config &C)
      : Rt(Rt), Pol(C.MaxThreads), Threads(C.MaxThreads),
        Cells(C.ShadowCells), Shards(C.ShadowShards) {
    Pol.setPoolingEnabled(C.PoolingEnabled);
  }

  ~Engine() override {
    // Before Pol: SO's sync state holds references into its pools.
    for (std::atomic<SyncChunk *> &P : SyncChunks)
      delete P.load(std::memory_order_relaxed);
  }

  void addThread(ThreadId T) override { Pol.initThread(Threads[T].S, T); }

  void addSync(SyncId S) override { syncSlot(S); }

  void access(ThreadId T, uint64_t Addr, uint64_t CellId,
              bool IsWrite) override {
    Metrics &M = Rt.I->Threads[T].Stats;
    Cell &C = Cells[CellId];
    Shard &Sh = Shards[CellId % Shards.size()];
    std::lock_guard<std::mutex> G(Sh.M);
    if (!C.H) {
      C.Owner = Addr;
      C.H = Sh.makeHistory();
    } else if (C.Owner != Addr) {
      // Direct-mapped ownership: the newcomer claims the cell and the
      // previous owner's history is forgotten. Comparing against a
      // stranger's history would fabricate races TSan's 1:1 shadow
      // mapping cannot produce.
      C.Owner = Addr;
      C.H->reset();
    }
    auto Race = [&] { Rt.reportRace(T, CellId, IsWrite); };
    if (IsWrite)
      Pol.write(Threads[T].S, T, *C.H, M, Race);
    else
      Pol.read(Threads[T].S, T, *C.H, M, Race);
  }

  void sync(ThreadId T, OpKind K, uint32_t Target) override {
    Metrics &M = Rt.I->Threads[T].Stats;
    typename Policy::Thread &TS = Threads[T].S;
    // Fork and join touch the parent and a child that is not running
    // (not yet started, or already joined): no lock needed.
    if (K == OpKind::Fork || K == OpKind::Join) {
      typename Policy::Thread &Child = Threads[Target].S;
      if (K == OpKind::Fork)
        Pol.fork(TS, T, Child, Target, M);
      else
        Pol.join(TS, T, Child, Target, M);
      return;
    }
    SyncSlot &S = syncSlot(Target);
    if (K == OpKind::Acquire || K == OpKind::AcquireLoad) {
      if constexpr (Policy::SplitAcquire) {
        typename Policy::Prefix P;
        {
          std::lock_guard<std::mutex> G(S.M);
          if (!Pol.acquireSnapshot(TS, T, S.S, M, P, /*Pin=*/true))
            return;
        }
        Pol.acquirePrefix(TS, T, P, M);
      } else {
        std::lock_guard<std::mutex> G(S.M);
        Pol.acquire(TS, T, S.S, M);
      }
      return;
    }
    std::lock_guard<std::mutex> G(S.M);
    if (K == OpKind::Release)
      Pol.release(TS, T, S.S, M);
    else if (K == OpKind::ReleaseStore)
      Pol.releaseStore(TS, T, S.S, M);
    else
      Pol.releaseJoin(TS, T, S.S, M);
  }

private:
  struct alignas(64) ThreadSlot {
    typename Policy::Thread S;
  };
  struct SyncSlot {
    std::mutex M;
    typename Policy::Sync S;
  };
  using SyncChunk = std::array<SyncSlot, SyncChunkSlots>;
  /// A shadow cell, 16 bytes whatever the policy.
  struct Cell {
    /// The address whose history this cell holds.
    uint64_t Owner = 0;
    /// That history, in the cell's shard (null = never claimed).
    typename Policy::History *H = nullptr;
  };
  static_assert(sizeof(Cell) == 16);
  /// A shadow shard: the mutex over every cell whose index is congruent to
  /// the shard's, and the histories those cells claimed. Blocks are
  /// allocated as the cells claim histories, and a history never moves.
  struct Shard {
    std::mutex M;
    std::vector<std::unique_ptr<typename Policy::History[]>> Blocks;
    size_t Used = 0;

    typename Policy::History *makeHistory() {
      if (Used % HistoryBlock == 0)
        Blocks.push_back(
            std::make_unique<typename Policy::History[]>(HistoryBlock));
      return &Blocks.back()[Used++ % HistoryBlock];
    }
  };

  /// The slot of sync \p S. A registration or a hook, whichever comes
  /// first, allocates its chunk: concurrent registrations can hand out a
  /// chunk's later ids before its first, and hooks may name ids that were
  /// never registered.
  SyncSlot &syncSlot(uint32_t S) {
    if (S >= MaxSyncs)
      limitExceeded("sync id", "Runtime::MaxSyncs", MaxSyncs);
    std::atomic<SyncChunk *> &P = SyncChunks[S / SyncChunkSlots];
    SyncChunk *C = P.load(std::memory_order_acquire);
    if (!C) {
      auto Fresh = std::make_unique<SyncChunk>();
      if (P.compare_exchange_strong(C, Fresh.get(),
                                    std::memory_order_acq_rel))
        C = Fresh.release();
    }
    return (*C)[S % SyncChunkSlots];
  }

  Runtime &Rt;
  // The policy owns the pools, so it outlives the state below.
  Policy Pol;
  std::vector<ThreadSlot> Threads;
  std::array<std::atomic<SyncChunk *>, MaxSyncs / SyncChunkSlots>
      SyncChunks{};
  std::vector<Cell> Cells;
  std::vector<Shard> Shards;
};

Runtime::Runtime(const Config &C) : Cfg(C), I(std::make_unique<Impl>(C)) {
  assert(Cfg.ShadowShards > 0 && Cfg.ShadowCells >= Cfg.ShadowShards);
  switch (Cfg.AnalysisMode) {
  case Mode::NT:
  case Mode::ET:
    break;
  case Mode::FT:
    I->A = std::make_unique<Engine<FastTrackPolicy>>(*this, Cfg);
    break;
  case Mode::ST:
    I->A = std::make_unique<Engine<SamplingNaivePolicy>>(*this, Cfg);
    break;
  case Mode::SU:
    I->A = std::make_unique<Engine<SamplingUClockPolicy>>(*this, Cfg);
    break;
  case Mode::SO:
    I->A = std::make_unique<Engine<SamplingOrderedListPolicy>>(*this, Cfg);
    break;
  }
  // Pre-register the main thread as thread 0.
  registerThread();
}

Runtime::~Runtime() = default;

ThreadId Runtime::registerThread() {
  uint32_t T = I->NextThread.fetch_add(1, std::memory_order_relaxed);
  if (T >= Cfg.MaxThreads)
    limitExceeded("thread", "Config::MaxThreads", Cfg.MaxThreads);
  ThreadState &TS = I->Threads[T];
  TS.Registered = true;
  if (I->A)
    I->A->addThread(T);
  TS.Rng = SplitMix64(Cfg.Seed ^ (0x5851f42d4c957f2dULL * (T + 1)));
  TS.SamplingRate = Cfg.SamplingRate;
  TS.Sink.setCapacity(Cfg.TriageCapacity ? Cfg.TriageCapacity
                                         : DefaultThreadSinkCapacity);
  if (I->Prof) {
    TS.PT = I->Prof->makeTree("rt-thread-" + std::to_string(T));
    auto Node = [&](OpKind K, const char *Group, const char *Name) {
      TS.PNode[static_cast<size_t>(K)] =
          TS.PT->internPath({"runtime", Group, Name});
    };
    Node(OpKind::Read, "access", "read");
    Node(OpKind::Write, "access", "write");
    Node(OpKind::Acquire, "sync", "acquire");
    Node(OpKind::Release, "sync", "release");
    Node(OpKind::Fork, "sync", "fork");
    Node(OpKind::Join, "sync", "join");
    Node(OpKind::ReleaseStore, "sync", "releaseStore");
    Node(OpKind::ReleaseJoin, "sync", "releaseJoin");
    // Acquire-loads are accounted with acquires.
    Node(OpKind::AcquireLoad, "sync", "acquire");
  }
  return T;
}

SyncId Runtime::registerSync() {
  uint32_t S = I->NextSync.fetch_add(1, std::memory_order_relaxed);
  if (S >= MaxSyncs)
    limitExceeded("sync", "Runtime::MaxSyncs", MaxSyncs);
  if (I->A)
    I->A->addSync(S);
  return S;
}

uint64_t Runtime::raceCount() const {
  return I->Races.load(std::memory_order_relaxed);
}

triage::TriageSummary Runtime::triageSummary() const {
  // Merge the per-thread shards in thread order (deterministic given a
  // quiescent runtime — the same contract as aggregatedMetrics).
  size_t Distinct = 0;
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Distinct += TS.Sink.distinct();
  triage::RaceSink Merged(Distinct ? Distinct : 1);
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Merged.absorb(TS.Sink);
  return Merged.summary();
}

uint64_t Runtime::distinctRaceCount() const {
  return triageSummary().distinct();
}

size_t Runtime::racyLocationCount() const {
  std::lock_guard<std::mutex> G(I->RacyMu);
  return I->RacyCells.size();
}

prof::Report Runtime::profileReport() const {
  return I->Prof ? I->Prof->report() : prof::Report();
}

const prof::Profiler *Runtime::profiler() const { return I->Prof.get(); }

Metrics Runtime::aggregatedMetrics() const {
  Metrics Out;
  for (const ThreadState &TS : I->Threads)
    if (TS.Registered)
      Out += TS.Stats;
  return Out;
}

void Runtime::record(const Event &E) {
  std::lock_guard<std::mutex> G(I->RecMu);
  I->Recorded.push_back(E);
}

Trace Runtime::recordedTrace() const {
  Trace T;
  std::lock_guard<std::mutex> G(I->RecMu);
  for (const Event &E : I->Recorded)
    T.append(E);
  return T;
}

void Runtime::reportRace(ThreadId T, uint64_t Cell, bool OnWrite) {
  ThreadState &TS = I->Threads[T];
  ++TS.Stats.RacesDeclared;
  // Dedup into the thread's own warehouse shard: no lock, no allocation
  // once the shard has seen this signature. The exemplar position is the
  // event's index in its thread's stream (online streams have no global
  // order).
  TS.Sink.insert(RaceReport{TS.Stats.Events - 1, T, Cell,
                            OnWrite ? OpKind::Write : OpKind::Read});
  I->Races.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> G(I->RacyMu);
  I->RacyCells.insert(Cell);
}

//===----------------------------------------------------------------------===//
// Hooks
//===----------------------------------------------------------------------===//

void Runtime::access(ThreadId T, uint64_t Addr, OpKind K) {
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  ThreadState &TS = I->Threads[T];
  HookSample PS(TS.PT, TS.PNode[static_cast<size_t>(K)]);
  ++TS.Stats.Events;
  ++TS.Stats.Accesses;
  uint64_t Cell = hashAddress(Addr) % Cfg.ShadowCells;
  bool Sampling = isSamplingMode(Cfg.AnalysisMode);
  bool Sampled = Sampling && TS.sampleNext();
  if (Cfg.RecordTrace)
    record(Event(T, K, Cell, Sampled));
  if (!I->A) {
    // ET never writes its shadow words, so this unsynchronized read is
    // safe.
    TS.EtCounter += Cell + I->EtShadow[Cell];
    return;
  }
  if (Sampled)
    ++TS.Stats.SampledAccesses;
  else if (Sampling)
    return; // Unsampled accesses are skipped entirely (Algorithm 2).
  I->A->access(T, Addr, Cell, K == OpKind::Write);
}

void Runtime::sync(ThreadId T, OpKind K, uint32_t Target) {
  if (Cfg.AnalysisMode == Mode::NT)
    return;
  ThreadState &TS = I->Threads[T];
  HookSpan PS(TS.PT, TS.PNode[static_cast<size_t>(K)]);
  ++TS.Stats.Events;
  if (Cfg.RecordTrace)
    record(Event(T, K, Target));
  if (!I->A) {
    TS.EtCounter += Target;
    return;
  }
  I->A->sync(T, K, Target);
}

void Runtime::onRead(ThreadId T, uint64_t Addr) {
  access(T, Addr, OpKind::Read);
}
void Runtime::onWrite(ThreadId T, uint64_t Addr) {
  access(T, Addr, OpKind::Write);
}
void Runtime::onAcquire(ThreadId T, SyncId L) {
  sync(T, OpKind::Acquire, L);
}
void Runtime::onRelease(ThreadId T, SyncId L) {
  sync(T, OpKind::Release, L);
}
void Runtime::onFork(ThreadId Parent, ThreadId Child) {
  sync(Parent, OpKind::Fork, Child);
}
void Runtime::onJoin(ThreadId Parent, ThreadId Child) {
  sync(Parent, OpKind::Join, Child);
}
void Runtime::onReleaseStore(ThreadId T, SyncId S) {
  sync(T, OpKind::ReleaseStore, S);
}
void Runtime::onReleaseJoin(ThreadId T, SyncId S) {
  sync(T, OpKind::ReleaseJoin, S);
}
void Runtime::onAcquireLoad(ThreadId T, SyncId S) {
  sync(T, OpKind::AcquireLoad, S);
}
