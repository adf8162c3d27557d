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

/// Sync-object ids registerSync can hand out.
constexpr size_t MaxSyncs = 1 << 14;

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
/// under a mutex each, access histories in sharded shadow cells.
template <typename Policy> class Runtime::Engine final : public Analysis {
public:
  Engine(Runtime &Rt, const Config &C)
      : Rt(Rt), Pol(C.MaxThreads), Threads(C.MaxThreads), Syncs(MaxSyncs),
        Cells(C.ShadowCells), Shards(C.ShadowShards) {
    Pol.setPoolingEnabled(C.PoolingEnabled);
  }

  void addThread(ThreadId T) override { Pol.initThread(Threads[T].S, T); }

  void access(ThreadId T, uint64_t Addr, uint64_t Cell,
              bool IsWrite) override {
    Metrics &M = Rt.I->Threads[T].Stats;
    Shadow &Sh = Cells[Cell];
    std::lock_guard<std::mutex> G(Shards[Cell % Shards.size()]);
    if (Sh.Owner != Addr) {
      // Direct-mapped ownership: the newcomer claims the cell and the
      // previous owner's history is forgotten. Comparing against a
      // stranger's history would fabricate races TSan's 1:1 shadow
      // mapping cannot produce.
      Sh.Owner = Addr;
      Sh.H.reset();
    }
    auto Race = [&] { Rt.reportRace(T, Cell, IsWrite); };
    if (IsWrite)
      Pol.write(Threads[T].S, T, Sh.H, M, Race);
    else
      Pol.read(Threads[T].S, T, Sh.H, M, Race);
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
    SyncSlot &S = Syncs[Target];
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
  struct Shadow {
    /// The address whose history this cell holds (0 = never claimed; real
    /// addresses are never 0).
    uint64_t Owner = 0;
    typename Policy::History H;
  };

  Runtime &Rt;
  // The policy owns the pools, so it outlives the state below.
  Policy Pol;
  std::vector<ThreadSlot> Threads;
  std::vector<SyncSlot> Syncs;
  std::vector<Shadow> Cells;
  std::vector<std::mutex> Shards;
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
  assert(T < Cfg.MaxThreads && "thread limit exceeded; raise MaxThreads");
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
  assert(S < MaxSyncs && "sync limit exceeded");
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
