//===- workload/StorageEngine.cpp - Mini storage engine ----------------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/workload/StorageEngine.h"

#include <algorithm>
#include <cstring>
#include <optional>

using namespace sampletrack;
using namespace sampletrack::db;

//===----------------------------------------------------------------------===//
// BufferPool
//===----------------------------------------------------------------------===//

BufferPool::BufferPool(rt::Runtime &Rt, size_t Capacity, size_t DiskPages)
    : Rt(Rt), MapLatch(Rt), Disk(DiskPages) {
  assert(Capacity >= 4 && "pool too small for latch crabbing");
  for (size_t I = 0; I < Capacity; ++I)
    Frames.emplace_back(Rt);
}

PageId BufferPool::allocatePage(ThreadId T) {
  MapLatch.lock(T);
  assert(NextPage < Disk.size() && "disk full; raise DiskPages");
  PageId Id = NextPage++;
  MapLatch.unlock(T);
  return Id;
}

Frame *BufferPool::findVictim() {
  // Free frame first; otherwise the unpinned frame with the oldest stamp.
  Frame *Victim = nullptr;
  for (Frame &F : Frames) {
    if (F.Id == NoPage)
      return &F;
    if (F.Pins == 0 && (!Victim || F.LruStamp < Victim->LruStamp))
      Victim = &F;
  }
  assert(Victim && "all frames pinned; raise pool capacity");
  return Victim;
}

Frame &BufferPool::pin(ThreadId T, PageId Id) {
  MapLatch.lock(T);
  auto It = PageTable.find(Id);
  if (It != PageTable.end()) {
    Frame &F = *It->second;
    ++F.Pins;
    F.LruStamp = ++LruClock;
    ++Hits;
    MapLatch.unlock(T);
    return F;
  }
  ++Misses;
  Frame *F = findVictim();
  if (F->Id != NoPage) {
    // Evict: write back if dirty. The victim is unpinned, and every past
    // user's unpin went through MapLatch, so this access is ordered after
    // all of them (one representative instrumented word keeps hook volume
    // bounded).
    ++Evictions;
    if (F->Dirty) {
      Rt.onRead(T, reinterpret_cast<uint64_t>(&F->Data.Words[0]));
      Rt.onWrite(T, reinterpret_cast<uint64_t>(&Disk[F->Id].Words[0]));
      Disk[F->Id] = F->Data;
    }
    PageTable.erase(F->Id);
  }
  Rt.onRead(T, reinterpret_cast<uint64_t>(&Disk[Id].Words[0]));
  F->Data = Disk[Id];
  Rt.onWrite(T, reinterpret_cast<uint64_t>(&F->Data.Words[0]));
  F->Id = Id;
  F->Dirty = false;
  F->Pins = 1;
  F->LruStamp = ++LruClock;
  PageTable[Id] = F;
  MapLatch.unlock(T);
  return *F;
}

void BufferPool::unpin(ThreadId T, Frame &F, bool Dirtied) {
  MapLatch.lock(T);
  assert(F.Pins > 0 && "unpin without pin");
  --F.Pins;
  if (Dirtied)
    F.Dirty = true;
  MapLatch.unlock(T);
}

//===----------------------------------------------------------------------===//
// BTree node layout helpers
//===----------------------------------------------------------------------===//

namespace {

/// CLRS B-tree geometry: minimum degree MinDeg, max keys 2*MinDeg - 1.
constexpr size_t MinDeg = 8;
constexpr size_t MaxKeys = 2 * MinDeg - 1; // 15 <= BTree::Fanout

// Word offsets inside a page.
constexpr size_t OffLeaf = 0;
constexpr size_t OffCount = 1;
constexpr size_t OffKeys = 2;
constexpr size_t OffVals = OffKeys + MaxKeys;
constexpr size_t OffKids = OffVals + MaxKeys;
static_assert(OffKids + MaxKeys + 1 <= Page::NumWords, "page too small");

/// Instrumented word accessors: every node access is a real memory access
/// plus the corresponding runtime hook.
uint64_t rd(rt::Runtime &Rt, ThreadId T, Frame &F, size_t Idx) {
  Rt.onRead(T, reinterpret_cast<uint64_t>(&F.Data.Words[Idx]));
  return F.Data.Words[Idx];
}

void wr(rt::Runtime &Rt, ThreadId T, Frame &F, size_t Idx, uint64_t V) {
  Rt.onWrite(T, reinterpret_cast<uint64_t>(&F.Data.Words[Idx]));
  F.Data.Words[Idx] = V;
}

uint64_t key(rt::Runtime &Rt, ThreadId T, Frame &F, size_t I) {
  return rd(Rt, T, F, OffKeys + I);
}
uint64_t val(rt::Runtime &Rt, ThreadId T, Frame &F, size_t I) {
  return rd(Rt, T, F, OffVals + I);
}
PageId kid(rt::Runtime &Rt, ThreadId T, Frame &F, size_t I) {
  return static_cast<PageId>(rd(Rt, T, F, OffKids + I));
}
bool isLeaf(rt::Runtime &Rt, ThreadId T, Frame &F) {
  return rd(Rt, T, F, OffLeaf) != 0;
}
size_t count(rt::Runtime &Rt, ThreadId T, Frame &F) {
  return static_cast<size_t>(rd(Rt, T, F, OffCount));
}

} // namespace

//===----------------------------------------------------------------------===//
// BTree
//===----------------------------------------------------------------------===//

/// RAII pinned-and-latched frame. Movable so the crabbing loop can hand the
/// child guard into the parent slot.
struct BTree::Guard {
  BufferPool *Pool = nullptr;
  ThreadId T = 0;
  Frame *F = nullptr;
  bool Dirtied = false;

  Guard() = default;
  Guard(BufferPool &Pool, ThreadId T, PageId Id) : Pool(&Pool), T(T) {
    F = &Pool.pin(T, Id);
    F->Latch.lock(T);
  }
  Guard(Guard &&O) noexcept
      : Pool(O.Pool), T(O.T), F(O.F), Dirtied(O.Dirtied) {
    O.F = nullptr;
  }
  Guard &operator=(Guard &&O) noexcept {
    release();
    Pool = O.Pool;
    T = O.T;
    F = O.F;
    Dirtied = O.Dirtied;
    O.F = nullptr;
    return *this;
  }
  Guard(const Guard &) = delete;
  Guard &operator=(const Guard &) = delete;
  ~Guard() { release(); }

  void release() {
    if (!F)
      return;
    F->Latch.unlock(T);
    Pool->unpin(T, *F, Dirtied);
    F = nullptr;
  }

  Frame &frame() { return *F; }
  explicit operator bool() const { return F != nullptr; }
};

BTree::BTree(BufferPool &Pool, ThreadId Creator)
    : Pool(Pool), RootLatch(Pool.runtime()) {
  RootId = Pool.allocatePage(Creator);
  Guard Root(Pool, Creator, RootId);
  rt::Runtime &Rt = Pool.runtime();
  wr(Rt, Creator, Root.frame(), OffLeaf, 1);
  wr(Rt, Creator, Root.frame(), OffCount, 0);
  Root.Dirtied = true;
}

void BTree::splitChild(ThreadId T, Frame &Parent, size_t ChildIdx) {
  PageId LeftId = kid(Pool.runtime(), T, Parent, ChildIdx);
  Guard Left(Pool, T, LeftId);
  Left.Dirtied = true;
  splitChildLatched(T, Parent, ChildIdx, Left.frame());
}

void BTree::splitChildLatched(ThreadId T, Frame &Parent, size_t ChildIdx,
                              Frame &LeftFrame) {
  rt::Runtime &Rt = Pool.runtime();
  assert(count(Rt, T, LeftFrame) == MaxKeys && "split of non-full child");

  PageId RightId = Pool.allocatePage(T);
  Guard Right(Pool, T, RightId);
  bool Leaf = isLeaf(Rt, T, LeftFrame);

  // Right takes the upper MinDeg-1 keys/values (and MinDeg children).
  wr(Rt, T, Right.frame(), OffLeaf, Leaf ? 1 : 0);
  wr(Rt, T, Right.frame(), OffCount, MinDeg - 1);
  for (size_t I = 0; I < MinDeg - 1; ++I) {
    wr(Rt, T, Right.frame(), OffKeys + I, key(Rt, T, LeftFrame, I + MinDeg));
    wr(Rt, T, Right.frame(), OffVals + I, val(Rt, T, LeftFrame, I + MinDeg));
  }
  if (!Leaf)
    for (size_t I = 0; I < MinDeg; ++I)
      wr(Rt, T, Right.frame(), OffKids + I,
         kid(Rt, T, LeftFrame, I + MinDeg));

  // The median moves up into the parent at ChildIdx.
  uint64_t MedianKey = key(Rt, T, LeftFrame, MinDeg - 1);
  uint64_t MedianVal = val(Rt, T, LeftFrame, MinDeg - 1);
  wr(Rt, T, LeftFrame, OffCount, MinDeg - 1);

  size_t N = count(Rt, T, Parent);
  for (size_t I = N; I > ChildIdx; --I) {
    wr(Rt, T, Parent, OffKeys + I, key(Rt, T, Parent, I - 1));
    wr(Rt, T, Parent, OffVals + I, val(Rt, T, Parent, I - 1));
  }
  for (size_t I = N + 1; I > ChildIdx + 1; --I)
    wr(Rt, T, Parent, OffKids + I, kid(Rt, T, Parent, I - 1));
  wr(Rt, T, Parent, OffKeys + ChildIdx, MedianKey);
  wr(Rt, T, Parent, OffVals + ChildIdx, MedianVal);
  wr(Rt, T, Parent, OffKids + ChildIdx + 1, RightId);
  wr(Rt, T, Parent, OffCount, N + 1);
  Right.Dirtied = true;
}

void BTree::put(ThreadId T, uint64_t Key, uint64_t Value) {
  rt::Runtime &Rt = Pool.runtime();
  RootLatch.lock(T);
  std::optional<Guard> Cur(std::in_place, Pool, T, RootId);

  // Grow the tree if the root is full (CLRS): a new root above the old
  // one. The old root's latch is held across the split — releasing it
  // for good would let a racing writer insert into a node that is about
  // to stop being the root. It is dropped only to latch the new root
  // first, parent before child like every descent: nobody can take the
  // old root meanwhile, because the root is entered only under RootLatch.
  if (count(Rt, T, Cur->frame()) == MaxKeys) {
    Cur.reset();
    PageId NewRootId = Pool.allocatePage(T);
    Guard NewRoot(Pool, T, NewRootId);
    Cur.emplace(Pool, T, RootId);
    wr(Rt, T, NewRoot.frame(), OffLeaf, 0);
    wr(Rt, T, NewRoot.frame(), OffCount, 0);
    wr(Rt, T, NewRoot.frame(), OffKids + 0, RootId);
    Cur->Dirtied = true;
    splitChildLatched(T, NewRoot.frame(), 0, Cur->frame());
    NewRoot.Dirtied = true;
    RootId = NewRootId;
    // Continue the descent from the new root; its latch is already ours.
    Cur.reset();
    Cur.emplace(std::move(NewRoot));
  }
  RootLatch.unlock(T);

  // Crab down, splitting full children preemptively so the parent always
  // has room for a promoted median.
  while (true) {
    Frame &Node = Cur->frame();
    size_t N = count(Rt, T, Node);
    if (isLeaf(Rt, T, Node)) {
      // Find position; overwrite if the key exists.
      size_t I = 0;
      while (I < N && key(Rt, T, Node, I) < Key)
        ++I;
      if (I < N && key(Rt, T, Node, I) == Key) {
        wr(Rt, T, Node, OffVals + I, Value);
      } else {
        for (size_t J = N; J > I; --J) {
          wr(Rt, T, Node, OffKeys + J, key(Rt, T, Node, J - 1));
          wr(Rt, T, Node, OffVals + J, val(Rt, T, Node, J - 1));
        }
        wr(Rt, T, Node, OffKeys + I, Key);
        wr(Rt, T, Node, OffVals + I, Value);
        wr(Rt, T, Node, OffCount, N + 1);
      }
      Cur->Dirtied = true;
      return;
    }

    size_t I = 0;
    while (I < N && key(Rt, T, Node, I) < Key)
      ++I;
    if (I < N && key(Rt, T, Node, I) == Key) {
      // Internal overwrite.
      wr(Rt, T, Node, OffVals + I, Value);
      Cur->Dirtied = true;
      return;
    }
    // Preemptive split keeps the invariant that Cur is never full.
    {
      Guard Child(Pool, T, kid(Rt, T, Node, I));
      if (count(Rt, T, Child.frame()) == MaxKeys) {
        Child.release();
        splitChild(T, Node, I);
        Cur->Dirtied = true;
        uint64_t Median = key(Rt, T, Node, I);
        if (Key == Median) {
          wr(Rt, T, Node, OffVals + I, Value);
          return;
        }
        if (Key > Median)
          ++I;
        Child = Guard(Pool, T, kid(Rt, T, Node, I));
      }
      // Hand-over-hand: child latched, now drop the parent.
      *Cur = std::move(Child);
    }
  }
}

bool BTree::get(ThreadId T, uint64_t Key, uint64_t &Value) {
  rt::Runtime &Rt = Pool.runtime();
  RootLatch.lock(T);
  Guard Cur(Pool, T, RootId);
  RootLatch.unlock(T);

  while (true) {
    Frame &Node = Cur.frame();
    size_t N = count(Rt, T, Node);
    size_t I = 0;
    while (I < N && key(Rt, T, Node, I) < Key)
      ++I;
    if (I < N && key(Rt, T, Node, I) == Key) {
      Value = val(Rt, T, Node, I);
      return true;
    }
    if (isLeaf(Rt, T, Node))
      return false;
    Guard Child(Pool, T, kid(Rt, T, Node, I));
    Cur = std::move(Child);
  }
}

size_t BTree::scanLeaf(ThreadId T, uint64_t Lo, size_t Limit,
                       std::vector<uint64_t> &Out) {
  rt::Runtime &Rt = Pool.runtime();
  RootLatch.lock(T);
  Guard Cur(Pool, T, RootId);
  RootLatch.unlock(T);

  while (!isLeaf(Rt, T, Cur.frame())) {
    Frame &Node = Cur.frame();
    size_t N = count(Rt, T, Node);
    size_t I = 0;
    while (I < N && key(Rt, T, Node, I) < Lo)
      ++I;
    Guard Child(Pool, T, kid(Rt, T, Node, I));
    Cur = std::move(Child);
  }
  Frame &Leaf = Cur.frame();
  size_t N = count(Rt, T, Leaf);
  size_t Taken = 0;
  for (size_t I = 0; I < N && Taken < Limit; ++I) {
    if (key(Rt, T, Leaf, I) < Lo)
      continue;
    Out.push_back(val(Rt, T, Leaf, I));
    ++Taken;
  }
  return Taken;
}

size_t BTree::height(ThreadId T) {
  rt::Runtime &Rt = Pool.runtime();
  RootLatch.lock(T);
  Guard Cur(Pool, T, RootId);
  RootLatch.unlock(T);
  size_t H = 1;
  while (!isLeaf(Rt, T, Cur.frame())) {
    Guard Child(Pool, T, kid(Rt, T, Cur.frame(), 0));
    Cur = std::move(Child);
    ++H;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// WriteAheadLog
//===----------------------------------------------------------------------===//

WriteAheadLog::WriteAheadLog(rt::Runtime &Rt, size_t Slots)
    : Rt(Rt), Latch(Rt), Ring(Slots * 3, 0) {}

uint64_t WriteAheadLog::append(ThreadId T, uint64_t TableId, uint64_t Key,
                               uint64_t Value) {
  Latch.lock(T);
  uint64_t MyLsn = Lsn++;
  size_t Base = (MyLsn % (Ring.size() / 3)) * 3;
  Rt.onWrite(T, reinterpret_cast<uint64_t>(&Ring[Base]));
  Ring[Base] = TableId;
  Rt.onWrite(T, reinterpret_cast<uint64_t>(&Ring[Base + 1]));
  Ring[Base + 1] = Key;
  Rt.onWrite(T, reinterpret_cast<uint64_t>(&Ring[Base + 2]));
  Ring[Base + 2] = Value;
  Latch.unlock(T);
  return MyLsn;
}

uint64_t WriteAheadLog::commit(ThreadId T) {
  return append(T, UINT64_MAX, 0, 0);
}

//===----------------------------------------------------------------------===//
// Database
//===----------------------------------------------------------------------===//

Database::Database(rt::Runtime &Rt, size_t NumTables, size_t PoolFrames,
                   size_t DiskPages)
    : Pool(Rt, PoolFrames, DiskPages), Wal(Rt) {
  for (size_t I = 0; I < NumTables; ++I)
    Trees.push_back(std::make_unique<BTree>(Pool, /*Creator=*/0));
}

void Database::put(ThreadId T, size_t Table, uint64_t Key, uint64_t Value) {
  assert(Table < Trees.size());
  Wal.append(T, Table, Key, Value);
  Trees[Table]->put(T, Key, Value);
  Wal.commit(T);
}

bool Database::get(ThreadId T, size_t Table, uint64_t Key,
                   uint64_t &Value) {
  assert(Table < Trees.size());
  return Trees[Table]->get(T, Key, Value);
}

size_t Database::scan(ThreadId T, size_t Table, uint64_t Lo, size_t Limit) {
  assert(Table < Trees.size());
  std::vector<uint64_t> Out;
  return Trees[Table]->scanLeaf(T, Lo, Limit, Out);
}
