//===- triage/RaceSink.cpp - Dedup table at ingest --------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triage/RaceSink.h"

#include "sampletrack/support/Bytes.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace sampletrack;
using namespace sampletrack::triage;

RaceSink::RaceSink(size_t Capacity) : Cap(Capacity ? Capacity : 1) {}

void RaceSink::setCapacity(size_t Capacity) {
  assert(Exemplars.empty() && Total == 0 &&
         "capacity must be set before the first insert");
  Cap = Capacity ? Capacity : 1;
}

size_t RaceSink::probe(uint64_t Sig) const {
  // The signature is already a mixed 64-bit value; masking it is as good a
  // bucket choice as rehashing it.
  size_t Mask = Slots.size() - 1;
  size_t I = static_cast<size_t>(Sig) & Mask;
  while (Slots[I].Idx != EmptyIdx && Slots[I].Sig != Sig)
    I = (I + 1) & Mask;
  return I;
}

void RaceSink::growTable() {
  // First insert: start small (a sink that never sees more than a handful
  // of distinct races should not pay megabytes); later: double. Either way
  // the slot count stays a power of two more than twice the entry count,
  // so probes terminate and stay short.
  size_t NewSize = Slots.empty() ? 1024 : Slots.size() * 2;
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(NewSize, Slot{});
  for (const Slot &S : Old)
    if (S.Idx != EmptyIdx)
      Slots[probe(S.Sig)] = S;
}

bool RaceSink::add(uint64_t Sig, const RaceReport &R, uint64_t HitCount) {
  if (!HitCount)
    return false;
  Total += HitCount;
  if (Slots.empty())
    growTable();
  size_t I = probe(Sig);
  if (Slots[I].Idx != EmptyIdx) {
    Hits[Slots[I].Idx] += HitCount; // Hot path: known key, no allocation.
    return false;
  }
  if (Exemplars.size() >= Cap) {
    Dropped += HitCount;
    return false;
  }
  Slots[I] = Slot{Sig, static_cast<uint32_t>(Exemplars.size())};
  Exemplars.push_back(R);
  Hits.push_back(HitCount);
  if (Exemplars.size() * 2 >= Slots.size())
    growTable();
  return true;
}

void RaceSink::absorb(const RaceSink &O) {
  for (size_t K = 0; K < O.Exemplars.size(); ++K)
    add(RaceSignature::of(O.Exemplars[K]).Value, O.Exemplars[K], O.Hits[K]);
  Total += O.Dropped;
  Dropped += O.Dropped;
}

uint64_t RaceSink::hitsFor(uint64_t Sig) const {
  if (Slots.empty())
    return 0;
  size_t I = probe(Sig);
  return Slots[I].Idx == EmptyIdx ? 0 : Hits[Slots[I].Idx];
}

TriageSummary RaceSink::summary() const {
  TriageSummary S;
  S.Entries.reserve(Exemplars.size());
  for (size_t I = 0; I < Exemplars.size(); ++I)
    S.Entries.push_back(TriageEntry{RaceSignature::of(Exemplars[I]).Value,
                                    Hits[I], Exemplars[I]});
  S.RacesDeclared = Total;
  S.DroppedDeclarations = Dropped;
  S.Capped = Dropped != 0;
  return S;
}

void RaceSink::clear() {
  Total = 0;
  Dropped = 0;
  Slots.clear();
  Exemplars.clear();
  Hits.clear();
}

TriageSummary
sampletrack::triage::mergeSummaries(const std::vector<TriageSummary> &Parts) {
  size_t Distinct = 0;
  for (const TriageSummary &P : Parts)
    Distinct += P.Entries.size();
  RaceSink Tmp(Distinct ? Distinct : 1);
  TriageSummary Out;
  for (const TriageSummary &P : Parts) {
    for (const TriageEntry &E : P.Entries)
      Tmp.add(E.Signature, E.Exemplar, E.Hits);
    Out.RacesDeclared += P.RacesDeclared;
    Out.DroppedDeclarations += P.DroppedDeclarations;
    Out.Capped = Out.Capped || P.Capped;
  }
  Out.Entries = Tmp.summary().Entries;
  return Out;
}

TriageSummary
sampletrack::triage::mergeShardSummaries(const std::vector<TriageSummary> &Shards,
                                         size_t Capacity) {
  // Interleave the shards' first-seen streams by exemplar position. Stable
  // for determinism's sake, though positions are unique: one event declares
  // at most one distinct (var, kind, role) triple.
  std::vector<TriageEntry> All;
  TriageSummary Out;
  for (const TriageSummary &S : Shards) {
    All.insert(All.end(), S.Entries.begin(), S.Entries.end());
    Out.RacesDeclared += S.RacesDeclared;
    Out.DroppedDeclarations += S.DroppedDeclarations;
    Out.Capped = Out.Capped || S.Capped;
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const TriageEntry &A, const TriageEntry &B) {
                     return A.Exemplar.EventIndex < B.Exemplar.EventIndex;
                   });
  // Re-cap at the lane capacity. Shards partition the variable space, so
  // signatures are disjoint across shards up to 64-bit collisions — but a
  // collision must dedup here exactly as the sequential sink would have
  // (hits accumulate on the earliest exemplar), so probe through a sink.
  size_t LaneCap = Capacity ? Capacity : 1;
  RaceSink Tmp(LaneCap);
  for (const TriageEntry &E : All)
    Tmp.add(E.Signature, E.Exemplar, E.Hits);
  TriageSummary Merged = Tmp.summary();
  Out.Entries = std::move(Merged.Entries);
  Out.DroppedDeclarations += Merged.DroppedDeclarations;
  Out.Capped = Out.Capped || Merged.Capped;
  return Out;
}

//===----------------------------------------------------------------------===//
// Byte codec
//===----------------------------------------------------------------------===//

void sampletrack::triage::putExemplar(std::string &Out, const RaceReport &R) {
  support::putU64(Out, R.EventIndex);
  support::putU32(Out, R.Tid);
  support::putU64(Out, R.Var);
  support::putU8(Out, static_cast<uint8_t>(R.Kind));
}

bool sampletrack::triage::getExemplar(support::ByteReader &In,
                                      RaceReport &R) {
  uint32_t Tid = 0;
  uint8_t Kind = 0;
  if (!In.getU64(R.EventIndex) || !In.getU32(Tid) || !In.getU64(R.Var) ||
      !In.getU8(Kind))
    return false;
  R.Tid = Tid;
  R.Kind = static_cast<OpKind>(Kind);
  return true;
}

void sampletrack::triage::encodeSummaryBody(std::string &Out,
                                            const TriageSummary &S) {
  Out.reserve(Out.size() + 25 + S.Entries.size() * 37);
  support::putU64(Out, S.RacesDeclared);
  support::putU64(Out, S.DroppedDeclarations);
  support::putU8(Out, S.Capped ? 1 : 0);
  support::putU64(Out, S.Entries.size());
  for (const TriageEntry &E : S.Entries) {
    support::putU64(Out, E.Signature);
    support::putU64(Out, E.Hits);
    putExemplar(Out, E.Exemplar);
  }
}

bool sampletrack::triage::decodeSummaryBody(std::string_view Bytes,
                                            TriageSummary &Out,
                                            std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  support::ByteReader Rd{Bytes};
  TriageSummary S;
  uint8_t Capped = 0;
  uint64_t Count = 0;
  if (!Rd.getU64(S.RacesDeclared) || !Rd.getU64(S.DroppedDeclarations) ||
      !Rd.getU8(Capped) || !Rd.getU64(Count))
    return Fail("truncated summary counts");
  if (Capped > 1)
    return Fail("corrupt summary (bad capped flag)");
  S.Capped = Capped != 0;
  std::unordered_set<uint64_t> Seen;
  S.Entries.reserve(Count < (1u << 20) ? Count : (1u << 20));
  uint64_t HitTotal = 0;
  for (uint64_t I = 0; I < Count; ++I) {
    TriageEntry E;
    if (!Rd.getU64(E.Signature) || !Rd.getU64(E.Hits) ||
        !getExemplar(Rd, E.Exemplar))
      return Fail("truncated summary entry");
    if (E.Exemplar.Kind > OpKind::AcquireLoad)
      return Fail("corrupt summary entry (bad op kind)");
    if (E.Hits == 0)
      return Fail("corrupt summary entry (zero hit count)");
    if (!Seen.insert(E.Signature).second)
      return Fail("corrupt summary (duplicate signature)");
    HitTotal += E.Hits;
    S.Entries.push_back(E);
  }
  if (!Rd.exhausted())
    return Fail("trailing garbage after the last summary entry");
  // Declared counts every insert, stored or dropped; it can never be less
  // than what the stored entries account for.
  if (S.RacesDeclared < HitTotal + S.DroppedDeclarations)
    return Fail("corrupt summary (declaration counts inconsistent)");
  if (S.Capped != (S.DroppedDeclarations != 0))
    return Fail("corrupt summary (capped flag inconsistent)");
  Out = std::move(S);
  return true;
}
