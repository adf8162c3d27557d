//===- sampletrack/detectors/ShardMap.h - Variable partition ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How a sharded engine lane (api::SessionConfig::Shards) splits the
/// variable space: shard X % Count owns VarId X and keeps its shadow state
/// in dense slot X / Count. Both come from a mask or one multiply-high by
/// a magic number fixed at construction, never from a hardware 64-bit
/// divide, and are exact for every 64-bit VarId.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SHARDMAP_H
#define SAMPLETRACK_DETECTORS_SHARDMAP_H

#include "sampletrack/trace/Event.h"

#include <cassert>
#include <cstdint>
#include <span>

namespace sampletrack {

/// The VarId partition of a lane split into Count >= 2 shards.
///
/// A power-of-two Count is a mask and a shift. Any other Count divides by
/// the round-up method (Granlund & Montgomery, PLDI 1994): with
/// l = floor(log2 Count) and m = ceil(2^(65+l) / Count) = 2^64 + Magic,
/// floor(X / Count) equals floor(X * m / 2^(65+l)) for every X < 2^64. The
/// 65-bit product is formed as X + mulhi(X, Magic), halved before the
/// final shift so that it cannot overflow.
class ShardMap {
public:
  /// Routed owner of every event that is not an access: sync events
  /// replicate into all shards.
  static constexpr uint8_t Replicated = 0xFF;
  /// Owners are routed as bytes, so a lane splits into at most this many
  /// shards (api::AnalysisSession clamps SessionConfig::Shards to it).
  static constexpr uint32_t MaxShards = Replicated;

  ShardMap() = default; ///< Unsharded (count() == 0).
  explicit ShardMap(uint32_t Count) : Count(Count) {
    assert(Count >= 2 && Count <= MaxShards && "2 to MaxShards shards");
    Shift = static_cast<uint8_t>(63 - __builtin_clzll(Count));
    if ((Count & (Count - 1)) == 0) {
      Mask = Count - 1;
      return;
    }
    // Count is no power of two, so 2^(65+l) / Count is never exact and its
    // ceiling is the floor plus one; the 2^64 term truncates away.
    using U128 = unsigned __int128;
    Magic = static_cast<uint64_t>((U128(1) << (65 + Shift)) / Count + 1);
  }

  uint32_t count() const { return Count; }

  /// X / count(): the dense slot of X in its owner's shadow table.
  uint64_t slot(VarId X) const {
    assert(Count && "unsharded map");
    if (Mask)
      return X >> Shift;
    uint64_t Hi = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(X) * Magic) >> 64);
    return (((X - Hi) >> 1) + Hi) >> Shift;
  }

  /// X % count(): the shard that owns X.
  uint32_t owner(VarId X) const {
    if (Mask)
      return static_cast<uint32_t>(X & Mask);
    return static_cast<uint32_t>(X - slot(X) * Count);
  }

  /// Routes one batch: Owners[I] is owner(var) for an access and
  /// \ref Replicated for every other event. A session computes it once
  /// per batch and hands the same owners to each of a lane's shards
  /// (Detector::processBatch). Branch-free per event: the trace
  /// interleaves accesses and sync events unpredictably.
  void route(std::span<const Event> Events, std::span<uint8_t> Owners) const {
    assert(Events.size() == Owners.size() && "one owner per event");
    const ShardMap M = *this; // Owners' stores cannot alias a local copy.
    auto Fill = [&](auto OwnerOf) {
      for (size_t I = 0, N = Events.size(); I < N; ++I) {
        uint8_t Sync = isAccess(Events[I].Kind) ? 0 : Replicated;
        Owners[I] = static_cast<uint8_t>(OwnerOf(Events[I].Target) | Sync);
      }
    };
    if (M.Mask)
      Fill([&](uint64_t X) { return static_cast<uint8_t>(X & M.Mask); });
    else
      Fill([&](uint64_t X) { return static_cast<uint8_t>(M.owner(X)); });
  }

  /// The routed events among up to 64 that shard \p Shard visits: bit J is
  /// set iff Owners[J] is \p Shard or \ref Replicated, or \p Foreign is
  /// set and Sampled[J] != 0. Eight events per step, no branch per event.
  static uint64_t visits(std::span<const uint8_t> Owners,
                         std::span<const uint8_t> Sampled, uint32_t Shard,
                         bool Foreign) {
    const size_t N = Owners.size();
    assert(N <= 64 && Sampled.size() == N && "one 64-event word");
    const uint64_t Mine = 0x0101010101010101ull * Shard;
    uint64_t Bits = 0;
    for (size_t C = 0; C < N; C += 8) {
      uint64_t O = load8(Owners.data() + C, N - C);
      uint64_t Hit = zeroBytes(O ^ Mine) | zeroBytes(~O);
      if (Foreign)
        Hit |= ~zeroBytes(load8(Sampled.data() + C, N - C)) & HighBits;
      // Gathers bit 7 of byte K into bit K: the multiplier places byte K's
      // bit at position 56 + K, and no two partial products collide there.
      Bits |= (((Hit >> 7) * 0x0102040810204080ull) >> 56) << C;
    }
    return N == 64 ? Bits : Bits & ((uint64_t(1) << N) - 1);
  }

private:
  static constexpr uint64_t HighBits = 0x8080808080808080ull;

  /// Bit 7 of each byte set iff that byte of \p X is zero (exact: the
  /// 7-bit sums never carry into the next byte).
  static uint64_t zeroBytes(uint64_t X) {
    constexpr uint64_t Low7 = ~HighBits;
    return ~(((X & Low7) + Low7) | X | Low7) & HighBits;
  }

  /// Up to 8 bytes from \p P, byte K in bits [8K, 8K+8), zero-padded past
  /// \p Avail. The full case compiles to one load on little-endian hosts.
  static uint64_t load8(const uint8_t *P, size_t Avail) {
    uint64_t X = 0;
    if (Avail >= 8) {
      for (unsigned K = 0; K < 8; ++K)
        X |= uint64_t(P[K]) << (8 * K);
      return X;
    }
    for (unsigned K = 0; K < Avail; ++K)
      X |= uint64_t(P[K]) << (8 * K);
    return X;
  }

  uint64_t Magic = 0;
  uint64_t Mask = 0; ///< Count - 1 for a power of two, else 0.
  uint8_t Shift = 0;
  uint32_t Count = 0;
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SHARDMAP_H
