//===- sampletrack/support/Bytes.h - Little-endian byte codec --*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte codec of the persisted and wire formats: little-endian
/// fixed-width writers, LEB128 varints, a bounds-checked reader over a byte
/// view, and the FNV-1a checksum every format carries. Four formats use it:
///
///  - the "STRC" binary trace (trace/TraceIO.cpp), which needs varints only;
///  - the "STTS" triage store image (triage/TriageStore.cpp), which is also
///    the TriageLog base segment;
///  - the "STTJ" TriageLog journal (triage/TriageLog.cpp);
///  - the "STSG" signature summary and "STWF" upload frame of the triaged
///    wire layer (triaged/Wire.cpp).
///
/// Each format owns its own framing (magic, versions, checksummed spans);
/// the summary body the journal and the summary share is encoded once, by
/// triage::encodeSummaryBody / decodeSummaryBody.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_BYTES_H
#define SAMPLETRACK_SUPPORT_BYTES_H

#include "sampletrack/support/Common.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace sampletrack {
namespace support {

inline void putU8(std::string &S, uint8_t V) {
  S.push_back(static_cast<char>(V));
}

inline void putU16(std::string &S, uint16_t V) {
  for (int I = 0; I < 2; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

inline void putU32(std::string &S, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

inline void putU64(std::string &S, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// The longest varint putVarint writes for a 64-bit value.
constexpr size_t MaxVarintBytes = 10;

/// Appends \p V as an unsigned LEB128 varint: seven bits per byte, low
/// bits first, the high bit set on every byte but the last.
inline void putVarint(std::string &S, uint64_t V) {
  while (V >= 0x80) {
    S.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  S.push_back(static_cast<char>(V));
}

/// FNV-1a 64 of \p Bytes: the checksum of every format above.
inline uint64_t fnv1a(std::string_view Bytes) {
  Fnv1a H;
  H.bytes(Bytes.data(), Bytes.size());
  return H.value();
}

/// Bounds-checked little-endian reader over a byte view. Every getter
/// returns false, without advancing, when fewer bytes remain than it needs.
struct ByteReader {
  std::string_view Bytes;
  size_t Pos = 0;

  bool getU8(uint8_t &V) { return getLE(V); }
  bool getU16(uint16_t &V) { return getLE(V); }
  bool getU32(uint32_t &V) { return getLE(V); }
  bool getU64(uint64_t &V) { return getLE(V); }

  /// Decodes a putVarint varint. Also false, without advancing, on an
  /// overlong one (no final byte within MaxVarintBytes); bits past the
  /// 64th are dropped.
  bool getVarint(uint64_t &V) {
    const char *P = Bytes.data() + Pos;
    size_t Left = Bytes.size() - Pos;
    // With a whole varint's worth of bytes left the loop needs no bounds
    // check; the constant lets the compiler unroll it.
    size_t N = Left >= MaxVarintBytes ? varintAt(P, MaxVarintBytes, V)
                                      : varintAt(P, Left, V);
    Pos += N;
    return N != 0;
  }

  bool getBytes(std::string &Out, size_t Len) {
    if (Bytes.size() - Pos < Len)
      return false;
    Out.assign(Bytes.data() + Pos, Len);
    Pos += Len;
    return true;
  }

  /// Consumes the 4-byte magic \p M; false if the bytes differ.
  bool getMagic(const char (&M)[4]) {
    if (Bytes.size() - Pos < 4 || Bytes.compare(Pos, 4, M, 4) != 0)
      return false;
    Pos += 4;
    return true;
  }

  /// The bytes not yet consumed.
  std::string_view rest() const { return Bytes.substr(Pos); }
  bool exhausted() const { return Pos == Bytes.size(); }

private:
  /// Decodes a varint from the \p Avail bytes at \p P: its length, or 0.
  static size_t varintAt(const char *P, size_t Avail, uint64_t &V) {
    uint64_t Out = 0;
    for (size_t I = 0; I < Avail; ++I) {
      uint8_t B = static_cast<uint8_t>(P[I]);
      Out |= static_cast<uint64_t>(B & 0x7f) << (7 * I);
      if (!(B & 0x80)) {
        V = Out;
        return I + 1;
      }
    }
    return 0;
  }

  template <typename T> bool getLE(T &V) {
    if (Bytes.size() - Pos < sizeof(T))
      return false;
    V = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      V = static_cast<T>(
          V | static_cast<T>(static_cast<unsigned char>(Bytes[Pos + I]))
                  << (8 * I));
    Pos += sizeof(T);
    return true;
  }
};

} // namespace support
} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_BYTES_H
