//===- sampletrack/support/Bytes.h - Little-endian byte codec --*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte codec of the persisted and wire formats: little-endian
/// fixed-width writers, a bounds-checked reader over a byte view, and the
/// FNV-1a checksum every format carries. Three formats use it:
///
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
