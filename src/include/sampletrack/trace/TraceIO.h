//===- sampletrack/trace/TraceIO.h - Trace (de)serialization ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader and writer for the RAPID-like text trace format, one event per
/// line:
///
/// \code
///   T0|acq(L1)
///   T0|w(V3)*        <- '*' marks membership in the sample set S
///   T0|rel(L1)
///   T0|fork(T1)
///   T1|ld(L2)
/// \endcode
///
/// Blank lines and lines starting with '#' are ignored. Identifiers are
/// nonnegative integers prefixed by T/L/V; the op mnemonics match
/// \ref opKindName.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_TRACE_TRACEIO_H
#define SAMPLETRACK_TRACE_TRACEIO_H

#include "sampletrack/trace/Trace.h"

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sampletrack {

/// Parses one event line. Returns true on success; on failure returns false
/// and fills \p Error if nonnull.
bool parseEventLine(const std::string &Line, Event &Out,
                    std::string *Error = nullptr);

/// Reads a whole trace from \p Is. Returns true on success; on failure
/// (a malformed line, or a stream gone bad) returns false and fills
/// \p Error (with a line number for a malformed line) if nonnull.
bool readTrace(std::istream &Is, Trace &Out, std::string *Error = nullptr);

/// Reads a trace from the file at \p Path.
bool readTraceFile(const std::string &Path, Trace &Out,
                   std::string *Error = nullptr);

/// Writes \p T to \p Os, one event per line, with a header comment.
void writeTrace(std::ostream &Os, const Trace &T);

/// Writes \p T to the file at \p Path. Returns false on I/O failure.
bool writeTraceFile(const std::string &Path, const Trace &T);

/// Binary trace format: a fixed magic ("STRC\\1"), three varint universe
/// sizes, a varint event count, then per event one kind/marked byte and two
/// varints (tid, target). Roughly 3-5 bytes per event — an order of
/// magnitude smaller than the text format for large traces. The varints are
/// support/Bytes.h's; bytes after the promised events are ignored.
void writeTraceBinary(std::ostream &Os, const Trace &T);

/// Writes \p T in the binary format. Returns false on I/O failure.
bool writeTraceFileBinary(const std::string &Path, const Trace &T);

/// Reads a binary trace whose magic \ref sniffBinaryTrace has consumed.
/// Returns false (with \p Error filled if nonnull) on malformed input. Reads
/// \p Is ahead, possibly past the trace's end (see BinaryTraceReader).
bool readTraceBinary(std::istream &Is, Trace &Out,
                     std::string *Error = nullptr);

/// The same, over the in-memory bytes that follow the magic.
bool readTraceBinary(std::string_view Body, Trace &Out,
                     std::string *Error = nullptr);

/// True if the stream starts with the binary trace magic. On a match the
/// magic is consumed, ready for readTraceBinary or BinaryTraceReader::open;
/// otherwise the bytes read are put back, without seeking, so a pipe works
/// too. A stream that cannot take them back is left bad.
bool sniffBinaryTrace(std::istream &Is);

/// The same for in-memory bytes: on a match \p Bytes is advanced past the
/// magic.
bool sniffBinaryTrace(std::string_view &Bytes);

/// Incremental reader for the binary trace format: decodes the header
/// eagerly (so consumers learn the thread/sync/var universes before any
/// event is materialized) and then yields events in caller-sized batches.
/// api::AnalysisSession streams multi-gigabyte traces through this without
/// ever holding more than one batch and one 64 KiB block in memory.
///
/// A stream is read in whole 64 KiB blocks, ahead of the batch being
/// decoded: after open() or read() the stream's position is up to a block
/// past the last decoded byte, and may be past the trace's end.
class BinaryTraceReader {
public:
  /// Binds to \p Is and decodes the header. The caller must already have
  /// consumed the magic via \ref sniffBinaryTrace (which consumes it on a
  /// match), mirroring readTraceBinary's contract. Returns false (filling
  /// \p Error if nonnull) on a truncated header.
  bool open(std::istream &Is, std::string *Error = nullptr);

  /// Binds to the in-memory bytes after the magic, which must outlive the
  /// reader, and decodes the header.
  bool open(std::string_view Body, std::string *Error = nullptr);

  size_t numThreads() const { return NumThreads; }
  size_t numSyncs() const { return NumSyncs; }
  size_t numVars() const { return NumVars; }
  /// Total events promised by the header.
  uint64_t size() const { return NumEvents; }
  /// Events decoded so far.
  uint64_t position() const { return Position; }
  /// True once every header-promised event has been decoded.
  bool done() const { return Position == NumEvents; }

  /// Decodes up to \p Max further events into \p Out (cleared first).
  /// Returns false on malformed or truncated input.
  bool read(std::vector<Event> &Out, size_t Max,
            std::string *Error = nullptr);

private:
  /// Moves the undecoded bytes to the front of Buf and reads one block
  /// after them.
  void refill();
  bool readHeader(std::string *Error);
  /// The bytes Pos indexes: Buf's filled part, or the in-memory body.
  std::string_view bytes() const {
    return Is ? std::string_view(Buf.data(), Len) : Mem;
  }

  std::istream *Is = nullptr; ///< Null when reading from memory.
  std::vector<char> Buf;      ///< Stream blocks, read ahead of decoding.
  std::string_view Mem;
  size_t Len = 0, Pos = 0;
  bool Eof = false, Opened = false;
  size_t NumThreads = 0, NumSyncs = 0, NumVars = 0;
  uint64_t NumEvents = 0, Position = 0;
  /// Per tag byte (kind and marked bit): the universe an event's target
  /// must be under, or 0 for a tag no event may carry. One compare then
  /// checks the kind, the mark and the target.
  uint64_t TargetBound[32] = {};
};

} // namespace sampletrack

#endif // SAMPLETRACK_TRACE_TRACEIO_H
