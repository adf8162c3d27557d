//===- trace/TraceIO.cpp - Trace (de)serialization -------------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/trace/TraceIO.h"

#include "sampletrack/support/Bytes.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace sampletrack;

namespace {

/// Consumes a decimal number prefixed by \p Prefix from Line[Pos...].
/// Returns true and advances \p Pos past the digits on success.
bool parsePrefixedId(const std::string &Line, size_t &Pos, char Prefix,
                     uint64_t &Out) {
  if (Pos >= Line.size() || Line[Pos] != Prefix)
    return false;
  ++Pos;
  if (Pos >= Line.size() || !isdigit(static_cast<unsigned char>(Line[Pos])))
    return false;
  uint64_t V = 0;
  while (Pos < Line.size() && isdigit(static_cast<unsigned char>(Line[Pos]))) {
    V = V * 10 + static_cast<uint64_t>(Line[Pos] - '0');
    ++Pos;
  }
  Out = V;
  return true;
}

struct OpSpec {
  const char *Name;
  OpKind Kind;
  char TargetPrefix;
};

constexpr OpSpec OpSpecs[] = {
    {"r", OpKind::Read, 'V'},          {"w", OpKind::Write, 'V'},
    {"acq", OpKind::Acquire, 'L'},     {"rel", OpKind::Release, 'L'},
    {"fork", OpKind::Fork, 'T'},       {"join", OpKind::Join, 'T'},
    {"st", OpKind::ReleaseStore, 'L'}, {"rj", OpKind::ReleaseJoin, 'L'},
    {"ld", OpKind::AcquireLoad, 'L'},
};

} // namespace

bool sampletrack::parseEventLine(const std::string &Line, Event &Out,
                                 std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = std::string(Msg) + " in '" + Line + "'";
    return false;
  };

  size_t Pos = 0;
  uint64_t Tid = 0;
  if (!parsePrefixedId(Line, Pos, 'T', Tid))
    return Fail("expected thread id 'T<n>'");
  if (Pos >= Line.size() || Line[Pos] != '|')
    return Fail("expected '|' after thread id");
  ++Pos;

  size_t OpStart = Pos;
  while (Pos < Line.size() && isalpha(static_cast<unsigned char>(Line[Pos])))
    ++Pos;
  std::string OpName = Line.substr(OpStart, Pos - OpStart);

  const OpSpec *Spec = nullptr;
  for (const OpSpec &S : OpSpecs)
    if (OpName == S.Name) {
      Spec = &S;
      break;
    }
  if (!Spec)
    return Fail("unknown operation");

  if (Pos >= Line.size() || Line[Pos] != '(')
    return Fail("expected '(' after operation");
  ++Pos;
  uint64_t Target = 0;
  if (!parsePrefixedId(Line, Pos, Spec->TargetPrefix, Target))
    return Fail("bad operand");
  if (Pos >= Line.size() || Line[Pos] != ')')
    return Fail("expected ')'");
  ++Pos;

  bool Marked = false;
  if (Pos < Line.size() && Line[Pos] == '*') {
    Marked = true;
    ++Pos;
  }
  // Allow trailing whitespace only.
  while (Pos < Line.size()) {
    if (!isspace(static_cast<unsigned char>(Line[Pos])))
      return Fail("trailing garbage");
    ++Pos;
  }
  if (Marked && !isAccess(Spec->Kind))
    return Fail("only access events can be marked");

  Out = Event(static_cast<ThreadId>(Tid), Spec->Kind, Target, Marked);
  return true;
}

bool sampletrack::readTrace(std::istream &Is, Trace &Out, std::string *Error) {
  Out = Trace();
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(Is, Line)) {
    ++LineNo;
    // Strip \r for robustness against CRLF inputs.
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos)
      continue;
    if (Line[First] == '#')
      continue;
    Event E;
    std::string LineError;
    if (!parseEventLine(Line.substr(First), E, &LineError)) {
      if (Error) {
        std::ostringstream OS;
        OS << "line " << LineNo << ": " << LineError;
        *Error = OS.str();
      }
      return false;
    }
    Out.append(E);
  }
  if (Is.bad()) {
    if (Error)
      *Error = "cannot read the trace stream";
    return false;
  }
  return true;
}

bool sampletrack::readTraceFile(const std::string &Path, Trace &Out,
                                std::string *Error) {
  std::ifstream Is(Path, std::ios::binary);
  if (!Is) {
    if (Error)
      *Error = "cannot open '" + Path + "'";
    return false;
  }
  // Auto-detect the binary format by its magic.
  if (sniffBinaryTrace(Is))
    return readTraceBinary(Is, Out, Error);
  return readTrace(Is, Out, Error);
}

void sampletrack::writeTrace(std::ostream &Os, const Trace &T) {
  Os << "# sampletrack trace: " << T.size() << " events, " << T.numThreads()
     << " threads, " << T.numSyncs() << " syncs, " << T.numVars()
     << " vars\n";
  for (const Event &E : T)
    Os << E.str() << '\n';
}

bool sampletrack::writeTraceFile(const std::string &Path, const Trace &T) {
  std::ofstream Os(Path);
  if (!Os)
    return false;
  writeTrace(Os, T);
  return static_cast<bool>(Os);
}


//===----------------------------------------------------------------------===//
// Binary format
//===----------------------------------------------------------------------===//

namespace {

constexpr char BinaryMagic[5] = {'S', 'T', 'R', 'C', '\1'};

/// Bytes the writer buffers and the reader reads per stream call.
constexpr size_t BlockBytes = 64 * 1024;

/// The largest encoded event: a kind/marked byte and two varints.
constexpr size_t MaxEventBytes = 1 + 2 * support::MaxVarintBytes;

/// Reads every event \p Reader still promises into \p Out.
bool readRest(BinaryTraceReader &Reader, Trace &Out, std::string *Error) {
  std::vector<Event> Batch;
  while (!Reader.done()) {
    // read() validates every id against the header universes, so the
    // loaded trace can never outgrow the header.
    if (!Reader.read(Batch, 4096, Error))
      return false;
    for (const Event &E : Batch)
      Out.append(E);
  }
  return true;
}

} // namespace

void sampletrack::writeTraceBinary(std::ostream &Os, const Trace &T) {
  std::string Buf(BinaryMagic, sizeof(BinaryMagic));
  Buf.reserve(BlockBytes + MaxEventBytes);
  support::putVarint(Buf, T.numThreads());
  support::putVarint(Buf, T.numSyncs());
  support::putVarint(Buf, T.numVars());
  support::putVarint(Buf, T.size());
  for (const Event &E : T) {
    if (Buf.size() >= BlockBytes) {
      Os.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
      Buf.clear();
    }
    // Low 4 bits: kind; bit 4: marked.
    support::putU8(Buf, static_cast<uint8_t>(E.Kind) | (E.Marked ? 0x10 : 0));
    support::putVarint(Buf, E.Tid);
    support::putVarint(Buf, E.Target);
  }
  Os.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
}

bool sampletrack::writeTraceFileBinary(const std::string &Path,
                                       const Trace &T) {
  std::ofstream Os(Path, std::ios::binary);
  if (!Os)
    return false;
  writeTraceBinary(Os, T);
  return static_cast<bool>(Os);
}

bool sampletrack::sniffBinaryTrace(std::istream &Is) {
  // Consume the magic only while it matches, and put a matched prefix back
  // on a mismatch: peek, get and putback never seek, so pipes work. A text
  // trace starts with 'T', '#' or blank space, never with the magic's 'S',
  // so it consumes nothing.
  size_t N = 0;
  while (N < sizeof(BinaryMagic) &&
         Is.peek() == static_cast<unsigned char>(BinaryMagic[N])) {
    Is.get();
    ++N;
  }
  if (N == sizeof(BinaryMagic))
    return true;
  Is.clear(Is.rdstate() & std::ios::badbit);
  // A stream that cannot take the bytes back goes bad, and readTrace
  // reports it.
  while (N > 0 && Is.putback(BinaryMagic[--N]))
    ;
  return false;
}

bool sampletrack::sniffBinaryTrace(std::string_view &Bytes) {
  std::string_view Magic(BinaryMagic, sizeof(BinaryMagic));
  if (Bytes.substr(0, Magic.size()) != Magic)
    return false;
  Bytes.remove_prefix(Magic.size());
  return true;
}

bool BinaryTraceReader::open(std::istream &Stream, std::string *Error) {
  Is = &Stream;
  Buf.resize(BlockBytes + MaxEventBytes);
  Len = Pos = 0;
  refill();
  return readHeader(Error);
}

bool BinaryTraceReader::open(std::string_view Body, std::string *Error) {
  Is = nullptr;
  Mem = Body;
  Pos = 0;
  Eof = true;
  return readHeader(Error);
}

void BinaryTraceReader::refill() {
  size_t Kept = Len - Pos;
  std::memmove(Buf.data(), Buf.data() + Pos, Kept);
  Is->read(Buf.data() + Kept, BlockBytes);
  size_t Got = static_cast<size_t>(Is->gcount());
  Len = Kept + Got;
  Pos = 0;
  Eof = Got < BlockBytes;
}

bool BinaryTraceReader::readHeader(std::string *Error) {
  Opened = false;
  Position = NumEvents = 0;
  support::ByteReader In{bytes(), Pos};
  uint64_t Threads, Syncs, Vars;
  // The header is far shorter than a block, so the first one holds it.
  if (!In.getVarint(Threads) || !In.getVarint(Syncs) ||
      !In.getVarint(Vars) || !In.getVarint(NumEvents)) {
    if (Error)
      *Error = "truncated binary trace header";
    return false;
  }
  Pos = In.Pos;
  NumThreads = static_cast<size_t>(Threads);
  NumSyncs = static_cast<size_t>(Syncs);
  NumVars = static_cast<size_t>(Vars);
  for (uint8_t Tag = 0; Tag < 32; ++Tag) {
    OpKind K = static_cast<OpKind>(Tag & 0x0f);
    bool Marked = (Tag & 0x10) != 0;
    uint64_t &Bound = TargetBound[Tag];
    if (K > OpKind::AcquireLoad || (Marked && !isAccess(K)))
      Bound = 0;
    else if (isAccess(K))
      Bound = Vars;
    else if (K == OpKind::Fork || K == OpKind::Join)
      Bound = Threads;
    else
      Bound = Syncs;
  }
  Opened = true;
  return true;
}

bool BinaryTraceReader::read(std::vector<Event> &Out, size_t Max,
                             std::string *Error) {
  Out.clear();
  auto Fail = [&](const char *Msg) {
    Position += Out.size();
    if (Error)
      *Error = Msg;
    return false;
  };
  if (!Opened)
    return Fail("reader not opened");
  if (Max == 0)
    return Fail("zero batch size"); // A while(!done()) loop would never end.
  // A copy in a local: the stores into Out could alias the member.
  const size_t Threads = NumThreads;
  const size_t Want = static_cast<size_t>(
      std::min<uint64_t>(Max, NumEvents - Position));
  support::ByteReader In{bytes(), Pos};
  for (size_t N = 0; N < Want;) {
    size_t Start = In.Pos;
    uint8_t Tag = 0;
    uint64_t Tid, Target;
    if (!In.getU8(Tag) || !In.getVarint(Tid) || !In.getVarint(Target)) {
      // An event split across two blocks: carry its head over and retry.
      if (!Eof && In.Bytes.size() - Start < MaxEventBytes) {
        Pos = Start;
        refill();
        In = support::ByteReader{bytes(), Pos};
        continue;
      }
      return Fail(In.Pos == Start ? "truncated binary trace body"
                                  : "truncated event");
    }
    // Events are handed to detectors batch by batch, so unlike the whole-
    // trace loader the ids must be validated against the header universes
    // here, before any consumer indexes per-thread state with them.
    OpKind K = static_cast<OpKind>(Tag & 0x0f);
    bool Marked = (Tag & 0x10) != 0;
    if (Tid >= Threads || Target >= TargetBound[Tag & 0x1f]) {
      if (K > OpKind::AcquireLoad)
        return Fail("invalid event kind");
      if (Marked && !isAccess(K))
        return Fail("marked non-access event");
      return Fail("binary trace header inconsistent with events");
    }
    Out.emplace_back(static_cast<ThreadId>(Tid), K, Target, Marked);
    ++N;
  }
  Position += Out.size();
  Pos = In.Pos;
  return true;
}

bool sampletrack::readTraceBinary(std::istream &Is, Trace &Out,
                                  std::string *Error) {
  Out = Trace();
  BinaryTraceReader Reader;
  return Reader.open(Is, Error) && readRest(Reader, Out, Error);
}

bool sampletrack::readTraceBinary(std::string_view Body, Trace &Out,
                                  std::string *Error) {
  Out = Trace();
  BinaryTraceReader Reader;
  return Reader.open(Body, Error) && readRest(Reader, Out, Error);
}
