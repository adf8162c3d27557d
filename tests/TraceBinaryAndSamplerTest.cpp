//===- tests/TraceBinaryAndSamplerTest.cpp - Binary IO + samplers ----------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/AnalysisSession.h"
#include "sampletrack/sampling/PeriodSamplers.h"
#include "sampletrack/trace/TraceGen.h"
#include "sampletrack/trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <utility>

using namespace sampletrack;

namespace {

Trace sampleTrace(uint64_t Seed, size_t NumEvents = 2000) {
  GenConfig C;
  C.NumThreads = 5;
  C.NumLocks = 6;
  C.NumEvents = NumEvents;
  C.Seed = Seed;
  Trace T = generateWorkload(C);
  for (size_t I = 0; I < T.size(); I += 5)
    if (isAccess(T[I].Kind))
      T[I].Marked = true;
  return T;
}

Event access(VarId X = 0) { return Event(0, OpKind::Read, X); }

std::string binaryImage(const Trace &T) {
  std::ostringstream Os(std::ios::binary);
  writeTraceBinary(Os, T);
  return Os.str();
}

/// An input stream over borrowed bytes, so that a sweep over thousands of
/// prefixes copies none of them.
class ViewBuf : public std::streambuf {
public:
  explicit ViewBuf(std::string_view Bytes) {
    char *P = const_cast<char *>(Bytes.data());
    setg(P, P, P + Bytes.size());
  }
};

/// An input stream that hands out one byte at a time and can neither seek
/// nor take a byte back once it has read the next, like an unbuffered pipe.
class TrickleBuf : public std::streambuf {
public:
  explicit TrickleBuf(std::string Bytes) : Bytes(std::move(Bytes)) {}

protected:
  int_type underflow() override {
    if (Next == Bytes.size())
      return traits_type::eof();
    Cur = Bytes[Next++];
    setg(&Cur, &Cur, &Cur + 1);
    return traits_type::to_int_type(Cur);
  }

private:
  std::string Bytes;
  size_t Next = 0;
  char Cur = 0;
};

/// Decodes the binary trace image \p Bytes (magic included) through the
/// stream reader or, if \p FromMemory, the in-memory one. Returns false if
/// it is rejected. If it is accepted, every event must pass the checks the
/// header implies; \p Events counts them.
bool decodeChecked(std::string_view Bytes, bool FromMemory, size_t &Events) {
  ViewBuf Buf(Bytes);
  std::istream Is(&Buf);
  std::string_view Body = Bytes;
  BinaryTraceReader Rd;
  if (FromMemory ? !sniffBinaryTrace(Body) || !Rd.open(Body)
                 : !sniffBinaryTrace(Is) || !Rd.open(Is))
    return false;
  std::vector<Event> Batch;
  Events = 0;
  size_t Invalid = 0;
  while (!Rd.done()) {
    if (!Rd.read(Batch, 4096))
      return false;
    for (const Event &E : Batch) {
      bool ForkOrJoin = E.Kind == OpKind::Fork || E.Kind == OpKind::Join;
      size_t Universe = isAccess(E.Kind) ? Rd.numVars()
                        : ForkOrJoin     ? Rd.numThreads()
                                         : Rd.numSyncs();
      Invalid += E.Kind > OpKind::AcquireLoad || E.Tid >= Rd.numThreads() ||
                 E.Target >= Universe || (E.Marked && !isAccess(E.Kind));
    }
    Events += Batch.size();
  }
  EXPECT_EQ(Invalid, 0u) << "accepted events the header rules out";
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Binary trace format
//===----------------------------------------------------------------------===//

TEST(BinaryTrace, RoundTripPreservesEverything) {
  Trace T = sampleTrace(3);
  std::stringstream SS(std::ios::in | std::ios::out | std::ios::binary);
  writeTraceBinary(SS, T);

  ASSERT_TRUE(sniffBinaryTrace(SS));
  Trace Back;
  std::string Err;
  ASSERT_TRUE(readTraceBinary(SS, Back, &Err)) << Err;
  ASSERT_EQ(T.size(), Back.size());
  for (size_t I = 0; I < T.size(); ++I)
    ASSERT_EQ(T[I], Back[I]) << "event " << I;
  EXPECT_EQ(T.numThreads(), Back.numThreads());
  EXPECT_EQ(T.numSyncs(), Back.numSyncs());
  EXPECT_EQ(T.numVars(), Back.numVars());
}

TEST(BinaryTrace, IsMuchSmallerThanText) {
  Trace T = sampleTrace(4);
  std::stringstream Text, Bin(std::ios::in | std::ios::out |
                              std::ios::binary);
  writeTrace(Text, T);
  writeTraceBinary(Bin, T);
  EXPECT_LT(Bin.str().size() * 2, Text.str().size())
      << "binary should be at least 2x smaller";
}

TEST(BinaryTrace, FileAutoDetectionWorksForBothFormats) {
  Trace T = sampleTrace(5);
  std::string TextPath = "/tmp/sampletrack_io_test.txt";
  std::string BinPath = "/tmp/sampletrack_io_test.bin";
  ASSERT_TRUE(writeTraceFile(TextPath, T));
  ASSERT_TRUE(writeTraceFileBinary(BinPath, T));

  Trace A, B;
  std::string Err;
  ASSERT_TRUE(readTraceFile(TextPath, A, &Err)) << Err;
  ASSERT_TRUE(readTraceFile(BinPath, B, &Err)) << Err;
  EXPECT_EQ(A.size(), T.size());
  EXPECT_EQ(B.size(), T.size());
  for (size_t I = 0; I < T.size(); ++I) {
    ASSERT_EQ(T[I], A[I]);
    ASSERT_EQ(T[I], B[I]);
  }
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(BinaryTrace, TextTraceReadsFromAStreamThatCannotSeek) {
  ViewBuf Buf("T0|w(V1)\nT1|w(V1)\nT0|r(V1)\n");
  std::istream Is(&Buf);
  ASSERT_EQ(Is.tellg(), std::streampos(-1)) << "the stream must not seek";
  Is.clear();
  api::SessionConfig C;
  C.Engines = {EngineKind::FastTrack};
  api::AnalysisSession S(C);
  api::SessionResult R;
  std::string Err;
  ASSERT_TRUE(S.run(Is, R, &Err)) << Err;
  EXPECT_EQ(R.EventsProcessed, 3u);
  ASSERT_EQ(R.Engines.size(), 1u);
  // T1's write races T0's, and T0's read races T1's write.
  EXPECT_EQ(R.Engines[0].NumRaces, 2u);
}

TEST(BinaryTrace, UnrestorableSniffIsAnErrorNotAnEmptyTrace) {
  // Starts like the magic, so the sniff reads two bytes it cannot put back.
  TrickleBuf Buf("STX\n");
  std::istream Is(&Buf);
  EXPECT_FALSE(sniffBinaryTrace(Is));
  Trace T;
  std::string Err;
  EXPECT_FALSE(readTrace(Is, T, &Err));
  EXPECT_NE(Err.find("cannot read"), std::string::npos) << Err;

  // A text trace never starts like the magic: nothing to put back.
  TrickleBuf Text("T0|w(V1)\nT1|w(V1)\n");
  std::istream Ts(&Text);
  EXPECT_FALSE(sniffBinaryTrace(Ts));
  ASSERT_TRUE(readTrace(Ts, T, &Err)) << Err;
  EXPECT_EQ(T.size(), 2u);
}

TEST(BinaryTrace, RejectsTruncatedAndCorruptInput) {
  // Larger than two of the reader's 64 KiB blocks, so that cuts fall in
  // the first, a middle and the last block, and events straddle refills.
  Trace T = sampleTrace(6, 42000);
  std::string Bytes = binaryImage(T);
  ASSERT_GT(Bytes.size(), 2u * 64 * 1024);
  std::string_view All = Bytes;
  size_t Events = 0;
  for (bool FromMemory : {false, true}) {
    ASSERT_TRUE(decodeChecked(All, FromMemory, Events));
    EXPECT_EQ(Events, T.size());
  }

  // Every cut must be rejected, since the header promises all T.size()
  // events. Cutting at every byte costs O(size^2), so cut at every byte
  // where the stream reader's behaviour changes: in the header and first
  // events, around each 64 KiB block it reads from just after the magic
  // (the refills that carry a split event over), and at the end; elsewhere
  // one cut in 1021 stands for its block's middle.
  constexpr size_t Block = 64 * 1024, Near = 32;
  auto NearEdge = [&](size_t Cut) {
    if (Cut < 5 + Near || Cut + Near >= Bytes.size())
      return true;
    size_t Off = (Cut - 5) % Block;
    return Off < Near || Off + Near >= Block;
  };
  size_t Cuts = 0;
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    if (!NearEdge(Cut) && Cut % 1021 != 0)
      continue;
    ++Cuts;
    for (bool FromMemory : {false, true})
      ASSERT_FALSE(decodeChecked(All.substr(0, Cut), FromMemory, Events))
          << "cut at " << Cut << (FromMemory ? " in memory" : "");
  }
  EXPECT_GT(Cuts, 6 * Near);

  // Handcrafted: an overlong varint, in the header and in an event, and a
  // header promising one more event than the body holds.
  std::string Magic = Bytes.substr(0, 5);
  std::string Overlong(10, '\x80');
  Overlong += '\x01';
  std::string Header = "\x02\x01\x04\x01"; // 2 threads, 1 sync, 4 vars, 1.
  std::string Write = "\x01\x01\x03";       // T1|w(V3).
  ASSERT_TRUE(decodeChecked(Magic + Header + Write, false, Events));
  for (const std::string &Bad :
       {Magic + Overlong + "\x01\x04\x01" + Write,
        Magic + Header + "\x01" + Overlong + "\x03",
        Magic + "\x02\x01\x04\x02" + Write})
    for (bool FromMemory : {false, true})
      EXPECT_FALSE(decodeChecked(Bad, FromMemory, Events));

  // Corrupt bytes: each is either rejected or decodes to events that all
  // pass the header's checks (decodeChecked asserts the latter). The fork
  // and join make a flipped bit turn a thread id into a sync id (5 threads,
  // 6 syncs), which only the thread bound rejects.
  Trace Forked;
  Forked.append(Event(0, OpKind::Fork, 4));
  for (const Event &E : sampleTrace(7, 300))
    Forked.append(E);
  Forked.append(Event(0, OpKind::Join, 4));
  ASSERT_EQ(Forked.numThreads(), 5u);
  ASSERT_EQ(Forked.numSyncs(), 6u);
  std::string Small = binaryImage(Forked);
  for (size_t I = 5; I < Small.size(); ++I)
    for (char Flip : {'\x01', '\x04', '\x10', '\x80', '\xff'}) {
      std::string Corrupt = Small;
      Corrupt[I] ^= Flip;
      for (bool FromMemory : {false, true})
        decodeChecked(Corrupt, FromMemory, Events);
    }
}

//===----------------------------------------------------------------------===//
// Pacer / Budget / ColdRegion samplers
//===----------------------------------------------------------------------===//

TEST(PacerSampler, ProducesContiguousPeriods) {
  PacerSampler S(0.5, 10, 7);
  std::vector<bool> Decisions;
  for (int I = 0; I < 500; ++I)
    Decisions.push_back(S.shouldSample(access()));
  // Decisions must be constant within each aligned 10-event window.
  for (size_t W = 0; W < Decisions.size() / 10; ++W)
    for (size_t I = 1; I < 10; ++I)
      ASSERT_EQ(Decisions[W * 10], Decisions[W * 10 + I]) << "window " << W;
  // And roughly half the windows sample.
  size_t On = 0;
  for (size_t W = 0; W < 50; ++W)
    On += Decisions[W * 10];
  EXPECT_NEAR(static_cast<double>(On), 25.0, 12.0);
}

TEST(BudgetSampler, NeverExceedsBudget) {
  BudgetSampler S(25, 1000, 3);
  size_t Taken = 0;
  for (int I = 0; I < 100000; ++I)
    if (S.shouldSample(access()))
      ++Taken;
  EXPECT_LE(Taken, 25u);
  EXPECT_EQ(S.remaining(), 25u - Taken);
  EXPECT_GT(Taken, 10u) << "should spend most of the budget";
}

TEST(ColdRegionSampler, HotLocationsFadeColdStayHot) {
  ColdRegionSampler S(8, 0.01, 9);
  // Hot location: sampled heavily at first (backoff 8 keeps the first ~8
  // at 100%, the next ~8 at 50%, ...), rarely later.
  size_t EarlyHot = 0, LateHot = 0;
  for (int I = 0; I < 50; ++I)
    EarlyHot += S.shouldSample(access(1));
  for (int I = 0; I < 5000; ++I)
    S.shouldSample(access(1));
  for (int I = 0; I < 1000; ++I)
    LateHot += S.shouldSample(access(1));
  EXPECT_GT(EarlyHot, 18u);
  EXPECT_LT(LateHot, 200u);
  // A cold location sampled for the first time is (almost) always taken.
  size_t Cold = 0;
  for (VarId V = 100; V < 150; ++V)
    Cold += S.shouldSample(access(V));
  EXPECT_GT(Cold, 40u);
}
