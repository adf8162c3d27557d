//===- tests/FormatGoldenTest.cpp - Byte-pinned on-disk/wire formats -------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
// Exact bytes, as hex, for fixed inputs in each of the five binary formats:
// the "STSG" signature summary, the "STWF" upload frame, the "STTS" store
// image, the "STTJ" journal (header and one record) and the "STRC" binary
// trace. The round-trip
// tests elsewhere would still pass if an encoder and its decoder changed
// together; these would not, and they also decode the pinned bytes, so
// files written by earlier builds keep loading.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/support/FaultInjectionFs.h"
#include "sampletrack/trace/TraceIO.h"
#include "sampletrack/triage/TriageLog.h"
#include "sampletrack/triage/TriageStore.h"
#include "sampletrack/triaged/Wire.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace sampletrack;
using namespace sampletrack::triage;
using support::FaultInjectionFs;

namespace {

std::string toHex(std::string_view Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (char C : Bytes) {
    unsigned char B = static_cast<unsigned char>(C);
    Out += Digits[B >> 4];
    Out += Digits[B & 0xf];
  }
  return Out;
}

std::string fromHex(std::string_view Hex) {
  auto Nibble = [](char C) {
    return C <= '9' ? C - '0' : C - 'a' + 10;
  };
  std::string Out;
  for (size_t I = 0; I + 1 < Hex.size(); I += 2)
    Out += static_cast<char>(Nibble(Hex[I]) * 16 + Nibble(Hex[I + 1]));
  return Out;
}

/// Two entries, one dropped declaration: every summary field is non-zero
/// somewhere, so a swapped or resized field shows up in the bytes.
TriageSummary fixedSummary() {
  TriageSummary S;
  S.Entries.push_back(TriageEntry{0x0123456789abcdefULL, 3,
                                  RaceReport{42, 2, 7, OpKind::Write}});
  S.Entries.push_back(TriageEntry{0xfedcba9876543210ULL, 1,
                                  RaceReport{100, 1, 9, OpKind::Read}});
  S.RacesDeclared = 5;
  S.DroppedDeclarations = 1;
  S.Capped = true;
  return S;
}

/// Every OpKind, marked accesses, and thread, sync and var ids that take
/// one, two and three varint bytes.
Trace fixedTrace() {
  Trace T;
  T.append(Event(0, OpKind::Fork, 130));
  T.append(Event(130, OpKind::Acquire, 200));
  T.append(Event(130, OpKind::Write, 16384, /*Marked=*/true));
  T.append(Event(130, OpKind::Release, 200));
  T.append(Event(130, OpKind::ReleaseStore, 5));
  T.append(Event(0, OpKind::AcquireLoad, 5));
  T.append(Event(0, OpKind::Read, 16384));
  T.append(Event(0, OpKind::ReleaseJoin, 5));
  T.append(Event(0, OpKind::Join, 130));
  T.append(Event(0, OpKind::Read, 127, /*Marked=*/true));
  return T;
}

// The pinned images. Regenerating any of these is a format change: bump
// the format's version and keep a reader for the old one.
constexpr std::string_view SummaryHex =
    "5354534701000000dbd33467ccca494601000000050000000000000001000000"
    "00000000010200000000000000efcdab896745230103000000000000002a0000"
    "0000000000020000000700000000000000011032547698badcfe010000000000"
    "0000640000000000000001000000090000000000000000";
constexpr std::string_view FrameHex =
    "5354574601000000010700000000000000e5e9b563d0a9b8cf7061796c6f6164";
constexpr std::string_view StoreHex =
    "53545453020000006ef51ddd8f58166201000000010000000300000000000000"
    "efcdab8967452301030000000000000001000000010000000100000000002a00"
    "000000000000020000000700000000000000011032547698badcfe0100000000"
    "0000000100000001000000010000000100640000000000000001000000090000"
    "000000000000aa00000000000000000000000000000000000000000000000000"
    "00000100000000000000000000000000000000000000000000";
constexpr std::string_view JournalHeaderHex =
    "5354544a01000000e42b42c2392d245f010000000000000000000000";
constexpr std::string_view JournalRecordHex =
    "6f000000b4f68886dc3da5d10100000001050072756e2d310500000000000000"
    "0100000000000000010200000000000000efcdab896745230103000000000000"
    "002a00000000000000020000000700000000000000011032547698badcfe0100"
    "000000000000640000000000000001000000090000000000000000";
constexpr std::string_view TraceHex =
    "53545243018301c9018180010a04008201028201c801118201808001038201c801"
    "0682010508000500008080010700050500820110007f";

} // namespace

TEST(FormatGolden, SignatureSummaryBytesArePinned) {
  std::string Bytes = triaged::encodeSummary(fixedSummary());
  EXPECT_EQ(toHex(Bytes), SummaryHex);

  TriageSummary Back;
  std::string Err;
  ASSERT_TRUE(triaged::decodeSummary(fromHex(SummaryHex), Back, &Err)) << Err;
  EXPECT_EQ(Back, fixedSummary());
}

TEST(FormatGolden, UploadFrameBytesArePinned) {
  std::string Bytes =
      triaged::frame(triaged::WireContent::SignatureSummary, "payload");
  EXPECT_EQ(toHex(Bytes), FrameHex);

  std::string Pinned = fromHex(FrameHex);
  triaged::WireFrame F;
  std::string Err;
  ASSERT_TRUE(triaged::parseFrame(Pinned, F, &Err)) << Err;
  EXPECT_EQ(F.Content, triaged::WireContent::SignatureSummary);
  EXPECT_EQ(F.Payload, "payload");
}

TEST(FormatGolden, StoreImageBytesArePinned) {
  TriageStore Store;
  Store.mergeRun(fixedSummary());
  Store.suppress(0xfedcba9876543210ULL);
  Store.suppress(0x00000000000000aaULL); // A placeholder with no history.
  EXPECT_EQ(toHex(Store.serialize()), StoreHex);

  TriageStore Back;
  std::string Err;
  ASSERT_TRUE(Back.deserialize(fromHex(StoreHex), &Err)) << Err;
  EXPECT_EQ(Back.serialize(), Store.serialize());
}

TEST(FormatGolden, JournalHeaderAndRecordBytesArePinned) {
  FaultInjectionFs Fs;
  TriageLog::Options O;
  O.Fs = &Fs;
  std::string Err;
  {
    TriageLog L;
    ASSERT_TRUE(L.open("store", O, &Err)) << Err;
    TriageStore::MergeResult M;
    ASSERT_TRUE(L.appendRun(fixedSummary(), "run-1", 1, M, &Err)) << Err;
  }
  std::string Journal;
  ASSERT_TRUE(Fs.readFile("store/journal-1.log", Journal, &Err)) << Err;
  ASSERT_GE(Journal.size(), 28u);
  EXPECT_EQ(toHex(Journal.substr(0, 28)), JournalHeaderHex);
  EXPECT_EQ(toHex(Journal.substr(28)), JournalRecordHex);

  // A journal made of the pinned bytes replays into the same run.
  std::string Pinned = fromHex(JournalHeaderHex);
  Pinned += fromHex(JournalRecordHex);
  {
    std::unique_ptr<support::WritableFile> W =
        Fs.openWrite("store/journal-1.log", /*Append=*/false);
    ASSERT_TRUE(W && support::writeAll(*W, Pinned) && W->close());
  }
  TriageLog L;
  ASSERT_TRUE(L.open("store", O, &Err)) << Err;
  ASSERT_EQ(L.journalRuns().size(), 1u);
  const TriageLog::RunInfo &Info = L.journalRuns().front();
  EXPECT_EQ(Info.Run, 1u);
  EXPECT_EQ(Info.RunId, "run-1");
  EXPECT_EQ(Info.Content, 1u);
  EXPECT_EQ(Info.Declared, 5u);
  EXPECT_EQ(Info.Dropped, 1u);
  EXPECT_TRUE(Info.Capped);
  EXPECT_EQ(Info.Distinct, 2u);
  EXPECT_EQ(Info.Merge.NewSignatures, 2u);
}

TEST(FormatGolden, BinaryTraceBytesArePinned) {
  std::ostringstream Os(std::ios::binary);
  writeTraceBinary(Os, fixedTrace());
  EXPECT_EQ(toHex(Os.str()), TraceHex);

  std::string Pinned = fromHex(TraceHex);
  std::istringstream Is(Pinned, std::ios::binary);
  ASSERT_TRUE(sniffBinaryTrace(Is));
  Trace Back;
  std::string Err;
  ASSERT_TRUE(readTraceBinary(Is, Back, &Err)) << Err;
  Trace Want = fixedTrace();
  EXPECT_EQ(Back.numThreads(), 131u);
  EXPECT_EQ(Back.numSyncs(), 201u);
  EXPECT_EQ(Back.numVars(), 16385u);
  EXPECT_EQ(Back.events(), Want.events());
}
