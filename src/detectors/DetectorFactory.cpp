//===- detectors/DetectorFactory.cpp - Engine registry ------------------------/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/DetectorFactory.h"

#include "sampletrack/detectors/PolicyDetector.h"

#include <algorithm>
#include <cctype>
#include <iterator>

using namespace sampletrack;

namespace {

using Constructor = std::unique_ptr<Detector> (*)(const char *Name,
                                                  size_t NumThreads);

/// A PolicyDetector over \p Policy and histories \p H, with the policy's
/// constructor arguments \p Args.
template <typename Policy, HistoryKind H, auto... Args>
std::unique_ptr<Detector> construct(const char *Name, size_t NumThreads) {
  return std::make_unique<PolicyDetector<Policy>>(Name, NumThreads, H,
                                                  Args...);
}

/// One engine: the name it prints and reports, an optional long alias the
/// parser also accepts, and how it is built.
struct EngineRow {
  EngineKind Kind;
  const char *Name;
  const char *Alias;
  Constructor Make;
};

constexpr HistoryKind Vc = HistoryKind::VectorClocks;

/// Every engine, in enum (= presentation) order.
constexpr EngineRow Rows[] = {
    // Djit+ is FastTrack's policy over vector-clock histories.
    {EngineKind::Djit, "Djit+", "djit", construct<FastTrackPolicy, Vc>},
    {EngineKind::FastTrack, "FT", "fasttrack",
     construct<FastTrackPolicy, HistoryKind::Epochs>},
    {EngineKind::SamplingNaive, "ST", nullptr,
     construct<SamplingNaivePolicy, Vc>},
    {EngineKind::SamplingU, "SU", nullptr,
     construct<SamplingUClockPolicy, Vc>},
    {EngineKind::SamplingO, "SO", nullptr,
     construct<SamplingOrderedListPolicy<>, Vc, /*LocalEpochOpt=*/true>},
    {EngineKind::SamplingONoEpochOpt, "SO-noepoch", nullptr,
     construct<SamplingOrderedListPolicy<>, Vc, /*LocalEpochOpt=*/false>},
    {EngineKind::TreeClockFull, "TC", "treeclock",
     construct<TreeClockPolicy, Vc>},
};

constexpr bool rowsInEnumOrder() {
  for (size_t I = 0; I < std::size(Rows); ++I)
    if (static_cast<size_t>(Rows[I].Kind) != I)
      return false;
  return std::size(Rows) == static_cast<size_t>(EngineKind::TreeClockFull) + 1;
}
static_assert(rowsInEnumOrder(), "one row per EngineKind, in enum order");

const EngineRow *row(EngineKind K) {
  size_t I = static_cast<size_t>(K);
  return I < std::size(Rows) ? &Rows[I] : nullptr;
}

std::string toLower(const std::string &S) {
  std::string Out = S;
  std::transform(Out.begin(), Out.end(), Out.begin(), [](unsigned char C) {
    return static_cast<char>(std::tolower(C));
  });
  return Out;
}

} // namespace

const char *sampletrack::engineKindName(EngineKind K) {
  const EngineRow *R = row(K);
  return R ? R->Name : "?";
}

std::optional<EngineKind> sampletrack::parseEngineKind(const std::string &N) {
  // No alias spells another row's name, so one pass round-trips every kind.
  std::string Needle = toLower(N);
  for (const EngineRow &R : Rows)
    if (Needle == toLower(R.Name) || (R.Alias && Needle == R.Alias))
      return R.Kind;
  return std::nullopt;
}

std::vector<EngineKind> sampletrack::allEngineKinds() {
  std::vector<EngineKind> Out;
  for (const EngineRow &R : Rows)
    Out.push_back(R.Kind);
  return Out;
}

std::unique_ptr<Detector> sampletrack::createDetector(EngineKind K,
                                                      size_t NumThreads) {
  const EngineRow *R = row(K);
  return R ? R->Make(R->Name, NumThreads) : nullptr;
}

std::vector<std::unique_ptr<Detector>>
sampletrack::createDetectors(std::span<const EngineKind> Kinds,
                             size_t NumThreads) {
  std::vector<std::unique_ptr<Detector>> Out;
  Out.reserve(Kinds.size());
  for (EngineKind K : Kinds)
    Out.push_back(createDetector(K, NumThreads));
  return Out;
}
