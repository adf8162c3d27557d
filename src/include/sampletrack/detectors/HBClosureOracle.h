//===- sampletrack/detectors/HBClosureOracle.h - Reference HB --*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference implementation used only by tests and examples: it stores a
/// full Djit+ timestamp for *every* event of a trace (O(N T) space), which
/// makes happens-before queries, exhaustive race-pair enumeration, and the
/// declarative timestamp definitions of the paper (Eqs. 1-2, 5-7, 8-10)
/// directly computable. The property tests check the streaming engines
/// against these definitions.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_HBCLOSUREORACLE_H
#define SAMPLETRACK_DETECTORS_HBCLOSUREORACLE_H

#include "sampletrack/support/VectorClock.h"
#include "sampletrack/trace/Trace.h"

#include <utility>
#include <vector>

namespace sampletrack {

/// Per-event happens-before information for a whole trace.
class HBClosureOracle {
public:
  /// Builds timestamps for every event of \p T. O(N T) time and space.
  explicit HBClosureOracle(const Trace &T);

  const Trace &trace() const { return Tr; }

  /// The Djit+ timestamp C_FT(e_i) (Eq. 2).
  const VectorClock &timestamp(size_t I) const { return Stamps[I]; }

  /// The Djit+ local time L_FT(e_i) (Eq. 1).
  ClockValue localTime(size_t I) const { return Locals[I]; }

  /// True iff e_i <=HB e_j. Backward queries (i > j) answer false: the
  /// trace order linearizes HB, so a later event never happens-before an
  /// earlier one.
  bool happensBefore(size_t I, size_t J) const;

  /// True iff (e_i, e_j) is a conflicting pair (Section 2).
  bool conflicting(size_t I, size_t J) const;

  /// True iff (e_i, e_j), i < j, is an HB-race.
  bool isRace(size_t I, size_t J) const {
    return conflicting(I, J) && !happensBefore(I, J);
  }

  /// All HB-race pairs (i, j), i < j. O(N^2); intended for small traces.
  std::vector<std::pair<size_t, size_t>> allRacePairs() const;

  /// Race pairs restricted to marked events (the Analysis Problem's
  /// verdict set).
  std::vector<std::pair<size_t, size_t>> markedRacePairs() const;

  /// Event indices at which a streaming detector with last-access histories
  /// (last write per variable, last read per variable and thread) declares
  /// a race, computed against exact HB. With \p MarkedOnly this is the
  /// per-event declaration semantics of Lemma 4 that ST/SU/SO must
  /// reproduce exactly; without it, Djit+'s.
  std::vector<size_t> declaredRaces(bool MarkedOnly) const;

  /// The sampling local time L_sam (Eq. 6) for every event, taking S = the
  /// trace's marked events. Release-like events other than rel() also flush
  /// (see DESIGN.md).
  std::vector<ClockValue> samplingLocalTimes() const;

  /// The sampling timestamp C_sam (Eq. 7) for every event.
  std::vector<VectorClock> samplingTimestamps() const;

  /// The freshness timestamp U (Eq. 10) for every event, derived from the
  /// sampling timestamps via VT (Eq. 9).
  std::vector<VectorClock> freshnessTimestamps() const;

private:
  const Trace &Tr;
  std::vector<VectorClock> Stamps;
  std::vector<ClockValue> Locals;
};

/// Dedups a full declared-race event list exactly as the detectors' race
/// sink does (first event per RaceSignature, in declaration order), so
/// oracle output stays comparable to Detector::races() now that detectors
/// warehouse duplicates instead of storing every declaration.
std::vector<size_t> dedupDeclaredRaces(const Trace &T,
                                       const std::vector<size_t> &Declared);

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_HBCLOSUREORACLE_H
