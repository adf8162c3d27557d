//===- sampletrack/detectors/SamplingUClockDetector.h - SU -----*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The freshness-timestamp engine "SU" (Algorithm 3). Each thread and lock
/// additionally carries a U vector clock counting per-entry updates of the
/// sampling clocks (the VT timestamp, Eq. 9). Scalar freshness comparisons
/// let acquires skip joins that would not bring new information
/// (Proposition 5) and releases skip copies when the thread's clock has not
/// changed since the lock last saw it. Timestamping work drops to
/// O(|S| T (T + L)); the joins that do happen (including the
/// change-counting join that maintains U, Eq. 9) are kernel passes over
/// the source clock's active prefix.
///
/// The algorithm, including the appendix A.2 treatment of release-stores
/// and release-joins, is SamplingUClockPolicy (sampletrack/detectors/
/// Policies.h), which the online runtime's SU mode runs too; this is its
/// offline detector.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H

#include "sampletrack/detectors/PolicyDetector.h"

namespace sampletrack {

/// SU: Algorithm 3, sampling clocks plus freshness (U) clocks.
class SamplingUClockDetector final
    : public PolicyDetector<SamplingUClockPolicy> {
public:
  explicit SamplingUClockDetector(size_t NumThreads,
                                  HistoryKind Histories =
                                      HistoryKind::VectorClocks)
      : PolicyDetector("SU", NumThreads, Histories) {}

  const VectorClock &threadClock(ThreadId T) const { return thread(T).C; }
  const VectorClock &freshnessClock(ThreadId T) const { return thread(T).U; }
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGUCLOCKDETECTOR_H
