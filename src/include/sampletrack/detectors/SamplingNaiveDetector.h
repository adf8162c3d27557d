//===- sampletrack/detectors/SamplingNaiveDetector.h - ST ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The naive sampling engine "ST" (Algorithm 2): Djit+ specialized to the
/// sampling timestamp C_sam. Local clocks advance only at the first release
/// after a sampled event (RelAfter_S), so thread/lock clocks change at most
/// |S| times — but every synchronization event still pays a whole-clock
/// vector operation (O(T) worst case; O(active) via the high-water mark,
/// through the simd kernels). ST is the baseline the paper's SU/SO engines
/// are measured against (Fig. 5(b)).
///
/// The algorithm is SamplingNaivePolicy (sampletrack/detectors/
/// Policies.h), which the online runtime's ST mode runs too; this is its
/// offline detector.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H

#include "sampletrack/detectors/PolicyDetector.h"

namespace sampletrack {

/// ST: Algorithm 2, the sampling timestamp with naive communication.
class SamplingNaiveDetector final
    : public PolicyDetector<SamplingNaivePolicy> {
public:
  explicit SamplingNaiveDetector(size_t NumThreads,
                                 HistoryKind Histories =
                                     HistoryKind::VectorClocks)
      : PolicyDetector("ST", NumThreads, Histories) {}

  /// Current sampling clock C_t of thread \p T (tests inspect this).
  const VectorClock &threadClock(ThreadId T) const { return thread(T).C; }
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGNAIVEDETECTOR_H
