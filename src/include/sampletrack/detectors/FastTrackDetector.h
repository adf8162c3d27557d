//===- sampletrack/detectors/FastTrackDetector.h - FastTrack ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FastTrack race detector (Flanagan & Freund, PLDI 2009): Djit+ with
/// the epoch optimization on access histories. This is the paper's "FT"
/// baseline (full ThreadSanitizer-style analysis, no sampling). Its epoch
/// optimization is orthogonal to the paper's contributions (Section 2.1),
/// which is why the sampling engines are derived from Djit+ instead. The
/// whole-clock joins that remain on its sync path run through the simd
/// clock kernels, clipped to each clock's active prefix.
///
/// The algorithm is FastTrackPolicy (sampletrack/detectors/Policies.h),
/// which the online runtime's FT mode runs too; this is its offline detector.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_FASTTRACKDETECTOR_H
#define SAMPLETRACK_DETECTORS_FASTTRACKDETECTOR_H

#include "sampletrack/detectors/PolicyDetector.h"

namespace sampletrack {

/// FastTrack: epoch-optimized full happens-before race detection.
class FastTrackDetector final : public PolicyDetector<FastTrackPolicy> {
public:
  explicit FastTrackDetector(size_t NumThreads)
      : PolicyDetector("FT", NumThreads, HistoryKind::Epochs) {}

  const VectorClock &threadClock(ThreadId T) const { return thread(T).C; }
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_FASTTRACKDETECTOR_H
