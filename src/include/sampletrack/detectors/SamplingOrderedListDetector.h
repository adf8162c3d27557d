//===- sampletrack/detectors/SamplingOrderedListDetector.h - SO -*- C++ -*-==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nearly optimal engine "SO" (Algorithm 4): sampling clocks stored in
/// ordered lists, shared between threads and locks by shallow reference with
/// copy-on-write, plus the scalar freshness check. A release is O(1); an
/// acquire traverses only the U_l - U_t(LR_l) freshest list entries
/// (Proposition 6). Total timestamping work is O(|S| T^2), independent of
/// the number of locks, and instance optimal up to a factor T (Lemma 9).
/// The race-check and snapshot passes (dominatesWithOverride,
/// toVectorClock) run over the list's SoA time array through the simd
/// clock kernels.
///
/// The algorithm, with its copy-on-write snapshot lifecycle, the
/// Section 6.1 local-epoch optimization and the appendix A.2 treatment of
/// atomics, is SamplingOrderedListPolicy (sampletrack/detectors/
/// Policies.h), which the online runtime's SO mode runs too; this is its
/// offline detector.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H
#define SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H

#include "sampletrack/detectors/PolicyDetector.h"

namespace sampletrack {

/// SO: Algorithm 4, ordered lists with lazy copies.
class SamplingOrderedListDetector final
    : public PolicyDetector<SamplingOrderedListPolicy> {
public:
  /// \p LocalEpochOpt toggles the Section 6.1 local-epoch optimization
  /// (off only in the ablation bench).
  explicit SamplingOrderedListDetector(size_t NumThreads,
                                       bool LocalEpochOpt = true,
                                       HistoryKind Histories =
                                           HistoryKind::VectorClocks)
      : PolicyDetector("SO", NumThreads, Histories, LocalEpochOpt) {}

  /// The thread's ordered list (tests inspect structure and sharing).
  const OrderedList &orderedList(ThreadId T) const { return *thread(T).O; }
  bool isListShared(ThreadId T) const { return thread(T).Shared; }
  const VectorClock &freshnessClock(ThreadId T) const { return thread(T).U; }

  /// Effective component C_t(t'): list entry, except the thread's own
  /// component which may be carried out-of-line under LocalEpochOpt.
  ClockValue effectiveComponent(ThreadId T, ThreadId Of) const {
    return thread(T).component(T, Of);
  }
};

} // namespace sampletrack

#endif // SAMPLETRACK_DETECTORS_SAMPLINGORDEREDLISTDETECTOR_H
