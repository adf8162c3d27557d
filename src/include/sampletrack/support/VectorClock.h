//===- sampletrack/support/VectorClock.h - Vector timestamps ---*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic vector clock: a map Threads -> N stored as a flat array, with
/// the pointwise-max join and pointwise-leq comparison used by Djit+ and
/// FastTrack (Algorithm 1 of the paper). The sampling detectors reuse it for
/// the freshness (U) clocks of Algorithms 3 and 4 and for access histories.
///
/// Two performance layers sit under the unchanged value semantics:
///
/// - The flat array is SoA-contiguous and every O(T) pass runs through the
///   simd::* clock kernels (AVX2/NEON with a runtime-dispatched scalar
///   fallback, proven bit-identical by the differential fuzz harness).
/// - Epoch-delta compression for mostly-idle threads: each clock carries a
///   high-water mark \ref activeLen — every component at or beyond it is
///   zero. Joins scan only the source's active prefix, comparisons only the
///   receiver's, so wide clocks whose trailing threads never acted stop
///   paying O(T) per event and pay O(active threads) instead.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_VECTORCLOCK_H
#define SAMPLETRACK_SUPPORT_VECTORCLOCK_H

#include "sampletrack/support/Common.h"
#include "sampletrack/support/simd/ClockKernels.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace sampletrack {

/// A vector timestamp over a fixed set of threads.
///
/// All operations that touch every component are O(active) — bounded by
/// O(T) but typically much smaller on mostly-idle thread sets; \ref get,
/// \ref set and \ref bump are O(1). The clock is value-semantic and cheap
/// to move.
///
/// Invariant: Values[I] == 0 for every I >= Active. Active is conservative
/// (it may over-approximate the true nonzero prefix, never under-), which
/// is why it needs no maintenance on any zero-preserving operation.
class VectorClock {
public:
  VectorClock() = default;

  /// Creates the bottom clock (all components zero) over \p NumThreads
  /// threads.
  explicit VectorClock(size_t NumThreads) : Values(NumThreads, 0) {}

  /// Number of components.
  size_t size() const { return Values.size(); }

  /// The high-water mark: components at index >= activeLen() are all zero.
  size_t activeLen() const { return Active; }

  /// The contiguous component array (full \ref size length); the raw
  /// operand the simd kernels and OrderedList interop consume.
  const ClockValue *data() const { return Values.data(); }

  /// Grows the clock to \p NumThreads components, zero-filling new entries.
  /// Shrinking is not supported.
  void resize(size_t NumThreads) {
    assert(NumThreads >= Values.size() && "vector clocks never shrink");
    Values.resize(NumThreads, 0);
  }

  /// Returns the component of thread \p T.
  ClockValue get(ThreadId T) const {
    assert(T < Values.size() && "thread out of range");
    return Values[T];
  }

  /// Sets the component of thread \p T to \p V.
  void set(ThreadId T, ClockValue V) {
    assert(T < Values.size() && "thread out of range");
    Values[T] = V;
    if (T >= Active)
      Active = T + 1;
  }

  /// Increments the component of thread \p T by \p By.
  void bump(ThreadId T, ClockValue By = 1) {
    assert(T < Values.size() && "thread out of range");
    Values[T] += By;
    if (T >= Active)
      Active = T + 1;
  }

  /// Pointwise comparison: *this <= Other on every component (the \f$
  /// \sqsubseteq \f$ of Eq. 3). Scans only this clock's active prefix: our
  /// trailing zeros are <= anything.
  bool leq(const VectorClock &Other) const {
    assert(Values.size() == Other.Values.size() && "clock size mismatch");
    return simd::allLeq(Values.data(), Other.Values.data(), Active);
  }

  /// Like \ref leq but treats component \p OverrideTid of \p Other as having
  /// value \p OverrideVal. The sampling detectors use this to compare an
  /// access history against the *effective* clock C_t[t -> e_t] without
  /// materializing it (see DESIGN.md, "Same-thread soundness").
  bool leqWithOverride(const VectorClock &Other, ThreadId OverrideTid,
                       ClockValue OverrideVal) const {
    assert(Values.size() == Other.Values.size() && "clock size mismatch");
    const ClockValue *A = Values.data(), *B = Other.Values.data();
    if (OverrideTid >= Active) // Our component there is zero: always <=.
      return simd::allLeq(A, B, Active);
    return A[OverrideTid] <= OverrideVal &&
           simd::allLeq(A, B, OverrideTid) &&
           simd::allLeq(A + OverrideTid + 1, B + OverrideTid + 1,
                        Active - OverrideTid - 1);
  }

  /// Pointwise maximum with \p Other (the join of Eq. 4). Scans only the
  /// source's active prefix: its trailing zeros cannot raise anything.
  void joinWith(const VectorClock &Other) {
    assert(Values.size() == Other.Values.size() && "clock size mismatch");
    simd::joinMax(Values.data(), Other.Values.data(), Other.Active);
    Active = std::max(Active, Other.Active);
  }

  /// Joins with \p Other and returns how many components strictly increased.
  /// Algorithm 3 uses this count to maintain the freshness timestamp U_t(t)
  /// (one increment per changed entry, Eq. 9).
  unsigned joinCountingChanges(const VectorClock &Other) {
    assert(Values.size() == Other.Values.size() && "clock size mismatch");
    unsigned Changed =
        simd::joinMaxCount(Values.data(), Other.Values.data(), Other.Active);
    Active = std::max(Active, Other.Active);
    return Changed;
  }

  /// Copies \p Other into *this (an O(T) "send" as on Line 17 of
  /// Algorithm 1) — O(active) when sizes already match.
  void copyFrom(const VectorClock &Other) {
    if (Values.size() != Other.Values.size()) {
      Values = Other.Values;
      Active = Other.Active;
      return;
    }
    // Copy their active prefix; zero whatever of ours extends past it.
    std::copy_n(Other.Values.data(), Other.Active, Values.data());
    if (Active > Other.Active)
      std::fill(Values.begin() + Other.Active, Values.begin() + Active, 0);
    Active = Other.Active;
  }

  /// Overwrites *this with the flat array \p Src of \p N components,
  /// substituting \p OverrideVal at \p OverrideTid. The OrderedList
  /// materialization path (snapshotting C_t[t -> e_t] into a write access
  /// history) lands here so the high-water mark is rebuilt exactly.
  void assignWithOverride(const ClockValue *Src, size_t N,
                          ThreadId OverrideTid, ClockValue OverrideVal) {
    assert(N == Values.size() && "clock size mismatch");
    std::copy_n(Src, N, Values.data());
    if (OverrideTid < N)
      Values[OverrideTid] = OverrideVal;
    // Exact high-water mark: scan off the zero tail (cheap — it is
    // precisely the idle suffix this clock will then skip forever).
    size_t A = N;
    while (A > 0 && Values[A - 1] == 0)
      --A;
    Active = A;
  }

  /// Resets every component to zero.
  void clear() {
    std::fill(Values.begin(), Values.begin() + Active, 0);
    Active = 0;
  }

  bool operator==(const VectorClock &Other) const {
    return Values == Other.Values;
  }
  bool operator!=(const VectorClock &Other) const {
    return Values != Other.Values;
  }

  /// Renders the clock as "<a,b,c>" for diagnostics and tests.
  std::string str() const;

private:
  std::vector<ClockValue> Values;
  /// High-water mark: Values[I] == 0 for I >= Active (conservative).
  size_t Active = 0;
};

} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_VECTORCLOCK_H
