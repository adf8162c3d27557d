//===- sampletrack/support/simd/ClockKernels.h - SIMD clock ops -*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vectorized inner loops of every engine: pointwise max (the vector
/// clock join of Eq. 4), pointwise <= (the \f$ \sqsubseteq \f$ of Eq. 3),
/// and the change-counting join Algorithm 3 charges to U_t(t). All
/// kernels operate on flat uint64_t arrays — the SoA storage of
/// VectorClock and OrderedList — and are selected once at startup from a
/// small tier ladder:
///
///   - Avx2   x86-64 with AVX2, detected at runtime via cpuid (the binary
///            itself is built without -mavx2; the kernels carry a target
///            attribute, so a non-AVX2 host simply never calls them).
///   - Neon   AArch64 (Advanced SIMD is baseline there, so compile-time).
///   - Scalar portable fallback, and the reference semantics: every tier
///            must be *bit-identical* to it — this is fuzzed by the
///            SimdTier axis of the differential harness and pinned by
///            ClockTest property cases across vector-width boundaries.
///
/// Setting SAMPLETRACK_FORCE_SCALAR=1 in the environment pins the scalar
/// tier (CI runs a whole matrix leg this way so the fallback stays green);
/// tests flip tiers programmatically with forceTier().
///
/// Calls below the dispatch threshold inline a scalar loop directly: most
/// traces have a handful of threads, and an indirect call per 4-element
/// pass would cost more than it saves. The threshold is semantically
/// invisible — every tier computes the same function.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_SIMD_CLOCKKERNELS_H
#define SAMPLETRACK_SUPPORT_SIMD_CLOCKKERNELS_H

#include "sampletrack/support/Common.h"

#include <atomic>
#include <cstddef>

namespace sampletrack {
namespace simd {

/// Kernel implementation tiers, best-first where supported.
enum class Tier : unsigned { Scalar = 0, Avx2 = 1, Neon = 2 };

/// Human-readable tier name ("scalar", "avx2", "neon") for logs and bench
/// metadata.
const char *tierName(Tier T);

/// The tier every dispatched call currently uses. Resolved on first use:
/// the best tier the host supports, unless SAMPLETRACK_FORCE_SCALAR pins
/// the fallback.
Tier activeTier();

/// Pins the dispatch to \p T. Returns false (and changes nothing) when the
/// host cannot execute that tier. Tests use this to compare tiers on the
/// same host; production code never calls it. Not safe to call while other
/// threads are inside an analysis — flip tiers between runs only.
bool forceTier(Tier T);

namespace detail {

/// One dispatch table per tier; kernels take raw arrays.
struct KernelTable {
  void (*JoinMax)(ClockValue *Dst, const ClockValue *Src, size_t N);
  unsigned (*JoinMaxCount)(ClockValue *Dst, const ClockValue *Src, size_t N);
  bool (*AllLeq)(const ClockValue *A, const ClockValue *B, size_t N);
  Tier T;
};

/// Active table; lazily resolved, atomically swapped by forceTier.
const KernelTable *table();

/// Below this element count the inline scalar loop wins over an indirect
/// call into a vector kernel (AVX2 is 4 lanes; NEON 2).
inline constexpr size_t DispatchThreshold = 8;

} // namespace detail

/// Dst[i] = max(Dst[i], Src[i]) for i in [0, N).
inline void joinMax(ClockValue *Dst, const ClockValue *Src, size_t N) {
  if (N < detail::DispatchThreshold) {
    for (size_t I = 0; I < N; ++I)
      if (Src[I] > Dst[I])
        Dst[I] = Src[I];
    return;
  }
  detail::table()->JoinMax(Dst, Src, N);
}

/// joinMax that also returns how many components strictly increased.
inline unsigned joinMaxCount(ClockValue *Dst, const ClockValue *Src,
                             size_t N) {
  if (N < detail::DispatchThreshold) {
    unsigned Changed = 0;
    for (size_t I = 0; I < N; ++I)
      if (Src[I] > Dst[I]) {
        Dst[I] = Src[I];
        ++Changed;
      }
    return Changed;
  }
  return detail::table()->JoinMaxCount(Dst, Src, N);
}

/// True iff A[i] <= B[i] for every i in [0, N).
inline bool allLeq(const ClockValue *A, const ClockValue *B, size_t N) {
  if (N < detail::DispatchThreshold) {
    for (size_t I = 0; I < N; ++I)
      if (A[I] > B[I])
        return false;
    return true;
  }
  return detail::table()->AllLeq(A, B, N);
}

} // namespace simd
} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_SIMD_CLOCKKERNELS_H
