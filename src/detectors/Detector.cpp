//===- detectors/Detector.cpp - The engines ---------------------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/detectors/PolicyDetector.h"

#include <sstream>

using namespace sampletrack;

// Every engine's loops and handlers, compiled once.
template struct sampletrack::PolicyEngine<FastTrackPolicy>;
template struct sampletrack::PolicyEngine<SamplingNaivePolicy>;
template struct sampletrack::PolicyEngine<SamplingUClockPolicy>;
template struct sampletrack::PolicyEngine<SamplingOrderedListPolicy>;
template struct sampletrack::PolicyEngine<TreeClockPolicy>;
template class sampletrack::PolicyDetector<FastTrackPolicy>;
template class sampletrack::PolicyDetector<SamplingNaivePolicy>;
template class sampletrack::PolicyDetector<SamplingUClockPolicy>;
template class sampletrack::PolicyDetector<SamplingOrderedListPolicy>;
template class sampletrack::PolicyDetector<TreeClockPolicy>;

std::string Metrics::str() const {
  std::ostringstream OS;
  OS << "events=" << Events << " accesses=" << Accesses
     << " sampled=" << SampledAccesses << '\n'
     << "acquires: total=" << AcquiresTotal << " skipped=" << AcquiresSkipped
     << " processed=" << AcquiresProcessed << '\n'
     << "releases: total=" << ReleasesTotal << " skipped=" << ReleasesSkipped
     << " processed=" << ReleasesProcessed << '\n'
     << "copies: shallow=" << ShallowCopies << " deep=" << DeepCopies
     << " cow-breaks=" << CowBreaks << " pool-hits=" << PoolHits << '\n'
     << "ordered-list: traversed=" << EntriesTraversed
     << " opportunities=" << TraversalOpportunities << '\n'
     << "full-clock ops=" << FullClockOps << " race checks=" << RaceChecks
     << " races=" << RacesDeclared << '\n';
  return OS.str();
}
