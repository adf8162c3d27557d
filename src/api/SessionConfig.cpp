//===- api/SessionConfig.cpp - Pipeline configuration ----------------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/api/SessionConfig.h"

using namespace sampletrack;
using namespace sampletrack::api;

std::unique_ptr<Sampler> SessionConfig::makeSampler() const {
  switch (Sampling) {
  case SamplerKind::Always:
    return std::make_unique<AlwaysSampler>();
  case SamplerKind::Bernoulli:
    if (SamplingRate >= 1.0)
      return std::make_unique<AlwaysSampler>();
    return std::make_unique<BernoulliSampler>(SamplingRate, Seed);
  case SamplerKind::Marked:
    return std::make_unique<MarkedSampler>();
  }
  return std::make_unique<AlwaysSampler>();
}

rt::Config SessionConfig::runtimeConfig(rt::Mode M) const {
  rt::Config C;
  C.AnalysisMode = M;
  C.SamplingRate = SamplingRate;
  C.Seed = Seed;
  C.MaxThreads = MaxThreads;
  C.ShadowCells = ShadowCells;
  C.ShadowShards = ShadowShards;
  C.RecordTrace = RecordTrace;
  C.PoolingEnabled = PoolingEnabled;
  C.TriageCapacity = TriageCapacity;
  C.ProfilingEnabled = ProfilingEnabled;
  return C;
}
