//===- prof/ChromeTrace.cpp - Trace Event Format export --------------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "sampletrack/prof/ChromeTrace.h"

#include "sampletrack/prof/Profiler.h"
#include "sampletrack/support/Json.h"

#include <algorithm>

namespace sampletrack {
namespace prof {

namespace {

using support::JsonWriter;

/// Microseconds relative to \p Base, to the nanosecond.
JsonWriter::Fixed micros(uint64_t Nanos, uint64_t Base) {
  return {static_cast<double>(Nanos >= Base ? Nanos - Base : 0) / 1e3, 3};
}

/// Writes a metadata event naming a process (\p Tid 0) or a thread.
void nameEvent(JsonWriter &W, const char *What, size_t Pid, size_t Tid,
               const std::string &Name) {
  W.object(JsonWriter::Inline)
      .fields({{"ph", "M"}, {"name", What}, {"pid", Pid}, {"tid", Tid}})
      .key("args")
      .object(JsonWriter::Inline)
      .field("name", Name)
      .end()
      .end();
}

} // namespace

std::string toChromeTrace(std::span<const TraceSource> Sources) {
  uint64_t Base = ~0ull;
  for (const TraceSource &S : Sources)
    if (S.Prof)
      Base = std::min(Base, S.Prof->epochNanos());
  if (Base == ~0ull)
    Base = 0;

  JsonWriter W;
  W.object(JsonWriter::Inline).key("traceEvents").array();
  for (size_t P = 0; P < Sources.size(); ++P) {
    const TraceSource &Src = Sources[P];
    if (!Src.Prof)
      continue;
    size_t Pid = P + 1;
    nameEvent(W, "process_name", Pid, 0, Src.ProcessName);
    std::vector<const Tree *> Trees = Src.Prof->trees();
    for (size_t T = 0; T < Trees.size(); ++T) {
      size_t Tid = T + 1;
      nameEvent(W, "thread_name", Pid, Tid, Trees[T]->name());
      Tree::Timelines Copy = Trees[T]->copyTimelines();
      for (const auto &[Name, E] : Copy.Spans)
        W.object(JsonWriter::Inline)
            .fields({{"ph", "X"}, {"name", Name}, {"cat", Src.ProcessName},
                     {"pid", Pid}, {"tid", Tid},
                     {"ts", micros(E.StartNanos, Base)},
                     {"dur", micros(E.EndNanos, E.StartNanos)}})
            .end();
      for (const CounterSample &C : Copy.Counters)
        W.object(JsonWriter::Inline)
            .fields({{"ph", "C"}, {"name", C.Name}, {"pid", Pid},
                     {"tid", Tid}, {"ts", micros(C.Nanos, Base)}})
            .key("args")
            .object(JsonWriter::Inline)
            .field(C.Name, C.Value)
            .end()
            .end();
    }
  }
  W.end().field("displayTimeUnit", "ms").end();
  return W.take();
}

std::string toChromeTrace(const Profiler &P, std::string_view ProcessName) {
  TraceSource Src{&P, std::string(ProcessName)};
  return toChromeTrace(std::span<const TraceSource>(&Src, 1));
}

} // namespace prof
} // namespace sampletrack
