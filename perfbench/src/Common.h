//===- perfbench/src/Common.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the command-line options, the
/// result record (operations attempted and failed, metrics by name with
/// their unit), process CPU and peak-RSS readings, order statistics, the
/// benchmark's own span recorder, and the host descriptor.
///
/// Spans are recorded only in the benchmark's files, around each call into
/// a SampleTrack layer. A span's name is "<module>/<what>"; the module part
/// is the SampleTrack module the call enters (or "bench" for the benchmark's
/// own work), so self times roll up by module.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured phase.
  double Seconds = 10;
  /// Traced run: per-layer metrics, spans and a Chrome trace.
  bool Trace = false;
  /// Scratch directory for trace files and stores (removed at exit).
  std::string WorkDir;
  /// Where the traced run writes its Chrome-trace file.
  std::string OutDir;
};

/// Monotonic nanoseconds.
uint64_t nowNs();
/// User + system CPU seconds so far of the process and its waited-for
/// children.
double cpuSeconds();
/// CPU nanoseconds so far of the process's threads (not its children).
uint64_t processCpuNs();
/// Peak resident set size of the process so far, in MiB.
double peakRssMb();

/// Runs \p F in a forked child process and returns what it returned, or ""
/// if the child fails. Call only while the process has a single thread.
std::string inChild(const std::function<std::string()> &F);

/// Order statistics over a copy of \p V (linear interpolation between
/// closest ranks, as numpy's default). Empty input yields 0.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
/// Every timing a run reports is taken from its fastest moments. On a
/// shared host the same work runs at two speeds or more, in stretches of
/// seconds to minutes (an access-heavy trace-file pass took 320 or 500 ms,
/// CPU time tracking wall time), so a run's median follows whichever speed
/// held longer. Over 25-second windows of one four-minute run, the pass
/// time's spread (IQR / median) was 0.20 for the median, 0.05 for the 10th
/// percentile and 0.02 for the minimum. So:
///  - a file pass, deterministic and single-threaded, keeps each batch's
///    best time over the run's passes (noise on the host only adds time);
///  - upload-mix reports its best second (each holds thousands of uploads);
///  - a tpcc round reports its fast tenth: the 10th percentile, or the 90th
///    for a rate. Its client threads contend differently in each round: one
///    round in 28 ran 17% under the rest, too often for the minimum.
inline double fastTenth(std::vector<double> V) {
  return quantile(std::move(V), 0.1);
}
inline double fastTenthRate(std::vector<double> V) {
  return quantile(std::move(V), 0.9);
}
/// Interquartile range as a share of the median (0 for empty input or a
/// zero median).
double relativeSpread(const std::vector<double> &V);

/// Share \p Part / \p Whole, 0 when \p Whole is 0.
inline double ratio(double Part, double Whole) {
  return Whole != 0 ? Part / Whole : 0;
}

/// What one run reports: the operations it attempted and how many failed
/// (ran into an error or failed an output check), and its metrics.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First few failure diagnostics (printed to stderr).
  std::vector<std::string> Failures;
  /// Metric name -> (value, unit), in the order first set.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void set(const std::string &Name, double Value, const std::string &Unit);
  const double *find(const std::string &Name) const;
  /// Counts one attempted operation, failed unless \p Ok.
  void check(bool Ok, const std::string &What);
  /// Records a failure of an operation already counted as attempted.
  void fail(const std::string &What);
};

/// In-memory span recorder (thread-safe). Disabled recorders cost one
/// branch per scope and record nothing.
class Spans {
public:
  struct Span {
    std::string Name;
    uint32_t Thread = 0;
    uint64_t Start = 0, End = 0;
    /// Index of the enclosing span on the same thread, -1 at top level.
    int Parent = -1;
  };

  explicit Spans(bool Enabled) : Enabled(Enabled) {}

  /// RAII span; nests under the calling thread's innermost open span.
  class Scope {
  public:
    Scope(Spans &S, std::string_view Name);
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Ends the span early; returns its duration in nanoseconds.
    uint64_t close();

  private:
    Spans *S = nullptr;
    int Id = -1;
    int SavedParent = -1;
    uint64_t Start = 0;
  };

  /// Records an already measured interval on the calling thread, as a
  /// child of its innermost open span.
  void add(std::string_view Name, uint64_t Start, uint64_t End);

  /// Nanoseconds each module spent, excluding child spans (self time),
  /// summed over all spans whose name starts with "<module>/" and whose
  /// start is at or after \p Since.
  std::map<std::string, uint64_t> selfNanosByModule(uint64_t Since = 0) const;
  /// Total inclusive nanoseconds of spans named \p Name since \p Since.
  uint64_t totalNanos(std::string_view Name, uint64_t Since = 0) const;
  /// Chrome trace-event-format JSON of every recorded span.
  std::string chromeTrace(const std::string &ProcessName) const;

private:
  int open(std::string_view Name, uint64_t Start, int &SavedParent);
  void closeSpan(int Id, uint64_t End, int SavedParent);

  bool Enabled;
  mutable std::mutex Mu;
  std::vector<Span> All;
};

/// The host a result came from: nominal cores, a measured spin-scaling
/// probe (nproc threads of a fixed spin loop vs. one thread: the speedup
/// they actually achieved), the active SIMD clock-kernel tier, and the
/// compiler and build type of the benchmark build.
struct Host {
  unsigned Nproc = 0;
  double SpinScaling = 0;
  std::string SimdTier;
  std::string Compiler;
  std::string BuildType;
};
Host probeHost();
std::string hostJson(const Host &H);

/// JSON string escaping for the few strings the benchmark prints.
std::string jsonEscape(std::string_view S);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
