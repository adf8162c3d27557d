//===- perfbench/src/Common.cpp - Shared benchmark plumbing ----------------==//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "sampletrack/support/simd/ClockKernels.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double perfbench::cpuSeconds() {
  double Sum = 0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage U{};
    getrusage(Who, &U);
    Sum += U.ru_utime.tv_sec + U.ru_utime.tv_usec / 1e6 + U.ru_stime.tv_sec +
           U.ru_stime.tv_usec / 1e6;
  }
  return Sum;
}

uint64_t perfbench::processCpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1'000'000'000 + T.tv_nsec;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // Linux reports KiB.
}

std::string perfbench::inChild(const std::function<std::string()> &F) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return "";
  pid_t Pid = fork();
  if (Pid == 0) {
    close(Fd[0]);
    std::string Out = F();
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t N = write(Fd[1], Out.data() + Off, Out.size() - Off);
      if (N <= 0)
        _exit(1);
      Off += N;
    }
    _exit(0);
  }
  close(Fd[1]);
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while (Pid > 0 && (N = read(Fd[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, N);
  close(Fd[0]);
  int Status = 0;
  if (Pid < 0 || waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return "";
  return Out;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

double perfbench::relativeSpread(const std::vector<double> &V) {
  return ratio(quantile(V, 0.75) - quantile(V, 0.25), median(V));
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (auto &M : Metrics)
    if (M.first == Name) {
      M.second = {Value, Unit};
      return;
    }
  Metrics.push_back({Name, {Value, Unit}});
}

const double *Result::find(const std::string &Name) const {
  for (const auto &M : Metrics)
    if (M.first == Name)
      return &M.second.first;
  return nullptr;
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok)
    fail(What);
}

void Result::fail(const std::string &What) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(What);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {

/// The calling thread's innermost open span (index into Spans::All).
thread_local int CurrentSpan = -1;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

std::string_view moduleOf(std::string_view Name) {
  return Name.substr(0, Name.find('/'));
}

} // namespace

Spans::Scope::Scope(Spans &Sp, std::string_view Name) {
  if (!Sp.Enabled)
    return;
  S = &Sp;
  Start = nowNs();
  Id = Sp.open(Name, Start, SavedParent);
}

uint64_t Spans::Scope::close() {
  if (!S)
    return 0;
  uint64_t End = nowNs();
  S->closeSpan(Id, End, SavedParent);
  S = nullptr;
  return End - Start;
}

int Spans::open(std::string_view Name, uint64_t Start, int &SavedParent) {
  std::lock_guard<std::mutex> L(Mu);
  SavedParent = CurrentSpan;
  All.push_back({std::string(Name), threadIndex(), Start, Start, CurrentSpan});
  CurrentSpan = static_cast<int>(All.size() - 1);
  return CurrentSpan;
}

void Spans::closeSpan(int Id, uint64_t End, int SavedParent) {
  std::lock_guard<std::mutex> L(Mu);
  All[Id].End = End;
  CurrentSpan = SavedParent;
}

void Spans::add(std::string_view Name, uint64_t Start, uint64_t End) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> L(Mu);
  All.push_back({std::string(Name), threadIndex(), Start, End, CurrentSpan});
}

std::map<std::string, uint64_t>
Spans::selfNanosByModule(uint64_t Since) const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<uint64_t> ChildNanos(All.size(), 0);
  for (const Span &S : All)
    if (S.Parent >= 0)
      ChildNanos[S.Parent] += S.End - S.Start;
  std::map<std::string, uint64_t> Out;
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    if (S.Start < Since)
      continue;
    uint64_t Dur = S.End - S.Start;
    Out[std::string(moduleOf(S.Name))] +=
        Dur > ChildNanos[I] ? Dur - ChildNanos[I] : 0;
  }
  return Out;
}

uint64_t Spans::totalNanos(std::string_view Name, uint64_t Since) const {
  std::lock_guard<std::mutex> L(Mu);
  uint64_t Sum = 0;
  for (const Span &S : All)
    if (S.Start >= Since && S.Name == Name)
      Sum += S.End - S.Start;
  return Sum;
}

std::string Spans::chromeTrace(const std::string &ProcessName) const {
  std::lock_guard<std::mutex> L(Mu);
  uint64_t Epoch = UINT64_MAX;
  for (const Span &S : All)
    Epoch = std::min(Epoch, S.Start);
  std::string Out = "{\"traceEvents\": [\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                jsonEscape(ProcessName).c_str());
  Out += Buf;
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::snprintf(Buf, sizeof(Buf),
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  jsonEscape(S.Name).c_str(),
                  jsonEscape(moduleOf(S.Name)).c_str(), S.Thread,
                  (S.Start - Epoch) / 1e3, (S.End - S.Start) / 1e3, I,
                  S.Parent);
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Host descriptor
//===----------------------------------------------------------------------===//

namespace {

/// A fixed amount of integer work the optimizer cannot remove.
uint64_t spin(uint64_t Iters, uint64_t Seed) {
  uint64_t X = Seed | 1;
  for (uint64_t I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

} // namespace

Host perfbench::probeHost() {
  Host H;
  H.Nproc = std::max(1u, std::thread::hardware_concurrency());
  H.SimdTier = sampletrack::simd::tierName(sampletrack::simd::activeTier());
  H.Compiler = PERFBENCH_COMPILER;
  H.BuildType = PERFBENCH_BUILD_TYPE;

  // N threads each doing the one-thread amount of work: the achieved
  // speedup is N * t1 / tN (N on an ideal host).
  constexpr uint64_t Iters = 20'000'000;
  std::atomic<uint64_t> Sink{0};
  uint64_t T0 = nowNs();
  Sink += spin(Iters, 1);
  uint64_t One = nowNs() - T0;
  std::vector<std::thread> Ts;
  T0 = nowNs();
  for (unsigned I = 0; I < H.Nproc; ++I)
    Ts.emplace_back([&, I] { Sink += spin(Iters, I + 2); });
  for (std::thread &T : Ts)
    T.join();
  uint64_t Many = nowNs() - T0;
  H.SpinScaling = ratio(double(H.Nproc) * One, double(Many));
  return H;
}

std::string perfbench::hostJson(const Host &H) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"nproc\": %u, \"spin_scaling\": %.4f, \"simd_tier\": "
                "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}",
                H.Nproc, H.SpinScaling, jsonEscape(H.SimdTier).c_str(),
                jsonEscape(H.Compiler).c_str(),
                jsonEscape(H.BuildType).c_str());
  return Buf;
}

std::string perfbench::jsonEscape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}
