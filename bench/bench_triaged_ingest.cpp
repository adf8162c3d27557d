//===- bench/bench_triaged_ingest.cpp - Fleet upload throughput -------------=/
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Many-client upload throughput of the triaged fleet service, split by
/// content type so regressions are attributable:
///
///  - summary-upload: pre-deduplicated "STSG" signature summaries — the
///    cheap path a CI shard takes; the server's cost is frame verification
///    plus a single-writer mergeRun;
///  - trace-upload: raw binary traces — the expensive path; the server runs
///    a full api::AnalysisSession (FT + SO, Always sampling) per upload
///    before merging.
///  - durable-summary: the summary path against a real TriageLog store
///    directory, fsync per upload. Reports bytes persisted per upload
///    (journal appends + compactions) next to the counterfactual
///    whole-file-rewrite cost, pinning the O(R * run) vs O(R * store)
///    I/O claim.
///
/// One in-process server on an ephemeral loopback port, N concurrent
/// client threads (--workers, default 4) partitioning one corpus of
/// related runs. Rows report uploads/s, end-to-end MB/s of body bytes, and
/// the per-event analysis rate for the trace series.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>

using namespace sampletrack;
using namespace stbench;

namespace {

uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main(int argc, char **argv) {
  Options O = Options::parse(argc, argv);
  size_t Clients = O.Workers ? O.Workers : 4;
  std::printf("== triaged: many-client ingest throughput ==\n\n");

  // One corpus of related runs: one workload shape, rotated seeds, a
  // shared racy pool — the realistic fleet input (cf. tracegen --corpus).
  const size_t Runs = static_cast<size_t>(24 * O.Scale) + 4;
  GenConfig G;
  G.NumThreads = 4;
  G.NumLocks = 6;
  G.NumVars = 128;
  G.NumEvents = static_cast<size_t>(20000 * O.Scale) + 1000;
  G.UnprotectedFraction = 0.05;
  G.RacyVars = 6;

  std::vector<std::string> TraceBodies, SummaryBodies;
  uint64_t CorpusEvents = 0;
  for (size_t I = 0; I < Runs; ++I) {
    GenConfig C = G;
    C.Seed = O.Seed + I;
    Trace T = generateWorkload(C);
    CorpusEvents += T.size();
    std::ostringstream Os(std::ios::binary);
    writeTraceBinary(Os, T);
    TraceBodies.push_back(Os.str());
    api::SessionResult R =
        api::AnalysisSession(triaged::fleetAnalysisConfig()).run(T);
    SummaryBodies.push_back(triaged::encodeSummary(R.Triage));
  }
  std::printf("corpus: %zu run(s), %llu event(s), %zu client(s)\n\n", Runs,
              static_cast<unsigned long long>(CorpusEvents), Clients);

  Table Out({"series", "uploads", "bytes", "ms", "uploads/s", "MB/s"});
  JsonReport Json("triaged", O);

  struct Series {
    const char *Name;
    triaged::WireContent Content;
    const std::vector<std::string> *Bodies;
    bool Durable;
  } AllSeries[] = {
      {"summary-upload", triaged::WireContent::SignatureSummary,
       &SummaryBodies, false},
      {"trace-upload", triaged::WireContent::BinaryTrace, &TraceBodies,
       false},
      {"durable-summary", triaged::WireContent::SignatureSummary,
       &SummaryBodies, true},
  };

  for (const Series &S : AllSeries) {
    triaged::ServerConfig Cfg;
    Cfg.NumWorkers = Clients;
    std::string StoreDir;
    if (S.Durable) {
      StoreDir = "/tmp/sampletrack_bench_triaged_store_" +
                 std::to_string(::getpid());
      std::filesystem::remove_all(StoreDir);
      Cfg.StorePath = StoreDir;
    }
    triaged::Server Server(Cfg);
    std::string Err;
    if (!Server.start(&Err)) {
      std::fprintf(stderr, "FATAL: %s\n", Err.c_str());
      return 1;
    }

    // N clients partition the corpus round-robin; unsequenced uploads —
    // throughput is the axis here, merge order is the tests' business.
    uint64_t Bytes = 0;
    for (const std::string &B : *S.Bodies)
      Bytes += B.size();
    std::vector<int> Failed(Clients, 0);
    uint64_t T0 = nowNanos();
    std::vector<std::thread> Threads;
    for (size_t W = 0; W < Clients; ++W)
      Threads.emplace_back([&, W] {
        triaged::Client C("127.0.0.1", Server.port());
        for (size_t I = W; I < S.Bodies->size(); I += Clients) {
          triaged::Client::Response Resp;
          std::string PErr;
          if (!C.post("/v1/runs", "application/x-sampletrack-upload",
                      triaged::frame(S.Content, (*S.Bodies)[I]), Resp,
                      &PErr) ||
              Resp.Status != 200)
            Failed[W] = 1;
        }
      });
    for (std::thread &T : Threads)
      T.join();
    uint64_t Nanos = nowNanos() - T0;
    triaged::ServerStats St = Server.stats();
    // What one whole-file save per upload would have written: every upload
    // rewrites the store it just produced (the pre-TriageLog behavior;
    // using the *final* size even underestimates nothing but run 1).
    uint64_t FinalStoreBytes = Server.snapshotStore().serialize().size();
    Server.stop();
    if (!StoreDir.empty())
      std::filesystem::remove_all(StoreDir);
    // The trace-upload series exercises the full request pipeline
    // (parse/decode/analyze/merge spans): its server profile is the one we
    // attach and export. The workers are joined, so the trees are quiescent.
    if (S.Content == triaged::WireContent::BinaryTrace &&
        Server.profiler()) {
      Json.attachProfile(Server.profiler()->report());
      writeTraceIfRequested(O,
                            prof::toChromeTrace(*Server.profiler(), "triaged"));
    }
    for (int F : Failed)
      if (F) {
        std::fprintf(stderr, "FATAL: %s: upload failed\n", S.Name);
        return 1;
      }

    double Ms = Nanos / 1e6;
    double UploadsPerSec = S.Bodies->size() / (Nanos / 1e9);
    double MbPerSec = (Bytes / 1e6) / (Nanos / 1e9);
    Out.addRow({S.Name, std::to_string(S.Bodies->size()),
                std::to_string(Bytes), Table::fmt(Ms),
                Table::fmt(UploadsPerSec), Table::fmt(MbPerSec)});
    if (S.Durable) {
      uint64_t Persisted = St.BytesAppended + St.BytesCompacted;
      uint64_t WholeFile = FinalStoreBytes * S.Bodies->size();
      std::printf("%s: %llu byte(s) persisted (%llu/upload, %llu "
                  "compaction(s)) vs %llu (%llu/upload) for a whole-file "
                  "save per upload\n",
                  S.Name, static_cast<unsigned long long>(Persisted),
                  static_cast<unsigned long long>(Persisted /
                                                  S.Bodies->size()),
                  static_cast<unsigned long long>(St.Compactions),
                  static_cast<unsigned long long>(WholeFile),
                  static_cast<unsigned long long>(FinalStoreBytes));
    }
    Metrics None;
    Json.addRow(S.Name, "FT+SO", 1.0,
                S.Content == triaged::WireContent::BinaryTrace ? CorpusEvents
                                                               : 0,
                Nanos, None,
                {{"uploads", S.Bodies->size()},
                 {"clients", Clients},
                 {"bytes", Bytes},
                 {"uploadsPerSec",
                  support::JsonWriter::Fixed{UploadsPerSec, 1}},
                 {"bytesPersisted", St.BytesAppended + St.BytesCompacted},
                 {"bytesPerUpload",
                  (St.BytesAppended + St.BytesCompacted) / S.Bodies->size()},
                 {"compactions", St.Compactions},
                 {"wholeFileCounterfactualBytes",
                  FinalStoreBytes * S.Bodies->size()}});
  }

  finish(Out, O);
  Json.writeIfRequested(O);
  return 0;
}
