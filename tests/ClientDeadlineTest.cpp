//===- tests/ClientDeadlineTest.cpp - Client I/O deadline tests ------------=//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
//
// The triaged::Client must never park a CI shard on a stalled peer. Each
// test here stands up a deliberately hostile fake server — accepts and
// never answers, answers half a header and stalls, or never accepts at all
// — and asserts the round-trip fails in bounded time with a "timed out"
// transport error. Before the poll()-based deadlines these scenarios hung
// the old recv-until-EOF loop forever. A canned one-shot server also feeds
// the client malformed answers: a garbage status line, and run records
// whose counters are not non-negative integers.
//
//===----------------------------------------------------------------------===//

#include "sampletrack/triaged/Client.h"

#include "gtest/gtest.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace sampletrack;
using Clock = std::chrono::steady_clock;

namespace {

/// A loopback listener whose accept loop is scripted per test: it reads
/// the request (so the client's send completes) and then either stalls
/// silently or dribbles a partial response before stalling. close() both
/// unblocks the accept loop and ends every open conversation.
class StallingServer {
public:
  enum class Script {
    AcceptThenStall,    // Read the request, never write a byte.
    PartialHeaderStall, // Write half a status line, then go silent.
  };

  explicit StallingServer(Script S) : S(S) {
    ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(ListenFd, 0) << std::strerror(errno);
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = 0; // Ephemeral.
    EXPECT_EQ(::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)),
              0)
        << std::strerror(errno);
    socklen_t Len = sizeof(Addr);
    EXPECT_EQ(::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                            &Len),
              0);
    BoundPort = ntohs(Addr.sin_port);
    EXPECT_EQ(::listen(ListenFd, 8), 0);
    Acceptor = std::thread([this] { run(); });
  }

  ~StallingServer() { close(); }

  uint16_t port() const { return BoundPort; }

  void close() {
    if (Closing.exchange(true))
      return;
    ::shutdown(ListenFd, SHUT_RDWR);
    ::close(ListenFd);
    if (Acceptor.joinable())
      Acceptor.join();
    for (int Fd : Conns)
      ::close(Fd);
    Conns.clear();
  }

private:
  void run() {
    while (!Closing.load()) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        return; // close() shut the listener down.
      // Drain whatever request arrives so the client's send phase
      // succeeds and it is squarely inside the receive phase when we
      // stall.
      char Buf[4096];
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      (void)N;
      if (S == Script::PartialHeaderStall) {
        const char Half[] = "HTTP/1.1 20"; // Mid-status-code, no CRLF.
        (void)!::send(Fd, Half, sizeof(Half) - 1, MSG_NOSIGNAL);
      }
      Conns.push_back(Fd); // Keep open: the stall, not a RST.
    }
  }

  Script S;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::thread Acceptor;
  std::vector<int> Conns;
  std::atomic<bool> Closing{false};
};

/// Asserts one GET against \p Port fails within [a few ms, \p BoundMillis]
/// and that the error names a timeout.
void expectBoundedTimeout(uint16_t Port, uint64_t RecvTimeoutMillis,
                          uint64_t BoundMillis) {
  triaged::Client C("127.0.0.1", Port);
  C.Config.RecvTimeoutMillis = RecvTimeoutMillis;
  C.Config.ConnectTimeoutMillis = BoundMillis;
  C.Config.SendTimeoutMillis = BoundMillis;
  triaged::Client::Response R;
  std::string Err;
  Clock::time_point T0 = Clock::now();
  bool Ok = C.get("/v1/stats", R, &Err);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - T0)
                .count();
  EXPECT_FALSE(Ok) << "a silent server must be a transport failure";
  EXPECT_NE(Err.find("timed out"), std::string::npos) << Err;
  // Generous upper bound: the deadline plus scheduler slack, far below
  // the forever the pre-deadline client would have taken.
  EXPECT_LT(Ms, static_cast<long long>(BoundMillis))
      << "round-trip did not respect the receive deadline: " << Err;
}

TEST(ClientDeadlineTest, RecvDeadlineOnSilentServer) {
  StallingServer Srv(StallingServer::Script::AcceptThenStall);
  expectBoundedTimeout(Srv.port(), /*RecvTimeoutMillis=*/100,
                       /*BoundMillis=*/5000);
}

TEST(ClientDeadlineTest, RecvDeadlineCoversPartialHeaderDrip) {
  // A peer that sends *some* bytes then stalls must hit the same overall
  // deadline — the budget is per response, not per recv.
  StallingServer Srv(StallingServer::Script::PartialHeaderStall);
  expectBoundedTimeout(Srv.port(), /*RecvTimeoutMillis=*/100,
                       /*BoundMillis=*/5000);
}

TEST(ClientDeadlineTest, UploadRetriesStillBounded) {
  // The retry loop multiplies the per-attempt deadline; with short
  // timeouts and two attempts the whole upload must still fail fast and
  // carry the timeout in its final error.
  StallingServer Srv(StallingServer::Script::AcceptThenStall);
  triaged::Client C("127.0.0.1", Srv.port());
  C.Config.RecvTimeoutMillis = 80;
  C.Retry.MaxAttempts = 2;
  C.Retry.BaseDelayMillis = 10;
  C.Retry.MaxDelayMillis = 20;
  C.Retry.JitterSeed = 7;
  Trace T;
  triaged::UploadOutcome Up;
  std::string Err;
  Clock::time_point T0 = Clock::now();
  EXPECT_FALSE(C.uploadTrace(T, Up, &Err));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - T0)
                .count();
  EXPECT_NE(Err.find("timed out"), std::string::npos) << Err;
  EXPECT_LT(Ms, 5000) << Err;
}

/// A one-shot loopback "server": accepts one connection, reads one whole
/// request, answers \p Response verbatim and closes.
class CannedServer {
public:
  explicit CannedServer(std::string Response) {
    ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(ListenFd, 0) << std::strerror(errno);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)),
              0);
    socklen_t Len = sizeof(Addr);
    EXPECT_EQ(
        ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len),
        0);
    BoundPort = ntohs(Addr.sin_port);
    EXPECT_EQ(::listen(ListenFd, 1), 0);
    Responder = std::thread([this, Response = std::move(Response)] {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        return;
      // Read through the end of the body, so closing never resets a client
      // that is still sending.
      std::string Req;
      size_t Need = std::string::npos;
      char Buf[4096];
      while (Req.size() < Need) {
        ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
        if (N <= 0)
          break;
        Req.append(Buf, static_cast<size_t>(N));
        size_t HeadEnd = Req.find("\r\n\r\n");
        if (HeadEnd == std::string::npos)
          continue;
        size_t Cl = Req.find("Content-Length: ");
        Need = HeadEnd + 4 +
               (Cl < HeadEnd ? std::strtoull(Req.c_str() + Cl + 16, nullptr, 10)
                             : 0);
      }
      (void)!::send(Fd, Response.data(), Response.size(), MSG_NOSIGNAL);
      ::close(Fd);
    });
  }
  ~CannedServer() {
    Responder.join();
    ::close(ListenFd);
  }

  uint16_t port() const { return BoundPort; }

private:
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::thread Responder;
};

TEST(ClientDeadlineTest, StatusParseRejectsGarbage) {
  // A "server" that answers a non-numeric status code: the bounds-checked
  // parse must report a malformed status, not atoi it to 0.
  CannedServer S("HTTP/1.1 XYZ Nope\r\nContent-Length: 0\r\n\r\n");
  triaged::Client C("127.0.0.1", S.port());
  C.Config.RecvTimeoutMillis = 2000;
  triaged::Client::Response R;
  std::string Err;
  EXPECT_FALSE(C.get("/v1/stats", R, &Err));
  EXPECT_NE(Err.find("status"), std::string::npos) << Err;
}

TEST(ClientDeadlineTest, UploadRejectsMalformedRunRecord) {
  // A 200 whose run record is not what the server renders: the client must
  // reject it, not read a string or a negative number as a run index.
  auto Record = [](const std::string &Run) {
    return "{\"run\": " + Run +
           ", \"runId\": \"r\", \"deduplicated\": false, \"declared\": 3, "
           "\"distinct\": 1, \"new\": 1, \"known\": 0, \"regressed\": 0, "
           "\"suppressed\": 0, \"newRaces\": [], \"regressedRaces\": []}\n";
  };
  auto Upload = [](const std::string &Body, triaged::UploadOutcome &Up,
                   std::string &Err) {
    CannedServer S("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                   "Content-Length: " +
                   std::to_string(Body.size()) + "\r\n\r\n" + Body);
    triaged::Client C("127.0.0.1", S.port());
    C.Config.RecvTimeoutMillis = 2000;
    return C.uploadSummary(triage::TriageSummary{}, Up, &Err);
  };

  triaged::UploadOutcome Up;
  std::string Err;
  ASSERT_TRUE(Upload(Record("7"), Up, Err)) << Err;
  EXPECT_EQ(Up.Run, 7u);
  EXPECT_EQ(Up.Declared, 3u);

  for (const char *Run : {"\"x\"", "-1"}) {
    Err.clear();
    EXPECT_FALSE(Upload(Record(Run), Up, Err)) << "run " << Run;
    EXPECT_NE(Err.find("malformed upload response"), std::string::npos)
        << Err;
  }
}

} // namespace
