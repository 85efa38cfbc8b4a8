// Unit tests for the network layer (src/net/): endpoint parsing and
// ephemeral-port binding, the NDJSON session state machine over real
// socketpairs, and the wire protocol failure modes against a real daemon
// over TCP (malformed frames, oversized frames, truncated frames, version
// handshake mismatch, client timeouts, bounded reconnect).
//
// Port-collision safety: every TCP test binds 127.0.0.1:0 and reads the
// kernel-assigned port back via net::bound_endpoint(), so the suite is safe
// under `ctest -j` with any number of concurrent TCP tests.
#include <chrono>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "mps.hpp"
#include "util/common.hpp"

namespace {

using namespace mps;
using net::Deadline;
using net::Endpoint;
using net::Session;
using net::SessionLimits;

// ---------------------------------------------------------------------------
// Endpoint

TEST(NetEndpoint, ParsesUnixForms) {
  const Endpoint abs = Endpoint::parse("/tmp/mps_test.sock");
  EXPECT_EQ(abs.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(abs.path, "/tmp/mps_test.sock");
  EXPECT_FALSE(abs.is_tcp());

  const Endpoint rel = Endpoint::parse("./daemon.sock");
  EXPECT_EQ(rel.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(rel.path, "./daemon.sock");

  // unix: prefix claims paths with no '/' (and even ones with a colon).
  const Endpoint pfx = Endpoint::parse("unix:plain.sock");
  EXPECT_EQ(pfx.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(pfx.path, "plain.sock");
}

TEST(NetEndpoint, ParsesTcpForms) {
  const Endpoint ip = Endpoint::parse("127.0.0.1:9000");
  EXPECT_EQ(ip.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(ip.host, "127.0.0.1");
  EXPECT_EQ(ip.port, 9000);

  const Endpoint named = Endpoint::parse("tcp:localhost:80");
  EXPECT_EQ(named.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(named.host, "localhost");
  EXPECT_EQ(named.port, 80);

  const Endpoint zero = Endpoint::parse("localhost:0");
  EXPECT_EQ(zero.port, 0) << "port 0 (kernel-assigned) must be accepted";
}

TEST(NetEndpoint, StrRoundTrips) {
  for (const char* text : {"/tmp/a.sock", "127.0.0.1:8080", "localhost:0"}) {
    const Endpoint ep = Endpoint::parse(text);
    const Endpoint again = Endpoint::parse(ep.str());
    EXPECT_EQ(again.kind, ep.kind) << text;
    EXPECT_EQ(again.str(), ep.str()) << text;
  }
}

TEST(NetEndpoint, RejectsMalformedText) {
  EXPECT_THROW(Endpoint::parse(""), util::Error);
  EXPECT_THROW(Endpoint::parse("host:99999"), util::Error);   // > 65535
  EXPECT_THROW(Endpoint::parse("host:notaport"), util::Error);
  EXPECT_THROW(Endpoint::parse("host:"), util::Error);
  EXPECT_THROW(Endpoint::parse(":123"), util::Error);  // empty host
  // sockaddr_un paths are length-limited (~108 bytes).
  EXPECT_THROW(Endpoint::parse("/" + std::string(200, 'x')), util::Error);
}

TEST(NetEndpoint, EphemeralPortsAreDistinctAndResolved) {
  // Two listeners on port 0: the kernel must hand out two distinct real
  // ports, and bound_endpoint() must report them (this is the helper that
  // makes parallel TCP ctests collision-free).
  const Endpoint want = Endpoint::tcp("127.0.0.1", 0);
  const int fd_a = net::listen_on(want, 4);
  const int fd_b = net::listen_on(want, 4);
  const Endpoint a = net::bound_endpoint(fd_a, want);
  const Endpoint b = net::bound_endpoint(fd_b, want);
  EXPECT_NE(a.port, 0);
  EXPECT_NE(b.port, 0);
  EXPECT_NE(a.port, b.port);
  EXPECT_EQ(a.host, "127.0.0.1");
  ::close(fd_a);
  ::close(fd_b);
}

// ---------------------------------------------------------------------------
// Session state machine (over socketpairs: no ports, no races)

struct SessionPair {
  SessionPair(const SessionLimits& limits) {
    int sv[2];
    MPS_ASSERT(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
    session = std::make_shared<Session>(sv[0], limits);
    peer_fd = sv[1];
  }
  ~SessionPair() {
    if (peer_fd >= 0) ::close(peer_fd);
  }
  void peer_write(const std::string& bytes) {
    ASSERT_EQ(net::write_all(peer_fd, bytes, Deadline::after(5.0)), net::IoStatus::Ok);
  }
  void peer_close() {
    ::close(peer_fd);
    peer_fd = -1;
  }
  std::shared_ptr<Session> session;
  int peer_fd = -1;
};

TEST(NetSession, ReadsFramesAndStripsLineEndings) {
  SessionPair p({});
  p.peer_write("first\r\nsecond\n");
  std::string line;
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(5.0)), Session::Read::Line);
  EXPECT_EQ(line, "first") << "CRLF must be stripped";
  EXPECT_TRUE(p.session->has_buffered_line());
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(5.0)), Session::Read::Line);
  EXPECT_EQ(line, "second");
}

TEST(NetSession, RejectsOversizedCompleteFrame) {
  SessionLimits limits;
  limits.max_line_bytes = 8;
  SessionPair p(limits);
  p.peer_write(std::string(32, 'x') + "\n");  // complete frame, one chunk
  std::string line;
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(5.0)), Session::Read::Oversized);
}

TEST(NetSession, RejectsOversizedStreamingFrame) {
  SessionLimits limits;
  limits.max_line_bytes = 8;
  SessionPair p(limits);
  p.peer_write(std::string(32, 'x'));  // no newline yet: reject while buffering
  std::string line;
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(5.0)), Session::Read::Oversized);
}

TEST(NetSession, ReportsEofAndDropsTruncatedFrame) {
  SessionPair p({});
  p.peer_write("{\"op\":\"ping\"");  // truncated: never newline-terminated
  p.peer_close();
  std::string line;
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(5.0)), Session::Read::Eof)
      << "a truncated trailing frame is dropped, not delivered";
}

TEST(NetSession, FrameTimeoutFiresOnSlowFrames) {
  SessionLimits limits;
  limits.frame_timeout_s = 0.05;  // slow-loris guard
  SessionPair p(limits);
  p.peer_write("stall");  // frame starts, never completes
  std::string line;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(10.0)), Session::Read::FrameTimeout);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(waited, 5.0) << "frame timeout must beat the idle budget";
}

TEST(NetSession, IdleWhenNoFrameInProgress) {
  SessionPair p({});
  std::string line;
  EXPECT_EQ(p.session->read_line(&line, Deadline::after(0.05)), Session::Read::Idle)
      << "silence with no frame under way is idleness, not a timeout error";
}

TEST(NetSession, StateMachineIsForwardOnly) {
  SessionPair p({});
  EXPECT_EQ(p.session->state(), net::SessionState::Handshake);
  p.session->advance(net::SessionState::Streaming);
  EXPECT_EQ(p.session->state(), net::SessionState::Streaming);
  p.session->advance(net::SessionState::Handshake);  // backwards: ignored
  EXPECT_EQ(p.session->state(), net::SessionState::Streaming);
  p.session->advance(net::SessionState::Draining);
  EXPECT_EQ(p.session->state(), net::SessionState::Draining);
  EXPECT_STREQ(net::session_state_name(p.session->state()), "draining");
}

TEST(NetSession, WriteLineAppendsNewline) {
  SessionPair p({});
  ASSERT_EQ(p.session->write_line("{\"ok\":true}"), net::IoStatus::Ok);
  std::string got;
  ASSERT_EQ(net::read_chunk(p.peer_fd, &got, Deadline::after(5.0)), net::IoStatus::Ok);
  EXPECT_EQ(got, "{\"ok\":true}\n");
}

// ---------------------------------------------------------------------------
// Protocol failure modes over a real TCP server

struct TcpServer {
  explicit TcpServer(svc::ServerOptions opts) : server(patch(std::move(opts))) {
    server.start();
    thread = std::thread([this] { server.run(); });
  }
  ~TcpServer() {
    server.request_drain();
    if (thread.joinable()) thread.join();
  }
  static svc::ServerOptions patch(svc::ServerOptions opts) {
    opts.listen = "127.0.0.1:0";
    if (opts.service.sched.num_threads == 0) opts.service.sched.num_threads = 1;
    return opts;
  }
  std::string address() const { return server.bound_endpoint().str(); }

  svc::Server server;
  std::thread thread;
};

/// One raw NDJSON round-trip on a pre-connected fd (for frames svc::Client
/// refuses to send).
std::string raw_roundtrip(int fd, const std::string& line) {
  if (net::write_all(fd, line + "\n", Deadline::after(5.0)) != net::IoStatus::Ok) {
    return "";
  }
  std::string buf;
  while (buf.find('\n') == std::string::npos) {
    if (net::read_chunk(fd, &buf, Deadline::after(10.0)) != net::IoStatus::Ok) return "";
  }
  return buf.substr(0, buf.find('\n'));
}

TEST(NetProtocol, VersionHandshakeAcceptsAndRejects) {
  TcpServer ts({});
  // A matching handshake succeeds (Client sends it when asked to).
  svc::ClientOptions copts;
  copts.handshake = true;
  svc::Client client(ts.address(), copts);
  const svc::Json ok = client.version();
  EXPECT_TRUE(ok.get_bool("ok", false));
  EXPECT_EQ(ok.get_int("protocol", -1), svc::kProtocolVersion);

  // A mismatched version gets kind:"version" plus the server's version, so
  // the client can say what it wanted vs what the server speaks.
  const int fd = net::connect_to(ts.server.bound_endpoint(), 5.0);
  ASSERT_GE(fd, 0);
  const std::string resp = raw_roundtrip(fd, "{\"op\":\"version\",\"protocol\":99}");
  const svc::Json j = svc::Json::parse(resp);
  EXPECT_FALSE(j.get_bool("ok", true));
  EXPECT_EQ(j.get_string("kind", ""), "version");
  EXPECT_EQ(j.get_int("protocol", -1), svc::kProtocolVersion);
  ::close(fd);
}

TEST(NetProtocol, MalformedFrameAnswersErrorAndKeepsConnection) {
  TcpServer ts({});
  const int fd = net::connect_to(ts.server.bound_endpoint(), 5.0);
  ASSERT_GE(fd, 0);
  const std::string resp = raw_roundtrip(fd, "this is not json");
  const svc::Json j = svc::Json::parse(resp);
  EXPECT_FALSE(j.get_bool("ok", true));
  // Unparseable JSON is a bad *request* (kind "parse" is reserved for a
  // well-formed request whose .g spec fails to parse).
  EXPECT_EQ(j.get_string("kind", ""), "bad_request");
  // The connection survives one bad frame: a valid ping still answers.
  const std::string pong = raw_roundtrip(fd, "{\"op\":\"ping\"}");
  EXPECT_TRUE(svc::Json::parse(pong).get_bool("ok", false));
  ::close(fd);
}

TEST(NetProtocol, OversizedFrameIsRejectedWithJsonErrorThenClosed) {
  svc::ServerOptions opts;
  opts.max_line_bytes = 1024;
  TcpServer ts(opts);
  const int fd = net::connect_to(ts.server.bound_endpoint(), 5.0);
  ASSERT_GE(fd, 0);
  const std::string resp = raw_roundtrip(fd, std::string(4096, 'x'));
  const svc::Json j = svc::Json::parse(resp);
  EXPECT_FALSE(j.get_bool("ok", true));
  EXPECT_EQ(j.get_string("kind", ""), "bad_request");
  EXPECT_NE(j.get_string("error", "").find("exceeds"), std::string::npos) << resp;
  // A peer that floods past the cap is disconnected (we cannot resync a
  // stream whose frame we discarded mid-line).  EOF or reset both qualify —
  // closing with unread bytes in the kernel buffer may RST.
  std::string rest;
  net::IoStatus st = net::read_chunk(fd, &rest, Deadline::after(5.0));
  while (st == net::IoStatus::Ok) st = net::read_chunk(fd, &rest, Deadline::after(5.0));
  EXPECT_TRUE(st == net::IoStatus::Eof || st == net::IoStatus::Error)
      << "connection must be terminated after an oversized frame";
  ::close(fd);
}

TEST(NetProtocol, TruncatedFrameDoesNotWedgeTheServer) {
  TcpServer ts({});
  {
    // Connect, send half a frame, vanish.
    const int fd = net::connect_to(ts.server.bound_endpoint(), 5.0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(net::write_all(fd, "{\"op\":\"pi", Deadline::after(5.0)), net::IoStatus::Ok);
    ::close(fd);
  }
  // The server must shrug it off and keep serving new connections.
  svc::Client client(ts.address());
  EXPECT_TRUE(client.ping().get_bool("ok", false));
}

TEST(NetProtocol, ClientRequestTimesOutAgainstSilentPeer) {
  // A listener that never accepts: connect lands in the backlog (succeeds at
  // TCP level) but no response ever comes.  The per-request io timeout must
  // turn that into a clean error instead of a hung recv.
  const Endpoint want = Endpoint::tcp("127.0.0.1", 0);
  const int listen_fd = net::listen_on(want, 4);
  const Endpoint ep = net::bound_endpoint(listen_fd, want);

  svc::ClientOptions copts;
  copts.io_timeout_s = 0.2;
  svc::Client client(ep, copts);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client.ping();
    FAIL() << "ping against a silent peer must throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("no response"), std::string::npos) << e.what();
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(waited, 5.0) << "timeout must be bounded by io_timeout_s, not hang";
  ::close(listen_fd);
}

TEST(NetProtocol, ConnectRetriesAreBoundedAndReported) {
  // Port 1 on loopback: virtually guaranteed closed -> instant refusals.
  svc::ClientOptions copts;
  copts.connect_attempts = 3;
  copts.connect_timeout_s = 1.0;
  copts.backoff_s = 0.01;
  copts.backoff_max_s = 0.02;
  try {
    svc::Client client(Endpoint::tcp("127.0.0.1", 1), copts);
    FAIL() << "connect to a closed port must throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 attempt"), std::string::npos)
        << e.what();
  }
}

TEST(NetProtocol, ServerCountsNetTraffic) {
  // Counters only record while the obs layer is on (mps_serve enables it
  // under --stats-json; tests enable it explicitly).
  obs::set_enabled(true);
  TcpServer ts({});
  svc::Client client(ts.address());
  ASSERT_TRUE(client.ping().get_bool("ok", false));
  const svc::Json stats = client.stats();
  const svc::Json* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr) << stats.dump();
  EXPECT_GE(counters->get_int("net.accepted", -1), 1) << stats.dump();
  EXPECT_GE(counters->get_int("net.requests", -1), 1) << stats.dump();
  // Counters are process-global (other tests in this binary may have
  // tripped the oversized path already) — presence, not a fixed value.
  EXPECT_GE(counters->get_int("net.oversized", -1), 0) << stats.dump();
  obs::set_enabled(false);
}

}  // namespace
