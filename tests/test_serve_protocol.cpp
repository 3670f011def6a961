// Wire-protocol fault injection: every way a peer can violate the framing —
// truncated frames, oversized declared lengths, bad magic / version /
// message type, mid-request disconnects, slow-loris stalls — must resolve
// to a clean error classification (InvalidArgument / DataLoss /
// DeadlineExceeded) and a connection teardown. The daemon itself must
// never crash, leak a wedged thread, or stop answering other connections:
// every test ends by proving a fresh client still round-trips.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "automata/generators.hpp"
#include "automata/io.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "test_seed.hpp"
#include "util/failpoint.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace nfacount {
namespace {

using serve::Frame;
using serve::MsgType;
using serve::ReadFrame;
using serve::RegistryOptions;
using serve::ServeClient;
using serve::ServeDaemon;
using serve::ServerOptions;
using serve::SessionRegistry;
using serve::WriteFrame;
using testing_support::TestSeed;

/// Daemon + registry with one registered session, shared by the suite.
class ServeProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<SessionRegistry>(RegistryOptions());
    Rng rng(TestSeed(971));
    ASSERT_TRUE(registry_
                    ->Register("s", NfaToText(RandomNfa(5, 0.3, 0.3, rng)),
                               /*horizon=*/6, TestSeed(972), 0.3, 0.2)
                    .ok());
    ServerOptions options;
    options.read_timeout_ms = 500;  // fast slow-loris cutoff for tests
    daemon_ = std::make_unique<ServeDaemon>(registry_.get(), options);
    ASSERT_TRUE(daemon_->Start().ok());
  }

  void TearDown() override { daemon_->Stop(); }

  /// The liveness probe every fault test ends with: a fresh connection
  /// still answers a real query.
  void ExpectDaemonAlive() {
    Result<ServeClient> client = ServeClient::Connect(daemon_->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(client->Ping().ok());
    Result<double> count = client->CountAtLength("s", 3);
    EXPECT_TRUE(count.ok());
  }

  /// Opens a raw connection to the daemon.
  SocketFd RawConnect() {
    Result<SocketFd> sock = ConnectLoopback(daemon_->port());
    EXPECT_TRUE(sock.ok());
    return std::move(sock).value();
  }

  /// Reads the daemon's error reply off a raw socket and returns its
  /// embedded status code (the daemon sends a best-effort kReply before
  /// closing a protocol-violating connection).
  StatusCode ReadErrorReplyCode(const SocketFd& sock) {
    Result<Frame> reply = ReadFrame(sock);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) return StatusCode::kInternal;
    EXPECT_EQ(MsgType::kReply, reply.value().type);
    ByteReader r(reply.value().payload.data(), reply.value().payload.size());
    Status remote = Status::Ok();
    EXPECT_TRUE(serve::ReadReplyStatus(&r, &remote).ok());
    return remote.code();
  }

  std::unique_ptr<SessionRegistry> registry_;
  std::unique_ptr<ServeDaemon> daemon_;
};

TEST_F(ServeProtocolTest, BadMagicIsInvalidAndConnectionCloses) {
  SocketFd sock = RawConnect();
  const char junk[12] = {'B', 'O', 'G', 'U', 'S', '!', 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(WriteFull(sock, junk, sizeof(junk)).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, ReadErrorReplyCode(sock));
  // After the error reply the daemon hangs up: the next read is a clean
  // end-of-stream, not a hang.
  char byte = 0;
  EXPECT_EQ(StatusCode::kNotFound, ReadFull(sock, &byte, 1).code());
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, WrongVersionIsInvalid) {
  SocketFd sock = RawConnect();
  // Valid magic, version 9, type kPing, empty payload.
  const char frame[12] = {'N', 'F', 'S', 'V', 9, 0, 1, 0, 0, 0, 0, 0};
  ASSERT_TRUE(WriteFull(sock, frame, sizeof(frame)).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, ReadErrorReplyCode(sock));
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, UnknownMessageTypeIsInvalid) {
  SocketFd sock = RawConnect();
  const char frame[12] = {'N', 'F', 'S', 'V', 2, 0, 99, 0, 0, 0, 0, 0};
  ASSERT_TRUE(WriteFull(sock, frame, sizeof(frame)).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, ReadErrorReplyCode(sock));
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  SocketFd sock = RawConnect();
  // Declares a 4 GiB payload: must be refused from the header alone.
  unsigned char frame[12] = {'N', 'F', 'S', 'V', 2,    0,
                             1,   0,   0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(WriteFull(sock, frame, sizeof(frame)).ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, ReadErrorReplyCode(sock));
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, MidFrameDisconnectIsHandledQuietly) {
  {
    SocketFd sock = RawConnect();
    // Header promising 100 payload bytes, then only 10 arrive, then close:
    // the daemon's read classifies this as DataLoss and tears down.
    const char header[12] = {'N', 'F', 'S', 'V', 1, 0, 3, 0, 100, 0, 0, 0};
    ASSERT_TRUE(WriteFull(sock, header, sizeof(header)).ok());
    const char partial[10] = {0};
    ASSERT_TRUE(WriteFull(sock, partial, sizeof(partial)).ok());
  }  // destructor closes mid-frame
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, GarbagePayloadIsDataLossReply) {
  SocketFd sock = RawConnect();
  // A well-framed kCount whose payload is not a decodable CountRequest.
  ASSERT_TRUE(WriteFrame(sock, MsgType::kCount, "garbage-bytes").ok());
  EXPECT_EQ(StatusCode::kDataLoss, ReadErrorReplyCode(sock));
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, TrailingBytesInPayloadAreDataLoss) {
  SocketFd sock = RawConnect();
  serve::CountRequest req;
  req.name = "s";
  req.length = 3;
  std::string payload = serve::EncodeCount(req) + "extra";
  ASSERT_TRUE(WriteFrame(sock, MsgType::kCount, payload).ok());
  EXPECT_EQ(StatusCode::kDataLoss, ReadErrorReplyCode(sock));
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, SlowLorisIsCutOffByReadTimeout) {
  SocketFd sock = RawConnect();
  // Half a header, then stall. The daemon's 500 ms receive timeout must
  // cut the connection off rather than pinning a thread forever.
  const char half[6] = {'N', 'F', 'S', 'V', 1, 0};
  ASSERT_TRUE(WriteFull(sock, half, sizeof(half)).ok());
  // The daemon sends a DeadlineExceeded reply and closes; reading until
  // end-of-stream must terminate well within the test timeout.
  std::string drained;
  char byte = 0;
  for (int i = 0; i < 1 << 20; ++i) {
    Status read = ReadFull(sock, &byte, 1);
    if (!read.ok()) break;
    drained.push_back(byte);
  }
  // Whatever arrived, the socket is now closed — and the daemon is free.
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, ClientDeathMidFrameViaInjectedFault) {
  {
    SocketFd sock = RawConnect();
    serve::CountRequest req;
    req.name = "s";
    req.length = 3;
    // The net.write failpoint truncates our request frame partway,
    // simulating a peer process dying mid-send.
    ASSERT_TRUE(failpoint::Set("net.write", "short-write(15):1").ok());
    Status sent = WriteFrame(sock, MsgType::kCount, serve::EncodeCount(req));
    failpoint::Clear("net.write");
    EXPECT_EQ(StatusCode::kUnavailable, sent.code());
    EXPECT_GE(failpoint::Hits("net.write"), 1);
  }  // close with the daemon mid-read of our frame
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, ImmediateDisconnectIsQuiet) {
  for (int i = 0; i < 8; ++i) {
    SocketFd sock = RawConnect();
    ASSERT_TRUE(sock.valid());
  }  // open/close churn, no bytes sent
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, ReplyTypeFromClientIsRejected) {
  SocketFd sock = RawConnect();
  ASSERT_TRUE(WriteFrame(sock, MsgType::kReply, "").ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, ReadErrorReplyCode(sock));
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, AbsurdSampleCountsAreCleanErrors) {
  Result<ServeClient> client = ServeClient::Connect(daemon_->port());
  ASSERT_TRUE(client.ok());
  // 2^60 words can neither be allocated nor fit one reply frame: the
  // daemon must refuse at the dispatch boundary, not die in the sampler's
  // reserve (bad_alloc) or overflow the rejection-attempt budget.
  EXPECT_EQ(
      StatusCode::kResourceExhausted,
      client->SampleWords("s", 3, int64_t{1} << 60).status().code());
  // A count that fits the frame but exceeds the session's per-call draw
  // cap is rejected by the session layer instead.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            client->SampleWords("s", 3, EngineSession::kMaxDrawsPerCall + 1)
                .status()
                .code());
  EXPECT_EQ(StatusCode::kInvalidArgument,
            client->SampleWords("s", 3, -5).status().code());
  // Application-level rejections keep the connection usable.
  Result<serve::SampleResult> small = client->SampleWords("s", 3, 2);
  EXPECT_TRUE(small.ok() ||
              small.status().code() == StatusCode::kNotFound);
  EXPECT_TRUE(client->Ping().ok());
  ExpectDaemonAlive();
}

TEST_F(ServeProtocolTest, RequestsOnUnknownSessionsAreCleanErrors) {
  Result<ServeClient> client = ServeClient::Connect(daemon_->port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(StatusCode::kNotFound,
            client->CountAtLength("missing", 3).status().code());
  EXPECT_EQ(StatusCode::kNotFound,
            client->SampleWords("missing", 3, 1).status().code());
  // The connection survives application-level errors (unlike framing
  // violations): the same client keeps working.
  EXPECT_TRUE(client->Ping().ok());
  Result<double> count = client->CountAtLength("s", 3);
  EXPECT_TRUE(count.ok());
  // Malformed register via the typed client: bad name, clean error.
  serve::RegisterRequest req;
  req.name = "../../etc/passwd";
  req.nfa_text = "nfa 1 1\ninitial 0\naccepting 0\n";
  req.horizon = 2;
  EXPECT_EQ(StatusCode::kInvalidArgument, client->Register(req).code());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServeProtocolTest, SampleBudgetRejectsSmallestOversizeBeforeDrawing) {
  // A reply word costs 4 + 2 * length bytes (u32 size + u16 symbols). At
  // length 30 the smallest count whose reply cannot fit one frame is
  // within the session's per-call draw cap, so only the dispatch gate
  // stands between it and 2^20 draws that the frame limit then discards.
  constexpr int kLength = 30;
  const int64_t budget = int64_t{serve::kMaxPayloadBytes} - 64;
  const int64_t smallest_rejected = budget / (4 + 2 * kLength) + 1;
  ASSERT_LE(smallest_rejected, EngineSession::kMaxDrawsPerCall);
  // Every binary word: one state, so a length-30 sweep is cheap.
  const std::string text =
      "nfa 1 2\ninitial 0\naccepting 0\ntrans 0 0 0\ntrans 0 1 0\n";
  ASSERT_TRUE(
      registry_->Register("long", text, kLength, TestSeed(973), 0.9, 0.5)
          .ok());
  Result<ServeClient> client = ServeClient::Connect(daemon_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->CountAtLength("long", kLength).ok());
  // A zero-word draw reports the cursor without moving it.
  Result<serve::SampleResult> before = client->SampleWords("long", kLength, 0);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Result<serve::SampleResult> oversize =
      client->SampleWords("long", kLength, smallest_rejected);
  ASSERT_FALSE(oversize.ok());
  EXPECT_EQ(oversize.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(oversize.status().message().find("request fewer words"),
            std::string::npos)
      << oversize.status().ToString();

  Result<serve::SampleResult> after = client->SampleWords("long", kLength, 0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->cursor_start, after->cursor_start);
  ExpectDaemonAlive();
}

}  // namespace
}  // namespace nfacount
