// Wire-protocol robustness: frame encode/decode round-trips, every malformed
// input class (truncation, bad magic/version, CRC mismatch, oversized length
// prefix), payload-codec bounds checks, and a live-server section proving
// garbage on the socket yields clean error responses or connection close —
// never a crash. Runs under the "net" ctest label (ASan/TSan targets).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "database.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace mb2::net {
namespace {

// --- FrameDecoder units -----------------------------------------------------

TEST(FrameCodec, RoundtripSingleAndChunked) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 0xff, 0x00, 0x7f};
  const std::vector<uint8_t> bytes =
      EncodeFrame(static_cast<uint16_t>(Opcode::kSqlQuery), 42, payload);
  ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(frame.Op(), Opcode::kSqlQuery);
  EXPECT_FALSE(frame.IsResponse());
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kNeedMore);

  // Byte-at-a-time feed must produce the identical frame.
  FrameDecoder trickle;
  Frame frame2;
  for (size_t i = 0; i < bytes.size(); i++) {
    if (i + 1 < bytes.size()) {
      trickle.Feed(&bytes[i], 1);
      ASSERT_EQ(trickle.Next(&frame2), FrameDecoder::Outcome::kNeedMore);
    } else {
      trickle.Feed(&bytes[i], 1);
      ASSERT_EQ(trickle.Next(&frame2), FrameDecoder::Outcome::kFrame);
    }
  }
  EXPECT_EQ(frame2.payload, payload);
}

TEST(FrameCodec, BackToBackFramesAndResponseBit) {
  std::vector<uint8_t> stream;
  for (uint64_t id = 1; id <= 3; id++) {
    const auto f = EncodeFrame(
        static_cast<uint16_t>(Opcode::kPing) | kResponseBit, id, {});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  for (uint64_t id = 1; id <= 3; id++) {
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kFrame);
    EXPECT_TRUE(frame.IsResponse());
    EXPECT_EQ(frame.Op(), Opcode::kPing);
    EXPECT_EQ(frame.request_id, id);
  }
}

TEST(FrameCodec, BadMagicAndBadVersion) {
  auto bytes = EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 7, {});
  bytes[0] ^= 0x5a;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kBadMagic);

  auto bytes2 = EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 7, {});
  bytes2[4] = 0x7e;  // version
  FrameDecoder decoder2;
  decoder2.Feed(bytes2.data(), bytes2.size());
  EXPECT_EQ(decoder2.Next(&frame), FrameDecoder::Outcome::kBadVersion);
}

TEST(FrameCodec, CrcMismatchKeepsHeaderAndStream) {
  const std::vector<uint8_t> payload = {9, 9, 9, 9};
  auto bad = EncodeFrame(static_cast<uint16_t>(Opcode::kSleep), 11, payload);
  bad[kHeaderBytes + 1] ^= 0xff;  // corrupt the payload
  const auto good = EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 12, {});

  FrameDecoder decoder;
  decoder.Feed(bad.data(), bad.size());
  decoder.Feed(good.data(), good.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kBadCrc);
  // Header fields survive so a server can still address an error response...
  EXPECT_EQ(frame.Op(), Opcode::kSleep);
  EXPECT_EQ(frame.request_id, 11u);
  // ...and the stream stays consistent: the next frame parses normally.
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(frame.request_id, 12u);
}

TEST(FrameCodec, OversizedLengthPrefixRejectedBeforeBuffering) {
  auto bytes = EncodeFrame(static_cast<uint16_t>(Opcode::kSqlQuery), 13, {});
  const uint32_t huge = 1u << 30;
  std::memcpy(bytes.data() + 16, &huge, 4);
  FrameDecoder decoder;  // default 16 MiB ceiling
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kOversized);
  EXPECT_EQ(frame.request_id, 13u);
}

TEST(FrameCodec, TruncatedHeaderAndPayloadNeedMore) {
  const auto bytes =
      EncodeFrame(static_cast<uint16_t>(Opcode::kSqlQuery), 1, {1, 2, 3});
  Frame frame;
  for (size_t cut = 0; cut < bytes.size(); cut++) {
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), cut);
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kNeedMore);
  }
}

// --- Payload codecs ---------------------------------------------------------

TEST(PayloadCodec, SqlRequestRoundtripAndTrailingBytesRejected) {
  const std::string sql = "SELECT * FROM t WHERE a = 'x;y'";
  std::string decoded;
  ASSERT_TRUE(DecodeMessage(EncodeRequest(sql), 0, &decoded));
  EXPECT_EQ(decoded, sql);

  auto padded = EncodeRequest(sql);
  padded.push_back(0);
  EXPECT_FALSE(DecodeMessage(padded, 0, &decoded));
  EXPECT_FALSE(DecodeMessage({1, 2}, 0, &decoded));  // truncated length
}

TEST(PayloadCodec, PredictRequestRoundtripBitExact) {
  std::vector<TranslatedOu> ous;
  ous.push_back({OuType::kSeqScan, {1.0, -0.0, 1e-308, 3.5, 0.0, 1.0, 0.0}});
  ous.push_back({OuType::kTxnCommit, {7.25}});
  std::vector<TranslatedOu> decoded;
  ASSERT_TRUE(DecodeMessage(EncodeRequest(ous), 0, &decoded));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, OuType::kSeqScan);
  ASSERT_EQ(decoded[0].features.size(), 7u);
  // Bit-exact, including the -0.0.
  EXPECT_EQ(std::memcmp(decoded[0].features.data(), ous[0].features.data(),
                        7 * sizeof(double)),
            0);
  EXPECT_EQ(decoded[1].features[0], 7.25);
}

TEST(PayloadCodec, PredictRequestRejectsHostileInput) {
  std::vector<TranslatedOu> decoded;
  // Unknown OU type byte.
  std::vector<uint8_t> bad = EncodeRequest(std::vector<TranslatedOu>{{OuType::kSeqScan, {1.0}}});
  bad[4] = 0xee;
  EXPECT_FALSE(DecodeMessage(bad, 0, &decoded));
  // Count that the remaining bytes cannot possibly hold.
  ByteWriter w;
  w.Put<uint32_t>(0x00ffffff);
  EXPECT_FALSE(DecodeMessage(w.Take(), 0, &decoded));
  // Truncated feature vector.
  auto truncated = EncodeRequest(
      std::vector<TranslatedOu>{{OuType::kSeqScan, {1.0, 2.0}}});
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DecodeMessage(truncated, 0, &decoded));
}

TEST(PayloadCodec, SqlResponseRoundtripAllValueTypes) {
  SqlResponseBody body;
  body.elapsed_us = 123.5;
  body.aborted = true;
  body.rows.push_back(
      {Value::Integer(-7), Value::Double(2.5), Value::Varchar("hello")});
  body.rows.push_back({Value::Varchar("")});
  const auto payload = EncodeResponse(body);

  WireCode code;
  std::string message;
  size_t offset;
  ASSERT_TRUE(DecodeResponseHead(payload, &code, &message, &offset));
  EXPECT_EQ(code, WireCode::kOk);
  SqlResponseBody out;
  ASSERT_TRUE(DecodeMessage(payload, offset, &out));
  EXPECT_EQ(out.elapsed_us, 123.5);
  EXPECT_TRUE(out.aborted);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0][0].AsInt(), -7);
  EXPECT_EQ(out.rows[0][1].AsDouble(), 2.5);
  EXPECT_EQ(out.rows[0][2].AsVarchar(), "hello");
  EXPECT_EQ(out.rows[1][0].AsVarchar(), "");
}

TEST(PayloadCodec, PredictResponseRoundtripBitExact) {
  PredictResponseBody body;
  body.degraded_ous = 3;
  Labels a{};
  for (size_t j = 0; j < kNumLabels; j++) a[j] = 0.1 * static_cast<double>(j);
  body.per_ou = {a, Labels{}};
  const auto payload = EncodeResponse(body);

  WireCode code;
  std::string message;
  size_t offset;
  ASSERT_TRUE(DecodeResponseHead(payload, &code, &message, &offset));
  PredictResponseBody out;
  ASSERT_TRUE(DecodeMessage(payload, offset, &out));
  EXPECT_EQ(out.degraded_ous, 3u);
  ASSERT_EQ(out.per_ou.size(), 2u);
  EXPECT_EQ(std::memcmp(out.per_ou[0].data(), a.data(), sizeof(Labels)), 0);
  // Truncated body rejected.
  auto cut = payload;
  cut.resize(cut.size() - 1);
  EXPECT_FALSE(DecodeMessage(cut, offset, &out));
}

TEST(PayloadCodec, StatusResponseAndErrorMapping) {
  const auto payload =
      EncodeStatusResponse(WireCode::kDeadlineExceeded, "too slow");
  WireCode code;
  std::string message;
  size_t offset;
  ASSERT_TRUE(DecodeResponseHead(payload, &code, &message, &offset));
  EXPECT_EQ(code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(message, "too slow");
  const Status s = WireCodeToStatus(code, message);
  EXPECT_EQ(s.code(), ErrorCode::kAborted);
  EXPECT_NE(s.message().find("DEADLINE_EXCEEDED"), std::string::npos);

  // An out-of-range code byte is malformed, not misinterpreted.
  ByteWriter w;
  w.Put<uint16_t>(999);
  w.PutString("x");
  EXPECT_FALSE(DecodeResponseHead(w.Take(), &code, &message, &offset));
}

// --- Live-server robustness -------------------------------------------------

class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0;
    timeval tv{0, 500000};  // DrainToEof returns on timeout for
                            // connections the server leaves open
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawSocket() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }
  void Send(const void *data, size_t len) {
    ASSERT_EQ(send(fd_, data, len, MSG_NOSIGNAL), static_cast<ssize_t>(len));
  }
  /// Reads until EOF or timeout; returns everything received.
  std::vector<uint8_t> DrainToEof() {
    std::vector<uint8_t> out;
    uint8_t buf[4096];
    while (true) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.insert(out.end(), buf, buf + n);
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class NetProtocolLiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ServerOptions opts;
    opts.num_reactors = 2;
    ASSERT_TRUE(db_->settings().SetInt("net_worker_threads", 2).ok());
    server_ = std::make_unique<Server>(db_.get(), nullptr, opts);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    server_->Stop();
  }

  Status PingServer() {
    ClientOptions copts;
    copts.port = server_->port();
    copts.retry.max_attempts = 2;
    Client client(copts);
    return client.Ping();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetProtocolLiveTest, GarbageBytesCloseConnectionServerSurvives) {
  RawSocket raw(server_->port());
  ASSERT_TRUE(raw.connected());
  const char garbage[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  raw.Send(garbage, sizeof(garbage) - 1);
  // Bad magic: the server closes without answering.
  EXPECT_TRUE(raw.DrainToEof().empty());
  EXPECT_TRUE(PingServer().ok());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetProtocolLiveTest, CrcMismatchGetsErrorResponseThenClose) {
  auto bytes = EncodeFrame(static_cast<uint16_t>(Opcode::kPing), 77, {1, 2, 3});
  bytes[kHeaderBytes] ^= 0xff;
  RawSocket raw(server_->port());
  ASSERT_TRUE(raw.connected());
  raw.Send(bytes.data(), bytes.size());
  const std::vector<uint8_t> reply = raw.DrainToEof();  // response, then EOF
  ASSERT_GE(reply.size(), kHeaderBytes);
  FrameDecoder decoder;
  decoder.Feed(reply.data(), reply.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kFrame);
  EXPECT_TRUE(frame.IsResponse());
  EXPECT_EQ(frame.request_id, 77u);
  WireCode code;
  std::string message;
  size_t offset;
  ASSERT_TRUE(DecodeResponseHead(frame.payload, &code, &message, &offset));
  EXPECT_EQ(code, WireCode::kBadRequest);
  EXPECT_TRUE(PingServer().ok());
}

TEST_F(NetProtocolLiveTest, OversizedLengthGetsErrorResponseThenClose) {
  auto bytes = EncodeFrame(static_cast<uint16_t>(Opcode::kSqlQuery), 88, {});
  const uint32_t huge = 512u << 20;
  std::memcpy(bytes.data() + 16, &huge, 4);
  RawSocket raw(server_->port());
  ASSERT_TRUE(raw.connected());
  raw.Send(bytes.data(), bytes.size());
  const std::vector<uint8_t> reply = raw.DrainToEof();
  ASSERT_GE(reply.size(), kHeaderBytes);
  FrameDecoder decoder;
  decoder.Feed(reply.data(), reply.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(frame.request_id, 88u);
  WireCode code;
  std::string message;
  size_t offset;
  ASSERT_TRUE(DecodeResponseHead(frame.payload, &code, &message, &offset));
  EXPECT_EQ(code, WireCode::kBadRequest);
  EXPECT_TRUE(PingServer().ok());
}

TEST_F(NetProtocolLiveTest, UndecodableOpcodePayloadsAnswerBadRequest) {
  // Valid frames whose payloads do not decode must produce clean
  // BAD_REQUEST responses, not crashes.
  for (Opcode op : {Opcode::kSqlQuery, Opcode::kPredictOus, Opcode::kSleep}) {
    RawSocket raw(server_->port());
    ASSERT_TRUE(raw.connected());
    const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe};
    const auto bytes = EncodeFrame(static_cast<uint16_t>(op), 5, junk);
    raw.Send(bytes.data(), bytes.size());
    const std::vector<uint8_t> reply = raw.DrainToEof();
    ASSERT_GE(reply.size(), kHeaderBytes) << OpcodeName(op);
    FrameDecoder decoder;
    decoder.Feed(reply.data(), reply.size());
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Outcome::kFrame);
    WireCode code;
    std::string message;
    size_t offset;
    ASSERT_TRUE(DecodeResponseHead(frame.payload, &code, &message, &offset));
    EXPECT_EQ(code, WireCode::kBadRequest) << OpcodeName(op);
  }
  EXPECT_TRUE(PingServer().ok());
}

TEST_F(NetProtocolLiveTest, MiniFuzzRandomBytesNeverCrash) {
  Rng rng(0xf022);
  for (int iter = 0; iter < 120; iter++) {
    RawSocket raw(server_->port());
    ASSERT_TRUE(raw.connected());
    const size_t len = rng.Next() % 600;
    std::vector<uint8_t> bytes(len);
    for (auto &b : bytes) b = static_cast<uint8_t>(rng.Next());
    // Half the time, lead with a valid magic+version so the fuzz reaches
    // the deeper header/payload handling instead of dying at the magic.
    if (len >= 8 && (rng.Next() & 1) != 0) {
      std::memcpy(bytes.data(), &kWireMagic, 4);
      const uint16_t v = kWireVersion;
      std::memcpy(bytes.data() + 4, &v, 2);
    }
    if (!bytes.empty()) raw.Send(bytes.data(), bytes.size());
    // Connection outcome is irrelevant; the server must stay alive.
  }
  EXPECT_TRUE(PingServer().ok());
}

}  // namespace
}  // namespace mb2::net
