// Golden bytes for the wire format: one fixed message per request and
// response codec, with the exact bytes kWireVersion 1 puts on the wire. A
// round-trip test alone cannot catch a codec change made the same way on
// both sides (say, two fields swapped in encoder and decoder); these
// constants pin what a peer built from an older tree expects to read.
// Each message must also decode and re-encode to the same bytes.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/wire.h"

namespace mb2::net {
namespace {

std::string Hex(const std::vector<uint8_t> &bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

template <typename T>
void ExpectRequestBytes(const T &request, const std::string &golden) {
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  EXPECT_EQ(Hex(bytes), golden);
  T decoded{};
  ASSERT_TRUE(DecodeMessage(bytes, 0, &decoded));
  EXPECT_EQ(Hex(EncodeRequest(decoded)), golden);
}

template <typename T>
void ExpectResponseBytes(const T &body, const std::string &golden) {
  const std::vector<uint8_t> bytes = EncodeResponse(body);
  EXPECT_EQ(Hex(bytes), golden);
  WireCode code;
  std::string message;
  size_t offset = 0;
  ASSERT_TRUE(DecodeResponseHead(bytes, &code, &message, &offset));
  EXPECT_EQ(code, WireCode::kOk);
  EXPECT_EQ(message, "");
  T decoded{};
  ASSERT_TRUE(DecodeMessage(bytes, offset, &decoded));
  EXPECT_EQ(Hex(EncodeResponse(decoded)), golden);
}

const std::string kSql = "SELECT k, v FROM kv WHERE k = 7";

TEST(WireGoldenTest, RequestPayloads) {
  ExpectRequestBytes(kSql,
                     "1f00000053454c454354206b2c20762046524f4d206b7620574845"
                     "5245206b203d2037");
  ExpectRequestBytes(
      std::vector<TranslatedOu>{{OuType::kSeqScan, {1.0, 2.5}},
                                {OuType::kIdxScan, {-3.0}}},
      "02000000000200000000000000000000000000f03f0000000000000440010100"
      "00000000000000000000000008c0");
  ExpectRequestBytes(uint32_t{250}, "fa000000");
  ExpectRequestBytes(ReplSubscribeRequest{"replica-1", 4096},
                     "090000007265706c6963612d310010000000000000");
  ExpectRequestBytes(
      ReplFetchRequest{"replica-1", 128, 65536, 3},
      "090000007265706c6963612d3180000000000000000000010003000000000000"
      "00");
  ExpectRequestBytes(
      ReplAckRequest{"replica-1", 512, 7},
      "090000007265706c6963612d3100020000000000000700000000000000");
}

TEST(WireGoldenTest, StatusResponses) {
  EXPECT_EQ(Hex(EncodeStatusResponse(WireCode::kOk, "")), "000000000000");
  ExpectResponseBytes(NoBody{}, "000000000000");
  const std::vector<uint8_t> error = EncodeStatusResponse(
      WireCode::kDeadlineExceeded, "request expired in queue");
  EXPECT_EQ(Hex(error),
            "05001800000072657175657374206578706972656420696e207175657565");
  WireCode code;
  std::string message;
  size_t offset = 0;
  ASSERT_TRUE(DecodeResponseHead(error, &code, &message, &offset));
  EXPECT_EQ(code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(message, "request expired in queue");
  EXPECT_EQ(offset, error.size());
}

TEST(WireGoldenTest, ResponseBodies) {
  SqlResponseBody sql;
  sql.rows = {{Value::Integer(42), Value::Double(1.5), Value::Varchar("x")},
              {Value::Integer(-1)}};
  sql.elapsed_us = 12.25;
  sql.aborted = true;
  ExpectResponseBytes(
      sql,
      "00000000000000000000008028400102000000000000000300002a0000000000"
      "000001000000000000f83f020100000078010000ffffffffffffffff");

  PredictResponseBody predict;
  predict.degraded_ous = 1;
  predict.per_ou.resize(2);
  for (size_t i = 0; i < 2; i++) {
    for (size_t j = 0; j < kNumLabels; j++) {
      predict.per_ou[i][j] = 10.0 * static_cast<double>(i) +
                             static_cast<double>(j) + 0.5;
    }
  }
  ExpectResponseBytes(
      predict,
      "000000000000010000000200000000000000000000000000e03f000000000000"
      "f83f00000000000004400000000000000c400000000000001240000000000000"
      "16400000000000001a400000000000001e400000000000002140000000000000"
      "2540000000000000274000000000000029400000000000002b40000000000000"
      "2d400000000000002f4000000000008030400000000000803140000000000080"
      "3240");

  ExpectResponseBytes(std::string("{\"mb2_net_shed_total\":0}"),
                      "000000000000180000007b226d62325f6e65745f736865645f74"
                      "6f74616c223a307d");

  ExpectResponseBytes(ReplSubscribeResponseBody{8192, 5},
                      "00000000000000200000000000000500000000000000");

  ReplLogBatchBody batch;
  batch.offset = 64;
  batch.data = {1, 2, 3, 4, 5};
  batch.batch_crc = 0xdeadbeefu;
  batch.durable_tip = 99;
  batch.epoch = 2;
  ExpectResponseBytes(
      batch,
      "000000000000400000000000000063000000000000000200000000000000efbe"
      "adde050000000102030405");

  ExpectResponseBytes(
      HealthInfo{1, 3, 4096, 2048},
      "00000000000001030000000000000000100000000000000008000000000000");
}

TEST(WireGoldenTest, CtrlStatusBody) {
  CtrlStatusBody body;
  body.attached = true;
  body.running = false;
  body.status.ticks = 7;
  body.status.actions_applied = 3;
  body.status.actions_rolled_back = 1;
  body.status.rollback_failures = 0;
  body.status.ous_retrained = 2;
  body.status.templates_tracked = 5;
  body.status.queries_observed = 4242;
  body.status.last_action_us = 123456789;
  body.status.pending_verification = true;
  ctrl::Decision d;
  d.time_us = 1000;
  d.action = "SET execution_mode = 1";
  d.kind = "apply";
  d.predicted_baseline_us = 900.5;
  d.predicted_benefit_us = 150.25;
  d.observed_before_us = 880.0;
  d.observed_after_us = 0.0;
  body.status.decisions.push_back(d);
  KnobChange kc;
  kc.name = "gc_interval_us";
  kc.old_value = 1000;
  kc.new_value = 10000;
  kc.source = "controller";
  kc.time_us = 999;
  body.knob_changes.push_back(kc);
  body.knob_changes_total = 9;
  ExpectResponseBytes(
      body,
      "0000000000000100070000000000000003000000000000000100000000000000"
      "0000000000000000020000000000000005000000000000009210000000000000"
      "15cd5b07000000000101000000e8030000000000001600000053455420657865"
      "637574696f6e5f6d6f6465203d2031050000006170706c790000000000248c40"
      "0000000000c862400000000000808b400000000000000000010000000e000000"
      "67635f696e74657276616c5f75730000000000408f40000000000088c3400a00"
      "0000636f6e74726f6c6c6572e7030000000000000900000000000000");
}

TEST(WireGoldenTest, RequestFrame) {
  const std::vector<uint8_t> frame = EncodeFrame(
      static_cast<uint16_t>(Opcode::kSqlQuery), 42, EncodeRequest(kSql));
  EXPECT_EQ(Hex(frame),
            "4d423250010002002a0000000000000023000000e27106011f00000053454c45"
            "4354206b2c20762046524f4d206b76205748455245206b203d2037");
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Frame out;
  ASSERT_EQ(decoder.Next(&out), FrameDecoder::Outcome::kFrame);
  EXPECT_EQ(out.Op(), Opcode::kSqlQuery);
  EXPECT_EQ(out.request_id, 42u);
  std::string sql;
  ASSERT_TRUE(DecodeMessage(out.payload, 0, &sql));
  EXPECT_EQ(sql, kSql);
}

}  // namespace
}  // namespace mb2::net
