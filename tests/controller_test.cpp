// Autonomous controller tests (ctest -L autonomy): every decision cycle is
// driven by a FakeClock and a scripted WorkloadStream feed, so the asserted
// action sequences are deterministic — no sleeps, no wall-clock. Covers the
// stream/forecaster building blocks, the scan-storm -> index-creation loop,
// automatic rollback on observed misprediction (with the anti-flap bar),
// idle-verification timeout, the drift -> targeted-retrain path, the knob
// audit trail, and the CTRL_STATUS wire codec + live server round-trip.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ctrl/controller.h"
#include "database.h"
#include "modeling/model_bot.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/drift_monitor.h"
#include "obs/metrics_registry.h"
#include "runner/ou_runner.h"
#include "workload/tpcc.h"

namespace mb2 {
namespace {

using ctrl::Controller;
using ctrl::ControllerConfig;
using ctrl::ControllerStatus;
using ctrl::FakeClock;
using ctrl::ForecastConfig;
using ctrl::Forecaster;
using ctrl::IntervalObservation;
using ctrl::WorkloadStream;

// --- WorkloadStream: accumulate-since-drain semantics -----------------------

TEST(WorkloadStreamTest, AggregatesPerTemplateAndResetsOnDrain) {
  WorkloadStream stream;
  stream.Observe("q1", "SELECT 1", 100.0);
  stream.Observe("q1", "SELECT 1 /*rep*/", 300.0);
  stream.Observe("q2", "SELECT 2", 50.0);

  IntervalObservation got = stream.Drain();
  EXPECT_EQ(got.queries, 3u);
  ASSERT_EQ(got.templates.size(), 2u);
  EXPECT_EQ(got.templates.at("q1").count, 2u);
  // The first-seen statement stays the template's representative SQL.
  EXPECT_EQ(got.templates.at("q1").sql, "SELECT 1");
  EXPECT_DOUBLE_EQ(got.templates.at("q1").total_elapsed_us, 400.0);
  EXPECT_DOUBLE_EQ(got.MeanLatencyUs(), 150.0);
  ASSERT_EQ(got.latencies_us.size(), 3u);

  // Drain moves everything out; the lifetime counter survives.
  EXPECT_EQ(stream.Drain().queries, 0u);
  EXPECT_EQ(stream.total_observed(), 3u);
}

TEST(WorkloadStreamTest, LatencyPercentilesInterpolate) {
  WorkloadStream stream;
  for (int i = 1; i <= 100; i++) {
    stream.Observe("q", "SELECT 1", static_cast<double>(i));
  }
  IntervalObservation got = stream.Drain();
  EXPECT_DOUBLE_EQ(got.LatencyPercentileUs(0.0), 1.0);
  EXPECT_DOUBLE_EQ(got.LatencyPercentileUs(0.5), 50.5);
  EXPECT_DOUBLE_EQ(got.LatencyPercentileUs(1.0), 100.0);
  EXPECT_NEAR(got.LatencyPercentileUs(0.99), 99.0, 1.0);
  EXPECT_EQ(got.latency_samples_dropped, 0u);
}

// --- Forecaster: hybrid EWMA + seasonal-naive -------------------------------

IntervalObservation OneTemplateInterval(const std::string &key, uint64_t count,
                                        double each_us = 100.0) {
  IntervalObservation interval;
  if (count > 0) {
    ctrl::TemplateObservation obs;
    obs.sql = "SELECT 1";
    obs.count = count;
    obs.total_elapsed_us = each_us * static_cast<double>(count);
    interval.templates[key] = std::move(obs);
    interval.queries = count;
    interval.total_elapsed_us = each_us * static_cast<double>(count);
  }
  return interval;
}

TEST(ForecasterTest, EwmaSeedsWithFirstSampleThenSmooths) {
  ForecastConfig cfg;
  cfg.interval_s = 1.0;
  cfg.alpha = 0.5;
  Forecaster f(cfg);

  f.Ingest(OneTemplateInterval("q", 10));
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 10.0);  // seeded, not 5.0

  f.Ingest(OneTemplateInterval("q", 20));
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 15.0);
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").mean_latency_us, 100.0);
  EXPECT_EQ(f.intervals_ingested(), 2u);
}

TEST(ForecasterTest, AbsentTemplateDecaysThenEvicts) {
  ForecastConfig cfg;
  cfg.interval_s = 1.0;
  cfg.alpha = 0.5;
  cfg.evict_after_idle = 3;
  Forecaster f(cfg);

  f.Ingest(OneTemplateInterval("q", 8));
  f.Ingest(IntervalObservation{});  // idle 1: EWMA decays toward zero
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 4.0);
  f.Ingest(IntervalObservation{});  // idle 2
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 2.0);
  f.Ingest(IntervalObservation{});  // idle 3: evicted entirely
  EXPECT_TRUE(f.Forecast().empty());

  // A returning template re-seeds from scratch.
  f.Ingest(OneTemplateInterval("q", 6));
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 6.0);
}

TEST(ForecasterTest, SeasonalNaivePredictsTheAlternation) {
  // Pure seasonal (weight 1.0), season of 2: the forecast repeats the rate
  // from one season ago — the paper's day/night workload switch pattern.
  ForecastConfig cfg;
  cfg.interval_s = 1.0;
  cfg.season_length = 2;
  cfg.seasonal_weight = 1.0;
  Forecaster f(cfg);

  f.Ingest(OneTemplateInterval("q", 10));
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 10.0);  // pure EWMA yet
  f.Ingest(OneTemplateInterval("q", 20));
  // A full season exists: history [10, 20], one season ago = 10.
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 10.0);
  f.Ingest(OneTemplateInterval("q", 10));
  // History [10, 20, 10]: one season ago = 20 — the alternation is tracked.
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 20.0);
}

TEST(ForecasterTest, BlendsSeasonalAndEwma) {
  ForecastConfig cfg;
  cfg.interval_s = 1.0;
  cfg.alpha = 0.5;
  cfg.season_length = 2;
  cfg.seasonal_weight = 0.5;
  Forecaster f(cfg);
  f.Ingest(OneTemplateInterval("q", 10));
  f.Ingest(OneTemplateInterval("q", 20));
  // EWMA = 15, seasonal (one season ago) = 10 -> blend 0.5*10 + 0.5*15.
  EXPECT_DOUBLE_EQ(f.Forecast().at("q").rate_per_s, 12.5);
}

// --- Knob actions: apply / inverse / audit attribution ----------------------

TEST(ActionAuditTest, KnobApplyAndInverseAreAudited) {
  Database db;
  const int64_t before = db.settings().GetInt("gc_interval_us");
  const uint64_t changes_before = db.settings().total_changes();

  Action set = Action::ChangeKnob("gc_interval_us", 12345);
  auto inverse = set.Inverse(&db);  // captured BEFORE applying
  ASSERT_TRUE(inverse.ok());
  ASSERT_TRUE(set.Apply(&db, "controller").ok());
  EXPECT_EQ(db.settings().GetInt("gc_interval_us"), 12345);

  ASSERT_TRUE(inverse.value().Apply(&db, "controller").ok());
  EXPECT_EQ(db.settings().GetInt("gc_interval_us"), before);

  const std::vector<KnobChange> history = db.settings().History();
  ASSERT_GE(history.size(), 2u);
  const KnobChange &undo = history.back();
  const KnobChange &change = history[history.size() - 2];
  EXPECT_EQ(change.name, "gc_interval_us");
  EXPECT_DOUBLE_EQ(change.old_value, static_cast<double>(before));
  EXPECT_DOUBLE_EQ(change.new_value, 12345.0);
  EXPECT_EQ(change.source, "controller");
  EXPECT_EQ(undo.name, "gc_interval_us");
  EXPECT_DOUBLE_EQ(undo.new_value, static_cast<double>(before));
  EXPECT_EQ(undo.source, "controller");
  EXPECT_EQ(db.settings().total_changes(), changes_before + 2);
}

TEST(ActionAuditTest, AuditRingIsBoundedAndCounterAttributesSource) {
  obs::SetEnabled(true);
  Database db;
  const uint64_t total_before = db.settings().total_changes();
  const uint64_t counter_before =
      MetricsRegistry::Instance()
          .GetCounter("mb2_knob_changes_total{source=\"controller\"}")
          .Value();
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(
        db.settings().SetInt("gc_interval_us", 1000 + i, "controller").ok());
  }
  EXPECT_EQ(db.settings().History().size(), SettingsManager::kAuditCapacity);
  // The lifetime counter keeps counting past the ring's capacity.
  EXPECT_EQ(db.settings().total_changes(), total_before + 300);
  // The newest entry survived the ring's evictions.
  EXPECT_DOUBLE_EQ(db.settings().History().back().new_value, 1299.0);
  EXPECT_EQ(MetricsRegistry::Instance()
                .GetCounter("mb2_knob_changes_total{source=\"controller\"}")
                .Value(),
            counter_before + 300);
  obs::SetEnabled(false);
}

// --- The controller decision loop (TPC-C + trained behavior models) ---------

class ControllerTest : public ::testing::Test {
 protected:
  // The Payment-by-last-name scan storm: a filtered sequential scan over
  // CUSTOMER (5000 rows), the paper's running index-creation example.
  static constexpr const char *kScanKey = "payment-by-last";
  static constexpr const char *kScanSql =
      "SELECT c_balance FROM customer WHERE c_last = 3";
  static constexpr const char *kCtrlIndex = "ctrl_customer_c_last";

  ControllerTest() : tpcc_(&db_, 1, 11, /*customers=*/500, /*items=*/500) {}

  void SetUp() override {
    DriftMonitor::Instance().ResetAll();
    tpcc_.Load(/*with_customer_last_index=*/false);
    OuRunnerConfig cfg = OuRunnerConfig::Small();
    cfg.repetitions = 2;
    OuRunner runner(&db_, cfg);
    bot_ = std::make_unique<ModelBot>(&db_.catalog(), &db_.estimator(),
                                      &db_.settings());
    bot_->TrainOuModels(runner.RunAll(),
                        {MlAlgorithm::kLinear, MlAlgorithm::kRandomForest});
  }

  void TearDown() override { DriftMonitor::Instance().ResetAll(); }

  /// Index-only candidate space: knob pricing depends on the trained models'
  /// view of marginal knob effects, which is not what these tests pin down.
  ControllerConfig IndexOnlyConfig() const {
    ControllerConfig conf;
    conf.forecast.interval_s = 10.0;
    conf.workload_threads = 2;
    conf.check_drift = false;
    conf.candidates.propose_knobs = false;
    return conf;
  }

  void FeedScanStorm(Controller *ctrl, int n, double latency_us) {
    for (int i = 0; i < n; i++) {
      ctrl->stream().Observe(kScanKey, kScanSql, latency_us);
    }
  }

  Database db_;
  TpccWorkload tpcc_;
  std::unique_ptr<ModelBot> bot_;
  FakeClock clock_;
};

TEST_F(ControllerTest, ScanStormCreatesIndexThenVerifies) {
  Controller ctrl(&db_, bot_.get(), IndexOnlyConfig(), &clock_);
  ASSERT_EQ(db_.workload_stream(), &ctrl.stream());  // attached to the DB

  FeedScanStorm(&ctrl, 200, 900.0);
  clock_.Advance(1'000'000);
  ctrl.Tick();

  // The storm re-plans to a filtered seq scan on CUSTOMER; the priced best
  // action is the controller-owned single-column index, applied online.
  EXPECT_NE(db_.catalog().GetIndex(kCtrlIndex), nullptr);
  ControllerStatus status = ctrl.GetStatus();
  EXPECT_EQ(status.ticks, 1u);
  EXPECT_EQ(status.actions_applied, 1u);
  EXPECT_EQ(status.queries_observed, 200u);
  EXPECT_TRUE(status.pending_verification);
  ASSERT_FALSE(status.decisions.empty());
  const ctrl::Decision apply = status.decisions.back();
  EXPECT_EQ(apply.kind, "apply");
  // Every applied action logs its predicted-vs-actual basis.
  EXPECT_GT(apply.predicted_baseline_us, 0.0);
  EXPECT_LT(apply.predicted_benefit_us, apply.predicted_baseline_us);
  EXPECT_DOUBLE_EQ(apply.observed_before_us, 900.0);

  // Next interval's observed latency improved: the action verifies and the
  // index stays.
  FeedScanStorm(&ctrl, 200, 200.0);
  clock_.Advance(1'000'000);
  ctrl.Tick();
  status = ctrl.GetStatus();
  EXPECT_FALSE(status.pending_verification);
  EXPECT_EQ(status.actions_rolled_back, 0u);
  ASSERT_FALSE(status.decisions.empty());
  EXPECT_EQ(status.decisions.back().kind, "verified");
  EXPECT_DOUBLE_EQ(status.decisions.back().observed_before_us, 900.0);
  EXPECT_DOUBLE_EQ(status.decisions.back().observed_after_us, 200.0);
  EXPECT_NE(db_.catalog().GetIndex(kCtrlIndex), nullptr);
}

TEST_F(ControllerTest, RollsBackOnObservedRegressionAndBarsTheLever) {
  Controller ctrl(&db_, bot_.get(), IndexOnlyConfig(), &clock_);
  FeedScanStorm(&ctrl, 200, 500.0);
  clock_.Advance(1'000'000);
  ctrl.Tick();
  ASSERT_EQ(ctrl.GetStatus().actions_applied, 1u);
  ASSERT_NE(db_.catalog().GetIndex(kCtrlIndex), nullptr);

  // The models were wrong: observed latency regresses 4x, far past
  // ctrl_rollback_tolerance_pct (25%). The stored inverse drops the index.
  FeedScanStorm(&ctrl, 200, 2000.0);
  clock_.Advance(1'000'000);
  ctrl.Tick();
  ControllerStatus status = ctrl.GetStatus();
  EXPECT_EQ(status.actions_rolled_back, 1u);
  EXPECT_EQ(status.rollback_failures, 0u);
  EXPECT_FALSE(status.pending_verification);
  EXPECT_EQ(db_.catalog().GetIndex(kCtrlIndex), nullptr);
  ASSERT_FALSE(status.decisions.empty());
  const ctrl::Decision rollback = status.decisions.back();
  EXPECT_EQ(rollback.kind, "rollback");
  EXPECT_DOUBLE_EQ(rollback.observed_before_us, 500.0);
  EXPECT_DOUBLE_EQ(rollback.observed_after_us, 2000.0);

  // Anti-flap: past the cooldown but within the bar, the same storm must
  // NOT re-create the index the models still like.
  FeedScanStorm(&ctrl, 200, 2000.0);
  clock_.Advance(10'000'000);  // > ctrl_cooldown_ms, < flap_bar_ms
  ctrl.Tick();
  EXPECT_EQ(ctrl.GetStatus().actions_applied, 1u);
  EXPECT_EQ(db_.catalog().GetIndex(kCtrlIndex), nullptr);

  // Once the bar expires the lever becomes available again.
  FeedScanStorm(&ctrl, 200, 2000.0);
  clock_.Advance(60'000'000);
  ctrl.Tick();
  EXPECT_EQ(ctrl.GetStatus().actions_applied, 2u);
  EXPECT_NE(db_.catalog().GetIndex(kCtrlIndex), nullptr);
}

TEST_F(ControllerTest, IdleVerificationTimesOutWithoutRollback) {
  ControllerConfig conf = IndexOnlyConfig();
  conf.verify_patience = 2;
  Controller ctrl(&db_, bot_.get(), conf, &clock_);
  FeedScanStorm(&ctrl, 200, 500.0);
  clock_.Advance(1'000'000);
  ctrl.Tick();
  ASSERT_TRUE(ctrl.GetStatus().pending_verification);

  // No traffic arrives: nothing to judge the action against. After
  // verify_patience idle intervals the controller gives up (no rollback —
  // an idle system is not a regression).
  clock_.Advance(1'000'000);
  ctrl.Tick();
  EXPECT_TRUE(ctrl.GetStatus().pending_verification);
  clock_.Advance(1'000'000);
  ctrl.Tick();
  ControllerStatus status = ctrl.GetStatus();
  EXPECT_FALSE(status.pending_verification);
  EXPECT_EQ(status.actions_rolled_back, 0u);
  ASSERT_FALSE(status.decisions.empty());
  EXPECT_EQ(status.decisions.back().kind, "verified-idle");
  EXPECT_NE(db_.catalog().GetIndex(kCtrlIndex), nullptr);
}

// Seq-scan-shaped features inside the trained sweep's domain: rows and
// cardinality vary with `i`; column count, tuple size, loops, and exec
// mode stay at plausible constants.
static FeatureVector ScanFeatures(size_t dim, size_t i) {
  FeatureVector f(dim, 0.0);
  const double rows = 256.0 * (1.0 + static_cast<double>(i % 8));
  if (dim > 0) f[0] = rows;   // num_rows
  if (dim > 1) f[1] = 6.0;    // num_cols
  if (dim > 2) f[2] = 64.0;   // avg_tuple_size
  if (dim > 3) f[3] = rows;   // cardinality
  if (dim > 4) f[4] = 64.0;   // payload_size
  if (dim > 5) f[5] = 1.0;    // num_loops
  if (dim > 6) f[6] = 0.0;    // exec_mode
  return f;
}

TEST_F(ControllerTest, DriftTriggersTargetedRetrain) {
  ControllerConfig conf = IndexOnlyConfig();
  conf.check_drift = true;
  const size_t dim = GetOuDescriptor(OuType::kSeqScan).feature_names.size();
  std::atomic<size_t> provider_calls{0};
  conf.retrain_provider = [&, dim](OuType type) {
    provider_calls.fetch_add(1);
    EXPECT_EQ(type, OuType::kSeqScan);
    // Fresh training data under the shifted behavior (3x slower).
    std::vector<OuRecord> records;
    for (size_t i = 0; i < 12; i++) {
      OuRecord r;
      r.ou = type;
      FeatureVector f = ScanFeatures(dim, i);
      for (size_t j = 0; j < kNumLabels; j++) {
        r.labels[j] = 3.0 * (5.0 + 0.05 * f[0]);
      }
      r.features = std::move(f);
      records.push_back(std::move(r));
    }
    return records;
  };
  Controller ctrl(&db_, bot_.get(), conf, &clock_);

  // Production drift samples: the deployed kSeqScan model under-predicts
  // 3x, so the rolling relative error blows past the drift threshold. The
  // features are scan-shaped and sit inside the trained sweep's domain
  // (only rows/cardinality vary), so predicted elapsed is well above the
  // error formula's 1 µs floor instead of clamping to zero on an
  // out-of-distribution extrapolation.
  const OuModel *model = bot_->GetOuModel(OuType::kSeqScan);
  ASSERT_NE(model, nullptr);
  for (int i = 0; i < 24; i++) {
    FeatureVector f = ScanFeatures(dim, i);
    Labels observed = model->Predict(f);
    ASSERT_GT(observed[kLabelElapsedUs], 1.0)
        << "prediction too small to exercise the drift threshold";
    for (double &v : observed) v *= 3.0;
    DriftMonitor::Instance().Submit(OuType::kSeqScan, std::move(f), observed);
  }

  clock_.Advance(1'000'000);
  ctrl.Tick();

  ControllerStatus status = ctrl.GetStatus();
  EXPECT_GE(status.ous_retrained, 1u);
  EXPECT_GE(provider_calls.load(), 1u);
  bool saw_retrain = false;
  for (const ctrl::Decision &d : status.decisions) {
    if (d.kind == "retrain") saw_retrain = true;
  }
  EXPECT_TRUE(saw_retrain);
  // The retrained OU's drift window was reset — the signal cleared.
  EXPECT_TRUE(DriftMonitor::Instance().DriftedOus().empty());
}

TEST_F(ControllerTest, StartStopRunsTheLoopOnTheFakeClock) {
  ControllerConfig conf = IndexOnlyConfig();
  Controller ctrl(&db_, bot_.get(), conf, &clock_);
  EXPECT_FALSE(ctrl.running());
  ctrl.Start();
  EXPECT_TRUE(ctrl.running());
  // FakeClock::SleepUs never blocks, so the loop free-runs; just prove it
  // ticks and that Stop() joins promptly.
  while (ctrl.GetStatus().ticks < 3) {
    std::this_thread::yield();
  }
  ctrl.Stop();
  EXPECT_FALSE(ctrl.running());
  EXPECT_GE(ctrl.GetStatus().ticks, 3u);
}

// --- CTRL_STATUS wire codec + live server round-trip ------------------------

TEST(CtrlStatusWireTest, CodecRoundTrip) {
  net::CtrlStatusBody body;
  body.attached = true;
  body.running = true;
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
  d.action = "CREATE INDEX ctrl_customer_c_last";
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

  const std::vector<uint8_t> payload = net::EncodeResponse(body);
  net::WireCode code;
  std::string message;
  size_t offset = 0;
  ASSERT_TRUE(net::DecodeResponseHead(payload, &code, &message, &offset));
  EXPECT_EQ(code, net::WireCode::kOk);
  net::CtrlStatusBody out;
  ASSERT_TRUE(net::DecodeMessage(payload, offset, &out));

  EXPECT_TRUE(out.attached);
  EXPECT_TRUE(out.running);
  EXPECT_EQ(out.status.ticks, 7u);
  EXPECT_EQ(out.status.actions_applied, 3u);
  EXPECT_EQ(out.status.actions_rolled_back, 1u);
  EXPECT_EQ(out.status.rollback_failures, 0u);
  EXPECT_EQ(out.status.ous_retrained, 2u);
  EXPECT_EQ(out.status.templates_tracked, 5u);
  EXPECT_EQ(out.status.queries_observed, 4242u);
  EXPECT_EQ(out.status.last_action_us, 123456789);
  EXPECT_TRUE(out.status.pending_verification);
  ASSERT_EQ(out.status.decisions.size(), 1u);
  EXPECT_EQ(out.status.decisions[0].action, d.action);
  EXPECT_EQ(out.status.decisions[0].kind, "apply");
  EXPECT_DOUBLE_EQ(out.status.decisions[0].predicted_baseline_us, 900.5);
  EXPECT_DOUBLE_EQ(out.status.decisions[0].predicted_benefit_us, 150.25);
  EXPECT_DOUBLE_EQ(out.status.decisions[0].observed_before_us, 880.0);
  ASSERT_EQ(out.knob_changes.size(), 1u);
  EXPECT_EQ(out.knob_changes[0].name, "gc_interval_us");
  EXPECT_DOUBLE_EQ(out.knob_changes[0].new_value, 10000.0);
  EXPECT_EQ(out.knob_changes[0].source, "controller");
  EXPECT_EQ(out.knob_changes[0].time_us, 999);
  EXPECT_EQ(out.knob_changes_total, 9u);

  // A truncated payload must fail cleanly, never read past the end.
  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 5);
  net::CtrlStatusBody ignored;
  EXPECT_FALSE(net::DecodeMessage(truncated, offset, &ignored));
}

TEST(CtrlStatusWireTest, ServerAnswersWithAndWithoutController) {
  Database db;
  net::ServerOptions opts;
  opts.num_reactors = 1;
  ASSERT_TRUE(db.settings().SetInt("net_worker_threads", 2).ok());
  ASSERT_TRUE(db.settings().SetInt("net_queue_depth", 64).ok());
  ASSERT_TRUE(db.settings().SetInt("net_default_deadline_ms", 30'000).ok());

  {
    // No controller attached: CTRL_STATUS still answers, carrying only the
    // knob audit trail.
    ASSERT_TRUE(db.settings().SetInt("gc_interval_us", 7777, "manual").ok());
    net::Server server(&db, nullptr, opts);
    ASSERT_TRUE(server.Start().ok());
    net::ClientOptions copts;
    copts.port = server.port();
    net::Client client(copts);
    auto got = client.CtrlStatus();
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got.value().attached);
    EXPECT_FALSE(got.value().running);
    ASSERT_FALSE(got.value().knob_changes.empty());
    EXPECT_EQ(got.value().knob_changes.back().name, "gc_interval_us");
    EXPECT_EQ(got.value().knob_changes_total, db.settings().total_changes());
    server.Stop();
  }

  // With a controller: its live counters travel over the wire.
  ctrl::FakeClock clock;
  ControllerConfig conf;
  conf.check_drift = false;
  Controller controller(&db, nullptr, conf, &clock);
  clock.Advance(1000);
  controller.Tick();
  controller.Tick();
  ASSERT_TRUE(
      db.settings().SetInt("gc_interval_us", 8888, "controller").ok());

  net::Server server(&db, nullptr, opts);
  server.set_controller(&controller);
  ASSERT_TRUE(server.Start().ok());
  net::ClientOptions copts;
  copts.port = server.port();
  net::Client client(copts);
  auto got = client.CtrlStatus();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().attached);
  EXPECT_FALSE(got.value().running);  // Tick()ed directly, loop not started
  EXPECT_EQ(got.value().status.ticks, 2u);
  ASSERT_FALSE(got.value().knob_changes.empty());
  EXPECT_EQ(got.value().knob_changes.back().source, "controller");
  server.Stop();
}

}  // namespace
}  // namespace mb2
