// selfdriving_shift: one client thread runs a three-phase script with the
// autonomous controller attached through its WorkloadStream: point lookups
// on k, then aggregates filtered on grp, then a write-heavy phase (UPDATE
// ... WHERE k = ? plus INSERTs), all on events(k, grp, val). The phases repeat
// until the run ends. The controller is ticked on a FakeClock every
// kTickEvery statements and manages its indexes on its own: during the run
// the engine gets only the generated statements. Its behavior models are trained during
// set-up from an OuRunner sweep. Every answer is checked against the
// benchmark's own copy of the table.

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "ctrl/controller.h"
#include "runner/ou_runner.h"
#include "traced_sql.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kRows = 4000;
constexpr int64_t kGroups = 64;
constexpr int kTickEvery = 50;  // statements per controller interval
constexpr int kPhases = 3;
/// Statements per phase. The phases repeat until the run ends, so the
/// controller sees the workload shift many times.
constexpr int64_t kPhaseStatements = 1000;

int64_t InitVal(int64_t k) { return (k * 31) % 997; }

struct Instance {
  std::string wal_path;
  std::unique_ptr<mb2::Database> db;
  std::unique_ptr<mb2::ModelBot> bot;
  std::unique_ptr<mb2::ctrl::FakeClock> clock;
  std::unique_ptr<mb2::ctrl::Controller> controller;
  double load_s = 0.0, sweep_s = 0.0, train_s = 0.0;
  ~Instance() {
    controller.reset();
    bot.reset();
    db.reset();
    std::remove(wal_path.c_str());
  }
};

/// Loads the events table; sweeps and trains the OU models unless `models_dir`
/// names a saved model set to load instead.
std::unique_ptr<Instance> SetUp(const Options &options, int index,
                                const std::string &models_dir = "") {
  auto inst = std::make_unique<Instance>();
  const std::string stem = options.out_dir + "/selfdriving_shift-" + std::to_string(index);
  inst->wal_path = stem + ".wal";
  std::remove(inst->wal_path.c_str());
  mb2::Database::Options db_options;
  db_options.wal_path = inst->wal_path;
  db_options.start_gc = true;
  auto start = Clock::now();
  inst->db = std::make_unique<mb2::Database>(db_options);
  mb2::Database *db = inst->db.get();
  db->settings().SetInt("wal_sync_commit", 1);
  MustExecute(db, "CREATE TABLE events (k INTEGER, grp INTEGER, val INTEGER)");
  LoadRows(db, "events", kRows, 1000, [](int64_t k) {
    return std::to_string(k) + ", " + std::to_string(k % kGroups) + ", " +
           std::to_string(InitVal(k));
  });
  // Statistics for the loaded table, taken the way examples/quickstart.cpp
  // and examples/sql_shell.cpp take them after a bulk load: the engine has
  // no ANALYZE statement, and nothing else refreshes them. The run never
  // refreshes them again, so its INSERTs leave them stale.
  db->estimator().RefreshStats();
  inst->load_s = SecondsSince(start);

  inst->bot = std::make_unique<mb2::ModelBot>(&db->catalog(), &db->estimator(), &db->settings());
  if (models_dir.empty()) {
    start = Clock::now();
    std::vector<mb2::OuRecord> records;
    mb2::Database::Options sweep_options;
    sweep_options.heap_path = stem + "-sweep.heap";
    {
      // The sweep runs on its own engine so its synthetic tables never
      // reach the workload's catalog.
      mb2::Database sweep_db(sweep_options);
      mb2::OuRunner runner(&sweep_db, mb2::OuRunnerConfig::Small());
      records = runner.RunAll();
    }
    std::remove(sweep_options.heap_path.c_str());
    inst->sweep_s = SecondsSince(start);
    start = Clock::now();
    inst->bot->TrainOuModels(records, {mb2::MlAlgorithm::kLinear});
    inst->train_s = SecondsSince(start);
  } else {
    const mb2::Status loaded = inst->bot->LoadModels(models_dir);
    if (!loaded.ok()) throw std::runtime_error("model load: " + loaded.ToString());
  }
  inst->clock = std::make_unique<mb2::ctrl::FakeClock>();
  inst->controller = std::make_unique<mb2::ctrl::Controller>(
      db, inst->bot.get(), mb2::ctrl::ControllerConfig(), inst->clock.get());
  return inst;
}

enum OpClass { kPointRead, kGroupRead, kUpdate, kInsert };

/// The client's seeded statement stream and the exact model of the table
/// (one thread, so every read has one right answer).
class Script {
 public:
  explicit Script(uint64_t seed) : rng_(StreamSeed(seed, 5)) {
    for (int64_t k = 0; k < kRows; k++) {
      vals_.push_back(InitVal(k));
      grp_count_[k % kGroups]++;
      grp_sum_[k % kGroups] += InitVal(k);
    }
  }

  struct Op {
    OpClass cls;
    int64_t key;
    std::string sql;
  };

  /// The next statement of `phase`. The write phase is 20% point reads, 70%
  /// UPDATEs and 10% INSERTs.
  Op Next(int phase) {
    const uint64_t r = rng_.Uniform(100);
    const auto rows = static_cast<int64_t>(vals_.size());
    if (phase == 0 || (phase == 2 && r < 20)) {
      const auto k = static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(rows)));
      return {kPointRead, k, "SELECT val FROM events WHERE k = " + std::to_string(k)};
    }
    if (phase == 1) {
      const auto g = static_cast<int64_t>(rng_.Uniform(kGroups));
      return {kGroupRead, g,
              "SELECT COUNT(*), SUM(val) FROM events WHERE grp = " + std::to_string(g)};
    }
    if (r < 90) {
      const auto k = static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(rows)));
      return {kUpdate, k, "UPDATE events SET val = val + 1 WHERE k = " + std::to_string(k)};
    }
    return {kInsert, rows,
            "INSERT INTO events VALUES (" + std::to_string(rows) + ", " +
                std::to_string(rows % kGroups) + ", " + std::to_string(InitVal(rows)) + ")"};
  }

  /// Applies an acknowledged write to the model.
  void Acked(const Op &op) {
    if (op.cls == kUpdate) {
      vals_[static_cast<size_t>(op.key)]++;
      grp_sum_[op.key % kGroups]++;
    } else if (op.cls == kInsert) {
      vals_.push_back(InitVal(op.key));
      grp_count_[op.key % kGroups]++;
      grp_sum_[op.key % kGroups] += InitVal(op.key);
    }
  }

  /// Empty when a read's rows are right; else what is wrong.
  std::string Check(const Op &op, const std::vector<mb2::Tuple> &rows) const {
    std::vector<double> want;
    if (op.cls == kPointRead) want = {static_cast<double>(vals_[static_cast<size_t>(op.key)])};
    if (op.cls == kGroupRead) {
      want = {static_cast<double>(grp_count_[op.key]), static_cast<double>(grp_sum_[op.key])};
    }
    bool ok = rows.size() == 1 && rows[0].size() == want.size();
    for (size_t c = 0; ok && c < want.size(); c++) ok = AsNumber(rows[0][c]) == want[c];
    return ok ? "" : "wrong answer to " + op.sql;
  }

 private:
  Rng rng_;
  std::vector<int64_t> vals_;
  int64_t grp_count_[kGroups] = {};
  int64_t grp_sum_[kGroups] = {};
};

struct ScriptResult {
  LoopStats stats;
  Clock::time_point start;
  double elapsed_s = 0.0;
  std::vector<double> tick_us;
  std::vector<double> rel_err;  ///< |predicted - measured| / measured
  uint64_t ticks_to_adapt_sum = 0;
  int phases_adapted = 0;  ///< phase runs that ended with a verified action
  int phase_changes = 0;
  int cycles = 0;
  std::vector<double> cycle_start_s;  ///< SteadySeconds() when each cycle began
  mb2::ctrl::ControllerStatus status;
};

/// How the script sends its statements.
enum class Path {
  kExecute,   ///< Database::Execute
  kStepwise,  ///< the traced path (wal_sync_commit=0 plus a FlushNow per write)
  kTraced,    ///< the same, and each plan priced with ModelBot::PredictQuery
};

/// Runs the phases in turn, kPhaseStatements statements each, until
/// `seconds` have passed, ticking the controller every kTickEvery statements.
ScriptResult RunScript(Instance *inst, uint64_t seed, double seconds, Path path,
                       Report *report) {
  ScriptResult out;
  Script script(seed);
  mb2::Database *db = inst->db.get();
  const int64_t interval_us = db->settings().GetInt("ctrl_interval_ms") * 1000;
  if (path != Path::kExecute) db->settings().SetInt("wal_sync_commit", 0);
  int64_t phase_start_us = 0;
  bool adapted = false;
  const auto start = Clock::now();
  out.start = start;
  for (int64_t n = 0; SecondsSince(start) < seconds; n++) {
    if (n % (kPhases * kPhaseStatements) == 0) {
      out.cycles++;
      out.cycle_start_s.push_back(SteadySeconds());
    }
    if (n % kPhaseStatements == 0) {
      phase_start_us = inst->clock->NowUs();
      adapted = false;
      out.phase_changes++;
    }
    const Script::Op op = script.Next(static_cast<int>(n / kPhaseStatements % kPhases));
    const bool write = op.cls == kUpdate || op.cls == kInsert;
    out.stats.attempted++;
    const auto t0 = Clock::now();
    mb2::Status status;
    mb2::Batch batch;
    while (true) {
      if (path != Path::kExecute) {
        TracedOptions options;
        options.exec_span = write ? "exec.write" : "exec.read";
        options.flush_wal = write;
        if (path == Path::kTraced) options.bot = inst->bot.get();
        TracedResult r = TracedExecute(db, op.sql, static_cast<uint64_t>(n) + 1, options);
        status = r.status;
        batch = std::move(r.batch);
        if (r.status.ok() && r.exec_us > 0 && r.predicted_us >= 0) {
          out.rel_err.push_back(std::abs(r.predicted_us - r.exec_us) / r.exec_us);
        }
      } else {
        mb2::Result<mb2::QueryResult> r = db->Execute(op.sql);
        status = r.ok() ? r.value().status : r.status();
        if (r.ok()) batch = std::move(r.value().batch);
      }
      if (!IsConflict(status)) break;
      out.stats.conflicts++;
    }
    const double us = SecondsSince(t0) * 1e6;
    bool ok = status.ok();
    if (!ok) report->Fail(op.sql + ": " + status.ToString());
    if (ok && write) script.Acked(op);
    if (ok && !write) {
      const std::string error = script.Check(op, batch.rows);
      if (!error.empty()) {
        report->Fail(error);
        ok = false;
      }
    }
    if (!ok) out.stats.failed++;
    if (write) {
      out.stats.AddWrite(ok ? us : kFailedLatencyUs);
    } else {
      out.stats.AddRead(ok ? us : kFailedLatencyUs);
    }

    if ((n + 1) % kTickEvery != 0) continue;
    inst->clock->Advance(interval_us);
    const auto tick_start = Clock::now();
    {
      ScopedSpan span("ctrl.tick");
      inst->controller->Tick();
    }
    out.tick_us.push_back(SecondsSince(tick_start) * 1e6);
    if (adapted) continue;
    // The first action verified since this phase began ends its adaptation.
    for (const mb2::ctrl::Decision &d : inst->controller->GetStatus().decisions) {
      if (d.kind == "verified" && d.time_us > phase_start_us) {
        out.ticks_to_adapt_sum += static_cast<uint64_t>((d.time_us - phase_start_us) / interval_us);
        out.phases_adapted++;
        adapted = true;
        break;
      }
    }
  }
  out.elapsed_s = SecondsSince(start);
  if (path != Path::kExecute) db->settings().SetInt("wal_sync_commit", 1);
  out.status = inst->controller->GetStatus();
  if (out.status.rollback_failures > 0) report->Fail("controller rollback failed");
  return out;
}

}  // namespace

Report RunSelfdrivingShift(const Options &options) {
  Report report;
  if (!options.trace) {
    double setup_s = 0.0;
    std::unique_ptr<Instance> inst =
        RepeatSetUp([&](int i) { return SetUp(options, i); }, &setup_s);
    RecordKnobs(inst->db.get(), &report);
    const ScriptResult r =
        RunScript(inst.get(), options.seed, options.seconds, Path::kExecute, &report);
    // One window per whole cycle, so every window holds the same statement
    // mix; the cycle the deadline cut short is left out.
    std::vector<double> windows = r.cycle_start_s;
    if (windows.size() < 2) windows = EqualWindows(r.start, r.elapsed_s, 1);
    AddEndToEnd(&report, r.stats, windows, setup_s);
    report.detail["ctrl.actions_applied"] = static_cast<double>(r.status.actions_applied);
    report.detail["ctrl.ticks"] = static_cast<double>(r.tick_us.size());
    report.detail["cycles"] = r.cycles;
    return report;
  }

  // Traced run: the script twice through the traced path, each time on a
  // fresh engine with the same models, so both start from the same state:
  // first plain, then with spans and model predictions, so the slowdown
  // between the two is the cost of tracing.
  const auto setup_start = Clock::now();
  std::unique_ptr<Instance> first = SetUp(options, 0);
  report.detail["setup_s"] = SecondsSince(setup_start);
  RecordKnobs(first->db.get(), &report);
  const mb2::Status saved = first->bot->SaveModels(options.out_dir);
  if (!saved.ok()) throw std::runtime_error("model save: " + saved.ToString());
  const ScriptResult untraced =
      RunScript(first.get(), options.seed, options.seconds / 2, Path::kStepwise, &report);
  report.attempted += untraced.stats.attempted;
  report.failed += untraced.stats.failed;

  std::unique_ptr<Instance> second = SetUp(options, 1, options.out_dir);
  std::remove((options.out_dir + "/mb2_models.bin").c_str());
  const mb2::sql::PlanCacheStats cache_before = second->db->plan_cache().stats();
  second->bot->ResetOuCacheStats();
  Tracer::Instance().SetEnabled(true);
  const ScriptResult traced =
      RunScript(second.get(), options.seed, options.seconds / 2, Path::kTraced, &report);
  Tracer::Instance().SetEnabled(false);
  report.attempted += traced.stats.attempted;
  report.failed += traced.stats.failed;
  const mb2::PredictionCacheStats ou_cache = second->bot->ou_cache_stats();

  const auto logs = Tracer::Instance().Collect();
  const SpanSummary summary = Summarize(logs);
  WriteSpans(logs, options.out_dir + "/spans-selfdriving_shift.jsonl");
  AddEngineLayers(&report, summary, cache_before, second->db->plan_cache().stats());
  report.Add("modeling.predict_query_us", MedianSpanUs(summary, "modeling.predict_query"), "us");
  report.Add("modeling.ou_cache_hit_ratio", ou_cache.HitRate(), "ratio");
  report.Add("modeling.query_rel_err_p50", Median(traced.rel_err), "ratio");
  report.Add("ctrl.tick_p50_us", Median(traced.tick_us), "us");
  report.Add("ctrl.tick_max_us", Percentile(traced.tick_us, 1.0), "us");
  report.Add("ctrl.actions_applied", static_cast<double>(traced.status.actions_applied), "count");
  report.Add("ctrl.rollbacks", static_cast<double>(traced.status.actions_rolled_back), "count");
  report.Add("ctrl.ticks_to_adapt",
             Ratio(static_cast<double>(traced.ticks_to_adapt_sum), traced.phases_adapted),
             "count");
  report.Add("setup.load_s", first->load_s, "s");
  report.Add("setup.sweep_s", first->sweep_s, "s");
  report.Add("setup.train_s", first->train_s, "s");
  report.detail["ctrl.ticks"] = static_cast<double>(traced.tick_us.size());
  report.detail["ctrl.phases_adapted"] = traced.phases_adapted;
  report.detail["ctrl.phase_changes"] = traced.phase_changes;
  report.detail["cycles"] = traced.cycles;
  report.detail["modeling.ou_cache_lookups"] = static_cast<double>(ou_cache.hits + ou_cache.misses);
  report.detail["modeling.predictions"] = static_cast<double>(traced.rel_err.size());
  AddTraceMetrics(&report, static_cast<double>(untraced.stats.attempted) / untraced.elapsed_s,
                  static_cast<double>(traced.stats.attempted) / traced.elapsed_s, summary);
  return report;
}

}  // namespace perfbench
