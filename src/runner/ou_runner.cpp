#include "runner/ou_runner.h"

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/stats.h"
#include "index/index_builder.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/table_heap.h"
#include "wal/log_record.h"

namespace mb2 {

namespace {

constexpr uint32_t kSynthPayloadCols = 7;  // plus the unique `id` column

class Stopwatch {
 public:
  explicit Stopwatch(double *accumulator) : accumulator_(accumulator) {
    start_ = std::chrono::steady_clock::now();
  }
  ~Stopwatch() {
    *accumulator_ += std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  }

 private:
  double *accumulator_;
  std::chrono::steady_clock::time_point start_;
};

/// Key of a synthetic table in OuRunner::table_cache_.
std::pair<uint64_t, int> SyntheticTableKey(uint64_t rows,
                                           double cardinality_fraction) {
  return {rows, static_cast<int>(cardinality_fraction * 1000.0)};
}

// Every runner collects on its own thread only, so RunAll()'s units running
// at once never observe each other's records.
void EnableCollection() { MetricsManager::Instance().BeginThreadCollection(); }
void DisableCollection() { MetricsManager::Instance().EndThreadCollection(); }
std::vector<OuRecord> DrainCollection() {
  return MetricsManager::Instance().DrainThread();
}

/// A private engine for one sweep unit, configured like the caller's: the
/// same knob values, and a WAL of its own (removed afterwards) exactly when
/// the caller logs, so RunWal() records wherever it would on the caller.
class UnitDatabase {
 public:
  explicit UnitDatabase(Database *caller) {
    Database::Options options;
    if (caller->log_manager().enabled()) {
      static std::atomic<uint64_t> next_unit{0};
      options.wal_path = caller->log_manager().path() + ".ou_unit" +
                         std::to_string(next_unit.fetch_add(1));
    }
    wal_path_ = options.wal_path;
    db_ = std::make_unique<Database>(std::move(options));
    for (const auto &[name, value] : caller->settings().Snapshot()) {
      const Status set = db_->settings().SetDouble(name, value);
      MB2_ASSERT(set.ok(), "caller knob rejected by a unit database");
    }
  }
  ~UnitDatabase() {
    db_.reset();
    if (!wal_path_.empty()) std::remove(wal_path_.c_str());
  }
  MB2_DISALLOW_COPY_AND_MOVE(UnitDatabase);

  Database *get() { return db_.get(); }

 private:
  std::string wal_path_;
  std::unique_ptr<Database> db_;
};

// The lane table. Joins, GC and DML have the largest transient memory
// (+16.5, +9.8 and +8.4 MiB of peak RSS each when run alone), so they share
// the caller's lane; the helper lane takes units of similar total time whose
// peaks are small. RunTxns spends most of its time in sleep_for pauses and
// runs beside both.
constexpr SweepUnit kSweepUnits[] = {
    {&OuRunner::RunScanAndFilter, SweepLane::kHelper},
    {&OuRunner::RunJoins, SweepLane::kCaller},
    {&OuRunner::RunAggregates, SweepLane::kCaller},
    {&OuRunner::RunSorts, SweepLane::kHelper},
    {&OuRunner::RunProjections, SweepLane::kCaller},
    {&OuRunner::RunDml, SweepLane::kCaller},
    {&OuRunner::RunIndexScans, SweepLane::kCaller},
    {&OuRunner::RunIndexBuilds, SweepLane::kHelper},
    {&OuRunner::RunWal, SweepLane::kCaller},
    {&OuRunner::RunGc, SweepLane::kCaller},
    {&OuRunner::RunStorage, SweepLane::kHelper},
    {&OuRunner::RunTxns, SweepLane::kTxn},
};

}  // namespace

std::span<const SweepUnit> SweepUnits() { return kSweepUnits; }

size_t SweepLaneCount(const cpu_set_t &mask) {
  return CPU_COUNT(&mask) >= 2 ? 2 : 1;
}

Table *MakeSyntheticTable(Database *db, const std::string &name, uint64_t rows,
                          uint64_t distinct, uint64_t seed,
                          TableStorage storage) {
  std::vector<Column> cols;
  cols.push_back({"id", TypeId::kInteger, 0});
  for (uint32_t c = 0; c < kSynthPayloadCols; c++) {
    cols.push_back({"c" + std::to_string(c), TypeId::kInteger, 0});
  }
  Table *table = db->catalog().CreateTable(name, Schema(std::move(cols)), storage);
  MB2_ASSERT(table != nullptr, "synthetic table name collision");

  Rng rng(seed);
  auto txn = db->txn_manager().Begin();
  for (uint64_t i = 0; i < rows; i++) {
    Tuple row;
    row.reserve(1 + kSynthPayloadCols);
    row.push_back(Value::Integer(static_cast<int64_t>(i)));
    for (uint32_t c = 0; c < kSynthPayloadCols; c++) {
      row.push_back(Value::Integer(
          rng.Uniform(0, static_cast<int64_t>(std::max<uint64_t>(1, distinct)) - 1)));
    }
    table->Insert(txn.get(), std::move(row));
  }
  db->txn_manager().Commit(txn.get());
  return table;
}

Table *OuRunner::SyntheticTable(uint64_t rows, double cardinality_fraction) {
  const auto key = SyntheticTableKey(rows, cardinality_fraction);
  const int card_key = key.second;
  auto it = table_cache_.find(key);
  if (it != table_cache_.end()) return db_->catalog().GetTable(it->second);

  const std::string name = "ou_synth_" + std::to_string(next_table_id_++);
  const uint64_t distinct = std::max<uint64_t>(
      1, static_cast<uint64_t>(cardinality_fraction * static_cast<double>(rows)));
  Table *table = MakeSyntheticTable(db_, name, rows, distinct,
                                    /*seed=*/rows * 31 + card_key);
  table_cache_[key] = name;
  db_->estimator().RefreshStats();
  return table;
}

std::vector<OuRecord> OuRunner::AggregateReps(
    const std::vector<std::vector<OuRecord>> &reps) const {
  std::vector<OuRecord> out;
  if (reps.empty()) return out;
  // Repetitions of the same single-threaded plan produce aligned record
  // streams; fall back to raw concatenation if alignment breaks.
  const size_t n = reps[0].size();
  for (const auto &rep : reps) {
    if (rep.size() != n) {
      for (const auto &r : reps) out.insert(out.end(), r.begin(), r.end());
      return out;
    }
  }
  for (size_t i = 0; i < n; i++) {
    OuRecord aggregated = reps[0][i];
    for (size_t j = 0; j < kNumLabels; j++) {
      std::vector<double> samples;
      samples.reserve(reps.size());
      for (const auto &rep : reps) {
        if (rep[i].ou != aggregated.ou) return out;  // misaligned; bail
        samples.push_back(rep[i].labels[j]);
      }
      aggregated.labels[j] = TrimmedMean(std::move(samples), config_.trim_fraction);
    }
    out.push_back(std::move(aggregated));
  }
  return out;
}

void OuRunner::MeasurePlan(const PlanNode &plan, std::vector<OuRecord> *out) {
  Stopwatch watch(&runner_seconds_);
  DisableCollection();
  for (uint32_t w = 0; w < config_.warmups; w++) db_->Execute(plan);
  DrainCollection();  // discard anything stale
  std::vector<std::vector<OuRecord>> reps;
  for (uint32_t r = 0; r < config_.repetitions; r++) {
    EnableCollection();
    db_->Execute(plan);
    DisableCollection();
    reps.push_back(DrainCollection());
  }
  auto aggregated = AggregateReps(reps);
  out->insert(out->end(), aggregated.begin(), aggregated.end());
}

void OuRunner::MeasurePlanWithRollback(const PlanNode &plan,
                                       std::vector<OuRecord> *out) {
  Stopwatch watch(&runner_seconds_);
  DisableCollection();
  DrainCollection();
  std::vector<std::vector<OuRecord>> reps;
  for (uint32_t r = 0; r < config_.repetitions + config_.warmups; r++) {
    const bool measured = r >= config_.warmups;
    if (measured) EnableCollection();
    auto txn = db_->txn_manager().Begin();
    Batch result;
    db_->engine().ExecuteInTxn(plan, txn.get(), &result);
    db_->txn_manager().Abort(txn.get());  // revert the modification
    DisableCollection();
    if (measured) {
      reps.push_back(DrainCollection());
    } else {
      DrainCollection();
    }
  }
  auto aggregated = AggregateReps(reps);
  out->insert(out->end(), aggregated.begin(), aggregated.end());
}

// ---------------------------------------------------------------------------
// Execution-engine runners
// ---------------------------------------------------------------------------

std::vector<OuRecord> OuRunner::RunScanAndFilter() {
  std::vector<OuRecord> out;
  for (uint64_t rows : config_.row_counts) {
    for (double card : config_.cardinality_fractions) {
      Table *table = SyntheticTable(rows, card);
      for (uint32_t ncols : config_.column_counts) {
        for (int mode : config_.exec_modes) {
          db_->settings().SetInt("execution_mode", mode);
          std::vector<uint32_t> columns;
          for (uint32_t c = 0; c < ncols; c++) columns.push_back(c);
          // Two selectivities exercise the filter OU's row feature.
          for (double sel : {0.1, 0.9}) {
            auto scan = std::make_unique<SeqScanPlan>();
            scan->table = table->name();
            scan->columns = columns;
            scan->predicate =
                Cmp(CmpOp::kLt, ColRef(0),
                    ConstInt(static_cast<int64_t>(sel * static_cast<double>(rows))));
            auto plan = FinalizePlan(std::move(scan), db_->catalog());
            MeasurePlan(*plan, &out);
          }
        }
      }
    }
  }
  db_->settings().SetInt("execution_mode", 0);
  return out;
}

std::vector<OuRecord> OuRunner::RunJoins() {
  std::vector<OuRecord> out;
  for (uint64_t rows : config_.row_counts) {
    for (double card : config_.cardinality_fractions) {
      Table *table = SyntheticTable(rows, card);
      for (int mode : config_.exec_modes) {
        db_->settings().SetInt("execution_mode", mode);
        // 1:1 self-join on the unique id, varying the build-side size AND
        // the build-tuple width (the payload-size feature: wide build rows
        // cost proportionally more to copy into the hash table).
        for (double build_frac : {0.125, 1.0}) {
          for (uint32_t ncols : config_.column_counts) {
            const int64_t limit =
                static_cast<int64_t>(build_frac * static_cast<double>(rows));
            std::vector<uint32_t> columns;
            for (uint32_t c = 0; c < ncols; c++) columns.push_back(c);
            auto build = std::make_unique<SeqScanPlan>();
            build->table = table->name();
            build->columns = columns;
            build->predicate = Cmp(CmpOp::kLt, ColRef(0), ConstInt(limit));
            auto probe = std::make_unique<SeqScanPlan>();
            probe->table = table->name();
            probe->columns = columns;
            auto join = std::make_unique<HashJoinPlan>();
            join->build_keys = {0};
            join->probe_keys = {0};
            join->children.push_back(std::move(build));
            join->children.push_back(std::move(probe));
            auto plan = FinalizePlan(std::move(join), db_->catalog());
            MeasurePlan(*plan, &out);
          }
        }
        // Low-cardinality join: only on small tables (output is n^2/d).
        if (rows <= 4096) {
          auto build = std::make_unique<SeqScanPlan>();
          build->table = table->name();
          build->columns = {1, 2};
          auto probe = std::make_unique<SeqScanPlan>();
          probe->table = table->name();
          probe->columns = {1, 3};
          auto join = std::make_unique<HashJoinPlan>();
          join->build_keys = {0};
          join->probe_keys = {0};
          join->children.push_back(std::move(build));
          join->children.push_back(std::move(probe));
          auto plan = FinalizePlan(std::move(join), db_->catalog());
          MeasurePlan(*plan, &out);
        }
      }
    }
  }
  db_->settings().SetInt("execution_mode", 0);
  return out;
}

std::vector<OuRecord> OuRunner::RunAggregates() {
  std::vector<OuRecord> out;
  for (uint64_t rows : config_.row_counts) {
    for (double card : config_.cardinality_fractions) {
      Table *table = SyntheticTable(rows, card);
      for (int mode : config_.exec_modes) {
        db_->settings().SetInt("execution_mode", mode);
        // Sweep group-key width and aggregate-term count: they drive the
        // payload-size feature and the per-tuple accumulate cost.
        for (uint32_t group_cols : {1u, 2u}) {
          for (uint32_t terms : {1u, 3u}) {
            auto scan = std::make_unique<SeqScanPlan>();
            scan->table = table->name();
            scan->columns = {1, 2, 3, 4};
            auto agg = std::make_unique<AggregatePlan>();
            for (uint32_t g = 0; g < group_cols; g++) agg->group_by.push_back(g);
            agg->terms.push_back({AggFunc::kCount, nullptr});
            for (uint32_t a = 1; a < terms; a++) {
              agg->terms.push_back(
                  {a % 2 == 0 ? AggFunc::kSum : AggFunc::kAvg, ColRef(2 + a % 2)});
            }
            agg->children.push_back(std::move(scan));
            auto plan = FinalizePlan(std::move(agg), db_->catalog());
            MeasurePlan(*plan, &out);
          }
        }
      }
    }
  }
  db_->settings().SetInt("execution_mode", 0);
  return out;
}

std::vector<OuRecord> OuRunner::RunSorts() {
  std::vector<OuRecord> out;
  for (uint64_t rows : config_.row_counts) {
    for (double card : config_.cardinality_fractions) {
      Table *table = SyntheticTable(rows, card);
      for (uint32_t ncols : config_.column_counts) {
        for (int mode : config_.exec_modes) {
          db_->settings().SetInt("execution_mode", mode);
          std::vector<uint32_t> columns;
          for (uint32_t c = 0; c < ncols; c++) columns.push_back(c);
          auto scan = std::make_unique<SeqScanPlan>();
          scan->table = table->name();
          scan->columns = columns;
          auto sort = std::make_unique<SortPlan>();
          sort->sort_keys = {1};  // non-unique key (cardinality matters)
          sort->descending = {false};
          sort->children.push_back(std::move(scan));
          auto plan = FinalizePlan(std::move(sort), db_->catalog());
          MeasurePlan(*plan, &out);
        }
      }
    }
  }
  db_->settings().SetInt("execution_mode", 0);
  return out;
}

std::vector<OuRecord> OuRunner::RunProjections() {
  std::vector<OuRecord> out;
  for (uint64_t rows : config_.row_counts) {
    Table *table = SyntheticTable(rows, 1.0);
    for (int mode : config_.exec_modes) {
      db_->settings().SetInt("execution_mode", mode);
      // Sweep expression complexity (op count).
      for (int depth : {1, 4, 16}) {
        auto scan = std::make_unique<SeqScanPlan>();
        scan->table = table->name();
        scan->columns = {1, 2};
        auto proj = std::make_unique<ProjectionPlan>();
        ExprPtr expr = ColRef(0);
        for (int i = 0; i < depth; i++) {
          expr = Arith(i % 2 == 0 ? ArithOp::kAdd : ArithOp::kMul,
                       std::move(expr), ColRef(1));
        }
        proj->exprs.push_back(std::move(expr));
        proj->children.push_back(std::move(scan));
        auto plan = FinalizePlan(std::move(proj), db_->catalog());
        MeasurePlan(*plan, &out);
      }
    }
  }
  db_->settings().SetInt("execution_mode", 0);
  return out;
}

std::vector<OuRecord> OuRunner::RunDml() {
  std::vector<OuRecord> out;
  // A scratch table absorbs the DML; every measured query is rolled back.
  const uint64_t scratch_rows =
      config_.row_counts.empty() ? 4096 : config_.row_counts.back();
  Table *scratch = SyntheticTable(scratch_rows, 1.0);

  for (uint64_t batch : config_.row_counts) {
    if (batch > 32768) continue;  // bound DML batch sizes
    // INSERT: literal rows.
    Rng rng(batch * 17);
    auto insert = std::make_unique<InsertPlan>();
    insert->table = scratch->name();
    for (uint64_t i = 0; i < batch; i++) {
      Tuple row;
      row.push_back(Value::Integer(static_cast<int64_t>(1000000 + i)));
      for (uint32_t c = 0; c < kSynthPayloadCols; c++) {
        row.push_back(Value::Integer(rng.Uniform(int64_t{0}, int64_t{1} << 20)));
      }
      insert->rows.push_back(std::move(row));
    }
    auto insert_plan = FinalizePlan(std::move(insert), db_->catalog());
    MeasurePlanWithRollback(*insert_plan, &out);

    // UPDATE: range of ids.
    auto scan = std::make_unique<SeqScanPlan>();
    scan->table = scratch->name();
    scan->with_slots = true;
    scan->predicate =
        Cmp(CmpOp::kLt, ColRef(0), ConstInt(static_cast<int64_t>(batch)));
    auto update = std::make_unique<UpdatePlan>();
    update->table = scratch->name();
    update->sets.emplace_back(1, Arith(ArithOp::kAdd, ColRef(1), ConstInt(1)));
    update->children.push_back(std::move(scan));
    auto update_plan = FinalizePlan(std::move(update), db_->catalog());
    MeasurePlanWithRollback(*update_plan, &out);

    // DELETE: same range.
    auto dscan = std::make_unique<SeqScanPlan>();
    dscan->table = scratch->name();
    dscan->with_slots = true;
    dscan->predicate =
        Cmp(CmpOp::kLt, ColRef(0), ConstInt(static_cast<int64_t>(batch)));
    auto del = std::make_unique<DeletePlan>();
    del->table = scratch->name();
    del->children.push_back(std::move(dscan));
    auto delete_plan = FinalizePlan(std::move(del), db_->catalog());
    MeasurePlanWithRollback(*delete_plan, &out);
  }
  // The rolled-back inserts left dead slots behind. Later runners on this
  // database get a fresh table, so their row features count live rows only.
  table_cache_.erase(SyntheticTableKey(scratch_rows, 1.0));
  return out;
}

std::vector<OuRecord> OuRunner::RunIndexScans() {
  std::vector<OuRecord> out;
  for (uint64_t rows : config_.row_counts) {
    Table *table = SyntheticTable(rows, 1.0);
    const std::string index_name = "ou_idx_" + std::to_string(next_table_id_++);
    auto index = db_->catalog().CreateIndex(
        IndexSchema{index_name, table->name(), {0}, true});
    MB2_ASSERT(index.ok(), "index creation failed");
    IndexBuilder::Build(&db_->catalog(), &db_->txn_manager(), index.value(), 1);

    for (int mode : config_.exec_modes) {
      db_->settings().SetInt("execution_mode", mode);
      // Point lookups and ranges of growing width.
      for (uint64_t width : {uint64_t{1}, uint64_t{16}, uint64_t{256}}) {
        if (width > rows) continue;
        auto scan = std::make_unique<IndexScanPlan>();
        scan->index = index_name;
        scan->table = table->name();
        scan->key_lo = {Value::Integer(0)};
        if (width > 1) {
          scan->key_hi = {Value::Integer(static_cast<int64_t>(width) - 1)};
        }
        auto plan = FinalizePlan(std::move(scan), db_->catalog());
        MeasurePlan(*plan, &out);
      }
    }
    db_->catalog().DropIndex(index_name);
  }
  db_->settings().SetInt("execution_mode", 0);
  return out;
}

std::vector<OuRecord> OuRunner::RunIndexBuilds() {
  std::vector<OuRecord> out;
  Stopwatch watch(&runner_seconds_);
  for (uint64_t rows : config_.row_counts) {
    if (rows < 512) continue;  // too small to contend meaningfully
    for (double card : config_.cardinality_fractions) {
      SyntheticTable(rows, card);
      for (uint32_t threads : config_.index_build_threads) {
        for (const std::vector<uint32_t> &key_cols :
             {std::vector<uint32_t>{1}, std::vector<uint32_t>{1, 2}}) {
          Table *table = SyntheticTable(rows, card);
          const std::string name = "ou_build_" + std::to_string(next_table_id_++);
          auto index = db_->catalog().CreateIndex(
              IndexSchema{name, table->name(), key_cols, false});
          MB2_ASSERT(index.ok(), "index creation failed");
          DrainCollection();
          // The kIndexBuild record is emitted on the calling thread (the
          // builder's workers only run trackers), so thread-scoped
          // collection works here.
          EnableCollection();
          IndexBuilder::Build(&db_->catalog(), &db_->txn_manager(),
                              index.value(), threads);
          DisableCollection();
          for (auto &r : DrainCollection()) {
            if (r.ou == OuType::kIndexBuild) out.push_back(std::move(r));
          }
          db_->catalog().DropIndex(name);
        }
      }
    }
  }
  return out;
}

std::vector<OuRecord> OuRunner::RunWal() {
  std::vector<OuRecord> out;
  if (!db_->log_manager().enabled()) return out;
  Stopwatch watch(&runner_seconds_);
  Rng rng(99);
  for (uint64_t records : {uint64_t{16}, uint64_t{128}, uint64_t{1024},
                           uint64_t{8192}}) {
    for (uint32_t value_count : {2u, 8u, 24u}) {
      for (double interval : {1000.0, 10000.0, 100000.0}) {
        db_->settings().SetDouble("log_flush_interval_us", interval);
        std::vector<RedoRecord> redo;
        redo.reserve(records);
        for (uint64_t i = 0; i < records; i++) {
          RedoRecord r;
          r.op = LogOpType::kUpdate;
          r.table_id = 1;
          r.slot = i;
          for (uint32_t v = 0; v < value_count; v++) {
            r.after.push_back(Value::Integer(rng.Uniform(int64_t{0}, int64_t{1} << 30)));
          }
          redo.push_back(std::move(r));
        }
        for (uint32_t rep = 0; rep < config_.repetitions; rep++) {
          DrainCollection();
          EnableCollection();
          db_->log_manager().Serialize(redo, /*txn_id=*/rep);
          db_->log_manager().FlushNow();
          DisableCollection();
          for (auto &r : DrainCollection()) {
            if (r.ou == OuType::kLogSerialize || r.ou == OuType::kLogFlush) {
              out.push_back(std::move(r));
            }
          }
        }
      }
    }
  }
  db_->settings().SetDouble("log_flush_interval_us", 10000.0);
  return out;
}

std::vector<OuRecord> OuRunner::RunGc() {
  std::vector<OuRecord> out;
  Stopwatch watch(&runner_seconds_);
  for (uint64_t rows : config_.row_counts) {
    if (rows < 512 || rows > 65536) continue;
    for (uint32_t churn : {1u, 3u}) {
      const std::string name = "ou_gc_" + std::to_string(next_table_id_++);
      Table *table = MakeSyntheticTable(db_, name, rows, rows, rows * 7);
      // Create garbage: update every row `churn` times.
      for (uint32_t k = 0; k < churn; k++) {
        auto txn = db_->txn_manager().Begin();
        Tuple row;
        for (SlotId slot = 0; slot < table->NumSlots(); slot++) {
          if (!table->Select(txn.get(), slot, &row)) continue;
          row[1] = Value::Integer(row[1].AsInt() + 1);
          table->Update(txn.get(), slot, row);
        }
        db_->txn_manager().Commit(txn.get());
      }
      DrainCollection();
      EnableCollection();
      db_->gc().RunOnce();
      DisableCollection();
      for (auto &r : DrainCollection()) {
        if (r.ou == OuType::kGarbageCollection) out.push_back(std::move(r));
      }
    }
  }
  return out;
}

std::vector<OuRecord> OuRunner::RunStorage() {
  std::vector<OuRecord> out;
  Stopwatch watch(&runner_seconds_);
  const int64_t saved_pool = db_->settings().GetInt("buffer_pool_pages");

  for (uint64_t rows : config_.row_counts) {
    if (rows < 64 || rows > 32768) continue;  // bound disk-table sizes
    // Sweep the pool so the models see the full hit-ratio range: a pool the
    // table thrashes (every page misses), a partial fit, and a full fit.
    for (int64_t pool_pages : {int64_t{8}, int64_t{64}, int64_t{512}}) {
      db_->settings().SetInt("buffer_pool_pages", pool_pages);
      const std::string name = "ou_disk_" + std::to_string(next_table_id_++);
      Table *table = MakeSyntheticTable(db_, name, rows, rows,
                                        /*seed=*/rows * 13 + pool_pages,
                                        TableStorage::kDisk);
      BufferPool *pool = table->heap()->pool();
      db_->estimator().RefreshStats();

      auto make_scan = [&] {
        auto scan = std::make_unique<SeqScanPlan>();
        scan->table = table->name();
        for (uint32_t c = 0; c < 1 + kSynthPayloadCols; c++) {
          scan->columns.push_back(c);
        }
        return FinalizePlan(std::move(scan), db_->catalog());
      };
      auto plan = make_scan();

      // PAGE_READ: the scan's staging phase records it (ExecSeqScanDisk)
      // with the actual miss count as a feature. Cold reps drop the cache
      // first (every page misses); hot reps rescan a warmed cache.
      for (bool cold : {true, false}) {
        if (!cold) db_->Execute(*plan);  // warm
        for (uint32_t rep = 0; rep < config_.repetitions; rep++) {
          if (cold) pool->DropAll();
          DrainCollection();
          EnableCollection();
          db_->Execute(*plan);
          DisableCollection();
          for (auto &r : DrainCollection()) {
            if (r.ou == OuType::kPageRead) out.push_back(std::move(r));
          }
        }
      }

      // PAGE_WRITE: dirty a fresh batch of pages with inserts, then flush
      // them under a tracker scope. The flushed-page count is only known
      // afterwards (evicted pages were already written back), so the
      // features are finalized post-hoc like training-time cardinality.
      Rng rng(rows * 7 + static_cast<uint64_t>(pool_pages));
      const uint64_t batch = std::max<uint64_t>(64, rows / 8);
      for (uint32_t rep = 0; rep < config_.repetitions; rep++) {
        auto txn = db_->txn_manager().Begin();
        for (uint64_t i = 0; i < batch; i++) {
          Tuple row;
          row.reserve(1 + kSynthPayloadCols);
          row.push_back(Value::Integer(
              static_cast<int64_t>(1000000 + rep * batch + i)));
          for (uint32_t c = 0; c < kSynthPayloadCols; c++) {
            row.push_back(Value::Integer(rng.Uniform(int64_t{0}, int64_t{1} << 20)));
          }
          table->Insert(txn.get(), std::move(row));
        }
        db_->txn_manager().Commit(txn.get());
        DrainCollection();
        EnableCollection();
        {
          const uint64_t before = pool->stats().writebacks;
          OuTrackerScope scope(OuType::kPageWrite,
                               {0.0, 0.0, static_cast<double>(pool_pages)});
          pool->FlushAll();
          const double flushed =
              static_cast<double>(pool->stats().writebacks - before);
          scope.MutableFeatures()[0] = flushed;
          scope.MutableFeatures()[1] = flushed * kPageSize;
        }
        DisableCollection();
        for (auto &r : DrainCollection()) {
          if (r.ou == OuType::kPageWrite) out.push_back(std::move(r));
        }
      }

      // PAGE_EVICT: warm the cache with clean pages, then drop it — pure
      // frame-eviction cost with no writeback component (dirty-page
      // eviction is the PAGE_WRITE model's territory).
      for (uint32_t rep = 0; rep < config_.repetitions; rep++) {
        db_->Execute(*plan);  // warm (clean: everything was just flushed)
        pool->FlushAll();
        const double resident = static_cast<double>(pool->ResidentPages());
        DrainCollection();
        EnableCollection();
        {
          OuTrackerScope scope(OuType::kPageEvict,
                               {resident, static_cast<double>(pool_pages)});
          pool->DropAll();
        }
        DisableCollection();
        for (auto &r : DrainCollection()) {
          if (r.ou == OuType::kPageEvict) out.push_back(std::move(r));
        }
      }
    }
  }
  db_->settings().SetInt("buffer_pool_pages", saved_pool);
  return out;
}

std::vector<OuRecord> OuRunner::RunTxns() {
  std::vector<OuRecord> out;
  Stopwatch watch(&runner_seconds_);
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (uint32_t pause_us : {0u, 50u, 500u}) {
      // kTxnBegin/kTxnCommit record on the transaction's own thread, so each
      // worker collects and drains its own records.
      std::vector<std::vector<OuRecord>> collected(threads);
      std::vector<std::thread> workers;
      for (uint32_t t = 0; t < threads; t++) {
        workers.emplace_back([&, t] {
          DrainCollection();
          EnableCollection();
          for (uint32_t i = 0; i < 200; i++) {
            auto txn = db_->txn_manager().Begin();
            if (pause_us > 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(pause_us));
            }
            db_->txn_manager().Commit(txn.get());
          }
          DisableCollection();
          collected[t] = DrainCollection();
        });
      }
      for (auto &w : workers) w.join();
      for (auto &records : collected) {
        for (auto &r : records) {
          if (r.ou == OuType::kTxnBegin || r.ou == OuType::kTxnCommit) {
            out.push_back(std::move(r));
          }
        }
      }
    }
  }
  return out;
}

std::vector<OuRecord> OuRunner::RunAll() {
  const std::span<const SweepUnit> units = SweepUnits();
  std::vector<std::vector<OuRecord>> records(units.size());
  std::vector<double> seconds(units.size(), 0.0);
  auto run_unit = [&](size_t i) {
    {
      UnitDatabase unit_db(db_);
      OuRunner runner(unit_db.get(), config_);
      records[i] = (runner.*units[i].run)();
      seconds[i] = runner.runner_seconds();
    }
    // Each lane's malloc arena would otherwise keep the peak of every unit
    // it ran, on top of what the caller allocates after the sweep.
    malloc_trim(0);
  };
  auto run_lane = [&](SweepLane lane) {
    for (size_t i = 0; i < units.size(); i++) {
      if (units[i].lane == lane) run_unit(i);
    }
  };

  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      SweepLaneCount(mask) < 2) {
    for (size_t i = 0; i < units.size(); i++) run_unit(i);
  } else {
    std::thread txn_lane(run_lane, SweepLane::kTxn);
    std::thread helper_lane(run_lane, SweepLane::kHelper);
    run_lane(SweepLane::kCaller);
    helper_lane.join();
    txn_lane.join();
  }

  std::vector<OuRecord> out;
  for (size_t i = 0; i < units.size(); i++) {
    out.insert(out.end(), std::make_move_iterator(records[i].begin()),
               std::make_move_iterator(records[i].end()));
    runner_seconds_ += seconds[i];
  }
  return out;
}

}  // namespace mb2
