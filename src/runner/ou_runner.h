#pragma once

/// \file ou_runner.h
/// OU-runners (Sec 6.2): specialized microbenchmarks that sweep each OU's
/// input-feature space (rows, columns, cardinalities, knobs) with
/// exponential step sizes, executing real engine work under the metrics
/// collector. Each configuration runs warm-up iterations followed by
/// repeated measurements aggregated with the 20% trimmed mean (robust
/// statistics), and state-modifying queries are reverted with transaction
/// rollbacks — all per the paper. NoisePage drove its runners through SQL
/// (the paper's option 2); ours use the engine's plan API (option 1) for
/// exact control over the swept parameters — the SQL frontend in src/sql/
/// sits above the same plan layer, so both options exercise identical OUs.

#include <sched.h>

#include <map>
#include <span>
#include <vector>

#include "database.h"
#include "metrics/metrics_collector.h"

namespace mb2 {

struct OuRunnerConfig {
  std::vector<uint64_t> row_counts = {64, 512, 4096, 32768, 131072};
  std::vector<double> cardinality_fractions = {0.02, 0.25, 1.0};
  std::vector<uint32_t> column_counts = {2, 4, 8};
  std::vector<int> exec_modes = {0, 1};
  std::vector<uint32_t> index_build_threads = {1, 2, 4, 8};
  uint32_t repetitions = 7;   ///< measured reps per config (trimmed mean)
  uint32_t warmups = 2;       ///< unmeasured warm-up executions
  double trim_fraction = 0.2;

  /// Scaled-down preset for unit tests.
  static OuRunnerConfig Small() {
    OuRunnerConfig cfg;
    cfg.row_counts = {64, 512, 4096};
    cfg.cardinality_fractions = {0.1, 1.0};
    cfg.column_counts = {2, 4};
    // Keep the full thread sweep even in the small preset: contending-OU
    // models must interpolate, never extrapolate, over the thread range.
    cfg.index_build_threads = {1, 2, 4, 8};
    cfg.repetitions = 3;
    cfg.warmups = 1;
    return cfg;
  }
};

class OuRunner {
 public:
  OuRunner(Database *db, OuRunnerConfig config)
      : db_(db), config_(std::move(config)) {}
  MB2_DISALLOW_COPY_AND_MOVE(OuRunner);

  /// Runs every category (SweepUnits()), each on a private Database
  /// configured like this runner's, up to three at a time (see
  /// SweepLaneCount); returns the trimmed-mean aggregated records in
  /// category order. Adds the summed per-unit time to runner_seconds().
  std::vector<OuRecord> RunAll();

  std::vector<OuRecord> RunScanAndFilter();
  std::vector<OuRecord> RunJoins();
  std::vector<OuRecord> RunAggregates();
  std::vector<OuRecord> RunSorts();
  std::vector<OuRecord> RunProjections();
  std::vector<OuRecord> RunDml();          // insert / update / delete
  std::vector<OuRecord> RunIndexScans();
  std::vector<OuRecord> RunIndexBuilds();
  std::vector<OuRecord> RunWal();
  std::vector<OuRecord> RunGc();
  std::vector<OuRecord> RunStorage();  // block I/O: page read/write/evict
  std::vector<OuRecord> RunTxns();

  /// Wall-clock seconds spent inside Run* calls so far, summed over the
  /// categories even where RunAll() overlaps them (Table 2).
  double runner_seconds() const { return runner_seconds_; }

 private:
  /// Lazily creates (and caches) a synthetic table: `id` unique int plus 7
  /// int payload columns whose distinct count is fraction*rows.
  Table *SyntheticTable(uint64_t rows, double cardinality_fraction);

  /// Executes `plan` with warmups then measured repetitions, aggregating the
  /// drained records with the trimmed mean. Appends to *out.
  void MeasurePlan(const PlanNode &plan, std::vector<OuRecord> *out);

  /// Same, but the query is executed and rolled back (DML runners).
  void MeasurePlanWithRollback(const PlanNode &plan, std::vector<OuRecord> *out);

  /// Trimmed-mean aggregation of repetition-aligned record streams.
  std::vector<OuRecord> AggregateReps(
      const std::vector<std::vector<OuRecord>> &reps) const;

  Database *db_;
  OuRunnerConfig config_;
  std::map<std::pair<uint64_t, int>, std::string> table_cache_;
  int next_table_id_ = 0;
  double runner_seconds_ = 0.0;
};

/// Populates a standalone synthetic table (exposed for tests/benches).
Table *MakeSyntheticTable(Database *db, const std::string &name, uint64_t rows,
                          uint64_t distinct, uint64_t seed,
                          TableStorage storage = TableStorage::kMemory);

/// The thread RunAll() runs a sweep unit on. Units whose transient memory
/// is large share the caller's lane so their peaks never overlap (each
/// thread's malloc arena keeps its own high-water mark).
enum class SweepLane { kCaller, kHelper, kTxn };

/// One OU category of the full sweep.
struct SweepUnit {
  std::vector<OuRecord> (OuRunner::*run)();
  SweepLane lane;
};

/// RunAll()'s units in merge (category) order, each exactly once.
std::span<const SweepUnit> SweepUnits();

/// Lanes RunAll() may run at once for a CPU affinity mask: 2 (caller and
/// helper, with the kTxn unit beside them) given two usable CPUs, else 1,
/// which runs every unit serially on the caller's thread so no unit's
/// elapsed labels include time-sharing one CPU with another.
size_t SweepLaneCount(const cpu_set_t &mask);

}  // namespace mb2
