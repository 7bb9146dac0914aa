#pragma once

// The three workloads and the engine helpers they share.

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "database.h"
#include "sql/plan_cache.h"

namespace perfbench {

Report RunOltpRemote(const Options &options);
Report RunOlapDisk(const Options &options);
Report RunSelfdrivingShift(const Options &options);

/// Runs set-up/DDL SQL; a failure here is a broken benchmark, so it throws.
mb2::QueryResult MustExecute(mb2::Database *db, const std::string &sql);

/// Loads `rows` rows into `table` with multi-row INSERTs of `batch` rows;
/// `row(i)` renders row i's values ("1, 2, 3").
void LoadRows(mb2::Database *db, const std::string &table, int64_t rows,
              int64_t batch, const std::function<std::string(int64_t)> &row);

/// A statement is retried when it lost an MVCC write conflict.
bool IsConflict(const mb2::Status &status);

/// Rows sorted, so results from different plans or paths compare equal.
std::vector<mb2::Tuple> SortedRows(std::vector<mb2::Tuple> rows);

/// The engine's knob values, for the result header.
void RecordKnobs(mb2::Database *db, Report *report);

/// The sql.*, txn.* and wal.* layer metrics every traced run measures with
/// the traced path: median span durations, and the plan-cache hit ratio over
/// the traced phase (`before`/`after` are PlanCache::stats snapshots).
void AddEngineLayers(Report *report, const SpanSummary &summary,
                     const mb2::sql::PlanCacheStats &before,
                     const mb2::sql::PlanCacheStats &after);

/// An untraced run sets up at least kMinSetups times, and then again while
/// its set-ups have taken less than kSetupBudgetS in all (at most kMaxSetups
/// times). setup_s is their InterquartileMean, so one slow repetition does
/// not decide the figure, and a quick set-up is measured more often.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 4.0;

/// Calls `set_up(i)` as above, keeps only the last instance and stores the
/// set-up time in `*setup_s`.
template <typename SetUpFn>
auto RepeatSetUp(const SetUpFn &set_up, double *setup_s) -> decltype(set_up(0)) {
  decltype(set_up(0)) inst;
  std::vector<double> times;
  double total_s = 0.0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || total_s < kSetupBudgetS); i++) {
    inst.reset();
    const auto start = Clock::now();
    inst = set_up(i);
    times.push_back(SecondsSince(start));
    total_s += times.back();
  }
  *setup_s = InterquartileMean(times);
  return inst;
}

}  // namespace perfbench
