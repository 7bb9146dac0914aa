#include <algorithm>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

mb2::QueryResult MustExecute(mb2::Database *db, const std::string &sql) {
  mb2::Result<mb2::QueryResult> result = db->Execute(sql);
  if (!result.ok()) {
    throw std::runtime_error("set-up statement failed: " +
                             result.status().ToString() + " in: " +
                             sql.substr(0, 120));
  }
  if (!result.value().status.ok()) {
    throw std::runtime_error("set-up statement failed: " +
                             result.value().status.ToString() + " in: " +
                             sql.substr(0, 120));
  }
  return std::move(result.value());
}

void LoadRows(mb2::Database *db, const std::string &table, int64_t rows,
              int64_t batch, const std::function<std::string(int64_t)> &row) {
  for (int64_t start = 0; start < rows; start += batch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    const int64_t end = std::min(rows, start + batch);
    for (int64_t i = start; i < end; i++) {
      if (i > start) sql += ", ";
      sql += "(" + row(i) + ")";
    }
    MustExecute(db, sql);
  }
}

bool IsConflict(const mb2::Status &status) {
  if (status.code() != mb2::ErrorCode::kAborted) return false;
  const std::string &m = status.message();
  return m.find("conflict") != std::string::npos ||
         m.find("snapshot too old") != std::string::npos;
}

std::vector<mb2::Tuple> SortedRows(std::vector<mb2::Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

void RecordKnobs(mb2::Database *db, Report *report) {
  report->knobs = db->settings().Snapshot();
}

void AddEngineLayers(Report *report, const SpanSummary &summary,
                     const mb2::sql::PlanCacheStats &before,
                     const mb2::sql::PlanCacheStats &after) {
  report->Add("sql.tokenize_us", MedianSpanUs(summary, "sql.tokenize"), "us");
  report->Add("sql.cache_lookup_us", MedianSpanUs(summary, "sql.cache_lookup"), "us");
  report->Add("sql.instantiate_us", MedianSpanUs(summary, "sql.instantiate"), "us");
  report->Add("sql.parse_bind_us", MedianSpanUs(summary, "sql.parse_bind"), "us");
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  report->Add("sql.plan_cache_hit_ratio", Ratio(hits, lookups), "ratio");
  report->detail["sql.plan_cache_lookups"] = lookups;
  report->Add("txn.begin_us", MedianSpanUs(summary, "txn.begin"), "us");
  report->Add("txn.commit_us", MedianSpanUs(summary, "txn.commit"), "us");
  report->Add("wal.flush_us", MedianSpanUs(summary, "wal.flush"), "us");
}

}  // namespace perfbench
