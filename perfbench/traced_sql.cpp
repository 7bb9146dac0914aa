#include "traced_sql.h"

#include "common.h"
#include "ctrl/workload_stream.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/plan_cache.h"

namespace perfbench {

TracedResult TracedExecute(mb2::Database *db, const std::string &sql,
                           uint64_t request, const TracedOptions &options) {
  using mb2::sql::CachedPlan;
  TracedResult out;
  std::shared_ptr<const CachedPlan> entry;
  mb2::PlanPtr owned;
  mb2::sql::BoundStatement bound;  // owns the plan of an uncached statement
  const mb2::PlanNode *plan = nullptr;
  {
    ScopedSpan op("op", request);
    mb2::Result<std::vector<mb2::sql::Token>> tokens = [&] {
      ScopedSpan span("sql.tokenize");
      return mb2::sql::Tokenize(sql);
    }();
    if (!tokens.ok()) {
      out.status = tokens.status();
      return out;
    }
    mb2::sql::PlanCache &cache = db->plan_cache();
    const bool use_cache = cache.Enabled();
    mb2::ctrl::WorkloadStream *stream = db->workload_stream();
    std::string key;
    std::vector<mb2::Value> literals;
    if (use_cache || stream != nullptr) {
      ScopedSpan span("sql.cache_lookup");
      key = mb2::sql::NormalizeTokens(tokens.value());
      if (use_cache) {
        literals = mb2::sql::LiteralValues(tokens.value());
        entry = cache.Lookup(key, literals);
      }
    }
    bool cacheable = false;
    uint64_t version = 0;
    if (entry != nullptr) {
      if (entry->num_literals == 0) {
        plan = entry->plan.get();
      } else {
        ScopedSpan span("sql.instantiate");
        owned = mb2::sql::InstantiatePlan(*entry, literals);
        plan = owned.get();
      }
    } else {
      version = db->catalog().version();
      mb2::Result<mb2::sql::BoundStatement> parsed = [&] {
        ScopedSpan span("sql.parse_bind");
        return mb2::sql::Parse(db, sql);
      }();
      if (!parsed.ok()) {
        out.status = parsed.status();
        return out;
      }
      bound = std::move(parsed.value());
      if (bound.kind != mb2::sql::BoundStatement::Kind::kQuery &&
          bound.kind != mb2::sql::BoundStatement::Kind::kDml) {
        out.status = mb2::Status::InvalidArgument("traced path runs queries and DML only");
        return out;
      }
      cacheable = use_cache && bound.cacheable;
      plan = bound.plan.get();
    }

    const auto start = Clock::now();
    mb2::TransactionManager &tm = db->txn_manager();
    std::unique_ptr<mb2::Transaction> txn = [&] {
      ScopedSpan span("txn.begin");
      return tm.Begin();
    }();
    mb2::Status status;
    {
      ScopedSpan span(options.exec_span);
      status = db->engine().ExecuteInTxn(*plan, txn.get(), &out.batch);
    }
    if (status.ok()) {
      ScopedSpan span("txn.commit");
      status = tm.Commit(txn.get());
    } else {
      ScopedSpan span("txn.abort");
      tm.Abort(txn.get());
    }
    out.exec_us = SecondsSince(start) * 1e6;
    if (!status.ok()) {
      out.status = status;
      out.conflict = status.code() == mb2::ErrorCode::kAborted;
      return out;
    }
    if (options.flush_wal) {
      ScopedSpan span("wal.flush");
      out.status = db->log_manager().FlushNow();
      if (!out.status.ok()) return out;
    }
    if (stream != nullptr) stream->Observe(key, sql, out.exec_us);
    if (cacheable) {
      auto fresh = std::make_shared<CachedPlan>();
      fresh->kind = bound.kind == mb2::sql::BoundStatement::Kind::kQuery
                        ? CachedPlan::Kind::kQuery
                        : CachedPlan::Kind::kDml;
      fresh->structural_literals = std::move(bound.structural_literals);
      fresh->num_literals = bound.num_literals;
      fresh->catalog_version = version;
      fresh->plan = std::move(bound.plan);
      plan = fresh->plan.get();
      entry = fresh;
      cache.Insert(key, std::move(fresh));
    }
  }
  if (options.bot != nullptr && plan != nullptr) {
    ScopedSpan span("modeling.predict_query", request);
    out.predicted_us = options.bot->PredictQuery(*plan).ElapsedUs();
  }
  return out;
}

}  // namespace perfbench
