#pragma once

// The traced path: one SQL statement executed step by step through the
// engine's public functions (the same steps sql::ExecuteSql takes), with a
// span around each call. Used only by traced runs; the untraced runs go
// through Database::Execute or the network client.

#include <string>

#include "database.h"
#include "modeling/model_bot.h"

namespace perfbench {

struct TracedOptions {
  /// Span name around ExecutionEngine::ExecuteInTxn (one per op class).
  const char *exec_span = "exec.query";
  /// After a successful commit, call LogManager::FlushNow() inside a
  /// `wal.flush` span (used with wal_sync_commit=0 so the fsync is timed on
  /// its own while the op stays durable when acknowledged).
  bool flush_wal = false;
  /// When set, the statement's plan is priced with ModelBot::PredictQuery in
  /// a separate `modeling.predict_query` root span after the op.
  mb2::ModelBot *bot = nullptr;
};

struct TracedResult {
  mb2::Status status;
  mb2::Batch batch;
  bool conflict = false;     ///< MVCC abort; the caller retries
  double exec_us = 0.0;      ///< begin..commit, as sql::ExecuteSql times it
  double predicted_us = -1;  ///< model estimate when `bot` was given
};

TracedResult TracedExecute(mb2::Database *db, const std::string &sql,
                           uint64_t request, const TracedOptions &options);

}  // namespace perfbench
