#pragma once

/// \file failover_client.h
/// A client over a *set* of endpoints that routes requests to whichever one
/// is currently primary. On a transport failure or a NOT_PRIMARY response
/// (Status::Unavailable) it re-resolves: every endpoint is probed with
/// HEALTH and the primary with the highest epoch wins — epoch, bumped on
/// every promotion, is the tiebreak that prevents routing back to a stale
/// primary that merely came back to life. Resolution retries on a
/// heartbeat cadence until `resolve_timeout_ms` elapses, which covers the
/// window where the old primary is dead but the follower has not finished
/// promoting yet.
///
/// Thread-safe; endpoint probing is serialized so a burst of failing
/// requests triggers one re-resolution, not one per request.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "net/client.h"

namespace mb2::net {

struct FailoverClientOptions {
  /// One per node; index 0 is tried first (the presumed primary).
  std::vector<ClientOptions> endpoints;
  /// Wall-clock budget for finding a primary once routing fails.
  int64_t resolve_timeout_ms = 5000;
  /// Pause between resolution sweeps while no primary answers.
  int64_t resolve_interval_ms = 50;
  /// Also re-execute DML after a *transport* failure (kIoError). Off by
  /// default: a transport error cannot distinguish "never executed" from
  /// "executed, response lost", so retrying a non-idempotent statement on
  /// the new primary may double-apply it. Opting in makes DML through this
  /// client explicitly at-least-once. Reads and NOT_PRIMARY refusals (the
  /// node answered without executing anything) are always safe to retry
  /// and do not need this.
  bool retry_dml_on_transport_error = false;
};

class FailoverClient {
 public:
  explicit FailoverClient(FailoverClientOptions options);
  ~FailoverClient() = default;
  MB2_DISALLOW_COPY_AND_MOVE(FailoverClient);

  /// Routed request: runs against the current primary, re-resolving after a
  /// transport failure or NOT_PRIMARY answer. The retry on the new primary
  /// happens only when it cannot double-apply: always after NOT_PRIMARY
  /// (the old node refused without executing), and after a transport error
  /// only for read-only statements — unless `retry_dml_on_transport_error`
  /// opts DML into at-least-once. A non-retried statement surfaces the
  /// transport error (routing has still moved, so the caller's next request
  /// lands on the new primary).
  Result<RemoteQueryResult> ExecuteSql(const std::string &sql);
  Status Ping();

  /// Endpoint index currently believed primary.
  size_t current() const { return current_.load(std::memory_order_acquire); }
  /// Times routing moved to a different endpoint.
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }

 private:
  /// True when `status` means "this endpoint cannot serve", i.e. re-resolve
  /// (transport error or NOT_PRIMARY) rather than a request-level error.
  static bool ShouldFailover(const Status &status);
  /// Conservative read-only detection (SELECT/SHOW/EXPLAIN): anything else
  /// is treated as potentially state-changing for retry purposes.
  static bool IsReadOnlySql(const std::string &sql);
  /// The routing path of every request: runs `fn` on the current primary;
  /// after a transport failure or NOT_PRIMARY it re-resolves and runs `fn`
  /// once more on the new primary. A transport failure is retried only when
  /// `retry_after_transport_error` says the request cannot double-apply.
  template <typename Fn>
  auto Routed(bool retry_after_transport_error, Fn &&fn)
      -> decltype(fn(std::declval<Client &>()));
  /// Probes all endpoints, moves current_ to the best primary. NotFound
  /// when the budget elapses with no primary anywhere.
  Status Resolve();

  FailoverClientOptions options_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<size_t> current_{0};
  std::atomic<uint64_t> failovers_{0};
  std::mutex resolve_mutex_;
};

}  // namespace mb2::net
