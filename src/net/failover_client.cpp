#include "net/failover_client.h"

#include <cctype>
#include <chrono>
#include <thread>

#include "metrics/metrics_collector.h"
#include "obs/metrics_registry.h"

namespace mb2::net {

namespace {

const Status &StatusOf(const Status &status) { return status; }
template <typename T>
const Status &StatusOf(const Result<T> &result) {
  return result.status();
}

Counter &ClientFailoverCounter() {
  static Counter &c = MetricsRegistry::Instance().GetCounter(
      "mb2_net_client_failovers_total");
  return c;
}

}  // namespace

FailoverClient::FailoverClient(FailoverClientOptions options)
    : options_(std::move(options)) {
  MB2_ASSERT(!options_.endpoints.empty(), "failover client needs endpoints");
  clients_.reserve(options_.endpoints.size());
  for (const ClientOptions &ep : options_.endpoints) {
    clients_.push_back(std::make_unique<Client>(ep));
  }
}

bool FailoverClient::ShouldFailover(const Status &status) {
  // kUnavailable is the wire's NOT_PRIMARY: the node answered, it just
  // cannot serve this by role. kIoError is transport (dead/unreachable).
  return status.code() == ErrorCode::kUnavailable ||
         status.code() == ErrorCode::kIoError;
}

bool FailoverClient::IsReadOnlySql(const std::string &sql) {
  size_t i = sql.find_first_not_of(" \t\r\n(");
  if (i == std::string::npos) return false;
  std::string word;
  for (; i < sql.size() && std::isalpha(static_cast<unsigned char>(sql[i]));
       i++) {
    word.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(sql[i]))));
  }
  return word == "SELECT" || word == "SHOW" || word == "EXPLAIN";
}

Status FailoverClient::Resolve() {
  std::lock_guard<std::mutex> lock(resolve_mutex_);
  const size_t was = current_.load(std::memory_order_acquire);
  const int64_t deadline_us =
      NowMicros() + options_.resolve_timeout_ms * 1000;
  for (;;) {
    size_t best = clients_.size();
    uint64_t best_epoch = 0;
    for (size_t i = 0; i < clients_.size(); i++) {
      const auto health = clients_[i]->Health();
      if (!health.ok() || health.value().role != 1) continue;
      if (best == clients_.size() || health.value().epoch > best_epoch) {
        best = i;
        best_epoch = health.value().epoch;
      }
    }
    if (best != clients_.size()) {
      if (best != was) {
        current_.store(best, std::memory_order_release);
        failovers_.fetch_add(1, std::memory_order_relaxed);
        ClientFailoverCounter().Add();
      }
      return Status::Ok();
    }
    if (NowMicros() >= deadline_us) {
      return Status::NotFound("no primary among " +
                              std::to_string(clients_.size()) + " endpoints");
    }
    // Failover window: the primary is gone and no follower has finished
    // promoting. Wait a beat and sweep again.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.resolve_interval_ms));
  }
}

template <typename Fn>
auto FailoverClient::Routed(bool retry_after_transport_error, Fn &&fn)
    -> decltype(fn(std::declval<Client &>())) {
  auto result = fn(*clients_[current()]);
  const Status &status = StatusOf(result);
  if (status.ok() || !ShouldFailover(status)) return result;
  const bool transport_error = status.code() == ErrorCode::kIoError;
  const Status resolved = Resolve();
  if (!resolved.ok()) return resolved;
  // A NOT_PRIMARY answer proves the request never executed, so anything may
  // be retried. A transport error proves nothing — the old primary may have
  // executed a DML statement and died before responding — so re-executing a
  // write there is at-least-once, which the caller must opt into. Routing
  // has already moved either way.
  if (transport_error && !retry_after_transport_error) {
    return Status::IoError(
        "statement not retried after transport error (it may have executed "
        "on the failed primary): " +
        status.ToString());
  }
  return fn(*clients_[current()]);
}

Result<RemoteQueryResult> FailoverClient::ExecuteSql(const std::string &sql) {
  return Routed(IsReadOnlySql(sql) || options_.retry_dml_on_transport_error,
                [&sql](Client &c) { return c.ExecuteSql(sql); });
}

Status FailoverClient::Ping() {
  return Routed(true, [](Client &c) { return c.Ping(); });
}

}  // namespace mb2::net
