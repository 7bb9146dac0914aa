// oltp_remote: three closed-loop clients against an in-process net::Server
// over loopback. 70% point SELECT by id, 10% 32-row range SELECT, 15%
// single-row UPDATE, 5% INSERT on a 100k-row in-memory table; keys are
// Zipfian (theta 0.99). Every read is checked against the benchmark's own
// model of the table, and at the end the WAL is replayed into a fresh
// database to confirm that no acknowledged write was lost.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics_registry.h"
#include "traced_sql.h"
#include "wal/log_recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kRows = 100000;
constexpr int64_t kBlock = 32;  // rows per range read (blk = id / 32)
constexpr int kClients = 3;
constexpr int kPings = 2000;
constexpr int kPathChecks = 2000;  // reads run through both in-process paths
/// The mix is the same all run long, so the run is cut into this many equal
/// windows and the end-to-end figures combine the windows' values (see
/// AddEndToEnd).
constexpr int kWindows = 20;

int64_t InitVal(int64_t id) { return (id * 7919) % 100003; }

enum OpClass { kPoint = 0, kRange = 1, kUpdate = 2, kInsert = 3, kNumClasses = 4 };
constexpr double kMix[kNumClasses] = {0.70, 0.10, 0.15, 0.05};
const char *const kClassName[kNumClasses] = {"point", "range", "update", "insert"};
const char *const kExecSpan[kNumClasses] = {"exec.point_read", "exec.range_read",
                                            "exec.write", "exec.write"};

struct Op {
  OpClass cls = kPoint;
  int64_t key = 0;
  std::string sql;
};

/// One client's seeded statement stream.
class OpStream {
 public:
  OpStream(uint64_t seed, int stream, const ScrambledZipfian *zipf)
      : rng_(StreamSeed(seed, static_cast<uint64_t>(stream))),
        stream_(stream),
        zipf_(zipf) {}

  Op Next() {
    Op op;
    const uint64_t r = rng_.Uniform(100);
    if (r < 95) op.key = static_cast<int64_t>(zipf_->Next(&rng_));
    if (r < 70) {
      op.cls = kPoint;
      op.sql = "SELECT id, val FROM kv WHERE id = " + std::to_string(op.key);
    } else if (r < 80) {
      op.cls = kRange;
      op.key = op.key / kBlock;
      op.sql = "SELECT id, val FROM kv WHERE blk = " + std::to_string(op.key);
    } else if (r < 95) {
      op.cls = kUpdate;
      op.sql = "UPDATE kv SET val = val + 1 WHERE id = " + std::to_string(op.key);
    } else {
      op.cls = kInsert;
      op.key = kRows + stream_ + kClients * inserts_++;
      op.sql = "INSERT INTO kv VALUES (" + std::to_string(op.key) + ", " +
               std::to_string(op.key / kBlock) + ", " +
               std::to_string(InitVal(op.key)) + ")";
    }
    return op;
  }

 private:
  Rng rng_;
  int64_t stream_;
  int64_t inserts_ = 0;
  const ScrambledZipfian *zipf_;
};

/// The benchmark's own model of `kv`: per initial id, how many increments
/// were acknowledged and how many were sent, plus the inserted ids. A read
/// sent after `acked` and answered before `started` must see a count in
/// between.
struct Oracle {
  std::vector<std::atomic<int64_t>> acked =
      std::vector<std::atomic<int64_t>>(static_cast<size_t>(kRows));
  std::vector<std::atomic<int64_t>> started =
      std::vector<std::atomic<int64_t>>(static_cast<size_t>(kRows));
  std::mutex mutex;
  std::vector<int64_t> inserts_acked;
  uint64_t inserts_started = 0;

  void BeforeSend(const Op &op) {
    if (op.cls == kUpdate) started[op.key].fetch_add(1);
    if (op.cls == kInsert) {
      std::lock_guard<std::mutex> lock(mutex);
      inserts_started++;
    }
  }
  void Acked(const Op &op) {
    if (op.cls == kUpdate) acked[op.key].fetch_add(1);
    if (op.cls == kInsert) {
      std::lock_guard<std::mutex> lock(mutex);
      inserts_acked.push_back(op.key);
    }
  }
  /// Lower bounds of the ids a read covers, taken before it is sent.
  std::vector<int64_t> Floors(const Op &op) const {
    std::vector<int64_t> out;
    if (op.cls == kPoint) out.push_back(acked[op.key].load());
    if (op.cls == kRange) {
      for (int64_t i = 0; i < kBlock; i++) out.push_back(acked[op.key * kBlock + i].load());
    }
    return out;
  }
  /// Empty when the rows match the model; else what is wrong.
  std::string Check(const Op &op, const std::vector<int64_t> &floors,
                    const std::vector<mb2::Tuple> &rows) const {
    const int64_t first = op.cls == kPoint ? op.key : op.key * kBlock;
    const int64_t count = op.cls == kPoint ? 1 : kBlock;
    if (static_cast<int64_t>(rows.size()) != count) {
      return op.sql + ": " + std::to_string(rows.size()) + " rows, expected " +
             std::to_string(count);
    }
    std::vector<mb2::Tuple> sorted = SortedRows(rows);
    for (int64_t i = 0; i < count; i++) {
      const mb2::Tuple &row = sorted[static_cast<size_t>(i)];
      const int64_t id = first + i;
      if (row.size() != 2 || AsNumber(row[0]) != static_cast<double>(id)) {
        return op.sql + ": missing id " + std::to_string(id);
      }
      const double delta = AsNumber(row[1]) - static_cast<double>(InitVal(id));
      const double hi = static_cast<double>(started[id].load());
      if (delta < static_cast<double>(floors[static_cast<size_t>(i)]) || delta > hi) {
        return op.sql + ": id " + std::to_string(id) + " has " +
               std::to_string(delta) + " increments, expected " +
               std::to_string(floors[static_cast<size_t>(i)]) + ".." +
               std::to_string(static_cast<int64_t>(hi));
      }
    }
    return "";
  }
};

struct Instance {
  std::string wal_path;
  std::unique_ptr<mb2::Database> db;
  std::unique_ptr<mb2::net::Server> server;
  double load_s = 0.0;

  ~Instance() {
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
    std::remove(wal_path.c_str());
  }
};

/// Loads the table, builds the indexes and, with `serve`, starts the server.
std::unique_ptr<Instance> SetUp(const Options &options, int index, bool serve) {
  auto inst = std::make_unique<Instance>();
  inst->wal_path = options.out_dir + "/oltp_remote-" + std::to_string(index) + ".wal";
  std::remove(inst->wal_path.c_str());
  mb2::Database::Options db_options;
  db_options.wal_path = inst->wal_path;
  db_options.start_gc = true;
  const auto start = Clock::now();
  inst->db = std::make_unique<mb2::Database>(db_options);
  mb2::Database *db = inst->db.get();
  if (!db->settings().SetInt("wal_sync_commit", 1).ok()) {
    throw std::runtime_error("wal_sync_commit knob missing");
  }
  MustExecute(db, "CREATE TABLE kv (id INTEGER, blk INTEGER, val INTEGER)");
  LoadRows(db, "kv", kRows, 1000, [](int64_t id) {
    return std::to_string(id) + ", " + std::to_string(id / kBlock) + ", " +
           std::to_string(InitVal(id));
  });
  MustExecute(db, "CREATE UNIQUE INDEX kv_id ON kv (id)");
  MustExecute(db, "CREATE INDEX kv_blk ON kv (blk)");
  inst->load_s = SecondsSince(start);
  if (!serve) return inst;
  mb2::net::ServerOptions server_options;
  server_options.num_reactors = 1;
  inst->server = std::make_unique<mb2::net::Server>(db, nullptr, server_options);
  mb2::Status started = inst->server->Start();
  if (!started.ok()) throw std::runtime_error("server start: " + started.ToString());
  return inst;
}

/// How a client thread sends its statements.
enum class Path {
  kRemote,     ///< net::Client::ExecuteSql over the thread's own connection
  kInProcess,  ///< Database::Execute
  kTraced,     ///< TracedExecute: the engine calls one by one, spans when recording
};

/// What one statement returned, whichever path ran it.
struct Reply {
  mb2::Status status;
  std::vector<mb2::Tuple> rows;
};

Reply Send(Path path, mb2::net::Client *client, mb2::Database *db, const Op &op,
           uint64_t request) {
  Reply reply;
  if (path == Path::kRemote) {
    mb2::Result<mb2::net::RemoteQueryResult> r = client->ExecuteSql(op.sql);
    reply.status = r.status();
    if (r.ok()) reply.rows = std::move(r.value().rows);
  } else if (path == Path::kInProcess) {
    mb2::Result<mb2::QueryResult> r = db->Execute(op.sql);
    reply.status = r.ok() ? r.value().status : r.status();
    if (reply.status.ok()) reply.rows = std::move(r.value().batch.rows);
  } else {
    // Writes commit with wal_sync_commit=0 and are flushed in their own
    // wal.flush span before they count as acknowledged.
    TracedOptions traced;
    traced.exec_span = kExecSpan[op.cls];
    traced.flush_wal = op.cls == kUpdate || op.cls == kInsert;
    TracedResult r = TracedExecute(db, op.sql, request, traced);
    reply.status = r.status;
    reply.rows = std::move(r.batch.rows);
  }
  return reply;
}

/// What one client thread saw.
struct ClientResult {
  LoopStats stats;
  std::vector<double> class_us[kNumClasses];
  uint64_t requests = 0;
  uint64_t retries = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
};

void ClientLoop(Path path, Instance *inst, OpStream *ops, Oracle *oracle, Clock::time_point end,
                std::atomic<uint64_t> *request_ids, ClientResult *out) {
  std::unique_ptr<mb2::net::Client> client;
  if (path == Path::kRemote) {
    mb2::net::ClientOptions client_options;
    client_options.port = inst->server->port();
    client = std::make_unique<mb2::net::Client>(client_options);
  }
  while (Clock::now() < end) {
    const Op op = ops->Next();
    const std::vector<int64_t> floors = oracle->Floors(op);
    const auto start = Clock::now();
    out->stats.attempted++;
    Reply reply;
    while (true) {
      oracle->BeforeSend(op);
      reply = Send(path, client.get(), inst->db.get(), op, request_ids->fetch_add(1) + 1);
      if (!IsConflict(reply.status)) break;
      out->stats.conflicts++;
    }
    const double us = SecondsSince(start) * 1e6;
    bool ok = reply.status.ok();
    if (ok && (op.cls == kPoint || op.cls == kRange)) {
      const std::string error = oracle->Check(op, floors, reply.rows);
      if (!error.empty()) {
        out->mismatches++;
        if (out->errors.size() < 4) out->errors.push_back(error);
        ok = false;
      }
    }
    if (ok && (op.cls == kUpdate || op.cls == kInsert)) oracle->Acked(op);
    if (!ok) {
      out->stats.failed++;
      if (!reply.status.ok() && out->errors.size() < 4) {
        out->errors.push_back(op.sql + ": " + reply.status.ToString());
      }
    }
    const double recorded = ok ? us : kFailedLatencyUs;
    if (op.cls == kPoint || op.cls == kRange) {
      out->stats.AddRead(recorded);
    } else {
      out->stats.AddWrite(recorded);
    }
    out->class_us[op.cls].push_back(recorded);
  }
  if (client != nullptr) {
    const mb2::net::Client::Stats stats = client->stats();
    out->requests = stats.requests;
    out->retries = stats.retries;
  }
}

/// A closed-loop phase with all clients on `path`; returns the merged results.
ClientResult RunClients(Path path, Instance *inst,
                        std::vector<std::unique_ptr<OpStream>> *streams, Oracle *oracle,
                        double seconds, double *elapsed_s,
                        Clock::time_point *started = nullptr) {
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> request_ids{0};
  const auto start = Clock::now();
  if (started != nullptr) *started = start;
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back(ClientLoop, path, inst, (*streams)[c].get(), oracle, end,
                         &request_ids, &results[c]);
  }
  for (auto &t : threads) t.join();
  *elapsed_s = SecondsSince(start);
  ClientResult merged;
  for (ClientResult &r : results) {
    merged.stats.Merge(r.stats);
    for (int c = 0; c < kNumClasses; c++) {
      merged.class_us[c].insert(merged.class_us[c].end(), r.class_us[c].begin(),
                                r.class_us[c].end());
    }
    merged.requests += r.requests;
    merged.retries += r.retries;
    merged.mismatches += r.mismatches;
    for (auto &e : r.errors) merged.errors.push_back(std::move(e));
  }
  return merged;
}

void ReportClientErrors(const ClientResult &r, Report *report) {
  if (r.mismatches > 0) {
    report->Fail(std::to_string(r.mismatches) + " reads disagreed with the model");
  }
  for (const std::string &e : r.errors) report->Fail(e);
  report->attempted += r.stats.attempted;
  report->failed += r.stats.failed;
}

/// Crash the engine, replay its WAL into a fresh database, and check that
/// every acknowledged write is there and nothing unsent appeared.
void CheckDurability(Instance *inst, Oracle *oracle, Report *report) {
  if (inst->server != nullptr) inst->server->Stop();
  inst->db->log_manager().Crash();
  mb2::Database fresh;
  MustExecute(&fresh, "CREATE TABLE kv (id INTEGER, blk INTEGER, val INTEGER)");
  mb2::ReplayOptions replay_options;
  replay_options.tolerate_torn_tail = true;
  mb2::Result<mb2::RecoveryStats> replayed = mb2::ReplayLog(
      inst->wal_path, &fresh.catalog(), &fresh.txn_manager(), replay_options);
  if (!replayed.ok()) {
    report->Fail("WAL replay failed: " + replayed.status().ToString());
    return;
  }
  const mb2::QueryResult all = MustExecute(&fresh, "SELECT id, val FROM kv");
  std::vector<int64_t> delta(static_cast<size_t>(kRows), -1);
  std::vector<int64_t> extra;
  for (const mb2::Tuple &row : all.batch.rows) {
    const auto id = static_cast<int64_t>(AsNumber(row[0]));
    if (id < kRows) {
      if (delta[id] != -1) report->Fail("replayed id " + std::to_string(id) + " twice");
      delta[id] = static_cast<int64_t>(AsNumber(row[1])) - InitVal(id);
    } else {
      extra.push_back(id);
    }
  }
  uint64_t lost = 0;
  for (int64_t id = 0; id < kRows; id++) {
    if (delta[id] < oracle->acked[id].load() || delta[id] > oracle->started[id].load()) {
      if (lost++ < 3) {
        report->Fail("after replay id " + std::to_string(id) + " has " +
                     std::to_string(delta[id]) + " increments, acknowledged " +
                     std::to_string(oracle->acked[id].load()));
      }
    }
  }
  std::sort(extra.begin(), extra.end());
  for (int64_t id : oracle->inserts_acked) {
    if (!std::binary_search(extra.begin(), extra.end(), id)) {
      if (lost++ < 6) report->Fail("after replay inserted id " + std::to_string(id) + " is missing");
    }
  }
  if (extra.size() > oracle->inserts_started) {
    report->Fail("after replay " + std::to_string(extra.size()) + " inserted rows, only " +
                 std::to_string(oracle->inserts_started) + " were sent");
  }
  report->detail["durability.rows_replayed"] = static_cast<double>(all.batch.rows.size());
  report->detail["durability.acked_inserts"] = static_cast<double>(oracle->inserts_acked.size());
  report->detail["durability.lost_acked_writes"] = static_cast<double>(lost);
}

std::vector<std::unique_ptr<OpStream>> ClientStreams(uint64_t seed,
                                                     const ScrambledZipfian *zipf) {
  std::vector<std::unique_ptr<OpStream>> streams;
  for (int s = 0; s < kClients; s++) streams.push_back(std::make_unique<OpStream>(seed, s, zipf));
  return streams;
}

uint64_t CounterValue(const char *name) {
  return mb2::MetricsRegistry::Instance().GetCounter(name).Value();
}

/// One arm of the traced run: a freshly loaded engine and the clients'
/// streams and model drawn anew from the seed, so every arm sends the same
/// statements to the same data.
struct Arm {
  std::unique_ptr<Instance> inst;
  std::unique_ptr<Oracle> oracle = std::make_unique<Oracle>();
  ClientResult result;
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  double commits = 0.0, wal_flushes = 0.0, wal_bytes = 0.0;  ///< during the clients
  mb2::sql::PlanCacheStats cache_before, cache_after;

  double OpsPerSecond() const {
    return static_cast<double>(result.stats.attempted) / elapsed_s;
  }
};

/// Runs the clients on `path` against a fresh engine; `spans` records the
/// traced path's spans.
Arm RunArm(const Options &options, const ScrambledZipfian *zipf, int index, Path path,
           double seconds, bool spans = false) {
  Arm arm;
  const auto setup_start = Clock::now();
  arm.inst = SetUp(options, index, path == Path::kRemote);
  arm.setup_s = SecondsSince(setup_start);
  mb2::Database *db = arm.inst->db.get();
  std::vector<std::unique_ptr<OpStream>> streams = ClientStreams(options.seed, zipf);
  if (path == Path::kTraced) db->settings().SetInt("wal_sync_commit", 0);
  Tracer::Instance().SetEnabled(spans);
  const double commits = static_cast<double>(CounterValue("mb2_txn_commits_total"));
  const double flushes = static_cast<double>(CounterValue("mb2_wal_flushes_total"));
  const double bytes = static_cast<double>(db->log_manager().total_bytes_flushed());
  arm.cache_before = db->plan_cache().stats();
  arm.result = RunClients(path, arm.inst.get(), &streams, arm.oracle.get(), seconds,
                          &arm.elapsed_s);
  arm.cache_after = db->plan_cache().stats();
  arm.commits = static_cast<double>(CounterValue("mb2_txn_commits_total")) - commits;
  arm.wal_flushes = static_cast<double>(CounterValue("mb2_wal_flushes_total")) - flushes;
  arm.wal_bytes = static_cast<double>(db->log_manager().total_bytes_flushed()) - bytes;
  Tracer::Instance().SetEnabled(false);
  if (path == Path::kTraced) db->settings().SetInt("wal_sync_commit", 1);
  return arm;
}

/// With no client running, replays the reads of the first client's stream
/// through the traced path and through Database::Execute: both must return
/// the same rows, and the rows must match the model.
void CheckTracedPath(const Options &options, const ScrambledZipfian *zipf, Arm *arm,
                     Report *report) {
  OpStream ops(options.seed, 0, zipf);
  mb2::Database *db = arm->inst->db.get();
  for (int checked = 0; checked < kPathChecks;) {
    const Op op = ops.Next();
    if (op.cls != kPoint && op.cls != kRange) continue;
    checked++;
    report->attempted++;
    const Reply traced = Send(Path::kTraced, nullptr, db, op, 0);
    const Reply direct = Send(Path::kInProcess, nullptr, db, op, 0);
    std::string error;
    if (!traced.status.ok() || !direct.status.ok()) {
      error = op.sql + ": " + traced.status.ToString() + " / " + direct.status.ToString();
    } else if (SortedRows(traced.rows) != SortedRows(direct.rows)) {
      error = "traced path and Database::Execute disagree on " + op.sql;
    } else {
      error = arm->oracle->Check(op, arm->oracle->Floors(op), traced.rows);
    }
    if (!error.empty()) {
      report->failed++;
      report->Fail(error);
    }
  }
}

/// The remote minus the in-process latency percentile `p`, class by class,
/// weighted by the mix.
double ClassPercentileGap(const ClientResult &remote, const ClientResult &local, double p) {
  double gap = 0.0;
  for (int c = 0; c < kNumClasses; c++) {
    gap += kMix[c] * (Percentile(remote.class_us[c], p) - Percentile(local.class_us[c], p));
  }
  return gap;
}

}  // namespace

Report RunOltpRemote(const Options &options) {
  Report report;
  const ScrambledZipfian zipf(kRows, 0.99);

  if (!options.trace) {
    double setup_s = 0.0;
    std::unique_ptr<Instance> inst =
        RepeatSetUp([&](int i) { return SetUp(options, i, true); }, &setup_s);
    RecordKnobs(inst->db.get(), &report);
    std::vector<std::unique_ptr<OpStream>> streams = ClientStreams(options.seed, &zipf);
    auto oracle = std::make_unique<Oracle>();
    double elapsed = 0.0;
    Clock::time_point start;
    ClientResult remote = RunClients(Path::kRemote, inst.get(), &streams, oracle.get(),
                                     options.seconds, &elapsed, &start);
    ReportClientErrors(remote, &report);
    report.attempted -= remote.stats.attempted;  // AddEndToEnd counts them
    report.failed -= remote.stats.failed;
    AddEndToEnd(&report, remote.stats, EqualWindows(start, elapsed, kWindows), setup_s);
    CheckDurability(inst.get(), oracle.get(), &report);
    return report;
  }

  // The traced run has four arms of a quarter of the run each, with the obs
  // counters on in all of them: the remote clients as in the untraced run;
  // the same clients as in-process threads through Database::Execute, with
  // wal_sync_commit=1 as well, so the gap between the two is the network;
  // and the same threads through the traced path, first without and then
  // with spans. The traced path commits with wal_sync_commit=0 and flushes
  // the WAL itself, so only these two are compared for the tracing cost;
  // the spans of the last give the engine layers.
  const double arm_s = options.seconds / 4;
  mb2::obs::SetEnabled(true);
  Arm remote = RunArm(options, &zipf, 0, Path::kRemote, arm_s);
  report.detail["setup_s"] = remote.setup_s;
  RecordKnobs(remote.inst->db.get(), &report);
  ReportClientErrors(remote.result, &report);
  const mb2::net::ServerStats server = remote.inst->server->stats();
  std::vector<double> ping_us;
  {
    mb2::net::ClientOptions client_options;
    client_options.port = remote.inst->server->port();
    mb2::net::Client client(client_options);
    for (int i = 0; i < kPings; i++) {
      const auto t0 = Clock::now();
      if (!client.Ping().ok()) report.Fail("ping failed");
      ping_us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  CheckDurability(remote.inst.get(), remote.oracle.get(), &report);
  const double load_s = remote.inst->load_s;
  remote.inst.reset();

  Arm local = RunArm(options, &zipf, 1, Path::kInProcess, arm_s);
  ReportClientErrors(local.result, &report);
  local.inst.reset();

  Arm stepwise = RunArm(options, &zipf, 2, Path::kTraced, arm_s);
  ReportClientErrors(stepwise.result, &report);
  stepwise.inst.reset();

  Arm traced = RunArm(options, &zipf, 3, Path::kTraced, arm_s, true);
  ReportClientErrors(traced.result, &report);
  CheckTracedPath(options, &zipf, &traced, &report);
  traced.inst.reset();
  mb2::obs::SetEnabled(false);

  const auto logs = Tracer::Instance().Collect();
  const SpanSummary summary = Summarize(logs);
  WriteSpans(logs, options.out_dir + "/spans-oltp_remote.jsonl");

  const double requests = static_cast<double>(server.requests);
  report.Add("net.ping_rtt_p50_us", Median(ping_us), "us");
  report.Add("net.overhead_p50_us", ClassPercentileGap(remote.result, local.result, 0.50), "us");
  report.Add("net.overhead_p99_us", ClassPercentileGap(remote.result, local.result, 0.99), "us");
  report.Add("net.bytes_per_op",
             Ratio(static_cast<double>(server.bytes_in + server.bytes_out), requests), "B");
  report.Add("net.shed_ratio", Ratio(static_cast<double>(server.shed), requests), "ratio");
  report.Add("net.retries_per_op",
             Ratio(static_cast<double>(remote.result.retries),
                   static_cast<double>(remote.result.requests)),
             "ratio");
  AddEngineLayers(&report, summary, traced.cache_before, traced.cache_after);
  report.Add("exec.point_read_us", MedianSpanUs(summary, "exec.point_read"), "us");
  report.Add("exec.range_read_us", MedianSpanUs(summary, "exec.range_read"), "us");
  report.Add("exec.write_us", MedianSpanUs(summary, "exec.write"), "us");
  const double conflicts = static_cast<double>(remote.result.stats.conflicts);
  report.Add("txn.abort_ratio",
             Ratio(conflicts, conflicts + static_cast<double>(remote.result.stats.attempted)),
             "ratio");
  report.Add("wal.flushes_per_commit", Ratio(remote.wal_flushes, remote.commits), "ratio");
  report.Add("wal.bytes_per_commit", Ratio(remote.wal_bytes, remote.commits), "B");
  report.Add("setup.load_s", load_s, "s");
  report.detail["wal.commits"] = remote.commits;
  report.detail["net.requests"] = requests;
  for (int c = 0; c < kNumClasses; c++) {
    report.detail[std::string("net.overhead_p50_us.") + kClassName[c]] =
        Percentile(remote.result.class_us[c], 0.5) - Percentile(local.result.class_us[c], 0.5);
  }
  report.detail["arm.remote_ops_s"] = remote.OpsPerSecond();
  report.detail["arm.in_process_ops_s"] = local.OpsPerSecond();
  report.detail["arm.untraced_path_ops_s"] = stepwise.OpsPerSecond();
  report.detail["arm.traced_ops_s"] = traced.OpsPerSecond();
  AddTraceMetrics(&report, stepwise.OpsPerSecond(), traced.OpsPerSecond(), summary);
  return report;
}

}  // namespace perfbench
