// olap_disk: two closed-loop readers and one appender, in process through
// Database::Execute. `lineitem` is a disk table at least 8x the default
// buffer pool, `part` a disk table that fits in half of it. Readers rotate
// Q1-style GROUP BY aggregates, Q6-style filtered SUMs, a Q14-style
// lineitem x part join and small part aggregates; the appender commits
// 100-row INSERT batches into lineitem. Every answer is checked against
// aggregates the benchmark computes from its own seeded rows, kept up to date
// batch by batch.

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/table_heap.h"
#include "traced_sql.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kLineitemRows = 9000;
constexpr size_t kCommentChars = 800;  // l_comment; 4 rows per 4 KiB page
constexpr int64_t kParts = 8000;
constexpr int64_t kAppendRows = 100;
constexpr int kReaders = 2;
constexpr int kLiterals = 8;
constexpr uint64_t kMinLineitemPages = 2048;  // 8x the default pool
constexpr uint64_t kMaxPartPages = 128;       // half the default pool
constexpr int64_t kShipDays = 2557;

enum Col { kOrderKey, kPartKey, kQuantity, kPrice, kDiscount, kTax, kReturnFlag, kLineStatus, kShipDate, kNumCols };
using Line = std::array<int64_t, kNumCols>;
struct Part {
  int64_t type = 0, size = 0, price = 0;
};

Line MakeLine(Rng *rng, int64_t orderkey) {
  Line l{};
  l[kOrderKey] = orderkey;
  l[kPartKey] = static_cast<int64_t>(rng->Uniform(kParts));
  l[kQuantity] = 1 + static_cast<int64_t>(rng->Uniform(50));
  l[kPrice] = 100 + static_cast<int64_t>(rng->Uniform(100000));
  l[kDiscount] = static_cast<int64_t>(rng->Uniform(11));
  l[kTax] = static_cast<int64_t>(rng->Uniform(9));
  l[kReturnFlag] = static_cast<int64_t>(rng->Uniform(3));
  l[kLineStatus] = static_cast<int64_t>(rng->Uniform(2));
  l[kShipDate] = static_cast<int64_t>(rng->Uniform(kShipDays));
  return l;
}

/// The row as INSERT values, with an l_comment derived from its keys.
std::string LineValues(const Line &l) {
  std::string out;
  for (int c = 0; c < kNumCols; c++) {
    out += std::to_string(l[c]);
    out += ", ";
  }
  Rng rng(static_cast<uint64_t>(l[kOrderKey]) * 131 + static_cast<uint64_t>(l[kPartKey]));
  out += '\'';
  for (size_t i = 0; i < kCommentChars; i++) {
    const uint64_t r = rng.Uniform(27);
    out += r == 26 ? ' ' : static_cast<char>('a' + r);
  }
  out += '\'';
  return out;
}

/// Query templates; each instance is one template with one of kLiterals
/// literal sets drawn from the seed.
enum Template { kQ1 = 0, kQ6 = 1, kQ14 = 2, kPartAgg = 3, kNumTemplates = 4 };
const char *const kExecSpan[kNumTemplates] = {"exec.agg_query", "exec.scan_query",
                                              "exec.join_query", "exec.part_query"};

struct Literal {
  int64_t a = 0, b = 0;
};

std::string QuerySql(Template t, const Literal &lit) {
  const std::string a = std::to_string(lit.a), b = std::to_string(lit.b);
  switch (t) {
    case kQ1:
      return "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_price), COUNT(*) "
             "FROM lineitem WHERE l_shipdate <= " + a +
             " GROUP BY l_returnflag, l_linestatus";
    case kQ6:
      return "SELECT SUM(l_price * l_discount), COUNT(*) FROM lineitem WHERE l_shipdate >= " +
             a + " AND l_shipdate < " + std::to_string(lit.a + 365) +
             " AND l_discount >= " + std::to_string(lit.b - 1) +
             " AND l_discount <= " + std::to_string(lit.b + 1) + " AND l_quantity < 24";
    case kQ14:
      return "SELECT SUM(l_price), COUNT(*) FROM part JOIN lineitem ON p_partkey = l_partkey "
             "WHERE p_type = " + b + " AND l_shipdate >= " + a +
             " AND l_shipdate < " + std::to_string(lit.a + 90);
    default:
      return "SELECT p_type, COUNT(*), SUM(p_retailprice) FROM part WHERE p_size <= " + a +
             " GROUP BY p_type";
  }
}

/// Group key -> aggregate values, exact (every value is an integer).
using Answer = std::map<std::vector<int64_t>, std::vector<int64_t>>;

int KeyColumns(Template t) { return t == kQ1 ? 2 : t == kPartAgg ? 1 : 0; }

/// The benchmark's own answers: for every (template, literal) the answer
/// after each appended batch, so a reader can be checked against whichever
/// prefix of batches its snapshot saw. Part aggregates never change.
class Oracle {
 public:
  Oracle(uint64_t seed, const std::vector<Line> &lines, const std::vector<Part> &parts)
      : parts_(parts) {
    Rng rng(StreamSeed(seed, 77));
    for (int t = 0; t < kNumTemplates; t++) {
      for (int i = 0; i < kLiterals; i++) {
        // Redraw until the query matches some base row, so every answer
        // is a non-empty aggregate.
        Literal lit;
        Answer base;
        while (base.empty()) {
          lit = DrawLiteral(static_cast<Template>(t), &rng);
          if (t == kPartAgg) {
            for (const Part &p : parts) {
              if (p.size <= lit.a) Add({p.type}, {1, p.price}, &base);
            }
          } else {
            for (const Line &l : lines) Accumulate(static_cast<Template>(t), lit, l, &base);
          }
        }
        literals_[t][i] = lit;
        snapshots_[t][i].push_back(std::move(base));
      }
    }
  }

  const Literal &literal(Template t, int i) const { return literals_[t][i]; }

  /// Registers batch `rows` as the next append (before it is sent).
  void AddBatch(const std::vector<Line> &rows) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int t = 0; t < kPartAgg; t++) {
      for (int i = 0; i < kLiterals; i++) {
        Answer next = snapshots_[t][i].back();
        for (const Line &l : rows) Accumulate(static_cast<Template>(t), literals_[t][i], l, &next);
        snapshots_[t][i].push_back(std::move(next));
      }
    }
  }

  /// True when `got` equals the answer after some batch count in [lo, hi].
  bool Matches(Template t, int i, const Answer &got, uint64_t lo, uint64_t hi) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto &snaps = snapshots_[t][i];
    if (t == kPartAgg) return snaps.front() == got;
    for (uint64_t j = lo; j <= hi && j < snaps.size(); j++) {
      if (snaps[j] == got) return true;
    }
    return false;
  }

 private:
  static Literal DrawLiteral(Template t, Rng *rng) {
    Literal lit;
    switch (t) {
      case kQ1: lit.a = kShipDays - 60 - static_cast<int64_t>(rng->Uniform(60)); break;
      case kQ6:
        lit.a = 365 * static_cast<int64_t>(rng->Uniform(6));
        lit.b = 2 + static_cast<int64_t>(rng->Uniform(7));
        break;
      case kQ14:
        lit.a = static_cast<int64_t>(rng->Uniform(kShipDays - 90));
        lit.b = static_cast<int64_t>(rng->Uniform(25));
        break;
      default: lit.a = 10 + static_cast<int64_t>(rng->Uniform(40)); break;
    }
    return lit;
  }

  static void Add(std::vector<int64_t> key, const std::vector<int64_t> &values, Answer *out) {
    auto &slot = (*out)[std::move(key)];
    if (slot.empty()) slot.assign(values.size(), 0);
    for (size_t k = 0; k < values.size(); k++) slot[k] += values[k];
  }

  void Accumulate(Template t, const Literal &lit, const Line &l, Answer *out) const {
    switch (t) {
      case kQ1:
        if (l[kShipDate] <= lit.a) {
          Add({l[kReturnFlag], l[kLineStatus]}, {l[kQuantity], l[kPrice], 1}, out);
        }
        break;
      case kQ6:
        if (l[kShipDate] >= lit.a && l[kShipDate] < lit.a + 365 && l[kDiscount] >= lit.b - 1 &&
            l[kDiscount] <= lit.b + 1 && l[kQuantity] < 24) {
          Add({}, {l[kPrice] * l[kDiscount], 1}, out);
        }
        break;
      case kQ14:
        if (parts_[static_cast<size_t>(l[kPartKey])].type == lit.b && l[kShipDate] >= lit.a &&
            l[kShipDate] < lit.a + 90) {
          Add({}, {l[kPrice], 1}, out);
        }
        break;
      default:
        break;
    }
  }

  const std::vector<Part> &parts_;
  Literal literals_[kNumTemplates][kLiterals];
  mutable std::mutex mutex_;
  std::vector<Answer> snapshots_[kNumTemplates][kLiterals];
};

Answer ToAnswer(Template t, const std::vector<mb2::Tuple> &rows, bool *well_formed) {
  Answer out;
  const size_t keys = static_cast<size_t>(KeyColumns(t));
  *well_formed = true;
  for (const mb2::Tuple &row : rows) {
    if (row.size() <= keys) {
      *well_formed = false;
      return out;
    }
    std::vector<int64_t> key, values;
    for (size_t c = 0; c < row.size(); c++) {
      const double v = AsNumber(row[c]);
      const auto i = static_cast<int64_t>(v);
      if (static_cast<double>(i) != v) *well_formed = false;
      (c < keys ? key : values).push_back(i);
    }
    if (out.count(key) > 0) *well_formed = false;
    out[key] = values;
  }
  return out;
}

struct Instance {
  std::string wal_path, heap_path;
  std::unique_ptr<mb2::Database> db;
  double load_s = 0.0;
  ~Instance() {
    db.reset();
    std::remove(wal_path.c_str());
    std::remove(heap_path.c_str());
  }
};

std::unique_ptr<Instance> SetUp(const Options &options, int index,
                                const std::vector<Line> &lines, const std::vector<Part> &parts) {
  auto inst = std::make_unique<Instance>();
  const std::string stem = options.out_dir + "/olap_disk-" + std::to_string(index);
  inst->wal_path = stem + ".wal";
  inst->heap_path = stem + ".heap";
  std::remove(inst->wal_path.c_str());
  mb2::Database::Options db_options;
  db_options.wal_path = inst->wal_path;
  db_options.heap_path = inst->heap_path;
  db_options.start_gc = true;
  const auto start = Clock::now();
  inst->db = std::make_unique<mb2::Database>(db_options);
  mb2::Database *db = inst->db.get();
  db->settings().SetInt("wal_sync_commit", 1);
  MustExecute(db,
              "CREATE TABLE part (p_partkey INTEGER, p_type INTEGER, p_size INTEGER, "
              "p_retailprice INTEGER) WITH (storage = disk)");
  MustExecute(db,
              "CREATE TABLE lineitem (l_orderkey INTEGER, l_partkey INTEGER, l_quantity INTEGER, "
              "l_price INTEGER, l_discount INTEGER, l_tax INTEGER, l_returnflag INTEGER, "
              "l_linestatus INTEGER, l_shipdate INTEGER, l_comment VARCHAR) WITH (storage = disk)");
  LoadRows(db, "part", kParts, 1000, [&parts](int64_t i) {
    const Part &p = parts[static_cast<size_t>(i)];
    return std::to_string(i) + ", " + std::to_string(p.type) + ", " + std::to_string(p.size) +
           ", " + std::to_string(p.price);
  });
  LoadRows(db, "lineitem", kLineitemRows, 1000,
           [&lines](int64_t i) { return LineValues(lines[static_cast<size_t>(i)]); });
  inst->load_s = SecondsSince(start);
  const uint64_t line_pages = db->catalog().GetTable("lineitem")->heap()->NumPages();
  const uint64_t part_pages = db->catalog().GetTable("part")->heap()->NumPages();
  const uint64_t pool_pages = db->buffer_pool()->CapacityPages();
  if (line_pages < std::max(kMinLineitemPages, 8 * pool_pages) || part_pages > pool_pages / 2 ||
      part_pages > kMaxPartPages) {
    throw std::runtime_error("olap_disk sizing off: lineitem " + std::to_string(line_pages) +
                             " pages, part " + std::to_string(part_pages) + " pages, pool " +
                             std::to_string(pool_pages));
  }
  return inst;
}

/// One phase of readers + appender; `stepwise` routes every statement
/// through the traced path, which records spans while the Tracer is on.
struct PhaseResult {
  LoopStats stats;
  uint64_t reads = 0;
  uint64_t batches = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;
  Clock::time_point start;
  double elapsed_s = 0.0;
};

class Phase {
 public:
  Phase(mb2::Database *db, Oracle *oracle, uint64_t seed, bool stepwise,
        uint64_t *next_batch)
      : db_(db), oracle_(oracle), seed_(seed), stepwise_(stepwise), next_batch_(next_batch) {}

  PhaseResult Run(double seconds) {
    acked_ = *next_batch_;
    started_ = *next_batch_;
    const auto start = Clock::now();
    result_.start = start;
    end_ = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; r++) threads.emplace_back([this, r] { ReaderLoop(r); });
    threads.emplace_back([this] { AppenderLoop(); });
    for (auto &t : threads) t.join();
    result_.elapsed_s = SecondsSince(start);
    *next_batch_ = acked_.load();
    return std::move(result_);
  }

 private:
  /// Runs one statement through Database::Execute or the traced path, retrying
  /// MVCC conflicts. Returns false with `error` set on failure.
  bool Execute(const std::string &sql, const char *exec_span, bool write,
               mb2::Batch *out, std::string *error, LoopStats *stats) {
    while (true) {
      mb2::Status status;
      if (stepwise_) {
        TracedOptions options;
        options.exec_span = exec_span;
        options.flush_wal = write;
        TracedResult r = TracedExecute(db_, sql, request_ids_.fetch_add(1) + 1, options);
        status = r.status;
        *out = std::move(r.batch);
      } else {
        mb2::Result<mb2::QueryResult> r = db_->Execute(sql);
        status = r.ok() ? r.value().status : r.status();
        if (r.ok()) *out = std::move(r.value().batch);
      }
      if (status.ok()) return true;
      if (!IsConflict(status)) {
        *error = sql.substr(0, 80) + ": " + status.ToString();
        return false;
      }
      stats->conflicts++;
    }
  }

  void ReaderLoop(int reader) {
    Rng rng(StreamSeed(seed_, 200 + static_cast<uint64_t>(reader) + 17 * *next_batch_));
    LoopStats stats;
    uint64_t mismatches = 0, reads = 0;
    std::vector<std::string> errors;
    for (uint64_t n = static_cast<uint64_t>(reader); Clock::now() < end_; n++) {
      const auto t = static_cast<Template>(n % kNumTemplates);
      const int lit = static_cast<int>(rng.Uniform(kLiterals));
      const std::string sql = QuerySql(t, oracle_->literal(t, lit));
      const uint64_t lo = acked_.load();
      const auto start = Clock::now();
      stats.attempted++;
      reads++;
      mb2::Batch batch;
      std::string error;
      bool ok = Execute(sql, kExecSpan[t], false, &batch, &error, &stats);
      const double us = SecondsSince(start) * 1e6;
      if (ok) {
        const uint64_t hi = started_.load();
        bool well_formed = false;
        const Answer got = ToAnswer(t, batch.rows, &well_formed);
        const bool match = well_formed && oracle_->Matches(t, lit, got, lo, hi);
        if (!match) {
          ok = false;
          mismatches++;
          error = "wrong answer to " + sql.substr(0, 120);
        }
      }
      if (!ok) {
        stats.failed++;
        if (errors.size() < 3) errors.push_back(error);
      }
      stats.AddRead(ok ? us : kFailedLatencyUs);
    }
    Merge(stats, 0, reads, mismatches, errors);
  }

  void AppenderLoop() {
    LoopStats stats;
    std::vector<std::string> errors;
    uint64_t batches = 0;
    while (Clock::now() < end_) {
      const uint64_t j = started_.load();
      Rng rng(StreamSeed(seed_, 1000 + j));
      std::vector<Line> rows;
      std::string sql = "INSERT INTO lineitem VALUES ";
      for (int64_t i = 0; i < kAppendRows; i++) {
        rows.push_back(MakeLine(&rng, kLineitemRows / 4 + static_cast<int64_t>(j) * kAppendRows + i));
        sql += (i > 0 ? ", (" : "(") + LineValues(rows.back()) + ")";
      }
      oracle_->AddBatch(rows);
      started_.store(j + 1);
      const auto start = Clock::now();
      stats.attempted++;
      mb2::Batch batch;
      std::string error;
      const bool ok = Execute(sql, "exec.append_batch", true, &batch, &error, &stats);
      stats.AddWrite(ok ? SecondsSince(start) * 1e6 : kFailedLatencyUs);
      if (!ok) {
        // The model now assumes a batch that may be missing; stop appending
        // so readers fail loudly rather than drift.
        stats.failed++;
        errors.push_back(error);
        break;
      }
      acked_.store(j + 1);
      batches++;
    }
    Merge(stats, batches, 0, 0, errors);
  }

  void Merge(const LoopStats &stats, uint64_t batches, uint64_t reads, uint64_t mismatches,
             const std::vector<std::string> &errors) {
    std::lock_guard<std::mutex> lock(mutex_);
    result_.stats.Merge(stats);
    result_.batches += batches;
    result_.reads += reads;
    result_.mismatches += mismatches;
    for (const auto &e : errors) result_.errors.push_back(e);
  }

  mb2::Database *db_;
  Oracle *oracle_;
  uint64_t seed_;
  bool stepwise_;
  uint64_t *next_batch_;
  Clock::time_point end_;
  std::atomic<uint64_t> acked_{0}, started_{0}, request_ids_{0};
  std::mutex mutex_;
  PhaseResult result_;
};

void ReportPhaseErrors(const PhaseResult &r, Report *report) {
  if (r.mismatches > 0) report->Fail(std::to_string(r.mismatches) + " wrong answers");
  for (const auto &e : r.errors) report->Fail(e);
  report->attempted += r.stats.attempted;
  report->failed += r.stats.failed;
}

/// One phase of the traced run on its own engine, with what the per-layer
/// metrics need from around it.
struct StepwiseRun {
  PhaseResult phase;
  double setup_s = 0.0, load_s = 0.0;
  mb2::BufferPool::Stats pool_before, pool_after;
  mb2::sql::PlanCacheStats cache_before, cache_after;

  double OpsPerSecond() const {
    return static_cast<double>(phase.stats.attempted) / phase.elapsed_s;
  }
};

StepwiseRun RunStepwise(const Options &options, const std::vector<Line> &lines,
                        const std::vector<Part> &parts, int index, bool spans, Report *report) {
  StepwiseRun out;
  const auto setup_start = Clock::now();
  std::unique_ptr<Instance> inst = SetUp(options, index, lines, parts);
  out.setup_s = SecondsSince(setup_start);
  out.load_s = inst->load_s;
  mb2::Database *db = inst->db.get();
  if (index == 0) RecordKnobs(db, report);
  Oracle oracle(options.seed, lines, parts);
  uint64_t next_batch = 0;
  db->settings().SetInt("wal_sync_commit", 0);
  out.pool_before = db->buffer_pool()->stats();
  out.cache_before = db->plan_cache().stats();
  Tracer::Instance().SetEnabled(spans);
  Phase phase(db, &oracle, options.seed, true, &next_batch);
  out.phase = phase.Run(options.seconds / 2);
  Tracer::Instance().SetEnabled(false);
  out.pool_after = db->buffer_pool()->stats();
  out.cache_after = db->plan_cache().stats();
  ReportPhaseErrors(out.phase, report);
  return out;
}

}  // namespace

Report RunOlapDisk(const Options &options) {
  Report report;
  std::vector<Part> parts;
  std::vector<Line> lines;
  {
    Rng rng(StreamSeed(options.seed, 1));
    for (int64_t i = 0; i < kParts; i++) {
      Part p;
      p.type = static_cast<int64_t>(rng.Uniform(25));
      p.size = 1 + static_cast<int64_t>(rng.Uniform(50));
      p.price = 900 + static_cast<int64_t>(rng.Uniform(1100));
      parts.push_back(p);
    }
    for (int64_t i = 0; i < kLineitemRows; i++) lines.push_back(MakeLine(&rng, i / 4));
  }
  if (!options.trace) {
    Oracle oracle(options.seed, lines, parts);
    uint64_t next_batch = 0;
    double setup_s = 0.0;
    std::unique_ptr<Instance> inst =
        RepeatSetUp([&](int i) { return SetUp(options, i, lines, parts); }, &setup_s);
    RecordKnobs(inst->db.get(), &report);
    Phase phase(inst->db.get(), &oracle, options.seed, false, &next_batch);
    const PhaseResult r = phase.Run(options.seconds);
    ReportPhaseErrors(r, &report);
    report.attempted -= r.stats.attempted;  // AddEndToEnd counts them
    report.failed -= r.stats.failed;
    AddEndToEnd(&report, r.stats, EqualWindows(r.start, r.elapsed_s, 1), setup_s);
    report.detail["append_batches"] = static_cast<double>(r.batches);
    return report;
  }

  // Traced run: the phase twice, each on a freshly loaded engine with the
  // same seed and through the traced path, which commits with
  // wal_sync_commit=0 and times an explicit FlushNow before an append counts
  // as done. Spans are recorded only the second time, so the slowdown
  // between the two is the tracing cost.
  const StepwiseRun plain = RunStepwise(options, lines, parts, 0, false, &report);
  const StepwiseRun traced = RunStepwise(options, lines, parts, 1, true, &report);
  report.detail["setup_s"] = traced.setup_s;
  const auto logs = Tracer::Instance().Collect();
  const SpanSummary summary = Summarize(logs);
  WriteSpans(logs, options.out_dir + "/spans-olap_disk.jsonl");
  AddEngineLayers(&report, summary, traced.cache_before, traced.cache_after);
  const double rows_after = static_cast<double>(kLineitemRows + traced.phase.batches * kAppendRows);
  const double mean_rows = 0.5 * (static_cast<double>(kLineitemRows) + rows_after);
  report.Add("exec.scan_ns_per_row", MedianSpanUs(summary, "exec.scan_query") * 1e3 / mean_rows,
             "ns");
  report.Add("exec.agg_query_us", MedianSpanUs(summary, "exec.agg_query"), "us");
  report.Add("exec.join_query_us", MedianSpanUs(summary, "exec.join_query"), "us");
  report.Add("exec.append_batch_us", MedianSpanUs(summary, "exec.append_batch"), "us");
  const mb2::BufferPool::Stats &pool_before = traced.pool_before, &pool_after = traced.pool_after;
  const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses = static_cast<double>(pool_after.misses - pool_before.misses);
  const double reads = static_cast<double>(traced.phase.reads);
  report.Add("storage.pool_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report.Add("storage.misses_per_scan", Ratio(misses, reads), "count");
  report.Add("storage.evictions_per_scan",
             Ratio(static_cast<double>(pool_after.evictions - pool_before.evictions), reads),
             "count");
  report.Add("storage.writebacks_per_append",
             Ratio(static_cast<double>(pool_after.writebacks - pool_before.writebacks),
                   static_cast<double>(traced.phase.batches)),
             "count");
  report.Add("setup.load_s", traced.load_s, "s");
  report.detail["storage.scans"] = reads;
  report.detail["storage.appends"] = static_cast<double>(traced.phase.batches);
  AddTraceMetrics(&report, plain.OpsPerSecond(), traced.OpsPerSecond(), summary);
  return report;
}

}  // namespace perfbench
