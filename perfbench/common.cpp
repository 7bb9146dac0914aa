#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Fail(const std::string &message) {
  correct = false;
  if (errors.size() < 8) errors.push_back(message);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = (values.size() + 1) / 4;
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; i++) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

void LoopStats::Merge(const LoopStats &other) {
  auto append = [](std::vector<double> *to, const std::vector<double> &from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&read_us, other.read_us);
  append(&read_done_s, other.read_done_s);
  append(&write_us, other.write_us);
  append(&write_done_s, other.write_done_s);
  attempted += other.attempted;
  failed += other.failed;
  conflicts += other.conflicts;
}

namespace {
/// Splits latency samples by the window their op completed in.
std::vector<std::vector<double>> ByWindow(const std::vector<double> &us,
                                          const std::vector<double> &done_s,
                                          const std::vector<double> &bounds) {
  std::vector<std::vector<double>> out(bounds.size() - 1);
  for (size_t i = 0; i < us.size(); i++) {
    const auto next = std::upper_bound(bounds.begin(), bounds.end(), done_s[i]);
    if (next == bounds.begin() || next == bounds.end()) continue;
    out[static_cast<size_t>(next - bounds.begin() - 1)].push_back(us[i]);
  }
  return out;
}
}  // namespace

std::vector<double> EqualWindows(Clock::time_point start, double elapsed_s, int windows) {
  const double t0 = std::chrono::duration<double>(start.time_since_epoch()).count();
  std::vector<double> bounds;
  for (int w = 0; w <= windows; w++) bounds.push_back(t0 + elapsed_s * w / windows);
  return bounds;
}

constexpr size_t kDetailWindows = 20;  ///< windows listed in the detail line

void AddEndToEnd(Report *report, const LoopStats &stats, const std::vector<double> &bounds,
                 double setup_s) {
  report->attempted += stats.attempted;
  report->failed += stats.failed;
  const auto reads = ByWindow(stats.read_us, stats.read_done_s, bounds);
  const auto writes = ByWindow(stats.write_us, stats.write_done_s, bounds);
  std::vector<double> throughput, read_p50, read_p99, write_p50, write_p99;
  for (size_t w = 0; w < reads.size(); w++) {
    size_t ok = 0;
    for (double us : reads[w]) ok += us < kFailedLatencyUs;
    for (double us : writes[w]) ok += us < kFailedLatencyUs;
    throughput.push_back(static_cast<double>(ok) / (bounds[w + 1] - bounds[w]));
    read_p50.push_back(Percentile(reads[w], 0.50));
    read_p99.push_back(Percentile(reads[w], 0.99));
    write_p50.push_back(Percentile(writes[w], 0.50));
    write_p99.push_back(Percentile(writes[w], 0.99));
  }
  report->Add("setup_s", setup_s, "s");
  report->Add("throughput_ops_s", InterquartileMean(throughput), "1/s");
  report->Add("read_p50_us", InterquartileMean(read_p50), "us");
  report->Add("write_p50_us", InterquartileMean(write_p50), "us");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  // Dropped from the end-to-end set as unsteady (the tails follow the host's
  // scheduler and the shared disk's fsync); still reported for a reader of
  // the result file.
  report->detail["read_p99_us"] = InterquartileMean(read_p99);
  report->detail["write_p99_us"] = InterquartileMean(write_p99);
  report->detail["read_samples"] = static_cast<double>(stats.read_us.size());
  report->detail["write_samples"] = static_cast<double>(stats.write_us.size());
  report->detail["windows"] = static_cast<double>(reads.size());
  report->detail["measured_s"] = bounds.back() - bounds.front();
  report->detail["conflict_retries"] = static_cast<double>(stats.conflicts);
  // The first windows, where a workload that adapts shows it.
  for (size_t w = 0; w < throughput.size() && w < kDetailWindows && throughput.size() > 1; w++) {
    report->detail["window" + std::to_string(w) + ".throughput_ops_s"] = throughput[w];
    report->detail["window" + std::to_string(w) + ".read_p50_us"] = read_p50[w];
    report->detail["window" + std::to_string(w) + ".read_p99_us"] = read_p99[w];
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ull + stream);
  rng.Next();
  return rng.Next();
}

namespace {
uint64_t Fnv64(uint64_t value) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; i++) {
    h ^= value & 0xff;
    h *= 0x100000001b3ull;
    value >>= 8;
  }
  return h;
}

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; i++) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}
}  // namespace

ScrambledZipfian::ScrambledZipfian(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ScrambledZipfian::Next(Rng *rng) const {
  const double u = rng->UniformDouble();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  if (rank >= n_) rank = n_ - 1;
  return Fnv64(rank) % n_;
}

// --- Tracing -----------------------------------------------------------------

Tracer &Tracer::Instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog *Tracer::Local() {
  thread_local ThreadLog *log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    log = owned.get();
    log->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::move(owned));
  }
  return log;
}

int32_t Tracer::Open(const char *name, uint64_t request) {
  if (!enabled()) return -1;
  ThreadLog *log = Local();
  Span span;
  span.name = name;
  span.parent = log->open.empty() ? -1 : log->open.back();
  span.request = request;
  if (request == 0 && span.parent >= 0) {
    span.request = log->spans[static_cast<size_t>(span.parent)].request;
  }
  span.start_ns = NowNs();
  log->spans.push_back(span);
  const auto index = static_cast<int32_t>(log->spans.size() - 1);
  log->open.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  if (index < 0) return;
  ThreadLog *log = Local();
  log->spans[static_cast<size_t>(index)].end_ns = NowNs();
  if (!log->open.empty() && log->open.back() == index) log->open.pop_back();
}

std::vector<std::vector<Span>> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<Span>> out;
  for (const auto &log : logs_) out.push_back(log->spans);
  return out;
}

SpanSummary Summarize(const std::vector<std::vector<Span>> &logs) {
  SpanSummary summary;
  for (const auto &spans : logs) {
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span &s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span &s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      const double self = dur - child_us[i];
      summary.durations_us[s.name].push_back(dur);
      summary.self_us[s.name] += self;
      if (s.parent < 0 && std::string(s.name) == "op") {
        summary.root_total_us += dur;
        summary.root_self_us += self;
      }
    }
  }
  return summary;
}

void WriteSpans(const std::vector<std::vector<Span>> &logs,
                const std::string &path) {
  FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (size_t t = 0; t < logs.size(); t++) {
    for (size_t i = 0; i < logs[t].size(); i++) {
      const Span &s = logs[t][i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.parent, static_cast<unsigned long long>(s.request),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

double MedianSpanUs(const SpanSummary &summary, const std::string &name) {
  auto it = summary.durations_us.find(name);
  return it == summary.durations_us.end() ? 0.0 : Median(it->second);
}

void AddTraceMetrics(Report *report, double untraced_ops_per_s,
                     double traced_ops_per_s, const SpanSummary &summary) {
  report->Add("trace.overhead_frac",
              Ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0, "ratio");
  report->Add("trace.residual_frac",
              Ratio(summary.root_self_us, summary.root_total_us), "ratio");
  report->detail["trace.root_ops_us"] = summary.root_total_us;
  for (const auto &[name, us] : summary.self_us) report->detail["self_us." + name] = us;
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double AsNumber(const mb2::Value &value) {
  if (value.type() == mb2::TypeId::kInteger || value.type() == mb2::TypeId::kDouble) {
    return value.AsDouble();
  }
  return std::nan("");
}

}  // namespace perfbench
