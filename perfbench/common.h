#pragma once

// Shared pieces of the repository benchmark: the run options, the result
// report, latency statistics, seeded input generators, and the in-memory span
// recorder used by traced runs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch + results directory inside the checkout
  std::string git_sha = "unknown";
  std::string tree_sha = "unknown";
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): correctness, op accounting, the
/// metrics of this run (end-to-end or per-layer), and details that belong in
/// the result file but not in the final JSON line (sample counts, bases of
/// ratios, the knob snapshot).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> detail;
  std::map<std::string, double> knobs;
  std::vector<std::string> errors;  ///< first few correctness failures

  void Add(const std::string &name, double value, const std::string &unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness failure (kept to a handful of messages).
  void Fail(const std::string &message);
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double SteadySeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// Latency of an op that failed or was refused: it misses every target.
constexpr double kFailedLatencyUs = 1e12;

/// Linear-interpolated percentile (p in [0,1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Mean of the middle half of the values (the middle one of three); 0 for
/// an empty sample. Used to combine repeated measurements of one figure:
/// like the median it ignores a few outliers, but when the host switches
/// between a fast and a slow state it moves smoothly with the share of slow
/// samples, where the median jumps from one state to the other.
double InterquartileMean(std::vector<double> values);

/// Per-thread op accounting of a closed loop. Each latency sample is kept
/// with the time its op completed (seconds on the steady clock).
struct LoopStats {
  std::vector<double> read_us, read_done_s;
  std::vector<double> write_us, write_done_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t conflicts = 0;  ///< MVCC aborts that were retried
  void AddRead(double us) {
    read_us.push_back(us);
    read_done_s.push_back(SteadySeconds());
  }
  void AddWrite(double us) {
    write_us.push_back(us);
    write_done_s.push_back(SteadySeconds());
  }
  void Merge(const LoopStats &other);
};

/// The end-to-end metric set every workload reports from its untraced run.
/// `bounds` cut the run into windows [bounds[i], bounds[i+1]) on the steady
/// clock (see SteadySeconds); each metric is the InterquartileMean of its
/// per-window values, so a stall that hits one window (a noisy neighbour, a
/// slow fsync) does not decide the run's figure. Ops that complete outside the windows
/// count as attempted but not in the figures.
void AddEndToEnd(Report *report, const LoopStats &stats, const std::vector<double> &bounds,
                 double setup_s);

/// Bounds of `windows` equal windows over [start, start + elapsed_s).
std::vector<double> EqualWindows(Clock::time_point start, double elapsed_s, int windows);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// SplitMix64: seeded, portable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double UniformDouble() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes a run seed with a stream id so each thread gets its own sequence.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// YCSB-style Zipfian over [0, n) with the hottest ranks scattered over the
/// key space by an FNV-1a hash, so hot keys do not cluster in one index leaf.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta);
  uint64_t Next(Rng *rng) const;

 private:
  uint64_t n_;
  double theta_, alpha_, zetan_, eta_, zeta2_;
};

// --- Tracing -----------------------------------------------------------------

/// One recorded span. `parent` indexes the same thread's span list (-1 for a
/// root); `request` groups the spans of one op.
struct Span {
  const char *name = "";
  int32_t parent = -1;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans are kept per thread in memory and written out when the run ends.
/// Recording is off unless a Tracer is active; the untraced run never opens
/// a span.
class Tracer {
 public:
  static Tracer &Instance();
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Opens a span on this thread; returns its index (or -1 when disabled).
  int32_t Open(const char *name, uint64_t request);
  void Close(int32_t index);

  /// All threads' spans (call once the traced threads have finished).
  std::vector<std::vector<Span>> Collect() const;

 private:
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<int32_t> open;  ///< stack of open span indexes
  };
  ThreadLog *Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class ScopedSpan {
 public:
  ScopedSpan(const char *name, uint64_t request = 0)
      : index_(Tracer::Instance().Open(name, request)) {}
  ~ScopedSpan() { Tracer::Instance().Close(index_); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

 private:
  int32_t index_;
};

/// Per-name duration and self-time totals over collected spans.
struct SpanSummary {
  std::map<std::string, std::vector<double>> durations_us;  ///< per name
  std::map<std::string, double> self_us;                    ///< per name
  double root_total_us = 0.0;  ///< summed duration of "op" roots
  double root_self_us = 0.0;   ///< time in "op" roots no child covers
};
SpanSummary Summarize(const std::vector<std::vector<Span>> &logs);

/// Writes spans as JSON lines (name, start, end, parent, request, thread).
void WriteSpans(const std::vector<std::vector<Span>> &logs,
                const std::string &path);

/// Median duration of spans named `name`, 0 when none were recorded.
double MedianSpanUs(const SpanSummary &summary, const std::string &name);

/// Adds the two trace-quality metrics: how much slower the traced phase ran
/// than the untraced one, and the share of op time no layer span covers.
/// The per-span self-time totals go to the detail line.
void AddTraceMetrics(Report *report, double untraced_ops_per_s,
                     double traced_ops_per_s, const SpanSummary &summary);

// --- Small helpers -------------------------------------------------------------

double Ratio(double numerator, double denominator);
/// Value as a number (integers and doubles); NaN for anything else.
double AsNumber(const mb2::Value &value);

}  // namespace perfbench
