#pragma once

/// \file harness.h
/// Shared utilities for the experiment benches (one binary per paper table /
/// figure). Each bench prints the paper-style rows for its experiment;
/// EXPERIMENTS.md records the paper-vs-measured comparison.
///
/// Environment knobs:
///   MB2_BENCH_SCALE=small|medium|full   sweep sizes (default medium)
///   MB2_JOBS=N                          training workers (same as --jobs N)
///
/// Command-line flags (benches that accept argc/argv):
///   --jobs N | --jobs=N | -j N          model-training worker pool size
///
/// The OU-runner sweep (OuRunner::RunAll) picks its own concurrency from the
/// CPUs the process may run on; --jobs does not change it.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "database.h"
#include "modeling/model_bot.h"
#include "runner/concurrent_runner.h"
#include "runner/ou_runner.h"

namespace mb2::bench {

inline std::string BenchScale() {
  const char *env = std::getenv("MB2_BENCH_SCALE");
  return env == nullptr ? "medium" : env;
}

/// Worker count for model training: --jobs N, --jobs=N, or -j N on
/// the command line; falls back to MB2_JOBS, then to 1 (serial).
inline size_t ParseJobs(int argc, char **argv) {
  long jobs = 0;
  for (int i = 1; i < argc; i++) {
    const char *arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = std::atol(arg + 7);
    } else if ((std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0)
               && i + 1 < argc) {
      jobs = std::atol(argv[++i]);
    }
  }
  if (jobs <= 0) {
    const char *env = std::getenv("MB2_JOBS");
    if (env != nullptr) jobs = std::atol(env);
  }
  return jobs > 0 ? static_cast<size_t>(jobs) : 1;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// OU-runner sweep sized for the bench scale.
inline OuRunnerConfig RunnerConfig() {
  const std::string scale = BenchScale();
  if (scale == "small") {
    OuRunnerConfig cfg = OuRunnerConfig::Small();
    return cfg;
  }
  OuRunnerConfig cfg;
  if (scale == "full") {
    cfg.row_counts = {64, 512, 4096, 32768, 131072, 524288};
    cfg.repetitions = 10;
    cfg.warmups = 5;
    return cfg;
  }
  // medium. The smallest table is 256 rows: sub-µs OU invocations are
  // dominated by timer noise and poison relative-error metrics (the paper
  // hits the same wall with short OLTP OUs).
  cfg.row_counts = {256, 1024, 8192, 32768};
  cfg.cardinality_fractions = {0.05, 0.5, 1.0};
  cfg.column_counts = {2, 4, 8};
  cfg.index_build_threads = {1, 2, 4, 8};
  cfg.repetitions = 7;
  cfg.warmups = 2;
  return cfg;
}

/// TPC-H scale factors standing in for the paper's 0.1 / 1 / 10 GB.
inline double TpchSmallSf() { return BenchScale() == "small" ? 0.001 : 0.004; }
inline double TpchMediumSf() { return BenchScale() == "small" ? 0.01 : 0.04; }
inline double TpchLargeSf() { return BenchScale() == "small" ? 0.1 : 0.4; }

/// The four algorithms Figs 5/6 report.
inline std::vector<MlAlgorithm> Fig5Algorithms() {
  return {MlAlgorithm::kRandomForest, MlAlgorithm::kNeuralNetwork,
          MlAlgorithm::kHuber, MlAlgorithm::kGradientBoosting};
}

struct Section {
  explicit Section(const std::string &title) {
    std::printf("\n=== %s ===\n", title.c_str());
  }
};

inline void PrintKv(const std::string &key, const std::string &value) {
  std::printf("  %-44s %s\n", key.c_str(), value.c_str());
}

inline std::string Fmt(double v) {
  char buf[64];
  if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%.3g", v);
  else std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Standard wall-clock report for `--jobs` benches: rerun with different
/// `--jobs` values and compare the training line for the speedup (the sweep
/// line does not depend on `--jobs`).
inline void PrintJobsReport(size_t jobs, double sweep_wall_s,
                            double train_wall_s) {
  std::printf("\n--- wall clock (jobs=%zu) ---\n", jobs);
  std::printf("  %-28s %.2f s\n", "OU-runner sweep", sweep_wall_s);
  std::printf("  %-28s %.2f s\n", "model training", train_wall_s);
  std::printf("  %-28s %.2f s\n", "sweep + training total",
              sweep_wall_s + train_wall_s);
}

}  // namespace mb2::bench
