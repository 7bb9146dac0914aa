// Figure 6 — OU-model accuracy per output label, averaged across all OUs,
// for four ML algorithms with and without output-label normalization.
// Paper result: most labels under 20% error (cache misses worst);
// normalization costs little accuracy while enabling generalization.
//
// Accepts --jobs N: the per-(algorithm, ±norm) evaluations run on a worker
// pool; results are identical across --jobs.

#include <map>

#include "harness.h"
#include "modeling/normalization.h"

using namespace mb2;
using namespace mb2::bench;

namespace {

/// Per-label test error for one algorithm over all OU datasets.
std::vector<double> LabelErrors(const std::map<OuType, OuDataset> &datasets,
                                MlAlgorithm algo, bool normalize) {
  std::vector<double> sums(kNumLabels, 0.0);
  std::vector<int> counts(kNumLabels, 0);
  for (const auto &[type, dataset] : datasets) {
    if (dataset.x.rows() < 50) continue;  // skip under-trained OUs
    Matrix y = dataset.y;
    if (normalize) {
      for (size_t r = 0; r < y.rows(); r++) {
        Labels labels{};
        for (size_t j = 0; j < kNumLabels; j++) labels[j] = y.At(r, j);
        NormalizeLabels(type, dataset.x.Row(r), &labels);
        for (size_t j = 0; j < kNumLabels; j++) y.At(r, j) = labels[j];
      }
    }
    const TrainTestSplit split = SplitData(dataset.x, y, 0.2, 42);
    auto model = CreateRegressor(algo, 42);
    model->Fit(split.x_train, split.y_train);
    const std::vector<double> errs =
        PerOutputRelativeError(*model, split.x_test, split.y_test);
    for (size_t j = 0; j < kNumLabels; j++) {
      sums[j] += errs[j];
      counts[j]++;
    }
  }
  std::vector<double> out(kNumLabels, 0.0);
  for (size_t j = 0; j < kNumLabels; j++) {
    out[j] = counts[j] == 0 ? 0.0 : sums[j] / counts[j];
  }
  return out;
}

}  // namespace

int main(int argc, char **argv) {
  const size_t jobs = ParseJobs(argc, argv);
  Section header(
      "Figure 6: OU-model accuracy per output label (± normalization)");
  std::printf("(scale=%s, jobs=%zu)\n", BenchScale().c_str(), jobs);

  WallTimer sweep_timer;
  Database db;
  OuRunner runner(&db, RunnerConfig());
  const std::vector<OuRecord> records = runner.RunAll();
  const double sweep_wall_s = sweep_timer.Seconds();
  auto datasets = GroupRecordsByOu(records);

  const auto algos = Fig5Algorithms();
  const bool norm_variants[2] = {true, false};

  // One independent task per (±normalization, algorithm) pair.
  WallTimer train_timer;
  std::vector<std::vector<double>> results(2 * algos.size());
  auto eval_one = [&](size_t i) {
    results[i] = LabelErrors(datasets, algos[i % algos.size()],
                             norm_variants[i / algos.size()]);
  };
  if (jobs > 1) {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < results.size(); i++) {
      pool.Submit([&eval_one, i] { eval_one(i); });
    }
    pool.WaitAll();
  } else {
    for (size_t i = 0; i < results.size(); i++) eval_one(i);
  }
  const double train_wall_s = train_timer.Seconds();

  for (size_t v = 0; v < 2; v++) {
    std::printf("\n--- %s output-label normalization ---\n",
                norm_variants[v] ? "WITH" : "WITHOUT");
    std::printf("%-14s", "label");
    for (MlAlgorithm algo : algos) std::printf("%22s", MlAlgorithmName(algo));
    std::printf("\n");
    for (size_t j = 0; j < kNumLabels; j++) {
      std::printf("%-14s", LabelName(j));
      for (size_t a = 0; a < algos.size(); a++) {
        std::printf("%22.3f", results[v * algos.size() + a][j]);
      }
      std::printf("\n");
    }
  }
  std::printf("\nPaper shape: errors mostly <0.2; cache_misses highest; "
              "normalization has minimal accuracy impact on the test split\n");
  PrintJobsReport(jobs, sweep_wall_s, train_wall_s);
  return 0;
}
