// Figure 5 — OU-model accuracy: test relative error for each OU, averaged
// across all output labels, for four ML algorithms (random forest, neural
// network, Huber regression, gradient boosting machine). Paper result: >80%
// of OU-models under 20% error; transaction OUs and agg-probe higher
// because their elapsed times are < 10µs.
//
// Accepts --jobs N: the per-(OU, algorithm) fits run on a worker pool. Model
// errors are bit-identical across --jobs values for the same collected
// records (deterministic per-task seeding).

#include <map>

#include "harness.h"
#include "modeling/normalization.h"

using namespace mb2;
using namespace mb2::bench;

int main(int argc, char **argv) {
  const size_t jobs = ParseJobs(argc, argv);
  Section header("Figure 5: OU-model accuracy per OU (avg test relative error)");
  std::printf("(scale=%s, jobs=%zu)\n", BenchScale().c_str(), jobs);

  WallTimer sweep_timer;
  Database db;
  OuRunner runner(&db, RunnerConfig());
  const std::vector<OuRecord> records = runner.RunAll();
  const double sweep_wall_s = sweep_timer.Seconds();
  auto datasets = GroupRecordsByOu(records);
  std::printf("collected %zu records across %zu OUs\n", records.size(),
              datasets.size());

  const auto algos = Fig5Algorithms();

  // Normalize labels by the OU's complexity (Sec 4.3), then fit every
  // (eligible OU, algorithm) pair — each pair is an independent task.
  std::vector<std::pair<OuType, const OuDataset *>> eligible;
  std::map<OuType, Matrix> normalized_y;
  for (auto &[type, dataset] : datasets) {
    if (dataset.x.rows() < 50) continue;  // skip under-trained OUs
    Matrix y = dataset.y;
    for (size_t r = 0; r < y.rows(); r++) {
      Labels labels{};
      for (size_t j = 0; j < kNumLabels; j++) labels[j] = y.At(r, j);
      NormalizeLabels(type, dataset.x.Row(r), &labels);
      for (size_t j = 0; j < kNumLabels; j++) y.At(r, j) = labels[j];
    }
    normalized_y[type] = std::move(y);
    eligible.emplace_back(type, &dataset);
  }

  WallTimer train_timer;
  std::vector<double> errors(eligible.size() * algos.size(), 0.0);
  auto fit_one = [&](size_t i) {
    const auto &[type, dataset] = eligible[i / algos.size()];
    const MlAlgorithm algo = algos[i % algos.size()];
    const TrainTestSplit split =
        SplitData(dataset->x, normalized_y[type], 0.2, 42);
    auto model = CreateRegressor(algo, 42);
    model->Fit(split.x_train, split.y_train);
    errors[i] = AvgRelativeError(*model, split.x_test, split.y_test);
  };
  if (jobs > 1) {
    ThreadPool pool(jobs);
    for (size_t i = 0; i < errors.size(); i++) {
      pool.Submit([&fit_one, i] { fit_one(i); });
    }
    pool.WaitAll();
  } else {
    for (size_t i = 0; i < errors.size(); i++) fit_one(i);
  }
  const double train_wall_s = train_timer.Seconds();

  std::printf("\n%-16s", "OU");
  for (MlAlgorithm algo : algos) std::printf("%22s", MlAlgorithmName(algo));
  std::printf("\n");

  std::map<MlAlgorithm, std::pair<double, int>> totals;
  int under20_best = 0, total_ous = 0;
  for (size_t e = 0; e < eligible.size(); e++) {
    std::printf("%-16s", OuTypeName(eligible[e].first));
    double best = 1e300;
    for (size_t a = 0; a < algos.size(); a++) {
      const double err = errors[e * algos.size() + a];
      totals[algos[a]].first += err;
      totals[algos[a]].second++;
      best = std::min(best, err);
      std::printf("%22.3f", err);
    }
    std::printf("\n");
    total_ous++;
    if (best < 0.2) under20_best++;
  }

  std::printf("\n%-16s", "MEAN");
  for (MlAlgorithm algo : algos) {
    const auto &[sum, n] = totals[algo];
    std::printf("%22.3f", n == 0 ? 0.0 : sum / n);
  }
  std::printf("\n\nOUs whose best model is under 20%% error: %d / %d "
              "(paper: >80%%)\n",
              under20_best, total_ous);
  PrintJobsReport(jobs, sweep_wall_s, train_wall_s);
  return 0;
}
