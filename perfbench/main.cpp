// mb2bench: runs one workload of the repository benchmark and prints its
// result. Usage:
//
//   mb2bench --workload <oltp_remote|olap_disk|selfdriving_shift> --seed N
//            --seconds S --trace 0|1 --out-dir DIR [--git-sha SHA]
//            [--tree-sha SHA]
//
// Standard output ends with a header line and then one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The full result (header,
// details, errors) is also written to DIR. Exits 1 when any answer was wrong
// or any acknowledged write was lost, 2 on a usage or set-up error.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "workloads.h"

#ifndef MB2BENCH_BUILD_TYPE
#define MB2BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char *name;
  const char *unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"throughput_ops_s", "1/s"}, {"read_p50_us", "us"},
    {"write_p50_us", "us"}, {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.ping_rtt_p50_us", "us"},        {"net.overhead_p50_us", "us"},
    {"net.overhead_p99_us", "us"},        {"net.bytes_per_op", "B"},
    {"net.shed_ratio", "ratio"},          {"net.retries_per_op", "ratio"},
    {"sql.tokenize_us", "us"},            {"sql.cache_lookup_us", "us"},
    {"sql.instantiate_us", "us"},         {"sql.parse_bind_us", "us"},
    {"sql.plan_cache_hit_ratio", "ratio"},
    {"exec.point_read_us", "us"},         {"exec.range_read_us", "us"},
    {"exec.write_us", "us"},              {"exec.scan_ns_per_row", "ns"},
    {"exec.agg_query_us", "us"},          {"exec.join_query_us", "us"},
    {"exec.append_batch_us", "us"},
    {"txn.begin_us", "us"},               {"txn.commit_us", "us"},
    {"txn.abort_ratio", "ratio"},
    {"wal.flush_us", "us"},               {"wal.flushes_per_commit", "ratio"},
    {"wal.bytes_per_commit", "B"},
    {"storage.pool_hit_ratio", "ratio"},  {"storage.misses_per_scan", "count"},
    {"storage.evictions_per_scan", "count"}, {"storage.writebacks_per_append", "count"},
    {"modeling.predict_query_us", "us"},  {"modeling.ou_cache_hit_ratio", "ratio"},
    {"modeling.query_rel_err_p50", "ratio"},
    {"ctrl.tick_p50_us", "us"},           {"ctrl.tick_max_us", "us"},
    {"ctrl.actions_applied", "count"},    {"ctrl.rollbacks", "count"},
    {"ctrl.ticks_to_adapt", "count"},
    {"setup.load_s", "s"},                {"setup.sweep_s", "s"},
    {"setup.train_s", "s"},
    {"trace.overhead_frac", "ratio"},     {"trace.residual_frac", "ratio"},
};

std::string JsonString(const std::string &s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return CPU_COUNT(&set);
}

/// Orders the report's metrics as the spec lists them. A metric the
/// workload does not exercise is reported as 0 and listed in `not_measured`.
std::string MetricsJson(Report *report, bool trace, std::vector<std::string> *not_measured) {
  const MetricSpec *begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec *end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string out = "{";
  std::set<std::string> known;
  for (const MetricSpec *spec = begin; spec != end; spec++) {
    known.insert(spec->name);
    double value = 0.0;
    bool found = false;
    for (const Metric &m : report->metrics) {
      if (m.name != spec->name) continue;
      found = true;
      value = m.value;
      if (m.unit != spec->unit) report->Fail("metric " + m.name + " has unit " + m.unit);
    }
    if (!found) {
      if (!trace) report->Fail("end-to-end metric " + std::string(spec->name) + " missing");
      not_measured->push_back(spec->name);
    }
    if (!std::isfinite(value)) {
      report->Fail("metric " + std::string(spec->name) + " is not finite");
      value = 0.0;
    }
    if (out.size() > 1) out += ", ";
    out += JsonString(spec->name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(spec->unit) + "}";
  }
  for (const Metric &m : report->metrics) {
    if (known.count(m.name) == 0) report->Fail("metric " + m.name + " is not in the spec");
  }
  return out + "}";
}

int Usage(const char *message) {
  std::fprintf(stderr, "mb2bench: %s\n", message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char **argv) {
  using namespace perfbench;
  Options options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") trace = std::stoi(value);
    else if (flag == "--out-dir") options.out_dir = value;
    else if (flag == "--git-sha") options.git_sha = value;
    else if (flag == "--tree-sha") options.tree_sha = value;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  if (options.out_dir.empty()) return Usage("--out-dir is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  options.trace = trace == 1;

  Report report;
  try {
    if (options.workload == "oltp_remote") report = RunOltpRemote(options);
    else if (options.workload == "olap_disk") report = RunOlapDisk(options);
    else if (options.workload == "selfdriving_shift") report = RunSelfdrivingShift(options);
    else return Usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception &e) {
    std::fprintf(stderr, "mb2bench: %s\n", e.what());
    return 2;
  }

  std::vector<std::string> not_measured;
  const std::string metrics = MetricsJson(&report, options.trace, &not_measured);
  if (report.attempted == 0) report.Fail("no operation was attempted");

  std::string header = "{\"workload\": " + JsonString(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + JsonNumber(options.seconds) +
                       ", \"trace\": " + std::to_string(trace) +
                       ", \"git_sha\": " + JsonString(options.git_sha) +
                       ", \"src_tree_sha256\": " + JsonString(options.tree_sha) +
                       ", \"nproc\": " + std::to_string(CpusAvailable()) +
                       ", \"build_type\": " + JsonString(MB2BENCH_BUILD_TYPE) +
                       ", \"compiler\": " + JsonString(std::string("g++ ") + __VERSION__) +
                       ", \"knobs\": {";
  bool first = true;
  for (const auto &[name, value] : report.knobs) {
    header += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  header += "}}";
  std::string detail = "{\"fail_ratio\": " +
                       JsonNumber(Ratio(static_cast<double>(report.failed),
                                        static_cast<double>(report.attempted))) +
                       ", \"fail_ratio_base\": " + std::to_string(report.attempted);
  for (const auto &[name, value] : report.detail) {
    detail += ", " + JsonString(name) + ": " + JsonNumber(value);
  }
  detail += ", \"not_measured\": [";
  for (size_t i = 0; i < not_measured.size(); i++) {
    detail += (i > 0 ? ", " : "") + JsonString(not_measured[i]);
  }
  detail += "], \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); i++) {
    detail += (i > 0 ? ", " : "") + JsonString(report.errors[i]);
    std::fprintf(stderr, "mb2bench: %s\n", report.errors[i].c_str());
  }
  detail += "]}";
  const std::string result = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed) +
                             ", \"metrics\": " + metrics + "}";

  const std::string path = options.out_dir + "/result-" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" + std::to_string(trace) +
                           ".json";
  if (FILE *f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"header\": %s,\n \"detail\": %s,\n \"result\": %s}\n", header.c_str(),
                 detail.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("{\"header\": %s}\n{\"detail\": %s}\n%s\n", header.c_str(), detail.c_str(),
              result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
