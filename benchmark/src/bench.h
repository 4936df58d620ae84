// pgmr_bench: the serving benchmark (see benchmark/README.md).
//
// One process runs one workload. It builds the serving stack through the
// repository's public API only, drives load from at most nproc client
// threads, times every request with steady_clock from outside, checks every
// served verdict against the serial PolygraphSystem::predict_batch oracle,
// and prints every metric by name and unit. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pgmr_bench {

using Clock = std::chrono::steady_clock;

/// Top-level layer slots reported per workload (densenet40 has 16, the
/// most of the three networks); indices are shared across workloads.
inline constexpr int kMaxLayers = 16;

/// The member preprocessors any workload uses, in report order.
inline const std::vector<std::string>& all_prep_specs() {
  static const std::vector<std::string> specs = {
      "ORG", "FlipX", "FlipY", "AdHist", "ConNorm", "Gamma(2.00)"};
  return specs;
}

/// Catalog entry: how a metric is named, measured and judged.
struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_better = false;
  double bound = 0.0;  ///< allowed worsening, share of the base median (e2e)
  /// Metrics in unit "fraction": the allowed worsening as an absolute
  /// difference (0.002 = 0.2 pp; 0 = any), which --compare judges instead
  /// of `bound`. BENCHMARK.json can carry only the relative `bound`.
  double abs_bound = 0.0;
};

/// The end-to-end metrics (untraced run) and per-layer metrics (traced
/// run), in print order. BENCHMARK.json lists exactly these names; the
/// --smoke self-test checks it.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();
const MetricDef* find_metric(const std::string& name);

/// Metric-name form of a preprocessor spec ("Gamma(2.00)" -> "Gamma_2.00").
std::string metric_token(const std::string& prep_spec);

/// Workload names in run order.
const std::vector<std::string>& workload_names();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measured window; run.sh passes its fixed one
  bool trace = false;
  std::string build_dir = "build-bench";
  std::string out_dir;  ///< when set, the result JSON is also written here
};

/// One measured value as printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The catalog as the "end_to_end" and "per_layer" lists of BENCHMARK.json.
std::string catalog_json();

/// The result line: exactly the keys correct, attempted, failed, metrics.
std::string result_json(const RunResult& result);

/// Runs one workload; returns the process exit code (0 ok, 1 incorrect
/// output / failures / restarts, 2 missing model archive).
int run_workload(const RunOptions& options);

/// Fills the benchmark's model cache with every member archive the
/// workloads need: copied from the repository cache when the checkout has
/// it there, trained otherwise (a fresh clone has no .pgmr_cache). Never
/// runs inside a measured run.
int prepare_models(const std::string& build_dir);

/// --compare: median/quartiles per (metric, workload), pair wins,
/// unresolved spreads; non-zero exit on a regression beyond a bound or a
/// larger failed share.
int compare_results(const std::string& base_dir, const std::string& change_dir);

}  // namespace pgmr_bench
