// --compare BASE_DIR CHANGE_DIR: judges a change against a base from two
// sets of untraced result files (<workload>.seed<S>.json, as written by
// --out), one row per (metric, workload).
//
//   regression  the change's median is worse than the base's by more than
//               the metric's bound (exit 1)
//   unresolved  the base's own spread (q3 - q1) is wider than the bound,
//               and not every change run beats every base run
//   not worse   that spread is wider than the bound, but every change run
//               beats every base run
//   improved    at least ten pairs, the change wins >= 90% of them, and
//               the medians differ by more than the base's quartile spread
//   unchanged   otherwise
//
// Differences and spreads are shares of the base median, except for
// metrics in unit "fraction": those are absolute, against abs_bound.
//
// A larger failed share (failed / attempted) or an incorrect change run
// also exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <stdexcept>

#include "bench.h"
#include "stats.h"

namespace pgmr_bench {
namespace {

/// Pairs of runs below which no gain is claimed.
constexpr std::size_t kMinPairs = 10;

struct ResultFile {
  std::string workload;
  bool correct = false;
  double attempted = 0.0;
  double failed = 0.0;
  std::map<std::string, double> metrics;
};

ResultFile parse_result(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  ResultFile r;
  r.workload = path.filename().string().substr(
      0, path.filename().string().find('.'));
  static const std::regex head(
      R"re("correct": (true|false), "attempted": (\d+), "failed": (\d+))re");
  static const std::regex metric(
      R"re("([A-Za-z0-9_.\-]+)": \{"value": ([-+0-9.eE]+), "unit")re");
  std::smatch m;
  if (!std::regex_search(last, m, head)) {
    throw std::runtime_error("not a result file: " + path.string());
  }
  r.correct = m[1] == "true";
  r.attempted = std::stod(m[2]);
  r.failed = std::stod(m[3]);
  for (auto it = std::sregex_iterator(last.begin(), last.end(), metric);
       it != std::sregex_iterator(); ++it) {
    r.metrics[(*it)[1]] = std::stod((*it)[2]);
  }
  return r;
}

/// Untraced result files of `dir`, grouped by workload, in file-name order
/// (so the i-th base and i-th change runs of a workload form a pair).
std::map<std::string, std::vector<ResultFile>> load_results(
    const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (e.path().extension() == ".json" &&
        name.find(".trace.") == std::string::npos) {
      paths.push_back(e.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::map<std::string, std::vector<ResultFile>> out;
  for (const auto& p : paths) {
    ResultFile r = parse_result(p);
    out[r.workload].push_back(std::move(r));
  }
  return out;
}

std::vector<double> values(const std::vector<ResultFile>& runs,
                           const std::string& metric) {
  std::vector<double> v;
  for (const ResultFile& r : runs) {
    const auto it = r.metrics.find(metric);
    if (it != r.metrics.end()) v.push_back(it->second);
  }
  return v;
}

}  // namespace

int compare_results(const std::string& base_dir,
                    const std::string& change_dir) {
  const auto base = load_results(base_dir);
  const auto change = load_results(change_dir);
  bool fail = false;
  std::printf("%-16s %-14s %12s %25s %12s %25s %9s %6s %s\n", "metric",
              "workload", "base", "[q1, q3]", "change", "[q1, q3]", "delta",
              "wins", "verdict");
  for (const MetricDef& def : end_to_end_metrics()) {
    for (const std::string& workload : workload_names()) {
      const auto b_it = base.find(workload);
      const auto c_it = change.find(workload);
      if (b_it == base.end() && c_it == change.end()) continue;
      const std::vector<double> b = b_it == base.end()
                                        ? std::vector<double>{}
                                        : values(b_it->second, def.name);
      const std::vector<double> c = c_it == change.end()
                                        ? std::vector<double>{}
                                        : values(c_it->second, def.name);
      if (b.empty() || c.empty()) {
        std::printf("%-16s %-14s missing on one side\n", def.name.c_str(),
                    workload.c_str());
        fail = true;
        continue;
      }
      const double mb = median(b), mc = median(c);
      const Quartiles qb = quartiles(b), qc = quartiles(c);
      // Fractions are judged on their absolute difference, the rest as a
      // share of the base median.
      const bool absolute = def.unit == "fraction";
      const double bound = absolute ? def.abs_bound : def.bound;
      const double scale =
          !absolute && std::abs(mb) > 0.0 ? std::abs(mb) : 1.0;
      // Positive = the change is better.
      const double gain = (def.higher_better ? mc - mb : mb - mc) / scale;
      const double spread = (qb.q3 - qb.q1) / scale;
      const std::size_t pairs = std::min(b.size(), c.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (def.higher_better ? c[i] > b[i] : c[i] < b[i]) ++wins;
      }
      const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
      const auto [c_min, c_max] = std::minmax_element(c.begin(), c.end());
      const bool all_better =
          def.higher_better ? *c_min > *b_max : *c_max < *b_min;
      const char* verdict = "unchanged";
      if (spread > bound) {
        verdict = all_better ? "not worse" : "unresolved";
      } else if (-gain > bound) {
        verdict = "REGRESSION";
        fail = true;
      } else if (gain > 0.0 && pairs >= kMinPairs &&
                 static_cast<double>(wins) >=
                     0.9 * static_cast<double>(pairs) &&
                 std::abs(mc - mb) > qb.q3 - qb.q1) {
        verdict = "improved";
      }
      char bq[64], cq[64];
      std::snprintf(bq, sizeof bq, "[%.6g, %.6g]", qb.q1, qb.q3);
      std::snprintf(cq, sizeof cq, "[%.6g, %.6g]", qc.q1, qc.q3);
      // The delta is in percent, or in percentage points for fractions.
      std::printf(
          "%-16s %-14s %12.6g %25s %12.6g %25s %+7.2f%-2s %3zu/%-2zu %s\n",
          def.name.c_str(), workload.c_str(), mb, bq, mc, cq,
          100.0 * (mc - mb) / scale, absolute ? "pp" : "%", wins, pairs,
          verdict);
    }
  }
  using Results = std::map<std::string, std::vector<ResultFile>>;
  const auto failed_share = [](const Results& set, bool* all_correct) {
    double failed = 0.0, attempted = 0.0;
    for (const auto& [w, runs] : set) {
      for (const ResultFile& r : runs) {
        failed += r.failed;
        attempted += r.attempted;
        *all_correct = *all_correct && r.correct;
      }
    }
    return attempted > 0.0 ? failed / attempted : 0.0;
  };
  bool base_correct = true, change_correct = true;
  const double fb = failed_share(base, &base_correct);
  const double fc = failed_share(change, &change_correct);
  std::printf("failed share: base %.6f, change %.6f%s\n", fb, fc,
              fc > fb ? "  (larger: FAIL)" : "");
  std::printf("all runs correct: base %s, change %s\n",
              base_correct ? "yes" : "NO", change_correct ? "yes" : "NO");
  fail = fail || fc > fb || !change_correct;
  return fail ? 1 : 0;
}

}  // namespace pgmr_bench
