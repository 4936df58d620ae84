// The metric catalog: every name the benchmark prints, declared once.
#include <cstdio>
#include <sstream>

#include "bench.h"

namespace pgmr_bench {

std::string metric_token(const std::string& prep_spec) {
  std::string out;
  for (const char c : prep_spec) {
    if (c == '(') {
      out += '_';
    } else if (c != ')') {
      out += c;
    }
  }
  return out;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_rps", "req/s", true, 0.25},
      {"latency_p50_ms", "ms", false, 0.25},
      {"latency_p90_ms", "ms", false, 0.25},
      {"availability", "fraction", true, 0.001, 0.0},
      {"tp_rate", "fraction", true, 0.02, 0.002},
      {"fp_rate", "fraction", false, 0.25, 0.002},
      {"setup_s", "s", false, 0.25},
      {"peak_rss_mb", "MiB", false, 0.10},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"zoo.load_s", "s", false, 0},
        {"polygraph.profile_s", "s", false, 0},
        {"fleet.submit_us_p50", "us", false, 0},
        {"fleet.submit_us_p99", "us", false, 0},
        {"fleet.imbalance", "ratio", false, 0},
        {"fleet.spills", "count", false, 0},
        {"proc.hop_us_p50", "us", false, 0},
        {"proc.restarts", "count", false, 0},
        {"runtime.wait_us_p50", "us", false, 0},
        {"runtime.wait_us_p99", "us", false, 0},
        {"runtime.batch_mean", "req", true, 0},
        {"runtime.batches_per_s", "1/s", true, 0},
        {"runtime.scrub_hold_us_p99", "us", false, 0},
        {"runtime.scrub_cycles", "count", true, 0},
        {"polygraph.batch_us_p50", "us", false, 0},
        {"mr.member_skew_us_p50", "us", false, 0},
        {"mr.activations_per_req", "count", false, 0},
        {"mr.vote_us", "us", false, 0},
    };
    for (const std::string& spec : all_prep_specs()) {
      d.push_back({"prep." + metric_token(spec) + ".us", "us", false, 0});
    }
    for (int l = 0; l < kMaxLayers; ++l) {
      d.push_back({"nn.l" + std::to_string(l) + ".us", "us", false, 0});
    }
    for (int l = 0; l < kMaxLayers; ++l) {
      d.push_back({"nn.l" + std::to_string(l) + ".gmacs", "GMAC/s", true, 0});
    }
    d.push_back({"nn.macs_per_req", "MAC", false, 0});
    d.push_back({"nn.bytes_per_req", "B", false, 0});
    d.push_back({"quant.abft_us", "us", false, 0});
    for (int l = 0; l < kMaxLayers; ++l) {
      d.push_back({"quant.abft.l" + std::to_string(l) + ".us", "us", false, 0});
    }
    d.push_back({"perf.abft_overhead_measured", "ratio", false, 0});
    d.push_back({"perf.abft_overhead_model", "ratio", false, 0});
    d.push_back({"driver.lag_p99_ms", "ms", false, 0});
    d.push_back({"trace.overhead_pct", "%", false, 0});
    return d;
  }();
  return defs;
}

const MetricDef* find_metric(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *list) {
      if (d.name == name) return &d;
    }
  }
  return nullptr;
}

std::string catalog_json() {
  std::ostringstream out;
  const auto list = [&out](const char* key, const std::vector<MetricDef>& defs,
                           bool bounds) {
    out << "  \"" << key << "\": [\n";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      const MetricDef& d = defs[i];
      out << "    {\"name\": \"" << d.name << "\", \"unit\": \"" << d.unit
          << "\", \"better\": \"" << (d.higher_better ? "higher" : "lower")
          << '"';
      if (bounds) out << ", \"bound\": " << d.bound;
      out << '}' << (i + 1 < defs.size() ? "," : "") << "\n";
    }
    out << "  ]";
  };
  out << "{\n";
  list("end_to_end", end_to_end_metrics(), true);
  out << ",\n";
  list("per_layer", per_layer_metrics(), false);
  out << "\n}\n";
  return out.str();
}

std::string result_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace pgmr_bench
