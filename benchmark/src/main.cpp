// pgmr_bench: see bench.h and benchmark/README.md. benchmark/run.sh builds
// and invokes it; run by hand only from the repository root.
//
//   pgmr_bench --workload NAME --seconds S [--seed N] [--trace 0|1]
//              [--build-dir DIR] [--out DIR]
//   pgmr_bench --prepare [--build-dir DIR]
//   pgmr_bench --compare BASE_DIR CHANGE_DIR
//   pgmr_bench --list-workloads
//   pgmr_bench --catalog        (the metric lists of BENCHMARK.json)
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pgmr_bench --workload NAME --seconds S [--seed N] "
               "[--trace 0|1] [--build-dir DIR] [--out DIR]\n"
               "       pgmr_bench --prepare [--build-dir DIR]\n"
               "       pgmr_bench --compare BASE_DIR CHANGE_DIR\n"
               "       pgmr_bench --list-workloads\n"
               "       pgmr_bench --catalog\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  pgmr_bench::RunOptions opt;
  bool prepare = false;
  std::string compare_base, compare_change;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (arg == "--build-dir") {
        opt.build_dir = value();
      } else if (arg == "--out") {
        opt.out_dir = value();
      } else if (arg == "--prepare") {
        prepare = true;
      } else if (arg == "--compare") {
        compare_base = value();
        compare_change = value();
      } else if (arg == "--list-workloads") {
        for (const std::string& w : pgmr_bench::workload_names()) {
          std::printf("%s\n", w.c_str());
        }
        return 0;
      } else if (arg == "--catalog") {
        std::printf("%s", pgmr_bench::catalog_json().c_str());
        return 0;
      } else {
        return usage();
      }
    }
    if (!compare_base.empty()) {
      return pgmr_bench::compare_results(compare_base, compare_change);
    }
    if (prepare) return pgmr_bench::prepare_models(opt.build_dir);
    if (opt.workload.empty() || !(opt.seconds > 0.0)) return usage();
    return pgmr_bench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgmr_bench: %s\n", e.what());
    return 1;
  }
}
