// Shared helpers for the figure/table benches.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "mr/evaluate.h"
#include "prep/preprocessor.h"
#include "zoo/zoo.h"

namespace pgmr::bench {

/// Points the zoo at the repository-level cache (prewarmed by
/// tools/prewarm_cache) unless the user already set PGMR_CACHE_DIR.
inline void use_repo_cache() {
#ifdef PGMR_REPO_CACHE_DIR
  ::setenv("PGMR_CACHE_DIR", PGMR_REPO_CACHE_DIR, /*overwrite=*/0);
#endif
}

/// Validation votes of one (benchmark, preprocessor, variant) member on a
/// dataset, computed by preprocessing then running the cached network.
inline std::vector<mr::Vote> member_votes_on(const zoo::Benchmark& bm,
                                             const std::string& spec,
                                             const data::Dataset& ds,
                                             int variant = 0) {
  nn::Network net = zoo::trained_network(bm, spec, variant);
  data::Dataset transformed = ds;
  transformed.images = prep::make_preprocessor(spec)->apply(transformed.images);
  return mr::votes_from_probabilities(zoo::probabilities_on(net, transformed));
}

/// Prints a separator line for readability in the bench transcripts.
inline void rule(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

/// CPU seconds (user + system) this process has used so far. Children,
/// such as fork/exec'd shard workers, are not counted.
inline double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// One measured step of a closed-loop load: K clients, each holding exactly
/// one request in flight (submit, wait for the verdict, classify, repeat).
/// Unlike the open-loop flood, throughput here is self-clocked by service
/// latency, so ramping K exposes the concurrency knee of a serving stack.
struct ClosedLoopResult {
  std::size_t clients = 0;
  long long requests = 0;
  long long errors = 0;  ///< submissions or futures that threw
  std::int64_t tp = 0, fp = 0, unreliable = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process_cpu_seconds() spent in the step

  double rps() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
  /// Cores in use on average: speedup = (work per CPU-second) x cores.
  double cores() const { return seconds > 0.0 ? cpu_seconds / seconds : 0.0; }
  double cpu_us_per_request() const {
    return requests > 0 ? 1e6 * cpu_seconds / static_cast<double>(requests)
                        : 0.0;
  }
  double fp_rate() const {
    const std::int64_t reliable = tp + fp;
    return reliable ? static_cast<double>(fp) / static_cast<double>(reliable)
                    : 0.0;
  }
};

/// Drives `requests` submissions through `submit` with `clients` closed-loop
/// clients sharing one atomic request counter. `submit(i)` must return the
/// verdict future for global request index i (any Verdict-like with
/// `.label` / `.reliable`); `truth(i)` its ground-truth label. A submission
/// or future that throws counts as an error, not a served request.
template <typename SubmitFn, typename TruthFn>
ClosedLoopResult closed_loop_load(std::size_t clients, long long requests,
                                  SubmitFn&& submit, TruthFn&& truth) {
  ClosedLoopResult res;
  res.clients = clients == 0 ? 1 : clients;
  res.requests = requests;
  std::atomic<long long> next{0};
  std::atomic<long long> errors{0};
  std::atomic<std::int64_t> tp{0};
  std::atomic<std::int64_t> fp{0};
  std::atomic<std::int64_t> unreliable{0};
  const double cpu0 = process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(res.clients);
    for (std::size_t c = 0; c < res.clients; ++c) {
      workers.emplace_back([&] {
        for (long long i = next.fetch_add(1); i < requests;
             i = next.fetch_add(1)) {
          try {
            const auto v = submit(i).get();
            if (!v.reliable) {
              unreliable.fetch_add(1, std::memory_order_relaxed);
            } else if (v.label == truth(i)) {
              tp.fetch_add(1, std::memory_order_relaxed);
            } else {
              fp.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const std::exception&) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }  // joins the clients
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  res.cpu_seconds = process_cpu_seconds() - cpu0;
  res.errors = errors.load();
  res.tp = tp.load();
  res.fp = fp.load();
  res.unreliable = unreliable.load();
  return res;
}

/// Concurrency ramp: doubles the client count 1, 2, 4, ... up to
/// `max_clients` (always measuring `max_clients` itself last if the
/// doubling overshoots it), stopping early once a step's marginal
/// throughput gain over the previous one falls below `knee_gain` — the
/// knee. Returns every step measured, in ramp order.
template <typename SubmitFn, typename TruthFn>
std::vector<ClosedLoopResult> closed_loop_ramp(std::size_t max_clients,
                                               long long requests_per_step,
                                               SubmitFn&& submit,
                                               TruthFn&& truth,
                                               double knee_gain = 0.10) {
  std::vector<ClosedLoopResult> steps;
  if (max_clients == 0) max_clients = 1;
  for (std::size_t k = 1; k <= max_clients;
       k = k * 2 > max_clients && k < max_clients ? max_clients : k * 2) {
    steps.push_back(closed_loop_load(k, requests_per_step, submit, truth));
    const std::size_t n = steps.size();
    if (n >= 2 &&
        steps[n - 1].rps() < steps[n - 2].rps() * (1.0 + knee_gain)) {
      break;  // past the knee: concurrency stopped buying throughput
    }
  }
  return steps;
}

/// The best-throughput step of a ramp (the knee or the last step).
inline const ClosedLoopResult& ramp_best(
    const std::vector<ClosedLoopResult>& steps) {
  const ClosedLoopResult* best = &steps.front();
  for (const ClosedLoopResult& s : steps) {
    if (s.rps() > best->rps()) best = &s;
  }
  return *best;
}

}  // namespace pgmr::bench
