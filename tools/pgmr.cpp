// pgmr: command-line front end for designing, evaluating and running
// PolygraphMR systems from text configuration files.
//
//   pgmr design <benchmark> <members> <out.cfg>   greedy-build a system
//   pgmr eval <config.cfg>                        test-split TP/FP report
//   pgmr predict <config.cfg> <sample-index>      classify one test sample
//   pgmr serve-bench <config.cfg> [flags]         serving-runtime load test
//   pgmr workload <out.trace> [flags]             generate a traffic trace
//   pgmr list                                     available benchmarks/preps
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "fleet/router.h"
#include "mr/protection.h"
#include "perf/cost_model.h"
#include "polygraph/builder.h"
#include "polygraph/config.h"
#include "prep/preprocessor.h"
#include "runtime/serving_runtime.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {

using namespace pgmr;

int cmd_list() {
  std::printf("benchmarks:\n");
  for (const zoo::Benchmark& bm : zoo::all_benchmarks()) {
    std::printf("  %-12s dataset=%s classes=%lld input=%lldx%lldx%lld\n",
                bm.id.c_str(), bm.dataset_id.c_str(),
                static_cast<long long>(bm.input.classes),
                static_cast<long long>(bm.input.channels),
                static_cast<long long>(bm.input.size),
                static_cast<long long>(bm.input.size));
  }
  std::printf("preprocessors:\n ");
  for (const std::string& spec : prep::standard_pool()) {
    std::printf(" %s", spec.c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_design(const std::string& benchmark_id, int members,
               const std::string& out_path) {
  const zoo::Benchmark& bm = zoo::find_benchmark(benchmark_id);
  std::printf("designing a %d-member system for %s...\n", members,
              benchmark_id.c_str());
  const polygraph::GreedyResult result =
      polygraph::greedy_build(bm, zoo::candidate_pool(bm), members);

  polygraph::SystemConfig config;
  config.benchmark = benchmark_id;
  config.members = result.selected;
  config.thresholds = result.operating_point.thresholds;
  polygraph::save_config(config, out_path);

  std::printf("selected:");
  for (const std::string& spec : result.selected) {
    std::printf(" %s", spec.c_str());
  }
  std::printf("\nthresholds: Thr_Conf=%.2f Thr_Freq=%d "
              "(validation TP %.2f%%, FP %.2f%%)\nwrote %s\n",
              static_cast<double>(config.thresholds.conf),
              config.thresholds.freq, 100.0 * result.operating_point.tp_rate,
              100.0 * result.operating_point.fp_rate, out_path.c_str());
  return 0;
}

int cmd_eval(const std::string& config_path) {
  const polygraph::SystemConfig config = polygraph::load_config(config_path);
  const zoo::Benchmark& bm = zoo::find_benchmark(config.benchmark);
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);
  polygraph::PolygraphSystem system = polygraph::make_system(config);

  nn::Network baseline = zoo::trained_network(bm, "ORG");
  const mr::Outcome base = mr::evaluate_single(
      zoo::probabilities_on(baseline, splits.test), splits.test.labels, 0.0F);
  const mr::Outcome out =
      system.evaluate(splits.test.images, splits.test.labels);
  std::printf("baseline: TP %.2f%%  FP %.2f%%\n", 100.0 * base.tp_rate(),
              100.0 * base.fp_rate());
  std::printf("system:   TP %.2f%%  FP %.2f%%  unreliable %.2f%%\n",
              100.0 * out.tp_rate(), 100.0 * out.fp_rate(),
              100.0 * (1.0 - out.tp_rate() - out.fp_rate()));
  std::printf("FP detected: %.1f%%\n",
              100.0 * (1.0 - out.fp_rate() / base.fp_rate()));
  if (config.staged) {
    const mr::StagedOutcome staged =
        system.evaluate_staged(splits.test.images, splits.test.labels);
    std::printf("mean members activated (RADE): %.2f / %zu\n",
                staged.mean_activated(), config.members.size());
  }
  return 0;
}

int cmd_predict(const std::string& config_path, std::int64_t index) {
  const polygraph::SystemConfig config = polygraph::load_config(config_path);
  const zoo::Benchmark& bm = zoo::find_benchmark(config.benchmark);
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);
  if (index < 0 || index >= splits.test.size()) {
    std::fprintf(stderr, "sample index out of range (0..%lld)\n",
                 static_cast<long long>(splits.test.size() - 1));
    return 1;
  }
  polygraph::PolygraphSystem system = polygraph::make_system(config);
  const polygraph::Verdict v = system.predict(splits.test.sample(index));
  std::printf("sample %lld: predicted %lld (truth %lld) -> %s "
              "(%d votes, %d members activated)\n",
              static_cast<long long>(index), static_cast<long long>(v.label),
              static_cast<long long>(
                  splits.test.labels[static_cast<std::size_t>(index)]),
              v.reliable ? "RELIABLE" : "UNRELIABLE", v.votes, v.activated);
  return 0;
}

std::vector<std::int64_t> row_argmax(const Tensor& probs) {
  const std::int64_t n = probs.shape()[0];
  const std::int64_t c = probs.shape()[1];
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = probs.data() + i * c;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

/// --protection auto's per-member sensitivity probe: with ABFT temporarily
/// off (so faults flow through), inject a handful of high-exponent weight
/// flips per member and measure the fraction of probe predictions each
/// flip changes. Weights are restored bit-exactly; the member's protection
/// (and thereby its CRC blessing) is reinstated before returning.
std::vector<double> probe_sensitivities(polygraph::PolygraphSystem& system,
                                        const data::Dataset& probe) {
  constexpr int kFlipsPerMember = 8;
  std::vector<double> sens(system.ensemble().size(), 1.0);
  for (std::size_t m = 0; m < system.ensemble().size(); ++m) {
    mr::Member& mem = system.ensemble().member(m);
    const nn::Protection saved = mem.protection();
    mem.set_protection(nn::Protection::off);
    const std::vector<std::int64_t> base =
        row_argmax(mem.probabilities(probe.images));
    Rng rng(0x9E3779B9ULL + m);
    std::vector<fault::FaultSite> sites = fault::sample_sites(
        mem.net().mutable_network(), kFlipsPerMember, rng);
    double changed = 0.0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      sites[i].bit = 23 + static_cast<int>(i % 8);  // exponent bits only
      const float orig = fault::inject(mem.net().mutable_network(), sites[i]);
      const std::vector<std::int64_t> pred =
          row_argmax(mem.probabilities(probe.images));
      fault::restore(mem.net().mutable_network(), sites[i], orig);
      std::int64_t diff = 0;
      for (std::size_t j = 0; j < base.size(); ++j) {
        if (pred[j] != base[j]) ++diff;
      }
      changed += static_cast<double>(diff) / static_cast<double>(base.size());
    }
    sens[m] = sites.empty()
                  ? 1.0
                  : changed / static_cast<double>(sites.size());
    mem.set_protection(saved);
  }
  return sens;
}

/// Drives the serving runtime with load drawn from the benchmark's test
/// split — open-loop (flood every request up front) by default, or
/// fixed-concurrency closed-loop with --closed-loop K — and reports
/// throughput, latency and quality. --shards N > 1 serves through a
/// fleet::FleetRouter over N replicas (each built from the same config)
/// instead of a single runtime, reporting merged metrics.
int cmd_serve_bench(const std::string& config_path, int argc, char** argv) {
  runtime::RuntimeOptions opts;
  opts.threads = 1;
  opts.max_batch = 16;
  opts.max_delay = std::chrono::microseconds(2000);
  long long requests = 1000;
  long long deadline_us = 0;  // 0 = no per-request deadline
  long long closed_loop = 0;  // 0 = open loop, K = concurrent clients
  std::size_t shards = 1;     // > 1 = fleet-routed serving
  fleet::Isolation isolation = fleet::Isolation::thread;
  bool replacement = false;
  bool protection_auto = false;
  double sdc_budget = 0.05;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string arg = argv[i + 1];
    const long long value = std::atoll(arg.c_str());
    if (flag == "--threads") {
      opts.threads = static_cast<std::size_t>(value);
    } else if (flag == "--max-batch") {
      opts.max_batch = static_cast<std::size_t>(value);
    } else if (flag == "--max-delay-us") {
      opts.max_delay = std::chrono::microseconds(value);
    } else if (flag == "--queue-cap") {
      opts.queue_capacity = static_cast<std::size_t>(value);
    } else if (flag == "--requests") {
      requests = value;
    } else if (flag == "--deadline-us") {
      deadline_us = value;
    } else if (flag == "--closed-loop") {
      closed_loop = value;
    } else if (flag == "--shards") {
      shards = static_cast<std::size_t>(value);
    } else if (flag == "--isolation") {
      if (arg == "thread") {
        isolation = fleet::Isolation::thread;
      } else if (arg == "process") {
        isolation = fleet::Isolation::process;
      } else {
        std::fprintf(stderr,
                     "serve-bench: --isolation must be thread|process\n");
        return 2;
      }
    } else if (flag == "--protection") {
      if (arg == "off") {
        opts.protection = nn::Protection::off;
      } else if (arg == "fc" || arg == "final_fc") {
        opts.protection = nn::Protection::final_fc;
      } else if (arg == "full") {
        opts.protection = nn::Protection::full;
      } else if (arg == "auto") {
        protection_auto = true;
      } else {
        std::fprintf(stderr,
                     "serve-bench: --protection must be off|fc|full|auto\n");
        return 2;
      }
    } else if (flag == "--sdc-budget") {
      sdc_budget = std::atof(arg.c_str());
    } else if (flag == "--scrub-interval-ms") {
      opts.scrub_interval = std::chrono::milliseconds(value);
    } else if (flag == "--training-threads") {
      opts.replacement.training_threads = static_cast<std::size_t>(value);
    } else if (flag == "--training-nice") {
      opts.replacement.training_nice = static_cast<int>(value);
    } else if (flag == "--replacement") {
      if (arg == "on") {
        replacement = true;
      } else if (arg == "off") {
        replacement = false;
      } else {
        std::fprintf(stderr, "serve-bench: --replacement must be on|off\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "serve-bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (requests <= 0) {
    std::fprintf(stderr, "serve-bench: --requests must be positive\n");
    return 2;
  }
  if (closed_loop < 0) {
    std::fprintf(stderr, "serve-bench: --closed-loop must be >= 0\n");
    return 2;
  }
  if (shards == 0) shards = 1;
  if (replacement && shards > 1) {
    // The replacement factory is wired to one live runtime (and trains on
    // process-wide thread settings); per-shard self-healing is not routed
    // through serve-bench yet.
    std::fprintf(stderr,
                 "serve-bench: --replacement on requires --shards 1\n");
    return 2;
  }

  const polygraph::SystemConfig config = polygraph::load_config(config_path);
  const zoo::Benchmark& bm = zoo::find_benchmark(config.benchmark);
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);
  const std::int64_t pool_n = splits.test.size();
  std::printf("serve-bench: %s (%zu members, shards=%zu, isolation=%s, "
              "threads=%zu, "
              "max_batch=%zu, max_delay=%lldus, requests=%lld, "
              "protection=%s, scrub_interval=%lldms, mode=%s)\n",
              config.benchmark.c_str(), config.members.size(), shards,
              fleet::to_string(isolation),
              opts.threads, opts.max_batch,
              static_cast<long long>(opts.max_delay.count()), requests,
              protection_auto ? "auto" : nn::to_string(opts.protection),
              static_cast<long long>(opts.scrub_interval.count()),
              closed_loop > 0 ? "closed-loop" : "open-loop");

  polygraph::PolygraphSystem system = polygraph::make_system(config);
  if (protection_auto) {
    // Cost-driven plan: probe each member's SDC sensitivity with a few
    // exponent flips on a small slice, then pick the cheapest per-member
    // assignment whose residual SDC mass fits the budget.
    const std::int64_t probe_n = std::min<std::int64_t>(32, splits.val.size());
    const data::Dataset probe = splits.val.slice(0, probe_n);
    const std::vector<double> sens = probe_sensitivities(system, probe);
    const perf::CostModel cost_model;
    const Shape in{1, bm.input.channels, bm.input.size, bm.input.size};
    const std::vector<mr::MemberProtectionInput> inputs =
        mr::protection_inputs(system.ensemble(), in, cost_model, sens);
    const std::vector<mr::ProtectionPlan> frontier =
        mr::protection_frontier(inputs);
    const mr::ProtectionPlan plan =
        mr::select_protection(frontier, sdc_budget);
    opts.protection_per_member = plan.levels;
    std::printf("protection plan (sdc_budget=%.3f, residual=%.4f, "
                "frontier=%zu):\n",
                sdc_budget, plan.residual_sdc, frontier.size());
    for (std::size_t m = 0; m < plan.levels.size(); ++m) {
      std::printf("  member %zu: %-8s (sensitivity %.3f, share %.3f)\n", m,
                  nn::to_string(plan.levels[m]), sens[m],
                  inputs[m].param_share);
    }
  }

  // The replacement factory needs the live ensemble's composition, which
  // only exists once the runtime does — hand it a cell filled in below.
  auto live = std::make_shared<std::atomic<runtime::ServingRuntime*>>(nullptr);
  if (replacement) {
    opts.replacement.enabled = true;
    opts.replacement.factory =
        [&bm, &config, live](std::size_t member, int attempt,
                             std::stop_token cancel)
        -> std::optional<mr::Member> {
      runtime::ServingRuntime* rt = live->load();
      if (rt == nullptr) return std::nullopt;
      const std::vector<std::string> in_use =
          rt->system().ensemble().prep_names();
      const zoo::ReplacementSpec spec =
          zoo::choose_replacement(bm, in_use, in_use[member], attempt);
      return zoo::make_replacement_member(bm, spec, config.bits, cancel);
    };
  }
  // Exactly one of the two serving stacks is live: a single runtime, or a
  // fleet router over `shards` replicas built from the same config (the
  // probed protection plan rides along in the shared RuntimeOptions).
  std::optional<runtime::ServingRuntime> rt;
  std::optional<fleet::FleetRouter> fleet_rt;
  if (shards > 1) {
    fleet::FleetOptions fopts;
    fopts.shards = shards;
    fopts.runtime = opts;
    // process isolation: each shard is a fork/exec'd pgmr-shard-worker
    // found next to this binary (the supervisor's default resolution).
    fopts.isolation = isolation;
    fleet_rt.emplace(
        [&config](std::size_t) { return polygraph::make_system(config); },
        fopts);
  } else {
    rt.emplace(std::move(system), opts);
    live->store(&*rt);
  }

  std::atomic<std::int64_t> tp{0}, fp{0}, unreliable{0}, degraded{0},
      shed{0}, failed{0};
  const auto classify = [&](std::future<polygraph::Verdict>& future,
                            long long r) {
    try {
      const polygraph::Verdict v = future.get();
      const std::int64_t truth =
          splits.test.labels[static_cast<std::size_t>(r % pool_n)];
      if (v.degraded) ++degraded;
      if (!v.reliable) {
        ++unreliable;
      } else if (v.label == truth) {
        ++tp;
      } else {
        ++fp;
      }
    } catch (const runtime::DeadlineExceeded&) {
      ++shed;
    } catch (const std::exception&) {
      ++failed;
    }
  };
  const auto request_deadline = [&] {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (deadline_us > 0) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(deadline_us);
    }
    return deadline;
  };

  // Fleet routing is keyed by request index: stable, uniformly spread.
  const auto submit_one = [&](long long r) {
    Tensor sample = splits.test.sample(r % pool_n);
    return fleet_rt ? fleet_rt->submit(std::move(sample),
                                       static_cast<std::uint64_t>(r),
                                       request_deadline())
                    : rt->submit(std::move(sample), request_deadline());
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (closed_loop > 0) {
    // Fixed concurrency: K clients each keep exactly one request in
    // flight, pulling the next index off a shared counter — the
    // latency-oriented mode (queueing delay reflects K, not the flood).
    std::atomic<long long> next{0};
    std::vector<std::jthread> clients;
    clients.reserve(static_cast<std::size_t>(closed_loop));
    for (long long k = 0; k < closed_loop; ++k) {
      clients.emplace_back([&] {
        for (long long r = next.fetch_add(1); r < requests;
             r = next.fetch_add(1)) {
          try {
            std::future<polygraph::Verdict> future = submit_one(r);
            classify(future, r);
          } catch (const std::exception&) {
            ++failed;  // e.g. a fleet shard refused the hand-off
          }
        }
      });
    }
    clients.clear();  // joins every client
  } else {
    // Open loop: flood every request up front, then drain — the
    // throughput-oriented mode (batcher sees maximum coalescing pressure).
    std::vector<std::future<polygraph::Verdict>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (long long r = 0; r < requests; ++r) {
      futures.push_back(submit_one(r));
    }
    for (long long r = 0; r < requests; ++r) {
      classify(futures[static_cast<std::size_t>(r)], r);
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (rt) rt->shutdown();
  if (fleet_rt) fleet_rt->shutdown();

  std::optional<fleet::FleetSnapshot> fleet_snap;
  if (fleet_rt) fleet_snap = fleet_rt->snapshot();
  const runtime::MetricsSnapshot snap =
      fleet_rt ? fleet_snap->merged : rt->metrics_snapshot();
  std::printf("throughput: %.1f req/s (%lld requests in %.3fs)\n",
              static_cast<double>(requests) / secs, requests, secs);
  std::printf("quality:    TP %lld  FP %lld  unreliable %lld  "
              "degraded %lld (%.2f%%)\n",
              static_cast<long long>(tp), static_cast<long long>(fp),
              static_cast<long long>(unreliable),
              static_cast<long long>(degraded),
              100.0 * static_cast<double>(degraded) /
                  static_cast<double>(requests));
  std::uint64_t member_faults = 0, quarantines = 0, crc_mismatches = 0,
                weight_reloads = 0;
  for (const std::uint64_t f : snap.member_faults) member_faults += f;
  for (const std::uint64_t q : snap.quarantine_events) quarantines += q;
  for (const std::uint64_t c : snap.crc_mismatches) crc_mismatches += c;
  for (const std::uint64_t w : snap.weight_reloads) weight_reloads += w;
  std::size_t quarantined_now = 0;
  if (fleet_rt) {
    if (fleet_rt->isolation() == fleet::Isolation::thread) {
      for (std::size_t s = 0; s < fleet_rt->shards(); ++s) {
        quarantined_now += fleet_rt->shard(s).health().quarantined_count();
      }
    }
    // process isolation: member health lives inside the worker processes;
    // only the merged metrics (quarantine_events above) cross the wire.
  } else {
    quarantined_now = rt->health().quarantined_count();
  }
  std::printf("resilience: shed %lld  failed %lld  member_faults %llu  "
              "quarantines %llu (%zu member(s) quarantined now)\n",
              static_cast<long long>(shed), static_cast<long long>(failed),
              static_cast<unsigned long long>(member_faults),
              static_cast<unsigned long long>(quarantines),
              quarantined_now);
  std::printf("scrubbing:  %llu cycle(s), crc_mismatches %llu, "
              "weight_reloads %llu\n",
              static_cast<unsigned long long>(snap.scrub_cycles),
              static_cast<unsigned long long>(crc_mismatches),
              static_cast<unsigned long long>(weight_reloads));
  std::printf("replacement: %s — started %llu  completed %llu  failed %llu, "
              "quorum %llu/%zu\n",
              replacement ? "on" : "off",
              static_cast<unsigned long long>(snap.replacements_started),
              static_cast<unsigned long long>(snap.replacements_completed),
              static_cast<unsigned long long>(snap.replacements_failed),
              static_cast<unsigned long long>(snap.quorum_size),
              config.members.size());
  std::printf("batching:   %llu batches, mean size %.2f, max %llu\n",
              static_cast<unsigned long long>(snap.batches),
              snap.mean_batch_size(),
              static_cast<unsigned long long>(snap.max_batch_size));
  std::printf("latency:    p50 %llu us  p95 %llu us  p99 %llu us (%s)\n",
              static_cast<unsigned long long>(snap.latency_quantile_us(0.5)),
              static_cast<unsigned long long>(snap.latency_quantile_us(0.95)),
              static_cast<unsigned long long>(snap.latency_quantile_us(0.99)),
              closed_loop > 0 ? "closed-loop" : "open-loop");
  std::printf("scrub hold: p50 %llu us  p99 %llu us\n",
              static_cast<unsigned long long>(
                  snap.scrub_hold_quantile_us(0.5)),
              static_cast<unsigned long long>(
                  snap.scrub_hold_quantile_us(0.99)));
  std::printf("-- metrics snapshot --\n%s",
              fleet_snap ? fleet_snap->to_string().c_str()
                         : snap.to_string().c_str());
  return 0;
}

/// Generates a day-in-production traffic trace (workload/generator.h) and
/// writes it in the replayable pgmr-trace text format. The printed summary
/// plus the seed is everything needed to reproduce or inspect a campaign's
/// input mix; feed the file to `day_in_production --trace <file>`.
int cmd_workload(const std::string& out_path, int argc, char** argv) {
  workload::WorkloadSpec spec;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string arg = argv[i + 1];
    if (flag == "--seed") {
      spec.seed = std::strtoull(arg.c_str(), nullptr, 10);
    } else if (flag == "--requests") {
      spec.requests = std::atoll(arg.c_str());
    } else if (flag == "--day-seconds") {
      spec.day_seconds = std::atof(arg.c_str());
    } else if (flag == "--diurnal-amplitude") {
      spec.diurnal_amplitude = std::atof(arg.c_str());
    } else if (flag == "--burst-prob") {
      spec.burst_prob = std::atof(arg.c_str());
    } else if (flag == "--burst-len") {
      spec.burst_len = std::atoi(arg.c_str());
    } else if (flag == "--drift-frac") {
      spec.drift_frac = std::atof(arg.c_str());
    } else if (flag == "--ood-frac") {
      spec.ood_frac = std::atof(arg.c_str());
    } else if (flag == "--adversarial-frac") {
      spec.adversarial_frac = std::atof(arg.c_str());
    } else if (flag == "--corpus-size") {
      spec.corpus_size = std::atoll(arg.c_str());
    } else {
      std::fprintf(stderr, "workload: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const workload::Trace trace = workload::generate_trace(spec);
  workload::save_trace(trace, out_path);
  std::printf("seed %llu: %s\nwrote %s\n",
              static_cast<unsigned long long>(trace.seed),
              workload::to_string(workload::summarize(trace)).c_str(),
              out_path.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pgmr list\n"
               "  pgmr design <benchmark> <members> <out.cfg>\n"
               "  pgmr eval <config.cfg>\n"
               "  pgmr predict <config.cfg> <sample-index>\n"
               "  pgmr serve-bench <config.cfg> [--threads N] [--max-batch B]"
               " [--max-delay-us CAP] [--queue-cap Q] [--requests R]"
               " [--deadline-us T] [--closed-loop K] [--shards N]"
               " [--isolation thread|process]"
               " [--protection off|fc|full|auto] [--sdc-budget B]"
               " [--scrub-interval-ms S] [--replacement on|off]"
               " [--training-threads N] [--training-nice L]\n"
               "      (--max-delay-us caps the wait for a batch to fill; it"
               " applies only after a full batch, otherwise queued requests"
               " go out at once)\n"
               "  pgmr workload <out.trace> [--seed S] [--requests R]"
               " [--day-seconds T] [--diurnal-amplitude A] [--burst-prob P]"
               " [--burst-len L] [--drift-frac D] [--ood-frac O]"
               " [--adversarial-frac V] [--corpus-size C]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PGMR_REPO_CACHE_DIR
  ::setenv("PGMR_CACHE_DIR", PGMR_REPO_CACHE_DIR, 0);
#endif
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "design" && argc == 5) {
      return cmd_design(argv[2], std::atoi(argv[3]), argv[4]);
    }
    if (cmd == "eval" && argc == 3) return cmd_eval(argv[2]);
    if (cmd == "predict" && argc == 4) {
      return cmd_predict(argv[2], std::atoll(argv[3]));
    }
    if (cmd == "serve-bench" && argc >= 3) {
      return cmd_serve_bench(argv[2], argc - 3, argv + 3);
    }
    if (cmd == "workload" && argc >= 3) {
      return cmd_workload(argv[2], argc - 3, argv + 3);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
