// The four workloads, their load drivers and their metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "fleet/router.h"
#include "mr/decision.h"
#include "mr/rade.h"
#include "perf/cost_model.h"
#include "polygraph/system.h"
#include "runtime/serving_runtime.h"
#include "spans.h"
#include "stats.h"
#include "workload/corpora.h"
#include "workload/generator.h"
#include "zoo/zoo.h"

namespace pgmr_bench {
namespace {

using namespace pgmr;
using polygraph::Verdict;
namespace fs = std::filesystem;

/// Decision thresholds of every workload: Thr_Conf 0.5, 3 of 4 votes.
constexpr mr::Thresholds kThresholds{0.5F, 3};
/// lenet5_open's offered load. Fixed rather than diurnal: at low rates a
/// virtualised host can wake idle threads ~2 ms late, which made a diurnal
/// p99 bimodal.
constexpr double kOpenRate = 2000.0;
/// Samples per corpus (in-dist, drift, OOD, adversarial) of the
/// trace-driven workloads.
constexpr std::int64_t kCorpusSize = 128;
/// The corpora are the workload's input set and stay fixed; --seed picks
/// the traffic over them (arrivals, classes, samples, routing keys).
constexpr std::uint64_t kCorpusSeed = 7;
/// Events in fleet_proc's trace, cycled by its closed loop. About as many
/// as a window serves, so tp/fp weigh ~1e5 seeded requests rather than a
/// short trace repeated.
constexpr std::int64_t kFleetTraceEvents = 1 << 17;
constexpr std::size_t kFleetShards = 2;
/// Bring-ups per untraced run; setup_s is their median. A RADE-profiled
/// bring-up takes seconds, the others milliseconds, so those repeat more.
constexpr int kBringUpsStaged = 3;
constexpr int kBringUps = 9;
/// lenet5_open's latency limit, printed as a check.
constexpr double kP99LimitMs = 10.0;
/// Batches per shard written to the Chrome trace file.
constexpr std::size_t kTraceFileBatches = 300;

enum class Load { closed, open };

struct WorkloadDef {
  std::string name;
  std::string benchmark;
  std::vector<std::string> preps;
  nn::Protection protection = nn::Protection::final_fc;
  bool staged = false;  ///< RADE priority from enable_staged(val)
  runtime::RuntimeOptions runtime;
  Load load = Load::closed;
  bool fleet = false;         ///< FleetRouter over process-isolated shards
  bool trace_inputs = false;  ///< inputs from the seeded workload trace
  std::size_t clients = 4;    ///< load threads (at most nproc; open loop: 1)
};

runtime::RuntimeOptions serving(std::size_t threads, std::size_t max_batch,
                                int max_delay_us, int scrub_ms = 0) {
  runtime::RuntimeOptions o;
  o.threads = threads;
  o.max_batch = max_batch;
  o.max_delay = std::chrono::microseconds(max_delay_us);
  o.scrub_interval = std::chrono::milliseconds(scrub_ms);
  return o;
}

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = [] {
    const std::vector<std::string> scifar = {"ORG", "FlipX", "FlipY", "AdHist"};
    const std::vector<std::string> smnist = {"ORG", "FlipX", "ConNorm",
                                             "Gamma(2.00)"};
    return std::vector<WorkloadDef>{
        {"resnet20_full", "resnet20", scifar, nn::Protection::full, true,
         serving(2, 4, 2000), Load::closed, false, false},
        {"lenet5_open", "lenet5", smnist, nn::Protection::final_fc, false,
         serving(2, 16, 2000, 25), Load::open, false, true, 1},
        // One client per shard: each shard's request path is a chain of
        // wake-ups (router, wire, worker batcher, pool, reply pump), and
        // more requests in flight than that put more threads on the run
        // queue than there are CPUs.
        {"fleet_proc", "lenet5", smnist, nn::Protection::final_fc, false,
         serving(1, 1, 0), Load::closed, true, true, kFleetShards},
        {"densenet40", "densenet40", scifar, nn::Protection::final_fc, false,
         serving(2, 4, 2000), Load::closed, false, false},
    };
  }();
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workload_defs()) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

int cpu_count() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

/// The repository's model cache. The benchmark copies archives from it but
/// never reads it in place: zoo prunes the directory it loads from.
constexpr const char* kRepoCache = ".pgmr_cache";

void use_model_cache(const std::string& build_dir) {
  ::setenv("PGMR_CACHE_DIR", (build_dir + "/model_cache").c_str(), 1);
}

// ---------------------------------------------------------------- inputs

/// The distinct inputs a workload can send, and the seeded order it sends
/// them in.
struct Inputs {
  std::vector<Tensor> images;  ///< [1, C, H, W] each
  std::vector<std::int64_t> labels;
  std::vector<char> ood;  ///< no true class: any reliable verdict is an FP
  std::vector<std::int32_t> sequence;  ///< request i sends images[sequence[i]]
  std::vector<std::uint64_t> keys;     ///< routing key of request i
  std::vector<double> due_s;           ///< open loop: send time of request i
};

Inputs make_inputs(const WorkloadDef& def, const zoo::Benchmark& bm,
                   const data::Dataset& test, std::uint64_t seed,
                   double horizon_s) {
  Inputs in;
  Rng rng(seed);
  if (!def.trace_inputs) {
    for (std::int64_t i = 0; i < test.size(); ++i) {
      in.images.push_back(test.sample(i));
      in.labels.push_back(test.labels[static_cast<std::size_t>(i)]);
      in.ood.push_back(0);
    }
    for (const std::int64_t i : data::shuffled_indices(test.size(), rng)) {
      in.sequence.push_back(static_cast<std::int32_t>(i));
      in.keys.push_back(rng.engine()());
    }
    return in;
  }
  nn::Network victim = zoo::trained_network(bm, "ORG");
  const workload::Corpora corpora =
      workload::build_corpora(bm, kCorpusSize, kCorpusSeed, victim);
  // Stacked in InputClass order, so a trace event maps to
  // class * kCorpusSize + sample.
  for (const workload::InputClass cls :
       {workload::InputClass::in_dist, workload::InputClass::drift,
        workload::InputClass::ood, workload::InputClass::adversarial}) {
    const data::Dataset& ds = workload::corpus(corpora, cls);
    for (std::int64_t i = 0; i < kCorpusSize; ++i) {
      in.images.push_back(ds.sample(i));
      in.labels.push_back(ds.labels[static_cast<std::size_t>(i)]);
      in.ood.push_back(cls == workload::InputClass::ood ? 1 : 0);
    }
  }
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.requests = def.load == Load::open
                      ? static_cast<std::int64_t>(
                            std::ceil(kOpenRate * horizon_s))
                      : kFleetTraceEvents;
  spec.diurnal_amplitude = 0.0;
  spec.burst_prob = 0.01;
  spec.burst_len = 8;
  // Bursts ride on top of the Poisson arrivals: slow the arrivals so that
  // all events together come at kOpenRate.
  spec.day_seconds = static_cast<double>(spec.requests) *
                     (1.0 + spec.burst_prob * spec.burst_len) / kOpenRate;
  spec.drift_frac = 0.10;
  spec.ood_frac = 0.03;
  spec.adversarial_frac = 0.02;
  spec.corpus_size = kCorpusSize;
  std::vector<workload::TraceEvent> events =
      workload::generate_trace(spec).events;
  // A closed loop ignores arrival times. Shuffled, the drift ramp spreads
  // evenly over the sequence, so the traffic mix a window serves does not
  // depend on how far the loop gets, i.e. on its throughput.
  if (def.load == Load::closed) rng.shuffle(events);
  for (const workload::TraceEvent& e : events) {
    in.sequence.push_back(static_cast<std::int32_t>(
        static_cast<std::int64_t>(e.cls) * kCorpusSize + e.sample));
    in.keys.push_back(e.key);
    in.due_s.push_back(e.at_seconds);
  }
  return in;
}

Tensor stack(const std::vector<Tensor>& images, std::size_t begin,
             std::size_t end) {
  const Shape& s = images[begin].shape();
  std::vector<float> data;
  for (std::size_t i = begin; i < end; ++i) {
    data.insert(data.end(), images[i].values().begin(),
                images[i].values().end());
  }
  return Tensor(Shape{static_cast<std::int64_t>(end - begin), s[1], s[2], s[3]},
                std::move(data));
}

// ----------------------------------------------------------- serving stack

/// Builds the workload's PolygraphSystem from the zoo. With `spans`, every
/// member's preprocessor is wrapped in a TimingPrep and its forward tap
/// records layer ends.
polygraph::PolygraphSystem build_system(const WorkloadDef& def,
                                        const zoo::Benchmark& bm,
                                        const data::Dataset& val,
                                        ReplicaSpans* spans, double* zoo_s,
                                        double* profile_s) {
  const auto t0 = Clock::now();
  mr::Ensemble ensemble;
  for (const std::string& spec : def.preps) {
    std::unique_ptr<prep::Preprocessor> p = prep::make_preprocessor(spec);
    MemberSpans* ms = nullptr;
    if (spans != nullptr) {
      spans->push_back(std::make_unique<MemberSpans>(spec));
      ms = spans->back().get();
      p = std::make_unique<TimingPrep>(std::move(p), ms);
    }
    mr::Member member(std::move(p), zoo::trained_network(bm, spec),
                      quant::kFullBits);
    member.set_archive_source(zoo::archive_path(bm, spec));
    if (ms != nullptr) {
      member.net().set_forward_tap(
          [ms](Tensor&, int layer) { ms->end_layer(layer); });
    }
    ensemble.add(std::move(member));
  }
  polygraph::PolygraphSystem system(std::move(ensemble));
  system.set_thresholds(kThresholds);
  const auto t1 = Clock::now();
  if (def.staged) system.enable_staged(val.images, val.labels);
  if (zoo_s != nullptr) {
    *zoo_s += std::chrono::duration<double>(t1 - t0).count();
  }
  if (profile_s != nullptr) *profile_s += seconds_since(t1);
  if (spans != nullptr) {
    for (auto& s : *spans) s->arm();
  }
  return system;
}

/// One bring-up of a workload's serving stack.
struct Deployment {
  std::vector<ReplicaSpans> spans;  // first: outlives the stack using it
  std::unique_ptr<runtime::ServingRuntime> rt;
  std::unique_ptr<fleet::FleetRouter> router;
  std::string spec_root;
  double setup_s = 0.0;
  double zoo_s = 0.0;
  double profile_s = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    router.reset();
    rt.reset();
    if (!spec_root.empty()) {
      std::error_code ec;
      fs::remove_all(spec_root, ec);
    }
  }

  std::future<Verdict> submit(const Tensor& image, std::uint64_t key) {
    return router ? router->submit(image, key) : rt->submit(image);
  }
  std::int32_t shard_for(std::uint64_t key) const {
    return router ? static_cast<std::int32_t>(router->shard_for(key)) : 0;
  }
  void shutdown() {
    if (router) router->shutdown();
    if (rt) rt->shutdown();
  }
};

/// Counters read at the edges of the measured window.
struct Edge {
  runtime::MetricsSnapshot snap;
  std::vector<std::uint64_t> routed;  ///< fleet only
  std::uint64_t spills = 0;           ///< fleet only
};

Edge read_edge(const Deployment& dep) {
  if (!dep.router) return {dep.rt->metrics_snapshot(), {}, 0};
  const fleet::FleetSnapshot f = dep.router->snapshot();
  return {f.merged, f.routed, f.spills};
}

struct PassConfig {
  std::string label;
  bool traced = false;
  nn::Protection protection = nn::Protection::final_fc;
  fleet::Isolation isolation = fleet::Isolation::process;
  int bring_ups = 1;
  double warmup_s = 2.0;
  double window_s = 10.0;
};

/// Everything one pass measured.
struct Pass {
  PassConfig cfg;
  std::unique_ptr<RequestLog> log;
  std::unique_ptr<Deployment> dep;
  std::int64_t ws = 0;  ///< measured window [ws, we), steady ns
  std::int64_t we = 0;
  std::vector<double> setup_s, zoo_s, profile_s;
  Edge begin, end;
  std::uint64_t restarts = 0;

  double window_s() const { return static_cast<double>(we - ws) / 1e9; }
  bool spans() const { return !dep->spans.empty(); }
};

struct Context {
  const WorkloadDef* def = nullptr;
  const zoo::Benchmark* bm = nullptr;
  data::DatasetSplits splits;
  Inputs inputs;
  std::vector<Verdict> oracle;
  std::unique_ptr<polygraph::PolygraphSystem> oracle_system;
  std::string build_dir;
  std::string worker_path;
  std::size_t clients = 1;
};

void first_verdict(Deployment& dep, const Inputs& in, RequestLog& log) {
  RequestRecord& r = log.claim();
  r.input = in.sequence[0];
  r.shard = dep.shard_for(in.keys[0]);
  r.due = r.submit_begin = now_ns();
  std::future<Verdict> f =
      dep.submit(in.images[static_cast<std::size_t>(r.input)], in.keys[0]);
  r.submit_end = now_ns();
  try {
    r.verdict = f.get();
  } catch (const std::exception&) {
    r.failed = true;
  }
  r.done = now_ns();
}

/// Brings the stack up and serves its first verdict; setup_s spans the
/// first zoo call to that verdict.
std::unique_ptr<Deployment> bring_up(const Context& ctx, const PassConfig& cfg,
                                     RequestLog& log) {
  // Serial number of this process's spec directories.
  static int serial = 0;
  const WorkloadDef& def = *ctx.def;
  auto dep = std::make_unique<Deployment>();
  const bool process =
      def.fleet && cfg.isolation == fleet::Isolation::process;
  // Process shards run their members in another address space: there the
  // benchmark sees only the request and fleet-submit spans.
  const bool instrument = cfg.traced && !process;
  const auto t0 = Clock::now();
  runtime::RuntimeOptions opts = def.runtime;
  opts.protection = cfg.protection;
  if (!def.fleet) {
    if (instrument) dep->spans.emplace_back();
    dep->rt = std::make_unique<runtime::ServingRuntime>(
        build_system(def, *ctx.bm, ctx.splits.val,
                     instrument ? &dep->spans[0] : nullptr, &dep->zoo_s,
                     &dep->profile_s),
        opts);
  } else {
    fleet::FleetOptions fo;
    fo.shards = kFleetShards;
    fo.runtime = opts;
    fo.isolation = cfg.isolation;
    if (process) {
      fo.process.worker_path = ctx.worker_path;
      dep->spec_root = ctx.build_dir + "/specs/" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(serial++);
      fo.process.spec_root = dep->spec_root;
    }
    if (instrument) dep->spans.resize(kFleetShards);
    Deployment* d = dep.get();
    dep->router = std::make_unique<fleet::FleetRouter>(
        [&ctx, &def, d, instrument](std::size_t s) {
          return build_system(def, *ctx.bm, ctx.splits.val,
                              instrument ? &d->spans[s] : nullptr, &d->zoo_s,
                              &d->profile_s);
        },
        fo);
  }
  first_verdict(*dep, ctx.inputs, log);
  dep->setup_s = seconds_since(t0);
  return dep;
}

/// Closed loop: ctx.clients client threads, each with one request in
/// flight. Traced passes serialise submits, so the log order is the queue
/// order the span analysis maps batches onto.
void closed_loop(Pass& p, const Context& ctx) {
  std::atomic<bool> stop{false};
  std::mutex submit_mutex;
  Deployment& dep = *p.dep;
  const Inputs& in = ctx.inputs;
  const auto client = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      RequestRecord* r = nullptr;
      std::future<Verdict> fut;
      {
        std::unique_lock lock(submit_mutex, std::defer_lock);
        if (p.cfg.traced) lock.lock();
        r = &p.log->claim();
        const std::size_t pos = r->slot % in.sequence.size();
        r->input = in.sequence[pos];
        if (p.cfg.traced) r->shard = dep.shard_for(in.keys[pos]);
        r->due = r->submit_begin = now_ns();
        try {
          fut = dep.submit(in.images[static_cast<std::size_t>(r->input)],
                           in.keys[pos]);
        } catch (const std::exception&) {
          r->failed = true;
        }
        r->submit_end = now_ns();
      }
      if (!r->failed) {
        try {
          r->verdict = fut.get();
        } catch (const std::exception&) {
          r->failed = true;
        }
      }
      r->done = now_ns();
    }
  };
  std::vector<std::jthread> clients;
  for (std::size_t c = 0; c < ctx.clients; ++c) clients.emplace_back(client);
  std::this_thread::sleep_for(std::chrono::duration<double>(p.cfg.warmup_s));
  p.ws = now_ns();
  p.begin = read_edge(dep);
  std::this_thread::sleep_for(std::chrono::duration<double>(p.cfg.window_s));
  p.we = now_ns();
  p.end = read_edge(dep);
  stop = true;
}

/// Open loop: one driver thread submits each request at its due time and
/// collects futures in FIFO order; the runtime serves FIFO, so the front
/// future is the next to complete. The driver polls instead of sleeping:
/// on a virtualised host a sleeping thread sometimes wakes 2-3 ms late,
/// which would shift both send and collection times.
void open_loop(Pass& p, const Context& ctx) {
  Deployment& dep = *p.dep;
  const Inputs& in = ctx.inputs;
  const std::int64_t t0 = now_ns() + 1'000'000;
  const auto due = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(in.due_s[i] * 1e9);
  };
  p.ws = t0 + static_cast<std::int64_t>(p.cfg.warmup_s * 1e9);
  p.we = p.ws + static_cast<std::int64_t>(p.cfg.window_s * 1e9);
  std::size_t n = 0;
  while (n < in.sequence.size() && due(n) < p.we) ++n;
  std::jthread driver([&] {
    std::deque<std::pair<RequestRecord*, std::future<Verdict>>> pending;
    std::size_t next = 0;
    while (next < n || !pending.empty()) {
      if (next < n && due(next) <= now_ns()) {
        RequestRecord* r = &p.log->claim();
        r->input = in.sequence[next];
        r->due = due(next);
        r->submit_begin = now_ns();
        try {
          pending.emplace_back(
              r, dep.submit(in.images[static_cast<std::size_t>(r->input)],
                            in.keys[next]));
        } catch (const std::exception&) {
          r->failed = true;
          r->done = now_ns();
        }
        r->submit_end = now_ns();
        ++next;
        continue;
      }
      if (!pending.empty() && pending.front().second.wait_for(
                                  std::chrono::seconds(0)) ==
                                  std::future_status::ready) {
        auto& [r, fut] = pending.front();
        try {
          r->verdict = fut.get();
        } catch (const std::exception&) {
          r->failed = true;
        }
        r->done = now_ns();
        pending.pop_front();
      }
    }
  });
  std::this_thread::sleep_until(at_ns(p.ws));
  p.begin = read_edge(dep);
  std::this_thread::sleep_until(at_ns(p.we));
  p.end = read_edge(dep);
}

std::unique_ptr<Pass> run_pass(const Context& ctx, const PassConfig& cfg) {
  auto p = std::make_unique<Pass>();
  p->cfg = cfg;
  p->log = std::make_unique<RequestLog>();
  for (int u = 0; u < cfg.bring_ups; ++u) {
    p->dep.reset();
    p->dep = bring_up(ctx, cfg, *p->log);
    p->setup_s.push_back(p->dep->setup_s);
    p->zoo_s.push_back(p->dep->zoo_s);
    p->profile_s.push_back(p->dep->profile_s);
  }
  if (ctx.def->load == Load::open) {
    open_loop(*p, ctx);
  } else {
    closed_loop(*p, ctx);
  }
  p->dep->shutdown();
  if (p->dep->router) {
    for (std::size_t s = 0; s < p->dep->router->shards(); ++s) {
      p->restarts += p->dep->router->backend(s).restarts();
    }
  }
  return p;
}

// ---------------------------------------------------------------- checking

std::vector<Verdict> compute_oracle(Context& ctx) {
  const WorkloadDef& def = *ctx.def;
  ctx.oracle_system = std::make_unique<polygraph::PolygraphSystem>(build_system(
      def, *ctx.bm, ctx.splits.val, nullptr, nullptr, nullptr));
  ctx.oracle_system->apply_protection(
      std::vector<nn::Protection>(def.preps.size(), def.protection));
  std::vector<Verdict> out;
  const std::size_t n = ctx.inputs.images.size();
  for (std::size_t b = 0; b < n; b += 64) {
    const std::vector<Verdict> v = ctx.oracle_system->predict_batch(
        stack(ctx.inputs.images, b, std::min(n, b + 64)));
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

bool same_verdict(const Verdict& a, const Verdict& b) {
  return a.label == b.label && a.reliable == b.reliable &&
         a.votes == b.votes && a.activated == b.activated &&
         a.degraded == b.degraded;
}

struct Check {
  std::int64_t mismatches = 0;
  std::int64_t failures = 0;
};

Check verify(const RequestLog& log, const std::vector<Verdict>& oracle) {
  Check c;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const RequestRecord& r = log[i];
    if (r.failed) {
      ++c.failures;
    } else if (!same_verdict(r.verdict,
                             oracle[static_cast<std::size_t>(r.input)])) {
      ++c.mismatches;
    }
  }
  return c;
}

/// The requests of a pass's measured window, cut into one-second slices.
/// Throughput and the latency percentiles are taken per slice, and a run
/// reports its better slices: the upper quartile of the slices'
/// throughput, the lower quartile of their p50 and the 10th percentile of
/// their p90. On a shared virtualised host, other tenants slow the program
/// down for seconds to minutes at a time, so the median slice carries the
/// host's speed more than the program's. A slice's p90 moves most with the
/// host's stalls, so it takes the stronger filter.
constexpr double kSliceSeconds = 1.0;
constexpr double kBestShare = 0.25;
constexpr double kTailBestShare = 0.1;

struct WindowStats {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::size_t slices = 0;
  double throughput_rps = 0.0;  ///< upper quartile of slices
  double p50_us = 0.0;          ///< lower quartile of slices
  double p90_us = 0.0;          ///< 10th percentile of slices
  double p99_us = 0.0;          ///< pooled over the window
  std::vector<double> slice_rps, slice_p50_us, slice_p90_us;
  std::vector<double> latency_us;
  std::vector<double> submit_us;  ///< duration of the submit() call
  std::vector<double> lag_us;     ///< open loop: send time minus due time
  double activated_sum = 0.0;
  std::vector<std::int32_t> served;  ///< input of each served request
};

WindowStats window_stats(const Pass& p, Load load) {
  WindowStats w;
  std::vector<std::int64_t> latency_at;  // when each latency sample was sent
  std::vector<std::int64_t> completed;   // completions counted as throughput
  for (std::size_t i = 0; i < p.log->size(); ++i) {
    const RequestRecord& r = (*p.log)[i];
    if (!r.failed && r.done >= p.ws && r.done < p.we) {
      completed.push_back(r.done);
    }
    // Latency: the open loop's requests due in the window (they complete
    // after it if a backlog grows); the closed loop's sent and answered in it.
    const bool in_window = load == Load::open
                               ? r.due >= p.ws && r.due < p.we
                               : r.submit_begin >= p.ws && r.done <= p.we;
    if (!in_window) continue;
    ++w.attempted;
    if (r.failed) {
      ++w.failed;
      continue;
    }
    latency_at.push_back(r.due);
    w.latency_us.push_back(static_cast<double>(r.done - r.due) / 1e3);
    w.submit_us.push_back(
        static_cast<double>(r.submit_end - r.submit_begin) / 1e3);
    w.lag_us.push_back(static_cast<double>(r.submit_begin - r.due) / 1e3);
    w.activated_sum += r.verdict.activated;
    w.served.push_back(r.input);
  }
  w.slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(p.window_s() / kSliceSeconds)));
  const double slice_ns = static_cast<double>(p.we - p.ws) /
                          static_cast<double>(w.slices);
  const auto slice = [&](std::int64_t t) {
    const double at = static_cast<double>(t - p.ws) / slice_ns;
    return std::min(w.slices - 1, static_cast<std::size_t>(at));
  };
  std::vector<std::vector<double>> latency(w.slices);
  w.slice_rps.assign(w.slices, 0.0);
  for (std::size_t i = 0; i < latency_at.size(); ++i) {
    latency[slice(latency_at[i])].push_back(w.latency_us[i]);
  }
  for (const std::int64_t t : completed) {
    w.slice_rps[slice(t)] += 1e9 / slice_ns;
  }
  for (const std::vector<double>& l : latency) {
    if (l.empty()) continue;  // a stall longer than a slice: no sample
    w.slice_p50_us.push_back(quantile(l, 0.50));
    w.slice_p90_us.push_back(quantile(l, 0.90));
  }
  // An open loop completes what it was offered unless a backlog grows, so
  // its throughput is the whole window's.
  w.throughput_rps =
      load == Load::open
          ? static_cast<double>(completed.size()) / p.window_s()
          : quantile(w.slice_rps, 1.0 - kBestShare);
  w.p50_us = quantile(w.slice_p50_us, kBestShare);
  w.p90_us = quantile(w.slice_p90_us, kTailBestShare);
  w.p99_us = quantile(w.latency_us, 0.99);
  return w;
}

double peak_rss_mb(bool fleet_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (fleet_children) {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kib += static_cast<double>(kFleetShards) *
           static_cast<double>(children.ru_maxrss);
  }
  return kib / 1024.0;
}

// ----------------------------------------------------------------- layers

/// a / b, or 0 when b is 0.
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Static per-layer MACs of one member network for a single input sample.
std::vector<double> layer_macs(const nn::Network& net, Shape in) {
  std::vector<double> macs;
  for (const auto& layer : net.layers()) {
    macs.push_back(static_cast<double>(layer->cost(in).macs));
    in = layer->output_shape(in);
  }
  return macs;
}

/// A span at tapped layer index l covers layers l .. (next tapped - 1): a
/// conv->BN pair folded under full ABFT taps once, at the conv.
std::size_t covered_end(const SpanReport& r, std::size_t l) {
  std::size_t end = l + 1;
  while (end < r.layer_us.size() && r.layer_us[end] == 0.0) ++end;
  return end;
}

/// Mean time of one decision (mr::decide or mr::staged_decide) over the
/// oracle's member votes, replayed outside the serving stack.
double vote_us(polygraph::PolygraphSystem& system, const Inputs& in) {
  const std::size_t n = std::min<std::size_t>(in.images.size(), 64);
  const mr::MemberVotes votes =
      system.ensemble().member_votes(stack(in.images, 0, n));
  const mr::Thresholds t = system.thresholds();
  constexpr int kReps = 200;
  volatile std::int64_t sink = 0;  // keeps the decisions from being elided
  const auto t0 = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t s = 0; s < n; ++s) {
      if (system.staged()) {
        std::vector<mr::Vote> ordered;
        for (const std::size_t m : system.priority()) {
          ordered.push_back(votes[m][s]);
        }
        sink = sink + mr::staged_decide(ordered, t).activated;
      } else {
        const auto sample = static_cast<std::int64_t>(s);
        sink = sink + mr::decide(mr::sample_votes(votes, sample), t).label;
      }
    }
  }
  return seconds_since(t0) * 1e6 / (kReps * static_cast<double>(n));
}

// ----------------------------------------------------------------- output

struct Printer {
  std::string workload;
  RunResult result;

  void add(const std::string& name, double value) {
    const MetricDef* def = find_metric(name);
    if (def == nullptr) throw std::logic_error("uncatalogued metric " + name);
    if (!std::isfinite(value)) value = 0.0;
    result.metrics.push_back({name, value, def->unit});
    std::printf("  %-30s %-14s %18.6f %s\n", name.c_str(), workload.c_str(),
                value, def->unit.c_str());
  }
};

void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::printf("# ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

std::string list(const std::vector<double>& v, double scale) {
  std::string out;
  for (const double x : v) {
    out += ' ';
    out += std::to_string(x * scale);
  }
  return out;
}

/// The end-to-end metrics of an untraced run.
void add_end_to_end(Printer& out, const Context& ctx, const Pass& p,
                    const WindowStats& w, double rss_mb) {
  // tp/fp weigh each served request by its input's verdict (every served
  // verdict is checked equal to the oracle's), so the rates follow the
  // traffic mix.
  std::int64_t tp = 0, fp = 0, reliable = 0;
  for (const std::int32_t i : w.served) {
    const auto k = static_cast<std::size_t>(i);
    const Verdict& v = ctx.oracle[k];
    if (!v.reliable) continue;
    ++reliable;
    if (!ctx.inputs.ood[k] && v.label == ctx.inputs.labels[k]) {
      ++tp;
    } else {
      ++fp;
    }
  }
  out.add("throughput_rps", w.throughput_rps);
  out.add("latency_p50_ms", w.p50_us / 1e3);
  out.add("latency_p90_ms", w.p90_us / 1e3);
  out.add("availability",
          1.0 - ratio(static_cast<double>(w.failed),
                      static_cast<double>(w.attempted)));
  out.add("tp_rate", ratio(static_cast<double>(tp),
                           static_cast<double>(w.served.size())));
  out.add("fp_rate", ratio(static_cast<double>(fp),
                           static_cast<double>(reliable)));
  out.add("setup_s", median(p.setup_s));
  out.add("peak_rss_mb", rss_mb);
  note("latency samples %zu in %zu one-second slices, reported from the "
       "better slices; served %zu (distinct inputs %zu), reliable %lld",
       w.latency_us.size(), w.slices, w.served.size(),
       std::set<std::int32_t>(w.served.begin(), w.served.end()).size(),
       static_cast<long long>(reliable));
  note("median slice: throughput %.1f req/s, p50 %.3f ms, p90 %.3f ms",
       median(w.slice_rps), median(w.slice_p50_us) / 1e3,
       median(w.slice_p90_us) / 1e3);
  note("latency p99 over the window %.3f ms (%zu samples beyond it)",
       w.p99_us / 1e3, w.latency_us.size() / 100);
  note("throughput per slice (req/s):%s", list(w.slice_rps, 1.0).c_str());
  note("latency p50 per slice (ms):%s", list(w.slice_p50_us, 1e-3).c_str());
  note("latency p90 per slice (ms):%s", list(w.slice_p90_us, 1e-3).c_str());
  note("setup_s of each bring-up:%s", list(p.setup_s, 1.0).c_str());
  if (ctx.def->load == Load::open) {
    const double p99 = w.p99_us / 1e3;
    note("check latency p99 %.3f ms <= %.1f ms: %s", p99, kP99LimitMs,
         p99 <= kP99LimitMs ? "pass" : "FAIL");
    note("driver lag p50 %.3f ms, p99 %.3f ms",
         quantile(w.lag_us, 0.5) / 1e3, quantile(w.lag_us, 0.99) / 1e3);
  }
}

/// The per-layer metrics of a traced run. passes[0] is the untraced
/// reference, passes[1] the traced pass, passes[2] (if any) the
/// protection-off pass (resnet20_full) or the thread-mode pass (fleet).
void add_per_layer(Printer& out, Context& ctx,
                   const std::vector<std::unique_ptr<Pass>>& passes,
                   const std::vector<WindowStats>& stats,
                   const std::vector<SpanReport>& spans,
                   std::uint64_t restarts) {
  const WorkloadDef& def = *ctx.def;
  const Pass& ref = *passes[0];
  const Pass& traced = *passes[1];
  const WindowStats& wt = stats[1];
  // Member spans: the traced pass, except on fleet_proc, whose process
  // shards only show them in the thread-mode pass.
  const std::size_t sp = def.fleet ? 2 : 1;
  const SpanReport& s = spans[sp];

  out.add("zoo.load_s", ref.zoo_s[0]);
  out.add("polygraph.profile_s", ref.profile_s[0]);
  double total = 0.0, most = 0.0;
  for (std::size_t i = 0; i < traced.end.routed.size(); ++i) {
    const auto routed =
        static_cast<double>(traced.end.routed[i] - traced.begin.routed[i]);
    total += routed;
    most = std::max(most, routed);
  }
  const bool fleet = def.fleet;
  out.add("fleet.submit_us_p50", fleet ? quantile(wt.submit_us, 0.5) : 0.0);
  out.add("fleet.submit_us_p99", fleet ? quantile(wt.submit_us, 0.99) : 0.0);
  out.add("fleet.imbalance",
          ratio(most, total) * static_cast<double>(traced.end.routed.size()));
  out.add("fleet.spills",
          static_cast<double>(traced.end.spills - traced.begin.spills));
  out.add("proc.hop_us_p50", fleet ? wt.p50_us - stats[2].p50_us : 0.0);
  out.add("proc.restarts", static_cast<double>(restarts));
  out.add("runtime.wait_us_p50", quantile(s.wait_us, 0.5));
  out.add("runtime.wait_us_p99", quantile(s.wait_us, 0.99));
  out.add("runtime.batch_mean",
          ratio(static_cast<double>(s.batched_requests),
                static_cast<double>(s.batches)));
  out.add("runtime.batches_per_s", ratio(static_cast<double>(s.batches),
                                         passes[sp]->window_s()));
  const runtime::MetricsSnapshot& snap = traced.end.snap;
  out.add("runtime.scrub_hold_us_p99",
          def.runtime.scrub_interval.count() > 0
              ? static_cast<double>(snap.scrub_hold_quantile_us(0.99))
              : 0.0);
  out.add("runtime.scrub_cycles",
          static_cast<double>(snap.scrub_cycles -
                              traced.begin.snap.scrub_cycles));
  out.add("polygraph.batch_us_p50", quantile(s.batch_us, 0.5));
  out.add("mr.member_skew_us_p50", quantile(s.skew_us, 0.5));
  out.add("mr.activations_per_req",
          ratio(wt.activated_sum, static_cast<double>(wt.latency_us.size())));
  out.add("mr.vote_us", vote_us(*ctx.oracle_system, ctx.inputs));
  for (std::size_t k = 0; k < all_prep_specs().size(); ++k) {
    out.add("prep." + metric_token(all_prep_specs()[k]) + ".us",
            s.prep_us[k]);
  }

  // Static work per request from Layer::cost, summed over members.
  mr::Ensemble& ens = ctx.oracle_system->ensemble();
  const Shape in_shape = ctx.inputs.images[0].shape();
  const std::vector<double> macs =
      layer_macs(ens.member(0).net().network(), in_shape);
  const auto members = static_cast<double>(ens.size());
  const auto layers = static_cast<std::size_t>(kMaxLayers);
  for (std::size_t l = 0; l < layers; ++l) {
    out.add("nn.l" + std::to_string(l) + ".us", s.layer_us[l]);
  }
  for (std::size_t l = 0; l < layers; ++l) {
    double work = 0.0;
    if (s.layer_us[l] > 0.0) {
      for (std::size_t k = l; k < covered_end(s, l) && k < macs.size(); ++k) {
        work += macs[k] * members;
      }
    }
    out.add("nn.l" + std::to_string(l) + ".gmacs",
            ratio(work, s.layer_us[l] * 1e3));
  }
  double macs_req = 0.0, bytes_req = 0.0, model_full = 0.0, model_off = 0.0;
  const perf::CostModel cost_model;
  for (std::size_t m = 0; m < ens.size(); ++m) {
    const nn::CostStats c = ens.member(m).net().network().cost(in_shape);
    macs_req += static_cast<double>(c.macs);
    bytes_req += static_cast<double>(c.weight_bytes + c.activation_bytes);
    model_full += cost_model
                      .network_cost(c, quant::kFullBits, nn::Protection::full)
                      .latency_s;
    model_off += cost_model
                     .network_cost(c, quant::kFullBits, nn::Protection::off)
                     .latency_s;
  }
  out.add("nn.macs_per_req", macs_req);
  out.add("nn.bytes_per_req", bytes_req);

  // ABFT cost: the full-protection pass minus the off pass, with the off
  // pass's spans merged wherever full protection folded conv->BN.
  const bool abft = def.protection == nn::Protection::full;
  const SpanReport& off = abft ? spans[2] : s;
  const double abft_us = abft ? s.member_us - off.member_us : 0.0;
  out.add("quant.abft_us", abft_us);
  for (std::size_t l = 0; l < layers; ++l) {
    double diff = 0.0;
    if (abft && s.layer_us[l] > 0.0) {
      diff = s.layer_us[l];
      for (std::size_t k = l; k < covered_end(s, l); ++k) {
        diff -= off.layer_us[k];
      }
    }
    out.add("quant.abft.l" + std::to_string(l) + ".us", diff);
  }
  out.add("perf.abft_overhead_measured", ratio(abft_us, off.member_us));
  out.add("perf.abft_overhead_model", ratio(model_full, model_off) - 1.0);
  out.add("driver.lag_p99_ms",
          def.load == Load::open ? quantile(wt.lag_us, 0.99) / 1e3 : 0.0);
  out.add("trace.overhead_pct",
          100.0 * ratio(wt.p50_us - stats[0].p50_us, stats[0].p50_us));

  double prep_us = 0.0;
  for (const double x : s.prep_us) prep_us += x;
  note("check layer spans cover %.1f%% of member spans (minus prep)",
       100.0 * ratio(s.layers_us, s.member_us - prep_us));
  note("check batch service + runtime wait account for %.1f%% of the median "
       "request latency",
       100.0 * median(s.accounted));
  note("traced batches %lld, requests %lld",
       static_cast<long long>(s.batches),
       static_cast<long long>(s.batched_requests));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const WorkloadDef& d : workload_defs()) n.push_back(d.name);
    return n;
  }();
  return names;
}

int prepare_models(const std::string& build_dir) {
  use_model_cache(build_dir);
  fs::create_directories(zoo::cache_dir());
  std::vector<std::pair<std::string, std::string>> todo;
  for (const WorkloadDef& def : workload_defs()) {
    const zoo::Benchmark& bm = zoo::find_benchmark(def.benchmark);
    for (const std::string& spec : def.preps) {
      const fs::path path = zoo::archive_path(bm, spec);
      const fs::path repo_copy = fs::path(kRepoCache) / path.filename();
      const std::pair<std::string, std::string> item{def.benchmark, spec};
      if (fs::exists(path)) continue;
      if (fs::exists(repo_copy)) {
        fs::copy_file(repo_copy, path);
      } else if (std::find(todo.begin(), todo.end(), item) == todo.end()) {
        todo.push_back(item);
      }
    }
  }
  if (todo.empty()) return 0;
  std::fprintf(stderr, "[prepare] training %zu member archive(s) into %s\n",
               todo.size(), zoo::cache_dir().c_str());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  {
    const auto workers = std::min<std::size_t>(
        todo.size(), static_cast<std::size_t>(std::clamp(cpu_count(), 1, 4)));
    std::vector<std::jthread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < todo.size(); i = next++) {
          try {
            zoo::trained_network(zoo::find_benchmark(todo[i].first),
                                 todo[i].second);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "[prepare] %s/%s: %s\n",
                         todo[i].first.c_str(), todo[i].second.c_str(),
                         e.what());
            failed = true;
          }
        }
      });
    }
  }
  return failed ? 1 : 0;
}

int run_workload(const RunOptions& opt) {
  const WorkloadDef* def = find_workload(opt.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "pgmr_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 64;
  }
  use_model_cache(opt.build_dir);
  Context ctx;
  ctx.def = def;
  ctx.bm = &zoo::find_benchmark(def->benchmark);
  ctx.build_dir = opt.build_dir;
  ctx.worker_path = opt.build_dir + "/tools/pgmr-shard-worker";
  ctx.clients = std::min(def->clients,
                         static_cast<std::size_t>(std::max(cpu_count(), 1)));

  // Pre-flight: a missing archive would train inside setup_s.
  for (const std::string& spec : def->preps) {
    const std::string path = zoo::archive_path(*ctx.bm, spec);
    if (!fs::exists(path)) {
      std::fprintf(stderr,
                   "pgmr_bench: missing model archive %s (benchmark/run.sh "
                   "copies or trains it before measuring)\n",
                   path.c_str());
      return 2;
    }
  }
  if (def->fleet && !fs::exists(ctx.worker_path)) {
    std::fprintf(stderr, "pgmr_bench: missing shard worker %s\n",
                 ctx.worker_path.c_str());
    return 2;
  }

  // Passes. Untraced: one pass with several bring-ups. Traced: an untraced
  // reference pass (for trace.overhead_pct), the traced pass, and the
  // comparison pass the workload needs, splitting --seconds between them.
  std::vector<PassConfig> passes;
  if (!opt.trace) {
    passes.push_back({"untraced", false, def->protection,
                      fleet::Isolation::process,
                      def->staged ? kBringUpsStaged : kBringUps,
                      std::min(2.0, opt.seconds / 4), opt.seconds});
  } else {
    passes.push_back({"reference", false, def->protection,
                      fleet::Isolation::process, 1, 0, 0});
    passes.push_back({"traced", true, def->protection,
                      fleet::Isolation::process, 1, 0, 0});
    if (def->protection == nn::Protection::full) {
      passes.push_back({"traced-off", true, nn::Protection::off,
                        fleet::Isolation::process, 1, 0, 0});
    } else if (def->fleet) {
      passes.push_back({"traced-thread", true, def->protection,
                        fleet::Isolation::thread, 1, 0, 0});
    }
    for (PassConfig& c : passes) {
      c.window_s = opt.seconds / static_cast<double>(passes.size());
      c.warmup_s = std::min(2.0, c.window_s / 4);
    }
  }

  std::printf("== %s  seed %llu  %.1f s%s  clients %zu  nproc %d\n",
              def->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? "  traced" : "", ctx.clients,
              cpu_count());
  ctx.splits = zoo::benchmark_splits(*ctx.bm);
  ctx.inputs = make_inputs(*def, *ctx.bm, ctx.splits.test, opt.seed,
                           passes[0].warmup_s + passes[0].window_s + 1.0);
  ctx.oracle = compute_oracle(ctx);

  Check check;
  std::int64_t attempted = 0, failed = 0;
  std::uint64_t restarts = 0;
  std::vector<std::unique_ptr<Pass>> done;
  std::vector<WindowStats> stats;
  std::vector<SpanReport> spans;
  for (const PassConfig& cfg : passes) {
    std::unique_ptr<Pass> p = run_pass(ctx, cfg);
    const Check c = verify(*p->log, ctx.oracle);
    check.mismatches += c.mismatches;
    check.failures += c.failures;
    restarts += p->restarts;
    stats.push_back(window_stats(*p, def->load));
    attempted += stats.back().attempted;
    failed += stats.back().failed;
    spans.push_back(p->spans() ? analyze_spans(*p->log, p->dep->spans, p->ws,
                                               p->we)
                               : SpanReport{});
    if (p->spans()) {
      fs::create_directories(opt.build_dir + "/trace");
      const std::string path =
          opt.build_dir + "/trace/" + def->name +
          (cfg.label == "traced" ? "" : "-" + cfg.label) + ".json";
      write_chrome_trace(path, *p->log, p->dep->spans, kTraceFileBatches);
      note("trace written: %s", path.c_str());
    }
    // Release the pass's stack (and its span buffers) before the next one.
    p->dep.reset();
    done.push_back(std::move(p));
  }

  Printer out{def->name, {}};
  if (opt.trace) {
    add_per_layer(out, ctx, done, stats, spans, restarts);
  } else {
    add_end_to_end(out, ctx, *done[0], stats[0], peak_rss_mb(def->fleet));
  }
  note("verdict_mismatches %lld  failures %lld  error_rate %.6f  "
       "proc.restarts %llu",
       static_cast<long long>(check.mismatches),
       static_cast<long long>(check.failures),
       ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       static_cast<unsigned long long>(restarts));
  out.result.attempted = attempted;
  out.result.failed = failed;
  out.result.correct =
      check.mismatches == 0 && check.failures == 0 && restarts == 0;
  const std::string json = result_json(out.result);
  if (!opt.out_dir.empty()) {
    fs::create_directories(opt.out_dir);
    std::ofstream f(opt.out_dir + "/" + def->name + ".seed" +
                    std::to_string(opt.seed) + (opt.trace ? ".trace" : "") +
                    ".json");
    f << json << "\n";
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.result.correct ? 0 : 1;
}

}  // namespace pgmr_bench
