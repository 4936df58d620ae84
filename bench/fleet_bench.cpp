// Fleet serving bench: a pgmr::fleet::FleetRouter over N ServingRuntime
// replicas under the shared closed-loop client harness (bench_util.h).
//
// Default (smoke) mode ramps closed-loop concurrency K = 1..max against a
// single replica to find the per-shard knee K* (the K past which more
// concurrency buys < 10% throughput — with one worker per shard, batching
// efficiency is what the ramp climbs), then drives the N-shard fleet at
// N * K* clients so every shard serves knee-level load. Both serve the
// same request stream, and their verdict tallies must be identical —
// sharding never changes a verdict — with no submission lost. Every step
// also prints this process's CPU-seconds (getrusage), the cores in use and
// the CPU µs per request, so the speedup splits into per-CPU-second
// efficiency x cores; with --isolation process the workers' CPU is not
// counted, and those lines say so.
//
// Campaign mode (--campaign 1) adds the acceptance gates:
//
//   scale     fleet req/s at N*K* >= 0.875 * min(N, hw cores) * single
//             req/s at K* (the hardware-aware form of the N=4 -> >= 3.5x
//             target: a box with fewer cores than shards cannot show the
//             speedup, but must still show the fleet layer costs < 12.5%)
//   FP        fleet verdict tallies == single-replica tallies, exactly
//   outage    a shard killed mid-campaign via fault::ChaosInjector costs
//             only its detection window: availability >= (N-1)/N while it
//             is down, every served verdict bit-identical to a
//             never-faulted single-replica reference
//   recovery  after revive_shard, the half-open probe restores the shard
//             and the fleet serves error-free at full membership again
//
// --isolation process runs every shard as a fork/exec'd pgmr-shard-worker
// process behind a proc::ShardSupervisor. The campaign gates are the
// same, but kill_shard delivers a real SIGKILL to the worker, detection
// rides the broken socket instead of a simulation flag, and recovery
// additionally requires the supervisor to have respawned the worker.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fault/chaos.h"
#include "fleet/router.h"
#include "polygraph/system.h"

namespace {

using namespace pgmr;
using std::chrono::milliseconds;

constexpr int kMembers = 4;
const char* const kPreps[kMembers] = {"ORG", "FlipX", "ConNorm",
                                      "Gamma(2.00)"};

fleet::FleetRouter make_fleet(
    const zoo::Benchmark& bm, std::size_t shards, fleet::Isolation isolation,
    std::shared_ptr<fault::ChaosInjector> chaos = nullptr) {
  fleet::FleetOptions opts;
  opts.shards = shards;
  opts.runtime.threads = 1;  // scale-out at fixed per-replica resources
  opts.runtime.max_batch = 8;
  opts.runtime.max_delay = std::chrono::microseconds(500);
  opts.runtime.queue_capacity = 64;
  opts.shard_quarantine_after = 3;
  opts.shard_cooldown = milliseconds(100);
  opts.chaos = std::move(chaos);
  opts.isolation = isolation;
  if (isolation == fleet::Isolation::process) {
    opts.process.worker_path = PGMR_SHARD_WORKER_BIN;
    // A respawn cadence that gives the campaign a real outage window to
    // measure, without stretching recovery past the probing budget.
    opts.process.backoff_initial = milliseconds(400);
    opts.process.backoff_max = milliseconds(2000);
    opts.process.healthy_uptime = milliseconds(1000);
  }
  return fleet::FleetRouter(
      [&bm](std::size_t) {
        polygraph::PolygraphSystem system(zoo::make_ensemble(
            bm, {kPreps[0], kPreps[1], kPreps[2], kPreps[3]}));
        system.set_thresholds({0.5F, mr::majority_threshold(kMembers)});
        return system;
      },
      opts);
}

void print_header() {
  std::printf("%-8s %10s %6s %6s %6s %7s %7s %6s %10s\n", "clients", "req/s",
              "TP", "FP", "unrel", "errors", "cpu-s", "cores", "cpu-us/req");
}

/// The CPU figures are this process's getrusage: with process isolation
/// they leave out the shard workers' CPU, and every line that prints them
/// says so.
const char* cpu_note(fleet::Isolation isolation) {
  return isolation == fleet::Isolation::process ? "  (worker CPU not counted)"
                                                : "";
}

void print_step(const bench::ClosedLoopResult& s, fleet::Isolation isolation) {
  std::printf("%-8zu %10.1f %6lld %6lld %6lld %7lld %7.2f %6.2f %10.1f%s\n",
              s.clients, s.rps(), static_cast<long long>(s.tp),
              static_cast<long long>(s.fp),
              static_cast<long long>(s.unreliable), s.errors, s.cpu_seconds,
              s.cores(), s.cpu_us_per_request(), cpu_note(isolation));
}

/// One closed-loop measurement of `fleet` at `clients` concurrency over
/// requests 0..requests-1, keyed by request index.
bench::ClosedLoopResult measure(fleet::FleetRouter& fleet,
                                const data::Dataset& test,
                                std::size_t clients, long long requests) {
  const std::int64_t pool_n = test.size();
  return bench::closed_loop_load(
      clients, requests,
      [&](long long i) {
        return fleet.submit(test.sample(i % pool_n),
                            static_cast<std::uint64_t>(i));
      },
      [&](long long i) {
        return test.labels[static_cast<std::size_t>(i % pool_n)];
      });
}

/// Every measurement replays requests 0..R-1, and verdicts are
/// deterministic under sharding and concurrency, so every step of every
/// configuration must tally identically (and lose nothing).
bool tally_identical(const bench::ClosedLoopResult& s,
                     const bench::ClosedLoopResult& want) {
  return s.errors == 0 && s.tp == want.tp && s.fp == want.fp &&
         s.unreliable == want.unreliable;
}

/// One serving phase of the shard-loss campaign: sequential keyed
/// submissions, every served verdict compared bit-for-bit against the
/// never-faulted single-replica reference.
struct PhaseTally {
  long long submitted = 0;
  long long served = 0;
  long long unavailable = 0;
  long long mismatched = 0;

  double availability() const {
    return submitted ? static_cast<double>(served) /
                           static_cast<double>(submitted)
                     : 0.0;
  }
};

void serve_compare(fleet::FleetRouter& fleet,
                   polygraph::PolygraphSystem& reference,
                   const data::Dataset& test, long long count,
                   long long offset, milliseconds pause, PhaseTally& t) {
  const std::int64_t pool_n = test.size();
  for (long long i = 0; i < count; ++i) {
    const long long key = offset + i;
    const std::int64_t n = key % pool_n;
    ++t.submitted;
    try {
      const polygraph::Verdict got =
          fleet.submit(test.sample(n), static_cast<std::uint64_t>(key)).get();
      ++t.served;
      const polygraph::Verdict want = reference.predict(test.sample(n));
      if (got.label != want.label || got.reliable != want.reliable ||
          got.votes != want.votes || got.activated != want.activated ||
          got.degraded != want.degraded) {
        ++t.mismatched;
      }
    } catch (const fleet::ShardUnavailable&) {
      ++t.unavailable;  // the detection-window cost of the dead shard
    }
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
  }
}

/// Kill a shard mid-campaign, measure the outage, revive it, and require
/// the half-open probe to restore full membership. In process isolation
/// the kill is a real SIGKILL of the worker and recovery additionally
/// requires the supervisor to have respawned it.
bool run_shard_loss_campaign(const zoo::Benchmark& bm,
                             const data::Dataset& test, std::size_t shards,
                             fleet::Isolation isolation) {
  auto chaos = std::make_shared<fault::ChaosInjector>(0);
  fleet::FleetRouter fleet = make_fleet(bm, shards, isolation, chaos);
  polygraph::PolygraphSystem reference(
      zoo::make_ensemble(bm, {kPreps[0], kPreps[1], kPreps[2], kPreps[3]}));
  reference.set_thresholds({0.5F, mr::majority_threshold(kMembers)});

  const std::size_t victim = shards - 1;
  PhaseTally pre, outage, post;

  serve_compare(fleet, reference, test, 64, 0, milliseconds(0), pre);
  const bool pre_ok = pre.unavailable == 0 && pre.mismatched == 0;

  chaos->kill_shard(victim);
  // Long enough for quarantine (3 refusals) plus a few failed half-open
  // probes — the full detection + re-probe cycle while the shard is dead.
  // Detection is checked between chunks, not only at the end: in process
  // mode the supervisor respawns the worker on its own schedule, so by the
  // end of the phase the shard may already be healthy again.
  bool detected = false;
  runtime::MemberState at_detect = runtime::MemberState::healthy;
  for (int chunk = 0; chunk < 10; ++chunk) {
    serve_compare(fleet, reference, test, 16, 64 + 16 * chunk,
                  milliseconds(2), outage);
    const runtime::MemberState state = fleet.shard_health().state(victim);
    if (!detected && state != runtime::MemberState::healthy &&
        chaos->shard_refusals(victim) >= 3) {
      detected = true;
      at_detect = state;
    }
  }
  const double floor =
      static_cast<double>(shards - 1) / static_cast<double>(shards);
  const bool outage_ok = detected && outage.mismatched == 0 &&
                         outage.availability() >= floor;

  chaos->revive_shard(victim);
  // The shard stays quarantined until its cooldown expires; the next
  // submission that elects it is the probe, and with the shard alive again
  // the probe's hand-off succeeds and restores it.
  long long recovered_at = -1;
  PhaseTally probing;
  for (long long i = 0; i < 256 && recovered_at < 0; ++i) {
    serve_compare(fleet, reference, test, 1, 224 + i, milliseconds(2),
                  probing);
    if (fleet.shard_health().state(victim) ==
        runtime::MemberState::healthy) {
      recovered_at = i + 1;
    }
  }
  serve_compare(fleet, reference, test, 64, 512, milliseconds(0), post);
  const fleet::FleetSnapshot snap = fleet.snapshot();
  // In process mode the recovery is only real if the supervisor actually
  // respawned the SIGKILLed worker (a fresh pid rebuilt from the spec).
  const bool respawned = isolation != fleet::Isolation::process ||
                         snap.shard_restarts[victim] >= 1;
  const bool recovery_ok = recovered_at >= 0 && post.unavailable == 0 &&
                           post.mismatched == 0 && respawned &&
                           snap.routed[victim] > 0;

  std::printf("pre-outage:  availability %.3f, %lld/%lld verdicts "
              "bit-identical -> %s\n",
              pre.availability(), pre.served - pre.mismatched, pre.served,
              pre_ok ? "ok" : "VIOLATED");
  std::printf("outage:      availability %.3f (floor %.3f), refusals %llu, "
              "victim %s at detection, %lld/%lld bit-identical -> %s\n",
              outage.availability(), floor,
              static_cast<unsigned long long>(chaos->shard_refusals(victim)),
              runtime::to_string(at_detect),
              outage.served - outage.mismatched, outage.served,
              outage_ok ? "ok" : "VIOLATED");
  std::printf("recovery:    shard %zu healthy after %lld probing requests, "
              "post-outage availability %.3f, %lld/%lld bit-identical -> "
              "%s\n",
              victim, recovered_at, post.availability(),
              post.served - post.mismatched, post.served,
              recovery_ok ? "ok" : "VIOLATED");
  if (isolation == fleet::Isolation::process) {
    std::printf("supervisor:  worker respawns for shard %zu: %llu -> %s\n",
                victim,
                static_cast<unsigned long long>(snap.shard_restarts[victim]),
                respawned ? "ok" : "VIOLATED");
  }
  std::printf("fleet counters: spills %llu probes %llu unavailable %llu\n",
              static_cast<unsigned long long>(snap.spills),
              static_cast<unsigned long long>(snap.probes),
              static_cast<unsigned long long>(snap.unavailable));
  fleet.shutdown();
  return pre_ok && outage_ok && recovery_ok;
}

}  // namespace

int main(int argc, char** argv) {
  pgmr::bench::use_repo_cache();
  std::size_t shards = 4;
  std::size_t max_clients = 8;  // ramp ceiling for the per-shard knee
  long long requests = 640;
  bool campaign = false;
  fleet::Isolation isolation = fleet::Isolation::thread;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--closed-loop") == 0) {
      max_clients = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      requests = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--campaign") == 0) {
      campaign = std::atoll(argv[i + 1]) != 0;
    } else if (std::strcmp(argv[i], "--isolation") == 0) {
      if (std::strcmp(argv[i + 1], "thread") == 0) {
        isolation = fleet::Isolation::thread;
      } else if (std::strcmp(argv[i + 1], "process") == 0) {
        isolation = fleet::Isolation::process;
      } else {
        std::fprintf(stderr, "--isolation must be thread|process\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (shards == 0) shards = 1;
  if (max_clients == 0) max_clients = 8;

  const zoo::Benchmark& bm = zoo::find_benchmark("lenet5");
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);
  const data::Dataset& test = splits.test;
  const std::int64_t pool_n = test.size();
  bool ok = true;

  std::printf("isolation: %s\n", fleet::to_string(isolation));
  pgmr::bench::rule("single replica, closed-loop ramp to the knee");
  print_header();
  fleet::FleetRouter single = make_fleet(bm, 1, isolation);
  const auto single_steps = bench::closed_loop_ramp(
      max_clients, requests,
      [&](long long i) {
        return single.submit(test.sample(i % pool_n),
                             static_cast<std::uint64_t>(i));
      },
      [&](long long i) {
        return test.labels[static_cast<std::size_t>(i % pool_n)];
      });
  for (const bench::ClosedLoopResult& s : single_steps) {
    print_step(s, isolation);
  }
  const bench::ClosedLoopResult& knee = bench::ramp_best(single_steps);
  single.shutdown();
  std::printf("per-shard knee: %zu clients @ %.1f req/s\n", knee.clients,
              knee.rps());

  // Drive the fleet at knee * shards so every shard serves knee-level
  // load — the scale-out claim is per-replica, not per-fleet.
  char title[96];
  std::snprintf(title, sizeof(title),
                "%zu-shard fleet @ %zu clients (knee x shards)", shards,
                knee.clients * shards);
  pgmr::bench::rule(title);
  print_header();
  fleet::FleetRouter fleet = make_fleet(bm, shards, isolation);
  const bench::ClosedLoopResult fleet_step =
      measure(fleet, test, knee.clients * shards, requests);
  print_step(fleet_step, isolation);
  fleet.shutdown();

  bool identical = tally_identical(fleet_step, knee);
  for (const bench::ClosedLoopResult& s : single_steps) {
    identical = identical && tally_identical(s, knee);
  }
  const double speedup =
      knee.rps() > 0.0 ? fleet_step.rps() / knee.rps() : 0.0;
  std::printf("\nfleet %.1f req/s vs single %.1f req/s at the knee: "
              "speedup %.2fx\n",
              fleet_step.rps(), knee.rps(), speedup);
  // speedup = (req per CPU-second, fleet / single) x (cores, fleet / single)
  if (knee.cpu_seconds > 0.0 && fleet_step.cpu_seconds > 0.0) {
    std::printf("decomposition: per-CPU-second efficiency %.2fx x cores "
                "%.2f/%.2f%s\n",
                knee.cpu_us_per_request() / fleet_step.cpu_us_per_request(),
                fleet_step.cores(), knee.cores(), cpu_note(isolation));
  }
  std::printf("verdict tallies identical across every step: %s\n",
              identical ? "yes" : "NO");
  ok = ok && identical;

  if (campaign) {
    const double cores =
        static_cast<double>(std::thread::hardware_concurrency());
    const double required =
        0.875 * std::min(static_cast<double>(shards), std::max(1.0, cores));
    const bool scale_ok = speedup >= required;
    std::printf("scale gate: %.2fx >= %.2fx (0.875 * min(%zu shards, %.0f "
                "cores)) -> %s\n",
                speedup, required, shards, std::max(1.0, cores),
                scale_ok ? "ok" : "VIOLATED");
    ok = ok && scale_ok;

    pgmr::bench::rule("shard-loss chaos campaign (kill + revive one shard)");
    ok = run_shard_loss_campaign(bm, test, shards, isolation) && ok;
  }

  std::printf("\nacceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
