// Day-in-production campaign: a seeded traffic trace (diurnal arrivals,
// bursts, drift/OOD/adversarial mix — src/workload) replayed against a
// sharded fleet while a scripted scenario schedule (src/fault/scenario.h)
// injects correlated multi-resolution faults:
//
//   request 10% — correlated member outage: the same member slot throws on
//                 two shards at once (a bad push hitting two hosts);
//   request 25% — activation-in-flight corruption inside one member's
//                 forward pass (invisible to ABFT and the scrubber; only
//                 the MR vote stands between it and the verdict);
//   request 40% — stuck-at burst corruption of adjacent stored weights on
//                 one shard's member (a DRAM row hit; the CRC scrubber
//                 must detect and heal it in the background);
//   request 55% — shard loss (kill_shard), revived at 70%.
//
// Every request is also served by a never-faulted serial reference of the
// same composition, and the run is gated on windowed SLOs (runtime/slo.h):
//
//   availability   no request window below (N-1)/N (the fleet's redundancy
//                  promise during a single-shard outage)
//   FP drift       <= 0.5 pp vs the never-faulted reference run
//   recovery       an impact run (consecutive windows with lost requests)
//                  ends within the window budget
//
// The campaign seed in the header reproduces the identical trace, corpora
// and fault schedule (--smoke 1 is the short deterministic CI slice).
// --record saves the generated trace; --trace replays a recorded one.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fault/chaos.h"
#include "fault/injector.h"
#include "fault/scenario.h"
#include "fleet/router.h"
#include "polygraph/system.h"
#include "runtime/slo.h"
#include "workload/corpora.h"
#include "workload/generator.h"

namespace {

using namespace pgmr;
using std::chrono::milliseconds;

constexpr int kMembers = 4;
const char* const kPreps[kMembers] = {"ORG", "FlipX", "ConNorm",
                                      "Gamma(2.00)"};

/// One ChaosInjector drives member chaos across the whole fleet: the plan
/// for member m of shard s lives at index s * kMembers + m, so a single
/// scenario event can arm the *same* member slot on several shards — a
/// correlated fault, not N independent ones.
std::size_t chaos_index(std::size_t shard, int member) {
  return shard * static_cast<std::size_t>(kMembers) +
         static_cast<std::size_t>(member);
}

fleet::FleetRouter make_fleet(
    const zoo::Benchmark& bm, std::size_t shards,
    const std::shared_ptr<fault::ChaosInjector>& chaos) {
  fleet::FleetOptions opts;
  opts.shards = shards;
  opts.runtime.threads = 1;
  opts.runtime.max_batch = 8;
  opts.runtime.max_delay = std::chrono::microseconds(500);
  opts.runtime.queue_capacity = 64;
  opts.runtime.quarantine_after = 3;
  opts.runtime.quarantine_cooldown = milliseconds(50);
  // The scrubber is the detector on duty for the stuck-at weight burst.
  opts.runtime.scrub_interval = milliseconds(25);
  opts.shard_quarantine_after = 3;
  opts.shard_cooldown = milliseconds(50);
  opts.chaos = chaos;
  // Thread isolation: the campaign reaches into shards to install
  // activation taps and corrupt weights, which needs a shared address
  // space (the process-isolated fleet is exercised by fleet_bench).
  opts.isolation = fleet::Isolation::thread;
  return fleet::FleetRouter(
      [&bm, &chaos](std::size_t shard) {
        mr::Ensemble ensemble;
        for (int m = 0; m < kMembers; ++m) {
          mr::Member member(
              fault::chaos_wrap(prep::make_preprocessor(kPreps[m]), chaos,
                                chaos_index(shard, m)),
              zoo::trained_network(bm, kPreps[m]));
          member.set_archive_source(zoo::archive_path(bm, kPreps[m]));
          ensemble.add(std::move(member));
        }
        polygraph::PolygraphSystem system(std::move(ensemble));
        system.set_thresholds({0.5F, mr::majority_threshold(kMembers)});
        return system;
      },
      opts);
}

void print_event(const fault::ScenarioEvent& e, long long at) {
  std::printf("  @%-6lld %s targets={", at, fault::to_string(e.action));
  for (std::size_t t = 0; t < e.targets.size(); ++t) {
    std::printf("%s%zu", t ? "," : "", e.targets[t]);
  }
  std::printf("}");
  if (e.action == fault::ScenarioAction::arm_member) {
    std::printf(" fault=%s count=%d", fault::to_string(e.fault), e.count);
  } else if (e.action == fault::ScenarioAction::arm_activation) {
    std::printf(" layer=%d elems=%lld value=%g count=%d", e.activation.layer,
                static_cast<long long>(e.activation.elems),
                e.activation.value, e.count);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  pgmr::bench::use_repo_cache();

  bool smoke = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = std::atoll(argv[i + 1]);
  }
  std::uint64_t seed = 20260809;
  long long requests = smoke ? 192 : 1536;
  std::size_t shards = smoke ? 3 : 4;
  std::int64_t window = smoke ? 32 : 64;
  std::string record_path, trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      requests = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // handled above
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (shards < 2 || requests < 64) {
    std::fprintf(stderr, "need --shards >= 2 and --requests >= 64\n");
    return 2;
  }

  const zoo::Benchmark& bm = zoo::find_benchmark("lenet5");

  // --- Workload: generate (or replay) the day's trace. ------------------
  workload::WorkloadSpec wspec;
  wspec.requests = requests;
  wspec.day_seconds = static_cast<double>(requests);  // 1 rps mean, scaled
  wspec.diurnal_amplitude = 0.6;
  wspec.burst_prob = 0.02;
  wspec.burst_len = 6;
  wspec.drift_frac = 0.10;
  wspec.ood_frac = 0.03;
  wspec.adversarial_frac = 0.02;
  wspec.corpus_size = 128;

  workload::Trace trace;
  if (!trace_path.empty()) {
    trace = workload::load_trace(trace_path);
    seed = trace.seed;  // the campaign seed is the trace's provenance
    requests = static_cast<long long>(trace.events.size());
  } else {
    wspec.seed = seed;
    trace = workload::generate_trace(wspec);
  }
  if (!record_path.empty()) workload::save_trace(trace, record_path);

  // Everything below derives from this one seed (satellite: any failed run
  // is bit-reproducible from this line).
  pgmr::bench::rule("day-in-production campaign");
  std::printf("campaign seed: %llu  (reproduce: day_in_production --seed "
              "%llu --requests %lld --shards %zu --window %lld%s)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed), requests, shards,
              static_cast<long long>(window), smoke ? " --smoke 1" : "");
  const workload::TraceSummary tsum = workload::summarize(trace);
  std::printf("trace: %s\n", workload::to_string(tsum).c_str());

  // --- Corpora + never-faulted reference. -------------------------------
  nn::Network victim = zoo::trained_network(bm, "ORG");
  const workload::Corpora corpora =
      workload::build_corpora(bm, wspec.corpus_size, seed, victim);
  polygraph::PolygraphSystem reference(
      zoo::make_ensemble(bm, {kPreps[0], kPreps[1], kPreps[2], kPreps[3]}));
  reference.set_thresholds({0.5F, mr::majority_threshold(kMembers)});

  // --- Fleet under chaos. -----------------------------------------------
  auto chaos = std::make_shared<fault::ChaosInjector>(
      shards * static_cast<std::size_t>(kMembers));
  fleet::FleetRouter fleet = make_fleet(bm, shards, chaos);
  for (std::size_t s = 0; s < shards; ++s) {
    for (int m = 0; m < kMembers; ++m) {
      fault::tap_activations(
          fleet.shard(s).system().ensemble().member(static_cast<std::size_t>(m)).net(),
          chaos, chaos_index(s, m));
    }
  }

  // --- Scripted fault scenario, keyed to the request clock. -------------
  const std::size_t victim_shard = shards - 1;
  const long long member_at = requests / 10;
  const long long activation_at = requests / 4;
  const long long weights_at = (requests * 2) / 5;
  const long long kill_at = (requests * 11) / 20;
  const long long revive_at = (requests * 7) / 10;

  std::vector<fault::ScenarioEvent> events;
  {
    fault::ScenarioEvent e;  // correlated member outage across two shards
    e.at_request = member_at;
    e.action = fault::ScenarioAction::arm_member;
    e.targets = {chaos_index(0, 1), chaos_index(1, 1)};
    e.fault = fault::ChaosFault::member_exception;
    e.count = 24;
    events.push_back(e);
  }
  {
    fault::ScenarioEvent e;  // in-flight activation corruption, shard 0
    e.at_request = activation_at;
    e.action = fault::ScenarioAction::arm_activation;
    e.targets = {chaos_index(0, 2)};
    e.count = 16;
    e.activation.layer = -1;
    e.activation.offset = 0;
    e.activation.elems = 128;
    e.activation.value = 1.0e20F;
    events.push_back(e);
  }
  {
    fault::ScenarioEvent e;  // shard loss ...
    e.at_request = kill_at;
    e.action = fault::ScenarioAction::kill_shard;
    e.targets = {victim_shard};
    events.push_back(e);
  }
  {
    fault::ScenarioEvent e;  // ... and revival
    e.at_request = revive_at;
    e.action = fault::ScenarioAction::revive_shard;
    e.targets = {victim_shard};
    events.push_back(e);
  }
  fault::ScenarioSchedule schedule(std::move(events));

  // --- Closed-loop replay with SLO accounting. --------------------------
  runtime::SloSpec slo;
  slo.window = window;
  slo.availability_floor =
      static_cast<double>(shards - 1) / static_cast<double>(shards);
  slo.fp_drift_pp = 0.5;
  // While the shard is scripted dead, every window it spans is impacted by
  // design (each cooldown expiry spends one probe request on the corpse),
  // so the recovery budget is relative to the outage: the impact run must
  // end within ONE window of the scripted revival — the next half-open
  // probe after revive_at has to restore the shard, or the gate trips.
  const long long outage_windows = (revive_at - kill_at + window - 1) / window;
  slo.recovery_windows = outage_windows + 1;

  runtime::SloTracker tracker(slo.window);
  long long ref_fp = 0, ref_reliable = 0, ref_served = 0;
  long long mismatched = 0;
  bool weights_corrupted = false;

  pgmr::bench::rule("scenario log");
  for (long long i = 0; i < requests; ++i) {
    const std::size_t before = schedule.applied();
    if (schedule.advance(i, *chaos) > 0) {
      for (std::size_t e = before; e < schedule.applied(); ++e) {
        print_event(schedule.events()[e], i);
      }
    }
    if (i == weights_at && !weights_corrupted) {
      // Region-resolution weight fault: a stuck-at burst over adjacent
      // elements of one tensor of shard 1's ORG member, injected under the
      // swap lock so it races nothing. The background scrubber must catch
      // the CRC mismatch and reload the member from its archive.
      runtime::ServingRuntime& rt = fleet.shard(1);
      rt.with_swap_lock([&] {
        quant::QuantizedNetwork& net =
            rt.system().ensemble().member(0).net();
        Rng wrng(seed ^ 0xDA7A0DEADULL);
        const auto bursts = fault::sample_burst_sites(
            net.mutable_network(), 1, 64, wrng, /*max_bit=*/15,
            fault::FaultKind::stuck_at_one);
        for (const fault::FaultSite& site : bursts[0]) {
          fault::inject(net.mutable_network(), site);
        }
      });
      weights_corrupted = true;
      std::printf("  @%-6lld stuck_at_one weight burst: shard 1 member 0, "
                  "64 adjacent elements\n", i);
    }

    const workload::TraceEvent& ev = trace.events[static_cast<std::size_t>(i)];
    const data::Dataset& ds = workload::corpus(corpora, ev.cls);
    const std::int64_t sample = ev.sample % ds.size();
    const Tensor input = ds.sample(sample);
    const bool has_label = ev.cls != workload::InputClass::ood;
    const std::int64_t label = ds.labels[static_cast<std::size_t>(sample)];

    // Never-faulted serial reference on the identical input.
    const polygraph::Verdict want = reference.predict(input);
    ++ref_served;
    if (want.reliable) {
      ++ref_reliable;
      if (has_label && want.label != label) ++ref_fp;
    }

    bool served = false, reliable = false, fp = false;
    try {
      const polygraph::Verdict got = fleet.submit(input, ev.key).get();
      served = true;
      reliable = got.reliable;
      fp = got.reliable && has_label && got.label != label;
      if (got.label != want.label || got.reliable != want.reliable) {
        ++mismatched;
      }
    } catch (const fleet::ShardUnavailable&) {
      // the detection-window cost of the dead shard
    } catch (const std::exception&) {
    }
    tracker.record(served, reliable, fp);

    // Pace only while the victim shard's outage is being detected or
    // probed, so the breaker's cooldown clock can actually advance; the
    // rest of the day replays at full speed.
    if (chaos->shard_down(victim_shard) ||
        fleet.shard_health().state(victim_shard) !=
            runtime::MemberState::healthy) {
      std::this_thread::sleep_for(milliseconds(2));
    }
  }

  // Give the scrubber one more interval to finish healing the weight
  // burst, then freeze the fleet's counters.
  const auto heal_deadline =
      std::chrono::steady_clock::now() + milliseconds(2000);
  auto healed = [&] {
    const fleet::FleetSnapshot snap = fleet.snapshot();
    std::uint64_t reloads = 0;
    for (std::uint64_t r : snap.merged.weight_reloads) reloads += r;
    return reloads;
  };
  while (healed() == 0 && std::chrono::steady_clock::now() < heal_deadline) {
    std::this_thread::sleep_for(milliseconds(20));
  }
  const fleet::FleetSnapshot snap = fleet.snapshot();
  fleet.shutdown();

  // --- Report + gates. --------------------------------------------------
  const double ref_fp_rate =
      ref_served ? static_cast<double>(ref_fp) / static_cast<double>(ref_served)
                 : 0.0;
  const runtime::SloReport report = runtime::evaluate_slo(tracker, ref_fp_rate, slo);

  std::uint64_t member_faults = 0, crc_hits = 0, reloads = 0;
  for (std::uint64_t v : snap.merged.member_faults) member_faults += v;
  for (std::uint64_t v : snap.merged.crc_mismatches) crc_hits += v;
  for (std::uint64_t v : snap.merged.weight_reloads) reloads += v;
  std::uint64_t act_fired = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    for (int m = 0; m < kMembers; ++m) {
      act_fired += chaos->activation_fired(chaos_index(s, m));
    }
  }

  pgmr::bench::rule("fault activity");
  std::printf("member faults (exception/NaN/ABFT): %llu\n",
              static_cast<unsigned long long>(member_faults));
  std::printf("activation corruptions fired:       %llu\n",
              static_cast<unsigned long long>(act_fired));
  std::printf("scrubber CRC detections / heals:    %llu / %llu\n",
              static_cast<unsigned long long>(crc_hits),
              static_cast<unsigned long long>(reloads));
  std::printf("shard refusals (victim %zu):         %llu, restarts %llu, "
              "probes %llu\n",
              victim_shard,
              static_cast<unsigned long long>(
                  chaos->shard_refusals(victim_shard)),
              static_cast<unsigned long long>(
                  snap.shard_restarts.empty()
                      ? 0
                      : snap.shard_restarts[victim_shard]),
              static_cast<unsigned long long>(snap.probes));
  std::printf("verdicts differing from reference:  %lld of %lld served\n",
              mismatched, static_cast<long long>(tracker.served()));

  pgmr::bench::rule("SLO gates");
  std::printf("  (availability floor %.3f = (N-1)/N; recovery budget %lld = "
              "%lld outage window(s) + 1)\n",
              slo.availability_floor,
              static_cast<long long>(slo.recovery_windows), outage_windows);
  std::printf("%s\n", report.to_string().c_str());

  // The day only counts if the scenario actually drew blood: every fault
  // resolution must have fired and the scrubber must have healed the
  // weight burst.
  const bool exercised =
      member_faults > 0 && act_fired > 0 && crc_hits > 0 && reloads > 0 &&
      chaos->shard_refusals(victim_shard) > 0;
  std::printf("all fault resolutions exercised:    %s\n",
              exercised ? "yes" : "NO");

  const bool ok = report.pass() && exercised;
  std::printf("\nacceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
