// SDC coverage campaign: how much of the silent-data-corruption space does
// the full protection stack (per-layer ABFT + CRC weight scrubbing + MR
// voting) actually cover?
//
// Single weight-bit flips are injected into ONE member of the 4-member
// ConvNet system, swept across IEEE-754 bit classes and across parameter
// tensors (layers). Every trial is classified, in order:
//   detected-by-ABFT  — the checksummed forward flags the faulty member
//                       inline (the runtime drops its vote immediately);
//   masked            — no inline detection, but the member's predictions
//                       are unchanged (the flip is numerically invisible);
//   masked-by-MR      — the member's predictions changed but the plurality
//                       verdict did not (redundancy absorbed the fault);
//   SDC               — the verdict changed with no inline detection.
// Orthogonally, detected-by-scrub counts the trials the parameter-CRC
// sweep would catch between batches — for stored-weight faults this is the
// backstop that bounds how long even an SDC can persist.
//
// A multi-fault section repeats the sweep with K simultaneous distinct
// flips per trial (sample_sites dedupes sites), modelling burst upsets.
//
// Flags: --trials N (per bit class, default 40), --probe N (samples,
// default 200), --layer-trials N (exponent flips per tensor, default 3),
// --faults K (simultaneous flips in the multi-fault section, default 3),
// --benchmark ID (convnet default; resnet20 runs the same campaign on the
// deeper residual stack), --protection off|fc|full (level under test,
// default full — one run per level yields the coverage-vs-cost table in
// EXPERIMENTS.md). CI runs the small smoke configurations.
//
// Exit status: under --protection full the campaign *requires* zero
// exponent-flip SDCs (every flip detected inline or masked) — a nonzero
// count fails the run, which is the CI gate for the BN-folded ABFT path.
#include <cstring>

#include "bench_util.h"
#include "fault/injector.h"
#include "mr/decision.h"
#include "perf/cost_model.h"

namespace {

using namespace pgmr;

std::vector<std::int64_t> argmax_rows(const Tensor& probs) {
  const std::int64_t n = probs.shape()[0];
  std::vector<std::int64_t> pred(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    pred[static_cast<std::size_t>(i)] = probs.argmax_row(i);
  }
  return pred;
}

std::vector<std::int64_t> system_predictions(const mr::MemberVotes& votes,
                                             std::int64_t n) {
  std::vector<std::int64_t> pred(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    pred[static_cast<std::size_t>(i)] =
        mr::decide(mr::sample_votes(votes, i), {0.0F, 1}).label;
  }
  return pred;
}

struct ClassTally {
  int trials = 0;
  int detected_abft = 0;
  int detected_scrub = 0;  ///< CRC sweep catches it (counted for all trials)
  int masked = 0;
  int masked_mr = 0;
  int sdc = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::use_repo_cache();

  int trials_per_class = 40;
  std::int64_t probe_n = 200;
  int layer_trials = 3;
  int multi_faults = 3;
  std::string benchmark = "convnet";
  nn::Protection protection = nn::Protection::full;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--trials") == 0) {
      trials_per_class = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--probe") == 0) {
      probe_n = std::atoll(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--layer-trials") == 0) {
      layer_trials = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      multi_faults = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--benchmark") == 0) {
      benchmark = argv[i + 1];
    } else if (std::strcmp(argv[i], "--protection") == 0) {
      const std::string arg = argv[i + 1];
      if (arg == "off") {
        protection = nn::Protection::off;
      } else if (arg == "fc" || arg == "final_fc") {
        protection = nn::Protection::final_fc;
      } else if (arg == "full") {
        protection = nn::Protection::full;
      } else {
        std::fprintf(stderr,
                     "sdc_coverage: --protection must be off|fc|full\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "sdc_coverage: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const zoo::Benchmark& bm = zoo::find_benchmark(benchmark);
  const data::DatasetSplits splits = zoo::benchmark_splits(bm);
  const data::Dataset probe = splits.test.slice(0, probe_n);
  const std::vector<std::string> specs = {"ORG", "AdHist", "FlipX", "FlipY"};

  mr::Ensemble ensemble = zoo::make_ensemble(bm, specs);
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    ensemble.member(m).set_protection(protection);
  }
  mr::Member& target = ensemble.member(0);

  // Golden state: every member's clean votes and the clean system verdicts.
  mr::MemberVotes clean_votes;
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    clean_votes.push_back(mr::votes_from_probabilities(
        ensemble.member(m).probabilities(probe.images)));
  }
  const std::vector<std::int64_t> clean_member_pred =
      argmax_rows(target.probabilities(probe.images));
  const std::vector<std::int64_t> clean_system_pred =
      system_predictions(clean_votes, probe_n);

  bench::rule("SDC coverage: single weight-bit flips in one member");
  std::printf("benchmark=%s, protection=%s, %d trials/class, %lld probe "
              "samples\n\n",
              bm.id.c_str(), nn::to_string(protection), trials_per_class,
              static_cast<long long>(probe_n));

  struct BitClass {
    const char* name;
    int lo, hi;
  };
  const BitClass classes[] = {{"mantissa low (0-11)", 0, 11},
                              {"mantissa high (12-22)", 12, 22},
                              {"exponent (23-30)", 23, 30},
                              {"sign (31)", 31, 31}};

  Rng rng(1234);
  std::printf("%-22s %7s %6s %7s %7s %7s %6s\n", "bit class", "trials",
              "abft", "scrub", "masked", "mr", "sdc");
  ClassTally exponent_tally;
  for (const BitClass& c : classes) {
    ClassTally tally;
    for (int t = 0; t < trials_per_class; ++t) {
      fault::FaultSite site =
          fault::sample_sites(target.net().mutable_network(), 1, rng, 31)[0];
      site.bit = c.lo + static_cast<int>(rng.randint(0, c.hi - c.lo));
      const float original =
          fault::inject(target.net().mutable_network(), site);

      ++tally.trials;
      // The CRC sweep is exact: any stored-weight flip that survives until
      // the next scrub cycle is caught there.
      if (!target.net().params_intact()) ++tally.detected_scrub;

      mr::MemberOutcome outcome = target.try_probabilities(probe.images);
      if (outcome.fault == mr::MemberFault::checksum ||
          outcome.fault == mr::MemberFault::non_finite) {
        ++tally.detected_abft;
      } else {
        const std::vector<std::int64_t> pred =
            argmax_rows(outcome.probabilities);
        if (pred == clean_member_pred) {
          ++tally.masked;
        } else {
          mr::MemberVotes votes = clean_votes;
          votes[0] = mr::votes_from_probabilities(outcome.probabilities);
          if (system_predictions(votes, probe_n) == clean_system_pred) {
            ++tally.masked_mr;
          } else {
            ++tally.sdc;
          }
        }
      }
      fault::restore(target.net().mutable_network(), site, original);
    }
    std::printf("%-22s %7d %5.0f%% %6.0f%% %6.0f%% %6.0f%% %5.0f%%\n",
                c.name, tally.trials,
                100.0 * tally.detected_abft / tally.trials,
                100.0 * tally.detected_scrub / tally.trials,
                100.0 * tally.masked / tally.trials,
                100.0 * tally.masked_mr / tally.trials,
                100.0 * tally.sdc / tally.trials);
    if (c.lo == 23) exponent_tally = tally;
  }
  const double exp_covered =
      100.0 *
      (exponent_tally.detected_abft + exponent_tally.masked +
       exponent_tally.masked_mr) /
      exponent_tally.trials;
  std::printf("\nhigh-exponent flips detected-or-masked inline: %.1f%% "
              "(target >= 90%%);\nCRC scrub additionally catches %.0f%% of "
              "all stored-weight flips between batches\n",
              exp_covered,
              100.0 * exponent_tally.detected_scrub / exponent_tally.trials);

  // One row of the coverage-vs-cost table: inline exponent coverage at
  // this level against its modelled latency surcharge over protection off
  // (the abft_macs pricing the protection planner optimizes with).
  {
    const perf::CostModel model;
    const Shape in{1, bm.input.channels, bm.input.size, bm.input.size};
    const nn::CostStats stats = target.net().network().cost(in);
    const perf::InferenceCost off_cost =
        model.network_cost(stats, target.bits(), nn::Protection::off);
    const perf::InferenceCost cost =
        model.network_cost(stats, target.bits(), protection);
    // Compute overhead is the raw abft_macs surcharge; the roofline latency
    // only moves once the member is compute-bound, so report both (plus
    // energy, which always pays for the extra MACs).
    const double macs = static_cast<double>(stats.macs);
    const double abft_macs = protection == nn::Protection::full
                                 ? static_cast<double>(stats.abft_macs)
                                 : 0.0;
    std::printf("coverage-vs-cost: protection=%s exponent_inline=%.1f%% "
                "model_compute_overhead=+%.2f%% model_latency_overhead=+%.2f%% "
                "model_energy_overhead=+%.2f%%\n",
                nn::to_string(protection), exp_covered,
                100.0 * abft_macs / macs,
                100.0 * (cost.latency_s - off_cost.latency_s) /
                    off_cost.latency_s,
                100.0 * (cost.energy_j - off_cost.energy_j) /
                    off_cost.energy_j);
  }

  // CI gate: full protection must leave ZERO exponent-flip SDCs — every
  // flip is either detected inline (ABFT/guards) or masked. The BN-folded
  // checksums exist precisely so conv->BN stacks meet this with the
  // default tolerance.
  if (protection == nn::Protection::full && exponent_tally.sdc > 0) {
    std::printf("FAIL: %d exponent-flip SDC(s) under protection=full\n",
                exponent_tally.sdc);
    return 1;
  }

  // Multi-fault batches: K simultaneous distinct flips per trial (burst
  // upsets — e.g. one event corrupting a cache line). sample_sites
  // guarantees the K sites are distinct, so the trial really carries K
  // faults and restore can undo them independently.
  if (multi_faults > 1) {
    char title[96];
    std::snprintf(title, sizeof(title),
                  "multi-fault batches: %d simultaneous flips per trial",
                  multi_faults);
    bench::rule(title);
    ClassTally tally;
    for (int t = 0; t < trials_per_class; ++t) {
      const std::vector<fault::FaultSite> sites = fault::sample_sites(
          target.net().mutable_network(), multi_faults, rng, 31);
      std::vector<float> originals;
      originals.reserve(sites.size());
      for (const fault::FaultSite& site : sites) {
        originals.push_back(
            fault::inject(target.net().mutable_network(), site));
      }

      ++tally.trials;
      if (!target.net().params_intact()) ++tally.detected_scrub;
      mr::MemberOutcome outcome = target.try_probabilities(probe.images);
      if (outcome.fault == mr::MemberFault::checksum ||
          outcome.fault == mr::MemberFault::non_finite) {
        ++tally.detected_abft;
      } else {
        const std::vector<std::int64_t> pred =
            argmax_rows(outcome.probabilities);
        if (pred == clean_member_pred) {
          ++tally.masked;
        } else {
          mr::MemberVotes votes = clean_votes;
          votes[0] = mr::votes_from_probabilities(outcome.probabilities);
          if (system_predictions(votes, probe_n) == clean_system_pred) {
            ++tally.masked_mr;
          } else {
            ++tally.sdc;
          }
        }
      }
      for (std::size_t s = sites.size(); s > 0; --s) {
        fault::restore(target.net().mutable_network(), sites[s - 1],
                       originals[s - 1]);
      }
    }
    std::printf("%-22s %7d %5.0f%% %6.0f%% %6.0f%% %6.0f%% %5.0f%%\n",
                "all bits, K faults", tally.trials,
                100.0 * tally.detected_abft / tally.trials,
                100.0 * tally.detected_scrub / tally.trials,
                100.0 * tally.masked / tally.trials,
                100.0 * tally.masked_mr / tally.trials,
                100.0 * tally.sdc / tally.trials);
    if (tally.detected_scrub != tally.trials) {
      std::printf("WARNING: CRC scrub missed a multi-fault trial "
                  "(%d/%d)\n", tally.detected_scrub, tally.trials);
      return 1;
    }
    std::printf("CRC scrub caught %d/%d multi-fault trials (exact: any "
                "stored-weight change flips the CRC)\n",
                tally.detected_scrub, tally.trials);
  }

  // Layer sweep: exponent flips aimed at each parameter tensor in turn —
  // shows full-network ABFT covering conv layers the final-FC checksum
  // never saw.
  bench::rule("ABFT detection by parameter tensor (exponent flips)");
  const std::size_t param_count =
      target.net().mutable_network().params().size();
  std::printf("%-8s %10s %14s\n", "tensor", "elements", "abft detected");
  for (std::size_t p = 0; p < param_count; ++p) {
    const std::int64_t numel =
        target.net().mutable_network().params()[p]->numel();
    int detected = 0;
    for (int t = 0; t < layer_trials; ++t) {
      fault::FaultSite site;
      site.param_index = p;
      site.element = rng.randint(0, numel - 1);
      site.bit = 23 + static_cast<int>(rng.randint(0, 7));
      const float original =
          fault::inject(target.net().mutable_network(), site);
      mr::MemberOutcome outcome = target.try_probabilities(probe.images);
      if (outcome.fault == mr::MemberFault::checksum ||
          outcome.fault == mr::MemberFault::non_finite) {
        ++detected;
      }
      fault::restore(target.net().mutable_network(), site, original);
    }
    std::printf("%-8zu %10lld %8d/%d\n", p, static_cast<long long>(numel),
                detected, layer_trials);
  }
  return 0;
}
