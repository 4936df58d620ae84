// The benchmark zoo: dataset tiers, model recipes, and a disk cache of
// trained networks so every test/bench trains each variant at most once.
//
// Cache layout: $PGMR_CACHE_DIR (default ".pgmr_cache/") holds one archive
// per (benchmark, preprocessor, variant) triple. Variants are independent
// random-weight initializations — variant 0 is the canonical network,
// higher variants exist for the traditional-MR experiments (Figs 5, 13).
#pragma once

#include <optional>
#include <stop_token>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "mr/ensemble.h"
#include "zoo/models.h"
#include "zoo/trainer.h"

namespace pgmr::zoo {

/// One paper benchmark: a dataset tier plus a model recipe (Table II row).
struct Benchmark {
  std::string id;          ///< "lenet5", "convnet", "resnet20", ...
  std::string dataset_id;  ///< "smnist", "scifar", "simagenet"
  InputSpec input;
  TrainConfig train;
};

/// All six Table II benchmarks, in the paper's order.
const std::vector<Benchmark>& all_benchmarks();

/// Looks a benchmark up by id; throws std::invalid_argument when unknown.
const Benchmark& find_benchmark(const std::string& id);

/// Deterministically regenerates the benchmark's val and test splits.
/// `train` is left empty: only the trainer reads it, through
/// benchmark_train_split. Val and test are the same either way.
data::DatasetSplits benchmark_splits(const Benchmark& bm);

/// The benchmark's train split, which the zoo trains every member on.
data::Dataset benchmark_train_split(const Benchmark& bm);

/// Directory trained models are cached in ($PGMR_CACHE_DIR or .pgmr_cache).
std::string cache_dir();

/// Cache path of the archive for (benchmark, preprocessor, variant) — where
/// trained_network publishes and the runtime scrubber reloads from.
std::string archive_path(const Benchmark& bm, const std::string& prep_spec,
                         int variant = 0);

/// Returns the trained network for (benchmark, preprocessor, variant),
/// training on the preprocessed train split and caching on first use.
/// `prep_spec` is a Preprocessor::name() string; "ORG" trains on raw data.
nn::Network trained_network(const Benchmark& bm, const std::string& prep_spec,
                            int variant = 0);

/// Cancellable variant for background (replacement) training: returns
/// nullopt — publishing nothing to the cache — when `cancel` fires before
/// or during the training run. Cache hits load immediately either way.
std::optional<nn::Network> trained_network(const Benchmark& bm,
                                           const std::string& prep_spec,
                                           int variant, std::stop_token cancel);

/// A concrete recipe for rebuilding one fenced ensemble slot.
struct ReplacementSpec {
  std::string prep_spec;  ///< Preprocessor::name() of the new member
  int variant = 0;        ///< random-init variant (see trained_network)
};

/// Picks the replacement for a fenced member so ensemble diversity is
/// preserved: the first candidate_pool preprocessor not already serving in
/// `in_use` wins (a fresh Layer-1 view, the paper's diversity argument).
/// When the pool is exhausted, falls back to a fresh random-init variant
/// of the fenced member's own preprocessor (`attempt` + 1, so retries
/// after a failed replacement keep moving to unexplored seeds).
ReplacementSpec choose_replacement(const Benchmark& bm,
                                   const std::vector<std::string>& in_use,
                                   const std::string& fenced_prep,
                                   int attempt = 0);

/// Builds a ready-to-hot-swap Member for `spec`: trains (or cache-loads)
/// the network off the serving threads, pairs it with its preprocessor and
/// wires archive_source so the weight scrubber can heal the new member
/// too. nullopt when `cancel` fired before training finished.
std::optional<mr::Member> make_replacement_member(const Benchmark& bm,
                                                  const ReplacementSpec& spec,
                                                  int bits,
                                                  std::stop_token cancel);

/// One cache-maintenance pass over `dir`: deletes *.net files whose header
/// no reader version can parse (foreign magic, unknown version, truncated
/// header — e.g. the old epoch-timestamp seed archives), keeping current
/// and legacy-readable archives. Readable-but-rotted payloads are left for
/// the zoo's load-time self-heal. Also runs automatically the first time a
/// process touches a cache directory.
struct CachePruneReport {
  int scanned = 0;  ///< *.net files examined
  int pruned = 0;   ///< irrecoverable files deleted
  int kept = 0;     ///< readable (current or legacy) archives left in place
};
CachePruneReport prune_cache(const std::string& dir);

/// Candidate preprocessor pool the greedy builder searches for this
/// benchmark. The ImageNet-tier pool is kept smaller because each
/// candidate costs a full training run of the (heavier) network.
std::vector<std::string> candidate_pool(const Benchmark& bm);

/// Assembles a PolygraphMR-style ensemble: one member per preprocessor
/// spec, each running at `bits` precision (32 = full).
mr::Ensemble make_ensemble(const Benchmark& bm,
                           const std::vector<std::string>& prep_specs,
                           int bits = 32);

/// Assembles a traditional-MR ensemble: `copies` random-init variants of
/// the baseline network, all fed the raw input.
mr::Ensemble make_random_init_ensemble(const Benchmark& bm, int copies,
                                       int bits = 32);

}  // namespace pgmr::zoo
