#include "zoo/zoo.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <system_error>

#include "prep/preprocessor.h"
#include "tensor/serialize.h"

namespace pgmr::zoo {
namespace {

TrainConfig basic_train(int epochs, float lr) {
  TrainConfig c;
  c.epochs = epochs;
  c.learning_rate = lr;
  return c;
}

nn::Network build_model(const Benchmark& bm, Rng& rng) {
  if (bm.id == "lenet5") return make_lenet5(bm.input, rng);
  if (bm.id == "convnet") return make_convnet(bm.input, rng);
  if (bm.id == "resnet20") return make_resnet20(bm.input, rng);
  if (bm.id == "densenet40") return make_densenet(bm.input, rng);
  if (bm.id == "alexnet") return make_alexnet(bm.input, rng);
  if (bm.id == "resnet34") return make_resnet34(bm.input, rng);
  throw std::invalid_argument("build_model: unknown benchmark " + bm.id);
}

/// Stable seed per (benchmark, prep, variant) so cached artifacts and fresh
/// training runs always agree.
std::uint64_t variant_seed(const Benchmark& bm, const std::string& prep_spec,
                           int variant) {
  const std::string key =
      bm.id + "|" + prep_spec + "|" + std::to_string(variant);
  return std::hash<std::string>{}(key) | 1ULL;
}

/// Bump whenever dataset generators, model recipes or training configs
/// change: stale cached weights would otherwise silently poison results.
constexpr int kZooCacheVersion = 3;

/// File-system-safe cache key ("Gamma(2.00)" -> "Gamma_2.00_").
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '(' || c == ')' || c == '/' || c == ' ') c = '_';
  }
  return out;
}

/// Scan-time garbage collection: the first time this process touches a
/// cache directory, sweep out archives no reader version can parse (the
/// epoch-timestamp seed archives were silently retrained on every miss
/// before this existed). Once per dir per process — the check is a small
/// header read per file, but there is no point repeating it.
void prune_cache_on_first_scan(const std::string& dir) {
  static std::mutex mutex;
  static std::set<std::string> scanned;
  {
    std::lock_guard guard(mutex);
    if (!scanned.insert(dir).second) return;
  }
  const CachePruneReport report = prune_cache(dir);
  if (report.pruned > 0) {
    std::fprintf(stderr,
                 "[zoo] pruned %d irrecoverable archive(s) from %s "
                 "(%d readable kept)\n",
                 report.pruned, dir.c_str(), report.kept);
  }
}

}  // namespace

const std::vector<Benchmark>& all_benchmarks() {
  static const std::vector<Benchmark> benchmarks = [] {
    std::vector<Benchmark> b;
    b.push_back({"lenet5", "smnist", InputSpec{1, 16, 10}, basic_train(6, 0.05F)});
    b.push_back({"convnet", "scifar", InputSpec{3, 16, 10}, basic_train(6, 0.05F)});
    b.push_back({"resnet20", "scifar", InputSpec{3, 16, 10}, basic_train(8, 0.05F)});
    b.push_back({"densenet40", "scifar", InputSpec{3, 16, 10}, basic_train(8, 0.05F)});
    b.push_back({"alexnet", "simagenet", InputSpec{3, 24, 20}, basic_train(8, 0.05F)});
    b.push_back({"resnet34", "simagenet", InputSpec{3, 24, 20}, basic_train(6, 0.05F)});
    return b;
  }();
  return benchmarks;
}

const Benchmark& find_benchmark(const std::string& id) {
  for (const Benchmark& b : all_benchmarks()) {
    if (b.id == id) return b;
  }
  throw std::invalid_argument("find_benchmark: unknown benchmark " + id);
}

data::DatasetSplits benchmark_splits(const Benchmark& bm) {
  data::SyntheticSpec spec;
  if (bm.dataset_id == "smnist") {
    spec = data::smnist_spec(5000);
  } else if (bm.dataset_id == "scifar") {
    spec = data::scifar_spec(5000);
  } else if (bm.dataset_id == "simagenet") {
    spec = data::simagenet_spec(6000);
  } else {
    throw std::invalid_argument("benchmark_splits: unknown dataset " +
                                bm.dataset_id);
  }
  const std::int64_t test_n = 1000;
  const std::int64_t val_n = 1000;
  // Generated straight into the three splits: a full corpus plus its split
  // copies would double the memory held while loading.
  std::vector<data::Dataset> parts = data::generate_synthetic_parts(
      spec, {spec.count - val_n - test_n, val_n, test_n});
  return {std::move(parts[0]), std::move(parts[1]), std::move(parts[2])};
}

std::string cache_dir() {
  if (const char* env = std::getenv("PGMR_CACHE_DIR")) return env;
  return ".pgmr_cache";
}

std::string archive_path(const Benchmark& bm, const std::string& prep_spec,
                         int variant) {
  return cache_dir() + "/" + bm.id + "_" + sanitize(prep_spec) + "_v" +
         std::to_string(variant) + "_c" + std::to_string(kZooCacheVersion) +
         ".net";
}

std::optional<nn::Network> trained_network(const Benchmark& bm,
                                           const std::string& prep_spec,
                                           int variant, std::stop_token cancel) {
  std::filesystem::create_directories(cache_dir());
  prune_cache_on_first_scan(cache_dir());
  const std::string path = archive_path(bm, prep_spec, variant);
  if (archive_exists(path)) {
    try {
      return nn::Network::load(path);
    } catch (const std::exception& e) {
      // Self-heal: a stale or foreign-format archive must not wedge every
      // consumer of the zoo; retrain and republish instead.
      std::fprintf(stderr, "[zoo] cached archive %s is unreadable (%s); "
                   "retraining\n", path.c_str(), e.what());
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }
  if (cancel.stop_requested()) return std::nullopt;

  Rng rng(variant_seed(bm, prep_spec, variant));
  nn::Network net = build_model(bm, rng);

  data::DatasetSplits splits = benchmark_splits(bm);
  const auto prep = prep::make_preprocessor(prep_spec);
  data::Dataset train = splits.train;
  train.images = prep->apply(train.images);

  TrainConfig config = bm.train;
  config.shuffle_seed = rng.engine()();
  config.cancelled = [cancel] { return cancel.stop_requested(); };
  std::printf("[zoo] training %s (%s, variant %d)...\n", bm.id.c_str(),
              prep_spec.c_str(), variant);
  std::fflush(stdout);
  train_network(net, train, config);
  // A cancelled run left the weights partial: publish nothing.
  if (cancel.stop_requested()) return std::nullopt;
  // Atomic publish: write to a process-unique temp file, then rename, so a
  // concurrent reader never sees a half-written archive and concurrent
  // writers (parallel ctest) never clobber each other's temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  net.save(tmp);
  std::filesystem::rename(tmp, path);
  return net;
}

nn::Network trained_network(const Benchmark& bm, const std::string& prep_spec,
                            int variant) {
  // Without a cancellation source the cancellable path always completes.
  return std::move(*trained_network(bm, prep_spec, variant, std::stop_token()));
}

ReplacementSpec choose_replacement(const Benchmark& bm,
                                   const std::vector<std::string>& in_use,
                                   const std::string& fenced_prep,
                                   int attempt) {
  const auto taken = [&in_use](const std::string& spec) {
    return std::find(in_use.begin(), in_use.end(), spec) != in_use.end();
  };
  for (const std::string& spec : candidate_pool(bm)) {
    if (!taken(spec)) return {spec, 0};
  }
  // Every preprocessor view is already serving: fall back to a fresh
  // random-init variant of the fenced member's own view (traditional-MR
  // style diversity). Variant 0 is the one that just failed us.
  return {fenced_prep.empty() ? std::string("ORG") : fenced_prep, attempt + 1};
}

std::optional<mr::Member> make_replacement_member(const Benchmark& bm,
                                                  const ReplacementSpec& spec,
                                                  int bits,
                                                  std::stop_token cancel) {
  std::optional<nn::Network> net =
      trained_network(bm, spec.prep_spec, spec.variant, cancel);
  if (!net.has_value()) return std::nullopt;
  mr::Member member(prep::make_preprocessor(spec.prep_spec), std::move(*net),
                    bits);
  member.set_archive_source(archive_path(bm, spec.prep_spec, spec.variant));
  return member;
}

CachePruneReport prune_cache(const std::string& dir) {
  namespace fs = std::filesystem;
  CachePruneReport report;
  if (!fs::is_directory(dir)) return report;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    // Extension filtering also skips in-flight "*.net.tmp.<pid>" publishes.
    if (!entry.is_regular_file() || entry.path().extension() != ".net") {
      continue;
    }
    ++report.scanned;
    try {
      BinaryReader header(entry.path().string(),
                          BinaryReader::Compat::allow_legacy);
      ++report.kept;  // current or legacy: some reader can make sense of it
    } catch (const std::exception&) {
      // No reader version can even parse the header: the archive can only
      // waste scans and mislead humans. Tolerate a concurrent prune racing
      // us to the unlink.
      std::error_code ec;
      if (fs::remove(entry.path(), ec) && !ec) {
        ++report.pruned;
      } else {
        ++report.kept;
      }
    }
  }
  return report;
}

std::vector<std::string> candidate_pool(const Benchmark& bm) {
  if (bm.dataset_id == "simagenet") {
    return {"ConNorm", "FlipX", "FlipY", "Gamma(1.50)", "Gamma(2.00)"};
  }
  return {"AdHist",      "ConNorm",     "FlipX", "FlipY",
          "Gamma(1.50)", "Gamma(2.00)", "Hist",  "ImAdj"};
}

mr::Ensemble make_ensemble(const Benchmark& bm,
                           const std::vector<std::string>& prep_specs,
                           int bits) {
  mr::Ensemble ensemble;
  for (const std::string& spec : prep_specs) {
    mr::Member member(prep::make_preprocessor(spec),
                      trained_network(bm, spec), bits);
    member.set_archive_source(archive_path(bm, spec));
    ensemble.add(std::move(member));
  }
  return ensemble;
}

mr::Ensemble make_random_init_ensemble(const Benchmark& bm, int copies,
                                       int bits) {
  mr::Ensemble ensemble;
  for (int v = 0; v < copies; ++v) {
    mr::Member member(std::make_unique<prep::Identity>(),
                      trained_network(bm, "ORG", v), bits);
    member.set_archive_source(archive_path(bm, "ORG", v));
    ensemble.add(std::move(member));
  }
  return ensemble;
}

}  // namespace pgmr::zoo
