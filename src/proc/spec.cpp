#include "proc/spec.h"

#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "prep/preprocessor.h"
#include "tensor/serialize.h"

namespace pgmr::proc {

namespace {

constexpr const char* kSpecFile = "spec.pgmr";

std::string member_net_file(std::size_t m) {
  return "member" + std::to_string(m) + ".net";
}

std::uint32_t protection_code(nn::Protection p) {
  switch (p) {
    case nn::Protection::off: return 0;
    case nn::Protection::final_fc: return 1;
    case nn::Protection::full: return 2;
  }
  return 1;
}

nn::Protection protection_from(std::uint32_t code) {
  switch (code) {
    case 0: return nn::Protection::off;
    case 1: return nn::Protection::final_fc;
    case 2: return nn::Protection::full;
    default:
      throw std::runtime_error("spec: unknown protection code " +
                               std::to_string(code));
  }
}

}  // namespace

void write_system_spec(const std::string& dir,
                       polygraph::PolygraphSystem& system,
                       const runtime::RuntimeOptions& options) {
  std::filesystem::create_directories(dir);
  mr::Ensemble& ensemble = system.ensemble();
  const std::size_t members = ensemble.size();

  BinaryWriter w((std::filesystem::path(dir) / kSpecFile).string());
  w.write_u32(static_cast<std::uint32_t>(members));
  for (std::size_t m = 0; m < members; ++m) {
    mr::Member& member = ensemble.member(m);
    w.write_string(member.prep_name());
    w.write_u32(static_cast<std::uint32_t>(member.bits()));
    w.write_u32(protection_code(member.protection()));
    w.write_string(member_net_file(m));
    member.net().network().save(
        (std::filesystem::path(dir) / member_net_file(m)).string());
  }
  w.write_f32(system.thresholds().conf);
  w.write_i64(system.thresholds().freq);

  // The POD subset of RuntimeOptions the worker honours. The protection
  // plan is carried per member above (the live levels, planner output
  // included), so the uniform `protection` field is not re-serialized.
  w.write_i64(static_cast<std::int64_t>(options.threads));
  w.write_i64(static_cast<std::int64_t>(options.max_batch));
  w.write_i64(options.max_delay.count());
  w.write_i64(static_cast<std::int64_t>(options.queue_capacity));
  w.write_i64(options.quarantine_after);
  w.write_i64(options.quarantine_cooldown.count());
  w.write_i64(options.scrub_interval.count());
  w.write_i64(options.fence_after_quarantines);
  w.close();
}

WorkerSystem load_system_spec(const std::string& dir) {
  BinaryReader r((std::filesystem::path(dir) / kSpecFile).string());
  const std::uint32_t members = r.read_u32();
  if (members == 0 || members > 256) {
    throw std::runtime_error("spec: implausible member count " +
                             std::to_string(members));
  }
  mr::Ensemble ensemble;
  std::vector<nn::Protection> levels;
  levels.reserve(members);
  for (std::uint32_t m = 0; m < members; ++m) {
    const std::string prep_spec = r.read_string();
    const int bits = static_cast<int>(r.read_u32());
    levels.push_back(protection_from(r.read_u32()));
    const std::string net_path =
        (std::filesystem::path(dir) / r.read_string()).string();
    mr::Member member(prep::make_preprocessor(prep_spec),
                      nn::Network::load(net_path), bits);
    member.set_archive_source(net_path);
    ensemble.add(std::move(member));
  }
  const float conf = r.read_f32();
  const int freq = static_cast<int>(r.read_i64());

  runtime::RuntimeOptions options;
  options.threads = static_cast<std::size_t>(r.read_i64());
  options.max_batch = static_cast<std::size_t>(r.read_i64());
  options.max_delay = std::chrono::microseconds(r.read_i64());
  options.queue_capacity = static_cast<std::size_t>(r.read_i64());
  options.quarantine_after = static_cast<int>(r.read_i64());
  options.quarantine_cooldown = std::chrono::milliseconds(r.read_i64());
  options.scrub_interval = std::chrono::milliseconds(r.read_i64());
  options.fence_after_quarantines = static_cast<int>(r.read_i64());
  // Bytes after the last field mean the spec was written in another
  // layout (e.g. one with more fields): fail instead of misreading it.
  r.expect_end();
  options.protection_per_member = std::move(levels);

  WorkerSystem ws{polygraph::PolygraphSystem(std::move(ensemble)), options};
  ws.system.set_thresholds({conf, freq});
  return ws;
}

}  // namespace pgmr::proc
