// Registry-wide one-engine differential.
//
// run_scenario has one body: every config runs on the partition engine,
// shards = 1 being one partition. This test pins that body to the
// single-queue engine it replaced. Every built-in registry variant
// (except the sharded-* family, whose multi-partition contract the
// sharded differential goldens already pin) runs at one short point and
// at a 10% extra-loss point; lifetime variants add a point with budgets
// small enough that nodes die and a point with lifetime-aware routing.
// Each cell's fingerprint — events_processed, every standard_metrics
// value and the four chan_* conservation counters, printed with %.17g —
// is hashed (FNV-1a 64) and compared against a hash captured from the
// single-queue engine before it was deleted. A mismatch prints the full
// fingerprint and the golden line to review.
//
// Cells pinned at values the single-queue engine did NOT produce are
// marked at their goldens below, for one of two reasons:
//
//   * Barrier re-pricing (the six lifetime-routing cells). The partition
//     engine re-prices relays from a battery snapshot taken at the window
//     barriers on the reroute_period grid; the single queue scheduled one
//     tick event per period instead. At this 60 s point the routes,
//     deaths and every metric still match — only events_processed drops
//     by the six tick events.
//   * Barrier rerouting (three lifetime cells whose nodes die). Routes
//     follow the run's one router over the coordinator's membership
//     replica, refreshed at window barriers, so a death reroutes traffic
//     at the next barrier (< one 20 ms window) rather than at the death
//     itself. Channels still drop the dead node at once.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "app/scenario_registry.hpp"
#include "app/sweep.hpp"

namespace bcp {
namespace {

struct Cell {
  std::string variant;
  std::string tag;  ///< point label: "base", "loss", "deaths", "routing"
  app::SweepPoint::Params params;

  std::string label() const {
    std::string out;
    for (const char c : variant + "_" + tag)
      out += (c == '/' || c == '-') ? '_' : c;
    return out;
  }
};

std::vector<Cell> registry_cells() {
  const app::SweepPoint::Params base = {{"senders", 5.0},
                                        {"burst", 20.0},
                                        {"duration", 60.0},
                                        {"duty", 0.1}};
  app::SweepPoint::Params loss = base;
  loss.emplace_back("loss", 0.1);
  std::vector<Cell> cells;
  for (const std::string& name : app::ScenarioRegistry::builtin().names()) {
    if (name.rfind("sharded-", 0) == 0) continue;
    cells.push_back({name, "base", base});
    cells.push_back({name, "loss", loss});
    if (name.rfind("lifetime-", 0) != 0) continue;
    // Budgets that run out inside the minute (a 1.7 J Mica idles out in
    // ~57 s), so traffic decides who dies first. Dual-radio nodes pool
    // both budgets; the duty-cycled 802.11 radio idles a tenth of the time.
    const bool pooled = name.find("dual") != std::string::npos;
    const bool duty = name.find("duty") != std::string::npos;
    app::SweepPoint::Params deaths = base;
    deaths.emplace_back("sensor_j", 1.7);
    deaths.emplace_back("wifi_j", pooled ? 0.4 : duty ? 4.0 : 40.0);
    cells.push_back({name, "deaths", deaths});
    app::SweepPoint::Params routing = deaths;
    routing.emplace_back("lifetime_routing", 1.0);
    routing.emplace_back("reroute_s", 10.0);
    cells.push_back({name, "routing", routing});
  }
  return cells;
}

std::string fingerprint(const app::RunMetrics& m) {
  std::string out;
  char buf[64];
  const auto put = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g ", v);
    out += buf;
  };
  put(static_cast<double>(m.events_processed));
  for (const auto& [name, value] : app::standard_metrics(m)) put(value);
  put(static_cast<double>(m.chan_frames));
  put(static_cast<double>(m.chan_rx_starts));
  put(static_cast<double>(m.chan_rx_ends));
  put(static_cast<double>(m.chan_rx_live_at_end));
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Golden {
  const char* label;
  std::uint64_t hash;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"sh_sensor_base", 0xd87ccb467aea59afull},
    {"sh_sensor_loss", 0x5d010d09d78cdd58ull},
    {"sh_wifi_base", 0x3829f7548185c27aull},
    {"sh_wifi_loss", 0x5a81aaa5d427d77cull},
    {"sh_dual_base", 0xca0e6741e8d69522ull},
    {"sh_dual_loss", 0xed48a537c57c5138ull},
    {"sh_wifi_duty_base", 0x680db00091a17b30ull},
    {"sh_wifi_duty_loss", 0xac93c0edd255228full},
    {"mh_sensor_base", 0xfd795fc93e8b96abull},
    {"mh_sensor_loss", 0x97fab2802f42aaadull},
    {"mh_wifi_base", 0xf5e28f56962188a7ull},
    {"mh_wifi_loss", 0x0d41b50221aa8db6ull},
    {"mh_dual_base", 0x6e0d1df44fd06536ull},
    {"mh_dual_loss", 0xfc29b2567b4be500ull},
    {"mh_wifi_duty_base", 0xc36d1e7c7d3e70f2ull},
    {"mh_wifi_duty_loss", 0xa51f25bb12582c02ull},
    {"sh_rand_sensor_base", 0x44f7eb51ee06b454ull},
    {"sh_rand_sensor_loss", 0xaabf4efce005ec74ull},
    {"sh_rand_wifi_base", 0xdd634f1d68750da6ull},
    {"sh_rand_wifi_loss", 0xe8a09ccea47fa54aull},
    {"sh_rand_dual_base", 0xee71ffe5f4c5318eull},
    {"sh_rand_dual_loss", 0xc03a155f509bdf07ull},
    {"mh_rand_sensor_base", 0xc771b50634fff25aull},
    {"mh_rand_sensor_loss", 0x5833fa6df8acf7c8ull},
    {"mh_rand_wifi_base", 0xf5e28f56962188a7ull},
    {"mh_rand_wifi_loss", 0x0d41b50221aa8db6ull},
    {"mh_rand_dual_base", 0xee47b5a1ac4831f3ull},
    {"mh_rand_dual_loss", 0x94e3bc5bb892cdd8ull},
    {"sh_cluster_sensor_base", 0x71b24e6eb2312047ull},
    {"sh_cluster_sensor_loss", 0x5c7f5b6a68b8c24eull},
    {"sh_cluster_wifi_base", 0x94dbbd09ee04eeb6ull},
    {"sh_cluster_wifi_loss", 0xfdd976b70ede97a4ull},
    {"sh_cluster_dual_base", 0x0036f5dd767fd26dull},
    {"sh_cluster_dual_loss", 0xd79fce4b169739f3ull},
    {"mh_cluster_sensor_base", 0x567458cc828a26feull},
    {"mh_cluster_sensor_loss", 0xbb2fee73e87e1e1cull},
    {"mh_cluster_wifi_base", 0xf5e28f56962188a7ull},
    {"mh_cluster_wifi_loss", 0x0d41b50221aa8db6ull},
    {"mh_cluster_dual_base", 0x222b97bbcf36c5e6ull},
    {"mh_cluster_dual_loss", 0x84bdba9c301cf14eull},
    {"sh_line_sensor_base", 0xb4f2d3bf9a88f27dull},
    {"sh_line_sensor_loss", 0xd9b235280633ce6aull},
    {"sh_line_wifi_base", 0x1a01ff36cf866418ull},
    {"sh_line_wifi_loss", 0x6e98f2d6fffc189cull},
    {"sh_line_dual_base", 0xbbcd0332852bf696ull},
    {"sh_line_dual_loss", 0x4f646ae288ad317full},
    {"mh_line_sensor_base", 0x9c179038cc80b696ull},
    {"mh_line_sensor_loss", 0x1823eeb9da053db4ull},
    {"mh_line_wifi_base", 0xf5e28f56962188a7ull},
    {"mh_line_wifi_loss", 0x0d41b50221aa8db6ull},
    {"mh_line_dual_base", 0xfd8ef8b40e772a6cull},
    {"mh_line_dual_loss", 0x5bab62cfd4b92392ull},
    {"lossy_sh_sensor_base", 0x013e4980d429029full},
    {"lossy_sh_sensor_loss", 0x7c93c8e93e3f4e9dull},
    {"lossy_sh_wifi_base", 0x6e1ebc4fc4acbb38ull},
    {"lossy_sh_wifi_loss", 0xd53986cacd347e2eull},
    {"lossy_sh_dual_base", 0x373908716de91f99ull},
    {"lossy_sh_dual_loss", 0x5d6d5e6f21c48091ull},
    {"lossy_mh_sensor_base", 0x1f6f64fa48f59a77ull},
    {"lossy_mh_sensor_loss", 0x522f171e7ecafe61ull},
    {"lossy_mh_wifi_base", 0xe6d58e3034b30401ull},
    {"lossy_mh_wifi_loss", 0x0d3f6c3917cacad0ull},
    {"lossy_mh_dual_base", 0x7681eef89a4abb59ull},
    {"lossy_mh_dual_loss", 0x99b5dc9dd0ccbbe0ull},
    {"capture_sh_dual_base", 0xca0e6741e8d69522ull},
    {"capture_sh_dual_loss", 0x2cecf2c9d58e3078ull},
    {"capture_mh_dual_base", 0x6e0d1df44fd06536ull},
    {"capture_mh_dual_loss", 0x1ded87510ac4fb44ull},
    {"capture_mh_sensor_base", 0xfd795fc93e8b96abull},
    {"capture_mh_sensor_loss", 0x549395f595302760ull},
    {"capture_lossy_sh_dual_base", 0x2cea22705cbe6794ull},
    {"capture_lossy_sh_dual_loss", 0x80388e5ac0c77528ull},
    {"capture_lossy_mh_dual_base", 0xbb78f64d8ab2d27cull},
    {"capture_lossy_mh_dual_loss", 0x5ba4257ab4aba8f0ull},
    {"tdma_sh_sensor_base", 0x9a454c47f49fc9b1ull},
    {"tdma_sh_sensor_loss", 0xc0043be2b1065034ull},
    {"tdma_sh_wifi_base", 0x11a6ad09946064f6ull},
    {"tdma_sh_wifi_loss", 0x082b926aa951c321ull},
    {"tdma_mh_sensor_base", 0x486f15dc912b6912ull},
    {"tdma_mh_sensor_loss", 0x801ec6d764f48192ull},
    {"tdma_mh_wifi_base", 0x67d8c5b4f77ff8c2ull},
    {"tdma_mh_wifi_loss", 0x7d162136f9e2d7b7ull},
    {"churn_mh_sensor_base", 0xa8cb1286f2b0c38full},
    {"churn_mh_sensor_loss", 0x8ad94d4d0d9848a9ull},
    {"churn_mh_dual_base", 0x75dc5023a935f02bull},
    {"churn_mh_dual_loss", 0x7f4474c057406e67ull},
    {"churn_sh_dual_base", 0x8330cc083f4e17abull},
    {"churn_sh_dual_loss", 0x24a14abefc31f318ull},
    {"lifetime_mh_dual_base", 0x6e0d1df44fd06536ull},
    {"lifetime_mh_dual_loss", 0xfc29b2567b4be500ull},
    {"lifetime_mh_dual_deaths", 0x628f5e14217a6868ull},
    // Barrier re-pricing: 6 fewer events than the single queue.
    {"lifetime_mh_dual_routing", 0x73b4478cd8a94098ull},
    {"lifetime_mh_wifi_base", 0xf5e28f56962188a7ull},
    {"lifetime_mh_wifi_loss", 0x0d41b50221aa8db6ull},
    {"lifetime_mh_wifi_deaths", 0x2122b58a7055115cull},
    // Barrier re-pricing: 6 fewer events than the single queue.
    {"lifetime_mh_wifi_routing", 0x2122b58a7055115cull},
    {"lifetime_mh_sensor_base", 0xfd795fc93e8b96abull},
    {"lifetime_mh_sensor_loss", 0x97fab2802f42aaadull},
    // Barrier rerouting: a death reroutes at the next barrier.
    {"lifetime_mh_sensor_deaths", 0x93e768070e876cbfull},
    // Barrier re-pricing: 6 fewer events than the single queue.
    {"lifetime_mh_sensor_routing", 0x951e0acc815a9784ull},
    {"lifetime_mh_wifi_duty_base", 0xc36d1e7c7d3e70f2ull},
    {"lifetime_mh_wifi_duty_loss", 0xa51f25bb12582c02ull},
    // Barrier rerouting: a death reroutes at the next barrier.
    {"lifetime_mh_wifi_duty_deaths", 0x34fcef31c3ab6ca2ull},
    // Barrier re-pricing: 6 fewer events than the single queue.
    // Barrier rerouting: a death reroutes at the next barrier.
    {"lifetime_mh_wifi_duty_routing", 0x34fcef31c3ab6ca2ull},
    {"lifetime_lossy_mh_dual_base", 0x7681eef89a4abb59ull},
    {"lifetime_lossy_mh_dual_loss", 0x99b5dc9dd0ccbbe0ull},
    {"lifetime_lossy_mh_dual_deaths", 0xec4a47b8e01e66baull},
    // Barrier re-pricing: 6 fewer events than the single queue.
    {"lifetime_lossy_mh_dual_routing", 0xe020f98176db8bf2ull},
    {"lifetime_lossy_mh_wifi_base", 0xe6d58e3034b30401ull},
    {"lifetime_lossy_mh_wifi_loss", 0x0d3f6c3917cacad0ull},
    {"lifetime_lossy_mh_wifi_deaths", 0xf585354425eee38aull},
    // Barrier re-pricing: 6 fewer events than the single queue.
    {"lifetime_lossy_mh_wifi_routing", 0xf585354425eee38aull},
    {"mh_dual_flush_high_base", 0x6e0d1df44fd06536ull},
    {"mh_dual_flush_high_loss", 0xfc29b2567b4be500ull},
    {"mh_dual_fallback_low_base", 0x6e0d1df44fd06536ull},
    {"mh_dual_fallback_low_loss", 0xfc29b2567b4be500ull},
    {"mh_dual_shortcuts_base", 0x16c3356e03ec4408ull},
    {"mh_dual_shortcuts_loss", 0xe9ff54d346208f9cull},
    {"sh_dual_lucent2_base", 0x151a81ab9ec7f467ull},
    {"sh_dual_lucent2_loss", 0x40be6454da78558eull},
    {"sh_dual_cabletron_base", 0x0b23bc6c7a47e296ull},
    {"sh_dual_cabletron_loss", 0xbec5f984846d382full},
};
// clang-format on

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.label(); }

class OneEngine : public ::testing::TestWithParam<Cell> {};

TEST_P(OneEngine, MatchesSingleQueueFingerprint) {
  const Cell& cell = GetParam();
  const app::ScenarioConfig config = app::ScenarioRegistry::builtin().make(
      cell.variant, app::SweepPoint(0, cell.params));
  ASSERT_EQ(config.shards, 1);
  const std::string print = fingerprint(app::run_scenario(config));
  const std::uint64_t hash = fnv1a(print);
  const std::string label = cell.label();
  char line[160];
  std::snprintf(line, sizeof line, "{\"%s\", 0x%016" PRIx64 "ull},",
                label.c_str(), hash);
  const Golden* golden = nullptr;
  for (const Golden& g : kGoldens)
    if (label == g.label) golden = &g;
  ASSERT_NE(golden, nullptr) << "no golden for this cell; fingerprint:\n"
                             << print << "\n" << line;
  EXPECT_EQ(hash, golden->hash)
      << "one-partition run drifted from the pinned fingerprint:\n"
      << print << "\n" << line;
}

INSTANTIATE_TEST_SUITE_P(RegistryCells, OneEngine,
                         ::testing::ValuesIn(registry_cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return info.param.label();
                         });

}  // namespace
}  // namespace bcp
