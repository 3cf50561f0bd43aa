#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "app/scenario_registry.hpp"
#include "app/sweep.hpp"

namespace perfbench {

namespace app = bcp::app;

namespace {

constexpr double kSensorSpacing = 40.0;  // grid pitch = Mica sensor range

const std::vector<std::string>& paper_grid_variants() {
  static const std::vector<std::string> v = {"sh/sensor", "sh/wifi",
                                             "sh/dual",   "mh/sensor",
                                             "mh/wifi",   "mh/dual"};
  return v;
}

bcp::net::TopologySpec grid(int side) {
  bcp::net::TopologySpec spec;
  spec.kind = bcp::net::TopologyKind::kGrid;
  spec.grid_side = side;
  spec.nodes = side * side;
  spec.area = kSensorSpacing * (side - 1);
  return spec;
}

/// §4.1 matrix with all 35 non-sink nodes sending (so the sender set does
/// not depend on the seed) over 500 simulated seconds, dual-radio bursts
/// of 100 packets (so sh/dual completes bursts inside the horizon): setup
/// is < 1% of wall.
std::vector<app::ScenarioConfig> paper_grid_configs(std::uint64_t seed) {
  const app::SweepPoint point(
      0, {{"senders", 35.0}, {"burst", 100.0}, {"duration", 500.0}});
  std::vector<app::ScenarioConfig> out;
  for (const auto& v : paper_grid_variants()) {
    app::ScenarioConfig cfg = app::ScenarioRegistry::builtin().make(v, point);
    cfg.seed = seed;
    out.push_back(cfg);
  }
  return out;
}

int engine_threads(int shards, int nproc) {
  // ShardedSimulator never keeps more than ceil(shards/2) workers busy.
  return std::max(1, std::min(nproc, (shards + 1) / 2));
}

bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Every deterministic RunMetrics field, by name, in a fixed order.
std::vector<std::pair<std::string, double>> flatten(
    const app::RunMetrics& m) {
  auto out = app::standard_metrics(m);
  const auto d = [](auto v) { return static_cast<double>(v); };
  out.insert(
      out.end(),
      {{"events_processed", d(m.events_processed)},
       {"dropped_no_route", d(m.dropped_no_route)},
       {"dropped_node_down", d(m.dropped_node_down)},
       {"bcp_handshakes_failed", d(m.bcp_handshakes_failed)},
       {"bcp_sender_sessions", d(m.bcp_sender_sessions)},
       {"bcp_receiver_timeouts", d(m.bcp_receiver_timeouts)},
       {"fault_node_crashes", d(m.fault_node_crashes)},
       {"fault_node_recoveries", d(m.fault_node_recoveries)},
       {"fault_recoveries_refused", d(m.fault_recoveries_refused)},
       {"fault_link_downs", d(m.fault_link_downs)},
       {"fault_link_ups", d(m.fault_link_ups)},
       {"route_rebuilds", d(m.route_rebuilds)},
       {"bcp_packets_lost_to_crash", d(m.bcp_packets_lost_to_crash)},
       {"mac_crash_drops", d(m.mac_crash_drops)},
       {"chan_frames", d(m.chan_frames)},
       {"chan_rx_starts", d(m.chan_rx_starts)},
       {"chan_rx_ends", d(m.chan_rx_ends)},
       {"chan_rx_live_at_end", d(m.chan_rx_live_at_end)},
       {"battery_deaths", d(m.battery_deaths)},
       {"time_to_first_death", m.time_to_first_death},
       {"time_to_sink_partition", m.time_to_sink_partition},
       {"delivered_bits_until_first_death",
        d(m.delivered_bits_until_first_death)},
       {"delivered_bits_until_partition",
        d(m.delivered_bits_until_partition)},
       {"battery_max_drawn_fraction", m.battery_max_drawn_fraction},
       {"boundary_frames", d(m.boundary_frames)}});
  return out;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int nproc) {
  Workload w;
  w.name = name;
  if (name == "paper-grid") {
    w.pinned_seed = 1 + seed % kPinnedSeeds;
    w.configs = paper_grid_configs(w.pinned_seed);
    w.labels = paper_grid_variants();
    w.probe_index = 5;  // mh/dual: both radios, 300 m 802.11 range
    return w;
  }
  if (name == "city-lossy") {
    // 316 x 316 = 99,856 nodes, central sink, log-distance + shadowing on
    // both radios, 2000 random CBR senders. Bursts reach the sink inside
    // 20 s from senders up to ~20 grid steps away. A central sink has ~34
    // senders that close on average (fewest over seeds 1..3000: 16, which
    // still deliver 918 packets); a corner sink has a quarter of that, and
    // some seeds then deliver nothing.
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, /*senders=*/2000, /*burst_packets=*/50);
    cfg.topology = grid(316);
    cfg.topology.sink = 158 * 316 + 158;
    cfg.rate_bps = 2000.0;
    cfg.duration = 20.0;
    cfg.seed = seed;
    cfg.propagation.kind = bcp::phy::PropagationKind::kLogDistance;
    cfg.shards = 8;
    cfg.sim_threads = engine_threads(cfg.shards, nproc);
    w.configs = {cfg};
    w.labels = {"city-lossy"};
    w.shards = cfg.shards;
    w.sim_threads = cfg.sim_threads;
    return w;
  }
  if (name == "churn-lifetime") {
    // 50 x 50 grid with a central sink on 4 shards. Every node sends at
    // 80 bps, so the sender set does not depend on the seed. 40 crashes,
    // 20 link flaps and the battery deaths (20 J + 20 J: the sink, the
    // hottest node, dies at ~100 s of 150 s) all become membership deltas,
    // and lifetime-aware routing rebuilds its trees on each of them and on
    // every 30 s reroute tick. Two replications per set (scenario and fault
    // seeds 2n and 2n + 1): when the sink dies moves with the seed, so one
    // run's work varies by ~10%, and the pair halves that spread.
    for (const std::uint64_t rep : {2 * seed, 2 * seed + 1}) {
      app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
          app::EvalModel::kDualRadio, /*senders=*/50 * 50 - 1,
          /*burst_packets=*/10);
      cfg.topology = grid(50);
      cfg.topology.sink = 25 * 50 + 25;
      cfg.rate_bps = 80.0;
      cfg.duration = 150.0;
      cfg.seed = rep;
      cfg.faults.node_crashes = 40;
      cfg.faults.link_flaps = 20;
      cfg.faults.mean_downtime = 30.0;
      cfg.faults.seed = rep;
      cfg.battery.enabled = true;
      cfg.battery.sensor_initial_j = 20.0;
      cfg.battery.wifi_initial_j = 20.0;
      cfg.battery.reroute_period = 30.0;
      cfg.route_policy = bcp::net::RoutePolicy::kLifetimeAware;
      cfg.shards = 4;
      cfg.sim_threads = engine_threads(cfg.shards, nproc);
      w.configs.push_back(cfg);
      w.labels.push_back("churn-lifetime/seed-" + std::to_string(rep));
    }
    w.shards = w.configs[0].shards;
    w.sim_threads = w.configs[0].sim_threads;
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

app::ScenarioConfig setup_config(const app::ScenarioConfig& full) {
  app::ScenarioConfig cfg = full;
  cfg.duration = full.shard_window;
  cfg.faults = bcp::sim::FaultPlanSpec{};
  return cfg;
}

std::vector<std::string> check_invariants(const app::ScenarioConfig& cfg,
                                          const app::RunMetrics& m,
                                          bool full_horizon) {
  std::vector<std::string> errors;
  if (m.chan_rx_starts != m.chan_rx_ends + m.chan_rx_live_at_end)
    errors.push_back("channel conservation: rx_starts " +
                     std::to_string(m.chan_rx_starts) + " != rx_ends " +
                     std::to_string(m.chan_rx_ends) + " + live " +
                     std::to_string(m.chan_rx_live_at_end));
  if (m.delivered > m.generated)
    errors.push_back("delivered " + std::to_string(m.delivered) +
                     " > generated " + std::to_string(m.generated));
  if (full_horizon && m.delivered <= 0)
    errors.push_back("nothing delivered (generated " +
                     std::to_string(m.generated) + ")");
  if (cfg.battery.enabled) {
    // A node may overshoot its budget by one indivisible wake-up lump.
    const double capacity =
        cfg.model == app::EvalModel::kDualRadio
            ? cfg.battery.sensor_initial_j + cfg.battery.wifi_initial_j
        : cfg.model == app::EvalModel::kSensor ? cfg.battery.sensor_initial_j
                                               : cfg.battery.wifi_initial_j;
    const double lump =
        std::max(cfg.sensor_radio.e_wakeup, cfg.wifi_radio.e_wakeup);
    const double bound = 1.0 + lump / capacity + 1e-9;
    if (!(m.battery_max_drawn_fraction <= bound))
      errors.push_back("battery drawn fraction " +
                       std::to_string(m.battery_max_drawn_fraction) +
                       " exceeds budget plus one wake-up lump (" +
                       std::to_string(bound) + ")");
  }
  return errors;
}

std::string first_difference(const app::RunMetrics& a,
                             const app::RunMetrics& b) {
  const auto fa = flatten(a);
  const auto fb = flatten(b);
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (!same(fa[i].second, fb[i].second)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g",
                    fa[i].first.c_str(), fa[i].second, fb[i].second);
      return buf;
    }
  if (a.shard_events != b.shard_events) return "shard_events differ";
  return "";
}

// ---- Pins -------------------------------------------------------------------

namespace {

std::vector<std::string> pin_names() {
  std::vector<std::string> names = {"events_processed"};
  for (const auto& [name, value] : app::standard_metrics(app::RunMetrics{}))
    names.push_back(name);
  return names;
}

std::vector<double> pin_values(const app::RunMetrics& m) {
  std::vector<double> values = {static_cast<double>(m.events_processed)};
  for (const auto& [name, value] : app::standard_metrics(m))
    values.push_back(value);
  return values;
}

}  // namespace

PinTable::PinTable(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pin file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (names_.empty()) {
      std::string word;
      fields >> word;
      if (word != "names")
        throw std::runtime_error(path + ": first row must list names");
      while (fields >> word) names_.push_back(word);
      if (names_ != pin_names())
        throw std::runtime_error(
            path + ": pinned metric names differ from standard_metrics");
      continue;
    }
    Row row;
    fields >> row.seed >> row.variant;
    std::string token;
    while (fields >> token)
      row.values.push_back(std::strtod(token.c_str(), nullptr));
    if (!fields.eof() || row.values.size() != names_.size())
      throw std::runtime_error(path + ": malformed row: " + line);
    rows_.push_back(std::move(row));
  }
  if (names_.empty()) throw std::runtime_error(path + ": no names row");
}

std::string PinTable::check(std::uint64_t seed, const std::string& variant,
                            const app::RunMetrics& m) const {
  for (const Row& row : rows_) {
    if (row.seed != seed || row.variant != variant) continue;
    const std::vector<double> got = pin_values(m);
    for (std::size_t i = 0; i < got.size(); ++i)
      if (!same(got[i], row.values[i])) {
        char buf[200];
        std::snprintf(buf, sizeof buf, "%s seed %llu: %s = %.17g, pinned %.17g",
                      variant.c_str(), static_cast<unsigned long long>(seed),
                      names_[i].c_str(), got[i], row.values[i]);
        return buf;
      }
    return "";
  }
  return variant + " seed " + std::to_string(seed) + ": no pinned row";
}

void PinTable::write(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write pin file " + path);
  out << "# paper-grid outputs per (scenario seed, variant):\n"
         "# events_processed and standard_metrics with 35 senders, burst\n"
         "# 100, 500 s. The single-queue unit-disc path is golden-protected,\n"
         "# so these never change unless a change deliberately alters the\n"
         "# figure outputs. Regenerate with python3 perfbench/run.py --pin\n";
  out << "names";
  for (const auto& n : pin_names()) out << ' ' << n;
  out << '\n';
  for (std::uint64_t seed = 1; seed <= kPinnedSeeds; ++seed) {
    const auto configs = paper_grid_configs(seed);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const app::RunMetrics m = app::run_scenario(configs[i]);
      out << seed << ' ' << paper_grid_variants()[i];
      char buf[40];
      for (const double v : pin_values(m)) {
        std::snprintf(buf, sizeof buf, " %.17g", v);
        out << buf;
      }
      out << '\n';
    }
  }
}

}  // namespace perfbench
