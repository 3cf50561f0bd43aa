// The benchmark's three workloads and the output checks every run gets.
//
// A workload is a fixed list of scenario configs built from the run seed
// (perfbench/README.md says why each was chosen and what it stresses).
// The checks here are the benchmark's definition of "correct": exact
// pinned values on the golden-protected single-queue path, invariants on
// the sharded log-distance and churn paths whose exact outputs later
// correctness work is expected to change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<std::string> labels;  ///< one per config, for messages/pins
  std::vector<bcp::app::ScenarioConfig> configs;
  /// Config the per-layer probes take their sizes and radios from.
  std::size_t probe_index = 0;
  int shards = 1;
  /// sim_threads of every timed run: min(nproc, the engine's useful cap).
  int sim_threads = 1;
  /// paper-grid: scenario seed on the pinned ladder, else 0.
  std::uint64_t pinned_seed = 0;
};

/// Paper-grid maps the run seed onto this many pinned scenario seeds
/// (1..kPinnedSeeds), so its outputs can be checked exactly.
constexpr std::uint64_t kPinnedSeeds = 16;

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       int nproc);

/// The same config run for one shard window: construction plus teardown
/// with (almost) no dispatch. The fault plan is dropped because its events
/// scale with the horizon and would all execute inside the short run.
bcp::app::ScenarioConfig setup_config(const bcp::app::ScenarioConfig& full);

/// Invariants of one run; returns one message per violation.
/// `full_horizon` adds the delivery checks (a setup run delivers nothing).
std::vector<std::string> check_invariants(const bcp::app::ScenarioConfig& cfg,
                                          const bcp::app::RunMetrics& m,
                                          bool full_horizon);

/// "" when two runs agree on every deterministic RunMetrics field (the
/// standard metrics plus the traffic, fault, channel, battery and shard
/// counters); otherwise the first difference.
std::string first_difference(const bcp::app::RunMetrics& a,
                             const bcp::app::RunMetrics& b);

/// Pinned paper-grid outputs: standard_metrics plus events_processed per
/// (scenario seed, variant), read from perfbench/pins/paper_grid.txt.
class PinTable {
 public:
  /// Throws std::runtime_error when the file is missing or malformed, or
  /// its metric header is not today's standard_metrics names.
  explicit PinTable(const std::string& path);

  /// "" when `m` matches the pin exactly; otherwise what differs.
  std::string check(std::uint64_t seed, const std::string& variant,
                    const bcp::app::RunMetrics& m) const;

  /// Writes the pin file for every seed on the ladder (runs the six
  /// variants kPinnedSeeds times).
  static void write(const std::string& path);

 private:
  struct Row {
    std::uint64_t seed = 0;
    std::string variant;
    std::vector<double> values;  ///< events_processed, then standard_metrics
  };
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

}  // namespace perfbench
