// Allocation and memory probes for one workload; prints one JSON line.
//
//   perfbench_alloc_probe --workload <name> --seed <n>
//
// Replaces the program's operator new with the counting one from
// util/alloc_count_hook.hpp, so it runs single-threaded only: the setup
// runs use sim_threads=1 (identical results at any thread count).
//   app.setup_allocs_per_node  allocations of the workload's setup runs
//                              (one-window horizon) per node built
//   app.rss_bytes_per_node     peak RSS growth over those runs per node
//   net.graph_allocs           allocations of the two radio graphs of the
//                              workload's probe config
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "net/topology.hpp"
#include "util/alloc_count_hook.hpp"
#include "util/sysinfo.hpp"
#include "workloads.hpp"

namespace {

using namespace bcp;

/// Current resident set size in MiB (Linux /proc; 0 elsewhere).
double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0;
  double pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

int run(const std::string& name, std::uint64_t seed) {
  const perfbench::Workload w = perfbench::make_workload(name, seed, 1);

  const double rss0 = current_rss_mib();
  const std::uint64_t a0 = util::g_alloc_count;
  double nodes = 0;
  for (const auto& full : w.configs) {
    app::ScenarioConfig cfg = perfbench::setup_config(full);
    cfg.sim_threads = 1;
    app::run_scenario(cfg);
    nodes += cfg.topology.node_count();
  }
  const double setup_allocs = static_cast<double>(util::g_alloc_count - a0);
  const double rss_growth_mib = util::peak_rss_mib() - rss0;

  const app::ScenarioConfig& cfg = w.configs[w.probe_index];
  const net::Topology topo = cfg.topology.build();
  const util::Metres wifi_range = cfg.wifi_range_override > 0
                                      ? cfg.wifi_range_override
                                      : cfg.wifi_radio.range;
  const std::uint64_t g0 = util::g_alloc_count;
  {
    const net::ConnectivityGraph low(topo.positions, cfg.sensor_radio.range);
    const net::ConnectivityGraph high(topo.positions, wifi_range);
  }
  const double graph_allocs = static_cast<double>(util::g_alloc_count - g0);

  std::printf(
      "{\"app.setup_allocs_per_node\":%.17g,\"app.rss_bytes_per_node\":%.17g,"
      "\"net.graph_allocs\":%.17g}\n",
      setup_allocs / nodes, rss_growth_mib * 1024.0 * 1024.0 / nodes,
      graph_allocs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string workload;
    std::uint64_t seed = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key == "--workload") workload = argv[i + 1];
      else if (key == "--seed") seed = std::stoull(argv[i + 1]);
      else throw std::invalid_argument("unknown flag " + key);
    }
    return run(workload, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_alloc_probe: %s\n", e.what());
    return 2;
  }
}
