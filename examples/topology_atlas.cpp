// Tour of the topology subsystem: builds every placement generator,
// prints its connectivity picture (components, degree, convergecast
// depth) under the sensor radio's 40 m disc, and runs one short sensor
// scenario on a connected random placement to show generated topologies
// plug straight into the §4.1 harness.
//
//   ./examples/topology_atlas [--nodes N] [--area M] [--seed S]
#include <cstdio>
#include <vector>

#include "app/scenario.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "stats/table.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace bcp;
  util::Options opt("topology_atlas",
                    "placement generators and their connectivity");
  opt.add_int("nodes", 36, "node count per generated placement")
      .add_double("area", 200.0, "square side / corridor length (m)")
      .add_int("seed", 1, "placement seed");
  if (!opt.parse(argc, argv)) return 1;
  const int nodes = static_cast<int>(opt.get_int("nodes"));
  const double area = opt.get_double("area");
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));
  const double range = energy::mica().range;

  std::vector<net::TopologySpec> specs;
  for (const auto kind :
       {net::TopologyKind::kGrid, net::TopologyKind::kUniformRandom,
        net::TopologyKind::kGaussianClusters,
        net::TopologyKind::kLineCorridor, net::TopologyKind::kRing}) {
    net::TopologySpec spec;
    spec.kind = kind;
    spec.nodes = nodes;
    spec.area = area;
    spec.seed = seed;
    specs.push_back(spec);
  }

  stats::TextTable table;
  table.add_row({"topology", "nodes", "components", "stranded",
                 "mean_degree", "mean_depth"});
  for (const auto& spec : specs) {
    const net::Topology topo = spec.build();
    const net::ConnectivityGraph graph(topo.positions, range);
    const std::vector<int> labels = net::connected_components(graph);
    int components = 0;
    for (const int l : labels) components = std::max(components, l + 1);
    const auto stranded = net::unreachable_from(graph, topo.sink);
    const auto degree = static_cast<double>(graph.edge_count());
    const net::ConvergecastRouting routes(graph, topo.sink);
    table.add_row({topo.name, std::to_string(topo.node_count()),
                   std::to_string(components),
                   std::to_string(stranded.size()),
                   stats::TextTable::num(degree / topo.node_count(), 2),
                   stranded.size() + 1 ==
                           static_cast<std::size_t>(topo.node_count())
                       ? std::string("-")
                       : stats::TextTable::num(routes.mean_depth(), 2)});
  }
  stats::print_titled(
      "Placement generators under the 40 m sensor disc", table);

  // A generated placement drops into the scenario harness unchanged —
  // just swap the TopologySpec (the seed auto-advances to a connected
  // placement first).
  app::ScenarioConfig cfg =
      app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 3, 1);
  cfg.topology.kind = net::TopologyKind::kUniformRandom;
  cfg.topology.nodes = nodes;
  cfg.topology.area = area;
  cfg.topology.seed = seed;
  cfg.topology = net::first_connected(cfg.topology, range);
  cfg.rate_bps = 200.0;
  cfg.duration = 300.0;
  const app::RunMetrics m = app::run_scenario(cfg);
  std::printf(
      "\nSensor scenario on rand-%d (placement seed %llu): "
      "%lld/%lld delivered, goodput %.3f, %.3f J/Kbit\n",
      nodes, static_cast<unsigned long long>(cfg.topology.seed),
      static_cast<long long>(m.delivered),
      static_cast<long long>(m.generated), m.goodput, m.normalized_energy);
  return 0;
}
