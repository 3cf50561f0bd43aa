// Unit + integration tests for the fault/churn subsystem: FaultPlan
// schedule generation, LinkState semantics, DynamicRouting's
// rebuild-only-on-membership-change contract, and the churn/lossy
// registry variants end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "app/scenario.hpp"
#include "app/scenario_registry.hpp"
#include "app/sweep.hpp"
#include "net/link_state.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/fault_plan.hpp"

namespace bcp {
namespace {

// ------------------------------------------------------------ FaultPlan --

sim::FaultPlanSpec churn_spec(int crashes, int flaps = 0) {
  sim::FaultPlanSpec spec;
  spec.node_crashes = crashes;
  spec.link_flaps = flaps;
  spec.seed = 7;
  return spec;
}

TEST(FaultPlan, DeterministicAndSorted) {
  const sim::FaultPlan a(churn_spec(5), 36, 0, 1000.0);
  const sim::FaultPlan b(churn_spec(5), 36, 0, 1000.0);
  ASSERT_EQ(a.events().size(), 10u);  // crash + recover per victim
  ASSERT_EQ(b.events().size(), a.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
  }
  for (std::size_t i = 1; i < a.events().size(); ++i)
    EXPECT_LE(a.events()[i - 1].at, a.events()[i].at);
}

TEST(FaultPlan, SparesTheSinkAndRecoversEveryVictimInsideTheRun) {
  const double duration = 500.0;
  const sim::FaultPlan plan(churn_spec(10), 36, 5, duration);
  std::set<std::int32_t> crashed;
  std::set<std::int32_t> recovered;
  for (const auto& ev : plan.events()) {
    EXPECT_GT(ev.at, 0.0);
    EXPECT_LT(ev.at, duration);
    if (ev.kind == sim::FaultKind::kNodeCrash) {
      EXPECT_NE(ev.node, 5);  // the sink stays alive
      EXPECT_TRUE(crashed.insert(ev.node).second);  // distinct victims
    } else {
      ASSERT_EQ(ev.kind, sim::FaultKind::kNodeRecover);
      recovered.insert(ev.node);
    }
  }
  EXPECT_EQ(crashed.size(), 10u);
  EXPECT_EQ(crashed, recovered);
}

TEST(FaultPlan, LinkFlapsFollowTheAdjacency) {
  // A 4-node line: only 3 real links exist.
  const std::vector<std::vector<std::int32_t>> adjacency = {
      {1}, {0, 2}, {1, 3}, {2}};
  auto spec = churn_spec(0, 3);
  const sim::FaultPlan plan(spec, 4, 0, 800.0, [&adjacency](std::int32_t id) {
    const auto& row = adjacency[static_cast<std::size_t>(id)];
    return sim::NeighborRow{row.data(), row.data() + row.size()};
  });
  std::set<std::pair<std::int32_t, std::int32_t>> flapped;
  for (const auto& ev : plan.events()) {
    ASSERT_TRUE(ev.kind == sim::FaultKind::kLinkDown ||
                ev.kind == sim::FaultKind::kLinkUp);
    const auto link = std::minmax(ev.node, ev.peer);
    EXPECT_EQ(std::abs(ev.node - ev.peer), 1) << "not a line link";
    flapped.insert(link);
  }
  EXPECT_EQ(flapped.size(), 3u);  // all distinct; only real links exist
}

TEST(FaultPlan, RejectsImpossibleAndInvalidSpecs) {
  EXPECT_THROW(sim::FaultPlan(churn_spec(36), 36, 0, 100.0),
               std::invalid_argument);  // only 35 non-sink nodes
  sim::FaultPlanSpec spec;
  spec.events.push_back({10.0, sim::FaultKind::kNodeCrash, 0, -1});
  EXPECT_THROW(sim::FaultPlan(spec, 36, 0, 100.0),
               std::invalid_argument);  // crashing the sink
  spec.events[0] = {10.0, sim::FaultKind::kNodeCrash, 99, -1};
  EXPECT_THROW(sim::FaultPlan(spec, 36, 0, 100.0),
               std::invalid_argument);  // out of range
}

// ------------------------------------------------------------ LinkState --

TEST(LinkState, NodeAndLinkSemantics) {
  net::LinkState links(4);
  EXPECT_TRUE(links.all_up());
  EXPECT_TRUE(links.link_up(0, 1));
  links.set_node_up(1, false);
  EXPECT_FALSE(links.all_up());
  EXPECT_FALSE(links.node_up(1));
  EXPECT_FALSE(links.link_up(0, 1));  // either endpoint down kills the link
  EXPECT_TRUE(links.link_up(0, 2));
  links.set_link_up(0, 2, false);
  EXPECT_FALSE(links.link_up(0, 2));
  EXPECT_FALSE(links.link_up(2, 0));  // unordered pair
  links.set_node_up(1, true);
  links.set_link_up(0, 2, true);
  EXPECT_TRUE(links.all_up());
}

TEST(LinkState, RevisionBumpsOnlyOnEffectiveChange) {
  net::LinkState links(4);
  const std::uint64_t r0 = links.revision();
  links.set_node_up(2, true);  // already up — no-op
  EXPECT_EQ(links.revision(), r0);
  links.set_node_up(2, false);
  EXPECT_EQ(links.revision(), r0 + 1);
  links.set_node_up(2, false);  // already down — no-op
  EXPECT_EQ(links.revision(), r0 + 1);
  links.set_link_up(0, 1, false);
  EXPECT_EQ(links.revision(), r0 + 2);
  links.set_link_up(1, 0, false);  // same pair, same state — no-op
  EXPECT_EQ(links.revision(), r0 + 2);
}

// Replicas that reach one membership by different paths compare equal
// (revisions and touches aside); one differing node or pair breaks it.
TEST(LinkState, SameMembershipIgnoresHistoryButNotState) {
  net::LinkState a(5);
  net::LinkState b(5);
  a.set_node_up(3, false);
  a.set_link_up(0, 1, false);
  b.set_link_up(1, 0, false);
  b.set_node_up(2, false);
  b.set_node_up(3, false);
  b.set_node_up(2, true);
  b.touch();
  EXPECT_NE(a.revision(), b.revision());
  EXPECT_TRUE(a.same_membership(b));
  EXPECT_TRUE(b.same_membership(a));
  b.set_node_up(4, false);
  EXPECT_FALSE(a.same_membership(b));
  b.set_node_up(4, true);
  b.set_link_up(2, 4, false);
  EXPECT_FALSE(a.same_membership(b));
  b.set_link_up(2, 4, true);
  EXPECT_TRUE(a.same_membership(b));
}

// ------------------------------------------------------- DynamicRouting --

TEST(DynamicRouting, RebuildsOnlyOnMembershipChange) {
  const net::Topology topo = net::Topology::grid(4, 120.0, 0);
  const net::ConnectivityGraph graph(topo.positions, 40.0);
  net::LinkState links(graph.node_count());
  const net::DynamicRouting routes(graph, topo.sink, links,
                                   /*all_pairs=*/false);
  for (int i = 0; i < 10; ++i) routes.next_hop(15, 0);
  EXPECT_EQ(routes.rebuild_count(), 1);  // first query built; the rest hit
  links.set_node_up(5, false);
  links.set_node_up(5, false);  // no-op: must not trigger another rebuild
  routes.next_hop(15, 0);
  routes.next_hop(14, 0);
  EXPECT_EQ(routes.rebuild_count(), 2);
}

TEST(DynamicRouting, RoutesAroundDownNodesAndHeals) {
  // 4-node line, spacing 40 m = range: the only path 3 -> 0 is through 2
  // and 1; taking 1 down strands 2 and 3.
  const net::ConnectivityGraph graph({{0, 0}, {40, 0}, {80, 0}, {120, 0}},
                                     41.0);
  net::LinkState links(4);
  const net::DynamicRouting routes(graph, 0, links, /*all_pairs=*/false);
  EXPECT_EQ(routes.next_hop(3, 0), 2);
  EXPECT_EQ(routes.hops(3, 0), 3);
  links.set_node_up(1, false);
  EXPECT_EQ(routes.next_hop(3, 0), net::kInvalidNode);
  EXPECT_EQ(routes.hops(2, 0), -1);
  links.set_node_up(1, true);
  EXPECT_EQ(routes.next_hop(3, 0), 2);
  EXPECT_EQ(routes.next_hop(1, 0), 0);
}

TEST(DynamicRouting, MatchesStaticProvidersWhileAllUp) {
  const net::Topology topo = net::Topology::grid(6, 200.0, 0);
  const net::ConnectivityGraph graph(topo.positions, 40.0);
  net::LinkState links(graph.node_count());
  const net::DynamicRouting dyn(graph, 0, links, /*all_pairs=*/true);
  const net::RoutingTable table(graph);
  for (net::NodeId from = 0; from < graph.node_count(); ++from) {
    EXPECT_EQ(dyn.next_hop(from, 0), table.next_hop(from, 0));
    EXPECT_EQ(dyn.hops(from, 0), table.hops(from, 0));
  }
}

// An in-place rebuild must be indistinguishable from a fresh build. Drive
// a 30x30 grid through random crash / recover / link-flap / touch epochs
// and, after each, compare the DynamicRouting tree against a freshly
// constructed ConvergecastRouting over the same replica.
TEST(DynamicRouting, InPlaceRebuildMatchesAFreshTreeThroughChurn) {
  const net::Topology topo = net::Topology::grid(30, 40.0 * 29, 0);
  const auto graph =
      std::make_shared<const net::ConnectivityGraph>(topo.positions, 40.0);
  const int n = graph->node_count();
  for (const net::RoutePolicy policy :
       {net::RoutePolicy::kShortestPath, net::RoutePolicy::kLifetimeAware}) {
    SCOPED_TRACE(net::to_string(policy));
    net::LinkState links(n);
    std::vector<double> fraction(static_cast<std::size_t>(n), 0.0);
    net::NodeCostFn cost;
    if (policy == net::RoutePolicy::kLifetimeAware)
      cost = [&fraction](net::NodeId v) {
        return 4.0 * fraction[static_cast<std::size_t>(v)];
      };
    const net::DynamicRouting dyn(*graph, topo.sink, links,
                                  /*all_pairs=*/false, policy, cost);
    std::mt19937_64 rng(17);
    const auto pick = [&rng](int bound) {
      return static_cast<net::NodeId>(rng() %
                                      static_cast<std::uint64_t>(bound));
    };
    std::vector<net::NodeId> down;
    dyn.next_hop(0, topo.sink);  // the initial build, at revision 0
    for (int step = 0; step < 200; ++step) {
      const std::uint64_t op = rng() % 4;
      if (op == 0) {  // crash a live non-sink node
        const net::NodeId v = 1 + pick(n - 1);
        if (links.node_up(v)) {
          links.set_node_up(v, false);
          down.push_back(v);
        }
      } else if (op == 1 && !down.empty()) {  // recover one
        const auto i = static_cast<std::size_t>(
            pick(static_cast<int>(down.size())));
        links.set_node_up(down[i], true);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (op == 2) {  // flap a real link
        const net::NodeId a = pick(n);
        const net::NeighborRange row = graph->neighbors(a);
        const net::NodeId b =
            row[static_cast<std::size_t>(pick(static_cast<int>(row.size())))];
        links.set_link_up(a, b, links.pair_down(a, b));
      } else {  // re-price relays
        for (double& f : fraction)
          f = static_cast<double>(rng() % 1000) / 1000.0;
        links.touch();
      }
      const net::ConvergecastRouting fresh(*graph, topo.sink, &links, cost);
      const net::ConvergecastRouting& tree = dyn.tree();
      ASSERT_EQ(tree.stranded(), fresh.stranded()) << "step " << step;
      for (net::NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(tree.parent(v), fresh.parent(v)) << "step " << step;
        ASSERT_EQ(tree.depth(v), fresh.depth(v)) << "step " << step;
        // Every tree edge is up.
        const net::NodeId p = tree.parent(v);
        if (v != topo.sink && p != net::kInvalidNode) {
          ASSERT_TRUE(links.link_up(v, p)) << "step " << step;
        }
        ASSERT_EQ(dyn.next_hop(v, topo.sink), fresh.next_hop(v, topo.sink))
            << "step " << step;
        ASSERT_EQ(dyn.hops(v, topo.sink), fresh.hops(v, topo.sink))
            << "step " << step;
      }
    }
    // Each step changes membership at most once: one rebuild per
    // effective epoch, plus the initial build.
    EXPECT_EQ(dyn.rebuild_count(),
              1 + static_cast<std::int64_t>(links.revision()));
  }
}

// --------------------------------------------- registry variants, e2e ----

app::ScenarioConfig variant_config(const std::string& name, double duration,
                                   std::uint64_t seed) {
  const app::SweepPoint point(
      0, {{"senders", 5}, {"burst", 50}, {"duration", duration}});
  app::ScenarioConfig cfg =
      app::ScenarioRegistry::builtin().make(name, point);
  cfg.seed = seed;
  return cfg;
}

TEST(ChurnScenario, ChurnVariantsRunGreenAndCountFaults) {
  for (const char* name : {"churn-mh/dual", "churn-mh/sensor"}) {
    const auto m = app::run_scenario(variant_config(name, 300.0, 3));
    EXPECT_GT(m.generated, 0) << name;
    EXPECT_GT(m.delivered, 0) << name;
    EXPECT_GE(m.goodput, 0.0) << name;
    EXPECT_LE(m.goodput, 1.0) << name;
    EXPECT_EQ(m.fault_node_crashes, 4) << name;
    EXPECT_EQ(m.fault_node_recoveries, 4) << name;
    EXPECT_GT(m.route_rebuilds, 0) << name;
    // Channel conservation holds through crashes and recoveries.
    EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end)
        << name;
  }
}

TEST(ChurnScenario, LossyVariantsRunGreen) {
  for (const char* name : {"lossy-mh/dual", "lossy-mh/sensor"}) {
    const auto m = app::run_scenario(variant_config(name, 300.0, 3));
    EXPECT_GT(m.generated, 0) << name;
    EXPECT_GT(m.delivered, 0) << name;
    EXPECT_EQ(m.fault_node_crashes, 0) << name;
    EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end)
        << name;
  }
}

TEST(ChurnScenario, ChurnRunsAreDeterministic) {
  const auto a = app::run_scenario(variant_config("churn-mh/dual", 300.0, 9));
  const auto b = app::run_scenario(variant_config("churn-mh/dual", 300.0, 9));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.fault_node_crashes, b.fault_node_crashes);
  EXPECT_DOUBLE_EQ(a.normalized_energy, b.normalized_energy);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(ChurnScenario, ChurnReducesGoodputVersusStaticNetwork) {
  // Same workload with and without churn: crashing senders/relays must
  // not *increase* the delivered fraction. Only meaningful while the
  // static network is UNSATURATED — at the default 2 Kbps the mh/sensor
  // grid sits near 0.36 goodput, where killing a fifth of the nodes for
  // half the run is admission control and can raise the fraction
  // delivered for the survivors. At a tenth of that load delivery tracks
  // the offered traffic, so churn can only lose: the dead sender's own
  // node-down drops plus relay outages.
  auto cfg = variant_config("churn-mh/sensor", 400.0, 11);
  cfg.rate_bps = 200.0;
  cfg.faults.node_crashes = 8;
  cfg.faults.mean_downtime = 200.0;
  const auto churned = app::run_scenario(cfg);
  cfg.faults = sim::FaultPlanSpec{};
  cfg.faults.node_crashes = 0;
  const auto still = app::run_scenario(cfg);
  ASSERT_GT(still.delivered, 0);
  ASSERT_GT(still.goodput, 0.9) << "baseline must be unsaturated for the "
                                   "direction to be universal";
  EXPECT_GT(churned.fault_node_crashes, 0);
  EXPECT_GT(churned.dropped_node_down, 0);
  EXPECT_LE(churned.goodput, still.goodput);
}

TEST(ChurnScenario, DutyCycledModelRejectsFaultPlans) {
  auto cfg = app::ScenarioConfig::multi_hop(app::EvalModel::kWifiDutyCycled,
                                            3, 1);
  cfg.duration = 50.0;
  cfg.faults.node_crashes = 2;
  EXPECT_THROW(app::run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace bcp
