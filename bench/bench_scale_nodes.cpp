// Scale sweep — the large-network path: topology build, connectivity
// build (spatial hash) and convergecast-routing build timed from 36 to
// 2500 nodes across the placement generators, plus a short dual-radio
// simulation point per grid size, so the scale trajectory is measurable
// run over run and an accidental O(n²) regression shows up as a blown
// wall-clock budget (--budget-s, used by the CI smoke step).
//
// Placements keep the paper grid's density (40 m spacing = sensor range)
// for the grid and line generators; random and clustered placements get
// the area that keeps the disc graph connected with high probability
// (mean degree ~ ln n + 4), with the placement seed auto-advanced to a
// sink-connected draw.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/options.hpp"
#include "util/sysinfo.hpp"

namespace {

using namespace bcp;

constexpr double kSensorRange = 40.0;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The placement each (generator, node-count) cell runs on.
net::TopologySpec make_spec(net::TopologyKind kind, int nodes,
                            std::uint64_t seed) {
  net::TopologySpec spec;
  spec.kind = kind;
  spec.nodes = nodes;
  spec.seed = seed;
  switch (kind) {
    case net::TopologyKind::kGrid: {
      const int side =
          static_cast<int>(std::lround(std::sqrt(static_cast<double>(nodes))));
      spec.grid_side = side;
      spec.area = kSensorRange * (side - 1);
      break;
    }
    case net::TopologyKind::kUniformRandom:
    case net::TopologyKind::kGaussianClusters: {
      // Area keeping mean disc degree at ~ln n + 4, the classic random
      // geometric graph connectivity threshold plus slack.
      const double degree = std::log(static_cast<double>(nodes)) + 4.0;
      spec.area = std::sqrt(nodes * 3.14159265358979323846 * kSensorRange *
                            kSensorRange / degree);
      spec.clusters = std::max(4, nodes / 64);
      spec.cluster_spread = spec.area / (2.0 * std::sqrt(spec.clusters));
      break;
    }
    case net::TopologyKind::kLineCorridor:
      // 30 m spacing + 20 m width keeps every chain link under the 40 m
      // sensor range, so the corridor is connected by construction.
      spec.area = 30.0 * (nodes - 1);
      spec.corridor_width = 20.0;
      break;
    case net::TopologyKind::kRing:
      spec.area = 2.0 * kSensorRange * nodes / 6.28318530717958647692;
      break;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bcp::benchharness;
  util::Options opt("bench_scale_nodes",
                    "topology/routing build + dual-radio simulation, 36 to "
                    "2500 nodes across placement generators");
  opt.add_int("max-nodes", 2500, "largest node count to sweep")
      .add_double("duration", 20.0, "simulated seconds per scenario point")
      .add_int("senders", 10, "CBR senders per scenario point")
      .add_int("burst", 50, "dual-radio burst threshold in 32 B packets")
      .add_int("seed", 1, "base seed")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)")
      .add_double("budget-s", 0,
                  "fail (exit 2) if the whole sweep exceeds this wall "
                  "clock; 0 disables")
      .add_double("min-events-per-sec", 0,
                  "fail (exit 2) if the largest grid point's simulation "
                  "dispatches fewer events/sec; 0 disables (CI tripwire, "
                  "set a generous floor)")
      .add_int("headline-nodes", 0,
               "run one sharded dual-radio simulation on a grid of this "
               "many nodes (the 100k headline cell; 0 disables) and report "
               "events/sec + peak RSS")
      .add_int("headline-shards", 8, "shard count for the headline cell")
      .add_double("headline-duration", 5.0,
                  "simulated seconds for the headline cell")
      .add_double("headline-min-events-per-sec", 0,
                  "fail (exit 2) if the headline cell dispatches fewer "
                  "events/sec (wall clock includes scenario construction); "
                  "0 disables")
      .add_double("max-rss-mib", 0,
                  "fail (exit 2) if peak RSS after the headline cell "
                  "exceeds this many MiB — the O(n/shards) "
                  "partition-memory tripwire; 0 disables")
      .add_int("compare-shards", 0,
               "re-run the largest grid point on one partition vs this "
               "many shards (sim_threads auto) and report the wall-clock "
               "speedup plus a thread-count determinism check; 0 disables");
  if (!opt.parse(argc, argv)) return 1;
  const auto t_bench = std::chrono::steady_clock::now();
  const int max_nodes = static_cast<int>(opt.get_int("max-nodes"));
  const double duration = opt.get_double("duration");
  const int senders = static_cast<int>(opt.get_int("senders"));
  const int burst = static_cast<int>(opt.get_int("burst"));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));

  const std::vector<net::TopologyKind> generators = {
      net::TopologyKind::kGrid, net::TopologyKind::kUniformRandom,
      net::TopologyKind::kGaussianClusters, net::TopologyKind::kLineCorridor};
  std::vector<int> sizes;
  for (const int n : {36, 100, 225, 400, 900, 1600, 2500})
    if (n <= max_nodes) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(36);

  app::SweepGrid grid;
  std::vector<int> gen_ids;
  for (std::size_t i = 0; i < generators.size(); ++i)
    gen_ids.push_back(static_cast<int>(i));
  grid.axis_ints("gen", gen_ids).axis_ints("nodes", sizes);

  const app::SweepFn fn = [&](const app::SweepJob& job) {
    const net::TopologyKind kind =
        generators[static_cast<std::size_t>(job.point.get_int("gen"))];
    const int nodes = job.point.get_int("nodes");

    auto t0 = std::chrono::steady_clock::now();
    net::TopologySpec spec = make_spec(kind, nodes, seed);
    // Grid/line are connected by construction and random placements are
    // drawn at a connected density; clustered placements fragment into
    // islands at scale (realistically so), so their cells time the builds
    // and report depth over the sink's component.
    if (kind == net::TopologyKind::kUniformRandom)
      spec = net::first_connected(spec, kSensorRange, /*max_tries=*/256);
    const net::Topology topo = spec.build();
    const double topo_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const net::ConnectivityGraph graph(topo.positions, kSensorRange);
    const double graph_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const net::ConvergecastRouting routes(graph, topo.sink);
    const double routing_ms = ms_since(t0);

    const auto edges = static_cast<double>(graph.edge_count());
    // Cluster placements may strand even the sink's own island; report -1
    // rather than letting mean_depth() throw and abort the sweep.
    const std::size_t stranded = routes.stranded().size();
    const double mean_depth =
        stranded + 1 < static_cast<std::size_t>(nodes) ? routes.mean_depth()
                                                       : -1.0;

    // One short single-hop dual-radio point per grid size — the grid is
    // connected by construction at every n, so the simulation leg always
    // runs (and exercises the convergecast path above the all-pairs
    // limit).
    double sim_ms = 0;
    double delivered = 0;
    double goodput = 0;
    double events = 0;
    double events_per_sec = 0;
    double lossy_sim_ms = 0;
    double lossy_delivered = 0;
    double lossy_goodput = 0;
    if (kind == net::TopologyKind::kGrid) {
      app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
          app::EvalModel::kDualRadio, std::min(senders, nodes - 1), burst);
      cfg.topology = spec;
      cfg.rate_bps = 2000.0;
      cfg.duration = duration;
      cfg.seed = job.seed;
      t0 = std::chrono::steady_clock::now();
      const app::RunMetrics m = app::run_scenario(cfg);
      sim_ms = ms_since(t0);
      delivered = static_cast<double>(m.delivered);
      goodput = m.goodput;
      // Hot-path throughput: dispatched simulator events per wall second
      // (event counts are deterministic; the wall clock is this machine's).
      events = static_cast<double>(m.events_processed);
      if (sim_ms > 0) events_per_sec = events / (sim_ms / 1e3);

      // The lossy slice: the same point under log-distance + shadowing
      // per-link PER, so the scale trajectory of the realistic channel
      // (and any per-link-table cost at 2500 nodes) is measured run over
      // run next to the idealized one.
      cfg.propagation.kind = phy::PropagationKind::kLogDistance;
      t0 = std::chrono::steady_clock::now();
      const app::RunMetrics lossy = app::run_scenario(cfg);
      lossy_sim_ms = ms_since(t0);
      lossy_delivered = static_cast<double>(lossy.delivered);
      lossy_goodput = lossy.goodput;
    }

    return stats::ResultSink::Metrics{
        {"topo_build_ms", topo_ms},
        {"graph_build_ms", graph_ms},
        {"routing_build_ms", routing_ms},
        {"mean_degree", edges / nodes},
        {"mean_depth", mean_depth},
        {"sim_wall_ms", sim_ms},
        {"delivered", delivered},
        {"goodput", goodput},
        {"events", events},
        {"events_per_sec", events_per_sec},
        {"lossy_sim_wall_ms", lossy_sim_ms},
        {"lossy_delivered", lossy_delivered},
        {"lossy_goodput", lossy_goodput},
    };
  };

  app::SweepOptions sweep;
  sweep.replications = 1;
  sweep.base_seed = seed;
  sweep.threads = static_cast<int>(opt.get_int("jobs"));
  const app::SweepRunner runner(sweep);
  stats::ResultSink sink = runner.run(grid, fn);
  for (std::size_t gi = 0; gi < generators.size(); ++gi)
    for (std::size_t si = 0; si < sizes.size(); ++si)
      sink.set_label(grid.index_of({gi, si}),
                     std::string(net::to_string(generators[gi])) + "-" +
                         std::to_string(sizes[si]));

  stats::print_titled(
      "Scale sweep — build + routing + dual-radio simulation vs node count",
      sink.to_table());
  // The largest grid point is the headline hot-path number (and the CI
  // tripwire): its simulation leg always runs and its event count is
  // deterministic.
  const std::size_t top_grid = grid.index_of({0, sizes.size() - 1});
  const double top_events_per_sec =
      sink.metric(top_grid, "events_per_sec").mean();
  sink.set_meta("topology", "grid+rand+cluster+line");
  sink.set_meta("node_count", static_cast<double>(sizes.back()));
  sink.set_meta("seed", static_cast<double>(seed));
  sink.set_meta("events_per_sec", top_events_per_sec);
  sink.set_meta("lossy_propagation",
                to_string(phy::PropagationKind::kLogDistance));

  // ---- Sharded-vs-one-partition comparison on the largest grid point -----
  // Same scenario three ways: one partition, sharded with auto threads, and
  // sharded with one inline thread. The last two must agree bit-for-bit
  // (the engine's determinism contract — exit 2 if they don't); the first
  // two give the wall-clock speedup on this machine's cores.
  const int compare_shards = static_cast<int>(opt.get_int("compare-shards"));
  bool determinism_ok = true;
  if (compare_shards > 1) {
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, std::min(senders, sizes.back() - 1),
        burst);
    cfg.topology = make_spec(net::TopologyKind::kGrid, sizes.back(), seed);
    cfg.rate_bps = 2000.0;
    cfg.duration = duration;
    cfg.seed = seed;
    auto t0 = std::chrono::steady_clock::now();
    const app::RunMetrics single = app::run_scenario(cfg);
    const double single_ms = ms_since(t0);
    cfg.shards = compare_shards;
    cfg.sim_threads = 0;  // auto
    t0 = std::chrono::steady_clock::now();
    const app::RunMetrics sharded = app::run_scenario(cfg);
    const double sharded_ms = ms_since(t0);
    cfg.sim_threads = 1;
    const app::RunMetrics inline_run = app::run_scenario(cfg);
    determinism_ok =
        sharded.delivered == inline_run.delivered &&
        sharded.generated == inline_run.generated &&
        sharded.events_processed == inline_run.events_processed &&
        sharded.boundary_frames == inline_run.boundary_frames &&
        sharded.late_boundary_frames == inline_run.late_boundary_frames &&
        sharded.boundary_lateness_max_s ==
            inline_run.boundary_lateness_max_s &&
        sharded.goodput == inline_run.goodput &&
        sharded.mean_delay == inline_run.mean_delay &&
        sharded.normalized_energy == inline_run.normalized_energy &&
        sharded.shard_events == inline_run.shard_events;
    const double speedup = sharded_ms > 0 ? single_ms / sharded_ms : 0;
    std::printf(
        "[compare] grid-%d dual-radio: one partition %.0f ms (%d "
        "delivered), "
        "%d shards %.0f ms (%d delivered, %lld boundary frames, %lld "
        "late, max lateness %.6f s) — %.2fx, thread-count determinism %s\n",
        sizes.back(), single_ms, static_cast<int>(single.delivered),
        compare_shards, sharded_ms, static_cast<int>(sharded.delivered),
        static_cast<long long>(sharded.boundary_frames),
        static_cast<long long>(sharded.late_boundary_frames),
        sharded.boundary_lateness_max_s, speedup,
        determinism_ok ? "OK" : "BROKEN");
    sink.set_meta("compare_shards", static_cast<double>(compare_shards));
    sink.set_meta("compare_single_ms", single_ms);
    sink.set_meta("compare_sharded_ms", sharded_ms);
    sink.set_meta("compare_speedup", speedup);
    sink.set_meta("compare_late_boundary_frames",
                  static_cast<double>(sharded.late_boundary_frames));
    sink.set_meta("compare_boundary_lateness_max_s",
                  sharded.boundary_lateness_max_s);
  }

  // ---- Headline cell: one sharded simulation at 100k+ nodes --------------
  const int headline_nodes = static_cast<int>(opt.get_int("headline-nodes"));
  double headline_events_per_sec = 0;
  double headline_rss_mib = 0;
  if (headline_nodes > 0) {
    const int headline_shards =
        static_cast<int>(opt.get_int("headline-shards"));
    const int headline_senders =
        std::max(10, std::min(headline_nodes / 1000, headline_nodes - 1));
    // Burst threshold 10 (not --burst): a sender fills a burst every
    // 1.28 s at 2 Kbps, so even a 5 s headline run drives several full
    // wake-up/transfer cycles per sender instead of idling.
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, headline_senders, /*burst_packets=*/10);
    cfg.topology =
        make_spec(net::TopologyKind::kGrid, headline_nodes, seed);
    cfg.rate_bps = 2000.0;
    cfg.duration = opt.get_double("headline-duration");
    cfg.seed = seed;
    cfg.shards = headline_shards;
    cfg.sim_threads = 0;  // auto
    const auto t0 = std::chrono::steady_clock::now();
    const app::RunMetrics m = app::run_scenario(cfg);
    const double wall_ms = ms_since(t0);
    if (wall_ms > 0)
      headline_events_per_sec =
          static_cast<double>(m.events_processed) / (wall_ms / 1e3);
    const double rss = util::peak_rss_mib();
    headline_rss_mib = rss;
    std::printf(
        "[headline] %d nodes, %d shards, %.1f s simulated: %.0f ms wall, "
        "%llu events (%.0f events/sec), %lld boundary frames (%lld late, "
        "max lateness %.6f s), %d delivered, peak RSS %.0f MiB\n",
        headline_nodes, headline_shards, cfg.duration, wall_ms,
        static_cast<unsigned long long>(m.events_processed),
        headline_events_per_sec, static_cast<long long>(m.boundary_frames),
        static_cast<long long>(m.late_boundary_frames),
        m.boundary_lateness_max_s, static_cast<int>(m.delivered), rss);
    std::printf("[headline] per-shard events:");
    for (std::size_t s = 0; s < m.shard_events.size(); ++s)
      std::printf(" %llu",
                  static_cast<unsigned long long>(m.shard_events[s]));
    std::printf("\n");
    sink.set_meta("headline_nodes", static_cast<double>(headline_nodes));
    sink.set_meta("headline_shards", static_cast<double>(headline_shards));
    sink.set_meta("headline_events_per_sec", headline_events_per_sec);
    sink.set_meta("headline_wall_ms", wall_ms);
    sink.set_meta("headline_peak_rss_mib", rss);
    sink.set_meta("headline_late_boundary_frames",
                  static_cast<double>(m.late_boundary_frames));
    sink.set_meta("headline_boundary_lateness_max_s",
                  m.boundary_lateness_max_s);
  }
  export_json("scale_nodes", sink);

  const double elapsed_s = ms_since(t_bench) / 1e3;
  std::printf("[wall] %.1f s total\n", elapsed_s);
  std::printf("[events/sec] %.0f at grid-%d\n", top_events_per_sec,
              sizes.back());
  const double budget = opt.get_double("budget-s");
  if (budget > 0 && elapsed_s > budget) {
    std::fprintf(stderr,
                 "BUDGET EXCEEDED: %.1f s > %.1f s — investigate a "
                 "super-linear regression in topology/graph/routing "
                 "build or the simulation hot path\n",
                 elapsed_s, budget);
    return 2;
  }
  const double floor = opt.get_double("min-events-per-sec");
  if (floor > 0 && top_events_per_sec < floor) {
    std::fprintf(stderr,
                 "EVENTS/SEC FLOOR MISSED: %.0f < %.0f at grid-%d — the "
                 "event/frame hot path regressed (allocations per event, "
                 "payload copies, or queue churn)\n",
                 top_events_per_sec, floor, sizes.back());
    return 2;
  }
  const double headline_floor = opt.get_double("headline-min-events-per-sec");
  if (headline_floor > 0 && headline_nodes > 0 &&
      headline_events_per_sec < headline_floor) {
    std::fprintf(stderr,
                 "EVENTS/SEC FLOOR MISSED: %.0f < %.0f at the %d-node "
                 "headline cell — the sharded engine (window barriers, "
                 "mailbox exchange, or the per-shard hot path) or scenario "
                 "construction at scale regressed\n",
                 headline_events_per_sec, headline_floor, headline_nodes);
    return 2;
  }
  const double rss_budget = opt.get_double("max-rss-mib");
  if (rss_budget > 0 && headline_nodes > 0 &&
      headline_rss_mib > rss_budget) {
    std::fprintf(stderr,
                 "RSS BUDGET EXCEEDED: %.0f MiB > %.0f MiB after the "
                 "%d-node headline cell — a per-partition structure is "
                 "sized by the global population again (stripe-local "
                 "channel or node state, or a drain buffer retaining "
                 "its high-water capacity)\n",
                 headline_rss_mib, rss_budget, headline_nodes);
    return 2;
  }
  if (!determinism_ok) {
    std::fprintf(stderr,
                 "DETERMINISM BROKEN: sharded metrics differ across "
                 "sim_threads at a fixed shard count — a cross-shard "
                 "ordering or thread-affinity bug in the parallel engine\n");
    return 2;
  }
  return 0;
}
