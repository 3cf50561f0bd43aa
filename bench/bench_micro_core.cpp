// Micro-benchmarks (google-benchmark) for the hot paths that the figure
// harnesses lean on: event queue churn, buffer push/pop, break-even
// solving, RNG, MAC-level frame exchange, and a full small scenario.
//
// The *SteadyState benchmarks and BM_DynamicRoutingRebuild additionally
// report an `allocs_per_item` counter from a process-wide operator-new
// hook: the schedule/cancel, reschedule, bulk fan-out and route-rebuild
// paths are required to run allocation-free once warm (the contract
// tests/perf_alloc_test.cpp enforces), and the counter makes a regression
// visible here as a number instead of a silent slowdown.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "app/scenario.hpp"
#include "core/bulk_buffer.hpp"
#include "energy/breakeven.hpp"
#include "energy/radio_model.hpp"
#include "net/link_state.hpp"
#include "net/message_ref.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
// Replaces this binary's global operator new/delete with counting hooks
// (covers every C++ allocation: vectors, maps, closures) — exactly what
// "0 allocations per event" must hold over.
#include "util/alloc_count_hook.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using bcp::util::g_alloc_count;

using namespace bcp;

void BM_SimulatorScheduleDispatch(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    long long fired = 0;
    for (int i = 0; i < n; ++i)
      sim.schedule_at((i * 7919) % 1000, [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorScheduleDispatch)->Arg(1000)->Arg(100000);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::Simulator::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i)
      handles.push_back(sim.schedule_at(i, [] {}));
    for (std::size_t i = 0; i < handles.size(); i += 2)
      sim.cancel(handles[i]);
    sim.run();
  }
}
BENCHMARK(BM_SimulatorCancelHeavy);

// ---- Zero-allocation steady-state contracts -----------------------------
// Warm structures up outside the measured loop, then count operator-new
// calls across it. `allocs_per_item` must read 0.00 for the simulator
// benchmark; the fan-out benchmark tolerates only the pool-miss warmup.

/// One schedule / cancel / dispatch mix on a warm simulator — the MAC
/// timer pattern (arm, usually cancel, occasionally fire).
void BM_SimulatorScheduleCancelSteadyState(benchmark::State& state) {
  sim::Simulator sim;
  long long fired = 0;
  const auto cycle = [&](int n) {
    sim::Simulator::EventHandle retained[8];
    for (int i = 0; i < n; ++i) {
      const auto h =
          sim.schedule_in(1.0 + i * 0.25, [&fired] { ++fired; });
      if (i % 2 == 0)
        sim.cancel(h);  // cancelled timers: the common case
      else
        retained[i % 8] = h;
    }
    sim.run();
  };
  cycle(512);  // warm the heap and slot vectors to their high-water mark
  const std::uint64_t before = g_alloc_count;
  std::uint64_t items = 0;
  for (auto _ : state) {
    cycle(512);
    items += 512;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  // total allocs / (iterations * events per iteration) = allocs per event
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - before) / 512.0,
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimulatorScheduleCancelSteadyState);

/// The battery re-arm pattern: one long-lived event moved in place by
/// reschedule_in, sifting through a standing population of other events.
void BM_SimulatorRescheduleSteadyState(benchmark::State& state) {
  sim::Simulator sim;
  long long fired = 0;
  for (int i = 0; i < 1024; ++i)
    sim.schedule_at(1e9 + i, [&fired] { ++fired; });
  const auto death = sim.schedule_in(1.0, [&fired] { ++fired; });
  util::Xoshiro256 rng(1);
  const auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i)
      sim.reschedule_in(death, rng.uniform(0.0, 2e9));
  };
  cycle(512);  // warm-up
  const std::uint64_t before = g_alloc_count;
  std::uint64_t items = 0;
  for (auto _ : state) {
    cycle(512);
    items += 512;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - before) / 512.0,
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimulatorRescheduleSteadyState);

/// Channel::start_tx fan-out of a pooled 50-packet bulk payload to N
/// hearers — the shared-immutable message path. Before MessageRef this
/// deep-copied BulkFrame::packets into the in-flight record and once more
/// per delivery.
void BM_ChannelBulkFanoutSteadyState(benchmark::State& state) {
  const int hearers = static_cast<int>(state.range(0));
  class NullListener final : public phy::ChannelListener {
   public:
    void on_rx_start(std::uint64_t, const phy::Frame&,
                     util::Seconds) override {}
    void on_rx_end(std::uint64_t, const phy::Frame&, bool clean) override {
      cleans += clean ? 1 : 0;
    }
    long long cleans = 0;
  };
  sim::Simulator sim;
  // Transmitter at the origin, hearers packed within range.
  std::vector<net::Position> positions{{0.0, 0.0}};
  for (int i = 0; i < hearers; ++i)
    positions.push_back({1.0 + 0.01 * i, 0.0});
  phy::Channel channel(sim, positions, /*range=*/50.0,
                       phy::Channel::Params{0.0}, /*seed=*/7);
  std::vector<NullListener> listeners(
      static_cast<std::size_t>(hearers) + 1);
  for (int i = 0; i <= hearers; ++i)
    channel.attach(i, &listeners[static_cast<std::size_t>(i)]);

  net::BulkFrame bulk;
  bulk.sender = 0;
  bulk.receiver = 1;
  bulk.total = 1;
  for (std::uint32_t s = 0; s < 50; ++s)
    bulk.packets.push_back(
        net::DataPacket{0, 1, s + 1, util::bytes(32), 0.0});
  bulk.cache_payload_bits();
  net::Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.body = std::move(bulk);

  const auto one_tx = [&](net::MessageRef ref) {
    phy::Frame f;
    f.tx_node = 0;
    f.rx_node = 1;
    f.payload_bits = ref->size_bits();
    f.header_bits = 272;
    f.message = std::move(ref);
    channel.start_tx(0, f, 0.001);
    sim.run();
  };
  one_tx(net::make_message(net::Message(msg)));  // warm pool + vectors
  const std::uint64_t before = g_alloc_count;
  std::uint64_t items = 0;
  for (auto _ : state) {
    // One deep copy into the pool per burst (the agent hands its copy
    // over by move); the N-hearer fan-out then shares it.
    one_tx(net::make_message(net::Message(msg)));
    items += static_cast<std::uint64_t>(hearers);
  }
  long long cleans = 0;
  for (const auto& l : listeners) cleans += l.cleans;
  benchmark::DoNotOptimize(cleans);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - before) / static_cast<double>(hearers),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ChannelBulkFanoutSteadyState)->Arg(8)->Arg(64);

/// Pooled message round-trip: move a small control message in, drop the
/// last ref, reuse the node. Free-list reuse makes this allocation-free.
void BM_MessagePoolRoundTrip(benchmark::State& state) {
  net::Message proto;
  proto.src = 1;
  proto.dst = 2;
  proto.body = net::WakeupRequest{1, 2, 7, util::bytes(1600)};
  { auto warm = net::make_message(net::Message(proto)); }
  const std::uint64_t before = g_alloc_count;
  for (auto _ : state) {
    auto ref = net::make_message(net::Message(proto));
    auto shared = ref;  // second handle, as the MAC queue + frame take
    benchmark::DoNotOptimize(shared->size_bits());
  }
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MessagePoolRoundTrip);

void BM_BulkBufferPushPop(benchmark::State& state) {
  core::BulkBuffer buffer(1 << 24);
  net::DataPacket p{0, 1, 1, util::bytes(32), 0.0};
  for (auto _ : state) {
    for (int i = 0; i < 500; ++i) buffer.push(1, p);
    auto out = buffer.pop_up_to(1, 500 * util::bytes(32));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_BulkBufferPushPop);

void BM_BreakEvenSolve(benchmark::State& state) {
  for (auto _ : state) {
    auto a = energy::DualRadioAnalysis::standard(energy::mica(),
                                                 energy::lucent_11mbps());
    benchmark::DoNotOptimize(a.break_even_bits());
    benchmark::DoNotOptimize(a.break_even_bits_multihop(5));
  }
}
BENCHMARK(BM_BreakEvenSolve);

void BM_Xoshiro(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Xoshiro);

// ---- Topology-layer builds (the large-network scale path) ---------------
// All three must scale ~linearly in node count for bounded-density
// placements; a 100× blow-up between the 1k and 10k args flags an O(n²)
// regression (10× nodes should cost ~10×).

/// Paper-density uniform-random placement: area chosen so the 40 m disc
/// graph keeps a constant mean degree (~12) at any n.
bcp::net::TopologySpec scale_spec(int n) {
  bcp::net::TopologySpec spec;
  spec.kind = bcp::net::TopologyKind::kUniformRandom;
  spec.nodes = n;
  spec.area = std::sqrt(n * 3.14159265358979323846 * 40.0 * 40.0 / 12.0);
  spec.seed = 7;
  return spec;
}

void BM_TopologyBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto spec = scale_spec(n);
  for (auto _ : state) {
    const net::Topology topo = spec.build();
    benchmark::DoNotOptimize(topo.positions.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopologyBuild)->Arg(1000)->Arg(10000);

void BM_ConnectivityGraphBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const net::Topology topo = scale_spec(n).build();
  for (auto _ : state) {
    const net::ConnectivityGraph graph(topo.positions, 40.0);
    benchmark::DoNotOptimize(graph.node_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConnectivityGraphBuild)->Arg(1000)->Arg(10000);

void BM_ConvergecastRoutingBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const net::Topology topo = scale_spec(n).build();
  const net::ConnectivityGraph graph(topo.positions, 40.0);
  for (auto _ : state) {
    const net::ConvergecastRouting routes(graph, topo.sink);
    benchmark::DoNotOptimize(routes.node_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConvergecastRoutingBuild)->Arg(1000)->Arg(10000);

/// One membership epoch of the churn-lifetime shape: a 2,500-node grid
/// with a central sink, lifetime-aware costs, one node toggled per
/// iteration and the in-place tree rebuild the next query triggers.
/// `allocs_per_item` must read 0.00 (tests/perf_alloc_test.cpp).
void BM_DynamicRoutingRebuild(benchmark::State& state) {
  const net::NodeId sink = 25 * 50 + 25;
  const net::Topology topo = net::Topology::grid(50, 40.0 * 49, sink);
  const net::ConnectivityGraph graph(topo.positions, 40.0);
  net::LinkState links(graph.node_count());
  const net::DynamicRouting routes(
      graph, sink, links, /*all_pairs=*/false,
      net::RoutePolicy::kLifetimeAware,
      [](net::NodeId v) { return 0.1 * static_cast<double>(v % 7); });
  bool up = true;
  const auto toggle = [&] {
    up = !up;
    links.set_node_up(sink + 3, up);
    benchmark::DoNotOptimize(routes.next_hop(0, sink));
  };
  for (int i = 0; i < 4; ++i) toggle();  // warm-up
  const std::uint64_t before = g_alloc_count;
  for (auto _ : state) toggle();
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_item"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DynamicRoutingRebuild);

/// The sharded engine's per-window cost with nothing to dispatch: 8
/// empty shards at `threads` = range(0), so the time is the job hand-off,
/// the barrier between parity phases and the per-shard bookkeeping.
/// `us_per_window` is wall time (the caller may park while the workers
/// run), including the two settlement rounds every run() ends with.
void BM_ShardedEmptyWindows(benchmark::State& state) {
  constexpr int kWindows = 1000;
  sim::ShardedSimulator engine(
      {8, static_cast<int>(state.range(0)), 0.02});
  std::int64_t windows = 0;
  double seconds = 0;
  for (auto _ : state) {
    const std::int64_t before = engine.current_window();
    const auto t0 = std::chrono::steady_clock::now();
    engine.run(engine.window() * static_cast<double>(before + kWindows));
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    windows += engine.current_window() - before;
  }
  state.counters["us_per_window"] =
      seconds * 1e6 / static_cast<double>(std::max<std::int64_t>(windows, 1));
}
BENCHMARK(BM_ShardedEmptyWindows)->Arg(1)->Arg(4)->UseRealTime();

void BM_ScenarioDualRadioShort(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 5,
                                              100);
    cfg.duration = 60.0;
    cfg.seed = 7;
    auto m = app::run_scenario(cfg);
    benchmark::DoNotOptimize(m.delivered);
  }
}
BENCHMARK(BM_ScenarioDualRadioShort)->Unit(benchmark::kMillisecond);

void BM_ScenarioSensorShort(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg =
        app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 5, 100);
    cfg.duration = 60.0;
    cfg.seed = 7;
    auto m = app::run_scenario(cfg);
    benchmark::DoNotOptimize(m.delivered);
  }
}
BENCHMARK(BM_ScenarioSensorShort)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
