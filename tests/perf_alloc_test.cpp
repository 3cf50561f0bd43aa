// The allocation contract of the event hot path, enforced.
//
// A process-wide operator-new hook counts every C++ heap allocation; each
// test warms its structures to their high-water mark, snapshots the
// counter, runs thousands of steady-state cycles and asserts the counter
// did not move. This is the load-bearing guarantee behind the simulator's
// events/sec: schedule/cancel/dispatch recycles generation-stamped slots,
// inline callbacks live inside them, and pooled message payloads ride the
// free list — none of it may touch the allocator once warm.
//
// The hook (util/alloc_count_hook.hpp, shared with bench_micro_core's
// allocs_per_item counters) is included only by this dedicated test
// binary, so the counting does not perturb the rest of the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>

#include "energy/battery.hpp"
#include "energy/energy_meter.hpp"
#include "energy/radio_model.hpp"
#include "net/link_state.hpp"
#include "net/message.hpp"
#include "net/message_ref.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "phy/sharded_channel.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_count_hook.hpp"
#include "util/units.hpp"

namespace bcp {
namespace {

using util::g_alloc_count;

TEST(PerfAlloc, ScheduleCancelDispatchIsAllocationFreeWhenWarm) {
  sim::Simulator s;
  long long fired = 0;
  // The MAC-timer mix: schedule a batch, cancel every other event (the
  // usual fate of retry/ack timers), dispatch the rest.
  const auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto h = s.schedule_in(1.0 + 0.5 * i, [&fired] { ++fired; });
      if (i % 2 == 0) s.cancel(h);
    }
    s.run();
  };
  cycle(256);  // warm-up: vectors grow to their high-water capacity
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 100; ++round) cycle(256);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "schedule/cancel/dispatch allocated in steady state";
  EXPECT_EQ(fired, 101 * 128);
}

TEST(PerfAlloc, NestedSchedulingFromCallbacksIsAllocationFreeWhenWarm) {
  sim::Simulator s;
  // Chains that reschedule from inside callbacks — the Timer/protocol
  // pattern — must also recycle slots without allocating.
  int remaining = 0;
  std::function<void()> hop;  // intentionally cold; captured by pointer
  auto* hop_ptr = &hop;
  hop = [&s, &remaining, hop_ptr] {
    if (remaining-- > 0) s.schedule_in(0.25, [hop_ptr] { (*hop_ptr)(); });
  };
  remaining = 64;
  s.schedule_in(0.25, [hop_ptr] { (*hop_ptr)(); });
  s.run();  // warm-up chain
  const std::uint64_t before = g_alloc_count;
  remaining = 1024;
  s.schedule_in(0.25, [hop_ptr] { (*hop_ptr)(); });
  s.run();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(remaining, -1);
}

TEST(PerfAlloc, BatteryRearmIsAllocationFreeWhenWarm) {
  // Every radio state change re-arms the node's battery: the pending death
  // event is moved in the heap, never released and recreated.
  sim::Simulator s;
  energy::EnergyMeter meter(energy::mica());
  int deaths = 0;
  energy::Battery battery(s, 1e6, [&deaths] { ++deaths; });
  battery.attach(&meter);
  meter.transition(energy::EnergyCategory::kIdle, 0.0);
  battery.rearm();
  const auto flip = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      s.run_until(s.now() + 1e-3);
      meter.transition(i % 2 == 0 ? energy::EnergyCategory::kRx
                                  : energy::EnergyCategory::kIdle,
                       s.now());
      battery.rearm();
    }
  };
  flip(16);  // warm-up
  const std::uint64_t before = g_alloc_count;
  flip(10000);
  EXPECT_EQ(g_alloc_count - before, 0u) << "battery re-arm allocated";
  EXPECT_EQ(s.pending_count(), 1u);  // exactly one death event armed
  EXPECT_EQ(deaths, 0);
}

TEST(PerfAlloc, DynamicRoutingRebuildIsAllocationFreeWhenWarm) {
  // A membership epoch rebuilds the shard's route tree in place: the
  // snapshot, distances, heap and Euler-tour arrays are all reused.
  const net::Topology topo = net::Topology::grid(50, 40.0 * 49, 0);
  const net::ConnectivityGraph graph(topo.positions, 40.0);
  for (const net::RoutePolicy policy :
       {net::RoutePolicy::kShortestPath, net::RoutePolicy::kLifetimeAware}) {
    net::LinkState links(graph.node_count());
    links.set_link_up(1, 2, false);  // an explicit pair-down in every build
    const net::DynamicRouting routes(
        graph, topo.sink, links, /*all_pairs=*/false, policy,
        [](net::NodeId v) { return 0.1 * static_cast<double>(v % 7); });
    const net::NodeId far = graph.node_count() - 1;
    bool up = true;
    const auto toggle = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        up = !up;
        links.set_node_up(1275, up);
        EXPECT_NE(routes.next_hop(far, topo.sink), net::kInvalidNode);
      }
    };
    toggle(4);  // warm-up: every buffer at its high-water capacity
    const std::uint64_t before = g_alloc_count;
    const std::int64_t rebuilds = routes.rebuild_count();
    toggle(20);
    EXPECT_EQ(g_alloc_count - before, 0u)
        << net::to_string(policy) << " rebuild allocated";
    EXPECT_EQ(routes.rebuild_count() - rebuilds, 20);
  }
}

TEST(PerfAlloc, CaptureChannelHotPathIsAllocationFreeWhenWarm) {
  // The SINR/capture path threads per-arrival power state through the
  // TxSlot/arrival vectors — none of which may touch the allocator once
  // warm, exactly like the default channel. Colliding transmissions
  // exercise the interference bookkeeping (peak updates + running sums)
  // on every cycle.
  sim::Simulator s;
  phy::Channel::Params params;
  params.propagation.kind = phy::PropagationKind::kLogDistance;
  params.capture.enabled = true;
  phy::Channel ch(s, {{0, 0}, {10, 0}, {20, 0}}, 50.0, params, 1);
  phy::Frame f0;
  f0.tx_node = 0;
  f0.rx_node = 1;
  f0.payload_bits = 256;
  f0.header_bits = 88;
  net::Message m0;
  m0.src = 0;
  m0.dst = 1;
  m0.body = net::DataPacket{0, 1, 1, 256, 0.0};
  f0.message = net::make_message(std::move(m0));
  phy::Frame f2 = f0;
  f2.tx_node = 2;  // shares the pooled payload; distinct transmitter
  const auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const double t = i * 0.1;  // relative: the clock keeps advancing
      s.schedule_in(t, [&ch, &f0] { ch.start_tx(0, f0, 0.01); });
      s.schedule_in(t + 0.002, [&ch, &f2] { ch.start_tx(2, f2, 0.01); });
    }
    s.run();
  };
  cycle(64);  // warm-up: arrival/slot vectors reach high-water capacity
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 50; ++round) cycle(64);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "the capture channel allocated in steady state";
  EXPECT_GT(ch.stats().deliveries_corrupt, 0);  // collisions really happened
  EXPECT_EQ(ch.live_arrivals(), 0);
}

// Partitioning a medium copies nothing per node: the graph and the link
// model are shared, and each partition sizes its per-node arrays by its
// own stripe. Every extra partition therefore adds a constant number of
// allocations and bytes — not ~n allocations (a vector-per-node table)
// or ~e link budgets (a whole-graph link table of its own).
TEST(PerfAlloc, ShardedMediumAllocationsAreFlatInTheShardCount) {
  const net::Topology topo = net::Topology::grid(100, 40.0 * 99, 0);
  const auto graph =
      std::make_shared<const net::ConnectivityGraph>(topo.positions, 40.0);
  phy::Channel::Params params;
  params.propagation.kind = phy::PropagationKind::kLogDistance;
  struct Cost {
    std::int64_t allocs;
    std::int64_t bytes;
  };
  const auto build_cost = [&](int shards) {
    sim::ShardedSimulator engine({shards, 1, 0.02});
    const phy::ShardMap map = phy::ShardMap::stripes(topo.positions, shards);
    const std::uint64_t allocs = g_alloc_count;
    const std::uint64_t bytes = util::g_alloc_bytes;
    const phy::ShardedMedium medium(engine, graph, map, params, 1);
    return Cost{static_cast<std::int64_t>(g_alloc_count - allocs),
                static_cast<std::int64_t>(util::g_alloc_bytes - bytes)};
  };
  const Cost two = build_cost(2);
  const Cost eight = build_cost(8);
  constexpr std::int64_t kAllocsPerPartition = 32;
  constexpr std::int64_t kBytesPerPartition = 4096;
  EXPECT_LE(eight.allocs - two.allocs, (8 - 2) * kAllocsPerPartition)
      << "2 shards: " << two.allocs << ", 8 shards: " << eight.allocs;
  EXPECT_LE(eight.bytes - two.bytes, (8 - 2) * kBytesPerPartition)
      << "2 shards: " << two.bytes << " B, 8 shards: " << eight.bytes << " B";
}

TEST(PerfAlloc, PooledControlMessagesAreAllocationFreeWhenWarm) {
  net::Message proto;
  proto.src = 3;
  proto.dst = 4;
  proto.body = net::WakeupRequest{3, 4, 1, util::bytes(1600)};
  { net::MessageRef warm = net::make_message(net::Message(proto)); }
  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 10000; ++i) {
    net::MessageRef ref = net::make_message(net::Message(proto));
    net::MessageRef queue_copy = ref;   // MAC queue
    net::MessageRef frame_copy = ref;   // frame on the air
    EXPECT_GT(frame_copy->size_bits(), 0);
  }
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "pooled message round-trips allocated in steady state";
}

}  // namespace
}  // namespace bcp
