// The scenario engine: one simulation advanced by sim::ShardedSimulator
// over phy::ShardedMedium partitions. config.shards = 1 is one partition
// — the whole medium on one event queue, the path every paper figure
// runs; more partitions cut the node plane into x-stripes that exchange
// boundary frames at window barriers.
//
// run_scenario is seven phases over one RunContext: validate; shared
// graphs and routes; media and coordinator; shard setup; run; collect;
// teardown. Pooled message payloads (net::MessagePool) are thread-local,
// so everything a shard owns — nodes, workloads, channel partitions,
// pending events — is built, run and destroyed on the shard's pinned
// worker thread (for_each_shard). Shards reach their nodes only through
// the app::Node seam; only make_node names the evaluation model. Each
// shard folds its own metrics, and the caller merges the folds in
// ascending shard order, so the result is a pure function of (config,
// shard count) — sim_threads never changes a byte of output.
//
// Membership epochs: every shard owns one LinkState replica, read by
// both radio classes' channel partitions. The owning shard executes a
// crash / recover / depletion at its exact event instant against its own
// replica (through app::crash_node), queues it as a net::MembershipDelta,
// and the coordinator broadcasts the batch to every replica at the next
// window barrier in (time, shard, node) order — a remote shard sees the
// change at most one window late. The coordinator's own replica answers
// the sink-partition checks and feeds the run's one router per radio
// graph, refreshed at every barrier. "Bits until first death /
// partition" are read at the publishing barrier, and lifetime-aware
// routing re-prices relays from a battery snapshot taken at the barriers
// on the reroute_period grid.
#include "app/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/duty_cycle.hpp"
#include "app/nodes.hpp"
#include "app/scenario_detail.hpp"
#include "app/workload.hpp"
#include "energy/battery.hpp"
#include "mac/mac_params.hpp"
#include "mac/tdma_mac.hpp"
#include "net/link_state.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/sharded_channel.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sharded_simulator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::app {

const char* to_string(EvalModel m) {
  switch (m) {
    case EvalModel::kSensor:         return "Sensor";
    case EvalModel::kWifi:           return "802.11";
    case EvalModel::kWifiDutyCycled: return "802.11-DutyCycled";
    case EvalModel::kDualRadio:      return "DualRadio";
  }
  return "?";
}

ScenarioConfig ScenarioConfig::single_hop(EvalModel model, int senders,
                                          int burst_packets) {
  ScenarioConfig cfg;
  cfg.model = model;
  cfg.n_senders = senders;
  cfg.burst_packets = burst_packets;
  cfg.sensor_radio = energy::mica();
  cfg.wifi_radio = energy::lucent_11mbps();  // sensor-radio range: same hops
  cfg.rate_bps = 200.0;                      // §4.1.1 runs at 0.2 Kbps
  return cfg;
}

ScenarioConfig ScenarioConfig::multi_hop(EvalModel model, int senders,
                                         int burst_packets) {
  ScenarioConfig cfg;
  cfg.model = model;
  cfg.n_senders = senders;
  cfg.burst_packets = burst_packets;
  cfg.sensor_radio = energy::mica();
  cfg.wifi_radio = energy::cabletron_2mbps();
  // A corner sink is up to ~283 m from the far corner; stretch the
  // Cabletron disc so "the IEEE 802.11 radio is able to reach the sink in
  // one hop" (§4.1.2) holds for every sender.
  cfg.wifi_range_override = 300.0;
  cfg.rate_bps = 2000.0;  // §4.1.2 presents the 2 Kbps graphs
  return cfg;
}

namespace {

void accumulate(RadioEnergyTotals& t, const energy::EnergyMeter& meter) {
  using energy::EnergyCategory;
  t.tx += meter.energy(EnergyCategory::kTx);
  t.rx += meter.energy(EnergyCategory::kRx);
  t.overhear += meter.energy(EnergyCategory::kOverhear);
  t.idle += meter.energy(EnergyCategory::kIdle);
  t.wakeup += meter.energy(EnergyCategory::kWaking);
}

double per_kbit(util::Joules e, util::Bits delivered_bits) {
  if (delivered_bits <= 0) return 0.0;
  return e / (static_cast<double>(delivered_bits) / 1000.0);
}

/// Maps a DeliverySink drop reason onto its RunMetrics counter.
void classify_drop(RunMetrics& m, const char* reason) {
  if (std::strcmp(reason, "buffer-full") == 0)
    ++m.dropped_buffer;
  else if (std::strcmp(reason, "queue-full") == 0)
    ++m.dropped_queue;
  else if (std::strcmp(reason, "mac-failed") == 0)
    ++m.dropped_mac;
  else if (std::strcmp(reason, "node-down") == 0)
    ++m.dropped_node_down;
  else
    ++m.dropped_no_route;
}

/// Rejects placements where any node is cut off from the sink — a silent
/// kInvalidNode route at runtime would just bleed packets as "no-route"
/// drops.
void require_connected(const net::ConnectivityGraph& graph, net::NodeId sink,
                       const char* radio_name) {
  const std::vector<net::NodeId> stranded =
      net::unreachable_from(graph, sink);
  BCP_REQUIRE_MSG(stranded.empty(),
                  std::string(radio_name) +
                      "-radio topology is disconnected: " +
                      std::to_string(stranded.size()) +
                      " node(s) cannot reach sink " + std::to_string(sink) +
                      ": " + net::format_node_list(stranded));
}

/// The seed-determined sender subset (sorted node ids, sink excluded).
std::vector<net::NodeId> pick_senders(std::uint64_t seed, int n,
                                      net::NodeId sink, int n_senders) {
  std::vector<net::NodeId> candidates;
  for (net::NodeId id = 0; id < n; ++id)
    if (id != sink) candidates.push_back(id);
  util::Xoshiro256 pick_rng(util::substream(seed, 3, 0x53454Eu));
  for (std::size_t i = candidates.size(); i > 1; --i)
    std::swap(candidates[i - 1], candidates[pick_rng.uniform_int(i)]);
  candidates.resize(static_cast<std::size_t>(n_senders));
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

/// Channel parameters for one radio class: the config's loss/propagation/
/// capture knobs with the radio's datasheet noise floor.
phy::Channel::Params channel_params(const ScenarioConfig& config,
                                    const energy::RadioEnergyModel& radio) {
  phy::Channel::Params params{config.frame_loss_prob, config.propagation};
  params.capture.enabled = config.capture_enabled;
  params.capture.threshold_db = config.capture_threshold_db;
  params.capture.noise_floor_dbm = radio.noise_floor_dbm;
  return params;
}

/// Resolves one radio class's MacChoice: CSMA keeps the historical
/// MacParams; TDMA builds the class's slot schedule into `schedule_out`
/// and resolves zero (class-default) knobs against its slot count.
MacChoice resolve_choice(const mac::MacSpec& spec,
                         mac::MacParams csma_defaults,
                         mac::TdmaParams tdma_defaults,
                         const net::Router& routes, net::NodeId sink, int n,
                         util::BitsPerSecond rate,
                         std::optional<mac::TdmaSchedule>& schedule_out) {
  MacChoice choice;
  choice.csma = csma_defaults;
  choice.family = spec.family;
  if (spec.is_tdma()) {
    schedule_out.emplace(mac::TdmaSchedule::from_tree(routes, sink, n));
    BCP_REQUIRE_MSG(schedule_out->slot_count > 0,
                    "TDMA schedule is empty: no node reaches the sink");
    const mac::TdmaParams base =
        spec.tdma.is_default() ? tdma_defaults : spec.tdma;
    choice.tdma = base.resolved_for(schedule_out->slot_count, rate);
    choice.schedule = &*schedule_out;
  }
  return choice;
}

void add_channel_stats(RunMetrics& m, const phy::Channel& channel) {
  m.chan_frames += channel.stats().frames;
  m.chan_rx_starts += channel.stats().rx_starts;
  m.chan_rx_ends += channel.stats().deliveries_clean +
                    channel.stats().deliveries_corrupt;
  m.chan_rx_live_at_end += channel.live_arrivals();
  m.late_boundary_frames += channel.late_boundary_frames();
  m.boundary_lateness_max_s =
      std::max(m.boundary_lateness_max_s, channel.boundary_lateness_max());
}

void add_tdma_stats(RunMetrics& m, const mac::Mac& mc) {
  if (const auto* tdma = dynamic_cast<const mac::TdmaMac*>(&mc)) {
    m.tdma_beacons_sent += tdma->stats().beacons_sent;
    m.tdma_beacons_heard += tdma->stats().beacons_heard;
    m.tdma_slots_skipped += tdma->stats().slots_skipped_unsynced;
  }
}


// Per-node collection over the node seam: finalizes each radio's meter at
// `end` and adds its energy to its class total, plus its MAC's and the BCP
// agent's counters; only on-demand radios report on-time and wake-ups.
// One call per node, in node id order, fixes the accumulation arithmetic.
void collect_node(RunMetrics& m, Node& node, util::Seconds end) {
  for (const NodeRadio& r : node.radios()) {
    energy::EnergyMeter& meter = r.radio->meter();
    meter.finalize(end);
    accumulate(r.cls == RadioClass::kSensor ? m.sensor_energy
                                            : m.wifi_energy,
               meter);
    const mac::Mac::Stats& ms = r.mac->stats();
    m.mac_tx_attempts += ms.tx_attempts;
    m.mac_tx_failed += ms.tx_failed;
    m.mac_crash_drops += ms.crash_drops;
    add_tdma_stats(m, *r.mac);
    if (!r.on_demand) continue;
    m.wifi_wakeup_transitions += meter.wakeup_count();
    using energy::EnergyCategory;
    m.wifi_on_seconds += meter.duration(EnergyCategory::kIdle) +
                         meter.duration(EnergyCategory::kRx) +
                         meter.duration(EnergyCategory::kOverhear) +
                         meter.duration(EnergyCategory::kTx);
  }
  if (const core::BcpAgent* agent = node.bcp_agent()) {
    const auto& astats = agent->stats();
    m.bcp_packets_lost_to_crash += astats.packets_lost_to_crash;
    m.bcp_wakeups += astats.wakeups_sent;
    m.bcp_handshakes_failed += astats.handshakes_failed;
    m.bcp_sender_sessions += astats.sender_sessions_completed;
    m.bcp_receiver_timeouts += astats.receiver_sessions_timed_out;
  }
}

/// Goodput, mean delay and the normalized-energy family, computed from
/// the accumulated sums.
void finalize_metrics(RunMetrics& m, const ScenarioConfig& config,
                      double delay_sum) {
  m.goodput = m.generated > 0
                  ? static_cast<double>(m.delivered) /
                        static_cast<double>(m.generated)
                  : 0.0;
  m.mean_delay = m.delivered > 0
                     ? delay_sum / static_cast<double>(m.delivered)
                     : 0.0;
  const util::Bits delivered_bits = m.delivered * config.packet_bits;
  m.normalized_energy_sensor_ideal =
      per_kbit(m.sensor_energy.ideal(), delivered_bits);
  m.normalized_energy_sensor_header = per_kbit(
      m.sensor_energy.ideal() + m.sensor_energy.overhear, delivered_bits);
  switch (config.model) {
    case EvalModel::kSensor:
      m.normalized_energy = m.normalized_energy_sensor_ideal;
      break;
    case EvalModel::kWifi:
    case EvalModel::kWifiDutyCycled:
      m.normalized_energy = per_kbit(m.wifi_energy.full(), delivered_bits);
      break;
    case EvalModel::kDualRadio:
      // Sensor radio at its ideal (tx+rx) charge + 802.11 fully charged.
      m.normalized_energy = per_kbit(
          m.sensor_energy.ideal() + m.wifi_energy.full(), delivered_bits);
      break;
  }
}

void merge_energy(RadioEnergyTotals& total, const RadioEnergyTotals& part) {
  total.tx += part.tx;
  total.rx += part.rx;
  total.overhear += part.overhear;
  total.idle += part.idle;
  total.wakeup += part.wakeup;
}

/// A membership mutation queued by its owning shard during a window,
/// drained by the coordinator at the next barrier.
struct PendingDelta {
  net::MembershipDelta delta;
  /// Battery depletions drive the lifetime metrics (first death,
  /// sink-partition check); fault-plan mutations do not.
  bool battery_death = false;
};

/// Everything one shard owns. Node-indexed vectors are stripe-local:
/// length owned_count(s), indexed by ShardMap::local_of — O(n/shards)
/// per partition, and emit hooks stay O(1) lookups. Only the battery
/// vector keeps null holes (nodes whose radio classes have no budget).
struct ShardState {
  RunMetrics m;
  double delay_sum = 0;
  DeliverySink delivery;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<CbrWorkload>> workloads;

  // Membership-epoch state (fault/battery runs only): a dense replica
  // (one byte per node) and the deltas the coordinator drains.
  std::optional<net::LinkState> links;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<PendingDelta> deltas;
  /// Stable callable targets for event captures (the vector of states is
  /// never resized, so &st members are stable for the whole run).
  std::function<void(const sim::FaultEvent&)> apply_fault;
  std::function<void(net::NodeId)> on_battery_death;
};

/// What one run_scenario call holds between its phases. Reverse
/// declaration order is the safe destruction order on every error path:
/// media, engine, routers, shard states, TDMA schedules, graphs.
struct RunContext {
  explicit RunContext(const ScenarioConfig& c) : config(c) {}

  const ScenarioConfig& config;

  // ---- Validate.
  bool has_faults = false;
  bool has_battery = false;
  bool has_links = false;  ///< membership replicas: faults or batteries
  bool lifetime_routing = false;
  bool needs_low = false;   ///< the model runs sensor radios
  bool needs_high = false;  ///< the model runs 802.11 radios

  // ---- Shared graphs and routes.
  net::Topology topo;
  phy::ShardMap map;
  std::shared_ptr<const net::ConnectivityGraph> low_graph;
  std::shared_ptr<const net::ConnectivityGraph> high_graph;
  std::vector<sim::FaultEvent> fault_events;
  core::BcpConfig bcp;
  std::vector<net::NodeId> senders;
  /// Lifetime-aware route costs read this drawn/capacity snapshot, never
  /// live battery state, so relay prices are a pure function of (config,
  /// shard count).
  std::vector<double> battery_fraction;
  std::optional<mac::TdmaSchedule> low_schedule;
  std::optional<mac::TdmaSchedule> high_schedule;
  MacChoice low_choice;
  MacChoice high_choice;
  std::vector<ShardState> states;  ///< filled by media and coordinator
  /// The coordinator's replica: the membership ground truth routing and
  /// the sink-partition checks run against.
  std::optional<net::LinkState> coord;
  std::vector<const net::DynamicRouting*> dynamic;
  std::unique_ptr<net::Router> low_routes;
  std::unique_ptr<net::Router> high_routes;  ///< null when the graph is shared
  const net::Router* low_r = nullptr;
  const net::Router* high_r = nullptr;

  // ---- Media and coordinator.
  std::vector<PendingDelta> batch;
  std::int64_t first_death_bits = -1;
  double partition_time = -1;
  std::int64_t partition_bits = -1;
  double next_reroute = 0;
  std::optional<sim::ShardedSimulator> engine;
  std::optional<phy::ShardedMedium> low_medium;
  std::optional<phy::ShardedMedium> high_medium;

  ShardState& state(int s) { return states[static_cast<std::size_t>(s)]; }
};

}  // namespace

namespace detail {

void merge_metrics(RunMetrics& total, const RunMetrics& part) {
  // Field-coverage tripwire: adding a RunMetrics field changes this size,
  // and the build fails here until the field gets a merge rule below (and
  // a case in the merge-coverage test). Update the expected size last.
  static_assert(sizeof(void*) != 8 || sizeof(RunMetrics) == 464,
                "RunMetrics changed: give every new field a merge rule in "
                "detail::merge_metrics and tests/merge_metrics_test.cpp's "
                "coverage case, then update this expected size");

  // Traffic counters: sum.
  total.generated += part.generated;
  total.delivered += part.delivered;
  total.dropped_buffer += part.dropped_buffer;
  total.dropped_queue += part.dropped_queue;
  total.dropped_mac += part.dropped_mac;
  total.dropped_no_route += part.dropped_no_route;
  total.dropped_node_down += part.dropped_node_down;

  // goodput, mean_delay, normalized_energy{,_sensor_ideal,_sensor_header}
  // are derived ratios: recomputed from the merged sums by
  // finalize_metrics, never merged.

  merge_energy(total.sensor_energy, part.sensor_energy);
  merge_energy(total.wifi_energy, part.wifi_energy);

  // Protocol/MAC counters: sum.
  total.mac_tx_attempts += part.mac_tx_attempts;
  total.mac_tx_failed += part.mac_tx_failed;
  total.bcp_wakeups += part.bcp_wakeups;
  total.bcp_handshakes_failed += part.bcp_handshakes_failed;
  total.bcp_sender_sessions += part.bcp_sender_sessions;
  total.bcp_receiver_timeouts += part.bcp_receiver_timeouts;
  total.wifi_wakeup_transitions += part.wifi_wakeup_transitions;
  total.wifi_on_seconds += part.wifi_on_seconds;

  total.events_processed += part.events_processed;

  // Fault/churn counters: sum (each fault event is counted by exactly
  // one shard — the one owning the event's primary node).
  total.fault_node_crashes += part.fault_node_crashes;
  total.fault_node_recoveries += part.fault_node_recoveries;
  total.fault_recoveries_refused += part.fault_recoveries_refused;
  total.fault_link_downs += part.fault_link_downs;
  total.fault_link_ups += part.fault_link_ups;
  total.route_rebuilds += part.route_rebuilds;
  total.bcp_packets_lost_to_crash += part.bcp_packets_lost_to_crash;
  total.mac_crash_drops += part.mac_crash_drops;

  // Channel conservation counters: sum (the law holds per partition and
  // over the sum).
  total.chan_frames += part.chan_frames;
  total.chan_rx_starts += part.chan_rx_starts;
  total.chan_rx_ends += part.chan_rx_ends;
  total.chan_rx_live_at_end += part.chan_rx_live_at_end;

  // TDMA schedule health: sum.
  total.tdma_beacons_sent += part.tdma_beacons_sent;
  total.tdma_beacons_heard += part.tdma_beacons_heard;
  total.tdma_slots_skipped += part.tdma_slots_skipped;

  // Lifetime metrics. Deaths sum; the time-to-first-* fields take the
  // earliest non-sentinel value (-1 = never happened); the drawn
  // fraction takes the max over all batteries.
  total.battery_deaths += part.battery_deaths;
  if (part.time_to_first_death >= 0 &&
      (total.time_to_first_death < 0 ||
       part.time_to_first_death < total.time_to_first_death))
    total.time_to_first_death = part.time_to_first_death;
  if (part.time_to_sink_partition >= 0 &&
      (total.time_to_sink_partition < 0 ||
       part.time_to_sink_partition < total.time_to_sink_partition))
    total.time_to_sink_partition = part.time_to_sink_partition;
  total.delivered_bits_until_first_death +=
      part.delivered_bits_until_first_death;
  total.delivered_bits_until_partition +=
      part.delivered_bits_until_partition;
  total.battery_max_drawn_fraction = std::max(
      total.battery_max_drawn_fraction, part.battery_max_drawn_fraction);

  // Partition visibility: per-shard event counts concatenate; the
  // boundary export and late-frame counts sum; the lateness takes the max.
  total.shard_events.insert(total.shard_events.end(),
                            part.shard_events.begin(),
                            part.shard_events.end());
  total.boundary_frames += part.boundary_frames;
  total.late_boundary_frames += part.late_boundary_frames;
  total.boundary_lateness_max_s =
      std::max(total.boundary_lateness_max_s, part.boundary_lateness_max_s);
}

}  // namespace detail

namespace {

// ---- Phase 1: validate. Every check here needs no topology, so a
// misconfigured 100k-node run fails before the placement is built.
void validate(RunContext& ctx) {
  const ScenarioConfig& config = ctx.config;
  BCP_REQUIRE(config.topology.node_count() >= 2);
  BCP_REQUIRE(config.duration > 0);
  BCP_REQUIRE(config.rate_bps > 0);
  BCP_REQUIRE(config.packet_bits > 0);
  BCP_REQUIRE(config.burst_packets > 0);
  BCP_REQUIRE(config.shards >= 1);
  BCP_REQUIRE(config.shard_window > 0);
  BCP_REQUIRE_MSG(config.n_senders >= 1 &&
                      config.n_senders <= config.topology.node_count() - 1,
                  "sender count must be in [1, nodes-1]");
  // ShardMap::stripes would clamp a too-large shard count silently.
  BCP_REQUIRE_MSG(config.shards <= config.topology.node_count(),
                  "shard count must not exceed the node count");
  // The slotted family presumes a radio that is awake for its slots
  // (not the BCP-managed or duty-cycled 802.11 radio) and one slot clock
  // for the whole network.
  config.sensor_mac.validate();
  config.wifi_mac.validate();
  BCP_REQUIRE_MSG(!config.wifi_mac.is_tdma() ||
                      config.model == EvalModel::kWifi,
                  "TDMA on the 802.11 radio requires the always-on kWifi "
                  "model");
  BCP_REQUIRE_MSG(config.shards == 1 || (!config.sensor_mac.is_tdma() &&
                                         !config.wifi_mac.is_tdma()),
                  "TDMA requires shards == 1 (beacon relay across stripes "
                  "would race the slot clock)");
  ctx.has_faults = !config.faults.empty();
  BCP_REQUIRE_MSG(!ctx.has_faults ||
                      config.model != EvalModel::kWifiDutyCycled,
                  "fault injection is not supported for the duty-cycled "
                  "802.11 strawman");
  config.battery.validate();
  ctx.has_battery = config.battery.enabled;
  BCP_REQUIRE_MSG(config.route_policy == net::RoutePolicy::kShortestPath ||
                      ctx.has_battery,
                  "lifetime-aware routing requires an enabled battery");
  if (config.model == EvalModel::kWifiDutyCycled) {
    BCP_REQUIRE_MSG(config.duty_cycle > 0 && config.duty_cycle <= 1.0,
                    "duty cycle must be in (0, 1]");
    BCP_REQUIRE_MSG(config.duty_period > 0, "duty period must be positive");
  }
  ctx.has_links = ctx.has_faults || ctx.has_battery;
  ctx.lifetime_routing =
      config.route_policy == net::RoutePolicy::kLifetimeAware;
  ctx.needs_low = config.model == EvalModel::kSensor ||
                  config.model == EvalModel::kDualRadio;
  ctx.needs_high = config.model != EvalModel::kSensor;
}

// ---- Phase 2: shared graphs and routes, built once on the caller.
void build_shared_graphs_and_routes(RunContext& ctx) {
  const ScenarioConfig& config = ctx.config;
  ctx.topo = config.topology.build();
  const net::NodeId sink = ctx.topo.sink;
  const int n = ctx.topo.node_count();
  ctx.map = phy::ShardMap::stripes(ctx.topo.positions, config.shards);

  // Equal ranges give identical disc graphs: build one and share it.
  if (ctx.needs_low) {
    ctx.low_graph = std::make_shared<net::ConnectivityGraph>(
        ctx.topo.positions, config.sensor_radio.range);
    require_connected(*ctx.low_graph, sink, "sensor");
  }
  if (ctx.needs_high) {
    ctx.high_graph =
        ctx.low_graph != nullptr &&
                config.wifi_range() == ctx.low_graph->range()
            ? ctx.low_graph
            : std::make_shared<net::ConnectivityGraph>(ctx.topo.positions,
                                                       config.wifi_range());
    if (ctx.high_graph != ctx.low_graph)
      require_connected(*ctx.high_graph, sink, "wifi");
  }

  // The fault plan is expanded once; each shard schedules only the events
  // it must act on. Link flaps aim at real links of the graph's CSR rows.
  if (ctx.has_faults) {
    const net::ConnectivityGraph& fault_graph =
        ctx.needs_low ? *ctx.low_graph : *ctx.high_graph;
    ctx.fault_events =
        sim::FaultPlan(config.faults, n, sink, config.duration,
                       [&fault_graph](std::int32_t id) {
                         const net::NeighborRange row =
                             fault_graph.neighbors(id);
                         return sim::NeighborRow{row.begin(), row.end()};
                       })
            .events();
  }

  ctx.bcp = config.bcp;
  ctx.bcp.set_burst_packets(config.burst_packets, config.packet_bits);
  ctx.senders = pick_senders(config.seed, n, sink, config.n_senders);
  if (ctx.lifetime_routing)
    ctx.battery_fraction.assign(static_cast<std::size_t>(n), 0.0);
  if (ctx.has_links) ctx.coord.emplace(n);

  // One router per distinct radio graph, shared by every shard. Membership
  // runs route over the coordinator's replica, refreshed by the barrier
  // hook while workers are quiescent, so workers only ever read.
  const bool all_pairs =
      config.routing == RoutingMode::kAllPairs ||
      (config.routing == RoutingMode::kAuto && n <= kAllPairsNodeLimit);
  const auto routes_over = [&ctx, &config, sink, all_pairs](
                               const net::ConnectivityGraph& graph)
      -> std::unique_ptr<net::Router> {
    if (!ctx.has_links && all_pairs)
      return std::make_unique<net::RoutingTable>(graph);
    if (!ctx.has_links)
      return std::make_unique<net::ConvergecastRouting>(graph, sink);
    net::NodeCostFn cost;
    if (ctx.lifetime_routing)
      cost = [fraction = &ctx.battery_fraction,
              weight = config.battery.lifetime_weight](net::NodeId v) {
        return weight * (*fraction)[static_cast<std::size_t>(v)];
      };
    auto routes = std::make_unique<net::DynamicRouting>(
        graph, sink, *ctx.coord, all_pairs, config.route_policy, cost);
    routes->refresh();
    ctx.dynamic.push_back(routes.get());
    return routes;
  };
  if (ctx.needs_low) ctx.low_routes = routes_over(*ctx.low_graph);
  if (ctx.needs_high && ctx.high_graph != ctx.low_graph)
    ctx.high_routes = routes_over(*ctx.high_graph);
  ctx.low_r = ctx.low_routes.get();
  ctx.high_r = ctx.high_routes ? ctx.high_routes.get() : ctx.low_r;

  // One MacChoice per radio class (a TDMA schedule follows the routes).
  if (ctx.needs_low)
    ctx.low_choice = resolve_choice(
        config.sensor_mac, mac::sensor_mac_params(),
        mac::tdma_sensor_params(), *ctx.low_r, sink, n,
        config.sensor_radio.rate, ctx.low_schedule);
  if (ctx.needs_high)
    ctx.high_choice = resolve_choice(
        config.wifi_mac, mac::dcf_mac_params(), mac::tdma_wifi_params(),
        *ctx.high_r, sink, n, config.wifi_radio.rate, ctx.high_schedule);
}

// The epoch coordinator (caller thread, workers quiescent): broadcasts the
// window's deltas, resolves the lifetime metrics, re-prices relays and
// refreshes the routers.
void on_barrier(RunContext& ctx, util::Seconds barrier_time) {
  const ScenarioConfig& config = ctx.config;
  std::vector<PendingDelta>& batch = ctx.batch;
  batch.clear();
  for (auto& st : ctx.states) {
    batch.insert(batch.end(), st.deltas.begin(), st.deltas.end());
    st.deltas.clear();
  }
  std::sort(batch.begin(), batch.end(),
            [](const PendingDelta& a, const PendingDelta& b) {
              return net::MembershipDelta::before(a.delta, b.delta);
            });
  for (const PendingDelta& pd : batch) {
    for (auto& st : ctx.states) st.links->apply(pd.delta);
    ctx.coord->apply(pd.delta);
    if (!pd.battery_death) continue;
    // Delivered counts are current as of this barrier (< one window late).
    std::int64_t delivered = 0;
    for (const auto& st : ctx.states) delivered += st.m.delivered;
    if (ctx.first_death_bits < 0)
      ctx.first_death_bits = delivered * config.packet_bits;
    if (ctx.partition_time < 0 &&
        !net::unreachable_alive(ctx.needs_low ? *ctx.low_graph
                                              : *ctx.high_graph,
                                ctx.topo.sink, *ctx.coord)
             .empty()) {
      ctx.partition_time = pd.delta.time;
      ctx.partition_bits = delivered * config.packet_bits;
    }
  }
  if (ctx.lifetime_routing) {
    // Re-price relays at the first barrier at or past each
    // reroute_period grid point (workers are quiescent: race-free).
    while (ctx.next_reroute <= barrier_time) {
      for (int s = 0; s < ctx.map.count; ++s) {
        const ShardState& st = ctx.state(s);
        const auto& ids = ctx.map.owned_nodes(s);
        for (std::size_t l = 0; l < ids.size(); ++l) {
          const auto& b = st.batteries[l];
          if (b != nullptr)
            ctx.battery_fraction[static_cast<std::size_t>(ids[l])] =
                b->drawn() / b->capacity();
        }
      }
      ctx.coord->touch();
      ctx.next_reroute += config.battery.reroute_period;
    }
  }
  for (const net::DynamicRouting* routes : ctx.dynamic) routes->refresh();
  // Owners applied their own mutations at once, so after a broadcast
  // every replica must hold the coordinator's membership.
  if (!batch.empty())
    for (const auto& st : ctx.states)
      BCP_ENSURE(st.links->same_membership(*ctx.coord));
}

// ---- Phase 3: media and coordinator (caller thread). The engine, one
// ShardedMedium per radio class the model runs, one membership replica
// per shard, and the epoch coordinator at every window barrier.
void build_media_and_coordinator(RunContext& ctx) {
  const ScenarioConfig& config = ctx.config;
  const int shard_count = ctx.map.count;
  ctx.states = std::vector<ShardState>(static_cast<std::size_t>(shard_count));
  if (ctx.has_links)
    for (auto& st : ctx.states) st.links.emplace(ctx.topo.node_count());

  sim::ShardedSimulator::Params engine_params;
  engine_params.shards = shard_count;
  engine_params.threads = config.sim_threads;
  engine_params.window = config.shard_window;
  sim::ShardedSimulator& engine = ctx.engine.emplace(engine_params);

  if (ctx.needs_low)
    ctx.low_medium.emplace(engine, ctx.low_graph, ctx.map,
                           channel_params(config, config.sensor_radio),
                           util::substream(config.seed, 1, 0x4C4348u));
  if (ctx.needs_high)
    ctx.high_medium.emplace(engine, ctx.high_graph, ctx.map,
                            channel_params(config, config.wifi_radio),
                            util::substream(config.seed, 2, 0x484348u));
  for (int s = 0; s < shard_count; ++s) {
    // Exact for owned nodes, ≤ one window stale for remote ones.
    if (ctx.has_links) {
      net::LinkState* links = &*ctx.state(s).links;
      if (ctx.low_medium) ctx.low_medium->shard(s).set_link_state(links);
      if (ctx.high_medium) ctx.high_medium->shard(s).set_link_state(links);
    }
    engine.set_drain(s, [&ctx, s](std::int64_t window) {
      if (ctx.low_medium) ctx.low_medium->drain(s, window);
      if (ctx.high_medium) ctx.high_medium->drain(s, window);
    });
  }

  ctx.next_reroute = config.battery.reroute_period;
  if (ctx.has_links)
    engine.set_barrier_hook(
        [&ctx](std::int64_t, util::Seconds barrier_time) {
          on_barrier(ctx, barrier_time);
        });
}

/// The one place that names the evaluation model's node assembly.
std::unique_ptr<Node> make_node(RunContext& ctx, int s, net::NodeId id) {
  const ScenarioConfig& config = ctx.config;
  sim::Simulator& sim = ctx.engine->shard(s);
  DeliverySink* delivery = &ctx.state(s).delivery;
  const net::NodeId sink = ctx.topo.sink;
  switch (config.model) {
    case EvalModel::kSensor:
      return std::make_unique<ForwardingNode>(
          sim, ctx.low_medium->shard(s), *ctx.low_r, id, sink,
          RadioClass::kSensor, config.sensor_radio,
          phy::OverhearMode::kHeaderOnly, ctx.low_choice, config.seed,
          delivery);
    case EvalModel::kWifi:
      return std::make_unique<ForwardingNode>(
          sim, ctx.high_medium->shard(s), *ctx.high_r, id, sink,
          RadioClass::kWifi, config.wifi_radio, phy::OverhearMode::kFull,
          ctx.high_choice, config.seed, delivery);
    case EvalModel::kWifiDutyCycled:
      return std::make_unique<DutyCycledWifiNode>(
          sim, ctx.high_medium->shard(s), *ctx.high_r, id, sink,
          config.wifi_radio,
          DutyCycledWifiNode::Schedule{config.duty_period,
                                       config.duty_cycle},
          config.seed, delivery);
    case EvalModel::kDualRadio:
      // The 802.11 radio overhears promiscuously (full frames): needed
      // both for faithful E_o^H charging and for shortcut learning.
      return std::make_unique<DualRadioNode>(
          sim, ctx.low_medium->shard(s), ctx.high_medium->shard(s),
          *ctx.low_r, *ctx.high_r, id, config.sensor_radio,
          config.wifi_radio, ctx.bcp, phy::OverhearMode::kFull, config.seed,
          delivery, ctx.low_choice, ctx.high_choice);
  }
  return nullptr;
}

// Finite batteries (owned nodes only): one per node, sized by the budgets
// of its radio classes and drained by all its radios. Death is crash_node
// without recovery, at the exact instant Battery re-arms from the radios'
// energy observers.
void arm_batteries(RunContext& ctx, int s) {
  const energy::BatterySpec& spec = ctx.config.battery;
  ShardState& st = ctx.state(s);
  sim::Simulator& sim = ctx.engine->shard(s);
  const std::int32_t* lid_of = ctx.map.local_of.data();
  st.on_battery_death = [&st, s, lid_of, sim = &sim](net::NodeId node) {
    const auto l =
        static_cast<std::size_t>(lid_of[static_cast<std::size_t>(node)]);
    crash_node(*st.nodes[l], node, &*st.links);
    ++st.m.battery_deaths;
    if (st.m.battery_deaths == 1) st.m.time_to_first_death = sim->now();
    st.deltas.push_back(
        {net::MembershipDelta{sim->now(), s, node, net::NodeId{-1},
                              net::MembershipDelta::Kind::kNodeDown},
         /*battery_death=*/true});
  };
  const std::vector<net::NodeId>& owned_ids = ctx.map.owned_nodes(s);
  st.batteries.resize(owned_ids.size());
  for (std::size_t l = 0; l < owned_ids.size(); ++l) {
    const NodeRadios radios = st.nodes[l]->radios();
    util::Joules capacity = 0;
    for (const NodeRadio& r : radios)
      capacity += r.cls == RadioClass::kSensor ? spec.sensor_initial_j
                                               : spec.wifi_initial_j;
    if (capacity <= 0) continue;  // all owned classes unbudgeted
    auto battery = std::make_unique<energy::Battery>(
        sim, capacity,
        [fn = &st.on_battery_death, id = owned_ids[l]] { (*fn)(id); });
    energy::Battery* b = battery.get();
    for (const NodeRadio& r : radios) {
      b->attach(&r.radio->meter());
      r.radio->set_energy_observer([b] { b->rearm(); });
    }
    battery->rearm();  // arm against the boot power state
    st.batteries[l] = std::move(battery);
  }
}

// Fault/churn schedule: the owning shard executes the event at its exact
// instant and queues the epoch delta; a link event's other endpoint shard
// flips only its own replica (the node owner counts and broadcasts it).
void schedule_faults(RunContext& ctx, int s) {
  ShardState& st = ctx.state(s);
  sim::Simulator& sim = ctx.engine->shard(s);
  const phy::ShardMap& map = ctx.map;
  st.apply_fault = [&st, &map, s, sim = &sim](const sim::FaultEvent& ev) {
    const auto node = static_cast<net::NodeId>(ev.node);
    const auto peer = static_cast<net::NodeId>(ev.peer);
    const bool owns_node = map.shard_of[static_cast<std::size_t>(ev.node)] == s;
    // Node crash/recover events are scheduled on the owner only, so the
    // stripe-local index is valid wherever it is used below.
    const auto l = static_cast<std::size_t>(
        map.local_of[static_cast<std::size_t>(node)]);
    const auto queue = [&](net::MembershipDelta::Kind kind) {
      st.deltas.push_back(
          {net::MembershipDelta{sim->now(), s, node,
                                ev.peer >= 0 ? peer : net::NodeId{-1}, kind},
           /*battery_death=*/false});
    };
    switch (ev.kind) {
      case sim::FaultKind::kNodeCrash:
        crash_node(*st.nodes[l], node, &*st.links);
        ++st.m.fault_node_crashes;
        queue(net::MembershipDelta::Kind::kNodeDown);
        break;
      case sim::FaultKind::kNodeRecover: {
        // Battery death is final: a recovery scheduled for a node that
        // has since depleted is refused (and counted).
        const energy::Battery* battery =
            st.batteries.empty() ? nullptr : st.batteries[l].get();
        if (battery != nullptr && battery->depleted()) {
          ++st.m.fault_recoveries_refused;
          break;
        }
        st.links->set_node_up(node, true);
        st.nodes[l]->recover();
        ++st.m.fault_node_recoveries;
        queue(net::MembershipDelta::Kind::kNodeUp);
        break;
      }
      case sim::FaultKind::kLinkDown:
        st.links->set_link_up(node, peer, false);
        if (owns_node) {
          ++st.m.fault_link_downs;
          queue(net::MembershipDelta::Kind::kLinkDown);
        }
        break;
      case sim::FaultKind::kLinkUp:
        st.links->set_link_up(node, peer, true);
        if (owns_node) {
          ++st.m.fault_link_ups;
          queue(net::MembershipDelta::Kind::kLinkUp);
        }
        break;
    }
  };
  for (const sim::FaultEvent& ev : ctx.fault_events) {
    const bool node_owned = map.shard_of[static_cast<std::size_t>(ev.node)] == s;
    const bool link_event = ev.kind == sim::FaultKind::kLinkDown ||
                            ev.kind == sim::FaultKind::kLinkUp;
    const bool peer_owned =
        link_event && map.shard_of[static_cast<std::size_t>(ev.peer)] == s;
    if (!node_owned && !peer_owned) continue;
    sim.schedule_at(ev.at, [fn = &st.apply_fault, ev] { (*fn)(ev); });
  }
}

// ---- Phase 4: shard setup. Each shard builds its nodes on its pinned
// thread, then schedules in a fixed order — node boot events, batteries,
// fault events, workloads — because (time, seq) ties decide outputs.
void set_up_shards(RunContext& ctx) {
  ctx.engine->for_each_shard([&ctx, &config = ctx.config](int s) {
    ShardState& st = ctx.state(s);
    sim::Simulator& sim = ctx.engine->shard(s);
    st.delivery.delivered = [&st, sim = &sim](const net::DataPacket& p) {
      ++st.m.delivered;
      st.delay_sum += sim->now() - p.created_at;
    };
    st.delivery.dropped = [&st](const net::DataPacket&, const char* reason) {
      classify_drop(st.m, reason);
    };
    for (const net::NodeId id : ctx.map.owned_nodes(s))
      st.nodes.push_back(make_node(ctx, s, id));
    if (ctx.has_battery) arm_batteries(ctx, s);
    if (ctx.has_faults) schedule_faults(ctx, s);
    for (const net::NodeId sender : ctx.senders) {
      if (ctx.map.shard_of[static_cast<std::size_t>(sender)] != s) continue;
      Node* node = st.nodes[static_cast<std::size_t>(
          ctx.map.local_of[static_cast<std::size_t>(sender)])].get();
      st.workloads.push_back(std::make_unique<CbrWorkload>(
          sim, sender, ctx.topo.sink, config.packet_bits, config.rate_bps,
          util::substream(config.seed, static_cast<std::uint64_t>(sender),
                          0x574Bu),
          [node](net::DataPacket p) { node->send(p); }));
      st.workloads.back()->start();
    }
  });
}

// ---- Phase 5: run the windows to the horizon.
void run_engine(RunContext& ctx) { ctx.engine->run(ctx.config.duration); }

// ---- Phase 6: collect. Each shard folds its own nodes on its pinned
// thread (the run's final barrier ordered every shard's state before this
// job); the caller then merges the folds in ascending shard order.
RunMetrics collect(RunContext& ctx) {
  const ScenarioConfig& config = ctx.config;
  ctx.engine->for_each_shard([&ctx](int s) {
    ShardState& st = ctx.state(s);
    // Memory-model invariant: node-indexed vectors are stripe-local.
    const auto owned = static_cast<std::size_t>(ctx.map.owned_count(s));
    BCP_ENSURE(st.nodes.size() == owned);
    BCP_ENSURE(!ctx.has_battery || st.batteries.size() == owned);
    st.m.events_processed = ctx.engine->shard(s).processed_count();
    for (const auto& w : st.workloads) st.m.generated += w->generated();
    if (ctx.low_medium) add_channel_stats(st.m, ctx.low_medium->shard(s));
    if (ctx.high_medium) add_channel_stats(st.m, ctx.high_medium->shard(s));
    for (const auto& node : st.nodes)
      collect_node(st.m, *node, ctx.config.duration);
    for (const auto& battery : st.batteries) {
      if (battery == nullptr) continue;
      st.m.battery_max_drawn_fraction =
          std::max(st.m.battery_max_drawn_fraction,
                   battery->drawn() / battery->capacity());
    }
  });
  RunMetrics total;
  double delay_sum = 0;
  for (const ShardState& st : ctx.states) {
    detail::merge_metrics(total, st.m);
    total.shard_events.push_back(st.m.events_processed);
    delay_sum += st.delay_sum;
  }
  total.boundary_frames =
      (ctx.low_medium ? ctx.low_medium->boundary_exports() : 0) +
      (ctx.high_medium ? ctx.high_medium->boundary_exports() : 0);
  for (const net::DynamicRouting* routes : ctx.dynamic)
    total.route_rebuilds += routes->rebuild_count();
  if (ctx.has_battery) {
    // "Until first death / partition" cover the whole run's deliveries
    // when the event never happened.
    total.delivered_bits_until_first_death =
        ctx.first_death_bits >= 0 ? ctx.first_death_bits
                                  : total.delivered * config.packet_bits;
    total.time_to_sink_partition = ctx.partition_time;
    total.delivered_bits_until_partition =
        ctx.partition_bits >= 0 ? ctx.partition_bits
                                : total.delivered * config.packet_bits;
  }
  finalize_metrics(total, config, delay_sum);
  return total;
}

// ---- Phase 7: teardown. Releases every shard's pooled payloads (node
// queues, in-flight frames, pending event captures; batteries hold event
// handles) on the thread whose pool owns them.
void tear_down(RunContext& ctx) {
  ctx.engine->for_each_shard([&ctx](int s) {
    ShardState& st = ctx.state(s);
    st.batteries.clear();
    st.workloads.clear();
    st.nodes.clear();
    if (ctx.low_medium) ctx.low_medium->reset_shard(s);
    if (ctx.high_medium) ctx.high_medium->reset_shard(s);
    ctx.engine->shard(s).clear();
  });
}

}  // namespace

RunMetrics run_scenario(const ScenarioConfig& config) {
  RunContext ctx(config);
  validate(ctx);
  build_shared_graphs_and_routes(ctx);
  build_media_and_coordinator(ctx);
  set_up_shards(ctx);
  run_engine(ctx);
  RunMetrics total = collect(ctx);
  tear_down(ctx);
  return total;
}

std::vector<RunMetrics> run_replications(ScenarioConfig config, int runs) {
  BCP_REQUIRE(runs >= 1);
  std::vector<RunMetrics> out;
  out.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    config.seed = config.seed + (r == 0 ? 0 : 1);
    out.push_back(run_scenario(config));
  }
  return out;
}

}  // namespace bcp::app
