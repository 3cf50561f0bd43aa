// The scenario engine: one simulation advanced by sim::ShardedSimulator
// over phy::ShardedMedium partitions. config.shards = 1 is one partition
// — the whole medium on one event queue, the path every paper figure
// runs; more partitions cut the node plane into x-stripes that exchange
// boundary frames at window barriers.
//
// Node/shard lifecycle discipline: pooled message payloads
// (net::MessagePool) are thread-local, so everything a shard owns —
// nodes, workloads, channel partitions, pending events — is constructed,
// run, and destroyed on the shard's pinned worker thread via
// for_each_shard phases (setup → run → collect → teardown). Each shard
// folds its own metrics in the collect phase, and the caller merges the
// folds in ascending shard order, so the result is a pure function of
// (config, shard count) — sim_threads never changes a byte of output.
//
// Membership epochs: fault/churn and finite batteries mutate LinkState
// membership mid-run, which a single shared LinkState cannot survive
// under real threads. Instead every shard owns one LinkState *replica*,
// read by both radio classes' channel partitions (every mutation hits
// both classes alike, so one replica serves them). The shard that owns a
// node executes its crash / recover / depletion at the exact event
// instant against its own replica (through app::crash_node, so its
// channels are exact at once), queues the mutation as a
// net::MembershipDelta, and the coordinator broadcasts the accumulated
// batch to every replica at the window barrier, applied in deterministic
// (time, shard, node) order — a remote shard sees a membership change at
// most one exchange window late, the same staleness bound the
// boundary-frame mailboxes already carry. A coordinator-owned replica
// receives the same global delta sequence and answers the
// sink-partition checks exactly at each death's event time; the run's
// one router per radio graph reads it too, refreshed at every barrier, so
// routes follow a membership change at the next barrier on every shard,
// the owner's included. Delivered
// counts referenced by the "bits until first death / partition" metrics
// are read at the publishing barrier (≤ one window after the event), and
// lifetime-aware routing re-prices relays from a battery snapshot taken
// at the barriers on the reroute_period grid — at every shard count,
// one partition included.
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

/// Resolves one radio class's MacChoice: CSMA keeps the exact historical
/// MacParams + seed path; TDMA builds the class's slot schedule from its
/// convergecast tree into `schedule_out` and fills zero (class-default)
/// knobs, auto-tightening the beacon period to the slot span.
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

// Per-node metric collection: finalizes the node's meter(s) at `end` and
// accumulates energies/MAC/protocol counters. One call per node, in node
// id order within a shard, fixes the accumulation arithmetic.
void collect_forwarding(RunMetrics& m, ForwardingNode& node,
                        bool charge_sensor, util::Seconds end) {
  energy::EnergyMeter& meter = node.radio().meter();
  meter.finalize(end);
  accumulate(charge_sensor ? m.sensor_energy : m.wifi_energy, meter);
  m.mac_tx_attempts += node.mac().stats().tx_attempts;
  m.mac_tx_failed += node.mac().stats().tx_failed;
  m.mac_crash_drops += node.mac().stats().crash_drops;
  add_tdma_stats(m, node.mac());
}

void collect_duty(RunMetrics& m, DutyCycledWifiNode& node,
                  util::Seconds end) {
  energy::EnergyMeter& meter = node.radio().meter();
  meter.finalize(end);
  accumulate(m.wifi_energy, meter);
  m.mac_tx_attempts += node.mac().stats().tx_attempts;
  m.mac_tx_failed += node.mac().stats().tx_failed;
  m.wifi_wakeup_transitions += meter.wakeup_count();
  using energy::EnergyCategory;
  m.wifi_on_seconds += meter.duration(EnergyCategory::kIdle) +
                       meter.duration(EnergyCategory::kRx) +
                       meter.duration(EnergyCategory::kOverhear) +
                       meter.duration(EnergyCategory::kTx);
}

void collect_dual(RunMetrics& m, DualRadioNode& node, util::Seconds end) {
  node.sensor_radio().meter().finalize(end);
  node.wifi_radio().meter().finalize(end);
  accumulate(m.sensor_energy, node.sensor_radio().meter());
  accumulate(m.wifi_energy, node.wifi_radio().meter());
  m.mac_tx_attempts += node.sensor_mac().stats().tx_attempts +
                       node.wifi_mac().stats().tx_attempts;
  m.mac_tx_failed += node.sensor_mac().stats().tx_failed +
                     node.wifi_mac().stats().tx_failed;
  m.mac_crash_drops += node.sensor_mac().stats().crash_drops +
                       node.wifi_mac().stats().crash_drops;
  add_tdma_stats(m, node.sensor_mac());
  const auto& astats = node.agent().stats();
  m.bcp_packets_lost_to_crash += astats.packets_lost_to_crash;
  m.bcp_wakeups += astats.wakeups_sent;
  m.bcp_handshakes_failed += astats.handshakes_failed;
  m.bcp_sender_sessions += astats.sender_sessions_completed;
  m.bcp_receiver_timeouts += astats.receiver_sessions_timed_out;
  m.wifi_wakeup_transitions += node.wifi_radio().meter().wakeup_count();
  using energy::EnergyCategory;
  const auto& wm = node.wifi_radio().meter();
  m.wifi_on_seconds += wm.duration(EnergyCategory::kIdle) +
                       wm.duration(EnergyCategory::kRx) +
                       wm.duration(EnergyCategory::kOverhear) +
                       wm.duration(EnergyCategory::kTx);
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
/// vector keeps null holes (radio classes without a budget).
struct ShardState {
  RunMetrics m;
  double delay_sum = 0;
  DeliverySink delivery;
  /// TDMA slot schedules (one-partition runs only), one per radio class
  /// that asked for the family. Declared before the nodes, which hold
  /// references into them.
  std::optional<mac::TdmaSchedule> low_schedule;
  std::optional<mac::TdmaSchedule> high_schedule;
  std::vector<std::unique_ptr<ForwardingNode>> fwd;
  std::vector<std::unique_ptr<DualRadioNode>> dual;
  std::vector<std::unique_ptr<DutyCycledWifiNode>> duty;
  std::vector<std::unique_ptr<CbrWorkload>> workloads;

  // Membership-epoch state (engaged only for fault/battery runs). The
  // replica is dense over the whole network (one byte per node) and feeds
  // both radio classes' channel partitions; the delta queue is written on
  // the shard's pinned thread and drained by the coordinator between
  // phase barriers.
  std::optional<net::LinkState> links;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<PendingDelta> deltas;
  /// Stable callable targets for event captures (the vector of states is
  /// never resized, so &st members are stable for the whole run).
  std::function<void(const sim::FaultEvent&)> apply_fault;
  std::function<void(net::NodeId)> on_battery_death;
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

RunMetrics run_scenario(const ScenarioConfig& config) {
  BCP_REQUIRE(config.topology.node_count() >= 2);
  BCP_REQUIRE(config.duration > 0);
  BCP_REQUIRE(config.rate_bps > 0);
  BCP_REQUIRE(config.packet_bits > 0);
  BCP_REQUIRE(config.burst_packets > 0);
  BCP_REQUIRE(config.shards >= 1);
  BCP_REQUIRE(config.shard_window > 0);
  // Bound checks that need no topology construction come first: a
  // misconfigured 100k-node run must fail before full placement build.
  BCP_REQUIRE_MSG(config.n_senders >= 1 &&
                      config.n_senders <= config.topology.node_count() - 1,
                  "sender count must be in [1, nodes-1]");
  // ShardMap::stripes would clamp a too-large shard count silently; a
  // scenario asking for more stripes than nodes is a configuration error
  // and fails loudly instead (benches that sweep node counts clamp
  // per cell and record the effective count in their meta).
  BCP_REQUIRE_MSG(config.shards <= config.topology.node_count(),
                  "shard count must not exceed the node count");
  // MAC family selection per radio class: bad TDMA knobs throw before
  // any simulation state exists. The slotted family presumes a radio
  // that is awake for its slots, which the BCP-managed 802.11 radio and
  // the duty-cycled strawman are not, and one slot clock for the whole
  // network.
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
  const bool has_faults = !config.faults.empty();
  BCP_REQUIRE_MSG(!has_faults || config.model != EvalModel::kWifiDutyCycled,
                  "fault injection is not supported for the duty-cycled "
                  "802.11 strawman");
  config.battery.validate();
  const bool has_battery = config.battery.enabled;
  BCP_REQUIRE_MSG(
      config.route_policy == net::RoutePolicy::kShortestPath || has_battery,
      "lifetime-aware routing requires an enabled battery");
  if (config.model == EvalModel::kWifiDutyCycled) {
    BCP_REQUIRE_MSG(config.duty_cycle > 0 && config.duty_cycle <= 1.0,
                    "duty cycle must be in (0, 1]");
    BCP_REQUIRE_MSG(config.duty_period > 0, "duty period must be positive");
  }
  // Channels must stop delivering to dead nodes and routing must
  // re-converge around them, so battery runs share the fault machinery's
  // membership epochs even when the fault plan is empty.
  const bool has_links = has_faults || has_battery;
  const bool lifetime_routing =
      config.route_policy == net::RoutePolicy::kLifetimeAware;

  const net::Topology topo = config.topology.build();
  const net::NodeId sink = topo.sink;
  const int n = topo.node_count();

  const bool needs_low = config.model == EvalModel::kSensor ||
                         config.model == EvalModel::kDualRadio;
  const bool needs_high = config.model != EvalModel::kSensor;
  const bool all_pairs =
      config.routing == RoutingMode::kAllPairs ||
      (config.routing == RoutingMode::kAuto && n <= kAllPairsNodeLimit);
  const util::Metres wifi_range = config.wifi_range_override > 0
                                      ? config.wifi_range_override
                                      : config.wifi_radio.range;

  const phy::ShardMap map = phy::ShardMap::stripes(topo.positions,
                                                   config.shards);
  const int shard_count = map.count;

  // Shared read-only structures: one connectivity graph per radio range
  // (each partition holds a reference, not a copy — O(n + e) once).
  // Equal ranges give identical disc graphs: build one and share it (each
  // radio class still gets its own link model and seed).
  std::shared_ptr<const net::ConnectivityGraph> low_graph;
  std::shared_ptr<const net::ConnectivityGraph> high_graph;
  if (needs_low) {
    low_graph = std::make_shared<net::ConnectivityGraph>(
        topo.positions, config.sensor_radio.range);
    require_connected(*low_graph, sink, "sensor");
  }
  if (needs_high) {
    high_graph = low_graph != nullptr && wifi_range == low_graph->range()
                     ? low_graph
                     : std::make_shared<net::ConnectivityGraph>(
                           topo.positions, wifi_range);
    if (high_graph != low_graph) require_connected(*high_graph, sink, "wifi");
  }

  // The fault plan is expanded once on the caller; each shard schedules
  // only the events it must act on (a node event goes to the node's
  // owner; a link event to both endpoints' owners).
  std::vector<sim::FaultEvent> fault_events;
  if (has_faults) {
    // FaultPlan reads neighbour rows only to aim link flaps at real
    // links, straight from the radio graph's CSR rows.
    const net::ConnectivityGraph& fault_graph =
        needs_low ? *low_graph : *high_graph;
    fault_events =
        sim::FaultPlan(config.faults, n, sink, config.duration,
                       [&fault_graph](std::int32_t id) {
                         const net::NeighborRange row =
                             fault_graph.neighbors(id);
                         return sim::NeighborRow{row.begin(), row.end()};
                       })
            .events();
  }

  core::BcpConfig bcp = config.bcp;
  bcp.set_burst_packets(config.burst_packets, config.packet_bits);

  const std::vector<net::NodeId> senders =
      pick_senders(config.seed, n, sink, config.n_senders);

  // Lifetime-aware route costs read this drawn/capacity snapshot,
  // refreshed by the coordinator at barriers on the reroute_period grid —
  // never live battery state, so relay prices are a pure function of
  // (config, shard count).
  std::vector<double> battery_fraction;
  if (lifetime_routing) battery_fraction.assign(static_cast<std::size_t>(n), 0.0);

  // States are declared before the engine/mediums so teardown (which
  // runs as engine phases) happens before either is destroyed.
  std::vector<ShardState> states(static_cast<std::size_t>(shard_count));

  // The coordinator-owned replica receives the global delta sequence
  // exactly once, in (time, shard, node) order — the membership ground
  // truth that routing and the sink-partition checks run against. Every
  // shard keeps its own dense replica beside it (one byte per node).
  std::optional<net::LinkState> coord;
  if (has_links) {
    for (auto& st : states) st.links.emplace(n);
    coord.emplace(n);
  }

  // One router per distinct radio graph, shared by every shard. Static
  // membership gets the static providers (const queries). Membership runs
  // route over the coordinator's replica: built here, before any worker
  // queries, and refreshed by the barrier hook while workers are
  // quiescent, so worker queries only ever read.
  std::vector<const net::DynamicRouting*> dynamic;
  const auto routes_over = [&](const net::ConnectivityGraph& graph)
      -> std::unique_ptr<net::Router> {
    if (!has_links && all_pairs)
      return std::make_unique<net::RoutingTable>(graph);
    if (!has_links)
      return std::make_unique<net::ConvergecastRouting>(graph, sink);
    net::NodeCostFn cost;
    if (lifetime_routing)
      cost = [&battery_fraction, weight = config.battery.lifetime_weight](
                 net::NodeId v) {
        return weight * battery_fraction[static_cast<std::size_t>(v)];
      };
    auto routes = std::make_unique<net::DynamicRouting>(
        graph, sink, *coord, all_pairs, config.route_policy, cost);
    routes->refresh();
    dynamic.push_back(routes.get());
    return routes;
  };
  std::unique_ptr<net::Router> low_routes;
  std::unique_ptr<net::Router> high_routes;  // null when the graph is shared
  if (needs_low) low_routes = routes_over(*low_graph);
  if (needs_high && high_graph != low_graph)
    high_routes = routes_over(*high_graph);
  const net::Router* low_r = low_routes.get();
  const net::Router* high_r = high_routes ? high_routes.get() : low_r;

  sim::ShardedSimulator::Params engine_params;
  engine_params.shards = shard_count;
  engine_params.threads = config.sim_threads;
  engine_params.window = config.shard_window;
  sim::ShardedSimulator engine(engine_params);

  std::optional<phy::ShardedMedium> low_medium;
  std::optional<phy::ShardedMedium> high_medium;
  if (needs_low)
    low_medium.emplace(engine, low_graph, map,
                       channel_params(config, config.sensor_radio),
                       util::substream(config.seed, 1, 0x4C4348u));
  if (needs_high)
    high_medium.emplace(engine, high_graph, map,
                        channel_params(config, config.wifi_radio),
                        util::substream(config.seed, 2, 0x484348u));
  if (has_links) {
    // Each partition hears through its shard's replica: exact for owned
    // nodes, ≤ one window stale for remote ones.
    for (int s = 0; s < shard_count; ++s) {
      net::LinkState* links = &*states[static_cast<std::size_t>(s)].links;
      if (low_medium) low_medium->shard(s).set_link_state(links);
      if (high_medium) high_medium->shard(s).set_link_state(links);
    }
  }
  for (int s = 0; s < shard_count; ++s)
    engine.set_drain(s, [&low_medium, &high_medium, s](std::int64_t window) {
      if (low_medium) low_medium->drain(s, window);
      if (high_medium) high_medium->drain(s, window);
    });

  // ---- Epoch coordinator (caller thread, between phase barriers).
  std::vector<PendingDelta> batch;
  std::int64_t first_death_bits = -1;
  double partition_time = -1;
  std::int64_t partition_bits = -1;
  double next_reroute = config.battery.reroute_period;
  if (has_links) {
    engine.set_barrier_hook([&](std::int64_t, util::Seconds barrier_time) {
      batch.clear();
      for (auto& st : states) {
        batch.insert(batch.end(), st.deltas.begin(), st.deltas.end());
        st.deltas.clear();
      }
      std::sort(batch.begin(), batch.end(),
                [](const PendingDelta& a, const PendingDelta& b) {
                  return net::MembershipDelta::before(a.delta, b.delta);
                });
      for (const PendingDelta& pd : batch) {
        for (auto& st : states) st.links->apply(pd.delta);
        coord->apply(pd.delta);
        if (!pd.battery_death) continue;
        // Delivered counts are only current as of this barrier — the
        // "bits until" metrics are therefore late by < one window, the
        // same bound as every other cross-shard observation.
        std::int64_t delivered = 0;
        for (const auto& st : states) delivered += st.m.delivered;
        if (first_death_bits < 0)
          first_death_bits = delivered * config.packet_bits;
        if (partition_time < 0) {
          const net::ConnectivityGraph& graph =
              needs_low ? *low_graph : *high_graph;
          if (!net::unreachable_alive(graph, sink, *coord).empty()) {
            partition_time = pd.delta.time;
            partition_bits = delivered * config.packet_bits;
          }
        }
      }
      if (lifetime_routing) {
        // Relays are re-priced every reroute_period: the refresh lands on
        // the first barrier at or past each grid point. Workers are
        // quiescent, so reading live battery draw is race-free, and the
        // refresh schedule is a pure function of (config, shard count).
        while (next_reroute <= barrier_time) {
          for (int s = 0; s < shard_count; ++s) {
            const ShardState& st = states[static_cast<std::size_t>(s)];
            const auto& ids = map.owned_nodes(s);
            for (std::size_t l = 0; l < ids.size(); ++l) {
              const auto& b = st.batteries[l];
              if (b != nullptr)
                battery_fraction[static_cast<std::size_t>(ids[l])] =
                    b->drawn() / b->capacity();
            }
          }
          coord->touch();
          next_reroute += config.battery.reroute_period;
        }
      }
      for (const net::DynamicRouting* routes : dynamic) routes->refresh();
      // Each owner applied its own mutations when they happened and
      // queued them in the same event, so after a broadcast every replica
      // must hold the coordinator's membership.
      if (!batch.empty())
        for (const auto& st : states)
          BCP_ENSURE(st.links->same_membership(*coord));
    });
  }

  // ---- Setup phase: each shard builds its nodes on its pinned thread.
  engine.for_each_shard([&](int s) {
    ShardState& st = states[static_cast<std::size_t>(s)];
    sim::Simulator& ssim = engine.shard(s);
    st.delivery.delivered = [&st, sim = &ssim](const net::DataPacket& p) {
      ++st.m.delivered;
      st.delay_sum += sim->now() - p.created_at;
    };
    st.delivery.dropped = [&st](const net::DataPacket&, const char* reason) {
      classify_drop(st.m, reason);
    };
    // Stripe-local indexing: this shard's node-indexed vectors are sized
    // by its own population and indexed through the shared local-id map.
    const std::vector<net::NodeId>& owned_ids = map.owned_nodes(s);
    const std::size_t owned_n = owned_ids.size();
    const std::int32_t* lid_of = map.local_of.data();
    switch (config.model) {
      case EvalModel::kSensor: {
        const MacChoice choice = resolve_choice(
            config.sensor_mac, mac::sensor_mac_params(),
            mac::tdma_sensor_params(), *low_r, sink, n,
            config.sensor_radio.rate, st.low_schedule);
        st.fwd.resize(owned_n);
        for (std::size_t l = 0; l < owned_n; ++l) {
          st.fwd[l] = std::make_unique<ForwardingNode>(
              ssim, low_medium->shard(s), *low_r, owned_ids[l], sink,
              config.sensor_radio, phy::OverhearMode::kHeaderOnly, choice,
              config.seed, &st.delivery);
        }
        break;
      }
      case EvalModel::kWifi: {
        const MacChoice choice = resolve_choice(
            config.wifi_mac, mac::dcf_mac_params(), mac::tdma_wifi_params(),
            *high_r, sink, n, config.wifi_radio.rate, st.high_schedule);
        st.fwd.resize(owned_n);
        for (std::size_t l = 0; l < owned_n; ++l) {
          st.fwd[l] = std::make_unique<ForwardingNode>(
              ssim, high_medium->shard(s), *high_r, owned_ids[l], sink,
              config.wifi_radio, phy::OverhearMode::kFull, choice,
              config.seed, &st.delivery);
        }
        break;
      }
      case EvalModel::kWifiDutyCycled: {
        DutyCycledWifiNode::Schedule schedule;
        schedule.period = config.duty_period;
        schedule.duty = config.duty_cycle;
        st.duty.resize(owned_n);
        for (std::size_t l = 0; l < owned_n; ++l) {
          st.duty[l] = std::make_unique<DutyCycledWifiNode>(
              ssim, high_medium->shard(s), *high_r, owned_ids[l], sink,
              config.wifi_radio, schedule, config.seed, &st.delivery);
        }
        break;
      }
      case EvalModel::kDualRadio: {
        const MacChoice low_choice = resolve_choice(
            config.sensor_mac, mac::sensor_mac_params(),
            mac::tdma_sensor_params(), *low_r, sink, n,
            config.sensor_radio.rate, st.low_schedule);
        const MacChoice high_choice{mac::dcf_mac_params(),
                                    mac::MacFamily::kAuto,
                                    {},
                                    nullptr};
        // The 802.11 radio overhears promiscuously (full frames): needed
        // both for faithful E_o^H charging and for shortcut learning.
        st.dual.resize(owned_n);
        for (std::size_t l = 0; l < owned_n; ++l) {
          st.dual[l] = std::make_unique<DualRadioNode>(
              ssim, low_medium->shard(s), high_medium->shard(s), *low_r,
              *high_r, owned_ids[l], config.sensor_radio,
              config.wifi_radio, bcp, phy::OverhearMode::kFull, config.seed,
              &st.delivery, low_choice, high_choice);
        }
        break;
      }
    }

    // ---- Finite batteries (owned nodes only). One battery per node,
    // drained by every radio the node owns; death is the fault plan's
    // crash teardown (crash_node), minus the possibility of recovery.
    // The death instant is always a scheduled event in the owning shard:
    // Battery re-arms it from the radios' energy observer on every
    // power-state change, so depletion lands at its exact analytic time.
    if (has_battery) {
      st.batteries.resize(owned_n);
      st.on_battery_death = [&st, s, lid_of, sim = &ssim](net::NodeId node) {
        const auto l = static_cast<std::size_t>(
            lid_of[static_cast<std::size_t>(node)]);
        crash_node(st.fwd.empty() ? nullptr : st.fwd[l].get(),
                   st.dual.empty() ? nullptr : st.dual[l].get(),
                   st.duty.empty() ? nullptr : st.duty[l].get(), node,
                   &*st.links);
        ++st.m.battery_deaths;
        if (st.m.battery_deaths == 1)
          st.m.time_to_first_death = sim->now();
        st.deltas.push_back(
            {net::MembershipDelta{sim->now(), s, node, net::NodeId{-1},
                                  net::MembershipDelta::Kind::kNodeDown},
             /*battery_death=*/true});
      };
      for (std::size_t l = 0; l < owned_n; ++l) {
        const net::NodeId id = owned_ids[l];
        util::Joules capacity = 0;
        if (needs_low) capacity += config.battery.sensor_initial_j;
        if (needs_high) capacity += config.battery.wifi_initial_j;
        if (capacity <= 0) continue;  // all owned classes unbudgeted
        auto battery = std::make_unique<energy::Battery>(
            ssim, capacity,
            [fn = &st.on_battery_death, id] { (*fn)(id); });
        energy::Battery* b = battery.get();
        const auto watch = [b](phy::Radio& radio) {
          b->attach(&radio.meter());
          radio.set_energy_observer([b] { b->rearm(); });
        };
        if (!st.fwd.empty())
          watch(st.fwd[l]->radio());
        else if (!st.duty.empty())
          watch(st.duty[l]->radio());
        else {
          watch(st.dual[l]->sensor_radio());
          watch(st.dual[l]->wifi_radio());
        }
        battery->rearm();  // arm against the boot power state
        st.batteries[l] = std::move(battery);
      }
    }

    // ---- Fault/churn schedule: the owning shard executes the event at
    // its exact instant against its replica and queues the epoch delta;
    // for link events the other endpoint's shard also flips its own
    // replica at the exact time, but only the node-owner counts the
    // event and broadcasts it.
    if (has_faults) {
      st.apply_fault = [&st, &map, lid_of, s, sim = &ssim](
                           const sim::FaultEvent& ev) {
        const auto node = static_cast<net::NodeId>(ev.node);
        const auto peer = static_cast<net::NodeId>(ev.peer);
        const bool owns_node =
            map.shard_of[static_cast<std::size_t>(ev.node)] == s;
        // Node crash/recover events are scheduled on the owner only, so
        // the stripe-local index is valid wherever it is used below.
        const auto l =
            static_cast<std::size_t>(lid_of[static_cast<std::size_t>(node)]);
        const auto queue = [&](net::MembershipDelta::Kind kind) {
          st.deltas.push_back(
              {net::MembershipDelta{sim->now(), s, node,
                                    ev.peer >= 0 ? peer : net::NodeId{-1},
                                    kind},
               /*battery_death=*/false});
        };
        switch (ev.kind) {
          case sim::FaultKind::kNodeCrash:
            crash_node(st.fwd.empty() ? nullptr : st.fwd[l].get(),
                       st.dual.empty() ? nullptr : st.dual[l].get(),
                       nullptr,  // duty nodes reject fault plans
                       node, &*st.links);
            ++st.m.fault_node_crashes;
            queue(net::MembershipDelta::Kind::kNodeDown);
            break;
          case sim::FaultKind::kNodeRecover: {
            // Battery death is final: a recovery scheduled for a node
            // that has since depleted is refused (and counted).
            const energy::Battery* battery =
                st.batteries.empty() ? nullptr : st.batteries[l].get();
            if (battery != nullptr && battery->depleted()) {
              ++st.m.fault_recoveries_refused;
              break;
            }
            st.links->set_node_up(node, true);
            if (!st.fwd.empty())
              st.fwd[l]->recover();
            else
              st.dual[l]->recover();
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
      for (const sim::FaultEvent& ev : fault_events) {
        const bool node_owned =
            map.shard_of[static_cast<std::size_t>(ev.node)] == s;
        const bool link_event = ev.kind == sim::FaultKind::kLinkDown ||
                                ev.kind == sim::FaultKind::kLinkUp;
        const bool peer_owned =
            link_event &&
            map.shard_of[static_cast<std::size_t>(ev.peer)] == s;
        if (!node_owned && !peer_owned) continue;
        ssim.schedule_at(ev.at,
                         [fn = &st.apply_fault, ev] { (*fn)(ev); });
      }
    }

    for (const net::NodeId sender : senders) {
      if (map.shard_of[static_cast<std::size_t>(sender)] != s) continue;
      const auto l = static_cast<std::size_t>(
          lid_of[static_cast<std::size_t>(sender)]);
      auto emit = [&st, &config, l](net::DataPacket p) {
        if (config.model == EvalModel::kDualRadio)
          st.dual[l]->send(p);
        else if (config.model == EvalModel::kWifiDutyCycled)
          st.duty[l]->send(p);
        else
          st.fwd[l]->send(p);
      };
      st.workloads.push_back(std::make_unique<CbrWorkload>(
          ssim, sender, sink, config.packet_bits, config.rate_bps,
          util::substream(config.seed, static_cast<std::uint64_t>(sender),
                          0x574Bu),
          std::move(emit)));
      st.workloads.back()->start();
    }
  });

  engine.run(config.duration);

  // ---- Collect: each shard folds its own nodes on its pinned thread (the
  // run's final barrier ordered every shard's state before this job);
  // the caller then merges the folds in ascending shard order.
  engine.for_each_shard([&](int s) {
    ShardState& st = states[static_cast<std::size_t>(s)];
    // Memory-model invariant: exactly one node family is populated, and
    // every per-shard node-indexed vector is stripe-local, not global.
    BCP_ENSURE(st.fwd.size() + st.dual.size() + st.duty.size() ==
               static_cast<std::size_t>(map.owned_count(s)));
    BCP_ENSURE(!has_battery ||
               st.batteries.size() ==
                   static_cast<std::size_t>(map.owned_count(s)));
    st.m.events_processed = engine.shard(s).processed_count();
    for (const auto& w : st.workloads) st.m.generated += w->generated();
    if (low_medium) add_channel_stats(st.m, low_medium->shard(s));
    if (high_medium) add_channel_stats(st.m, high_medium->shard(s));
    const util::Seconds end = config.duration;
    for (const auto& node : st.fwd)
      collect_forwarding(st.m, *node, config.model == EvalModel::kSensor,
                         end);
    for (const auto& node : st.duty) collect_duty(st.m, *node, end);
    for (const auto& node : st.dual) collect_dual(st.m, *node, end);
    for (const auto& battery : st.batteries) {
      if (battery == nullptr) continue;
      st.m.battery_max_drawn_fraction =
          std::max(st.m.battery_max_drawn_fraction,
                   battery->drawn() / battery->capacity());
    }
  });
  RunMetrics total;
  double delay_sum = 0;
  for (const ShardState& st : states) {
    detail::merge_metrics(total, st.m);
    total.shard_events.push_back(st.m.events_processed);
    delay_sum += st.delay_sum;
  }
  total.boundary_frames =
      (low_medium ? low_medium->boundary_exports() : 0) +
      (high_medium ? high_medium->boundary_exports() : 0);
  for (const net::DynamicRouting* routes : dynamic)
    total.route_rebuilds += routes->rebuild_count();
  if (has_battery) {
    // The coordinator resolved the cross-shard lifetime metrics at the
    // barriers; "until first death / partition" degenerate to the whole
    // run's deliveries when the event never happened.
    total.delivered_bits_until_first_death =
        first_death_bits >= 0 ? first_death_bits
                              : total.delivered * config.packet_bits;
    total.time_to_sink_partition = partition_time;
    total.delivered_bits_until_partition =
        partition_bits >= 0 ? partition_bits
                            : total.delivered * config.packet_bits;
  }
  finalize_metrics(total, config, delay_sum);

  // ---- Teardown phase: release every shard's pooled payloads (node
  // queues, in-flight channel records, pending event captures) on the
  // thread whose pool owns them, before the workers exit with the
  // engine. Batteries hold event handles into the shard simulator, so
  // they die here too.
  engine.for_each_shard([&](int s) {
    ShardState& st = states[static_cast<std::size_t>(s)];
    st.batteries.clear();
    st.workloads.clear();
    st.fwd.clear();
    st.duty.clear();
    st.dual.clear();
    if (low_medium) low_medium->reset_shard(s);
    if (high_medium) high_medium->reset_shard(s);
    engine.shard(s).clear();
  });
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
