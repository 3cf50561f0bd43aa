// Field-coverage test for detail::merge_metrics, the sharded engine's
// per-shard metric fold. Together with the sizeof(RunMetrics)
// static_assert at the definition it forms a tripwire: a new RunMetrics
// field cannot ship without a merge rule (the assert fires) and the rule
// cannot be wrong silently (this test pins the semantics of every field —
// counters sum, time-to-first-* take the earliest non-sentinel value, the
// drawn fraction takes the max, per-shard vectors concatenate, derived
// ratios are left for finalize_metrics).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "app/scenario.hpp"
#include "app/scenario_detail.hpp"

namespace bcp {
namespace {

/// A RunMetrics with every field set to a distinct value derived from
/// `base`, so a dropped or cross-wired merge rule shows up as a wrong sum.
app::RunMetrics filled(std::int64_t base) {
  app::RunMetrics m;
  std::int64_t v = base;
  m.generated = ++v;
  m.delivered = ++v;
  m.dropped_buffer = ++v;
  m.dropped_queue = ++v;
  m.dropped_mac = ++v;
  m.dropped_no_route = ++v;
  m.dropped_node_down = ++v;
  m.goodput = static_cast<double>(++v);
  m.mean_delay = static_cast<double>(++v);
  m.sensor_energy.tx = static_cast<double>(++v);
  m.sensor_energy.rx = static_cast<double>(++v);
  m.sensor_energy.overhear = static_cast<double>(++v);
  m.sensor_energy.idle = static_cast<double>(++v);
  m.sensor_energy.wakeup = static_cast<double>(++v);
  m.wifi_energy.tx = static_cast<double>(++v);
  m.wifi_energy.rx = static_cast<double>(++v);
  m.wifi_energy.overhear = static_cast<double>(++v);
  m.wifi_energy.idle = static_cast<double>(++v);
  m.wifi_energy.wakeup = static_cast<double>(++v);
  m.normalized_energy = static_cast<double>(++v);
  m.normalized_energy_sensor_ideal = static_cast<double>(++v);
  m.normalized_energy_sensor_header = static_cast<double>(++v);
  m.mac_tx_attempts = ++v;
  m.mac_tx_failed = ++v;
  m.bcp_wakeups = ++v;
  m.bcp_handshakes_failed = ++v;
  m.bcp_sender_sessions = ++v;
  m.bcp_receiver_timeouts = ++v;
  m.wifi_wakeup_transitions = ++v;
  m.wifi_on_seconds = static_cast<double>(++v);
  m.events_processed = static_cast<std::uint64_t>(++v);
  m.fault_node_crashes = ++v;
  m.fault_node_recoveries = ++v;
  m.fault_recoveries_refused = ++v;
  m.fault_link_downs = ++v;
  m.fault_link_ups = ++v;
  m.route_rebuilds = ++v;
  m.bcp_packets_lost_to_crash = ++v;
  m.mac_crash_drops = ++v;
  m.chan_frames = ++v;
  m.chan_rx_starts = ++v;
  m.chan_rx_ends = ++v;
  m.chan_rx_live_at_end = ++v;
  m.tdma_beacons_sent = ++v;
  m.tdma_beacons_heard = ++v;
  m.tdma_slots_skipped = ++v;
  m.battery_deaths = ++v;
  m.time_to_first_death = static_cast<double>(++v);
  m.time_to_sink_partition = static_cast<double>(++v);
  m.delivered_bits_until_first_death = ++v;
  m.delivered_bits_until_partition = ++v;
  m.battery_max_drawn_fraction = static_cast<double>(++v);
  m.shard_events = {static_cast<std::uint64_t>(++v)};
  m.boundary_frames = ++v;
  m.late_boundary_frames = ++v;
  m.boundary_lateness_max_s = static_cast<double>(++v);
  return m;
}

TEST(MergeMetrics, EveryFieldHasTheRightRule) {
  const app::RunMetrics a = filled(100);
  const app::RunMetrics b = filled(1000);
  app::RunMetrics total = a;
  app::detail::merge_metrics(total, b);

  // Traffic counters sum.
  EXPECT_EQ(total.generated, a.generated + b.generated);
  EXPECT_EQ(total.delivered, a.delivered + b.delivered);
  EXPECT_EQ(total.dropped_buffer, a.dropped_buffer + b.dropped_buffer);
  EXPECT_EQ(total.dropped_queue, a.dropped_queue + b.dropped_queue);
  EXPECT_EQ(total.dropped_mac, a.dropped_mac + b.dropped_mac);
  EXPECT_EQ(total.dropped_no_route, a.dropped_no_route + b.dropped_no_route);
  EXPECT_EQ(total.dropped_node_down,
            a.dropped_node_down + b.dropped_node_down);

  // Derived ratios are NOT merged — finalize_metrics recomputes them from
  // the merged sums, so the fold must leave them alone.
  EXPECT_EQ(total.goodput, a.goodput);
  EXPECT_EQ(total.mean_delay, a.mean_delay);
  EXPECT_EQ(total.normalized_energy, a.normalized_energy);
  EXPECT_EQ(total.normalized_energy_sensor_ideal,
            a.normalized_energy_sensor_ideal);
  EXPECT_EQ(total.normalized_energy_sensor_header,
            a.normalized_energy_sensor_header);

  // Energy components sum per radio class.
  EXPECT_EQ(total.sensor_energy.tx, a.sensor_energy.tx + b.sensor_energy.tx);
  EXPECT_EQ(total.sensor_energy.rx, a.sensor_energy.rx + b.sensor_energy.rx);
  EXPECT_EQ(total.sensor_energy.overhear,
            a.sensor_energy.overhear + b.sensor_energy.overhear);
  EXPECT_EQ(total.sensor_energy.idle,
            a.sensor_energy.idle + b.sensor_energy.idle);
  EXPECT_EQ(total.sensor_energy.wakeup,
            a.sensor_energy.wakeup + b.sensor_energy.wakeup);
  EXPECT_EQ(total.wifi_energy.tx, a.wifi_energy.tx + b.wifi_energy.tx);
  EXPECT_EQ(total.wifi_energy.rx, a.wifi_energy.rx + b.wifi_energy.rx);
  EXPECT_EQ(total.wifi_energy.overhear,
            a.wifi_energy.overhear + b.wifi_energy.overhear);
  EXPECT_EQ(total.wifi_energy.idle, a.wifi_energy.idle + b.wifi_energy.idle);
  EXPECT_EQ(total.wifi_energy.wakeup,
            a.wifi_energy.wakeup + b.wifi_energy.wakeup);

  // Protocol/MAC counters sum.
  EXPECT_EQ(total.mac_tx_attempts, a.mac_tx_attempts + b.mac_tx_attempts);
  EXPECT_EQ(total.mac_tx_failed, a.mac_tx_failed + b.mac_tx_failed);
  EXPECT_EQ(total.bcp_wakeups, a.bcp_wakeups + b.bcp_wakeups);
  EXPECT_EQ(total.bcp_handshakes_failed,
            a.bcp_handshakes_failed + b.bcp_handshakes_failed);
  EXPECT_EQ(total.bcp_sender_sessions,
            a.bcp_sender_sessions + b.bcp_sender_sessions);
  EXPECT_EQ(total.bcp_receiver_timeouts,
            a.bcp_receiver_timeouts + b.bcp_receiver_timeouts);
  EXPECT_EQ(total.wifi_wakeup_transitions,
            a.wifi_wakeup_transitions + b.wifi_wakeup_transitions);
  EXPECT_EQ(total.wifi_on_seconds, a.wifi_on_seconds + b.wifi_on_seconds);
  EXPECT_EQ(total.events_processed, a.events_processed + b.events_processed);

  // Fault/churn counters sum — each fault event is counted by exactly
  // one shard.
  EXPECT_EQ(total.fault_node_crashes,
            a.fault_node_crashes + b.fault_node_crashes);
  EXPECT_EQ(total.fault_node_recoveries,
            a.fault_node_recoveries + b.fault_node_recoveries);
  EXPECT_EQ(total.fault_recoveries_refused,
            a.fault_recoveries_refused + b.fault_recoveries_refused);
  EXPECT_EQ(total.fault_link_downs, a.fault_link_downs + b.fault_link_downs);
  EXPECT_EQ(total.fault_link_ups, a.fault_link_ups + b.fault_link_ups);
  EXPECT_EQ(total.route_rebuilds, a.route_rebuilds + b.route_rebuilds);
  EXPECT_EQ(total.bcp_packets_lost_to_crash,
            a.bcp_packets_lost_to_crash + b.bcp_packets_lost_to_crash);
  EXPECT_EQ(total.mac_crash_drops, a.mac_crash_drops + b.mac_crash_drops);

  // Channel conservation counters sum (the law holds per partition and
  // over the sum).
  EXPECT_EQ(total.chan_frames, a.chan_frames + b.chan_frames);
  EXPECT_EQ(total.chan_rx_starts, a.chan_rx_starts + b.chan_rx_starts);
  EXPECT_EQ(total.chan_rx_ends, a.chan_rx_ends + b.chan_rx_ends);
  EXPECT_EQ(total.chan_rx_live_at_end,
            a.chan_rx_live_at_end + b.chan_rx_live_at_end);

  // TDMA schedule health sums.
  EXPECT_EQ(total.tdma_beacons_sent,
            a.tdma_beacons_sent + b.tdma_beacons_sent);
  EXPECT_EQ(total.tdma_beacons_heard,
            a.tdma_beacons_heard + b.tdma_beacons_heard);
  EXPECT_EQ(total.tdma_slots_skipped,
            a.tdma_slots_skipped + b.tdma_slots_skipped);

  // Lifetime: deaths and until-bits sum, time-to-first-* take the
  // earliest value, the drawn fraction takes the max.
  EXPECT_EQ(total.battery_deaths, a.battery_deaths + b.battery_deaths);
  EXPECT_EQ(total.time_to_first_death, a.time_to_first_death);
  EXPECT_EQ(total.time_to_sink_partition, a.time_to_sink_partition);
  EXPECT_EQ(total.delivered_bits_until_first_death,
            a.delivered_bits_until_first_death +
                b.delivered_bits_until_first_death);
  EXPECT_EQ(total.delivered_bits_until_partition,
            a.delivered_bits_until_partition +
                b.delivered_bits_until_partition);
  EXPECT_EQ(total.battery_max_drawn_fraction, b.battery_max_drawn_fraction);

  // Sharded visibility: per-shard event vectors concatenate in fold
  // order, boundary exports and late frames sum, the lateness takes the
  // max.
  ASSERT_EQ(total.shard_events.size(), 2u);
  EXPECT_EQ(total.shard_events[0], a.shard_events[0]);
  EXPECT_EQ(total.shard_events[1], b.shard_events[0]);
  EXPECT_EQ(total.boundary_frames, a.boundary_frames + b.boundary_frames);
  EXPECT_EQ(total.late_boundary_frames,
            a.late_boundary_frames + b.late_boundary_frames);
  EXPECT_EQ(total.boundary_lateness_max_s, b.boundary_lateness_max_s);
}

TEST(MergeMetrics, TimeToFirstSentinelsNeverWin) {
  // -1 means "never happened": it must lose to any real value in either
  // direction and survive only when both sides are sentinels.
  app::RunMetrics total;
  app::RunMetrics part;
  part.time_to_first_death = 42.0;
  part.time_to_sink_partition = 43.0;
  app::detail::merge_metrics(total, part);
  EXPECT_EQ(total.time_to_first_death, 42.0);
  EXPECT_EQ(total.time_to_sink_partition, 43.0);

  app::RunMetrics sentinel_part;
  app::detail::merge_metrics(total, sentinel_part);
  EXPECT_EQ(total.time_to_first_death, 42.0);
  EXPECT_EQ(total.time_to_sink_partition, 43.0);

  app::RunMetrics earlier;
  earlier.time_to_first_death = 7.0;
  earlier.time_to_sink_partition = 8.0;
  app::detail::merge_metrics(total, earlier);
  EXPECT_EQ(total.time_to_first_death, 7.0);
  EXPECT_EQ(total.time_to_sink_partition, 8.0);

  app::RunMetrics never_total;
  app::RunMetrics never_part;
  app::detail::merge_metrics(never_total, never_part);
  EXPECT_EQ(never_total.time_to_first_death, -1.0);
  EXPECT_EQ(never_total.time_to_sink_partition, -1.0);
}

}  // namespace
}  // namespace bcp
