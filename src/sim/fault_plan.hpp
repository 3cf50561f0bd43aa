// Deterministic fault/churn schedules for a simulation run.
//
// A FaultPlan expands a declarative FaultPlanSpec into a time-sorted list
// of node crash/recover and link down/up events. The expansion is a pure
// function of (spec, node_count, sink, duration, neighbour rows): the same
// inputs always yield byte-identical schedules, so churn scenarios are as
// reproducible as everything else in the simulator — the fault seed is
// part of a run's identity and is exported in bench metadata.
//
// Generation rules:
//   * `node_crashes` distinct non-sink nodes each crash once, at a time
//     uniform in [5%, 70%] of the run, and recover after an
//     exponentially-distributed downtime (mean `mean_downtime`), clamped
//     so the recovery lands before 95% of the run — every generated crash
//     is observed AND recovered within the horizon.
//   * `link_flaps` distinct links (drawn from the neighbour rows when
//     given, so flaps hit real links; arbitrary node pairs otherwise)
//     each go down once and come back up, with the same time rules.
//   * Explicit `events` are merged in and validated (ids in range, no
//     sink crash, non-negative times).
//
// The plan is pure data; app::run_scenario executes it by scheduling one
// simulator event per entry (crashing node assemblies, flipping the
// net::LinkState the channels and DynamicRouting consult).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hpp"

namespace bcp::sim {

enum class FaultKind : std::uint8_t {
  kNodeCrash,
  kNodeRecover,
  kLinkDown,
  kLinkUp,
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  util::Seconds at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  std::int32_t node = -1;  ///< crash/recover target; link endpoint a
  std::int32_t peer = -1;  ///< link endpoint b (link events only)
};

struct FaultPlanSpec {
  int node_crashes = 0;                  ///< generated crash/recover pairs
  util::Seconds mean_downtime = 30.0;    ///< exponential node downtime mean
  int link_flaps = 0;                    ///< generated link down/up pairs
  util::Seconds mean_link_downtime = 20.0;
  std::uint64_t seed = 1;                ///< schedule randomness
  std::vector<FaultEvent> events;        ///< explicit extras, merged in

  bool empty() const {
    return node_crashes == 0 && link_flaps == 0 && events.empty();
  }
};

/// One node's neighbour row: a read-only id range, valid for the
/// FaultPlan constructor call that reads it.
struct NeighborRow {
  const std::int32_t* first = nullptr;
  const std::int32_t* last = nullptr;
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
};

/// Returns node `id`'s neighbour row (a radio connectivity graph's row in
/// a scenario, so the plan needs no copy of the graph).
using NeighborRows = std::function<NeighborRow(std::int32_t id)>;

class FaultPlan {
 public:
  /// Expands `spec` over a `node_count`-node network whose sink is never
  /// crashed. `neighbors` (one row per node, as produced by the radio's
  /// connectivity graph) steers link flaps onto real links; leave it empty
  /// to draw arbitrary pairs. Throws std::invalid_argument when
  /// the spec cannot be satisfied (more crashes than non-sink nodes,
  /// explicit events out of range or crashing the sink).
  FaultPlan(const FaultPlanSpec& spec, int node_count, std::int32_t sink,
            util::Seconds duration,
            const NeighborRows& neighbors = {});

  /// The expanded schedule, sorted by (time, kind, node, peer).
  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace bcp::sim
