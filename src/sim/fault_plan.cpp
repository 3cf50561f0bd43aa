#include "sim/fault_plan.hpp"

#include <algorithm>
#include <tuple>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:   return "node_crash";
    case FaultKind::kNodeRecover: return "node_recover";
    case FaultKind::kLinkDown:    return "link_down";
    case FaultKind::kLinkUp:      return "link_up";
  }
  return "?";
}

namespace {

constexpr double kEarliestFraction = 0.05;  ///< first fault after 5% of run
constexpr double kLatestFraction = 0.70;    ///< last fault by 70% of run
constexpr double kRecoverByFraction = 0.95; ///< all recoveries inside run

/// Down/up event pair times: onset uniform in the fault window, duration
/// exponential with the given mean, clamped so the up event stays inside
/// the horizon (and at least 1 s after the down — churn, not a glitch).
std::pair<util::Seconds, util::Seconds> draw_window(util::Xoshiro256& rng,
                                                    util::Seconds duration,
                                                    util::Seconds mean_down) {
  const util::Seconds at =
      rng.uniform(kEarliestFraction * duration, kLatestFraction * duration);
  const util::Seconds max_down = kRecoverByFraction * duration - at;
  // Floor then ceiling (not std::clamp: very short runs can make the
  // window narrower than the 1 s floor, and the ceiling must win).
  const util::Seconds down =
      std::min(std::max(rng.exponential(mean_down), 1.0), max_down);
  return {at, at + down};
}

/// k distinct values from 0..n-1 excluding `exclude`, via a partial
/// Fisher-Yates over the candidate list. Order of selection is the
/// deterministic draw order, which downstream time draws key off.
std::vector<std::int32_t> sample_nodes(util::Xoshiro256& rng, int n,
                                       std::int32_t exclude, int k) {
  std::vector<std::int32_t> candidates;
  candidates.reserve(static_cast<std::size_t>(n) - 1);
  for (std::int32_t id = 0; id < n; ++id)
    if (id != exclude) candidates.push_back(id);
  BCP_REQUIRE_MSG(static_cast<std::size_t>(k) <= candidates.size(),
                  "more node crashes requested than non-sink nodes exist");
  for (int i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<int>(rng.uniform_int(candidates.size() -
                                             static_cast<std::size_t>(i)));
    std::swap(candidates[static_cast<std::size_t>(i)],
              candidates[static_cast<std::size_t>(j)]);
  }
  candidates.resize(static_cast<std::size_t>(k));
  return candidates;
}

}  // namespace

FaultPlan::FaultPlan(
    const FaultPlanSpec& spec, int node_count, std::int32_t sink,
    util::Seconds duration,
    const NeighborRows& neighbors) {
  BCP_REQUIRE(node_count >= 2);
  BCP_REQUIRE(sink >= 0 && sink < node_count);
  BCP_REQUIRE(duration > 0);
  BCP_REQUIRE(spec.node_crashes >= 0);
  BCP_REQUIRE(spec.link_flaps >= 0);
  BCP_REQUIRE(spec.mean_downtime > 0);
  BCP_REQUIRE(spec.mean_link_downtime > 0);

  util::Xoshiro256 rng(util::substream(spec.seed, 0, /*salt=*/0x464C5421u));

  // Node churn: distinct victims, one down/up window each.
  const std::vector<std::int32_t> victims =
      sample_nodes(rng, node_count, sink, spec.node_crashes);
  for (const std::int32_t node : victims) {
    const auto [down_at, up_at] =
        draw_window(rng, duration, spec.mean_downtime);
    events_.push_back({down_at, FaultKind::kNodeCrash, node, -1});
    events_.push_back({up_at, FaultKind::kNodeRecover, node, -1});
  }

  // Link flaps: prefer real links (neighbour rows given); de-duplicate
  // pairs so overlapping windows on one link cannot interleave
  // down/down/up.
  std::vector<std::pair<std::int32_t, std::int32_t>> picked;
  int attempts = 0;
  while (static_cast<int>(picked.size()) < spec.link_flaps &&
         attempts < spec.link_flaps * 64) {
    ++attempts;
    std::int32_t a, b;
    if (neighbors) {
      a = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(node_count)));
      const NeighborRow row = neighbors(a);
      if (row.size() == 0) continue;
      b = row.first[rng.uniform_int(row.size())];
    } else {
      a = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(node_count)));
      b = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(node_count)));
      if (a == b) continue;
    }
    const auto pair = std::minmax(a, b);
    if (std::find(picked.begin(), picked.end(),
                  std::pair<std::int32_t, std::int32_t>(pair.first,
                                                        pair.second)) !=
        picked.end())
      continue;
    picked.emplace_back(pair.first, pair.second);
    const auto [down_at, up_at] =
        draw_window(rng, duration, spec.mean_link_downtime);
    events_.push_back({down_at, FaultKind::kLinkDown, pair.first,
                       pair.second});
    events_.push_back({up_at, FaultKind::kLinkUp, pair.first, pair.second});
  }
  BCP_REQUIRE_MSG(static_cast<int>(picked.size()) == spec.link_flaps,
                  "could not find enough distinct links to flap");

  // Explicit extras, validated.
  for (const FaultEvent& ev : spec.events) {
    BCP_REQUIRE(ev.at >= 0);
    BCP_REQUIRE(ev.node >= 0 && ev.node < node_count);
    const bool link_event =
        ev.kind == FaultKind::kLinkDown || ev.kind == FaultKind::kLinkUp;
    if (link_event) {
      BCP_REQUIRE(ev.peer >= 0 && ev.peer < node_count);
      BCP_REQUIRE(ev.peer != ev.node);
    } else {
      BCP_REQUIRE_MSG(ev.node != sink,
                      "the sink must stay alive (crash targets the sink)");
    }
    events_.push_back(ev);
  }

  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.at, x.kind, x.node, x.peer) <
                     std::tie(y.at, y.kind, y.node, y.peer);
            });
}

}  // namespace bcp::sim
