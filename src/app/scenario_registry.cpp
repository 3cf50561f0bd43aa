#include "app/scenario_registry.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace bcp::app {

void ScenarioRegistry::add(std::string name, std::string description,
                           Builder builder) {
  BCP_REQUIRE(builder != nullptr);
  BCP_REQUIRE_MSG(!contains(name), "duplicate scenario variant: " + name);
  variants_.push_back(
      Variant{std::move(name), std::move(description), std::move(builder)});
}

const ScenarioRegistry::Variant* ScenarioRegistry::find(
    const std::string& name) const {
  for (const auto& v : variants_)
    if (v.name == name) return &v;
  return nullptr;
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

ScenarioConfig ScenarioRegistry::make(const std::string& name,
                                      const SweepPoint& point) const {
  const Variant* v = find(name);
  BCP_REQUIRE_MSG(v != nullptr, "unknown scenario variant: " + name);
  return v->build(point);
}

const std::string& ScenarioRegistry::description(
    const std::string& name) const {
  const Variant* v = find(name);
  BCP_REQUIRE_MSG(v != nullptr, "unknown scenario variant: " + name);
  return v->description;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(variants_.size());
  for (const auto& v : variants_) out.push_back(v.name);
  return out;
}

namespace {

/// Shared axis handling for every built-in variant.
ScenarioConfig base_config(bool multi_hop, EvalModel model,
                           const SweepPoint& p) {
  const int senders = p.get_int("senders");
  const int burst = static_cast<int>(p.get_or("burst", 500));
  ScenarioConfig cfg =
      multi_hop
          ? ScenarioConfig::multi_hop(model, senders,
                                      model == EvalModel::kDualRadio ? burst
                                                                    : 1)
          : ScenarioConfig::single_hop(model, senders,
                                       model == EvalModel::kDualRadio ? burst
                                                                      : 1);
  const double rate = p.get_or("rate_bps", 0);
  if (rate > 0) cfg.rate_bps = rate;
  cfg.duration = p.get_or("duration", cfg.duration);
  cfg.frame_loss_prob = p.get_or("loss", 0.0);
  return cfg;
}

/// Shared placement-axis handling for the non-grid variants: builds the
/// base config, then swaps in a generated topology. The placement seed is
/// advanced to the first sink-connected one under the tightest radio
/// range the model routes over, so every registered point is runnable.
ScenarioConfig placed_config(bool multi_hop, EvalModel model,
                             net::TopologyKind kind, const SweepPoint& p) {
  ScenarioConfig cfg = base_config(multi_hop, model, p);
  net::TopologySpec spec;
  spec.kind = kind;
  spec.nodes = static_cast<int>(p.get_or("nodes", 36));
  spec.area = p.get_or("area", 200.0);
  spec.seed = static_cast<std::uint64_t>(p.get_or("topo_seed", 1));
  const util::Metres required_range =
      model == EvalModel::kWifi || model == EvalModel::kWifiDutyCycled
          ? cfg.wifi_range()
          : std::min(cfg.sensor_radio.range, cfg.wifi_range());
  cfg.topology = net::first_connected(spec, required_range);
  return cfg;
}

ScenarioRegistry make_builtin() {
  ScenarioRegistry r;
  struct Preset {
    const char* prefix;
    bool multi_hop;
  };
  for (const Preset preset : {Preset{"sh", false}, Preset{"mh", true}}) {
    const bool mh = preset.multi_hop;
    const std::string px = preset.prefix;
    const char* kind = mh ? "multi-hop (§4.1.2)" : "single-hop (§4.1.1)";
    r.add(px + "/sensor",
          std::string("pure sensor network, ") + kind,
          [mh](const SweepPoint& p) {
            return base_config(mh, EvalModel::kSensor, p);
          });
    r.add(px + "/wifi",
          std::string("pure always-on 802.11 network, ") + kind,
          [mh](const SweepPoint& p) {
            return base_config(mh, EvalModel::kWifi, p);
          });
    r.add(px + "/dual",
          std::string("dual-radio BCP, ") + kind,
          [mh](const SweepPoint& p) {
            return base_config(mh, EvalModel::kDualRadio, p);
          });
    r.add(px + "/wifi-duty",
          std::string("sleep-cycled 802.11 strawman (§1), ") + kind +
              "; axes: duty (required), duty_period_s",
          [mh](const SweepPoint& p) {
            ScenarioConfig cfg =
                base_config(mh, EvalModel::kWifiDutyCycled, p);
            cfg.duty_cycle = p.get("duty");
            cfg.duty_period = p.get_or("duty_period_s", 1.0);
            return cfg;
          });
  }
  // Generated-placement variants of the sh/mh × model matrix. Placement
  // axes (all optional): nodes (default 36), area (square side / corridor
  // length, default 200 m), topo_seed (default 1; auto-advanced to a
  // sink-connected placement).
  struct Placement {
    const char* token;
    net::TopologyKind kind;
  };
  for (const Placement placement :
       {Placement{"rand", net::TopologyKind::kUniformRandom},
        Placement{"cluster", net::TopologyKind::kGaussianClusters},
        Placement{"line", net::TopologyKind::kLineCorridor}}) {
    for (const Preset preset : {Preset{"sh", false}, Preset{"mh", true}}) {
      const bool mh = preset.multi_hop;
      const net::TopologyKind kind = placement.kind;
      const std::string px =
          std::string(preset.prefix) + "-" + placement.token;
      const std::string kind_desc =
          std::string(" on a ") + net::to_string(kind) +
          " placement; axes: nodes, area, topo_seed";
      r.add(px + "/sensor", "pure sensor network" + kind_desc,
            [mh, kind](const SweepPoint& p) {
              return placed_config(mh, EvalModel::kSensor, kind, p);
            });
      r.add(px + "/wifi", "pure always-on 802.11 network" + kind_desc,
            [mh, kind](const SweepPoint& p) {
              return placed_config(mh, EvalModel::kWifi, kind, p);
            });
      r.add(px + "/dual", "dual-radio BCP" + kind_desc,
            [mh, kind](const SweepPoint& p) {
              return placed_config(mh, EvalModel::kDualRadio, kind, p);
            });
    }
  }
  // Lossy-channel variants: the sh/mh × model matrix on the paper grid
  // with the log-distance + shadowing propagation model instead of the
  // idealized unit disc. Axes (all optional): ple (path-loss exponent,
  // default 3), shadow_db (per-link shadowing σ, default 4), margin_db
  // (fade margin at the disc edge, default 6), loss (extra Bernoulli).
  {
    const auto lossy_config = [](bool mh, EvalModel model,
                                 const SweepPoint& p) {
      ScenarioConfig cfg = base_config(mh, model, p);
      cfg.propagation.kind = phy::PropagationKind::kLogDistance;
      cfg.propagation.path_loss_exponent = p.get_or("ple", 3.0);
      cfg.propagation.shadowing_sigma_db = p.get_or("shadow_db", 4.0);
      cfg.propagation.fade_margin_db = p.get_or("margin_db", 6.0);
      return cfg;
    };
    for (const Preset preset : {Preset{"sh", false}, Preset{"mh", true}}) {
      const bool mh = preset.multi_hop;
      const std::string px = std::string("lossy-") + preset.prefix;
      const char* desc_tail =
          " under log-distance + shadowing links; axes: ple, shadow_db, "
          "margin_db";
      r.add(px + "/sensor",
            std::string("pure sensor network") + desc_tail,
            [mh, lossy_config](const SweepPoint& p) {
              return lossy_config(mh, EvalModel::kSensor, p);
            });
      r.add(px + "/wifi",
            std::string("pure always-on 802.11 network") + desc_tail,
            [mh, lossy_config](const SweepPoint& p) {
              return lossy_config(mh, EvalModel::kWifi, p);
            });
      r.add(px + "/dual",
            std::string("dual-radio BCP") + desc_tail,
            [mh, lossy_config](const SweepPoint& p) {
              return lossy_config(mh, EvalModel::kDualRadio, p);
            });
    }
  }
  // SINR-capture variants: collisions resolved by received-power margin
  // instead of the all-overlaps-corrupt rule. Axes (all optional):
  // capture_db (SINR threshold, default 10), loss. The lossy flavours
  // compose the log-distance channel (whose per-link powers make capture
  // actually discriminate — unit-disc collisions are equal-power ties)
  // and accept its ple / shadow_db / margin_db axes too.
  {
    const auto capture_config = [](bool mh, EvalModel model, bool lossy,
                                   const SweepPoint& p) {
      ScenarioConfig cfg = base_config(mh, model, p);
      if (lossy) {
        cfg.propagation.kind = phy::PropagationKind::kLogDistance;
        cfg.propagation.path_loss_exponent = p.get_or("ple", 3.0);
        cfg.propagation.shadowing_sigma_db = p.get_or("shadow_db", 4.0);
        cfg.propagation.fade_margin_db = p.get_or("margin_db", 6.0);
      }
      cfg.capture_enabled = true;
      cfg.capture_threshold_db = p.get_or("capture_db", 10.0);
      return cfg;
    };
    const char* capture_tail =
        " with SINR/capture reception; axes: capture_db";
    const char* capture_lossy_tail =
        " with SINR/capture reception over log-distance links; axes: "
        "capture_db, ple, shadow_db, margin_db";
    r.add("capture-sh/dual",
          std::string("dual-radio BCP, single-hop") + capture_tail,
          [capture_config](const SweepPoint& p) {
            return capture_config(false, EvalModel::kDualRadio, false, p);
          });
    r.add("capture-mh/dual",
          std::string("dual-radio BCP, multi-hop") + capture_tail,
          [capture_config](const SweepPoint& p) {
            return capture_config(true, EvalModel::kDualRadio, false, p);
          });
    r.add("capture-mh/sensor",
          std::string("pure sensor network, multi-hop") + capture_tail,
          [capture_config](const SweepPoint& p) {
            return capture_config(true, EvalModel::kSensor, false, p);
          });
    r.add("capture-lossy-sh/dual",
          std::string("dual-radio BCP, single-hop") + capture_lossy_tail,
          [capture_config](const SweepPoint& p) {
            return capture_config(false, EvalModel::kDualRadio, true, p);
          });
    r.add("capture-lossy-mh/dual",
          std::string("dual-radio BCP, multi-hop") + capture_lossy_tail,
          [capture_config](const SweepPoint& p) {
            return capture_config(true, EvalModel::kDualRadio, true, p);
          });
  }
  // TDMA MAC-family variants: the sink-coordinated slotted MAC replaces
  // CSMA/CA on the model's data radio, slot/guard/beacon timing on the
  // sweep axis. Axes (all optional, class defaults otherwise): slot_ms,
  // guard_ms, beacon_s (0 = auto-tight superframe), drift_ppm.
  {
    const auto tdma_config = [](bool mh, EvalModel model,
                                const SweepPoint& p) {
      ScenarioConfig cfg = base_config(mh, model, p);
      mac::MacSpec& spec = model == EvalModel::kWifi ? cfg.wifi_mac
                                                     : cfg.sensor_mac;
      spec.family = mac::MacFamily::kTdma;
      mac::TdmaParams knobs = model == EvalModel::kWifi
                                  ? mac::tdma_wifi_params()
                                  : mac::tdma_sensor_params();
      knobs.slot_len =
          util::milliseconds(p.get_or("slot_ms", knobs.slot_len / 1e-3));
      knobs.guard =
          util::milliseconds(p.get_or("guard_ms", knobs.guard / 1e-3));
      knobs.beacon_period = p.get_or("beacon_s", 0.0);
      knobs.sync_drift = p.get_or("drift_ppm", knobs.sync_drift * 1e6) * 1e-6;
      spec.tdma = knobs;
      return cfg;
    };
    const char* tdma_tail =
        " under sink-coordinated TDMA; axes: slot_ms, guard_ms, beacon_s, "
        "drift_ppm";
    for (const Preset preset : {Preset{"sh", false}, Preset{"mh", true}}) {
      const bool mh = preset.multi_hop;
      const std::string px = std::string("tdma-") + preset.prefix;
      r.add(px + "/sensor",
            std::string("pure sensor network") + tdma_tail,
            [mh, tdma_config](const SweepPoint& p) {
              return tdma_config(mh, EvalModel::kSensor, p);
            });
      r.add(px + "/wifi",
            std::string("pure always-on 802.11 network") + tdma_tail,
            [mh, tdma_config](const SweepPoint& p) {
              return tdma_config(mh, EvalModel::kWifi, p);
            });
    }
  }
  // Node-churn variants: deterministic crash/recover schedules on the
  // paper grid. Axes (all optional): crashes (default 4), downtime_s
  // (mean, default 60), link_flaps (default 0), fault_seed (default 1),
  // loss.
  {
    const auto churn_config = [](bool mh, EvalModel model,
                                 const SweepPoint& p) {
      ScenarioConfig cfg = base_config(mh, model, p);
      cfg.faults.node_crashes = static_cast<int>(p.get_or("crashes", 4));
      cfg.faults.mean_downtime = p.get_or("downtime_s", 60.0);
      cfg.faults.link_flaps = static_cast<int>(p.get_or("link_flaps", 0));
      cfg.faults.seed =
          static_cast<std::uint64_t>(p.get_or("fault_seed", 1));
      return cfg;
    };
    const char* churn_tail =
        " under node churn; axes: crashes, downtime_s, link_flaps, "
        "fault_seed";
    r.add("churn-mh/sensor",
          std::string("pure sensor network, multi-hop") + churn_tail,
          [churn_config](const SweepPoint& p) {
            return churn_config(true, EvalModel::kSensor, p);
          });
    r.add("churn-mh/dual",
          std::string("dual-radio BCP, multi-hop") + churn_tail,
          [churn_config](const SweepPoint& p) {
            return churn_config(true, EvalModel::kDualRadio, p);
          });
    r.add("churn-sh/dual",
          std::string("dual-radio BCP, single-hop") + churn_tail,
          [churn_config](const SweepPoint& p) {
            return churn_config(false, EvalModel::kDualRadio, p);
          });
  }
  // Finite-battery lifetime variants: every node starts with a per-radio-
  // class energy budget and dies unrecoverably at its exact depletion
  // instant (see ScenarioConfig::battery); the lossy flavours compose the
  // log-distance channel and accept its ple / shadow_db / margin_db axes.
  // Axes (all optional): sensor_j (default 150), wifi_j (default 600),
  // lifetime_routing (non-zero switches DynamicRouting to the battery-
  // fraction cost), weight, reroute_s, loss; wifi-duty adds duty /
  // duty_period_s.
  {
    const auto lifetime_config = [](bool mh, EvalModel model, bool lossy,
                                    const SweepPoint& p) {
      ScenarioConfig cfg = base_config(mh, model, p);
      if (lossy) {
        cfg.propagation.kind = phy::PropagationKind::kLogDistance;
        cfg.propagation.path_loss_exponent = p.get_or("ple", 3.0);
        cfg.propagation.shadowing_sigma_db = p.get_or("shadow_db", 4.0);
        cfg.propagation.fade_margin_db = p.get_or("margin_db", 6.0);
      }
      cfg.battery.enabled = true;
      cfg.battery.sensor_initial_j = p.get_or("sensor_j", 150.0);
      cfg.battery.wifi_initial_j = p.get_or("wifi_j", 600.0);
      cfg.battery.lifetime_weight = p.get_or("weight", 4.0);
      cfg.battery.reroute_period = p.get_or("reroute_s", 30.0);
      if (p.get_or("lifetime_routing", 0.0) != 0.0)
        cfg.route_policy = net::RoutePolicy::kLifetimeAware;
      if (model == EvalModel::kWifiDutyCycled) {
        cfg.duty_cycle = p.get_or("duty", 0.1);
        cfg.duty_period = p.get_or("duty_period_s", 1.0);
      }
      return cfg;
    };
    const char* lifetime_tail =
        " with finite batteries; axes: sensor_j, wifi_j, lifetime_routing, "
        "weight, reroute_s";
    r.add("lifetime-mh/dual",
          std::string("dual-radio BCP, multi-hop") + lifetime_tail,
          [lifetime_config](const SweepPoint& p) {
            return lifetime_config(true, EvalModel::kDualRadio, false, p);
          });
    r.add("lifetime-mh/wifi",
          std::string("pure always-on 802.11 network, multi-hop") +
              lifetime_tail,
          [lifetime_config](const SweepPoint& p) {
            return lifetime_config(true, EvalModel::kWifi, false, p);
          });
    r.add("lifetime-mh/sensor",
          std::string("pure sensor network, multi-hop") + lifetime_tail,
          [lifetime_config](const SweepPoint& p) {
            return lifetime_config(true, EvalModel::kSensor, false, p);
          });
    r.add("lifetime-mh/wifi-duty",
          std::string("sleep-cycled 802.11 strawman, multi-hop") +
              lifetime_tail + ", duty, duty_period_s",
          [lifetime_config](const SweepPoint& p) {
            return lifetime_config(true, EvalModel::kWifiDutyCycled, false,
                                   p);
          });
    r.add("lifetime-lossy-mh/dual",
          std::string("dual-radio BCP, multi-hop, log-distance links") +
              lifetime_tail + ", ple, shadow_db, margin_db",
          [lifetime_config](const SweepPoint& p) {
            return lifetime_config(true, EvalModel::kDualRadio, true, p);
          });
    r.add("lifetime-lossy-mh/wifi",
          std::string(
              "pure always-on 802.11 network, multi-hop, log-distance "
              "links") +
              lifetime_tail + ", ple, shadow_db, margin_db",
          [lifetime_config](const SweepPoint& p) {
            return lifetime_config(true, EvalModel::kWifi, true, p);
          });
  }
  // Sharded parallel-engine variants: the same scenarios on the
  // spatially-sharded single-run engine (its own metrics contract — see
  // ScenarioConfig::shards). Axes (all optional): shards (default 4),
  // sim_threads (default 0 = auto), shard_window_s (default 0.02),
  // nodes/area/topo_seed for the grid placement.
  {
    const auto sharded_config = [](bool mh, EvalModel model,
                                   const SweepPoint& p) {
      ScenarioConfig cfg = base_config(mh, model, p);
      const int nodes = static_cast<int>(p.get_or("nodes", 0));
      if (nodes > 0) {
        net::TopologySpec spec;
        spec.kind = net::TopologyKind::kGrid;
        spec.nodes = nodes;
        const int side = static_cast<int>(
            std::lround(std::sqrt(static_cast<double>(nodes))));
        spec.grid_side = side;
        spec.area = p.get_or("area", cfg.sensor_radio.range * (side - 1));
        cfg.topology = spec;
      }
      cfg.shards = static_cast<int>(p.get_or("shards", 4));
      cfg.sim_threads = static_cast<int>(p.get_or("sim_threads", 0));
      cfg.shard_window = p.get_or("shard_window_s", 0.02);
      return cfg;
    };
    const char* sharded_tail =
        " on the sharded parallel engine; axes: shards, sim_threads, "
        "shard_window_s, nodes, area";
    r.add("sharded-sh/dual",
          std::string("dual-radio BCP, single-hop") + sharded_tail,
          [sharded_config](const SweepPoint& p) {
            return sharded_config(false, EvalModel::kDualRadio, p);
          });
    r.add("sharded-mh/dual",
          std::string("dual-radio BCP, multi-hop") + sharded_tail,
          [sharded_config](const SweepPoint& p) {
            return sharded_config(true, EvalModel::kDualRadio, p);
          });
    r.add("sharded-mh/sensor",
          std::string("pure sensor network, multi-hop") + sharded_tail,
          [sharded_config](const SweepPoint& p) {
            return sharded_config(true, EvalModel::kSensor, p);
          });
  }
  // §5 delay-constrained buffering policies (the open-question ablation).
  r.add("mh/dual-flush-high",
        "dual-radio BCP, deadline flushes a sub-threshold burst over the "
        "802.11 radio; axes: deadline_s",
        [](const SweepPoint& p) {
          ScenarioConfig cfg = base_config(true, EvalModel::kDualRadio, p);
          cfg.bcp.delay_policy = core::DelayPolicy::kFlushHigh;
          cfg.bcp.max_buffering_delay = p.get_or("deadline_s", 60.0);
          return cfg;
        });
  r.add("mh/dual-fallback-low",
        "dual-radio BCP, deadline falls expired packets back to the sensor "
        "radio; axes: deadline_s",
        [](const SweepPoint& p) {
          ScenarioConfig cfg = base_config(true, EvalModel::kDualRadio, p);
          cfg.bcp.delay_policy = core::DelayPolicy::kFallbackLow;
          cfg.bcp.max_buffering_delay = p.get_or("deadline_s", 60.0);
          return cfg;
        });
  // §3 route optimization via shortcut learning.
  r.add("mh/dual-shortcuts",
        "dual-radio BCP with shortcut learning enabled",
        [](const SweepPoint& p) {
          ScenarioConfig cfg = base_config(true, EvalModel::kDualRadio, p);
          cfg.bcp.enable_shortcuts = true;
          return cfg;
        });
  // Alternative high-power radio pairings for the single-hop case.
  r.add("sh/dual-lucent2",
        "dual-radio BCP with the Lucent 2 Mbps card",
        [](const SweepPoint& p) {
          ScenarioConfig cfg = base_config(false, EvalModel::kDualRadio, p);
          cfg.wifi_radio = energy::lucent_2mbps();
          return cfg;
        });
  r.add("sh/dual-cabletron",
        "dual-radio BCP with the Cabletron 2 Mbps card",
        [](const SweepPoint& p) {
          ScenarioConfig cfg = base_config(false, EvalModel::kDualRadio, p);
          cfg.wifi_radio = energy::cabletron_2mbps();
          return cfg;
        });
  return r;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = make_builtin();
  return registry;
}

stats::ResultSink::Metrics standard_metrics(const RunMetrics& m) {
  return {
      {"goodput", m.goodput},
      {"normalized_energy", m.normalized_energy},
      {"normalized_energy_sensor_ideal", m.normalized_energy_sensor_ideal},
      {"normalized_energy_sensor_header", m.normalized_energy_sensor_header},
      {"mean_delay_s", m.mean_delay},
      {"generated", static_cast<double>(m.generated)},
      {"delivered", static_cast<double>(m.delivered)},
      {"dropped_buffer", static_cast<double>(m.dropped_buffer)},
      {"dropped_queue", static_cast<double>(m.dropped_queue)},
      {"dropped_mac", static_cast<double>(m.dropped_mac)},
      {"mac_tx_attempts", static_cast<double>(m.mac_tx_attempts)},
      {"mac_tx_failed", static_cast<double>(m.mac_tx_failed)},
      {"bcp_wakeups", static_cast<double>(m.bcp_wakeups)},
      {"wifi_wakeup_transitions",
       static_cast<double>(m.wifi_wakeup_transitions)},
      {"wifi_on_seconds", m.wifi_on_seconds},
      {"sensor_energy_ideal_J", m.sensor_energy.ideal()},
      {"wifi_energy_full_J", m.wifi_energy.full()},
  };
}

SweepFn scenario_sweep_fn(const ScenarioRegistry& registry,
                          std::vector<std::string> variants) {
  BCP_REQUIRE(!variants.empty());
  for (const auto& v : variants)
    BCP_REQUIRE_MSG(registry.contains(v), "unknown scenario variant: " + v);
  // Copy the registry into the closure: the returned SweepFn routinely
  // outlives caller-built registries.
  return [registry, variants = std::move(variants)](const SweepJob& job) {
    const auto idx = static_cast<std::size_t>(job.point.get_int("variant"));
    BCP_REQUIRE(idx < variants.size());
    ScenarioConfig cfg = registry.make(variants[idx], job.point);
    cfg.seed = job.seed;
    return standard_metrics(run_scenario(cfg));
  };
}

}  // namespace bcp::app
