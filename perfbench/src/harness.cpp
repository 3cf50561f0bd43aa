// Runs one benchmark workload for a fixed time and prints one JSON line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --nproc <n> --pins <file> [--trace-out <file>]
//   perfbench_harness --pin-out <file>
//
// Untraced (no --trace-out): alternates the workload's scenario set at its
// full horizon with the same set at a one-window horizon (setup plus
// teardown) until the time is used, and reports every sample. Traced:
// times the per-layer probes, alternates untraced and traced scenario
// sets, reports the per-layer metrics and writes the spans to the file.
// Every scenario run is checked (workloads.hpp); perfbench/run.py turns
// the samples into the benchmark's metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "app/nodes.hpp"
#include "app/scenario.hpp"
#include "core/bcp_agent.hpp"
#include "energy/energy_meter.hpp"
#include "mac/csma_mac.hpp"
#include "net/link_state.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "phy/sharded_channel.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/sysinfo.hpp"
#include "workloads.hpp"

namespace {

using namespace bcp;
using perfbench::SpanRecorder;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ---- JSON output ------------------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& add(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? "," : "") + number(v[i]);
    return raw(key, s + "]");
  }
  JsonObject& add(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? "," : "") + quoted(v[i]);
    return raw(key, s + "]");
  }
  JsonObject& add(const std::string& key, const JsonObject& o) {
    return raw(key, o.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + quoted(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

/// Returns freed heap pages to the OS after each run, so a run's peak RSS
/// does not stack on the fragments its predecessors left in the heap.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// ---- Checked scenario runs --------------------------------------------------

/// Runs scenarios, checks each one, and counts attempts and failures.
class CheckedRunner {
 public:
  CheckedRunner(const Workload& w, const std::string& pins_path) : w_(w) {
    if (w.pinned_seed != 0) pins_.emplace(pins_path);
  }

  /// Runs config `i` (full horizon) or its setup variant; `wall` gets the
  /// run_scenario time only. Returns nullopt when the run threw.
  std::optional<app::RunMetrics> run(std::size_t i, bool full, double* wall,
                                     SpanRecorder* rec = nullptr) {
    const app::ScenarioConfig cfg =
        full ? w_.configs[i] : perfbench::setup_config(w_.configs[i]);
    std::optional<app::RunMetrics> m;
    std::vector<std::string> errors;
    ++attempted_;
    try {
      const auto t0 = Clock::now();
      if (rec != nullptr) {
        auto span = rec->span("app.run_scenario");
        m = app::run_scenario(cfg);
      } else {
        m = app::run_scenario(cfg);
      }
      if (wall != nullptr) *wall += seconds_since(t0);
      release_free_memory();
      errors = perfbench::check_invariants(cfg, *m, full);
      if (full && pins_) {
        const std::string pin =
            pins_->check(w_.pinned_seed, w_.labels[i], *m);
        if (!pin.empty()) errors.push_back("pin mismatch: " + pin);
      }
      if (full) {
        // Every repetition of one config must reproduce the first.
        if (reference_.size() <= i) reference_.resize(w_.configs.size());
        if (!reference_[i]) {
          reference_[i] = m;
        } else {
          const std::string diff =
              perfbench::first_difference(*reference_[i], *m);
          if (!diff.empty()) errors.push_back("repeat differs: " + diff);
        }
      }
    } catch (const std::exception& e) {
      errors.push_back(std::string("threw: ") + e.what());
      m.reset();
    }
    fail(w_.labels[i], errors);
    return m;
  }

  /// Identical metrics at sim_threads=1 and the workload's thread count,
  /// checked once per run on the workload's first config.
  void check_thread_determinism() {
    if (w_.shards <= 1) return;
    app::ScenarioConfig cfg = w_.configs[0];
    cfg.sim_threads = 1;
    std::vector<std::string> errors;
    ++attempted_;
    try {
      const app::RunMetrics inline_run = app::run_scenario(cfg);
      errors = perfbench::check_invariants(cfg, inline_run, true);
      double ignored = 0;
      if (const auto threaded = run(0, true, &ignored)) {
        const std::string diff =
            perfbench::first_difference(inline_run, *threaded);
        if (!diff.empty())
          errors.push_back("sim_threads=1 vs " +
                           std::to_string(w_.sim_threads) + ": " + diff);
      }
    } catch (const std::exception& e) {
      errors.push_back(std::string("threw: ") + e.what());
    }
    fail(w_.labels[0] + " (sim_threads=1)", errors);
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void fail(const std::string& label, const std::vector<std::string>& errors) {
    if (errors.empty()) return;
    ++failed_;
    for (const auto& e : errors)
      if (errors_.size() < 20) errors_.push_back(label + ": " + e);
  }

  const Workload& w_;
  std::optional<perfbench::PinTable> pins_;
  std::vector<std::optional<app::RunMetrics>> reference_;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> errors_;
};

// ---- Per-layer probes -------------------------------------------------------

/// Repeats `fn` (at least 3 times, until ~0.3 s or 50 reps) under a span
/// named `name`; returns the median span duration in seconds.
template <typename Fn>
double probe(SpanRecorder& rec, const std::string& name, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 50 && (rep < 3 || seconds_since(t0) < 0.3);
       ++rep) {
    auto span = rec.span(name);
    fn();
  }
  return median(rec.durations_s(name));
}

util::Metres wifi_range(const app::ScenarioConfig& cfg) {
  return cfg.wifi_range_override > 0 ? cfg.wifi_range_override
                                     : cfg.wifi_radio.range;
}

/// A self-rescheduling event: the hold model (constant pending-set size).
struct Hold {
  sim::Simulator* sim = nullptr;
  util::Xoshiro256* rng = nullptr;
  std::uint64_t* remaining = nullptr;
  void fire() const {
    if (*remaining == 0) return;
    --*remaining;
    const double delay =
        static_cast<double>((*rng)() >> 11) * 0x1.0p-53 + 1e-9;
    sim->schedule_in(delay, [h = *this] { h.fire(); });
  }
};

void run_probes(const Workload& w, SpanRecorder& rec, JsonObject& out) {
  const app::ScenarioConfig& cfg = w.configs[w.probe_index];
  const int n = cfg.topology.node_count();
  auto root = rec.span("probes");

  net::Topology topo;
  out.add("net.topology_build_s", probe(rec, "net.topology_build", [&] {
            topo = cfg.topology.build();
          }));

  std::shared_ptr<const net::ConnectivityGraph> low;
  std::shared_ptr<const net::ConnectivityGraph> high;
  out.add("net.graph_build_s", probe(rec, "net.graph_build", [&] {
            {
              auto s = rec.span("net.ConnectivityGraph");
              low = std::make_shared<const net::ConnectivityGraph>(
                  topo.positions, cfg.sensor_radio.range);
            }
            auto s = rec.span("net.ConnectivityGraph");
            high = std::make_shared<const net::ConnectivityGraph>(
                topo.positions, wifi_range(cfg));
          }));

  out.add("net.convergecast_build_s",
          probe(rec, "net.convergecast_build", [&] {
            {
              auto s = rec.span("net.ConvergecastRouting");
              const net::ConvergecastRouting a(*low, topo.sink);
            }
            auto s = rec.span("net.ConvergecastRouting");
            const net::ConvergecastRouting b(*high, topo.sink);
          }));

  // All-pairs tables exist only up to kAllPairsNodeLimit nodes; larger
  // workloads time them on the 6x6 paper grid with their own radio ranges.
  const bool all_pairs = n <= app::kAllPairsNodeLimit;
  const net::Topology small =
      all_pairs ? topo : net::TopologySpec{}.build();
  const net::ConnectivityGraph small_low(small.positions,
                                         cfg.sensor_radio.range);
  const net::ConnectivityGraph small_high(small.positions, wifi_range(cfg));
  out.add("net.routing_table_build_s",
          probe(rec, "net.routing_table_build", [&] {
            {
              auto s = rec.span("net.RoutingTable");
              const net::RoutingTable a(small_low);
            }
            auto s = rec.span("net.RoutingTable");
            const net::RoutingTable b(small_high);
          }));

  // One DynamicRouting rebuild per LinkState change, under the workload's
  // route policy (a flat cost stands in for battery fractions).
  {
    net::LinkState links(n);
    const net::DynamicRouting routes(
        *low, topo.sink, links,
        all_pairs && cfg.routing != app::RoutingMode::kConvergecast,
        cfg.route_policy, [](net::NodeId id) { return 1.0 + (id % 7) * 0.1; });
    const net::NodeId far = n - 1;
    const net::NodeId victim = n / 2 == topo.sink ? 1 : n / 2;
    routes.next_hop(far, topo.sink);  // initial build
    bool up = true;
    out.add("net.dynamic_rebuild_s", probe(rec, "net.dynamic_rebuild", [&] {
              {
                auto s = rec.span("net.LinkState.set_node_up");
                up = !up;
                links.set_node_up(victim, up);
              }
              auto s = rec.span("net.DynamicRouting.next_hop");
              routes.next_hop(far, topo.sink);
            }));
  }

  {
    phy::PropagationSpec spec = cfg.propagation;
    if (spec.resolved() != phy::PropagationKind::kLogDistance)
      spec = phy::PropagationSpec{};
    spec.kind = phy::PropagationKind::kLogDistance;
    out.add("phy.link_model_build_s", probe(rec, "phy.link_model_build", [&] {
              const auto model =
                  phy::make_propagation_model(spec, *low, 0.0, cfg.seed);
            }));
  }

  {
    const phy::Channel::Params params{cfg.frame_loss_prob, cfg.propagation};
    if (w.shards > 1) {
      sim::ShardedSimulator engine({w.shards, 1, cfg.shard_window});
      const phy::ShardMap map =
          phy::ShardMap::stripes(topo.positions, w.shards);
      std::optional<phy::ShardedMedium> a;
      std::optional<phy::ShardedMedium> b;
      out.add("phy.partition_channels_build_s",
              probe(rec, "phy.partition_channels_build", [&] {
                a.reset();
                b.reset();
                {
                  auto s = rec.span("phy.ShardedMedium");
                  a.emplace(engine, low, map, params, cfg.seed);
                }
                auto s = rec.span("phy.ShardedMedium");
                b.emplace(engine, high, map, params, cfg.seed);
              }));
    } else {
      sim::Simulator sim;
      std::optional<phy::Channel> a;
      std::optional<phy::Channel> b;
      out.add("phy.partition_channels_build_s",
              probe(rec, "phy.partition_channels_build", [&] {
                a.reset();
                b.reset();
                {
                  auto s = rec.span("phy.Channel");
                  a.emplace(sim, low, params, cfg.seed);
                }
                auto s = rec.span("phy.Channel");
                b.emplace(sim, high, params, cfg.seed);
              }));
    }
  }

  {
    // Hold model: n pending events, 2M dispatches per repetition.
    constexpr std::uint64_t kDispatches = 2'000'000;
    std::vector<double> ns_per_event;
    probe(rec, "sim.kernel_loop", [&] {
      sim::Simulator sim;
      util::Xoshiro256 rng(cfg.seed);
      std::uint64_t remaining = kDispatches;
      const Hold hold{&sim, &rng, &remaining};
      for (int i = 0; i < n; ++i) hold.fire();
      const auto t0 = Clock::now();
      sim.run();
      ns_per_event.push_back(seconds_since(t0) * 1e9 /
                             static_cast<double>(sim.processed_count()));
    });
    out.add("sim.kernel_ns_per_event", median(ns_per_event));
  }

  {
    constexpr int kWindows = 2000;
    std::vector<double> us_per_window;
    sim::ShardedSimulator engine({w.shards, w.sim_threads, cfg.shard_window});
    probe(rec, "sim.window_loop", [&] {
      const auto t0 = Clock::now();
      engine.run(engine.window() *
                 static_cast<double>(engine.current_window() + kWindows));
      us_per_window.push_back(seconds_since(t0) * 1e6 / (kWindows + 2));
    });
    out.add("sim.window_us", median(us_per_window));
  }

  out.add("app.sizeof_dual_radio_node", sizeof(app::DualRadioNode))
      .add("mac.sizeof_csma_mac", sizeof(mac::CsmaCaMac))
      .add("core.sizeof_bcp_agent", sizeof(core::BcpAgent))
      .add("phy.sizeof_radio", sizeof(phy::Radio))
      .add("energy.sizeof_energy_meter", sizeof(energy::EnergyMeter));
}

/// Per-layer counts of one scenario set (deterministic per seed).
void add_counts(const std::vector<app::RunMetrics>& runs, JsonObject& out) {
  double frames = 0, rx_starts = 0, events = 0, boundary = 0, attempts = 0,
         tx_failed = 0, wakeups = 0, sessions = 0, hs_failed = 0,
         deaths = 0, rebuilds = 0, imbalance = 1.0;
  for (const auto& m : runs) {
    frames += static_cast<double>(m.chan_frames);
    rx_starts += static_cast<double>(m.chan_rx_starts);
    events += static_cast<double>(m.events_processed);
    boundary += static_cast<double>(m.boundary_frames);
    attempts += static_cast<double>(m.mac_tx_attempts);
    tx_failed += static_cast<double>(m.mac_tx_failed);
    wakeups += static_cast<double>(m.bcp_wakeups);
    sessions += static_cast<double>(m.bcp_sender_sessions);
    hs_failed += static_cast<double>(m.bcp_handshakes_failed);
    deaths += static_cast<double>(m.battery_deaths);
    rebuilds += static_cast<double>(m.route_rebuilds);
    if (!m.shard_events.empty()) {
      double sum = 0, mx = 0;
      for (const auto e : m.shard_events) {
        sum += static_cast<double>(e);
        mx = std::max(mx, static_cast<double>(e));
      }
      if (sum > 0)
        imbalance = std::max(
            imbalance, mx * static_cast<double>(m.shard_events.size()) / sum);
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.add("net.route_rebuilds", rebuilds)
      .add("phy.frames", frames)
      .add("phy.rx_starts", rx_starts)
      .add("sim.events", events)
      .add("sim.shard_imbalance", imbalance)
      .add("sim.boundary_frames", boundary)
      .add("mac.tx_attempts", attempts)
      .add("mac.tx_fail_ratio", ratio(tx_failed, attempts))
      .add("core.wakeups", wakeups)
      .add("core.sessions", sessions)
      .add("core.handshake_fail_ratio", ratio(hs_failed, sessions + hs_failed))
      .add("energy.battery_deaths", deaths);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int nproc = 1;
  std::string pins;
  std::string trace_out;
  std::string pin_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--nproc") a.nproc = std::stoi(value);
    else if (key == "--pins") a.pins = value;
    else if (key == "--trace-out") a.trace_out = value;
    else if (key == "--pin-out") a.pin_out = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  return a;
}

int run(const Args& args) {
  const Workload w =
      perfbench::make_workload(args.workload, args.seed, args.nproc);
  CheckedRunner runner(w, args.pins);
  const bool traced = !args.trace_out.empty();
  SpanRecorder rec;
  JsonObject layers;
  const auto start = Clock::now();

  if (traced) run_probes(w, rec, layers);
  runner.check_thread_determinism();

  // Timed loop: stop before an iteration that would overrun the budget.
  std::vector<double> wall, setup, traced_wall;
  std::vector<app::RunMetrics> last_full;
  double events = 0;
  double delivered = 0;
  double iteration_s = 0;
  do {
    const auto it0 = Clock::now();
    double w_full = 0;
    std::vector<app::RunMetrics> full;
    for (std::size_t i = 0; i < w.configs.size(); ++i)
      if (auto m = runner.run(i, true, &w_full)) full.push_back(*m);
    wall.push_back(w_full);
    if (traced) {
      auto span = rec.span("workload.iteration");
      double w_traced = 0;
      for (std::size_t i = 0; i < w.configs.size(); ++i)
        runner.run(i, true, &w_traced, &rec);
      traced_wall.push_back(w_traced);
    } else {
      // Small workloads set up in milliseconds: repeat for ~0.25 s and
      // keep the median repetition.
      std::vector<double> reps;
      const auto s0 = Clock::now();
      do {
        double w_setup = 0;
        for (std::size_t i = 0; i < w.configs.size(); ++i)
          runner.run(i, false, &w_setup);
        reps.push_back(w_setup);
      } while (seconds_since(s0) < 0.25);
      setup.push_back(median(reps));
    }
    if (last_full.empty()) {
      for (const auto& m : full) {
        events += static_cast<double>(m.events_processed);
        delivered += static_cast<double>(m.delivered);
      }
    }
    last_full = std::move(full);
    iteration_s = seconds_since(it0);
  } while (seconds_since(start) + iteration_s <= args.seconds);

  JsonObject out;
  out.add("workload", w.name)
      .add("seed", static_cast<double>(args.seed))
      .add("attempted", runner.attempted())
      .add("failed", runner.failed())
      .add("errors", runner.errors())
      .add("sim_threads", w.sim_threads)
      .add("shards", w.shards)
      .add("events", events)
      .add("delivered", delivered)
      .add("wall_s", wall)
      .add("peak_rss_mib", util::peak_rss_mib());
  JsonObject counts;
  add_counts(last_full, counts);
  out.add("counts", counts);
  if (traced) {
    const double traced_median = median(traced_wall);
    layers.add("trace.wall_s", traced_median)
        .add("trace.overhead_s", traced_median - median(wall))
        .add("trace.spans", static_cast<double>(rec.size()));
    rec.write_jsonl(args.trace_out);
    out.add("layers", layers);
  } else {
    out.add("setup_s", setup);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (!args.pin_out.empty()) {
      perfbench::PinTable::write(args.pin_out);
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
