// Sleep-cycled single-radio node — the §1 strawman BCP is motivated
// against: "One solution is to sleep cycle the radio, alternating the
// state of the radio between sleep and idle. However, such sleep cycling
// cannot reduce the idling energy sufficiently for use in sensor
// networks."
//
// An idealized power-save mode: every node wakes on a network-synchronized
// schedule (`period`, `duty` fraction on), exchanges queued traffic during
// the on-window, and sleeps otherwise. Synchronization is free (no beacon
// or ATIM cost is charged), timers are perfect, and the radio is allowed
// to finish an in-flight exchange past the window edge — every
// simplification favours the sleep-cycled network, which is exactly what
// makes the §1 claim meaningful when BCP still beats it.
#pragma once

#include <memory>

#include "app/nodes.hpp"
#include "energy/radio_model.hpp"
#include "mac/csma_mac.hpp"
#include "net/routing.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/sliding_queue.hpp"

namespace bcp::app {

class DutyCycledWifiNode final : public Node {
 public:
  struct Schedule {
    util::Seconds period = 1.0;  ///< wake-up interval
    double duty = 0.1;           ///< fraction of the period spent awake
  };

  DutyCycledWifiNode(sim::Simulator& sim, phy::Channel& channel,
                     const net::Router& routes, net::NodeId self,
                     net::NodeId sink,
                     const energy::RadioEnergyModel& radio_model,
                     Schedule schedule, std::uint64_t seed,
                     DeliverySink* delivery);

  /// Locally generated packets are queued until the next on-window.
  void send(const net::DataPacket& packet) override;

  /// Battery-death teardown: kills the radio mid-whatever, discards
  /// queued traffic, and permanently ends the wake-window chain. Duty
  /// nodes never appear in fault plans, so recover() keeps Node's
  /// refusing default.
  void crash() override;
  /// The one 802.11 radio, powered per on-window.
  NodeRadios radios() override;

  phy::Radio& radio() { return radio_; }
  const phy::Radio& radio() const { return radio_; }
  std::size_t queued() const { return pending_.size(); }

 private:
  void on_window_open();
  void on_window_close();
  void pump();
  void on_rx(const net::Message& msg, net::NodeId from);
  void forward(const net::Message& msg);

  sim::Simulator& sim_;
  const net::Router& routes_;
  net::NodeId self_;
  net::NodeId sink_;
  Schedule schedule_;
  DeliverySink* delivery_;
  phy::Radio radio_;
  mac::CsmaCaMac mac_;
  util::SlidingQueue<net::Message> pending_;  ///< waiting for the next window
  bool window_open_ = false;
  bool awaiting_quiesce_ = false;  ///< window closed, MAC still draining
  std::uint64_t window_generation_ = 0;  ///< guards stale close events
};

}  // namespace bcp::app
