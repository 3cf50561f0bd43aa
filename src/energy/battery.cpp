#include "energy/battery.hpp"

namespace bcp::energy {

void BatterySpec::validate() const {
  if (!enabled) return;
  BCP_REQUIRE_MSG(sensor_initial_j >= 0.0 && wifi_initial_j >= 0.0,
                  "battery budgets must be non-negative");
  BCP_REQUIRE_MSG(sensor_initial_j > 0.0 || wifi_initial_j > 0.0,
                  "an enabled battery needs a positive budget for at least "
                  "one radio class");
  BCP_REQUIRE_MSG(lifetime_weight >= 0.0,
                  "battery lifetime_weight must be non-negative");
  BCP_REQUIRE_MSG(reroute_period > 0.0,
                  "battery reroute_period must be positive");
}

Battery::Battery(sim::Simulator& sim, util::Joules capacity,
                 std::function<void()> on_depleted)
    : sim_(sim), capacity_(capacity), on_depleted_(std::move(on_depleted)) {
  BCP_REQUIRE_MSG(capacity > 0.0, "battery capacity must be positive");
}

Battery::~Battery() { sim_.cancel(death_event_); }

void Battery::attach(const EnergyMeter* meter) {
  BCP_REQUIRE(meter != nullptr);
  BCP_REQUIRE_MSG(meter_count_ < 2, "a battery drains at most two radios");
  meters_[static_cast<std::size_t>(meter_count_++)] = meter;
}

util::Joules Battery::drawn() const {
  if (depleted_) return drawn_at_death_;
  const util::Seconds now = sim_.now();
  util::Joules sum = 0.0;
  for (int i = 0; i < meter_count_; ++i) {
    sum += meters_[static_cast<std::size_t>(i)]->total_at(now);
  }
  return sum;
}

void Battery::rearm() {
  if (depleted_) return;
  const util::Joules rem = remaining();
  // Already at (or, after an indivisible wake-up lump, past) the budget:
  // die now, deferred one event so the crash never runs inside
  // Radio::set_state.
  util::Seconds delay = 0.0;
  if (rem > 0.0) {
    util::Watts draw = 0.0;
    for (int i = 0; i < meter_count_; ++i) {
      draw += meters_[static_cast<std::size_t>(i)]->current_power();
    }
    if (draw <= 0.0) {  // dark/asleep at zero power: no depletion ahead
      sim_.cancel(death_event_);
      return;
    }
    delay = rem / draw;
  }
  // Move the pending death rather than cancel and recreate it: the same
  // firing order, without recycling the event slot on every state change.
  if (!sim_.reschedule_in(death_event_, delay))
    death_event_ = sim_.schedule_in(delay, [this] { die(); });
}

void Battery::die() {
  if (depleted_) return;
  drawn_at_death_ = drawn();  // snapshot before the flag freezes drawn()
  depleted_ = true;
  death_time_ = sim_.now();
  if (on_depleted_) on_depleted_();
}

}  // namespace bcp::energy
