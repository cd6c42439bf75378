#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace harmless::sim {

FaultPlan& FaultPlan::down(const std::string& target, SimNanos at, SimNanos duration) {
  events.push_back(FaultEvent{at, FaultEvent::Kind::kDown, target});
  if (duration > 0) events.push_back(FaultEvent{at + duration, FaultEvent::Kind::kUp, target});
  return *this;
}

FaultPlan& FaultPlan::up(const std::string& target, SimNanos at) {
  events.push_back(FaultEvent{at, FaultEvent::Kind::kUp, target});
  return *this;
}

FaultPlan& FaultPlan::impair(const std::string& target, SimNanos at, double loss,
                             SimNanos extra_latency, SimNanos duration) {
  events.push_back(FaultEvent{at, FaultEvent::Kind::kImpair, target, loss, extra_latency});
  if (duration > 0)
    events.push_back(FaultEvent{at + duration, FaultEvent::Kind::kImpair, target, 0.0, 0});
  return *this;
}

FaultPlan& FaultPlan::crash(const std::string& target, SimNanos at, SimNanos duration) {
  events.push_back(FaultEvent{at, FaultEvent::Kind::kCrash, target});
  if (duration > 0)
    events.push_back(FaultEvent{at + duration, FaultEvent::Kind::kRestart, target});
  return *this;
}

FaultPlan& FaultPlan::restart(const std::string& target, SimNanos at) {
  events.push_back(FaultEvent{at, FaultEvent::Kind::kRestart, target});
  return *this;
}

namespace {

/// Shared generator for the random schedule helpers: `count` windows of
/// (start, duration) inside [begin, end), exponential durations.
template <typename EmitFn>
void random_windows(std::uint64_t seed, std::uint64_t stream, std::size_t count,
                    SimNanos window_begin, SimNanos window_end, SimNanos mean_duration,
                    EmitFn&& emit) {
  if (count == 0 || window_end <= window_begin) return;
  // Distinct deterministic stream per helper call: same plan, same
  // events, regardless of how many other helpers ran before.
  util::Rng rng(seed + 0x9e3779b97f4a7c15ULL * (stream + 1));
  const auto window = static_cast<std::uint64_t>(window_end - window_begin);
  for (std::size_t i = 0; i < count; ++i) {
    const SimNanos start = window_begin + static_cast<SimNanos>(rng.below(window));
    SimNanos duration = static_cast<SimNanos>(
        std::llround(rng.exponential(static_cast<double>(std::max<SimNanos>(mean_duration, 1)))));
    duration = std::clamp<SimNanos>(duration, 1, window_end - start);
    emit(start, duration);
  }
}

}  // namespace

FaultPlan& FaultPlan::random_outages(const std::string& target, std::size_t count,
                                     SimNanos window_begin, SimNanos window_end,
                                     SimNanos mean_duration) {
  random_windows(seed, random_draws_++, count, window_begin, window_end, mean_duration,
                 [&](SimNanos start, SimNanos duration) { down(target, start, duration); });
  return *this;
}

FaultPlan& FaultPlan::random_crashes(const std::string& target, std::size_t count,
                                     SimNanos window_begin, SimNanos window_end,
                                     SimNanos mean_duration) {
  random_windows(seed, random_draws_++, count, window_begin, window_end, mean_duration,
                 [&](SimNanos start, SimNanos duration) { crash(target, start, duration); });
  return *this;
}

void FaultInjector::register_point(const std::string& name, FaultPoint& point) {
  auto& points = points_[name];
  if (std::find(points.begin(), points.end(), &point) != points.end())
    throw util::ConfigError("FaultInjector: point already registered under target '" + name +
                            "'");
  points.push_back(&point);
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    if (!has_target(event.target))
      throw util::ConfigError("FaultInjector: unknown fault target '" + event.target + "'");
    ++stats_.armed;
    // By-value capture: the plan need not outlive arm().
    engine_.schedule_at(event.at, [this, event] { apply(event); });
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  ++stats_.fired;
  for (FaultPoint* point : points_.at(event.target)) {
    switch (event.kind) {
      case FaultEvent::Kind::kDown:
      case FaultEvent::Kind::kUp:
        point->fault_set_up(event.kind == FaultEvent::Kind::kUp);
        break;
      case FaultEvent::Kind::kImpair:
        point->fault_impair(event.loss, event.extra_latency);
        break;
      case FaultEvent::Kind::kCrash:
        point->fault_crash();
        break;
      case FaultEvent::Kind::kRestart:
        point->fault_restart();
        break;
    }
  }
}

}  // namespace harmless::sim
