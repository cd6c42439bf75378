#include "sim/link.hpp"

#include <utility>

namespace harmless::sim {

Channel::Channel(Engine& engine, LinkSpec spec, std::string label)
    : engine_(engine),
      spec_(spec),
      label_(std::move(label)),
      departures_(spec.queue_capacity_packets) {}

std::size_t Channel::queue_depth() const {
  std::size_t departed = 0;
  std::size_t index = head_;
  while (departed < queued_ && engine_.passed(departures_[index])) {
    ++departed;
    if (++index == departures_.size()) index = 0;
  }
  return queued_ - departed;
}

void Channel::transmit(net::Packet&& packet) {
  if (!up_) {
    ++drops_down_;
    return;
  }
  // Free the slots of every packet that has departed by now.
  while (queued_ > 0 && engine_.passed(departures_[head_])) {
    --queued_;
    if (++head_ == departures_.size()) head_ = 0;
  }
  if (queued_ >= departures_.size()) {
    ++drops_overflow_;
    return;
  }

  const SimNanos start = std::max(engine_.now(), transmitter_free_);
  if (packet.size() != memo_size_) {
    memo_size_ = packet.size();
    memo_serialization_ = spec_.rate.serialization_ns(memo_size_);
  }
  const SimNanos serialization = memo_serialization_;
  const SimNanos departs = start + serialization;
  const SimNanos arrives = departs + spec_.propagation_delay;
  transmitter_free_ = departs;
  busy_ns_ += serialization;

  // The slot frees when the last bit leaves the transmitter;
  // propagation keeps the packet "in flight" but not "queued".
  std::size_t tail = head_ + queued_;
  if (tail >= departures_.size()) tail -= departures_.size();
  departures_[tail] = engine_.claim(departs);
  ++queued_;

  const std::size_t size = packet.size();
  engine_.schedule_at(arrives, [this, size, packet = std::move(packet)]() mutable {
    // A cable cut loses whatever was in flight: frames arriving while
    // the channel is down are downed-link drops, not deliveries.
    if (!up_) {
      ++drops_down_;
      return;
    }
    delivered_.add(size);
    if (tap_) tap_(engine_.now(), packet);
    if (sink_) sink_(std::move(packet));
  });
}

}  // namespace harmless::sim
