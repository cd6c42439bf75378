#include "sim/recorder.hpp"

namespace harmless::sim {

void LatencyRecorder::arm(std::uint64_t packet_id, SimNanos sent_at) {
  if (InFlight* flight = in_flight(packet_id)) flight->sent_at = sent_at;
  else in_flight_.insert(InFlight{packet_id, sent_at});
  if (first_sent_ < 0 || sent_at < first_sent_) first_sent_ = sent_at;
}

bool LatencyRecorder::complete(const net::Packet& packet, SimNanos received_at) {
  InFlight* flight = in_flight(packet.id());
  if (flight == nullptr) return false;
  const SimNanos sent_at = flight->sent_at;
  in_flight_.erase(flight);
  latency_ns_.add(static_cast<double>(received_at - sent_at));
  processing_ns_.add(static_cast<double>(packet.processing_ns()));
  hops_.add(static_cast<double>(packet.hops()));
  ++completed_;
  last_received_ = std::max(last_received_, received_at);
  return true;
}

void LatencyRecorder::clear() {
  in_flight_.clear();
  latency_ns_.clear();
  processing_ns_.clear();
  hops_.clear();
  completed_ = 0;
  first_sent_ = -1;
  last_received_ = 0;
}

}  // namespace harmless::sim
