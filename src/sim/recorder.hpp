// sim/recorder.hpp — end-to-end measurement helpers.
//
// LatencyRecorder correlates packet ids between send and receive sides
// and accumulates one-way latency plus per-packet processing cost into
// histograms. Hosts call arm()/complete(); benches read the summaries.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "util/flat_index.hpp"
#include "util/stats.hpp"

namespace harmless::sim {

class LatencyRecorder {
 public:
  /// Register a packet at transmission time. Packet ids are nonzero
  /// (Engine::next_packet_id starts at 1).
  void arm(std::uint64_t packet_id, SimNanos sent_at);

  /// Mark delivery; returns false for unknown ids (e.g. flooded copies
  /// already completed once — only the first delivery counts).
  bool complete(const net::Packet& packet, SimNanos received_at);

  [[nodiscard]] const util::Histogram& latency() const { return latency_ns_; }
  [[nodiscard]] const util::Histogram& processing() const { return processing_ns_; }
  [[nodiscard]] const util::Histogram& hops() const { return hops_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t outstanding() const { return in_flight_.size(); }
  [[nodiscard]] SimNanos first_sent() const { return first_sent_; }
  [[nodiscard]] SimNanos last_received() const { return last_received_; }

  void clear();

 private:
  struct InFlight {
    std::uint64_t packet_id = 0;  // 0 marks an empty cell
    SimNanos sent_at = 0;
    [[nodiscard]] bool empty() const { return packet_id == 0; }
    [[nodiscard]] std::uint64_t hash() const { return packet_id; }
  };
  [[nodiscard]] InFlight* in_flight(std::uint64_t packet_id) {
    return in_flight_.find(packet_id, [packet_id](const InFlight& f) {
      return f.packet_id == packet_id;
    });
  }

  util::FlatIndex<InFlight> in_flight_;
  util::Histogram latency_ns_;
  util::Histogram processing_ns_;
  util::Histogram hops_;
  std::uint64_t completed_ = 0;
  SimNanos first_sent_ = -1;
  SimNanos last_received_ = 0;
};

}  // namespace harmless::sim
