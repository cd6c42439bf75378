// connections.hpp — short TCP connections from inside clients through
// a SNAT gateway to one server: the traffic of nat_conn_churn and
// ha_failover.
//
// Connections arrive Poisson (open loop) per client. Each is a SYN,
// the server's SYN/ACK `reply_delay` after the SYN arrives (closed loop
// per connection), `segments` data segments of 64B `data_gap` apart,
// then a FIN each way. The client keeps a TCP-like retransmission
// timer: with no progress for `rto` it resends its SYN, or its data and
// FIN (go-back-N: the server answers a FIN only once every segment
// arrived). After `rto_rounds` silent timeouts it abandons the attempt
// and reconnects from a fresh source port; the operation (one
// transfer) fails only after `max_attempts` attempts. Acknowledgements
// other than SYN/ACK and FIN/ACK are not simulated as packets.
//
// Optional persistent connections (ha_failover's survival probes) are
// opened during setup and send one data segment every `persistent_gap`
// per connection until the stop time.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "net/build.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace harmless::suite {

struct ConnectionSpec {
  std::vector<sim::Host*> clients;
  sim::Host* server = nullptr;
  /// SNAT address of client i is external_base + i.
  net::Ipv4Addr external_base;
  net::MacAddr gateway_mac;  // eth_dst of every generated frame
  double connections_per_s = 100'000;
  std::uint16_t server_port = 80;
  std::uint16_t sport_first = 30000;
  std::uint16_t sport_count = 35000;
  sim::SimNanos reply_delay = 20 * kUs;
  sim::SimNanos data_gap = 10 * kUs;
  sim::SimNanos rto = kMs;
  int segments = 16;
  int rto_rounds = 3;
  int max_attempts = 4;
  std::size_t persistent_per_client = 0;
  std::uint16_t persistent_port = 8080;
  std::uint16_t persistent_sport_first = 27000;
  sim::SimNanos persistent_gap = kMs;
};

class Connections {
 public:
  Connections(sim::Engine& engine, Sender& sender, ConnectionSpec spec, std::uint64_t seed);

  /// Receive hooks for the client hosts and the server.
  void client_receive(std::size_t client, const net::Packet& packet, const net::ParsedPacket& parsed);
  void server_receive(const net::Packet& packet, const net::ParsedPacket& parsed);

  /// SYNs of the persistent connections, due at `at`.
  void open_persistent(sim::SimNanos at);
  /// Arrivals from `start`; no new operation at or after `stop`.
  void start(sim::SimNanos start, sim::SimNanos stop);
  /// No operation in flight.
  [[nodiscard]] bool idle() const { return active_ops_ == 0; }

  /// Survival bookkeeping around a gateway crash and the takeover.
  void mark_crash(sim::SimNanos at);
  void mark_takeover(sim::SimNanos at) { takeover_at_ = at; }

  struct Stats {
    std::uint64_t ops = 0;
    std::uint64_t ops_done = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t attempts = 0;
    std::uint64_t attempts_failed = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicate_replies = 0;
    std::uint64_t late_replies = 0;  // for attempts already finished or abandoned
    std::uint64_t persistent_established = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Operations attempted/failed, conn_fail_ratio, sim_conn_setup_p50_us
  /// and _p999_us (first SYN's due time -> SYN/ACK at the client) into
  /// `result`, and a failed check per model violation (un-NATed or
  /// misdelivered replies, leaks).
  void report(RepResult& result) const;
  /// Connections live and established at the crash that delivered
  /// after the takeover, over those live at the crash.
  [[nodiscard]] double survival_ratio() const;
  /// Crash -> first delivery, after the takeover, of a segment of a
  /// connection established before the crash; -1 when none.
  [[nodiscard]] sim::SimNanos recovery_ns() const { return recovery_ns_; }

 private:
  enum class State : std::uint8_t { kSynSent, kEstablished, kFinSent, kDone, kAborted };
  struct Attempt {
    std::uint32_t op = 0;
    std::uint16_t client = 0;
    std::uint16_t sport = 0;
    State state = State::kSynSent;
    std::uint8_t rounds = 0;
    std::uint32_t progress = 0;
    sim::SimNanos done_at = -1;
  };
  struct Op {
    sim::SimNanos first_due = 0;
    std::uint32_t attempts = 0;
  };
  struct ServerConn {
    std::uint32_t segments = 0;  // bitmap of data segments received
    sim::SimNanos created = 0;
    sim::SimNanos last_rx = -1;
    bool persistent = false;
  };
  struct ClientTemplates {
    std::optional<net::TcpTemplate> syn;
    std::optional<net::TcpTemplate> fin;
    std::vector<net::TcpTemplate> data;
  };
  struct ServerTemplates {
    std::optional<net::TcpTemplate> synack;
    std::optional<net::TcpTemplate> finack;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;

  void arrive(std::size_t client);
  void open_attempt(std::uint32_t op, std::size_t client, sim::SimNanos due);
  /// Send `frame` stamped with attempt `id`'s ports from its client.
  void send(std::uint32_t id, const net::TcpTemplate& frame, sim::SimNanos due);
  void send_data(std::uint32_t id, int segment, sim::SimNanos due);
  void arm_rto(std::uint32_t id);
  void on_rto(std::uint32_t id, std::uint32_t progress);
  void finish_op(bool ok);
  [[nodiscard]] std::uint64_t live_at_crash() const;
  void persistent_tick(std::size_t client, std::size_t next, sim::SimNanos due);
  void server_reply(std::size_t client, std::uint16_t ext_port, std::uint16_t dport, bool fin,
                    sim::SimNanos due);
  void error(const std::string& what);

  sim::Engine& engine_;
  Sender& sender_;
  ConnectionSpec spec_;
  std::vector<util::Rng> rngs_;
  std::vector<ClientTemplates> client_tpl_;
  std::vector<ServerTemplates> server_tpl_;
  std::vector<std::vector<std::uint32_t>> attempt_of_sport_;  // [client][sport]
  std::vector<std::uint16_t> next_sport_;
  std::vector<Attempt> attempts_;
  std::vector<Op> ops_;
  std::unordered_map<std::uint64_t, ServerConn> server_conns_;
  std::vector<sim::SimNanos> next_arrival_;
  sim::SimNanos stop_ = 0;
  std::uint64_t active_ops_ = 0;
  Stats stats_;
  util::Histogram setup_ns_{std::size_t{1} << 20};
  std::vector<std::string> errors_;
  std::uint64_t error_count_ = 0;
  sim::SimNanos crash_at_ = -1;
  sim::SimNanos takeover_at_ = -1;
  sim::SimNanos recovery_ns_ = -1;
  std::vector<std::uint32_t> live_at_crash_;
  std::uint64_t persistent_live_at_crash_ = 0;
};

}  // namespace harmless::suite
