#include "connections.hpp"

#include <cmath>

namespace harmless::suite {

namespace {

constexpr std::size_t kMaxErrorsKept = 8;

std::uint64_t server_key(std::size_t client, std::uint16_t ext_port, std::uint16_t dport) {
  return (static_cast<std::uint64_t>(client) << 32) | (static_cast<std::uint64_t>(ext_port) << 16) |
         dport;
}

}  // namespace

Connections::Connections(sim::Engine& engine, Sender& sender, ConnectionSpec spec,
                         std::uint64_t seed)
    : engine_(engine), sender_(sender), spec_(std::move(spec)) {
  const std::size_t clients = spec_.clients.size();
  client_tpl_.resize(clients);
  server_tpl_.resize(clients);
  attempt_of_sport_.assign(clients, std::vector<std::uint32_t>(65536, kNone));
  next_sport_.assign(clients, spec_.sport_first);
  next_arrival_.assign(clients, 0);
  for (std::size_t c = 0; c < clients; ++c) {
    rngs_.emplace_back(source_seed(seed, c));
    net::FlowKey up;
    up.eth_src = spec_.clients[c]->mac();
    up.eth_dst = spec_.gateway_mac;
    up.ip_src = spec_.clients[c]->ip();
    up.ip_dst = spec_.server->ip();
    ClientTemplates& tpl = client_tpl_[c];
    tpl.syn.emplace(up, net::kTcpSyn);
    tpl.fin.emplace(up, net::kTcpFin | net::kTcpAck);
    for (int s = 0; s < spec_.segments; ++s) {
      // 10 payload bytes -> 64B frames; byte 0 names the segment.
      std::string payload(10, '.');
      payload[0] = static_cast<char>(s);
      tpl.data.emplace_back(up, net::kTcpPsh | net::kTcpAck, payload);
    }
    net::FlowKey down;
    down.eth_src = spec_.server->mac();
    down.eth_dst = spec_.gateway_mac;
    down.ip_src = spec_.server->ip();
    down.ip_dst = net::Ipv4Addr(spec_.external_base.value() + static_cast<std::uint32_t>(c));
    server_tpl_[c].synack.emplace(down, net::kTcpSyn | net::kTcpAck);
    server_tpl_[c].finack.emplace(down, net::kTcpFin | net::kTcpAck);
  }
}

void Connections::error(const std::string& what) {
  ++error_count_;
  if (errors_.size() < kMaxErrorsKept) errors_.push_back(what);
}

// ---- client side ---------------------------------------------------------

void Connections::start(sim::SimNanos start, sim::SimNanos stop) {
  stop_ = stop;
  for (std::size_t c = 0; c < spec_.clients.size(); ++c) {
    next_arrival_[c] = start + static_cast<sim::SimNanos>(rngs_[c].below(1000));
    engine_.schedule_at(next_arrival_[c], [this, c] { arrive(c); });
    if (spec_.persistent_per_client > 0) {
      const sim::SimNanos due = start + static_cast<sim::SimNanos>(rngs_[c].below(1000));
      engine_.schedule_at(due, [this, c, due] { persistent_tick(c, 0, due); });
    }
  }
}

void Connections::arrive(std::size_t client) {
  const sim::SimNanos due = next_arrival_[client];
  const auto op = static_cast<std::uint32_t>(ops_.size());
  ops_.push_back(Op{due, 0});
  ++stats_.ops;
  ++active_ops_;
  open_attempt(op, client, due);
  const double mean_gap_ns =
      1e9 * static_cast<double>(spec_.clients.size()) / spec_.connections_per_s;
  const auto gap = static_cast<sim::SimNanos>(std::llround(rngs_[client].exponential(mean_gap_ns)));
  next_arrival_[client] = due + (gap < 1 ? 1 : gap);
  if (next_arrival_[client] < stop_)
    engine_.schedule_at(next_arrival_[client], [this, client] { arrive(client); });
}

void Connections::open_attempt(std::uint32_t op, std::size_t client, sim::SimNanos due) {
  // Next source port whose previous attempt is over.
  const auto after = [this](std::uint16_t port) {
    return static_cast<std::uint16_t>(spec_.sport_first +
                                      (port - spec_.sport_first + 1) % spec_.sport_count);
  };
  std::uint16_t sport = next_sport_[client];
  for (std::uint32_t tries = 0; tries < spec_.sport_count; ++tries) {
    const std::uint32_t prev = attempt_of_sport_[client][sport];
    if (prev == kNone || attempts_[prev].state == State::kDone ||
        attempts_[prev].state == State::kAborted)
      break;
    sport = after(sport);
  }
  next_sport_[client] = after(sport);
  const auto id = static_cast<std::uint32_t>(attempts_.size());
  Attempt attempt;
  attempt.op = op;
  attempt.client = static_cast<std::uint16_t>(client);
  attempt.sport = sport;
  attempts_.push_back(attempt);
  attempt_of_sport_[client][sport] = id;
  ++ops_[op].attempts;
  ++stats_.attempts;
  send(id, *client_tpl_[client].syn, due);
  arm_rto(id);
}

void Connections::send(std::uint32_t id, const net::TcpTemplate& frame, sim::SimNanos due) {
  const Attempt& a = attempts_[id];
  const std::uint16_t sport = a.sport;
  const std::uint16_t dport = spec_.server_port;
  sender_.send(*spec_.clients[a.client], due,
               [&frame, sport, dport] { return frame.stamp(sport, dport); });
}

void Connections::send_data(std::uint32_t id, int segment, sim::SimNanos due) {
  const Attempt& a = attempts_[id];
  if (a.state != State::kEstablished) return;  // abandoned meanwhile
  send(id, client_tpl_[a.client].data[static_cast<std::size_t>(segment)], due);
  const sim::SimNanos next = due + spec_.data_gap;
  if (segment + 1 < spec_.segments) {
    engine_.schedule_at(next, [this, id, segment, next] { send_data(id, segment + 1, next); });
  } else {
    engine_.schedule_at(next, [this, id, next] {
      Attempt& attempt = attempts_[id];
      if (attempt.state != State::kEstablished) return;
      attempt.state = State::kFinSent;
      send(id, *client_tpl_[attempt.client].fin, next);
      arm_rto(id);
    });
  }
}

void Connections::arm_rto(std::uint32_t id) {
  const std::uint32_t progress = attempts_[id].progress;
  engine_.schedule_after(spec_.rto, [this, id, progress] { on_rto(id, progress); });
}

void Connections::on_rto(std::uint32_t id, std::uint32_t progress) {
  Attempt& a = attempts_[id];
  if (a.progress != progress || a.state == State::kDone || a.state == State::kAborted ||
      a.state == State::kEstablished)
    return;
  if (++a.rounds > spec_.rto_rounds) {
    a.state = State::kAborted;
    ++stats_.attempts_failed;
    const std::uint32_t op = a.op;
    if (ops_[op].attempts < static_cast<std::uint32_t>(spec_.max_attempts)) {
      open_attempt(op, a.client, engine_.now());
    } else {
      finish_op(false);
    }
    return;
  }
  const sim::SimNanos now = engine_.now();
  const ClientTemplates& tpl = client_tpl_[a.client];
  if (a.state == State::kSynSent) {
    send(id, *tpl.syn, now);
    ++stats_.retransmissions;
  } else {  // kFinSent: go-back-N over every segment, then the FIN
    for (const net::TcpTemplate& data : tpl.data) send(id, data, now);
    send(id, *tpl.fin, now);
    stats_.retransmissions += tpl.data.size() + 1;
  }
  arm_rto(id);
}

void Connections::finish_op(bool ok) {
  if (ok)
    ++stats_.ops_done;
  else
    ++stats_.ops_failed;
  --active_ops_;
}

void Connections::client_receive(std::size_t client, const net::Packet& packet,
                                 const net::ParsedPacket& parsed) {
  (void)packet;
  if (!parsed.ipv4 || !parsed.tcp) {
    error("non-TCP frame at a client");
    return;
  }
  if (parsed.ipv4->dst != spec_.clients[client]->ip() || parsed.ipv4->src != spec_.server->ip()) {
    error("reply not un-NATed to its inside host (dst " + parsed.ipv4->dst.to_string() + ")");
    return;
  }
  const std::uint16_t sport = parsed.tcp->dst_port;
  const std::uint8_t flags = parsed.tcp->flags;
  if (sport >= spec_.persistent_sport_first &&
      sport < spec_.persistent_sport_first + spec_.persistent_per_client) {
    if ((flags & net::kTcpSyn) != 0) ++stats_.persistent_established;
    return;
  }
  const std::uint32_t id = attempt_of_sport_[client][sport];
  if (id == kNone) {
    error("reply to unused source port " + std::to_string(sport));
    return;
  }
  Attempt& a = attempts_[id];
  if (a.state == State::kDone || a.state == State::kAborted) {
    ++stats_.late_replies;
    return;
  }
  const sim::SimNanos now = engine_.now();
  if ((flags & net::kTcpSyn) != 0) {
    if (a.state != State::kSynSent) {
      ++stats_.duplicate_replies;
      return;
    }
    a.state = State::kEstablished;
    a.rounds = 0;
    ++a.progress;
    setup_ns_.add(static_cast<double>(now - ops_[a.op].first_due));
    const sim::SimNanos first = now + spec_.data_gap;
    engine_.schedule_at(first, [this, id, first] { send_data(id, 0, first); });
    return;
  }
  if ((flags & net::kTcpFin) != 0) {
    if (a.state != State::kFinSent) {
      ++stats_.duplicate_replies;
      return;
    }
    a.state = State::kDone;
    a.done_at = now;
    ++a.progress;
    finish_op(true);
    return;
  }
  error("unexpected client-bound segment flags " + std::to_string(flags));
}

void Connections::open_persistent(sim::SimNanos at) {
  for (std::size_t c = 0; c < spec_.clients.size(); ++c) {
    for (std::size_t p = 0; p < spec_.persistent_per_client; ++p) {
      const auto sport = static_cast<std::uint16_t>(spec_.persistent_sport_first + p);
      const net::TcpTemplate& syn = *client_tpl_[c].syn;
      const std::uint16_t dport = spec_.persistent_port;
      engine_.schedule_at(at, [this, c, &syn, sport, dport, at] {
        sender_.send(*spec_.clients[c], at, [&syn, sport, dport] { return syn.stamp(sport, dport); });
      });
    }
  }
}

void Connections::persistent_tick(std::size_t client, std::size_t next, sim::SimNanos due) {
  const auto sport = static_cast<std::uint16_t>(spec_.persistent_sport_first + next);
  const net::TcpTemplate& data = client_tpl_[client].data.front();
  const std::uint16_t dport = spec_.persistent_port;
  sender_.send(*spec_.clients[client], due, [&data, sport, dport] { return data.stamp(sport, dport); });
  const sim::SimNanos step =
      spec_.persistent_gap / static_cast<sim::SimNanos>(spec_.persistent_per_client);
  const sim::SimNanos at = due + step;
  const std::size_t following = (next + 1) % spec_.persistent_per_client;
  if (at < stop_) engine_.schedule_at(at, [this, client, following, at] { persistent_tick(client, following, at); });
}

// ---- server side --------------------------------------------------------------

void Connections::server_reply(std::size_t client, std::uint16_t ext_port, std::uint16_t dport,
                               bool fin, sim::SimNanos due) {
  engine_.schedule_at(due, [this, client, ext_port, dport, fin, due] {
    const net::TcpTemplate& tpl = fin ? *server_tpl_[client].finack : *server_tpl_[client].synack;
    sender_.send(*spec_.server, due, [&tpl, ext_port, dport] { return tpl.stamp(dport, ext_port); });
  });
}

void Connections::server_receive(const net::Packet& packet, const net::ParsedPacket& parsed) {
  if (!parsed.ipv4 || !parsed.tcp) {
    error("non-TCP frame at the server");
    return;
  }
  const std::uint32_t src = parsed.ipv4->src.value();
  const std::uint32_t base = spec_.external_base.value();
  if (src < base || src - base >= spec_.clients.size()) {
    error("un-NATed packet reached the server (src " + parsed.ipv4->src.to_string() + ")");
    return;
  }
  const std::size_t client = src - base;
  const std::uint16_t ext_port = parsed.tcp->src_port;
  const std::uint16_t dport = parsed.tcp->dst_port;
  const std::uint8_t flags = parsed.tcp->flags;
  const std::uint64_t key = server_key(client, ext_port, dport);
  const sim::SimNanos now = engine_.now();
  if ((flags & net::kTcpSyn) != 0) {
    auto [it, inserted] = server_conns_.try_emplace(key);
    if (inserted) {
      it->second.created = now;
      it->second.persistent = dport == spec_.persistent_port;
    }
    server_reply(client, ext_port, dport, false, now + spec_.reply_delay);
    return;
  }
  const std::uint32_t full =
      spec_.segments >= 32 ? 0xffffffffu : ((1u << spec_.segments) - 1);
  if ((flags & net::kTcpFin) != 0) {
    const auto it = server_conns_.find(key);
    if (it != server_conns_.end() && it->second.segments != full) return;  // wait for the data
    if (it != server_conns_.end()) server_conns_.erase(it);
    server_reply(client, ext_port, dport, true, now + spec_.reply_delay);
    return;
  }
  const std::string_view payload = net::l4_payload(parsed, packet.frame());
  if (payload.empty()) {
    error("data segment without payload at the server");
    return;
  }
  const auto segment = static_cast<unsigned>(static_cast<unsigned char>(payload.front()));
  // A retransmitted segment may arrive after the server closed.
  auto [it, inserted] = server_conns_.try_emplace(key);
  ServerConn& conn = it->second;
  if (inserted) conn.created = now;
  conn.segments |= 1u << (segment % 32);
  conn.last_rx = now;
  if (crash_at_ >= 0 && takeover_at_ >= 0 && recovery_ns_ < 0 && now >= takeover_at_ &&
      conn.created < crash_at_)
    recovery_ns_ = now - crash_at_;
}

void Connections::report(RepResult& result) const {
  result.attempted = stats_.ops;
  result.failed = stats_.ops - stats_.ops_done;
  result.add("conn_fail_ratio", "ratio",
             stats_.attempts == 0 ? 0.0
                                  : static_cast<double>(stats_.attempts_failed) /
                                        static_cast<double>(stats_.attempts));
  result.add("sim_conn_setup_p50_us", "us", setup_ns_.empty() ? 0 : setup_ns_.quantile(0.5) / 1e3);
  result.add("sim_conn_setup_p999_us", "us",
             setup_ns_.empty() ? 0 : setup_ns_.quantile(0.999) / 1e3);
  for (const std::string& what : errors_) result.check(false, what);
  result.check(error_count_ <= errors_.size(),
               std::to_string(error_count_) + " connection-model violations in total");
}

// ---- failover bookkeeping ---------------------------------------------------------

void Connections::mark_crash(sim::SimNanos at) {
  crash_at_ = at;
  for (std::uint32_t id = 0; id < attempts_.size(); ++id)
    if (attempts_[id].state == State::kEstablished || attempts_[id].state == State::kFinSent)
      live_at_crash_.push_back(id);
  persistent_live_at_crash_ = stats_.persistent_established;
}

std::uint64_t Connections::live_at_crash() const {
  return live_at_crash_.size() + persistent_live_at_crash_;
}

double Connections::survival_ratio() const {
  if (live_at_crash() == 0 || takeover_at_ < 0) return 0.0;
  std::uint64_t survived = 0;
  for (const std::uint32_t id : live_at_crash_)
    if (attempts_[id].state == State::kDone && attempts_[id].done_at >= takeover_at_) ++survived;
  for (const auto& [key, conn] : server_conns_)
    if (conn.persistent && conn.created < crash_at_ && conn.last_rx >= takeover_at_) ++survived;
  return static_cast<double>(survived) / static_cast<double>(live_at_crash());
}

}  // namespace harmless::suite
