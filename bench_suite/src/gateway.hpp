// gateway.hpp — the SNAT gateway nat_conn_churn and ha_failover share:
// 8 inside 1G ports (OF 1-8) and one 10G server port (OF 9).
//
// Table 0 source-translates inside TCP (client i to external address
// external_base + i, ports 1024-65535) unless conntrack classifies it
// INVALID, and admits server traffic only for tracked connections;
// table 1 routes the un-NATed replies by inside address. Everything
// else hits a priority-0 drop.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.hpp"
#include "net/mac.hpp"
#include "openflow/messages.hpp"
#include "softswitch/soft_switch.hpp"

namespace harmless::suite::gateway {

constexpr int kInside = 8;
constexpr std::uint32_t kServerOfPort = kInside + 1;
constexpr std::uint16_t kServerTcpPort = 80;

net::MacAddr inside_mac(int index);
net::Ipv4Addr inside_ip(int index);
net::MacAddr server_mac();
net::Ipv4Addr server_ip();
net::MacAddr gateway_mac();
net::Ipv4Addr external_base();

/// The `ct` action table 0 applies to traffic arriving on `of_port`.
openflow::CtAction action_for(std::uint32_t of_port);

std::vector<openflow::FlowModMsg> rules();

/// Conntrack shard config: a 2 ms transient timeout and 1 ms sweeps,
/// so closed connections expire inside the measured window.
openflow::CtConfig ct_config();

/// Preload `count` established connections (ConnTracker::process on a
/// SYN and its SYN/ACK) into the shards their flows steer to; returns
/// how many could not be translated.
std::size_t preload(softswitch::SoftSwitch& gw, std::size_t count, sim::SimNanos now);

/// Live SNAT bindings across `boxes` where one external (ip, port)
/// toward one server endpoint belongs to two different connections.
std::uint64_t nat_conflicts(const std::vector<const softswitch::SoftSwitch*>& boxes);

}  // namespace harmless::suite::gateway
