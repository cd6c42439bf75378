#include "gateway.hpp"

#include <map>
#include <tuple>

#include "openflow/conntrack.hpp"

namespace harmless::suite::gateway {

namespace {
constexpr std::uint8_t kTcp = 6;
constexpr std::uint16_t kNatPortMin = 1024;
constexpr std::uint16_t kNatPortMax = 65535;
}  // namespace

net::MacAddr inside_mac(int index) {
  return net::MacAddr::from_u64(0x020000000201ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr inside_ip(int index) {
  return net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(1 + index));
}
net::MacAddr server_mac() { return net::MacAddr::from_u64(0x0200000002ffULL); }
net::Ipv4Addr server_ip() { return net::Ipv4Addr(198, 51, 100, 10); }
net::MacAddr gateway_mac() { return net::MacAddr::from_u64(0x02000000fffeULL); }
net::Ipv4Addr external_base() { return net::Ipv4Addr(203, 0, 113, 1); }

openflow::CtAction action_for(std::uint32_t of_port) {
  if (of_port < 1 || of_port > static_cast<std::uint32_t>(kInside)) return openflow::CtAction{};
  return openflow::CtAction{openflow::CtAction::Nat::kSource,
                            external_base().value() + (of_port - 1), kNatPortMin, kNatPortMax};
}

std::vector<openflow::FlowModMsg> rules() {
  std::vector<openflow::FlowModMsg> mods;
  const auto add = [&mods](std::uint8_t table, std::uint16_t priority, openflow::Match match,
                           openflow::Instructions instructions) {
    openflow::FlowModMsg mod;
    mod.table_id = table;
    mod.priority = priority;
    mod.match = std::move(match);
    mod.instructions = std::move(instructions);
    mods.push_back(std::move(mod));
  };
  for (int i = 0; i < kInside; ++i) {
    const auto port = static_cast<std::uint32_t>(i + 1);
    add(0, 110,
        openflow::Match().in_port(port).eth_type(0x0800).ip_proto(kTcp).ct_state(0, openflow::kCtInvalid),
        openflow::apply({action_for(port), openflow::set_eth_dst(server_mac()),
                         openflow::output(kServerOfPort)}));
    add(1, 100, openflow::Match().eth_type(0x0800).ip_dst(inside_ip(i)),
        openflow::apply({openflow::set_eth_dst(inside_mac(i)), openflow::output(port)}));
  }
  add(0, 110, openflow::Match().in_port(kServerOfPort).eth_type(0x0800).ip_proto(kTcp).ct_tracked(),
      openflow::apply_then_goto({openflow::ct_commit()}, 1));
  add(0, 0, openflow::Match{}, openflow::Instructions{});
  add(1, 0, openflow::Match{}, openflow::Instructions{});
  return mods;
}

openflow::CtConfig ct_config() {
  openflow::CtConfig config;
  config.max_connections = 131072;
  config.tcp_transient_timeout = 2'000'000;
  config.sweep_interval = 1'000'000;
  return config;
}

std::size_t preload(softswitch::SoftSwitch& gw, std::size_t count, sim::SimNanos now) {
  openflow::Pipeline& pipeline = gw.pipeline();
  const std::size_t shards = pipeline.shard_count();
  std::size_t failures = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const int client = static_cast<int>(k % kInside);
    const openflow::CtTuple orig{inside_ip(client).value(), server_ip().value(),
                                 static_cast<std::uint16_t>(1024 + k / kInside), kServerTcpPort,
                                 kTcp};
    openflow::ConnTracker& ct = pipeline.conntrack(orig.symmetric_hash() % shards);
    const openflow::CtOutcome out =
        ct.process(orig, net::kTcpSyn, now, action_for(static_cast<std::uint32_t>(client + 1)));
    if (!out.rewrite) {
      ++failures;
      continue;
    }
    const openflow::CtTuple reply{server_ip().value(), out.translation.src_ip, kServerTcpPort,
                                  out.translation.src_port, kTcp};
    ct.process(reply, net::kTcpSyn | net::kTcpAck, now, openflow::CtAction{});
  }
  return failures;
}

std::uint64_t nat_conflicts(const std::vector<const softswitch::SoftSwitch*>& boxes) {
  // (server ip, server port, external ip, external port) -> original tuple
  using Key = std::tuple<std::uint32_t, std::uint16_t, std::uint32_t, std::uint16_t>;
  using Orig = std::tuple<std::uint32_t, std::uint16_t, std::uint32_t, std::uint16_t>;
  std::map<Key, Orig> owner;
  std::uint64_t conflicts = 0;
  for (const softswitch::SoftSwitch* box : boxes) {
    const openflow::Pipeline& pipeline = box->pipeline();
    if (!pipeline.conntrack_enabled()) continue;
    for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard) {
      for (const openflow::ConnEntry& entry : pipeline.conntrack(shard).snapshot()) {
        if (entry.nat.kind != openflow::CtAction::Nat::kSource) continue;
        const Key key{entry.orig.dst_ip, entry.orig.dst_port, entry.nat.ip, entry.nat.port};
        const Orig orig{entry.orig.src_ip, entry.orig.src_port, entry.orig.dst_ip,
                        entry.orig.dst_port};
        const auto [it, inserted] = owner.emplace(key, orig);
        if (!inserted && it->second != orig) ++conflicts;
      }
    }
  }
  return conflicts;
}

}  // namespace harmless::suite::gateway
