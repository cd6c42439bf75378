// snat_gateway — the conntrack tier as a NAT gateway: two inside
// hosts behind one external address, per-connection external ports
// allocated by the tracker, replies translated back, unsolicited
// inbound dropped.
//
//   $ ./snat_gateway [--cores N]   (N worker cores, symmetric RSS)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "controller/apps/nat.hpp"
#include "controller/controller.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/table.hpp"

using namespace harmless;

int main(int argc, char** argv) {
  std::size_t cores = 1;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string_view(argv[i]) == "--cores") cores = std::strtoul(argv[i + 1], nullptr, 10);
  std::puts("== Source NAT gateway on the stateful conntrack tier ==\n");

  sim::Network network;
  const softswitch::SwitchSpec spec{
      .ingress = {.cores = {.cores = cores, .rss = sim::RssPolicy::kSymmetric}},
      .conntrack = openflow::CtConfig{}};
  auto& sw = network.add_node<softswitch::SoftSwitch>("natgw", 0x0A, 3, spec);
  openflow::ControlChannel channel(network.engine(), 10'000);
  sw.attach_channel(channel);

  auto& h1 = network.add_host("h1", net::MacAddr::from_u64(0x11), net::Ipv4Addr(10, 0, 0, 1));
  auto& h2 = network.add_host("h2", net::MacAddr::from_u64(0x12), net::Ipv4Addr(10, 0, 0, 2));
  auto& server =
      network.add_host("server", net::MacAddr::from_u64(0x99), net::Ipv4Addr(198, 51, 100, 7));
  network.connect(h1, 0, sw, 0, sim::LinkSpec::gbps(1));
  network.connect(h2, 0, sw, 1, sim::LinkSpec::gbps(1));
  network.connect(server, 0, sw, 2, sim::LinkSpec::gbps(1));
  server.serve_http(80);

  controller::SourceNatConfig nat;
  nat.external_ip = net::Ipv4Addr(203, 0, 113, 1);
  nat.outside_port = 3;
  nat.outside_mac = server.mac();
  nat.inside = {{"h1", h1.mac(), h1.ip(), 1}, {"h2", h2.mac(), h2.ip(), 2}};
  controller::Controller ctrl("nat-controller");
  ctrl.add_app<controller::SourceNatApp>(nat);
  ctrl.connect(channel, "natgw");
  network.run();

  // Each inside host opens a TCP connection (SYN, then the request —
  // conntrack refuses to create connections from mid-stream segments)
  // and fetches a page from the outside server.
  auto fetch = [&](sim::Host& host, std::uint16_t src_port) {
    net::FlowKey key;
    key.eth_src = host.mac();
    key.eth_dst = server.mac();
    key.ip_src = host.ip();
    key.ip_dst = server.ip();
    key.src_port = src_port;
    key.dst_port = 80;
    host.send(net::make_tcp(key, net::kTcpSyn));
    host.send(net::make_http_get(key, "nat.example"));
  };
  fetch(h1, 40001);
  fetch(h2, 40001);  // same private port on purpose: NAT must disambiguate
  network.run();

  util::Table table({"client", "HTTP 200 received", "server saw source"});
  for (const net::ParsedPacket& rx : server.rx_log()) {
    if (!rx.ipv4 || !rx.tcp) continue;
    table.add_row({rx.ipv4->src == nat.external_ip ? "(translated)" : "(LEAKED private!)",
                   "-", rx.ipv4->src.to_string() + ":" + std::to_string(rx.src_port())});
  }
  table.add_row({"h1", h1.counters().http_ok_received == 1 ? "yes" : "NO", "-"});
  table.add_row({"h2", h2.counters().http_ok_received == 1 ? "yes" : "NO", "-"});
  std::cout << table.to_string() << '\n';

  // Unsolicited inbound to the external address: no connection owns
  // that port, so the default-deny drops it at the NAT boundary.
  const auto h1_rx_before = h1.counters().rx_total;
  net::FlowKey probe;
  probe.eth_src = server.mac();
  probe.eth_dst = net::MacAddr::from_u64(0x0A);
  probe.ip_src = server.ip();
  probe.ip_dst = nat.external_ip;
  probe.src_port = 12345;
  probe.dst_port = 49700;
  server.send(net::make_tcp(probe, net::kTcpSyn));
  network.run();
  std::printf("Unsolicited inbound SYN to %s: %s\n", nat.external_ip.to_string().c_str(),
              h1.counters().rx_total == h1_rx_before ? "dropped (good)" : "DELIVERED (bad)");

  const openflow::CtStats ct = sw.pipeline().ct_stats();
  std::printf(
      "\nconntrack: %zu live connections, %llu created, %llu NAT ports allocated, "
      "%llu lookups (%llu hits)\n",
      sw.pipeline().ct_connection_count(), static_cast<unsigned long long>(ct.created),
      static_cast<unsigned long long>(ct.nat_allocated),
      static_cast<unsigned long long>(ct.lookups),
      static_cast<unsigned long long>(ct.hits));

  const bool ok = h1.counters().http_ok_received == 1 && h2.counters().http_ok_received == 1 &&
                  h1.counters().rx_total == h1_rx_before && ct.nat_allocated == 2;
  return ok ? 0 : 1;
}
