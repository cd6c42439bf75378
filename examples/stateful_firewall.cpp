// stateful_firewall — the DMZ idea done right: instead of the
// stateless "replies allowed back by port number" approximation,
// inbound traffic on the uplink is admitted only when conntrack says
// it belongs to a connection an inside host opened.
//
//   $ ./stateful_firewall [--cores N]   (N worker cores, symmetric RSS)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "controller/apps/stateful_fw.hpp"
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
  std::puts("== Stateful perimeter firewall on the conntrack tier ==\n");

  sim::Network network;
  const softswitch::SwitchSpec spec{
      .ingress = {.cores = {.cores = cores, .rss = sim::RssPolicy::kSymmetric}},
      .conntrack = openflow::CtConfig{}};
  auto& sw = network.add_node<softswitch::SoftSwitch>("fw", 0x0F, 3, spec);
  openflow::ControlChannel channel(network.engine(), 10'000);
  sw.attach_channel(channel);

  auto& h1 = network.add_host("h1", net::MacAddr::from_u64(0x21), net::Ipv4Addr(10, 1, 0, 1));
  auto& h2 = network.add_host("h2", net::MacAddr::from_u64(0x22), net::Ipv4Addr(10, 1, 0, 2));
  auto& outside =
      network.add_host("outside", net::MacAddr::from_u64(0x66), net::Ipv4Addr(192, 0, 2, 9));
  network.connect(h1, 0, sw, 0, sim::LinkSpec::gbps(1));
  network.connect(h2, 0, sw, 1, sim::LinkSpec::gbps(1));
  network.connect(outside, 0, sw, 2, sim::LinkSpec::gbps(1));
  outside.serve_http(80);
  h2.serve_http(80);  // an inside service the firewall must NOT expose

  controller::StatefulFirewallConfig fw;
  fw.inside = {{"h1", h1.mac(), h1.ip(), 1}, {"h2", h2.mac(), h2.ip(), 2}};
  fw.outside_port = 3;
  fw.outside_mac = outside.mac();
  controller::Controller ctrl("fw-controller");
  ctrl.add_app<controller::StatefulFirewallApp>(fw);
  ctrl.connect(channel, "fw");
  network.run();

  util::Table table({"attempt", "result", "verdict"});

  // 1. Inside opens outward: first packet commits the connection, the
  //    server's response rides back as ESTABLISHED.
  net::FlowKey out_flow;
  out_flow.eth_src = h1.mac();
  out_flow.eth_dst = outside.mac();
  out_flow.ip_src = h1.ip();
  out_flow.ip_dst = outside.ip();
  out_flow.src_port = 41000;
  out_flow.dst_port = 80;
  h1.send(net::make_tcp(out_flow, net::kTcpSyn));
  h1.send(net::make_http_get(out_flow, "fw.example"));
  network.run();
  const bool outbound_ok = h1.counters().http_ok_received == 1;
  table.add_row({"h1 -> outside:80 (opened inside)", outbound_ok ? "200 OK" : "no reply",
                 outbound_ok ? "allowed (good)" : "BROKEN"});

  // 2. Outside probes the inside web server: classified NEW inbound,
  //    no ESTABLISHED match, default deny.
  const auto h2_rx_before = h2.counters().rx_tcp;
  net::FlowKey probe;
  probe.eth_src = outside.mac();
  probe.eth_dst = h2.mac();
  probe.ip_src = outside.ip();
  probe.ip_dst = h2.ip();
  probe.src_port = 51000;
  probe.dst_port = 80;
  outside.send(net::make_tcp(probe, net::kTcpSyn));
  network.run();
  const bool syn_blocked = h2.counters().rx_tcp == h2_rx_before;
  table.add_row({"outside -> h2:80 SYN (unsolicited)", syn_blocked ? "dropped" : "DELIVERED",
                 syn_blocked ? "blocked (good)" : "EXPOSED"});

  // 3. A mid-stream segment with no connection: INVALID, also denied —
  //    the classic ACK-probe firewall bypass does not work here.
  probe.src_port = 51001;
  outside.send(net::make_tcp(probe, net::kTcpAck));
  network.run();
  const bool ack_blocked = h2.counters().rx_tcp == h2_rx_before;
  table.add_row({"outside -> h2:80 bare ACK (mid-stream)", ack_blocked ? "dropped" : "DELIVERED",
                 ack_blocked ? "blocked (good)" : "EXPOSED"});

  std::cout << table.to_string();

  const openflow::CtStats ct = sw.pipeline().ct_stats();
  std::printf("\nconntrack: %zu live connections, %llu created, %llu invalid classifications\n",
              sw.pipeline().ct_connection_count(), static_cast<unsigned long long>(ct.created),
              static_cast<unsigned long long>(ct.invalid));
  return outbound_ok && syn_blocked && ack_blocked ? 0 : 1;
}
