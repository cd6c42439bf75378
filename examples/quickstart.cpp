// quickstart — the paper's demo, end to end, in one file.
//
// Builds a factory-default 5-port legacy Ethernet switch with four
// hosts, migrates it to OpenFlow with the HARMLESS Manager (through
// the emulated SNMP/NAPALM management plane), attaches an SDN
// controller running a learning-switch app, and shows Host 1 pinging
// Host 2 across the tag-and-hairpin path of Fig. 1.
//
//   $ ./quickstart
#include <cstdio>
#include <iostream>

#include "controller/apps/learning.hpp"
#include "harmless/manager.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"

using namespace harmless;

int main() {
  std::puts("== HARMLESS quickstart: migrating a dumb legacy switch to SDN ==\n");

  // --- 1. The legacy estate: a 5-port access switch, everything VLAN 1.
  sim::Network network;
  legacy::SwitchConfig factory;
  factory.hostname = "closet-sw-1";
  for (int port = 1; port <= 5; ++port)
    factory.ports[port] = legacy::PortConfig{};
  auto& device = network.add_node<legacy::LegacySwitch>("legacy", factory);

  std::vector<sim::Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    auto& host = network.add_host(
        "Host" + std::to_string(i + 1), net::MacAddr::from_u64(0x020000000001ULL + i),
        net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
    network.connect(host, 0, device, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    hosts.push_back(&host);
  }

  // --- 2. Its management plane: an SNMP agent + a NAPALM-style driver.
  mgmt::SnmpAgent agent;
  mgmt::SwitchMib mib(agent, device);
  mgmt::SnmpDriver driver(agent, mgmt::make_ios_like_dialect());

  // --- 3. An SDN controller with a classic learning-switch app.
  controller::Controller ctrl("demo-controller");
  ctrl.add_app<controller::LearningSwitchApp>();

  // --- 4. Run the migration (discover -> plan -> render -> commit ->
  //         verify -> instantiate S4 -> connect controller).
  core::HarmlessManager manager(driver, device, network);
  core::MigrationRequest request;
  request.access_ports = {1, 2, 3, 4};
  request.trunk_port = 5;
  // The S4 box's ingress: per-port RX queues arbitrated by byte-fair
  // deficit round-robin, so no single legacy port can head-of-line
  // block its neighbours through the soft switches.
  request.fabric.sw.ingress.scheduler = sim::SchedulerKind::kDrr;
  request.fabric.sw.ingress.port_queue_capacity = 256;

  auto [report, deployment] = manager.migrate(request, ctrl);
  std::cout << report.to_string() << '\n';
  if (!report.success) return 1;

  std::cout << "Rendered " << driver.platform() << " config pushed to the device:\n"
            << report.rendered_config << '\n';
  std::cout << deployment->fabric().translator_rules().to_string() << '\n';

  network.run();  // let the OF handshake finish

  // --- 5. Prove the data path: ARP, then ping, then UDP.
  std::puts("Host1 resolves and pings Host2 across the hairpin path:");
  hosts[0]->arp_request(hosts[1]->ip());
  network.run();

  net::FlowKey key;
  key.eth_src = hosts[0]->mac();
  key.eth_dst = hosts[1]->mac();
  key.ip_src = hosts[0]->ip();
  key.ip_dst = hosts[1]->ip();
  hosts[0]->send(net::make_icmp_echo(key, /*request=*/true, 1, 1));
  key.dst_port = 9000;
  hosts[0]->send(net::make_udp(key, 256));
  network.run();

  std::printf("  Host1: arp replies=%llu  echo replies=%llu\n",
              static_cast<unsigned long long>(hosts[0]->counters().rx_arp_reply),
              static_cast<unsigned long long>(hosts[0]->counters().rx_icmp_echo_reply));
  std::printf("  Host2: packets received=%llu (udp=%llu)\n",
              static_cast<unsigned long long>(hosts[1]->counters().rx_total),
              static_cast<unsigned long long>(hosts[1]->counters().rx_udp));

  auto& fabric = deployment->fabric();
  std::printf("\nDatapath activity: legacy fwd=%llu flood=%llu | SS_1 runs=%llu | SS_2 runs=%llu punts=%llu\n",
              static_cast<unsigned long long>(device.counters().forwarded),
              static_cast<unsigned long long>(device.counters().flooded),
              static_cast<unsigned long long>(fabric.ss1().counters().pipeline_runs),
              static_cast<unsigned long long>(fabric.ss2().counters().pipeline_runs),
              static_cast<unsigned long long>(fabric.ss2().counters().packet_ins));
  std::printf("Ingress: %s over %llu per-port rx queues (SS_2), %llu drops\n",
              fabric.ss2().scheduler().name(),
              static_cast<unsigned long long>(fabric.ss2().rx_queue_count()),
              static_cast<unsigned long long>(fabric.ss2().queue_drops()));

  const bool ok = hosts[0]->counters().rx_icmp_echo_reply == 1 &&
                  hosts[1]->counters().rx_udp == 1 &&
                  fabric.ss1().queue_drops() == 0 && fabric.ss2().queue_drops() == 0;
  std::puts(ok ? "\nquickstart: OK — the legacy switch is now an OpenFlow switch."
               : "\nquickstart: FAILED");
  return ok ? 0 : 1;
}
