// maglev_lb — consistent-hash load balancing with connection
// affinity: a Maglev lookup table spreads new connections across
// backends; conntrack pins every live connection to the backend it
// started on, so draining a backend never breaks connections in
// flight.
//
//   $ ./maglev_lb [clients] [--cores N]   (N worker cores, symmetric RSS)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "controller/apps/maglev.hpp"
#include "controller/controller.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;

int main(int argc, char** argv) {
  std::uint32_t clients = 90;
  std::size_t cores = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--cores" && i + 1 < argc)
      cores = std::strtoul(argv[++i], nullptr, 10);
    else
      clients = static_cast<std::uint32_t>(std::atoi(argv[i]));
  }
  std::printf("== Maglev LB with conntrack affinity: %u clients, 3 backends ==\n\n", clients);

  sim::Network network;
  const softswitch::SwitchSpec spec{
      .ingress = {.cores = {.cores = cores, .rss = sim::RssPolicy::kSymmetric}},
      .conntrack = openflow::CtConfig{}};
  auto& sw = network.add_node<softswitch::SoftSwitch>("lb", 0x1B, 4, spec);
  openflow::ControlChannel channel(network.engine(), 10'000);
  sw.attach_channel(channel);

  auto& uplink =
      network.add_host("uplink", net::MacAddr::from_u64(0x02), net::Ipv4Addr(172, 16, 0, 254));
  network.connect(uplink, 0, sw, 0, sim::LinkSpec::gbps(1));
  std::vector<sim::Host*> backends;
  for (int i = 0; i < 3; ++i) {
    auto& backend = network.add_host("web" + std::to_string(i + 1),
                                     net::MacAddr::from_u64(0x02000000b001ULL + i),
                                     net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(10 + i)));
    network.connect(backend, 0, sw, static_cast<std::size_t>(i + 1), sim::LinkSpec::gbps(1));
    backend.serve_http(80);
    backends.push_back(&backend);
  }

  controller::MaglevConfig lb;
  lb.vip = net::Ipv4Addr(10, 0, 0, 100);
  lb.vip_mac = net::MacAddr::from_u64(0x02000000deadULL);
  lb.client_ports = {1};
  for (std::size_t i = 0; i < backends.size(); ++i)
    lb.backends.push_back(controller::MaglevBackend{backends[i]->name(), backends[i]->mac(),
                                                    backends[i]->ip(),
                                                    static_cast<std::uint32_t>(i + 2)});
  controller::Controller ctrl("maglev-controller");
  auto& app = ctrl.add_app<controller::MaglevLbApp>(lb);
  ctrl.connect(channel, "lb");
  network.run();

  auto client_flow = [&](std::uint32_t client) {
    net::FlowKey key;
    key.eth_src = uplink.mac();
    key.eth_dst = lb.vip_mac;
    key.ip_src = net::Ipv4Addr(0xac100000u + client);
    key.ip_dst = lb.vip;
    key.src_port = static_cast<std::uint16_t>(20000 + (client % 40000));
    key.dst_port = 80;
    return key;
  };
  // SYN opens the connection (the group's ct_dnat commits the
  // client->backend mapping); the GET rides the affinity rule.
  auto open_and_get = [&](std::uint32_t client) {
    const net::FlowKey key = client_flow(client);
    uplink.send(net::make_tcp(key, net::kTcpSyn));
    uplink.send(net::make_http_get(key, "vip.shop.example"));
  };
  for (sim::Host* backend : backends) backend->set_rx_log_capacity(1024);

  // The whole scenario runs as one event schedule: connections idle
  // out (and the engine only drains) once nothing references them
  // anymore, so the drain + follow-up must happen while the first
  // wave's connections are still live.
  for (std::uint32_t client = 1; client <= clients; ++client) {
    network.engine().schedule_at(static_cast<sim::SimNanos>(client) * 10'000,
                                 [&, client] { open_and_get(client); });
  }

  std::uint64_t round1_served[3] = {};
  std::uint64_t ok_round1 = 0;
  std::uint32_t pinned_client = 0;
  std::uint64_t web3_before_follow_up = 0;
  const sim::SimNanos wave_end = static_cast<sim::SimNanos>(clients + 50) * 10'000;

  // t = wave_end: snapshot round 1, pick a client pinned to web3 and
  // drain web3 from the pool.
  network.engine().schedule_at(wave_end, [&] {
    for (int i = 0; i < 3; ++i) round1_served[i] = backends[i]->counters().http_requests_served;
    ok_round1 = uplink.counters().http_ok_received;
    for (std::uint32_t client = 1; client <= clients && pinned_client == 0; ++client) {
      for (const net::ParsedPacket& rx : backends[2]->rx_log())
        if (rx.ipv4 && rx.ipv4->src == client_flow(client).ip_src) {
          pinned_client = client;
          break;
        }
    }
    app.set_backends(*ctrl.sessions().front(),
                     {lb.backends[0], lb.backends[1]});  // web3 removed
  });

  // t = wave_end + 1ms: the pinned client sends another request on its
  // live connection — the stored DNAT mapping still routes it to web3
  // even though the group no longer lists it.
  network.engine().schedule_at(wave_end + 1'000'000, [&] {
    web3_before_follow_up = backends[2]->counters().http_requests_served;
    uplink.send(net::make_http_get(client_flow(pinned_client), "vip.shop.example"));
  });

  // t = wave_end + 2ms ...: a second wave of brand-new clients — none
  // of them may land on the drained backend.
  std::uint64_t web3_at_wave2 = 0;
  network.engine().schedule_at(wave_end + 2'000'000,
                               [&] { web3_at_wave2 = backends[2]->counters().http_requests_served; });
  for (std::uint32_t client = 1; client <= clients; ++client) {
    network.engine().schedule_at(wave_end + 2'000'000 + static_cast<sim::SimNanos>(client) * 10'000,
                                 [&, client] { open_and_get(clients + client); });
  }
  network.run();

  auto print_shares = [&](const char* title) {
    util::Table table({"backend", "requests served", "share"});
    std::uint64_t total = 0;
    for (sim::Host* backend : backends) total += backend->counters().http_requests_served;
    for (sim::Host* backend : backends) {
      const auto served = backend->counters().http_requests_served;
      table.add_row({backend->name(), std::to_string(served),
                     util::format("%.1f%%", total ? 100.0 * served / total : 0.0)});
    }
    std::puts(title);
    std::cout << table.to_string() << '\n';
  };

  {
    util::Table table({"backend", "round-1 served", "share"});
    std::uint64_t total = 0;
    for (int i = 0; i < 3; ++i) total += round1_served[i];
    for (int i = 0; i < 3; ++i)
      table.add_row({backends[static_cast<std::size_t>(i)]->name(),
                     std::to_string(round1_served[i]),
                     util::format("%.1f%%", total ? 100.0 * round1_served[i] / total : 0.0)});
    std::puts("Initial spread (Maglev table, one connection per client):");
    std::cout << table.to_string() << '\n';
  }
  std::printf("clients=%u 200s=%llu\n\n", clients, static_cast<unsigned long long>(ok_round1));
  std::printf("Drained web3 while client %u had a live connection there.\n", pinned_client);

  const bool affinity_held =
      backends[2]->counters().http_requests_served >= web3_before_follow_up + 1 &&
      web3_at_wave2 == web3_before_follow_up + 1;
  std::printf("Existing connection after drain: %s\n",
              affinity_held ? "still served by web3 (affinity held)" : "MOVED (affinity broken)");

  const bool drained = backends[2]->counters().http_requests_served == web3_at_wave2;
  print_shares("\nFinal spread after the second wave (web3 drained):");
  std::printf("web3 new connections after drain: %s\n",
              drained ? "none (good)" : "STILL RECEIVING (bad)");

  const openflow::CtStats ct = sw.pipeline().ct_stats();
  std::printf("\nconntrack: %zu live connections, %llu created\n", sw.pipeline().ct_connection_count(),
              static_cast<unsigned long long>(ct.created));

  const bool ok = ok_round1 == clients && affinity_held && drained;
  return ok ? 0 : 1;
}
