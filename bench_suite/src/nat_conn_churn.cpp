// nat_conn_churn — conntrack and SNAT under connection churn.
//
// A 4-core SNAT gateway with symmetric RSS (8 inside 1G ports, one 10G
// server port) starts with 200k established connections preloaded
// through ConnTracker::process. TCP connections then arrive Poisson at
// 100k/s of simulated time (see connections.hpp for their shape), so
// conntrack classify, commit, SNAT allocation and expiry do the work
// across 4 shards and every connection installs 5-tuple-pinned
// megaflows. There are no flow-mods and no legacy hop.
#include <optional>

#include "connections.hpp"
#include "gateway.hpp"
#include "util/strings.hpp"
#include "workload.hpp"

namespace harmless::suite {
namespace {

constexpr std::size_t kPreload = 200'000;

class NatConnChurn : public Workload {
 public:
  explicit NatConnChurn(const RepConfig& config) : Workload(config) {
    warmup_ns_ = 2 * kMs;
    measure_ns_ = scaled(200 * kMs);
    drain_cap_ns_ = 20 * kMs;
  }

 private:
  void build() override {
    sim::IngressSpec ingress;
    ingress.cores.cores = 4;
    ingress.cores.rss = sim::RssPolicy::kSymmetric;
    gw_ = &network_.add_node<softswitch::SoftSwitch>("gw", 0x6A7E, gateway::kInside + 1,
                                                     /*table_count=*/2, /*specialized=*/true,
                                                     /*flow_cache=*/true, /*burst_size=*/32, ingress);
    gw_->enable_conntrack(gateway::ct_config());
    for (const openflow::FlowModMsg& mod : gateway::rules()) gw_->install(mod).check();

    std::vector<sim::Host*> clients;
    for (int i = 0; i < gateway::kInside; ++i) {
      sim::Host& host = network_.add_host(util::format("c%d", i + 1), gateway::inside_mac(i),
                                          gateway::inside_ip(i));
      network_.connect(host, 0, *gw_, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
      host.set_on_receive([this, i](const net::Packet& packet, const net::ParsedPacket& parsed) {
        ledger_.delivered(static_cast<std::size_t>(i), packet);
        conns_->client_receive(static_cast<std::size_t>(i), packet, parsed);
      });
      clients.push_back(&host);
    }
    sim::Host& server = network_.add_host("server", gateway::server_mac(), gateway::server_ip());
    network_.connect(server, 0, *gw_, gateway::kInside, sim::LinkSpec::gbps(10));
    server.set_on_receive([this](const net::Packet& packet, const net::ParsedPacket& parsed) {
      ledger_.delivered(gateway::kInside, packet);
      conns_->server_receive(packet, parsed);
    });

    {
      ScopedSpan span("ct.preload");
      preload_failures_ = gateway::preload(*gw_, kPreload, network_.now());
      span.set_count(kPreload);
    }

    ConnectionSpec spec;
    spec.clients = clients;
    spec.server = &server;
    spec.external_base = gateway::external_base();
    spec.gateway_mac = gateway::gateway_mac();
    spec.connections_per_s = 100'000;
    conns_.emplace(network_.engine(), sender_, spec, config_.seed);

    parts_.switches = {{"gw", gw_}};
    if (config_.trace) capture_ingress("gw", *gw_, 32768);
  }

  void start_traffic(sim::SimNanos start, sim::SimNanos stop) override { conns_->start(start, stop); }

  [[nodiscard]] bool operations_idle() const override { return conns_->idle(); }

  [[nodiscard]] std::uint64_t accounted_drops() const override {
    return switch_drops(parts_) + link_drops(network_);
  }

  void finish(RepResult& result, const Snapshot& before, const Snapshot& after) override {
    const Connections::Stats& stats = conns_->stats();
    conns_->report(result);
    result.check(preload_failures_ == 0,
                 std::to_string(preload_failures_) + " preloaded connections found no SNAT port");
    result.check(stats.ops_done == stats.ops, std::to_string(stats.ops - stats.ops_done) +
                                                  " connections did not complete");
    result.check(stats.retransmissions == 0 && stats.attempts_failed == 0 &&
                     stats.duplicate_replies == 0 && stats.late_replies == 0,
                 "lossless gateway needed " + std::to_string(stats.retransmissions) +
                     " retransmissions (" + std::to_string(stats.duplicate_replies + stats.late_replies) +
                     " duplicate or late replies)");
    std::uint64_t nat_failures = 0;
    std::uint64_t invalid = 0;
    for (std::size_t i = 0; i < after.switches.size(); ++i) {
      nat_failures += after.switches[i].ct.nat_failures - before.switches[i].ct.nat_failures;
      invalid += after.switches[i].ct.invalid - before.switches[i].ct.invalid;
    }
    result.check(nat_failures == 0 && invalid == 0,
                 "conntrack saw " + std::to_string(nat_failures) + " NAT failures and " +
                     std::to_string(invalid) + " INVALID packets");
    const std::uint64_t conflicts = gateway::nat_conflicts({gw_});
    result.check(conflicts == 0, std::to_string(conflicts) +
                                     " external (ip, port) bindings owned by two connections");
  }

  void replay_layers(std::vector<Metric>& layers) override {
    Workload::replay_layers(layers);
    if (const Capture* frames = capture("gw"))
      replay_conntrack(*frames, *gw_, gateway::action_for, layers);
  }

  softswitch::SoftSwitch* gw_ = nullptr;
  std::optional<Connections> conns_;
  std::size_t preload_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_nat_conn_churn(const RepConfig& config) {
  return std::make_unique<NatConnChurn>(config);
}

}  // namespace harmless::suite
