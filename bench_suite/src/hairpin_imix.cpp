// hairpin_imix — the paper's deployment, unchanged.
//
// A 16-port legacy switch with a 10G trunk is migrated by
// HarmlessManager::migrate over the SNMP driver, with a
// LearningSwitchApp controller on SS_2. Host h_i sends to h_(i+1): IMIX
// frames of 64/576/1500 bytes in a 7:4:1 mix at 50% of its 1G line, 90%
// of them on one hot 5-tuple and the rest on random source ports. Every
// packet crosses the legacy switch twice, SS_1 twice and SS_2 once, so
// the engine, links, legacy switch and the burst cache-hit replay do
// the work; after the 5 ms warm-up the slow path and controller idle.
#include <array>
#include <optional>

#include "controller/apps/learning.hpp"
#include "harmless/manager.hpp"
#include "mgmt/dialects.hpp"
#include "mgmt/driver.hpp"
#include "mgmt/mib.hpp"
#include "mgmt/snmp.hpp"
#include "net/build.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload.hpp"

namespace harmless::suite {
namespace {

constexpr int kHosts = 16;
constexpr std::array<std::size_t, 3> kImixSizes = {64, 576, 1500};

net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

class HairpinImix : public Workload {
 public:
  explicit HairpinImix(const RepConfig& config) : Workload(config) {
    warmup_ns_ = 5 * kMs;
    measure_ns_ = scaled(85 * kMs);
    drain_cap_ns_ = 2 * kMs;
  }

 private:
  /// One host's open-loop generator: a single self-rescheduling event.
  struct Source {
    HairpinImix* owner = nullptr;
    int index = 0;
    util::Rng rng;
    std::array<std::optional<net::UdpTemplate>, 3> templates;
    std::uint16_t hot_sport = 0;
    sim::SimNanos due = 0;
    sim::SimNanos stop = 0;

    void fire() {
      const std::uint64_t pick = rng.below(12);  // 7:4:1
      const std::size_t size_index = pick < 7 ? 0 : (pick < 11 ? 1 : 2);
      const std::uint16_t sport =
          rng.chance(0.9) ? hot_sport : static_cast<std::uint16_t>(1024 + rng.below(64'000));
      const net::UdpTemplate& frame = *templates[size_index];
      owner->sender_.send(*owner->hosts_[static_cast<std::size_t>(index)], due,
                          [&frame, sport] { return frame.stamp(sport, 9000); });
      // 50% of a 1G line in bytes: 16 ns per byte on the wire.
      due += static_cast<sim::SimNanos>(kImixSizes[size_index]) * 16;
      if (due < stop) owner->network_.engine().schedule_at(due, [this] { fire(); });
    }
  };

  void build() override {
    legacy::SwitchConfig factory;
    factory.hostname = "access-sw-1";
    for (int port = 1; port <= kHosts + 1; ++port) factory.ports[port] = legacy::PortConfig{};
    device_ = &network_.add_node<legacy::LegacySwitch>("legacy", factory);
    for (int i = 0; i < kHosts; ++i) {
      sim::Host& host = network_.add_host(util::format("h%d", i + 1), host_mac(i), host_ip(i));
      network_.connect(host, 0, *device_, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
      host.set_on_receive([this, i](const net::Packet& packet, const net::ParsedPacket&) {
        ledger_.delivered(static_cast<std::size_t>(i), packet);
      });
      hosts_.push_back(&host);
    }

    mib_.emplace(agent_, *device_);
    driver_.emplace(agent_, mgmt::make_ios_like_dialect());
    learning_ = &controller_.add_app<controller::LearningSwitchApp>();
    core::HarmlessManager manager(*driver_, *device_, network_);
    core::MigrationRequest request;
    for (int port = 1; port <= kHosts; ++port) request.access_ports.push_back(port);
    request.trunk_port = kHosts + 1;
    request.fabric.trunk_link = sim::LinkSpec::gbps(10);
    {
      ScopedSpan span("harmless.migrate");
      const std::int64_t start = host_ns();
      auto [report, deployment] = manager.migrate(request, controller_);
      migrate_ms_ = static_cast<double>(host_ns() - start) / 1e6;
      migrate_failure_ = report.success ? "" : report.failure;
      if (deployment) deployment_.emplace(std::move(*deployment));
    }
    if (!deployment_) return;
    core::Fabric& fabric = deployment_->fabric();
    parts_.switches = {{"ss1", &fabric.ss1()}, {"ss2", &fabric.ss2()}};
    parts_.legacy = device_;
    parts_.control = {&fabric.control_channel()};
    parts_.controller = &controller_;
    // SS_1's ingress from the trunk; SS_2 (patch-fed) replays SS_1's
    // patch outputs, and SS_2's outputs re-enter SS_1.
    if (config_.trace) capture_ingress("ss1", fabric.ss1(), 32768);
  }

  void start_traffic(sim::SimNanos start, sim::SimNanos stop) override {
    if (!deployment_) return;
    // Learning round: one frame per host, 10 us apart, so the
    // controller knows every station before the streams start and
    // never has to flood a burst of punts through the trunk.
    learn_frames_.clear();
    for (int i = 0; i < kHosts; ++i) {
      net::FlowKey key;
      key.eth_src = host_mac(i);
      key.eth_dst = host_mac((i + 1) % kHosts);
      key.ip_src = host_ip(i);
      key.ip_dst = host_ip((i + 1) % kHosts);
      learn_frames_.emplace_back(key, 64);
    }
    for (int i = 0; i < kHosts; ++i) {
      const sim::SimNanos due = start + static_cast<sim::SimNanos>(i) * 10 * kUs;
      network_.engine().schedule_at(due, [this, i, due] {
        const net::UdpTemplate& frame = learn_frames_[static_cast<std::size_t>(i)];
        sender_.send(*hosts_[static_cast<std::size_t>(i)], due, [&frame] { return frame.stamp(9, 9); });
      });
    }
    const sim::SimNanos streams = start + 500 * kUs;
    sources_.resize(kHosts);
    for (int i = 0; i < kHosts; ++i) {
      Source& source = sources_[static_cast<std::size_t>(i)];
      source.owner = this;
      source.index = i;
      source.rng.reseed(source_seed(config_.seed, static_cast<std::uint64_t>(i)));
      net::FlowKey key;
      key.eth_src = host_mac(i);
      key.eth_dst = host_mac((i + 1) % kHosts);
      key.ip_src = host_ip(i);
      key.ip_dst = host_ip((i + 1) % kHosts);
      for (std::size_t s = 0; s < kImixSizes.size(); ++s) source.templates[s].emplace(key, kImixSizes[s]);
      source.hot_sport = static_cast<std::uint16_t>(10'000 + i);
      source.due = streams + static_cast<sim::SimNanos>(source.rng.below(1024));
      source.stop = stop;
      network_.engine().schedule_at(source.due, [&source] { source.fire(); });
    }
  }

  [[nodiscard]] std::uint64_t accounted_drops() const override {
    const legacy::LegacySwitch::Counters& legacy = device_->counters();
    return switch_drops(parts_) + device_->queue_drops() + legacy.ingress_filtered +
           legacy.no_member_egress + link_drops(network_);
  }

  void finish(RepResult& result, const Snapshot& before, const Snapshot& after) override {
    result.check(migrate_failure_.empty() && deployment_.has_value(),
                 "HarmlessManager::migrate failed: " + migrate_failure_);
    result.attempted = ledger_.offered_measured();
    result.failed = ledger_.offered_measured() - ledger_.delivered_measured();
    result.check(ledger_.offered_total() == ledger_.delivered_total(),
                 "hairpin lost " + std::to_string(ledger_.offered_total() - ledger_.delivered_total()) +
                     " packets (want exactly zero loss; drops:" + describe_drops(parts_, network_) +
                     ")");
    // After warm-up every destination is learned: the slow path idles.
    std::uint64_t punts = 0;
    for (std::size_t i = 0; i < after.switches.size(); ++i)
      punts += after.switches[i].packet_ins - before.switches[i].packet_ins;
    result.check(punts == 0, std::to_string(punts) + " packet-ins after warm-up");
    controller_flows_ = learning_->stats().flows_installed;
    result.check(controller_flows_ >= static_cast<std::uint64_t>(kHosts),
                 "learning app installed fewer flows than there are hosts");
  }

  void replay_layers(std::vector<Metric>& layers) override {
    const Capture* trunk = capture("ss1");
    if (trunk == nullptr || !deployment_) return;
    core::Fabric& fabric = deployment_->fabric();
    const core::PortMap& map = fabric.port_map();
    // Pass 1: trunk frames through SS_1; its patch outputs feed SS_2.
    std::vector<std::pair<std::uint32_t, net::Bytes>> to_ss2;
    std::vector<std::pair<std::uint32_t, net::Bytes>> back_to_ss1;
    ScopedSpan span("replay.pipeline.ss1");
    ReplayCost ss1 = replay_pipeline(fabric.ss1().pipeline(), trunk->ordered(),
                                     [&](std::uint32_t port, const net::Packet& packet) {
                                       const std::uint32_t trunk_ports =
                                           static_cast<std::uint32_t>(map.trunk_count());
                                       if (port > trunk_ports)
                                         to_ss2.emplace_back(port - trunk_ports, packet.frame());
                                     });
    {
      ScopedSpan ss2_span("replay.pipeline.ss2");
      const ReplayCost ss2 =
          replay_pipeline(fabric.ss2().pipeline(), to_ss2,
                          [&](std::uint32_t port, const net::Packet& packet) {
                            back_to_ss1.emplace_back(map.ss1_patch_port(port), packet.frame());
                          });
      ss2_span.set_count(ss2.packets);
      layers.push_back({"openflow.pipeline.run_burst_ns_per_pkt.ss2", "ns", ss2.ns_per_packet()});
    }
    // Pass 2: SS_2's outputs re-enter SS_1 over the patch ports.
    const ReplayCost ss1_back = replay_pipeline(fabric.ss1().pipeline(), back_to_ss1);
    ss1.ns += ss1_back.ns;
    ss1.packets += ss1_back.packets;
    span.set_count(ss1.packets);
    layers.push_back({"openflow.pipeline.run_burst_ns_per_pkt.ss1", "ns", ss1.ns_per_packet()});
  }

  legacy::LegacySwitch* device_ = nullptr;
  std::vector<sim::Host*> hosts_;
  mgmt::SnmpAgent agent_;
  std::optional<mgmt::SwitchMib> mib_;
  std::optional<mgmt::SnmpDriver> driver_;
  controller::Controller controller_{"ctrl"};
  controller::LearningSwitchApp* learning_ = nullptr;
  std::optional<core::Deployment> deployment_;
  std::string migrate_failure_;
  std::vector<net::UdpTemplate> learn_frames_;
  std::vector<Source> sources_;
};

}  // namespace

std::unique_ptr<Workload> make_hairpin_imix(const RepConfig& config) {
  return std::make_unique<HairpinImix>(config);
}

}  // namespace harmless::suite
