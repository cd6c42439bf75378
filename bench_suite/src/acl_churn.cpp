// acl_churn — the slow path's workload.
//
// One native single-core SoftSwitch with 8 ports runs a 1,024-rule ACL
// in table 0: 960 ip_dst prefix rules over 8 prefix lengths plus 64 L4
// dst-port rules, a quarter of them deny; allowed traffic goes to
// exact L2 in table 1. Each cache shard holds at most 2,048 megaflows.
// 64B UDP with ip_dst Zipf(1.1) over 65,536 addresses and uniform
// source ports brings microflow misses, multi-mask classifier probes
// and megaflow installs; the controller replaces one ACL rule every
// 2 ms through Session::flow_delete/flow_add, so cache epoch
// invalidations run beside the reads (and purge the megaflow tier
// before it reaches capacity). One hop per packet: the engine does
// little, and there is no legacy or HARMLESS layer.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "controller/apps/static_flows.hpp"
#include "net/build.hpp"
#include "openflow/action.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workload.hpp"

namespace harmless::suite {
namespace {

constexpr int kHosts = 8;
constexpr std::uint32_t kNet = 0x0a010000;  // 10.1.0.0/16: the 65,536 destinations
constexpr std::size_t kAddresses = 65536;
constexpr std::array<int, 8> kPrefixLengths = {23, 24, 25, 26, 27, 28, 29, 30};
constexpr int kRulesPerLength = 120;
constexpr int kPortRules = 64;
constexpr std::uint16_t kRulePortBase = 5000;
constexpr std::uint16_t kDefaultPort = 9000;
constexpr std::uint16_t kPortRulePriority = 2000;
constexpr sim::SimNanos kChurnInterval = 2 * kMs;
/// Offered load per host, as a share of its 1G line at 64B.
constexpr double kLineShare = 0.03;
/// Sampled deliveries within this distance of a verdict change of a
/// rule covering them are not judged (the flow-mod is in flight).
constexpr sim::SimNanos kVerdictGuard = 200 * kUs;

net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000101ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

/// Zipf(1.1) over the destination ranks, as a cumulative table.
const std::vector<double>& zipf_cdf() {
  static const std::vector<double> cdf = [] {
    std::vector<double> table(kAddresses);
    double sum = 0;
    for (std::size_t r = 0; r < kAddresses; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -1.1);
      table[r] = sum;
    }
    for (double& value : table) value /= sum;
    return table;
  }();
  return cdf;
}

/// Rank -> address offset: a fixed bijection, so the hot destinations
/// are the same on every seed and spread over the prefix blocks.
std::uint32_t address_of_rank(std::size_t rank) {
  return static_cast<std::uint32_t>((rank * 40503u + 12345u) & 0xffffu);
}

/// One's-complement update of the 16-bit checksum at `at` for a 32-bit
/// field changing from `old_value` to `new_value` (RFC 1624).
void adjust_checksum(net::Bytes& frame, std::size_t at, std::uint32_t old_value,
                     std::uint32_t new_value) {
  std::uint32_t sum = ~static_cast<std::uint32_t>(net::rd16(frame, at)) & 0xffffu;
  sum += (~old_value >> 16 & 0xffffu) + (~old_value & 0xffffu);
  sum += (new_value >> 16) + (new_value & 0xffffu);
  while (sum >> 16) sum = (sum & 0xffffu) + (sum >> 16);
  net::wr16(std::span<std::uint8_t>(frame.data(), frame.size()), at,
            static_cast<std::uint16_t>(~sum & 0xffffu));
}

/// Re-address a stamped untagged IPv4/UDP frame: the destination
/// address and both checksums, patched in place.
void set_udp_destination(net::Packet& packet, std::uint32_t dst) {
  constexpr std::size_t kIpDst = 30;
  constexpr std::size_t kIpChecksum = 24;
  constexpr std::size_t kUdpChecksum = 40;
  net::Bytes& frame = packet.frame();
  const std::uint32_t old_dst = net::rd32(frame, kIpDst);
  net::wr32(std::span<std::uint8_t>(frame.data(), frame.size()), kIpDst, dst);
  adjust_checksum(frame, kIpChecksum, old_dst, dst);
  if (net::rd16(frame, kUdpChecksum) != 0) {
    adjust_checksum(frame, kUdpChecksum, old_dst, dst);
    if (net::rd16(frame, kUdpChecksum) == 0)
      net::wr16(std::span<std::uint8_t>(frame.data(), frame.size()), kUdpChecksum, 0xffff);
  }
}

struct AclRule {
  int length = 0;          // 0 = an L4 dst-port rule
  std::uint32_t value = 0; // masked prefix, or the port
  std::uint16_t priority = 0;
  bool deny = false;
  /// Verdict changes: (sim time the flow-mods were issued, new deny).
  std::vector<std::pair<sim::SimNanos, bool>> history;

  [[nodiscard]] openflow::Match match() const {
    openflow::Match m;
    m.eth_type(0x0800);
    if (length == 0)
      m.ip_proto(17).l4_dst(static_cast<std::uint16_t>(value));
    else
      m.ip_dst_prefix(net::Ipv4Addr(value), length);
    return m;
  }
  [[nodiscard]] openflow::Instructions instructions() const {
    return deny ? openflow::Instructions{} : openflow::apply_then_goto({}, 1);
  }
  [[nodiscard]] bool deny_at(sim::SimNanos at) const {
    bool verdict = history.empty() ? deny : !history.front().second;
    for (const auto& [when, value] : history)
      if (when <= at) verdict = value;
    return verdict;
  }
  [[nodiscard]] bool changed_near(sim::SimNanos at) const {
    for (const auto& [when, value] : history)
      if (at + kVerdictGuard >= when && at <= when + kVerdictGuard) return true;
    return false;
  }
};

class AclChurn : public Workload {
 public:
  explicit AclChurn(const RepConfig& config) : Workload(config) {
    warmup_ns_ = 2 * kMs;
    measure_ns_ = scaled(500 * kMs);
    drain_cap_ns_ = 1 * kMs;
  }

 private:
  struct Source {
    AclChurn* owner = nullptr;
    int index = 0;
    util::Rng rng;
    std::vector<std::optional<net::UdpTemplate>> templates;  // per destination host
    sim::SimNanos interval = 0;
    sim::SimNanos due = 0;
    sim::SimNanos stop = 0;

    void fire() {
      const std::vector<double>& cdf = zipf_cdf();
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), rng.uniform()) - cdf.begin());
      const std::uint32_t offset = address_of_rank(std::min(rank, kAddresses - 1));
      int dst = static_cast<int>((offset >> 2) % kHosts);
      if (dst == index) dst = (dst + 1) % kHosts;
      const std::uint16_t sport = static_cast<std::uint16_t>(16384 + rng.below(16384));
      const std::uint16_t dport =
          rng.chance(0.95) ? kDefaultPort
                           : static_cast<std::uint16_t>(kRulePortBase + rng.below(kPortRules));
      const net::UdpTemplate& frame = *templates[static_cast<std::size_t>(dst)];
      owner->sender_.send(*owner->hosts_[static_cast<std::size_t>(index)], due,
                          [&frame, sport, dport, offset] {
                            net::Packet packet = frame.stamp(sport, dport);
                            set_udp_destination(packet, kNet | offset);
                            return packet;
                          });
      due += interval;
      if (due < stop) owner->network_.engine().schedule_at(due, [this] { fire(); });
    }
  };

  void build() override {
    sim::IngressSpec ingress;
    sw_ = &network_.add_node<softswitch::SoftSwitch>("acl", 0xAC, kHosts, /*table_count=*/2,
                                                     /*specialized=*/true, /*flow_cache=*/true,
                                                     /*burst_size=*/32, ingress);
    openflow::FlowCache::Limits limits;
    limits.max_megaflows = 2048;
    sw_->pipeline().set_cache_limits(limits);
    for (int i = 0; i < kHosts; ++i) {
      sim::Host& host = network_.add_host(util::format("h%d", i + 1), host_mac(i), host_ip(i));
      network_.connect(host, 0, *sw_, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
      host.set_on_receive([this, i](const net::Packet& packet, const net::ParsedPacket& parsed) {
        ledger_.delivered(static_cast<std::size_t>(i), packet);
        if ((++deliveries_ & 7) == 0 && parsed.ipv4 && parsed.udp)
          samples_.push_back({parsed.ipv4->dst.value(), parsed.udp->dst_port, packet.created_at()});
      });
      hosts_.push_back(&host);
    }

    // The ACL (fixed across seeds: the seed drives only the traffic).
    util::Rng rules_rng(0xAC1'0001);
    for (const int length : kPrefixLengths) {
      const std::uint32_t blocks = 1u << (length - 16);
      std::vector<std::uint32_t> picked;
      while (picked.size() < static_cast<std::size_t>(kRulesPerLength)) {
        const auto block = static_cast<std::uint32_t>(rules_rng.below(blocks));
        if (std::find(picked.begin(), picked.end(), block) == picked.end()) picked.push_back(block);
      }
      for (const std::uint32_t block : picked)
        rules_.push_back({length, kNet | (block << (32 - length)),
                          static_cast<std::uint16_t>(100 + length), false, {}});
    }
    for (int p = 0; p < kPortRules; ++p)
      rules_.push_back({0, static_cast<std::uint32_t>(kRulePortBase + p), kPortRulePriority, false, {}});
    std::vector<std::size_t> order(rules_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rules_rng.below(i)]);
    for (std::size_t i = 0; i < order.size(); ++i) rules_[order[i]].deny = i % 4 == 0;  // a quarter deny
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].length == 0 || rules_[i].length == kPrefixLengths.back()) churnable_.push_back(i);
      if (rules_[i].length != 0)
        prefix_index_[rules_[i].length][rules_[i].value] = i;
      else
        port_index_[static_cast<std::uint16_t>(rules_[i].value)] = i;
    }

    auto& program = controller_.add_app<controller::StaticFlowApp>();
    for (const AclRule& rule : rules_) {
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = rule.priority;
      mod.match = rule.match();
      mod.instructions = rule.instructions();
      program.flow(mod);
    }
    openflow::FlowModMsg miss;
    miss.table_id = 0;
    miss.priority = 0;
    miss.instructions = openflow::apply_then_goto({}, 1);
    program.flow(miss);
    for (int i = 0; i < kHosts; ++i) {
      openflow::FlowModMsg l2;
      l2.table_id = 1;
      l2.priority = 10;
      l2.match.eth_dst(host_mac(i));
      l2.instructions = openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
      program.flow(l2);
    }
    program_ = &program;
    channel_.emplace(network_.engine());
    sw_->attach_channel(*channel_);
    session_ = &controller_.connect(*channel_, "acl");

    parts_.switches = {{"acl", sw_}};
    parts_.control = {&*channel_};
    parts_.controller = &controller_;
    if (config_.trace) capture_ingress("acl", *sw_, 32768);
  }

  void start_traffic(sim::SimNanos start, sim::SimNanos stop) override {
    sources_.resize(kHosts);
    for (int i = 0; i < kHosts; ++i) {
      Source& source = sources_[static_cast<std::size_t>(i)];
      source.owner = this;
      source.index = i;
      source.rng.reseed(source_seed(config_.seed, static_cast<std::uint64_t>(i)));
      for (int d = 0; d < kHosts; ++d) {
        net::FlowKey key;
        key.eth_src = host_mac(i);
        key.eth_dst = host_mac(d);
        key.ip_src = host_ip(i);
        key.ip_dst = net::Ipv4Addr(kNet);
        source.templates.emplace_back(std::in_place, key, 64);
      }
      source.interval = static_cast<sim::SimNanos>(
          static_cast<double>(sim::LinkSpec::gbps(1).rate.serialization_ns(64)) / kLineShare);
      source.due = start + static_cast<sim::SimNanos>(source.rng.below(
                               static_cast<std::uint64_t>(source.interval)));
      source.stop = stop;
      network_.engine().schedule_at(source.due, [&source] { source.fire(); });
    }
    churn_rng_.reseed(source_seed(config_.seed, 0xC4A1));
    churn_stop_ = stop;
    network_.engine().schedule_at(start + kChurnInterval, [this] { churn(); });
  }

  /// Replace one rule: delete it and re-add it with the opposite verdict.
  void churn() {
    AclRule& rule = rules_[churnable_[churn_rng_.below(churnable_.size())]];
    const sim::SimNanos now = network_.now();
    rule.deny = !rule.deny;
    rule.history.emplace_back(now, rule.deny);
    session_->flow_delete(0, rule.match());
    session_->flow_add(0, rule.priority, rule.match(), rule.instructions());
    ++churned_;
    if (now + kChurnInterval < churn_stop_)
      network_.engine().schedule_at(now + kChurnInterval, [this] { churn(); });
  }

  /// The ACL verdict for (dst, port) at `at`, or nullopt when a covering
  /// rule changed within the guard window.
  [[nodiscard]] std::optional<bool> model_deny(std::uint32_t dst, std::uint16_t port,
                                               sim::SimNanos at) const {
    std::vector<const AclRule*> covering;
    if (const auto it = port_index_.find(port); it != port_index_.end())
      covering.push_back(&rules_[it->second]);
    for (auto length = kPrefixLengths.rbegin(); length != kPrefixLengths.rend(); ++length) {
      const std::uint32_t mask = ~((1u << (32 - *length)) - 1);
      const auto& index = prefix_index_.at(*length);
      if (const auto it = index.find(dst & mask); it != index.end())
        covering.push_back(&rules_[it->second]);
    }
    for (const AclRule* rule : covering)
      if (rule->changed_near(at)) return std::nullopt;
    // Highest priority wins: the port rule, then the longest prefix.
    return covering.empty() ? false : covering.front()->deny_at(at);
  }

  [[nodiscard]] std::uint64_t accounted_drops() const override {
    return switch_drops(parts_) + link_drops(network_);
  }

  void finish(RepResult& result, const Snapshot& before, const Snapshot& after) override {
    result.attempted = ledger_.offered_measured();
    result.failed = (after.switches[0].queue_drops - before.switches[0].queue_drops) +
                    (after.link_drops - before.link_drops);
    std::uint64_t judged = 0;
    std::uint64_t wrong = 0;
    for (const Sample& sample : samples_) {
      const std::optional<bool> deny = model_deny(sample.dst, sample.port, sample.sent);
      if (!deny) continue;
      ++judged;
      if (*deny) ++wrong;
    }
    result.check(wrong == 0, std::to_string(wrong) + " of " + std::to_string(judged) +
                                 " sampled deliveries were denied by the reference ACL");
    result.check(judged > samples_.size() / 2, "too few sampled deliveries could be judged");
    result.check(churned_ > 0 && after.switches[0].invalidations > before.switches[0].invalidations,
                 "rule churn did not invalidate the flow cache");
    // The generator's in-place re-addressing must equal a fresh build.
    net::FlowKey key;
    key.eth_src = host_mac(0);
    key.eth_dst = host_mac(1);
    key.ip_src = host_ip(0);
    key.ip_dst = net::Ipv4Addr(kNet);
    key.src_port = 17000;
    key.dst_port = kDefaultPort;
    const net::UdpTemplate frame(key, 64);
    for (const std::uint32_t offset : {0u, 1u, 0x8001u, 0xfffeu, 0xffffu}) {
      net::Packet patched = frame.stamp(key.src_port, key.dst_port);
      set_udp_destination(patched, kNet | offset);
      net::FlowKey direct = key;
      direct.ip_dst = net::Ipv4Addr(kNet | offset);
      result.check(patched.frame() == net::make_udp(direct, 64).frame(),
                   "re-addressed frame differs from net::make_udp");
    }
    controller_flows_ = program_->installed_count() + churned_;
  }

  struct Sample {
    std::uint32_t dst = 0;
    std::uint16_t port = 0;
    sim::SimNanos sent = 0;
  };

  softswitch::SoftSwitch* sw_ = nullptr;
  std::vector<sim::Host*> hosts_;
  controller::Controller controller_{"acl-ctrl"};
  controller::StaticFlowApp* program_ = nullptr;
  std::optional<openflow::ControlChannel> channel_;
  controller::Session* session_ = nullptr;
  std::vector<AclRule> rules_;
  std::vector<std::size_t> churnable_;
  std::unordered_map<int, std::unordered_map<std::uint32_t, std::size_t>> prefix_index_;
  std::unordered_map<std::uint16_t, std::size_t> port_index_;
  std::vector<Source> sources_;
  util::Rng churn_rng_;
  sim::SimNanos churn_stop_ = 0;
  std::uint64_t churned_ = 0;
  std::uint64_t deliveries_ = 0;
  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> make_acl_churn(const RepConfig& config) {
  return std::make_unique<AclChurn>(config);
}

}  // namespace harmless::suite
