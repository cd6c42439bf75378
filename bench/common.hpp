// bench/common.hpp — shared rig builders for the experiment harness.
//
// Three comparable data planes, all with the same host population:
//   * LegacyRig   — hosts on the legacy switch, one shared VLAN (the
//                   pre-migration network; the hardware baseline)
//   * NativeRig   — hosts directly on one software switch (the
//                   "forklift to a soft switch" comparator)
//   * HarmlessRig — hosts on the legacy switch migrated by HARMLESS
//                   (tag-and-hairpin through SS_1/SS_2)
// Forwarding state is preinstalled (exact-match L2 rules / pre-learned
// MACs) so benches measure the data plane, not controller warmup.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "harmless/fabric.hpp"
#include "legacy/legacy_switch.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/strings.hpp"

namespace harmless::bench {

// ---- machine-readable bench artifacts --------------------------------
//
// Every bench that prints a table can also emit the same rows as a
// BENCH_<name>.json next to wherever it was run, so the perf
// trajectory is trackable across PRs (the repo commits the current
// numbers as evidence). Minimal ordered JSON value — objects keep
// insertion order, no external dependencies.
class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  template <typename T,
            std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>, int> = 0>
  Json(T value) : kind_(Kind::kNumber) {
    if constexpr (std::is_integral_v<T>)
      text_ = std::to_string(value);
    else
      text_ = util::format("%.10g", static_cast<double>(value));
  }
  Json(bool value) : kind_(Kind::kBool), text_(value ? "true" : "false") {}
  Json(const char* value) : kind_(Kind::kString), text_(value) {}
  Json(std::string value) : kind_(Kind::kString), text_(std::move(value)) {}

  static Json object() {
    Json json;
    json.kind_ = Kind::kObject;
    return json;
  }
  static Json array() {
    Json json;
    json.kind_ = Kind::kArray;
    return json;
  }

  Json& set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  [[nodiscard]] std::string dump(int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kNull: return "null";
      case Kind::kNumber:
      case Kind::kBool: return text_;
      case Kind::kString: return quote(text_);
      case Kind::kArray: {
        if (items_.empty()) return "[]";
        std::string out = "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i)
          out += inner_pad + items_[i].dump(indent + 1) +
                 (i + 1 < items_.size() ? ",\n" : "\n");
        return out + pad + "]";
      }
      case Kind::kObject: {
        if (members_.empty()) return "{}";
        std::string out = "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i)
          out += inner_pad + quote(members_[i].first) + ": " +
                 members_[i].second.dump(indent + 1) +
                 (i + 1 < members_.size() ? ",\n" : "\n");
        return out + pad + "}";
      }
    }
    return "null";
  }

 private:
  enum class Kind { kNull, kNumber, kBool, kString, kArray, kObject };

  static std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20)
            out += util::format("\\u%04x", c);
          else
            out += c;
      }
    }
    return out + "\"";
  }

  Kind kind_;
  std::string text_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

/// Write `json` to `path` (and say so on stdout, next to the tables).
/// A failed write exits non-zero: the artifact is the bench's whole
/// point, and the CI smoke job keys off this exit code.
inline void write_bench_json(const std::string& path, const Json& json) {
  std::ofstream out(path);
  out << json.dump() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

struct RigOptions {
  int host_count = 4;
  sim::LinkSpec access_link = sim::LinkSpec::gbps(10);
  sim::LinkSpec trunk_link = sim::LinkSpec::gbps(10);
  /// The OF datapath's shape: NativeRig's switch (with one table) and
  /// both of HarmlessRig's soft switches (FabricSpec::sw). The failover
  /// member applies to the controller-managed switch only; disabled by
  /// default — identical to the pre-fault rigs.
  softswitch::SwitchSpec sw;
  /// Bonded trunk legs between the legacy switch and the S4 box.
  int trunk_count = 1;
  /// Control-channel serialization gap per message (resync pacing) and
  /// one-way latency.
  sim::SimNanos control_min_gap = 0;
  sim::SimNanos control_latency = 50'000;
};

inline net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
inline net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

/// The legacy switch config HARMLESS needs (unique PVID per access
/// port + trunks) for `n` hosts; trunk legs occupy ports n+1..n+T with
/// VLANs distributed round-robin to mirror PortMap::make_bonded.
inline legacy::SwitchConfig harmless_legacy_config(int n, int trunk_count = 1) {
  legacy::SwitchConfig config;
  config.hostname = "bench-legacy";
  std::vector<std::set<net::VlanId>> per_trunk(static_cast<std::size_t>(trunk_count));
  for (int port = 1; port <= n; ++port) {
    config.ports[port] = legacy::PortConfig{
        legacy::PortMode::kAccess, static_cast<net::VlanId>(100 + port), {}, std::nullopt,
        true,                      ""};
    per_trunk[static_cast<std::size_t>((port - 1) % trunk_count)].insert(
        static_cast<net::VlanId>(100 + port));
  }
  for (int leg = 0; leg < trunk_count; ++leg)
    config.ports[n + 1 + leg] = legacy::PortConfig{legacy::PortMode::kTrunk, 1,
                                                   per_trunk[static_cast<std::size_t>(leg)],
                                                   std::nullopt, true, ""};
  return config;
}

/// Pre-migration network: one VLAN, plain L2 switching.
inline legacy::SwitchConfig flat_legacy_config(int n) {
  legacy::SwitchConfig config;
  config.hostname = "bench-legacy-flat";
  for (int port = 1; port <= n; ++port) config.ports[port] = legacy::PortConfig{};
  return config;
}

struct BaseRig {
  sim::Network network;
  std::vector<sim::Host*> hosts;

  void add_hosts(sim::Node& attach_to, const RigOptions& options, int first_switch_port = 0) {
    for (int i = 0; i < options.host_count; ++i) {
      sim::Host& host =
          network.add_host("h" + std::to_string(i + 1), host_mac(i), host_ip(i));
      network.connect(host, 0, attach_to,
                      static_cast<std::size_t>(first_switch_port + i), options.access_link);
      hosts.push_back(&host);
    }
  }

  /// Paced unidirectional stream: `from` offers exactly its line rate.
  void stream(int from, int to, std::size_t count, std::size_t frame_size,
              sim::SimNanos interval) {
    hosts[static_cast<std::size_t>(from)]->send_udp_stream(
        hosts[static_cast<std::size_t>(to)]->mac(), hosts[static_cast<std::size_t>(to)]->ip(),
        count, frame_size, interval);
  }
};

struct LegacyRig : BaseRig {
  legacy::LegacySwitch* device = nullptr;

  explicit LegacyRig(const RigOptions& options = {}) {
    device = &network.add_node<legacy::LegacySwitch>("legacy",
                                                     flat_legacy_config(options.host_count));
    add_hosts(*device, options);
    // Pre-learn every MAC: one warmup frame per host to a peer.
    for (int i = 0; i < options.host_count; ++i)
      stream(i, (i + 1) % options.host_count, 1, 64, 0);
    network.run();
  }
};

struct NativeRig : BaseRig {
  softswitch::SoftSwitch* datapath = nullptr;

  explicit NativeRig(const RigOptions& options = {}) {
    softswitch::SwitchSpec spec = options.sw;
    spec.tables = 1;
    datapath = &network.add_node<softswitch::SoftSwitch>(
        "native-ss", 0xbe, static_cast<std::size_t>(options.host_count), spec);
    add_hosts(*datapath, options);
    for (int i = 0; i < options.host_count; ++i) {
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 10;
      mod.match.eth_dst(host_mac(i));
      mod.instructions = openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
      datapath->install(mod).check();
    }
  }
};

struct HarmlessRig : BaseRig {
  legacy::LegacySwitch* device = nullptr;
  std::optional<core::Fabric> fabric;

  explicit HarmlessRig(const RigOptions& options = {}) {
    device = &network.add_node<legacy::LegacySwitch>(
        "legacy", harmless_legacy_config(options.host_count, options.trunk_count));
    add_hosts(*device, options);
    std::vector<int> access_ports;
    for (int port = 1; port <= options.host_count; ++port) access_ports.push_back(port);
    std::vector<int> trunk_ports;
    for (int leg = 0; leg < options.trunk_count; ++leg)
      trunk_ports.push_back(options.host_count + 1 + leg);
    auto map = core::PortMap::make_bonded(access_ports, trunk_ports);
    core::FabricSpec spec;
    spec.trunk_link = options.trunk_link;
    spec.sw = options.sw;
    spec.control_latency = options.control_latency;
    spec.control_min_gap = options.control_min_gap;
    fabric.emplace(core::Fabric::build(network, *device, *map, spec));
    // Static L2 program on SS_2 (what the learning app would converge to).
    for (int i = 0; i < options.host_count; ++i) {
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 10;
      mod.match.eth_dst(host_mac(i));
      mod.instructions = openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
      fabric->ss2().install(mod).check();
    }
    // Pre-learn legacy MACs along the hairpin path.
    for (int i = 0; i < options.host_count; ++i)
      stream(i, (i + 1) % options.host_count, 1, 64, 0);
    network.run();
  }
};

/// Measured delivery rate for a finished run.
struct Throughput {
  double pps = 0;
  double gbps = 0;
};

inline Throughput measure(const sim::LatencyRecorder& recorder, std::size_t frame_size) {
  Throughput result;
  if (recorder.completed() < 2) return result;
  const double duration_ns =
      static_cast<double>(recorder.last_received() - recorder.first_sent());
  if (duration_ns <= 0) return result;
  result.pps = static_cast<double>(recorder.completed()) * 1e9 / duration_ns;
  result.gbps = result.pps * static_cast<double>(frame_size) * 8.0 / 1e9;
  return result;
}

}  // namespace harmless::bench
