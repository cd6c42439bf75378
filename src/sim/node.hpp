// sim/node.hpp — nodes and ports.
//
// A Node is anything with numbered ports: hosts, the legacy switch, the
// software switches. Ports receive from / transmit into Channels.
//
// `ServicedNode` adds the processing model every switching element
// uses: arriving packets land in one bounded RxQueue per ingress port
// (sim/scheduler.hpp), each queue is steered to one worker core
// (CoreSpec: RSS-style hash, stride or symmetric per-flow), and every core
// runs its own burst service loop — a pluggable BurstScheduler
// instance picks which of *its* queues each service burst of up to
// `burst_size` packets drains (FCFS by default — bit-exact with the
// historical shared FIFO when cores == 1). Each burst takes
// `service_burst(...)` nanoseconds of simulated compute; outputs
// leave when their core's burst completes (a tx burst).
//
// After each step the node re-arms its drain at the step's end. When
// the step emptied every queue, it only claims that re-arm's key
// (sim/event.hpp) instead of queueing a drain that would find nothing:
// a packet that arrives before the key passes queues the drain under
// the claimed key, so it runs exactly where the eager re-arm would
// have; one that arrives later starts a fresh drain, as it would after
// the eager re-arm had gone idle. An idle node costs no events.
//
// The multi-core step model is bulk-synchronous run-to-completion:
// every service step, each backlogged core drains one burst; each
// core's busy nanoseconds accrue separately (busy_ns() sums them —
// total compute), each core's outputs leave at step-start + its own
// burst cost, and simulated time advances by the step *makespan* (max
// over cores) — parallel speedup is the ratio of work done to the
// slowest core's bill, never a free lunch. With cores == 1 the loop
// degrades bit-exactly to the single-core datapath of PR 2-4.
//
// Every burst holds up to `burst_size` packets, fixed at construction.
// burst_size 1 is the classic single-server queue: each burst is one
// packet and sweeps no queues (queues_polled() == 0) — the per-packet
// datapath, kept as the batching ablation baseline. Every burst, of any
// size, enters the node through service_burst(). The bounded queues are
// what turn per-packet (and per-burst) costs into throughput limits, so
// the relative numbers in E1/E2 come from code, not from constants
// pasted into benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/event.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "util/stats.hpp"

namespace harmless::sim {

class Node;

/// One attachment point of a node. tx goes into a Channel (if wired).
class Port {
 public:
  Port(Node& owner, int index) : owner_(&owner), index_(index) {}

  /// Transmit through the attached channel; counts and drops silently
  /// when unwired (like a NIC with no cable).
  void send(net::Packet&& packet);

  /// Called by the channel sink; forwards into the owner node.
  void receive(net::Packet&& packet);

  void attach(Channel* out) { out_ = out; }
  [[nodiscard]] bool wired() const { return out_ != nullptr; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] Channel* channel() const { return out_; }

  util::RateCounter tx;
  util::RateCounter rx;
  std::uint64_t tx_unwired_drops = 0;

 private:
  Node* owner_;
  int index_;
  Channel* out_ = nullptr;
};

class Node {
 public:
  Node(Engine& engine, std::string name) : engine_(engine), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Packet arrived on port `in_port` (rx counters already updated).
  virtual void handle(int in_port, net::Packet&& packet) = 0;

  /// The cable on port `port_index` changed state (either direction of
  /// the duplex pair; Network wires channel state observers here).
  /// Real switches react — flush MACs learned on the port, raise
  /// port-status — so failable nodes override this; the default is the
  /// dumb-NIC behaviour of noticing nothing.
  virtual void on_port_link(int port_index, bool up) {
    (void)port_index;
    (void)up;
  }

  /// Grow the port array to at least `count` ports.
  void ensure_ports(std::size_t count);
  [[nodiscard]] Port& port(std::size_t index);
  [[nodiscard]] const Port& port(std::size_t index) const;
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  Engine& engine_;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
};

/// Burst-serviced queueing node over per-port RX queues (see file
/// comment).
class ServicedNode : public Node {
 public:
  /// One (in_port, packet) unit of a service burst, in service order.
  using Burst = sim::Burst;

  /// Throws util::ConfigError, naming the node, when `burst_size` or
  /// `ingress.cores.cores` is 0.
  ServicedNode(Engine& engine, std::string name, IngressSpec ingress = {},
               std::size_t burst_size = 32);

  /// Throws util::ConfigError, naming the node, on a negative `in_port`.
  void handle(int in_port, net::Packet&& packet) final;

  /// Maximum packets drained per core per service burst. 1 = per-packet
  /// service (the classic single-server queue: bursts of one that sweep
  /// no queues).
  [[nodiscard]] std::size_t burst_size() const { return burst_size_; }
  /// Core 0's burst scheduler (every core runs the same kind).
  [[nodiscard]] const BurstScheduler& scheduler() const { return *cores_.front().scheduler; }
  [[nodiscard]] const IngressSpec& ingress() const { return ingress_; }

  /// Worker-core layout (fixed at construction via IngressSpec::cores).
  [[nodiscard]] std::size_t core_count() const { return cores_.size(); }
  /// Which core queue `queue_index` is steered to (the RSS policy).
  [[nodiscard]] std::size_t core_of_queue(std::size_t queue_index) const {
    return queue_index < queue_core_.size() ? queue_core_[queue_index]
                                            : ingress_.cores.core_of(queue_index);
  }
  /// Per-core observables: simulated compute, bursts drained, packets
  /// served, queues owned.
  [[nodiscard]] SimNanos core_busy_ns(std::size_t core) const { return cores_.at(core).busy_ns; }
  [[nodiscard]] std::uint64_t core_bursts(std::size_t core) const {
    return cores_.at(core).bursts;
  }
  [[nodiscard]] std::uint64_t core_packets(std::size_t core) const {
    return cores_.at(core).packets;
  }
  [[nodiscard]] std::size_t core_queue_count(std::size_t core) const {
    return cores_.at(core).queue_indices.size();
  }

  /// Total tail drops across all port queues (shared-bound and
  /// per-port-bound drops both count; each is also attributed to the
  /// arriving port's RxQueue).
  [[nodiscard]] std::uint64_t queue_drops() const { return queue_drops_; }
  /// Total backlog across all port queues.
  [[nodiscard]] std::size_t queue_depth() const { return total_depth_; }

  /// Per-port RX queue stats (depth, drops, peak depth). Queues are
  /// created on demand; a core's share of `rx_queue_count()` is what
  /// its modelled poll loop sweeps (and bills) every burst.
  [[nodiscard]] std::size_t rx_queue_count() const { return rx_queues_.size(); }
  [[nodiscard]] const RxQueue& rx_queue(std::size_t index) const { return rx_queues_[index]; }
  /// RX queues per port: 1 normally; `cores` under RssPolicy::kSymmetric
  /// with multiple cores (the (port, core) queue grid — queue index =
  /// port * stride + core).
  [[nodiscard]] std::size_t queue_stride() const {
    return ingress_.cores.rss == RssPolicy::kSymmetric ? cores_.size() : 1;
  }
  /// Per-*port* aggregates over the port's queue group (== the single
  /// queue's numbers outside the symmetric grid).
  [[nodiscard]] std::size_t port_queue_depth(std::size_t port) const;
  [[nodiscard]] std::uint64_t port_queue_drops(std::size_t port) const;
  [[nodiscard]] std::size_t port_queue_peak_depth(std::size_t port) const;

  /// Total simulated compute spent in service bursts.
  [[nodiscard]] SimNanos busy_ns() const { return busy_ns_; }
  /// Service bursts drained (equals packets served when burst_size==1).
  [[nodiscard]] std::uint64_t bursts_served() const { return bursts_served_; }

 protected:
  /// The node's one ingress path: process one burst and return its
  /// total compute cost; outputs emitted meanwhile leave when the burst
  /// completes. Per-packet nodes (LegacySwitch) loop over the burst and
  /// sum their per-packet costs; SoftSwitch runs its batched
  /// cache-replay datapath.
  virtual SimNanos service_burst(Burst&& burst) = 0;

  /// Emit a packet from `out_port` once the current burst completes.
  /// Only valid inside a service burst.
  void emit(std::size_t out_port, net::Packet&& packet);

  /// True while a service burst is executing (emit() is legal).
  [[nodiscard]] bool in_service() const { return in_service_; }

  /// RX queues polled by the burst currently in service (the serving
  /// core's whole queue subset; 0 with burst_size 1) — service_burst()
  /// implementations bill their per-queue poll cost from this.
  [[nodiscard]] std::size_t queues_polled() const { return queues_polled_; }

  /// The worker core whose burst is currently in service — SoftSwitch
  /// keys its flow-cache shard (and per-core billing) off this. Only
  /// meaningful inside a service burst.
  [[nodiscard]] std::size_t current_core() const { return current_core_; }

  /// Pre-size the RX queue array for `port_count` ports (one queue per
  /// port; a full (port, core) group per port under the symmetric
  /// grid); queues still grow on demand if a packet arrives on a later
  /// port. Sizing up front makes the per-burst poll bill honest from
  /// the first packet.
  void ensure_rx_queues(std::size_t port_count);

  /// How a completed output leaves the node. Default: the sim port's
  /// channel. SoftSwitch overrides this to divert patch-bound ports
  /// into the peer switch without a wire.
  virtual void transmit(std::size_t out_port, net::Packet&& packet) {
    port(out_port).send(std::move(packet));
  }

 private:
  /// One run-to-completion worker core: its scheduler instance, the
  /// queues steered to it (append order — stable, so per-view
  /// cursor/deficit state stays coherent), and its own service bill.
  struct Core {
    std::unique_ptr<BurstScheduler> scheduler;
    std::vector<std::size_t> queue_indices;
    /// The queue pointers are rebuilt lazily after queue growth; each
    /// queue is bound to `view.ready` at its position once, when the
    /// queue is created.
    QueueView view;
    Burst burst;                 // per-step scratch, recycled across bursts
    std::size_t backlog = 0;     // packets across this core's queues
    SimNanos busy_ns = 0;
    std::uint64_t bursts = 0;
    std::uint64_t packets = 0;
  };

  void drain();
  /// Serve one burst on `core`; returns its compute cost (the step
  /// loop folds it into the makespan).
  SimNanos serve_core(std::size_t core_index, SimNanos step_start);
  /// Which core of the symmetric grid this packet steers to (its
  /// symmetric flow hash). Always 0 when the grid is collapsed (stride
  /// 1 — core_of steers the queue).
  [[nodiscard]] std::size_t steer_core(net::Packet& packet);
  void refresh_views();

  IngressSpec ingress_;
  std::size_t burst_size_;
  std::vector<Core> cores_;
  std::vector<RxQueue> rx_queues_;
  std::vector<std::size_t> queue_core_;  // queue index -> owning core
  bool views_dirty_ = false;
  std::size_t current_core_ = 0;
  std::size_t total_depth_ = 0;
  std::uint64_t arrival_seq_ = 0;
  std::size_t queues_polled_ = 0;
  std::vector<std::pair<std::size_t, net::Packet>> pending_out_;
  /// Delivered tx-burst vectors come back here so serve_core can reuse
  /// their capacity instead of reallocating one per burst.
  std::vector<std::vector<std::pair<std::size_t, net::Packet>>> out_pool_;
  /// A drain event is queued (or running).
  bool draining_ = false;
  /// The re-arm key an emptied step claimed instead of queueing a drain
  /// that would find nothing to do; handle() queues the drain under it
  /// if a packet arrives before it passes.
  Engine::Key rearm_{};
  bool rearm_claimed_ = false;
  bool in_service_ = false;
  SimNanos busy_until_ = 0;
  SimNanos busy_ns_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t bursts_served_ = 0;
};

}  // namespace harmless::sim
