#include "sim/node.hpp"

#include <algorithm>
#include <utility>

#include "net/parse.hpp"
#include "util/status.hpp"

namespace harmless::sim {

void Port::send(net::Packet&& packet) {
  tx.add(packet.size());
  if (out_ == nullptr) {
    ++tx_unwired_drops;
    return;
  }
  out_->transmit(std::move(packet));
}

void Port::receive(net::Packet&& packet) {
  rx.add(packet.size());
  owner_->handle(index_, std::move(packet));
}

void Node::ensure_ports(std::size_t count) {
  while (ports_.size() < count)
    ports_.push_back(std::make_unique<Port>(*this, static_cast<int>(ports_.size())));
}

Port& Node::port(std::size_t index) {
  if (index >= ports_.size())
    throw util::ConfigError(name() + ": port " + std::to_string(index) + " out of range");
  return *ports_[index];
}

const Port& Node::port(std::size_t index) const {
  if (index >= ports_.size())
    throw util::ConfigError(name() + ": port " + std::to_string(index) + " out of range");
  return *ports_[index];
}

ServicedNode::ServicedNode(Engine& engine, std::string name, IngressSpec ingress,
                           std::size_t burst_size)
    : Node(engine, std::move(name)), ingress_(ingress), burst_size_(burst_size) {
  if (burst_size_ == 0)
    throw util::ConfigError(this->name() + ": burst_size must be at least 1");
  if (ingress_.cores.cores == 0)
    throw util::ConfigError(this->name() + ": cores must be at least 1");
  cores_.resize(ingress_.cores.cores);
  for (Core& core : cores_) core.scheduler = make_scheduler(ingress_.scheduler);
}

void ServicedNode::ensure_rx_queues(std::size_t port_count) {
  // One queue per port; under the symmetric grid, one per (port, core)
  // — queue index = port * stride + core, in_port = index / stride.
  const std::size_t stride = queue_stride();
  while (rx_queues_.size() < port_count * stride) {
    const std::size_t index = rx_queues_.size();
    rx_queues_.emplace_back(static_cast<int>(index / stride));
    // Steering decision: the queue belongs to one worker core for its
    // lifetime (the RSS policy; the grid encodes its core in the
    // index). Its ready bit is bound now, because a packet may land in
    // it before the next step. Queue views hold pointers into
    // rx_queues_, which may have just reallocated — rebuild them lazily
    // before the next step (the bindings name the core's ReadyBits, not
    // the queue's address, so they survive the move).
    const std::size_t core = ingress_.cores.core_of(index);
    queue_core_.push_back(core);
    Core& owner = cores_[core];
    rx_queues_.back().bind(owner.view.ready, owner.queue_indices.size());
    owner.queue_indices.push_back(index);
    views_dirty_ = true;
  }
}

void ServicedNode::refresh_views() {
  if (!views_dirty_) return;
  views_dirty_ = false;
  for (Core& core : cores_) {
    core.view.queues.clear();
    core.view.queues.reserve(core.queue_indices.size());
    for (const std::size_t index : core.queue_indices)
      core.view.queues.push_back(&rx_queues_[index]);
  }
}

std::size_t ServicedNode::steer_core(net::Packet& packet) {
  if (queue_stride() == 1) return 0;  // collapsed grid: core_of steers the queue
  // Symmetric per-flow steering: hash the sorted endpoint pair, so
  // a→b and b→a land on the same core (the conntrack shard-affinity
  // invariant). The interned parse rides the packet into the datapath,
  // so the pipeline's later parse_cached call is a cache hit.
  const net::ParsedPacket& parsed = net::parse_cached(packet).parsed;
  std::uint64_t h = 0;
  if (parsed.ipv4 && (parsed.tcp || parsed.udp)) {
    h = util::symmetric_flow_hash(parsed.ipv4->src.value(), parsed.src_port(),
                                  parsed.ipv4->dst.value(), parsed.dst_port(),
                                  parsed.ipv4->protocol);
  } else if (parsed.ipv4) {
    h = util::symmetric_pair_hash(parsed.ipv4->src.value(), parsed.ipv4->dst.value());
  } else if (parsed.l2_valid) {
    h = util::symmetric_pair_hash(parsed.eth_src.to_u64(), parsed.eth_dst.to_u64());
  }
  return static_cast<std::size_t>(h) % cores_.size();
}

void ServicedNode::handle(int in_port, net::Packet&& packet) {
  if (in_port < 0)
    throw util::ConfigError(name() + ": packet on negative in_port " + std::to_string(in_port));
  const auto port = static_cast<std::size_t>(in_port);
  ensure_rx_queues(port + 1);
  const std::size_t queue_index = port * queue_stride() + steer_core(packet);
  RxQueue& queue = rx_queues_[queue_index];
  // Admission: the shared buffer bound applies always (exactly the
  // historical shared-FIFO drop rule); the per-port bound, when set,
  // partitions that buffer so one port's backlog cannot crowd out
  // another port's admissions. The per-port bound covers the whole
  // queue group of the port under the symmetric grid.
  if (total_depth_ >= ingress_.queue_capacity ||
      (ingress_.port_queue_capacity > 0 && port_queue_depth(port) >= ingress_.port_queue_capacity)) {
    queue.count_drop();
    ++queue_drops_;
    return;
  }
  queue.push(arrival_seq_++, std::move(packet));
  ++total_depth_;
  ++cores_[queue_core_[queue_index]].backlog;
  if (!draining_) {
    draining_ = true;
    // The last step left its re-arm as a claimed key: if that key has
    // not passed, the drain runs under it, exactly where the eager
    // re-arm would have run; otherwise the eager re-arm would already
    // have found the node empty and gone idle.
    if (rearm_claimed_ && !engine_.passed(rearm_)) {
      engine_.schedule_claimed(rearm_, [this] { drain(); });
    } else {
      engine_.schedule_at(std::max(engine_.now(), busy_until_), [this] { drain(); });
    }
    rearm_claimed_ = false;
  }
}

std::size_t ServicedNode::port_queue_depth(std::size_t port) const {
  const std::size_t stride = queue_stride();
  std::size_t depth = 0;
  for (std::size_t q = port * stride; q < (port + 1) * stride && q < rx_queues_.size(); ++q)
    depth += rx_queues_[q].depth();
  return depth;
}

std::uint64_t ServicedNode::port_queue_drops(std::size_t port) const {
  const std::size_t stride = queue_stride();
  std::uint64_t drops = 0;
  for (std::size_t q = port * stride; q < (port + 1) * stride && q < rx_queues_.size(); ++q)
    drops += rx_queues_[q].drops();
  return drops;
}

std::size_t ServicedNode::port_queue_peak_depth(std::size_t port) const {
  // Sum of per-queue peaks — an upper bound on the port's instantaneous
  // peak, exact when the grid is collapsed (the common case).
  const std::size_t stride = queue_stride();
  std::size_t peak = 0;
  for (std::size_t q = port * stride; q < (port + 1) * stride && q < rx_queues_.size(); ++q)
    peak += rx_queues_[q].peak_depth();
  return peak;
}

void ServicedNode::emit(std::size_t out_port, net::Packet&& packet) {
  if (!in_service_)
    throw util::ConfigError(name() + ": emit() called outside a service burst");
  pending_out_.emplace_back(out_port, std::move(packet));
}

SimNanos ServicedNode::serve_core(std::size_t core_index, SimNanos step_start) {
  Core& core = cores_[core_index];
  current_core_ = core_index;

  in_service_ = true;
  // Reuse a delivered tx-burst vector's capacity when one has come
  // back through the pool (pending_out_ was moved into the tx event).
  if (pending_out_.capacity() == 0 && !out_pool_.empty()) {
    pending_out_ = std::move(out_pool_.back());
    out_pool_.pop_back();
  }
  pending_out_.clear();
  // One modelled poll sweep over every RX queue this core owns, empty
  // or not — a batched-datapath cost only, billed here; the host finds
  // the backlogged queues through the ready bits instead. burst_size 1
  // is the per-packet datapath and sweeps nothing.
  queues_polled_ = burst_size_ == 1 ? 0 : core.view.queues.size();

  // The core's scheduler picks what this burst serves (one packet in
  // per-packet mode: the classic single-server queue, scheduler-ordered).
  // The burst vector is per-core scratch: service_burst(Burst&&) binds
  // it by reference and moves only the packets out, so its capacity
  // survives from burst to burst.
  Burst& burst = core.burst;
  burst.clear();
  burst.reserve(std::min(core.backlog, burst_size_));
  core.scheduler->next_burst(core.view, burst_size_, burst);
  if (burst.empty())
    throw util::ConfigError(name() + ": scheduler " + core.scheduler->name() +
                            " idled with backlog (work-conserving contract)");
  total_depth_ -= burst.size();
  core.backlog -= burst.size();
  core.packets += burst.size();
  const SimNanos cost = service_burst(std::move(burst));
  burst.clear();  // drop the moved-from shells, keep the capacity
  in_service_ = false;
  ++bursts_served_;
  ++core.bursts;
  busy_ns_ += cost;
  core.busy_ns += cost;

  // This core's outputs leave when *its* burst finishes processing (a
  // tx burst at step_start + its own cost, not the step makespan);
  // each carries the compute cost it accrued in its metadata (the
  // service implementation charges it).
  if (!pending_out_.empty()) {
    auto outputs = std::move(pending_out_);
    pending_out_.clear();
    engine_.schedule_at(step_start + cost, [this, outputs = std::move(outputs)]() mutable {
      for (auto& [out_port, out_packet] : outputs)
        transmit(out_port, std::move(out_packet));
      // Return the emptied vector to the pool for the next burst.
      outputs.clear();
      if (out_pool_.size() < 8) out_pool_.push_back(std::move(outputs));
    });
  }
  return cost;
}

void ServicedNode::drain() {
  if (total_depth_ == 0) {
    draining_ = false;
    return;
  }
  refresh_views();

  // One bulk-synchronous service step: every backlogged core drains
  // one burst. Each core is billed its own busy nanoseconds; the node
  // (and the next step) advances by the step makespan — cores that
  // finish early idle until the slowest core's burst completes, which
  // is exactly what lockstep run-to-completion workers cost.
  const SimNanos step_start = engine_.now();
  SimNanos makespan = 0;
  for (std::size_t core = 0; core < cores_.size(); ++core) {
    if (cores_[core].backlog == 0) continue;
    makespan = std::max(makespan, serve_core(core, step_start));
  }
  busy_until_ = step_start + makespan;

  // Serve the next step when this one's makespan elapses. An empty node
  // only claims that step's key: the drain would find nothing to do
  // unless a packet arrives before the key passes (see handle()).
  if (total_depth_ == 0) {
    draining_ = false;
    rearm_ = engine_.claim(busy_until_);
    rearm_claimed_ = true;
    return;
  }
  engine_.schedule_at(busy_until_, [this] { drain(); });
}

}  // namespace harmless::sim
