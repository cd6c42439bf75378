#include "softswitch/soft_switch.hpp"

#include <algorithm>

#include "net/parse.hpp"
#include "util/strings.hpp"

namespace harmless::softswitch {

using namespace openflow;

void SwitchSpec::validate(const std::string& name) const {
  if (conntrack && ingress.cores.cores > 1 && ingress.cores.rss != sim::RssPolicy::kSymmetric)
    throw util::ConfigError(name + ": conntrack on " + std::to_string(ingress.cores.cores) +
                            " cores needs RssPolicy::kSymmetric (replies must reach the "
                            "shard that committed the connection)");
}

SoftSwitch::SoftSwitch(sim::Engine& engine, std::string name, std::uint64_t datapath_id,
                       std::size_t of_port_count, const SwitchSpec& spec)
    : ServicedNode(engine, std::move(name), spec.ingress, spec.burst_size),
      datapath_id_(datapath_id),
      of_port_count_(of_port_count),
      pipeline_(spec.tables, spec.specialized, spec.flow_cache, core_count()),
      costs_(spec.costs),
      patches_(of_port_count),
      port_up_(of_port_count + 1, true),
      failover_(spec.failover),
      failover_rng_(spec.failover.seed),
      seen_cache_epoch_(pipeline_.cache().epoch()),
      ha_(engine_, this->name(), pipeline_, failover_, failover_stats_, restarting_,
          costs_.checkpoint_entry_ns) {
  spec.validate(this->name());
  if (spec.conntrack) pipeline_.enable_conntrack(*spec.conntrack);
  ensure_ports(of_port_count);
  // One RX queue per OF port from the start: the poll sweep pays for
  // every port the switch fronts, busy or idle (and the queue -> core
  // steering is decided up front, not on first arrival).
  ensure_rx_queues(of_port_count);
}

void SoftSwitch::observe_cache_epoch() {
  // Hot path (called per burst): O(1) epoch bookkeeping only.
  const std::uint64_t epoch = pipeline_.cache().epoch();
  counters_.cache_invalidations += epoch - seen_cache_epoch_;
  seen_cache_epoch_ = epoch;
}

void SoftSwitch::bind_patch(std::uint32_t of_port, SoftSwitch& peer,
                            std::uint32_t peer_of_port) {
  if (of_port == 0 || of_port > of_port_count_)
    throw util::ConfigError(name() + ": patch of_port " + std::to_string(of_port) +
                            " out of range");
  if (peer_of_port == 0 || peer_of_port > peer.of_port_count_)
    throw util::ConfigError(peer.name() + ": patch of_port " + std::to_string(peer_of_port) +
                            " out of range");
  patches_[of_port - 1] = PatchBinding{&peer, peer_of_port};
  peer.patches_[peer_of_port - 1] = PatchBinding{this, of_port};
}

void SoftSwitch::enable_conntrack(const openflow::CtConfig& config) {
  SwitchSpec{.ingress = ingress(), .conntrack = config}.validate(name());
  pipeline_.enable_conntrack(config);
}

void SoftSwitch::attach_channel(openflow::ControlChannel& channel) {
  channel_ = &channel;
  channel.set_switch_handler(
      [this](Message&& message) { handle_controller_message(std::move(message)); });
  arm_liveness();
}

void SoftSwitch::set_failover(const FailoverSpec& spec) {
  failover_ = spec;
  failover_rng_.reseed(spec.seed);
  arm_liveness();
}

void SoftSwitch::arm_liveness() {
  if (liveness_armed_ || !failover_.enabled() || channel_ == nullptr) return;
  liveness_armed_ = true;
  schedule_echo();
}

void SoftSwitch::schedule_echo() {
  // Perpetual by design (liveness has no natural end); callers drive
  // the engine with run_until. The timer keeps ticking through
  // disconnects and reboots so detection re-arms itself after healing.
  engine_.schedule_after(failover_.echo_interval_ns, [this] {
    if (connected_ && !restarting_) {
      if (echo_outstanding_ > 0) {
        ++failover_stats_.echo_misses;
        if (echo_outstanding_ >= failover_.echo_miss_threshold) {
          on_control_lost();
          schedule_echo();
          return;
        }
      }
      ++failover_stats_.echo_sent;
      ++echo_outstanding_;
      channel_->send_to_controller(EchoRequestMsg{echo_seq_++});
    }
    schedule_echo();
  });
}

void SoftSwitch::on_control_lost() {
  if (!connected_) return;
  connected_ = false;
  ++failover_stats_.disconnects;
  failover_stats_.last_disconnect_at = engine_.now();
  degraded_since_ = engine_.now();
  echo_outstanding_ = 0;
  backoff_ns_ = kReconnectBackoffInitialNs;
  schedule_reconnect_attempt();
}

void SoftSwitch::schedule_reconnect_attempt() {
  const auto spread =
      static_cast<std::uint64_t>(static_cast<double>(backoff_ns_) * kReconnectBackoffJitter);
  const sim::SimNanos delay =
      backoff_ns_ + static_cast<sim::SimNanos>(failover_rng_.below(spread + 1));
  backoff_ns_ = std::min(backoff_ns_ * 2, kReconnectBackoffCapNs);
  engine_.schedule_after(delay, [this] {
    if (connected_ || channel_ == nullptr) return;  // healed meanwhile: stop the loop
    if (!restarting_) {
      ++failover_stats_.reconnect_attempts;
      channel_->send_to_controller(HelloMsg{});
    }
    schedule_reconnect_attempt();
  });
}

void SoftSwitch::on_control_reconnected() {
  connected_ = true;
  ++failover_stats_.reconnects;
  failover_stats_.last_reconnect_at = engine_.now();
  failover_stats_.degraded_ns += engine_.now() - degraded_since_;
  resync_window_ = true;
  echo_outstanding_ = 0;
  backoff_ns_ = kReconnectBackoffInitialNs;
  // The controller's world may have moved while we were deaf: every
  // cached action program is suspect, and standalone-learned stations
  // must not shadow the re-installed flow rules.
  if (pipeline_.cache_enabled()) {
    pipeline_.cache().invalidate_all();
    observe_cache_epoch();
  }
  standalone_macs_.clear();
}

void SoftSwitch::complete_resync() {
  if (!resync_window_) return;
  resync_window_ = false;
  ++failover_stats_.resyncs;
  failover_stats_.last_resync_at = engine_.now();
  if (warm_resync_pending_) {
    // Warm resync: the restored connection table means surviving flows
    // hit their ct_established rules instead of punting, so there is no
    // cold-flow herd for the warm-up governor to throttle — arming it
    // would only tax the (few) genuinely new flows.
    warm_resync_pending_ = false;
    ++failover_stats_.warm_resyncs;
    return;
  }
  if (failover_.warmup_ns > 0) {
    warmup_until_ = engine_.now() + failover_.warmup_ns;
    warmup_budget_ = failover_.warmup_packet_in_budget;
  }
}

bool SoftSwitch::admit_packet_in() {
  if (failover_.enabled() && !connected_) {
    ++failover_stats_.packet_ins_dropped;  // fail-secure suppression
    return false;
  }
  if (engine_.now() < warmup_until_) {
    if (warmup_budget_ == 0) {
      ++failover_stats_.warmup_packet_ins_dropped;
      return false;
    }
    --warmup_budget_;
  }
  return true;
}

void SoftSwitch::fault_crash() {
  restarting_ = true;
  ++failover_stats_.crashes;
  // A rebooting switch forgets everything: flow tables, groups, cached
  // megaflows, tracked connections, standalone-learned stations.
  for (std::size_t t = 0; t < pipeline_.table_count(); ++t)
    pipeline_.table(t).remove(Match{}, /*strict=*/false);
  pipeline_.groups().clear();
  pipeline_.ct_clear();
  if (pipeline_.cache_enabled()) {
    pipeline_.cache().invalidate_all();
    observe_cache_epoch();
  }
  standalone_macs_.clear();
}

void SoftSwitch::fault_restart() {
  if (!restarting_) return;
  restarting_ = false;
  ++failover_stats_.restarts;
  // Stateful restart: rebuild the connection table from the last
  // checkpoint before the control plane even notices. Restored entries
  // come back demoted (ConnTracker::restore) — established flows keep
  // their fast path but must re-confirm through real traffic.
  if (ha_.restore_checkpoint()) warm_resync_pending_ = true;
  // The control session died with the box. Come back up disconnected
  // and re-handshake, so the controller reprograms the empty tables;
  // without failover the switch just waits to be reprogrammed.
  if (failover_.enabled() && channel_ != nullptr && connected_) on_control_lost();
}

void SoftSwitch::standalone_forward(std::uint32_t in_of_port, net::Packet&& packet,
                                    sim::SimNanos charge_ns) {
  ++failover_stats_.standalone_packets;
  packet.charge(charge_ns);
  const net::ParsedPacket& parsed = net::parse_cached(packet).parsed;
  if (!parsed.l2_valid) return;  // not bridgeable: drop
  const net::VlanId vlan = parsed.has_vlan() ? parsed.vlan_vid() : 0;
  const legacy::MacTable::Decision decision = standalone_macs_.bridge(
      vlan, parsed.eth_src, parsed.eth_dst, static_cast<int>(in_of_port), engine_.now());
  if (decision.verdict == legacy::MacTable::Verdict::kFilter) return;
  if (decision.verdict == legacy::MacTable::Verdict::kForward) {
    resolve_output(static_cast<std::uint32_t>(decision.port), in_of_port, std::move(packet));
    return;
  }
  ++failover_stats_.standalone_floods;
  resolve_output(kPortFlood, in_of_port, std::move(packet));
}

bool SoftSwitch::port_up(std::uint32_t of_port) const {
  if (of_port == 0 || of_port > of_port_count_) return false;
  return port_up_[of_port];
}

void SoftSwitch::set_port_state(std::uint32_t of_port, bool up) {
  if (of_port == 0 || of_port > of_port_count_) return;
  if (port_up_[of_port] == up) return;
  port_up_[of_port] = up;
  // Cached action programs may reference this port (directly or via a
  // FLOOD fan-out); conservatively invalidate them all so the next
  // packet of every aggregate re-learns against the new port set.
  if (pipeline_.cache_enabled()) {
    pipeline_.cache().invalidate_all();
    observe_cache_epoch();
  }
  send_port_status(of_port, up);
}

void SoftSwitch::send_port_status(std::uint32_t of_port, bool up) {
  if (channel_ == nullptr) return;
  PortStatusMsg status;
  status.reason = PortStatusMsg::Reason::kModify;
  status.desc.port_no = of_port;
  status.desc.name = name() + "/" + std::to_string(of_port);
  status.desc.up = up;
  channel_->send_to_controller(status);
}

util::Status SoftSwitch::install(const FlowModMsg& mod) {
  ++counters_.flow_mods;
  if (mod.table_id >= pipeline_.table_count())
    return util::Status::error(name() + ": bad table id " + std::to_string(mod.table_id));
  FlowTable& table = pipeline_.table(mod.table_id);

  switch (mod.command) {
    case FlowModMsg::Command::kAdd: {
      FlowEntry entry;
      entry.priority = mod.priority;
      entry.match = mod.match;
      entry.instructions = mod.instructions;
      entry.cookie = mod.cookie;
      entry.idle_timeout = mod.idle_timeout;
      entry.hard_timeout = mod.hard_timeout;
      entry.send_flow_removed = mod.send_flow_removed;
      auto status = table.add(std::move(entry), engine_.now(), mod.check_overlap);
      if (status.is_ok() && resync_window_) ++failover_stats_.flows_reinstalled;
      if (status.is_ok() && (mod.idle_timeout > 0 || mod.hard_timeout > 0))
        schedule_expiry_sweep();
      return status;
    }
    case FlowModMsg::Command::kModify:
      table.modify(mod.match, mod.instructions, /*strict=*/false);
      return util::Status::ok();
    case FlowModMsg::Command::kModifyStrict:
      table.modify(mod.match, mod.instructions, /*strict=*/true, mod.priority);
      return util::Status::ok();
    case FlowModMsg::Command::kDelete:
      table.remove(mod.match, /*strict=*/false);
      return util::Status::ok();
    case FlowModMsg::Command::kDeleteStrict:
      table.remove(mod.match, /*strict=*/true, mod.priority);
      return util::Status::ok();
  }
  return util::Status::error("unreachable");
}

util::Status SoftSwitch::install_group(const GroupModMsg& mod) {
  switch (mod.command) {
    case GroupModMsg::Command::kAdd: return pipeline_.groups().add(mod.entry);
    case GroupModMsg::Command::kModify: return pipeline_.groups().modify(mod.entry);
    case GroupModMsg::Command::kDelete:
      pipeline_.groups().remove(mod.entry.group_id);
      return util::Status::ok();
  }
  return util::Status::error("unreachable");
}

void SoftSwitch::schedule_expiry_sweep() {
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  // 100 ms sweep cadence; reschedules itself only while timed entries
  // remain, so idle simulations still drain their event queues.
  engine_.schedule_after(100'000'000, [this] {
    sweep_scheduled_ = false;
    auto expired = pipeline_.collect_expired(engine_.now());
    // Installed flows keep expiring while degraded (fail-secure keeps
    // forwarding on them until they do — the slow bleed Table 8 shows).
    if (failover_.enabled() && !connected_)
      failover_stats_.flows_expired_degraded += expired.size();
    for (const FlowEntry& entry : expired) {
      if (entry.send_flow_removed && channel_ != nullptr) {
        FlowRemovedMsg removed;
        removed.priority = entry.priority;
        removed.match = entry.match;
        removed.cookie = entry.cookie;
        removed.packet_count = entry.packet_count;
        removed.byte_count = entry.byte_count;
        channel_->send_to_controller(removed);
      }
    }
    bool timed_entries_remain = false;
    for (std::size_t t = 0; t < pipeline_.table_count() && !timed_entries_remain; ++t)
      for (const FlowEntry* entry : pipeline_.table(t).entries())
        if (entry->idle_timeout > 0 || entry->hard_timeout > 0) {
          timed_entries_remain = true;
          break;
        }
    if (timed_entries_remain) schedule_expiry_sweep();
  });
}

void SoftSwitch::handle_controller_message(Message&& message) {
  if (restarting_) return;  // a rebooting switch is deaf to control traffic
  // ANY message from the controller proves the channel is alive — not
  // just echo replies. Without this, a long serialized resync (N flow
  // mods behind the channel's min_gap pacing) delays the echo reply
  // past the miss threshold and the switch declares its controller
  // dead in the middle of being resynced by it.
  echo_outstanding_ = 0;
  if (std::holds_alternative<HelloMsg>(message)) {
    channel_->send_to_controller(HelloMsg{});
    return;
  }
  if (std::holds_alternative<FeaturesRequestMsg>(message)) {
    // A features request while we considered the session dead is the
    // controller accepting our reconnect Hello: the session is back.
    if (failover_.enabled() && !connected_) on_control_reconnected();
    FeaturesReplyMsg reply;
    reply.datapath_id = datapath_id_;
    reply.table_count = static_cast<std::uint8_t>(pipeline_.table_count());
    for (std::uint32_t of_port = 1; of_port <= of_port_count_; ++of_port) {
      PortDesc desc;
      desc.port_no = of_port;
      desc.name = name() + "/" + std::to_string(of_port);
      desc.up = port_up_[of_port];
      reply.ports.push_back(std::move(desc));
    }
    channel_->send_to_controller(std::move(reply));
    return;
  }
  if (const auto* mod = std::get_if<FlowModMsg>(&message)) {
    const util::Status status = install(*mod);
    if (!status.is_ok()) {
      ++counters_.errors;
      channel_->send_to_controller(ErrorMsg{status.message()});
    }
    return;
  }
  if (const auto* group_mod = std::get_if<GroupModMsg>(&message)) {
    const util::Status status = install_group(*group_mod);
    if (!status.is_ok()) {
      ++counters_.errors;
      channel_->send_to_controller(ErrorMsg{status.message()});
    }
    return;
  }
  if (auto* packet_out = std::get_if<PacketOutMsg>(&message)) {
    // Execute the action list on the supplied frame immediately (the
    // datapath charges nothing extra: controller-path packets are rare
    // and their cost is dominated by the channel RTT).
    for (const Action& action : packet_out->actions) {
      if (const auto* out = std::get_if<OutputAction>(&action)) {
        net::Packet copy = packet_out->packet.clone();
        resolve_output(out->port, packet_out->in_port, std::move(copy));
      } else {
        apply_header_action(action, packet_out->packet);
      }
    }
    return;
  }
  if (const auto* barrier = std::get_if<BarrierRequestMsg>(&message)) {
    // The first barrier after a reconnect is the controller's resync
    // fence: everything it re-installed is now in the tables.
    complete_resync();
    channel_->send_to_controller(BarrierReplyMsg{barrier->xid});
    return;
  }
  if (const auto* echo = std::get_if<EchoRequestMsg>(&message)) {
    channel_->send_to_controller(EchoReplyMsg{echo->payload});
    return;
  }
  if (std::holds_alternative<EchoReplyMsg>(message)) {
    ++failover_stats_.echo_replies;
    echo_outstanding_ = 0;
    return;
  }
  if (const auto* stats = std::get_if<FlowStatsRequestMsg>(&message)) {
    FlowStatsReplyMsg reply;
    for (std::size_t t = 0; t < pipeline_.table_count(); ++t) {
      if (stats->table_id != 0xff && stats->table_id != t) continue;
      for (const FlowEntry* entry : pipeline_.table(t).entries()) {
        FlowStatsEntry row;
        row.table_id = static_cast<std::uint8_t>(t);
        row.priority = entry->priority;
        row.match_text = entry->match.to_string();
        row.instructions_text = entry->instructions.to_string();
        row.cookie = entry->cookie;
        row.packet_count = entry->packet_count;
        row.byte_count = entry->byte_count;
        reply.flows.push_back(std::move(row));
      }
    }
    channel_->send_to_controller(std::move(reply));
    return;
  }
  // Remaining message types are controller-bound only; ignore.
}

void SoftSwitch::resolve_output(std::uint32_t of_port, std::uint32_t in_of_port,
                                net::Packet&& packet) {
  auto deliver_one = [this](std::uint32_t port, net::Packet&& p) {
    if (!port_up(port)) {
      ++counters_.drops_port_down;
      return;
    }
    ++counters_.packets_out;
    if (in_service()) {
      emit(port - 1, std::move(p));  // leaves when processing completes
    } else {
      // Controller-driven packet-out: no data-plane service slot was
      // consumed; transmit immediately.
      transmit(port - 1, std::move(p));
    }
  };

  switch (of_port) {
    case kPortFlood:
    case kPortAll:
      // No STP port blocking in this datapath, so FLOOD == ALL: every
      // up port except the ingress one.
      for (std::uint32_t port = 1; port <= of_port_count_; ++port) {
        if (port == in_of_port) continue;
        if (!port_up(port)) continue;
        net::Packet copy = packet.clone();
        copy.charge(costs_.clone_ns);
        deliver_one(port, std::move(copy));
      }
      break;
    case kPortInPort:
      deliver_one(in_of_port, std::move(packet));
      break;
    case kPortController:
      punt(in_of_port, 0, PacketInReason::kAction, std::move(packet));
      break;
    default:
      if (of_port == 0 || of_port > of_port_count_) return;  // invalid port: drop
      // OF1.3: output to the ingress port is suppressed unless the
      // rule explicitly uses OFPP_IN_PORT.
      if (of_port == in_of_port) return;
      deliver_one(of_port, std::move(packet));
  }
}

void SoftSwitch::dispatch_result(PipelineResult& result, std::uint32_t in_of_port,
                                 sim::SimNanos packet_cost) {
  if (result.dropped()) ++counters_.drops_no_match;
  for (auto& [of_port, out_packet] : result.outputs) {
    out_packet.charge(packet_cost / static_cast<sim::SimNanos>(result.outputs.size()));
    resolve_output(of_port, in_of_port, std::move(out_packet));
  }
  for (PacketInEvent& event : result.packet_ins)
    punt(event.in_port, event.table_id, event.reason, std::move(event.packet));
}

void SoftSwitch::punt(std::uint32_t in_port, std::uint8_t table_id, PacketInReason reason,
                      net::Packet&& packet) {
  if (channel_ == nullptr || !admit_packet_in()) return;
  ++counters_.packet_ins;
  channel_->send_to_controller(PacketInMsg{in_port, table_id, reason, std::move(packet)});
}

sim::SimNanos SoftSwitch::service_burst(sim::ServicedNode::Burst&& burst) {
  // burst_size 1 is the per-packet datapath, which runs strictly
  // sequentially and pays no poll sweep and no replay setup.
  const bool per_packet = burst_size() == 1;
  if (!per_packet) ++counters_.service_bursts;
  const std::size_t rx_packets = burst.size();
  DatapathCosts::BurstWork work;
  work.queues_polled = queues_polled();
  work.steered = core_count() > 1;  // one RSS hash per packet pulled
  counters_.rx_queue_polls += work.queues_polled;
  if (work.steered) counters_.rss_steered += rx_packets;

  // Ingress admission per packet: a rebooting box drops everything and
  // down ports drop before the pipeline (both still occupied a slot in
  // the rx burst). The staging vector is a member recycled across
  // bursts — the service loop of one switch never re-enters itself.
  std::vector<BurstPacket>& items = burst_items_;
  items.clear();
  items.reserve(rx_packets);
  for (auto& [in_port, packet] : burst) {
    const std::uint32_t in_of_port = static_cast<std::uint32_t>(in_port) + 1;
    ++counters_.pipeline_runs;
    packet.add_hop();
    if (restarting_) {
      ++failover_stats_.dropped_restarting;
      continue;
    }
    if (!port_up(in_of_port)) {
      ++counters_.drops_port_down;
      continue;
    }
    items.push_back(BurstPacket{std::move(packet), in_of_port});
  }

  if (restarting_ || standalone_active()) {
    // Degraded mode: no pipeline or cache runs. A rebooting box dropped
    // every packet above; fail-standalone MAC-bridges them one by one,
    // sharing the burst overhead over everything the rx burst pulled.
    const sim::SimNanos charge_ns = costs_.bill_ns(work, 1, rx_packets, costs_.standalone_ns);
    for (BurstPacket& item : items)
      standalone_forward(item.in_port, std::move(item.packet), charge_ns);
    return costs_.bill_ns(work, rx_packets, 1,
                          static_cast<sim::SimNanos>(items.size()) * costs_.standalone_ns);
  }

  const bool cache = pipeline_.cache_enabled();
  BurstResult& result = burst_result_;
  if (per_packet)
    pipeline_.run_burst_sequential(items, engine_.now(), current_core(), result);
  else
    pipeline_.run_burst(items, engine_.now(), current_core(), result);
  work.replay_groups = per_packet ? 0 : result.replay_groups;
  counters_.replay_groups += work.replay_groups;

  // Latency metadata: each packet carries its own marginal bill plus an
  // even share of the burst-level overhead (rx/tx setup, the per-queue
  // poll sweep, group setups) and its own rx/tx and steering terms.
  const std::size_t served = result.results.size();
  const sim::SimNanos share_ns = served == 0 ? 0 : costs_.bill_ns(work, 1, served, 0);
  sim::SimNanos marginal_ns = 0;
  std::uint32_t ct_commits = 0;
  for (std::size_t i = 0; i < served; ++i) {
    PipelineResult& packet_result = result.results[i];
    if (cache) {
      if (packet_result.cache_hit)
        ++counters_.cache_hits;
      else
        ++counters_.cache_misses;
    }
    const sim::SimNanos marginal = costs_.marginal_cost_ns(packet_result);
    marginal_ns += marginal;
    ct_commits += packet_result.work.ct_commits;
    dispatch_result(packet_result, items[i].in_port, share_ns + marginal);
  }
  if (cache) observe_cache_epoch();
  // The agent's timers arm only when live connections (or a held
  // checkpoint image) exist. A per-packet burst arms them only after a
  // commit, as the per-packet datapath always has (its digests are
  // pinned). Without conntrack this is the one inline branch.
  if (pipeline_.conntrack_enabled() && (!per_packet || ct_commits != 0)) ha_.arm_ct_timers();
  return costs_.bill_ns(work, rx_packets, 1, marginal_ns);
}

void SoftSwitch::transmit(std::size_t out_port, net::Packet&& packet) {
  const PatchBinding& patch = patches_[out_port];
  if (patch.peer == nullptr) {
    port(out_port).send(std::move(packet));
    return;
  }
  // Patch hand-off: no wire, just a queue insert into the peer's
  // datapath. rx/tx counters still tick on both pseudo-ports.
  packet.charge(costs_.patch_ns);
  port(out_port).tx.add(packet.size());
  patch.peer->port(patch.peer_of_port - 1).receive(std::move(packet));
}

}  // namespace harmless::softswitch
