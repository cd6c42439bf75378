#include "softswitch/soft_switch.hpp"

#include <algorithm>

#include "net/parse.hpp"
#include "util/strings.hpp"

namespace harmless::softswitch {

using namespace openflow;

SoftSwitch::SoftSwitch(sim::Engine& engine, std::string name, std::uint64_t datapath_id,
                       std::size_t of_port_count, std::size_t table_count, bool specialized,
                       bool flow_cache, std::size_t burst_size, const sim::IngressSpec& ingress)
    : ServicedNode(engine, std::move(name), ingress, burst_size),
      datapath_id_(datapath_id),
      of_port_count_(of_port_count),
      pipeline_(table_count, specialized, flow_cache),
      port_up_(of_port_count + 1, true),
      seen_cache_epoch_(pipeline_.cache().epoch()) {
  ensure_ports(of_port_count);
  // One flow-cache shard per worker core: each core learns into (and
  // probes) only its own shard; all shards share the pipeline's one
  // invalidation epoch.
  pipeline_.set_shard_count(core_count());
  // One RX queue per OF port from the start: the poll sweep pays for
  // every port the switch fronts, busy or idle (and the queue -> core
  // steering is decided up front, not on first arrival).
  ensure_rx_queues(of_port_count);
}

void SoftSwitch::observe_cache_epoch() {
  // Hot path (called per burst): O(1) epoch bookkeeping
  // only. The per-shard tier/classifier totals are summed lazily when
  // counters() is read.
  const std::uint64_t epoch = pipeline_.cache().epoch();
  counters_.cache_invalidations += epoch - seen_cache_epoch_;
  seen_cache_epoch_ = epoch;
}

const SoftSwitch::Counters& SoftSwitch::counters() const {
  // Reporting time: aggregate the monotone per-shard stats across the
  // cache shards (one per worker core; one shard total single-core).
  counters_.cache_evictions = 0;
  counters_.cache_subtables = 0;
  counters_.cache_subtable_probes = 0;
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard) {
    counters_.cache_evictions += pipeline_.cache(shard).stats().evictions;
    counters_.cache_subtables += pipeline_.cache(shard).subtable_count();
    counters_.cache_subtable_probes += pipeline_.cache(shard).stats().subtable_probes;
  }
  counters_.ct_lookups = 0;
  counters_.ct_hits = 0;
  counters_.ct_created = 0;
  counters_.ct_expired = 0;
  counters_.ct_evicted = 0;
  counters_.ct_invalid = 0;
  counters_.ct_nat_allocated = 0;
  counters_.ct_nat_failures = 0;
  counters_.ct_connections = 0;
  if (pipeline_.conntrack_enabled()) {
    for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard) {
      const openflow::CtStats& ct = pipeline_.conntrack(shard).stats();
      counters_.ct_lookups += ct.lookups;
      counters_.ct_hits += ct.hits;
      counters_.ct_created += ct.created;
      counters_.ct_expired += ct.expired;
      counters_.ct_evicted += ct.evicted;
      counters_.ct_invalid += ct.invalid;
      counters_.ct_nat_allocated += ct.nat_allocated;
      counters_.ct_nat_failures += ct.nat_failures;
      counters_.ct_connections += pipeline_.conntrack(shard).size();
    }
  }
  return counters_;
}

SoftSwitch::CoreStats SoftSwitch::core_stats(std::size_t core) const {
  CoreStats stats;
  stats.busy_ns = core_busy_ns(core);
  stats.bursts = core_bursts(core);
  stats.packets = core_packets(core);
  stats.rx_queue_polls = core_rx_polls(core);
  stats.rx_queues = core_queue_count(core);
  const openflow::FlowCache& shard = pipeline_.cache(core);
  stats.cache_hits = shard.stats().hits;
  stats.cache_misses = shard.stats().misses;
  stats.cache_evictions = shard.stats().evictions;
  stats.cache_megaflows = shard.megaflow_count();
  stats.cache_subtables = shard.subtable_count();
  if (pipeline_.conntrack_enabled()) {
    const openflow::ConnTracker& tracker = pipeline_.conntrack(core);
    stats.ct_connections = tracker.size();
    stats.ct_created = tracker.stats().created;
    stats.ct_lookups = tracker.stats().lookups;
  }
  return stats;
}

void SoftSwitch::bind_patch(std::uint32_t of_port, SoftSwitch& peer,
                            std::uint32_t peer_of_port) {
  if (of_port == 0 || of_port > of_port_count_)
    throw util::ConfigError(name() + ": patch of_port " + std::to_string(of_port) +
                            " out of range");
  if (peer_of_port == 0 || peer_of_port > peer.of_port_count_)
    throw util::ConfigError(peer.name() + ": patch of_port " + std::to_string(peer_of_port) +
                            " out of range");
  patches_[of_port] = PatchBinding{&peer, peer_of_port};
  peer.patches_[peer_of_port] = PatchBinding{this, of_port};
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
  backoff_ns_ = spec.backoff_initial_ns;
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
  backoff_ns_ = failover_.backoff_initial_ns;
  schedule_reconnect_attempt();
}

void SoftSwitch::schedule_reconnect_attempt() {
  sim::SimNanos delay = backoff_ns_;
  if (failover_.backoff_jitter > 0) {
    const auto spread = static_cast<std::uint64_t>(
        static_cast<double>(backoff_ns_) * failover_.backoff_jitter);
    if (spread > 0) delay += static_cast<sim::SimNanos>(failover_rng_.below(spread + 1));
  }
  backoff_ns_ = std::min(backoff_ns_ * 2, failover_.backoff_cap_ns);
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
  backoff_ns_ = failover_.backoff_initial_ns;
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
  if (ct_state_restored_) {
    // Warm resync: the restored connection table means surviving flows
    // hit their ct_established rules instead of punting, so there is no
    // cold-flow herd for the warm-up governor to throttle — arming it
    // would only tax the (few) genuinely new flows.
    ct_state_restored_ = false;
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
  if (pipeline_.conntrack_enabled()) pipeline_.ct_clear();
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
  if (failover_.checkpointing() && pipeline_.conntrack_enabled() && !ct_checkpoint_.empty()) {
    const std::size_t shards =
        ct_checkpoint_.size() < pipeline_.shard_count() ? ct_checkpoint_.size()
                                                        : pipeline_.shard_count();
    std::size_t restored = 0;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const openflow::CtRestoreResult result =
          pipeline_.conntrack(shard).restore(ct_checkpoint_[shard], engine_.now());
      restored += result.restored;
      failover_stats_.ct_restored += result.restored;
      failover_stats_.ct_restore_dropped += result.dropped;
    }
    if (restored > 0) {
      ct_state_restored_ = true;   // the next resync is warm
      schedule_ct_sweep();         // re-arm expiry for the re-filed wheel
      schedule_ct_checkpoint();    // keep checkpointing the restored table
    }
  }
  // The control session died with the box. Come back up disconnected
  // and re-handshake, so the controller reprograms the empty tables;
  // without failover the switch just waits to be reprogrammed.
  if (failover_.enabled() && channel_ != nullptr && connected_) on_control_lost();
}

void SoftSwitch::standalone_forward(std::uint32_t in_of_port, net::Packet&& packet,
                                    sim::SimNanos charge_ns) {
  ++failover_stats_.standalone_packets;
  packet.charge(charge_ns);
  const net::ParsedPacket parsed = net::parse_cached(packet).parsed;
  if (!parsed.l2_valid) return;  // not bridgeable: drop
  const net::VlanId vlan = parsed.has_vlan() ? parsed.vlan_vid() : 0;
  if (!parsed.eth_src.is_multicast() && !parsed.eth_src.is_zero())
    standalone_macs_.learn(vlan, parsed.eth_src, static_cast<int>(in_of_port), engine_.now());
  std::optional<int> out;
  if (!parsed.eth_dst.is_multicast())
    out = standalone_macs_.lookup(vlan, parsed.eth_dst, engine_.now());
  if (out && static_cast<std::uint32_t>(*out) == in_of_port)
    return;  // destination on the ingress segment: filter
  if (out) {
    resolve_output(static_cast<std::uint32_t>(*out), in_of_port, std::move(packet));
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

void SoftSwitch::schedule_ct_sweep() {
  if (ct_sweep_scheduled_ || !pipeline_.conntrack_enabled()) return;
  if (pipeline_.ct_connection_count() == 0) return;
  ct_sweep_scheduled_ = true;
  // Sweep at the configured cadence (the timer wheel quantizes entry
  // deadlines to the same interval, so one sweep per bucket suffices);
  // re-arm only while connections remain — idle engines still drain.
  engine_.schedule_after(pipeline_.conntrack(0).config().sweep_interval, [this] {
    ct_sweep_scheduled_ = false;
    pipeline_.ct_expire(engine_.now());
    schedule_ct_sweep();
  });
}

void SoftSwitch::take_ct_checkpoint() {
  const std::size_t shards = pipeline_.shard_count();
  // Incremental mode only works against a held image of the same
  // shape; the first cadence (or a shape change) is always full.
  const bool incremental =
      failover_.incremental_checkpoints && ct_checkpoint_.size() == shards;
  if (!incremental) ct_checkpoint_.assign(shards, openflow::CtSnapshot{});
  for (std::size_t shard = 0; shard < shards; ++shard) {
    openflow::ConnTracker& ct = pipeline_.conntrack(shard);
    if (incremental && !ct.dirty()) {
      // Untouched since its last capture: the held image is still
      // exact (every commit/refresh/kill dirties), so reuse it free.
      ++failover_stats_.checkpoint_shards_skipped;
      continue;
    }
    openflow::CtSnapshot snap = ct.checkpoint(engine_.now());
    ct.clear_dirty();
    failover_stats_.checkpoint_entries += snap.entries.size();
    failover_stats_.checkpoint_bytes += snap.wire_bytes();
    failover_stats_.checkpoint_ns_billed +=
        static_cast<sim::SimNanos>(snap.entries.size()) * costs_.checkpoint_entry_ns;
    ct_checkpoint_[shard] = std::move(snap);
  }
  ++failover_stats_.checkpoints;
}

void SoftSwitch::schedule_ct_checkpoint() {
  if (ct_checkpoint_scheduled_ || !failover_.checkpointing() || !pipeline_.conntrack_enabled())
    return;
  if (pipeline_.ct_connection_count() == 0 && ct_checkpoint_.empty()) return;
  ct_checkpoint_scheduled_ = true;
  engine_.schedule_after(failover_.checkpoint_interval_ns, [this] {
    ct_checkpoint_scheduled_ = false;
    // A crashed switch takes no checkpoints — overwriting the held
    // image with the wiped table would defeat the restore it feeds.
    if (restarting_) return;
    take_ct_checkpoint();
    // Re-arm while connections remain; the final firing after the
    // table empties snapshots it as empty (never leaves a stale image)
    // and then disarms, so engines driven by run() still drain.
    if (pipeline_.ct_connection_count() > 0) schedule_ct_checkpoint();
  });
}

// ---- stateful HA: active–standby pairing ----

void SoftSwitch::install_ha_delta_sinks() {
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard) {
    pipeline_.conntrack(shard).set_delta_sink([this, shard](const openflow::CtDelta& delta) {
      // Only an unfenced active publishes state: a fenced box must not
      // leak even kUpdate/kClose advances of established flows, and a
      // standby's resync-driven kills must never echo back out.
      if (ha_fenced_ || ha_role_ != HaRole::kActive) return;
      openflow::CtDelta stamped = delta;
      stamped.epoch = ha_epoch_;
      repl_out_->publish(shard, stamped);
    });
  }
}

void SoftSwitch::install_ha_receivers(ReplicationChannel& channel) {
  channel.set_delta_handler([this](const ReplicationRecord& record) { on_ha_delta(record); });
  channel.set_heartbeat_handler([this](std::uint64_t epoch) { on_ha_heartbeat(epoch); });
  channel.set_snapshot_handler(
      [this](std::size_t shard, const openflow::CtSnapshot& snapshot, std::uint64_t epoch) {
        on_ha_snapshot(shard, snapshot, epoch);
      });
  channel.set_sync_request_handler([this] { on_ha_sync_request(); });
}

void SoftSwitch::enable_ha_active(ReplicationChannel& channel, ReplicationChannel* reverse) {
  repl_out_ = &channel;
  repl_in_ = reverse;
  ha_role_ = HaRole::kActive;
  install_ha_delta_sinks();
  if (repl_in_ != nullptr) install_ha_receivers(*repl_in_);
  if (ha_witness_ != nullptr) {
    // Fail-closed: fenced until the witness grants. The very first
    // renewal (one rtt away) lifts it in the healthy case.
    ha_apply_fence(true);
    ha_renew_lease();
    schedule_ha_lease_renew();
  }
  schedule_ha_heartbeat();
}

void SoftSwitch::schedule_ha_heartbeat() {
  if (ha_heartbeat_armed_ || repl_out_ == nullptr) return;
  const sim::SimNanos interval = repl_out_->spec().heartbeat_interval_ns;
  if (interval <= 0) return;
  ha_heartbeat_armed_ = true;
  engine_.schedule_after(interval, [this] {
    ha_heartbeat_armed_ = false;
    // A crashed or fenced active is silent — silence *is* the takeover
    // signal, and a fenced box advertising liveness would stall a
    // standby that could otherwise win the lease and serve. The timer
    // keeps running so heartbeats resume on restart/unfence.
    if (!restarting_ && ha_role_ == HaRole::kActive && !ha_fenced_)
      repl_out_->publish_heartbeat(ha_epoch_);
    schedule_ha_heartbeat();
  });
}

void SoftSwitch::enable_ha_standby(ReplicationChannel& channel, ReplicationChannel* reverse) {
  repl_in_ = &channel;
  repl_out_ = reverse;
  ha_role_ = HaRole::kStandby;
  last_ha_heartbeat_ = engine_.now();
  install_ha_receivers(channel);
  // A standby never mints state; with a witness attached the fence
  // stays up until this box is actually promoted under a lease.
  if (ha_witness_ != nullptr) ha_apply_fence(true);
  schedule_ha_monitor();
}

void SoftSwitch::set_ha_witness(sim::WitnessLink& link) {
  ha_witness_ = &link;
  // Fail-closed from the moment arbitration is configured: nobody
  // mints state without a lease.
  ha_apply_fence(true);
  if (ha_role_ == HaRole::kActive) {
    ha_renew_lease();
    schedule_ha_lease_renew();
  }
}

void SoftSwitch::schedule_ha_monitor() {
  if (ha_monitor_armed_ || repl_in_ == nullptr || ha_role_ != HaRole::kStandby) return;
  const ReplicationSpec& spec = repl_in_->spec();
  if (spec.heartbeat_interval_ns <= 0) return;
  ha_monitor_armed_ = true;
  engine_.schedule_after(spec.heartbeat_interval_ns, [this] {
    ha_monitor_armed_ = false;
    if (ha_role_ != HaRole::kStandby) return;  // promotion stops the monitor
    const ReplicationSpec& spec = repl_in_->spec();
    const sim::SimNanos silence = engine_.now() - last_ha_heartbeat_;
    // A demoted ex-active still begging for its warm resync retries
    // here (the first sync request may have died on the wire).
    if (ha_failback_pending_ && !restarting_ && repl_out_ != nullptr)
      repl_out_->publish_sync_request();
    // Never self-promote before first contact: until a heartbeat has
    // actually arrived the standby cannot distinguish a dead active
    // from sync latency longer than the miss threshold (bootstrap
    // promotion is the operator's call, not the monitor's).
    if (!restarting_ && ha_heartbeat_seen_ &&
        silence > static_cast<sim::SimNanos>(spec.takeover_miss_threshold) *
                      spec.heartbeat_interval_ns) {
      ha_request_promotion();
      // Keep monitoring: with a witness the promotion is asynchronous
      // (and may be denied); the role flip stops the re-arm naturally.
    }
    schedule_ha_monitor();
  });
}

void SoftSwitch::ha_request_promotion() {
  if (ha_witness_ == nullptr) {
    // Witness-less PR-9 pair: heartbeat silence alone decides.
    ha_takeover();
    return;
  }
  ha_witness_->request_lease([this](bool granted, std::uint64_t epoch,
                                    sim::SimNanos expires_at) {
    if (ha_role_ != HaRole::kStandby) return;  // raced with another path
    if (!granted) {
      ++failover_stats_.ha_lease_denials;
      ++failover_stats_.ha_promotions_denied;
      if (epoch > ha_epoch_) ha_epoch_ = epoch;
      return;
    }
    ++failover_stats_.ha_lease_grants;
    ha_epoch_ = epoch;
    ha_lease_expires_ = expires_at;
    ha_takeover();
  });
}

void SoftSwitch::ha_takeover() {
  if (ha_role_ == HaRole::kActive || ha_promoted_) return;
  ha_promoted_ = true;
  ha_role_ = HaRole::kActive;
  ++failover_stats_.takeovers;
  // Takeover hygiene: every replicated connection is only as fresh as
  // the sync stream was — demote them all so the ones that died while
  // replication lagged expire on the transient timeout, while live
  // flows re-confirm through their own traffic.
  if (pipeline_.conntrack_enabled()) {
    for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard)
      pipeline_.conntrack(shard).demote_all(engine_.now());
    schedule_ct_sweep();
  }
  // The promotion lease (when arbitrated) was taken in
  // ha_request_promotion; lift the fence and start acting the part:
  // publish deltas/heartbeats on the reverse channel, keep renewing.
  ha_set_fenced(false);
  if (repl_out_ != nullptr) {
    if (pipeline_.conntrack_enabled()) install_ha_delta_sinks();
    schedule_ha_heartbeat();
  }
  if (ha_witness_ != nullptr) {
    ha_arm_fence_check(ha_lease_expires_);
    schedule_ha_lease_renew();
  }
  if (ha_takeover_handler_) ha_takeover_handler_();
}

// ---- witness-arbitrated fencing + warm failback ----

void SoftSwitch::ha_apply_fence(bool fenced) {
  ha_fenced_ = fenced;
  if (!pipeline_.conntrack_enabled()) return;
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard)
    pipeline_.conntrack(shard).set_fenced(fenced);
}

void SoftSwitch::ha_set_fenced(bool fenced) {
  if (ha_fenced_ == fenced) return;
  if (fenced)
    ++failover_stats_.ha_fences;
  else
    ++failover_stats_.ha_unfences;
  ha_apply_fence(fenced);
}

void SoftSwitch::ha_renew_lease() {
  if (ha_witness_ == nullptr || ha_role_ != HaRole::kActive || restarting_) return;
  ha_witness_->request_lease([this](bool granted, std::uint64_t epoch,
                                    sim::SimNanos expires_at) {
    if (ha_role_ != HaRole::kActive) return;  // demoted while in flight
    if (granted) {
      ++failover_stats_.ha_lease_grants;
      ha_epoch_ = epoch;
      ha_lease_expires_ = expires_at;
      ha_set_fenced(false);
      ha_arm_fence_check(expires_at);
      return;
    }
    ++failover_stats_.ha_lease_denials;
    // Someone else holds the lease: fence immediately (do not wait for
    // expiry) and, since the denial proves a newer holder epoch, step
    // down and ask the new active for our state back.
    ha_set_fenced(true);
    if (epoch > ha_epoch_) ha_demote(epoch);
  });
}

void SoftSwitch::schedule_ha_lease_renew() {
  if (ha_renew_armed_ || ha_witness_ == nullptr) return;
  const sim::SimNanos interval = ha_witness_->spec().renew_interval_ns;
  if (interval <= 0) return;
  ha_renew_armed_ = true;
  engine_.schedule_after(interval, [this] {
    ha_renew_armed_ = false;
    if (ha_role_ != HaRole::kActive) return;  // a standby does not renew
    ha_renew_lease();  // no-ops while restarting_, resumes after
    schedule_ha_lease_renew();
  });
}

void SoftSwitch::ha_arm_fence_check(sim::SimNanos expires_at) {
  engine_.schedule_at(expires_at, [this, expires_at] {
    // Stale checks no-op: a renewal moved ha_lease_expires_ forward.
    (void)expires_at;
    if (ha_role_ != HaRole::kActive || ha_fenced_) return;
    if (engine_.now() >= ha_lease_expires_) ha_set_fenced(true);
  });
}

void SoftSwitch::ha_demote(std::uint64_t epoch) {
  if (ha_role_ != HaRole::kActive) return;
  ha_role_ = HaRole::kStandby;
  ha_promoted_ = false;
  ++failover_stats_.ha_demotions;
  if (epoch > ha_epoch_) ha_epoch_ = epoch;
  // The fence stays up: a standby never mints state. (apply_delta and
  // resync bypass the conntrack fence by design — it only gates
  // process()'s miss path.)
  ha_set_fenced(true);
  last_ha_heartbeat_ = engine_.now();  // restart the silence clock
  ha_heartbeat_seen_ = false;          // and require fresh contact
  // Warm failback: beg the new active to stream its table back. The
  // monitor retries this while pending, in case the request is lost.
  ha_failback_pending_ = true;
  if (repl_out_ != nullptr && !restarting_) repl_out_->publish_sync_request();
  schedule_ha_monitor();
}

void SoftSwitch::on_ha_heartbeat(std::uint64_t epoch) {
  ha_heartbeat_seen_ = true;
  last_ha_heartbeat_ = engine_.now();
  if (epoch > ha_epoch_) {
    // The peer provably holds a newer lease than we ever did. An
    // active hearing this steps down — this is how a healed partition
    // resolves without the witness having to referee twice.
    const bool was_active = ha_role_ == HaRole::kActive;
    ha_epoch_ = epoch;
    if (was_active) ha_demote(epoch);
  }
}

void SoftSwitch::on_ha_delta(const ReplicationRecord& record) {
  // Epoch gate first: stale-epoch deltas are refused no matter the
  // role — a promoted active must still count (and drop) a fenced
  // ex-active's in-flight state.
  if (record.delta.epoch < ha_epoch_) {
    ++failover_stats_.ha_deltas_rejected_epoch;
    return;
  }
  if (ha_role_ != HaRole::kStandby || restarting_) return;
  if (!pipeline_.conntrack_enabled() || record.shard >= pipeline_.shard_count()) return;
  if (record.delta.epoch > ha_epoch_) ha_epoch_ = record.delta.epoch;
  pipeline_.conntrack(record.shard).apply_delta(record.delta, engine_.now());
  schedule_ct_sweep();  // replicated entries must expire here too
}

void SoftSwitch::on_ha_snapshot(std::size_t shard, const openflow::CtSnapshot& snapshot,
                                std::uint64_t epoch) {
  // Failback stream from the current active: only a standby consumes
  // it, and only at the current (or a newer) epoch.
  if (ha_role_ != HaRole::kStandby || restarting_) return;
  if (epoch < ha_epoch_) return;
  if (!pipeline_.conntrack_enabled() || shard >= pipeline_.shard_count()) return;
  if (epoch > ha_epoch_) ha_epoch_ = epoch;
  const std::size_t upserts = pipeline_.conntrack(shard).resync(snapshot, engine_.now());
  failover_stats_.ha_failback_entries += upserts;
  if (ha_failback_pending_ && shard + 1 == pipeline_.shard_count()) {
    ha_failback_pending_ = false;
    ++failover_stats_.ha_failbacks;  // rejoined warm
  }
  schedule_ct_sweep();
}

void SoftSwitch::on_ha_sync_request() {
  // Only a live unfenced active is authoritative enough to stream its
  // table to a rejoining peer.
  if (ha_role_ != HaRole::kActive || ha_fenced_ || restarting_) return;
  if (repl_out_ == nullptr || !pipeline_.conntrack_enabled()) return;
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard)
    repl_out_->publish_snapshot(shard, pipeline_.conntrack(shard).checkpoint(engine_.now()),
                                ha_epoch_);
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
    case kPortController: {
      if (channel_ != nullptr && admit_packet_in()) {
        ++counters_.packet_ins;
        PacketInMsg punt;
        punt.in_port = in_of_port;
        punt.reason = PacketInReason::kAction;
        punt.packet = std::move(packet);
        channel_->send_to_controller(std::move(punt));
      }
      break;
    }
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
  for (PacketInEvent& event : result.packet_ins) {
    if (channel_ == nullptr || !admit_packet_in()) continue;
    ++counters_.packet_ins;
    PacketInMsg punt;
    punt.in_port = event.in_port;
    punt.table_id = event.table_id;
    punt.reason = event.reason;
    punt.packet = std::move(event.packet);
    channel_->send_to_controller(std::move(punt));
  }
}

sim::SimNanos SoftSwitch::service_burst(sim::ServicedNode::Burst&& burst) {
  // A burst that swept no queues is a budget-1 burst: the per-packet
  // datapath, which runs strictly sequentially and pays no replay setup.
  const bool per_packet = queues_polled() == 0;
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
    const sim::SimNanos marginal = costs_.marginal_cost_ns(packet_result, cache);
    marginal_ns += marginal;
    ct_commits += packet_result.ct_commits;
    dispatch_result(packet_result, items[i].in_port, share_ns + marginal);
  }
  if (cache) observe_cache_epoch();
  // Both timers arm only when live connections (or a held checkpoint
  // image) exist. A per-packet burst arms them only after a commit, as
  // the per-packet datapath always has (its digests are pinned).
  if (!per_packet || ct_commits != 0) {
    schedule_ct_sweep();
    schedule_ct_checkpoint();
  }
  return costs_.bill_ns(work, rx_packets, 1, marginal_ns);
}

void SoftSwitch::transmit(std::size_t out_port, net::Packet&& packet) {
  const std::uint32_t of_port = static_cast<std::uint32_t>(out_port) + 1;
  const auto it = patches_.find(of_port);
  if (it == patches_.end()) {
    port(out_port).send(std::move(packet));
    return;
  }
  // Patch hand-off: no wire, just a queue insert into the peer's
  // datapath. rx/tx counters still tick on both pseudo-ports.
  packet.charge(costs_.patch_ns);
  port(out_port).tx.add(packet.size());
  SoftSwitch& peer = *it->second.peer;
  const std::uint32_t peer_of_port = it->second.peer_of_port;
  peer.port(peer_of_port - 1).receive(std::move(packet));
}

}  // namespace harmless::softswitch
