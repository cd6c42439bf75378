#include "softswitch/ha_agent.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace harmless::softswitch {

void HaAgent::require_conntrack(const char* what) const {
  if (!pipeline_.conntrack_enabled())
    throw util::ConfigError(owner_ + ": " + what + " requires conntrack (enable it first)");
}

void HaAgent::schedule_ct_sweep() {
  // No live connection (or no conntrack at all): nothing to expire.
  if (ct_sweep_scheduled_ || pipeline_.ct_connection_count() == 0) return;
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

void HaAgent::schedule_ct_checkpoint() {
  if (checkpoint_scheduled_ || !spec_.checkpointing()) return;
  // Nothing live and no image to overwrite (or no conntrack at all).
  if (pipeline_.ct_connection_count() == 0 && checkpoint_.empty()) return;
  checkpoint_scheduled_ = true;
  engine_.schedule_after(spec_.checkpoint_interval_ns, [this] {
    checkpoint_scheduled_ = false;
    // A crashed switch takes no checkpoints — overwriting the held
    // image with the wiped table would defeat the restore it feeds.
    if (crashed_) return;
    const std::size_t shards = pipeline_.shard_count();
    // Incremental mode only works against a held image of the same
    // shape; the first cadence (or a shape change) is always full.
    const bool incremental = spec_.incremental_checkpoints && checkpoint_.size() == shards;
    checkpoint_.resize(shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      openflow::ConnTracker& ct = pipeline_.conntrack(shard);
      if (incremental && !ct.dirty()) {
        // Untouched since its last capture: the held image is still
        // exact (every commit/refresh/kill dirties), so reuse it free.
        ++stats_.checkpoint_shards_skipped;
        continue;
      }
      // The host patches the rows that changed; the model still bills
      // the full image of a dirty shard.
      const std::size_t entries = ct.capture(checkpoint_[shard], engine_.now(), incremental);
      stats_.checkpoint_entries += entries;
      stats_.checkpoint_bytes += openflow::CtSnapshot::wire_bytes_for(entries);
      stats_.checkpoint_ns_billed += static_cast<sim::SimNanos>(entries) * checkpoint_entry_ns_;
    }
    ++stats_.checkpoints;
    // Re-arm while connections remain; the final firing after the
    // table empties snapshots it as empty (never leaves a stale image)
    // and then disarms, so engines driven by run() still drain.
    if (pipeline_.ct_connection_count() > 0) schedule_ct_checkpoint();
  });
}

bool HaAgent::restore_checkpoint() {
  if (!spec_.checkpointing() || checkpoint_.empty()) return false;
  const std::size_t shards = std::min(checkpoint_.size(), pipeline_.shard_count());
  std::size_t restored = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const openflow::CtRestoreResult result =
        pipeline_.conntrack(shard).restore(checkpoint_[shard].snapshot(), engine_.now());
    restored += result.restored;
    stats_.ct_restored += result.restored;
    stats_.ct_restore_dropped += result.dropped;
  }
  if (restored == 0) return false;
  schedule_ct_sweep();       // re-arm expiry for the re-filed wheel
  schedule_ct_checkpoint();  // keep checkpointing the restored table
  return true;
}

// ---- stateful HA: active–standby pairing ----

void HaAgent::install_delta_sinks() {
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard) {
    pipeline_.conntrack(shard).set_delta_sink([this, shard](const openflow::CtDelta& delta) {
      // Only an unfenced active publishes state: a fenced box must not
      // leak even kUpdate/kClose advances of established flows, and a
      // standby's resync-driven kills must never echo back out.
      if (fenced_ || role_ != Role::kActive) return;
      openflow::CtDelta stamped = delta;
      stamped.epoch = epoch_;
      repl_out_->publish(shard, stamped);
    });
  }
}

void HaAgent::install_receivers(ReplicationChannel& channel) {
  channel.set_delta_handler([this](const ReplicationRecord& record) { on_delta(record); });
  channel.set_heartbeat_handler([this](std::uint64_t epoch) { on_heartbeat(epoch); });
  channel.set_snapshot_handler(
      [this](std::size_t shard, const openflow::CtSnapshot& snapshot, std::uint64_t epoch) {
        on_snapshot(shard, snapshot, epoch);
      });
  channel.set_sync_request_handler([this] { on_sync_request(); });
}

void HaAgent::enable_active(ReplicationChannel& channel, ReplicationChannel* reverse) {
  require_conntrack("enable_ha_active");
  repl_out_ = &channel;
  repl_in_ = reverse;
  role_ = Role::kActive;
  install_delta_sinks();
  if (repl_in_ != nullptr) install_receivers(*repl_in_);
  // Fail-closed: fenced until the witness grants. The very first
  // renewal (one rtt away) lifts it in the healthy case.
  if (witness_ != nullptr) set_witness(*witness_);
  schedule_heartbeat();
}

void HaAgent::schedule_heartbeat() {
  if (heartbeat_armed_ || repl_out_ == nullptr) return;
  heartbeat_armed_ = true;
  engine_.schedule_after(kHeartbeatIntervalNs, [this] {
    heartbeat_armed_ = false;
    // A crashed or fenced active is silent — silence *is* the takeover
    // signal, and a fenced box advertising liveness would stall a
    // standby that could otherwise win the lease and serve. The timer
    // keeps running so heartbeats resume on restart/unfence.
    if (!crashed_ && role_ == Role::kActive && !fenced_) repl_out_->publish_heartbeat(epoch_);
    schedule_heartbeat();
  });
}

void HaAgent::enable_standby(ReplicationChannel& channel, ReplicationChannel* reverse) {
  require_conntrack("enable_ha_standby");
  repl_in_ = &channel;
  repl_out_ = reverse;
  role_ = Role::kStandby;
  last_heartbeat_ = engine_.now();
  install_receivers(channel);
  // A standby never mints state; with a witness attached the fence
  // stays up until this box is actually promoted under a lease.
  if (witness_ != nullptr) apply_fence(true);
  schedule_monitor();
}

void HaAgent::set_witness(sim::WitnessLink& link) {
  require_conntrack("set_ha_witness");
  witness_ = &link;
  // Fail-closed from the moment arbitration is configured: nobody
  // mints state without a lease.
  apply_fence(true);
  if (role_ == Role::kActive) {
    request_lease();
    schedule_lease_renew();
  }
}

void HaAgent::schedule_monitor() {
  if (monitor_armed_ || repl_in_ == nullptr || role_ != Role::kStandby) return;
  monitor_armed_ = true;
  engine_.schedule_after(kHeartbeatIntervalNs, [this] {
    monitor_armed_ = false;
    if (role_ != Role::kStandby) return;  // promotion stops the monitor
    const sim::SimNanos silence = engine_.now() - last_heartbeat_;
    // A demoted ex-active still begging for its warm resync retries
    // here (the first sync request may have died on the wire).
    if (failback_pending_ && !crashed_ && repl_out_ != nullptr) repl_out_->publish_sync_request();
    // Never self-promote before first contact: until a heartbeat has
    // actually arrived the standby cannot distinguish a dead active
    // from sync latency longer than the miss threshold (bootstrap
    // promotion is the operator's call, not the monitor's).
    if (!crashed_ && heartbeat_seen_ &&
        silence > static_cast<sim::SimNanos>(repl_in_->spec().takeover_miss_threshold) *
                      kHeartbeatIntervalNs) {
      // Witness-less pair: heartbeat silence alone decides. Otherwise
      // request the lease and promote only on a grant.
      if (witness_ == nullptr)
        takeover();
      else
        request_lease();
      // Keep monitoring: with a witness the promotion is asynchronous
      // (and may be denied); the role flip stops the re-arm naturally.
    }
    schedule_monitor();
  });
}

void HaAgent::takeover() {
  if (role_ == Role::kActive) return;
  require_conntrack("takeover");
  promoted_ = true;
  role_ = Role::kActive;
  ++stats_.takeovers;
  // Takeover hygiene: every replicated connection is only as fresh as
  // the sync stream was — demote them all so the ones that died while
  // replication lagged expire on the transient timeout, while live
  // flows re-confirm through their own traffic.
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard)
    pipeline_.conntrack(shard).demote_all(engine_.now());
  schedule_ct_sweep();
  // The promotion lease (when arbitrated) was taken by the standby's
  // lease request; lift the fence and start acting the part: publish
  // deltas/heartbeats on the reverse channel, keep renewing.
  set_fenced(false);
  if (repl_out_ != nullptr) {
    install_delta_sinks();
    schedule_heartbeat();
  }
  if (witness_ != nullptr) {
    arm_fence_check(lease_expires_);
    schedule_lease_renew();
  }
  if (takeover_handler_) takeover_handler_();
}

// ---- witness-arbitrated fencing + warm failback ----

void HaAgent::apply_fence(bool fenced) {
  fenced_ = fenced;
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard)
    pipeline_.conntrack(shard).set_fenced(fenced);
}

void HaAgent::set_fenced(bool fenced) {
  if (fenced_ == fenced) return;
  if (fenced)
    ++stats_.ha_fences;
  else
    ++stats_.ha_unfences;
  apply_fence(fenced);
}

void HaAgent::request_lease() {
  if (crashed_) return;  // a rebooting box asks nothing; renewals resume after
  // The reply is keyed on the role the request was sent from.
  const Role sent_as = role_;
  witness_->request_lease([this, sent_as](bool granted, std::uint64_t epoch,
                                          sim::SimNanos expires_at) {
    on_lease_reply(sent_as, granted, epoch, expires_at);
  });
}

void HaAgent::on_lease_reply(Role sent_as, bool granted, std::uint64_t epoch,
                             sim::SimNanos expires_at) {
  // Raced with another path (a standby promoted meanwhile, an active
  // demoted while its renewal was in flight): the answer is stale.
  if (role_ != sent_as) return;
  if (granted) {
    ++stats_.ha_lease_grants;
    epoch_ = epoch;
    lease_expires_ = expires_at;
    if (sent_as == Role::kStandby) {
      takeover();
      return;
    }
    set_fenced(false);
    arm_fence_check(expires_at);
    return;
  }
  ++stats_.ha_lease_denials;
  // Someone else holds the lease. An active fences immediately (does
  // not wait for expiry) and, since the denial proves a newer holder
  // epoch, steps down and asks the new active for our state back.
  if (sent_as == Role::kStandby)
    ++stats_.ha_promotions_denied;
  else
    set_fenced(true);
  adopt_epoch(epoch);
}

void HaAgent::schedule_lease_renew() {
  if (renew_armed_ || witness_ == nullptr) return;
  renew_armed_ = true;
  engine_.schedule_after(sim::kLeaseRenewIntervalNs, [this] {
    renew_armed_ = false;
    if (role_ != Role::kActive) return;  // a standby does not renew
    request_lease();
    schedule_lease_renew();
  });
}

void HaAgent::arm_fence_check(sim::SimNanos expires_at) {
  engine_.schedule_at(expires_at, [this] {
    // Stale checks no-op: a renewal moved lease_expires_ forward.
    if (role_ != Role::kActive || fenced_) return;
    if (engine_.now() >= lease_expires_) set_fenced(true);
  });
}

void HaAgent::demote(std::uint64_t epoch) {
  if (role_ != Role::kActive) return;
  role_ = Role::kStandby;
  promoted_ = false;
  ++stats_.ha_demotions;
  if (epoch > epoch_) epoch_ = epoch;
  // The fence stays up: a standby never mints state. (apply_delta and
  // resync bypass the conntrack fence by design — it only gates
  // process()'s miss path.)
  set_fenced(true);
  last_heartbeat_ = engine_.now();  // restart the silence clock
  heartbeat_seen_ = false;          // and require fresh contact
  // Warm failback: beg the new active to stream its table back. The
  // monitor retries this while pending, in case the request is lost.
  failback_pending_ = true;
  if (repl_out_ != nullptr && !crashed_) repl_out_->publish_sync_request();
  schedule_monitor();
}

void HaAgent::adopt_epoch(std::uint64_t epoch) {
  if (epoch <= epoch_) return;
  demote(epoch);  // no-op unless active; adopts the epoch itself first
  epoch_ = epoch;
}

void HaAgent::on_heartbeat(std::uint64_t epoch) {
  heartbeat_seen_ = true;
  last_heartbeat_ = engine_.now();
  // A newer epoch means the peer provably holds a newer lease than we
  // ever did; an active hearing it steps down — this is how a healed
  // partition resolves without the witness having to referee twice.
  adopt_epoch(epoch);
}

void HaAgent::on_delta(const ReplicationRecord& record) {
  // Epoch gate first: stale-epoch deltas are refused no matter the
  // role — a promoted active must still count (and drop) a fenced
  // ex-active's in-flight state.
  if (record.delta.epoch < epoch_) {
    ++stats_.ha_deltas_rejected_epoch;
    return;
  }
  if (role_ != Role::kStandby || crashed_) return;
  if (record.shard >= pipeline_.shard_count()) return;
  adopt_epoch(record.delta.epoch);
  pipeline_.conntrack(record.shard).apply_delta(record.delta, engine_.now());
  schedule_ct_sweep();  // replicated entries must expire here too
}

void HaAgent::on_snapshot(std::size_t shard, const openflow::CtSnapshot& snapshot,
                          std::uint64_t epoch) {
  // Failback stream from the current active: only a standby consumes
  // it, and only at the current (or a newer) epoch.
  if (role_ != Role::kStandby || crashed_) return;
  if (epoch < epoch_) return;
  if (shard >= pipeline_.shard_count()) return;
  adopt_epoch(epoch);
  const std::size_t upserts = pipeline_.conntrack(shard).resync(snapshot, engine_.now());
  stats_.ha_failback_entries += upserts;
  if (failback_pending_ && shard + 1 == pipeline_.shard_count()) {
    failback_pending_ = false;
    ++stats_.ha_failbacks;  // rejoined warm
  }
  schedule_ct_sweep();
}

void HaAgent::on_sync_request() {
  // Only a live unfenced active is authoritative enough to stream its
  // table to a rejoining peer.
  if (role_ != Role::kActive || fenced_ || crashed_ || repl_out_ == nullptr) return;
  for (std::size_t shard = 0; shard < pipeline_.shard_count(); ++shard)
    repl_out_->publish_snapshot(shard, pipeline_.conntrack(shard).checkpoint(engine_.now()),
                                epoch_);
}

}  // namespace harmless::softswitch
