#include "softswitch/replication.hpp"

namespace harmless::softswitch {

void ReplicationChannel::publish(std::size_t shard, const openflow::CtDelta& delta) {
  ++stats_.deltas_published;
  pending_.push_back(ReplicationRecord{shard, delta});
  if (spec_.batch_interval_ns == 0) {
    flush();
    return;
  }
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    engine_.schedule_after(spec_.batch_interval_ns, [this] {
      flush_scheduled_ = false;
      flush();
    });
  }
}

void ReplicationChannel::flush() {
  if (pending_.empty()) return;
  std::vector<ReplicationRecord> batch;
  batch.swap(pending_);
  wire_.send(lane_, state_tally(stats_.batches_sent), [this, batch = std::move(batch)] {
    ++stats_.batches_delivered;
    if (!delta_handler_) return;
    for (const ReplicationRecord& record : batch) {
      ++stats_.deltas_delivered;
      delta_handler_(record);
    }
  });
}

void ReplicationChannel::publish_heartbeat(std::uint64_t epoch) {
  wire_.send(lane_,
             {stats_.heartbeats_sent, stats_.heartbeats_dropped_down,
              stats_.heartbeats_dropped_loss},
             [this, epoch] {
               ++stats_.heartbeats_delivered;
               if (heartbeat_handler_) heartbeat_handler_(epoch);
             });
}

void ReplicationChannel::publish_snapshot(std::size_t shard, openflow::CtSnapshot snapshot,
                                          std::uint64_t epoch) {
  // State-stream traffic: drops share the batch buckets, unlike
  // heartbeats — a lost snapshot *is* lost state.
  wire_.send(lane_, state_tally(stats_.snapshots_sent),
             [this, shard, epoch, snapshot = std::move(snapshot)] {
               ++stats_.snapshots_delivered;
               stats_.snapshot_bytes += snapshot.wire_bytes();
               if (snapshot_handler_) snapshot_handler_(shard, snapshot, epoch);
             });
}

void ReplicationChannel::publish_sync_request() {
  wire_.send(lane_, state_tally(stats_.sync_requests_sent), [this] {
    ++stats_.sync_requests_delivered;
    if (sync_request_handler_) sync_request_handler_();
  });
}

}  // namespace harmless::softswitch
