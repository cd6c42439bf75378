#include "common.hpp"

#include <cstring>

#include "util/hash.hpp"

namespace harmless::suite {

std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  h = util::hash_u64(h, value);
  h ^= h >> 29;
  return h * 0xbf58476d1ce4e5b9ULL;
}

std::uint64_t frame_hash(const net::Packet& packet) {
  const net::Bytes& frame = packet.frame();
  const std::size_t bytes = frame.size() < 64 ? frame.size() : 64;
  std::uint64_t h = mix(util::kHashSeed, frame.size());
  std::size_t offset = 0;
  for (; offset + 8 <= bytes; offset += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, frame.data() + offset, 8);
    h = mix(h, word);
  }
  for (; offset < bytes; ++offset) h = mix(h, frame[offset]);
  return h;
}

std::uint64_t source_seed(std::uint64_t seed, std::uint64_t source) {
  return mix(mix(0x5eed'b0a7'0000'0001ULL, seed), source);
}

void Ledger::sent(sim::SimNanos due) {
  ++offered_total_;
  const sim::SimNanos now = engine_.now();
  if (now - due > max_lateness_) max_lateness_ = now - due;
  if (now >= measure_begin_) {
    ++offered_measured_;
    if (now < measure_end_) ++offered_window_;
  }
}

void Ledger::delivered(std::size_t host, const net::Packet& packet) {
  const std::uint64_t id = packet.id();
  const std::size_t word = static_cast<std::size_t>(id >> 6);
  if (word >= seen_.size()) seen_.resize(word + 1 + (word >> 1), 0);
  const std::uint64_t bit = std::uint64_t{1} << (id & 63);
  if ((seen_[word] & bit) != 0) {
    ++duplicates_;
    return;
  }
  seen_[word] |= bit;
  ++delivered_total_;
  const sim::SimNanos now = engine_.now();
  digest_ = mix(mix(mix(digest_, host), static_cast<std::uint64_t>(now)), frame_hash(packet));
  const sim::SimNanos created = packet.created_at();
  if (created >= measure_begin_) ++delivered_measured_;
  if (created >= measure_begin_ && created < measure_end_) {
    ++delivered_window_;
    latency_ns_.add(static_cast<double>(now - created));
  }
}

void Sender::note(std::int64_t ns, std::int64_t start_ns) {
  stamp_ns_ += ns;
  if ((++calls_ & 1023) == 0) tracer()->record("generator.stamp_send", start_ns, start_ns + ns);
}

std::uint64_t link_drops(const sim::Network& network) {
  std::uint64_t drops = 0;
  for (const auto& channel : network.channels()) drops += channel->drops();
  return drops;
}

Snapshot Snapshot::take(sim::Network& network, const Components& parts) {
  Snapshot snap;
  for (const auto& [role, sw] : parts.switches) {
    (void)role;
    Switch s;
    const softswitch::SoftSwitch::Counters& counters = sw->counters();
    s.pipeline_runs = counters.pipeline_runs;
    s.bursts = counters.service_bursts;
    s.replay_groups = counters.replay_groups;
    s.rx_polls = counters.rx_queue_polls;
    s.queue_drops = sw->queue_drops();
    s.packet_ins = counters.packet_ins;
    s.invalidations = counters.cache_invalidations;
    s.busy_ns = sw->busy_ns();
    for (std::size_t core = 0; core < sw->core_count(); ++core)
      s.core_busy_ns.push_back(sw->core_busy_ns(core));
    const openflow::Pipeline& pipeline = sw->pipeline();
    for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard) {
      const openflow::FlowCache::Stats& c = pipeline.cache(shard).stats();
      s.cache.microflow_hits += c.microflow_hits;
      s.cache.megaflow_hits += c.megaflow_hits;
      s.cache.misses += c.misses;
      s.cache.insertions += c.insertions;
      s.cache.evictions += c.evictions;
      s.cache.subtable_probes += c.subtable_probes;
      if (!pipeline.conntrack_enabled()) continue;
      const openflow::CtStats& ct = pipeline.conntrack(shard).stats();
      s.ct.lookups += ct.lookups;
      s.ct.hits += ct.hits;
      s.ct.created += ct.created;
      s.ct.expired += ct.expired;
      s.ct.evicted += ct.evicted;
      s.ct.invalid += ct.invalid;
      s.ct.nat_failures += ct.nat_failures;
    }
    snap.switches.push_back(std::move(s));
  }
  if (parts.legacy != nullptr) {
    snap.legacy = parts.legacy->counters();
    snap.legacy_queue_drops = parts.legacy->queue_drops();
  }
  snap.link_drops = suite::link_drops(network);
  snap.events = network.engine().events_dispatched();
  snap.frame_copies = net::Packet::frame_copies();
  return snap;
}

}  // namespace harmless::suite
