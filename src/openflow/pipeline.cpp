#include "openflow/pipeline.hpp"

#include <algorithm>

#include "net/parse.hpp"
#include "util/status.hpp"

namespace harmless::openflow {

namespace {
constexpr int kMaxGroupDepth = 4;  // guards against group->group cycles

/// Fields a header-mutating action writes (presence bits). Output and
/// group actions rewrite nothing; a SetFieldAction only rewrites the
/// fields set_field in action.cpp actually supports — on any other
/// field it silently no-ops, so the packet still carries the original
/// value and learning must keep unwildcarding it.
std::uint32_t written_field_bits(const Action& action) {
  if (const auto* set = std::get_if<SetFieldAction>(&action)) {
    switch (set->field) {
      case Field::kEthDst:
      case Field::kEthSrc:
      case Field::kVlanVid:
      case Field::kVlanPcp:
      case Field::kIpSrc:
      case Field::kIpDst:
      case Field::kL4Src:
      case Field::kL4Dst:
        return field_bit(set->field);
      default:
        return 0;
    }
  }
  if (std::holds_alternative<PushVlanAction>(action) ||
      std::holds_alternative<PopVlanAction>(action))
    return field_bit(Field::kVlanVid) | field_bit(Field::kVlanPcp);
  return 0;
}

/// Tier-2 probe work, in the unit the cache shard ran in.
void count_probes(PipelineWork& work, const FlowCache& cache, std::uint32_t scanned) {
  (cache.linear_scan() ? work.linear_compares : work.subtable_probes) += scanned;
}

/// Record `entry` as replayed in this burst unless it already was.
void note_replayed(std::vector<const MegaflowEntry*>& replayed, const MegaflowEntry* entry) {
  if (std::find(replayed.begin(), replayed.end(), entry) == replayed.end())
    replayed.push_back(entry);
}
}  // namespace

Pipeline::Pipeline(std::size_t table_count, bool specialized, bool flow_cache,
                   std::size_t shards)
    : cache_enabled_(flow_cache) {
  if (table_count == 0) throw util::ConfigError("pipeline needs at least one table");
  tables_.reserve(table_count);
  for (std::size_t index = 0; index < table_count; ++index)
    tables_.emplace_back(static_cast<std::uint8_t>(index), specialized);
  for (std::size_t shard = 0; shard < std::max<std::size_t>(1, shards); ++shard) {
    caches_.push_back(std::make_unique<FlowCache>());
    caches_.back()->share_epoch(&cache_epoch_);
  }
  // Every table mutation (and group mutation) bumps the shared epoch so
  // cached fast-path entries self-invalidate — in every shard at once.
  // Wired even when the cache is disabled, so the ablation knob can be
  // flipped at runtime.
  for (FlowTable& table : tables_) table.bind_epoch(&cache_epoch_);
  groups_.bind_epoch(&cache_epoch_);
}

void Pipeline::enable_conntrack(const CtConfig& config) {
  ct_enabled_ = true;
  trackers_.clear();
  for (std::size_t shard = 0; shard < caches_.size(); ++shard)
    trackers_.push_back(std::make_unique<ConnTracker>(config, caches_.size()));
}

std::size_t Pipeline::ct_connection_count() const {
  std::size_t total = 0;
  for (const auto& tracker : trackers_) total += tracker->size();
  return total;
}

std::size_t Pipeline::ct_expire(sim::SimNanos now) {
  std::size_t expired = 0;
  for (auto& tracker : trackers_) expired += tracker->expire(now);
  // Expiry needs no cache invalidation: ct_state is recomputed per
  // packet before any cache probe, so a megaflow keyed on the dead
  // connection's state simply stops matching.
  return expired;
}

CtStats Pipeline::ct_stats() const {
  CtStats total;
  for (const auto& tracker : trackers_) total += tracker->stats();
  return total;
}

void Pipeline::ct_clear() {
  for (auto& tracker : trackers_) tracker->clear();
}

FlowTable& Pipeline::table(std::size_t index) {
  if (index >= tables_.size())
    throw util::ConfigError("pipeline table " + std::to_string(index) + " out of range");
  return tables_[index];
}

const FlowTable& Pipeline::table(std::size_t index) const {
  if (index >= tables_.size())
    throw util::ConfigError("pipeline table " + std::to_string(index) + " out of range");
  return tables_[index];
}

std::size_t Pipeline::total_entries() const {
  std::size_t total = 0;
  for (const FlowTable& table : tables_) total += table.size();
  return total;
}

void Pipeline::execute_actions(const ActionList& actions, net::Packet& packet,
                               std::uint32_t in_port, std::uint8_t table_id,
                               PipelineResult& result, bool& view_dirty, FieldUse* learn,
                               int depth, bool consume) {
  // When the caller is done with the packet and the list ends in an
  // output to a data port, that final output moves the packet instead
  // of cloning it — the zero-copy unicast fast path. Any earlier
  // action still sees the live packet.
  const Action* move_output = nullptr;
  if (consume && !actions.empty()) {
    const auto* last = std::get_if<OutputAction>(&actions.back());
    if (last != nullptr && last->port != kPortController) move_output = &actions.back();
  }

  for (const Action& action : actions) {
    ++result.work.actions;

    if (const auto* out = std::get_if<OutputAction>(&action)) {
      if (out->port == kPortController) {
        PacketInEvent event;
        event.packet = packet.clone();  // copy: pipeline may continue
        event.in_port = in_port;
        event.table_id = table_id;
        event.reason = PacketInReason::kAction;
        result.packet_ins.push_back(std::move(event));
      } else if (&action == move_output) {
        result.outputs.emplace_back(out->port, std::move(packet));
      } else {
        result.outputs.emplace_back(out->port, packet.clone());  // copy per output
      }
      continue;
    }

    if (const auto* ct = std::get_if<CtAction>(&action)) {
      ct_execute(*ct, packet, result, learn, view_dirty);
      continue;
    }

    if (const auto* grp = std::get_if<GroupAction>(&action)) {
      ++result.work.groups;
      if (depth >= kMaxGroupDepth) continue;  // malformed config: stop recursion
      const GroupEntry* entry = groups_.find(grp->group_id);
      if (entry == nullptr) continue;  // dangling group id: packets blackhole (per spec)
      // Bucket actions run on packet *copies*: any fields they rewrite
      // stay original-dependent for the rest of the pipeline, so the
      // overwritten set is restored after each recursion.
      const std::uint32_t saved_overwritten = learn != nullptr ? learn->overwritten : 0;
      switch (entry->type) {
        case GroupType::kAll:
          for (const Bucket& bucket : entry->buckets) {
            net::Packet copy = packet.clone();
            execute_actions(bucket.actions, copy, in_port, table_id, result, view_dirty, learn,
                            depth + 1);
            if (learn != nullptr) learn->overwritten = saved_overwritten;
          }
          break;
        case GroupType::kSelect: {
          FieldView view = cached_field_view(packet, in_port);
          view.use = learn;  // bucket choice depends on the hashed fields
          const std::size_t index =
              groups_.select_bucket(*entry, flow_hash_of(view, entry->select_hash));
          GroupEntry* mutable_entry = groups_.find_mutable(grp->group_id);
          mutable_entry->buckets[index].packet_count++;
          net::Packet copy = packet.clone();
          execute_actions(entry->buckets[index].actions, copy, in_port, table_id, result,
                          view_dirty, learn, depth + 1);
          if (learn != nullptr) learn->overwritten = saved_overwritten;
          break;
        }
        case GroupType::kIndirect: {
          net::Packet copy = packet.clone();
          execute_actions(entry->buckets[0].actions, copy, in_port, table_id, result,
                          view_dirty, learn, depth + 1);
          if (learn != nullptr) learn->overwritten = saved_overwritten;
          break;
        }
      }
      continue;
    }

    // Header-mutating action. Whether it applies depends only on the
    // packet's *structure* (taggedness, IP version, L4 proto — see
    // action.cpp), never on the rewritten field's current value, so
    // learning pins just the structural bits: field presence, plus the
    // tag-present bit for vlan_vid (set vlan_vid fails on untagged
    // frames). Pinning full values here would fragment the megaflow
    // tier into one entry per rewritten aggregate.
    if (learn != nullptr) {
      std::uint32_t written = written_field_bits(action);
      while (written != 0) {
        const unsigned index = static_cast<unsigned>(__builtin_ctz(written));
        written &= written - 1;
        const auto field = static_cast<Field>(index);
        learn->note(field, field == Field::kVlanVid ? kVlanPresent : 0);
        learn->mark_overwritten(field);
      }
    }
    if (apply_header_action(action, packet)) view_dirty = true;
  }
}

bool Pipeline::ct_annotate(FieldView& view, std::size_t shard, sim::SimNanos now) {
  if (!ct_enabled_) return false;
  constexpr std::uint32_t kNeed =
      field_bit(Field::kIpProto) | field_bit(Field::kL4Src) | field_bit(Field::kL4Dst);
  if ((view.present & kNeed) != kNeed) return false;
  const auto proto = static_cast<std::uint8_t>(view.values[static_cast<std::size_t>(Field::kIpProto)]);
  if (proto != static_cast<std::uint8_t>(net::IpProto::kTcp) &&
      proto != static_cast<std::uint8_t>(net::IpProto::kUdp))
    return false;
  const CtTuple tuple{
      static_cast<std::uint32_t>(view.values[static_cast<std::size_t>(Field::kIpSrc)]),
      static_cast<std::uint32_t>(view.values[static_cast<std::size_t>(Field::kIpDst)]),
      static_cast<std::uint16_t>(view.values[static_cast<std::size_t>(Field::kL4Src)]),
      static_cast<std::uint16_t>(view.values[static_cast<std::size_t>(Field::kL4Dst)]),
      proto};
  const std::uint8_t tcp_flags =
      (view.present & field_bit(Field::kTcpFlags)) != 0
          ? static_cast<std::uint8_t>(view.values[static_cast<std::size_t>(Field::kTcpFlags)])
          : 0;
  view.set(Field::kCtState, trackers_[shard]->classify(tuple, tcp_flags, now));
  return true;
}

void Pipeline::ct_execute(const CtAction& spec, net::Packet& packet, PipelineResult& result,
                          FieldUse* learn, bool& view_dirty) {
  if (!ct_enabled_) return;
  const net::ParsedPacket& parsed = net::parse_cached(packet).parsed;
  if (!parsed.ipv4 || (!parsed.tcp && !parsed.udp)) return;
  const CtTuple tuple{parsed.ipv4->src.value(), parsed.ipv4->dst.value(), parsed.src_port(),
                      parsed.dst_port(), parsed.ipv4->protocol};
  const std::uint8_t tcp_flags = parsed.tcp ? parsed.tcp->flags : 0;

  if (learn != nullptr) {
    // A ct traversal's outcome is per-connection, per-direction and
    // per-state: pin the full 5-tuple and ct_state, so the learned
    // megaflow serves exactly that slice and a state transition always
    // escapes to a fresh traversal.
    learn->note(Field::kIpProto, field_all_ones(Field::kIpProto));
    learn->note(Field::kIpSrc, field_all_ones(Field::kIpSrc));
    learn->note(Field::kIpDst, field_all_ones(Field::kIpDst));
    learn->note(Field::kL4Src, field_all_ones(Field::kL4Src));
    learn->note(Field::kL4Dst, field_all_ones(Field::kL4Dst));
    learn->note(Field::kCtState, kCtStateMask);
  }

  const CtOutcome outcome =
      trackers_[current_shard_]->process(tuple, tcp_flags, ct_now_, spec);
  ++result.work.ct_commits;

  if (outcome.rewrite) {
    // Apply the tracker's stored translation — resolved per packet, so
    // replaying a megaflow through here re-derives the rewrite from
    // live connection state instead of baking stale constants in.
    if (outcome.translation.src) {
      apply_header_action(SetFieldAction{Field::kIpSrc, outcome.translation.src_ip}, packet);
      apply_header_action(SetFieldAction{Field::kL4Src, outcome.translation.src_port}, packet);
      if (learn != nullptr) {
        learn->mark_overwritten(Field::kIpSrc);
        learn->mark_overwritten(Field::kL4Src);
      }
    }
    if (outcome.translation.dst) {
      apply_header_action(SetFieldAction{Field::kIpDst, outcome.translation.dst_ip}, packet);
      apply_header_action(SetFieldAction{Field::kL4Dst, outcome.translation.dst_port}, packet);
      if (learn != nullptr) {
        learn->mark_overwritten(Field::kIpDst);
        learn->mark_overwritten(Field::kL4Dst);
      }
    }
    view_dirty = true;
  }
}

void Pipeline::replay(const MegaflowEntry& entry, net::Packet& packet, std::uint32_t in_port,
                      sim::SimNanos now, PipelineResult& result) {
  ct_now_ = now;
  result.cache_hit = true;
  result.matched = entry.matched;
  result.last_table = entry.last_table;
  bool view_dirty = false;
  // replay() consumes the packet, so the final action list may move it
  // into its last output instead of cloning (the zero-copy fast path).
  // That list is final_actions, or with none the last step's apply
  // actions — never an earlier step's, whose table successors still
  // record the packet's size.
  const bool final_step_consumes = entry.final_actions.empty();
  for (std::size_t i = 0; i < entry.steps.size(); ++i) {
    const MegaflowEntry::Step& step = entry.steps[i];
    // Exactly the bookkeeping the slow-path lookup would have done,
    // with the packet size *at this table* (earlier replayed actions
    // may have pushed or popped a tag).
    step.table->record_lookup(step.entry, packet.size(), now);
    if (!step.apply_actions.empty())
      execute_actions(step.apply_actions, packet, in_port, step.table->id(), result,
                      view_dirty, /*learn=*/nullptr, 0,
                      /*consume=*/final_step_consumes && i + 1 == entry.steps.size());
  }
  if (!entry.final_actions.empty())
    execute_actions(entry.final_actions, packet, in_port, entry.last_table, result, view_dirty,
                    /*learn=*/nullptr, 0, /*consume=*/true);
}

void Pipeline::install_learned(MegaflowEntry entry, const FieldView& original_view,
                               const FieldUse& use, std::size_t shard) {
  std::uint32_t remaining = use.examined;
  while (remaining != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
    remaining &= remaining - 1;
    const std::uint32_t bit = 1u << index;
    if ((original_view.present & bit) != 0) {
      entry.required_present |= bit;
      entry.masks[index] = use.masks[index];
      entry.values[index] = original_view.values[index] & use.masks[index];
    } else {
      // The traversal probed this field and found it absent (e.g. an
      // ACL's l4_dst against an ARP frame): only packets equally
      // lacking it may reuse the cached outcome.
      entry.required_absent |= bit;
    }
  }
  caches_[shard]->insert(std::move(entry), original_view);
}

PipelineResult Pipeline::run(net::Packet&& packet, std::uint32_t in_port, sim::SimNanos now,
                             std::size_t shard) {
  PipelineResult result;
  run_packet(std::move(packet), in_port, now, shard, /*replayed=*/nullptr, result);
  return result;
}

void Pipeline::run_packet(net::Packet&& packet, std::uint32_t in_port, sim::SimNanos now,
                          std::size_t shard, const MegaflowEntry** replayed,
                          PipelineResult& result) {
  // The shard-bounds check of the per-packet entry, ahead of the
  // conntrack prelude's unchecked trackers_[shard] index.
  (void)caches_.at(shard);
  FieldView view;
  cached_field_view_into(packet, in_port, &view);
  // Conntrack prelude, *before* any cache probe: the classification is
  // part of the packet's identity from here on, so both cache tiers
  // key on it and stale state decisions are structurally impossible.
  if (ct_annotate(view, shard, now)) ++result.work.ct_lookups;
  run_with_view(std::move(packet), in_port, now, std::move(view), shard, replayed, result);
}

void Pipeline::run_with_view(net::Packet&& packet, std::uint32_t in_port, sim::SimNanos now,
                             FieldView view, std::size_t shard, const MegaflowEntry** replayed,
                             PipelineResult& result) {
  FlowCache& cache = *caches_[shard];  // bounds-checked by run_packet / run_burst
  current_shard_ = shard;
  ct_now_ = now;

  if (cache_enabled_) {
    std::uint32_t scanned = 0;
    MegaflowEntry* hit = cache.lookup(view, now, &scanned);
    count_probes(result.work, cache, scanned);
    if (hit != nullptr) {
      if (replayed != nullptr) *replayed = hit;
      replay(*hit, packet, in_port, now, result);
      return;
    }
  }

  // ---- slow path: the full traversal, learning a megaflow as it goes.
  ++result.work.parses;

  FieldUse use;
  FieldUse* learn = cache_enabled_ ? &use : nullptr;
  const FieldView original_view = view;  // pre-rewrite projection: the megaflow key basis
  MegaflowEntry learned;
  view.use = learn;
  bool view_dirty = false;
  // The prelude's classification survives header rewrites: a rebuilt
  // view (build_field_view knows nothing of conntrack) gets the bits
  // re-stamped below, matching OVS's ct_state persistence across
  // recirculation within one traversal.
  const bool ct_present = (view.present & field_bit(Field::kCtState)) != 0;
  const std::uint64_t ct_bits =
      ct_present ? view.values[static_cast<std::size_t>(Field::kCtState)] : 0;

  // The OF1.3 action set: at most one action per slot, executed in
  // spec order at pipeline exit.
  struct ActionSet {
    bool pop_vlan = false;
    bool push_vlan = false;
    std::vector<SetFieldAction> set_fields;  // last write per field wins
    std::optional<GroupAction> group;
    std::optional<OutputAction> output;

    void clear() { *this = ActionSet{}; }
    void write(const ActionList& actions) {
      for (const Action& action : actions) {
        if (std::holds_alternative<PopVlanAction>(action)) {
          pop_vlan = true;
        } else if (std::holds_alternative<PushVlanAction>(action)) {
          push_vlan = true;
        } else if (const auto* set = std::get_if<SetFieldAction>(&action)) {
          bool replaced = false;
          for (auto& existing : set_fields)
            if (existing.field == set->field) {
              existing = *set;
              replaced = true;
              break;
            }
          if (!replaced) set_fields.push_back(*set);
        } else if (const auto* grp = std::get_if<GroupAction>(&action)) {
          group = *grp;
        } else if (const auto* out = std::get_if<OutputAction>(&action)) {
          output = *out;
        }
      }
    }
    [[nodiscard]] ActionList to_list() const {
      ActionList list;
      if (pop_vlan) list.push_back(PopVlanAction{});
      if (push_vlan) list.push_back(PushVlanAction{});
      for (const SetFieldAction& set : set_fields) list.push_back(set);
      if (group) list.push_back(*group);
      if (output) list.push_back(*output);
      return list;
    }
  } action_set;

  std::size_t table_index = 0;
  while (table_index < tables_.size()) {
    result.last_table = static_cast<std::uint8_t>(table_index);
    if (view_dirty) {
      view = cached_field_view(packet, in_port);
      if (ct_present) view.set(Field::kCtState, ct_bits);
      view.use = learn;
      view_dirty = false;
      ++result.work.parses;
    }

    FlowEntry* entry = tables_[table_index].lookup(view, packet.size(), now, result.work.lookup);
    if (learn != nullptr)
      learned.steps.push_back(MegaflowEntry::Step{
          &tables_[table_index], entry,
          entry != nullptr ? entry->instructions.apply_actions : ActionList{}});

    if (entry == nullptr) {
      // Table miss without a miss entry: drop (OF1.3 default). The drop
      // itself is cached — elephant flows of unroutable traffic are
      // exactly as hot as routable ones.
      ++result.work.misses;
      if (learn != nullptr && result.packet_ins.empty()) {
        learned.last_table = result.last_table;
        learned.matched = result.matched;
        install_learned(std::move(learned), original_view, use, shard);
        result.cache_installed = true;
      }
      return;
    }
    result.matched = true;

    const Instructions& inst = entry->instructions;
    if (!inst.apply_actions.empty())
      execute_actions(inst.apply_actions, packet, in_port,
                      static_cast<std::uint8_t>(table_index), result, view_dirty, learn, 0);
    if (inst.clear_actions) action_set.clear();
    if (!inst.write_actions.empty()) action_set.write(inst.write_actions);

    if (inst.goto_table) {
      if (*inst.goto_table <= table_index) {
        // Spec forbids backward gotos; treat as pipeline end.
        break;
      }
      table_index = *inst.goto_table;
      continue;
    }
    break;
  }

  const ActionList final_actions = action_set.to_list();
  if (!final_actions.empty())
    execute_actions(final_actions, packet, in_port, result.last_table, result, view_dirty,
                    learn, 0, /*consume=*/true);

  // Punting traversals are not cached: the controller's reply is about
  // to mutate the tables, and caching the upcall would turn every
  // subsequent packet of the aggregate into a replayed packet-in
  // storm served from the fast path. They stay slow-path events, so
  // the datapath must not charge cache_insert_ns for them —
  // cache_installed carries that fact out.
  if (learn != nullptr && result.packet_ins.empty()) {
    learned.final_actions = final_actions;
    learned.last_table = result.last_table;
    learned.matched = result.matched;
    install_learned(std::move(learned), original_view, use, shard);
    result.cache_installed = true;
  }
}

void Pipeline::run_burst(std::vector<BurstPacket>& burst, sim::SimNanos now,
                         std::size_t shard, BurstResult& out) {
  if (!cache_enabled_ || ct_enabled_) {
    // No cache: nothing to group, so the burst amortizes only the
    // datapath's rx/tx overhead (charged by the caller). Conntrack:
    // connection state is order-sensitive within a burst (packet i's
    // commit changes packet i+1's classification), so the phased
    // probe/replay below would diverge from per-packet execution.
    run_burst_sequential(burst, now, shard, out);
    return;
  }
  out.reset(burst.size());
  FlowCache& cache = *caches_.at(shard);

  // Phase 1: probe the cache for the whole burst. Misses are not
  // counted here (probe()); the residue's run() accounts each exactly
  // once. The returned pointers stay valid through phase 2: nothing
  // inserts or purges until the residue runs, and every probe shares
  // one `now`, so mid-burst lazy expiry cannot retire an entry the
  // probe accepted (timed_out is checked against the same clock).
  burst_hits_.assign(burst.size(), nullptr);
  burst_views_.resize(burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    cached_field_view_into(burst[i].packet, burst[i].in_port, &burst_views_[i]);
    std::uint32_t scanned = 0;
    burst_hits_[i] = cache.probe(burst_views_[i], now, &scanned);
    count_probes(out.results[i].work, cache, scanned);
  }

  // Phase 2: replay the hits in arrival order, counting the distinct
  // megaflow entries replayed — one replay setup per learned program.
  // Every mutation a replay performs (flow/bucket counters, idle
  // timestamps) commutes at a fixed `now`, and results land by packet
  // index, so replaying before the residue changes no result.
  burst_replayed_.clear();
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (burst_hits_[i] == nullptr) continue;
    note_replayed(burst_replayed_, burst_hits_[i]);
    replay(*burst_hits_[i], burst[i].packet, burst[i].in_port, now, out.results[i]);
  }
  out.replay_groups = static_cast<std::uint32_t>(burst_replayed_.size());

  // Phase 3: the residue takes the slow path, in arrival order,
  // entering with its phase-1 view (nothing rewrote these packets, so
  // each is parsed once per burst). run_with_view re-probes the cache,
  // which is how a flow's second packet in the burst hits the megaflow
  // its first packet just installed; its probes add to the phase-1
  // probes, which really happened.
  for (std::size_t i = 0; i < burst.size(); ++i) {
    if (burst_hits_[i] != nullptr) continue;
    run_with_view(std::move(burst[i].packet), burst[i].in_port, now, std::move(burst_views_[i]),
                  shard, /*replayed=*/nullptr, out.results[i]);
  }
}

void Pipeline::run_burst_sequential(std::vector<BurstPacket>& burst, sim::SimNanos now,
                                    std::size_t shard, BurstResult& out) {
  // Strictly arrival-order per-packet processing — exactly run() per
  // packet. Replay-group amortization survives as the count of
  // distinct megaflow entries replayed.
  out.reset(burst.size());
  burst_replayed_.clear();
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const MegaflowEntry* replayed = nullptr;
    run_packet(std::move(burst[i].packet), burst[i].in_port, now, shard, &replayed,
               out.results[i]);
    if (replayed != nullptr) note_replayed(burst_replayed_, replayed);
  }
  out.replay_groups = static_cast<std::uint32_t>(burst_replayed_.size());
}

std::vector<FlowEntry> Pipeline::collect_expired(sim::SimNanos now) {
  std::vector<FlowEntry> expired;
  for (FlowTable& table : tables_) {
    auto batch = table.collect_expired(now);
    expired.insert(expired.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }
  return expired;
}

}  // namespace harmless::openflow
