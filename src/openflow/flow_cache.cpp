#include "openflow/flow_cache.hpp"

#include <algorithm>
#include <iterator>

namespace harmless::openflow {

bool MegaflowEntry::covers(const FieldView& view) const {
  if ((view.present & required_present) != required_present) return false;
  if ((view.present & required_absent) != 0) return false;
  std::uint32_t remaining = required_present;
  while (remaining != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
    remaining &= remaining - 1;
    if ((view.values[index] & masks[index]) != values[index]) return false;
  }
  return true;
}

bool MegaflowEntry::timed_out(sim::SimNanos now) const {
  for (const Step& step : steps)
    if (step.entry != nullptr && step.entry->expired(now)) return true;
  return false;
}

std::uint64_t FlowCache::microflow_key(const FieldView& view) {
  std::uint64_t h = kFieldHashSeed ^ view.present;
  std::uint32_t remaining = view.present;
  while (remaining != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
    remaining &= remaining - 1;
    h = hash_u64s(h, view.values[index]);
  }
  return h;
}

MegaflowEntry* FlowCache::lookup(const FieldView& view, sim::SimNanos now,
                                 std::uint32_t* scanned) {
  return find(view, now, scanned, /*count_miss=*/true);
}

MegaflowEntry* FlowCache::probe(const FieldView& view, sim::SimNanos now,
                                std::uint32_t* scanned) {
  return find(view, now, scanned, /*count_miss=*/false);
}

MegaflowEntry* FlowCache::find(const FieldView& view, sim::SimNanos now,
                               std::uint32_t* scanned, bool count_miss) {
  if (scanned != nullptr) *scanned = 0;
  // First lookup after an epoch bump: reap the self-invalidated
  // entries once, so the tier-2 probe never walks (or charges for)
  // stale candidates.
  if (purged_epoch_ != *epoch_) purge_stale();
  if (megaflows_.empty()) {
    if (count_miss) ++stats_.misses;
    return nullptr;
  }
  const std::uint64_t key = microflow_key(view);
  if (Microflow* slot = microflow(key)) {
    MegaflowEntry* entry = slot->entry;
    if (entry->epoch == *epoch_ && entry->covers(view) && !entry->timed_out(now)) {
      ++stats_.hits;
      ++stats_.microflow_hits;
      ++entry->hits;
      entry->referenced = true;
      return entry;
    }
    // Self-invalidated (epoch/expiry) or a hash collision: unmap and
    // fall through to the megaflow tier. Stale entries are counted
    // once, in purge_stale, when the megaflow itself is discarded.
    microflow_.erase(slot);
  }

  // ---- tier 2 ----
  ++tier2_lookups_;
  if (limits_.rank_decay_lookups != 0 &&
      tier2_lookups_ % limits_.rank_decay_lookups == 0)
    for (const auto& subtable : subtables_) subtable->rank_hits /= 2;

  MegaflowEntry* hit = linear_scan_ ? find_linear(view, now, key, scanned)
                                    : find_subtables(view, now, key, scanned);
  if (hit == nullptr && count_miss) ++stats_.misses;
  return hit;
}

MegaflowEntry* FlowCache::tier2_hit(MegaflowEntry* entry, std::uint64_t key) {
  // find() has just missed or unmapped `key` in tier 1.
  if (microflow_.size() < limits_.max_microflows) {
    microflow_.insert(Microflow{key, entry});
    note_microflow_key(*entry, key);
  }
  ++stats_.hits;
  ++stats_.megaflow_hits;
  ++entry->hits;
  entry->referenced = true;
  return entry;
}

MegaflowEntry* FlowCache::find_subtables(const FieldView& view, sim::SimNanos now,
                                         std::uint64_t key, std::uint32_t* scanned) {
  // One hashed probe per presence-compatible subtable, front (hottest
  // rank) first. The presence pre-check is two bitmask compares — it is
  // deliberately not billed as a probe; only hashes are.
  for (std::size_t si = 0; si < subtables_.size(); ++si) {
    MegaflowSubtable& subtable = *subtables_[si];
    if ((view.present & subtable.required_present) != subtable.required_present) continue;
    if ((view.present & subtable.required_absent) != 0) continue;
    if (scanned != nullptr) ++*scanned;
    ++stats_.subtable_probes;
    const MegaflowSubtable::Bucket* bucket = subtable.bucket(subtable.hash_view(view));
    if (bucket == nullptr) continue;
    for (MegaflowEntry* candidate = bucket->head; candidate != nullptr;
         candidate = candidate->bucket_next) {
      if (!candidate->covers(view)) continue;  // same-hash collision
      // A covering entry with timed-out flow references must not hit:
      // the slow path has to run so the table performs its lazy expiry
      // (which bumps the epoch and retires this entry for good).
      if (candidate->timed_out(now)) return nullptr;
      // Rank maintenance: bump this subtable's decaying hit count and
      // bubble it toward the front past colder neighbors, so the next
      // lookup of a skewed workload probes it first.
      ++subtable.rank_hits;
      while (si > 0 && subtables_[si]->rank_hits > subtables_[si - 1]->rank_hits) {
        std::swap(subtables_[si], subtables_[si - 1]);
        --si;
      }
      return tier2_hit(candidate, key);
    }
  }
  return nullptr;
}

MegaflowEntry* FlowCache::find_linear(const FieldView& view, sim::SimNanos now,
                                      std::uint64_t key, std::uint32_t* scanned) {
  // The pre-classifier reference: one masked compare per resident
  // megaflow, insertion order — the ablation baseline Table 6 degrades.
  for (MegaflowEntry& candidate : megaflows_) {
    if (scanned != nullptr) ++*scanned;
    if (candidate.epoch != *epoch_) continue;  // stale; reaped on next purge
    if (!candidate.covers(view)) continue;
    if (candidate.timed_out(now)) return nullptr;
    return tier2_hit(&candidate, key);
  }
  return nullptr;
}

void FlowCache::index_entry(MegaflowEntry* entry) {
  MegaflowSubtable* home = nullptr;
  for (const auto& subtable : subtables_)
    if (subtable->matches_signature(*entry)) {
      home = subtable.get();
      break;
    }
  if (home == nullptr) {
    auto fresh = std::make_unique<MegaflowSubtable>();
    fresh->masks = entry->masks;
    fresh->required_present = entry->required_present;
    fresh->required_absent = entry->required_absent;
    home = fresh.get();
    // New masks start cold, at the back of the probe order; they earn
    // their way forward through the rank bumps of actual hits.
    subtables_.push_back(std::move(fresh));
  }
  // Entry values are pre-masked at install time, so hashing them
  // through the subtable's own masks equals hashing a matching packet.
  FieldView masked;
  masked.values = entry->values;
  masked.present = entry->required_present;
  entry->subtable = home;
  entry->subtable_hash = home->hash_view(masked);
  entry->bucket_next = nullptr;
  // Append: covers() takes a bucket's first covering candidate, so the
  // chain keeps insertion order.
  if (MegaflowSubtable::Bucket* bucket = home->bucket(entry->subtable_hash)) {
    MegaflowEntry* tail = bucket->head;
    while (tail->bucket_next != nullptr) tail = tail->bucket_next;
    tail->bucket_next = entry;
  } else {
    home->buckets.insert(MegaflowSubtable::Bucket{entry->subtable_hash, entry});
  }
}

void FlowCache::unindex_entry(MegaflowEntry* entry) {
  MegaflowSubtable* home = entry->subtable;
  if (home == nullptr) return;
  MegaflowSubtable::Bucket* bucket = home->bucket(entry->subtable_hash);
  MegaflowEntry** link = &bucket->head;
  while (*link != entry) link = &(*link)->bucket_next;
  *link = entry->bucket_next;
  if (bucket->head == nullptr) home->buckets.erase(bucket);
  entry->subtable = nullptr;
  if (home->buckets.size() == 0)
    std::erase_if(subtables_,
                  [home](const std::unique_ptr<MegaflowSubtable>& subtable) {
                    return subtable.get() == home;
                  });
}

void FlowCache::note_microflow_key(MegaflowEntry& entry, std::uint64_t key) {
  auto& keys = entry.microflow_keys;
  keys.push_back(key);
  // Compact at a doubling watermark: stale keys (tier-1 resets,
  // collision remaps) and duplicates are purged, so the vector stays
  // within ~2x the entry's live tier-1 mappings. Rearming the
  // watermark to 2x the survivors keeps the cost amortized O(1) per
  // recorded key even when the live count sits just under it.
  if (keys.size() < entry.microflow_compact_at) return;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::erase_if(keys, [&](std::uint64_t stale_key) {
    const Microflow* slot = microflow(stale_key);
    return slot == nullptr || slot->entry != &entry;
  });
  entry.microflow_compact_at = std::max<std::size_t>(64, 2 * keys.size());
}

void FlowCache::purge_stale() {
  purged_epoch_ = *epoch_;
  bool any_stale = false;
  for (const MegaflowEntry& entry : megaflows_)
    if (entry.epoch != *epoch_) {
      any_stale = true;
      break;
    }
  if (!any_stale) return;
  std::erase_if(megaflows_, [this](const MegaflowEntry& entry) {
    if (entry.epoch == *epoch_) return false;
    ++stats_.invalidations;
    return true;
  });
  // Rebuild the classifier from the survivors (in practice an epoch
  // bump stales everything, so this clears it). Subtable ranks reset
  // with it — the cache is cold again anyway.
  subtables_.clear();
  for (MegaflowEntry& entry : megaflows_) {
    entry.subtable = nullptr;
    index_entry(&entry);
  }
  // Microflow pointers may reference reaped entries; the tier re-learns
  // on the next packet of each microflow anyway.
  microflow_.clear();
  clock_hand_ = megaflows_.begin();
}

void FlowCache::evict_one() {
  // Second chance: at most two sweeps — the first clears every set
  // reference bit, so the second is guaranteed to find a victim.
  for (std::size_t step = 0; step < 2 * megaflows_.size(); ++step) {
    if (clock_hand_ == megaflows_.end()) clock_hand_ = megaflows_.begin();
    MegaflowEntry* candidate = &*clock_hand_;
    if (candidate->referenced) {
      candidate->referenced = false;
      ++clock_hand_;
      continue;
    }
    // Unmap the victim's own microflow pointers before it is freed
    // (keys may have been remapped or reset since — re-check).
    for (const std::uint64_t key : candidate->microflow_keys) {
      Microflow* slot = microflow(key);
      if (slot != nullptr && slot->entry == candidate) microflow_.erase(slot);
    }
    unindex_entry(candidate);
    // The hand moves to the victim's successor, or to end() when the
    // victim was last (insert() then parks it on the new entry).
    clock_hand_ = megaflows_.erase(clock_hand_);
    ++stats_.evictions;
    return;
  }
}

MegaflowEntry* FlowCache::insert(MegaflowEntry entry, const FieldView& view) {
  if (purged_epoch_ != *epoch_) purge_stale();
  if (megaflows_.size() >= limits_.max_megaflows) {
    // CLOCK eviction keeps hot aggregates (elephants) resident where
    // the old wholesale flush would have cold-started everything.
    evict_one();
  }
  if (microflow_.size() >= limits_.max_microflows) {
    // Only the exact-match tier is full (a long mice tail): resetting
    // it is cheap — its entries point into megaflows_, which survives,
    // so the hot aggregates keep hitting tier 2 and re-seed tier 1.
    microflow_.clear();
    ++stats_.flushes;
  }
  entry.epoch = *epoch_;
  megaflows_.push_back(std::move(entry));
  MegaflowEntry* inserted = &megaflows_.back();
  // A hand at end() sits where the new entry lands: the sweep examines
  // it first, before wrapping to the oldest entry.
  if (clock_hand_ == megaflows_.end()) clock_hand_ = std::prev(megaflows_.end());
  index_entry(inserted);
  const std::uint64_t key = microflow_key(view);
  if (Microflow* slot = microflow(key)) slot->entry = inserted;
  else microflow_.insert(Microflow{key, inserted});
  note_microflow_key(*inserted, key);
  ++stats_.insertions;
  return inserted;
}

void FlowCache::clear() {
  megaflows_.clear();
  subtables_.clear();
  microflow_.clear();
  clock_hand_ = megaflows_.end();
}

}  // namespace harmless::openflow
