#include "openflow/matcher.hpp"

#include <algorithm>

namespace harmless::openflow {

namespace {

bool priority_desc(const FlowEntry* a, const FlowEntry* b) {
  return a->priority > b->priority;
}

}  // namespace

// ---------------------------------------------------------------- linear

void LinearMatcher::rebuild(std::span<FlowEntry* const> entries) {
  by_priority_.assign(entries.begin(), entries.end());
  std::stable_sort(by_priority_.begin(), by_priority_.end(), priority_desc);
}

FlowEntry* LinearMatcher::lookup(const FieldView& view, LookupCost& cost) const {
  for (FlowEntry* entry : by_priority_) {
    ++cost.entries_scanned;
    if (entry->match.matches(view)) return entry;
  }
  return nullptr;
}

// ----------------------------------------------------------- specialized

void SpecializedMatcher::KeyIndex::build(std::span<const std::uint64_t> hashes) {
  // At most half load: a wildcard miss walks the whole probe run.
  std::size_t cells = 2;
  while (cells < hashes.size() * 2) cells *= 2;
  index_.reset(cells);
  // Descending ranks: each cell ends up headed by its lowest rank, and
  // every chain ascends.
  for (std::size_t rank = hashes.size(); rank-- > 0;) {
    const std::uint64_t hash = hashes[rank];
    const auto id = static_cast<std::uint32_t>(rank);
    Cell* cell = index_.find(hash, [hash](const Cell& c) { return c.key == hash; });
    index_.link(id, cell != nullptr ? cell->head : kNoRank);
    if (cell != nullptr) cell->head = id;
    else index_.insert(Cell{hash, id});
  }
}

void SpecializedMatcher::rebuild(std::span<FlowEntry* const> entries) {
  shapes_.clear();

  for (FlowEntry* entry : entries) {
    const Match& match = entry->match;
    // Find (or create) this entry's shape.
    Shape* shape = nullptr;
    for (Shape& candidate : shapes_) {
      if (candidate.fields != match.fields_present()) continue;
      bool same_masks = true;
      for (const std::uint8_t index : candidate.order) {
        if (candidate.masks[index] != match.mask_of(static_cast<Field>(index))) {
          same_masks = false;
          break;
        }
      }
      if (same_masks) {
        shape = &candidate;
        break;
      }
    }
    if (shape == nullptr) {
      Shape fresh;
      fresh.fields = match.fields_present();
      for (std::size_t index = 0; index < kFieldCount; ++index) {
        if ((fresh.fields & (1u << index)) == 0) continue;
        fresh.masks[index] = match.mask_of(static_cast<Field>(index));
        fresh.order.push_back(static_cast<std::uint8_t>(index));
      }
      fresh.exact = match.all_exact() && fresh.fields != 0;
      shapes_.push_back(std::move(fresh));
      shape = &shapes_.back();
    }

    shape->max_priority = std::max(shape->max_priority, entry->priority);
    shape->list.push_back(entry);
  }

  std::vector<std::uint64_t> hashes;
  for (Shape& shape : shapes_) {
    std::stable_sort(shape.list.begin(), shape.list.end(), priority_desc);
    // Fold one field at a time into every rank's running hash (the same
    // packing lookups use for packets): after p folds, `hashes` keys the
    // first p masked values.
    const std::size_t n = shape.order.size();
    hashes.assign(shape.list.size(), kFieldHashSeed);
    for (std::size_t p = 1; p <= n; ++p) {
      const auto field = static_cast<Field>(shape.order[p - 1]);
      for (std::size_t rank = 0; rank < hashes.size(); ++rank)
        hashes[rank] = hash_u64s(hashes[rank], shape.list[rank]->match.value_of(field));
      if (p < n && !shape.exact) shape.prefix.emplace_back().build(hashes);
    }
    shape.full.build(hashes);
  }
  std::stable_sort(shapes_.begin(), shapes_.end(),
                   [](const Shape& a, const Shape& b) { return a.max_priority > b.max_priority; });
}

bool SpecializedMatcher::agrees(const Shape& shape, std::uint32_t rank, std::size_t count,
                                const FieldView& view) {
  const Match& match = shape.list[rank]->match;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t index = shape.order[i];
    if ((view.values[index] & shape.masks[index]) != match.value_of(static_cast<Field>(index)))
      return false;
  }
  return true;
}

FlowEntry* SpecializedMatcher::lookup_exact(const Shape& shape, const FieldView& view,
                                            LookupCost& cost) {
  if ((view.present & shape.fields) != shape.fields) {
    // The shape is skipped because the packet lacks some of its fields;
    // pin exactly those absences for megaflow learning.
    for (const std::uint8_t index : shape.order)
      if ((view.present & (1u << index)) == 0) view.note(static_cast<Field>(index), 0);
    return nullptr;
  }
  std::uint64_t key = kFieldHashSeed;
  for (const std::uint8_t index : shape.order) {
    view.note(static_cast<Field>(index), shape.masks[index]);
    key = hash_u64s(key, view.values[index] & shape.masks[index]);
  }
  ++cost.hash_probes;
  // The ranks sharing the key's hash are the bucket, in priority order.
  for (std::uint32_t rank = shape.full.find(key); rank != kNoRank; rank = shape.full.next(rank)) {
    ++cost.entries_scanned;
    if (agrees(shape, rank, shape.order.size(), view)) return shape.list[rank];
  }
  return nullptr;
}

FlowEntry* SpecializedMatcher::lookup_wildcard(const Shape& shape, const FieldView& view,
                                               LookupCost& cost) {
  // The modelled scan stops at the first match in rank order, having
  // compared rank + 1 entries; its compares note every shape field.
  if ((view.present & shape.fields) == shape.fields) {
    std::uint64_t key = kFieldHashSeed;
    for (const std::uint8_t index : shape.order)
      key = hash_u64s(key, view.values[index] & shape.masks[index]);
    for (std::uint32_t rank = shape.full.find(key); rank != kNoRank;
         rank = shape.full.next(rank)) {
      if (!agrees(shape, rank, shape.order.size(), view)) continue;
      cost.entries_scanned += rank + 1;
      for (const std::uint8_t index : shape.order)
        view.note(static_cast<Field>(index), shape.masks[index]);
      return shape.list[rank];
    }
  }

  // A miss compares every entry. Each compare notes the fields its
  // entry agrees on, then the field it fails at (mask 0 when the view
  // lacks it), so together they note the longest prefix some entry
  // agrees on and the field after it. The prefix indexes nest, so walk
  // them until the first miss.
  cost.entries_scanned += static_cast<std::uint32_t>(shape.list.size());
  if (view.use == nullptr) return nullptr;
  std::uint64_t prefix = kFieldHashSeed;
  for (std::size_t depth = 0;; ++depth) {
    const std::uint8_t index = shape.order[depth];
    const auto field = static_cast<Field>(index);
    if ((view.present & (1u << index)) == 0) {
      view.note(field, 0);
      return nullptr;
    }
    view.note(field, shape.masks[index]);
    if (depth + 1 == shape.order.size()) return nullptr;
    prefix = hash_u64s(prefix, view.values[index] & shape.masks[index]);
    const KeyIndex& level = shape.prefix[depth];
    std::uint32_t rank = level.find(prefix);
    while (rank != kNoRank && !agrees(shape, rank, depth + 1, view)) rank = level.next(rank);
    if (rank == kNoRank) return nullptr;
  }
}

FlowEntry* SpecializedMatcher::lookup(const FieldView& view, LookupCost& cost) const {
  FlowEntry* best = nullptr;
  for (const Shape& shape : shapes_) {
    // Shapes are ordered by max_priority: once the current best beats
    // everything a shape could contain, we are done.
    if (best != nullptr && best->priority >= shape.max_priority) break;
    FlowEntry* hit =
        shape.exact ? lookup_exact(shape, view, cost) : lookup_wildcard(shape, view, cost);
    if (hit != nullptr && (best == nullptr || hit->priority > best->priority)) best = hit;
  }
  return best;
}

std::unique_ptr<Matcher> make_matcher(bool specialized) {
  if (specialized) return std::make_unique<SpecializedMatcher>();
  return std::make_unique<LinearMatcher>();
}

}  // namespace harmless::openflow
