// SpecializedMatcher refactor equivalence: the matcher that indexes
// every shape by its masked key must report exactly what the matcher
// it replaced reported, which walked each wildcard shape's priority
// list. The simulated model prices that walk, and its unwildcarding
// notes set the megaflow masks, so the live matcher derives the count
// and the notes from the first match's rank instead of performing the
// walk.
//
// The replaced matcher is kept below verbatim (in namespace `before`;
// it implements the same Matcher interface). Both rebuild from the
// same seeded random rule sets and answer the same random views, with
// and without a FieldUse attached. Every lookup must agree on the
// returned entry (pointer, not just priority), both LookupCost fields
// and FieldUse{examined, masks}.
//
// Rule sets mix gateway-like shapes (in_port, eth_type, ip_proto, with
// and without a masked ct_state), ACL prefix shapes of up to 300
// rules, VLAN-any / tcp_flags / ip_src-prefix mixes, match-all entries
// and duplicate keys at equal and at different priorities. Views are
// UDP, TCP, ARP and VLAN-tagged frames, with and without kCtState, so
// lookups miss at every depth of a shape and on absent fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/build.hpp"
#include "openflow/matcher.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {
namespace before {

// ---- the replaced SpecializedMatcher, verbatim -------------------------

class SpecializedMatcher : public Matcher {
 public:
  void rebuild(std::span<FlowEntry* const> entries) override;
  FlowEntry* lookup(const FieldView& view, LookupCost& cost) const override;
  [[nodiscard]] const char* name() const override { return "specialized"; }

  /// Number of compiled shapes (exposed for tests/benches).
  [[nodiscard]] std::size_t shape_count() const { return shapes_.size(); }

 private:
  struct Shape {
    std::uint32_t fields = 0;  // presence bitmap
    std::array<std::uint64_t, kFieldCount> masks{};
    bool exact = false;              // all masks full-width -> hashed
    std::uint16_t max_priority = 0;  // best entry priority in this shape
    // exact shapes:
    std::unordered_map<std::uint64_t, std::vector<FlowEntry*>> buckets;
    // wildcard shapes (priority-desc):
    std::vector<FlowEntry*> list;
  };

  /// Pack the constrained field values of `view` under `shape` into a
  /// hash key. Returns false if the view lacks one of the fields.
  static bool shape_key(const Shape& shape, const FieldView& view, std::uint64_t& key);

  std::vector<Shape> shapes_;  // sorted by max_priority descending
};

namespace {

bool priority_desc(const FlowEntry* a, const FlowEntry* b) {
  return a->priority > b->priority;
}

}  // namespace

bool SpecializedMatcher::shape_key(const Shape& shape, const FieldView& view,
                                   std::uint64_t& key) {
  if ((view.present & shape.fields) != shape.fields) {
    // The shape is skipped because the packet lacks some of its fields;
    // pin exactly those absences for megaflow learning.
    std::uint32_t missing = shape.fields & ~view.present;
    while (missing != 0) {
      const unsigned index = static_cast<unsigned>(__builtin_ctz(missing));
      missing &= missing - 1;
      view.note(static_cast<Field>(index), 0);
    }
    return false;
  }
  std::uint64_t h = kFieldHashSeed;
  std::uint32_t remaining = shape.fields;
  while (remaining != 0) {
    const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
    remaining &= remaining - 1;
    view.note(static_cast<Field>(index), shape.masks[index]);
    h = hash_u64s(h, view.values[index] & shape.masks[index]);
  }
  key = h;
  return true;
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
      std::uint32_t remaining = candidate.fields;
      while (remaining != 0) {
        const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
        remaining &= remaining - 1;
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
      for (std::size_t index = 0; index < kFieldCount; ++index)
        if (fresh.fields & (1u << index))
          fresh.masks[index] = match.mask_of(static_cast<Field>(index));
      fresh.exact = match.all_exact() && fresh.fields != 0;
      shapes_.push_back(std::move(fresh));
      shape = &shapes_.back();
    }

    shape->max_priority = std::max(shape->max_priority, entry->priority);
    if (shape->exact) {
      // Key the entry by its own constrained values (same packing as
      // shape_key uses for packets).
      std::uint64_t h = kFieldHashSeed;
      std::uint32_t remaining = shape->fields;
      while (remaining != 0) {
        const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
        remaining &= remaining - 1;
        h = hash_u64s(h, entry->match.value_of(static_cast<Field>(index)));
      }
      shape->buckets[h].push_back(entry);
    } else {
      shape->list.push_back(entry);
    }
  }

  for (Shape& shape : shapes_) {
    std::stable_sort(shape.list.begin(), shape.list.end(), priority_desc);
    for (auto& [key, bucket] : shape.buckets)
      std::stable_sort(bucket.begin(), bucket.end(), priority_desc);
  }
  std::stable_sort(shapes_.begin(), shapes_.end(),
                   [](const Shape& a, const Shape& b) { return a.max_priority > b.max_priority; });
}

FlowEntry* SpecializedMatcher::lookup(const FieldView& view, LookupCost& cost) const {
  FlowEntry* best = nullptr;
  for (const Shape& shape : shapes_) {
    // Shapes are ordered by max_priority: once the current best beats
    // everything a shape could contain, we are done.
    if (best != nullptr && best->priority >= shape.max_priority) break;

    if (shape.exact) {
      std::uint64_t key = 0;
      if (!shape_key(shape, view, key)) continue;
      ++cost.hash_probes;
      const auto it = shape.buckets.find(key);
      if (it == shape.buckets.end()) continue;
      for (FlowEntry* entry : it->second) {
        ++cost.entries_scanned;
        if (entry->match.matches(view)) {  // guards against hash collisions
          if (best == nullptr || entry->priority > best->priority) best = entry;
          break;  // bucket is priority-sorted
        }
      }
    } else {
      for (FlowEntry* entry : shape.list) {
        ++cost.entries_scanned;
        if (entry->match.matches(view)) {
          if (best == nullptr || entry->priority > best->priority) best = entry;
          break;  // list is priority-sorted
        }
      }
    }
  }
  return best;
}

}  // namespace before

namespace {

using namespace net;

// Small value pools, so rules overlap and views hit at every rank.
constexpr std::array<std::uint64_t, 4> kCtStates = {
    0, kCtNew, kCtTracked | kCtEstablished, kCtTracked | kCtEstablished | kCtReply};
constexpr std::array<std::uint64_t, 3> kCtMasks = {
    kCtTracked | kCtEstablished, kCtNew | kCtTracked, kCtTracked | kCtEstablished | kCtReply};
constexpr std::array<std::uint8_t, 4> kTcpFlags = {0x02, 0x12, 0x10, 0x11};

Ipv4Addr pool_ip(util::Rng& rng) {
  // 10.0.{0..3}.{0..255}: /22 and longer prefixes split it finely.
  return Ipv4Addr(10, 0, static_cast<std::uint8_t>(rng.below(4)),
                  static_cast<std::uint8_t>(rng.below(256)));
}

Match gateway_rule(util::Rng& rng) {
  Match match;
  match.in_port(static_cast<std::uint32_t>(1 + rng.below(4)))
      .eth_type(0x0800)
      .ip_proto(rng.chance(0.5) ? 6 : 17);
  if (rng.chance(0.6))
    match.ct_state(kCtStates[rng.below(kCtStates.size())], kCtMasks[rng.below(kCtMasks.size())]);
  return match;
}

Match acl_rule(util::Rng& rng, int prefix_len) {
  return Match().eth_type(0x0800).ip_dst_prefix(pool_ip(rng), prefix_len);
}

Match mixed_rule(util::Rng& rng) {
  Match match;
  match.eth_type(0x0800);
  if (rng.chance(0.5)) match.vlan_any();
  if (rng.chance(0.6)) {
    match.ip_proto(6);
    if (rng.chance(0.7))
      match.tcp_flags(kTcpFlags[rng.below(kTcpFlags.size())], rng.chance(0.5) ? 0x02 : 0x12);
  }
  if (rng.chance(0.6)) match.ip_src_prefix(pool_ip(rng), static_cast<int>(22 + rng.below(3)));
  if (rng.chance(0.3)) match.ip_dst_prefix(pool_ip(rng), 24);
  return match;
}

class RuleSet {
 public:
  /// A random table: a few ACL prefix shapes of up to 300 rules each,
  /// gateway and mixed rules, match-all entries and duplicates.
  explicit RuleSet(util::Rng& rng) {
    const std::size_t acl_shapes = rng.below(4);
    for (std::size_t s = 0; s < acl_shapes; ++s) {
      const int prefix_len = static_cast<int>(22 + rng.below(9));
      const std::size_t rules = 1 + rng.below(300);
      for (std::size_t i = 0; i < rules; ++i) add(rng, acl_rule(rng, prefix_len));
    }
    const std::size_t others = rng.below(60);
    for (std::size_t i = 0; i < others; ++i)
      add(rng, rng.chance(0.5) ? gateway_rule(rng) : mixed_rule(rng));
    const std::size_t match_alls = rng.below(3);
    for (std::size_t i = 0; i < match_alls; ++i) add(rng, Match());
    const std::size_t duplicates = owned_.empty() ? 0 : rng.below(20);
    for (std::size_t i = 0; i < duplicates; ++i) duplicate(rng);
  }

  /// Replace one random rule (the churn a flow-mod causes).
  void churn(util::Rng& rng) {
    if (owned_.empty()) return;
    const std::size_t victim = rng.below(owned_.size());
    owned_[victim]->match = rng.chance(0.5) ? acl_rule(rng, static_cast<int>(22 + rng.below(9)))
                                            : gateway_rule(rng);
    owned_[victim]->priority = static_cast<std::uint16_t>(rng.below(64));
  }

  [[nodiscard]] std::vector<FlowEntry*> raw() const {
    std::vector<FlowEntry*> raw;
    for (const auto& entry : owned_) raw.push_back(entry.get());
    return raw;
  }

 private:
  void add(util::Rng& rng, const Match& match) {
    auto entry = std::make_unique<FlowEntry>();
    entry->priority = static_cast<std::uint16_t>(rng.below(64));
    entry->match = match;
    entry->instructions = apply({output(static_cast<std::uint32_t>(owned_.size() + 1))});
    owned_.push_back(std::move(entry));
  }

  /// Copy an existing rule's match at an equal or a different priority.
  void duplicate(util::Rng& rng) {
    const FlowEntry& original = *owned_[rng.below(owned_.size())];
    add(rng, original.match);
    if (rng.chance(0.5)) owned_.back()->priority = original.priority;
  }

  std::vector<std::unique_ptr<FlowEntry>> owned_;
};

FieldView random_view(util::Rng& rng) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000001ULL + rng.below(4));
  key.eth_dst = MacAddr::from_u64(0x020000000001ULL + rng.below(4));
  key.ip_src = pool_ip(rng);
  key.ip_dst = pool_ip(rng);
  key.src_port = static_cast<std::uint16_t>(1000 + rng.below(4));
  key.dst_port = static_cast<std::uint16_t>(80 + rng.below(4));
  const auto kind = rng.below(10);
  Packet packet = kind < 4   ? make_udp(key, 64 + rng.below(200))
                  : kind < 8 ? make_tcp(key, kTcpFlags[rng.below(kTcpFlags.size())])
                             : make_arp_request(key.eth_src, key.ip_src, key.ip_dst);
  if (rng.chance(0.3))
    vlan_push(packet.frame(), VlanTag{static_cast<VlanId>(100 + rng.below(4)), 0, false});
  FieldView view =
      build_field_view(parse_packet(packet), static_cast<std::uint32_t>(1 + rng.below(4)));
  if (rng.chance(0.6)) view.set(Field::kCtState, kCtStates[rng.below(kCtStates.size())]);
  return view;
}

class MatcherRefactorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherRefactorEquivalence, LookupsMatchTheReplacedMatcher) {
  util::Rng rng(GetParam());
  constexpr int kTablesPerSeed = 5;
  constexpr int kChurnsPerTable = 4;
  constexpr int kViewsPerBuild = 340;

  std::size_t lookups = 0;
  for (int table = 0; table < kTablesPerSeed; ++table) {
    RuleSet rules(rng);
    before::SpecializedMatcher reference;
    SpecializedMatcher live;
    for (int build = 0; build < kChurnsPerTable; ++build) {
      if (build > 0) rules.churn(rng);
      const std::vector<FlowEntry*> raw = rules.raw();
      reference.rebuild(raw);
      live.rebuild(raw);
      ASSERT_EQ(live.shape_count(), reference.shape_count());

      for (int trial = 0; trial < kViewsPerBuild; ++trial) {
        FieldView view = random_view(rng);
        for (const bool learning : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "seed=" << GetParam() << " table=" << table
                                            << " build=" << build << " trial=" << trial
                                            << " learning=" << learning);
          FieldUse use_reference;
          FieldUse use_live;
          if (learning && rng.chance(0.2)) {
            // Fields an earlier action rewrote are never noted.
            const auto overwritten = static_cast<std::uint32_t>(rng.below(1u << kFieldCount));
            use_reference.overwritten = overwritten;
            use_live.overwritten = overwritten;
          }
          LookupCost cost_reference;
          LookupCost cost_live;
          view.use = learning ? &use_reference : nullptr;
          FlowEntry* expect = reference.lookup(view, cost_reference);
          view.use = learning ? &use_live : nullptr;
          FlowEntry* actual = live.lookup(view, cost_live);
          ++lookups;

          ASSERT_EQ(actual, expect);
          ASSERT_EQ(cost_live.entries_scanned, cost_reference.entries_scanned);
          ASSERT_EQ(cost_live.hash_probes, cost_reference.hash_probes);
          ASSERT_EQ(use_live.examined, use_reference.examined);
          ASSERT_EQ(use_live.masks, use_reference.masks);
        }
      }
    }
  }
  EXPECT_EQ(lookups, static_cast<std::size_t>(kTablesPerSeed * kChurnsPerTable *
                                              kViewsPerBuild * 2));
}

// 8 seeds x 13,600 lookups = 108,800.
INSTANTIATE_TEST_SUITE_P(Seeds, MatcherRefactorEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace harmless::openflow
