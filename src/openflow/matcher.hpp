// openflow/matcher.hpp — flow-table lookup engines.
//
// Two engines implement the same contract so benches can swap them:
//
//  * LinearMatcher — the textbook approach: walk entries in priority
//    order, first hit wins. O(n) per lookup. It is the reference, and
//    what the `specialized=false` ablation runs.
//
//  * SpecializedMatcher — a miniature of ESwitch's dataplane
//    specialization (Molnár et al., SIGCOMM'16 [9], the switch the
//    HARMLESS demo runs): entries are partitioned by *shape* (the set
//    of constrained fields + masks). Shapes whose constraints are all
//    exact-match compile to a hash table keyed on the packed field
//    values — one probe instead of n comparisons. Wildcarded shapes
//    are modelled as a priority-ordered list that ESwitch scans.
//    Lookup visits shapes in descending max-priority order and stops
//    as soon as no later shape can beat the best hit.
//
// On the host, every shape is indexed by its masked key (tuple-space
// search, Srinivasan et al., SIGCOMM'99, as in the OVS classifier): a
// wildcard shape finds its first match with one probe, then derives
// the count and the unwildcarding notes of the modelled scan from that
// match's rank instead of performing the scan.
//
// Both report a LookupCost so the softswitch can charge simulated
// nanoseconds proportional to the modelled work.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "openflow/flow_entry.hpp"
#include "util/flat_index.hpp"

namespace harmless::openflow {

/// The modelled work of one lookup. For a wildcard shape of the
/// specialized matcher, `entries_scanned` is the number of compares
/// the modelled priority-list scan makes (rank + 1 of the first match,
/// or the list's size on a miss), not work the host performs.
struct LookupCost {
  std::uint32_t entries_scanned = 0;  // modelled rule comparisons
  std::uint32_t hash_probes = 0;      // exact-shape hash-table probes
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Rebuild internal structures from `entries` (any order; matchers
  /// sort internally). Pointers must stay valid until the next rebuild.
  virtual void rebuild(std::span<FlowEntry* const> entries) = 0;

  /// Highest-priority matching entry, or nullptr.
  virtual FlowEntry* lookup(const FieldView& view, LookupCost& cost) const = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

class LinearMatcher : public Matcher {
 public:
  void rebuild(std::span<FlowEntry* const> entries) override;
  FlowEntry* lookup(const FieldView& view, LookupCost& cost) const override;
  [[nodiscard]] const char* name() const override { return "linear"; }

 private:
  std::vector<FlowEntry*> by_priority_;
};

class SpecializedMatcher : public Matcher {
 public:
  void rebuild(std::span<FlowEntry* const> entries) override;
  FlowEntry* lookup(const FieldView& view, LookupCost& cost) const override;
  [[nodiscard]] const char* name() const override { return "specialized"; }

  /// Number of compiled shapes (exposed for tests/benches).
  [[nodiscard]] std::size_t shape_count() const { return shapes_.size(); }

 private:
  static constexpr std::uint32_t kNoRank = 0xffffffff;

  /// A shape's masked-key hash -> the lowest rank with that hash: a
  /// util::FlatIndex whose per-rank chain holds the other ranks with the
  /// same hash in ascending order. Hashes can collide, so callers
  /// verify the values of every rank they take from it.
  class KeyIndex {
   public:
    /// Index `hashes[rank]` for every rank.
    void build(std::span<const std::uint64_t> hashes);
    /// The lowest rank keyed by `hash`, or kNoRank.
    [[nodiscard]] std::uint32_t find(std::uint64_t hash) const {
      const Cell* cell = index_.find(hash, [hash](const Cell& c) { return c.key == hash; });
      return cell != nullptr ? cell->head : kNoRank;
    }
    [[nodiscard]] std::uint32_t next(std::uint32_t rank) const { return index_.next(rank); }

   private:
    struct Cell {
      std::uint64_t key = 0;
      std::uint32_t head = kNoRank;  // kNoRank marks an empty cell
      [[nodiscard]] bool empty() const { return head == kNoRank; }
      [[nodiscard]] std::uint64_t hash() const { return key; }
    };
    util::FlatIndex<Cell> index_{2};
  };

  struct Shape {
    std::uint32_t fields = 0;  // presence bitmap
    std::array<std::uint64_t, kFieldCount> masks{};
    bool exact = false;              // all masks full-width: billed as one hash probe
    std::uint16_t max_priority = 0;  // best entry priority in this shape
    std::vector<FlowEntry*> list;    // stable priority-desc: rank order
    std::vector<std::uint8_t> order;  // field indices ascending, as Match::matches walks
    KeyIndex full;                    // hash of all masked values -> ranks
    /// Wildcard shapes only: prefix[p - 1] keys the first p masked
    /// values, p = 1..n-1, for the unwildcarding of a miss.
    std::vector<KeyIndex> prefix;
  };

  /// Does the entry at `rank` agree with the view on the shape's first
  /// `count` fields? The view must have those fields.
  static bool agrees(const Shape& shape, std::uint32_t rank, std::size_t count,
                     const FieldView& view);
  static FlowEntry* lookup_exact(const Shape& shape, const FieldView& view, LookupCost& cost);
  static FlowEntry* lookup_wildcard(const Shape& shape, const FieldView& view, LookupCost& cost);

  std::vector<Shape> shapes_;  // sorted by max_priority descending
};

std::unique_ptr<Matcher> make_matcher(bool specialized);

}  // namespace harmless::openflow
