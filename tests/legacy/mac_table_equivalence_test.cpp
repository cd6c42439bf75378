// legacy::MacTable against the node-based table it replaced.
//
// The parent MacTable is kept verbatim in `namespace before`. Random
// learn / lookup / flush_port / clear / set_aging sequences run over a
// few VLANs x MACs at a small capacity, with clock steps that land on
// the aging boundary, and every lookup, size(), moves() and flush count
// must agree: the flat table keeps the old quirks too (aged-out entries
// still count against capacity until re-learned or flushed).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "legacy/mac_table.hpp"
#include "util/rng.hpp"

namespace harmless::legacy {
namespace before {

class MacTable {
 public:
  explicit MacTable(sim::SimNanos aging = 300u * 1000u * 1000u * 1000u,
                    std::size_t capacity = 8192)
      : aging_(aging), capacity_(capacity) {}

  /// Record (vlan, mac) -> port. Refreshes the timestamp on re-learn;
  /// a station move (same key, new port) overwrites. When full, new
  /// entries are not inserted (the real TCAM behaviour: flood instead).
  void learn(net::VlanId vlan, net::MacAddr mac, int port, sim::SimNanos now);

  /// Port for (vlan, mac), if known and not aged out.
  [[nodiscard]] std::optional<int> lookup(net::VlanId vlan, net::MacAddr mac,
                                          sim::SimNanos now) const;

  /// Drop all entries pointing at `port` (link-down handling); returns
  /// how many were flushed.
  std::size_t flush_port(int port);

  void clear() { table_.clear(); }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

  void set_aging(sim::SimNanos aging) { aging_ = aging; }
  [[nodiscard]] sim::SimNanos aging() const { return aging_; }

 private:
  struct Key {
    net::VlanId vlan;
    net::MacAddr mac;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::uint64_t>{}(key.mac.to_u64() ^
                                        (static_cast<std::uint64_t>(key.vlan) << 48));
    }
  };
  struct Entry {
    int port;
    sim::SimNanos learned_at;
  };

  sim::SimNanos aging_;
  std::size_t capacity_;
  std::uint64_t moves_ = 0;
  std::unordered_map<Key, Entry, KeyHash> table_;
};

void MacTable::learn(net::VlanId vlan, net::MacAddr mac, int port, sim::SimNanos now) {
  const Key key{vlan, mac};
  const auto it = table_.find(key);
  if (it != table_.end()) {
    if (it->second.port != port) ++moves_;
    it->second = Entry{port, now};
    return;
  }
  if (table_.size() >= capacity_) return;  // table full: keep flooding
  table_.emplace(key, Entry{port, now});
}

std::optional<int> MacTable::lookup(net::VlanId vlan, net::MacAddr mac,
                                    sim::SimNanos now) const {
  const auto it = table_.find(Key{vlan, mac});
  if (it == table_.end()) return std::nullopt;
  if (aging_ > 0 && now - it->second.learned_at > aging_) return std::nullopt;  // aged out
  return it->second.port;
}

std::size_t MacTable::flush_port(int port) {
  std::size_t flushed = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.port == port) {
      it = table_.erase(it);
      ++flushed;
    } else {
      ++it;
    }
  }
  return flushed;
}

}  // namespace before

namespace {

TEST(MacTableEquivalence, RandomSequencesMatchTheNodeBasedTable) {
  constexpr sim::SimNanos kAging = 100;
  const sim::SimNanos steps[] = {0, 1, 49, 50, 99, 100, 101, 200};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const std::size_t capacity = 1 + rng.below(12);
    MacTable flat(kAging, capacity);
    before::MacTable reference(kAging, capacity);
    sim::SimNanos now = 0;
    for (int op = 0; op < 3'000 && !HasFailure(); ++op) {
      now += steps[rng.below(std::size(steps))];
      const auto vlan = static_cast<net::VlanId>(rng.below(3) == 0 ? 0 : 100 + rng.below(3));
      const net::MacAddr mac = net::MacAddr::from_u64(1 + rng.below(6));
      const int port = 1 + static_cast<int>(rng.below(4));
      const std::uint64_t roll = rng.below(100);
      if (roll < 45) {
        flat.learn(vlan, mac, port, now);
        reference.learn(vlan, mac, port, now);
      } else if (roll < 90) {
        // Probe at the aging boundary too: a lookup `aging` after the
        // learn still hits, one nanosecond later it does not.
        const sim::SimNanos at = now + steps[rng.below(std::size(steps))];
        ASSERT_EQ(flat.lookup(vlan, mac, at), reference.lookup(vlan, mac, at))
            << "op " << op << " vlan " << vlan << " at " << at;
      } else if (roll < 95) {
        ASSERT_EQ(flat.flush_port(port), reference.flush_port(port)) << "op " << op;
      } else if (roll < 97) {
        flat.clear();
        reference.clear();
      } else {
        const sim::SimNanos aging = rng.below(3) == 0 ? 0 : kAging / (1 + rng.below(2));
        flat.set_aging(aging);
        reference.set_aging(aging);
        ASSERT_EQ(flat.aging(), reference.aging());
      }
      ASSERT_EQ(flat.size(), reference.size()) << "op " << op;
      ASSERT_EQ(flat.moves(), reference.moves()) << "op " << op;
    }
  }
}

TEST(MacTableEquivalence, CapacityRefusalCountsAgedEntries) {
  // Full of entries that have all aged out: a new key is still refused
  // (flooded), exactly as the node-based table did, while a re-learn
  // of a resident key refreshes it.
  MacTable flat(/*aging=*/10, /*capacity=*/2);
  before::MacTable reference(/*aging=*/10, /*capacity=*/2);
  const net::MacAddr a = net::MacAddr::from_u64(0xa);
  const net::MacAddr b = net::MacAddr::from_u64(0xb);
  const net::MacAddr c = net::MacAddr::from_u64(0xc);
  flat.learn(1, a, 1, 0);
  flat.learn(1, b, 2, 0);
  reference.learn(1, a, 1, 0);
  reference.learn(1, b, 2, 0);
  flat.learn(1, c, 3, 100);
  reference.learn(1, c, 3, 100);
  EXPECT_EQ(flat.lookup(1, c, 100), std::nullopt);
  EXPECT_EQ(flat.lookup(1, c, 100), reference.lookup(1, c, 100));
  EXPECT_EQ(flat.size(), 2u);
  flat.learn(1, a, 1, 100);
  reference.learn(1, a, 1, 100);
  EXPECT_EQ(flat.lookup(1, a, 105), 1);
  EXPECT_EQ(flat.lookup(1, a, 105), reference.lookup(1, a, 105));
  EXPECT_EQ(flat.lookup(1, b, 105), reference.lookup(1, b, 105));
}

}  // namespace
}  // namespace harmless::legacy
