// util::FlatIndex against std::unordered_multimap references: growth,
// clear, erase_if, the per-id chain, and backward-shift deletion across
// the end of the array.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "util/flat_index.hpp"
#include "util/rng.hpp"

namespace harmless::util {
namespace {

constexpr std::uint32_t kNoId = 0xffffffff;

/// A key and an id; `filed_hash` is whatever the test files it under,
/// so tests can force collisions and pick home cells.
struct Cell {
  std::uint64_t key = 0;
  std::uint64_t filed_hash = 0;
  std::uint32_t id = kNoId;
  [[nodiscard]] bool empty() const { return id == kNoId; }
  [[nodiscard]] std::uint64_t hash() const { return filed_hash; }
};

auto same_key(std::uint64_t key) {
  return [key](const Cell& cell) { return cell.key == key; };
}

/// A hash whose home is `cell` in an index of 2^bits cells: the home is
/// the top `bits` bits of hash * kFib (Fibonacci hashing), so multiply
/// the wanted product by kFib's inverse mod 2^64.
constexpr std::uint64_t kFib = 0x9E3779B97F4A7C15ULL;
std::uint64_t hash_homed_at(std::uint64_t cell, unsigned bits) {
  std::uint64_t inverse = kFib;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 5; ++i) inverse *= 2 - kFib * inverse;
  return (cell << (64 - bits)) * inverse;
}

TEST(FlatIndex, GrowthKeepsEveryKey) {
  // 64 keys, one homed at each of 64 cells: the index doubles at 3/4
  // load, re-homes every cell by its stored hash, and finds them all.
  FlatIndex<Cell> index(64);
  for (std::uint64_t cell = 0; cell < 64; ++cell) {
    const std::uint64_t hash = hash_homed_at(cell, 6);
    ASSERT_EQ((hash * kFib) >> 58, cell);  // the wrap tests below rely on it
    index.insert(Cell{cell, hash, static_cast<std::uint32_t>(cell)});
  }
  EXPECT_EQ(index.size(), 64u);
  for (std::uint64_t cell = 0; cell < 64; ++cell)
    ASSERT_NE(index.find(hash_homed_at(cell, 6), same_key(cell)), nullptr) << cell;
}

TEST(FlatIndex, BackwardShiftAcrossTheWrap) {
  // Three keys homed at the last cell fill cells 63, 0 and 1; a fourth
  // homed at cell 0 lands in cell 2. Erasing the one in cell 63 pulls
  // each follower back over the end of the array.
  FlatIndex<Cell> index(64);
  const std::uint64_t last = hash_homed_at(63, 6);
  const std::uint64_t first = hash_homed_at(0, 6);
  for (std::uint64_t key = 1; key <= 3; ++key)
    index.insert(Cell{key, last, static_cast<std::uint32_t>(key)});
  index.insert(Cell{4, first, 4});
  ASSERT_EQ(index.size(), 4u);

  index.erase(index.find(last, same_key(1)));
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.find(last, same_key(1)), nullptr);
  for (std::uint64_t key = 2; key <= 3; ++key)
    ASSERT_NE(index.find(last, same_key(key)), nullptr) << key;
  ASSERT_NE(index.find(first, same_key(4)), nullptr);

  // The run is dense again: removing the rest leaves nothing behind.
  index.erase(index.find(first, same_key(4)));
  index.erase(index.find(last, same_key(2)));
  ASSERT_NE(index.find(last, same_key(3)), nullptr);
  index.erase(index.find(last, same_key(3)));
  EXPECT_EQ(index.size(), 0u);
  for (std::uint64_t key = 1; key <= 3; ++key) EXPECT_EQ(index.find(last, same_key(key)), nullptr);
}

TEST(FlatIndex, EraseIfVisitsRunsThatWrap) {
  FlatIndex<Cell> index(64);
  const std::uint64_t last = hash_homed_at(62, 6);
  // Cells 62, 63, 0, 1, 2: odd keys go.
  for (std::uint64_t key = 1; key <= 5; ++key)
    index.insert(Cell{key, last, static_cast<std::uint32_t>(key)});
  EXPECT_EQ(index.erase_if([](const Cell& cell) { return cell.key % 2 == 1; }), 3u);
  EXPECT_EQ(index.size(), 2u);
  for (std::uint64_t key = 1; key <= 5; ++key)
    EXPECT_EQ(index.find(last, same_key(key)) != nullptr, key % 2 == 0) << key;
}

TEST(FlatIndex, MatchesAMultimapUnderRandomChurn) {
  // Unique keys over a small space, filed under a hash shared by eight
  // keys each, so probe runs are long, collide and wrap; the index
  // starts at 8 cells, so it grows several times.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FlatIndex<Cell> index(8);
    std::unordered_multimap<std::uint64_t, std::uint32_t> reference;
    auto hash_of = [](std::uint64_t key) { return key >> 3; };
    for (std::uint32_t op = 0; op < 20'000 && !HasFailure(); ++op) {
      const std::uint64_t key = rng.below(300);
      const std::uint64_t roll = rng.below(1000);
      Cell* cell = index.find(hash_of(key), same_key(key));
      const auto expected = reference.find(key);
      ASSERT_EQ(cell != nullptr, expected != reference.end()) << "key " << key;
      if (cell != nullptr) {
        ASSERT_EQ(cell->id, expected->second);
      }
      if (roll < 450) {
        if (cell == nullptr) {
          index.insert(Cell{key, hash_of(key), op});
          reference.emplace(key, op);
        }
      } else if (roll < 900) {
        if (cell != nullptr) {
          index.erase(cell);
          reference.erase(key);
        }
      } else if (roll < 995) {
        const std::uint64_t modulus = 2 + rng.below(5);
        const std::size_t erased =
            index.erase_if([modulus](const Cell& c) { return c.key % modulus == 0; });
        const std::size_t expected_erased =
            std::erase_if(reference, [modulus](const auto& kv) { return kv.first % modulus == 0; });
        ASSERT_EQ(erased, expected_erased);
      } else {
        index.clear();
        reference.clear();
      }
      ASSERT_EQ(index.size(), reference.size());
    }
    for (std::uint64_t key = 0; key < 300; ++key)
      ASSERT_EQ(index.find(hash_of(key), same_key(key)) != nullptr, reference.count(key) == 1);
  }
}

TEST(FlatIndex, ChainHoldsEveryIdOfAKeyInFilingOrder) {
  // Multimap use: each cell heads its key's chain; new ids are filed at
  // the head, so a chain reads newest first.
  Rng rng(7);
  FlatIndex<Cell> index(8);
  std::unordered_multimap<std::uint64_t, std::uint32_t> reference;
  std::unordered_set<std::uint64_t> keys;
  for (std::uint32_t id = 0; id < 3'000; ++id) {
    const std::uint64_t key = rng.below(200);
    Cell* cell = index.find(key, same_key(key));
    index.link(id, cell != nullptr ? cell->id : kNoId);
    if (cell != nullptr) cell->id = id;
    else index.insert(Cell{key, key, id});
    reference.emplace(key, id);
    keys.insert(key);
  }
  EXPECT_EQ(index.size(), keys.size());
  for (std::uint64_t key = 0; key < 200; ++key) {
    const auto [begin, end] = reference.equal_range(key);
    std::unordered_multiset<std::uint32_t> expected;
    for (auto it = begin; it != end; ++it) expected.insert(it->second);
    const Cell* cell = index.find(key, same_key(key));
    ASSERT_EQ(cell != nullptr, !expected.empty()) << key;
    if (cell == nullptr) continue;
    std::unordered_multiset<std::uint32_t> chained;
    std::uint32_t previous = kNoId;
    for (std::uint32_t id = cell->id; id != kNoId; id = index.next(id)) {
      if (previous != kNoId) {
        ASSERT_LT(id, previous) << "key " << key;
      }
      previous = id;
      chained.insert(id);
    }
    EXPECT_EQ(chained, expected) << "key " << key;
  }
}

}  // namespace
}  // namespace harmless::util
