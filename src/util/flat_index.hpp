// util/flat_index.hpp — the one open-addressing hash index of the hot
// path (MAC table, megaflow buckets, microflow tier, latency recorder,
// conntrack tuples, matcher keys).
//
// A power-of-two array of caller-defined cells: a Fibonacci home cell,
// linear probing, backward-shift deletion (no tombstones), doubling
// before an insert would pass 3/4 load. The index never sees a key. A
// Cell provides `empty()` (true for `Cell{}`) and `hash()` (what it was
// filed under, so growth and deletion re-home it without the key), and
// find() takes a predicate that recognises the key in a cell, which may
// hold the key or an id to read it back through. Multimap use: a cell
// holds the first id filed under its key, the per-id chain the rest.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace harmless::util {

template <typename Cell>
class FlatIndex {
 public:
  /// `cells` must be a power of two, at least 2.
  explicit FlatIndex(std::size_t cells = 64) { reset(cells); }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Drop every cell, keeping the array.
  void clear() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    size_ = 0;
  }

  /// Drop every cell and resize the array to `cells` (a power of two,
  /// at least 2), for a user that sizes its own load up front.
  void reset(std::size_t cells) {
    cells_.assign(cells, Cell{});
    mask_ = cells - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cells));
    size_ = 0;
  }

  /// The cell under `hash` for which `is_key(cell)` holds, or nullptr.
  /// Invalidated by any insert or erase.
  template <typename IsKey>
  [[nodiscard]] Cell* find(std::uint64_t hash, IsKey&& is_key) {
    for (std::size_t at = home(hash);; at = (at + 1) & mask_) {
      if (cells_[at].empty()) return nullptr;
      if (is_key(static_cast<const Cell&>(cells_[at]))) return &cells_[at];
    }
  }
  template <typename IsKey>
  [[nodiscard]] const Cell* find(std::uint64_t hash, IsKey&& is_key) const {
    return const_cast<FlatIndex*>(this)->find(hash, is_key);
  }

  /// File `cell` under `cell.hash()`; its key must be absent.
  void insert(const Cell& cell) {
    if ((size_ + 1) * 4 > cells_.size() * 3) {
      std::vector<Cell> old = std::move(cells_);
      reset(old.size() * 2);
      for (const Cell& moved : old)
        if (!moved.empty()) place(moved);
    }
    place(cell);
  }

  /// Remove a cell returned by find(): pull every follower whose home
  /// lies at or before the hole back over it, wrapping at the end.
  void erase(Cell* cell) {
    auto hole = static_cast<std::size_t>(cell - cells_.data());
    for (std::size_t at = (hole + 1) & mask_; !cells_[at].empty(); at = (at + 1) & mask_) {
      if (((at - home(cells_[at].hash())) & mask_) >= ((at - hole) & mask_)) {
        cells_[hole] = cells_[at];
        hole = at;
      }
    }
    cells_[hole] = Cell{};
    --size_;
  }

  /// Remove every cell for which `pred(cell)` holds; returns how many.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    // A backward shift pulls unvisited cells back over the hole, so the
    // hole is tested again; a cell shifted from the front of the array
    // to the back is tested twice, harmlessly, since it survived once.
    std::size_t erased = 0;
    for (std::size_t at = 0; at < cells_.size();) {
      if (!cells_[at].empty() && pred(static_cast<const Cell&>(cells_[at]))) {
        erase(&cells_[at]);
        ++erased;
      } else {
        ++at;
      }
    }
    return erased;
  }

  /// Per-id chain for multimap use: `next(id)` is what the user linked
  /// after `id`.
  void link(std::uint32_t id, std::uint32_t next) {
    if (id >= next_.size()) next_.resize(id + 1);
    next_[id] = next;
  }
  [[nodiscard]] std::uint32_t next(std::uint32_t id) const { return next_[id]; }

 private:
  [[nodiscard]] std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void place(const Cell& cell) {
    std::size_t at = home(cell.hash());
    while (!cells_[at].empty()) at = (at + 1) & mask_;
    cells_[at] = cell;
    ++size_;
  }

  std::vector<Cell> cells_;
  std::vector<std::uint32_t> next_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace harmless::util
