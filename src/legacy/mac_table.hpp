// legacy/mac_table.hpp — the 802.1D learning/filtering database.
//
// Entries are keyed by (VLAN, MAC) — independent learning per VLAN, as
// required for HARMLESS where the same host MAC may appear in multiple
// VLAN contexts during migration. Aging is lazy: entries are checked
// against the clock on lookup, so no timer events are needed, and an
// aged-out entry still counts against capacity until it is re-learned
// or flushed. Every hop learns one key and looks up another, so entries
// are util::FlatIndex cells: a probe reads one cell, a learn never
// allocates.
#pragma once

#include <cstdint>
#include <optional>

#include "net/mac.hpp"
#include "net/vlan.hpp"
#include "sim/time.hpp"
#include "util/flat_index.hpp"

namespace harmless::legacy {

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

  /// What a bridge does with one frame (802.1D): send it out of the
  /// learned port, filter it (the destination is on the ingress
  /// segment), or flood it (multicast or unknown destination).
  enum class Verdict : std::uint8_t { kForward, kFilter, kFlood };
  struct Decision {
    Verdict verdict;
    int port;  // the learned port; kForward only
  };

  /// The bridging decision for a frame from `src` to `dst` arriving on
  /// `in_port`: learn a unicast, non-zero source first, then look up a
  /// unicast destination.
  Decision bridge(net::VlanId vlan, net::MacAddr src, net::MacAddr dst, int in_port,
                  sim::SimNanos now);

  /// Drop all entries pointing at `port` (link-down handling); returns
  /// how many were flushed.
  std::size_t flush_port(int port) {
    return table_.erase_if([port](const Cell& cell) { return cell.port == port; });
  }

  void clear() { table_.clear(); }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

  void set_aging(sim::SimNanos aging) { aging_ = aging; }
  [[nodiscard]] sim::SimNanos aging() const { return aging_; }

 private:
  struct Cell {
    std::uint64_t key = 0;  // vlan << 48 | mac
    sim::SimNanos learned_at = 0;
    int port = 0;
    bool live = false;
    [[nodiscard]] bool empty() const { return !live; }
    [[nodiscard]] std::uint64_t hash() const { return key; }
  };

  static std::uint64_t pack(net::VlanId vlan, net::MacAddr mac) {
    return static_cast<std::uint64_t>(vlan) << 48 | mac.to_u64();
  }

  sim::SimNanos aging_;
  std::size_t capacity_;
  std::uint64_t moves_ = 0;
  util::FlatIndex<Cell> table_;
};

}  // namespace harmless::legacy
