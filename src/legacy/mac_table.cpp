#include "legacy/mac_table.hpp"

namespace harmless::legacy {

void MacTable::learn(net::VlanId vlan, net::MacAddr mac, int port, sim::SimNanos now) {
  const std::uint64_t key = pack(vlan, mac);
  if (Cell* cell = table_.find(key, [key](const Cell& c) { return c.key == key; })) {
    if (cell->port != port) ++moves_;
    cell->port = port;
    cell->learned_at = now;
    return;
  }
  if (table_.size() >= capacity_) return;  // table full: keep flooding
  table_.insert(Cell{key, now, port, true});
}

std::optional<int> MacTable::lookup(net::VlanId vlan, net::MacAddr mac,
                                    sim::SimNanos now) const {
  const std::uint64_t key = pack(vlan, mac);
  const Cell* cell = table_.find(key, [key](const Cell& c) { return c.key == key; });
  if (cell == nullptr) return std::nullopt;
  if (aging_ > 0 && now - cell->learned_at > aging_) return std::nullopt;  // aged out
  return cell->port;
}

MacTable::Decision MacTable::bridge(net::VlanId vlan, net::MacAddr src, net::MacAddr dst,
                                   int in_port, sim::SimNanos now) {
  if (!src.is_multicast() && !src.is_zero()) learn(vlan, src, in_port, now);
  const std::optional<int> out = dst.is_multicast() ? std::nullopt : lookup(vlan, dst, now);
  if (!out) return Decision{Verdict::kFlood, 0};
  if (*out == in_port) return Decision{Verdict::kFilter, 0};
  return Decision{Verdict::kForward, *out};
}

}  // namespace harmless::legacy
