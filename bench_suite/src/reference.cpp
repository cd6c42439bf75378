#include "reference.hpp"

#include <array>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_map>

#include "trace.hpp"

namespace harmless::suite {

std::vector<std::int64_t> reference_chunks() {
  // An event heap, a flow-table-sized hash map and packet-sized copies:
  // the simulator's kinds of work, in code it does not share.
  constexpr int kChunks = 24;
  constexpr int kEventsPerChunk = 20'000;
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Event& other) const {
      return at != other.at ? at > other.at : id > other.id;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1 << 16);
  std::vector<std::array<std::uint8_t, 256>> pool(1024);
  std::array<std::uint8_t, 256> scratch{};
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < 4096; ++i) queue.push({i, i});

  std::vector<std::int64_t> chunks;
  std::uint64_t sink = 0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const std::int64_t start = host_ns();
    for (int e = 0; e < kEventsPerChunk; ++e) {
      const Event event = queue.top();
      queue.pop();
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      sink += table[state & 0xffff] += event.id;
      std::memcpy(scratch.data(), pool[(state >> 20) & 1023].data(), scratch.size());
      pool[(state >> 40) & 1023][state & 255] ^= scratch[(state >> 8) & 255];
      queue.push({event.at + 1 + (state & 511), event.id});
    }
    chunks.push_back(host_ns() - start);
  }
  // Keep the work observable.
  if (sink == 42) chunks.back() += 1;
  return chunks;
}

}  // namespace harmless::suite
