#include "net/packet.hpp"

#include <cctype>
#include <sstream>
#include <vector>

#include "net/parse.hpp"
#include "util/strings.hpp"

namespace harmless::net {

namespace {

constexpr std::size_t kFramePoolCap = 4096;
std::uint64_t g_frame_copies = 0;

/// Leaked on purpose: a function-local thread_local vector would be
/// destroyed before static-storage Packets, whose destructors release
/// into it. A leaked pool has no destruction order.
std::vector<Bytes>& frame_pool() {
  thread_local auto* pool = new std::vector<Bytes>();
  return *pool;
}

}  // namespace

Bytes FramePool::acquire() {
  auto& pool = frame_pool();
  if (pool.empty()) return Bytes{};
  Bytes frame = std::move(pool.back());
  pool.pop_back();
  return frame;
}

void FramePool::release(Bytes&& frame) {
  if (frame.capacity() == 0) return;
  auto& pool = frame_pool();
  if (pool.size() >= kFramePoolCap) return;  // let it free
  frame.clear();
  pool.push_back(std::move(frame));
}

std::size_t FramePool::pooled() { return frame_pool().size(); }

Packet Packet::clone() const {
  ++g_frame_copies;
  Bytes frame = FramePool::acquire();
  frame.assign(frame_.begin(), frame_.end());
  Packet copy(std::move(frame));
  copy.id_ = id_;
  copy.created_at_ = created_at_;
  copy.processing_ns_ = processing_ns_;
  copy.hops_ = hops_;
  return copy;
}

std::uint64_t Packet::frame_copies() { return g_frame_copies; }
void Packet::reset_frame_copies() { g_frame_copies = 0; }

void Packet::set_intern(PacketParse* parse) {
  if (intern_ == parse) return;
  drop_intern();
  intern_ = parse;
}

void Packet::release_intern() {
  PacketParse::release(intern_);
  intern_ = nullptr;
}

std::string Packet::hexdump(std::size_t max_bytes) const {
  const std::size_t limit = std::min(max_bytes, frame_.size());
  std::ostringstream os;
  for (std::size_t offset = 0; offset < limit; offset += 16) {
    os << util::format("%04zx: ", offset);
    std::string ascii;
    for (std::size_t i = 0; i < 16; ++i) {
      if (offset + i < limit) {
        const std::uint8_t byte = frame_[offset + i];
        os << util::format("%02x ", byte);
        ascii += std::isprint(byte) ? static_cast<char>(byte) : '.';
      } else {
        os << "   ";
      }
    }
    os << ' ' << ascii << '\n';
  }
  if (limit < frame_.size())
    os << util::format("... (%zu of %zu bytes)\n", limit, frame_.size());
  return os.str();
}

}  // namespace harmless::net
