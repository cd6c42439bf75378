// Robustness fuzzing for every parser that consumes external input:
// vendor config text, OIDs, raw frames, pcap files, conntrack
// checkpoint images. The property is uniform — any byte soup either
// parses or returns a clean error; nothing throws, crashes or reads out
// of bounds (ASAN-clean by construction: all paths go through
// bounds-checked span reads). Snapshot images add one more: any blob
// the parser accepts re-serializes to exactly the same bytes.
#include <gtest/gtest.h>

#include "mgmt/dialects.hpp"
#include "mgmt/oid.hpp"
#include "net/build.hpp"
#include "net/parse.hpp"
#include "net/pcap.hpp"
#include "openflow/conntrack.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

std::string random_text(util::Rng& rng, std::size_t max_length) {
  // Biased toward config-ish characters so parsing gets past line 1.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 .,/-\n\t interface switchport vlan trunk";
  std::string text;
  const std::size_t length = rng.below(max_length);
  for (std::size_t i = 0; i < length; ++i)
    text += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  return text;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, DialectParseNeverThrows) {
  util::Rng rng(GetParam());
  for (const char* platform : {"ios_like", "eos_like"}) {
    auto dialect = mgmt::make_dialect(platform);
    for (int trial = 0; trial < 200; ++trial) {
      const std::string text = random_text(rng, 400);
      EXPECT_NO_THROW({ auto result = dialect->parse(text); (void)result; });
    }
  }
}

TEST_P(ParserFuzz, MutatedValidConfigParsesOrFailsCleanly) {
  util::Rng rng(GetParam());
  auto dialect = mgmt::make_ios_like_dialect();
  legacy::SwitchConfig config;
  config.hostname = "fuzz";
  config.ports[1] = legacy::PortConfig{legacy::PortMode::kAccess, 101, {}, std::nullopt,
                                       true, "leg"};
  config.ports[2] =
      legacy::PortConfig{legacy::PortMode::kTrunk, 1, {101, 102}, net::VlanId{101}, true, ""};
  const std::string valid = dialect->render(config);

  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    // Flip, delete or duplicate a few characters.
    for (int edit = 0; edit < 3 && !mutated.empty(); ++edit) {
      const std::size_t pos = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0: mutated[pos] = static_cast<char>('!' + rng.below(90)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, mutated[pos]); break;
      }
    }
    EXPECT_NO_THROW({
      auto result = dialect->parse(mutated);
      if (result.is_ok()) {
        // If it parsed, it must re-render without throwing either.
        (void)dialect->render(*result);
      } else {
        EXPECT_FALSE(result.message().empty());
      }
    });
  }
}

TEST_P(ParserFuzz, OidParseNeverThrows) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t length = rng.below(40);
    static constexpr char kOidish[] = "0123456789....abc-";
    for (std::size_t i = 0; i < length; ++i) text += kOidish[rng.below(sizeof(kOidish) - 1)];
    EXPECT_NO_THROW({ auto oid = mgmt::Oid::parse(text); (void)oid; });
  }
}

TEST_P(ParserFuzz, FrameParserHandlesRandomBytes) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    net::Bytes frame(rng.below(200));
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_NO_THROW({ auto parsed = net::parse_packet(frame); (void)parsed; });
  }
}

TEST_P(ParserFuzz, FrameParserHandlesMutatedValidPackets) {
  util::Rng rng(GetParam());
  net::FlowKey key;
  key.eth_src = net::MacAddr::from_u64(1);
  key.eth_dst = net::MacAddr::from_u64(2);
  key.ip_src = net::Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = net::Ipv4Addr(10, 0, 0, 2);
  key.src_port = 1;
  key.dst_port = 80;
  for (int trial = 0; trial < 500; ++trial) {
    net::Packet packet = rng.chance(0.5) ? net::make_http_get(key, "fuzz.example")
                                         : net::make_udp(key, 64 + rng.below(256));
    net::Bytes& frame = packet.frame();
    for (int edit = 0; edit < 4; ++edit)
      frame[rng.below(frame.size())] = static_cast<std::uint8_t>(rng.below(256));
    if (rng.chance(0.3)) frame.resize(rng.below(frame.size() + 1));
    EXPECT_NO_THROW({
      const net::ParsedPacket parsed = net::parse_packet(frame);
      // The payload view must stay inside the frame even when length
      // fields were corrupted.
      const std::string_view payload = net::l4_payload(parsed, frame);
      if (!payload.empty()) {
        EXPECT_GE(reinterpret_cast<const std::uint8_t*>(payload.data()), frame.data());
        EXPECT_LE(reinterpret_cast<const std::uint8_t*>(payload.data()) + payload.size(),
                  frame.data() + frame.size());
      }
    });
  }
}

TEST_P(ParserFuzz, PcapParserHandlesRandomBytes) {
  util::Rng rng(GetParam());
  // Seed some inputs with the valid magic so record parsing is reached.
  net::PcapWriter seed;
  for (int trial = 0; trial < 300; ++trial) {
    net::Bytes file;
    if (rng.chance(0.5)) {
      file = seed.bytes();
      const std::size_t extra = rng.below(80);
      for (std::size_t i = 0; i < extra; ++i)
        file.push_back(static_cast<std::uint8_t>(rng.below(256)));
    } else {
      file.resize(rng.below(120));
      for (auto& byte : file) byte = static_cast<std::uint8_t>(rng.below(256));
    }
    EXPECT_NO_THROW({ auto records = net::pcap_parse(file); (void)records; });
  }
}

/// A valid checkpoint image of up to four connections with random
/// tuples, every NAT kind and every flag combination.
std::vector<std::uint8_t> valid_snapshot(util::Rng& rng) {
  openflow::CtSnapshot snap;
  snap.taken_at = static_cast<sim::SimNanos>(rng.below(1'000'000'000));
  const auto random_tuple = [&rng] {
    return openflow::CtTuple{static_cast<std::uint32_t>(rng.next()),
                             static_cast<std::uint32_t>(rng.next()),
                             static_cast<std::uint16_t>(rng.below(65536)),
                             static_cast<std::uint16_t>(rng.below(65536)),
                             rng.chance(0.5) ? std::uint8_t{6} : std::uint8_t{17}};
  };
  const std::size_t count = rng.below(5);
  for (std::size_t i = 0; i < count; ++i) {
    openflow::CtSnapshotEntry entry;
    entry.orig = random_tuple();
    entry.reply = random_tuple();
    entry.nat.kind = static_cast<openflow::CtAction::Nat>(rng.below(3));
    entry.nat.ip = static_cast<std::uint32_t>(rng.next());
    entry.nat.port = static_cast<std::uint16_t>(rng.below(65536));
    entry.seen_reply = rng.chance(0.5);
    entry.closing = rng.chance(0.5);
    entry.remaining_ns = static_cast<sim::SimNanos>(rng.below(60'000'000'000ULL));
    snap.entries.push_back(entry);
  }
  return snap.serialize();
}

/// The snapshot parser never throws, and whatever it accepts
/// re-serializes byte-identically.
void expect_snapshot_parse_is_clean(const std::vector<std::uint8_t>& bytes) {
  std::optional<openflow::CtSnapshot> parsed;
  EXPECT_NO_THROW(parsed = openflow::CtSnapshot::parse(bytes));
  if (parsed) {
    EXPECT_EQ(parsed->serialize(), bytes);
  }
}

TEST_P(ParserFuzz, CtSnapshotParserHandlesRandomBytes) {
  util::Rng rng(GetParam());
  // Half the inputs start with a valid magic + version so the count
  // check and the entry decoder are reached, not just the magic gate.
  const std::vector<std::uint8_t> header = openflow::CtSnapshot{}.serialize();
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes;
    if (rng.chance(0.5)) bytes.assign(header.begin(), header.begin() + 6);
    const std::size_t extra = rng.below(200);
    for (std::size_t i = 0; i < extra; ++i)
      bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
    expect_snapshot_parse_is_clean(bytes);
  }
}

TEST_P(ParserFuzz, CtSnapshotParserHandlesMutatedValidSnapshots) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes = valid_snapshot(rng);
    ASSERT_TRUE(openflow::CtSnapshot::parse(bytes).has_value());
    // Overwrite, truncate, or extend — and sometimes forge the count
    // field (bytes 14..17), including the all-ones count.
    for (int edit = 0; edit < 3; ++edit) {
      switch (rng.below(4)) {
        case 0:
          bytes[rng.below(bytes.size())] = static_cast<std::uint8_t>(rng.below(256));
          break;
        case 1: bytes.resize(rng.below(bytes.size() + 1)); break;
        case 2: bytes.push_back(static_cast<std::uint8_t>(rng.below(256))); break;
        default:
          if (bytes.size() >= 18)
            for (std::size_t i = 14; i < 18; ++i)
              bytes[i] = rng.chance(0.5) ? 0xff : static_cast<std::uint8_t>(rng.below(256));
      }
      if (bytes.empty()) break;
    }
    expect_snapshot_parse_is_clean(bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace harmless
