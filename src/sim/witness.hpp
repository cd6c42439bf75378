// sim/witness.hpp — the lease-arbitrating witness for split-brain-safe HA.
//
// An active/standby pair alone cannot distinguish "my peer died" from
// "the wire between us died": both look like heartbeat silence, and a
// standby that promotes on silence while the active still serves will
// double-allocate NAT state. The classic fix is a third party — a
// witness — that hands out a revocable, epoch-numbered lease:
//
//   * At most one holder at a time. A grant to a new client only
//     happens once the previous holder's lease has *expired* on the
//     witness's clock, and every holder change bumps the epoch.
//   * The holder must keep renewing. A holder that cannot reach the
//     witness watches its own lease expire and fences itself (stops
//     minting conntrack/NAT state) at or before the instant the
//     witness would consider the lease lapsed — simulated clocks are
//     synchronized, so local expiry is always <= witness expiry, and
//     the next grant's response arrives strictly later (>= rtt/2).
//     Hence: at most one unfenced active at any simulated time.
//   * Epochs are durable across witness crashes (the ledger is the
//     witness's "disk"); a crashed witness simply stops answering,
//     which fails *closed* — nobody can promote, current holder fences
//     at expiry.
//
// The witness is a FaultPoint like everything else, and each client
// talks to it over a WitnessLink — a private request/response line
// with its own rtt and up/down state, carried by a sim::MessageWire
// (sim/wire.hpp) like the control and replication channels — so the
// chaos suite can partition active-witness, standby-witness, or both,
// independently of the replication channel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "sim/event.hpp"
#include "sim/faults.hpp"
#include "sim/time.hpp"
#include "sim/wire.hpp"

namespace harmless::sim {

/// How often the lease holder renews.
constexpr SimNanos kLeaseRenewIntervalNs = 500'000;

/// Lease/arbitration tunables (EXPERIMENTS.md "Witness & fencing knobs").
struct WitnessSpec {
  SimNanos lease_validity_ns = 2'000'000;  // grant lifetime on both clocks
  SimNanos rtt_ns = 100'000;               // witness link round-trip
};

/// The arbiter: a single revocable lease with an epoch ledger.
class Witness : public FaultPoint {
 public:
  explicit Witness(const WitnessSpec& spec = {}) : spec_(spec) {}

  struct Decision {
    bool granted = false;
    std::uint64_t epoch = 0;       // current epoch (post-bump when granted)
    SimNanos expires_at = 0;       // absolute, on the shared sim clock
  };

  /// Grant or deny the lease to `client` (nonzero id, e.g. the
  /// datapath id) as of `now`. Same-holder calls renew (no epoch
  /// bump); a different client is denied until the current lease
  /// expires, then granted under a bumped epoch.
  Decision decide(std::uint64_t client, SimNanos now);

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t holder() const { return holder_; }
  [[nodiscard]] const WitnessSpec& spec() const { return spec_; }

  /// A crashed witness stops answering but keeps its ledger — epoch
  /// durability is what makes fencing safe across arbiter restarts.
  void fault_crash() override { crashed_ = true; ++stats_.crashes; }
  void fault_restart() override { crashed_ = false; }

  struct Stats {
    std::uint64_t grants = 0;      // holder-changing grants
    std::uint64_t renewals = 0;    // same-holder extensions
    std::uint64_t denials = 0;
    std::uint64_t epoch_bumps = 0;
    std::uint64_t crashes = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  WitnessSpec spec_;
  std::uint64_t holder_ = 0;  // 0 = unheld
  std::uint64_t epoch_ = 0;
  SimNanos expires_at_ = 0;
  bool crashed_ = false;
  Stats stats_;
};

/// One client's wire to the witness: request/response with rtt, failable
/// independently per client (partition just the active's view, or just
/// the standby's). Requests and responses in flight across a down
/// transition are lost, like every other channel here.
class WitnessLink : public FaultPoint {
 public:
  using GrantHandler = std::function<void(bool granted, std::uint64_t epoch,
                                          SimNanos expires_at)>;

  /// The response leg is never zero: a grant decided at t can only be
  /// *known* to the client strictly after t, which is what keeps an
  /// expiry-fence at t and a new grant learned after t from
  /// overlapping. No loss or jitter is ever set: the wire's seed is inert.
  WitnessLink(Engine& engine, Witness& witness, std::uint64_t client_id)
      : engine_(engine),
        witness_(witness),
        client_id_(client_id),
        wire_(engine, /*seed=*/0),
        request_lane_{std::max<SimNanos>(witness.spec().rtt_ns / 2, 1)},
        response_lane_{std::max<SimNanos>(witness.spec().rtt_ns - request_lane_.latency_ns, 1)} {}

  /// Fire a lease request; `handler` runs one rtt later with the
  /// witness's decision (or never, if either direction drops or the
  /// witness is down at arrival time).
  void request_lease(GrantHandler handler);

  void set_up(bool up) { wire_.set_up(up); }
  [[nodiscard]] bool is_up() const { return wire_.is_up(); }
  void fault_set_up(bool up) override { set_up(up); }

  struct Stats {
    std::uint64_t requests_sent = 0;
    std::uint64_t requests_dropped = 0;   // link down at send or arrival, or witness down
    std::uint64_t responses_sent = 0;     // requests the witness decided
    std::uint64_t responses_dropped = 0;  // link down on the way back
    std::uint64_t granted = 0;
    std::uint64_t denied = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Engine& engine_;
  Witness& witness_;
  std::uint64_t client_id_;
  MessageWire wire_;
  MessageWire::Lane request_lane_;
  MessageWire::Lane response_lane_;
  Stats stats_;
};

}  // namespace harmless::sim
