#include "sim/witness.hpp"

#include <utility>

namespace harmless::sim {

Witness::Decision Witness::decide(std::uint64_t client, SimNanos now) {
  // Another holder with an unexpired lease: deny. The denial carries
  // the current epoch so a fenced ex-active can learn how far the
  // world moved on.
  if (holder_ != 0 && holder_ != client && expires_at_ > now) {
    ++stats_.denials;
    return Decision{false, epoch_, expires_at_};
  }
  if (holder_ != client) {
    // Holder change (first grant, or takeover after expiry): bump the
    // epoch so every delta stamped under the old lease is refusable.
    ++epoch_;
    ++stats_.epoch_bumps;
    holder_ = client;
    ++stats_.grants;
  } else {
    ++stats_.renewals;
  }
  expires_at_ = now + spec_.lease_validity_ns;
  return Decision{true, epoch_, expires_at_};
}

void WitnessLink::request_lease(GrantHandler handler) {
  wire_.send(request_lane_,
             {stats_.requests_sent, stats_.requests_dropped, stats_.requests_dropped},
             [this, handler = std::move(handler)]() mutable {
               if (witness_.crashed()) {
                 ++stats_.requests_dropped;
                 return;
               }
               const Witness::Decision decision = witness_.decide(client_id_, engine_.now());
               wire_.send(response_lane_,
                          {stats_.responses_sent, stats_.responses_dropped,
                           stats_.responses_dropped},
                          [this, handler = std::move(handler), decision] {
                            if (decision.granted)
                              ++stats_.granted;
                            else
                              ++stats_.denied;
                            handler(decision.granted, decision.epoch, decision.expires_at);
                          });
             });
}

}  // namespace harmless::sim
