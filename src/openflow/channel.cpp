#include "openflow/channel.hpp"

namespace harmless::openflow {

void ControlChannel::send(Direction& direction, Message&& message) {
  DirectionStats& stats = direction.stats;
  wire_.send(direction.lane, {stats.sent, stats.dropped_down, stats.dropped_loss},
             [&direction, message = std::move(message)]() mutable {
               if (!direction.handler) {
                 ++direction.stats.dropped_no_handler;  // receiver crashed / not attached
                 return;
               }
               ++direction.stats.delivered;
               direction.handler(std::move(message));
             });
}

}  // namespace harmless::openflow
