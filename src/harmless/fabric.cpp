#include "harmless/fabric.hpp"

namespace harmless::core {

Fabric Fabric::build(sim::Network& network, legacy::LegacySwitch& device, const PortMap& map,
                     const FabricSpec& spec) {
  Fabric fabric(map, make_translator_rules(map));
  // Pre-size the calendar queue for the in-flight frames and timers of
  // a typical fabric before traffic starts.
  network.engine().reserve(4096);

  // SS_1: trunk leg (OF 1) + one patch leg per mapping.
  softswitch::SwitchSpec ss1_spec = spec.sw;
  ss1_spec.tables = 1;
  ss1_spec.failover = {};
  fabric.ss1_ = &network.add_node<softswitch::SoftSwitch>(
      "SS_1", spec.ss1_datapath_id, fabric.map_.ss1_port_count(), ss1_spec);
  // SS_2: one OF port per managed access port.
  fabric.ss2_ = &network.add_node<softswitch::SoftSwitch>("SS_2", spec.ss2_datapath_id,
                                                          fabric.map_.size(), spec.sw);

  // Trunk cables: one per bonded leg, legacy trunk port i <-> SS_1 OF
  // port (1+i).
  for (std::size_t leg = 0; leg < fabric.map_.trunk_count(); ++leg) {
    const std::size_t channels_before = network.channels().size();
    network.connect(device,
                    static_cast<std::size_t>(fabric.map_.trunk_ports()[leg] - 1), *fabric.ss1_,
                    fabric.map_.ss1_trunk_port(static_cast<int>(leg)) - 1, spec.trunk_link);
    fabric.trunk_channels_.push_back(network.channels()[channels_before].get());
    fabric.trunk_channels_.push_back(network.channels()[channels_before + 1].get());
  }

  // Patch pairs: SS_1 port (T+k) <-> SS_2 port k.
  for (const MappedPort& mapped : fabric.map_.ports())
    fabric.ss1_->bind_patch(fabric.map_.ss1_patch_port(mapped.ss2_port), *fabric.ss2_,
                            mapped.ss2_port);

  // The Manager owns SS_1: translator rules go in directly.
  for (const openflow::FlowModMsg& mod : fabric.rules_.flow_mods)
    fabric.ss1_->install(mod).check();

  // SS_2's controller channel (connected to a Controller by the caller
  // or the Manager).
  fabric.channel_ =
      std::make_unique<openflow::ControlChannel>(network.engine(), spec.control_latency);
  fabric.channel_->set_min_gap(spec.control_min_gap);
  fabric.ss2_->attach_channel(*fabric.channel_);
  return fabric;
}

void Fabric::register_faults(sim::FaultInjector& injector) {
  // Derived names — every component self-registers, so plans scale to
  // any fabric shape without new hard-coding here.
  if (ss1_ != nullptr) injector.register_point("switch:SS_1", *ss1_);
  if (ss2_ != nullptr) injector.register_point("switch:SS_2", *ss2_);
  if (channel_) injector.register_point("control:SS_2", *channel_);
  // Per-leg trunk targets: trunk_channels_ holds both directions of
  // each bonded leg, in leg order.
  for (std::size_t i = 0; i < trunk_channels_.size(); ++i)
    injector.register_point("trunk:leg" + std::to_string(i / 2), *trunk_channels_[i]);
}

void Fabric::register_faults(sim::FaultInjector& injector, sim::Network& network) {
  register_faults(injector);
  for (const auto& channel : network.channels())
    injector.register_point("link:" + channel->label(), *channel);
}

void Fabric::set_trunk_up(bool up) {
  trunk_up_ = up;
  for (sim::Channel* channel : trunk_channels_) channel->set_up(up);
  // SS_1 sees its trunk legs change state; harmless for data (the
  // channels already drop) but keeps the OF port model truthful.
  if (ss1_ != nullptr)
    for (std::size_t leg = 0; leg < map_.trunk_count(); ++leg)
      ss1_->set_port_state(map_.ss1_trunk_port(static_cast<int>(leg)), up);
}

}  // namespace harmless::core
