// ha_failover — the same conntrack tables, used by an HA pair.
//
// nat_conn_churn's gateway runs as a 2-core active/standby pair behind
// a bench-local mux switch (the bench_faults Table 10 pattern): a
// duplex ReplicationChannel (50 us), a Witness arbitrating promotion,
// 1 ms incremental checkpoints, and a controller that programs both
// boxes and reprograms a rebooted one. Connections arrive at a quarter
// of nat_conn_churn's rate, and 64 persistent connections probe state
// survival. A FaultPlan crashes the active a third into the 300 ms
// measured phase for 50 ms and partitions replication for 30 ms at two
// thirds: the standby applies deltas and takes over under a lease, the
// restarted ex-active is fenced, demotes and is warm-failback resynced
// from serialized snapshots, and the partition must not produce a
// second active.
#include <optional>

#include "connections.hpp"
#include "controller/apps/static_flows.hpp"
#include "gateway.hpp"
#include "sim/faults.hpp"
#include "sim/witness.hpp"
#include "util/strings.hpp"
#include "workload.hpp"

namespace harmless::suite {
namespace {

/// Fewer preloaded connections than nat_conn_churn: every 1 ms
/// checkpoint serializes each dirty shard in full.
constexpr std::size_t kPreload = 20'000;
constexpr std::uint32_t kMuxPorts = 3 * (gateway::kInside + 1);
constexpr std::uint32_t kToActive = gateway::kInside + 1;       // mux OF 10..18 <-> active OF 1..9
constexpr std::uint32_t kToStandby = 2 * (gateway::kInside + 1);  // mux OF 19..27 <-> standby OF 1..9

class HaFailover : public Workload {
 public:
  explicit HaFailover(const RepConfig& config) : Workload(config) {
    warmup_ns_ = 2 * kMs;
    measure_ns_ = std::max<sim::SimNanos>(scaled(300 * kMs), 120 * kMs);
    drain_cap_ns_ = 30 * kMs;
  }

 private:
  void build() override {
    sim::IngressSpec ingress;
    ingress.cores.cores = 2;
    ingress.cores.rss = sim::RssPolicy::kSymmetric;
    mux_ = &network_.add_node<softswitch::SoftSwitch>("mux", 0xE1, kMuxPorts, /*table_count=*/1);
    active_ = &network_.add_node<softswitch::SoftSwitch>("gw-a", 0xE2, gateway::kInside + 1, 2,
                                                         true, true, 32, ingress);
    standby_ = &network_.add_node<softswitch::SoftSwitch>("gw-b", 0xE3, gateway::kInside + 1, 2,
                                                          true, true, 32, ingress);
    for (softswitch::SoftSwitch* box : {active_, standby_}) box->enable_conntrack(gateway::ct_config());
    for (std::uint32_t p = 1; p <= gateway::kServerOfPort; ++p) {
      mux_->bind_patch(kToActive + p, *active_, p);
      mux_->bind_patch(kToStandby + p, *standby_, p);
      steer(p, kToActive + p, 10);
      steer(kToActive + p, p, 10);
      steer(kToStandby + p, p, 10);
    }

    std::vector<sim::Host*> clients;
    for (int i = 0; i < gateway::kInside; ++i) {
      sim::Host& host = network_.add_host(util::format("c%d", i + 1), gateway::inside_mac(i),
                                          gateway::inside_ip(i));
      network_.connect(host, 0, *mux_, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
      host.set_on_receive([this, i](const net::Packet& packet, const net::ParsedPacket& parsed) {
        ledger_.delivered(static_cast<std::size_t>(i), packet);
        conns_->client_receive(static_cast<std::size_t>(i), packet, parsed);
      });
      clients.push_back(&host);
    }
    sim::Host& server = network_.add_host("server", gateway::server_mac(), gateway::server_ip());
    network_.connect(server, 0, *mux_, gateway::kInside, sim::LinkSpec::gbps(10));
    server.set_on_receive([this](const net::Packet& packet, const net::ParsedPacket& parsed) {
      ledger_.delivered(gateway::kInside, packet);
      conns_->server_receive(packet, parsed);
    });

    // Control plane: one controller programs both boxes; echo liveness
    // lets a rebooted box reconnect and be reprogrammed.
    auto& program = controller_.add_app<controller::StaticFlowApp>();
    for (const openflow::FlowModMsg& mod : gateway::rules()) program.flow(mod);
    program_ = &program;
    softswitch::FailoverSpec failover;
    failover.echo_interval_ns = kMs;
    failover.checkpoint_interval_ns = kMs;
    failover.incremental_checkpoints = true;
    control_a_.emplace(network_.engine());
    control_b_.emplace(network_.engine());
    active_->attach_channel(*control_a_);
    standby_->attach_channel(*control_b_);
    active_->set_failover(failover);
    standby_->set_failover(failover);
    controller_.connect(*control_a_, "gw-a");
    controller_.connect(*control_b_, "gw-b");

    // Replication, then the preload (its commits stream to the standby
    // as deltas), then the witness (fail-closed until the first grant).
    forward_.emplace(network_.engine());
    reverse_.emplace(network_.engine());
    active_->enable_ha_active(*forward_, &*reverse_);
    standby_->enable_ha_standby(*forward_, &*reverse_);
    standby_->set_ha_takeover_handler([this] {
      for (std::uint32_t p = 1; p <= gateway::kServerOfPort; ++p) steer(p, kToStandby + p, 20);
      takeover_at_ = network_.now();
      conns_->mark_takeover(takeover_at_);
    });
    {
      ScopedSpan span("ct.preload");
      preload_failures_ = gateway::preload(*active_, kPreload, network_.now());
      span.set_count(kPreload);
    }
    witness_link_a_.emplace(network_.engine(), witness_, active_->datapath_id());
    witness_link_b_.emplace(network_.engine(), witness_, standby_->datapath_id());
    active_->set_ha_witness(*witness_link_a_);
    standby_->set_ha_witness(*witness_link_b_);

    ConnectionSpec spec;
    spec.clients = clients;
    spec.server = &server;
    spec.external_base = gateway::external_base();
    spec.gateway_mac = gateway::gateway_mac();
    spec.connections_per_s = 25'000;
    spec.persistent_per_client = 8;
    conns_.emplace(network_.engine(), sender_, spec, config_.seed);
    conns_->open_persistent(network_.now() + 500 * kUs);

    parts_.switches = {{"gw", active_}, {"gw", standby_}, {"mux", mux_}};
    parts_.control = {&*control_a_, &*control_b_};
    parts_.replication = {&*forward_, &*reverse_};
    parts_.controller = &controller_;
    if (config_.trace) capture_ingress("gw", *mux_, 32768);
  }

  void steer(std::uint32_t in_port, std::uint32_t out_port, std::uint16_t priority) {
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = priority;
    mod.match.in_port(in_port);
    mod.instructions = openflow::apply({openflow::output(out_port)});
    mux_->install(mod).check();
  }

  void start_traffic(sim::SimNanos start, sim::SimNanos stop) override {
    conns_->start(start, stop);
    const sim::SimNanos begin = ledger_.measure_begin();
    const sim::SimNanos length = stop - begin;
    crash_at_ = begin + length / 3;
    const sim::SimNanos crash_for = std::min<sim::SimNanos>(50 * kMs, length / 4);
    const sim::SimNanos partition_at = begin + 2 * length / 3;
    const sim::SimNanos partition_for = std::min<sim::SimNanos>(30 * kMs, length / 8);

    injector_.emplace(network_.engine());
    injector_->register_point("switch:gw-a", *active_);
    injector_->register_point("replication", *forward_);
    injector_->register_point("replication", *reverse_);
    sim::FaultPlan plan;
    plan.crash("switch:gw-a", crash_at_, crash_for);
    plan.down("replication", partition_at, partition_for);
    injector_->arm(plan);
    network_.engine().schedule_at(crash_at_, [this] { conns_->mark_crash(crash_at_); });
    probe_stop_ = stop + drain_cap_ns_;
    network_.engine().schedule_at(begin, [this] { probe(); });
  }

  /// The split-brain invariant, sampled every 100 us.
  void probe() {
    ++probes_;
    if (active_->ha_unfenced_active() && standby_->ha_unfenced_active()) ++double_active_;
    const sim::SimNanos next = network_.now() + 100 * kUs;
    if (next < probe_stop_) network_.engine().schedule_at(next, [this] { probe(); });
  }

  [[nodiscard]] bool operations_idle() const override { return conns_->idle(); }

  [[nodiscard]] std::uint64_t accounted_drops() const override {
    return switch_drops(parts_) + link_drops(network_);
  }

  void finish(RepResult& result, const Snapshot& before, const Snapshot& after) override {
    (void)before;
    (void)after;
    conns_->report(result);
    result.add("sim_recovery_ms", "ms", static_cast<double>(conns_->recovery_ns()) / 1e6);
    result.add("ct_survival_ratio", "ratio", conns_->survival_ratio());
    result.check(preload_failures_ == 0,
                 std::to_string(preload_failures_) + " preloaded connections found no SNAT port");
    result.check(conns_->stats().persistent_established ==
                     static_cast<std::uint64_t>(gateway::kInside) * 8,
                 "persistent connections were not all established in setup");
    result.check(takeover_at_ > crash_at_, "the standby never took over");
    result.check(conns_->recovery_ns() > 0, "no established connection delivered after takeover");
    result.check(double_active_ == 0, std::to_string(double_active_) + " of " +
                                          std::to_string(probes_) +
                                          " probes saw two unfenced actives");
    const std::uint64_t conflicts = gateway::nat_conflicts({active_, standby_});
    result.check(conflicts == 0, std::to_string(conflicts) + " NAT-port conflicts between the boxes");
    result.check(active_->failover_stats().ha_demotions >= 1 &&
                     active_->failover_stats().ha_failbacks >= 1,
                 "the restarted ex-active did not demote and fail back warm");
    controller_flows_ = program_->installed_count();
  }

  void replay_layers(std::vector<Metric>& layers) override {
    // The mux forwards host frames unchanged onto the same port numbers
    // of the gateway, so its ingress is the gateway's; replay it through
    // the box serving at the end of the run.
    const Capture* frames = capture("gw");
    if (frames == nullptr) return;
    softswitch::SoftSwitch& serving = *(standby_->ha_promoted() ? standby_ : active_);
    ScopedSpan span("replay.pipeline");
    const ReplayCost cost = replay_pipeline(serving.pipeline(), frames->ordered());
    span.set_count(cost.packets);
    layers.push_back({"openflow.pipeline.run_burst_ns_per_pkt.gw", "ns", cost.ns_per_packet()});
    replay_conntrack(*frames, serving, gateway::action_for, layers);
  }

  softswitch::SoftSwitch* mux_ = nullptr;
  softswitch::SoftSwitch* active_ = nullptr;
  softswitch::SoftSwitch* standby_ = nullptr;
  controller::Controller controller_{"ha-ctrl"};
  controller::StaticFlowApp* program_ = nullptr;
  std::optional<openflow::ControlChannel> control_a_;
  std::optional<openflow::ControlChannel> control_b_;
  std::optional<softswitch::ReplicationChannel> forward_;
  std::optional<softswitch::ReplicationChannel> reverse_;
  sim::Witness witness_;
  std::optional<sim::WitnessLink> witness_link_a_;
  std::optional<sim::WitnessLink> witness_link_b_;
  std::optional<sim::FaultInjector> injector_;
  std::optional<Connections> conns_;
  std::size_t preload_failures_ = 0;
  sim::SimNanos crash_at_ = -1;
  sim::SimNanos takeover_at_ = -1;
  sim::SimNanos probe_stop_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t double_active_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ha_failover(const RepConfig& config) {
  return std::make_unique<HaFailover>(config);
}

}  // namespace harmless::suite
