// Failure-domain runtime: topology health + FailureEvent log, emulator
// fault gates and structured drop reasons, deterministic fault injection,
// the service failover pipeline (automatic re-placement, make-before-break
// swap, server-only degradation, rollback on deploy failure), retry with
// deterministic backoff, and the chaos suite proving bit-identical
// recovery across 1/2/8-thread pools.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/service.h"
#include "durable/journal.h"
#include "durable/serialize.h"
#include "emu/emulator.h"
#include "emu/fault.h"
#include "place/intradevice.h"
#include "topo/ec.h"
#include "topo/topology.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc {
namespace {

using core::ClickIncService;
using core::ErrorCode;
using core::RecoveryOutcome;
using core::Stage;
using core::SubmitRequest;

topo::TrafficSpec trafficFor(const topo::Topology& topo,
                             const std::vector<std::string>& srcs,
                             const std::string& dst) {
  topo::TrafficSpec spec;
  for (const auto& s : srcs) {
    spec.sources.push_back({topo.findNode(s), 10.0});
  }
  spec.dst_host = topo.findNode(dst);
  return spec;
}

SubmitRequest dqaccRequest(const topo::Topology& topo,
                           const std::string& src = "pod0a",
                           const std::string& dst = "pod2b") {
  return SubmitRequest::fromTemplate("DQAcc",
                                     {{"CacheDepth", 128}, {"CacheLen", 2}},
                                     trafficFor(topo, {src}, dst));
}

SubmitRequest mlaggRequest(const topo::Topology& topo, std::uint64_t aggs,
                           const std::string& src = "pod0a",
                           const std::string& dst = "pod2b") {
  return SubmitRequest::fromTemplate(
      "MLAgg",
      {{"NumAgg", aggs}, {"Dim", 16}, {"NumWorker", 2}, {"IsConvert", 0}},
      trafficFor(topo, {src}, dst));
}

// Per-device occupancy fingerprints over every programmable node — the
// byte-identity probe used by the rollback and leak assertions.
std::vector<std::uint64_t> allFingerprints(ClickIncService& svc) {
  std::vector<std::uint64_t> fps;
  for (const auto& n : svc.topology().nodes()) {
    if (n.programmable) {
      fps.push_back(place::occupancyFingerprint(svc.occupancy().of(n.id)));
    }
  }
  return fps;
}

std::uint64_t freshFingerprint(const topo::Node& n) {
  return place::occupancyFingerprint(place::DeviceOccupancy::fresh(n.model));
}

std::set<int> deployedUsers(const ClickIncService& svc) {
  std::set<int> users;
  for (const auto& [u, d] : svc.deployments()) {
    (void)d;
    users.insert(u);
  }
  return users;
}

std::set<int> planDeviceSet(const place::PlacementPlan& plan) {
  std::set<int> devs;
  for (const auto& a : plan.assignments) {
    for (const auto& [dev, p] : a.on_device) {
      if (!p.instr_idxs.empty()) devs.insert(dev);
    }
    for (const auto& [dev, p] : a.on_bypass) {
      if (!p.instr_idxs.empty()) devs.insert(dev);
    }
  }
  return devs;
}

// Probes mutate deployed state (DQAcc is a cache: a repeated key hits and
// bounces at the switch), so callers pick a distinct `base` per trace to
// keep every probe a fresh key.
std::string packetTrace(emu::Emulator& emu, int src, int dst, int user,
                        int count, std::uint64_t base = 1) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    ir::PacketView view;
    view.user_id = user;
    view.setField("hdr.value", base + static_cast<std::uint64_t>(i) * 7);
    const auto r = emu.send(src, dst, std::move(view), 100, 100);
    out += cat(r.delivered ? "D" : "d", r.dropped ? "X" : "-",
               static_cast<int>(r.drop_reason), "@", r.final_node, ":",
               r.hops, ";");
  }
  return out;
}

// --- topology health ----------------------------------------------------

TEST(TopoHealth, TransitionsAreVersionedAndLogged) {
  auto t = topo::Topology::chain({device::makeTofino(),
                                  device::makeTofino()});
  const int d0 = t.findNode("d0");
  EXPECT_EQ(t.nodeHealth(d0), topo::Health::kUp);
  EXPECT_EQ(t.healthVersion(), 0u);

  const auto ev = t.setNodeHealth(d0, topo::Health::kDown);
  EXPECT_EQ(ev.version, 1u);
  EXPECT_EQ(ev.from, topo::Health::kUp);
  EXPECT_EQ(ev.to, topo::Health::kDown);
  EXPECT_EQ(t.nodeHealth(d0), topo::Health::kDown);
  ASSERT_EQ(t.failureLog().size(), 1u);

  // No-op transition: version 0 event, not logged.
  const auto noop = t.setNodeHealth(d0, topo::Health::kDown);
  EXPECT_EQ(noop.version, 0u);
  EXPECT_EQ(t.failureLog().size(), 1u);
  EXPECT_EQ(t.healthVersion(), 1u);

  const auto heal = t.setNodeHealth(d0, topo::Health::kUp);
  EXPECT_EQ(heal.version, 2u);
  EXPECT_EQ(heal.from, topo::Health::kDown);
}

TEST(TopoHealth, ShortestPathUpAvoidsDeadElements) {
  // Diamond: client -> {a | b} -> server.
  topo::Topology t;
  topo::Node host;
  host.name = "client";
  host.kind = topo::NodeKind::kHost;
  const int client = t.addNode(host);
  topo::Node sw;
  sw.kind = topo::NodeKind::kSwitch;
  sw.programmable = true;
  sw.model = device::makeTofino();
  sw.name = "a";
  const int a = t.addNode(sw);
  sw.name = "b";
  const int b = t.addNode(sw);
  host.name = "server";
  const int server = t.addNode(host);
  t.addLink(client, a);
  t.addLink(a, server);
  t.addLink(client, b);
  t.addLink(b, server);

  // Healthy: identical to shortestPath (fast-path delegation).
  EXPECT_EQ(t.shortestPathUp(client, server), t.shortestPath(client, server));

  const auto via = t.shortestPath(client, server);
  ASSERT_EQ(via.size(), 3u);
  const int first = via[1];
  const int other = first == a ? b : a;
  t.setNodeHealth(first, topo::Health::kDown);
  const auto rerouted = t.shortestPathUp(client, server);
  ASSERT_EQ(rerouted.size(), 3u);
  EXPECT_EQ(rerouted[1], other);

  // Kill the surviving link too: no route at all.
  t.setLinkHealth(other, server, topo::Health::kDown);
  EXPECT_TRUE(t.shortestPathUp(client, server).empty());
  // The wired path still exists.
  EXPECT_FALSE(t.shortestPath(client, server).empty());

  t.setLinkHealth(other, server, topo::Health::kUp);
  t.setNodeHealth(first, topo::Health::kUp);
  EXPECT_EQ(t.shortestPathUp(client, server), via);
}

TEST(TopoHealth, HealthViewSnapshotIsStable) {
  auto t = topo::Topology::chain({device::makeTofino()});
  const auto view = t.healthView();
  const int d0 = t.findNode("d0");
  t.setNodeHealth(d0, topo::Health::kDown);
  // The snapshot still sees the old world; live queries see the new one.
  EXPECT_EQ(view.nodeAt(d0), topo::Health::kUp);
  EXPECT_EQ(t.nodeHealth(d0), topo::Health::kDown);
  const auto path =
      t.shortestPathUp(t.findNode("client"), t.findNode("server"), &view);
  EXPECT_FALSE(path.empty());
}

// --- EC trees on degraded topologies ------------------------------------

TEST(EcHealth, DeadDeviceLeavesTheTree) {
  auto t = topo::Topology::chain({device::makeTofino(),
                                  device::makeTofino()});
  const auto spec = trafficFor(t, {"client"}, "server");
  const auto full = topo::buildEcTree(t, spec);
  std::set<int> full_devices;
  for (const auto& n : full.nodes) {
    full_devices.insert(n.devices.begin(), n.devices.end());
  }
  const int d0 = t.findNode("d0");
  EXPECT_TRUE(full_devices.count(d0));

  t.setNodeHealth(d0, topo::Health::kDraining);
  const auto degraded = topo::buildEcTree(t, spec);
  std::set<int> degraded_devices;
  for (const auto& n : degraded.nodes) {
    degraded_devices.insert(n.devices.begin(), n.devices.end());
  }
  EXPECT_FALSE(degraded_devices.count(d0));
}

TEST(EcHealth, SeveredPathThrowsUnavailableNotPlacement) {
  auto t = topo::Topology::chain({device::makeTofino()});
  const auto spec = trafficFor(t, {"client"}, "server");
  t.setNodeHealth(t.findNode("d0"), topo::Health::kDown);
  EXPECT_THROW(topo::buildEcTree(t, spec), UnavailableError);
}

// --- emulator drop reasons ----------------------------------------------

class FaultEmuFixture : public ::testing::Test {
 protected:
  FaultEmuFixture()
      : topo_(topo::Topology::chain(
            {device::makeTofino(), device::makeTofino()})),
        emu_(&topo_, 11),
        client_(topo_.findNode("client")),
        server_(topo_.findNode("server")),
        d0_(topo_.findNode("d0")),
        d1_(topo_.findNode("d1")) {}

  emu::PacketResult send(int user = -1) {
    ir::PacketView view;
    view.user_id = user;
    view.setField("hdr.value", 4);
    return emu_.send(client_, server_, std::move(view), 100, 100);
  }

  topo::Topology topo_;
  emu::Emulator emu_;
  int client_, server_, d0_, d1_;
};

TEST_F(FaultEmuFixture, DeadNodeDropsAtNodePreConvergence) {
  emu::EmulatorOptions opts;
  opts.reroute_on_failure = false;  // pre-convergence window
  emu_.setOptions(opts);
  topo_.setNodeHealth(d1_, topo::Health::kDown);
  const auto r = send();
  EXPECT_FALSE(r.delivered);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(r.drop_reason, emu::DropReason::kNodeDown);
  EXPECT_EQ(r.final_node, d1_);
  EXPECT_EQ(emu_.stats().packets_dropped_fault, 1u);
}

TEST_F(FaultEmuFixture, DeadLinkDropsBeforeChargingIt) {
  emu::EmulatorOptions opts;
  opts.reroute_on_failure = false;
  emu_.setOptions(opts);
  topo_.setLinkHealth(d0_, d1_, topo::Health::kDown);
  const auto r = send();
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(r.drop_reason, emu::DropReason::kLinkDown);
  EXPECT_EQ(r.final_node, d0_);
  EXPECT_DOUBLE_EQ(emu_.linkBusyNs(d0_, d1_), 0.0);
}

TEST_F(FaultEmuFixture, ConvergedRoutingReportsNoRoute) {
  // Default options reroute around failures; a chain has no detour.
  topo_.setNodeHealth(d1_, topo::Health::kDown);
  const auto r = send();
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(r.drop_reason, emu::DropReason::kNoRoute);
  EXPECT_EQ(r.final_node, client_);
  EXPECT_EQ(r.hops, 0);
}

TEST_F(FaultEmuFixture, DeployOnDeadDeviceIsUnavailable) {
  topo_.setNodeHealth(d0_, topo::Health::kDown);
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "p";
  emu::DeploymentEntry e;
  e.user_id = 1;
  e.prog = prog;
  EXPECT_THROW(emu_.deploy(d0_, std::move(e)), UnavailableError);
}

TEST(FaultEmu, PathMissingUsersProgramDropsUndeployed) {
  // Diamond fabric: the user's snippet lives on branch b, but routing
  // prefers branch a — silently skipping the program would fake INC
  // results, so the packet reports a structured kUndeployed drop. After
  // a kills over, rerouting finds b and the packet is served again.
  topo::Topology t;
  topo::Node host;
  host.name = "client";
  host.kind = topo::NodeKind::kHost;
  const int client = t.addNode(host);
  topo::Node sw;
  sw.kind = topo::NodeKind::kSwitch;
  sw.programmable = true;
  sw.model = device::makeTofino();
  sw.name = "a";
  const int a = t.addNode(sw);
  sw.name = "b";
  const int b = t.addNode(sw);
  host.name = "server";
  const int server = t.addNode(host);
  t.addLink(client, a);
  t.addLink(a, server);
  t.addLink(client, b);
  t.addLink(b, server);

  emu::Emulator emu(&t, 7);
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "count";
  prog->addField("hdr.value", 32);
  ir::StateObject s;
  s.name = "ctr";
  s.kind = ir::StateKind::kRegister;
  s.depth = 4;
  const int sid = prog->addState(s);
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("n", 32),
      {ir::Operand::constant(0, 8), ir::Operand::constant(1, 32)}, sid));

  const auto preferred = t.shortestPath(client, server)[1];
  const int off_path = preferred == a ? b : a;
  emu::DeploymentEntry e;
  e.user_id = 1;
  e.prog = prog;
  e.instr_idxs = {0};
  emu.deploy(off_path, std::move(e));

  auto probe = [&] {
    ir::PacketView view;
    view.user_id = 1;
    view.setField("hdr.value", 3);
    return emu.send(client, server, std::move(view), 100, 100);
  };

  const auto miss = probe();
  EXPECT_TRUE(miss.dropped);
  EXPECT_EQ(miss.drop_reason, emu::DropReason::kUndeployed);
  EXPECT_EQ(emu.stats().packets_dropped_undeployed, 1u);

  // Plain traffic (no user) still passes.
  ir::PacketView plain;
  plain.user_id = -1;
  EXPECT_TRUE(emu.send(client, server, std::move(plain), 100, 100).delivered);

  // Failover of the preferred branch reroutes onto the serving branch.
  t.setNodeHealth(preferred, topo::Health::kDown);
  const auto served = probe();
  EXPECT_TRUE(served.delivered);
  EXPECT_GT(served.inc_latency_ns, 0.0);
}

// --- deterministic fault injection --------------------------------------

TEST(FaultInjector, SameSeedSameActionSequence) {
  auto t1 = topo::Topology::paperEmulation();
  auto t2 = topo::Topology::paperEmulation();
  emu::FaultInjector inj1(&t1, 99);
  emu::FaultInjector inj2(&t2, 99);
  for (int i = 0; i < 25; ++i) {
    const auto a1 = inj1.step();
    const auto a2 = inj2.step();
    EXPECT_EQ(a1.kind, a2.kind) << "step " << i;
    EXPECT_EQ(a1.node, a2.node) << "step " << i;
    EXPECT_EQ(a1.link_a, a2.link_a) << "step " << i;
    EXPECT_EQ(a1.link_b, a2.link_b) << "step " << i;
  }
  EXPECT_EQ(inj1.history().size(), 25u);
}

TEST(FaultInjector, RespectsCapAndSparesHosts) {
  auto t = topo::Topology::paperEmulation();
  emu::FaultInjector::Options opts;
  opts.max_down = 2;
  emu::FaultInjector inj(&t, 5, opts);
  for (int i = 0; i < 60; ++i) {
    const auto a = inj.step();
    if (a.kind == emu::FaultAction::Kind::kKillNode ||
        a.kind == emu::FaultAction::Kind::kDrainNode) {
      EXPECT_NE(t.node(a.node).kind, topo::NodeKind::kHost);
    }
    int non_up = 0;
    for (const auto& n : t.nodes()) {
      if (t.nodeHealth(n.id) != topo::Health::kUp) ++non_up;
    }
    for (const auto& l : t.links()) {
      if (t.linkHealth(l.a, l.b) == topo::Health::kDown) ++non_up;
    }
    EXPECT_LE(non_up, opts.max_down);
  }
}

// --- service failover ---------------------------------------------------

TEST(ServiceFailover, KillReplacesTenantOffTheDeadDevice) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto r = svc.submit(dqaccRequest(svc.topology()));
  ASSERT_TRUE(r.ok) << r.error.message();
  const auto devices = planDeviceSet(r.plan);
  ASSERT_FALSE(devices.empty());
  const int victim = *devices.begin();

  const auto report = svc.failNode(victim);
  ASSERT_EQ(report.tenants.size(), 1u);
  const auto& rec = report.tenants[0];
  EXPECT_EQ(rec.user_id, r.user_id);
  EXPECT_TRUE(rec.outcome == RecoveryOutcome::kReplaced ||
              rec.outcome == RecoveryOutcome::kServerOnly)
      << toString(rec.outcome);
  EXPECT_GE(report.blast_radius_devices, 1);

  // The dead device holds no claims (occupancy wiped to fresh).
  EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(victim)),
            freshFingerprint(svc.topology().node(victim)));
  // The replacement avoids it.
  const auto& dep = svc.deployments().at(r.user_id);
  EXPECT_EQ(planDeviceSet(dep.plan).count(victim), 0u);
}

TEST(ServiceFailover, RecoveryMatchesFreshPlacementOnDegradedTopology) {
  // Recovered state must be bit-identical to submitting the same tenant
  // against the already-degraded fabric: same plan devices, same
  // occupancy fingerprints, same packet results on the surviving paths.
  // Converging MLAgg traffic places at the (redundant) core layer, so a
  // plan device can die without severing the fabric.
  auto request = [](const topo::Topology& topo) {
    return SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 1024}, {"Dim", 16}, {"NumWorker", 2}, {"IsConvert", 0}},
        trafficFor(topo, {"pod0a", "pod1a"}, "pod2b"));
  };
  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto r = recovered.submit(request(recovered.topology()));
  ASSERT_TRUE(r.ok);
  // Pick a plan device whose death leaves an alternate healthy path —
  // severing the fabric entirely is the server-only test's territory.
  int victim = -1;
  for (int dev : planDeviceSet(r.plan)) {
    auto probe = recovered.topology();
    probe.setNodeHealth(dev, topo::Health::kDown);
    if (!probe.shortestPathUp(probe.findNode("pod0a"),
                              probe.findNode("pod2b")).empty()) {
      victim = dev;
      break;
    }
  }
  ASSERT_NE(victim, -1) << "plan has no device with a redundant path";
  const auto report = recovered.failNode(victim);
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].outcome, RecoveryOutcome::kReplaced);

  ClickIncService fresh(topo::Topology::paperEmulation());
  fresh.failNode(victim);
  const auto f = fresh.submit(request(fresh.topology()));
  ASSERT_TRUE(f.ok) << f.error.message();

  EXPECT_EQ(planDeviceSet(recovered.deployments().at(r.user_id).plan),
            planDeviceSet(fresh.deployments().at(f.user_id).plan));
  EXPECT_EQ(allFingerprints(recovered), allFingerprints(fresh));

  const int src = recovered.topology().findNode("pod0a");
  const int dst = recovered.topology().findNode("pod2b");
  EXPECT_EQ(packetTrace(recovered.emulator(), src, dst, r.user_id, 6, 500),
            packetTrace(fresh.emulator(), src, dst, f.user_id, 6, 500));
}

TEST(ServiceFailover, SeveredFabricDegradesToServerOnlyThenUpgrades) {
  ClickIncService svc(topo::Topology::chain({device::makeTofino()}));
  const auto& topo = svc.topology();
  const int d0 = topo.findNode("d0");
  const auto r = svc.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor(topo, {"client"}, "server")));
  ASSERT_TRUE(r.ok) << r.error.message();

  const auto down = svc.failNode(d0);
  ASSERT_EQ(down.tenants.size(), 1u);
  EXPECT_EQ(down.tenants[0].outcome, RecoveryOutcome::kServerOnly);
  // Program preserved; no switch claims anywhere.
  EXPECT_EQ(deployedUsers(svc), std::set<int>{r.user_id});
  EXPECT_TRUE(planDeviceSet(svc.deployments().at(r.user_id).plan).empty());
  EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(d0)),
            freshFingerprint(topo.node(d0)));

  // Heal: the device reboots empty and the tenant wins its switch back.
  const auto up = svc.healNode(d0);
  ASSERT_EQ(up.tenants.size(), 1u);
  EXPECT_EQ(up.tenants[0].outcome, RecoveryOutcome::kReplaced);
  EXPECT_FALSE(planDeviceSet(svc.deployments().at(r.user_id).plan).empty());

  ir::PacketView view;
  view.user_id = r.user_id;
  view.setField("hdr.value", 9);
  const auto probe = svc.emulator().send(topo.findNode("client"),
                                         topo.findNode("server"),
                                         std::move(view), 100, 100);
  EXPECT_TRUE(probe.delivered);
}

TEST(ServiceFailover, DrainMigratesWithoutBreakingTraffic) {
  ClickIncService svc(topo::Topology::chain(
      {device::makeTofino(), device::makeTofino()}));
  const auto& topo = svc.topology();
  const int d0 = topo.findNode("d0");
  const int d1 = topo.findNode("d1");
  const auto r = svc.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor(topo, {"client"}, "server")));
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(planDeviceSet(r.plan).count(d0) ||
              planDeviceSet(r.plan).count(d1));

  const auto report = svc.drainNode(d0);
  // Draining still forwards packets; placements must leave the device.
  for (const auto& [u, dep] : svc.deployments()) {
    (void)u;
    EXPECT_EQ(planDeviceSet(dep.plan).count(d0), 0u);
  }
  EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(d0)),
            freshFingerprint(topo.node(d0)));
  if (!report.tenants.empty()) {
    EXPECT_NE(report.tenants[0].outcome, RecoveryOutcome::kInfeasible);
  }
  ir::PacketView view;
  view.user_id = -1;
  const auto probe = svc.emulator().send(topo.findNode("client"),
                                         topo.findNode("server"),
                                         std::move(view), 100, 100);
  EXPECT_TRUE(probe.delivered);  // drained device forwards plain traffic
}

TEST(ServiceFailover, SubmitOnSeveredFabricIsRetryableUnavailable) {
  ClickIncService svc(topo::Topology::chain(
      {device::makeTofino(), device::makeTofino()}));
  const auto& topo = svc.topology();
  svc.failLink(topo.findNode("d0"), topo.findNode("d1"));
  const auto r = svc.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor(topo, {"client"}, "server")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kUnavailable);
  EXPECT_TRUE(r.error.retryable);

  svc.healLink(topo.findNode("d0"), topo.findNode("d1"));
  const auto retry = svc.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor(topo, {"client"}, "server")));
  EXPECT_TRUE(retry.ok) << retry.error.message();
}

// --- rollback on deploy failure (injected) ------------------------------

TEST(ServiceFailover, DeployFailureRollsBackByteIdentical) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto a = svc.submit(dqaccRequest(svc.topology()));
  ASSERT_TRUE(a.ok);

  // Per device: its active users and merged executable size.
  using ProgramView = std::pair<std::vector<int>, std::size_t>;
  const auto programOf = [&](int dev) {
    const auto& program = svc.deviceProgram(dev);
    return ProgramView{program.activeUsers(),
                       program.executable().instrs.size()};
  };
  std::map<int, ProgramView> programs_before;
  for (const auto& n : svc.topology().nodes()) {
    if (n.programmable) programs_before[n.id] = programOf(n.id);
  }
  const auto fps_before = allFingerprints(svc);
  const auto users_before = deployedUsers(svc);
  const auto digest_before = svc.emulator().deploymentDigest();
  const int src = svc.topology().findNode("pod0a");
  const int dst = svc.topology().findNode("pod2b");
  const auto probe_before =
      packetTrace(svc.emulator(), src, dst, a.user_id, 4, 1000);

  // Occupancy, tenant set, every plan device's program, the emulator's
  // deployments and packet behavior byte-identical to the pre-submit
  // snapshot. Fresh keys (`probe_base`) miss the cache exactly like the
  // pre-snapshot probes did, so identical behavior means identical
  // deployed programs.
  const auto expectRolledBack = [&](const core::SubmitResult& r,
                                    std::uint64_t probe_base) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrorCode::kDeployFailed);
    EXPECT_EQ(r.error.stage, Stage::kDeploy);
    EXPECT_EQ(allFingerprints(svc), fps_before);
    EXPECT_EQ(deployedUsers(svc), users_before);
    const auto devices = planDeviceSet(r.plan);
    EXPECT_FALSE(devices.empty());
    for (int dev : devices) {
      EXPECT_EQ(programOf(dev), programs_before.at(dev)) << "device " << dev;
    }
    EXPECT_EQ(svc.emulator().deploymentDigest(), digest_before);
    EXPECT_EQ(packetTrace(svc.emulator(), src, dst, a.user_id, 4, probe_base),
              probe_before);
  };

  // Two sources: the plan deploys more than one segment.
  const auto wide = [&] {
    return SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 1024}, {"Dim", 16}, {"NumWorker", 2}, {"IsConvert", 0}},
        trafficFor(svc.topology(), {"pod0a", "pod1a"}, "pod2b"));
  };

  // Fire at the first emulator deploy...
  svc.injectDeployFailureAfter(0);
  const auto b = svc.submit(wide());
  expectRolledBack(b, 2000);

  // ...and at the last: by then every snippet of the plan is merged into
  // its device program and all but one segment run in the emulator.
  int segments = 0;
  for (const auto& asg : b.plan.assignments) {
    if (asg.to_block <= asg.from_block) continue;
    for (const auto* side : {&asg.on_device, &asg.on_bypass}) {
      for (const auto& [dev, p] : *side) {
        (void)dev;
        if (!p.instr_idxs.empty()) ++segments;
      }
    }
  }
  ASSERT_GT(segments, 1);
  svc.injectDeployFailureAfter(segments - 1);
  const auto last = svc.submit(wide());
  EXPECT_EQ(durable::planFingerprint(last.plan),
            durable::planFingerprint(b.plan));
  expectRolledBack(last, 3000);

  // The hook is single-shot: the same submission now succeeds.
  const auto c = svc.submit(wide());
  EXPECT_TRUE(c.ok) << c.error.message();
}

// --- retry / backoff ----------------------------------------------------

TEST(Retry, DelayScheduleIsPureAndBounded) {
  core::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_ms = 2.0;
  policy.multiplier = 2.0;
  policy.max_ms = 5.0;
  EXPECT_DOUBLE_EQ(policy.delayMs(1), 0.0);
  EXPECT_DOUBLE_EQ(policy.delayMs(2), 2.0);
  EXPECT_DOUBLE_EQ(policy.delayMs(3), 4.0);
  EXPECT_DOUBLE_EQ(policy.delayMs(4), 5.0);  // capped
  EXPECT_DOUBLE_EQ(policy.delayMs(5), 5.0);

  policy.jitter_seed = 9;
  const double j = policy.delayMs(3);
  EXPECT_GE(j, 4.0 * 0.75);
  EXPECT_LE(j, 4.0 * 1.25);
  EXPECT_DOUBLE_EQ(policy.delayMs(3), j);  // pure: same inputs, same delay
}

TEST(Retry, RetryableFailureConsumesTheAttemptBudget) {
  ClickIncService svc(topo::Topology::paperEmulation());
  // Fill the fabric until MLAgg no longer fits.
  core::SubmitResult last;
  for (int i = 0; i < 64; ++i) {
    last = svc.submit(mlaggRequest(svc.topology(), 100000));
    if (!last.ok) break;
  }
  ASSERT_FALSE(last.ok);
  ASSERT_EQ(last.error.code, ErrorCode::kResourceExhausted);
  EXPECT_TRUE(last.error.retryable);
  EXPECT_EQ(last.attempts, 1);  // no policy installed yet

  core::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_ms = 1.0;
  policy.multiplier = 2.0;
  policy.max_ms = 64.0;
  svc.setRetryPolicy(policy);
  const auto r = svc.submit(mlaggRequest(svc.topology(), 100000));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_DOUBLE_EQ(r.backoff_ms, policy.delayMs(2) + policy.delayMs(3));

  // Per-request override beats the service default.
  auto req = mlaggRequest(svc.topology(), 100000);
  req.retry.max_attempts = 2;
  const auto r2 = svc.submit(std::move(req));
  EXPECT_EQ(r2.attempts, 2);

  // Non-retryable failures never retry.
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const auto parse = svc.submit(SubmitRequest::fromSource(
      "if hdr.value @@ 3:\n    fwd()\n", hdr, {},
      trafficFor(svc.topology(), {"pod0a"}, "pod2b")));
  EXPECT_EQ(parse.error.code, ErrorCode::kParseError);
  EXPECT_EQ(parse.attempts, 1);
}

// --- remove() vs in-flight submitAsync ----------------------------------

TEST(ServiceFailover, RemoveRacesInFlightSubmitCleanly) {
  for (int iter = 0; iter < 6; ++iter) {
    ClickIncService svc(topo::Topology::paperEmulation());
    svc.setConcurrency(4);
    const auto a = svc.submit(dqaccRequest(svc.topology()));
    ASSERT_TRUE(a.ok);
    auto ticket = svc.submitAsync(mlaggRequest(svc.topology(), 512));
    const auto rr = svc.remove(a.user_id);  // races the in-flight commit
    ticket.wait();
    EXPECT_TRUE(rr.ok);
    ASSERT_TRUE(ticket.get().ok) << ticket.get().error.message();
    EXPECT_EQ(deployedUsers(svc), std::set<int>{ticket.get().user_id});

    // Whatever the interleaving, removing the survivor returns every
    // claim: all occupancy byte-identical to fresh.
    ASSERT_TRUE(svc.remove(ticket.get().user_id).ok);
    for (const auto& n : svc.topology().nodes()) {
      if (n.programmable) {
        EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(n.id)),
                  freshFingerprint(n));
      }
    }
  }
}

// --- EC partition cache -------------------------------------------------

// The tree a build yields, or the kind of error it throws.
struct TreeOutcome {
  std::optional<topo::EcTree> tree;
  std::string error;
};

template <typename Build>
TreeOutcome outcomeOf(Build&& build) {
  try {
    return {build(), ""};
  } catch (const UnavailableError&) {
    return {std::nullopt, "unavailable"};
  } catch (const PlacementError&) {
    return {std::nullopt, "placement"};
  }
}

void expectSameTree(const topo::EcTree& a, const topo::EcTree& b,
                    const std::string& where) {
  EXPECT_EQ(a.root, b.root) << where;
  EXPECT_EQ(a.server_chain, b.server_chain) << where;
  EXPECT_EQ(a.total_traffic, b.total_traffic) << where;
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << where;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const auto& x = a.nodes[i];
    const auto& y = b.nodes[i];
    EXPECT_EQ(x.ec_id, y.ec_id) << where << " node " << i;
    EXPECT_EQ(x.devices, y.devices) << where << " node " << i;
    EXPECT_EQ(x.model, y.model) << where << " node " << i;
    EXPECT_EQ(x.bypass, y.bypass) << where << " node " << i;
    EXPECT_EQ(x.parent, y.parent) << where << " node " << i;
    EXPECT_EQ(x.children, y.children) << where << " node " << i;
    EXPECT_EQ(x.leaf_traffic, y.leaf_traffic) << where << " node " << i;
    EXPECT_EQ(x.server_side, y.server_side) << where << " node " << i;
  }
}

// The service's partition for `view` must be built for exactly that view
// and walk to the same trees as a fresh uncached build.
void expectCachedMatchesFresh(ClickIncService& svc,
                              const topo::HealthView& view,
                              const std::vector<topo::TrafficSpec>& specs,
                              const std::string& where) {
  const auto& topo = svc.topology();
  const auto part = svc.ecPartition(view);
  ASSERT_TRUE(part->builtFor(view)) << where;
  const auto fresh = topo::EcPartition::build(topo, &view);
  EXPECT_EQ(part->ec_of, fresh.ec_of) << where;
  EXPECT_EQ(part->devices_of_ec, fresh.devices_of_ec) << where;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string at = cat(where, " spec ", i);
    const auto cached =
        outcomeOf([&] { return topo::buildEcTree(topo, specs[i], *part); });
    const auto uncached =
        outcomeOf([&] { return topo::buildEcTree(topo, specs[i], &view); });
    EXPECT_EQ(cached.error, uncached.error) << at;
    if (cached.tree && uncached.tree) {
      expectSameTree(*cached.tree, *uncached.tree, at);
    }
  }
}

topo::Topology k8FatTree() {
  return topo::Topology::fatTree(8, 2, device::makeTofino(),
                                 device::makeTrident4(),
                                 device::makeTofino2());
}

// Host `i` of `pod`, in node-id order.
int hostOf(const topo::Topology& topo, int pod, int i) {
  for (const auto& n : topo.nodes()) {
    if (n.kind == topo::NodeKind::kHost && n.pod == pod && i-- == 0) {
      return n.id;
    }
  }
  return -1;
}

// Programmable device `i` of `pod` on `layer` (1 = ToR, 2 = Agg).
int deviceOf(const topo::Topology& topo, int pod, int layer, int i) {
  for (const auto& n : topo.nodes()) {
    if (n.kind != topo::NodeKind::kHost && n.pod == pod &&
        n.layer == layer && i-- == 0) {
      return n.id;
    }
  }
  return -1;
}

SubmitRequest dqaccBetween(int src, int dst) {
  topo::TrafficSpec t;
  t.sources.push_back({src, 10.0});
  t.dst_host = dst;
  return SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 128}, {"CacheLen", 2}}, t);
}

// The partition cache is keyed on health contents. Along a seeded
// kill/drain/heal walk with flap damping on, failover caches partitions of
// the effective view, which masks deferred heals under the live version,
// and submits cache partitions of live health. Every lookup must still
// return a partition built for exactly the requested view.
TEST(EcPartitionCache, CachedTreesMatchFreshAlongAFaultWalk) {
  ClickIncService svc(k8FatTree());
  const auto& topo = svc.topology();
  core::FailoverPolicy pol;
  pol.flap_window = 4;
  svc.setFailoverPolicy(pol);

  std::vector<topo::TrafficSpec> specs;
  {
    topo::TrafficSpec intra;  // one pod, two racks
    intra.sources.push_back({hostOf(topo, 0, 0), 10.0});
    intra.dst_host = hostOf(topo, 0, 3);
    specs.push_back(intra);
    topo::TrafficSpec cross;  // one source across the core
    cross.sources.push_back({hostOf(topo, 1, 0), 10.0});
    cross.dst_host = hostOf(topo, 5, 1);
    specs.push_back(cross);
    topo::TrafficSpec fan_in;  // three pods into one host
    for (int pod : {2, 3, 6}) {
      fan_in.sources.push_back({hostOf(topo, pod, 2), 5.0 + pod});
    }
    fan_in.dst_host = hostOf(topo, 7, 0);
    specs.push_back(fan_in);
  }
  for (int pod = 0; pod < 8; pod += 2) {
    ASSERT_TRUE(svc.submit(dqaccBetween(hostOf(topo, pod, 0),
                                        hostOf(topo, pod + 1, 1)))
                    .ok);
  }

  emu::FaultOptions opts;
  opts.max_down = 4;
  opts.heal_bias = 0.5;
  svc.armFaultInjector(/*seed=*/11, opts);
  int deferred_steps = 0;
  auto check = [&](const std::string& where) {
    const auto live = topo.healthView();
    const auto eff = svc.effectiveHealth();
    if (eff.node != live.node || eff.link != live.link) ++deferred_steps;
    // Live first: after a failover batch the cache holds the effective
    // view's partition under the live version.
    expectCachedMatchesFresh(svc, live, specs, where + " live");
    expectCachedMatchesFresh(svc, eff, specs, where + " effective");
  };
  for (int step = 0; step < 40; ++step) {
    svc.stepFault();
    if (step % 3 == 0) {
      // A submit caches live health's partition between failovers.
      svc.submit(dqaccBetween(hostOf(topo, step % 8, 1),
                              hostOf(topo, (step + 3) % 8, 0)));
    }
    check(cat("step ", step));
  }

  // A deterministic flap: the heal lands inside the window and is
  // deferred, so the effective view keeps the Agg down under the live
  // version that says it is up.
  svc.processFailures();
  const int agg = deviceOf(topo, 4, 2, 0);
  if (topo.nodeHealth(agg) != topo::Health::kUp) svc.healNode(agg);
  svc.failNode(agg);
  const auto up = svc.healNode(agg);
  EXPECT_EQ(up.damped_events, 1);
  check("flap");
  EXPECT_GT(deferred_steps, 0);
}

// recover() reuses health versions: replaying another service's journal
// lands on a version this service's cache already holds, with different
// contents. Partitions, trees and plans must follow the contents.
TEST(EcPartitionCache, RecoverWithReusedVersionsRebuildsThePartition) {
  ClickIncService a(k8FatTree());
  ClickIncService b(k8FatTree());
  const auto& topo = a.topology();
  durable::MemJournalSink ja;
  durable::MemJournalSink jb;
  a.attachJournal(&ja);
  b.attachJournal(&jb);
  // Two Aggs of the source pod: each service loses a different one.
  const int x = deviceOf(topo, 0, 2, 0);
  const int y = deviceOf(topo, 0, 2, 1);
  a.failNode(x);
  b.failNode(y);
  const auto before = a.ecPartition(topo.healthView());
  ASSERT_EQ(before->health.version, b.topology().healthVersion());

  durable::MemJournalSink copy;
  copy.setBytes(jb.readAll());
  ASSERT_TRUE(a.recover(&copy).ok);
  const auto live = topo.healthView();
  EXPECT_EQ(live.version, before->health.version);
  EXPECT_NE(live.node, before->health.node);

  std::vector<topo::TrafficSpec> specs(1);
  specs[0].sources.push_back({hostOf(topo, 0, 0), 10.0});
  specs[0].dst_host = hostOf(topo, 3, 0);
  expectCachedMatchesFresh(a, live, specs, "recovered");

  // Both services now hold the same state, so the same request places
  // the same plan.
  const auto ra = a.submit(dqaccBetween(hostOf(topo, 0, 0),
                                        hostOf(topo, 3, 0)));
  const auto rb = b.submit(dqaccBetween(hostOf(topo, 0, 0),
                                        hostOf(topo, 3, 0)));
  ASSERT_TRUE(ra.ok) << ra.error.message();
  ASSERT_TRUE(rb.ok) << rb.error.message();
  EXPECT_EQ(durable::planFingerprint(ra.plan),
            durable::planFingerprint(rb.plan));
}

// --- chaos suite --------------------------------------------------------

// Scripted kill/heal churn interleaved with batched tenant churn. The
// whole trace — recovery outcomes, occupancy fingerprints, tenant sets,
// packet results — must be bit-identical across 1/2/8-thread pools, and
// no step may leak claims onto a dead device.
std::string chaosTrace(int threads) {
  ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(threads);
  svc.armFaultInjector(/*seed=*/7);

  std::string trace;
  std::set<int> live;
  const auto& topo = svc.topology();

  auto note_batch = [&](const std::vector<core::SubmitResult>& results) {
    for (const auto& r : results) {
      trace += cat("s", r.user_id, r.ok ? "+" : "-",
                   toString(r.error.code), ";");
      if (r.ok) live.insert(r.user_id);
    }
  };
  auto note_report = [&](const core::FailoverReport& rep) {
    trace += cat("F", rep.health_version, "b", rep.blast_radius_devices, "[");
    for (const auto& t : rep.tenants) {
      trace += cat(t.user_id, ":", toString(t.outcome), "p",
                   t.segments_pinned, "r", t.segments_replaced, ",");
      if (t.outcome == RecoveryOutcome::kInfeasible) live.erase(t.user_id);
    }
    trace += "];";
    // Invariant: dead devices hold zero claims.
    for (const auto& n : topo.nodes()) {
      if (n.programmable &&
          topo.nodeHealth(n.id) == topo::Health::kDown) {
        EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(n.id)),
                  freshFingerprint(n))
            << "claims leaked on dead device " << n.name;
      }
    }
    // Invariant: no tenant silently lost.
    EXPECT_EQ(deployedUsers(svc), live);
  };

  for (int round = 0; round < 6; ++round) {
    std::vector<SubmitRequest> batch;
    batch.push_back(dqaccRequest(topo, "pod0a", "pod2b"));
    batch.push_back(mlaggRequest(topo, 256 + round * 64, "pod1a", "pod2a"));
    if (round % 2 == 0) {
      batch.push_back(dqaccRequest(topo, "pod1b", "pod0b"));
    }
    note_batch(svc.submitAll(std::move(batch)));

    note_report(svc.stepFault());
    if (round % 2 == 1) note_report(svc.stepFault());

    // Occasionally retire the oldest tenant (claims must come back).
    if (round % 3 == 2 && !live.empty()) {
      const int victim = *live.begin();
      trace += cat("x", victim, svc.remove(victim).ok ? "+" : "-", ";");
      live.erase(victim);
    }
  }

  // Close the loop: fingerprints + surviving-path packet results.
  for (std::uint64_t fp : allFingerprints(svc)) trace += cat(fp, ",");
  const int src = topo.findNode("pod0a");
  const int dst = topo.findNode("pod2b");
  for (int user : live) {
    trace += packetTrace(svc.emulator(), src, dst, user, 3);
  }

  // Teardown: removing every tenant leaves all surviving devices clean.
  for (int user : live) EXPECT_TRUE(svc.remove(user).ok);
  for (const auto& n : topo.nodes()) {
    if (n.programmable) {
      EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(n.id)),
                freshFingerprint(n))
          << "claims leaked on " << n.name;
    }
  }
  return trace;
}

TEST(Chaos, RecoveryIsBitIdenticalAcrossThreadPools) {
  const std::string seq = chaosTrace(1);
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(chaosTrace(2), seq);
  EXPECT_EQ(chaosTrace(8), seq);
}

// Unscripted stress: async churn racing applyFault() on another thread.
// Nondeterministic interleaving — asserts invariants only, and gives TSan
// real concurrency between the failover path and staged submissions.
TEST(Chaos, AsyncChurnSurvivesConcurrentFaults) {
  ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(4);
  emu::FaultInjector::Options opts;
  opts.max_down = 2;
  auto shadow = topo::Topology::paperEmulation();  // proposal source only
  emu::FaultInjector planner(&shadow, 13, opts);
  // Pre-draw a deterministic action script (the *application* below still
  // interleaves nondeterministically with the async submissions).
  std::vector<emu::FaultAction> script;
  for (int i = 0; i < 10; ++i) script.push_back(planner.step());

  std::vector<core::SubmissionTicket> tickets;
  std::size_t next_action = 0;
  for (int round = 0; round < 10; ++round) {
    tickets.push_back(svc.submitAsync(dqaccRequest(svc.topology())));
    tickets.push_back(
        svc.submitAsync(mlaggRequest(svc.topology(), 128 + round * 32)));
    svc.applyFault(script[next_action++]);
  }
  svc.waitForAsync();
  svc.processFailures();

  // Every ticket resolved with a structured outcome.
  std::set<int> ok_users;
  for (auto& t : tickets) {
    ASSERT_TRUE(t.done());
    const auto& r = t.get();
    if (r.ok) ok_users.insert(r.user_id);
    else EXPECT_NE(r.error.code, ErrorCode::kOk);
  }
  // Tenants present are exactly the committed-and-not-lost ones; every
  // deployment's devices are healthy or draining, never dead.
  for (const auto& [user, dep] : svc.deployments()) {
    EXPECT_TRUE(ok_users.count(user));
    for (int dev : planDeviceSet(dep.plan)) {
      EXPECT_NE(svc.topology().nodeHealth(dev), topo::Health::kDown);
    }
  }
  // Dead devices hold zero claims.
  for (const auto& n : svc.topology().nodes()) {
    if (n.programmable &&
        svc.topology().nodeHealth(n.id) == topo::Health::kDown) {
      EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(n.id)),
                freshFingerprint(n));
    }
  }
  // Full teardown leaves every surviving device clean.
  const auto users = deployedUsers(svc);
  for (int user : users) EXPECT_TRUE(svc.remove(user).ok);
  for (const auto& n : svc.topology().nodes()) {
    if (n.programmable &&
        svc.topology().nodeHealth(n.id) != topo::Health::kDown) {
      EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(n.id)),
                freshFingerprint(n));
    }
  }
}

}  // namespace
}  // namespace clickinc
