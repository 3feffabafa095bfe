#include <gtest/gtest.h>

#include "emu/emulator.h"
#include "modules/templates.h"
#include "util/strings.h"

namespace clickinc::emu {
namespace {

// Minimal IR program: drop packets whose hdr.value is odd.
std::shared_ptr<ir::IrProgram> dropOdd() {
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "drop_odd";
  prog->addField("hdr.value", 32);
  ir::Instruction bit(ir::Opcode::kAnd, ir::Operand::var("lsb", 1),
                      {ir::Operand::field("hdr.value", 32),
                       ir::Operand::constant(1, 32)});
  prog->instrs.push_back(bit);
  ir::Instruction drop(ir::Opcode::kDrop, ir::Operand::none(), {});
  drop.pred = ir::Operand::var("lsb", 1);
  prog->instrs.push_back(drop);
  return prog;
}

DeploymentEntry entryFor(const std::shared_ptr<ir::IrProgram>& prog,
                         int user, int step_from, int step_to,
                         std::vector<int> idxs = {}) {
  DeploymentEntry e;
  e.user_id = user;
  e.prog = prog;
  if (idxs.empty()) {
    for (std::size_t i = 0; i < prog->instrs.size(); ++i) {
      e.instr_idxs.push_back(static_cast<int>(i));
    }
  } else {
    e.instr_idxs = std::move(idxs);
  }
  e.step_from = step_from;
  e.step_to = step_to;
  return e;
}

class EmuFixture : public ::testing::Test {
 protected:
  EmuFixture()
      : topo_(topo::Topology::chain(
            {device::makeTofino(), device::makeTofino()})),
        emu_(&topo_, 11),
        client_(topo_.findNode("client")),
        server_(topo_.findNode("server")),
        d0_(topo_.findNode("d0")),
        d1_(topo_.findNode("d1")) {}

  PacketResult send(int user, std::uint64_t value, int bytes = 100) {
    ir::PacketView view;
    view.user_id = user;
    view.setField("hdr.value", value);
    return emu_.send(client_, server_, std::move(view), bytes, bytes);
  }

  topo::Topology topo_;
  Emulator emu_;
  int client_, server_, d0_, d1_;
};

TEST_F(EmuFixture, DeliversWithoutDeployments) {
  const auto r = send(-1, 2);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.final_node, server_);
  EXPECT_EQ(r.hops, 3);
  EXPECT_DOUBLE_EQ(r.inc_latency_ns, 0.0);
}

TEST_F(EmuFixture, DeployedProgramDropsMatchingTraffic) {
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  EXPECT_TRUE(send(1, 2).delivered);
  EXPECT_TRUE(send(1, 3).dropped);
  // Dropped at the first device, not the server.
  EXPECT_EQ(send(1, 5).final_node, d0_);
}

TEST_F(EmuFixture, UserFilterSkipsOtherTraffic) {
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  // User 2's odd packet passes: snippet gated on user id.
  EXPECT_TRUE(send(2, 3).delivered);
}

TEST_F(EmuFixture, StepGateRunsReplicaExactlyOnce) {
  // Same counter program replicated on both devices; the packet must be
  // counted once, by the first device.
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "ctr";
  ir::StateObject s;
  s.name = "ctr";
  s.kind = ir::StateKind::kRegister;
  s.depth = 4;
  const int sid = prog->addState(s);
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("n", 32),
      {ir::Operand::constant(0, 8), ir::Operand::constant(1, 32)}, sid));

  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  emu_.deploy(d1_, entryFor(prog, 1, 0, 1));
  send(1, 2);
  send(1, 4);
  EXPECT_EQ(emu_.storeOf(d0_).find("ctr")->regRead(0), 2u);
  EXPECT_EQ(emu_.storeOf(d1_).find("ctr"), nullptr);  // replica skipped
}

TEST_F(EmuFixture, FailedDeviceSkippedReplicaTakesOver) {
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  emu_.deploy(d1_, entryFor(prog, 1, 0, 1));
  emu_.setFailed(d0_, true);
  const auto r = send(1, 3);
  EXPECT_TRUE(r.dropped);
  EXPECT_EQ(r.final_node, d1_);  // the replica executed
  emu_.setFailed(d0_, false);
  EXPECT_EQ(send(1, 5).final_node, d0_);  // back to the primary
}

TEST_F(EmuFixture, ChainedSegmentsCarryParams) {
  // Segment 1 computes lsb on d0; segment 2 drops on d1 using the carried
  // temporary (the Param mechanism).
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1, {0}));
  emu_.deploy(d1_, entryFor(prog, 1, 1, 2, {1}));
  EXPECT_TRUE(send(1, 3).dropped);
  EXPECT_EQ(send(1, 3).final_node, d1_);
  EXPECT_TRUE(send(1, 2).delivered);
}

TEST_F(EmuFixture, LinkBusyAccountsBytes) {
  emu_.resetStats();
  send(-1, 2, /*bytes=*/1000);
  // 1000 bytes over a 100 Gbps link: 80 ns per hop.
  EXPECT_NEAR(emu_.linkBusyNs(client_, d0_), 80.0, 1e-9);
  EXPECT_NEAR(emu_.linkBusyNs(d0_, d1_), 80.0, 1e-9);
  EXPECT_NEAR(emu_.maxLinkBusyNs(), 80.0, 1e-9);
  send(-1, 2, 1000);
  EXPECT_NEAR(emu_.maxLinkBusyNs(), 160.0, 1e-9);
}

TEST_F(EmuFixture, BounceChargesReversePath) {
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "bounce";
  prog->instrs.push_back(
      ir::Instruction(ir::Opcode::kSendBack, ir::Operand::none(), {}));
  emu_.deploy(d1_, entryFor(prog, 1, 0, 1));
  emu_.resetStats();
  const auto r = send(1, 2, 1000);
  EXPECT_TRUE(r.bounced);
  EXPECT_EQ(r.final_node, client_);
  // Forward client->d0->d1 plus reverse d1->d0->client: 2x each link.
  EXPECT_NEAR(emu_.linkBusyNs(client_, d0_), 160.0, 1e-9);
  EXPECT_NEAR(emu_.linkBusyNs(d0_, d1_), 160.0, 1e-9);
  EXPECT_EQ(r.hops, 4);
}

TEST_F(EmuFixture, SparseDeleteShrinksWireBytesMidPath) {
  // A program that deletes a field and shrinks hdr._len on d0: the second
  // hop is charged at the reduced size.
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "shrink";
  prog->addField("hdr._len", 16);
  ir::Instruction dec(ir::Opcode::kSub, ir::Operand::field("hdr._len", 16),
                      {ir::Operand::field("hdr._len", 16),
                       ir::Operand::constant(500, 16)});
  prog->instrs.push_back(dec);
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  emu_.resetStats();
  const auto r = send(1, 2, 1000);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.wire_bytes_out, 500);
  EXPECT_NEAR(emu_.linkBusyNs(client_, d0_), 80.0, 1e-9);  // full size
  EXPECT_NEAR(emu_.linkBusyNs(d0_, d1_), 40.0, 1e-9);      // shrunk
}

TEST_F(EmuFixture, StatsAccumulateAndReset) {
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  send(1, 2);
  send(1, 3);
  const auto& st = emu_.stats();
  EXPECT_EQ(st.packets_sent, 2u);
  EXPECT_EQ(st.packets_delivered, 1u);
  EXPECT_EQ(st.packets_dropped, 1u);
  EXPECT_GT(st.avgIncLatencyNs(), 0.0);
  emu_.resetStats();
  EXPECT_EQ(emu_.stats().packets_sent, 0u);
  EXPECT_DOUBLE_EQ(emu_.maxLinkBusyNs(), 0.0);
}

TEST_F(EmuFixture, UndeployStopsProcessing) {
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  EXPECT_TRUE(send(1, 3).dropped);
  emu_.undeploy(d0_, 1);
  EXPECT_TRUE(send(1, 3).delivered);
}

// --- compiled-plan execution path (exec_plan fast path) ---

// Stateful aggregator: ctr[0] += hdr.value, then drop every 3rd packet.
std::shared_ptr<ir::IrProgram> aggAndDropThird() {
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "agg3";
  prog->addField("hdr.value", 32);
  ir::StateObject s;
  s.name = "acc";
  s.kind = ir::StateKind::kRegister;
  s.depth = 2;
  const int sid = prog->addState(s);
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("sum", 32),
      {ir::Operand::constant(0, 8), ir::Operand::field("hdr.value", 32)},
      sid));
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("n", 32),
      {ir::Operand::constant(1, 8), ir::Operand::constant(1, 32)}, sid));
  prog->instrs.push_back(
      ir::Instruction(ir::Opcode::kMod, ir::Operand::var("m", 32),
                      {ir::Operand::var("n", 32),
                       ir::Operand::constant(3, 32)}));
  prog->instrs.push_back(
      ir::Instruction(ir::Opcode::kCmpEq, ir::Operand::var("third", 1),
                      {ir::Operand::var("m", 32),
                       ir::Operand::constant(0, 32)}));
  ir::Instruction drop(ir::Opcode::kDrop, ir::Operand::none(), {});
  drop.pred = ir::Operand::var("third", 1);
  prog->instrs.push_back(drop);
  return prog;
}

TEST(EmuExecPlan, CompiledPathMatchesReferenceInterpreter) {
  auto run = [](bool reference) {
    topo::Topology topo = topo::Topology::chain(
        {device::makeTofino(), device::makeTofino()});
    Emulator emu(&topo, 11);
    emu.setReferenceInterpreter(reference);
    auto prog = aggAndDropThird();
    emu.deploy(topo.findNode("d0"), entryFor(prog, 1, 0, 1));
    const int client = topo.findNode("client");
    const int server = topo.findNode("server");

    std::vector<PacketResult> results;
    for (int i = 0; i < 20; ++i) {
      ir::PacketView view;
      view.user_id = 1;
      view.setField("hdr.value", static_cast<std::uint64_t>(i * 7 + 1));
      results.push_back(
          emu.send(client, server, std::move(view), 100, 100));
    }
    std::uint64_t sum = emu.storeOf(topo.findNode("d0"))
                            .find("acc")
                            ->regRead(0);
    return std::make_tuple(std::move(results), sum, emu.stats());
  };

  auto [ref_results, ref_sum, ref_stats] = run(true);
  auto [fast_results, fast_sum, fast_stats] = run(false);

  EXPECT_EQ(ref_sum, fast_sum);
  EXPECT_EQ(ref_stats.packets_dropped, fast_stats.packets_dropped);
  EXPECT_EQ(ref_stats.packets_delivered, fast_stats.packets_delivered);
  EXPECT_DOUBLE_EQ(ref_stats.total_latency_ns, fast_stats.total_latency_ns);
  ASSERT_EQ(ref_results.size(), fast_results.size());
  for (std::size_t i = 0; i < ref_results.size(); ++i) {
    EXPECT_EQ(ref_results[i].dropped, fast_results[i].dropped) << i;
    EXPECT_EQ(ref_results[i].final_node, fast_results[i].final_node) << i;
    EXPECT_EQ(ref_results[i].view.params, fast_results[i].view.params) << i;
    EXPECT_EQ(ref_results[i].view.fields, fast_results[i].view.fields) << i;
    EXPECT_DOUBLE_EQ(ref_results[i].latency_ns, fast_results[i].latency_ns)
        << i;
  }
}

TEST_F(EmuFixture, SendBurstMatchesSequentialSends) {
  auto prog = aggAndDropThird();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));

  // Sequential sends on this emulator...
  std::vector<PacketResult> seq;
  for (int i = 0; i < 15; ++i) {
    ir::PacketView view;
    view.user_id = 1;
    view.setField("hdr.value", static_cast<std::uint64_t>(i + 1));
    seq.push_back(emu_.send(client_, server_, std::move(view), 200, 200));
  }
  const auto seq_stats = emu_.stats();
  const double seq_busy = emu_.maxLinkBusyNs();
  const std::uint64_t seq_sum =
      emu_.storeOf(d0_).find("acc")->regRead(0);

  // ...must match one burst on a fresh emulator over the same topology.
  Emulator burst_emu(&topo_, 11);
  burst_emu.deploy(d0_, entryFor(prog, 1, 0, 1));
  std::vector<ir::PacketView> views;
  for (int i = 0; i < 15; ++i) {
    ir::PacketView view;
    view.user_id = 1;
    view.setField("hdr.value", static_cast<std::uint64_t>(i + 1));
    views.push_back(std::move(view));
  }
  const auto burst =
      burst_emu.sendBurst(client_, server_, std::move(views), 200, 200);

  ASSERT_EQ(burst.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].delivered, burst[i].delivered) << i;
    EXPECT_EQ(seq[i].dropped, burst[i].dropped) << i;
    EXPECT_EQ(seq[i].final_node, burst[i].final_node) << i;
    EXPECT_EQ(seq[i].hops, burst[i].hops) << i;
    EXPECT_DOUBLE_EQ(seq[i].latency_ns, burst[i].latency_ns) << i;
    EXPECT_EQ(seq[i].view.params, burst[i].view.params) << i;
    EXPECT_EQ(seq[i].view.fields, burst[i].view.fields) << i;
  }
  EXPECT_EQ(burst_emu.stats().packets_sent, seq_stats.packets_sent);
  EXPECT_EQ(burst_emu.stats().packets_dropped, seq_stats.packets_dropped);
  EXPECT_EQ(burst_emu.stats().packets_delivered,
            seq_stats.packets_delivered);
  EXPECT_DOUBLE_EQ(burst_emu.maxLinkBusyNs(), seq_busy);
  EXPECT_EQ(burst_emu.storeOf(d0_).find("acc")->regRead(0), seq_sum);
}

TEST_F(EmuFixture, SendBurstPacketMajorOnMultiEntryDevice) {
  // Two step-gated segments of one program on the SAME device sharing a
  // register: segment A accumulates acc += hdr.value, segment B reads acc
  // into a param. Hop-major bursts must still run each packet through
  // both segments before the next packet (packet-major per device), or
  // later packets' writes leak into earlier packets' reads.
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "accread";
  prog->addField("hdr.value", 32);
  ir::StateObject s;
  s.name = "acc";
  s.kind = ir::StateKind::kRegister;
  s.depth = 1;
  const int sid = prog->addState(s);
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("a", 32),
      {ir::Operand::constant(0, 8), ir::Operand::field("hdr.value", 32)},
      sid));
  prog->instrs.push_back(
      ir::Instruction(ir::Opcode::kRegRead, ir::Operand::var("out", 32),
                      {ir::Operand::constant(0, 8)}, sid));

  emu_.deploy(d0_, entryFor(prog, 1, 0, 1, {0}));
  emu_.deploy(d0_, entryFor(prog, 1, 1, 2, {1}));
  std::vector<PacketResult> seq;
  for (std::uint64_t v : {10ull, 5ull}) {
    ir::PacketView view;
    view.user_id = 1;
    view.setField("hdr.value", v);
    seq.push_back(emu_.send(client_, server_, std::move(view), 100, 100));
  }
  EXPECT_EQ(seq[0].view.params.at("out"), 10u);
  EXPECT_EQ(seq[1].view.params.at("out"), 15u);

  Emulator burst_emu(&topo_, 11);
  burst_emu.deploy(d0_, entryFor(prog, 1, 0, 1, {0}));
  burst_emu.deploy(d0_, entryFor(prog, 1, 1, 2, {1}));
  std::vector<ir::PacketView> views;
  for (std::uint64_t v : {10ull, 5ull}) {
    ir::PacketView view;
    view.user_id = 1;
    view.setField("hdr.value", v);
    views.push_back(std::move(view));
  }
  const auto burst =
      burst_emu.sendBurst(client_, server_, std::move(views), 100, 100);
  ASSERT_EQ(burst.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].view.params, burst[i].view.params) << i;
    EXPECT_DOUBLE_EQ(seq[i].latency_ns, burst[i].latency_ns) << i;
  }
}

TEST_F(EmuFixture, SendBurstBouncesAndDropsLikeSend) {
  // Bounce on d1, drop odd on d0: exercises mid-burst early exits.
  auto dropper = dropOdd();
  auto bounce = std::make_shared<ir::IrProgram>();
  bounce->name = "bounce";
  bounce->instrs.push_back(
      ir::Instruction(ir::Opcode::kSendBack, ir::Operand::none(), {}));
  emu_.deploy(d0_, entryFor(dropper, 1, 0, 1));
  emu_.deploy(d1_, entryFor(bounce, 1, 1, 2));

  std::vector<ir::PacketView> views;
  for (int i = 0; i < 6; ++i) {
    ir::PacketView view;
    view.user_id = 1;
    view.setField("hdr.value", static_cast<std::uint64_t>(i));
    views.push_back(std::move(view));
  }
  const auto r = emu_.sendBurst(client_, server_, std::move(views), 100, 100);
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_TRUE(r[i].dropped) << i;
      EXPECT_EQ(r[i].final_node, d0_) << i;
    } else {
      EXPECT_TRUE(r[i].bounced) << i;
      EXPECT_EQ(r[i].final_node, client_) << i;
      EXPECT_EQ(r[i].hops, 4) << i;
    }
  }
  EXPECT_EQ(emu_.stats().packets_dropped, 3u);
  EXPECT_EQ(emu_.stats().packets_bounced, 3u);
}

TEST_F(EmuFixture, PlanCacheSharedAcrossReplicaDeployments) {
  auto prog = dropOdd();
  emu_.deploy(d0_, entryFor(prog, 1, 0, 1));
  emu_.deploy(d1_, entryFor(prog, 1, 0, 1));  // replica: same segment
  const auto& stats = emu_.planCache().stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(emu_.planCache().size(), 1u);
}

// --- Param frames: per-tenant layouts over shared plans ---

// Two tenants deployed from one template as two distinct IrProgram
// objects, each split d0 | d1 with its own ParamLayout: the plan cache
// serves the second tenant the first one's plans, and the Params each
// packet carries from d0 to d1 match the reference interpreter.
TEST(EmuParamFrame, TenantsFromOneTemplateShareCachedPlans) {
  const auto tmpl = aggAndDropThird();
  const std::shared_ptr<const ir::IrProgram> progs[] = {
      std::make_shared<ir::IrProgram>(*tmpl),
      std::make_shared<ir::IrProgram>(*tmpl)};
  const std::shared_ptr<const ir::ParamLayout> layouts[] = {
      ir::ParamLayout::of(*progs[0]), ir::ParamLayout::of(*progs[1])};
  ASSERT_NE(layouts[0], layouts[1]);

  auto run = [&](bool reference) {
    topo::Topology topo = topo::Topology::chain(
        {device::makeTofino(), device::makeTofino()});
    Emulator emu(&topo, 11);
    emu.setReferenceInterpreter(reference);
    std::uint64_t hits_before_second = 0;
    for (int t = 0; t < 2; ++t) {
      if (t == 1) hits_before_second = emu.planCache().stats().hits;
      const int user = t + 1;
      DeploymentEntry a, b;
      a.user_id = b.user_id = user;
      a.prog = b.prog = progs[t];
      a.params.layout = b.params.layout = layouts[t];
      a.instr_idxs = {0, 1, 2};
      a.step_from = 0;
      a.step_to = 1;
      b.instr_idxs = {3, 4};
      b.step_from = 1;
      b.step_to = 2;
      emu.deploy(topo.findNode("d0"), a);
      emu.deploy(topo.findNode("d1"), b);
    }
    // The second tenant's two segments both hit the first one's plans.
    EXPECT_EQ(emu.planCache().stats().hits, hits_before_second + 2);
    EXPECT_EQ(emu.planCache().size(), 2u);

    std::vector<Burst> bursts;
    for (int t = 0; t < 2; ++t) {
      Burst b;
      b.src = topo.findNode("client");
      b.dst = topo.findNode("server");
      b.wire_bytes = b.useful_bytes = 100;
      for (int i = 0; i < 9; ++i) {
        ir::PacketView view;
        view.user_id = t + 1;
        view.setField("hdr.value", static_cast<std::uint64_t>(i * 3 + t));
        b.views.push_back(std::move(view));
      }
      bursts.push_back(std::move(b));
    }
    return emu.sendBursts(std::move(bursts));
  };

  const auto ref = run(true);
  const auto fast = run(false);
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t t = 0; t < ref.size(); ++t) {
    ASSERT_EQ(ref[t].size(), fast[t].size());
    for (std::size_t i = 0; i < ref[t].size(); ++i) {
      SCOPED_TRACE(cat("tenant ", t + 1, " packet ", i));
      const auto& r = ref[t][i];
      const auto& f = fast[t][i];
      EXPECT_EQ(r.view.params, f.view.params);
      EXPECT_EQ(r.view.fields, f.view.fields);
      EXPECT_EQ(r.view.verdict, f.view.verdict);
      EXPECT_EQ(r.dropped, f.dropped);
      EXPECT_EQ(r.final_node, f.final_node);
      EXPECT_DOUBLE_EQ(r.latency_ns, f.latency_ns);
      // Each packet carries its own tenant's layout, shared plan or not.
      EXPECT_EQ(f.view.params.layout(), layouts[t]);
      EXPECT_EQ(f.view.params.at("m"), (i + 1) % 3);
    }
  }
}

// A result's frame keeps its layout alive: Params still resolve by name
// after the tenant is undeployed, and the layout dies with the last
// entry and packet holding it.
TEST_F(EmuFixture, ResultParamsOutliveTheTenantsLayout) {
  auto prog = dropOdd();
  DeploymentEntry e = entryFor(prog, 1, 0, 1);
  auto layout = ir::ParamLayout::of(*prog);
  const std::weak_ptr<const ir::ParamLayout> weak = layout;
  e.params.layout = std::move(layout);
  emu_.deploy(d0_, std::move(e));

  PacketResult r = send(1, 4);
  ASSERT_TRUE(r.delivered);
  emu_.undeploy(d0_, 1);
  ASSERT_FALSE(weak.expired());
  EXPECT_EQ(r.view.params.layout(), weak.lock());
  EXPECT_EQ(r.view.params.at("lsb"), 0u);
  EXPECT_EQ(r.view.params.count("lsb"), 1u);
  r = PacketResult{};
  EXPECT_TRUE(weak.expired());
}

TEST(EmuBypass, AcceleratorProcessesAsPartOfSwitchHop) {
  // A switch with an attached accelerator: snippets on the accel run when
  // the packet traverses the switch.
  topo::Topology t;
  topo::Node h1;
  h1.name = "h1";
  h1.kind = topo::NodeKind::kHost;
  const int a = t.addNode(h1);
  topo::Node sw;
  sw.name = "sw";
  sw.kind = topo::NodeKind::kSwitch;
  sw.programmable = true;
  sw.model = device::makeTrident4();
  const int s = t.addNode(sw);
  topo::Node bf;
  bf.name = "bf";
  bf.kind = topo::NodeKind::kAccel;
  bf.programmable = true;
  bf.model = device::makeFpga();
  const int acc = t.addNode(bf);
  t.node(s).attached_accel = acc;
  t.addLink(s, acc);
  topo::Node h2;
  h2.name = "h2";
  h2.kind = topo::NodeKind::kHost;
  const int b = t.addNode(h2);
  t.addLink(a, s);
  t.addLink(s, b);

  Emulator emu(&t, 3);
  auto prog = dropOdd();
  emu.deploy(acc, entryFor(prog, 1, 0, 1));
  ir::PacketView view;
  view.user_id = 1;
  view.setField("hdr.value", 3);
  const auto r = emu.send(a, b, std::move(view), 64, 64);
  EXPECT_TRUE(r.dropped);  // the bypass card's snippet fired
}

}  // namespace
}  // namespace clickinc::emu
