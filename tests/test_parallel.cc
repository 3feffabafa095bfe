// Seeded determinism suites for the worker-pool fast paths: parallel
// placement plans and parallel emulator bursts must be bit-identical to
// their sequential references across 1/2/8-thread pools. CI additionally
// runs this binary under ThreadSanitizer (CLICKINC_TSAN) to prove the
// parallel schedules are race-free, not just deterministic-by-luck.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/service.h"
#include "emu/emulator.h"
#include "modules/templates.h"
#include "place/blockdag.h"
#include "place/treedp.h"
#include "topo/ec.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace clickinc {
namespace {

// --- placement: parallel plans == sequential plans, bit for bit ---

void expectPlacementsEqual(const place::IntraPlacement& a,
                           const place::IntraPlacement& b,
                           const std::string& where) {
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.instr_idxs, b.instr_idxs) << where;
  EXPECT_EQ(a.stage_of, b.stage_of) << where;
  EXPECT_EQ(a.stages_used, b.stages_used) << where;
}

// Exact (==, not near) comparison: the parallel path must produce the
// very same doubles, or it is not the same computation. `compare_steps`
// is off for the pipelined-submission suites: arena/memo warmth differs
// between the speculative and sequential paths (memoized placements
// report zero search steps), which changes step counters but never plan
// content.
void expectPlansIdentical(const place::PlacementPlan& par,
                          const place::PlacementPlan& seq,
                          bool compare_steps = true) {
  ASSERT_EQ(par.feasible, seq.feasible) << par.failure << seq.failure;
  EXPECT_EQ(par.gain, seq.gain);
  EXPECT_EQ(par.ht, seq.ht);
  EXPECT_EQ(par.hr, seq.hr);
  EXPECT_EQ(par.hp, seq.hp);
  if (compare_steps) EXPECT_EQ(par.steps, seq.steps);
  if (!par.feasible) return;
  ASSERT_EQ(par.assignments.size(), seq.assignments.size());
  for (std::size_t k = 0; k < par.assignments.size(); ++k) {
    const auto& pa = par.assignments[k];
    const auto& sa = seq.assignments[k];
    const std::string where = cat("assignment #", k);
    EXPECT_EQ(pa.tree_node, sa.tree_node) << where;
    EXPECT_EQ(pa.from_block, sa.from_block) << where;
    EXPECT_EQ(pa.to_block, sa.to_block) << where;
    EXPECT_EQ(pa.bypass_from, sa.bypass_from) << where;
    ASSERT_EQ(pa.on_device.size(), sa.on_device.size()) << where;
    for (const auto& [dev, sp] : sa.on_device) {
      auto it = pa.on_device.find(dev);
      ASSERT_NE(it, pa.on_device.end()) << where << " device " << dev;
      expectPlacementsEqual(it->second, sp, cat(where, " device ", dev));
    }
    ASSERT_EQ(pa.on_bypass.size(), sa.on_bypass.size()) << where;
    for (const auto& [dev, sp] : sa.on_bypass) {
      auto it = pa.on_bypass.find(dev);
      ASSERT_NE(it, pa.on_bypass.end()) << where << " bypass " << dev;
      expectPlacementsEqual(it->second, sp, cat(where, " bypass ", dev));
    }
  }
}

// Search counters must match too (threads_used / parallel_tasks describe
// the execution mode and are expected to differ).
void expectSearchStatsIdentical(const place::PlacementStats& par,
                                const place::PlacementStats& seq) {
  EXPECT_EQ(par.intra_calls, seq.intra_calls);
  EXPECT_EQ(par.intra_memo_hits, seq.intra_memo_hits);
  EXPECT_EQ(par.early_breaks, seq.early_breaks);
}

class ParallelPlacement : public ::testing::Test {
 protected:
  static std::vector<ir::IrProgram> programs() {
    modules::ModuleLibrary lib;
    std::vector<ir::IrProgram> progs;
    progs.push_back(lib.compileTemplate(
        "MLAgg", "agg",
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}}));
    progs.push_back(lib.compileTemplate(
        "KVS", "kvs", {{"CacheSize", 100000}, {"ValDim", 4}, {"TH", 64}}));
    return progs;
  }

  static topo::TrafficSpec specFor(const topo::Topology& topo,
                                   const std::vector<std::string>& srcs,
                                   const std::string& dst) {
    topo::TrafficSpec spec;
    for (const auto& s : srcs) spec.sources.push_back({topo.findNode(s), 10.0});
    spec.dst_host = topo.findNode(dst);
    return spec;
  }

  static void checkThreadCounts(const topo::Topology& topo,
                                const topo::TrafficSpec& spec) {
    for (const auto& prog : programs()) {
      SCOPED_TRACE(prog.name);
      const auto dag = place::BlockDag::build(prog);
      const auto tree = topo::buildEcTree(topo, spec);
      place::OccupancyMap occ(&topo);
      place::PlacementOptions seq_opts;  // fast, no pool
      const auto seq = place::placeProgram(dag, tree, topo, occ, seq_opts);
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(cat(threads, " threads"));
        util::ThreadPool pool(threads);
        place::PlacementOptions par_opts;
        par_opts.pool = &pool;
        const auto par = place::placeProgram(dag, tree, topo, occ, par_opts);
        expectPlansIdentical(par, seq);
        expectSearchStatsIdentical(par.stats, seq.stats);
        EXPECT_EQ(par.stats.threads_used, threads);
        if (threads > 1 && seq.feasible) {
          EXPECT_GT(par.stats.parallel_tasks, 0);
        }
      }
    }
  }
};

TEST_F(ParallelPlacement, PaperEmulationTopologyBitIdentical) {
  const auto topo = topo::Topology::paperEmulation();
  checkThreadCounts(topo, specFor(topo, {"pod0a", "pod1a"}, "pod2b"));
  checkThreadCounts(topo, specFor(topo, {"pod0a", "pod0b", "pod1b"}, "pod2a"));
}

TEST_F(ParallelPlacement, TofinoChainBitIdentical) {
  const std::vector<device::DeviceModel> chain(8, device::makeTofino());
  const auto topo = topo::Topology::chain(chain);
  checkThreadCounts(topo, specFor(topo, {"client"}, "server"));
}

TEST_F(ParallelPlacement, SharedArenaCommitsStayIdentical) {
  // The multi-program regime: one arena shared across trials while
  // commits change device occupancies. The parallel path must track the
  // sequential one trial by trial.
  const auto topo = topo::Topology::paperEmulation();
  const auto spec = specFor(topo, {"pod0a", "pod1a"}, "pod2b");
  const auto tree = topo::buildEcTree(topo, spec);
  util::ThreadPool pool(8);
  place::OccupancyMap occ_par(&topo);
  place::OccupancyMap occ_seq(&topo);
  place::PlacementArena arena_par;
  place::PlacementArena arena_seq;
  modules::ModuleLibrary lib;
  for (int k = 0; k < 3; ++k) {
    SCOPED_TRACE(cat("trial ", k));
    const auto prog = lib.compileTemplate(
        "MLAgg", cat("agg", k),
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}});
    const auto dag = place::BlockDag::build(prog);
    place::PlacementOptions par_opts;
    par_opts.pool = &pool;
    place::PlacementOptions seq_opts;
    const auto par =
        place::placeProgram(dag, tree, topo, occ_par, par_opts, &arena_par);
    const auto seq =
        place::placeProgram(dag, tree, topo, occ_seq, seq_opts, &arena_seq);
    expectPlansIdentical(par, seq);
    expectSearchStatsIdentical(par.stats, seq.stats);
    if (!seq.feasible) break;
    place::commitPlan(par, prog, occ_par);
    place::commitPlan(seq, prog, occ_seq);
  }
  EXPECT_EQ(arena_par.memo().hits(), arena_seq.memo().hits());
  EXPECT_EQ(arena_par.memo().misses(), arena_seq.memo().misses());
}

// --- the intra-placement memo's claim/publish protocol ---

place::IntraMemo::Handle placementWithStages(int stages) {
  place::IntraPlacement p;
  p.feasible = true;
  p.stages_used = stages;
  p.stage_of = {0, stages - 1};
  return std::make_shared<const place::IntraPlacement>(std::move(p));
}

TEST(IntraMemo, OneLeaderPerKeyAndFollowersShareItsHandle) {
  place::IntraMemo memo;
  const place::MemoKey key{0x1234, 0x5678};
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> ready{0};
  std::vector<place::IntraMemo::Handle> got(kThreads);
  place::IntraMemo::Handle published;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      place::IntraMemo::Handle h;
      const auto claim = memo.claim(key, &h);
      if (!claim.leader) {
        got[static_cast<std::size_t>(t)] = std::move(h);
        return;
      }
      ++leaders;
      EXPECT_EQ(h, nullptr);
      // Let the other claimants queue up behind the in-flight slot.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      published = placementWithStages(3);
      got[static_cast<std::size_t>(t)] = published;
      memo.publish(claim, published);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(leaders.load(), 1);
  ASSERT_NE(published, nullptr);
  for (const auto& h : got) EXPECT_EQ(h.get(), published.get());
  EXPECT_EQ(memo.misses(), 1);
  EXPECT_EQ(memo.hits(), kThreads - 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(IntraMemo, WaiterReleadsAfterLeaderError) {
  place::IntraMemo memo;
  const place::MemoKey key{7, 9};
  place::IntraMemo::Handle h;
  const auto first = memo.claim(key, &h);
  ASSERT_TRUE(first.leader);
  // The second claimant either blocks on the in-flight slot or arrives
  // after the error; both ways it must take over the leadership.
  place::IntraMemo::Handle waiter_got;
  bool waiter_led = false;
  place::IntraMemo::Handle republished = placementWithStages(2);
  std::thread waiter([&] {
    const auto claim = memo.claim(key, &waiter_got);
    waiter_led = claim.leader;
    if (claim.leader) memo.publish(claim, republished);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  memo.publishError(first);
  waiter.join();
  EXPECT_TRUE(waiter_led);
  EXPECT_EQ(waiter_got, nullptr);
  // The re-led result is what later claimants share.
  place::IntraMemo::Handle later;
  EXPECT_FALSE(memo.claim(key, &later).leader);
  EXPECT_EQ(later.get(), republished.get());
  EXPECT_EQ(memo.misses(), 2);
  EXPECT_EQ(memo.hits(), 1);
}

TEST(IntraMemo, HandleOutlivesClear) {
  place::IntraMemo memo;
  const place::MemoKey key{11, 13};
  place::IntraMemo::Handle h;
  const auto lead = memo.claim(key, &h);
  ASSERT_TRUE(lead.leader);
  memo.publish(lead, placementWithStages(5));
  place::IntraMemo::Handle kept;
  ASSERT_FALSE(memo.claim(key, &kept).leader);
  ASSERT_NE(kept, nullptr);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.hits(), 0);
  // Ownership is shared: the entry's placement lives on in the handle.
  EXPECT_TRUE(kept->feasible);
  EXPECT_EQ(kept->stages_used, 5);
  EXPECT_EQ(kept->stage_of, (std::vector<int>{0, 4}));
  // The cleared key is computed afresh.
  place::IntraMemo::Handle again;
  const auto relead = memo.claim(key, &again);
  EXPECT_TRUE(relead.leader);
  memo.publishError(relead);
}

// --- service: the concurrency knob must not change any submission ---

TEST(ParallelService, ConcurrencySettingsProduceIdenticalDeployments) {
  auto submitAll = [](core::ClickIncService& svc) {
    std::vector<core::SubmitResult> out;
    auto traffic = [&](const std::vector<const char*>& srcs,
                       const char* dst) {
      topo::TrafficSpec spec;
      for (const char* s : srcs) {
        spec.sources.push_back({svc.topology().findNode(s), 10.0});
      }
      spec.dst_host = svc.topology().findNode(dst);
      return spec;
    };
    out.push_back(svc.submit(core::SubmitRequest::fromTemplate(
        "MLAgg", {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}},
        traffic({"pod0a", "pod1a"}, "pod2b"))));
    out.push_back(svc.submit(core::SubmitRequest::fromTemplate(
        "KVS", {{"CacheSize", 1024}, {"ValDim", 4}, {"TH", 32}},
        traffic({"pod0b", "pod1b"}, "pod2a"))));
    out.push_back(svc.submit(core::SubmitRequest::fromTemplate(
        "DQAcc", {{"CacheDepth", 1024}, {"CacheLen", 4}},
        traffic({"pod1a"}, "pod2b"))));
    return out;
  };

  core::ClickIncService seq(topo::Topology::paperEmulation());
  ASSERT_EQ(seq.concurrency(), 1);
  const auto seq_results = submitAll(seq);

  for (int threads : {2, 8}) {
    SCOPED_TRACE(cat(threads, " threads"));
    core::ClickIncService par(topo::Topology::paperEmulation());
    par.setConcurrency(threads);
    EXPECT_EQ(par.concurrency(), threads);
    const auto par_results = submitAll(par);
    ASSERT_EQ(par_results.size(), seq_results.size());
    for (std::size_t k = 0; k < seq_results.size(); ++k) {
      SCOPED_TRACE(cat("submission ", k));
      EXPECT_EQ(par_results[k].ok, seq_results[k].ok);
      expectPlansIdentical(par_results[k].plan, seq_results[k].plan);
      expectSearchStatsIdentical(par_results[k].plan.stats,
                                 seq_results[k].plan.stats);
      EXPECT_EQ(par_results[k].impact.affected_devices,
                seq_results[k].impact.affected_devices);
    }
    expectSearchStatsIdentical(par.placementStats(), seq.placementStats());
  }
}

// --- service: pipelined submitAll == sequential submits, bit for bit ---

// Defined in the emulation section below.
void expectResultsIdentical(const std::vector<emu::PacketResult>& a,
                            const std::vector<emu::PacketResult>& b);
void expectEmuStateIdentical(emu::Emulator& a, emu::Emulator& b,
                             const topo::Topology& topo,
                             const ir::IrProgram& prog);

// Five tenants: three distinct templates, one duplicate template on
// different traffic, and one failing request in the middle — the failure
// does not consume an id, so the tenants after it commit under ids one
// below their batch position and must be named after those ids.
std::vector<core::SubmitRequest> tenantBatch(
    const core::ClickIncService& svc) {
  auto traffic = [&](const std::vector<const char*>& srcs, const char* dst) {
    topo::TrafficSpec spec;
    for (const char* s : srcs) {
      spec.sources.push_back({svc.topology().findNode(s), 10.0});
    }
    spec.dst_host = svc.topology().findNode(dst);
    return spec;
  };
  std::vector<core::SubmitRequest> reqs;
  reqs.push_back(core::SubmitRequest::fromTemplate(
      "MLAgg", {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}},
      traffic({"pod0a", "pod1a"}, "pod2b")));
  reqs.push_back(core::SubmitRequest::fromTemplate(
      "KVS", {{"CacheSize", 1024}, {"ValDim", 4}, {"TH", 32}},
      traffic({"pod0b", "pod1b"}, "pod2a")));
  reqs.push_back(core::SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, traffic({"pod0a"}, "pod2b")));
  reqs.push_back(core::SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 1024}, {"CacheLen", 4}},
      traffic({"pod1a"}, "pod2b")));
  reqs.push_back(core::SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 512}, {"CacheLen", 2}},
      traffic({"pod0a"}, "pod2b")));
  return reqs;
}

// Duplicate-value stream through one deployed DQAcc tenant; the exact
// delivered/dropped/latency sequence is part of the bit-identity claim.
std::vector<emu::PacketResult> probeDqacc(core::ClickIncService& svc,
                                          int user, int src, int dst) {
  std::vector<emu::PacketResult> out;
  for (int i = 0; i < 48; ++i) {
    ir::PacketView view;
    view.user_id = user;
    view.setField("hdr._uid", static_cast<std::uint64_t>(user));
    view.setField("hdr.value", static_cast<std::uint64_t>(1 + (i * 7) % 19));
    out.push_back(svc.emulator().send(src, dst, std::move(view), 64, 4));
  }
  return out;
}

TEST(ParallelService, SubmitAllBitIdenticalToSequentialSubmits) {
  // Sequential reference: the same five requests, one submit() at a time.
  core::ClickIncService seq(topo::Topology::paperEmulation());
  std::vector<core::SubmitResult> seq_results;
  for (auto& req : tenantBatch(seq)) {
    seq_results.push_back(seq.submit(std::move(req)));
  }
  const int dq0_user = seq_results[3].user_id;
  const int dq1_user = seq_results[4].user_id;
  const int pod1a = seq.topology().findNode("pod1a");
  const int pod0a = seq.topology().findNode("pod0a");
  const int pod2b = seq.topology().findNode("pod2b");
  const auto seq_probe0 = probeDqacc(seq, dq0_user, pod1a, pod2b);
  const auto seq_probe1 = probeDqacc(seq, dq1_user, pod0a, pod2b);

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(cat(threads, " threads"));
    core::ClickIncService par(topo::Topology::paperEmulation());
    par.setConcurrency(threads);
    const auto par_results = par.submitAll(tenantBatch(par));
    ASSERT_EQ(par_results.size(), seq_results.size());
    for (std::size_t k = 0; k < seq_results.size(); ++k) {
      SCOPED_TRACE(cat("request ", k));
      EXPECT_EQ(par_results[k].ok, seq_results[k].ok);
      EXPECT_EQ(par_results[k].user_id, seq_results[k].user_id);
      EXPECT_EQ(par_results[k].error.code, seq_results[k].error.code);
      expectPlansIdentical(par_results[k].plan, seq_results[k].plan,
                           /*compare_steps=*/false);
      EXPECT_EQ(par_results[k].impact.affected_devices,
                seq_results[k].impact.affected_devices);
      EXPECT_EQ(par_results[k].impact.affected_users,
                seq_results[k].impact.affected_users);
      EXPECT_EQ(par_results[k].impact.affected_pods,
                seq_results[k].impact.affected_pods);
    }

    // Occupancy: every programmable device ends bit-identical.
    for (const auto& node : seq.topology().nodes()) {
      if (!node.programmable) continue;
      EXPECT_EQ(place::occupancyFingerprint(par.occupancy().of(node.id)),
                place::occupancyFingerprint(seq.occupancy().of(node.id)))
          << "device " << node.name;
    }

    // Deployments: same users carrying byte-identical programs (names,
    // state prefixes, instructions), each named after the id it
    // committed under.
    ASSERT_EQ(par.deployments().size(), seq.deployments().size());
    for (const auto& [user, dep] : seq.deployments()) {
      SCOPED_TRACE(cat("user ", user));
      ASSERT_EQ(par.deployments().count(user), 1u);
      const ir::IrProgram& got = *par.deployments().at(user).prog;
      EXPECT_EQ(got.toString(), dep.prog->toString());
      EXPECT_TRUE(got.name.ends_with(cat("_", user))) << got.name;
      for (const auto& st : got.states) {
        EXPECT_TRUE(st.name.starts_with(got.name + "_")) << st.name;
      }
    }

    // Emulator behavior: the deployed network processes identical
    // packet streams identically, and ends in the same state.
    const auto par_probe0 = probeDqacc(par, dq0_user, pod1a, pod2b);
    const auto par_probe1 = probeDqacc(par, dq1_user, pod0a, pod2b);
    expectResultsIdentical(par_probe0, seq_probe0);
    expectResultsIdentical(par_probe1, seq_probe1);
    expectEmuStateIdentical(par.emulator(), seq.emulator(), seq.topology(),
                            *seq.deployments().at(dq0_user).prog);
    expectEmuStateIdentical(par.emulator(), seq.emulator(), seq.topology(),
                            *seq.deployments().at(dq1_user).prog);
  }
}

// --- emulation: parallel sendBursts == sequential, bit for bit ---

// Stateful aggregator: acc[0] += hdr.value, drop every 3rd packet.
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

// k independent client_i - dev_i - server_i chains in one topology: the
// device-disjoint regime sendBursts parallelizes.
topo::Topology disjointChains(int k) {
  topo::Topology t;
  for (int i = 0; i < k; ++i) {
    topo::Node c;
    c.name = cat("client", i);
    c.kind = topo::NodeKind::kHost;
    const int cid = t.addNode(c);
    topo::Node d;
    d.name = cat("dev", i);
    d.kind = topo::NodeKind::kSwitch;
    d.programmable = true;
    d.model = device::makeTofino();
    const int did = t.addNode(d);
    topo::Node s;
    s.name = cat("server", i);
    s.kind = topo::NodeKind::kHost;
    const int sid = t.addNode(s);
    t.addLink(cid, did);
    t.addLink(did, sid);
  }
  return t;
}

std::vector<emu::Burst> makeBursts(const topo::Topology& topo, int flows,
                                   int packets, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<emu::Burst> bursts;
  for (int f = 0; f < flows; ++f) {
    emu::Burst b;
    b.src = topo.findNode(cat("client", f));
    b.dst = topo.findNode(cat("server", f));
    b.wire_bytes = 200;
    b.useful_bytes = 180;
    for (int p = 0; p < packets; ++p) {
      ir::PacketView view;
      view.user_id = 1;
      view.setField("hdr.value", rng.nextBelow(1u << 16));
      b.views.push_back(std::move(view));
    }
    bursts.push_back(std::move(b));
  }
  return bursts;
}

void expectResultsIdentical(const std::vector<emu::PacketResult>& a,
                            const std::vector<emu::PacketResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(cat("packet ", i));
    EXPECT_EQ(a[i].delivered, b[i].delivered);
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].bounced, b[i].bounced);
    EXPECT_EQ(a[i].final_node, b[i].final_node);
    EXPECT_EQ(a[i].hops, b[i].hops);
    EXPECT_EQ(a[i].wire_bytes_out, b[i].wire_bytes_out);
    EXPECT_EQ(a[i].latency_ns, b[i].latency_ns);          // exact
    EXPECT_EQ(a[i].inc_latency_ns, b[i].inc_latency_ns);  // exact
    EXPECT_EQ(a[i].view.params, b[i].view.params);
    EXPECT_EQ(a[i].view.fields, b[i].view.fields);
    EXPECT_EQ(a[i].view.verdict, b[i].view.verdict);
    EXPECT_EQ(a[i].view.mirrored, b[i].view.mirrored);
    EXPECT_EQ(a[i].view.cpu_copied, b[i].view.cpu_copied);
  }
}

void expectEmuStateIdentical(emu::Emulator& a, emu::Emulator& b,
                             const topo::Topology& topo,
                             const ir::IrProgram& prog) {
  EXPECT_EQ(a.stats().packets_sent, b.stats().packets_sent);
  EXPECT_EQ(a.stats().packets_delivered, b.stats().packets_delivered);
  EXPECT_EQ(a.stats().packets_dropped, b.stats().packets_dropped);
  EXPECT_EQ(a.stats().packets_bounced, b.stats().packets_bounced);
  EXPECT_EQ(a.stats().useful_bytes_delivered,
            b.stats().useful_bytes_delivered);
  EXPECT_EQ(a.stats().total_latency_ns, b.stats().total_latency_ns);
  EXPECT_EQ(a.stats().total_inc_latency_ns,
            b.stats().total_inc_latency_ns);
  for (const auto& link : topo.links()) {
    EXPECT_EQ(a.linkBusyNs(link.a, link.b), b.linkBusyNs(link.a, link.b))
        << "link " << link.a << "-" << link.b;
  }
  // Compare every state instance the program defines on every device.
  for (const auto& node : topo.nodes()) {
    if (!node.programmable) continue;
    for (const auto& spec : prog.states) {
      const auto* sa = a.storeOf(node.id).find(spec.name);
      const auto* sb = b.storeOf(node.id).find(spec.name);
      ASSERT_EQ(sa == nullptr, sb == nullptr)
          << spec.name << " on node " << node.id;
      if (sa == nullptr) continue;
      EXPECT_EQ(sa->entryCount(), sb->entryCount());
      for (std::uint64_t c = 0; c < spec.depth; ++c) {
        EXPECT_EQ(sa->regRead(c), sb->regRead(c))
            << spec.name << "[" << c << "] on node " << node.id;
      }
    }
  }
}

class ParallelEmulation : public ::testing::Test {
 protected:
  static constexpr int kFlows = 4;
  static constexpr int kPackets = 64;

  // Runs the same seeded multi-flow workload with and without a pool.
  static void runBoth(int threads, std::vector<emu::Burst> bursts,
                      const topo::Topology& topo, emu::Emulator& seq,
                      emu::Emulator& par) {
    auto prog = aggAndDropThird();
    for (int f = 0; f < kFlows; ++f) {
      const int dev = topo.findNode(cat("dev", f));
      emu::DeploymentEntry e;
      e.user_id = 1;
      e.prog = prog;
      for (std::size_t i = 0; i < prog->instrs.size(); ++i) {
        e.instr_idxs.push_back(static_cast<int>(i));
      }
      e.step_from = 0;
      e.step_to = 1;
      seq.deploy(dev, e);
      par.deploy(dev, e);
    }
    util::ThreadPool pool(threads);
    par.setThreadPool(&pool);
    auto bursts_copy = bursts;
    const auto seq_results = seq.sendBursts(std::move(bursts));
    const auto par_results = par.sendBursts(std::move(bursts_copy));
    ASSERT_EQ(seq_results.size(), par_results.size());
    for (std::size_t f = 0; f < seq_results.size(); ++f) {
      SCOPED_TRACE(cat("flow ", f));
      expectResultsIdentical(par_results[f], seq_results[f]);
    }
    expectEmuStateIdentical(par, seq, topo, *prog);
    par.setThreadPool(nullptr);
  }
};

TEST_F(ParallelEmulation, DisjointFlowsBitIdenticalAcrossThreadCounts) {
  const auto topo = disjointChains(kFlows);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(cat(threads, " threads"));
    emu::Emulator seq(&topo, 11);
    emu::Emulator par(&topo, 11);
    runBoth(threads, makeBursts(topo, kFlows, kPackets, 0xAB5), topo, seq,
            par);
  }
}

TEST_F(ParallelEmulation, SendBurstsMatchesPerBurstSendBurstCalls) {
  const auto topo = disjointChains(kFlows);
  emu::Emulator one_by_one(&topo, 11);
  emu::Emulator batched(&topo, 11);
  util::ThreadPool pool(8);
  batched.setThreadPool(&pool);
  auto prog = aggAndDropThird();
  for (int f = 0; f < kFlows; ++f) {
    const int dev = topo.findNode(cat("dev", f));
    emu::DeploymentEntry e;
    e.user_id = 1;
    e.prog = prog;
    for (std::size_t i = 0; i < prog->instrs.size(); ++i) {
      e.instr_idxs.push_back(static_cast<int>(i));
    }
    e.step_from = 0;
    e.step_to = 1;
    one_by_one.deploy(dev, e);
    batched.deploy(dev, e);
  }
  auto bursts = makeBursts(topo, kFlows, kPackets, 0xF00D);
  auto bursts_copy = bursts;
  std::vector<std::vector<emu::PacketResult>> seq_results;
  for (auto& b : bursts) {
    seq_results.push_back(one_by_one.sendBurst(
        b.src, b.dst, std::move(b.views), b.wire_bytes, b.useful_bytes));
  }
  const auto par_results = batched.sendBursts(std::move(bursts_copy));
  ASSERT_EQ(par_results.size(), seq_results.size());
  for (std::size_t f = 0; f < seq_results.size(); ++f) {
    SCOPED_TRACE(cat("flow ", f));
    expectResultsIdentical(par_results[f], seq_results[f]);
  }
  expectEmuStateIdentical(batched, one_by_one, topo, *prog);
}

TEST_F(ParallelEmulation, AliasedPathsKeepSequentialOrder) {
  // Three bursts through ONE shared device: the pool must not reorder
  // them (the shared accumulator makes order observable), so they fall
  // back to ordered execution and match the sequential run exactly.
  const auto topo = topo::Topology::chain({device::makeTofino()});
  const int client = topo.findNode("client");
  const int server = topo.findNode("server");
  const int dev = topo.findNode("d0");
  auto prog = aggAndDropThird();
  auto deployTo = [&](emu::Emulator& emu) {
    emu::DeploymentEntry e;
    e.user_id = 1;
    e.prog = prog;
    for (std::size_t i = 0; i < prog->instrs.size(); ++i) {
      e.instr_idxs.push_back(static_cast<int>(i));
    }
    e.step_from = 0;
    e.step_to = 1;
    emu.deploy(dev, e);
  };
  auto makeAliased = [&] {
    std::vector<emu::Burst> bursts;
    Rng rng(0x1CE);
    for (int f = 0; f < 3; ++f) {
      emu::Burst b;
      b.src = client;
      b.dst = server;
      b.wire_bytes = 100;
      b.useful_bytes = 100;
      for (int p = 0; p < 20; ++p) {
        ir::PacketView view;
        view.user_id = 1;
        view.setField("hdr.value", rng.nextBelow(1u << 12));
        b.views.push_back(std::move(view));
      }
      bursts.push_back(std::move(b));
    }
    return bursts;
  };
  emu::Emulator seq(&topo, 7);
  emu::Emulator par(&topo, 7);
  util::ThreadPool pool(8);
  par.setThreadPool(&pool);
  deployTo(seq);
  deployTo(par);
  const auto seq_results = seq.sendBursts(makeAliased());
  const auto par_results = par.sendBursts(makeAliased());
  ASSERT_EQ(par_results.size(), seq_results.size());
  for (std::size_t f = 0; f < seq_results.size(); ++f) {
    SCOPED_TRACE(cat("burst ", f));
    expectResultsIdentical(par_results[f], seq_results[f]);
  }
  expectEmuStateIdentical(par, seq, topo, *prog);
}

TEST_F(ParallelEmulation, RandIntDeploymentForcesSequentialFallback) {
  // A RandInt snippet consumes the shared Rng; parallel bursts would
  // scramble the draw order, so sendBursts must take the sequential path
  // and match the pool-free emulator draw for draw.
  const auto topo = disjointChains(2);
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "randmark";
  prog->addField("hdr.value", 32);
  prog->instrs.push_back(
      ir::Instruction(ir::Opcode::kRandInt, ir::Operand::var("r", 16),
                      {ir::Operand::constant(1000, 16)}));
  auto deployTo = [&](emu::Emulator& emu) {
    for (int f = 0; f < 2; ++f) {
      emu::DeploymentEntry e;
      e.user_id = 1;
      e.prog = prog;
      e.instr_idxs = {0};
      e.step_from = 0;
      e.step_to = 1;
      emu.deploy(topo.findNode(cat("dev", f)), e);
    }
  };
  emu::Emulator seq(&topo, 99);
  emu::Emulator par(&topo, 99);
  util::ThreadPool pool(8);
  par.setThreadPool(&pool);
  deployTo(seq);
  deployTo(par);
  const auto seq_results = seq.sendBursts(makeBursts(topo, 2, 32, 0xD1E));
  const auto par_results = par.sendBursts(makeBursts(topo, 2, 32, 0xD1E));
  ASSERT_EQ(par_results.size(), seq_results.size());
  for (std::size_t f = 0; f < seq_results.size(); ++f) {
    SCOPED_TRACE(cat("flow ", f));
    expectResultsIdentical(par_results[f], seq_results[f]);
  }
}

// --- converging traffic: many-to-one flows through a shared device ---
//
// Every flow does private work on its own smartNIC, then meets the
// others on one aggregation switch. The shared switch puts every burst
// in its own frontier group, so per-device arrival order must come out
// as burst order. These suites pin the bit-identity claim for exactly
// that schedule, across 1/2/8-thread pools.

// client_i — nic_i (programmable) — shared switch — server.
topo::Topology convergingTopology(int k) {
  topo::Topology t;
  topo::Node sw;
  sw.name = "agg";
  sw.kind = topo::NodeKind::kSwitch;
  sw.programmable = true;
  sw.model = device::makeTofino();
  const int swid = t.addNode(sw);
  topo::Node server;
  server.name = "server";
  server.kind = topo::NodeKind::kHost;
  const int sid = t.addNode(server);
  t.addLink(swid, sid);
  for (int i = 0; i < k; ++i) {
    topo::Node c;
    c.name = cat("client", i);
    c.kind = topo::NodeKind::kHost;
    const int cid = t.addNode(c);
    topo::Node nic;
    nic.name = cat("nic", i);
    nic.kind = topo::NodeKind::kNic;
    nic.programmable = true;
    nic.model = device::makeNfp();
    const int nid = t.addNode(nic);
    t.addLink(cid, nid);
    t.addLink(nid, swid);
  }
  return t;
}

// Per-NIC preprocessor: count packets and fold the value (the sparse
// compression stand-in) — stateful, so every NIC's store is checked.
std::shared_ptr<ir::IrProgram> nicCompress() {
  auto prog = std::make_shared<ir::IrProgram>();
  prog->name = "niccomp";
  prog->addField("hdr.value", 32);
  ir::StateObject s;
  s.name = "nic_acc";
  s.kind = ir::StateKind::kRegister;
  s.depth = 2;
  const int sid = prog->addState(s);
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("nseen", 32),
      {ir::Operand::constant(0, 8), ir::Operand::constant(1, 32)}, sid));
  prog->instrs.push_back(ir::Instruction(
      ir::Opcode::kAnd, ir::Operand::field("hdr.value", 32),
      {ir::Operand::field("hdr.value", 32),
       ir::Operand::constant(0xFFF, 32)}));
  return prog;
}

void deployConverging(emu::Emulator& emu, const topo::Topology& topo,
                      int flows,
                      const std::shared_ptr<ir::IrProgram>& nic_prog,
                      const std::shared_ptr<ir::IrProgram>& sw_prog) {
  auto entryFor = [](const std::shared_ptr<ir::IrProgram>& p) {
    emu::DeploymentEntry e;
    e.user_id = 1;
    e.prog = p;
    for (std::size_t i = 0; i < p->instrs.size(); ++i) {
      e.instr_idxs.push_back(static_cast<int>(i));
    }
    e.step_from = 0;
    e.step_to = 1;
    return e;
  };
  for (int f = 0; f < flows; ++f) {
    auto e = entryFor(nic_prog);
    emu.deploy(topo.findNode(cat("nic", f)), e);
  }
  // The switch runs the aggregation as step 1 so NIC-processed packets
  // still match its gate (step advances to 1 at the NIC).
  auto e = entryFor(sw_prog);
  e.step_from = 1;
  e.step_to = 2;
  emu.deploy(topo.findNode("agg"), e);
}

std::vector<emu::Burst> convergingBursts(const topo::Topology& topo,
                                         int flows, int packets,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<emu::Burst> bursts;
  for (int f = 0; f < flows; ++f) {
    emu::Burst b;
    b.src = topo.findNode(cat("client", f));
    b.dst = topo.findNode("server");
    b.wire_bytes = 128;
    b.useful_bytes = 100;
    for (int p = 0; p < packets; ++p) {
      ir::PacketView view;
      view.user_id = 1;
      view.setField("hdr.value", rng.nextBelow(1u << 16));
      b.views.push_back(std::move(view));
    }
    bursts.push_back(std::move(b));
  }
  return bursts;
}

class ConvergingEmulation : public ::testing::Test {
 protected:
  static constexpr int kFlows = 4;
  static constexpr int kPackets = 48;

  static void expectAllIdentical(
      const std::vector<std::vector<emu::PacketResult>>& par,
      const std::vector<std::vector<emu::PacketResult>>& seq) {
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t f = 0; f < seq.size(); ++f) {
      SCOPED_TRACE(cat("burst ", f));
      expectResultsIdentical(par[f], seq[f]);
    }
  }
};

TEST_F(ConvergingEmulation, ManyToOneBitIdenticalAcrossThreadCounts) {
  const auto topo = convergingTopology(kFlows);
  auto nic_prog = nicCompress();
  auto sw_prog = aggAndDropThird();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(cat(threads, " threads"));
    emu::Emulator seq(&topo, 5);
    emu::Emulator par(&topo, 5);
    deployConverging(seq, topo, kFlows, nic_prog, sw_prog);
    deployConverging(par, topo, kFlows, nic_prog, sw_prog);
    util::ThreadPool pool(threads);
    par.setThreadPool(&pool);
    const auto seq_results =
        seq.sendBursts(convergingBursts(topo, kFlows, kPackets, 0xC0F));
    const auto par_results =
        par.sendBursts(convergingBursts(topo, kFlows, kPackets, 0xC0F));
    expectAllIdentical(par_results, seq_results);
    expectEmuStateIdentical(par, seq, topo, *sw_prog);
    expectEmuStateIdentical(par, seq, topo, *nic_prog);
  }
}

TEST_F(ConvergingEmulation, MlaggManyToOneAggregationBitIdentical) {
  // The real MLAgg template on the shared switch: per-flow gradients
  // converge on one aggregator array; drops (absorbed gradients),
  // send-backs (completed aggregates), and the register state are all
  // part of the bit-identity claim.
  const auto topo = convergingTopology(kFlows);
  auto nic_prog = nicCompress();
  modules::ModuleLibrary lib;
  auto mlagg = std::make_shared<ir::IrProgram>(
      lib.compileTemplate("MLAgg", "agg_t", {{"NumAgg", 16},
                                             {"Dim", 4},
                                             {"NumWorker", 2},
                                             {"IsConvert", 0}}));
  auto makeMlaggBursts = [&] {
    Rng rng(0xA99);
    std::vector<emu::Burst> bursts;
    for (int f = 0; f < kFlows; ++f) {
      emu::Burst b;
      b.src = topo.findNode(cat("client", f));
      b.dst = topo.findNode("server");
      b.wire_bytes = 160;
      b.useful_bytes = 128;
      for (int p = 0; p < kPackets; ++p) {
        ir::PacketView view;
        view.user_id = 1;
        view.setField("hdr.op", 1);  // DATA
        view.setField("hdr.seq", rng.nextBelow(32));
        view.setField("hdr.bitmap", 1u << (f % 2));
        view.setField("hdr.overflow", 0);
        view.setField("hdr.value", rng.nextBelow(1u << 12));
        for (int d = 0; d < 4; ++d) {
          view.setField(cat("hdr.data.", d), rng.nextBelow(1u << 10));
        }
        b.views.push_back(std::move(view));
      }
      bursts.push_back(std::move(b));
    }
    return bursts;
  };
  for (int threads : {2, 8}) {
    SCOPED_TRACE(cat(threads, " threads"));
    emu::Emulator seq(&topo, 13);
    emu::Emulator par(&topo, 13);
    deployConverging(seq, topo, kFlows, nic_prog, mlagg);
    deployConverging(par, topo, kFlows, nic_prog, mlagg);
    util::ThreadPool pool(threads);
    par.setThreadPool(&pool);
    const auto seq_results = seq.sendBursts(makeMlaggBursts());
    const auto par_results = par.sendBursts(makeMlaggBursts());
    expectAllIdentical(par_results, seq_results);
    expectEmuStateIdentical(par, seq, topo, *mlagg);
    expectEmuStateIdentical(par, seq, topo, *nic_prog);
  }
}

TEST_F(ConvergingEmulation, PartiallyOverlappingPathsKeepDeviceOrder) {
  // h0 -> A -> B -> C -> h1, with extra sources entering at B and C:
  // bursts share devices at *different* hop indices, so frontier
  // grouping must order them by device overlap, not by hop position.
  topo::Topology t;
  topo::Node h0, h1, hb, hc;
  h0.name = "h0";
  h1.name = "h1";
  hb.name = "hb";
  hc.name = "hc";
  for (auto* h : {&h0, &h1, &hb, &hc}) h->kind = topo::NodeKind::kHost;
  const int id_h0 = t.addNode(h0);
  const int id_h1 = t.addNode(h1);
  const int id_hb = t.addNode(hb);
  const int id_hc = t.addNode(hc);
  std::vector<int> devs;
  for (int i = 0; i < 3; ++i) {
    topo::Node d;
    d.name = cat("D", i);
    d.kind = topo::NodeKind::kSwitch;
    d.programmable = true;
    d.model = device::makeTofino();
    devs.push_back(t.addNode(d));
  }
  t.addLink(id_h0, devs[0]);
  t.addLink(devs[0], devs[1]);
  t.addLink(devs[1], devs[2]);
  t.addLink(devs[2], id_h1);
  t.addLink(id_hb, devs[1]);
  t.addLink(id_hc, devs[2]);

  auto prog = aggAndDropThird();
  auto deployTo = [&](emu::Emulator& emu) {
    for (int dev : devs) {
      emu::DeploymentEntry e;
      e.user_id = 1;
      e.prog = prog;
      for (std::size_t i = 0; i < prog->instrs.size(); ++i) {
        e.instr_idxs.push_back(static_cast<int>(i));
      }
      e.step_from = 0;
      e.step_to = 1;
      emu.deploy(dev, e);
    }
  };
  auto makeStaggered = [&] {
    Rng rng(0x57A6);
    std::vector<emu::Burst> bursts;
    const std::pair<int, int> flows[] = {
        {id_h0, id_h1}, {id_hb, id_h1}, {id_hc, id_h1}, {id_h0, id_h1}};
    for (const auto& [src, dst] : flows) {
      emu::Burst b;
      b.src = src;
      b.dst = dst;
      b.wire_bytes = 96;
      b.useful_bytes = 64;
      for (int p = 0; p < 24; ++p) {
        ir::PacketView view;
        view.user_id = 1;
        view.setField("hdr.value", rng.nextBelow(1u << 14));
        b.views.push_back(std::move(view));
      }
      bursts.push_back(std::move(b));
    }
    return bursts;
  };
  for (int threads : {2, 8}) {
    SCOPED_TRACE(cat(threads, " threads"));
    emu::Emulator seq(&t, 21);
    emu::Emulator par(&t, 21);
    deployTo(seq);
    deployTo(par);
    util::ThreadPool pool(threads);
    par.setThreadPool(&pool);
    const auto seq_results = seq.sendBursts(makeStaggered());
    const auto par_results = par.sendBursts(makeStaggered());
    expectAllIdentical(par_results, seq_results);
    expectEmuStateIdentical(par, seq, t, *prog);
  }
}

TEST_F(ConvergingEmulation, FusionKnobDoesNotChangeEmulation) {
  // fuse_plans on/off must be invisible end to end — including the
  // latency model, which charges per *source* instruction.
  const auto topo = convergingTopology(kFlows);
  auto nic_prog = nicCompress();
  auto sw_prog = aggAndDropThird();
  emu::Emulator fused(&topo, 17);
  emu::Emulator plain(&topo, 17);
  plain.setOptions({.fuse_plans = false});
  deployConverging(fused, topo, kFlows, nic_prog, sw_prog);
  deployConverging(plain, topo, kFlows, nic_prog, sw_prog);
  const auto fused_results =
      fused.sendBursts(convergingBursts(topo, kFlows, kPackets, 0xFA5));
  const auto plain_results =
      plain.sendBursts(convergingBursts(topo, kFlows, kPackets, 0xFA5));
  expectAllIdentical(fused_results, plain_results);
  expectEmuStateIdentical(fused, plain, topo, *sw_prog);
}

}  // namespace
}  // namespace clickinc
