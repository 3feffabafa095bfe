#include <gtest/gtest.h>

#include <set>

#include "core/service.h"
#include "device/validate.h"
#include "modules/templates.h"
#include "place/blockdag.h"
#include "place/intradevice.h"
#include "place/smt_baseline.h"
#include "place/treedp.h"
#include "topo/ec.h"
#include "util/strings.h"

namespace clickinc::place {
namespace {

ir::IrProgram mlaggProgram(int num_agg = 64, int dim = 4) {
  modules::ModuleLibrary lib;
  return lib.compileTemplate(
      "MLAgg", "agg",
      {{"NumAgg", static_cast<std::uint64_t>(num_agg)},
       {"Dim", static_cast<std::uint64_t>(dim)},
       {"NumWorker", 2},
       {"IsConvert", 0}});
}

ir::IrProgram dqaccProgram() {
  modules::ModuleLibrary lib;
  return lib.compileTemplate("DQAcc", "dq",
                             {{"CacheDepth", 256}, {"CacheLen", 4}});
}

// --- block DAG ---

TEST(BlockDag, UnionOfBlocksEqualsProgram) {
  const auto prog = mlaggProgram();
  const auto dag = BlockDag::build(prog);
  std::set<int> covered;
  for (const auto& b : dag.blocks()) {
    for (int i : b.instrs) {
      EXPECT_TRUE(covered.insert(i).second) << "instr in two blocks";
    }
  }
  EXPECT_EQ(covered.size(), prog.instrs.size());
}

TEST(BlockDag, StateSharingInstrsShareBlock) {
  const auto prog = mlaggProgram();
  const auto dag = BlockDag::build(prog);
  // All instructions touching a given stateful object live in one block.
  std::map<int, std::set<int>> blocks_of_state;
  for (const auto& b : dag.blocks()) {
    for (int i : b.instrs) {
      const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
      if (ins.state_id >= 0) blocks_of_state[ins.state_id].insert(b.id);
    }
  }
  for (const auto& [sid, bset] : blocks_of_state) {
    EXPECT_EQ(bset.size(), 1u) << "state " << sid << " split across blocks";
  }
}

TEST(BlockDag, TopologicalLinearization) {
  const auto prog = mlaggProgram();
  const auto dag = BlockDag::build(prog);
  for (const auto& b : dag.blocks()) {
    for (int d : b.deps) {
      EXPECT_LT(d, b.id) << "dependency after dependent in linear order";
    }
  }
}

TEST(BlockDag, MergeReducesBlockCount) {
  const auto prog = mlaggProgram();
  BlockDagOptions merged;
  BlockDagOptions unmerged;
  unmerged.merge = false;
  const auto a = BlockDag::build(prog, merged);
  const auto b = BlockDag::build(prog, unmerged);
  EXPECT_LT(a.size(), b.size());
  EXPECT_GT(a.size(), 1);
}

TEST(BlockDag, BlockSizeThresholdRespected) {
  const auto prog = mlaggProgram();
  BlockDagOptions opts;
  opts.max_block_instrs = 6;
  const auto dag = BlockDag::build(prog, opts);
  for (const auto& b : dag.blocks()) {
    // State-sharing groups may exceed the threshold (they are inseparable);
    // merged blocks of independent instructions must respect it.
    bool has_state = false;
    for (int i : b.instrs) {
      if (prog.instrs[static_cast<std::size_t>(i)].state_id >= 0) {
        has_state = true;
      }
    }
    if (!has_state) {
      EXPECT_LE(b.instrs.size(), 6u);
    }
  }
}

TEST(BlockDag, CutBitsZeroAtEnds) {
  const auto prog = dqaccProgram();
  const auto dag = BlockDag::build(prog);
  EXPECT_EQ(dag.cutBits(0), 0);
  EXPECT_EQ(dag.cutBits(dag.size()), 0);
  // Interior cuts carry the hash/index temporaries.
  bool some_positive = false;
  for (int i = 1; i < dag.size(); ++i) {
    if (dag.cutBits(i) > 0) some_positive = true;
  }
  EXPECT_TRUE(some_positive);
}

TEST(BlockDag, ScoreAdditive) {
  const auto prog = dqaccProgram();
  const auto dag = BlockDag::build(prog);
  const int m = dag.size();
  EXPECT_NEAR(dag.scoreOf(0, m),
              dag.scoreOf(0, m / 2) + dag.scoreOf(m / 2, m), 1e-9);
  EXPECT_NEAR(dag.scoreOf(0, m), dag.totalScore(), 1e-9);
}

// --- intra-device ---

TEST(IntraDevice, CompactPlacementValidates) {
  const auto prog = mlaggProgram();
  const auto tofino = device::makeTofino();
  const auto occ = DeviceOccupancy::fresh(tofino);
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const auto p = placeCompact(occ, prog, all);
  ASSERT_TRUE(p.feasible);
  EXPECT_EQ(device::validatePipelinePlacement(tofino, prog, p.instr_idxs,
                                              p.stage_of),
            "");
  EXPECT_GT(p.stages_used, 1);
  EXPECT_LE(p.stages_used, tofino.num_stages);
}

TEST(IntraDevice, RespectsMinStage) {
  const auto prog = dqaccProgram();
  const auto occ = DeviceOccupancy::fresh(device::makeTofino());
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const auto p = placeCompact(occ, prog, all, /*min_stage=*/3);
  ASSERT_TRUE(p.feasible);
  for (int s : p.stage_of) EXPECT_GE(s, 3);
}

TEST(IntraDevice, InfeasibleWhenUnsupportedClass) {
  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "KVS", "kvs", {{"CacheSize", 128}, {"ValDim", 2}, {"TH", 4}});
  const auto occ = DeviceOccupancy::fresh(device::makeTofino());
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  EXPECT_FALSE(placeCompact(occ, prog, all).feasible);  // BSEM on Tofino
  const auto nfp_occ = DeviceOccupancy::fresh(device::makeNfp());
  EXPECT_TRUE(placeCompact(nfp_occ, prog, all).feasible);
}

TEST(IntraDevice, CommitReducesCapacity) {
  const auto prog = dqaccProgram();
  const auto model = device::makeTofino();
  auto occ = DeviceOccupancy::fresh(model);
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const double before = occ.remainingRatio();
  const auto p = placeCompact(occ, prog, all);
  ASSERT_TRUE(p.feasible);
  commitPlacement(occ, prog, p);
  EXPECT_LT(occ.remainingRatio(), before);
}

TEST(IntraDevice, ExhaustiveMatchesCompactFeasibility) {
  const auto prog = dqaccProgram();
  const auto occ = DeviceOccupancy::fresh(device::makeTofino());
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const auto compact = placeCompact(occ, prog, all);
  const auto exhaustive = placeExhaustive(occ, prog, all, 2000000);
  ASSERT_TRUE(compact.feasible);
  ASSERT_TRUE(exhaustive.feasible);
  // The unpruned search must do strictly more work.
  EXPECT_GT(exhaustive.steps, compact.steps);
}

// --- tree DP ---

class TreeDpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = topo::Topology::paperEmulation();
  }

  topo::EcTree treeFor(std::vector<std::string> srcs, std::string dst) {
    topo::TrafficSpec spec;
    for (const auto& s : srcs) {
      spec.sources.push_back({topo_.findNode(s), 10.0});
    }
    spec.dst_host = topo_.findNode(dst);
    return buildEcTree(topo_, spec);
  }

  topo::Topology topo_;
};

TEST_F(TreeDpFixture, MlaggPlacesAcrossFatTree) {
  const auto prog = mlaggProgram(128, 4);
  const auto dag = BlockDag::build(prog);
  const auto tree = treeFor({"pod0a", "pod1a"}, "pod2b");
  OccupancyMap occ(&topo_);
  const auto plan = placeProgram(dag, tree, topo_, occ);
  ASSERT_TRUE(plan.feasible) << plan.failure;
  EXPECT_DOUBLE_EQ(plan.ht, 1.0);
  EXPECT_GT(plan.gain, 0.0);
  // Every block placed exactly once per path: total blocks over the plan's
  // segments must cover [0, m) for each root-to-leaf path. Check coverage
  // through the root path: client prefix + root + server chain = m.
  int covered = 0;
  for (const auto& a : plan.assignments) {
    covered = std::max(covered, a.to_block);
  }
  EXPECT_EQ(covered, dag.size());
}

TEST_F(TreeDpFixture, PlanValidatesOnEveryDevice) {
  const auto prog = mlaggProgram(128, 4);
  const auto dag = BlockDag::build(prog);
  const auto tree = treeFor({"pod0a", "pod1b"}, "pod2a");
  OccupancyMap occ(&topo_);
  const auto plan = placeProgram(dag, tree, topo_, occ);
  ASSERT_TRUE(plan.feasible) << plan.failure;
  for (const auto& a : plan.assignments) {
    for (const auto& [dev, p] : a.on_device) {
      if (p.instr_idxs.empty()) continue;
      const auto& model = topo_.node(dev).model;
      EXPECT_EQ(device::validatePlacement(model, prog, p.instr_idxs,
                                          p.stage_of),
                "")
          << "device " << topo_.node(dev).name;
    }
  }
}

TEST_F(TreeDpFixture, CommitConsumesResources) {
  const auto prog = mlaggProgram(128, 4);
  const auto dag = BlockDag::build(prog);
  const auto tree = treeFor({"pod0a"}, "pod2b");
  OccupancyMap occ(&topo_);
  const double before = occ.remainingRatio();
  const auto plan = placeProgram(dag, tree, topo_, occ);
  ASSERT_TRUE(plan.feasible);
  commitPlan(plan, prog, occ);
  const double committed = occ.remainingRatio();
  EXPECT_LT(committed, before);

  // releasePlan is the exact inverse; kept devices stay claimed.
  releasePlan(plan, prog, occ, [](int) { return true; });
  EXPECT_DOUBLE_EQ(occ.remainingRatio(), committed);
  releasePlan(plan, prog, occ);
  EXPECT_DOUBLE_EQ(occ.remainingRatio(), before);
}

TEST_F(TreeDpFixture, SequentialProgramsAvoidFullDevices) {
  // Keep placing MLAgg instances; the placer must keep finding feasible
  // spots (spreading across the tree) for several instances.
  OccupancyMap occ(&topo_);
  const auto tree = treeFor({"pod0a", "pod1a"}, "pod2b");
  int placed = 0;
  for (int k = 0; k < 4; ++k) {
    modules::ModuleLibrary lib;
    auto prog = lib.compileTemplate(
        "MLAgg", cat("agg", k),
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}});
    const auto dag = BlockDag::build(prog);
    const auto plan = placeProgram(dag, tree, topo_, occ);
    if (!plan.feasible) break;
    commitPlan(plan, prog, occ);
    ++placed;
  }
  EXPECT_GE(placed, 2);
}

TEST_F(TreeDpFixture, KvsUsesBypassFpga) {
  // A huge KVS cache cannot fit switch SRAM; the bypass FPGA on the pod2
  // Aggs (or the NFP NIC) must host the stateful table.
  modules::ModuleLibrary lib;
  auto prog = lib.compileTemplate(
      "KVS", "kvs",
      {{"CacheSize", 100000}, {"ValDim", 4}, {"TH", 64}});
  const auto dag = BlockDag::build(prog);
  const auto tree = treeFor({"pod0a", "pod1a"}, "pod2b");
  OccupancyMap occ(&topo_);
  const auto plan = placeProgram(dag, tree, topo_, occ);
  ASSERT_TRUE(plan.feasible) << plan.failure;
  // Some segment must land on an NFP NIC or FPGA (the only BSEM hosts).
  bool on_capable = false;
  for (int dev : plan.devicesUsed()) {
    const auto chip = topo_.node(dev).model.chip;
    if (chip == device::ChipKind::kNfp || chip == device::ChipKind::kFpga ||
        chip == device::ChipKind::kFpgaNic) {
      on_capable = true;
    }
  }
  EXPECT_TRUE(on_capable);
}

TEST_F(TreeDpFixture, InfeasibleWhenNoCapableDevice) {
  // Float aggregation on an intra-pod path (pod0a -> pod0b) only crosses
  // NFP NICs and Tofino ToRs — no float-capable device, so placement must
  // fail. Routing via pod1 (FPGA NICs) or pod2 (bypass FPGAs) succeeds.
  modules::ModuleLibrary lib;
  auto prog = lib.compileTemplate(
      "MLAgg", "aggf",
      {{"NumAgg", 64}, {"Dim", 2}, {"NumWorker", 2}, {"IsConvert", 1},
       {"Scale", 64}});
  const auto dag = BlockDag::build(prog);
  const auto tree = treeFor({"pod0a"}, "pod0b");
  OccupancyMap occ(&topo_);
  const auto plan = placeProgram(dag, tree, topo_, occ);
  EXPECT_FALSE(plan.feasible);
  // Routing the same job from pod1 (FPGA NICs) succeeds.
  const auto tree2 = treeFor({"pod1a"}, "pod2b");
  const auto plan2 = placeProgram(dag, tree2, topo_, occ);
  EXPECT_TRUE(plan2.feasible) << plan2.failure;
}

TEST(AdaptiveWeights, ShiftTowardResourcesAsCapacityDrops) {
  const auto fresh = adaptiveWeights(1.0);
  EXPECT_NEAR(fresh.wr, 0.0, 1e-9);
  EXPECT_NEAR(fresh.wp, 0.5, 1e-9);
  const auto half = adaptiveWeights(0.5);
  EXPECT_GT(half.wr, 0.25);
  const auto empty = adaptiveWeights(0.0);
  EXPECT_NEAR(empty.wr, 0.5, 1e-9);
  EXPECT_NEAR(empty.wp, 0.0, 1e-9);
}

// --- fast-path equivalence and memo fingerprints ---

void expectPlacementsEqual(const IntraPlacement& a, const IntraPlacement& b,
                           const std::string& where) {
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.instr_idxs, b.instr_idxs) << where;
  EXPECT_EQ(a.stage_of, b.stage_of) << where;
  EXPECT_EQ(a.stages_used, b.stages_used) << where;
}

void expectPlansEqual(const PlacementPlan& fast, const PlacementPlan& ref) {
  ASSERT_EQ(fast.feasible, ref.feasible) << fast.failure << ref.failure;
  if (!fast.feasible) return;
  EXPECT_DOUBLE_EQ(fast.gain, ref.gain);
  EXPECT_DOUBLE_EQ(fast.ht, ref.ht);
  EXPECT_DOUBLE_EQ(fast.hr, ref.hr);
  EXPECT_DOUBLE_EQ(fast.hp, ref.hp);
  ASSERT_EQ(fast.assignments.size(), ref.assignments.size());
  for (std::size_t k = 0; k < fast.assignments.size(); ++k) {
    const auto& fa = fast.assignments[k];
    const auto& ra = ref.assignments[k];
    const std::string where = cat("assignment #", k, " on tree node ",
                                  ra.tree_node);
    EXPECT_EQ(fa.tree_node, ra.tree_node) << where;
    EXPECT_EQ(fa.from_block, ra.from_block) << where;
    EXPECT_EQ(fa.to_block, ra.to_block) << where;
    EXPECT_EQ(fa.bypass_from, ra.bypass_from) << where;
    ASSERT_EQ(fa.on_device.size(), ra.on_device.size()) << where;
    for (const auto& [dev, rp] : ra.on_device) {
      auto it = fa.on_device.find(dev);
      ASSERT_NE(it, fa.on_device.end()) << where << " device " << dev;
      expectPlacementsEqual(it->second, rp, cat(where, " device ", dev));
    }
    ASSERT_EQ(fa.on_bypass.size(), ra.on_bypass.size()) << where;
    for (const auto& [dev, rp] : ra.on_bypass) {
      auto it = fa.on_bypass.find(dev);
      ASSERT_NE(it, fa.on_bypass.end()) << where << " bypass " << dev;
      expectPlacementsEqual(it->second, rp, cat(where, " bypass ", dev));
    }
  }
}

// Every workload program from src/apps (MLAgg dense/sparse-sized, KVS,
// DQAcc) must place identically on the fast path (memo + early exit) and
// the retained reference path, across the heterogeneous paper topology,
// a heterogeneous fat-tree, and a chain.
class PlanEquivalence : public ::testing::Test {
 protected:
  static std::vector<ir::IrProgram> workloadPrograms() {
    modules::ModuleLibrary lib;
    std::vector<ir::IrProgram> progs;
    progs.push_back(lib.compileTemplate(
        "MLAgg", "agg_small",
        {{"NumAgg", 128}, {"Dim", 4}, {"NumWorker", 2}, {"IsConvert", 0}}));
    progs.push_back(lib.compileTemplate(
        "MLAgg", "agg_large",
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}}));
    progs.push_back(lib.compileTemplate(
        "KVS", "kvs",
        {{"CacheSize", 100000}, {"ValDim", 4}, {"TH", 64}}));
    progs.push_back(lib.compileTemplate(
        "DQAcc", "dq", {{"CacheDepth", 1024}, {"CacheLen", 4}}));
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

  static void checkAllWorkloads(const topo::Topology& topo,
                                const topo::TrafficSpec& spec) {
    for (const auto& prog : workloadPrograms()) {
      const auto dag = BlockDag::build(prog);
      const auto tree = buildEcTree(topo, spec);
      OccupancyMap occ(&topo);
      PlacementOptions fast_opts;
      fast_opts.fast = true;
      PlacementOptions ref_opts;
      ref_opts.fast = false;
      const auto fast = placeProgram(dag, tree, topo, occ, fast_opts);
      const auto ref = placeProgram(dag, tree, topo, occ, ref_opts);
      SCOPED_TRACE(prog.name);
      expectPlansEqual(fast, ref);
    }
  }
};

TEST_F(PlanEquivalence, PaperEmulationTopology) {
  const auto topo = topo::Topology::paperEmulation();
  checkAllWorkloads(topo, specFor(topo, {"pod0a", "pod1a"}, "pod2b"));
  checkAllWorkloads(topo, specFor(topo, {"pod0a", "pod0b", "pod1b"}, "pod2a"));
}

TEST_F(PlanEquivalence, HeterogeneousFatTree) {
  const auto topo = topo::Topology::fatTree(4, 2, device::makeTofino(),
                                            device::makeTrident4(),
                                            device::makeTofino2());
  checkAllWorkloads(topo, specFor(topo, {"pod0h0", "pod1h0"}, "pod2h1"));
}

TEST_F(PlanEquivalence, TofinoChain) {
  const std::vector<device::DeviceModel> chain(8, device::makeTofino());
  const auto topo = topo::Topology::chain(chain);
  checkAllWorkloads(topo, specFor(topo, {"client"}, "server"));
}

TEST_F(PlanEquivalence, SequentialCommitsWithSharedArena) {
  // Multi-program runs share the occupancy-keyed memo through one arena;
  // every trial must still match an arena-free reference placement even as
  // commits change device occupancies between trials.
  const auto topo = topo::Topology::paperEmulation();
  const auto spec = specFor(topo, {"pod0a", "pod1a"}, "pod2b");
  const auto tree = buildEcTree(topo, spec);
  OccupancyMap occ_fast(&topo);
  OccupancyMap occ_ref(&topo);
  PlacementArena arena;
  for (int k = 0; k < 4; ++k) {
    modules::ModuleLibrary lib;
    const auto prog = lib.compileTemplate(
        "MLAgg", cat("agg", k),
        {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}});
    const auto dag = BlockDag::build(prog);
    PlacementOptions fast_opts;
    fast_opts.fast = true;
    PlacementOptions ref_opts;
    ref_opts.fast = false;
    const auto fast = placeProgram(dag, tree, topo, occ_fast, fast_opts,
                                   &arena);
    const auto ref = placeProgram(dag, tree, topo, occ_ref, ref_opts);
    SCOPED_TRACE(cat("trial ", k));
    expectPlansEqual(fast, ref);
    if (!fast.feasible) break;
    commitPlan(fast, prog, occ_fast);
    commitPlan(ref, prog, occ_ref);
  }
  // Identical templates re-placed on changed occupancies must still have
  // reused work: the arena memo sees hits from trial 2 onward.
  EXPECT_GT(arena.memo().hits(), 0);
}

TEST(PlacementStats, FastPathReportsCacheCounters) {
  const auto topo = topo::Topology::paperEmulation();
  topo::TrafficSpec spec;
  spec.sources = {{topo.findNode("pod0a"), 10.0},
                  {topo.findNode("pod1a"), 10.0}};
  spec.dst_host = topo.findNode("pod2b");
  const auto tree = buildEcTree(topo, spec);
  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "MLAgg", "agg",
      {{"NumAgg", 512}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}});
  const auto dag = BlockDag::build(prog);
  OccupancyMap occ(&topo);
  PlacementOptions opts;
  opts.fast = true;
  const auto plan = placeProgram(dag, tree, topo, occ, opts);
  ASSERT_TRUE(plan.feasible) << plan.failure;
  EXPECT_GT(plan.stats.seg_probes, 0);
  EXPECT_GT(plan.stats.intra_calls, 0);
  // EC nodes in the paper topology hold >= 2 identical replicas, so the
  // replica memo must fire.
  EXPECT_GT(plan.stats.intra_memo_hits, 0);
  EXPECT_GT(plan.stats.intraMemoHitRate(), 0.0);
  EXPECT_GE(plan.stats.segCacheHitRate(), 0.0);
  // The reference path reports direct calls only.
  PlacementOptions ref;
  ref.fast = false;
  const auto slow = placeProgram(dag, tree, topo, occ, ref);
  EXPECT_EQ(slow.stats.intra_memo_hits, 0);
  EXPECT_EQ(slow.stats.early_breaks, 0);
  EXPECT_GT(slow.stats.intra_calls, plan.stats.intra_calls);
}

TEST(OccupancyFingerprint, EqualStatesHashEqual) {
  const auto model = device::makeTofino();
  const auto a = DeviceOccupancy::fresh(model);
  const auto b = DeviceOccupancy::fresh(model);
  EXPECT_EQ(occupancyFingerprint(a), occupancyFingerprint(b));
  // Different models differ.
  const auto nfp = DeviceOccupancy::fresh(device::makeNfp());
  EXPECT_NE(occupancyFingerprint(a), occupancyFingerprint(nfp));
}

TEST(OccupancyFingerprint, PerturbedOccupancyHashesDiffer) {
  const auto prog = dqaccProgram();
  const auto model = device::makeTofino();
  auto occ = DeviceOccupancy::fresh(model);
  const auto before = occupancyFingerprint(occ);
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  const auto p = placeCompact(occ, prog, all);
  ASSERT_TRUE(p.feasible);
  commitPlacement(occ, prog, p);
  EXPECT_NE(occupancyFingerprint(occ), before);
  releasePlacement(occ, prog, p);
  EXPECT_EQ(occupancyFingerprint(occ), before);
}

TEST(SegmentFingerprint, NameInsensitiveAcrossUsers) {
  // Identical templates submitted under different user/instance names must
  // fingerprint equal so the memo is shared across programs.
  modules::ModuleLibrary lib;
  const auto a = lib.compileTemplate(
      "MLAgg", "mlagg_user1",
      {{"NumAgg", 128}, {"Dim", 4}, {"NumWorker", 2}, {"IsConvert", 0}});
  const auto b = lib.compileTemplate(
      "MLAgg", "mlagg_user2",
      {{"NumAgg", 128}, {"Dim", 4}, {"NumWorker", 2}, {"IsConvert", 0}});
  const auto an_a = ir::analyzeProgram(a);
  const auto an_b = ir::analyzeProgram(b);
  std::vector<int> all_a, all_b;
  for (std::size_t i = 0; i < a.instrs.size(); ++i) {
    all_a.push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < b.instrs.size(); ++i) {
    all_b.push_back(static_cast<int>(i));
  }
  EXPECT_EQ(segmentFingerprint(a, an_a, all_a),
            segmentFingerprint(b, an_b, all_b));
  // Different parameters produce different demands, hence different prints.
  const auto c = lib.compileTemplate(
      "MLAgg", "mlagg_user3",
      {{"NumAgg", 256}, {"Dim", 4}, {"NumWorker", 2}, {"IsConvert", 0}});
  const auto an_c = ir::analyzeProgram(c);
  std::vector<int> all_c;
  for (std::size_t i = 0; i < c.instrs.size(); ++i) {
    all_c.push_back(static_cast<int>(i));
  }
  EXPECT_NE(segmentFingerprint(a, an_a, all_a),
            segmentFingerprint(c, an_c, all_c));
}

TEST(ServiceArena, MemoSharedAcrossUsers) {
  // Two users submitting the same template through the service share the
  // occupancy-keyed memo: the second submit reuses first-submit work.
  core::ClickIncService svc(topo::Topology::paperEmulation());
  topo::TrafficSpec spec;
  spec.sources = {{svc.topology().findNode("pod0a"), 10.0}};
  spec.dst_host = svc.topology().findNode("pod2b");
  const auto r1 = svc.submit(core::SubmitRequest::fromTemplate(
      "MLAgg", {{"NumAgg", 128}, {"Dim", 4}, {"NumWorker", 2}}, spec));
  ASSERT_TRUE(r1.ok) << r1.error.message();
  const long hits_after_first = svc.placementArena().memo().hits();
  const auto r2 = svc.submit(core::SubmitRequest::fromTemplate(
      "MLAgg", {{"NumAgg", 128}, {"Dim", 4}, {"NumWorker", 2}}, spec));
  ASSERT_TRUE(r2.ok) << r2.error.message();
  EXPECT_GT(svc.placementArena().memo().hits(), hits_after_first);
  EXPECT_GT(r2.plan.stats.intra_memo_hits, 0);
  const auto& cum = svc.placementStats();
  EXPECT_EQ(cum.intra_memo_hits,
            r1.plan.stats.intra_memo_hits + r2.plan.stats.intra_memo_hits);
}

// --- SMT baseline ---

TEST(SmtBaseline, FindsPlacementOnChain) {
  const auto prog = dqaccProgram();
  const auto dag = BlockDag::build(prog);
  std::vector<device::DeviceModel> chain(4, device::makeTofino());
  SmtOptions opts;
  opts.max_steps = 5000000;
  const auto r = smtPlaceChain(dag, chain, opts);
  ASSERT_TRUE(r.feasible);
  int placed = 0;
  for (int n : r.instrs_per_device) placed += n;
  EXPECT_EQ(placed, static_cast<int>(prog.instrs.size()));
}

TEST(SmtBaseline, DpOrdersOfMagnitudeFewerSteps) {
  const auto prog = mlaggProgram(64, 2);
  const auto dag = BlockDag::build(prog);
  std::vector<device::DeviceModel> chain(4, device::makeTofino());
  SmtOptions opts;
  opts.max_steps = 2000000;
  const auto smt = smtPlaceChain(dag, chain, opts);

  const auto topo = topo::Topology::chain(chain);
  topo::TrafficSpec spec;
  spec.sources = {{topo.findNode("client"), 1.0}};
  spec.dst_host = topo.findNode("server");
  const auto tree = buildEcTree(topo, spec);
  OccupancyMap occ(&topo);
  const auto dp = placeProgram(dag, tree, topo, occ);
  ASSERT_TRUE(dp.feasible) << dp.failure;
  EXPECT_GT(smt.steps, dp.steps * 10);
}

TEST(SmtBaseline, FeasibleOnlyIsCheaperButWorse) {
  const auto prog = dqaccProgram();
  const auto dag = BlockDag::build(prog);
  std::vector<device::DeviceModel> chain(3, device::makeTofino());
  SmtOptions optimize;
  optimize.max_steps = 5000000;
  SmtOptions feasible_only;
  feasible_only.optimize = false;
  feasible_only.max_steps = 5000000;
  const auto opt = smtPlaceChain(dag, chain, optimize);
  const auto fst = smtPlaceChain(dag, chain, feasible_only);
  ASSERT_TRUE(opt.feasible);
  ASSERT_TRUE(fst.feasible);
  EXPECT_LE(fst.steps, opt.steps);     // ~half the search
  EXPECT_GE(fst.comm_bits, opt.comm_bits);  // but more partitioning
}

}  // namespace
}  // namespace clickinc::place
