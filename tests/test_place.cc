#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/service.h"
#include "device/validate.h"
#include "modules/templates.h"
#include "place/blockdag.h"
#include "place/intradevice.h"
#include "place/smt_baseline.h"
#include "place/treedp.h"
#include "topo/ec.h"
#include "util/bits.h"
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

// Reference for BlockDag::build: the rebuild-everything merge. After every
// merge it re-derives all node preds from the instruction dependencies and
// re-levels with a quadratic Kahn pass that keeps a source's old level.
// BlockDag must match it block for block.
struct RefDag {
  std::vector<Block> blocks;
  std::vector<int> cut_bits;  // blocks.size() + 1 entries
  std::vector<double> prefix_score;
};

RefDag referenceBlockDag(const ir::IrProgram& prog,
                         const BlockDagOptions& opts) {
  struct Node {
    std::vector<int> instrs;
    ir::ClassMask classes = 0;
    std::set<int> preds;
    int level = 0;
    bool alive = true;
  };
  const auto dep = ir::buildDepGraph(prog);
  std::vector<Node> nodes;
  for (const auto& comp : ir::stronglyConnectedComponents(dep)) {
    Node n;
    n.instrs = comp;
    for (int i : comp) {
      n.classes |=
          ir::classBit(prog.instrs[static_cast<std::size_t>(i)].cls());
    }
    nodes.push_back(n);
  }
  const auto rebuild = [&] {
    std::map<int, int> node_of;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      for (int i : nodes[n].instrs) {
        if (nodes[n].alive) node_of[i] = static_cast<int>(n);
      }
    }
    for (auto& n : nodes) n.preds.clear();
    for (const auto& [i, ni] : node_of) {
      for (int j : dep.deps[static_cast<std::size_t>(i)]) {
        if (node_of.at(j) != ni) nodes[ni].preds.insert(node_of.at(j));
      }
    }
    std::map<int, int> indeg, level;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (nodes[n].alive) {
        indeg[static_cast<int>(n)] = static_cast<int>(nodes[n].preds.size());
      }
    }
    std::vector<int> ready, order;
    for (const auto& [n, d] : indeg) {
      if (d == 0) ready.push_back(n);
    }
    while (!ready.empty()) {
      const int n = ready.back();
      ready.pop_back();
      order.push_back(n);
      for (auto& [m, d] : indeg) {
        if (!nodes[m].preds.count(n)) continue;
        level[m] = std::max(level[m], level[n] + 1);
        if (--d == 0) ready.push_back(m);
      }
    }
    ASSERT_EQ(order.size(), indeg.size()) << "cycle";
    for (const auto& [n, l] : level) nodes[n].level = l;
    for (int n : order) {
      for (int p : nodes[n].preds) {
        nodes[n].level = std::max(nodes[n].level, nodes[p].level + 1);
      }
    }
  };
  const auto merge = [&](std::size_t a, std::size_t b) {
    nodes[a].instrs.insert(nodes[a].instrs.end(), nodes[b].instrs.begin(),
                           nodes[b].instrs.end());
    std::sort(nodes[a].instrs.begin(), nodes[a].instrs.end());
    nodes[b].alive = false;
    rebuild();
  };
  const auto fits = [&](std::size_t a, std::size_t b) {
    return nodes[a].alive && nodes[b].alive && a != b &&
           nodes[a].classes == nodes[b].classes &&
           nodes[a].instrs.size() + nodes[b].instrs.size() <=
               static_cast<std::size_t>(opts.max_block_instrs);
  };
  rebuild();
  for (bool changed = opts.merge; changed;) {  // intra-level
    changed = false;
    for (std::size_t a = 0; a < nodes.size() && !changed; ++a) {
      for (std::size_t b = a + 1; b < nodes.size() && !changed; ++b) {
        if (!fits(a, b) || nodes[a].level != nodes[b].level) continue;
        bool share = nodes[a].preds.empty() && nodes[b].preds.empty();
        for (int p : nodes[a].preds) share |= nodes[b].preds.count(p) > 0;
        if (share) merge(a, b), changed = true;
      }
    }
  }
  for (bool changed = opts.merge; changed;) {  // inter-level
    changed = false;
    for (std::size_t a = 0; a < nodes.size() && !changed; ++a) {
      for (std::size_t b = 0; b < nodes.size() && !changed; ++b) {
        if (!fits(a, b) || nodes[b].preds != std::set<int>{int(a)} ||
            nodes[b].level != nodes[a].level + 1) {
          continue;
        }
        merge(a, b), changed = true;
      }
    }
  }
  std::vector<std::size_t> order;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].alive) order.push_back(n);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return std::make_pair(nodes[x].level, nodes[x].instrs.front()) <
           std::make_pair(nodes[y].level, nodes[y].instrs.front());
  });
  RefDag ref;
  std::map<int, int> block_of;
  for (std::size_t k = 0; k < order.size(); ++k) {
    block_of[static_cast<int>(order[k])] = static_cast<int>(k);
  }
  ref.prefix_score.push_back(0.0);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& n = nodes[order[k]];
    Block b;
    b.id = static_cast<int>(k);
    b.instrs = n.instrs;
    b.classes = n.classes;
    b.level = n.level;
    b.demand = device::demandOfInstrs(prog, n.instrs);
    for (int p : n.preds) b.deps.push_back(block_of.at(p));
    std::sort(b.deps.begin(), b.deps.end());
    for (int i : n.instrs) {
      const int sid = prog.instrs[static_cast<std::size_t>(i)].state_id;
      b.stateful |=
          sid >= 0 && prog.states[static_cast<std::size_t>(sid)].stateful;
    }
    ref.prefix_score.push_back(ref.prefix_score.back() +
                               demandScore(b.demand));
    ref.blocks.push_back(std::move(b));
  }
  const auto instrsIn = [&](std::size_t from, std::size_t to) {
    std::vector<int> out;
    for (std::size_t k = from; k < to; ++k) {
      const auto& n = nodes[order[k]];
      out.insert(out.end(), n.instrs.begin(), n.instrs.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  ref.cut_bits.assign(order.size() + 1, 0);
  for (std::size_t k = 1; k < order.size(); ++k) {
    ref.cut_bits[k] = ir::paramBitsAcrossCut(prog, instrsIn(0, k),
                                             instrsIn(k, order.size()));
  }
  return ref;
}

void expectMatchesReference(const ir::IrProgram& prog,
                            const BlockDagOptions& opts) {
  SCOPED_TRACE(cat(prog.name, " merge=", opts.merge,
                   " max_block_instrs=", opts.max_block_instrs));
  const auto dag = BlockDag::build(prog, opts);
  const auto ref = referenceBlockDag(prog, opts);
  ASSERT_EQ(dag.size(), static_cast<int>(ref.blocks.size()));
  for (int k = 0; k < dag.size(); ++k) {
    const auto& got = dag.blocks()[static_cast<std::size_t>(k)];
    const auto& want = ref.blocks[static_cast<std::size_t>(k)];
    EXPECT_EQ(got.id, k);
    EXPECT_EQ(got.instrs, want.instrs) << "block " << k;
    EXPECT_EQ(got.classes, want.classes) << "block " << k;
    EXPECT_EQ(got.level, want.level) << "block " << k;
    EXPECT_EQ(got.deps, want.deps) << "block " << k;
    EXPECT_EQ(got.stateful, want.stateful) << "block " << k;
    EXPECT_TRUE(got.demand == want.demand) << "block " << k;
  }
  for (int i = 0; i <= dag.size(); ++i) {
    EXPECT_EQ(dag.cutBits(i), ref.cut_bits[static_cast<std::size_t>(i)])
        << "cut " << i;
    EXPECT_EQ(dag.scoreOf(0, i), ref.prefix_score[static_cast<std::size_t>(i)])
        << "prefix " << i;
  }
}

// Every template at several parameter sets, including the Fig. 7
// sparse-MLAgg source the benchmark submits.
std::vector<ir::IrProgram> parityPrograms() {
  modules::ModuleLibrary lib;
  std::vector<ir::IrProgram> progs;
  for (std::uint64_t dim : {4, 16, 32}) {
    progs.push_back(lib.compileTemplate(
        "MLAgg", cat("mlagg", dim),
        {{"NumAgg", 1024}, {"Dim", dim}, {"NumWorker", 3}, {"IsConvert", 0}}));
  }
  for (std::uint64_t dim : {16, 32}) {
    lang::HeaderSpec hdr;
    hdr.add("op", 8);
    hdr.add("seq", 32);
    hdr.add("bitmap", 32);
    hdr.add("overflow", 8);
    hdr.add("data", 32, static_cast<int>(dim));
    progs.push_back(lib.compileUser(
        modules::sparseMlaggSource(), cat("sparse", dim), hdr,
        {{"BlockNum", dim / 4}, {"BlockSize", 4}, {"NumAgg", 1024},
         {"Dim", dim}, {"NumWorker", 2}, {"IsConvert", 0}, {"Scale", 1},
         {"DATA", 1}, {"ACK", 2}, {"CheckOverflow", 1}}));
  }
  for (std::uint64_t size : {256, 1024}) {
    progs.push_back(lib.compileTemplate(
        "KVS", cat("kvs", size),
        {{"CacheSize", size}, {"ValDim", 4}, {"TH", 16}}));
  }
  progs.push_back(lib.compileTemplate("KVS", "kvs_default"));
  for (std::uint64_t len : {2, 4, 8}) {
    progs.push_back(lib.compileTemplate(
        "DQAcc", cat("dqacc", len), {{"CacheDepth", 1024}, {"CacheLen", len}}));
  }
  return progs;
}

TEST(BlockDag, MatchesRebuildEverythingReference) {
  for (const auto& prog : parityPrograms()) {
    for (bool merge : {true, false}) {
      for (int max_instrs : {2, 4, 8, 16, 32}) {
        BlockDagOptions opts;
        opts.merge = merge;
        opts.max_block_instrs = max_instrs;
        expectMatchesReference(prog, opts);
      }
    }
  }
}

TEST(BlockDag, LevelIsLongestPathFromASource) {
  for (const auto& prog : parityPrograms()) {
    for (bool merge : {true, false}) {
      BlockDagOptions opts;
      opts.merge = merge;
      const auto dag = BlockDag::build(prog, opts);
      // deps precede their block in the linearization, so one forward pass
      // computes every block's longest path.
      std::vector<int> longest;
      for (const auto& b : dag.blocks()) {
        int l = 0;
        for (int d : b.deps) {
          ASSERT_LT(d, b.id);
          l = std::max(l, longest[static_cast<std::size_t>(d)] + 1);
        }
        longest.push_back(l);
        EXPECT_EQ(b.level, l) << prog.name << " block " << b.id;
      }
    }
  }
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
  const auto tofino = device::makeTofino();
  const auto occ = DeviceOccupancy::fresh(tofino);
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
  const auto tofino = device::makeTofino();
  const auto occ = DeviceOccupancy::fresh(tofino);
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  EXPECT_FALSE(placeCompact(occ, prog, all).feasible);  // BSEM on Tofino
  const auto nfp = device::makeNfp();
  const auto nfp_occ = DeviceOccupancy::fresh(nfp);
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
  const auto tofino = device::makeTofino();
  const auto occ = DeviceOccupancy::fresh(tofino);
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

// Reference for placeCompact on pipeline devices: the set-based search it
// replaced. Every stage probe copies the (stage, state) site set and
// re-derives each group member's demand through it; placeCompact computes
// the group's stage-independent demand once and keeps flat tables instead.
bool refIsStatefulClass(ir::InstrClass c) {
  return c == ir::InstrClass::kBSO || c == ir::InstrClass::kBSEM ||
         c == ir::InstrClass::kBSNEM;
}

bool refIsTableLookup(const ir::Instruction& ins) {
  switch (ins.cls()) {
    case ir::InstrClass::kBEM:
    case ir::InstrClass::kBSEM:
    case ir::InstrClass::kBNEM:
    case ir::InstrClass::kBSNEM:
    case ir::InstrClass::kBDM:
      return true;
    default:
      return false;
  }
}

device::ResourceDemand refSiteDemand(const ir::IrProgram& prog,
                                     const ir::Instruction& ins,
                                     const device::DeviceModel& model,
                                     std::set<std::pair<int, int>>* seen,
                                     int stage) {
  device::ResourceDemand d = device::instrDemand(ins);
  if (ins.state_id >= 0) {
    if (seen->insert(std::make_pair(stage, ins.state_id)).second) {
      device::ResourceDemand st = device::stateDemand(
          prog.states[static_cast<std::size_t>(ins.state_id)]);
      st.sram_bits = ceilDiv(st.sram_bits, model.sram_block_bits) *
                     model.sram_block_bits;
      if (st.tcam_bits > 0) {
        st.tcam_bits = ceilDiv(st.tcam_bits, model.tcam_block_bits) *
                       model.tcam_block_bits;
      }
      d.add(st);
    } else if (refIsStatefulClass(ins.cls())) {
      d.salus = 0;
      d.tables = 0;
      d.hash_units = 0;
    }
  }
  return d;
}

IntraPlacement referenceCompact(const DeviceOccupancy& occ,
                                const ir::IrProgram& prog,
                                const std::vector<int>& instrs, int min_stage,
                                const ir::Analysis& analysis) {
  IntraPlacement out;
  out.instr_idxs = instrs;
  if (instrs.empty()) {
    out.feasible = true;
    return out;
  }
  for (int i : instrs) {
    if (!occ.model->supportsOpcode(
            prog.instrs[static_cast<std::size_t>(i)].op)) {
      out.why = cat("unsupported opcode ",
                    ir::opcodeName(prog.instrs[static_cast<std::size_t>(i)].op));
      return out;
    }
  }
  const ir::DepGraph& dep = analysis.dep;
  const int num_stages = occ.model->num_stages;
  std::vector<device::ResourceDemand> free = occ.free_stage;
  std::map<int, int> stage_by_instr;
  std::set<std::pair<int, int>> state_sites;
  out.stage_of.assign(instrs.size(), -1);
  std::map<int, std::vector<std::size_t>> group_of_state;
  for (std::size_t k = 0; k < instrs.size(); ++k) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(instrs[k])];
    if (ins.state_id >= 0) group_of_state[ins.state_id].push_back(k);
  }
  auto earliestFor = [&](int i) {
    int earliest = min_stage;
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    for (int j : dep.deps[static_cast<std::size_t>(i)]) {
      auto it = stage_by_instr.find(j);
      if (it == stage_by_instr.end()) continue;
      if (analysis.sameScc(i, j)) continue;
      const auto& producer = prog.instrs[static_cast<std::size_t>(j)];
      const bool fused = refIsTableLookup(producer) && !refIsTableLookup(ins);
      earliest = std::max(earliest, it->second + (fused ? 0 : 1));
    }
    return earliest;
  };
  std::vector<bool> done(instrs.size(), false);
  for (std::size_t k = 0; k < instrs.size(); ++k) {
    if (done[k]) continue;
    const int i = instrs[k];
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    ++out.steps;
    std::vector<std::size_t> members = {k};
    if (ins.state_id >= 0) members = group_of_state.at(ins.state_id);
    int earliest = min_stage;
    for (std::size_t mk : members) {
      earliest = std::max(earliest, earliestFor(instrs[mk]));
    }
    int placed_stage = -1;
    for (int s = earliest; s < num_stages; ++s) {
      ++out.steps;
      std::set<std::pair<int, int>> probe = state_sites;
      device::ResourceDemand combined;
      for (std::size_t mk : members) {
        combined.add(refSiteDemand(
            prog, prog.instrs[static_cast<std::size_t>(instrs[mk])],
            *occ.model, &probe, s));
      }
      auto& budget = free[static_cast<std::size_t>(s)];
      if (combined.fitsWithin(budget)) {
        budget.salus -= combined.salus;
        budget.alus -= combined.alus;
        budget.hash_units -= combined.hash_units;
        budget.tables -= combined.tables;
        budget.gateways -= combined.gateways;
        budget.special_fns -= combined.special_fns;
        budget.sram_bits -= combined.sram_bits;
        budget.tcam_bits -= combined.tcam_bits;
        budget.micro_instrs -= combined.micro_instrs;
        budget.dsps -= combined.dsps;
        budget.luts -= combined.luts;
        budget.ffs -= combined.ffs;
        state_sites = std::move(probe);
        placed_stage = s;
        break;
      }
    }
    if (placed_stage < 0) {
      out.why = cat("no stage fits instr #", i, " (", ins.toString(),
                    ") earliest=", earliest);
      return out;
    }
    for (std::size_t mk : members) {
      stage_by_instr[instrs[mk]] = placed_stage;
      out.stage_of[mk] = placed_stage;
      done[mk] = true;
    }
  }
  out.feasible = true;
  int lo = num_stages, hi = -1;
  for (int s : out.stage_of) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  out.stages_used = hi - lo + 1;
  out.total = device::demandOfInstrs(prog, instrs);
  return out;
}

// Commits the longest block prefix of `tenant` that fits, so the device
// under test is partly filled by someone else.
void commitOtherTenant(DeviceOccupancy& occ, const ir::IrProgram& tenant) {
  const auto dag = BlockDag::build(tenant);
  for (int j = dag.size(); j > 0; --j) {
    const auto p = placeCompact(occ, tenant, dag.instrsOf(0, j));
    if (p.feasible) {
      commitPlacement(occ, tenant, p);
      return;
    }
  }
}

TEST(IntraDevice, CompactMatchesSetBasedReference) {
  const auto progs = parityPrograms();
  const std::vector<device::DeviceModel> models = {
      device::makeTofino(), device::makeTofino2(), device::makeTrident4()};
  long feasible = 0, infeasible = 0, shared_groups = 0;
  for (std::size_t p = 0; p < progs.size(); ++p) {
    const auto& prog = progs[p];
    const auto dag = BlockDag::build(prog);
    for (const auto& model : models) {
      // Fresh, then after one and two other tenants committed.
      std::vector<DeviceOccupancy> occs = {DeviceOccupancy::fresh(model)};
      for (std::size_t other : {p + 1, p + 2}) {
        DeviceOccupancy occ = occs.back();
        commitOtherTenant(occ, progs[other % progs.size()]);
        occs.push_back(std::move(occ));
      }
      for (std::size_t o = 0; o < occs.size(); ++o) {
        for (int min_stage : {0, 3}) {
          for (int i = 0; i < dag.size(); ++i) {
            for (int j = i + 1; j <= dag.size(); ++j) {
              SCOPED_TRACE(cat(prog.name, " on ", model.name, " tenants=", o,
                               " min_stage=", min_stage, " [", i, ", ", j,
                               ")"));
              const auto instrs = dag.instrsOf(i, j);
              const auto got = placeCompact(occs[o], prog, instrs, min_stage,
                                            &dag.analysis());
              const auto want = referenceCompact(occs[o], prog, instrs,
                                                 min_stage, dag.analysis());
              ASSERT_EQ(got.feasible, want.feasible);
              EXPECT_EQ(got.why, want.why);
              EXPECT_EQ(got.instr_idxs, want.instr_idxs);
              EXPECT_EQ(got.stage_of, want.stage_of);
              EXPECT_EQ(got.stages_used, want.stages_used);
              EXPECT_TRUE(got.total == want.total);
              ASSERT_EQ(got.steps, want.steps);
              ++(got.feasible ? feasible : infeasible);
              std::map<int, int> touches;
              for (int idx : instrs) {
                const int sid = prog.instrs[static_cast<std::size_t>(idx)]
                                    .state_id;
                if (sid >= 0 && ++touches[sid] == 2) ++shared_groups;
              }
            }
          }
        }
      }
    }
  }
  // Both outcomes occur, and many probed ranges hold multi-touch states.
  EXPECT_GT(feasible, 1000);
  EXPECT_GT(infeasible, 1000);
  EXPECT_GT(shared_groups, 1000);
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

TEST_F(PlanEquivalence, MemoHitsAtOtherOffsetsCarryTheirOwnInstructions) {
  // Program b is program a behind an extra header update, so a's segments
  // recur in b at later instruction indices. Memo entries hold no
  // instruction list; b's plan must carry b's own indices and equal the
  // plan b gets from a cold arena.
  const auto topo = topo::Topology::paperEmulation();
  const auto spec = specFor(topo, {"pod0a", "pod1a"}, "pod2b");
  const auto tree = buildEcTree(topo, spec);
  modules::ModuleLibrary lib;
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  hdr.add("tag", 32);
  const std::map<std::string, std::uint64_t> params = {{"CacheDepth", 1024},
                                                       {"CacheLen", 4}};
  const std::string dq = "d = DQAcc(CacheDepth, CacheLen)\nd(hdr)\n";
  const auto a = lib.compileUser(dq, "a", hdr, params);
  const auto b =
      lib.compileUser("hdr.tag = hdr.tag + 7\n" + dq, "b", hdr, params);
  ASSERT_GT(b.instrs.size(), a.instrs.size());
  const auto dag_a = BlockDag::build(a);
  const auto dag_b = BlockDag::build(b);
  const OccupancyMap occ(&topo);
  PlacementArena warm;
  ASSERT_TRUE(placeProgram(dag_a, tree, topo, occ, {}, &warm).feasible);
  const long hits_before = warm.memo().hits();
  const auto got = placeProgram(dag_b, tree, topo, occ, {}, &warm);
  PlacementArena cold;
  const auto want = placeProgram(dag_b, tree, topo, occ, {}, &cold);
  // Some of b's searches were answered by a's entries.
  EXPECT_LT(got.stats.intra_calls, want.stats.intra_calls);
  EXPECT_GT(warm.memo().hits() - hits_before, want.stats.intra_memo_hits);
  expectPlansEqual(got, want);
  ASSERT_TRUE(got.feasible);
  for (const auto& asg : got.assignments) {
    const int split = asg.bypass_from >= 0 ? asg.bypass_from : asg.to_block;
    for (const auto& [dev, p] : asg.on_device) {
      EXPECT_EQ(p.instr_idxs, dag_b.instrsOf(asg.from_block, split))
          << "device " << dev;
    }
    for (const auto& [dev, p] : asg.on_bypass) {
      EXPECT_EQ(p.instr_idxs, dag_b.instrsOf(split, asg.to_block))
          << "bypass " << dev;
    }
  }
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
  EXPECT_GT(plan.stats.intra_calls, 0);
  // EC nodes in the paper topology hold >= 2 identical replicas, so the
  // replica memo must fire.
  EXPECT_GT(plan.stats.intra_memo_hits, 0);
  EXPECT_GT(plan.stats.intraMemoHitRate(), 0.0);
  EXPECT_EQ(plan.stats.segCacheHitRate(), 0.0);
  // The reference path reports direct calls only.
  PlacementOptions ref;
  ref.fast = false;
  const auto slow = placeProgram(dag, tree, topo, occ, ref);
  EXPECT_EQ(slow.stats.intra_memo_hits, 0);
  EXPECT_EQ(slow.stats.early_breaks, 0);
  EXPECT_GT(slow.stats.intra_calls, plan.stats.intra_calls);
}

// One-block segment [from, from+1) holding instruction `from` at `stage`
// on every listed device.
NodeAssignment segment(int from, std::initializer_list<int> devices,
                       int stage = 0) {
  NodeAssignment a;
  a.from_block = from;
  a.to_block = from + 1;
  for (int dev : devices) {
    auto& p = a.on_device[dev];
    p.instr_idxs = {from};
    p.stage_of = {stage};
  }
  return a;
}

PlacementPlan planOf(std::vector<NodeAssignment> assignments) {
  PlacementPlan plan;
  plan.feasible = true;
  plan.assignments = std::move(assignments);
  return plan;
}

TEST(PinUnchanged, IdenticalPlansPinEverything) {
  const auto plan = planOf({segment(0, {1, 2}), segment(1, {2, 3}),
                            segment(2, {4})});
  const PinDiff d = pinUnchanged(plan, plan);
  EXPECT_EQ(d.pinned_old, (std::vector<char>{1, 1, 1}));
  EXPECT_EQ(d.pinned_new, (std::vector<char>{1, 1, 1}));
  EXPECT_TRUE(d.unpinned_old_devices.empty());
  EXPECT_TRUE(d.unpinned_new_devices.empty());
}

TEST(PinUnchanged, PinSharingADeviceWithAMovedSegmentIsDemotedInCascade) {
  // Segment 2 moves from device 4 onto device 3. Segment 1 shares device
  // 3 with it, so its pin is demoted; that puts device 2 in churn, which
  // demotes segment 0 on the next round. Segment 3 shares nothing.
  const auto old_plan = planOf({segment(0, {1, 2}), segment(1, {2, 3}),
                                segment(2, {4}), segment(3, {5})});
  const auto new_plan = planOf({segment(0, {1, 2}), segment(1, {2, 3}),
                                segment(2, {3}), segment(3, {5})});
  const PinDiff d = pinUnchanged(old_plan, new_plan);
  EXPECT_EQ(d.pinned_old, (std::vector<char>{0, 0, 0, 1}));
  EXPECT_EQ(d.pinned_new, (std::vector<char>{0, 0, 0, 1}));
  EXPECT_EQ(d.unpinned_old_devices, (std::set<int>{1, 2, 3, 4}));
  EXPECT_EQ(d.unpinned_new_devices, (std::set<int>{1, 2, 3}));

  // A different stage on the same device is a different segment.
  const auto restaged = planOf({segment(0, {1, 2}), segment(1, {2, 3}),
                                segment(2, {4}), segment(3, {5}, 1)});
  const PinDiff r = pinUnchanged(old_plan, restaged);
  EXPECT_EQ(r.pinned_new, (std::vector<char>{1, 1, 1, 0}));
  EXPECT_EQ(r.unpinned_old_devices, (std::set<int>{5}));
  EXPECT_EQ(r.unpinned_new_devices, (std::set<int>{5}));
}

TEST(PinUnchanged, DisjointPlansPinNothing) {
  const auto old_plan = planOf({segment(0, {1}), segment(1, {2})});
  const auto new_plan = planOf({segment(0, {3}), segment(1, {4})});
  const PinDiff d = pinUnchanged(old_plan, new_plan);
  EXPECT_EQ(d.pinned_old, (std::vector<char>{0, 0}));
  EXPECT_EQ(d.pinned_new, (std::vector<char>{0, 0}));
  EXPECT_EQ(d.unpinned_old_devices, (std::set<int>{1, 2}));
  EXPECT_EQ(d.unpinned_new_devices, (std::set<int>{3, 4}));
}

TEST(PinUnchanged, EmptyNewPlanPinsNothing) {
  // Failover's server-only degradation swaps in a plan with no
  // assignments: the whole old data plane is stripped.
  const auto old_plan = planOf({segment(0, {1, 2}), segment(1, {3})});
  const PinDiff d = pinUnchanged(old_plan, planOf({}));
  EXPECT_EQ(d.pinned_old, (std::vector<char>{0, 0}));
  EXPECT_TRUE(d.pinned_new.empty());
  EXPECT_EQ(d.unpinned_old_devices, (std::set<int>{1, 2, 3}));
  EXPECT_TRUE(d.unpinned_new_devices.empty());
}

TEST(OccupancyFingerprint, EqualStatesHashEqual) {
  const auto model = device::makeTofino();
  const auto a = DeviceOccupancy::fresh(model);
  const auto b = DeviceOccupancy::fresh(model);
  EXPECT_EQ(occupancyFingerprint(a), occupancyFingerprint(b));
  // Different models differ.
  const auto nfp_model = device::makeNfp();
  const auto nfp = DeviceOccupancy::fresh(nfp_model);
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
