#include "place/blockdag.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/error.h"

namespace clickinc::place {

double demandScore(const device::ResourceDemand& d) {
  return static_cast<double>(d.memoryBits()) / 1e3 +
         10.0 * (d.salus + d.alus + d.hash_units + d.tables +
                 d.special_fns) +
         static_cast<double>(d.micro_instrs);
}

namespace {

ir::ClassMask classesOf(const ir::IrProgram& prog,
                        const std::vector<int>& instrs) {
  ir::ClassMask m = 0;
  for (int i : instrs) {
    m |= ir::classBit(prog.instrs[static_cast<std::size_t>(i)].cls());
  }
  return m;
}

// Internal mutable node during merging.
struct WorkNode {
  std::vector<int> instrs;
  ir::ClassMask classes = 0;
  std::vector<int> preds;  // sorted node indices
  int level = 0;
  bool alive = true;
};

bool sharesPred(const WorkNode& x, const WorkNode& y) {
  auto i = x.preds.begin();
  auto j = y.preds.begin();
  while (i != x.preds.end() && j != y.preds.end()) {
    if (*i == *j) return true;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Node preds from instruction-level dependencies, once per build.
void initialEdges(const ir::DepGraph& dep, std::vector<WorkNode>& nodes) {
  std::vector<int> node_of_instr(static_cast<std::size_t>(dep.n), -1);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (int i : nodes[n].instrs) {
      node_of_instr[static_cast<std::size_t>(i)] = static_cast<int>(n);
    }
  }
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    auto& preds = nodes[n].preds;
    for (int i : nodes[n].instrs) {
      for (int j : dep.deps[static_cast<std::size_t>(i)]) {
        const int nj = node_of_instr[static_cast<std::size_t>(j)];
        if (nj != static_cast<int>(n)) preds.push_back(nj);
      }
    }
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  }
}

// Buffers absorb and assignLevels reuse across the merges of one build.
// Fresh ones per merge fragment the heap: on the churn benchmark they
// raised peak RSS by ~1.4 MB.
struct MergeScratch {
  std::vector<int> preds;
  std::vector<std::vector<int>> succs;
  std::vector<int> indeg;
  std::vector<int> ready;
};

// Merges node b into node a in O(N + E), leaving exactly the preds a full
// rebuild from instruction dependencies would derive: b's instructions
// now map to a, so a's preds become (preds(a) | preds(b)) - {a, b} and
// every other live node sees pred a wherever it saw b.
void absorb(std::vector<WorkNode>& nodes, std::size_t a, std::size_t b,
            MergeScratch& scratch) {
  const int ia = static_cast<int>(a);
  const int ib = static_cast<int>(b);
  auto& na = nodes[a];
  auto& nb = nodes[b];
  na.instrs.insert(na.instrs.end(), nb.instrs.begin(), nb.instrs.end());
  std::sort(na.instrs.begin(), na.instrs.end());
  auto& preds = scratch.preds;
  preds.clear();
  std::set_union(na.preds.begin(), na.preds.end(), nb.preds.begin(),
                 nb.preds.end(), std::back_inserter(preds));
  std::erase_if(preds, [&](int p) { return p == ia || p == ib; });
  na.preds.assign(preds.begin(), preds.end());
  nb.alive = false;
  nb.preds.clear();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (!nodes[n].alive || n == a) continue;
    auto& p = nodes[n].preds;
    const auto it = std::lower_bound(p.begin(), p.end(), ib);
    if (it == p.end() || *it != ib) continue;
    p.erase(it);
    const auto at = std::lower_bound(p.begin(), p.end(), ia);
    if (at == p.end() || *at != ia) p.insert(at, ia);
  }
}

// Longest-path levels over live nodes by Kahn over successor lists, in
// O(N + E); throws on a residual cycle (cannot happen after SCC
// condensation). Sources sit at level 0: a merge never leaves a node that
// had preds without one (an intra-level pair keeps its shared pred, an
// inter-level absorb keeps a's preds, and a renamed pred stays a pred), so
// no source carries a level from an earlier pass.
void assignLevels(std::vector<WorkNode>& nodes, MergeScratch& scratch) {
  auto& succs = scratch.succs;
  auto& indeg = scratch.indeg;
  auto& ready = scratch.ready;
  succs.resize(nodes.size());
  for (auto& s : succs) s.clear();
  indeg.assign(nodes.size(), 0);
  ready.clear();
  std::size_t live = 0;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (!nodes[n].alive) continue;
    ++live;
    nodes[n].level = 0;
    indeg[n] = static_cast<int>(nodes[n].preds.size());
    if (indeg[n] == 0) ready.push_back(static_cast<int>(n));
    for (int p : nodes[n].preds) {
      succs[static_cast<std::size_t>(p)].push_back(static_cast<int>(n));
    }
  }
  std::size_t done = 0;
  while (!ready.empty()) {
    const auto n = static_cast<std::size_t>(ready.back());
    ready.pop_back();
    ++done;
    for (int m : succs[n]) {
      auto& node = nodes[static_cast<std::size_t>(m)];
      node.level = std::max(node.level, nodes[n].level + 1);
      if (--indeg[static_cast<std::size_t>(m)] == 0) ready.push_back(m);
    }
  }
  CLICKINC_CHECK(done == live, "cycle in block DAG");
}

// Every cut's ir::paramBitsAcrossCut(instrsOf(0, i), instrsOf(i, n)) in
// one backward sweep over the blocks. A variable crosses cut i exactly
// when its first defining block lies before i and some use lies at or
// after i; it counts once, at the width of its first use after the cut
// in program order (instruction index, then source position, guard
// last). Walking i downward only adds uses, so each variable's earliest
// use — and the running sum — updates in place: O(operands) in total.
void sweepCutBits(const ir::IrProgram& prog, const std::vector<Block>& blocks,
                  std::vector<int>& cut_bits) {
  const int n = static_cast<int>(blocks.size());
  if (n < 2) return;
  struct Var {
    int def_block = std::numeric_limits<int>::max();
    bool used = false;
    bool crossing = false;  // counted in the running sum
    int first_instr = 0;    // earliest use seen so far
    std::size_t first_pos = 0;
    int width = 0;          // its operand width
  };
  std::unordered_map<std::string_view, int> id_of;
  std::vector<Var> vars;
  auto varOf = [&](const ir::Operand& o) -> Var& {
    const auto [it, inserted] =
        id_of.try_emplace(o.name, static_cast<int>(vars.size()));
    if (inserted) vars.emplace_back();
    return vars[static_cast<std::size_t>(it->second)];
  };
  for (int b = 0; b < n; ++b) {
    for (int idx : blocks[static_cast<std::size_t>(b)].instrs) {
      const auto& ins = prog.instrs[static_cast<std::size_t>(idx)];
      for (const ir::Operand* d : {&ins.dest, &ins.dest2}) {
        if (!d->isVar()) continue;
        Var& v = varOf(*d);
        v.def_block = std::min(v.def_block, b);
      }
    }
  }
  int bits = 0;
  std::vector<Var*> newly_used;
  for (int b = n - 1; b >= 1; --b) {
    newly_used.clear();
    const auto& blk = blocks[static_cast<std::size_t>(b)];
    for (int idx : blk.instrs) {
      const auto& ins = prog.instrs[static_cast<std::size_t>(idx)];
      auto use = [&](const ir::Operand& o, std::size_t pos) {
        if (!o.isVar()) return;
        const auto it = id_of.find(o.name);
        if (it == id_of.end()) return;  // never defined: not a Param
        Var& v = vars[static_cast<std::size_t>(it->second)];
        if (v.used && std::pair(v.first_instr, v.first_pos) <
                          std::pair(idx, pos)) {
          return;
        }
        if (!v.used) newly_used.push_back(&v);
        if (v.crossing) bits += o.width - v.width;
        v.used = true;
        v.first_instr = idx;
        v.first_pos = pos;
        v.width = o.width;
      };
      for (std::size_t k = 0; k < ins.srcs.size(); ++k) use(ins.srcs[k], k);
      if (ins.pred) use(*ins.pred, ins.srcs.size());
    }
    // Defined only from block b on: no longer defined before the cut.
    for (int idx : blk.instrs) {
      const auto& ins = prog.instrs[static_cast<std::size_t>(idx)];
      for (const ir::Operand* d : {&ins.dest, &ins.dest2}) {
        if (!d->isVar()) continue;
        Var& v = vars[static_cast<std::size_t>(id_of.at(d->name))];
        if (v.crossing && v.def_block == b) {
          bits -= v.width;
          v.crossing = false;
        }
      }
    }
    for (Var* v : newly_used) {
      if (v->def_block < b) {
        bits += v->width;
        v->crossing = true;
      }
    }
    cut_bits[static_cast<std::size_t>(b)] = bits;
  }
}

}  // namespace

BlockDag BlockDag::build(const ir::IrProgram& prog,
                         const BlockDagOptions& opts) {
  BlockDag dag;
  dag.prog_ = &prog;
  // Step 1+2: SCC condensation groups state-sharing instructions and any
  // dependency loops into inseparable nodes, already topologically ordered.
  // The analysis is kept for the placers.
  std::vector<std::vector<int>> comps;
  dag.analysis_ = ir::analyzeProgram(prog, &comps);
  const ir::DepGraph& dep = dag.analysis_.dep;

  std::vector<WorkNode> nodes;
  nodes.reserve(comps.size());
  for (const auto& comp : comps) {
    WorkNode n;
    n.instrs = comp;
    n.classes = classesOf(prog, comp);
    nodes.push_back(std::move(n));
  }
  initialEdges(dep, nodes);
  MergeScratch scratch;
  assignLevels(nodes, scratch);

  if (opts.merge) {
    // Step 3a: intra-partition merge — same Kahn level, same type, sharing
    // a predecessor (or both entry nodes), within the size threshold.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t a = 0; a < nodes.size() && !changed; ++a) {
        if (!nodes[a].alive) continue;
        for (std::size_t b = a + 1; b < nodes.size() && !changed; ++b) {
          if (!nodes[b].alive) continue;
          if (nodes[a].level != nodes[b].level) continue;
          if (nodes[a].classes != nodes[b].classes) continue;
          const std::size_t total =
              nodes[a].instrs.size() + nodes[b].instrs.size();
          if (total > static_cast<std::size_t>(opts.max_block_instrs)) {
            continue;
          }
          const bool both_entry =
              nodes[a].preds.empty() && nodes[b].preds.empty();
          if (!both_entry && !sharesPred(nodes[a], nodes[b])) continue;
          absorb(nodes, a, b, scratch);
          assignLevels(nodes, scratch);
          changed = true;
        }
      }
    }
    // Step 3b: inter-partition merge — absorb a sole-successor node of the
    // same type from the next level; repeat to fixpoint.
    changed = true;
    while (changed) {
      changed = false;
      for (std::size_t a = 0; a < nodes.size() && !changed; ++a) {
        if (!nodes[a].alive) continue;
        for (std::size_t b = 0; b < nodes.size() && !changed; ++b) {
          if (!nodes[b].alive || a == b) continue;
          if (nodes[b].preds.size() != 1 ||
              nodes[b].preds.front() != static_cast<int>(a)) {
            continue;
          }
          if (nodes[b].level != nodes[a].level + 1) continue;
          if (nodes[a].classes != nodes[b].classes) continue;
          const std::size_t total =
              nodes[a].instrs.size() + nodes[b].instrs.size();
          if (total > static_cast<std::size_t>(opts.max_block_instrs)) {
            continue;
          }
          absorb(nodes, a, b, scratch);
          assignLevels(nodes, scratch);
          changed = true;
        }
      }
    }
  }

  // Linearize: stable order by (level, first instruction index).
  std::vector<std::size_t> alive_order;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].alive) alive_order.push_back(n);
  }
  std::sort(alive_order.begin(), alive_order.end(),
            [&](std::size_t x, std::size_t y) {
              if (nodes[x].level != nodes[y].level) {
                return nodes[x].level < nodes[y].level;
              }
              return nodes[x].instrs.front() < nodes[y].instrs.front();
            });

  std::vector<int> block_of_node(nodes.size(), -1);
  for (std::size_t k = 0; k < alive_order.size(); ++k) {
    const auto& n = nodes[alive_order[k]];
    Block b;
    b.id = static_cast<int>(k);
    b.instrs = n.instrs;
    b.classes = n.classes;
    b.level = n.level;
    b.demand = device::demandOfInstrs(prog, n.instrs);
    for (int i : n.instrs) {
      const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
      if (ins.state_id >= 0 &&
          prog.states[static_cast<std::size_t>(ins.state_id)].stateful) {
        b.stateful = true;
      }
    }
    block_of_node[alive_order[k]] = b.id;
    dag.blocks_.push_back(std::move(b));
  }
  for (std::size_t k = 0; k < alive_order.size(); ++k) {
    for (int p : nodes[alive_order[k]].preds) {
      dag.blocks_[k].deps.push_back(
          block_of_node[static_cast<std::size_t>(p)]);
    }
    std::sort(dag.blocks_[k].deps.begin(), dag.blocks_[k].deps.end());
  }
  dag.finalize();
  return dag;
}

void BlockDag::finalize() {
  const int n = size();
  cut_bits_.assign(static_cast<std::size_t>(n) + 1, 0);
  prefix_score_.assign(static_cast<std::size_t>(n) + 1, 0.0);
  sweepCutBits(*prog_, blocks_, cut_bits_);
  for (int i = 0; i < n; ++i) {
    prefix_score_[static_cast<std::size_t>(i) + 1] =
        prefix_score_[static_cast<std::size_t>(i)] +
        demandScore(blocks_[static_cast<std::size_t>(i)].demand);
  }
}

std::vector<int> BlockDag::instrsOf(int from, int to) const {
  std::vector<int> out;
  for (int b = from; b < to; ++b) {
    const auto& blk = blocks_[static_cast<std::size_t>(b)];
    out.insert(out.end(), blk.instrs.begin(), blk.instrs.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

int BlockDag::cutBits(int i) const {
  if (i <= 0 || i >= size()) return 0;
  return cut_bits_[static_cast<std::size_t>(i)];
}

double BlockDag::scoreOf(int from, int to) const {
  return prefix_score_[static_cast<std::size_t>(to)] -
         prefix_score_[static_cast<std::size_t>(from)];
}

double BlockDag::totalScore() const {
  return prefix_score_.back();
}

bool BlockDag::statefulIn(int from, int to) const {
  for (int b = from; b < to; ++b) {
    if (blocks_[static_cast<std::size_t>(b)].stateful) return true;
  }
  return false;
}

}  // namespace clickinc::place
