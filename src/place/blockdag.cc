#include "place/blockdag.h"

#include <algorithm>
#include <iterator>

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

}  // namespace

BlockDag BlockDag::build(const ir::IrProgram& prog,
                         const BlockDagOptions& opts) {
  BlockDag dag;
  dag.prog_ = &prog;
  const ir::DepGraph dep = ir::buildDepGraph(prog);

  // Step 1+2: SCC condensation groups state-sharing instructions and any
  // dependency loops into inseparable nodes, already topologically ordered.
  const auto comps = ir::stronglyConnectedComponents(dep);

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
  for (int i = 1; i < n; ++i) {
    cut_bits_[static_cast<std::size_t>(i)] =
        ir::paramBitsAcrossCut(*prog_, instrsOf(0, i), instrsOf(i, n));
  }
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
