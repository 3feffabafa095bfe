#include "ir/analysis.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/error.h"

namespace clickinc::ir {

bool DepGraph::hasEdge(int from, int to) const {
  const auto& d = deps[static_cast<std::size_t>(to)];
  return std::find(d.begin(), d.end(), from) != d.end();
}

std::vector<std::string> defNames(const Instruction& ins) {
  std::vector<std::string> out;
  if (ins.dest.isNamed()) out.push_back(ins.dest.name);
  if (ins.dest2.isNamed()) out.push_back(ins.dest2.name);
  return out;
}

std::vector<std::string> useNames(const Instruction& ins) {
  std::vector<std::string> out;
  for (const auto& s : ins.srcs) {
    if (s.isNamed()) out.push_back(s.name);
  }
  if (ins.pred && ins.pred->isNamed()) out.push_back(ins.pred->name);
  return out;
}

namespace {

void addEdge(DepGraph& g, int from, int to) {
  if (from == to) return;
  auto& d = g.deps[static_cast<std::size_t>(to)];
  if (std::find(d.begin(), d.end(), from) != d.end()) return;
  d.push_back(from);
  g.users[static_cast<std::size_t>(from)].push_back(to);
}

}  // namespace

DepGraph buildDepGraph(const IrProgram& prog) {
  const int n = static_cast<int>(prog.instrs.size());
  DepGraph g;
  g.n = n;
  g.deps.assign(static_cast<std::size_t>(n), {});
  g.users.assign(static_cast<std::size_t>(n), {});

  std::unordered_map<std::string, int> last_def;
  std::unordered_map<std::string, std::vector<int>> readers_since_def;

  for (int i = 0; i < n; ++i) {
    const Instruction& ins = prog.instrs[static_cast<std::size_t>(i)];
    // RAW: reads depend on the latest def.
    for (const auto& name : useNames(ins)) {
      auto it = last_def.find(name);
      if (it != last_def.end()) addEdge(g, it->second, i);
      readers_since_def[name].push_back(i);
    }
    // WAW + WAR on each written name.
    for (const auto& name : defNames(ins)) {
      auto it = last_def.find(name);
      if (it != last_def.end()) addEdge(g, it->second, i);
      for (int r : readers_since_def[name]) addEdge(g, r, i);
      last_def[name] = i;
      readers_since_def[name].clear();
    }
  }

  // Mutual dependency among instructions sharing a stateful object
  // (Lemma B.2): chain both directions between consecutive members so the
  // group is strongly connected and SCC merging fuses it.
  std::unordered_map<int, std::vector<int>> by_state;
  for (int i = 0; i < n; ++i) {
    const Instruction& ins = prog.instrs[static_cast<std::size_t>(i)];
    if (ins.state_id < 0) continue;
    const auto& st = prog.states[static_cast<std::size_t>(ins.state_id)];
    if (!st.stateful) continue;  // read-only tables may be replicated
    by_state[ins.state_id].push_back(i);
  }
  for (const auto& [sid, members] : by_state) {
    (void)sid;
    for (std::size_t k = 1; k < members.size(); ++k) {
      addEdge(g, members[k - 1], members[k]);
      addEdge(g, members[k], members[k - 1]);
    }
  }

  // A packet action (drop/fwd/back/mirror) executes where its decision is
  // made: group it — together with the header updates guarded by the same
  // predicate, e.g. back()'s reply fields — with the instruction defining
  // that predicate, exactly as a match-action table sets the drop flag and
  // rewrites headers in the deciding stage. This keeps verdicts (and their
  // payloads) on the earliest device that can decide.
  std::unordered_map<std::string, std::vector<int>> pred_users;
  for (int i = 0; i < n; ++i) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    if (ins.pred && ins.pred->isVar()) {
      pred_users[ins.pred->name].push_back(i);
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    if (!ins.info().packet_action) continue;
    if (!ins.pred || !ins.pred->isVar()) continue;
    auto def_it = last_def.find(ins.pred->name);
    if (def_it == last_def.end()) continue;
    std::vector<int> group{def_it->second};
    for (int u : pred_users[ins.pred->name]) group.push_back(u);
    for (std::size_t k = 1; k < group.size(); ++k) {
      addEdge(g, group[k - 1], group[k]);
      addEdge(g, group[k], group[k - 1]);
    }
  }

  // Packet-length bookkeeping (hdr._len, written by sparse-value
  // elimination) is a commutative accumulation: updates are mutually
  // dependent rather than order-chained, so they fuse into one atom
  // instead of a serial subtract chain as deep as the vector.
  std::vector<int> len_writers;
  for (int i = 0; i < n; ++i) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    if (ins.dest.isField() && ins.dest.name == "hdr._len") {
      len_writers.push_back(i);
    }
  }
  for (std::size_t k = 1; k < len_writers.size(); ++k) {
    addEdge(g, len_writers[k - 1], len_writers[k]);
    addEdge(g, len_writers[k], len_writers[k - 1]);
  }
  return g;
}

int paramBitsAcrossCut(const IrProgram& prog, const std::vector<int>& before,
                       const std::vector<int>& after) {
  std::unordered_set<std::string> defined_before;
  for (int i : before) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    if (ins.dest.isVar()) defined_before.insert(ins.dest.name);
    if (ins.dest2.isVar()) defined_before.insert(ins.dest2.name);
  }
  std::unordered_set<std::string> counted;
  int bits = 0;
  auto countUse = [&](const Operand& o) {
    if (!o.isVar()) return;
    if (defined_before.count(o.name) == 0) return;
    if (!counted.insert(o.name).second) return;
    bits += o.width;
  };
  for (int i : after) {
    const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
    for (const auto& s : ins.srcs) countUse(s);
    if (ins.pred) countUse(*ins.pred);
  }
  return bits;
}

namespace {

// Iterative Tarjan SCC.
struct TarjanState {
  const DepGraph* g = nullptr;
  std::vector<int> index, lowlink, stack;
  std::vector<bool> on_stack;
  std::vector<std::vector<int>> comps;
  int counter = 0;

  void run(int root) {
    // Explicit stack frames: (node, next child position).
    std::vector<std::pair<int, std::size_t>> frames;
    frames.emplace_back(root, 0);
    index[static_cast<std::size_t>(root)] = lowlink[static_cast<std::size_t>(root)] = counter++;
    stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = true;

    while (!frames.empty()) {
      auto& [v, child] = frames.back();
      const auto& succ = g->users[static_cast<std::size_t>(v)];
      if (child < succ.size()) {
        const int w = succ[child++];
        if (index[static_cast<std::size_t>(w)] < 0) {
          index[static_cast<std::size_t>(w)] =
              lowlink[static_cast<std::size_t>(w)] = counter++;
          stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          frames.emplace_back(w, 0);
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          lowlink[static_cast<std::size_t>(v)] =
              std::min(lowlink[static_cast<std::size_t>(v)],
                       index[static_cast<std::size_t>(w)]);
        }
        continue;
      }
      // All children explored: close v.
      if (lowlink[static_cast<std::size_t>(v)] ==
          index[static_cast<std::size_t>(v)]) {
        std::vector<int> comp;
        int w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = false;
          comp.push_back(w);
        } while (w != v);
        std::sort(comp.begin(), comp.end());
        comps.push_back(std::move(comp));
      }
      const int closed = v;
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().first;
        lowlink[static_cast<std::size_t>(parent)] =
            std::min(lowlink[static_cast<std::size_t>(parent)],
                     lowlink[static_cast<std::size_t>(closed)]);
      }
    }
  }
};

}  // namespace

std::vector<std::vector<int>> stronglyConnectedComponents(const DepGraph& g) {
  TarjanState t;
  t.g = &g;
  t.index.assign(static_cast<std::size_t>(g.n), -1);
  t.lowlink.assign(static_cast<std::size_t>(g.n), -1);
  t.on_stack.assign(static_cast<std::size_t>(g.n), false);
  for (int v = 0; v < g.n; ++v) {
    if (t.index[static_cast<std::size_t>(v)] < 0) t.run(v);
  }
  // Tarjan (following `users` edges, i.e. dependency direction
  // producer→consumer) emits consumers before producers; reverse to get a
  // producer-first topological order of the condensation.
  std::reverse(t.comps.begin(), t.comps.end());
  return t.comps;
}

Analysis analyzeProgram(const IrProgram& prog,
                        std::vector<std::vector<int>>* comps) {
  Analysis a;
  a.dep = buildDepGraph(prog);
  a.scc_of.assign(static_cast<std::size_t>(a.dep.n), -1);
  std::vector<std::vector<int>> local;
  std::vector<std::vector<int>>& out = comps != nullptr ? *comps : local;
  out = stronglyConnectedComponents(a.dep);
  for (std::size_t c = 0; c < out.size(); ++c) {
    for (int i : out[c]) {
      a.scc_of[static_cast<std::size_t>(i)] = static_cast<int>(c);
    }
  }
  return a;
}

}  // namespace clickinc::ir
