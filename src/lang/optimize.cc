#include "lang/optimize.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/strings.h"

namespace clickinc::lang {

using ir::Instruction;
using ir::Opcode;
using ir::Operand;

namespace {

bool isFlagSelect(const Instruction& ins) {
  // select(pred, const, prev) with a 1-bit-ish constant "set" value.
  return ins.op == Opcode::kSelect && ins.srcs.size() == 3 &&
         !ins.hasPred() && ins.srcs[0].isVar() && ins.srcs[1].isConst() &&
         ins.srcs[2].isNamed() && ins.dest.isVar();
}

}  // namespace

int rebalanceFlagChains(ir::IrProgram* prog) {
  auto& instrs = prog->instrs;
  const std::size_t n = instrs.size();
  // Index of each var's (last) defining instruction, and each var's use
  // count: only chains whose intermediates are single-use (pure merge
  // chains) are rewritten.
  std::unordered_map<std::string_view, int> def_of;
  std::unordered_map<std::string_view, int> uses;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& ins = instrs[i];
    if (ins.dest.isVar()) def_of[ins.dest.name] = static_cast<int>(i);
    for (const auto& s : ins.srcs) {
      if (s.isVar()) ++uses[s.name];
    }
    if (ins.pred && ins.pred->isVar()) ++uses[ins.pred->name];
  }
  // Only maximal chains are rewritten: a tail is a flag select that no
  // later select with the same set value extends.
  struct Feed {
    std::uint64_t value;
    std::string_view name;
    bool operator==(const Feed&) const = default;
  };
  struct FeedHash {
    std::size_t operator()(const Feed& f) const {
      return std::hash<std::string_view>{}(f.name) ^
             static_cast<std::size_t>(f.value * 0x9E3779B97F4A7C15ULL);
    }
  };
  std::vector<char> is_tail(n, 0);
  std::unordered_set<Feed, FeedHash> fed_later;
  for (std::size_t k = n; k-- > 0;) {
    const auto& ins = instrs[k];
    if (!isFlagSelect(ins)) continue;
    is_tail[k] = !fed_later.contains({ins.srcs[1].value, ins.dest.name});
    if (ins.srcs[2].isVar()) {
      fed_later.insert({ins.srcs[1].value, ins.srcs[2].name});
    }
  }

  // Chains are disjoint (every intermediate has one use, by the next link)
  // and a rewritten tail is still a tail, so one pass finds every chain and
  // one splice replaces them all.
  std::vector<char> dead(n, 0);
  std::vector<int> tree_of(n, -1);
  std::vector<std::vector<Instruction>> trees;
  for (std::size_t end = 0; end < n; ++end) {
    if (!is_tail[end]) continue;
    const Instruction& tail = instrs[end];
    const std::uint64_t set_value = tail.srcs[1].value;
    // Walk the chain backwards: select(p_k, c, select(p_{k-1}, c, ...)).
    std::vector<int> chain{static_cast<int>(end)};
    Operand base = tail.srcs[2];
    while (base.isVar()) {
      auto it = def_of.find(base.name);
      // A link is defined before its user; anything else is no chain.
      if (it == def_of.end() || it->second >= chain.back()) break;
      const Instruction& prev = instrs[static_cast<std::size_t>(it->second)];
      if (!isFlagSelect(prev) || prev.srcs[1].value != set_value) break;
      if (uses[prev.dest.name] != 1) break;  // shared intermediate
      chain.push_back(it->second);
      base = prev.srcs[2];
    }
    if (chain.size() < 4) continue;  // short chains are fine as-is

    // Balanced OR tree over the chain's predicates in program order; the
    // final select keeps the original destination so downstream uses are
    // untouched.
    std::vector<Operand> layer;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      layer.push_back(instrs[static_cast<std::size_t>(*it)].srcs[0]);
    }
    std::vector<Instruction> tree;
    int tmp = 0;
    const std::string stem = cat(tail.dest.name, "_or");
    while (layer.size() > 1) {
      std::vector<Operand> next;
      for (std::size_t k = 0; k + 1 < layer.size(); k += 2) {
        Instruction lor(Opcode::kLOr, Operand::var(cat(stem, tmp++), 1),
                        {layer[k], layer[k + 1]});
        lor.owners = tail.owners;
        next.push_back(lor.dest);
        tree.push_back(std::move(lor));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    Instruction final_sel(Opcode::kSelect, tail.dest,
                          {layer[0], tail.srcs[1], base});
    final_sel.owners = tail.owners;
    tree.push_back(std::move(final_sel));
    for (int c : chain) dead[static_cast<std::size_t>(c)] = 1;
    tree_of[end] = static_cast<int>(trees.size());
    trees.push_back(std::move(tree));
  }
  if (trees.empty()) return 0;

  // Drop every chain's links and splice its tree at the tail's position.
  std::vector<Instruction> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (tree_of[i] >= 0) {
      for (auto& t : trees[static_cast<std::size_t>(tree_of[i])]) {
        out.push_back(std::move(t));
      }
    } else if (!dead[i]) {
      out.push_back(std::move(instrs[i]));
    }
  }
  instrs = std::move(out);
  return static_cast<int>(trees.size());
}

int eliminateDeadCode(ir::IrProgram* prog) {
  auto& instrs = prog->instrs;
  const std::size_t n = instrs.size();
  // An instruction survives when it has a side effect or some surviving
  // instruction reads a name it defines (by name, whatever the operand
  // kind). One worklist pass over per-name use counts computes that
  // greatest fixpoint: removing an instruction releases its reads, and a
  // name whose count drops to zero re-queues its pure definers.
  std::unordered_map<std::string_view, std::size_t> id_of;
  std::vector<int> uses;
  std::vector<std::vector<int>> pure_defs;  // per name id
  auto idOf = [&](const std::string& name) {
    const auto [it, inserted] = id_of.try_emplace(name, uses.size());
    if (inserted) {
      uses.push_back(0);
      pure_defs.emplace_back();
    }
    return it->second;
  };
  auto forEachRead = [](const Instruction& ins, auto&& fn) {
    for (const auto& s : ins.srcs) {
      if (s.isNamed()) fn(s.name);
    }
    if (ins.pred && ins.pred->isNamed()) fn(ins.pred->name);
  };
  std::vector<char> pure(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& ins = instrs[k];
    forEachRead(ins, [&](const std::string& name) { ++uses[idOf(name)]; });
    const auto& info = ins.info();
    pure[k] = !(info.packet_action ||
                info.state == ir::StateAccess::kWrite ||
                info.state == ir::StateAccess::kReadWrite ||
                ins.dest.isField() || ins.dest2.isField());
    if (!pure[k]) continue;
    const int def = static_cast<int>(k);
    if (ins.dest.isVar()) pure_defs[idOf(ins.dest.name)].push_back(def);
    if (ins.dest2.isVar()) pure_defs[idOf(ins.dest2.name)].push_back(def);
  }
  auto resultUsed = [&](const Instruction& ins) {
    return (ins.dest.isVar() && uses[id_of.at(ins.dest.name)] > 0) ||
           (ins.dest2.isVar() && uses[id_of.at(ins.dest2.name)] > 0);
  };
  std::vector<char> dead(n, 0);
  std::vector<int> work;
  for (std::size_t k = n; k-- > 0;) {
    if (pure[k]) work.push_back(static_cast<int>(k));
  }
  while (!work.empty()) {
    const auto k = static_cast<std::size_t>(work.back());
    work.pop_back();
    if (dead[k] || resultUsed(instrs[k])) continue;
    dead[k] = 1;
    forEachRead(instrs[k], [&](const std::string& name) {
      const std::size_t id = id_of.at(name);
      if (--uses[id] == 0) {
        const auto& defs = pure_defs[id];
        work.insert(work.end(), defs.begin(), defs.end());
      }
    });
  }
  std::vector<Instruction> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (!dead[k]) out.push_back(std::move(instrs[k]));
  }
  instrs = std::move(out);
  return static_cast<int>(n - instrs.size());
}

void optimizeProgram(ir::IrProgram* prog) {
  rebalanceFlagChains(prog);
  eliminateDeadCode(prog);
  prog->verify();
}

}  // namespace clickinc::lang
