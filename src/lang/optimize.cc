#include "lang/optimize.h"

#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
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
  // Map from var name to the index of its defining instruction.
  std::map<std::string, int> def_of;
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (instrs[i].dest.isVar()) {
      def_of[instrs[i].dest.name] = static_cast<int>(i);
    }
  }
  // Count uses so we only rewrite chains whose intermediates are
  // single-use (pure merge chains).
  std::map<std::string, int> uses;
  for (const auto& ins : instrs) {
    for (const auto& s : ins.srcs) {
      if (s.isVar()) ++uses[s.name];
    }
    if (ins.pred && ins.pred->isVar()) ++uses[ins.pred->name];
  }

  int rewritten = 0;
  for (std::size_t end = 0; end < instrs.size(); ++end) {
    if (!isFlagSelect(instrs[end])) continue;
    const std::uint64_t set_value = instrs[end].srcs[1].value;
    // Only rewrite maximal chains: skip selects that feed a longer chain.
    bool is_tail = true;
    for (std::size_t k = end + 1; k < instrs.size(); ++k) {
      if (isFlagSelect(instrs[k]) && instrs[k].srcs[1].value == set_value &&
          instrs[k].srcs[2].isVar() &&
          instrs[k].srcs[2].name == instrs[end].dest.name) {
        is_tail = false;
        break;
      }
    }
    if (!is_tail) continue;
    // Walk the chain backwards: select(p_k, c, select(p_{k-1}, c, ...)).
    std::vector<int> chain{static_cast<int>(end)};
    Operand base = instrs[end].srcs[2];
    while (base.isVar()) {
      auto it = def_of.find(base.name);
      if (it == def_of.end()) break;
      const Instruction& prev = instrs[static_cast<std::size_t>(it->second)];
      if (!isFlagSelect(prev) || prev.srcs[1].value != set_value) break;
      if (uses[prev.dest.name] != 1) break;  // shared intermediate
      chain.push_back(it->second);
      base = prev.srcs[2];
    }
    if (chain.size() < 4) continue;  // short chains are fine as-is

    // Collect the chain's predicates in program order.
    std::vector<Operand> preds;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      preds.push_back(instrs[static_cast<std::size_t>(*it)].srcs[0]);
    }
    // Balanced OR tree replacing the chain body; the final select keeps
    // the original destination so downstream uses are untouched.
    std::vector<Instruction> tree;
    int tmp = 0;
    const std::string stem = cat(instrs[end].dest.name, "_or");
    std::vector<Operand> layer = preds;
    while (layer.size() > 1) {
      std::vector<Operand> next;
      for (std::size_t k = 0; k + 1 < layer.size(); k += 2) {
        Instruction lor(Opcode::kLOr, Operand::var(cat(stem, tmp++), 1),
                        {layer[k], layer[k + 1]});
        lor.owners = instrs[end].owners;
        next.push_back(lor.dest);
        tree.push_back(std::move(lor));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    Instruction final_sel(Opcode::kSelect, instrs[end].dest,
                          {layer[0], instrs[end].srcs[1], base});
    final_sel.owners = instrs[end].owners;
    tree.push_back(std::move(final_sel));

    // Replace: drop the old chain instructions, splice the tree at the
    // chain head's position.
    std::set<int> dead(chain.begin(), chain.end());
    std::vector<Instruction> out;
    out.reserve(instrs.size() + tree.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (dead.count(static_cast<int>(i))) {
        if (static_cast<int>(i) == static_cast<int>(end)) {
          for (auto& t : tree) out.push_back(std::move(t));
        }
        continue;
      }
      out.push_back(std::move(instrs[i]));
    }
    instrs = std::move(out);
    ++rewritten;
    // Defs moved; restart scanning from scratch.
    def_of.clear();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (instrs[i].dest.isVar()) {
        def_of[instrs[i].dest.name] = static_cast<int>(i);
      }
    }
    uses.clear();
    for (const auto& ins : instrs) {
      for (const auto& s : ins.srcs) {
        if (s.isVar()) ++uses[s.name];
      }
      if (ins.pred && ins.pred->isVar()) ++uses[ins.pred->name];
    }
    end = 0;
  }
  return rewritten;
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
