#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>

#include "ir/analysis.h"
#include "ir/interp.h"
#include "lang/ast.h"
#include "lang/lower.h"
#include "lang/optimize.h"
#include "lang/token.h"
#include "modules/templates.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::lang {
namespace {

using clickinc::Rng;

// --- lexer ---

TEST(Lexer, TokenizesNamesOpsAndInts) {
  auto toks = tokenize("x = a + 0x10\n");
  ASSERT_GE(toks.size(), 6u);
  EXPECT_EQ(toks[0].kind, TokKind::kName);
  EXPECT_TRUE(toks[1].isOp("="));
  EXPECT_EQ(toks[2].kind, TokKind::kName);
  EXPECT_TRUE(toks[3].isOp("+"));
  EXPECT_EQ(toks[4].kind, TokKind::kInt);
  EXPECT_EQ(toks[4].int_value, 16u);
}

TEST(Lexer, IndentDedent) {
  auto toks = tokenize("if a:\n    b = 1\nc = 2\n");
  int indents = 0, dedents = 0;
  for (const auto& t : toks) {
    if (t.kind == TokKind::kIndent) ++indents;
    if (t.kind == TokKind::kDedent) ++dedents;
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(Lexer, CommentsAndBlankLinesIgnored) {
  auto toks = tokenize("# comment\n\nx = 1  # trailing\n");
  EXPECT_EQ(toks[0].kind, TokKind::kName);
}

TEST(Lexer, StringsAndFloats) {
  auto toks = tokenize("s = \"count-min\"\nf = 1.5\n");
  EXPECT_EQ(toks[2].kind, TokKind::kString);
  EXPECT_EQ(toks[2].text, "count-min");
  bool found_float = false;
  for (const auto& t : toks) {
    if (t.kind == TokKind::kFloat) {
      EXPECT_DOUBLE_EQ(t.float_value, 1.5);
      found_float = true;
    }
  }
  EXPECT_TRUE(found_float);
}

TEST(Lexer, NewlinesInsideBracketsInsignificant) {
  auto toks = tokenize("x = f(a,\n      b)\n");
  int newlines = 0;
  for (const auto& t : toks) {
    if (t.kind == TokKind::kNewline) ++newlines;
  }
  EXPECT_EQ(newlines, 1);
}

TEST(Lexer, RejectsBadIndent) {
  EXPECT_THROW(tokenize("if a:\n    b = 1\n  c = 2\n"), ParseError);
}

// --- parser ---

TEST(Parser, SimpleAssignAndAttr) {
  auto m = parseModule("idx = hdr.key\n");
  ASSERT_EQ(m.stmts.size(), 1u);
  EXPECT_EQ(m.stmts[0]->kind, StmtKind::kAssign);
  EXPECT_EQ(m.stmts[0]->value->dottedPath(), "hdr.key");
}

TEST(Parser, IfElifElse) {
  auto m = parseModule(
      "if a == 1:\n    x = 1\nelif a == 2:\n    x = 2\nelse:\n    x = 3\n");
  ASSERT_EQ(m.stmts.size(), 1u);
  const Stmt& s = *m.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::kIf);
  ASSERT_EQ(s.orelse.size(), 1u);
  EXPECT_EQ(s.orelse[0]->kind, StmtKind::kIf);  // elif nests
  EXPECT_EQ(s.orelse[0]->orelse.size(), 1u);    // final else body
}

TEST(Parser, ForRange) {
  auto m = parseModule("for i in range(3):\n    x = i\n");
  ASSERT_EQ(m.stmts.size(), 1u);
  EXPECT_EQ(m.stmts[0]->kind, StmtKind::kFor);
  EXPECT_EQ(m.stmts[0]->loop_var, "i");
  EXPECT_EQ(m.stmts[0]->range_args.size(), 1u);
}

TEST(Parser, RejectsNonRangeFor) {
  EXPECT_THROW(parseModule("for i in items:\n    x = i\n"), ParseError);
}

TEST(Parser, CallWithKwargs) {
  auto m = parseModule("mem = Array(row=3, size=65536, w=32)\n");
  const Expr& call = *m.stmts[0]->value;
  EXPECT_EQ(call.kind, ExprKind::kCall);
  EXPECT_EQ(call.kwargs.size(), 3u);
  EXPECT_EQ(call.kwargs[0].name, "row");
}

TEST(Parser, DictArg) {
  auto m = parseModule("back(hdr={op: 2, vals: v})\n");
  const Expr& call = *m.stmts[0]->value;
  ASSERT_EQ(call.kwargs.size(), 1u);
  EXPECT_EQ(call.kwargs[0].value->kind, ExprKind::kDict);
  EXPECT_EQ(call.kwargs[0].value->kwargs.size(), 2u);
}

TEST(Parser, OperatorPrecedence) {
  auto m = parseModule("x = 1 + 2 * 3\n");
  const Expr& e = *m.stmts[0]->value;
  EXPECT_EQ(e.str, "+");
  EXPECT_EQ(e.index->str, "*");
}

TEST(Parser, AugAssign) {
  auto m = parseModule("x += 2\n");
  EXPECT_EQ(m.stmts[0]->kind, StmtKind::kAugAssign);
  EXPECT_EQ(m.stmts[0]->aug_op, "+");
}

// Tenant source reaches the parser unchecked: deep nesting must fail as a
// ParseError, not overflow the stack. Both shapes recurse once per level.
TEST(Parser, DeepNestingIsAParseErrorNotACrash) {
  const int deep = 100000;
  EXPECT_THROW(parseModule("x = " + std::string(deep, '-') + "1\n"),
               ParseError);
  EXPECT_THROW(parseModule("x = " + std::string(deep, '(') + "1" +
                           std::string(deep, ')') + "\n"),
               ParseError);
  EXPECT_THROW(parseModule("x = " + std::string(deep, '[') + "1" +
                           std::string(deep, ']') + "\n"),
               ParseError);
  // Nesting within the cap still parses.
  const int ok = 200;
  EXPECT_NO_THROW(parseModule("x = " + std::string(ok, '-') + "1\n"));
  const auto m = parseModule("x = " + std::string(ok, '(') + "1" +
                             std::string(ok, ')') + "\n");
  EXPECT_EQ(m.stmts[0]->value->kind, ExprKind::kInt);
}

// An `elif` chain adds no indentation yet recurses once per arm, and each
// indented block recurses once per level: both count towards one statement
// depth cap.
std::string elifChain(int arms) {
  std::string src = "if hdr.a == 0:\n    hdr.out = 0\n";
  for (int i = 1; i < arms; ++i) {
    src += cat("elif hdr.a == ", i, ":\n    hdr.out = ", i, "\n");
  }
  return src;
}

std::string nestedIfs(int depth) {
  std::string src;
  for (int i = 0; i < depth; ++i) {
    src += std::string(static_cast<std::size_t>(i), ' ') + "if hdr.a:\n";
  }
  return src + std::string(static_cast<std::size_t>(depth), ' ') +
         "hdr.out = 1\n";
}

TEST(Parser, LongElifChainAndDeepBlocksAreParseErrorsNotCrashes) {
  EXPECT_THROW(parseModule(elifChain(100000)), ParseError);
  EXPECT_THROW(parseModule(nestedIfs(3000)), ParseError);
  // Within the cap both shapes parse.
  const auto m = parseModule(elifChain(200));
  ASSERT_EQ(m.stmts.size(), 1u);
  EXPECT_EQ(m.stmts[0]->orelse[0]->kind, StmtKind::kIf);
  EXPECT_NO_THROW(parseModule(nestedIfs(200)));
}

TEST(Parser, CountLoc) {
  EXPECT_EQ(countLoc("a = 1\n# comment\n\nb = 2\n"), 2);
}

// --- lowering ---

ir::IrProgram lower(const std::string& src, HeaderSpec hdr = {},
                    CompileOptions opts = {}) {
  return compileSource(src, hdr, opts);
}

TEST(Lower, StraightLineArithmetic) {
  HeaderSpec hdr;
  hdr.add("a", 32);
  hdr.add("out", 32);
  auto p = lower("x = hdr.a + 3\nhdr.out = x * 2\n", hdr);
  ir::PacketView pkt;
  pkt.setField("hdr.a", 5);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.field("hdr.out"), 16u);  // (5+3)*2
}

TEST(Lower, ElifChainNearTheCapLowers) {
  HeaderSpec hdr;
  hdr.add("a", 32);
  hdr.add("out", 32);
  const auto p = lower(elifChain(200), hdr);
  ir::PacketView pkt;
  pkt.setField("hdr.a", 137);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.field("hdr.out"), 137u);
}

TEST(Lower, DeadCodeEliminated) {
  HeaderSpec hdr;
  hdr.add("a", 32);
  // y is never used and has no side effects: both instructions fold away.
  auto p = lower("x = hdr.a + 3\ny = x * 2\n", hdr);
  EXPECT_TRUE(p.instrs.empty());
}

// The round-based elimination the worklist pass replaced: rescan the
// whole program for used names, drop every pure instruction whose
// results are unread, repeat until nothing changes.
int referenceDeadCode(ir::IrProgram* prog) {
  auto& instrs = prog->instrs;
  const std::size_t before = instrs.size();
  for (bool changed = true; changed;) {
    changed = false;
    std::set<std::string> used;
    for (const auto& ins : instrs) {
      for (const auto& s : ins.srcs) {
        if (s.isNamed()) used.insert(s.name);
      }
      if (ins.pred && ins.pred->isNamed()) used.insert(ins.pred->name);
    }
    std::vector<ir::Instruction> out;
    for (auto& ins : instrs) {
      const auto& info = ins.info();
      const bool side_effect =
          info.packet_action || info.state == ir::StateAccess::kWrite ||
          info.state == ir::StateAccess::kReadWrite || ins.dest.isField() ||
          ins.dest2.isField();
      const bool result_used =
          (ins.dest.isVar() && used.count(ins.dest.name)) ||
          (ins.dest2.isVar() && used.count(ins.dest2.name));
      if (side_effect || result_used) {
        out.push_back(std::move(ins));
      } else {
        changed = true;
      }
    }
    instrs = std::move(out);
  }
  return static_cast<int>(before - instrs.size());
}

// Random name-level programs: pure adds over a name pool (so names are
// redefined, read by themselves, and form dead chains and cycles),
// predicated ones, two-destination lookups, and field writes and drops
// that anchor some chains as live.
ir::IrProgram randomDeadCodeProgram(std::uint64_t seed) {
  Rng rng(seed);
  ir::IrProgram prog;
  const auto var = [&](int width) {
    return ir::Operand::var(cat("v", rng.nextBelow(80)), width);
  };
  const auto field = [&] {
    return ir::Operand::field(cat("hdr.f", rng.nextBelow(4)), 32);
  };
  for (int k = 0; k < 120; ++k) {
    const auto kind = rng.nextBelow(10);
    ir::Instruction ins(ir::Opcode::kAdd, var(32), {var(32), field()});
    if (kind == 0) ins.dest = ir::Operand::field("hdr.out", 32);
    if (kind == 1) ins = ir::Instruction(ir::Opcode::kDrop, {}, {});
    if (kind == 2) ins.pred = var(1);
    if (kind == 3) ins.dest2 = var(1);
    prog.instrs.push_back(std::move(ins));
  }
  return prog;
}

TEST(Lower, DeadCodeMatchesRoundBasedReference) {
  long removed_total = 0, kept_total = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    auto got = randomDeadCodeProgram(seed);
    auto want = got;
    const int removed = eliminateDeadCode(&got);
    removed_total += removed;
    kept_total += static_cast<long>(got.instrs.size());
    EXPECT_EQ(removed, referenceDeadCode(&want)) << "seed " << seed;
    ASSERT_EQ(got.instrs.size(), want.instrs.size()) << "seed " << seed;
    for (std::size_t k = 0; k < got.instrs.size(); ++k) {
      EXPECT_EQ(got.instrs[k].toString(), want.instrs[k].toString())
          << "seed " << seed << " instr " << k;
    }
  }
  // The generator exercises both outcomes.
  EXPECT_GT(removed_total, 1000);
  EXPECT_GT(kept_total, 1000);
}

TEST(Lower, LongDeadChainLowersInLinearTime) {
  // Each iteration extends a chain that nothing reads. Round-based
  // elimination peeled one link per whole-program rescan (quadratic:
  // about 40 minutes at this length).
  HeaderSpec hdr;
  hdr.add("value", 32);
  const auto t0 = std::chrono::steady_clock::now();
  const auto p = lower(
      cat("x = 0\nfor a in range(", kMaxUnrollIterations,
          "):\n    x = x + hdr.value\n"),
      hdr);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_TRUE(p.instrs.empty());
  EXPECT_LT(s, 10.0);
}

TEST(Lower, FlagChainRebalanced) {
  HeaderSpec hdr;
  hdr.add("data", 32, 16);
  hdr.add("flag", 8);
  auto p = lower(
      "f = 0\n"
      "for i in range(16):\n"
      "    if hdr.data[i] != 0:\n"
      "        f = 1\n"
      "hdr.flag = f\n",
      hdr);
  // Dependency depth must be logarithmic, not 16 deep: count the longest
  // chain of select/lor instructions.
  const auto g = ir::buildDepGraph(p);
  std::vector<int> depth(p.instrs.size(), 0);
  int longest = 0;
  for (std::size_t i = 0; i < p.instrs.size(); ++i) {
    for (int j : g.deps[i]) {
      depth[i] = std::max(depth[i], depth[static_cast<std::size_t>(j)] + 1);
    }
    longest = std::max(longest, depth[i]);
  }
  EXPECT_LE(longest, 8);  // log2(16)=4 for the OR tree plus cmp/select ends

  // Semantics preserved.
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView zero;
  interp.runAll(p, zero);
  EXPECT_EQ(zero.field("hdr.flag"), 0u);
  ir::PacketView one;
  one.setField("hdr.data.11", 5);
  interp.runAll(p, one);
  EXPECT_EQ(one.field("hdr.flag"), 1u);
}

// The restart-after-every-rewrite pass the one-pass rebalancer replaced:
// find the first maximal chain of four or more links, splice its OR tree
// in, rebuild the def and use tables and scan again from the start.
bool refIsFlagSelect(const ir::Instruction& ins) {
  return ins.op == ir::Opcode::kSelect && ins.srcs.size() == 3 &&
         !ins.hasPred() && ins.srcs[0].isVar() && ins.srcs[1].isConst() &&
         ins.srcs[2].isNamed() && ins.dest.isVar();
}

int referenceRebalance(ir::IrProgram* prog) {
  auto& instrs = prog->instrs;
  std::map<std::string, int> def_of;
  std::map<std::string, int> uses;
  const auto rebuild = [&] {
    def_of.clear();
    uses.clear();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (instrs[i].dest.isVar()) {
        def_of[instrs[i].dest.name] = static_cast<int>(i);
      }
    }
    for (const auto& ins : instrs) {
      for (const auto& s : ins.srcs) {
        if (s.isVar()) ++uses[s.name];
      }
      if (ins.pred && ins.pred->isVar()) ++uses[ins.pred->name];
    }
  };
  rebuild();
  int rewritten = 0;
  for (std::size_t end = 0; end < instrs.size(); ++end) {
    if (!refIsFlagSelect(instrs[end])) continue;
    const std::uint64_t set_value = instrs[end].srcs[1].value;
    bool is_tail = true;
    for (std::size_t k = end + 1; k < instrs.size(); ++k) {
      if (refIsFlagSelect(instrs[k]) && instrs[k].srcs[1].value == set_value &&
          instrs[k].srcs[2].isVar() &&
          instrs[k].srcs[2].name == instrs[end].dest.name) {
        is_tail = false;
        break;
      }
    }
    if (!is_tail) continue;
    std::vector<int> chain{static_cast<int>(end)};
    ir::Operand base = instrs[end].srcs[2];
    while (base.isVar()) {
      auto it = def_of.find(base.name);
      if (it == def_of.end()) break;
      const auto& prev = instrs[static_cast<std::size_t>(it->second)];
      if (!refIsFlagSelect(prev) || prev.srcs[1].value != set_value) break;
      if (uses[prev.dest.name] != 1) break;
      chain.push_back(it->second);
      base = prev.srcs[2];
    }
    if (chain.size() < 4) continue;
    std::vector<ir::Operand> layer;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      layer.push_back(instrs[static_cast<std::size_t>(*it)].srcs[0]);
    }
    std::vector<ir::Instruction> tree;
    int tmp = 0;
    const std::string stem = cat(instrs[end].dest.name, "_or");
    while (layer.size() > 1) {
      std::vector<ir::Operand> next;
      for (std::size_t k = 0; k + 1 < layer.size(); k += 2) {
        ir::Instruction lor(ir::Opcode::kLOr,
                            ir::Operand::var(cat(stem, tmp++), 1),
                            {layer[k], layer[k + 1]});
        lor.owners = instrs[end].owners;
        next.push_back(lor.dest);
        tree.push_back(std::move(lor));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    ir::Instruction final_sel(ir::Opcode::kSelect, instrs[end].dest,
                              {layer[0], instrs[end].srcs[1], base});
    final_sel.owners = instrs[end].owners;
    tree.push_back(std::move(final_sel));
    std::set<int> dead(chain.begin(), chain.end());
    std::vector<ir::Instruction> out;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (dead.count(static_cast<int>(i))) {
        if (i == end) {
          for (auto& t : tree) out.push_back(std::move(t));
        }
        continue;
      }
      out.push_back(std::move(instrs[i]));
    }
    instrs = std::move(out);
    ++rewritten;
    rebuild();
    end = 0;
  }
  return rewritten;
}

// Random flag-chain instructions over fresh names `<prefix><n>`: several
// interleaved chains of select(p, c, prev) on fresh compare predicates,
// from constant, field or var bases. Some links switch the set value,
// carry a predicate or have a second reader, so chains of every length
// end early; each chain's last link is written to a field.
std::vector<ir::Instruction> randomFlagChains(std::uint64_t seed,
                                              const std::string& prefix) {
  Rng rng(seed);
  std::vector<ir::Instruction> out;
  int next = 0;
  const auto fresh = [&](int width) {
    return ir::Operand::var(cat(prefix, next++), width);
  };
  const auto field = [&] {
    return ir::Operand::field(cat("hdr.d", rng.nextBelow(8)), 32);
  };
  struct Chain {
    ir::Operand last;
    std::uint64_t value = 1;
    int left = 0;
  };
  std::vector<Chain> chains(1 + rng.nextBelow(6));
  for (auto& ch : chains) {
    ch.value = 1 + rng.nextBelow(2);
    ch.left = 1 + static_cast<int>(rng.nextBelow(12));
    switch (rng.nextBelow(3)) {
      case 0:
        ch.last = ir::Operand::constant(0, 8);
        break;
      case 1:
        ch.last = field();
        break;
      default:
        ch.last = fresh(8);
        out.emplace_back(ir::Opcode::kAdd, ch.last,
                         std::vector<ir::Operand>{
                             field(), ir::Operand::constant(1, 8)});
    }
  }
  for (int live = static_cast<int>(chains.size()); live > 0;) {
    auto& ch = chains[rng.nextBelow(chains.size())];
    if (ch.left == 0) continue;
    const auto pred = fresh(1);
    out.emplace_back(ir::Opcode::kCmpNe, pred,
                     std::vector<ir::Operand>{field(),
                                              ir::Operand::constant(0)});
    if (rng.nextBelow(12) == 0) ch.value = 3 - ch.value;
    ir::Instruction sel(ir::Opcode::kSelect, fresh(8),
                        {pred, ir::Operand::constant(ch.value, 8), ch.last});
    if (rng.nextBelow(15) == 0) sel.pred = pred;
    sel.owners = {static_cast<int>(rng.nextBelow(3))};
    ch.last = sel.dest;
    out.push_back(std::move(sel));
    if (rng.nextBelow(10) == 0) {
      out.emplace_back(ir::Opcode::kAdd,
                       ir::Operand::field(cat("hdr.s", next), 8),
                       std::vector<ir::Operand>{ch.last,
                                                ir::Operand::constant(1, 8)});
    }
    if (--ch.left == 0) {
      --live;
      out.emplace_back(ir::Opcode::kAssign,
                       ir::Operand::field(cat("hdr.flag", next), 8),
                       std::vector<ir::Operand>{ch.last});
    }
  }
  return out;
}

void expectRebalanceMatchesReference(const ir::IrProgram& prog,
                                     long* rewritten) {
  auto got = prog;
  auto want = prog;
  const int n = rebalanceFlagChains(&got);
  ASSERT_EQ(n, referenceRebalance(&want));
  *rewritten += n;
  ASSERT_EQ(got.instrs.size(), want.instrs.size());
  for (std::size_t k = 0; k < got.instrs.size(); ++k) {
    EXPECT_EQ(got.instrs[k].toString(), want.instrs[k].toString())
        << "instr " << k;
    EXPECT_EQ(got.instrs[k].owners, want.instrs[k].owners) << "instr " << k;
  }
}

TEST(Lower, FlagChainsMatchRestartingReference) {
  long rewritten = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(cat("seed ", seed));
    ir::IrProgram prog;
    prog.instrs = randomFlagChains(seed, "v");
    expectRebalanceMatchesReference(prog, &rewritten);
  }
  EXPECT_GT(rewritten, 200);

  // Every template, alone and with random chains interleaved into its
  // lowered instructions (both keep their own order).
  modules::ModuleLibrary lib;
  long template_rewritten = 0;
  for (const auto& name : lib.names()) {
    const auto base = lib.compileTemplate(name, "t");
    for (std::uint64_t seed = 0; seed <= 20; ++seed) {
      SCOPED_TRACE(cat(name, " seed ", seed));
      ir::IrProgram prog = base;
      if (seed > 0) {
        Rng rng(seed);
        const auto extra = randomFlagChains(seed, "fc_");
        prog.instrs.clear();
        std::size_t a = 0, b = 0;
        while (a < base.instrs.size() || b < extra.size()) {
          const bool take_base =
              b == extra.size() ||
              (a < base.instrs.size() && rng.nextBelow(2) == 0);
          prog.instrs.push_back(take_base ? base.instrs[a++] : extra[b++]);
        }
      }
      expectRebalanceMatchesReference(prog, &template_rewritten);
    }
  }
  EXPECT_GT(template_rewritten, 20);
}

TEST(Lower, ConstantFolding) {
  auto p = lower("x = 2 ** 10 - 24\n");
  // Entirely constant: no instructions should be emitted for x.
  EXPECT_TRUE(p.instrs.empty());
}

TEST(Lower, LoopUnrolling) {
  HeaderSpec hdr;
  hdr.add("k", 32);
  auto p = lower(
      "mem = Array(row=1, size=16, w=32)\n"
      "for i in range(4):\n"
      "    write(mem, i, hdr.k)\n",
      hdr);
  int writes = 0;
  for (const auto& ins : p.instrs) {
    if (ins.op == ir::Opcode::kRegWrite) ++writes;
  }
  EXPECT_EQ(writes, 4);
}

TEST(Lower, NonConstantLoopBoundRejected) {
  HeaderSpec hdr;
  hdr.add("n", 32);
  EXPECT_THROW(lower("for i in range(hdr.n):\n    x = i\n", hdr),
               CompileError);
}

TEST(Lower, UnrollBudgetIsProgramWide) {
  HeaderSpec hdr;
  hdr.add("v", 32);
  // One loop may use the whole budget...
  EXPECT_NO_THROW(lower(cat("for i in range(", kMaxUnrollIterations,
                            "):\n    hdr.v = i\n"),
                        hdr));
  EXPECT_THROW(lower(cat("for i in range(", kMaxUnrollIterations + 1,
                         "):\n    hdr.v = i\n"),
                     hdr),
               CompileError);
  // ...but loops share it: nested loops multiply, sequential ones add.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(lower("for i in range(100000):\n"
                     "    for j in range(100000):\n"
                     "        hdr.v = j\n",
                     hdr),
               CompileError);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
  EXPECT_THROW(lower("for i in range(60000):\n    hdr.v = i\n"
                     "for i in range(60000):\n    hdr.v = i\n",
                     hdr),
               CompileError);
  // A step counts iterations, not the span of the range.
  EXPECT_NO_THROW(lower(cat("for i in range(0, ", 2 * kMaxUnrollIterations,
                            ", 2):\n    hdr.v = i\n"),
                        hdr));
}

TEST(Lower, InstructionBudgetCapsTheUnrolledBody) {
  HeaderSpec hdr;
  hdr.add("value", 32);
  hdr.add("out", 32);
  hdr.add("w", 32);
  // A two-instruction body fits at the full unroll budget...
  EXPECT_NO_THROW(lower(cat("for i in range(", kMaxUnrollIterations,
                            "):\n    hdr.out = i\n    hdr.w = i\n"),
                        hdr));
  // ...but the unroll budget counts iterations, not the body they repeat:
  // 100,000 iterations of 20 lines would be 2,000,001 instructions.
  std::string src = cat("x = 0\nfor a in range(", kMaxUnrollIterations,
                        "):\n");
  for (int k = 0; k < 20; ++k) src += "    x = x + hdr.value\n";
  src += "hdr.out = x\n";
  const auto t0 = std::chrono::steady_clock::now();
  try {
    lower(src, hdr);
    ADD_FAILURE() << "the instruction budget did not fire";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("instruction budget"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
}

TEST(Lower, StateSizesAreCapped) {
  const auto rejects = [](const std::string& src) {
    try {
      lower(src);
    } catch (const CompileError&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(rejects("a = Array(row=1099511627776, size=16, w=32)\n"));
  EXPECT_TRUE(rejects(cat("a = Array(row=", kMaxStateObjects + 1, ")\n")));
  EXPECT_TRUE(rejects(cat("a = Array(size=", kMaxStateDepth + 1, ")\n")));
  EXPECT_TRUE(rejects(cat("a = Array(w=", kMaxValueWidth + 1, ")\n")));
  EXPECT_TRUE(rejects("a = Array(w=4294967328)\n"));  // 2^32 + 32
  EXPECT_TRUE(rejects(cat("t = Table(size=", kMaxStateDepth + 1, ")\n")));
  EXPECT_TRUE(rejects(cat("s = Sketch(rows=", kMaxStateObjects + 1, ")\n")));
  EXPECT_TRUE(rejects(cat("s = Sketch(size=", kMaxStateDepth + 1, ")\n")));
  EXPECT_TRUE(rejects(cat("s = Sketch(w=", kMaxValueWidth + 1, ")\n")));
  // The state budget spans constructors, including ones in a loop.
  EXPECT_TRUE(rejects("for i in range(2):\n    a = Array(row=4000)\n"));
  EXPECT_FALSE(rejects(cat("a = Array(row=", kMaxStateObjects,
                           ", size=", kMaxStateDepth, ", w=",
                           kMaxValueWidth, ")\n")));
}

TEST(Lower, IfBecomesPredication) {
  HeaderSpec hdr;
  hdr.add("op", 8);
  hdr.add("v", 32);
  auto p = lower(
      "if hdr.op == 1:\n"
      "    hdr.v = 10\n"
      "else:\n"
      "    hdr.v = 20\n",
      hdr);
  // Field writes must be predicated.
  int predicated = 0;
  for (const auto& ins : p.instrs) {
    if (ins.pred && ins.dest.isField()) ++predicated;
  }
  EXPECT_EQ(predicated, 2);

  ir::PacketView pkt;
  pkt.setField("hdr.op", 1);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.field("hdr.v"), 10u);

  ir::PacketView pkt2;
  pkt2.setField("hdr.op", 9);
  interp.runAll(p, pkt2);
  EXPECT_EQ(pkt2.field("hdr.v"), 20u);
}

TEST(Lower, CompileTimeIfFoldsAway) {
  auto p = lower(
      "is_convert = 0\n"
      "if is_convert:\n"
      "    drop()\n");
  EXPECT_TRUE(p.instrs.empty());
}

TEST(Lower, VariableMergeUnderPredicate) {
  HeaderSpec hdr;
  hdr.add("c", 8);
  hdr.add("out", 32);
  auto p = lower(
      "x = 1\n"
      "if hdr.c == 7:\n"
      "    x = 5\n"
      "hdr.out = x\n",
      hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView taken;
  taken.setField("hdr.c", 7);
  interp.runAll(p, taken);
  EXPECT_EQ(taken.field("hdr.out"), 5u);
  ir::PacketView not_taken;
  not_taken.setField("hdr.c", 0);
  interp.runAll(p, not_taken);
  EXPECT_EQ(not_taken.field("hdr.out"), 1u);
}

TEST(Lower, NestedPredicates) {
  HeaderSpec hdr;
  hdr.add("a", 8);
  hdr.add("b", 8);
  hdr.add("out", 32);
  auto p = lower(
      "hdr.out = 0\n"
      "if hdr.a == 1:\n"
      "    if hdr.b == 2:\n"
      "        hdr.out = 12\n"
      "    else:\n"
      "        hdr.out = 10\n",
      hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  auto run = [&](std::uint64_t a, std::uint64_t b) {
    ir::PacketView pkt;
    pkt.setField("hdr.a", a);
    pkt.setField("hdr.b", b);
    interp.runAll(p, pkt);
    return pkt.field("hdr.out");
  };
  EXPECT_EQ(run(1, 2), 12u);
  EXPECT_EQ(run(1, 3), 10u);
  EXPECT_EQ(run(0, 2), 0u);
}

TEST(Lower, CountMinSketchQuickstart) {
  // The paper's Fig. 1 ClickINC program.
  HeaderSpec hdr;
  hdr.add("key", 32);
  hdr.add("out", 32);
  const std::string src =
      "mem = Array(row=3, size=65536, w=32)\n"
      "vals = list()\n"
      "for i in range(3):\n"
      "    f = Hash(type=\"crc_16\", key=hdr.key, ceil=65536)\n"
      "    idx = get(f, hdr.key)\n"
      "    vals.append(count(mem[i], idx, 1))\n"
      "relt = min(vals)\n"
      "hdr.out = relt\n";
  auto p = lower(src, hdr);
  EXPECT_EQ(p.states.size(), 3u);

  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  // Same key counted three times -> min counter reaches 3.
  std::uint64_t out = 0;
  for (int i = 0; i < 3; ++i) {
    ir::PacketView pkt;
    pkt.setField("hdr.key", 99);
    interp.runAll(p, pkt);
    out = pkt.field("hdr.out");
  }
  EXPECT_EQ(out, 3u);
  // A different key starts at 1.
  ir::PacketView other;
  other.setField("hdr.key", 123456);
  interp.runAll(p, other);
  EXPECT_EQ(other.field("hdr.out"), 1u);
}

TEST(Lower, TableLookupNoneComparison) {
  HeaderSpec hdr;
  hdr.add("key", 32);
  hdr.add("hit", 8);
  const std::string src =
      "cache = Table(type=\"exact\", keys=hdr.key, size=128)\n"
      "v = get(cache, hdr.key)\n"
      "if v != None:\n"
      "    hdr.hit = 1\n"
      "else:\n"
      "    hdr.hit = 0\n"
      "    write(cache, hdr.key, 7)\n";
  auto p = lower(src, hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView first;
  first.setField("hdr.key", 5);
  interp.runAll(p, first);
  EXPECT_EQ(first.field("hdr.hit"), 0u);
  ir::PacketView second;
  second.setField("hdr.key", 5);
  interp.runAll(p, second);
  EXPECT_EQ(second.field("hdr.hit"), 1u);
}

TEST(Lower, PacketActionsWithHeaderUpdates) {
  HeaderSpec hdr;
  hdr.add("op", 8);
  auto p = lower(
      "if hdr.op == 1:\n"
      "    back(hdr={op: 2})\n"
      "else:\n"
      "    drop()\n",
      hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView req;
  req.setField("hdr.op", 1);
  interp.runAll(p, req);
  EXPECT_EQ(req.verdict, ir::Verdict::kSendBack);
  EXPECT_EQ(req.field("hdr.op"), 2u);
  ir::PacketView other;
  other.setField("hdr.op", 3);
  interp.runAll(p, other);
  EXPECT_EQ(other.verdict, ir::Verdict::kDrop);
}

TEST(Lower, VectorFieldsElementwise) {
  HeaderSpec hdr;
  hdr.add("data", 32, /*count=*/4);
  hdr.add("out", 32, 4);
  const std::string src =
      "agg = Array(row=4, size=8, w=32)\n"
      "vals = read(agg, 0)\n"
      "nv = vals + hdr.data\n"
      "write(agg, 0, nv)\n"
      "for i in range(4):\n"
      "    hdr.out[i] = nv[i]\n";
  auto p = lower(src, hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  auto send = [&](std::uint64_t base) {
    ir::PacketView pkt;
    for (int i = 0; i < 4; ++i) {
      pkt.setField(cat("hdr.data.", i), base + static_cast<std::uint64_t>(i));
    }
    interp.runAll(p, pkt);
    return pkt;
  };
  send(10);
  auto pkt = send(100);  // second packet aggregates on top
  EXPECT_EQ(pkt.field("hdr.out.0"), 110u);
  EXPECT_EQ(pkt.field("hdr.out.3"), 116u);
}

TEST(Lower, BloomFilterSetMembership) {
  HeaderSpec hdr;
  hdr.add("key", 32);
  hdr.add("seen", 8);
  const std::string src =
      "bf = Sketch(type=\"bloom-filter\", rows=3, size=1024)\n"
      "if get(bf, hdr.key) == 1:\n"
      "    hdr.seen = 1\n"
      "else:\n"
      "    hdr.seen = 0\n"
      "    write(bf, hdr.key, 1)\n";
  auto p = lower(src, hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView a;
  a.setField("hdr.key", 77);
  interp.runAll(p, a);
  EXPECT_EQ(a.field("hdr.seen"), 0u);
  ir::PacketView b;
  b.setField("hdr.key", 77);
  interp.runAll(p, b);
  EXPECT_EQ(b.field("hdr.seen"), 1u);
}

TEST(Lower, ProfileConstantsAvailable) {
  HeaderSpec hdr;
  hdr.add("v", 32);
  CompileOptions opts;
  opts.constants["TH"] = 100;
  auto p = compileSource(
      "if hdr.v > TH:\n"
      "    drop()\n",
      hdr, opts);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView pkt;
  pkt.setField("hdr.v", 150);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.verdict, ir::Verdict::kDrop);
}

TEST(Lower, StatePrefixIsolatesInstances) {
  HeaderSpec hdr;
  hdr.add("key", 32);
  CompileOptions a, b;
  a.state_prefix = "kvs_0_";
  b.state_prefix = "kvs_1_";
  const std::string src =
      "cache = Table(type=\"exact\", keys=hdr.key, size=16)\n";
  auto pa = compileSource(src, hdr, a);
  auto pb = compileSource(src, hdr, b);
  EXPECT_EQ(pa.states[0].name, "kvs_0_cache");
  EXPECT_EQ(pb.states[0].name, "kvs_1_cache");
}

TEST(Lower, SparseDeleteShrinksLength) {
  HeaderSpec hdr;
  hdr.add("feat", 32, 4);
  auto p = lower(
      "for i in range(4):\n"
      "    if hdr.feat[i] == 0:\n"
      "        del(hdr.feat[i])\n",
      hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView pkt;
  pkt.setField("hdr._len", 64);
  pkt.setField("hdr.feat.0", 5);
  pkt.setField("hdr.feat.1", 0);
  pkt.setField("hdr.feat.2", 0);
  pkt.setField("hdr.feat.3", 9);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.field("hdr._len"), 64u - 8u);  // two 4-byte values removed
}

TEST(Lower, UserDefinedFunctionInlines) {
  HeaderSpec hdr;
  hdr.add("a", 32);
  hdr.add("b", 32);
  hdr.add("out", 32);
  auto p = lower(
      "def comp(v1, v2):\n"
      "    if v1 < v2:\n"
      "        r = v1\n"
      "    else:\n"
      "        r = v2\n"
      "    return r\n"
      "hdr.out = comp(hdr.a, hdr.b)\n",
      hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView pkt;
  pkt.setField("hdr.a", 9);
  pkt.setField("hdr.b", 4);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.field("hdr.out"), 4u);
}

TEST(Lower, SignBitComparisonForOverflow) {
  HeaderSpec hdr;
  hdr.add("x", 32);
  hdr.add("neg", 8);
  auto p = lower(
      "if hdr.x < 0:\n"
      "    hdr.neg = 1\n"
      "else:\n"
      "    hdr.neg = 0\n",
      hdr);
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView pos;
  pos.setField("hdr.x", 5);
  interp.runAll(p, pos);
  EXPECT_EQ(pos.field("hdr.neg"), 0u);
  ir::PacketView neg;
  neg.setField("hdr.x", 0x80000000u);  // MSB set
  interp.runAll(p, neg);
  EXPECT_EQ(neg.field("hdr.neg"), 1u);
}

TEST(Lower, TemplateResolverInstantiation) {
  // A trivial registered template: counts packets into an array.
  class Resolver : public TemplateResolver {
   public:
    Resolver() {
      def_.name = "Counter";
      def_.params = {"size"};
      def_.source =
          "ctr = Array(row=1, size=size, w=32)\n"
          "n = count(ctr, 0, 1)\n"
          "hdr.cnt = n\n";
      def_.header.add("cnt", 32);
    }
    const TemplateDef* find(const std::string& name) const override {
      return name == "Counter" ? &def_ : nullptr;
    }

   private:
    TemplateDef def_;
  };
  Resolver resolver;
  HeaderSpec hdr;
  auto p = compileSource(
      "c = Counter(size=8)\n"
      "c(hdr)\n",
      hdr, {}, &resolver);
  // State name carries the instance prefix.
  ASSERT_EQ(p.states.size(), 1u);
  EXPECT_EQ(p.states[0].name, "counter_ctr");
  ir::StateStore store;
  Rng rng(1);
  ir::Interpreter interp(&store, &rng);
  ir::PacketView pkt;
  interp.runAll(p, pkt);
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.field("hdr.cnt"), 2u);
}

TEST(Lower, VerifiesEmittedIr) {
  HeaderSpec hdr;
  hdr.add("k", 32);
  // Any successfully lowered program passes the IR verifier (lowering
  // calls verify() internally; this exercises a nontrivial one).
  EXPECT_NO_THROW(lower(
      "s = Sketch(type=\"count-min\", rows=3, size=4096)\n"
      "c = count(s, hdr.k, 1)\n"
      "if c > 10:\n"
      "    mirror()\n",
      hdr));
}

}  // namespace
}  // namespace clickinc::lang
