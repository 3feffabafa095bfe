#include <gtest/gtest.h>

#include "ir/analysis.h"
#include "ir/exec_plan.h"
#include "ir/interp.h"
#include "ir/program.h"
#include "util/error.h"
#include "util/strings.h"
#include "verify/verifier.h"

namespace clickinc::ir {
namespace {

using clickinc::Rng;

Instruction mk(Opcode op, Operand dest, std::vector<Operand> srcs,
               int state = -1) {
  return Instruction(op, std::move(dest), std::move(srcs), state);
}

TEST(Opcode, EveryOpcodeHasConsistentInfo) {
  for (int i = 0; i <= static_cast<int>(Opcode::kNop); ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto& info = opcodeInfo(op);
    EXPECT_FALSE(info.name.empty());
    EXPECT_GE(info.min_srcs, 0);
    if (info.max_srcs >= 0) {
      EXPECT_LE(info.min_srcs, info.max_srcs);
    }
  }
}

TEST(Opcode, ClassAssignmentsMatchPaperTables) {
  EXPECT_EQ(opcodeClass(Opcode::kAdd), InstrClass::kBIN);
  EXPECT_EQ(opcodeClass(Opcode::kMul), InstrClass::kBIC);
  EXPECT_EQ(opcodeClass(Opcode::kFAdd), InstrClass::kBCA);
  EXPECT_EQ(opcodeClass(Opcode::kRegAdd), InstrClass::kBSO);
  EXPECT_EQ(opcodeClass(Opcode::kEmtLookup), InstrClass::kBEM);
  EXPECT_EQ(opcodeClass(Opcode::kSemtWrite), InstrClass::kBSEM);
  EXPECT_EQ(opcodeClass(Opcode::kTmtLookup), InstrClass::kBNEM);
  EXPECT_EQ(opcodeClass(Opcode::kStmtWrite), InstrClass::kBSNEM);
  EXPECT_EQ(opcodeClass(Opcode::kDmtLookup), InstrClass::kBDM);
  EXPECT_EQ(opcodeClass(Opcode::kDrop), InstrClass::kBBPF);
  EXPECT_EQ(opcodeClass(Opcode::kMirror), InstrClass::kBAPF);
  EXPECT_EQ(opcodeClass(Opcode::kHashCrc16), InstrClass::kBAF);
  EXPECT_EQ(opcodeClass(Opcode::kAesEnc), InstrClass::kBCF);
}

TEST(Program, VerifyAcceptsWellFormed) {
  IrProgram p;
  p.name = "ok";
  p.addField("hdr.x", 32);
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("t0", 32),
                        {Operand::field("hdr.x", 32)}));
  p.instrs.push_back(mk(Opcode::kAdd, Operand::var("t1", 32),
                        {Operand::var("t0", 32), Operand::constant(1, 32)}));
  EXPECT_NO_THROW(p.verify());
}

TEST(Program, VerifyRejectsUseBeforeDef) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAdd, Operand::var("t1", 32),
                        {Operand::var("nope", 32), Operand::constant(1, 32)}));
  EXPECT_THROW(p.verify(), InternalError);
}

TEST(Program, VerifyRejectsBadStateRef) {
  IrProgram p;
  p.instrs.push_back(
      mk(Opcode::kRegRead, Operand::var("v", 32), {Operand::constant(0, 16)},
         /*state=*/5));
  EXPECT_THROW(p.verify(), InternalError);
}

TEST(Program, VerifyRejectsWidePredicate) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("c", 8),
                        {Operand::constant(1, 8)}));
  Instruction guarded = mk(Opcode::kAssign, Operand::var("t", 32),
                           {Operand::constant(2, 32)});
  guarded.pred = Operand::var("c", 8);  // must be 1-bit
  p.instrs.push_back(guarded);
  EXPECT_THROW(p.verify(), InternalError);
}

TEST(Program, StateRegistrationAndLookup) {
  IrProgram p;
  StateObject s;
  s.name = "cms0";
  s.kind = StateKind::kRegister;
  s.depth = 1024;
  const int id = p.addState(s);
  EXPECT_EQ(id, 0);
  ASSERT_NE(p.findState("cms0"), nullptr);
  EXPECT_EQ(p.findState("cms0")->id, 0);
  EXPECT_EQ(p.findState("other"), nullptr);
}

TEST(Program, StorageBits) {
  StateObject reg;
  reg.kind = StateKind::kRegister;
  reg.depth = 100;
  reg.value_width = 32;
  EXPECT_EQ(reg.storageBits(), 3200u);

  StateObject tbl;
  tbl.kind = StateKind::kExactTable;
  tbl.depth = 10;
  tbl.key_width = 16;
  tbl.value_width = 48;
  EXPECT_EQ(tbl.storageBits(), 640u);
}

// --- dependency analysis ---

IrProgram chainProgram() {
  // t0 = hdr.a; t1 = t0+1; t2 = t1*2
  IrProgram p;
  p.addField("hdr.a", 32);
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("t0", 32),
                        {Operand::field("hdr.a", 32)}));
  p.instrs.push_back(mk(Opcode::kAdd, Operand::var("t1", 32),
                        {Operand::var("t0", 32), Operand::constant(1, 32)}));
  p.instrs.push_back(mk(Opcode::kMul, Operand::var("t2", 32),
                        {Operand::var("t1", 32), Operand::constant(2, 32)}));
  return p;
}

TEST(Analysis, RawDependencies) {
  const auto p = chainProgram();
  const auto g = buildDepGraph(p);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 2));
  EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(Analysis, StateSharingIsMutual) {
  IrProgram p;
  StateObject s;
  s.name = "ctr";
  s.kind = StateKind::kRegister;
  s.depth = 16;
  s.stateful = true;
  const int sid = p.addState(s);
  p.instrs.push_back(mk(Opcode::kRegAdd, Operand::var("c0", 32),
                        {Operand::constant(0, 8), Operand::constant(1, 32)},
                        sid));
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("x", 32),
                        {Operand::constant(7, 32)}));
  p.instrs.push_back(mk(Opcode::kRegRead, Operand::var("c1", 32),
                        {Operand::constant(3, 8)}, sid));
  const auto g = buildDepGraph(p);
  EXPECT_TRUE(g.hasEdge(0, 2));
  EXPECT_TRUE(g.hasEdge(2, 0));  // mutual
  EXPECT_FALSE(g.hasEdge(0, 1));
}

TEST(Analysis, StatelessTableNotMutual) {
  IrProgram p;
  StateObject s;
  s.name = "fwdtbl";
  s.kind = StateKind::kExactTable;
  s.stateful = false;  // control-plane populated
  s.depth = 16;
  const int sid = p.addState(s);
  p.instrs.push_back(mk(Opcode::kEmtLookup, Operand::var("a", 32),
                        {Operand::constant(1, 32)}, sid));
  p.instrs.push_back(mk(Opcode::kEmtLookup, Operand::var("b", 32),
                        {Operand::constant(2, 32)}, sid));
  const auto g = buildDepGraph(p);
  EXPECT_FALSE(g.hasEdge(0, 1));
  EXPECT_FALSE(g.hasEdge(1, 0));
}

TEST(Analysis, WawAndWarOrdering) {
  IrProgram p;
  p.addField("hdr.v", 32);
  // write hdr.v; read hdr.v; write hdr.v again.
  p.instrs.push_back(mk(Opcode::kAssign, Operand::field("hdr.v", 32),
                        {Operand::constant(1, 32)}));
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("r", 32),
                        {Operand::field("hdr.v", 32)}));
  p.instrs.push_back(mk(Opcode::kAssign, Operand::field("hdr.v", 32),
                        {Operand::constant(2, 32)}));
  const auto g = buildDepGraph(p);
  EXPECT_TRUE(g.hasEdge(0, 1));  // RAW
  EXPECT_TRUE(g.hasEdge(1, 2));  // WAR
  EXPECT_TRUE(g.hasEdge(0, 2));  // WAW
}

TEST(Analysis, SccGroupsMutualStateUsers) {
  IrProgram p;
  StateObject s;
  s.name = "agg";
  s.kind = StateKind::kRegister;
  s.depth = 8;
  const int sid = p.addState(s);
  p.instrs.push_back(mk(Opcode::kRegAdd, Operand::var("a", 32),
                        {Operand::constant(0, 8), Operand::constant(1, 32)},
                        sid));
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("lone", 32),
                        {Operand::constant(5, 32)}));
  p.instrs.push_back(mk(Opcode::kRegRead, Operand::var("b", 32),
                        {Operand::constant(1, 8)}, sid));
  const auto g = buildDepGraph(p);
  const auto comps = stronglyConnectedComponents(g);
  // Expect 2 components: {0,2} (state-sharing) and {1}.
  ASSERT_EQ(comps.size(), 2u);
  bool found_pair = false, found_single = false;
  for (const auto& c : comps) {
    if (c == std::vector<int>{0, 2}) found_pair = true;
    if (c == std::vector<int>{1}) found_single = true;
  }
  EXPECT_TRUE(found_pair);
  EXPECT_TRUE(found_single);
}

TEST(Analysis, SccTopologicalOrder) {
  const auto p = chainProgram();
  const auto g = buildDepGraph(p);
  const auto comps = stronglyConnectedComponents(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], std::vector<int>{0});
  EXPECT_EQ(comps[1], std::vector<int>{1});
  EXPECT_EQ(comps[2], std::vector<int>{2});
}

TEST(Analysis, ParamBitsAcrossCut) {
  const auto p = chainProgram();
  // Cut between instr 1 and 2: t1 (32b) crosses. t0 does not (unused after).
  EXPECT_EQ(paramBitsAcrossCut(p, {0, 1}, {2}), 32);
  // Cut between 0 and 1: only t0 crosses.
  EXPECT_EQ(paramBitsAcrossCut(p, {0}, {1, 2}), 32);
  // No temporaries cross an empty cut.
  EXPECT_EQ(paramBitsAcrossCut(p, {}, {0, 1, 2}), 0);
}

TEST(Analysis, ParamBitsIgnoresHeaderFields) {
  IrProgram p;
  p.addField("hdr.a", 128);
  p.instrs.push_back(mk(Opcode::kAssign, Operand::field("hdr.a", 128),
                        {Operand::constant(1, 128)}));
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("x", 32),
                        {Operand::field("hdr.a", 128)}));
  // hdr.a crossing the cut costs nothing: headers already travel.
  EXPECT_EQ(paramBitsAcrossCut(p, {0}, {1}), 0);
}

// --- interpreter ---

TEST(Interp, ArithmeticAndWidthTruncation) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("a", 8),
                        {Operand::constant(0x1FF, 16)}));
  p.instrs.push_back(mk(Opcode::kAdd, Operand::var("b", 8),
                        {Operand::var("a", 8), Operand::constant(1, 8)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.params.at("a"), 0xFFu);
  EXPECT_EQ(pkt.params.at("b"), 0u);  // 0xFF + 1 truncated to 8 bits
}

TEST(Interp, PredicationSkipsAndNegates) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("c", 1),
                        {Operand::constant(0, 1)}));
  Instruction taken = mk(Opcode::kAssign, Operand::var("x", 32),
                         {Operand::constant(11, 32)});
  taken.pred = Operand::var("c", 1);
  taken.pred_negate = true;  // executes because c == 0
  Instruction skipped = mk(Opcode::kAssign, Operand::var("y", 32),
                           {Operand::constant(22, 32)});
  skipped.pred = Operand::var("c", 1);
  p.instrs.push_back(taken);
  p.instrs.push_back(skipped);

  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  const auto stats = interp.runAll(p, pkt);
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(pkt.params.at("x"), 11u);
  EXPECT_EQ(pkt.params.count("y"), 0u);
}

TEST(Interp, RegisterOps) {
  IrProgram p;
  StateObject s;
  s.name = "r";
  s.kind = StateKind::kRegister;
  s.depth = 4;
  s.value_width = 16;
  const int sid = p.addState(s);
  p.instrs.push_back(mk(Opcode::kRegWrite, Operand::none(),
                        {Operand::constant(2, 8), Operand::constant(100, 16)},
                        sid));
  p.instrs.push_back(mk(Opcode::kRegAdd, Operand::var("n", 16),
                        {Operand::constant(2, 8), Operand::constant(5, 16)},
                        sid));
  p.instrs.push_back(mk(Opcode::kRegRead, Operand::var("v", 16),
                        {Operand::constant(2, 8)}, sid));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.params.at("n"), 105u);
  EXPECT_EQ(pkt.params.at("v"), 105u);
}

TEST(Interp, ExactTableLookupHitMiss) {
  IrProgram p;
  StateObject s;
  s.name = "cache";
  s.kind = StateKind::kExactTable;
  s.depth = 8;
  const int sid = p.addState(s);
  p.addField("hdr.key", 32);
  p.instrs.push_back(mk(Opcode::kSemtWrite, Operand::none(),
                        {Operand::constant(7, 32), Operand::constant(70, 32)},
                        sid));
  Instruction lk = mk(Opcode::kSemtLookup, Operand::var("v", 32),
                      {Operand::field("hdr.key", 32)}, sid);
  lk.dest2 = Operand::var("hit", 1);
  p.instrs.push_back(lk);

  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);

  PacketView hitpkt;
  hitpkt.setField("hdr.key", 7);
  interp.runAll(p, hitpkt);
  EXPECT_EQ(hitpkt.params.at("v"), 70u);
  EXPECT_EQ(hitpkt.params.at("hit"), 1u);

  PacketView misspkt;
  misspkt.setField("hdr.key", 9);
  interp.runAll(p, misspkt);
  EXPECT_EQ(misspkt.params.at("v"), 0u);
  EXPECT_EQ(misspkt.params.at("hit"), 0u);
}

TEST(Interp, TableCapacityRejectsWhenFull) {
  StateObject s;
  s.name = "tiny";
  s.kind = StateKind::kExactTable;
  s.depth = 2;
  StateInstance inst(s);
  inst.insert(1, 10);
  inst.insert(2, 20);
  inst.insert(3, 30);  // rejected: full
  std::uint64_t v = 0;
  EXPECT_FALSE(inst.lookup(3, &v));
  EXPECT_TRUE(inst.lookup(1, &v));
  EXPECT_EQ(v, 10u);
  inst.insert(1, 11);  // overwrite allowed
  EXPECT_TRUE(inst.lookup(1, &v));
  EXPECT_EQ(v, 11u);
}

TEST(Interp, TernaryAndLpmMatch) {
  StateObject s;
  s.name = "t";
  s.kind = StateKind::kTernaryTable;
  s.key_width = 32;
  StateInstance inst(s);
  inst.insertLpm(0x0A000000, 8, 100);   // 10.0.0.0/8
  inst.insertLpm(0x0A010000, 16, 200);  // 10.1.0.0/16
  std::uint64_t v = 0;
  ASSERT_TRUE(inst.matchTernary(0x0A010203, &v));
  EXPECT_EQ(v, 200u);  // longest prefix wins (higher priority)
  ASSERT_TRUE(inst.matchTernary(0x0A050607, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_FALSE(inst.matchTernary(0x0B000000, &v));
}

TEST(Interp, VerdictFirstWins) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kSendBack, Operand::none(), {}));
  p.instrs.push_back(mk(Opcode::kDrop, Operand::none(), {}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.verdict, Verdict::kSendBack);
}

TEST(Interp, MirrorDoesNotConsumeVerdict) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kMirror, Operand::none(), {}));
  p.instrs.push_back(mk(Opcode::kForward, Operand::none(), {}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_TRUE(pkt.mirrored);
  EXPECT_EQ(pkt.verdict, Verdict::kForward);
}

TEST(Interp, ParamsCarryAcrossSnippets) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("t", 32),
                        {Operand::constant(42, 32)}));
  p.instrs.push_back(mk(Opcode::kAdd, Operand::var("u", 32),
                        {Operand::var("t", 32), Operand::constant(1, 32)}));
  StateStore s1, s2;
  Rng rng(1);
  Interpreter i1(&s1, &rng), i2(&s2, &rng);
  PacketView pkt;
  // Device 1 runs instr 0; device 2 runs instr 1 using the carried param.
  i1.run(p, std::span<const Instruction>(p.instrs.data(), 1), pkt);
  i2.run(p, std::span<const Instruction>(p.instrs.data() + 1, 1), pkt);
  EXPECT_EQ(pkt.params.at("u"), 43u);
}

TEST(Interp, FloatOpsRoundTrip) {
  IrProgram p;
  // f = itof(6, scale=2) = 3.0; g = f * 2.0; i = ftoi(g) = 6
  p.instrs.push_back(mk(Opcode::kItoF, Operand::var("f", 32),
                        {Operand::constant(6, 32), Operand::constant(2, 32)}));
  const std::uint32_t two = std::bit_cast<std::uint32_t>(2.0f);
  p.instrs.push_back(mk(Opcode::kFMul, Operand::var("g", 32),
                        {Operand::var("f", 32), Operand::constant(two, 32)}));
  p.instrs.push_back(mk(Opcode::kFtoI, Operand::var("i", 32),
                        {Operand::var("g", 32)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.params.at("i"), 6u);
}

TEST(Interp, CryptoRoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 0xDEADBEEFCAFEF00DULL}) {
    for (std::uint64_t k : {0ULL, 42ULL, ~0ULL}) {
      EXPECT_EQ(toyDecrypt(toyEncrypt(v, k), k), v);
      if (k != 0) {
        EXPECT_NE(toyEncrypt(v, k), v);
      }
    }
  }
}

TEST(Interp, HashOpsDeterministicAndBounded) {
  IrProgram p;
  p.addField("hdr.key", 32);
  p.instrs.push_back(mk(Opcode::kHashCrc16, Operand::var("h", 16),
                        {Operand::field("hdr.key", 32)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView a, b;
  a.setField("hdr.key", 99);
  b.setField("hdr.key", 99);
  interp.runAll(p, a);
  interp.runAll(p, b);
  EXPECT_EQ(a.params.at("h"), b.params.at("h"));
  EXPECT_LE(a.params.at("h"), 0xFFFFu);
}

TEST(Interp, SelectAndCompare) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kCmpLt, Operand::var("c", 1),
                        {Operand::constant(3, 32), Operand::constant(5, 32)}));
  p.instrs.push_back(
      mk(Opcode::kSelect, Operand::var("m", 32),
         {Operand::var("c", 1), Operand::constant(3, 32),
          Operand::constant(5, 32)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.params.at("c"), 1u);
  EXPECT_EQ(pkt.params.at("m"), 3u);
}

TEST(Interp, DivModByZeroYieldZero) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kDiv, Operand::var("d", 32),
                        {Operand::constant(9, 32), Operand::constant(0, 32)}));
  p.instrs.push_back(mk(Opcode::kMod, Operand::var("m", 32),
                        {Operand::constant(9, 32), Operand::constant(0, 32)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.params.at("d"), 0u);
  EXPECT_EQ(pkt.params.at("m"), 0u);
}

TEST(Interp, SliceExtractsBits) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kSlice, Operand::var("s", 8),
                        {Operand::constant(0xABCD, 16),
                         Operand::constant(8, 8), Operand::constant(8, 8)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  EXPECT_EQ(pkt.params.at("s"), 0xABu);
}

// Like kShr, a slice offset at or past the word width shifts every bit
// out; both engines must agree on it rather than shift out of range.
TEST(Interp, SliceByAtLeast64YieldsZeroOnBothEngines) {
  for (const std::uint64_t shift :
       {std::uint64_t{64}, std::uint64_t{107656623}, ~std::uint64_t{0}}) {
    IrProgram p;
    p.instrs.push_back(mk(Opcode::kSlice, Operand::var("s", 8),
                          {Operand::constant(0xABCD, 16),
                           Operand::constant(shift, 64),
                           Operand::constant(8, 8)}));
    StateStore ref_store, plan_store;
    Rng ref_rng(1), plan_rng(1);
    Interpreter ref(&ref_store, &ref_rng);
    PacketView a, b;
    ref.runAll(p, a);
    ExecPlan::compile(p).run(&plan_store, &plan_rng, b);
    EXPECT_EQ(a.params.at("s"), 0u) << "shift " << shift;
    EXPECT_EQ(b.params.at("s"), 0u) << "shift " << shift;
  }
}

TEST(Interp, ChecksumFolds) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kChecksum, Operand::var("c", 16),
                        {Operand::constant(0x10000, 32)}));
  StateStore store;
  Rng rng(1);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  interp.runAll(p, pkt);
  // 0x10000 folds to 0x0001; ones' complement = 0xFFFE.
  EXPECT_EQ(pkt.params.at("c"), 0xFFFEu);
}

// --- compiled execution plans (exec_plan.h) ---
//
// Property-style equivalence: randomized programs and packet batches run
// through both the reference switch interpreter and the compiled plan must
// produce bit-identical registers (Param maps), header fields, verdicts,
// stats, and state-store contents.

// Random straight-line program over every opcode family. Table keys and
// register indices are drawn from a small domain so lookups hit and the
// probes below can enumerate the state contents.
IrProgram randomProgram(clickinc::Rng& rng, int ninstr) {
  IrProgram p;
  p.name = "rand";
  for (int f = 0; f < 4; ++f) p.addField(cat("hdr.f", f), 32);

  auto addState = [&](const char* name, StateKind kind, int depth) {
    StateObject s;
    s.name = name;
    s.kind = kind;
    s.depth = static_cast<std::uint64_t>(depth);
    s.key_width = 16;
    s.value_width = 32;
    return p.addState(s);
  };
  const int reg_id = addState("reg", StateKind::kRegister, 8);
  const int emt_id = addState("emt", StateKind::kExactTable, 6);
  const int tmt_id = addState("tmt", StateKind::kTernaryTable, 8);
  const int dmt_id = addState("dmt", StateKind::kDirectTable, 8);

  std::vector<std::string> vars;
  auto randSrc = [&]() -> Operand {
    const auto pick = rng.nextBelow(4);
    if (pick == 0 || vars.empty()) {
      return Operand::constant(rng.nextBelow(16), 32);
    }
    if (pick == 1) {
      return Operand::field(cat("hdr.f", rng.nextBelow(4)), 32);
    }
    return Operand::var(vars[rng.nextBelow(vars.size())], 32);
  };

  const Opcode kPool[] = {
      Opcode::kAssign,   Opcode::kAdd,        Opcode::kSub,
      Opcode::kAnd,      Opcode::kOr,         Opcode::kXor,
      Opcode::kNot,      Opcode::kShl,        Opcode::kShr,
      Opcode::kSlice,    Opcode::kCmpLt,      Opcode::kCmpEq,
      Opcode::kCmpGt,    Opcode::kMin,        Opcode::kMax,
      Opcode::kSelect,   Opcode::kLAnd,       Opcode::kLOr,
      Opcode::kLNot,     Opcode::kMul,        Opcode::kDiv,
      Opcode::kMod,      Opcode::kFAdd,       Opcode::kFMul,
      Opcode::kFtoI,     Opcode::kItoF,       Opcode::kFSqrt,
      Opcode::kFCmpLt,   Opcode::kRegRead,    Opcode::kRegWrite,
      Opcode::kRegAdd,   Opcode::kRegClear,   Opcode::kEmtLookup,
      Opcode::kSemtLookup, Opcode::kSemtWrite, Opcode::kSemtDelete,
      Opcode::kTmtLookup, Opcode::kStmtLookup, Opcode::kStmtWrite,
      Opcode::kDmtLookup, Opcode::kDrop,       Opcode::kForward,
      Opcode::kSendBack, Opcode::kCopyToCpu,  Opcode::kMirror,
      Opcode::kHashCrc16, Opcode::kHashCrc32, Opcode::kHashIdentity,
      Opcode::kChecksum, Opcode::kRandInt,    Opcode::kAesEnc,
      Opcode::kAesDec,   Opcode::kNop,
  };
  const std::size_t npool = sizeof(kPool) / sizeof(kPool[0]);

  for (int i = 0; i < ninstr; ++i) {
    const Opcode op = kPool[rng.nextBelow(npool)];
    const auto& info = opcodeInfo(op);
    Instruction ins;
    ins.op = op;
    const int max_srcs = info.max_srcs < 0 ? 4 : info.max_srcs;
    const int nsrc =
        info.min_srcs +
        static_cast<int>(rng.nextBelow(
            static_cast<std::uint64_t>(max_srcs - info.min_srcs) + 1));
    for (int s = 0; s < nsrc; ++s) ins.srcs.push_back(randSrc());

    if (info.has_dest) {
      if (rng.nextBelow(4) == 0) {
        ins.dest = Operand::field(cat("hdr.f", rng.nextBelow(4)), 32);
      } else {
        std::string name = cat("t", i);
        ins.dest =
            Operand::var(name, 1 + static_cast<int>(rng.nextBelow(32)));
        vars.push_back(std::move(name));
      }
    }
    switch (opcodeClass(op)) {
      case InstrClass::kBSO: ins.state_id = reg_id; break;
      case InstrClass::kBEM:
      case InstrClass::kBSEM: ins.state_id = emt_id; break;
      case InstrClass::kBNEM:
      case InstrClass::kBSNEM: ins.state_id = tmt_id; break;
      case InstrClass::kBDM: ins.state_id = dmt_id; break;
      default: break;
    }
    // Occasionally drop the state reference to cover the null-state path.
    if (ins.state_id >= 0 && rng.nextBelow(10) == 0) ins.state_id = -1;
    if (info.state != StateAccess::kNone && info.has_dest &&
        rng.nextBelow(2) == 0) {
      std::string hit = cat("hit", i);
      ins.dest2 = Operand::var(hit, 1);
      vars.push_back(std::move(hit));
    }
    if (rng.nextBelow(3) == 0) {
      ins.pred = randSrc();
      ins.pred_negate = rng.nextBelow(2) == 0;
    }
    p.instrs.push_back(std::move(ins));
  }
  return p;
}

PacketView randomPacket(clickinc::Rng& rng) {
  PacketView pkt;
  for (int f = 0; f < 4; ++f) {
    pkt.setField(cat("hdr.f", f), rng.nextBelow(16));
  }
  pkt.params["carried"] = rng.nextBelow(100);
  pkt.user_id = 1;
  return pkt;
}

void expectSamePacket(const PacketView& ref, const PacketView& got) {
  EXPECT_EQ(ref.params, got.params);
  EXPECT_EQ(ref.fields, got.fields);
  EXPECT_EQ(ref.verdict, got.verdict);
  EXPECT_EQ(ref.mirrored, got.mirrored);
  EXPECT_EQ(ref.cpu_copied, got.cpu_copied);
}

// Compares every state the program declares: instance existence (lazy
// binding must not differ), register cells, and table contents over the
// small key domain the generator draws from.
void expectSameStores(const StateStore& ref, const StateStore& got,
                      const IrProgram& prog) {
  for (const auto& spec : prog.states) {
    const StateInstance* a = ref.find(spec.name);
    const StateInstance* b = got.find(spec.name);
    ASSERT_EQ(a == nullptr, b == nullptr) << spec.name;
    if (a == nullptr) continue;
    EXPECT_EQ(a->entryCount(), b->entryCount()) << spec.name;
    if (spec.kind == StateKind::kRegister ||
        spec.kind == StateKind::kDirectTable) {
      for (std::uint64_t i = 0; i < spec.depth; ++i) {
        EXPECT_EQ(a->regRead(i), b->regRead(i)) << spec.name << "[" << i
                                                << "]";
      }
    } else {
      for (std::uint64_t key = 0; key < 64; ++key) {
        std::uint64_t va = 0, vb = 0;
        const bool ha = a->lookup(key, &va);
        const bool hb = b->lookup(key, &vb);
        EXPECT_EQ(ha, hb) << spec.name << " key " << key;
        if (ha && hb) {
          EXPECT_EQ(va, vb) << spec.name << " key " << key;
        }
      }
    }
  }
}

TEST(ExecPlan, MatchesReferenceOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    clickinc::Rng gen(seed);
    const IrProgram prog = randomProgram(gen, 40);
    const ExecPlan plan = ExecPlan::compile(prog);

    StateStore ref_store, plan_store;
    clickinc::Rng ref_rng(seed * 1000 + 7), plan_rng(seed * 1000 + 7);
    Interpreter ref(&ref_store, &ref_rng);

    clickinc::Rng pkt_gen(seed + 99);
    for (int i = 0; i < 12; ++i) {
      PacketView a = randomPacket(pkt_gen);
      PacketView b = a;
      const ExecStats sa = ref.runAll(prog, a);
      const ExecStats sb = plan.run(&plan_store, &plan_rng, b);
      EXPECT_EQ(sa.executed, sb.executed) << "seed " << seed;
      EXPECT_EQ(sa.skipped, sb.skipped) << "seed " << seed;
      expectSamePacket(a, b);
    }
    expectSameStores(ref_store, plan_store, prog);
  }
}

TEST(ExecPlan, BatchMatchesSequentialReference) {
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    clickinc::Rng gen(seed);
    const IrProgram prog = randomProgram(gen, 32);
    const ExecPlan plan = ExecPlan::compile(prog);

    clickinc::Rng pkt_gen(seed);
    std::vector<PacketView> ref_pkts, plan_pkts;
    for (int i = 0; i < 16; ++i) {
      ref_pkts.push_back(randomPacket(pkt_gen));
      plan_pkts.push_back(ref_pkts.back());
    }

    StateStore ref_store, plan_store;
    clickinc::Rng ref_rng(seed * 31), plan_rng(seed * 31);
    Interpreter ref(&ref_store, &ref_rng);
    ExecStats ref_total;
    for (auto& pkt : ref_pkts) {
      const auto s = ref.runAll(prog, pkt);
      ref_total.executed += s.executed;
      ref_total.skipped += s.skipped;
    }
    const ExecStats plan_total = plan.runBatch(
        &plan_store, &plan_rng, std::span<PacketView>(plan_pkts));

    EXPECT_EQ(ref_total.executed, plan_total.executed);
    EXPECT_EQ(ref_total.skipped, plan_total.skipped);
    for (std::size_t i = 0; i < ref_pkts.size(); ++i) {
      expectSamePacket(ref_pkts[i], plan_pkts[i]);
    }
    expectSameStores(ref_store, plan_store, prog);
  }
}

TEST(ExecPlan, SegmentedPlansCarryParamsLikeReference) {
  for (std::uint64_t seed = 40; seed <= 44; ++seed) {
    clickinc::Rng gen(seed);
    const IrProgram prog = randomProgram(gen, 30);
    const int n = static_cast<int>(prog.instrs.size());
    const int cut1 = n / 3, cut2 = 2 * n / 3;
    std::vector<std::vector<int>> segments(3);
    for (int i = 0; i < n; ++i) {
      segments[static_cast<std::size_t>(i < cut1 ? 0 : i < cut2 ? 1 : 2)]
          .push_back(i);
    }

    // Per-segment stores model distinct devices; params carry in the view.
    StateStore ref_stores[3], plan_stores[3];
    clickinc::Rng ref_rng(seed), plan_rng(seed);
    clickinc::Rng pkt_gen(seed + 5);
    PacketView a = randomPacket(pkt_gen);
    PacketView b = a;
    for (int s = 0; s < 3; ++s) {
      std::vector<Instruction> seg;
      for (int i : segments[static_cast<std::size_t>(s)]) {
        seg.push_back(prog.instrs[static_cast<std::size_t>(i)]);
      }
      Interpreter ref(&ref_stores[s], &ref_rng);
      ref.run(prog, std::span<const Instruction>(seg), a);

      const ExecPlan plan =
          ExecPlan::compile(prog, segments[static_cast<std::size_t>(s)]);
      plan.run(&plan_stores[s], &plan_rng, b);
    }
    expectSamePacket(a, b);
    for (int s = 0; s < 3; ++s) {
      expectSameStores(ref_stores[s], plan_stores[s], prog);
    }
  }
}

TEST(ExecPlan, PredicatedOffWritesLeaveNoTrace) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("c", 1),
                        {Operand::constant(0, 1)}));
  Instruction skipped = mk(Opcode::kAssign, Operand::var("ghost", 32),
                           {Operand::constant(9, 32)});
  skipped.pred = Operand::var("c", 1);
  p.instrs.push_back(skipped);
  // A state op that never executes must not instantiate its state.
  StateObject s;
  s.name = "never";
  s.kind = StateKind::kRegister;
  s.depth = 4;
  const int sid = p.addState(s);
  Instruction reg = mk(Opcode::kRegAdd, Operand::var("n", 32),
                       {Operand::constant(0, 8), Operand::constant(1, 32)},
                       sid);
  reg.pred = Operand::var("c", 1);
  p.instrs.push_back(reg);

  const ExecPlan plan = ExecPlan::compile(p);
  StateStore store;
  clickinc::Rng rng(1);
  PacketView pkt;
  const auto stats = plan.run(&store, &rng, pkt);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(pkt.params.count("ghost"), 0u);
  EXPECT_EQ(pkt.params.count("n"), 0u);
  EXPECT_EQ(store.find("never"), nullptr);  // lazy binding, like reference
}

// --- Param frames (param_frame.h) ---

// out = carried + 5, where `carried` arrives from an upstream device.
IrProgram readsCarried() {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAdd, Operand::var("out", 32),
                        {Operand::var("carried", 32),
                         Operand::constant(5, 32)}));
  return p;
}

TEST(ParamFrame, NameSetBeforeBindIsAdoptedAndRead) {
  const IrProgram prog = readsCarried();
  const ExecPlan plan = ExecPlan::compile(prog);
  StateStore ref_store, plan_store;
  clickinc::Rng ref_rng(1), plan_rng(1);
  Interpreter ref(&ref_store, &ref_rng);
  PacketView a, b;
  for (PacketView* pkt : {&a, &b}) {
    pkt->params["carried"] = 37;
    pkt->params["other"] = 9;  // no program names it
    EXPECT_EQ(pkt->params.layout(), nullptr);
  }
  ref.runAll(prog, a);
  plan.run(&plan_store, &plan_rng, b);
  expectSamePacket(a, b);

  // The plan bound the frame and adopted `carried` into its slot.
  const ParamFrame& f = b.params;
  ASSERT_NE(f.layout(), nullptr);
  const std::uint32_t id = f.layout()->idOf("carried");
  ASSERT_NE(id, ParamLayout::kNoId);
  EXPECT_TRUE(f.written(id));
  EXPECT_EQ(f.values()[id], 37u);
  EXPECT_EQ(f.at("out"), 42u);
  EXPECT_EQ(f.at("other"), 9u);  // kept aside, still visible by name
  EXPECT_EQ(f.layout()->idOf("other"), ParamLayout::kNoId);
  EXPECT_EQ(f.size(), 3u);

  // randomPacket's `carried` is adopted the same way by every plan.
  clickinc::Rng gen(3), pkt_gen(4);
  const ExecPlan random_plan = ExecPlan::compile(randomProgram(gen, 10));
  PacketView r = randomPacket(pkt_gen);
  const std::uint64_t carried = r.params.at("carried");
  random_plan.run(&plan_store, &plan_rng, r);
  EXPECT_NE(r.params.layout(), nullptr);
  EXPECT_EQ(r.params.at("carried"), carried);
}

TEST(ParamFrame, EqualityIsByNameAcrossLayouts) {
  const auto l1 = ParamLayout::of(std::vector<std::string>{"a", "b", "c"});
  const auto l2 = ParamLayout::of(std::vector<std::string>{"z", "b", "a"});
  const auto l1_copy = ParamLayout::of(
      std::vector<std::string>{"c", "a", "b"});  // same names
  EXPECT_NE(l1->fingerprint(), l2->fingerprint());
  EXPECT_EQ(l1->fingerprint(), l1_copy->fingerprint());
  EXPECT_EQ(l1->idOf("a"), 0u);
  EXPECT_EQ(l2->idOf("z"), 2u);  // ids follow sorted order

  const auto frameOver = [](const std::shared_ptr<const ParamLayout>& l) {
    ParamFrame f;
    if (l != nullptr) f.bind(l);
    f.set("a", 1);
    f.set("b", 2);
    return f;
  };
  const ParamFrame f1 = frameOver(l1);
  const std::shared_ptr<const ParamLayout> unbound;
  for (const auto& layout : {l2, l1_copy, unbound}) {
    const ParamFrame base = frameOver(layout);
    EXPECT_EQ(f1, base);
    EXPECT_EQ(base, f1);

    ParamFrame value = base;  // one value differs
    value.set("b", 3);
    EXPECT_NE(f1, value);
    EXPECT_NE(value, f1);

    ParamFrame bit = base;  // one more written name, even holding 0
    bit.set("c", 0);
    EXPECT_NE(f1, bit);
    EXPECT_NE(bit, f1);
  }

  // Rebinding keeps the name view: values move to the new layout's ids.
  ParamFrame moved = f1;
  moved.bind(l2);
  EXPECT_EQ(moved, f1);
  EXPECT_EQ(moved.values()[l2->idOf("b")], 2u);
  EXPECT_FALSE(moved.written(l2->idOf("z")));
}

TEST(ExecPlan, CacheHitsOnIdenticalSegmentsAndKeysOnContent) {
  clickinc::Rng gen(7);
  IrProgram prog = randomProgram(gen, 20);
  std::vector<int> all(prog.instrs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);

  ExecPlanCache cache;
  const auto p1 = cache.get(prog, all);
  const auto p2 = cache.get(prog, all);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.stats().probes, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().compiles, 1u);

  // A structurally identical copy hits too (content keying, not identity).
  IrProgram copy = prog;
  const auto p3 = cache.get(copy, all);
  EXPECT_EQ(p1.get(), p3.get());

  // Changing an immediate misses.
  for (auto& ins : copy.instrs) {
    for (auto& src0 : ins.srcs) {
      if (src0.isConst()) {
        src0.value ^= 0x5A5A;
        goto changed;
      }
    }
  }
changed:
  const auto p4 = cache.get(copy, all);
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_EQ(cache.stats().compiles, 2u);
}

// --- superinstruction fusion (ExecPlanOptions::fuse) ---
//
// Fused plans must be bit-identical to unfused plans and to the
// reference interpreter across packets, ExecStats, and state stores —
// fusion may only change the dispatch count.

TEST(ExecPlanFusion, FusedMatchesUnfusedOnRandomPrograms) {
  std::size_t total_fused = 0;
  for (std::uint64_t seed = 100; seed <= 140; ++seed) {
    clickinc::Rng gen(seed);
    const IrProgram prog = randomProgram(gen, 40);
    const ExecPlan fused = ExecPlan::compile(prog, {.fuse = true});
    const ExecPlan plain = ExecPlan::compile(prog, {.fuse = false});
    total_fused += fused.fusedPairs();
    EXPECT_EQ(plain.fusedPairs(), 0u);
    EXPECT_EQ(plain.decodedCount(), plain.instrCount());
    EXPECT_EQ(fused.instrCount(), plain.instrCount());
    EXPECT_EQ(fused.decodedCount() + fused.fusedPairs(),
              fused.instrCount());

    StateStore ref_store, fused_store, plain_store;
    clickinc::Rng ref_rng(seed * 77 + 1), fused_rng(seed * 77 + 1),
        plain_rng(seed * 77 + 1);
    Interpreter ref(&ref_store, &ref_rng);

    clickinc::Rng pkt_gen(seed + 3);
    std::vector<PacketView> ref_pkts, fused_pkts, plain_pkts;
    for (int i = 0; i < 10; ++i) {
      ref_pkts.push_back(randomPacket(pkt_gen));
      fused_pkts.push_back(ref_pkts.back());
      plain_pkts.push_back(ref_pkts.back());
    }
    ExecStats ref_total;
    for (auto& pkt : ref_pkts) {
      const auto s = ref.runAll(prog, pkt);
      ref_total.executed += s.executed;
      ref_total.skipped += s.skipped;
    }
    const ExecStats fused_total = fused.runBatch(
        &fused_store, &fused_rng, std::span<PacketView>(fused_pkts));
    const ExecStats plain_total = plain.runBatch(
        &plain_store, &plain_rng, std::span<PacketView>(plain_pkts));

    EXPECT_EQ(ref_total.executed, fused_total.executed) << "seed " << seed;
    EXPECT_EQ(ref_total.skipped, fused_total.skipped) << "seed " << seed;
    EXPECT_EQ(plain_total.executed, fused_total.executed);
    EXPECT_EQ(plain_total.skipped, fused_total.skipped);
    for (std::size_t i = 0; i < ref_pkts.size(); ++i) {
      SCOPED_TRACE(cat("seed ", seed, " packet ", i));
      expectSamePacket(ref_pkts[i], fused_pkts[i]);
      expectSamePacket(ref_pkts[i], plain_pkts[i]);
    }
    expectSameStores(ref_store, fused_store, prog);
    expectSameStores(ref_store, plain_store, prog);
  }
  // The generator must actually exercise the peephole, or this suite
  // proves nothing.
  EXPECT_GT(total_fused, 0u);
}

// Each hot pair the peephole specializes, as a minimal program, checked
// against the reference interpreter and asserted to actually fuse.
TEST(ExecPlanFusion, SuperinstructionsFireOnHotPairs) {
  struct Case {
    const char* name;
    IrProgram prog;
  };
  std::vector<Case> cases;

  auto regState = [](IrProgram& p, const char* name) {
    StateObject s;
    s.name = name;
    s.kind = StateKind::kRegister;
    s.depth = 8;
    return p.addState(s);
  };

  {  // cmp.eq + select (DQAcc's duplicate-detect chain)
    Case c{"cmp_select", {}};
    c.prog.addField("hdr.v", 32);
    c.prog.instrs.push_back(mk(Opcode::kCmpEq, Operand::var("c", 1),
                               {Operand::field("hdr.v", 32),
                                Operand::constant(7, 32)}));
    c.prog.instrs.push_back(mk(Opcode::kSelect, Operand::var("x", 32),
                               {Operand::var("c", 1),
                                Operand::constant(1, 32),
                                Operand::constant(0, 32)}));
    cases.push_back(std::move(c));
  }
  {  // shr + cmp.eq, then cmp.eq + land (MLAgg's overflow checks)
    Case c{"shr_cmp_land", {}};
    c.prog.addField("hdr.v", 32);
    c.prog.instrs.push_back(mk(Opcode::kShr, Operand::var("s", 32),
                               {Operand::field("hdr.v", 32),
                                Operand::constant(31, 32)}));
    c.prog.instrs.push_back(mk(Opcode::kCmpEq, Operand::var("neg", 1),
                               {Operand::var("s", 32),
                                Operand::constant(1, 1)}));
    c.prog.instrs.push_back(mk(Opcode::kCmpEq, Operand::var("c2", 1),
                               {Operand::field("hdr.v", 32),
                                Operand::constant(3, 32)}));
    c.prog.instrs.push_back(mk(Opcode::kLAnd, Operand::var("both", 1),
                               {Operand::var("neg", 1),
                                Operand::var("c2", 1)}));
    cases.push_back(std::move(c));
  }
  {  // hash.crc32 + and (KVS's sketch-index masking)
    Case c{"hash_and", {}};
    c.prog.addField("hdr.key", 32);
    c.prog.instrs.push_back(mk(Opcode::kHashCrc32, Operand::var("h", 32),
                               {Operand::field("hdr.key", 32),
                                Operand::constant(40503, 32)}));
    c.prog.instrs.push_back(mk(Opcode::kAnd, Operand::var("idx", 10),
                               {Operand::var("h", 32),
                                Operand::constant(1023, 32)}));
    cases.push_back(std::move(c));
  }
  {  // reg.read + cmp (load+cmp) and and + reg.read (index+load)
    Case c{"reg_alu_reg", {}};
    c.prog.addField("hdr.v", 32);
    const int sid = regState(c.prog, "r");
    c.prog.instrs.push_back(mk(Opcode::kRegRead, Operand::var("v", 32),
                               {Operand::constant(1, 8)}, sid));
    c.prog.instrs.push_back(mk(Opcode::kCmpEq, Operand::var("hit", 1),
                               {Operand::var("v", 32),
                                Operand::field("hdr.v", 32)}));
    c.prog.instrs.push_back(mk(Opcode::kAnd, Operand::var("i", 3),
                               {Operand::field("hdr.v", 32),
                                Operand::constant(7, 32)}));
    c.prog.instrs.push_back(mk(Opcode::kRegRead, Operand::var("w", 32),
                               {Operand::var("i", 3)}, sid));
    cases.push_back(std::move(c));
  }
  {  // reg.write + reg.write and reg.read + reg.read with distinct
     // states (MLAgg's vector loads/stores)
    Case c{"reg_reg", {}};
    c.prog.addField("hdr.a", 32);
    c.prog.addField("hdr.b", 32);
    const int s1 = regState(c.prog, "ra");
    const int s2 = regState(c.prog, "rb");
    c.prog.instrs.push_back(mk(Opcode::kRegWrite, Operand::none(),
                               {Operand::constant(0, 8),
                                Operand::field("hdr.a", 32)}, s1));
    c.prog.instrs.push_back(mk(Opcode::kRegWrite, Operand::none(),
                               {Operand::constant(0, 8),
                                Operand::field("hdr.b", 32)}, s2));
    c.prog.instrs.push_back(mk(Opcode::kRegRead, Operand::var("x", 32),
                               {Operand::constant(0, 8)}, s1));
    c.prog.instrs.push_back(mk(Opcode::kRegRead, Operand::var("y", 32),
                               {Operand::constant(0, 8)}, s2));
    cases.push_back(std::move(c));
  }
  {  // table-lookup + dependent ALU (the intradevice match-action fuse)
    Case c{"lookup_alu", {}};
    c.prog.addField("hdr.key", 32);
    StateObject s;
    s.name = "emt";
    s.kind = StateKind::kExactTable;
    s.depth = 8;
    const int sid = c.prog.addState(s);
    c.prog.instrs.push_back(mk(Opcode::kSemtWrite, Operand::none(),
                               {Operand::constant(5, 16),
                                Operand::constant(42, 32)}, sid));
    Instruction look = mk(Opcode::kSemtLookup, Operand::var("val", 32),
                          {Operand::field("hdr.key", 32)}, sid);
    look.dest2 = Operand::var("hit", 1);
    c.prog.instrs.push_back(std::move(look));
    c.prog.instrs.push_back(mk(Opcode::kLAnd, Operand::var("use", 1),
                               {Operand::var("hit", 1),
                                Operand::constant(1, 1)}));
    cases.push_back(std::move(c));
  }
  {  // assign runs under a shared predicate (MLAgg's header restores)
    Case c{"pred_assigns", {}};
    c.prog.addField("hdr.a", 32);
    c.prog.addField("hdr.b", 32);
    c.prog.instrs.push_back(mk(Opcode::kAssign, Operand::var("p", 1),
                               {Operand::constant(1, 1)}));
    Instruction a1 = mk(Opcode::kAssign, Operand::field("hdr.a", 32),
                        {Operand::constant(11, 32)});
    a1.pred = Operand::var("p", 1);
    Instruction a2 = mk(Opcode::kAssign, Operand::field("hdr.b", 32),
                        {Operand::constant(22, 32)});
    a2.pred = Operand::var("p", 1);
    c.prog.instrs.push_back(std::move(a1));
    c.prog.instrs.push_back(std::move(a2));
    cases.push_back(std::move(c));
  }

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ExecPlan fused = ExecPlan::compile(c.prog, {.fuse = true});
    EXPECT_GE(fused.fusedPairs(), 1u);
    EXPECT_EQ(fused.instrCount(), c.prog.instrs.size());

    clickinc::Rng pkt_gen(0xBEEF);
    for (int trial = 0; trial < 8; ++trial) {
      PacketView a = randomPacket(pkt_gen);
      a.setField("hdr.v", pkt_gen.nextBelow(16));
      a.setField("hdr.key", pkt_gen.nextBelow(16));
      a.setField("hdr.a", pkt_gen.nextBelow(1u << 16));
      a.setField("hdr.b", pkt_gen.nextBelow(1u << 16));
      PacketView b = a;
      StateStore ref_store, fused_store;
      clickinc::Rng ref_rng(9), fused_rng(9);
      Interpreter ref(&ref_store, &ref_rng);
      const ExecStats sa = ref.runAll(c.prog, a);
      const ExecStats sb = fused.run(&fused_store, &fused_rng, b);
      EXPECT_EQ(sa.executed, sb.executed);
      EXPECT_EQ(sa.skipped, sb.skipped);
      expectSamePacket(a, b);
      expectSameStores(ref_store, fused_store, c.prog);
    }
  }
}

// A pair whose first instruction writes the shared predicate slot must
// not fuse (the reference re-evaluates B's predicate after A ran).
TEST(ExecPlanFusion, PredicateClobberBlocksFusion) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("c", 1),
                        {Operand::constant(1, 1)}));
  // A: c = 0, predicated on c. B: x = 9, predicated on c — the reference
  // skips B because A just cleared the predicate.
  Instruction a = mk(Opcode::kAssign, Operand::var("c", 1),
                     {Operand::constant(0, 1)});
  a.pred = Operand::var("c", 1);
  Instruction b = mk(Opcode::kAssign, Operand::var("x", 32),
                     {Operand::constant(9, 32)});
  b.pred = Operand::var("c", 1);
  p.instrs.push_back(std::move(a));
  p.instrs.push_back(std::move(b));

  const ExecPlan fused = ExecPlan::compile(p, {.fuse = true});
  StateStore ref_store, fused_store;
  clickinc::Rng ref_rng(1), fused_rng(1);
  Interpreter ref(&ref_store, &ref_rng);
  PacketView pa, pb;
  const auto sa = ref.runAll(p, pa);
  const auto sb = fused.run(&fused_store, &fused_rng, pb);
  EXPECT_EQ(sa.executed, sb.executed);
  EXPECT_EQ(sa.skipped, sb.skipped);
  expectSamePacket(pa, pb);
  EXPECT_EQ(pb.params.count("x"), 0u);  // B stayed predicated off
}

// Skipped fused records must count both component instructions, like
// the reference skipping them one by one.
TEST(ExecPlanFusion, SkippedPairCountsBothInstructions) {
  IrProgram p;
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("c", 1),
                        {Operand::constant(0, 1)}));
  Instruction a = mk(Opcode::kAdd, Operand::var("x", 32),
                     {Operand::constant(1, 32), Operand::constant(2, 32)});
  a.pred = Operand::var("c", 1);
  Instruction b = mk(Opcode::kAdd, Operand::var("y", 32),
                     {Operand::constant(3, 32), Operand::constant(4, 32)});
  b.pred = Operand::var("c", 1);
  p.instrs.push_back(std::move(a));
  p.instrs.push_back(std::move(b));

  const ExecPlan fused = ExecPlan::compile(p, {.fuse = true});
  ASSERT_EQ(fused.fusedPairs(), 1u);
  StateStore store;
  clickinc::Rng rng(1);
  PacketView pkt;
  const auto stats = fused.run(&store, &rng, pkt);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(pkt.params.count("x"), 0u);
  EXPECT_EQ(pkt.params.count("y"), 0u);
}

// Toggling the fusion knob must never serve a plan compiled under the
// other setting — the cache keys on the option.
TEST(ExecPlanFusion, CacheKeysIncludeFusionOption) {
  IrProgram p;
  p.addField("hdr.v", 32);
  p.instrs.push_back(mk(Opcode::kCmpEq, Operand::var("c", 1),
                        {Operand::field("hdr.v", 32),
                         Operand::constant(1, 32)}));
  p.instrs.push_back(mk(Opcode::kSelect, Operand::var("x", 32),
                        {Operand::var("c", 1), Operand::constant(1, 32),
                         Operand::constant(0, 32)}));
  std::vector<int> all{0, 1};

  ExecPlanCache cache;
  const auto fused = cache.get(p, all, {.fuse = true});
  const auto plain = cache.get(p, all, {.fuse = false});
  EXPECT_NE(fused.get(), plain.get());
  EXPECT_EQ(fused->fusedPairs(), 1u);
  EXPECT_EQ(plain->fusedPairs(), 0u);
  EXPECT_EQ(cache.stats().compiles, 2u);
  // Re-probing under each setting hits the matching entry.
  EXPECT_EQ(cache.get(p, all, {.fuse = true}).get(), fused.get());
  EXPECT_EQ(cache.get(p, all, {.fuse = false}).get(), plain.get());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().compiles, 2u);
}

// --- fusion legality guard (pred-clobber) regressions --------------------
//
// Each case is an adjacent fusable pair where A writes the shared 1-bit
// predicate slot. With the guard on (default), the pair must stay
// unfused and the plan must scan clean. Only the TEST-ONLY escape hatch
// (unsafe_fuse_ignore_pred_guard) lets the illegal pair through — and the
// verifier's checkFusedPlan must then flag exactly that record.

namespace {

struct ClobberCase {
  std::string name;
  IrProgram prog;
};

std::vector<ClobberCase> predClobberCases() {
  std::vector<ClobberCase> cases;
  {  // assign/assign: A clears the predicate both run under
    ClobberCase c{"assign_assign", {}};
    c.prog.instrs.push_back(mk(Opcode::kAssign, Operand::var("p", 1),
                               {Operand::constant(1, 1)}));
    Instruction a = mk(Opcode::kAssign, Operand::var("p", 1),
                       {Operand::constant(0, 1)});
    a.pred = Operand::var("p", 1);
    Instruction b = mk(Opcode::kAssign, Operand::var("x", 32),
                       {Operand::constant(9, 32)});
    b.pred = Operand::var("p", 1);
    c.prog.instrs.push_back(std::move(a));
    c.prog.instrs.push_back(std::move(b));
    cases.push_back(std::move(c));
  }
  {  // add/add: A recomputes the predicate it is guarded by
    ClobberCase c{"add_add", {}};
    c.prog.instrs.push_back(mk(Opcode::kAssign, Operand::var("p", 1),
                               {Operand::constant(1, 1)}));
    Instruction a = mk(Opcode::kAdd, Operand::var("p", 1),
                       {Operand::var("p", 1), Operand::constant(1, 1)});
    a.pred = Operand::var("p", 1);
    Instruction b = mk(Opcode::kAdd, Operand::var("y", 32),
                       {Operand::constant(3, 32), Operand::constant(4, 32)});
    b.pred = Operand::var("p", 1);
    c.prog.instrs.push_back(std::move(a));
    c.prog.instrs.push_back(std::move(b));
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace

TEST(ExecPlanFusion, GuardKeepsClobberingPairsUnfusedAndPlansScanClean) {
  for (auto& c : predClobberCases()) {
    SCOPED_TRACE(c.name);
    const ExecPlan plan = ExecPlan::compile(c.prog, {.fuse = true});
    EXPECT_EQ(plan.fusedPairs(), 0u);
    verify::VerifyReport rep;
    verify::checkFusedPlan(plan, /*user=*/0, /*device=*/0, /*segment=*/0,
                           &rep);
    EXPECT_TRUE(rep.ok()) << rep.summary();
  }
}

TEST(ExecPlanFusion, UnsafeEscapeHatchFusesAndVerifierFlagsTheRecord) {
  for (auto& c : predClobberCases()) {
    SCOPED_TRACE(c.name);
    const ExecPlan plan = ExecPlan::compile(
        c.prog, {.fuse = true, .unsafe_fuse_ignore_pred_guard = true});
    ASSERT_EQ(plan.fusedPairs(), 1u);
    verify::VerifyReport rep;
    verify::checkFusedPlan(plan, /*user=*/3, /*device=*/7, /*segment=*/1,
                           &rep);
    ASSERT_EQ(rep.violations.size(), 1u) << rep.summary();
    const auto& v = rep.violations.front();
    EXPECT_EQ(v.invariant, verify::Invariant::kIrWellFormed);
    EXPECT_EQ(v.check, "pred-clobber");
    EXPECT_EQ(v.user, 3);
    EXPECT_EQ(v.device, 7);
    EXPECT_EQ(v.segment, 1);
  }
}

// A legal predicated pair (A does not touch the slot) fuses under the
// default guard and still scans clean — the guard is precise, not a
// blanket ban on predicated fusion.
TEST(ExecPlanFusion, GuardLeavesNonClobberingPredicatedPairsAlone) {
  IrProgram p;
  p.addField("hdr.a", 32);
  p.addField("hdr.b", 32);
  p.instrs.push_back(mk(Opcode::kAssign, Operand::var("p", 1),
                        {Operand::constant(1, 1)}));
  Instruction a = mk(Opcode::kAssign, Operand::field("hdr.a", 32),
                     {Operand::constant(11, 32)});
  a.pred = Operand::var("p", 1);
  Instruction b = mk(Opcode::kAssign, Operand::field("hdr.b", 32),
                     {Operand::constant(22, 32)});
  b.pred = Operand::var("p", 1);
  p.instrs.push_back(std::move(a));
  p.instrs.push_back(std::move(b));

  const ExecPlan plan = ExecPlan::compile(p, {.fuse = true});
  EXPECT_GE(plan.fusedPairs(), 1u);
  verify::VerifyReport rep;
  verify::checkFusedPlan(plan, 0, 0, 0, &rep);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// The cache key must carry the unsafe bit too: probing the same program
// with and without the escape hatch yields distinct plans.
TEST(ExecPlanFusion, CacheKeysIncludeUnsafeGuardBit) {
  std::vector<ClobberCase> cases = predClobberCases();
  ASSERT_FALSE(cases.empty());
  const IrProgram& p = cases.front().prog;
  std::vector<int> all{0, 1, 2};

  ExecPlanCache cache;
  const auto guarded = cache.get(p, all, {.fuse = true});
  const auto unsafe = cache.get(
      p, all, {.fuse = true, .unsafe_fuse_ignore_pred_guard = true});
  EXPECT_NE(guarded.get(), unsafe.get());
  EXPECT_EQ(guarded->fusedPairs(), 0u);
  EXPECT_EQ(unsafe->fusedPairs(), 1u);
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.get(p, all, {.fuse = true}).get(), guarded.get());
  EXPECT_EQ(cache.get(p, all,
                      {.fuse = true, .unsafe_fuse_ignore_pred_guard = true})
                .get(),
            unsafe.get());
  EXPECT_EQ(cache.stats().compiles, 2u);
}

TEST(Interp, StateStoreIsolatesInstances) {
  StateObject s;
  s.name = "x";
  s.kind = StateKind::kRegister;
  s.depth = 4;
  StateStore a, b;
  a.instantiate(s).regWrite(0, 1);
  b.instantiate(s).regWrite(0, 2);
  EXPECT_EQ(a.find("x")->regRead(0), 1u);
  EXPECT_EQ(b.find("x")->regRead(0), 2u);
  a.remove("x");
  EXPECT_EQ(a.find("x"), nullptr);
  EXPECT_NE(b.find("x"), nullptr);
}

}  // namespace
}  // namespace clickinc::ir
