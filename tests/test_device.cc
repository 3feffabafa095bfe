#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "device/demand.h"
#include "device/model.h"
#include "device/validate.h"
#include "modules/templates.h"

namespace clickinc::device {
namespace {

using ir::InstrClass;
using ir::Opcode;

TEST(Model, TofinoCapabilityMask) {
  const auto d = makeTofino();
  EXPECT_TRUE(d.supportsClass(InstrClass::kBIN));
  EXPECT_TRUE(d.supportsClass(InstrClass::kBSO));
  EXPECT_TRUE(d.supportsClass(InstrClass::kBEM));
  EXPECT_TRUE(d.supportsClass(InstrClass::kBNEM));
  EXPECT_TRUE(d.supportsClass(InstrClass::kBAF));
  // Eq. 9 exclusions.
  EXPECT_FALSE(d.supportsClass(InstrClass::kBIC));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBCA));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBDM));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBSEM));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBSNEM));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBCF));
}

TEST(Model, Trident4SupportsDirectMatchNotCrypto) {
  const auto d = makeTrident4();
  EXPECT_TRUE(d.supportsClass(InstrClass::kBDM));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBIC));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBCF));
}

TEST(Model, NfpSupportsIntegerMulNotFloatNorMirror) {
  const auto d = makeNfp();
  EXPECT_TRUE(d.supportsClass(InstrClass::kBIC));
  EXPECT_TRUE(d.supportsClass(InstrClass::kBSEM));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBCA));
  EXPECT_FALSE(d.supportsClass(InstrClass::kBAPF));
}

TEST(Model, FpgaSupportsEverything) {
  const auto d = makeFpga();
  for (int i = 0; i < ir::kNumInstrClasses; ++i) {
    EXPECT_TRUE(d.supportsClass(static_cast<InstrClass>(i)));
  }
}

TEST(Model, OpcodeRefinements) {
  EXPECT_TRUE(makeFpga().supportsOpcode(Opcode::kAesEnc));
  EXPECT_FALSE(makeNfp().supportsOpcode(Opcode::kAesEnc));
  EXPECT_TRUE(makeNfp().supportsOpcode(Opcode::kEcsEnc));
  EXPECT_FALSE(makeFpga().supportsOpcode(Opcode::kEcsEnc));
  EXPECT_TRUE(makeTofino().supportsOpcode(Opcode::kMulticast));
  EXPECT_FALSE(makeNfp().supportsOpcode(Opcode::kMulticast));
}

TEST(Model, CapacityOrdering) {
  // Tofino2 > Tofino in memory; FPGA has the largest RAM complement.
  EXPECT_GT(makeTofino2().totalMemoryBits(), makeTofino().totalMemoryBits());
  EXPECT_GT(makeNfp().totalMemoryBits(), makeTofino().totalMemoryBits());
}

TEST(Demand, InstrDemandByClass) {
  ir::Instruction add(Opcode::kAdd, ir::Operand::var("x", 32),
                      {ir::Operand::constant(1, 32),
                       ir::Operand::constant(2, 32)});
  EXPECT_EQ(instrDemand(add).alus, 1);
  EXPECT_EQ(instrDemand(add).salus, 0);

  ir::Instruction reg(Opcode::kRegAdd, ir::Operand::var("c", 32),
                      {ir::Operand::constant(0, 8),
                       ir::Operand::constant(1, 32)},
                      0);
  EXPECT_EQ(instrDemand(reg).salus, 1);

  ir::Instruction hash(Opcode::kHashCrc16, ir::Operand::var("h", 16),
                       {ir::Operand::constant(1, 32)});
  EXPECT_EQ(instrDemand(hash).hash_units, 1);

  ir::Instruction guarded = add;
  guarded.pred = ir::Operand::var("p", 1);
  EXPECT_EQ(instrDemand(guarded).gateways, 1);
}

TEST(Demand, StateCountedOncePerSet) {
  ir::IrProgram p;
  ir::StateObject s;
  s.name = "ctr";
  s.kind = ir::StateKind::kRegister;
  s.depth = 1024;
  s.value_width = 32;
  const int sid = p.addState(s);
  for (int i = 0; i < 3; ++i) {
    p.instrs.push_back(ir::Instruction(
        Opcode::kRegAdd, ir::Operand::var(std::string("c") + char('0' + i), 32),
        {ir::Operand::constant(0, 8), ir::Operand::constant(1, 32)}, sid));
  }
  const auto d = demandOfInstrs(p, {0, 1, 2});
  EXPECT_EQ(d.salus, 3);
  EXPECT_EQ(d.sram_bits, 1024u * 32u);  // once, not three times
}

TEST(Demand, ExactTableHasUtilizationSlack) {
  ir::StateObject s;
  s.kind = ir::StateKind::kExactTable;
  s.depth = 900;
  s.key_width = 64;
  s.value_width = 32;
  const auto d = stateDemand(s);
  EXPECT_GT(d.sram_bits, 900u * 96u);  // > raw storage
}

TEST(Demand, TernaryUsesTcam) {
  ir::StateObject s;
  s.kind = ir::StateKind::kTernaryTable;
  s.depth = 100;
  s.key_width = 32;
  s.value_width = 16;
  const auto d = stateDemand(s);
  EXPECT_EQ(d.tcam_bits, 3200u);
  EXPECT_EQ(d.sram_bits, 1600u);
}

// INT_MAX / UINT64_MAX are the "non-binding" budget sentinels, so sums of
// budgets must clamp there instead of wrapping.
TEST(Demand, AddSaturatesEveryFieldAtItsMax) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  ResourceDemand budget;
  budget.salus = budget.alus = budget.hash_units = budget.tables = kIntMax;
  budget.gateways = budget.special_fns = budget.micro_instrs = kIntMax;
  budget.dsps = kIntMax;
  budget.sram_bits = budget.tcam_bits = budget.luts = budget.ffs = kU64Max;
  ResourceDemand sum = budget;
  sum.add(budget);
  sum.add(budget);
  EXPECT_EQ(sum, budget);

  ResourceDemand small;
  small.alus = 3;
  small.luts = 7;
  ResourceDemand near = budget;
  near.alus = kIntMax - 1;
  near.luts = kU64Max - 1;
  near.add(small);
  EXPECT_EQ(near.alus, kIntMax);
  EXPECT_EQ(near.luts, kU64Max);

  // Sums that fit are exact.
  ResourceDemand exact;
  exact.add(small);
  exact.add(small);
  EXPECT_EQ(exact.alus, 6);
  EXPECT_EQ(exact.luts, 14u);
  EXPECT_EQ(exact.salus, 0);
}

// --- validator ---

class ValidateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    prog_.addField("hdr.k", 32);
    ir::StateObject s;
    s.name = "ctr";
    s.kind = ir::StateKind::kRegister;
    s.depth = 256;
    sid_ = prog_.addState(s);
    // 0: h = crc16(hdr.k); 1: c = reg_add(h, 1); 2: big = c > 10
    ir::Instruction h(Opcode::kHashCrc16, ir::Operand::var("h", 16),
                      {ir::Operand::field("hdr.k", 32)});
    ir::Instruction c(Opcode::kRegAdd, ir::Operand::var("c", 32),
                      {ir::Operand::var("h", 16),
                       ir::Operand::constant(1, 32)},
                      sid_);
    ir::Instruction b(Opcode::kCmpGt, ir::Operand::var("big", 1),
                      {ir::Operand::var("c", 32),
                       ir::Operand::constant(10, 32)});
    prog_.instrs = {h, c, b};
  }

  ir::IrProgram prog_;
  int sid_ = -1;
};

TEST_F(ValidateFixture, AcceptsOrderedStages) {
  const auto tofino = makeTofino();
  EXPECT_EQ(validatePipelinePlacement(tofino, prog_, {0, 1, 2}, {0, 1, 2}),
            "");
}

TEST_F(ValidateFixture, RejectsDependencyInversion) {
  const auto tofino = makeTofino();
  const auto err =
      validatePipelinePlacement(tofino, prog_, {0, 1, 2}, {2, 1, 0});
  EXPECT_NE(err, "");
}

TEST_F(ValidateFixture, RejectsSameStageDependency) {
  const auto tofino = makeTofino();
  const auto err =
      validatePipelinePlacement(tofino, prog_, {0, 1, 2}, {0, 0, 1});
  EXPECT_NE(err, "");
}

TEST_F(ValidateFixture, RejectsOutOfRangeStage) {
  const auto tofino = makeTofino();
  const auto err =
      validatePipelinePlacement(tofino, prog_, {0, 1, 2}, {0, 1, 99});
  EXPECT_NE(err, "");
}

TEST_F(ValidateFixture, RejectsUnsupportedClass) {
  const auto tofino = makeTofino();
  ir::IrProgram p;
  p.instrs.push_back(ir::Instruction(Opcode::kMul, ir::Operand::var("m", 32),
                                     {ir::Operand::constant(2, 32),
                                      ir::Operand::constant(3, 32)}));
  const auto err = validatePipelinePlacement(tofino, p, {0}, {0});
  EXPECT_NE(err.find("BIC"), std::string::npos);
}

TEST_F(ValidateFixture, RtcValidatesBudget) {
  const auto nfp = makeNfp();
  EXPECT_EQ(validateWholeDevicePlacement(nfp, prog_, {0, 1, 2}), "");
}

TEST_F(ValidateFixture, RtcRejectsFloat) {
  const auto nfp = makeNfp();
  ir::IrProgram p;
  p.instrs.push_back(ir::Instruction(Opcode::kFAdd, ir::Operand::var("f", 32),
                                     {ir::Operand::constant(0, 32),
                                      ir::Operand::constant(0, 32)}));
  EXPECT_NE(validateWholeDevicePlacement(nfp, p, {0}), "");
}

TEST_F(ValidateFixture, SaluPerStageLimit) {
  const auto tofino = makeTofino();  // 4 SALUs per stage
  ir::IrProgram p;
  std::vector<int> idxs, stages;
  for (int i = 0; i < 5; ++i) {
    ir::StateObject s;
    s.name = std::string("r") + char('0' + i);
    s.kind = ir::StateKind::kRegister;
    s.depth = 16;
    const int sid = p.addState(s);
    p.instrs.push_back(ir::Instruction(
        Opcode::kRegAdd, ir::Operand::var(std::string("c") + char('0' + i), 32),
        {ir::Operand::constant(0, 8), ir::Operand::constant(1, 32)}, sid));
    idxs.push_back(i);
    stages.push_back(0);  // all in stage 0: 5 > 4 SALUs
  }
  EXPECT_NE(validatePipelinePlacement(tofino, p, idxs, stages), "");
  // Spreading over two stages is fine.
  stages = {0, 0, 0, 0, 1};
  EXPECT_EQ(validatePipelinePlacement(tofino, p, idxs, stages), "");
}

TEST_F(ValidateFixture, MemoryOverflowDetected) {
  const auto tofino = makeTofino();
  ir::IrProgram p;
  ir::StateObject s;
  s.name = "huge";
  s.kind = ir::StateKind::kRegister;
  s.depth = 100u * 1024 * 1024;  // far beyond one stage's SRAM
  s.value_width = 32;
  const int sid = p.addState(s);
  p.instrs.push_back(ir::Instruction(Opcode::kRegRead,
                                     ir::Operand::var("v", 32),
                                     {ir::Operand::constant(0, 8)}, sid));
  EXPECT_NE(validatePipelinePlacement(tofino, p, {0}, {0}), "");
}

TEST_F(ValidateFixture, PhvBudget) {
  const auto tofino = makeTofino();
  ir::IrProgram p;
  for (int i = 0; i < 10; ++i) {
    p.addField(std::string("hdr.f") + char('a' + i), 32);
  }
  EXPECT_EQ(validatePhv(tofino, p, 64), "");
  ir::IrProgram fat;
  for (int i = 0; i < 100; ++i) {
    fat.addField(std::string("hdr.g") + std::to_string(i), 128);
  }
  EXPECT_NE(validatePhv(tofino, fat, 0), "");
}

TEST(ValidateTemplates, KvsRejectedOnTofinoAcceptedOnNfpAndFpga) {
  // The KVS template uses a data-plane-written exact table (BSEM), which
  // Tofino cannot host but NFP and FPGA can — the heterogeneity motivation
  // of §2.1.
  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "KVS", "kvs", {{"CacheSize", 512}, {"ValDim", 2}, {"TH", 8}});
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  EXPECT_NE(validateWholeDevicePlacement(makeTofino(), prog, all), "");
  EXPECT_EQ(validateWholeDevicePlacement(makeNfp(), prog, all), "");
  EXPECT_EQ(validateWholeDevicePlacement(makeFpga(), prog, all), "");
}

TEST(ValidateTemplates, MlaggIntegerFitsTofinoWholeDevice) {
  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "MLAgg", "agg",
      {{"NumAgg", 256}, {"Dim", 4}, {"NumWorker", 2}, {"IsConvert", 0}});
  std::vector<int> all;
  for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
    all.push_back(static_cast<int>(i));
  }
  // Class support holds on Tofino (no float, no BIC after lowering).
  for (int i : all) {
    EXPECT_TRUE(makeTofino().supportsOpcode(
        prog.instrs[static_cast<std::size_t>(i)].op))
        << prog.instrs[static_cast<std::size_t>(i)].toString();
  }
}

}  // namespace
}  // namespace clickinc::device
