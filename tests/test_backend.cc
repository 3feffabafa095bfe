#include <gtest/gtest.h>

#include "backend/codegen.h"
#include "modules/templates.h"
#include "synth/synthesizer.h"
#include "util/strings.h"

namespace clickinc::backend {
namespace {

ir::IrProgram dqacc() {
  modules::ModuleLibrary lib;
  return lib.compileTemplate("DQAcc", "dq",
                             {{"CacheDepth", 64}, {"CacheLen", 2}});
}

ir::IrProgram mlagg() {
  modules::ModuleLibrary lib;
  return lib.compileTemplate(
      "MLAgg", "agg", {{"NumAgg", 64}, {"Dim", 4}, {"NumWorker", 2}});
}

TEST(Codegen, TargetNames) {
  EXPECT_STREQ(targetName(Target::kP4_16), "P4-16");
  EXPECT_STREQ(targetName(Target::kNpl), "NPL");
  EXPECT_STREQ(targetName(Target::kMicroC), "Micro-C");
  EXPECT_STREQ(targetName(Target::kHlsC), "HLS-C");
}

TEST(Codegen, P4ContainsTnaIdioms) {
  const auto prog = dqacc();
  const auto p4 = generate(Target::kP4_16, prog);
  EXPECT_NE(p4.find("#include <tna.p4>"), std::string::npos);
  EXPECT_NE(p4.find("control Ingress"), std::string::npos);
  // Register arrays become Register externs with RegisterActions.
  EXPECT_NE(p4.find("Register<"), std::string::npos);
  EXPECT_NE(p4.find("RegisterAction<"), std::string::npos);
  // The rolling-cache state objects appear by their isolated names.
  EXPECT_NE(p4.find("dq_cachearr_r0"), std::string::npos);
  EXPECT_NE(p4.find("dq_ptr_t"), std::string::npos);
  // Drop maps to the TNA idiom.
  EXPECT_NE(p4.find("ig_dprsr_md.drop_ctl"), std::string::npos);
}

TEST(Codegen, P4HeaderFieldsFromProgram) {
  const auto prog = dqacc();
  const auto p4 = generate(Target::kP4_16, prog);
  EXPECT_NE(p4.find("header inc_h"), std::string::npos);
  EXPECT_NE(p4.find("bit<32> value;"), std::string::npos);
}

TEST(Codegen, NplUsesTablesAndBuses) {
  const auto prog = dqacc();
  const auto npl = generate(Target::kNpl, prog);
  EXPECT_NE(npl.find("table dq_cachearr_r0"), std::string::npos);
  EXPECT_NE(npl.find("table_type : index"), std::string::npos);
  EXPECT_NE(npl.find("obj_bus.inc."), std::string::npos);
}

TEST(Codegen, MicroCUsesMemoryHierarchy) {
  const auto prog = mlagg();
  const auto microc = generate(Target::kMicroC, prog);
  EXPECT_NE(microc.find("#include <nfp.h>"), std::string::npos);
  EXPECT_NE(microc.find("pif_plugin"), std::string::npos);
  // Small state lands in CLS; the return-code idioms appear.
  EXPECT_NE(microc.find("__cls"), std::string::npos);
  EXPECT_NE(microc.find("PIF_PLUGIN_RETURN_DROP"), std::string::npos);
}

TEST(Codegen, MicroCLargeStateGoesToEmem) {
  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "KVS", "kvs", {{"CacheSize", 200000}, {"ValDim", 2}, {"TH", 8}});
  const auto microc = generate(Target::kMicroC, prog);
  EXPECT_NE(microc.find("__emem"), std::string::npos);
}

TEST(Codegen, HlsUsesPragmasAndRamBinding) {
  const auto prog = mlagg();
  const auto hls = generate(Target::kHlsC, prog);
  EXPECT_NE(hls.find("#pragma HLS PIPELINE II=1"), std::string::npos);
  EXPECT_NE(hls.find("ap_uint<"), std::string::npos);
  EXPECT_NE(hls.find("BIND_STORAGE"), std::string::npos);
}

TEST(Codegen, PredicatesBecomeIfGuards) {
  const auto prog = dqacc();
  const auto microc = generate(Target::kMicroC, prog);
  EXPECT_NE(microc.find("if ("), std::string::npos);
}

TEST(Codegen, LocPositiveAndOrdered) {
  const auto prog = mlagg();
  const int p4 = generatedLoc(Target::kP4_16, prog);
  const int npl = generatedLoc(Target::kNpl, prog);
  const int microc = generatedLoc(Target::kMicroC, prog);
  const int hls = generatedLoc(Target::kHlsC, prog);
  EXPECT_GT(p4, 50);
  EXPECT_GT(npl, 50);
  EXPECT_GT(microc, 50);
  EXPECT_GT(hls, 50);
  // All targets include every instruction, so sizes are the same order.
  EXPECT_LT(p4, microc * 4);
  EXPECT_LT(microc, p4 * 4);
}

TEST(Codegen, ParserTreeEmittedWhenProvided) {
  const auto prog = dqacc();
  synth::ParseTree tree;
  tree.addPath({"ethernet", "ipv4", "udp", "inc"}, 1);
  const auto p4 = generate(Target::kP4_16, prog, &tree);
  EXPECT_NE(p4.find("state parse_ethernet"), std::string::npos);
  EXPECT_NE(p4.find("state parse_inc"), std::string::npos);
  // Without a tree, only the start state exists.
  const auto bare = generate(Target::kP4_16, prog, nullptr);
  EXPECT_EQ(bare.find("state parse_ethernet"), std::string::npos);
}

TEST(Codegen, EveryTemplateGeneratesForEveryTarget) {
  modules::ModuleLibrary lib;
  for (const auto& name : lib.names()) {
    const auto prog = lib.compileTemplate(
        name, "t",
        name == "KVS"
            ? std::map<std::string, std::uint64_t>{{"CacheSize", 64},
                                                   {"ValDim", 2},
                                                   {"TH", 4}}
            : std::map<std::string, std::uint64_t>{});
    for (Target t : {Target::kP4_16, Target::kNpl, Target::kMicroC,
                     Target::kHlsC}) {
      const auto code = generate(t, prog);
      EXPECT_GT(lang::countLoc(code), 20) << name << " on " << targetName(t);
      EXPECT_EQ(code.find("unhandled"), std::string::npos)
          << name << " on " << targetName(t);
    }
  }
}

TEST(Codegen, SynthesizedMultiUserProgramGenerates) {
  // The merged base + two guarded user snippets must survive codegen.
  auto base = synth::makeDefaultBase();
  const auto model = device::makeNfp();
  synth::DeviceProgram dev(&base, &model);
  modules::ModuleLibrary lib;
  for (int u = 1; u <= 2; ++u) {
    synth::UserSnippet s;
    s.user_id = u;
    s.prog = std::make_shared<const ir::IrProgram>(lib.compileTemplate(
        "DQAcc", cat("dq", u), {{"CacheDepth", 32}, {"CacheLen", 2}}));
    for (std::size_t i = 0; i < s.prog->instrs.size(); ++i) {
      s.instr_idxs.push_back(static_cast<int>(i));
    }
    dev.addSnippet(std::move(s));
  }
  const auto microc =
      generate(Target::kMicroC, dev.executable(), &dev.parser());
  // Both tenants' isolated state appears.
  EXPECT_NE(microc.find("dq1_cachearr_r0"), std::string::npos);
  EXPECT_NE(microc.find("dq2_cachearr_r0"), std::string::npos);
  // Base forwarding table appears once.
  EXPECT_NE(microc.find("base_fwd_tbl"), std::string::npos);
}

}  // namespace
}  // namespace clickinc::backend
