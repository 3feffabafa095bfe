#include <gtest/gtest.h>

#include "ir/interp.h"
#include "modules/templates.h"
#include "synth/synthesizer.h"
#include "util/strings.h"

namespace clickinc::synth {
namespace {

using clickinc::Rng;
using ir::Interpreter;
using ir::PacketView;
using ir::StateStore;
using ir::Verdict;

std::vector<int> allInstrs(const ir::IrProgram& p) {
  std::vector<int> out;
  for (std::size_t i = 0; i < p.instrs.size(); ++i) {
    out.push_back(static_cast<int>(i));
  }
  return out;
}

UserSnippet snippetOf(int user, ir::IrProgram prog) {
  UserSnippet s;
  s.user_id = user;
  s.instr_idxs = allInstrs(prog);
  s.prog = std::make_shared<const ir::IrProgram>(std::move(prog));
  return s;
}

ir::IrProgram dqacc(const std::string& name) {
  modules::ModuleLibrary lib;
  return lib.compileTemplate("DQAcc", name,
                             {{"CacheDepth", 64}, {"CacheLen", 2}});
}

// --- parse tree ---

TEST(ParseTree, AddAndCount) {
  ParseTree t;
  t.addPath({"ethernet", "ipv4", "udp"}, kOperatorOwner);
  EXPECT_EQ(t.nodeCount(), 3);
  t.addPath({"ethernet", "ipv4", "udp", "inc"}, 1);
  EXPECT_EQ(t.nodeCount(), 4);
  // Shared prefix is annotated, not duplicated.
  t.addPath({"ethernet", "ipv4", "udp", "inc", "kvs0"}, 1);
  EXPECT_EQ(t.nodeCount(), 5);
  EXPECT_TRUE(t.containsHeader("kvs0"));
}

TEST(ParseTree, RemoveOwnerKeepsSharedNodes) {
  ParseTree t;
  t.addPath({"ethernet", "ipv4", "udp"}, kOperatorOwner);
  t.addPath({"ethernet", "ipv4", "udp", "inc", "kvs0"}, 1);
  t.addPath({"ethernet", "ipv4", "udp", "inc", "agg0"}, 2);
  EXPECT_EQ(t.nodeCount(), 6);
  const int removed = t.removeOwner(1);
  EXPECT_EQ(removed, 1);  // only kvs0 died; "inc" is still owned by 2
  EXPECT_FALSE(t.containsHeader("kvs0"));
  EXPECT_TRUE(t.containsHeader("agg0"));
  EXPECT_TRUE(t.containsHeader("udp"));
  t.removeOwner(2);
  EXPECT_FALSE(t.containsHeader("inc"));
  EXPECT_TRUE(t.containsHeader("udp"));  // operator's network headers stay
}

TEST(ParseTree, MergeFromAnnotates) {
  ParseTree a;
  a.addPath({"ethernet", "ipv4"}, kOperatorOwner);
  ParseTree b;
  b.addPath({"ethernet", "ipv4", "udp", "inc"}, 7);
  a.mergeFrom(b, 7);
  EXPECT_EQ(a.nodeCount(), 4);
  const auto headers = a.headersOf(7);
  EXPECT_EQ(headers.size(), 4u);  // user 7 annotated along the whole chain
}

// --- isolation ---

TEST(Isolation, VariablesRenamedStatesKept) {
  const auto prog = dqacc("dq0");
  const auto iso = isolateVariables(prog, 3);
  for (const auto& ins : iso.instrs) {
    if (ins.dest.isVar()) {
      EXPECT_TRUE(startsWith(ins.dest.name, "u3_")) << ins.dest.name;
    }
    EXPECT_TRUE(ins.ownedBy(3));
  }
  // State names keep the frontend prefix (dq0_...), not the user prefix.
  for (const auto& st : iso.states) {
    EXPECT_TRUE(startsWith(st.name, "dq0_"));
  }
}

// --- device program synthesis ---

class SynthFixture : public ::testing::Test {
 protected:
  SynthFixture()
      : base_(makeDefaultBase()),
        model_(device::makeTofino()),
        dev_(&base_, &model_) {}

  BaseProgram base_;
  device::DeviceModel model_;
  DeviceProgram dev_;
};

TEST_F(SynthFixture, MergedContainsBaseHeadAndTail) {
  const auto& exe = dev_.executable();
  // TTL validation from head, LPM forward from tail.
  bool has_lpm = false, has_ttl_check = false;
  for (const auto& ins : exe.instrs) {
    if (ins.op == ir::Opcode::kLpmLookup) has_lpm = true;
    if (ins.op == ir::Opcode::kCmpNe && !ins.srcs.empty() &&
        ins.srcs[0].name == "hdr.ipv4_ttl") {
      has_ttl_check = true;
    }
  }
  EXPECT_TRUE(has_lpm);
  EXPECT_TRUE(has_ttl_check);
}

TEST_F(SynthFixture, SnippetSitsBetweenHeadAndTail) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  const auto& exe = dev_.executable();
  std::size_t first_user = exe.instrs.size(), tail_pos = 0;
  for (std::size_t i = 0; i < exe.instrs.size(); ++i) {
    if (exe.instrs[i].ownedBy(1) && first_user == exe.instrs.size()) {
      first_user = i;
    }
    if (exe.instrs[i].op == ir::Opcode::kLpmLookup) tail_pos = i;
  }
  EXPECT_GT(first_user, 0u);           // head comes first
  EXPECT_LT(first_user, tail_pos);     // user before tail forwarding
}

TEST_F(SynthFixture, UserTrafficFilterIsolation) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  StateStore store;
  Rng rng(5);
  Interpreter interp(&store, &rng);
  const auto& exe = dev_.executable();

  // Packet of user 1 is processed by the DQAcc logic (duplicate dropped).
  auto send = [&](int uid, std::uint64_t value) {
    PacketView pkt;
    pkt.setField("hdr._uid", static_cast<std::uint64_t>(uid));
    pkt.setField("hdr.eth_type", 0x0800);
    pkt.setField("hdr.ipv4_ttl", 8);
    pkt.setField("hdr.value", value);
    interp.runAll(exe, pkt);
    return pkt;
  };
  EXPECT_EQ(send(1, 99).verdict, Verdict::kForward);
  EXPECT_EQ(send(1, 99).verdict, Verdict::kDrop);  // duplicate for user 1
  // Same value from another user: untouched by user 1's program (the
  // rolling cache write was guarded), so the packet just forwards.
  EXPECT_EQ(send(2, 99).verdict, Verdict::kForward);
}

TEST_F(SynthFixture, TwoInstancesDoNotShareState) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  dev_.addSnippet(snippetOf(2, dqacc("dq1")));
  StateStore store;
  Rng rng(5);
  Interpreter interp(&store, &rng);
  const auto& exe = dev_.executable();
  auto send = [&](int uid, std::uint64_t value) {
    PacketView pkt;
    pkt.setField("hdr._uid", static_cast<std::uint64_t>(uid));
    pkt.setField("hdr.eth_type", 0x0800);
    pkt.setField("hdr.ipv4_ttl", 8);
    pkt.setField("hdr.value", value);
    interp.runAll(exe, pkt);
    return pkt;
  };
  EXPECT_EQ(send(1, 42).verdict, Verdict::kForward);
  // User 2 sees the same value as fresh: no cross-instance cache sharing.
  EXPECT_EQ(send(2, 42).verdict, Verdict::kForward);
  EXPECT_EQ(send(2, 42).verdict, Verdict::kDrop);
  EXPECT_EQ(send(1, 42).verdict, Verdict::kDrop);
}

TEST_F(SynthFixture, BaseDropStillAppliesToUserTraffic) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  StateStore store;
  Rng rng(5);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  pkt.setField("hdr._uid", 1);
  pkt.setField("hdr.eth_type", 0x0800);
  pkt.setField("hdr.ipv4_ttl", 0);  // expired: base head drops
  pkt.setField("hdr.value", 1);
  interp.runAll(dev_.executable(), pkt);
  EXPECT_EQ(pkt.verdict, Verdict::kDrop);
}

TEST_F(SynthFixture, IncrementalAddReportsAffectedUsers) {
  const auto base_instrs = dev_.executable().instrs.size();
  auto s1 = dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  EXPECT_GT(dev_.executable().instrs.size(), base_instrs);
  EXPECT_TRUE(s1.other_users_affected.empty());
  auto s2 = dev_.addSnippet(snippetOf(2, dqacc("dq1")));
  ASSERT_EQ(s2.other_users_affected.size(), 1u);
  EXPECT_EQ(s2.other_users_affected[0], 1);
}

TEST_F(SynthFixture, LazyRemovalDisablesWithoutStripping) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  const auto instrs_before = dev_.executable().instrs.size();
  dev_.removeUser(1, /*lazy=*/true);
  EXPECT_TRUE(dev_.parser().containsHeader("dq0"));  // nothing stripped yet
  EXPECT_FALSE(dev_.hostsUser(1));
  // The merged executable no longer contains user 1's logic.
  EXPECT_LT(dev_.executable().instrs.size(), instrs_before);
  // Next add enforces the strip: user 1 is gone before co-residents are
  // counted, and its parser paths go with it.
  auto s2 = dev_.addSnippet(snippetOf(2, dqacc("dq1")));
  EXPECT_TRUE(s2.other_users_affected.empty());
  EXPECT_FALSE(dev_.parser().containsHeader("dq0"));
}

TEST_F(SynthFixture, EagerRemovalStripsImmediately) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  dev_.addSnippet(snippetOf(2, dqacc("dq1")));
  const auto instrs_before = dev_.executable().instrs.size();
  auto stats = dev_.removeUser(1, /*lazy=*/false);
  EXPECT_LT(dev_.executable().instrs.size(), instrs_before);
  // The strip leaves exactly the executable of a device hosting user 2.
  DeviceProgram only2(&base_, &model_);
  only2.addSnippet(snippetOf(2, dqacc("dq1")));
  EXPECT_EQ(dev_.executable().instrs.size(), only2.executable().instrs.size());
  for (const auto& ins : dev_.executable().instrs) {
    EXPECT_FALSE(ins.ownedBy(1));
  }
  ASSERT_EQ(stats.other_users_affected.size(), 1u);
  EXPECT_EQ(stats.other_users_affected[0], 2);
  EXPECT_FALSE(dev_.hostsUser(1));
  EXPECT_TRUE(dev_.hostsUser(2));
  // User 2 still works after the strip.
  StateStore store;
  Rng rng(5);
  Interpreter interp(&store, &rng);
  PacketView pkt;
  pkt.setField("hdr._uid", 2);
  pkt.setField("hdr.eth_type", 0x0800);
  pkt.setField("hdr.ipv4_ttl", 3);
  pkt.setField("hdr.value", 5);
  interp.runAll(dev_.executable(), pkt);
  EXPECT_EQ(pkt.verdict, Verdict::kForward);
}

TEST_F(SynthFixture, SnippetSharesTheTenantProgram) {
  const auto prog = std::make_shared<const ir::IrProgram>(dqacc("dq0"));
  dev_.addSnippet({1, prog, allInstrs(*prog)});
  // The device program holds a reference to the tenant's IR, not a copy.
  EXPECT_EQ(prog.use_count(), 2);
  EXPECT_TRUE(dev_.hostsUser(1));
  EXPECT_TRUE(dev_.parser().containsHeader("dq0"));  // named after prog
  dev_.removeUser(1, /*lazy=*/false);
  EXPECT_EQ(prog.use_count(), 1);
}

TEST_F(SynthFixture, ParserMergesAndStrips) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  dev_.addSnippet(snippetOf(2, dqacc("dq1")));
  EXPECT_TRUE(dev_.parser().containsHeader("dq0"));
  EXPECT_TRUE(dev_.parser().containsHeader("dq1"));
  EXPECT_TRUE(dev_.parser().containsHeader("inc"));
  dev_.removeUser(1, /*lazy=*/false);
  EXPECT_FALSE(dev_.parser().containsHeader("dq0"));
  EXPECT_TRUE(dev_.parser().containsHeader("inc"));  // shared with user 2
}

TEST_F(SynthFixture, MergedExecutableVerifies) {
  dev_.addSnippet(snippetOf(1, dqacc("dq0")));
  dev_.addSnippet(snippetOf(2, dqacc("dq1")));
  EXPECT_NO_THROW(dev_.executable().verify());
}

// Distributed-equivalence property: splitting a program in half across two
// synthesized devices yields the same packet outcomes as one device.
TEST(DistributedEquivalence, TwoDeviceSplitMatchesSingle) {
  modules::ModuleLibrary lib;
  auto prog = lib.compileTemplate("DQAcc", "dq",
                                  {{"CacheDepth", 64}, {"CacheLen", 2}});
  const int n = static_cast<int>(prog.instrs.size());
  // Find a cut that does not split any state-sharing group: use the block
  // DAG boundary — here simply cut before the first drop/fwd action.
  int cut = n / 2;
  for (int i = 0; i < n; ++i) {
    if (prog.instrs[static_cast<std::size_t>(i)].state_id >= 0) {
      cut = i;  // cut before the first stateful op
      break;
    }
  }
  std::vector<int> first, second;
  for (int i = 0; i < cut; ++i) first.push_back(i);
  for (int i = cut; i < n; ++i) second.push_back(i);

  Rng rng(9);
  StateStore single_store, store_a, store_b;
  Interpreter single(&single_store, &rng);
  Interpreter dev_a(&store_a, &rng);
  Interpreter dev_b(&store_b, &rng);

  for (int round = 0; round < 200; ++round) {
    const std::uint64_t value = (round * 7) % 23;
    PacketView p1;
    p1.setField("hdr.value", value);
    single.runAll(prog, p1);

    PacketView p2;
    p2.setField("hdr.value", value);
    dev_a.run(prog, std::span<const ir::Instruction>(
                         prog.instrs.data(), static_cast<std::size_t>(cut)),
              p2);
    dev_b.run(prog,
              std::span<const ir::Instruction>(
                  prog.instrs.data() + cut,
                  static_cast<std::size_t>(n - cut)),
              p2);
    ASSERT_EQ(p1.verdict, p2.verdict) << "round " << round;
  }
}

}  // namespace
}  // namespace clickinc::synth
