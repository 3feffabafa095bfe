// The plan verifier and its differential fuzz harness: real pipeline
// states verify clean (no false positives) across 200 seeded scenarios
// with failover churn, every mutation-injected corruption is detected (no
// false negatives), and the commit-stage gate turns a corrupted ledger
// into a structured kVerification failure with full rollback.
#include <gtest/gtest.h>

#include "core/service.h"
#include "place/intradevice.h"
#include "topo/topology.h"
#include "verify/fuzz.h"
#include "verify/mutate.h"
#include "verify/verifier.h"

namespace clickinc::verify {
namespace {

topo::TrafficSpec trafficFor(const core::ClickIncService& svc,
                             const std::vector<std::string>& srcs,
                             const std::string& dst) {
  topo::TrafficSpec spec;
  for (const auto& s : srcs) {
    spec.sources.push_back({svc.topology().findNode(s), 10.0});
  }
  spec.dst_host = svc.topology().findNode(dst);
  return spec;
}

core::SubmitRequest kvsRequest(const core::ClickIncService& svc) {
  return core::SubmitRequest::fromTemplate(
      "KVS", {{"CacheSize", 256}, {"ValDim", 4}, {"TH", 32}},
      trafficFor(svc, {"pod0a", "pod0b"}, "pod2b"));
}

// --- the headline: 200 seeded differential-fuzz iterations --------------

TEST(VerifyFuzz, TwoHundredSeedsCleanAndEveryMutationClassDetected) {
  long fired_by[kNumMutations] = {};
  long checkpoints = 0, deployed = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const FuzzOutcome out = fuzzOnce(seed);
    ASSERT_TRUE(out.ok) << "seed " << seed << ": " << out.failure;
    checkpoints += out.checkpoints;
    deployed += out.tenants_deployed;
    for (int m = 0; m < kNumMutations; ++m) fired_by[m] += out.fired_by[m];
  }
  // The scenarios must be substantive: hundreds of clean audits over
  // hundreds of deployed tenants, and every corruption class detected
  // many times — not once by luck.
  EXPECT_GT(checkpoints, 500);
  EXPECT_GT(deployed, 100);
  for (int m = 0; m < kNumMutations; ++m) {
    EXPECT_GE(fired_by[m], 10)
        << toString(static_cast<Mutation>(m)) << " rarely detected";
  }
}

// --- direct invariant checks against a live service ---------------------

TEST(Verifier, CleanServiceVerifiesCleanAndCountsChecks) {
  core::ClickIncService svc(topo::Topology::paperEmulation());
  ASSERT_TRUE(svc.submit(kvsRequest(svc)).ok);
  const VerifyReport rep = svc.verifyDeployments();
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.checks, 0);
  EXPECT_EQ(rep.summary(), "");
}

TEST(Verifier, LedgerCorruptionIsReportedAsOccupancyDrift) {
  core::ClickIncService svc(topo::Topology::paperEmulation());
  const auto r = svc.submit(kvsRequest(svc));
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.verify.ok()) << r.verify.summary();

  // Leak one SALU on a plan device behind the ledger's back.
  const auto devs = r.plan.devicesUsed();
  ASSERT_FALSE(devs.empty());
  auto& occ = svc.occupancy().of(devs.front());
  if (!occ.free_stage.empty()) {
    occ.free_stage[0].salus += 1;
  } else {
    occ.free_whole.salus += 1;
  }

  const VerifyReport rep = svc.verifyDeployments();
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(Invariant::kOccupancySoundness));
  EXPECT_TRUE(rep.hasCheck("occupancy-drift")) << rep.summary();
  EXPECT_FALSE(rep.summary().empty());
}

TEST(Verifier, CommitGateFailsSubmissionWithKVerificationAndRollsBack) {
  core::ClickIncService svc(topo::Topology::paperEmulation());
  ASSERT_TRUE(svc.submit(kvsRequest(svc)).ok);
  ASSERT_EQ(svc.deployments().size(), 1u);

  // Corrupt the free ledger of every programmable device: whatever the
  // next plan touches, its scoped audit sees the drift. Decrement, so a
  // non-binding INT_MAX budget cannot overflow.
  const auto& nodes = svc.topology().nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].programmable) continue;
    auto& occ = svc.occupancy().of(static_cast<int>(i));
    for (auto& stage : occ.free_stage) stage.salus -= 1;
    if (occ.free_stage.empty()) occ.free_whole.salus -= 1;
  }

  const auto r = svc.submit(kvsRequest(svc));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, core::ErrorCode::kVerification);
  EXPECT_EQ(r.error.stage, core::Stage::kCommit);
  EXPECT_FALSE(r.verify.ok());
  EXPECT_FALSE(r.error.detail.empty());
  // Rolled back: the failed tenant is not registered and its claims were
  // returned (the pre-existing corruption is still there, nothing more).
  EXPECT_EQ(svc.deployments().size(), 1u);

  // With the gate off, the same corrupted ledger no longer blocks
  // submissions (the drift predates the tenant; its own plan is sound).
  svc.setVerifyPolicy({.at_commit = false, .at_failover = false});
  const auto r2 = svc.submit(kvsRequest(svc));
  EXPECT_TRUE(r2.ok) << r2.error.message();
  EXPECT_EQ(r2.verify.checks, 0);
}

TEST(Verifier, FailoverReportCarriesACleanFullAudit) {
  core::ClickIncService svc(topo::Topology::paperEmulation());
  const auto r = svc.submit(kvsRequest(svc));
  ASSERT_TRUE(r.ok);
  const auto devs = r.plan.devicesUsed();
  ASSERT_FALSE(devs.empty());

  const auto report = svc.failNode(devs.front());
  EXPECT_TRUE(report.verify.ok()) << report.verify.summary();
  EXPECT_GT(report.verify.checks, 0);

  const auto heal = svc.healNode(devs.front());
  EXPECT_TRUE(heal.verify.ok()) << heal.verify.summary();
}

// --- mutation injectors, deterministically -------------------------------

class MutationInjectors : public ::testing::Test {
 protected:
  void SetUp() override {
    svc_ = std::make_unique<core::ClickIncService>(
        topo::Topology::paperEmulation());
    // Two KVS tenants sharing the pod0 -> pod2 path (state on shared
    // devices), plus an MLAgg with replicated client-side segments.
    ASSERT_TRUE(svc_->submit(kvsRequest(*svc_)).ok);
    ASSERT_TRUE(svc_->submit(kvsRequest(*svc_)).ok);
    ASSERT_TRUE(svc_
                    ->submit(core::SubmitRequest::fromTemplate(
                        "MLAgg",
                        {{"NumAgg", 256},
                         {"Dim", 8},
                         {"NumWorker", 2},
                         {"IsConvert", 0}},
                        trafficFor(*svc_, {"pod0a", "pod1a"}, "pod2b")))
                    .ok);
    snap_ = std::make_unique<Snapshot>(svc_->verifySnapshot());
    ASSERT_TRUE(snap_->verify().ok());
  }

  std::unique_ptr<core::ClickIncService> svc_;
  std::unique_ptr<Snapshot> snap_;
};

TEST_F(MutationInjectors, EachClassFiresItsTargetInvariantOnly) {
  for (int mi = 0; mi < kNumMutations; ++mi) {
    const auto m = static_cast<Mutation>(mi);
    Snapshot mutated = *snap_;
    const auto desc = injectMutation(&mutated, m, /*seed=*/7);
    ASSERT_TRUE(desc.has_value()) << toString(m) << " found no site";
    const VerifyReport rep = mutated.verify();
    EXPECT_TRUE(rep.has(targetInvariant(m)))
        << toString(m) << " (" << *desc << "): " << rep.summary();
  }
  // The unmutated snapshot is untouched by the injector runs above.
  EXPECT_TRUE(snap_->verify().ok());
}

TEST_F(MutationInjectors, PredClobberReportsTheNamedCheck) {
  Snapshot mutated = *snap_;
  const auto desc = injectMutation(&mutated, Mutation::kPredClobber, 7);
  ASSERT_TRUE(desc.has_value());
  const VerifyReport rep = mutated.verify();
  EXPECT_TRUE(rep.hasCheck("pred-clobber")) << rep.summary();
}

TEST_F(MutationInjectors, SlotCollisionReportsBothDeviceAndUsers) {
  Snapshot mutated = *snap_;
  const auto desc = injectMutation(&mutated, Mutation::kSlotCollision, 7);
  ASSERT_TRUE(desc.has_value());
  const VerifyReport rep = mutated.verify();
  ASSERT_TRUE(rep.hasCheck("slot-collision")) << rep.summary();
  for (const auto& v : rep.violations) {
    if (v.check != "slot-collision") continue;
    EXPECT_GE(v.device, 0);
    EXPECT_GE(v.user, 0);
    EXPECT_NE(v.detail.find("also deployed by user"), std::string::npos);
  }
}

}  // namespace
}  // namespace clickinc::verify
