// The tenant-facing submission API: structured errors with the right
// code/stage per failure cause through every entry point, and the
// request/ticket/commit lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>

#include "core/service.h"
#include "modules/templates.h"
#include "place/intradevice.h"
#include "topo/topology.h"
#include "util/strings.h"

namespace clickinc::core {
namespace {

topo::TrafficSpec trafficFor(const ClickIncService& svc,
                             const std::vector<std::string>& srcs,
                             const std::string& dst) {
  topo::TrafficSpec spec;
  for (const auto& s : srcs) {
    spec.sources.push_back({svc.topology().findNode(s), 10.0});
  }
  spec.dst_host = svc.topology().findNode(dst);
  return spec;
}

SubmitRequest dqaccRequest(const ClickIncService& svc,
                           std::uint64_t depth = 128) {
  return SubmitRequest::fromTemplate("DQAcc",
                                     {{"CacheDepth", depth}, {"CacheLen", 2}},
                                     trafficFor(svc, {"pod0a"}, "pod2b"));
}

// --- error taxonomy -----------------------------------------------------

// Every entry point runs the same compile -> commit pipeline, so a failure
// must carry the same code and stage whichever one a tenant used.
enum class Entry { kSubmit, kAsync, kAll };

struct EntryPoint {
  const char* name;
  Entry entry;
  int concurrency;
};

class ServiceErrors : public ::testing::TestWithParam<EntryPoint> {
 protected:
  // A fresh service at the entry point's concurrency.
  ClickIncService& service(
      topo::Topology t = topo::Topology::paperEmulation()) {
    svc_ = std::make_unique<ClickIncService>(std::move(t));
    svc_->setConcurrency(GetParam().concurrency);
    return *svc_;
  }

  SubmitResult submit(SubmitRequest req) {
    switch (GetParam().entry) {
      case Entry::kSubmit:
        return svc_->submit(std::move(req));
      case Entry::kAsync:
        return svc_->submitAsync(std::move(req)).get();
      case Entry::kAll: {
        std::vector<SubmitRequest> batch;
        batch.push_back(std::move(req));
        return svc_->submitAll(std::move(batch))[0];
      }
    }
    return {};
  }

 private:
  std::unique_ptr<ClickIncService> svc_;
};

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, ServiceErrors,
    ::testing::Values(EntryPoint{"Submit", Entry::kSubmit, 1},
                      EntryPoint{"SubmitAsync", Entry::kAsync, 1},
                      EntryPoint{"SubmitAll1", Entry::kAll, 1},
                      EntryPoint{"SubmitAll4", Entry::kAll, 4}),
    [](const ::testing::TestParamInfo<EntryPoint>& info) {
      return std::string(info.param.name);
    });

TEST_P(ServiceErrors, BadSourceYieldsParseErrorAtCompile) {
  auto& svc = service();
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const auto r = submit(SubmitRequest::fromSource(
      "if hdr.value @@ 3:\n    fwd()\n", hdr, {},
      trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kParseError);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_FALSE(r.error.detail.empty());
  // No resources claimed, no user registered.
  EXPECT_TRUE(svc.deployments().empty());
}

TEST_P(ServiceErrors, DeeplyNestedSourceYieldsParseErrorAndServiceLives) {
  auto& svc = service();
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const int deep = 100000;
  const auto r = submit(SubmitRequest::fromSource(
      "x = " + std::string(deep, '(') + "hdr.value" + std::string(deep, ')') +
          "\n",
      hdr, {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kParseError);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_TRUE(svc.deployments().empty());
  // The service is still usable.
  const auto next = submit(dqaccRequest(svc));
  EXPECT_TRUE(next.ok) << next.error.message();
}

TEST_P(ServiceErrors, LongElifChainYieldsParseErrorAndServiceLives) {
  auto& svc = service();
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  std::string src = "if hdr.value == 0:\n    x = 0\n";
  for (int arm = 1; arm < 100000; ++arm) {
    src += cat("elif hdr.value == ", arm, ":\n    x = ", arm, "\n");
  }
  const auto r = submit(SubmitRequest::fromSource(
      std::move(src), hdr, {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kParseError);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_TRUE(svc.deployments().empty());
  // The service is still usable.
  const auto next = submit(dqaccRequest(svc));
  EXPECT_TRUE(next.ok) << next.error.message();
}

// `x = 0`, 100,000 iterations of 20 `x = x + hdr.value` lines, then
// `hdr.value = x`: within the unroll budget, past the instruction budget.
std::string longBody() {
  std::string src = "x = 0\nfor a in range(100000):\n";
  for (int k = 0; k < 20; ++k) src += "    x = x + hdr.value\n";
  return src + "hdr.value = x\n";
}

// Sources whose lowering would run for hours or exhaust memory hit a
// lowering limit instead, fail fast, and leave the service usable.
TEST_P(ServiceErrors, LoweringLimitsYieldLowerErrorAndServiceLives) {
  auto& svc = service();
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const std::string sources[] = {
      // 10^10 unrolled iterations.
      "for i in range(100000):\n"
      "    for j in range(100000):\n"
      "        hdr.value = hdr.value + j\n",
      // 2^40 register-array rows.
      "a = Array(row=1099511627776, size=16, w=32)\n",
      // 2,000,001 instructions from 100,000 iterations of a 20-line body.
      longBody(),
  };
  for (const auto& src : sources) {
    SCOPED_TRACE(src);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = submit(SubmitRequest::fromSource(
        src, hdr, {}, trafficFor(svc, {"pod0a"}, "pod2b")));
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.code, ErrorCode::kLowerError);
    EXPECT_EQ(r.error.stage, Stage::kCompile);
    EXPECT_LT(s, 10.0);
    EXPECT_TRUE(svc.deployments().empty());
  }
  const auto next = submit(dqaccRequest(svc));
  EXPECT_TRUE(next.ok) << next.error.message();
}

// Lowering runs before any user id exists, so a frontend error reports
// kCompile from every entry point and its detail names the program base,
// not a would-be id.
TEST_P(ServiceErrors, FrontendErrorReportsCompileWithAnIdFreeDetail) {
  auto& svc = service();
  ASSERT_TRUE(submit(dqaccRequest(svc)).ok);  // id 1 is taken
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const auto r = submit(SubmitRequest::fromSource(
      "for i in range(hdr.value):\n    x = 1\n", hdr, {},
      trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kLowerError);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_TRUE(r.error.detail.starts_with("user:1: ")) << r.error.detail;
  EXPECT_EQ(svc.deployments().size(), 1u);
}

TEST_P(ServiceErrors, UnknownTemplateYieldsItsOwnCode) {
  auto& svc = service();
  const auto r = submit(SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kUnknownTemplate);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_NE(r.error.detail.find("NoSuchTemplate"), std::string::npos);
}

TEST_P(ServiceErrors, NonProgrammablePathIsStructurallyInfeasible) {
  // client - plain switch - server: every EC on the path is
  // non-programmable, so no amount of free resources can ever help.
  topo::Topology t;
  topo::Node c;
  c.name = "client";
  c.kind = topo::NodeKind::kHost;
  const int cid = t.addNode(c);
  topo::Node d;
  d.name = "plainswitch";
  d.kind = topo::NodeKind::kSwitch;
  d.programmable = false;
  const int did = t.addNode(d);
  topo::Node s;
  s.name = "server";
  s.kind = topo::NodeKind::kHost;
  const int sid = t.addNode(s);
  t.addLink(cid, did);
  t.addLink(did, sid);

  service(std::move(t));
  topo::TrafficSpec spec;
  spec.sources = {{cid, 10.0}};
  spec.dst_host = sid;
  const auto r = submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}}, spec));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kInfeasible);
  EXPECT_EQ(r.error.stage, Stage::kCompile);
  EXPECT_FALSE(r.plan.resource_limited);
}

TEST_P(ServiceErrors, OccupancyExhaustionYieldsResourceExhausted) {
  // Keep submitting large MLAgg instances until the topology is full: the
  // first failure must be classified as resource exhaustion (the same
  // program placed fine when devices were empty), not as structural
  // infeasibility.
  auto& svc = service();
  const auto req = [&] {
    return SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 100000}, {"Dim", 16}, {"NumWorker", 2}, {"IsConvert", 0}},
        trafficFor(svc, {"pod0a"}, "pod2b"));
  };
  SubmitResult last;
  int placed = 0;
  for (int i = 0; i < 64; ++i) {
    last = submit(req());
    if (!last.ok) break;
    ++placed;
  }
  ASSERT_FALSE(last.ok) << "64 large instances all fit; grow the workload";
  EXPECT_GT(placed, 0);
  EXPECT_EQ(last.error.code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(last.error.stage, Stage::kCompile);
  EXPECT_TRUE(last.plan.resource_limited);

  // Removing a tenant frees the resources: the same request fits again.
  const int victim = svc.deployments().begin()->first;
  ASSERT_TRUE(svc.remove(victim).ok);
  const auto retry = submit(req());
  EXPECT_TRUE(retry.ok) << retry.error.message();
}

TEST_P(ServiceErrors, RemoveUnknownUserIsStructured) {
  auto& svc = service();
  const auto r = svc.remove(4242);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kUnknownUser);
  EXPECT_EQ(r.error.stage, Stage::kRemove);
  EXPECT_TRUE(r.impact.affected_devices.empty());

  // Double-remove: the second call reports the same structured cause.
  const auto ok = submit(dqaccRequest(svc));
  ASSERT_TRUE(ok.ok) << ok.error.message();
  EXPECT_TRUE(svc.remove(ok.user_id).ok);
  const auto again = svc.remove(ok.user_id);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.error.code, ErrorCode::kUnknownUser);
}

TEST(ServiceErrorMessage, MessageCarriesStageAndCode) {
  ServiceError e{ErrorCode::kResourceExhausted, Stage::kCommit, "pod full"};
  EXPECT_EQ(e.message(), "[commit] ResourceExhausted: pod full");
  EXPECT_FALSE(e.ok());
  ServiceError none;
  EXPECT_TRUE(none.ok());
  EXPECT_EQ(none.message(), "ok");
}

// --- lifecycle ----------------------------------------------------------

TEST(ServiceLifecycle, SubmitAssignsIdsInCommitOrderSkippingFailures) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto a = svc.submit(dqaccRequest(svc));
  const auto bad = svc.submit(SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  const auto b = svc.submit(dqaccRequest(svc));
  ASSERT_TRUE(a.ok);
  ASSERT_FALSE(bad.ok);
  ASSERT_TRUE(b.ok);
  // Failed submissions do not consume ids.
  EXPECT_EQ(b.user_id, a.user_id + 1);
}

TEST(ServiceLifecycle, AsyncTicketJoinsToTheSameResultAsSync) {
  ClickIncService ref(topo::Topology::paperEmulation());
  const auto sync = ref.submit(dqaccRequest(ref));
  ASSERT_TRUE(sync.ok) << sync.error.message();

  ClickIncService svc(topo::Topology::paperEmulation());
  SubmissionTicket ticket = svc.submitAsync(dqaccRequest(svc));
  ASSERT_TRUE(ticket.valid());
  ticket.wait();
  EXPECT_EQ(ticket.status(), SubmissionTicket::Status::kReady);
  const auto& r = ticket.get();
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(r.user_id, sync.user_id);
  EXPECT_EQ(r.plan.gain, sync.plan.gain);
  EXPECT_EQ(r.impact.affected_devices, sync.impact.affected_devices);
  // get() is repeatable and copies share the result.
  SubmissionTicket copy = ticket;
  EXPECT_EQ(&copy.get(), &ticket.get());

  EXPECT_EQ(svc.deployments().count(r.user_id), 1u);
}

TEST(ServiceLifecycle, DefaultTicketIsInvalid) {
  SubmissionTicket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_EQ(ticket.status(), SubmissionTicket::Status::kInvalid);
  EXPECT_FALSE(ticket.done());
}

TEST(ServiceLifecycle, ConcurrentAsyncTenantsAllCommit) {
  ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(4);
  std::vector<SubmissionTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.submitAsync(dqaccRequest(svc, 64 + 32 * i)));
  }
  std::set<int> users;
  for (auto& t : tickets) {
    const auto& r = t.get();
    ASSERT_TRUE(r.ok) << r.error.message();
    users.insert(r.user_id);
  }
  EXPECT_EQ(users.size(), 4u);  // distinct ids, every tenant deployed
  EXPECT_EQ(svc.deployments().size(), 4u);
}

TEST(ServiceLifecycle, RemoveDuringInFlightCompileCancelsAtCommit) {
  ClickIncService svc(topo::Topology::paperEmulation());

  // Block the async submission between its occupancy snapshot and the
  // compile, so the remove() below races a genuinely in-flight tenant.
  std::promise<void> reached, release;
  auto reached_f = reached.get_future();
  auto release_f = release.get_future().share();
  svc.setCompileGate([&reached, release_f]() mutable {
    reached.set_value();
    release_f.wait();
  });

  SubmissionTicket ticket = svc.submitAsync(dqaccRequest(svc));
  reached_f.wait();
  svc.setCompileGate(nullptr);

  // The tenant has not committed yet, so its id (the next to be issued)
  // is not in deployments — but an in-flight staged submission exists, so
  // remove() records the cancellation instead of kUnknownUser.
  const auto rm = svc.remove(1);
  EXPECT_TRUE(rm.ok) << rm.error.message();
  EXPECT_TRUE(rm.impact.affected_devices.empty());

  release.set_value();
  const auto& r = ticket.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kUnknownUser);
  EXPECT_EQ(r.error.stage, Stage::kCommit);
  EXPECT_FALSE(r.error.detail.empty());

  // Nothing deployed, no occupancy leaked: a fresh audit is clean and a
  // new submission gets the id the cancelled tenant never consumed.
  EXPECT_TRUE(svc.deployments().empty());
  EXPECT_TRUE(svc.verifyDeployments().ok());
  const auto next = svc.submit(dqaccRequest(svc));
  ASSERT_TRUE(next.ok) << next.error.message();
  EXPECT_EQ(next.user_id, 1);
}

TEST(ServiceLifecycle, CancellationRefusesASyncSubmitReachingCommitFirst) {
  ClickIncService svc(topo::Topology::paperEmulation());

  std::promise<void> reached, release;
  auto reached_f = reached.get_future();
  auto release_f = release.get_future().share();
  svc.setCompileGate([&reached, release_f]() mutable {
    reached.set_value();
    release_f.wait();
  });

  SubmissionTicket ticket = svc.submitAsync(dqaccRequest(svc));
  reached_f.wait();
  svc.setCompileGate(nullptr);
  ASSERT_TRUE(svc.remove(1).ok);

  // The sync submission reaches commit first, under the cancelled id: it
  // is the one refused, whichever entry point it came from.
  const auto sync = svc.submit(dqaccRequest(svc));
  EXPECT_FALSE(sync.ok);
  EXPECT_EQ(sync.error.code, ErrorCode::kUnknownUser);
  EXPECT_EQ(sync.error.stage, Stage::kCommit);
  EXPECT_EQ(svc.deployments().count(1), 0u);

  // The cancellation is spent: the in-flight tenant commits normally.
  release.set_value();
  const auto& r = ticket.get();
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(r.user_id, 1);
  EXPECT_EQ(svc.deployments().size(), 1u);
  EXPECT_TRUE(svc.verifyDeployments().ok());
}

// Two staged submissions take their compile scope before either commits.
// Lowering is user-free, so whichever commits second is simply named
// after the id it receives there.
TEST(ServiceLifecycle, AsyncTenantsCompiledTogetherAreNamedAtCommit) {
  ClickIncService svc(topo::Topology::paperEmulation());
  std::atomic<int> arrived{0};
  std::promise<void> both, release;
  auto both_f = both.get_future();
  auto release_f = release.get_future().share();
  svc.setCompileGate([&arrived, &both, release_f] {
    if (++arrived == 2) both.set_value();
    release_f.wait();
  });
  SubmissionTicket first = svc.submitAsync(dqaccRequest(svc, 64));
  SubmissionTicket second = svc.submitAsync(dqaccRequest(svc, 128));
  both_f.wait();
  svc.setCompileGate(nullptr);
  release.set_value();

  std::set<int> users;
  for (SubmissionTicket* t : {&first, &second}) {
    const auto& r = t->get();
    ASSERT_TRUE(r.ok) << r.error.message();
    users.insert(r.user_id);
    const ir::IrProgram& prog = *svc.deployments().at(r.user_id).prog;
    EXPECT_EQ(prog.name, cat("dqacc_", r.user_id));
    ASSERT_FALSE(prog.states.empty());
    for (const auto& st : prog.states) {
      EXPECT_TRUE(st.name.starts_with(cat("dqacc_", r.user_id, "_")))
          << st.name;
    }
  }
  EXPECT_EQ(users, (std::set<int>{1, 2}));
  EXPECT_TRUE(svc.verifyDeployments().ok());
}

// A source tenant's template instance nests its prefix under the
// tenant's: `user_<id>_<template>_...`.
TEST(ServiceLifecycle, SourceTemplateInstanceIsNamedAfterTheTenant) {
  ClickIncService svc(topo::Topology::paperEmulation());
  ASSERT_TRUE(svc.submit(dqaccRequest(svc)).ok);
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  const auto r = svc.submit(SubmitRequest::fromSource(
      "d = DQAcc(64, 2)\nd(hdr)\n", hdr, {},
      trafficFor(svc, {"pod1a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  ASSERT_EQ(r.user_id, 2);
  const ir::IrProgram& prog = *svc.deployments().at(2).prog;
  EXPECT_EQ(prog.name, "user_2");
  ASSERT_FALSE(prog.states.empty());
  for (const auto& st : prog.states) {
    EXPECT_TRUE(st.name.starts_with("user_2_dqacc_")) << st.name;
  }
}

// A frontend error after an in-batch failure: the error is the compile
// stage's, and the tenant after it takes the id the failures left free.
TEST(ServiceLifecycle, SubmitAllFrontendErrorAfterAFailureReportsCompile) {
  ClickIncService svc(topo::Topology::paperEmulation());
  svc.setConcurrency(4);
  lang::HeaderSpec hdr;
  hdr.add("value", 32);
  std::vector<SubmitRequest> reqs;
  reqs.push_back(SubmitRequest::fromTemplate(
      "NoSuchTemplate", {}, trafficFor(svc, {"pod0a"}, "pod2b")));
  reqs.push_back(SubmitRequest::fromSource(
      "for i in range(hdr.value):\n    x = 1\n", hdr, {},
      trafficFor(svc, {"pod0a"}, "pod2b")));
  reqs.push_back(dqaccRequest(svc));
  const auto results = svc.submitAll(std::move(reqs));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].error.code, ErrorCode::kUnknownTemplate);
  EXPECT_EQ(results[1].error.code, ErrorCode::kLowerError);
  EXPECT_EQ(results[1].error.stage, Stage::kCompile);
  ASSERT_TRUE(results[2].ok) << results[2].error.message();
  EXPECT_EQ(results[2].user_id, 1);
  EXPECT_EQ(svc.deployments().at(1).prog->name, "dqacc_1");
}

TEST(ServiceLifecycle, SubmitAllFallsBackSequentiallyWithoutPool) {
  ClickIncService svc(topo::Topology::paperEmulation());
  ASSERT_EQ(svc.concurrency(), 1);
  std::vector<SubmitRequest> reqs;
  reqs.push_back(dqaccRequest(svc));
  reqs.push_back(dqaccRequest(svc));
  const auto results = svc.submitAll(std::move(reqs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  EXPECT_EQ(results[1].user_id, results[0].user_id + 1);
}

TEST(ServiceLifecycle, SubmitProgramPayloadKeepsCallerName) {
  ClickIncService svc(topo::Topology::paperEmulation());
  modules::ModuleLibrary lib;
  auto prog = lib.compileTemplate("DQAcc", "my_own_name",
                                  {{"CacheDepth", 64}, {"CacheLen", 2}});
  const auto r = svc.submit(SubmitRequest::fromProgram(
      std::move(prog), trafficFor(svc, {"pod0a"}, "pod2b")));
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(svc.deployments().at(r.user_id).prog->name, "my_own_name");
}


// An IR program from a tenant is untrusted: a constant destination would
// run as a variable in the compiled engine but read as 0 in the reference
// interpreter. The commit gate refuses it and nothing stays deployed.
TEST(ServiceLifecycle, ProgramWithAConstantDestinationIsRefused) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const std::uint64_t digest = svc.emulator().deploymentDigest();
  modules::ModuleLibrary lib;
  auto prog = lib.compileTemplate("DQAcc", "crafted",
                                  {{"CacheDepth", 64}, {"CacheLen", 2}});
  auto it = std::find_if(prog.instrs.begin(), prog.instrs.end(),
                         [](const ir::Instruction& i) {
                           return i.dest.isVar();
                         });
  ASSERT_NE(it, prog.instrs.end());
  it->dest = ir::Operand::constant(0, it->dest.width);
  const auto r = svc.submit(SubmitRequest::fromProgram(
      std::move(prog), trafficFor(svc, {"pod0a"}, "pod2b")));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, ErrorCode::kVerification);
  EXPECT_EQ(r.error.stage, Stage::kCommit);
  EXPECT_NE(r.error.detail.find("const-dest"), std::string::npos)
      << r.error.detail;
  EXPECT_TRUE(svc.deployments().empty());
  EXPECT_EQ(svc.emulator().deploymentDigest(), digest);
  EXPECT_TRUE(svc.verifyDeployments().ok());
  // Claims were returned: the same tenant without the corruption fits.
  EXPECT_TRUE(svc.submit(dqaccRequest(svc)).ok);
}

}  // namespace
}  // namespace clickinc::core
