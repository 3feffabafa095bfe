// The tenant-facing submission API: structured errors with the right
// code/stage per failure cause through every entry point, and the
// request/ticket/commit lifecycle.
#include <gtest/gtest.h>

#include <future>

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

}  // namespace
}  // namespace clickinc::core
