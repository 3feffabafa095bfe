// Live defragmentation runtime (docs/defrag.md): fragmentation scorer and
// stranded-capacity diagnosis, deterministic victim selection, the
// make-before-break migration executor (zero-loss, verifier-clean,
// bit-identical across thread pools), rollback on mid-swap deploy
// failure, crash cuts landing on exactly one of {old, new} plan, the
// reactive targeted-compaction retry, defragment() racing the async
// pipeline, and the churn-driver cadence soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/service.h"
#include "defrag/defrag.h"
#include "durable/journal.h"
#include "durable/serialize.h"
#include "place/intradevice.h"
#include "scale/churn.h"
#include "scale/fattree.h"
#include "util/strings.h"

namespace clickinc {
namespace {

using core::ClickIncService;
using core::ErrorCode;
using core::MigrationOutcome;
using core::SubmitRequest;

scale::FatTree podTree() {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  return scale::buildFatTree(p);
}

topo::TrafficSpec intraPod(const scale::FatTree& ft, std::size_t pod,
                           std::size_t src = 0, std::size_t dst = 2) {
  topo::TrafficSpec traffic;
  traffic.sources.push_back({ft.pods[pod].hosts[src], 10.0});
  traffic.dst_host = ft.pods[pod].hosts[dst];
  return traffic;
}

SubmitRequest dqacc(topo::TrafficSpec traffic, std::uint64_t depth = 128) {
  return SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", depth}, {"CacheLen", 2}}, std::move(traffic));
}

// Full behavioural digest: occupancy fingerprints, per-tenant plan
// fingerprints, emulator deployment digest.
std::string digestOf(core::ClickIncService& svc) {
  std::string out;
  for (const auto& n : svc.topology().nodes()) {
    if (!n.programmable) continue;
    out += cat("occ", n.id, "=",
               place::occupancyFingerprint(svc.occupancy().of(n.id)), ";");
  }
  for (const auto& [user, dep] : svc.deployments()) {
    out += cat("u", user, "=", durable::planFingerprint(dep.plan), ";");
  }
  out += cat("emu=", svc.emulator().deploymentDigest());
  return out;
}

std::vector<defrag::TenantPlanView> viewsOf(const ClickIncService& svc) {
  std::vector<defrag::TenantPlanView> views;
  for (const auto& [user, dep] : svc.deployments()) {
    views.push_back({user, &dep.plan});
  }
  return views;
}

// Deterministically fragments the service: stack intra-pod-0 tenants of
// mixed sizes, then remove every other one. The survivors sit on devices
// whose pressure is far above the fabric mean — prime victims. Returns
// the survivors, ascending.
std::vector<int> fragmentPod(ClickIncService& svc, const scale::FatTree& ft,
                             int tenants = 8) {
  std::vector<int> all, survivors;
  for (int i = 0; i < tenants; ++i) {
    const auto r = svc.submit(
        dqacc(intraPod(ft, 0, static_cast<std::size_t>(i % 2),
                       static_cast<std::size_t>(2 + i % 2)),
              64ULL << (i % 3)));
    EXPECT_TRUE(r.ok) << r.error.message();
    if (r.ok) all.push_back(r.user_id);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_TRUE(svc.remove(all[i]).ok);
    } else {
      survivors.push_back(all[i]);
    }
  }
  return survivors;
}

defrag::DefragOptions aggressive() {
  defrag::DefragOptions opts;
  opts.hot_threshold = 0.0;  // any above-mean device with tenants is hot
  opts.max_hot_devices = 8;
  opts.max_migrations = 8;
  return opts;
}

// --- scorer / selector ---------------------------------------------------

TEST(FragScore, FreshFabricScoresZero) {
  const auto ft = podTree();
  ClickIncService svc(ft.topo);
  const auto rep = defrag::scoreFragmentation(
      svc.topology(), svc.occupancy(), {}, svc.domainIndex(), {});
  EXPECT_EQ(rep.frag_score, 0.0);
  EXPECT_TRUE(rep.hot.empty());
  EXPECT_EQ(rep.mean_free, 1.0);
  EXPECT_EQ(rep.min_free, 1.0);
}

TEST(FragScore, LoadedPodRanksHotDevicesByPressure) {
  const auto ft = podTree();
  ClickIncService svc(ft.topo);
  fragmentPod(svc, ft);
  const auto views = viewsOf(svc);
  const auto rep = defrag::scoreFragmentation(
      svc.topology(), svc.occupancy(), views, nullptr, aggressive());
  EXPECT_GT(rep.frag_score, 0.0);
  ASSERT_FALSE(rep.hot.empty());
  for (std::size_t i = 1; i < rep.hot.size(); ++i) {
    EXPECT_GE(rep.hot[i - 1].pressure, rep.hot[i].pressure);
  }
  for (const auto& h : rep.hot) {
    EXPECT_GT(h.tenants, 0) << "hot device " << h.node << " has no tenants";
  }
}

TEST(FragScore, VictimsAreDeterministicAndClaimTheirEvacuationSet) {
  const auto ft = podTree();
  ClickIncService svc(ft.topo);
  fragmentPod(svc, ft);
  const auto views = viewsOf(svc);
  const auto opts = aggressive();
  const auto rep = defrag::scoreFragmentation(
      svc.topology(), svc.occupancy(), views, nullptr, opts);
  const auto victims = defrag::selectVictims(rep, views, opts);
  ASSERT_FALSE(victims.empty());
  EXPECT_LE(static_cast<int>(victims.size()), opts.max_migrations);
  std::set<int> hot;
  for (const auto& h : rep.hot) hot.insert(h.node);
  std::set<int> seen;
  for (const auto& v : victims) {
    EXPECT_TRUE(seen.insert(v.user).second) << "duplicate victim " << v.user;
    ASSERT_FALSE(v.evacuate.empty());
    for (const int dev : v.evacuate) {
      EXPECT_EQ(hot.count(dev), 1u) << "evacuate target not hot";
    }
  }
  // Same inputs, same picks.
  const auto again = defrag::selectVictims(rep, views, opts);
  ASSERT_EQ(again.size(), victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(again[i].user, victims[i].user);
    EXPECT_EQ(again[i].evacuate, victims[i].evacuate);
  }
}

// --- stranded-capacity diagnostic (S1) -----------------------------------

TEST(StrandedDiagnostic, ResourceExhaustionCarriesFragmentationVerdict) {
  // Fill a single-switch chain until a submission fails on resources: a
  // one-device fabric cannot strand capacity, so the verdict must be true
  // exhaustion, spelled out in the error detail.
  ClickIncService svc(topo::Topology::chain({device::makeTofino()}));
  const auto& topo = svc.topology();
  topo::TrafficSpec traffic;
  traffic.sources.push_back({topo.findNode("client"), 10.0});
  traffic.dst_host = topo.findNode("server");
  core::SubmitResult failed;
  for (int i = 0; i < 64; ++i) {
    auto r = svc.submit(SubmitRequest::fromTemplate(
        "DQAcc", {{"CacheDepth", 4096}, {"CacheLen", 4}}, traffic));
    if (!r.ok) {
      failed = std::move(r);
      break;
    }
  }
  ASSERT_EQ(failed.error.code, ErrorCode::kResourceExhausted)
      << failed.error.message();
  EXPECT_FALSE(failed.error.stranded);
  EXPECT_NE(failed.error.detail.find("true exhaustion"), std::string::npos)
      << failed.error.detail;
}

// Pipeline devices report INT_MAX / UINT64_MAX ("non-binding") budgets for
// micro-instructions, DSPs, LUTs and FFs in every stage. Summed over a
// multi-device fabric those used to wrap — negative for an even count of
// summed stages — so a tiny demand diagnosed as true exhaustion. The sum
// now saturates and the verdict is stranded.
TEST(StrandedDiagnostic, MultiDevicePipelineAggregateSaturates) {
  ClickIncService svc(topo::Topology::chain(
      {device::makeTofino(), device::makeTofino()}));
  modules::ModuleLibrary lib;
  const auto prog = lib.compileTemplate(
      "DQAcc", "dq", {{"CacheDepth", 64}, {"CacheLen", 2}});
  const auto diag =
      defrag::diagnoseStranded(prog, svc.occupancy(), svc.topology());
  EXPECT_EQ(diag.devices, 2);
  EXPECT_EQ(diag.aggregate_free.micro_instrs,
            std::numeric_limits<int>::max());
  EXPECT_EQ(diag.aggregate_free.dsps, std::numeric_limits<int>::max());
  EXPECT_EQ(diag.aggregate_free.luts,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(diag.aggregate_free.ffs,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(diag.stranded);
}

// --- migration executor --------------------------------------------------

TEST(Defragment, NoopOnFreshService) {
  const auto ft = podTree();
  ClickIncService svc(ft.topo);
  const auto rep = svc.defragment(aggressive());
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.migrated, 0);
  EXPECT_TRUE(rep.migrations.empty());
  EXPECT_EQ(rep.drops_after, rep.drops_before);
}

TEST(Defragment, CompactsFragmentedPodZeroLossVerifierClean) {
  const auto ft = podTree();
  ClickIncService svc(ft.topo);
  fragmentPod(svc, ft);
  const auto live_before = svc.deployments().size();
  const auto rep = svc.defragment(aggressive());
  EXPECT_TRUE(rep.ok) << rep.error.message();
  EXPECT_EQ(rep.dropped, 0);
  ASSERT_GT(rep.migrated, 0) << "fixture produced no migratable victim";
  EXPECT_EQ(rep.migrated + rep.skipped + rep.rolled_back,
            static_cast<int>(rep.migrations.size()));
  // Zero-loss: the emulator drop counter must not move during the pass.
  EXPECT_EQ(rep.drops_after, rep.drops_before);
  // Make-before-break keeps every tenant deployed.
  EXPECT_EQ(svc.deployments().size(), live_before);
  // Bit-exact occupancy reconciliation: the full audit re-derives every
  // device ledger from the live plans and compares field by field.
  const auto audit = svc.verifyDeployments();
  EXPECT_TRUE(audit.ok()) << audit.summary();
  // The batch must not have made fragmentation worse.
  EXPECT_LE(rep.after.frag_score, rep.before.frag_score);
}

TEST(Defragment, DeterministicAcrossThreadPools) {
  std::string want;
  for (const int threads : {1, 2, 8}) {
    const auto ft = podTree();
    ClickIncService svc(ft.topo);
    fragmentPod(svc, ft);
    svc.setConcurrency(threads);
    const auto rep = svc.defragment(aggressive());
    EXPECT_TRUE(rep.ok) << rep.error.message();
    const std::string got =
        cat("migrated=", rep.migrated, ";skipped=", rep.skipped,
            ";rolled_back=", rep.rolled_back, ";", digestOf(svc));
    if (want.empty()) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << "threads=" << threads;
    }
  }
}

TEST(Defragment, DeployFailureRollsBackToOldPlanNoLeak) {
  const auto ft = podTree();
  ClickIncService svc(ft.topo);
  fragmentPod(svc, ft);
  std::map<int, std::uint64_t> old_fp;
  for (const auto& [user, dep] : svc.deployments()) {
    old_fp[user] = durable::planFingerprint(dep.plan);
  }
  svc.injectDeployFailureAfter(0);  // first migration's new-plan deploy
  const auto rep = svc.defragment(aggressive());
  EXPECT_EQ(rep.dropped, 0) << "restore path must keep the tenant alive";
  ASSERT_GT(rep.rolled_back, 0);
  const auto& rb = rep.migrations.front();
  EXPECT_EQ(rb.outcome, MigrationOutcome::kRolledBack);
  EXPECT_FALSE(rb.error.ok());
  // The rolled-back tenant still runs its old plan; nothing leaked.
  ASSERT_TRUE(svc.deployments().count(rb.user_id));
  EXPECT_EQ(durable::planFingerprint(svc.deployments().at(rb.user_id).plan),
            old_fp.at(rb.user_id));
  const auto audit = svc.verifyDeployments();
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

// --- crash cuts: exactly one of {old, new} -------------------------------

TEST(DefragJournal, CutsAroundMigrateLandOnExactlyOldOrNewPlan) {
  const auto ft = podTree();
  durable::MemJournalSink sink;
  ClickIncService primary(ft.topo);
  primary.attachJournal(&sink);  // journal the whole history from fresh
  fragmentPod(primary, ft);
  const auto rep = primary.defragment(aggressive());
  ASSERT_TRUE(rep.ok) << rep.error.message();
  ASSERT_GT(rep.migrated, 0);

  const auto bytes = sink.readAll();
  const auto scan = durable::scanJournal(bytes);
  ASSERT_TRUE(scan.magic_ok);
  ASSERT_FALSE(scan.torn);
  int exercised = 0;
  for (const auto& rec : scan.records) {
    if (rec.type != durable::RecordType::kMigrate) continue;
    const auto mig = durable::decodeMigrate(rec.payload);
    const std::uint64_t new_fp = durable::planFingerprint(mig.plan);
    ++exercised;
    // Crash BEFORE the record: recovery lands on the old plan.
    {
      durable::MemJournalSink cut;
      cut.setBytes(std::vector<std::uint8_t>(
          bytes.begin(),
          bytes.begin() + static_cast<std::ptrdiff_t>(rec.offset)));
      ClickIncService svc(ft.topo);
      const auto r = svc.recover(&cut);
      ASSERT_TRUE(r.ok) << r.error.message();
      ASSERT_TRUE(svc.deployments().count(mig.user));
      EXPECT_EQ(
          durable::planFingerprint(svc.deployments().at(mig.user).plan),
          mig.old_plan_fp);
      EXPECT_TRUE(r.verify.ok()) << r.verify.summary();
    }
    // Crash AFTER the record: replay finishes the swap — the new plan.
    {
      durable::MemJournalSink cut;
      cut.setBytes(std::vector<std::uint8_t>(
          bytes.begin(),
          bytes.begin() + static_cast<std::ptrdiff_t>(rec.end)));
      ClickIncService svc(ft.topo);
      const auto r = svc.recover(&cut);
      ASSERT_TRUE(r.ok) << r.error.message();
      ASSERT_TRUE(svc.deployments().count(mig.user));
      EXPECT_EQ(
          durable::planFingerprint(svc.deployments().at(mig.user).plan),
          new_fp);
      EXPECT_TRUE(r.verify.ok()) << r.verify.summary();
    }
  }
  EXPECT_GT(exercised, 0);
  // Full-journal recovery reproduces the primary bit for bit.
  durable::MemJournalSink full;
  full.setBytes(bytes);
  ClickIncService svc(ft.topo);
  const auto r = svc.recover(&full);
  ASSERT_TRUE(r.ok) << r.error.message();
  EXPECT_EQ(digestOf(svc), digestOf(primary));
}

// --- reactive targeted compaction ----------------------------------------

TEST(ReactiveCompaction, StrandedFailureTriggersBoundedRetry) {
  // Two identical services pushed to the same resource wall; the reactive
  // one may only differ by running a compaction pass before giving up,
  // and any failure it still reports must carry the stranded verdict in
  // its detail (S1).
  for (const bool reactive : {false, true}) {
    const auto ft = podTree();
    ClickIncService svc(ft.topo);
    fragmentPod(svc, ft);
    if (reactive) {
      core::DefragPolicy pol;
      pol.reactive = true;
      pol.options = aggressive();
      svc.setDefragPolicy(pol);
    }
    int failures = 0;
    for (int i = 0; i < 48; ++i) {
      const auto r = svc.submit(
          dqacc(intraPod(ft, 0, static_cast<std::size_t>(i % 2),
                         static_cast<std::size_t>(2 + i % 2)),
                4096));
      if (r.ok) continue;
      ++failures;
      ASSERT_EQ(r.error.code, ErrorCode::kResourceExhausted)
          << r.error.message();
      const bool annotated =
          r.error.detail.find("stranded capacity") != std::string::npos ||
          r.error.detail.find("true exhaustion") != std::string::npos;
      EXPECT_TRUE(annotated) << r.error.detail;
      EXPECT_EQ(r.error.stranded,
                r.error.detail.find("stranded capacity") !=
                    std::string::npos);
      break;
    }
    ASSERT_GT(failures, 0) << "fixture never hit the resource wall";
    const auto audit = svc.verifyDeployments();
    EXPECT_TRUE(audit.ok()) << "reactive=" << reactive << ": "
                            << audit.summary();
  }
}

// --- defragment() racing the async pipeline (S3) -------------------------

TEST(DefragRaces, DefragmentInterleavedWithAsyncSubmitAndRemove) {
  for (const int threads : {1, 2, 8}) {
    const auto ft = podTree();
    ClickIncService svc(ft.topo);
    svc.setConcurrency(threads);
    std::vector<core::SubmissionTicket> tickets;
    std::set<int> removed;
    for (int i = 0; i < 24; ++i) {
      tickets.push_back(svc.submitAsync(
          dqacc(intraPod(ft, static_cast<std::size_t>(i % 4),
                         static_cast<std::size_t>(i % 2),
                         static_cast<std::size_t>(2 + i % 2)),
                64ULL << (i % 3))));
      if (i % 5 == 4) {
        // Concurrent compaction against in-flight submissions: must not
        // corrupt the ledger, lose a claim, or double-claim a device.
        const auto rep = svc.defragment(aggressive());
        EXPECT_EQ(rep.dropped, 0) << "threads=" << threads;
      }
      if (i % 7 == 6) {
        // Resolve an in-flight ticket and remove the tenant mid-storm.
        const auto& r = tickets[tickets.size() / 2].get();
        if (r.ok && removed.insert(r.user_id).second) {
          svc.remove(r.user_id);
        }
      }
    }
    std::set<int> accepted;
    for (auto& t : tickets) {
      const auto& r = t.get();
      if (r.ok) accepted.insert(r.user_id);
    }
    const auto rep = svc.defragment(aggressive());
    EXPECT_EQ(rep.dropped, 0);
    const auto audit = svc.verifyDeployments();
    EXPECT_TRUE(audit.ok()) << "threads=" << threads << ": "
                            << audit.summary();
    // No tenant lost or duplicated: live set == accepted minus removed.
    std::set<int> want;
    for (const int u : accepted) {
      if (removed.count(u) == 0) want.insert(u);
    }
    std::set<int> live;
    for (const auto& [user, dep] : svc.deployments()) {
      (void)dep;
      live.insert(user);
    }
    EXPECT_EQ(live, want) << "threads=" << threads;
  }
}

// --- churn-driver cadence soak -------------------------------------------

TEST(ChurnDefrag, CadenceSoakZeroMigrationLossUnderFaults) {
  const auto ft = podTree();
  core::ClickIncService svc(ft.topo);
  svc.setDomainSharding(true);
  svc.setConcurrency(2);
  scale::ChurnParams cp;
  cp.cycles = 300;
  cp.target_live = 24;
  cp.inflight = 4;
  cp.sample_every = 100;
  cp.audit_every = 100;
  cp.fault_every = 60;
  cp.defrag_every = 50;
  cp.defrag_opts = aggressive();
  cp.defrag_opts.max_migrations = 4;
  scale::ChurnDriver driver(&svc, &ft, cp);
  const auto& m = driver.run();
  EXPECT_GT(m.defrag_passes, 0);
  EXPECT_EQ(m.migration_drops, 0)
      << "a make-before-break migration lost a tenant";
  EXPECT_EQ(m.probe_drops, 0)
      << "migration-attributable packet loss out of " << m.probe_packets
      << " probes";
  EXPECT_EQ(m.verify_violations, 0);
  EXPECT_TRUE(m.final_audit.ok()) << m.final_audit.summary();
  ASSERT_FALSE(m.samples.empty());
  for (const auto& s : m.samples) EXPECT_GE(s.frag_score, 0.0);
  EXPECT_EQ(m.samples.back().migrations, m.migrations);
}

}  // namespace
}  // namespace clickinc
