// Datacenter-scale subsystem suites (docs/scale.md): fat-tree generator
// counts against the k-ary closed forms, pod metadata partitioning,
// reachability, DomainIndex classification, sharded-vs-unsharded
// bit-identity across 1/2/8-thread pools, per-domain verifier
// reconciliation, and the churn harness under sustained fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/service.h"
#include "durable/serialize.h"
#include "place/intradevice.h"
#include "scale/churn.h"
#include "scale/domains.h"
#include "scale/fattree.h"
#include "util/crc.h"
#include "util/strings.h"

namespace clickinc {
namespace {

// --- generator: counts match the closed forms ---------------------------

struct Counted {
  int switches = 0, hosts = 0, nics = 0, programmable = 0;
};

Counted countNodes(const topo::Topology& topo) {
  Counted c;
  for (const auto& n : topo.nodes()) {
    switch (n.kind) {
      case topo::NodeKind::kSwitch: ++c.switches; break;
      case topo::NodeKind::kHost: ++c.hosts; break;
      case topo::NodeKind::kNic: ++c.nics; break;
      default: break;
    }
    if (n.programmable) ++c.programmable;
  }
  return c;
}

TEST(FatTreeGen, CountsMatchClosedFormAcrossK) {
  for (const int k : {4, 8, 16}) {
    scale::FatTreeParams p;
    p.k = k;
    p.hosts_per_tor = k == 16 ? 8 : 2;
    const auto shape = scale::expectedShape(p);
    const auto ft = scale::buildFatTree(p);
    const auto c = countNodes(ft.topo);
    EXPECT_EQ(c.switches, shape.switches) << "k=" << k;
    EXPECT_EQ(c.hosts, shape.hosts) << "k=" << k;
    EXPECT_EQ(c.nics, 0) << "k=" << k;
    EXPECT_EQ(static_cast<int>(ft.topo.nodes().size()), shape.nodes);
    EXPECT_EQ(static_cast<int>(ft.topo.links().size()), shape.links);
    EXPECT_EQ(static_cast<int>(ft.pods.size()), k);
    EXPECT_EQ(static_cast<int>(ft.cores.size()), shape.cores);
    // Closed forms themselves, independently of the generator.
    const int half = k / 2;
    EXPECT_EQ(shape.cores, half * half);
    EXPECT_EQ(shape.aggs, k * half);
    EXPECT_EQ(shape.tors, k * half);
    EXPECT_EQ(shape.hosts, k * half * p.hosts_per_tor);
    EXPECT_EQ(shape.links, 2 * k * half * half + shape.hosts);
  }
  // k=16 at 8 hosts/ToR is the paper-scale point: 320 switches, 1024 hosts.
  scale::FatTreeParams big;
  big.k = 16;
  big.hosts_per_tor = 8;
  const auto s = scale::expectedShape(big);
  EXPECT_EQ(s.switches, 320);
  EXPECT_EQ(s.hosts, 1024);
}

TEST(FatTreeGen, NicTierSplicesEveryHost) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  p.host_nics = true;
  const auto shape = scale::expectedShape(p);
  const auto ft = scale::buildFatTree(p);
  const auto c = countNodes(ft.topo);
  EXPECT_EQ(c.nics, shape.hosts);
  EXPECT_EQ(static_cast<int>(ft.topo.links().size()), shape.links);
  EXPECT_EQ(shape.host_links, 2 * shape.hosts);
  for (const auto& pod : ft.pods) {
    EXPECT_EQ(pod.nics.size(), pod.hosts.size());
  }
}

TEST(FatTreeGen, PodMetadataPartitionsNodeSetExactly) {
  for (const bool nics : {false, true}) {
    scale::FatTreeParams p;
    p.k = 8;
    p.hosts_per_tor = 2;
    p.host_nics = nics;
    const auto ft = scale::buildFatTree(p);
    std::multiset<int> seen(ft.cores.begin(), ft.cores.end());
    for (const auto& pod : ft.pods) {
      seen.insert(pod.tors.begin(), pod.tors.end());
      seen.insert(pod.aggs.begin(), pod.aggs.end());
      seen.insert(pod.hosts.begin(), pod.hosts.end());
      seen.insert(pod.nics.begin(), pod.nics.end());
    }
    ASSERT_EQ(seen.size(), ft.topo.nodes().size());
    for (const auto& n : ft.topo.nodes()) {
      EXPECT_EQ(seen.count(n.id), 1u) << "node " << n.id;
    }
  }
}

TEST(FatTreeGen, HostPairsReachableAndIntraPodPathsStayInPod) {
  scale::FatTreeParams p;
  p.k = 16;
  p.hosts_per_tor = 8;
  const auto ft = scale::buildFatTree(p);
  const auto hosts = ft.allHosts();
  ASSERT_EQ(hosts.size(), 1024u);
  const scale::DomainIndex idx(ft.topo);
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const int a = hosts[rng.nextBelow(hosts.size())];
    int b = a;
    while (b == a) b = hosts[rng.nextBelow(hosts.size())];
    const auto path = ft.topo.shortestPathUp(a, b);
    ASSERT_FALSE(path.empty()) << a << "->" << b;
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    if (idx.domainOf(a) == idx.domainOf(b)) {
      // The healthy intra-pod route never crosses the core tier — the
      // invariant per-pod placement domains rest on.
      for (const int node : path) {
        EXPECT_EQ(idx.domainOf(node), idx.domainOf(a))
            << "intra-pod path " << a << "->" << b << " crossed node "
            << node;
      }
    }
  }
  // Small k: every pair, exhaustively.
  scale::FatTreeParams small;
  small.k = 4;
  const auto sft = scale::buildFatTree(small);
  const auto shosts = sft.allHosts();
  for (const int a : shosts) {
    for (const int b : shosts) {
      if (a == b) continue;
      EXPECT_FALSE(sft.topo.shortestPathUp(a, b).empty());
    }
  }
}

// --- domain index --------------------------------------------------------

TEST(DomainIndex, ClassifiesTrafficByPodSpan) {
  const auto ft = scale::buildFatTree({});  // k=4, 2 hosts/ToR
  const scale::DomainIndex idx(ft.topo);
  ASSERT_EQ(idx.domainCount(), 4);
  for (const int core : ft.cores) {
    EXPECT_EQ(idx.domainOf(core), scale::kCrossDomain);
  }
  topo::TrafficSpec intra;
  intra.sources.push_back({ft.pods[1].hosts[0], 1.0});
  intra.dst_host = ft.pods[1].hosts[3];
  EXPECT_EQ(idx.domainOfTraffic(intra), 1);
  topo::TrafficSpec cross;
  cross.sources.push_back({ft.pods[0].hosts[0], 1.0});
  cross.dst_host = ft.pods[2].hosts[0];
  EXPECT_EQ(idx.domainOfTraffic(cross), scale::kCrossDomain);
  // Domain devices are disjoint, node-id ascending, and all programmable.
  std::set<int> all;
  for (int d = 0; d < idx.domainCount(); ++d) {
    const auto& devs = idx.domainDevices(d);
    EXPECT_TRUE(std::is_sorted(devs.begin(), devs.end()));
    for (const int dev : devs) {
      EXPECT_TRUE(ft.topo.nodes()[static_cast<std::size_t>(dev)]
                      .programmable);
      EXPECT_TRUE(all.insert(dev).second) << "device " << dev;
    }
  }
}

// --- sharded submitAll bit-identity --------------------------------------

// Full behavioural digest: occupancy ledger fingerprints, per-tenant plan
// fingerprints, and the emulator deployment digest.
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

// One intra-pod request per pod: pairwise-disjoint placement domains.
// KVS joins the rotation only when the tree carries the smartNIC tier it
// structurally needs.
std::vector<core::SubmitRequest> disjointPodBatch(
    const scale::FatTree& ft, const place::PlacementOptions& opts) {
  std::vector<core::SubmitRequest> reqs;
  for (std::size_t pod = 0; pod < ft.pods.size(); ++pod) {
    topo::TrafficSpec traffic;
    traffic.sources.push_back({ft.pods[pod].hosts[0], 10.0});
    traffic.dst_host = ft.pods[pod].hosts[2];
    switch (ft.params.host_nics ? pod % 3 : 1 + pod % 2) {
      case 0:
        reqs.push_back(core::SubmitRequest::fromTemplate(
            "KVS", {{"CacheSize", 64}, {"ValDim", 4}, {"TH", 20}}, traffic,
            opts));
        break;
      case 1:
        reqs.push_back(core::SubmitRequest::fromTemplate(
            "MLAgg",
            {{"NumAgg", 128}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}},
            traffic, opts));
        break;
      default:
        reqs.push_back(core::SubmitRequest::fromTemplate(
            "DQAcc", {{"CacheDepth", 128}, {"CacheLen", 2}}, traffic, opts));
        break;
    }
  }
  return reqs;
}

// With adaptive weights OFF, plans are occupancy-ratio-independent, so the
// sharded parallel path must be bit-identical to the plain UNSHARDED
// sequential path — across 1/2/8-thread pools, with zero commit-stage
// re-places (disjoint pods never invalidate each other).
TEST(DomainSharding, DisjointPodsMatchUnshardedSequentialFixedWeights) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  p.host_nics = true;  // KVS in rotation: exercises the bypass tier too
  const auto ft = scale::buildFatTree(p);
  place::PlacementOptions opts;
  opts.adaptive = false;

  core::ClickIncService ref(ft.topo);
  for (auto& req : disjointPodBatch(ft, opts)) {
    const auto r = ref.submit(std::move(req));
    ASSERT_TRUE(r.ok) << r.error.detail;
  }
  const std::string want = digestOf(ref);

  for (const int threads : {1, 2, 8}) {
    core::ClickIncService svc(ft.topo);
    svc.setDomainSharding(true);
    svc.setConcurrency(threads);
    const auto results = svc.submitAll(disjointPodBatch(ft, opts));
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok) << r.error.detail;
      EXPECT_FALSE(r.recompiled)
          << "disjoint pods must not invalidate each other (threads="
          << threads << ")";
      EXPECT_EQ(r.attempts, 1);
    }
    EXPECT_EQ(digestOf(svc), want) << "threads=" << threads;
  }
}

// With adaptive weights ON the ratio is pod-scoped, a pure function of
// pod-local occupancy: the sharded parallel batch must equal sharded
// sequential submits bit for bit, again with zero re-places.
TEST(DomainSharding, ParallelMatchesSequentialAdaptiveWeights) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  const auto ft = scale::buildFatTree(p);
  const place::PlacementOptions opts;  // adaptive = true (default)

  core::ClickIncService ref(ft.topo);
  ref.setDomainSharding(true);
  for (auto& req : disjointPodBatch(ft, opts)) {
    const auto r = ref.submit(std::move(req));
    ASSERT_TRUE(r.ok) << r.error.detail;
  }
  const std::string want = digestOf(ref);

  for (const int threads : {1, 2, 8}) {
    core::ClickIncService svc(ft.topo);
    svc.setDomainSharding(true);
    svc.setConcurrency(threads);
    const auto results = svc.submitAll(disjointPodBatch(ft, opts));
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok) << r.error.detail;
      EXPECT_FALSE(r.recompiled) << "threads=" << threads;
    }
    EXPECT_EQ(digestOf(svc), want) << "threads=" << threads;
  }
}

// Same-pod contention and cross-pod traffic still commit correctly: the
// second same-pod tenant re-places against the moved pod version, and the
// cross-pod request escapes to the global path. End state matches the
// sequential reference regardless.
TEST(DomainSharding, SamePodContentionAndCrossPodEscape) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  const auto ft = scale::buildFatTree(p);
  const place::PlacementOptions opts;
  auto batch = [&] {
    std::vector<core::SubmitRequest> reqs;
    topo::TrafficSpec a;  // pod 0
    a.sources.push_back({ft.pods[0].hosts[0], 10.0});
    a.dst_host = ft.pods[0].hosts[3];
    reqs.push_back(core::SubmitRequest::fromTemplate(
        "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 3}}, a, opts));
    topo::TrafficSpec b;  // pod 0 again: contends with `a`
    b.sources.push_back({ft.pods[0].hosts[1], 10.0});
    b.dst_host = ft.pods[0].hosts[2];
    reqs.push_back(core::SubmitRequest::fromTemplate(
        "DQAcc", {{"CacheDepth", 128}, {"CacheLen", 2}}, b, opts));
    topo::TrafficSpec c;  // pod 1 -> pod 2: cross-domain escape
    c.sources.push_back({ft.pods[1].hosts[0], 10.0});
    c.dst_host = ft.pods[2].hosts[0];
    reqs.push_back(core::SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 128}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}},
        c, opts));
    return reqs;
  };

  core::ClickIncService ref(ft.topo);
  ref.setDomainSharding(true);
  for (auto& req : batch()) {
    const auto r = ref.submit(std::move(req));
    ASSERT_TRUE(r.ok) << r.error.detail;
  }
  const std::string want = digestOf(ref);

  core::ClickIncService svc(ft.topo);
  svc.setDomainSharding(true);
  svc.setConcurrency(4);
  const auto results = svc.submitAll(batch());
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error.detail;
  EXPECT_EQ(digestOf(svc), want);
}

// Every compile of a batch shares the service's cached EC partition, and a
// health move between batches replaces it. Through a drain, a kill and
// their heals, sharded submitAll batches must stay bit-identical to
// sequential submits across 1/2/8-thread pools.
TEST(DomainSharding, PartitionCacheKeepsBatchesBitIdenticalAcrossHealth) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  const auto ft = scale::buildFatTree(p);
  const place::PlacementOptions opts;
  auto batch = [&] {
    auto reqs = disjointPodBatch(ft, opts);
    topo::TrafficSpec cross;  // pod 1 -> pod 3: cross-domain escape
    cross.sources.push_back({ft.pods[1].hosts[1], 10.0});
    cross.dst_host = ft.pods[3].hosts[0];
    reqs.push_back(core::SubmitRequest::fromTemplate(
        "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}}, cross, opts));
    return reqs;
  };
  const int agg = ft.pods[0].aggs[0];
  const int core = ft.cores[1];
  // threads == 0: the sequential submit() reference.
  auto run = [&](int threads) {
    core::ClickIncService svc(ft.topo);
    svc.setDomainSharding(true);
    svc.setConcurrency(std::max(threads, 1));
    std::string out;
    auto submitBatch = [&] {
      std::vector<core::SubmitResult> results;
      if (threads == 0) {
        for (auto& req : batch()) results.push_back(svc.submit(req));
      } else {
        results = svc.submitAll(batch());
      }
      for (const auto& r : results) {
        out += cat(r.user_id, r.ok ? "+" : "-", toString(r.error.code), ";");
      }
    };
    submitBatch();
    svc.drainNode(agg);
    submitBatch();
    svc.failNode(core);
    submitBatch();
    svc.healNode(agg);
    svc.healNode(core);
    submitBatch();
    return out + digestOf(svc);
  };
  const std::string want = run(0);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(run(threads), want) << "threads=" << threads;
  }
}

// Per-domain audits reconcile field for field with the full occupancy
// soundness audit: each pod's scoped report is clean, and so is the
// global one.
TEST(DomainSharding, PerDomainAuditsReconcileWithGlobal) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  const auto ft = scale::buildFatTree(p);
  core::ClickIncService svc(ft.topo);
  svc.setDomainSharding(true);
  const place::PlacementOptions opts;
  for (auto& req : disjointPodBatch(ft, opts)) {
    const auto r = svc.submit(std::move(req));
    ASSERT_TRUE(r.ok) << r.error.detail;
  }
  ASSERT_NE(svc.domainIndex(), nullptr);
  for (int pod = 0; pod < svc.domainIndex()->domainCount(); ++pod) {
    const auto rep = svc.verifyDomain(pod);
    EXPECT_TRUE(rep.ok()) << "pod " << pod << ": " << rep.summary();
    EXPECT_GT(rep.checks, 0) << "pod " << pod;
  }
  const auto full = svc.verifyDeployments();
  EXPECT_TRUE(full.ok()) << full.summary();
}

// --- ledger versions: one bump per occupancy mutation -------------------

struct Versions {
  std::uint64_t global = 0;
  std::vector<std::uint64_t> pods;
};

Versions versionsOf(const core::Ledger& ledger) {
  Versions v;
  v.global = ledger.version();
  for (int d = 0; d < ledger.domainIndex()->domainCount(); ++d) {
    v.pods.push_back(ledger.version(d));
  }
  return v;
}

std::set<int> podsOwning(const scale::DomainIndex& idx,
                         const std::set<int>& devices) {
  std::set<int> pods;
  for (const int dev : devices) {
    if (idx.domainOf(dev) != scale::kCrossDomain) {
      pods.insert(idx.domainOf(dev));
    }
  }
  return pods;
}

// `after` is `before` plus `bumps` on the global version and on every pod
// in `pods`; every other pod is unchanged.
void expectBumped(const Versions& before, const Versions& after,
                  const std::set<int>& pods, std::uint64_t bumps = 1) {
  EXPECT_EQ(after.global, before.global + bumps);
  ASSERT_EQ(after.pods.size(), before.pods.size());
  for (std::size_t d = 0; d < after.pods.size(); ++d) {
    const std::uint64_t want =
        before.pods[d] + (pods.count(static_cast<int>(d)) != 0 ? bumps : 0);
    EXPECT_EQ(after.pods[d], want) << "pod " << d;
  }
}

TEST(LedgerVersions, ClaimReleaseWipeBumpExactlyTheTouchedPods) {
  const auto ft = scale::buildFatTree({});  // k=4, 2 hosts/ToR
  core::ClickIncService svc(ft.topo);
  topo::TrafficSpec intra;  // pod 1 only
  intra.sources.push_back({ft.pods[1].hosts[0], 10.0});
  intra.dst_host = ft.pods[1].hosts[2];
  topo::TrafficSpec cross;  // pod 0 -> pod 3
  cross.sources.push_back({ft.pods[0].hosts[0], 10.0});
  cross.dst_host = ft.pods[3].hosts[1];
  std::vector<int> users;
  for (const auto& traffic : {intra, cross}) {
    const auto r = svc.submit(core::SubmitRequest::fromTemplate(
        "MLAgg",
        {{"NumAgg", 128}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}},
        traffic));
    ASSERT_TRUE(r.ok) << r.error.message();
    users.push_back(r.user_id);
  }

  core::Ledger ledger(&ft.topo);
  ledger.setDomainSharding(true);
  const auto& idx = *ledger.domainIndex();
  for (const int user : users) {
    const auto& dep = svc.deployments().at(user);
    const auto devices = place::claimedDevices(dep.plan);
    ASSERT_FALSE(devices.empty());
    const auto pods = podsOwning(idx, devices);
    auto before = versionsOf(ledger);
    ledger.claim(dep.plan, *dep.prog);
    expectBumped(before, versionsOf(ledger), pods);
    before = versionsOf(ledger);
    ledger.release(dep.plan, *dep.prog);
    expectBumped(before, versionsOf(ledger), pods);
  }
  const auto before = versionsOf(ledger);
  ledger.wipe(ft.pods[2].tors[0]);
  expectBumped(before, versionsOf(ledger), {2});
}

TEST(LedgerVersions, CoreDeviceBumpsOnlyTheGlobalVersion) {
  const auto ft = scale::buildFatTree({});
  core::Ledger ledger(&ft.topo);
  ledger.setDomainSharding(true);
  for (const int core : ft.cores) {
    const auto before = versionsOf(ledger);
    ledger.wipe(core);
    expectBumped(before, versionsOf(ledger), {});
  }
}

// A failover swap whose deploy fails and restores the old plan performs
// four ledger mutations — release old, claim new, release new, claim the
// restore — and each one bumps the versions.
TEST(LedgerVersions, RolledBackFailoverSwapLeavesVersionsBumped) {
  const auto ft = scale::buildFatTree({});
  core::ClickIncService svc(ft.topo);
  svc.setDomainSharding(true);
  topo::TrafficSpec traffic;
  traffic.sources.push_back({ft.pods[0].hosts[0], 10.0});
  traffic.dst_host = ft.pods[0].hosts[2];
  const auto r = svc.submit(core::SubmitRequest::fromTemplate(
      "MLAgg",
      {{"NumAgg", 128}, {"Dim", 8}, {"NumWorker", 2}, {"IsConvert", 0}},
      traffic));
  ASSERT_TRUE(r.ok) << r.error.message();
  const auto devices = place::claimedDevices(r.plan);
  ASSERT_FALSE(devices.empty());
  const std::uint64_t plan_fp = durable::planFingerprint(r.plan);

  const auto before = versionsOf(svc.ledger());
  svc.injectDeployFailureAfter(0);
  const auto report = svc.drainNode(*devices.begin());
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].outcome, core::RecoveryOutcome::kPinned);
  EXPECT_EQ(report.tenants[0].error.code, core::ErrorCode::kDeployFailed);
  EXPECT_EQ(durable::planFingerprint(svc.deployments().at(r.user_id).plan),
            plan_fp);
  expectBumped(before, versionsOf(svc.ledger()), {0}, 4);
}

// --- churn harness -------------------------------------------------------

TEST(ChurnDriver, SustainedChurnStaysSoundOnSmallTree) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  const auto ft = scale::buildFatTree(p);
  core::ClickIncService svc(ft.topo);
  svc.setDomainSharding(true);
  svc.setConcurrency(2);
  scale::ChurnParams cp;
  cp.cycles = 240;
  cp.target_live = 24;
  cp.inflight = 4;
  cp.sample_every = 80;
  scale::ChurnDriver driver(&svc, &ft, cp);
  const auto& m = driver.run();
  EXPECT_EQ(m.submits, cp.cycles);
  EXPECT_GT(m.removes, 0);
  EXPECT_EQ(m.verify_violations, 0);
  EXPECT_TRUE(m.final_audit.ok()) << m.final_audit.summary();
  ASSERT_FALSE(m.samples.empty());
  EXPECT_EQ(m.samples.back().cycle, cp.cycles);
  for (const auto& s : m.samples) {
    EXPECT_GE(s.free_ratio_mean, s.free_ratio_min);
    EXPECT_LE(s.verify_violations, 0L);
  }
}

// S2: the churn harness doubles as a failover soak — FaultInjector armed
// on a cadence, every audit (including the final full one) stays clean.
TEST(ChurnDriver, ChurnUnderFaultInjectionAuditsClean) {
  scale::FatTreeParams p;
  p.k = 4;
  p.hosts_per_tor = 2;
  const auto ft = scale::buildFatTree(p);
  core::ClickIncService svc(ft.topo);
  svc.setDomainSharding(true);
  svc.setConcurrency(2);
  scale::ChurnParams cp;
  cp.cycles = 300;
  cp.target_live = 24;
  cp.inflight = 4;
  cp.sample_every = 100;
  cp.audit_every = 75;
  cp.fault_every = 40;
  scale::ChurnDriver driver(&svc, &ft, cp);
  const auto& m = driver.run();
  EXPECT_GT(m.faults_applied, 0);
  EXPECT_GT(m.audits, 1);
  EXPECT_EQ(m.verify_violations, 0)
      << "occupancy/deployment audit found violations under churn+faults";
  EXPECT_TRUE(m.final_audit.ok()) << m.final_audit.summary();
}

}  // namespace
}  // namespace clickinc
