// Durable control plane (docs/recovery.md): journal wire format and torn
// tails, checkpoint/restore, recover() replay equivalence, compensating
// aborts, flap damping, epoch fencing of in-flight submissions across
// 1/2/8-thread pools, the crash-point recovery fuzzer, and pinned wire
// bytes of every record type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "core/service.h"
#include "durable/journal.h"
#include "durable/serialize.h"
#include "place/intradevice.h"
#include "topo/ec.h"
#include "topo/topology.h"
#include "util/crc.h"
#include "util/error.h"
#include "util/strings.h"
#include "verify/recovery_fuzz.h"

namespace clickinc {
namespace {

using core::ClickIncService;
using core::ErrorCode;
using core::RecoveryOutcome;
using core::Stage;
using core::SubmitRequest;
using core::SubmissionTicket;

topo::TrafficSpec trafficFor(const topo::Topology& topo,
                             const std::vector<std::string>& srcs,
                             const std::string& dst) {
  topo::TrafficSpec spec;
  for (const auto& s : srcs) {
    spec.sources.push_back({topo.findNode(s), 10.0});
  }
  spec.dst_host = topo.findNode(dst);
  return spec;
}

SubmitRequest dqaccRequest(const topo::Topology& topo,
                           std::uint64_t depth = 128,
                           const std::string& src = "pod0a",
                           const std::string& dst = "pod2b") {
  return SubmitRequest::fromTemplate("DQAcc",
                                     {{"CacheDepth", depth}, {"CacheLen", 2}},
                                     trafficFor(topo, {src}, dst));
}

std::vector<std::uint64_t> allFingerprints(ClickIncService& svc) {
  std::vector<std::uint64_t> fps;
  for (const auto& n : svc.topology().nodes()) {
    if (n.programmable) {
      fps.push_back(place::occupancyFingerprint(svc.occupancy().of(n.id)));
    }
  }
  return fps;
}

std::set<int> deployedUsers(const ClickIncService& svc) {
  std::set<int> users;
  for (const auto& [u, d] : svc.deployments()) {
    (void)d;
    users.insert(u);
  }
  return users;
}

std::set<int> planDeviceSet(const place::PlacementPlan& plan) {
  std::set<int> devs;
  for (const auto& a : plan.assignments) {
    for (const auto& [dev, p] : a.on_device) {
      if (!p.instr_idxs.empty()) devs.insert(dev);
    }
    for (const auto& [dev, p] : a.on_bypass) {
      if (!p.instr_idxs.empty()) devs.insert(dev);
    }
  }
  return devs;
}

// Byte-level identity of two services' durable cores: occupancy ledger,
// tenant set + plan fingerprints, emulator deployment table.
void expectSameState(ClickIncService& a, ClickIncService& b) {
  EXPECT_EQ(allFingerprints(a), allFingerprints(b));
  ASSERT_EQ(deployedUsers(a), deployedUsers(b));
  for (const auto& [user, dep] : a.deployments()) {
    EXPECT_EQ(durable::planFingerprint(dep.plan),
              durable::planFingerprint(b.deployments().at(user).plan))
        << "plan fingerprint diverges for user " << user;
  }
  EXPECT_EQ(a.emulator().deploymentDigest(), b.emulator().deploymentDigest());
}

// --- journal wire format -------------------------------------------------

TEST(Journal, AppendScanRoundTrip) {
  durable::MemJournalSink sink;
  durable::writeMagic(sink);
  const std::vector<std::uint8_t> p1 = {1, 2, 3};
  const std::vector<std::uint8_t> p2 = {};
  durable::appendRecord(sink, 1, durable::RecordType::kCommit, p1);
  durable::appendRecord(sink, 2, durable::RecordType::kRemove, p2);

  const auto scan = durable::scanJournal(sink.readAll());
  EXPECT_TRUE(scan.magic_ok);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[0].type, durable::RecordType::kCommit);
  EXPECT_EQ(scan.records[0].payload, p1);
  EXPECT_EQ(scan.records[1].seq, 2u);
  EXPECT_EQ(scan.records[1].type, durable::RecordType::kRemove);
  EXPECT_TRUE(scan.records[1].payload.empty());
  EXPECT_EQ(scan.clean_end, sink.size());
}

TEST(Journal, TornTailYieldsCleanPrefix) {
  durable::MemJournalSink sink;
  durable::writeMagic(sink);
  durable::appendRecord(sink, 1, durable::RecordType::kCommit,
                        std::vector<std::uint8_t>{9, 9});
  const std::uint64_t clean = sink.size();
  durable::appendRecord(sink, 2, durable::RecordType::kRemove,
                        std::vector<std::uint8_t>{7});
  auto bytes = sink.readAll();
  bytes.resize(bytes.size() - 3);  // crash mid-append: CRC half-written

  const auto scan = durable::scanJournal(bytes);
  EXPECT_TRUE(scan.magic_ok);
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.clean_end, clean);
}

TEST(Journal, CorruptionStopsTheScan) {
  durable::MemJournalSink sink;
  durable::writeMagic(sink);
  durable::appendRecord(sink, 1, durable::RecordType::kCommit,
                        std::vector<std::uint8_t>{1});
  durable::appendRecord(sink, 2, durable::RecordType::kHealth,
                        std::vector<std::uint8_t>{2});
  auto bytes = sink.readAll();
  const auto whole = durable::scanJournal(bytes);
  ASSERT_EQ(whole.records.size(), 2u);
  // Flip one byte inside the second record's body: its CRC must reject it.
  bytes[static_cast<std::size_t>(whole.records[1].offset) + 6] ^= 0xFF;
  const auto scan = durable::scanJournal(bytes);
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.clean_end, whole.records[0].end);
}

TEST(Journal, BadMagicScansEmpty) {
  const std::vector<std::uint8_t> junk = {'n', 'o', 't', 'a', 'j', 'r', 'n',
                                          'l', 0, 1, 2};
  const auto scan = durable::scanJournal(junk);
  EXPECT_FALSE(scan.magic_ok);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.clean_end, 0u);
  EXPECT_TRUE(scan.records.empty());
}

TEST(Journal, FileSinkSurvivesReopenAndTruncates) {
  const std::string path = "recovery_journal_test.bin";
  std::remove(path.c_str());
  {
    durable::FileJournalSink sink(path);
    EXPECT_EQ(sink.size(), 0u);
    durable::writeMagic(sink);
    durable::appendRecord(sink, 1, durable::RecordType::kCommit,
                          std::vector<std::uint8_t>{5, 6});
  }
  durable::FileJournalSink reopened(path);
  EXPECT_GT(reopened.size(), 8u);
  const auto scan = durable::scanJournal(reopened.readAll());
  EXPECT_TRUE(scan.magic_ok);
  ASSERT_EQ(scan.records.size(), 1u);

  reopened.truncate(8);  // keep just the magic
  EXPECT_EQ(reopened.size(), 8u);
  const auto empty = durable::scanJournal(reopened.readAll());
  EXPECT_TRUE(empty.magic_ok);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.torn);
  std::remove(path.c_str());
}

// --- replay equivalence --------------------------------------------------

TEST(Recovery, ReplayMatchesTheOriginalRun) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto a = primary.submit(dqaccRequest(primary.topology(), 128));
  ASSERT_TRUE(a.ok) << a.error.message();
  const auto b = primary.submit(
      dqaccRequest(primary.topology(), 256, "pod1a", "pod2b"));
  ASSERT_TRUE(b.ok) << b.error.message();
  primary.remove(a.user_id);

  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto rep = recovered.recover(&sink);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  EXPECT_TRUE(rep.verify.ok());
  EXPECT_FALSE(rep.from_checkpoint);
  EXPECT_EQ(rep.records_replayed, 3u);  // commit, commit, remove
  EXPECT_EQ(rep.tenants_restored, 1);
  EXPECT_TRUE(recovered.journalAttached());
  expectSameState(recovered, primary);

  // The recovered service keeps journaling: new submissions land with the
  // same ids the primary would have assigned.
  const auto c = recovered.submit(dqaccRequest(recovered.topology(), 64));
  ASSERT_TRUE(c.ok) << c.error.message();
  EXPECT_EQ(c.user_id, b.user_id + 1);
}

TEST(Recovery, CheckpointAnchorsTheReplay) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto a = primary.submit(dqaccRequest(primary.topology(), 128));
  ASSERT_TRUE(a.ok);
  primary.checkpoint();
  const auto b = primary.submit(
      dqaccRequest(primary.topology(), 256, "pod1a", "pod2b"));
  ASSERT_TRUE(b.ok);

  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto rep = recovered.recover(&sink);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  EXPECT_TRUE(rep.from_checkpoint);
  EXPECT_EQ(rep.records_replayed, 1u);  // only b's commit, after the anchor
  EXPECT_EQ(rep.tenants_restored, 2);
  expectSameState(recovered, primary);
}

TEST(Recovery, FailoverBatchesReplayThroughTheSamePipeline) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto r = primary.submit(dqaccRequest(primary.topology()));
  ASSERT_TRUE(r.ok);
  const auto devices = planDeviceSet(r.plan);
  ASSERT_FALSE(devices.empty());
  primary.failNode(*devices.begin());

  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto rep = recovered.recover(&sink);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  EXPECT_FALSE(rep.completed_failover);  // kFailover summary was present
  expectSameState(recovered, primary);
}

TEST(Recovery, CrashBeforeFailoverSummaryCompletesTheBatch) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto r = primary.submit(dqaccRequest(primary.topology()));
  ASSERT_TRUE(r.ok);
  const auto devices = planDeviceSet(r.plan);
  ASSERT_FALSE(devices.empty());
  primary.failNode(*devices.begin());

  // Cut the journal right after the kHealth record, losing the kFailover
  // summary — the crash window between write-ahead and write-behind.
  const auto bytes = sink.readAll();
  const auto scan = durable::scanJournal(bytes);
  ASSERT_GE(scan.records.size(), 2u);
  ASSERT_EQ(scan.records[scan.records.size() - 1].type,
            durable::RecordType::kFailover);
  ASSERT_EQ(scan.records[scan.records.size() - 2].type,
            durable::RecordType::kHealth);
  durable::MemJournalSink cut;
  cut.setBytes(std::vector<std::uint8_t>(
      bytes.begin(),
      bytes.begin() + static_cast<std::ptrdiff_t>(
                          scan.records[scan.records.size() - 2].end)));

  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto rep = recovered.recover(&cut);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  EXPECT_TRUE(rep.completed_failover);
  expectSameState(recovered, primary);
  // The healing kFailover record was appended, so the next recovery
  // replays it instead of re-completing.
  ClickIncService again(topo::Topology::paperEmulation());
  const auto rep2 = again.recover(&cut);
  ASSERT_TRUE(rep2.ok) << rep2.error.message();
  EXPECT_FALSE(rep2.completed_failover);
  expectSameState(again, primary);
}

TEST(Recovery, AbortCompensatesATornCommit) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto a = primary.submit(dqaccRequest(primary.topology(), 128));
  ASSERT_TRUE(a.ok);
  primary.injectDeployFailureAfter(0);
  const auto bad = primary.submit(dqaccRequest(primary.topology(), 256));
  ASSERT_FALSE(bad.ok);

  const auto scan = durable::scanJournal(sink.readAll());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[1].type, durable::RecordType::kCommit);
  EXPECT_EQ(scan.records[2].type, durable::RecordType::kAbort);

  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto rep = recovered.recover(&sink);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  expectSameState(recovered, primary);
  // The aborted commit's id was never published; both services hand the
  // same id to the next tenant.
  const auto p = primary.submit(dqaccRequest(primary.topology(), 64));
  const auto q = recovered.submit(dqaccRequest(recovered.topology(), 64));
  ASSERT_TRUE(p.ok);
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(p.user_id, q.user_id);
}

TEST(Recovery, TornTailIsTruncatedAndTheJournalStaysUsable) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto a = primary.submit(dqaccRequest(primary.topology(), 128));
  ASSERT_TRUE(a.ok);
  const std::uint64_t boundary = sink.size();
  const auto b = primary.submit(
      dqaccRequest(primary.topology(), 256, "pod1a", "pod2b"));
  ASSERT_TRUE(b.ok);

  // Crash mid-append of b's commit record.
  auto bytes = sink.readAll();
  durable::MemJournalSink cut;
  cut.setBytes(std::vector<std::uint8_t>(
      bytes.begin(),
      bytes.begin() + static_cast<std::ptrdiff_t>(boundary + 11)));

  ClickIncService recovered(topo::Topology::paperEmulation());
  const auto rep = recovered.recover(&cut);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  EXPECT_TRUE(rep.torn_tail);
  EXPECT_EQ(rep.tenants_restored, 1);
  EXPECT_EQ(cut.size(), boundary);  // tail dropped before re-attach

  // Appends resume cleanly after the truncated prefix: re-submit b, then
  // a third recovery must see both tenants.
  const auto b2 = recovered.submit(
      dqaccRequest(recovered.topology(), 256, "pod1a", "pod2b"));
  ASSERT_TRUE(b2.ok);
  expectSameState(recovered, primary);
  ClickIncService again(topo::Topology::paperEmulation());
  const auto rep2 = again.recover(&cut);
  ASSERT_TRUE(rep2.ok) << rep2.error.message();
  EXPECT_FALSE(rep2.torn_tail);
  expectSameState(again, primary);
}

TEST(Recovery, GarbageJournalRecoversToAnEmptyServiceWithAFreshJournal) {
  durable::MemJournalSink sink;
  sink.setBytes({'g', 'a', 'r', 'b', 'a', 'g', 'e', '!', 1, 2, 3});
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto rep = svc.recover(&sink);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  EXPECT_TRUE(rep.torn_tail);
  EXPECT_EQ(rep.tenants_restored, 0);
  EXPECT_TRUE(svc.journalAttached());
  // The sink was reinitialized: magic only, then new records land.
  const auto r = svc.submit(dqaccRequest(svc.topology()));
  ASSERT_TRUE(r.ok);
  const auto scan = durable::scanJournal(sink.readAll());
  EXPECT_TRUE(scan.magic_ok);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].type, durable::RecordType::kCommit);
}

TEST(Recovery, UnreplayableRecordFailsStructuredAndLeavesServiceUsable) {
  durable::MemJournalSink sink;
  durable::writeMagic(sink);
  durable::RemoveRecord rr;
  rr.user = 7;  // never committed: replay must refuse, not guess
  durable::appendRecord(sink, 1, durable::RecordType::kRemove,
                        durable::encodeRemove(rr));

  ClickIncService svc(topo::Topology::paperEmulation());
  const auto rep = svc.recover(&sink);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error.code, ErrorCode::kRecovery);
  EXPECT_EQ(rep.error.stage, Stage::kRecovery);
  EXPECT_FALSE(svc.journalAttached());
  EXPECT_TRUE(svc.deployments().empty());
  // The failed recovery left a fresh, working service behind.
  const auto r = svc.submit(dqaccRequest(svc.topology()));
  EXPECT_TRUE(r.ok) << r.error.message();
}

// A checkpoint is raw bytes under a valid CRC, so its flap-damping state
// is untrusted too: a deferred heal naming an entity outside the topology,
// or an out-of-range enum or health byte, must fail recovery closed
// rather than index past the health vectors later.
TEST(Recovery, CraftedCheckpointHealthFailsClosed) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  core::FailoverPolicy pol;
  pol.flap_window = 8;
  primary.setFailoverPolicy(pol);
  primary.attachJournal(&sink);
  const auto r = primary.submit(dqaccRequest(primary.topology()));
  ASSERT_TRUE(r.ok) << r.error.message();
  const int victim = *planDeviceSet(r.plan).begin();
  primary.failNode(victim);
  ASSERT_EQ(primary.healNode(victim).damped_events, 1);  // deferred heal
  primary.checkpoint();

  const auto scan = durable::scanJournal(sink.readAll());
  ASSERT_FALSE(scan.records.empty());
  const auto& rec = scan.records.back();
  ASSERT_EQ(rec.type, durable::RecordType::kCheckpoint);
  const durable::CheckpointRecord good =
      durable::decodeCheckpoint(rec.payload);
  ASSERT_EQ(good.deferred_heals.size(), 1u);

  // A journal holding only `cp`, framed (and CRC'd) like the original.
  const auto recoverFrom = [&](const durable::CheckpointRecord& cp) {
    durable::MemJournalSink crafted;
    durable::writeMagic(crafted);
    durable::appendRecord(crafted, rec.seq, durable::RecordType::kCheckpoint,
                          durable::encodeCheckpoint(cp));
    ClickIncService svc(topo::Topology::paperEmulation());
    const auto rep = svc.recover(&crafted);
    if (!rep.ok) {
      EXPECT_EQ(rep.error.stage, Stage::kRecovery);
      EXPECT_TRUE(svc.deployments().empty());
      // The failed recovery left a fresh, working service behind.
      EXPECT_EQ(svc.effectiveHealth().node.size(),
                svc.topology().nodes().size());
      EXPECT_TRUE(svc.submit(dqaccRequest(svc.topology())).ok);
      return rep.error.code;
    }
    // The deferred heal still masks the victim back to down.
    EXPECT_EQ(svc.effectiveHealth().node[static_cast<std::size_t>(victim)],
              topo::Health::kDown);
    return ErrorCode::kOk;
  };
  EXPECT_EQ(recoverFrom(good), ErrorCode::kOk);

  const auto mutated = [&](const auto& mutate) {
    durable::CheckpointRecord cp = good;
    mutate(cp.deferred_heals.begin()->second, cp);
    return cp;
  };
  using DH = durable::DeferredHeal;
  using CP = durable::CheckpointRecord;
  const CP bad[] = {
      mutated([](DH& dh, CP&) { dh.node = 1 << 20; }),
      mutated([](DH& dh, CP&) { dh.node = -1; }),
      mutated([](DH& dh, CP&) {
        dh.kind = static_cast<topo::FailureEvent::Kind>(7);
      }),
      mutated([](DH& dh, CP&) { dh.from = static_cast<topo::Health>(9); }),
      // A link heal whose endpoints are not linked.
      mutated([](DH& dh, CP&) {
        dh.kind = topo::FailureEvent::Kind::kLink;
        dh.link_a = 0;
        dh.link_b = 1 << 20;
      }),
      mutated([](DH&, CP& cp) { cp.node_health[0] = 3; }),
      mutated([](DH&, CP& cp) { cp.link_health[0] = 200; }),
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    SCOPED_TRACE(cat("mutation ", i));
    EXPECT_EQ(recoverFrom(bad[i]), ErrorCode::kRecovery);
  }
}

// A kHealth record is raw bytes under a valid CRC as well: a health byte
// or event kind out of range must fail replay closed instead of being
// applied (a kind other than node was once replayed as a link).
TEST(Recovery, CraftedHealthRecordFailsClosed) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto r = primary.submit(dqaccRequest(primary.topology()));
  ASSERT_TRUE(r.ok) << r.error.message();
  const auto& link = primary.topology().links().front();
  primary.failLink(link.a, link.b);

  const auto bytes = sink.readAll();
  const auto scan = durable::scanJournal(bytes);
  std::size_t at = scan.records.size();
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == durable::RecordType::kHealth) at = i;
  }
  ASSERT_LT(at, scan.records.size());
  const auto& rec = scan.records[at];
  const durable::HealthRecord good = durable::decodeHealth(rec.payload);
  ASSERT_EQ(good.event.kind, topo::FailureEvent::Kind::kLink);

  // The journal up to the kHealth record, then `hr` framed (and CRC'd)
  // like the original; the kFailover summary is cut.
  const auto recoverWith = [&](const durable::HealthRecord& hr) {
    durable::MemJournalSink crafted;
    crafted.setBytes(std::vector<std::uint8_t>(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(rec.offset)));
    durable::appendRecord(crafted, rec.seq, durable::RecordType::kHealth,
                          durable::encodeHealth(hr));
    ClickIncService svc(topo::Topology::paperEmulation());
    const auto rep = svc.recover(&crafted);
    if (!rep.ok) {
      EXPECT_EQ(rep.error.stage, Stage::kRecovery);
      EXPECT_TRUE(svc.deployments().empty());
      // The failed recovery left a fresh, working service behind.
      EXPECT_TRUE(svc.submit(dqaccRequest(svc.topology())).ok);
    }
    return rep.error.code;
  };
  EXPECT_EQ(recoverWith(good), ErrorCode::kOk);

  durable::HealthRecord bad_health = good;
  bad_health.event.kind = topo::FailureEvent::Kind::kNode;
  bad_health.event.node = 2;
  bad_health.event.from = topo::Health::kUp;
  bad_health.event.to = static_cast<topo::Health>(7);
  EXPECT_EQ(recoverWith(bad_health), ErrorCode::kRecovery);

  // Link endpoints stay valid, so only the kind byte is wrong.
  durable::HealthRecord bad_kind = good;
  bad_kind.event.kind = static_cast<topo::FailureEvent::Kind>(7);
  EXPECT_EQ(recoverWith(bad_kind), ErrorCode::kRecovery);

  // The untouched journal still recovers.
  ClickIncService again(topo::Topology::paperEmulation());
  durable::MemJournalSink copy;
  copy.setBytes(bytes);
  const auto rep = again.recover(&copy);
  ASSERT_TRUE(rep.ok) << rep.error.message();
  expectSameState(again, primary);
}

// A kCommit record carries the tenant's IR as raw bytes under a valid CRC:
// an operand kind byte past kField must fail replay closed, not reach an
// execution engine that would read it as a variable (compiled) or as 0
// (reference).
TEST(Recovery, CraftedCommitOperandKindFailsClosed) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  ASSERT_TRUE(primary.submit(dqaccRequest(primary.topology())).ok);

  const auto bytes = sink.readAll();
  const auto scan = durable::scanJournal(bytes);
  std::size_t at = scan.records.size();
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == durable::RecordType::kCommit) at = i;
  }
  ASSERT_LT(at, scan.records.size());
  const auto& rec = scan.records[at];
  durable::CommitRecord cr = durable::decodeCommit(rec.payload);
  ASSERT_FALSE(cr.prog.instrs.empty());
  ASSERT_FALSE(cr.prog.instrs.front().srcs.empty());
  cr.prog.instrs.front().srcs.front().kind =
      static_cast<ir::OperandKind>(9);

  durable::MemJournalSink crafted;
  crafted.setBytes(std::vector<std::uint8_t>(
      bytes.begin(),
      bytes.begin() + static_cast<std::ptrdiff_t>(rec.offset)));
  durable::appendRecord(crafted, rec.seq, durable::RecordType::kCommit,
                        durable::encodeCommit(cr));
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto rep = svc.recover(&crafted);
  ASSERT_FALSE(rep.ok);
  EXPECT_EQ(rep.error.code, ErrorCode::kRecovery);
  EXPECT_EQ(rep.error.stage, Stage::kRecovery);
  EXPECT_NE(rep.error.detail.find("operand kind 9"), std::string::npos)
      << rep.error.detail;
  EXPECT_TRUE(svc.deployments().empty());
  // The failed recovery left a fresh, working service behind.
  EXPECT_TRUE(svc.submit(dqaccRequest(svc.topology())).ok);
}

TEST(Recovery, AttachRequiresAFreshServiceAndSink) {
  ClickIncService used(topo::Topology::paperEmulation());
  ASSERT_TRUE(used.submit(dqaccRequest(used.topology())).ok);
  durable::MemJournalSink sink;
  EXPECT_THROW(used.attachJournal(&sink), InternalError);

  durable::MemJournalSink full;
  durable::writeMagic(full);
  durable::appendRecord(full, 1, durable::RecordType::kRemove,
                        durable::encodeRemove(durable::RemoveRecord{}));
  ClickIncService fresh(topo::Topology::paperEmulation());
  EXPECT_THROW(fresh.attachJournal(&full), InternalError);

  ClickIncService nojournal(topo::Topology::paperEmulation());
  EXPECT_THROW(nojournal.checkpoint(), InternalError);
}

// --- epoch fencing of in-flight work -------------------------------------

TEST(Recovery, InFlightSubmissionIsFencedByTheEpoch) {
  for (int threads : {1, 2, 8}) {
    durable::MemJournalSink sink;
    ClickIncService svc(topo::Topology::paperEmulation());
    svc.setConcurrency(threads);
    svc.attachJournal(&sink);
    const auto a = svc.submit(dqaccRequest(svc.topology(), 128));
    ASSERT_TRUE(a.ok);

    // Hold an async submission between snapshot and compile, recover the
    // service out from under it, then let it run to commit.
    std::promise<void> reached, release;
    auto reached_f = reached.get_future();
    auto release_f = release.get_future().share();
    bool gate_armed = true;
    svc.setCompileGate([&reached, release_f, &gate_armed]() mutable {
      if (!gate_armed) return;
      gate_armed = false;
      reached.set_value();
      release_f.wait();
    });
    SubmissionTicket ticket = svc.submitAsync(dqaccRequest(svc.topology(), 256));
    reached_f.wait();
    svc.setCompileGate(nullptr);

    const std::uint64_t before = svc.epoch();
    const auto rep = svc.recover(&sink);
    ASSERT_TRUE(rep.ok) << rep.error.message();
    EXPECT_EQ(svc.epoch(), before + 1);
    EXPECT_EQ(rep.tenants_restored, 1);

    release.set_value();
    const auto& r = ticket.get();
    ASSERT_FALSE(r.ok) << "threads=" << threads;
    EXPECT_EQ(r.error.code, ErrorCode::kUnavailable);
    EXPECT_EQ(r.error.stage, Stage::kCommit);
    EXPECT_TRUE(r.error.retryable);

    // The fenced tenant never landed; a retry against the recovered
    // service works and the restored tenant is intact.
    EXPECT_EQ(deployedUsers(svc), std::set<int>{a.user_id});
    const auto retry = svc.submit(dqaccRequest(svc.topology(), 256));
    EXPECT_TRUE(retry.ok) << retry.error.message();
  }
}

TEST(Recovery, RemoveAfterRecoverySeesTheRestoredWorld) {
  durable::MemJournalSink sink;
  ClickIncService primary(topo::Topology::paperEmulation());
  primary.attachJournal(&sink);
  const auto a = primary.submit(dqaccRequest(primary.topology(), 128));
  const auto b = primary.submit(
      dqaccRequest(primary.topology(), 256, "pod1a", "pod2b"));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  primary.remove(b.user_id);

  ClickIncService svc(topo::Topology::paperEmulation());
  ASSERT_TRUE(svc.recover(&sink).ok);
  // b was removed before the crash: its id is unknown, structured.
  const auto gone = svc.remove(b.user_id);
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.error.code, ErrorCode::kUnknownUser);
  // a survives and removes cleanly, journaled for the next recovery.
  EXPECT_TRUE(svc.remove(a.user_id).ok);
  ClickIncService again(topo::Topology::paperEmulation());
  ASSERT_TRUE(again.recover(&sink).ok);
  EXPECT_TRUE(again.deployments().empty());
}

// --- flap damping --------------------------------------------------------

TEST(FlapDamping, HealInsideTheWindowIsDeferredThenFires) {
  // Drain transitions keep the chain forwarding while excluding a device
  // from placement, so every step has a live path and the damping effect
  // is isolated from route severing.
  ClickIncService svc(
      topo::Topology::chain({device::makeTofino(), device::makeTofino2()}));
  core::FailoverPolicy pol;
  pol.flap_window = 1;
  svc.setFailoverPolicy(pol);
  const auto& topo = svc.topology();
  const int d0 = topo.findNode("d0");
  const int d1 = topo.findNode("d1");
  const auto r = svc.submit(SubmitRequest::fromTemplate(
      "DQAcc", {{"CacheDepth", 64}, {"CacheLen", 2}},
      trafficFor(topo, {"client"}, "server")));
  ASSERT_TRUE(r.ok) << r.error.message();

  const auto down = svc.drainNode(d0);  // version 1: disturbance
  EXPECT_EQ(down.damped_events, 0);
  EXPECT_EQ(planDeviceSet(svc.deployments().at(r.user_id).plan),
            std::set<int>{d1});

  // version 2: heal lands 1 <= window after the disturbance -> deferred.
  // The tenant must NOT bounce back to d0 yet.
  const auto up = svc.healNode(d0);
  EXPECT_EQ(up.damped_events, 1);
  EXPECT_TRUE(up.tenants.empty());
  EXPECT_EQ(planDeviceSet(svc.deployments().at(r.user_id).plan),
            std::set<int>{d1});

  // version 3: unrelated disturbance pushes d0 past its quiet window —
  // the deferred heal fires in this very batch, and with d1 now draining
  // the re-placement lands back on the healed d0.
  const auto fire = svc.drainNode(d1);
  EXPECT_EQ(fire.damped_events, 0);
  ASSERT_EQ(fire.tenants.size(), 1u);
  EXPECT_EQ(fire.tenants[0].user_id, r.user_id);
  EXPECT_EQ(fire.tenants[0].outcome, RecoveryOutcome::kReplaced);
  EXPECT_EQ(planDeviceSet(svc.deployments().at(r.user_id).plan),
            std::set<int>{d0});
  EXPECT_TRUE(svc.verifyDeployments().ok());
}

TEST(FlapDamping, DampedRebootStillWipesTheDevice) {
  ClickIncService svc(topo::Topology::paperEmulation());
  core::FailoverPolicy pol;
  pol.flap_window = 8;
  svc.setFailoverPolicy(pol);
  const auto r = svc.submit(dqaccRequest(svc.topology()));
  ASSERT_TRUE(r.ok);
  const auto devices = planDeviceSet(r.plan);
  ASSERT_FALSE(devices.empty());
  const int victim = *devices.begin();

  svc.failNode(victim);
  const auto up = svc.healNode(victim);  // damped: no upgrade yet
  EXPECT_EQ(up.damped_events, 1);
  // But the reboot is real: the device came back empty immediately.
  EXPECT_EQ(place::occupancyFingerprint(svc.occupancy().of(victim)),
            place::occupancyFingerprint(
                place::DeviceOccupancy::fresh(svc.topology().node(victim).model)));
  EXPECT_TRUE(svc.verifyDeployments().ok());
}

TEST(FlapDamping, ZeroWindowKeepsTheOldBehaviour) {
  ClickIncService svc(topo::Topology::paperEmulation());
  const auto r = svc.submit(dqaccRequest(svc.topology()));
  ASSERT_TRUE(r.ok);
  const auto devices = planDeviceSet(r.plan);
  ASSERT_FALSE(devices.empty());
  svc.failNode(*devices.begin());
  const auto up = svc.healNode(*devices.begin());
  EXPECT_EQ(up.damped_events, 0);
  ASSERT_EQ(up.tenants.size(), 1u);  // immediate upgrade, no deferral
}

TEST(FlapDamping, InjectorChurnStaysAuditCleanWithAWindow) {
  ClickIncService svc(topo::Topology::paperEmulation());
  core::FailoverPolicy pol;
  pol.flap_window = 3;
  svc.setFailoverPolicy(pol);
  ASSERT_TRUE(svc.submit(dqaccRequest(svc.topology(), 128)).ok);
  ASSERT_TRUE(
      svc.submit(dqaccRequest(svc.topology(), 256, "pod1a", "pod2b")).ok);
  svc.armFaultInjector(1234);
  for (int i = 0; i < 12; ++i) {
    const auto rep = svc.stepFault();
    EXPECT_TRUE(rep.verify.ok()) << "step " << i << ": "
                                 << rep.verify.summary();
  }
  EXPECT_TRUE(svc.verifyDeployments().ok());
}

// --- wire format pins ------------------------------------------------------
//
// Hand-built records of every journal type, each field set to a distinct
// non-default value. Their bytes are pinned as (size, CRC) pairs, so any
// change to a field list, a field's width or a count's encoding shows up
// here before it reaches a journal on disk.

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

// Recorded from the encoder that predates the field-list codec; the two
// must agree byte for byte.
constexpr Pin kPinCommit{804, 0x6385DE97};
constexpr Pin kPinAbort{4, 0xDB544008};
constexpr Pin kPinRemove{5, 0xE1621A4F};
constexpr Pin kPinHealth{23, 0x8BCE19D2};
constexpr Pin kPinFailover{16, 0x7377D316};
constexpr Pin kPinMigrate{421, 0xA1634C6F};
constexpr Pin kPinMigrateAbort{413, 0x15103D94};
constexpr Pin kPinCheckpoint{1153, 0xB1DEFB9E};

constexpr int kDevA = 0x0D0E'0007;  // on_device keys, unique in the bytes
constexpr int kDevB = 0x0D0E'0008;
constexpr std::uint64_t kHealA = 0xDEF0'0000'0000'0001ULL;
constexpr std::uint64_t kHealB = 0xDEF0'0000'0000'0002ULL;
constexpr std::uint64_t kDisturbA = 0x1D00'0000'0000'0001ULL;
constexpr std::uint64_t kDisturbB = 0x1D00'0000'0000'0002ULL;

device::ResourceDemand pinnedDemand(int base) {
  device::ResourceDemand d;
  d.salus = base + 1;
  d.alus = base + 2;
  d.hash_units = base + 3;
  d.tables = base + 4;
  d.gateways = base + 5;
  d.special_fns = base + 6;
  d.sram_bits = 0x1'0000'0000ULL + static_cast<std::uint64_t>(base);
  d.tcam_bits = 0x2'0000'0000ULL + static_cast<std::uint64_t>(base);
  d.micro_instrs = base + 7;
  d.dsps = base + 8;
  d.luts = 0x3'0000'0000ULL + static_cast<std::uint64_t>(base);
  d.ffs = 0x4'0000'0000ULL + static_cast<std::uint64_t>(base);
  return d;
}

ir::IrProgram pinnedProgram() {
  ir::IrProgram p;
  p.name = "pinned";
  p.fields = {{"hdr.key", 13}, {"hdr.val", 40}};
  ir::StateObject st;
  st.id = 3;
  st.name = "cache";
  st.kind = ir::StateKind::kTernaryTable;
  st.stateful = false;
  st.depth = 4097;
  st.key_width = 24;
  st.value_width = 40;
  st.owners = {5, 9};
  p.states = {st};
  ir::Instruction guarded;
  guarded.op = ir::Opcode::kStmtWrite;
  guarded.dest = ir::Operand::field("hdr.val", 40);
  guarded.dest2 = ir::Operand::var("hit", 1);
  guarded.srcs = {ir::Operand::constant(0xABCD'EF01'23ULL, 36),
                  ir::Operand::field("hdr.key", 13)};
  guarded.pred = ir::Operand::var("guard", 1);
  guarded.pred_negate = true;
  guarded.state_id = 3;
  guarded.owners = {5, 9};
  guarded.step = 2;
  ir::Instruction plain;
  plain.op = ir::Opcode::kAdd;
  plain.dest = ir::Operand::var("sum", 16);
  plain.srcs = {ir::Operand::constant(7, 16), ir::Operand::var("hit", 1)};
  plain.step = 4;
  p.instrs = {guarded, plain};
  return p;
}

place::IntraPlacement pinnedIntra(int base) {
  place::IntraPlacement ip;
  ip.feasible = true;
  ip.why = cat("why", base);
  ip.instr_idxs = {base, base + 1};
  ip.stage_of = {base + 2, base + 3};
  ip.stages_used = base + 4;
  ip.total = pinnedDemand(base * 10);
  ip.steps = 999;  // a search diagnostic, not on the wire
  return ip;
}

place::PlacementPlan pinnedPlan() {
  place::PlacementPlan plan;
  plan.feasible = true;
  plan.failure = "none";
  plan.resource_limited = true;
  place::NodeAssignment a;
  a.tree_node = 2;
  a.from_block = 1;
  a.to_block = 3;
  a.bypass_from = 2;
  a.on_device = {{kDevA, pinnedIntra(1)}, {kDevB, pinnedIntra(2)}};
  a.on_bypass = {{11, pinnedIntra(3)}};
  plan.assignments = {a};
  plan.gain = 1.25;
  plan.ht = 0.5;
  plan.hr = 0.375;
  plan.hp = 0.125;
  plan.weights_used = {0.1, 0.2, 0.7};
  plan.steps = 4242;  // run diagnostics, not on the wire
  plan.elapsed_ms = 3.5;
  return plan;
}

topo::TrafficSpec pinnedTraffic() {
  topo::TrafficSpec t;
  t.sources = {{3, 1.5}, {4, 2.25}};
  t.dst_host = 9;
  return t;
}

place::PlacementOptions pinnedOptions() {
  place::PlacementOptions o;
  o.weights = {0.3, 0.3, 0.4};
  o.adaptive = false;
  o.prune = false;
  o.fast = false;
  o.max_steps = 123'456'789'012L;
  return o;
}

durable::CheckpointRecord pinnedCheckpoint() {
  durable::CheckpointRecord cp;
  cp.next_user = 9;
  cp.health_version = 31;
  cp.processed_health_version = 29;
  cp.node_health = {0, 1, 2};
  cp.link_health = {2, 0};
  durable::CheckpointDevice dev;
  dev.node = 4;
  dev.free_stage = {pinnedDemand(100), pinnedDemand(200)};
  dev.free_whole = pinnedDemand(300);
  cp.devices = {dev};
  durable::CheckpointTenant t;
  t.user = 3;
  t.prog = pinnedProgram();
  t.plan = pinnedPlan();
  t.traffic = pinnedTraffic();
  t.options = pinnedOptions();
  t.plan_fp = 0x0123'4567'89AB'CDEFULL;
  cp.tenants = {t};
  auto& node_heal = cp.deferred_heals[kHealA];
  node_heal.kind = topo::FailureEvent::Kind::kNode;
  node_heal.node = 4;
  node_heal.from = topo::Health::kDown;
  node_heal.version = 12;
  auto& link_heal = cp.deferred_heals[kHealB];
  link_heal.kind = topo::FailureEvent::Kind::kLink;
  link_heal.link_a = 5;
  link_heal.link_b = 6;
  link_heal.from = topo::Health::kDraining;
  link_heal.version = 13;
  cp.last_disturb = {{kDisturbA, 11}, {kDisturbB, 12}};
  return cp;
}

struct PinnedRecord {
  const char* name;
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint8_t> reencoded;  // encode(decode(bytes))
  Pin pin;
};

std::vector<PinnedRecord> pinnedRecords() {
  using namespace durable;
  std::vector<PinnedRecord> out;
  const auto add = [&out](const char* name, std::vector<std::uint8_t> bytes,
                          auto decode, auto encode, Pin pin) {
    auto again = encode(decode(bytes));
    out.push_back({name, std::move(bytes), std::move(again), pin});
  };

  CommitRecord commit;
  commit.user = 17;
  commit.prog = pinnedProgram();
  commit.plan = pinnedPlan();
  commit.traffic = pinnedTraffic();
  commit.options = pinnedOptions();
  add("commit", encodeCommit(commit), decodeCommit, encodeCommit, kPinCommit);

  AbortRecord abort_rec;
  abort_rec.user = 18;
  add("abort", encodeAbort(abort_rec), decodeAbort, encodeAbort, kPinAbort);

  RemoveRecord remove;
  remove.user = 19;
  remove.lazy = false;
  add("remove", encodeRemove(remove), decodeRemove, encodeRemove, kPinRemove);

  HealthRecord health;
  health.event.version = 77;
  health.event.kind = topo::FailureEvent::Kind::kLink;
  health.event.node = 4;
  health.event.link_a = 5;
  health.event.link_b = 6;
  health.event.from = topo::Health::kDraining;
  health.event.to = topo::Health::kDown;
  add("health", encodeHealth(health), decodeHealth, encodeHealth, kPinHealth);

  FailoverRecord failover;
  failover.processed_version = 88;
  failover.damped_events = 3;
  failover.tenants = 2;
  add("failover", encodeFailover(failover), decodeFailover, encodeFailover,
      kPinFailover);

  MigrateRecord migrate;
  migrate.user = 20;
  migrate.plan = pinnedPlan();
  migrate.old_plan_fp = 0xFEDC'BA98'7654'3210ULL;
  add("migrate", encodeMigrate(migrate), decodeMigrate, encodeMigrate,
      kPinMigrate);

  MigrateAbortRecord migrate_abort;
  migrate_abort.user = 21;
  migrate_abort.plan = pinnedPlan();
  add("migrate_abort", encodeMigrateAbort(migrate_abort), decodeMigrateAbort,
      encodeMigrateAbort, kPinMigrateAbort);

  add("checkpoint", encodeCheckpoint(pinnedCheckpoint()), decodeCheckpoint,
      encodeCheckpoint, kPinCheckpoint);
  return out;
}

TEST(Serialize, EveryRecordTypeHasPinnedBytes) {
  const auto records = pinnedRecords();
  ASSERT_EQ(records.size(), 8u);
  for (const auto& rec : records) {
    SCOPED_TRACE(rec.name);
    EXPECT_EQ(rec.bytes.size(), rec.pin.size);
    EXPECT_EQ(crc32(rec.bytes), rec.pin.crc)
        << std::hex << "0x" << crc32(rec.bytes);
  }
}

TEST(Serialize, DecodeThenEncodeReproducesTheBytes) {
  for (const auto& rec : pinnedRecords()) {
    SCOPED_TRACE(rec.name);
    EXPECT_EQ(rec.reencoded, rec.bytes);
  }
}

// Rewrites the single little-endian occurrence of `from` in `bytes` to `to`.
template <class T>
void patchUnique(std::vector<std::uint8_t>& bytes, T from, T to) {
  const auto le = [](T v) {
    std::vector<std::uint8_t> out(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >>
                                         (8 * i));
    }
    return out;
  };
  const auto f = le(from);
  const auto t = le(to);
  const auto at = std::search(bytes.begin(), bytes.end(), f.begin(), f.end());
  ASSERT_NE(at, bytes.end());
  ASSERT_EQ(std::search(at + 1, bytes.end(), f.begin(), f.end()), bytes.end());
  std::copy(t.begin(), t.end(), at);
}

// A crafted payload may repeat a map key. Intra-device maps and deferred
// heals keep the first entry; last_disturb keeps the last.
TEST(Serialize, DuplicateMapKeysKeepTheDocumentedEntry) {
  durable::MigrateAbortRecord ma;
  ma.user = 1;
  ma.plan = pinnedPlan();
  auto plan_bytes = durable::encodeMigrateAbort(ma);
  patchUnique(plan_bytes, kDevB, kDevA);
  const auto on_device =
      durable::decodeMigrateAbort(plan_bytes).plan.assignments.at(0).on_device;
  ASSERT_EQ(on_device.size(), 1u);
  EXPECT_EQ(on_device.at(kDevA).why, pinnedIntra(1).why);

  auto cp_bytes = durable::encodeCheckpoint(pinnedCheckpoint());
  patchUnique(cp_bytes, kHealB, kHealA);
  patchUnique(cp_bytes, kDisturbB, kDisturbA);
  const auto cp = durable::decodeCheckpoint(cp_bytes);
  ASSERT_EQ(cp.deferred_heals.size(), 1u);
  EXPECT_EQ(cp.deferred_heals.at(kHealA).kind,
            topo::FailureEvent::Kind::kNode);
  EXPECT_EQ(cp.deferred_heals.at(kHealA).version, 12u);
  ASSERT_EQ(cp.last_disturb.size(), 1u);
  EXPECT_EQ(cp.last_disturb.at(kDisturbA), 12u);
}

// --- crash-point fuzzer --------------------------------------------------

TEST(RecoveryFuzz, SeededScenariosSurviveEveryCrashPoint) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto out = verify::fuzzRecoveryOnce(seed);
    ASSERT_TRUE(out.ok) << "seed " << seed << ": " << out.failure;
    EXPECT_GT(out.cuts, 0) << "seed " << seed;
    EXPECT_EQ(out.audits, out.cuts) << "seed " << seed;
    EXPECT_GT(out.compared, 0) << "seed " << seed;
    EXPECT_GT(out.torn_cuts, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace clickinc
