// bench_suite — the one-command performance benchmark of the submission
// path (compile + commit of tenant programs) and the packet path (emulated
// INC execution). bench/suite/README.md documents the workloads, metrics
// and bounds; bench/suite/run.py builds this program and runs it.
//
//   bench_suite --workload W --seed N --seconds S --trace 0|1
//               [--trace-file PATH] [--passes P] [--expect-digest HEX]
//   bench_suite --workload W --seed N --seconds S --selfcheck
//
// --trace 0 runs the workload untraced and prints its end-to-end metrics.
// --trace 1 runs one untraced pass (its counters are free to read), then a
// traced pass of the same seed, and prints the per-layer metrics. The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/service.h"
#include "durable/journal.h"
#include "durable/serialize.h"
#include "gen.h"
#include "place/blockdag.h"
#include "scale/fattree.h"
#include "suite.h"
#include "topo/ec.h"
#include "util/thread_pool.h"

namespace clickinc::suite {
namespace {

// The service runs single-threaded, driven by one synchronous client: on a
// host shared with other machines, every thread beyond the first measured
// the scheduler as much as the program.
constexpr int kThreads = 1;

// A run is several passes. A pass is a set-up followed by the timed
// operations, the same operations from the same state in every pass, so
// operation i of each pass is one more sample of the same work; the pass
// must also end in the same state. Each operation's time is its best over
// the passes: other load on the host only ever adds time, and on the
// reference host it comes and goes over seconds, slowing everything by up
// to 1.7x while it lasts. Many short passes spread over the run leave few
// operations without a pass in a quiet moment: with 4 passes the 10-seed
// spread of pkt_narrow's p95 was 0.32, with 16 it was 0.064. setup_s is
// the median of the passes' set-ups.
constexpr int kPasses = 16;
constexpr int kChurnPasses = 8;     // admit_ratio needs 300 steps a pass
constexpr int kFillPasses = 4;      // a pass must fill the fabric
constexpr int kFailoverPasses = 5;  // an operation takes 30-300 ms

// Every pass is a fixed amount of work per second of --seconds / passes,
// sized to take about that long on the reference host. A seed then offers
// the same operations on any host, and host speed moves only the times.
long workFor(double seconds, double per_second) {
  return std::max<long>(1, std::lround(seconds * per_second));
}

// The seed of the inputs that are the same in every run: the populations
// that set-ups restore (the timed operations start from them, but they are
// not timed), fill's warm-up, and all of failover's inputs. The peak RSS
// of churn followed its seed-drawn population, spreading 0.12 over 10
// seeds.
constexpr std::uint64_t kFixedSeed = 0;

// churn: each step removes the tenants whose lifetime has run out, then
// submits the next tenant. Lifetimes are exponential with a mean of
// kChurnLife steps, so the live population stays near kChurnLife tenants,
// which is what each set-up restores.
constexpr double kChurnLife = 160;
constexpr int kChurnPrefill = 160;
constexpr double kChurnPerS = 250;
constexpr int kAuditEvery = 250;  // traced run: periodic full audits

// fill: a pass submits tenants until well after the fabric's switches fill
// and start refusing the aggregation apps, so it needs longer passes than
// the other workloads. The state digest is taken after the first
// kDigestSubmits submissions, which a 1 s pass reaches. Each set-up warms
// the service with kWarmupSubmits submissions, three of each app, and
// removes them.
constexpr double kFillPerS = 120;
constexpr long kDigestSubmits = 100;
constexpr int kCheckpointEvery = 250;
constexpr int kWarmupSubmits = 12;

// failover: the tenant population, and the kill/heal pairs per second.
// failover's inputs do not depend on --seed: every seed fails the same
// elements of the same population in the same order. Which tenants each
// failure hits, and in what state the failures before it left them, decide
// the cost of each failover: with per-seed populations latency_p50_ms
// ranged over 66-150 ms across four seeds, and with per-seed orders or
// element choices its 10-seed spread was 0.51-1.7.
constexpr int kFailoverPrefill = 200;
constexpr double kFailoverPairsPerS = 5;

// Packet workloads. Each set-up ends with warm-up rounds, before the timed
// phase. The correctness gate compares the first kCompareRounds rounds of
// a second, identically deployed service on the reference interpreter
// packet by packet.
constexpr int kWarmupRounds = 16;
constexpr int kCompareRounds = 64;
constexpr double kNarrowRoundsPerS = 2500;
constexpr double kWideRoundsPerS = 110;
constexpr int kNarrowTenants = 16;
constexpr int kNarrowPackets = 8;
constexpr int kWideWorkers = 8;
constexpr int kWidePackets = 64;
constexpr std::uint64_t kWideDim = 16;
constexpr std::uint64_t kKvsInstalled = 128;  // hottest keys per cache

// Submit workloads end with a probe: one burst per live tenant (up to
// kProbeTenants) checking that each is served on its path.
constexpr int kProbeTenants = 64;
constexpr int kProbePackets = 8;
constexpr int kProbeRounds = 16;    // traced run: probe rounds for emu.*
constexpr int kSpeedupRounds = 16;  // rounds per side of emu.pool_speedup
constexpr int kSpeedupThreads = 4;  // pool of emu.pool_speedup's pooled side

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  int passes = 0;  // 0: the workload's own count
  std::string expect_digest;
  bool selfcheck = false;
};

// --- per-run accounting ------------------------------------------------------

// Traced-run extras of the packet path.
struct PacketLayers {
  std::map<std::pair<int, int>, ir::StateStore> stores;  // (device, user)
  Rng rng{0x5EEDULL};
  double round_ms = 0;
  double exec_ms = 0;
  long exec_packets = 0;
  long executed = 0;
  double seq_ms = 0;   // emu.pool_speedup: pool detached
  double pool_ms = 0;  // emu.pool_speedup: pool attached
};

struct Outcome {
  // End-to-end accounting of the timed operations.
  std::vector<double> setup_s;  // one per pass
  std::vector<double> op_ms;    // per operation, its best time over passes
  std::vector<double> op_items;  // per operation, its items (pkt_*: packets)
  long decided = 0;              // admit_ratio denominator
  long admitted = 0;
  long attempted = 0;
  long failed = 0;
  double peak_rss_mb = 0;  // VmHWM after the last pass
  std::vector<std::string> errors;

  // Pass bookkeeping: the next operation's index within the pass, the
  // digest of the packet results of the pass so far, the state the first
  // pass ended in, and the passes done.
  std::size_t op_next = 0;
  Digest results;
  std::string pass_state;
  int passes_done = 0;

  // Counters, read off the untraced run.
  long submits = 0;
  long recompiled = 0;
  long placed = 0;
  double dp_steps = 0;
  double memo_hit = 0;
  double segcache_hit = 0;
  double plancache_hit = 0;
  long fo_events = 0;
  long fo_tenants = 0;  // tenants the failovers hit
  long fo_kept = 0;     // of those, left in the network
  long seg_pinned = 0;
  long seg_replaced = 0;
  long packets = 0;
  long hops = 0;
  long program_drops = 0;
  double slots_per_plan = 0;
  double fused_ratio = 0;
  std::string digest;  // fill: state after the first kDigestSubmits

  // Traced-run layers. Request ids are unique over the run: the services
  // of the population and of every pass share one sequence.
  long next_request = 0;
  PacketLayers layers;
  double journal_bytes = 0;
  long journal_records = 0;

  void fail(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
  }
  bool clean() const { return errors.empty() && failed == 0; }

  // One timed operation of the current pass.
  void timeOp(double ms, double items = 1) {
    if (op_next == op_ms.size()) {
      op_ms.push_back(ms);
      op_items.push_back(items);
    } else {
      op_ms[op_next] = std::min(op_ms[op_next], ms);
    }
    ++op_next;
  }

  // Closes a pass, which must have run as many operations as the first
  // and ended in the same state.
  void endPass(const std::string& state) {
    if (op_next != op_ms.size()) {
      fail(cat("pass ", passes_done + 1, " ran ", op_next, " operations, "
               "pass 1 ran ", op_ms.size()));
    }
    if (passes_done == 0) {
      pass_state = state;
    } else if (state != pass_state) {
      fail(cat("pass ", passes_done + 1, " ended in state ", state,
               ", pass 1 in ", pass_state));
    }
    op_next = 0;
    results = Digest{};
    ++passes_done;
  }
};

bool failureClass(core::ErrorCode c) {
  return c == core::ErrorCode::kInternal ||
         c == core::ErrorCode::kVerification ||
         c == core::ErrorCode::kDeployFailed ||
         c == core::ErrorCode::kRecovery;
}

std::set<int> planDevices(const place::PlacementPlan& plan) {
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

std::uint64_t occupancyDigest(const topo::Topology& topo,
                              const place::OccupancyMap& occ) {
  Digest d;
  for (const auto& n : topo.nodes()) {
    if (n.programmable) d.add(place::occupancyFingerprint(occ.of(n.id)));
  }
  return d.value();
}

// --- the service under test, with optional tracing ---------------------------

struct Ctx {
  core::ClickIncService* svc = nullptr;
  Tracer* tracer = nullptr;  // null: untraced run
  Outcome* out = nullptr;
  bool timed = false;  // submissions count as timed operations
  std::map<int, TenantSpec> live;  // admitted tenants by user id
  // Traced run: the compile stage is replayed against live occupancy with
  // this arena, and each commit record is fed to this private sink.
  place::PlacementArena arena;
  durable::MemJournalSink sink;
  std::uint64_t journal_seq = 0;

  // A span when tracing, nothing otherwise.
  std::unique_ptr<Tracer::Scope> span(const char* name, long request = -1) {
    if (tracer == nullptr) return nullptr;
    return std::make_unique<Tracer::Scope>(tracer, name, request);
  }
  PacketLayers* layers() {
    return tracer != nullptr ? &out->layers : nullptr;
  }
};

// Destroys a pass's service and hands the heap it freed back to the
// kernel, so that peak_rss_mb is the peak of one pass and not the heap
// fragmentation the passes before it left behind, which followed the seed.
void dropService(std::unique_ptr<core::ClickIncService>& svc) {
  svc.reset();
  malloc_trim(0);
}

// One pass's service: fresh, on `topo`, with `ctx` pointing at it. The
// caller drops the previous pass's service first, outside the timing.
void freshService(std::unique_ptr<core::ClickIncService>& svc, Ctx& ctx,
                  topo::Topology topo, std::uint64_t seed, Tracer* tracer,
                  Outcome& out) {
  ctx = Ctx{};
  ctx.tracer = tracer;
  ctx.out = &out;
  svc = std::make_unique<core::ClickIncService>(std::move(topo), seed);
  svc->setConcurrency(kThreads);
  ctx.svc = svc.get();
}

// A workload's starting tenants, placed once per run by `place` through a
// service with a journal attached, then checkpointed. Every pass restores
// them into a fresh service with recover() (re-deploy without re-placement,
// then a full audit): the same state in every pass, with cold caches like
// the first, for a twentieth of the cost of placing them again.
struct Population {
  std::vector<std::uint8_t> journal;
  std::map<int, TenantSpec> live;
};

Population placePopulation(topo::Topology topo, std::uint64_t seed,
                           bool sharding, Tracer* tracer, Outcome& out,
                           const std::function<void(Ctx&)>& place) {
  durable::MemJournalSink sink;
  std::unique_ptr<core::ClickIncService> svc;
  Ctx ctx;
  freshService(svc, ctx, std::move(topo), seed, tracer, out);
  svc->setDomainSharding(sharding);
  svc->attachJournal(&sink);
  place(ctx);
  svc->checkpoint();
  return {sink.readAll(), ctx.live};
}

// A pass's set-up: a fresh service on `topo` that recovers `pop` from a
// copy of its journal in `sink`, which stays attached. Returns its time
// in seconds.
double restorePopulation(std::unique_ptr<core::ClickIncService>& svc,
                         Ctx& ctx, const std::function<topo::Topology()>& topo,
                         std::uint64_t seed, bool sharding, Tracer* tracer,
                         Outcome& out, const Population& pop,
                         durable::MemJournalSink& sink) {
  dropService(svc);
  const auto t0 = Clock::now();
  freshService(svc, ctx, topo(), seed, tracer, out);
  svc->setDomainSharding(sharding);
  sink.setBytes(pop.journal);
  const auto rep = svc->recover(&sink);
  if (!rep.ok) out.fail("restore: " + rep.error.message());
  ctx.live = pop.live;
  return msSince(t0) / 1000.0;
}

void countSubmit(Ctx& ctx, const TenantSpec& t, const core::SubmitResult& r) {
  Outcome& o = *ctx.out;
  ++o.submits;
  if (r.recompiled) ++o.recompiled;
  if (r.plan.steps > 0) {
    ++o.placed;
    o.dp_steps += static_cast<double>(r.plan.steps);
  }
  if (ctx.timed) {
    ++o.attempted;
    ++o.decided;
    if (r.ok) ++o.admitted;
  }
  if (r.ok) {
    ctx.live[r.user_id] = t;
  } else if (failureClass(r.error.code)) {
    ++o.failed;
    o.fail(r.error.message());
  }
}

// Re-runs the compile stage of `t` through the four compile layers, each in
// its own span, as the service runs it for a synchronous submission.
void replayCompile(Ctx& ctx, const TenantSpec& t, long req) {
  auto& svc = *ctx.svc;
  try {
    const int guess = ctx.live.empty() ? 1 : ctx.live.rbegin()->first + 1;
    ir::IrProgram prog;
    {
      auto s = ctx.span("lang.frontend", req);
      prog = t.app == App::kSparseMlagg
                 ? svc.library().compileUser(
                       modules::sparseMlaggSource(), cat("user_", guess),
                       mlaggHeader(t.params.at("Dim")), t.params)
                 : svc.library().compileTemplate(
                       appName(t.app),
                       cat(toLower(appName(t.app)), "_", guess), t.params);
    }
    std::optional<place::BlockDag> dag;
    {
      auto s = ctx.span("place.blockdag", req);
      dag.emplace(place::BlockDag::build(prog));
    }
    std::optional<topo::EcTree> tree;
    {
      auto s = ctx.span("topo.ectree", req);
      tree.emplace(topo::buildEcTree(svc.topology(), t.traffic));
    }
    place::PlacementOptions opts;
    opts.pool = svc.threadPool();
    if (const auto* di = svc.domainIndex(); di != nullptr) {
      const int d = di->domainOfTraffic(t.traffic);
      if (d != scale::kCrossDomain) opts.ratio_devices = &di->domainDevices(d);
    }
    auto s = ctx.span("place.dp", req);
    place::placeProgram(*dag, *tree, svc.topology(), svc.occupancy(), opts,
                        &ctx.arena);
  } catch (const std::exception&) {
    // The submission itself reports this failure as a structured error.
  }
}

struct Timed {
  core::SubmitResult r;
  double ms = 0;
};

Timed submitSync(Ctx& ctx, const TenantSpec& t) {
  const long req = ctx.out->next_request++;
  core::SubmitRequest request = toRequest(t);
  Timed out;
  {
    auto root = ctx.span("request", req);
    if (ctx.tracer != nullptr) replayCompile(ctx, t, req);
    {
      auto s = ctx.span("core.submit", req);
      const auto t0 = Clock::now();
      out.r = ctx.svc->submit(std::move(request));
      out.ms = msSince(t0);
    }
    if (ctx.tracer != nullptr && out.r.ok) {
      auto s = ctx.span("durable.append", req);
      durable::CommitRecord rec;
      rec.user = out.r.user_id;
      rec.prog = *ctx.svc->deployments().at(out.r.user_id).prog;
      rec.plan = out.r.plan;
      rec.traffic = t.traffic;
      const auto bytes = durable::encodeCommit(rec);
      ctx.out->journal_bytes += static_cast<double>(durable::appendRecord(
          ctx.sink, ++ctx.journal_seq, durable::RecordType::kCommit, bytes));
      ++ctx.out->journal_records;
    }
  }
  countSubmit(ctx, t, out.r);
  return out;
}

void removeTenant(Ctx& ctx, int user) {
  core::RemoveResult rr;
  {
    auto s = ctx.span("core.remove");
    rr = ctx.svc->remove(user);
  }
  ctx.live.erase(user);
  if (!rr.ok) ctx.out->fail("remove: " + rr.error.message());
}

void auditGate(Ctx& ctx, const char* when) {
  verify::VerifyReport rep;
  {
    auto s = ctx.span("verify.audit");
    rep = ctx.svc->verifyDeployments();
  }
  if (!rep.ok()) ctx.out->fail(cat(when, " audit: ", rep.summary()));
}

void readPlacementCounters(Ctx& ctx) {
  const auto& ps = ctx.svc->placementStats();
  ctx.out->memo_hit = ps.intraMemoHitRate();
  ctx.out->segcache_hit = ps.segCacheHitRate();
  ctx.out->plancache_hit = ctx.svc->execPlanCache().stats().hitRate();
}

// --- packet path -------------------------------------------------------------

long burstPackets(const std::vector<emu::Burst>& bursts) {
  long n = 0;
  for (const auto& b : bursts) n += static_cast<long>(b.views.size());
  return n;
}

void tallyRound(Outcome& o,
                const std::vector<std::vector<emu::PacketResult>>& results) {
  for (const auto& burst : results) {
    for (const auto& r : burst) {
      ++o.packets;
      o.hops += r.hops;
      o.results.add(static_cast<std::uint64_t>(r.view.verdict));
      o.results.add(static_cast<std::uint64_t>(r.drop_reason));
      o.results.addInt(r.final_node);
      o.results.add(r.latency_ns);
      if (!r.dropped) continue;
      if (r.drop_reason == emu::DropReason::kProgram) {
        ++o.program_drops;
      } else {
        ++o.failed;
        o.fail(cat("packet of user ", r.view.user_id, " dropped: ",
                   emu::dropReasonName(r.drop_reason)));
      }
    }
  }
}

// ExecPlan::runBatch of every plan deployed on a burst's path, on that
// burst's packets, against private state stores: the exec layer on its own.
void execReplay(Ctx& ctx, const std::vector<emu::Burst>& bursts,
                PacketLayers& pl) {
  const auto& topo = ctx.svc->topology();
  const auto& deployed = ctx.svc->emulator().deployments();
  for (const auto& b : bursts) {
    if (b.views.empty()) continue;
    const int user = b.views.front().user_id;
    std::vector<int> nodes;
    for (int n : topo.shortestPathUp(b.src, b.dst)) {
      nodes.push_back(n);
      if (topo.node(n).attached_accel >= 0) {
        nodes.push_back(topo.node(n).attached_accel);
      }
    }
    for (int dev : nodes) {
      const auto it = deployed.find(dev);
      if (it == deployed.end()) continue;
      for (const auto& e : it->second) {
        if (e.user_id != user || e.plan == nullptr) continue;
        std::vector<ir::PacketView> pkts = b.views;
        auto& store = pl.stores[{dev, user}];
        const auto t0 = WallClock::now();
        ir::ExecStats st;
        {
          auto s = ctx.span("ir.exec");
          st = e.plan->runBatch(&store, &pl.rng,
                                std::span<ir::PacketView>(pkts));
        }
        pl.exec_ms += msSince(t0);
        pl.exec_packets += static_cast<long>(pkts.size());
        pl.executed += static_cast<long>(st.executed);
      }
    }
  }
}

// Sends one round through the service's emulator; returns its time in ms.
double sendRound(Ctx& ctx, std::vector<emu::Burst> bursts) {
  PacketLayers* pl = ctx.layers();
  std::vector<emu::Burst> replay;
  if (pl != nullptr) replay = bursts;
  std::vector<std::vector<emu::PacketResult>> results;
  const auto t0 = Clock::now();
  const auto wall0 = WallClock::now();
  {
    auto s = ctx.span("emu.round");
    results = ctx.svc->emulator().sendBursts(std::move(bursts));
  }
  const double ms = msSince(t0);
  tallyRound(*ctx.out, results);
  if (pl != nullptr) {
    pl->round_ms += msSince(wall0);
    execReplay(ctx, replay, *pl);
  }
  return ms;
}

// Static shape of the deployed execution plans.
void recordPlanShape(Ctx& ctx) {
  double slots = 0, fused = 0, instrs = 0, plans = 0;
  for (const auto& [dev, entries] : ctx.svc->emulator().deployments()) {
    (void)dev;
    for (const auto& e : entries) {
      if (e.plan == nullptr) continue;
      plans += 1;
      slots += static_cast<double>(e.plan->slotCount());
      fused += static_cast<double>(e.plan->fusedPairs());
      instrs += static_cast<double>(e.plan->instrCount());
    }
  }
  ctx.out->slots_per_plan = ratio(slots, plans);
  ctx.out->fused_ratio = ratio(fused, instrs);
}

// emu.pool_speedup: rounds alternately sent without and with a worker pool
// of kSpeedupThreads (ABBA order, so drift in state cancels out), on the
// wall clock.
template <typename Gen>
void poolSpeedup(Ctx& ctx, Gen&& gen) {
  auto& emu = ctx.svc->emulator();
  PacketLayers& pl = ctx.out->layers;
  util::ThreadPool pool(kSpeedupThreads);
  for (int k = 0; k < 2 * kSpeedupRounds; ++k) {
    const bool seq = (k % 4 == 0) || (k % 4 == 3);
    auto bursts = gen(k);
    emu.setThreadPool(seq ? nullptr : &pool);
    const auto t0 = WallClock::now();
    const auto results = emu.sendBursts(std::move(bursts));
    (seq ? pl.seq_ms : pl.pool_ms) += msSince(t0);
    (void)results;
  }
  emu.setThreadPool(ctx.svc->threadPool());
}

std::vector<emu::Burst> probeBursts(const Ctx& ctx, std::uint64_t seed,
                                    std::uint64_t round) {
  Rng rng = rngFor(seed, Stream::kProbe, round);
  std::vector<emu::Burst> bursts;
  for (const auto& [user, t] : ctx.live) {
    if (static_cast<int>(bursts.size()) >= kProbeTenants) break;
    const auto it = ctx.svc->deployments().find(user);
    if (it == ctx.svc->deployments().end() ||
        planDevices(it->second.plan).empty()) {
      continue;  // a server-only tenant has nothing in the network to probe
    }
    emu::Burst b;
    b.src = t.traffic.sources.front().host;
    b.dst = t.traffic.dst_host;
    b.wire_bytes = wireBytes(t);
    b.useful_bytes = usefulBytes(t);
    for (int p = 0; p < kProbePackets; ++p) {
      b.views.push_back(tenantPacket(
          rng, t, user, round * kProbePackets + static_cast<std::uint64_t>(p),
          0));
    }
    bursts.push_back(std::move(b));
  }
  return bursts;
}

// End of a submit workload: every probed tenant must be served on its path
// (no drop but a program verdict). The traced run measures the packet
// layers on the same probe traffic.
void probeGate(Ctx& ctx, std::uint64_t seed) {
  recordPlanShape(ctx);
  const int rounds = ctx.tracer != nullptr ? kProbeRounds : 1;
  for (int r = 0; r < rounds; ++r) {
    sendRound(ctx, probeBursts(ctx, seed, static_cast<std::uint64_t>(r)));
  }
  if (ctx.tracer != nullptr) {
    poolSpeedup(ctx, [&](int k) {
      return probeBursts(ctx, seed, static_cast<std::uint64_t>(rounds + k));
    });
  }
}

// Removes every tenant; the ledger must return to a fresh fabric's.
void teardownGate(Ctx& ctx) {
  std::vector<int> users;
  for (const auto& [user, dep] : ctx.svc->deployments()) {
    (void)dep;
    users.push_back(user);
  }
  for (int user : users) removeTenant(ctx, user);
  const place::OccupancyMap fresh(&ctx.svc->topology());
  if (occupancyDigest(ctx.svc->topology(), ctx.svc->occupancy()) !=
      occupancyDigest(ctx.svc->topology(), fresh)) {
    ctx.out->fail("teardown: occupancy ledger did not return to empty");
  }
}

// --- fabrics -----------------------------------------------------------------

scale::FatTree churnFabric() {
  scale::FatTreeParams p;
  p.k = 16;
  p.hosts_per_tor = 8;
  return scale::buildFatTree(p);
}

scale::FatTree nicFabric() {
  scale::FatTreeParams p;
  p.k = 8;
  p.hosts_per_tor = 4;
  p.host_nics = true;
  return scale::buildFatTree(p);
}

// Fig. 13 case 5: workers behind smartNICs, one shared Tofino, a server.
topo::Topology wideFabric() {
  topo::Topology t;
  topo::Node sw;
  sw.name = "sw0";
  sw.kind = topo::NodeKind::kSwitch;
  sw.layer = 1;
  sw.programmable = true;
  sw.model = device::makeTofino();
  const int swid = t.addNode(sw);
  for (int w = 0; w < kWideWorkers; ++w) {
    topo::Node h;
    h.name = cat("worker", w);
    h.kind = topo::NodeKind::kHost;
    h.pod = 0;
    const int hid = t.addNode(h);
    topo::Node nic;
    nic.name = cat("nic", w);
    nic.kind = topo::NodeKind::kNic;
    nic.pod = 0;
    nic.programmable = true;
    nic.model = device::makeNfp();
    const int nid = t.addNode(nic);
    t.addLink(hid, nid, 100.0, 600.0);
    t.addLink(nid, swid);
  }
  topo::Node server;
  server.name = "server";
  server.kind = topo::NodeKind::kHost;
  server.pod = 1;
  const int sid = t.addNode(server);
  t.addLink(swid, sid);
  return t;
}

// Digest of a service's state: deployments, per-device occupancy, tenants.
std::string stateDigest(core::ClickIncService& svc) {
  Digest d;
  d.add(svc.emulator().deploymentDigest());
  d.add(occupancyDigest(svc.topology(), svc.occupancy()));
  d.add(static_cast<std::uint64_t>(svc.deployments().size()));
  return d.hex();
}

// --- churn: steady-state submit/remove on the k=16 fat tree ------------------

struct Expiry {
  double at;  // step
  int user;
  bool operator>(const Expiry& o) const {
    return at != o.at ? at > o.at : user > o.user;
  }
};
using ExpiryQueue =
    std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>;

struct ChurnInputs {
  std::vector<Lived> prefill, steps;
};

ChurnInputs churnSchedule(const Options& opt, const scale::FatTree& ft) {
  return {churnTenants(kFixedSeed, Stream::kPrefill, ft, kChurnPrefill,
                       kChurnLife),
          churnTenants(opt.seed, Stream::kTenants, ft,
                       workFor(opt.seconds / opt.passes, kChurnPerS),
                       kChurnLife)};
}

std::uint64_t churnInputs(const Options& opt) {
  const auto in = churnSchedule(opt, churnFabric());
  Digest d;
  for (const auto* list : {&in.prefill, &in.steps}) {
    for (const auto& l : *list) {
      d.add(l.life);
      digestTenant(d, l.tenant);
    }
  }
  return d.value();
}

void runChurn(const Options& opt, Tracer* tracer, Outcome& out) {
  const auto ft = churnFabric();
  const auto in = churnSchedule(opt, ft);
  ExpiryQueue prefilled;
  const auto pop = placePopulation(
      ft.topo, opt.seed, true, tracer, out, [&](Ctx& ctx) {
        for (const auto& l : in.prefill) {
          const auto t = submitSync(ctx, l.tenant);
          if (t.r.ok) prefilled.push({l.life, t.r.user_id});
        }
      });
  durable::MemJournalSink sink;
  std::unique_ptr<core::ClickIncService> svc;
  Ctx ctx;
  for (int pass = 0; pass < opt.passes; ++pass) {
    out.setup_s.push_back(restorePopulation(
        svc, ctx, [] { return churnFabric().topo; }, opt.seed, true, tracer,
        out, pop, sink));
    svc->detachJournal();  // churn runs without a journal
    ExpiryQueue expiries = prefilled;

    ctx.timed = true;
    for (std::size_t i = 0; i < in.steps.size(); ++i) {
      const auto step = static_cast<double>(i);
      while (!expiries.empty() && expiries.top().at <= step) {
        const int user = expiries.top().user;
        expiries.pop();
        removeTenant(ctx, user);
      }
      const auto t = submitSync(ctx, in.steps[i].tenant);
      out.timeOp(t.ms);
      if (t.r.ok) expiries.push({step + in.steps[i].life, t.r.user_id});
      if (tracer != nullptr && (i + 1) % kAuditEvery == 0) {
        auditGate(ctx, "periodic");
      }
    }
    out.endPass(stateDigest(*svc));
  }
  out.peak_rss_mb = peakRssMb();
  readPlacementCounters(ctx);
  auditGate(ctx, "final");
  probeGate(ctx, opt.seed);
  teardownGate(ctx);
}

// --- fill: closed-loop synchronous submissions until the fabric refuses ------

TenantSpec fillSpec(std::uint64_t seed, const scale::FatTree& ft,
                    Stream stream, std::uint64_t index) {
  Rng rng = rngFor(seed, stream, index);
  return fillTenant(rng, ft, index);
}

long fillSubmits(const Options& opt) {
  return workFor(opt.seconds / opt.passes, kFillPerS);
}

std::uint64_t fillInputs(const Options& opt) {
  const auto ft = nicFabric();
  Digest d;
  for (int i = 0; i < kWarmupSubmits; ++i) {
    digestTenant(d, fillSpec(kFixedSeed, ft, Stream::kWarmup, i));
  }
  for (long i = 0; i < fillSubmits(opt); ++i) {
    digestTenant(d, fillSpec(opt.seed, ft, Stream::kFill,
                             static_cast<std::uint64_t>(i)));
  }
  return d.value();
}

void runFill(const Options& opt, Tracer* tracer, Outcome& out) {
  const auto ft = nicFabric();
  std::unique_ptr<core::ClickIncService> svc;
  Ctx ctx;
  for (int pass = 0; pass < opt.passes; ++pass) {
    dropService(svc);
    const auto t0 = Clock::now();
    freshService(svc, ctx, nicFabric().topo, opt.seed, tracer, out);
    for (int i = 0; i < kWarmupSubmits; ++i) {
      submitSync(ctx, fillSpec(kFixedSeed, ft, Stream::kWarmup, i));
    }
    teardownGate(ctx);
    out.setup_s.push_back(msSince(t0) / 1000.0);

    ctx.timed = true;
    durable::MemJournalSink journal;
    svc->attachJournal(&journal);
    long commits = 0;
    for (long i = 0; i < fillSubmits(opt); ++i) {
      const auto t = fillSpec(opt.seed, ft, Stream::kFill,
                              static_cast<std::uint64_t>(i));
      const auto r = submitSync(ctx, t);
      out.timeOp(r.ms);
      if (r.r.ok && ++commits % kCheckpointEvery == 0) {
        auto s = ctx.span("durable.checkpoint");
        svc->checkpoint();
      }
      if (pass == 0 && i + 1 == kDigestSubmits) out.digest = stateDigest(*svc);
    }
    out.endPass(stateDigest(*svc));
    if (pass + 1 == opt.passes) {
      out.peak_rss_mb = peakRssMb();
      readPlacementCounters(ctx);
      auditGate(ctx, "final");
      probeGate(ctx, opt.seed);
    }
    teardownGate(ctx);
    svc->detachJournal();
  }
}

// --- failover: kill/heal pairs against a placed tenant population ------------


// Elements of each fault class a pass fails, each once (a kill/heal pair).
std::size_t faultsPerClass(const Options& opt) {
  return static_cast<std::size_t>(std::max<long>(
      1, std::lround(static_cast<double>(workFor(opt.seconds / opt.passes,
                                                 kFailoverPairsPerS)) /
                     kFaultClasses)));
}

std::uint64_t failoverInputs(const Options& opt) {
  const auto ft = nicFabric();
  Digest d;
  for (int i = 0; i < kFailoverPrefill; ++i) {
    digestTenant(d, fillSpec(kFixedSeed, ft, Stream::kPrefill, i));
  }
  for (std::size_t c = 0; c < kFaultClasses; ++c) {
    for (std::size_t k : faultOrder(kFixedSeed, Stream::kFaults, c, 256)) {
      d.add(static_cast<std::uint64_t>(k));
    }
  }
  d.add(static_cast<std::uint64_t>(faultsPerClass(opt)));
  return d.value();
}

struct FaultTarget {
  bool link = false;
  int a = -1, b = -1;
};

// A pass's failures: `per_class` elements that carry claims from each
// fault class (ToR, Agg and core switches, ToR-Agg and Agg-core links),
// drawn from kFixedSeed, with the classes in rotation.
std::vector<FaultTarget> faultSchedule(const core::ClickIncService& svc,
                                       std::size_t per_class) {
  const auto& topo = svc.topology();
  std::set<int> claimed;
  for (const auto& [user, dep] : svc.deployments()) {
    (void)user;
    const auto devs = planDevices(dep.plan);
    claimed.insert(devs.begin(), devs.end());
  }
  auto tier = [&](int n) {  // 1 ToR, 2 Agg, 3 core; 0 for anything else
    return topo.node(n).kind == topo::NodeKind::kSwitch ? topo.node(n).layer
                                                         : 0;
  };
  std::vector<std::vector<FaultTarget>> by_class(kFaultClasses);
  for (const auto& n : topo.nodes()) {
    if (tier(n.id) > 0 && claimed.count(n.id) > 0) {
      by_class[static_cast<std::size_t>(tier(n.id) - 1)].push_back(
          {false, n.id, -1});
    }
  }
  for (const auto& l : topo.links()) {
    const int lo = std::min(tier(l.a), tier(l.b));
    if (lo > 0 && std::max(tier(l.a), tier(l.b)) == lo + 1 &&
        claimed.count(l.a) + claimed.count(l.b) > 0) {
      by_class[static_cast<std::size_t>(lo == 1 ? FaultClass::kTorAggLink
                                                : FaultClass::kAggCoreLink)]
          .push_back({true, l.a, l.b});
    }
  }
  std::vector<std::vector<FaultTarget>> order(kFaultClasses);
  for (std::size_t c = 0; c < kFaultClasses; ++c) {
    const auto& cls = by_class[c];
    for (std::size_t i :
         faultOrder(kFixedSeed, Stream::kFaults, c, cls.size())) {
      if (order[c].size() == per_class) break;
      order[c].push_back(cls[i]);
    }
  }
  std::vector<FaultTarget> schedule;
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (const auto& cls : order) {
      if (k < cls.size()) {
        schedule.push_back(cls[k]);
        any = true;
      }
    }
    if (!any) return schedule;
  }
}

void runFailover(const Options& opt, Tracer* tracer, Outcome& out) {
  const auto ft = nicFabric();
  durable::MemJournalSink journal;
  std::unique_ptr<core::ClickIncService> svc;
  Ctx ctx;

  // One kill/heal pair; each transition is one timed operation.
  auto pair = [&](const FaultTarget& t) {
    for (const bool kill : {true, false}) {
      core::FailoverReport rep;
      const auto t0 = Clock::now();
      {
        auto s = ctx.span("core.failover");
        if (t.link) {
          rep = kill ? svc->failLink(t.a, t.b) : svc->healLink(t.a, t.b);
        } else {
          rep = kill ? svc->failNode(t.a) : svc->healNode(t.a);
        }
      }
      out.timeOp(msSince(t0));
      if (!rep.verify.ok()) out.fail("failover audit: " + rep.verify.summary());
      ++out.attempted;
      ++out.fo_events;
      out.fo_tenants += static_cast<long>(rep.tenants.size());
      for (const auto& tr : rep.tenants) {
        if (failureClass(tr.error.code)) {
          ++out.failed;
          out.fail("failover: " + tr.error.message());
        }
        if (tr.outcome == core::RecoveryOutcome::kPinned ||
            tr.outcome == core::RecoveryOutcome::kReplaced) {
          ++out.fo_kept;
        }
        out.seg_pinned += tr.segments_pinned;
        out.seg_replaced += tr.segments_replaced;
      }
    }
  };

  // The population's placements count towards admit_ratio. Which tenants
  // a failure leaves in the network depends on the elements failed, so
  // that share is a per-layer metric.
  const auto pop = placePopulation(
      ft.topo, opt.seed, false, tracer, out, [&](Ctx& pc) {
        pc.timed = true;
        for (int i = 0; i < kFailoverPrefill; ++i) {
          submitSync(pc, fillSpec(kFixedSeed, ft, Stream::kPrefill, i));
        }
      });
  for (int pass = 0; pass < opt.passes; ++pass) {
    // The restored journal stays attached: the failovers are journaled.
    out.setup_s.push_back(restorePopulation(
        svc, ctx, [] { return nicFabric().topo; }, opt.seed, false, tracer,
        out, pop, journal));
    const auto schedule = faultSchedule(*svc, faultsPerClass(opt));
    if (schedule.empty()) {
      out.fail("failover: no element carries claims");
      return;
    }
    for (const auto& t : schedule) pair(t);
    out.endPass(stateDigest(*svc));
  }
  out.peak_rss_mb = peakRssMb();
  readPlacementCounters(ctx);
  auditGate(ctx, "final");
  probeGate(ctx, opt.seed);
  teardownGate(ctx);
  svc->detachJournal();
}

// --- packet workloads --------------------------------------------------------

bool samePacket(const emu::PacketResult& a, const emu::PacketResult& b) {
  return a.view.fields == b.view.fields && a.view.params == b.view.params &&
         a.view.verdict == b.view.verdict &&
         a.view.mirrored == b.view.mirrored &&
         a.view.cpu_copied == b.view.cpu_copied &&
         a.delivered == b.delivered && a.dropped == b.dropped &&
         a.bounced == b.bounced && a.drop_reason == b.drop_reason &&
         a.final_node == b.final_node && a.latency_ns == b.latency_ns &&
         a.inc_latency_ns == b.inc_latency_ns &&
         a.wire_bytes_out == b.wire_bytes_out && a.hops == b.hops;
}

// NetCache-style control plane: installs the hottest keys (zipf ranks
// 0..kKvsInstalled-1) into every cache copy of a deployed KVS tenant.
void installHotKeys(core::ClickIncService& svc, int user,
                    const TenantSpec& t) {
  const auto& prog = *svc.deployments().at(user).prog;
  const std::string cache_name = prog.name + "_cache";
  std::set<int> devices;
  for (const auto& a : svc.deployments().at(user).plan.assignments) {
    auto scan = [&](int dev, const place::IntraPlacement& p) {
      for (int i : p.instr_idxs) {
        const auto& ins = prog.instrs[static_cast<std::size_t>(i)];
        if (ins.state_id >= 0 &&
            prog.states[static_cast<std::size_t>(ins.state_id)].name ==
                cache_name) {
          devices.insert(dev);
        }
      }
    };
    for (const auto& [dev, p] : a.on_device) scan(dev, p);
    for (const auto& [dev, p] : a.on_bypass) scan(dev, p);
  }
  auto stateOn = [&](ir::StateStore& store, const std::string& name) {
    ir::StateInstance* s = store.find(name);
    if (s == nullptr) {
      const auto* spec = prog.findState(name);
      if (spec != nullptr) s = &store.instantiate(*spec);
    }
    return s;
  };
  for (int dev : devices) {
    auto& store = svc.emulator().storeOf(dev);
    auto* cache = stateOn(store, cache_name);
    if (cache == nullptr) continue;
    for (std::uint64_t key = 0; key < kKvsInstalled; ++key) {
      cache->insert(key, key);
      for (std::uint64_t d = 0; d < t.params.at("ValDim"); ++d) {
        auto* vals = stateOn(store, cat(prog.name, "_vals_t_r", d));
        if (vals != nullptr) vals->regWrite(key, key * 10 + d);
      }
    }
  }
}

struct PacketWorkload {
  std::vector<TenantSpec> tenants;
  // Round r's bursts for tenants deployed as users 1..n, in order.
  std::function<std::vector<emu::Burst>(std::uint64_t)> round;
  std::function<topo::Topology()> fabric;
  double rounds_per_s = 0;  // timed rounds per second of --seconds
};

// pkt_narrow: 16 tenants (8 KVS, 8 DQAcc) on device-disjoint intra-rack
// paths of the k=8 NIC-tier tree; a round is 16 bursts x 8 packets.
PacketWorkload narrowWorkload(std::uint64_t seed) {
  PacketWorkload w;
  const auto ft = nicFabric();
  const int hpt = ft.params.hosts_per_tor;
  for (int t = 0; t < kNarrowTenants; ++t) {
    const int tor = 2 * t;  // every other ToR: no two tenants share a device
    const auto& pod =
        ft.pods[static_cast<std::size_t>(tor / (ft.params.k / 2))];
    const int i = tor % (ft.params.k / 2);
    Rng rng = rngFor(seed, Stream::kTenants, static_cast<std::uint64_t>(t));
    const auto src = rng.nextBelow(static_cast<std::uint64_t>(hpt));
    const auto dst = (src + 1 + rng.nextBelow(static_cast<std::uint64_t>(
                                    hpt - 1))) %
                     static_cast<std::uint64_t>(hpt);
    TenantSpec spec;
    spec.traffic.sources.push_back(
        {pod.hosts[static_cast<std::size_t>(i * hpt) + src], 10.0});
    spec.traffic.dst_host = pod.hosts[static_cast<std::size_t>(i * hpt) + dst];
    if (t < kNarrowTenants / 2) {
      spec.app = App::kKvs;
      spec.params = {{"CacheSize", 1024}, {"ValDim", 4}, {"TH", 64}};
    } else {
      spec.app = App::kDqacc;
      spec.params = {{"CacheDepth", 1024}, {"CacheLen", 4}};
    }
    w.tenants.push_back(std::move(spec));
  }
  w.round = [seed, tenants = w.tenants](std::uint64_t r) {
    Rng rng = rngFor(seed, Stream::kPackets, r);
    std::vector<emu::Burst> bursts;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const auto& spec = tenants[t];
      emu::Burst b;
      b.src = spec.traffic.sources.front().host;
      b.dst = spec.traffic.dst_host;
      b.wire_bytes = wireBytes(spec);
      b.useful_bytes = usefulBytes(spec);
      for (int p = 0; p < kNarrowPackets; ++p) {
        b.views.push_back(tenantPacket(
            rng, spec, static_cast<int>(t) + 1,
            r * kNarrowPackets + static_cast<std::uint64_t>(p), 0));
      }
      bursts.push_back(std::move(b));
    }
    return bursts;
  };
  w.fabric = [] { return nicFabric().topo; };
  w.rounds_per_s = kNarrowRoundsPerS;
  return w;
}

// pkt_wide: the Fig. 7 sparse-MLAgg program for 8 workers on the Fig. 13
// case-5 wiring; a round is 8 converging bursts x 64 packets. Dim is 16:
// the Dim 32 program does not fit one Tofino and is refused.
PacketWorkload wideWorkload(std::uint64_t seed) {
  PacketWorkload w;
  const auto topo = wideFabric();
  TenantSpec spec;
  spec.app = App::kSparseMlagg;
  for (int k = 0; k < kWideWorkers; ++k) {
    spec.traffic.sources.push_back({topo.findNode(cat("worker", k)), 10.0});
  }
  spec.traffic.dst_host = topo.findNode("server");
  spec.params = {{"BlockNum", kWideDim / 4}, {"BlockSize", 4},
                 {"NumAgg", 1024},           {"Dim", kWideDim},
                 {"NumWorker", kWideWorkers}, {"IsConvert", 0},
                 {"Scale", 1},               {"DATA", 1},
                 {"ACK", 2},                 {"CheckOverflow", 1}};
  w.tenants.push_back(spec);
  w.round = [seed, spec](std::uint64_t r) {
    Rng rng = rngFor(seed, Stream::kPackets, r);
    std::vector<emu::Burst> bursts;
    for (int k = 0; k < kWideWorkers; ++k) {
      emu::Burst b;
      b.src = spec.traffic.sources[static_cast<std::size_t>(k)].host;
      b.dst = spec.traffic.dst_host;
      b.wire_bytes = wireBytes(spec);
      b.useful_bytes = usefulBytes(spec);
      for (int p = 0; p < kWidePackets; ++p) {
        b.views.push_back(tenantPacket(
            rng, spec, 1, r * kWidePackets + static_cast<std::uint64_t>(p),
            k));
      }
      bursts.push_back(std::move(b));
    }
    return bursts;
  };
  w.fabric = [] { return wideFabric(); };
  w.rounds_per_s = kWideRoundsPerS;
  return w;
}

PacketWorkload packetWorkload(const Options& opt) {
  return opt.workload == "pkt_wide" ? wideWorkload(opt.seed)
                                    : narrowWorkload(opt.seed);
}

std::uint64_t packetInputs(const Options& opt) {
  const auto w = packetWorkload(opt);
  Digest d;
  for (const auto& t : w.tenants) digestTenant(d, t);
  for (int r = 0; r < kCompareRounds; ++r) {
    digestBursts(d, w.round(static_cast<std::uint64_t>(r)));
  }
  return d.value();
}

void deployPackets(Ctx& ctx, const PacketWorkload& w) {
  for (const auto& t : w.tenants) {
    const auto r = submitSync(ctx, t);
    if (!r.r.ok) ctx.out->fail("packet tenant refused: " + r.r.error.message());
  }
}

// The emulator's state is not journaled: a restored KVS cache starts empty.
void installAllHotKeys(Ctx& ctx) {
  for (const auto& [user, t] : ctx.live) {
    if (t.app == App::kKvs) installHotKeys(*ctx.svc, user, t);
  }
}

// The packet path's correctness gate: a service under test, restored like
// every pass's, and a reference twin on the independent ir::Interpreter
// (sequential), deployed by submission, must agree packet by packet on the
// first kCompareRounds rounds, the rounds every set-up starts with. It
// runs after the timed phase and after peak_rss_mb is read, so the twin
// weighs on no end-to-end metric.
void referenceGate(const PacketWorkload& w, std::uint64_t seed,
                   const Population& pop, Outcome& out) {
  Outcome gate;
  durable::MemJournalSink sink;
  std::unique_ptr<core::ClickIncService> svc;
  Ctx ctx;
  restorePopulation(svc, ctx, w.fabric, seed, false, nullptr, gate, pop,
                    sink);
  installAllHotKeys(ctx);
  core::ClickIncService ref(w.fabric(), seed);
  ref.emulator().setReferenceInterpreter(true);
  Ctx rc;
  rc.svc = &ref;
  rc.out = &gate;
  deployPackets(rc, w);
  installAllHotKeys(rc);
  for (const auto& e : gate.errors) out.fail("reference gate: " + e);
  for (int r = 0; r < kCompareRounds; ++r) {
    auto bursts = w.round(static_cast<std::uint64_t>(r));
    const auto got = svc->emulator().sendBursts(bursts);
    const auto want = ref.emulator().sendBursts(std::move(bursts));
    bool same = got.size() == want.size();
    for (std::size_t b = 0; same && b < got.size(); ++b) {
      same = got[b].size() == want[b].size();
      for (std::size_t p = 0; same && p < got[b].size(); ++p) {
        same = samePacket(got[b][p], want[b][p]);
      }
    }
    if (!same) {
      out.fail(cat("round ", r, " differs from the reference interpreter"));
    }
  }
}

void runPackets(const Options& opt, Tracer* tracer, Outcome& out) {
  const auto w = packetWorkload(opt);
  const std::uint64_t end =
      kWarmupRounds +
      static_cast<std::uint64_t>(workFor(opt.seconds / opt.passes,
                                         w.rounds_per_s));
  const auto pop = placePopulation(
      w.fabric(), opt.seed, false, tracer, out,
      [&](Ctx& pc) { deployPackets(pc, w); });
  durable::MemJournalSink sink;
  std::unique_ptr<core::ClickIncService> svc;
  Ctx ctx;
  for (int pass = 0; pass < opt.passes; ++pass) {
    const auto t0 = Clock::now();
    restorePopulation(svc, ctx, w.fabric, opt.seed, false, tracer, out, pop,
                      sink);
    installAllHotKeys(ctx);
    for (int r = 0; r < kWarmupRounds; ++r) {
      svc->emulator().sendBursts(w.round(static_cast<std::uint64_t>(r)));
    }
    out.setup_s.push_back(msSince(t0) / 1000.0);

    // Each round is generated just before it is sent, outside the timing,
    // so every round follows the same work: a round sent right after a
    // batch of rounds was generated runs 1.3-1.5x slower, and on pkt_wide
    // one such round in 16 sat at latency_p95_ms's rank and spread it
    // 0.195 over 10 seeds.
    ctx.timed = true;
    for (std::uint64_t r = kWarmupRounds; r < end; ++r) {
      auto bursts = w.round(r);
      const long n = burstPackets(bursts);
      out.timeOp(sendRound(ctx, std::move(bursts)), static_cast<double>(n));
      out.attempted += n;
    }
    out.endPass(out.results.hex());
  }
  out.peak_rss_mb = peakRssMb();
  out.decided = out.packets;
  out.admitted = out.packets - out.failed;
  recordPlanShape(ctx);
  readPlacementCounters(ctx);
  if (tracer != nullptr) {
    poolSpeedup(ctx, [&](int k) {
      return w.round(end + static_cast<std::uint64_t>(k));
    });
  }
  auditGate(ctx, "final");
  teardownGate(ctx);
  svc.reset();
  referenceGate(w, opt.seed, pop, out);
}

// --- command line ------------------------------------------------------------

using Runner = void (*)(const Options&, Tracer*, Outcome&);
using InputsDigest = std::uint64_t (*)(const Options&);

struct Workload {
  const char* name;
  Runner run;
  InputsDigest inputs;
  int passes;
};

const Workload kWorkloads[] = {
    {"churn", runChurn, churnInputs, kChurnPasses},
    {"fill", runFill, fillInputs, kFillPasses},
    {"failover", runFailover, failoverInputs, kFailoverPasses},
    {"pkt_narrow", runPackets, packetInputs, kPasses},
    {"pkt_wide", runPackets, packetInputs, kPasses},
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return ratio(sum(v), static_cast<double>(v.size()));
}

// Latencies and throughput are over the operations' best times. throughput
// is operations (packets on pkt_*) per second of operation time, which on
// a closed loop is also 1 / mean latency.
std::vector<Metric> endToEnd(const Outcome& o) {
  return {
      {"setup_s", "s", percentile(o.setup_s, 0.5)},
      {"latency_p50_ms", "ms", percentile(o.op_ms, 0.5)},
      {"latency_p95_ms", "ms", percentile(o.op_ms, 0.95)},
      {"throughput", "1/s", ratio(sum(o.op_items), sum(o.op_ms) / 1000.0)},
      {"admit_ratio", "ratio",
       ratio(static_cast<double>(o.admitted), static_cast<double>(o.decided))},
      {"peak_rss_mb", "MB", o.peak_rss_mb},
  };
}

std::vector<Metric> perLayer(const Outcome& plain,
                             const Outcome& traced, const Tracer& tr) {
  // Layer times are per-call means of self time, so that the four compile
  // layers plus core.commit add up to core.submit; medians do not add up.
  auto self = [&](const char* name) { return mean(tr.selfTimesOf(name)); };
  // core.commit: per request, the submit span minus the replayed compile
  // layers — the commit stage (lock, validate, claim, synthesize, deploy,
  // verify gate, journal) that only runs inside the service.
  std::map<long, double> commit;
  std::set<long> submitted;
  for (const auto& s : tr.spans()) {
    const std::string_view n = s.name;
    const double ms = Tracer::durationMs(s);
    if (n == "core.submit") {
      commit[s.request] += ms;
      submitted.insert(s.request);
    } else if (n == "lang.frontend" || n == "place.blockdag" ||
               n == "topo.ectree" || n == "place.dp") {
      commit[s.request] -= ms;
    }
  }
  std::vector<double> commit_ms;
  for (long req : submitted) commit_ms.push_back(commit[req]);
  const PacketLayers& pl = traced.layers;
  return {
      {"lang.frontend_ms", "ms", self("lang.frontend")},
      {"place.blockdag_ms", "ms", self("place.blockdag")},
      {"topo.ectree_ms", "ms", self("topo.ectree")},
      {"place.dp_ms", "ms", self("place.dp")},
      {"core.submit_ms", "ms", self("core.submit")},
      {"core.commit_ms", "ms", mean(commit_ms)},
      {"core.remove_ms", "ms", self("core.remove")},
      {"verify.audit_ms", "ms", self("verify.audit")},
      {"durable.append_ms", "ms", self("durable.append")},
      {"durable.bytes_per_commit", "B",
       ratio(traced.journal_bytes,
             static_cast<double>(traced.journal_records))},
      {"place.dp_steps", "count",
       ratio(plain.dp_steps, static_cast<double>(plain.placed))},
      {"place.memo_hit_ratio", "ratio", plain.memo_hit},
      {"place.segcache_hit_ratio", "ratio", plain.segcache_hit},
      {"core.replace_ratio", "ratio",
       ratio(static_cast<double>(plain.recompiled),
             static_cast<double>(plain.submits))},
      {"core.failover_tenants", "count",
       ratio(static_cast<double>(plain.fo_tenants),
             static_cast<double>(plain.fo_events))},
      {"core.failover_kept_ratio", "ratio",
       ratio(static_cast<double>(plain.fo_kept),
             static_cast<double>(plain.fo_tenants))},
      {"core.failover_pinned_ratio", "ratio",
       ratio(static_cast<double>(plain.seg_pinned),
             static_cast<double>(plain.seg_pinned + plain.seg_replaced))},
      {"ir.plancache_hit_ratio", "ratio", plain.plancache_hit},
      {"emu.round_ms", "ms", self("emu.round")},
      {"ir.exec_pps", "1/s",
       ratio(static_cast<double>(pl.exec_packets), pl.exec_ms / 1000.0)},
      {"emu.exec_share", "ratio", ratio(pl.exec_ms, pl.round_ms)},
      {"ir.slots_per_plan", "count", plain.slots_per_plan},
      {"ir.fused_ratio", "ratio", plain.fused_ratio},
      {"ir.executed_per_pkt", "count",
       ratio(static_cast<double>(pl.executed),
             static_cast<double>(pl.exec_packets))},
      {"emu.hops_per_pkt", "count",
       ratio(static_cast<double>(plain.hops),
             static_cast<double>(plain.packets))},
      {"emu.program_drop_ratio", "ratio",
       ratio(static_cast<double>(plain.program_drops),
             static_cast<double>(plain.packets))},
      {"emu.pool_speedup", "ratio", ratio(pl.seq_ms, pl.pool_ms)},
  };
}

void printMetrics(const char* label, const std::vector<Metric>& metrics) {
  std::printf("%s\n", label);
  for (const auto& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void printErrors(const char* label, const Outcome& o) {
  for (const auto& e : o.errors) {
    std::printf("%s error: %s\n", label, e.c_str());
  }
}

// Check that a flag's value follows it on the command line.
const char* valueOf(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "bench_suite: %s needs a value\n", argv[*i]);
    std::exit(2);
  }
  return argv[++*i];
}

int suiteMain(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      opt.workload = valueOf(argc, argv, &i);
    } else if (a == "--seed") {
      opt.seed = std::strtoull(valueOf(argc, argv, &i), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(valueOf(argc, argv, &i), nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(valueOf(argc, argv, &i)) == "1";
    } else if (a == "--trace-file") {
      opt.trace_file = valueOf(argc, argv, &i);
    } else if (a == "--passes") {
      opt.passes = std::atoi(valueOf(argc, argv, &i));
    } else if (a == "--expect-digest") {
      opt.expect_digest = valueOf(argc, argv, &i);
    } else if (a == "--selfcheck") {
      opt.selfcheck = true;
    } else {
      std::fprintf(stderr, "bench_suite: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w != nullptr && opt.passes == 0) opt.passes = w->passes;
  if (w == nullptr || !(opt.seconds > 0) || opt.passes < 1) {
    std::fprintf(stderr, "bench_suite: need --workload");
    for (const auto& cand : kWorkloads) {
      std::fprintf(stderr, "%c%s", &cand == kWorkloads ? ' ' : '|',
                   cand.name);
    }
    std::fprintf(stderr, ", --seconds > 0, --passes >= 1\n");
    return 2;
  }

  const std::uint64_t inputs = w->inputs(opt);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("inputs_digest=%016llx\n",
              static_cast<unsigned long long>(inputs));
  if (opt.selfcheck) {
    const std::uint64_t again = w->inputs(opt);
    const bool same = again == inputs;
    std::printf("selfcheck: inputs generated twice %s (%016llx)\n",
                same ? "match" : "DIFFER",
                static_cast<unsigned long long>(again));
    return same ? 0 : 1;
  }

  // fill's state after its first submissions is a pure function of the seed.
  auto checkDigest = [&](Outcome& out) {
    if (out.digest.empty()) {
      if (!opt.expect_digest.empty()) {
        out.fail("the run ended before the state digest was taken");
      }
      return;
    }
    std::printf("state_digest=%s\n", out.digest.c_str());
    if (!opt.expect_digest.empty() && out.digest != opt.expect_digest) {
      out.fail(cat("state digest ", out.digest, " != expected ",
                   opt.expect_digest));
    }
  };
  try {
    if (!opt.trace) {
      Outcome out;
      w->run(opt, nullptr, out);
      checkDigest(out);
      const auto metrics = endToEnd(out);
      printMetrics("end-to-end (untraced):", metrics);
      printErrors("untraced", out);
      printResult(out.clean(), out.attempted, out.failed, metrics);
      return out.clean() ? 0 : 1;
    }
    // One untraced pass supplies the counts, and one traced pass of the
    // same operations the times: the layers need no more samples.
    Options pass = opt;
    pass.seconds = opt.seconds / opt.passes;
    pass.passes = 1;
    Outcome plain;
    w->run(pass, nullptr, plain);
    Tracer tr;
    Outcome traced;
    w->run(pass, &tr, traced);
    checkDigest(plain);
    checkDigest(traced);
    printMetrics("end-to-end (traced, never compared):", endToEnd(traced));
    std::printf("%s", tr.summary().c_str());
    if (!opt.trace_file.empty() && !tr.writeJsonLines(opt.trace_file)) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n",
                   opt.trace_file.c_str());
    }
    const auto metrics = perLayer(plain, traced, tr);
    printMetrics("per-layer:", metrics);
    printErrors("untraced", plain);
    printErrors("traced", traced);
    const bool clean = plain.clean() && traced.clean();
    printResult(clean, plain.attempted, plain.failed + traced.failed, metrics);
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("bench_suite: %s\n", e.what());
    return 1;
  }
}

}  // namespace
}  // namespace clickinc::suite

int main(int argc, char** argv) {
  return clickinc::suite::suiteMain(argc, argv);
}
