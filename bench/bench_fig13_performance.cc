// Fig. 13 — Application performance of sparse gradient aggregation under
// five device configurations: (1) no programmable device (DPDK server
// only), (2) smartNICs only (sparse compression), (3) one Tofino switch
// (aggregation), (4) two Tofino switches (larger parameter vectors),
// (5) smartNIC + switch (compression + aggregation).
//
// Absolute numbers are emulated (DESIGN.md substitution); the claim under
// test is the *ordering* and approximate factors of Fig. 13(a)/(b).
//
// The second half measures the emulator's execution substrate itself:
// packets/sec of the reference switch interpreter vs the precompiled
// ExecPlan (single-packet and batched) on the Fig. 13 application
// programs. Results are written to BENCH_fig13.json (schema:
// docs/benchmarks.md). Set CLICKINC_BENCH_SMOKE=1 for a fast CI run that
// keeps the JSON schema exercised.
#include <chrono>
#include <cstdlib>

#include "apps/workloads.h"
#include "bench_util.h"
#include "core/service.h"
#include "ir/exec_plan.h"
#include "modules/templates.h"
#include "topo/topology.h"
#include "util/thread_pool.h"

namespace clickinc {
namespace {

using topo::Node;
using topo::NodeKind;
using topo::Topology;

// workers --[NIC?]-- switch chain --- server. With workers_split, workers
// are spread evenly over the chain's switches (the paper's case-4 testbed
// wiring: two interconnected switches, each fronting half the NICs).
Topology configTopology(int workers, bool smartnic, int switches,
                        bool programmable_switch, bool workers_split) {
  Topology t;
  std::vector<int> sw;
  for (int i = 0; i < switches; ++i) {
    Node s;
    s.name = cat("sw", i);
    s.kind = NodeKind::kSwitch;
    s.layer = 1;
    s.programmable = programmable_switch;
    s.model = device::makeTofino();
    sw.push_back(t.addNode(s));
    if (i > 0) t.addLink(sw[static_cast<std::size_t>(i) - 1], sw.back());
  }
  for (int w = 0; w < workers; ++w) {
    const int attach = workers_split
                           ? sw[static_cast<std::size_t>(
                                 w / (workers / switches))]
                           : sw.front();
    Node h;
    h.name = cat("worker", w);
    h.kind = NodeKind::kHost;
    h.pod = workers_split ? w / (workers / switches) : 0;
    const int hid = t.addNode(h);
    if (smartnic) {
      Node nic;
      nic.name = cat("nic", w);
      nic.kind = NodeKind::kNic;
      nic.pod = 0;
      nic.programmable = true;
      nic.model = device::makeNfp();
      const int nid = t.addNode(nic);
      t.addLink(hid, nid, 100.0, 600.0);
      t.addLink(nid, attach);
    } else {
      t.addLink(hid, attach);
    }
  }
  Node server;
  server.name = "server";
  server.kind = NodeKind::kHost;
  server.pod = 1;
  const int sid = t.addNode(server);
  t.addLink(sw.back(), sid);
  return t;
}

struct ConfigRun {
  const char* label;
  bool smartnic;
  int switches;
  bool prog_switch;
  bool use_sparse;
  bool use_mlagg;
  int dim;
  int groups;          // hierarchical aggregation subgroups
  bool workers_split;  // workers spread over the switch chain
};

struct ConfigResult {
  std::string label;
  bool deployed = false;
  std::string failure;
  double goodput_gbps = 0;
  double inc_latency_ns = 0;
  std::uint64_t inc_aggregated = 0;
  std::uint64_t rounds_done = 0;
  double server_link_mb = 0;
};

// --- interpreter fast-path microbench (packets/sec) ---

struct InterpResult {
  std::string name;
  std::size_t instrs = 0;
  std::size_t packets = 0;
  double median_reference_pps = 0;
  double median_plan_pps = 0;
  double median_batch_pps = 0;
  double speedup_plan = 0;   // plan (per-packet) vs reference
  double speedup_batch = 0;  // runBatch vs reference
  bool equivalent = false;   // spot-check: plan output == reference output
};

std::vector<ir::PacketView> makePackets(const ir::IrProgram& prog,
                                        std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ir::PacketView> pkts;
  pkts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ir::PacketView pkt;
    pkt.user_id = 1;
    for (const auto& f : prog.fields) {
      pkt.setField(f.name, rng.nextBelow(1u << 16));
    }
    pkts.push_back(std::move(pkt));
  }
  return pkts;
}

// --- emulator execution fast path (end-to-end packets/sec) ---
//
// The seed emulator re-copied every deployed instruction segment (operand
// strings included) and re-decoded it per packet; that code is retained
// verbatim as the reference path (setReferenceInterpreter). This measures
// what the fast path buys end to end: deploy the program on one emulated
// Tofino and push packets through Emulator::send / sendBurst.
struct EmuPathResult {
  std::string name;
  std::size_t instrs = 0;
  std::size_t fused_pairs = 0;   // superinstruction pairs in the plan
  std::size_t packets = 0;
  double median_reference_pps = 0;  // reference interpreter, send()
  double median_compiled_pps = 0;   // unfused plans, send() (PR 2 path)
  double median_fused_pps = 0;      // fused plans, send()
  double median_burst_pps = 0;      // unfused plans, sendBurst() (PR 2)
  double median_burst_fused_pps = 0;  // fused plans, sendBurst()
  double speedup_compiled = 0;
  double speedup_burst = 0;
  double speedup_fusion = 0;  // fused burst vs unfused burst (PR 2 best)
};

EmuPathResult measureEmuPath(const std::string& name,
                             const ir::IrProgram& prog,
                             std::size_t npackets, int reps) {
  EmuPathResult r;
  r.name = name;
  r.instrs = prog.instrs.size();
  r.fused_pairs = ir::ExecPlan::compile(prog, {.fuse = true}).fusedPairs();
  r.packets = npackets;

  auto topo = topo::Topology::chain({device::makeTofino()});
  const int client = topo.findNode("client");
  const int server = topo.findNode("server");
  const int dev = topo.findNode("d0");
  auto shared = std::make_shared<ir::IrProgram>(prog);
  std::vector<int> idxs(prog.instrs.size());
  for (std::size_t i = 0; i < idxs.size(); ++i) idxs[i] = static_cast<int>(i);

  const auto base = makePackets(prog, npackets, 0xE13);

  // reference = retained seed path; the fuse knob sweeps the
  // superinstruction peephole on the compiled plans.
  auto timeMode = [&](bool reference, bool fuse, bool burst) {
    emu::Emulator emu(&topo, 7);
    emu.setOptions({.fuse_plans = fuse});
    emu.setReferenceInterpreter(reference);
    emu::DeploymentEntry entry;
    entry.user_id = 1;
    entry.prog = shared;
    entry.instr_idxs = idxs;
    entry.step_from = 0;
    entry.step_to = 1;
    emu.deploy(dev, entry);
    auto views = base;
    const auto t0 = std::chrono::steady_clock::now();
    if (burst) {
      // Bounded bursts (a switch drains its rx queue), so the in-flight
      // set stays cache-resident.
      constexpr std::size_t kBurst = 256;
      for (std::size_t at = 0; at < views.size(); at += kBurst) {
        const std::size_t n = std::min(kBurst, views.size() - at);
        std::vector<ir::PacketView> one(
            std::make_move_iterator(views.begin() +
                                    static_cast<std::ptrdiff_t>(at)),
            std::make_move_iterator(views.begin() +
                                    static_cast<std::ptrdiff_t>(at + n)));
        emu.sendBurst(client, server, std::move(one), 100, 100);
      }
    } else {
      for (auto& view : views) {
        emu.send(client, server, std::move(view), 100, 100);
      }
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return s > 0 ? static_cast<double>(npackets) / s : 0.0;
  };

  std::vector<double> ref_pps, compiled_pps, fused_pps, burst_pps,
      burst_fused_pps;
  for (int rep = 0; rep < reps; ++rep) {
    ref_pps.push_back(timeMode(true, false, false));
    compiled_pps.push_back(timeMode(false, false, false));
    fused_pps.push_back(timeMode(false, true, false));
    burst_pps.push_back(timeMode(false, false, true));
    burst_fused_pps.push_back(timeMode(false, true, true));
  }
  r.median_reference_pps = bench::medianOf(ref_pps);
  r.median_compiled_pps = bench::medianOf(compiled_pps);
  r.median_fused_pps = bench::medianOf(fused_pps);
  r.median_burst_pps = bench::medianOf(burst_pps);
  r.median_burst_fused_pps = bench::medianOf(burst_fused_pps);
  r.speedup_compiled = r.median_reference_pps > 0
                           ? r.median_compiled_pps / r.median_reference_pps
                           : 0;
  r.speedup_burst = r.median_reference_pps > 0
                        ? r.median_burst_pps / r.median_reference_pps
                        : 0;
  r.speedup_fusion = r.median_burst_pps > 0
                         ? r.median_burst_fused_pps / r.median_burst_pps
                         : 0;
  return r;
}

bool samePacket(const ir::PacketView& a, const ir::PacketView& b) {
  return a.params == b.params && a.fields == b.fields &&
         a.verdict == b.verdict && a.mirrored == b.mirrored &&
         a.cpu_copied == b.cpu_copied;
}

// --- parallel emulation: device-disjoint flows over a worker pool ---
//
// The multi-tenant regime sendBursts() parallelizes: k flows, each on its
// own client-device-server chain, each device running the deployed
// program against its own state store. Aggregate packets/sec across the
// whole fleet, per pool size; results are bit-identical across thread
// counts (asserted in tests/test_parallel.cc, spot-checked here).
struct ParEmuResult {
  std::string name;
  int flows = 0;
  std::size_t packets_per_flow = 0;
  double median_1t_pps = 0;
  double median_2t_pps = 0;
  double median_4t_pps = 0;
  double speedup_2t = 0;
  double speedup_4t = 0;
  bool identical = false;  // 4-thread results == sequential results
};

topo::Topology disjointChains(int k) {
  topo::Topology t;
  for (int i = 0; i < k; ++i) {
    Node c;
    c.name = cat("client", i);
    c.kind = NodeKind::kHost;
    const int cid = t.addNode(c);
    Node d;
    d.name = cat("dev", i);
    d.kind = NodeKind::kSwitch;
    d.programmable = true;
    d.model = device::makeTofino();
    const int did = t.addNode(d);
    Node s;
    s.name = cat("server", i);
    s.kind = NodeKind::kHost;
    const int sid = t.addNode(s);
    t.addLink(cid, did);
    t.addLink(did, sid);
  }
  return t;
}

ParEmuResult measureParallelEmu(const std::string& name,
                                const ir::IrProgram& prog, int flows,
                                std::size_t packets_per_flow, int reps) {
  ParEmuResult r;
  r.name = name;
  r.flows = flows;
  r.packets_per_flow = packets_per_flow;

  const auto topo = disjointChains(flows);
  auto shared = std::make_shared<ir::IrProgram>(prog);
  std::vector<int> idxs(prog.instrs.size());
  for (std::size_t i = 0; i < idxs.size(); ++i) idxs[i] = static_cast<int>(i);

  std::vector<std::vector<ir::PacketView>> base(
      static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    base[static_cast<std::size_t>(f)] =
        makePackets(prog, packets_per_flow,
                    0xE14 + static_cast<std::uint64_t>(f));
  }

  auto runOnce = [&](util::ThreadPool* pool,
                     std::vector<std::vector<emu::PacketResult>>* out) {
    emu::Emulator emu(&topo, 7);
    emu.setThreadPool(pool);
    for (int f = 0; f < flows; ++f) {
      emu::DeploymentEntry entry;
      entry.user_id = 1;
      entry.prog = shared;
      entry.instr_idxs = idxs;
      entry.step_from = 0;
      entry.step_to = 1;
      emu.deploy(topo.findNode(cat("dev", f)), entry);
    }
    std::vector<emu::Burst> bursts(static_cast<std::size_t>(flows));
    for (int f = 0; f < flows; ++f) {
      auto& b = bursts[static_cast<std::size_t>(f)];
      b.src = topo.findNode(cat("client", f));
      b.dst = topo.findNode(cat("server", f));
      b.views = base[static_cast<std::size_t>(f)];
      b.wire_bytes = 100;
      b.useful_bytes = 100;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto results = emu.sendBursts(std::move(bursts));
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (out != nullptr) *out = std::move(results);
    const double total =
        static_cast<double>(flows) * static_cast<double>(packets_per_flow);
    return s > 0 ? total / s : 0.0;
  };

  std::vector<double> pps_1t, pps_2t, pps_4t;
  std::vector<std::vector<emu::PacketResult>> seq_out, par_out;
  {
    util::ThreadPool pool2(2);
    util::ThreadPool pool4(4);
    for (int rep = 0; rep < reps; ++rep) {
      pps_1t.push_back(runOnce(nullptr, rep == 0 ? &seq_out : nullptr));
      pps_2t.push_back(runOnce(&pool2, nullptr));
      pps_4t.push_back(runOnce(&pool4, rep == 0 ? &par_out : nullptr));
    }
  }
  r.identical = seq_out.size() == par_out.size();
  for (std::size_t f = 0; r.identical && f < seq_out.size(); ++f) {
    if (seq_out[f].size() != par_out[f].size()) {
      r.identical = false;
      break;
    }
    for (std::size_t i = 0; i < seq_out[f].size(); ++i) {
      if (!samePacket(seq_out[f][i].view, par_out[f][i].view) ||
          seq_out[f][i].latency_ns != par_out[f][i].latency_ns ||
          seq_out[f][i].dropped != par_out[f][i].dropped) {
        r.identical = false;
        break;
      }
    }
  }
  r.median_1t_pps = bench::medianOf(pps_1t);
  r.median_2t_pps = bench::medianOf(pps_2t);
  r.median_4t_pps = bench::medianOf(pps_4t);
  r.speedup_2t = r.median_1t_pps > 0 ? r.median_2t_pps / r.median_1t_pps : 0;
  r.speedup_4t = r.median_1t_pps > 0 ? r.median_4t_pps / r.median_1t_pps : 0;
  return r;
}

// --- converging traffic: many-to-one flows through one aggregation
// switch, each with a private smartNIC stage ---
//
// MLAgg's many-to-one regime (paper Fig. 13 case 5): every flow meets
// the others on the shared switch, so frontier grouping puts each flow in
// its own group and the pool columns run sequentially — they stay ~1x by
// construction and pin the pool's overhead on this traffic. The PR 2
// baseline is the sequential unfused path; the sweep measures what fusion
// alone, and fusion with a pool attached, buy on top.
struct ConvResult {
  int flows = 0;
  std::size_t packets_per_flow = 0;
  std::size_t nic_instrs = 0;
  std::size_t switch_instrs = 0;
  double median_seq_unfused_pps = 0;  // PR 2 compiled path
  double median_seq_fused_pps = 0;
  double median_pool_2t_pps = 0;      // fused, 2-thread pool
  double median_pool_4t_pps = 0;
  double speedup_fused = 0;           // seq fused vs seq unfused
  double speedup_fused_pool = 0;      // best pool size vs seq unfused
  bool identical = false;
};

// Per-NIC compression stand-in: per-dimension shift/compare/select/mask
// chains — the shape of sparse-gradient thresholding, and rich in
// fusable pairs like the real frontend output.
ir::IrProgram nicCompressProgram(int dim) {
  ir::IrProgram p;
  p.name = "niccomp";
  ir::StateObject s;
  s.name = "nic_seen";
  s.kind = ir::StateKind::kRegister;
  s.depth = 2;
  const int sid = p.addState(s);
  p.instrs.push_back(ir::Instruction(
      ir::Opcode::kRegAdd, ir::Operand::var("nseen", 32),
      {ir::Operand::constant(0, 8), ir::Operand::constant(1, 32)}, sid));
  for (int d = 0; d < dim; ++d) {
    const auto field = cat("hdr.data.", d);
    p.addField(field, 32);
    p.instrs.push_back(ir::Instruction(
        ir::Opcode::kShr, ir::Operand::var(cat("m", d), 32),
        {ir::Operand::field(field, 32), ir::Operand::constant(4, 32)}));
    p.instrs.push_back(ir::Instruction(
        ir::Opcode::kCmpEq, ir::Operand::var(cat("z", d), 1),
        {ir::Operand::var(cat("m", d), 32), ir::Operand::constant(0, 32)}));
    p.instrs.push_back(ir::Instruction(
        ir::Opcode::kSelect, ir::Operand::var(cat("v", d), 32),
        {ir::Operand::var(cat("z", d), 1), ir::Operand::constant(0, 32),
         ir::Operand::field(field, 32)}));
    p.instrs.push_back(ir::Instruction(
        ir::Opcode::kAssign, ir::Operand::field(field, 32),
        {ir::Operand::var(cat("v", d), 32)}));
  }
  return p;
}

ConvResult measureConverging(const ir::IrProgram& switch_prog, int dim,
                             int flows, std::size_t packets_per_flow,
                             int reps) {
  ConvResult r;
  r.flows = flows;
  r.packets_per_flow = packets_per_flow;

  // client_i — nic_i — agg switch — server.
  topo::Topology t;
  Node sw;
  sw.name = "agg";
  sw.kind = NodeKind::kSwitch;
  sw.programmable = true;
  sw.model = device::makeTofino();
  const int swid = t.addNode(sw);
  Node server;
  server.name = "server";
  server.kind = NodeKind::kHost;
  const int sid = t.addNode(server);
  t.addLink(swid, sid);
  for (int f = 0; f < flows; ++f) {
    Node c;
    c.name = cat("client", f);
    c.kind = NodeKind::kHost;
    const int cid = t.addNode(c);
    Node nic;
    nic.name = cat("nic", f);
    nic.kind = NodeKind::kNic;
    nic.programmable = true;
    nic.model = device::makeNfp();
    const int nid = t.addNode(nic);
    t.addLink(cid, nid);
    t.addLink(nid, swid);
  }

  auto nic_prog = std::make_shared<ir::IrProgram>(nicCompressProgram(dim));
  auto sw_prog = std::make_shared<ir::IrProgram>(switch_prog);
  r.nic_instrs = nic_prog->instrs.size();
  r.switch_instrs = sw_prog->instrs.size();

  auto makeConvBursts = [&] {
    Rng rng(0xC13);
    std::vector<emu::Burst> bursts;
    for (int f = 0; f < flows; ++f) {
      emu::Burst b;
      b.src = t.findNode(cat("client", f));
      b.dst = t.findNode("server");
      b.wire_bytes = 100 + 4 * dim;
      b.useful_bytes = 4 * dim;
      for (std::size_t p = 0; p < packets_per_flow; ++p) {
        ir::PacketView view;
        view.user_id = 1;
        view.setField("hdr.op", 1);
        view.setField("hdr.seq", rng.nextBelow(256));
        view.setField("hdr.bitmap", 1u << (f % 2));
        view.setField("hdr.overflow", 0);
        for (int d = 0; d < dim; ++d) {
          view.setField(cat("hdr.data.", d), rng.nextBelow(1u << 10));
        }
        b.views.push_back(std::move(view));
      }
      bursts.push_back(std::move(b));
    }
    return bursts;
  };

  auto runOnce = [&](util::ThreadPool* pool, bool fuse,
                     std::vector<std::vector<emu::PacketResult>>* out) {
    emu::Emulator emu(&t, 7);
    emu.setOptions({.fuse_plans = fuse});
    emu.setThreadPool(pool);
    auto entryFor = [&](const std::shared_ptr<ir::IrProgram>& p,
                        int step_from, int step_to) {
      emu::DeploymentEntry e;
      e.user_id = 1;
      e.prog = p;
      for (std::size_t i = 0; i < p->instrs.size(); ++i) {
        e.instr_idxs.push_back(static_cast<int>(i));
      }
      e.step_from = step_from;
      e.step_to = step_to;
      return e;
    };
    for (int f = 0; f < flows; ++f) {
      emu.deploy(t.findNode(cat("nic", f)), entryFor(nic_prog, 0, 1));
    }
    emu.deploy(swid, entryFor(sw_prog, 1, 2));
    auto bursts = makeConvBursts();
    const auto t0 = std::chrono::steady_clock::now();
    auto results = emu.sendBursts(std::move(bursts));
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (out != nullptr) *out = std::move(results);
    const double total = static_cast<double>(flows) *
                         static_cast<double>(packets_per_flow);
    return s > 0 ? total / s : 0.0;
  };

  std::vector<double> seq_unfused, seq_fused, pool2_pps, pool4_pps;
  std::vector<std::vector<emu::PacketResult>> seq_out, pool_out;
  {
    util::ThreadPool pool2(2);
    util::ThreadPool pool4(4);
    for (int rep = 0; rep < reps; ++rep) {
      seq_unfused.push_back(
          runOnce(nullptr, false, rep == 0 ? &seq_out : nullptr));
      seq_fused.push_back(runOnce(nullptr, true, nullptr));
      pool2_pps.push_back(runOnce(&pool2, true, nullptr));
      pool4_pps.push_back(
          runOnce(&pool4, true, rep == 0 ? &pool_out : nullptr));
    }
  }
  r.identical = seq_out.size() == pool_out.size();
  for (std::size_t f = 0; r.identical && f < seq_out.size(); ++f) {
    if (seq_out[f].size() != pool_out[f].size()) {
      r.identical = false;
      break;
    }
    for (std::size_t i = 0; i < seq_out[f].size(); ++i) {
      if (!samePacket(seq_out[f][i].view, pool_out[f][i].view) ||
          seq_out[f][i].latency_ns != pool_out[f][i].latency_ns ||
          seq_out[f][i].dropped != pool_out[f][i].dropped) {
        r.identical = false;
        break;
      }
    }
  }
  r.median_seq_unfused_pps = bench::medianOf(seq_unfused);
  r.median_seq_fused_pps = bench::medianOf(seq_fused);
  r.median_pool_2t_pps = bench::medianOf(pool2_pps);
  r.median_pool_4t_pps = bench::medianOf(pool4_pps);
  r.speedup_fused = r.median_seq_unfused_pps > 0
                        ? r.median_seq_fused_pps / r.median_seq_unfused_pps
                        : 0;
  const double best_pool = std::max(r.median_pool_2t_pps,
                                    r.median_pool_4t_pps);
  r.speedup_fused_pool =
      r.median_seq_unfused_pps > 0 ? best_pool / r.median_seq_unfused_pps
                                   : 0;
  return r;
}

InterpResult measureInterp(const std::string& name,
                           const ir::IrProgram& prog, std::size_t npackets,
                           int reps) {
  InterpResult r;
  r.name = name;
  r.instrs = prog.instrs.size();
  r.packets = npackets;
  const auto base = makePackets(prog, npackets, 0xF13);
  const ir::ExecPlan plan = ir::ExecPlan::compile(prog);

  auto timePps = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return s > 0 ? static_cast<double>(npackets) / s : 0.0;
  };

  std::vector<double> ref_pps, plan_pps, batch_pps;
  std::vector<ir::PacketView> ref_out, plan_out, batch_out;
  for (int rep = 0; rep < reps; ++rep) {
    {
      auto pkts = base;
      ir::StateStore store;
      Rng rng(1);
      ir::Interpreter interp(&store, &rng);
      ref_pps.push_back(timePps([&] {
        for (auto& pkt : pkts) interp.runAll(prog, pkt);
      }));
      if (rep == 0) ref_out = std::move(pkts);
    }
    {
      auto pkts = base;
      ir::StateStore store;
      Rng rng(1);
      plan_pps.push_back(timePps([&] {
        for (auto& pkt : pkts) plan.run(&store, &rng, pkt);
      }));
      if (rep == 0) plan_out = std::move(pkts);
    }
    {
      auto pkts = base;
      ir::StateStore store;
      Rng rng(1);
      batch_pps.push_back(timePps([&] {
        plan.runBatch(&store, &rng, std::span<ir::PacketView>(pkts));
      }));
      if (rep == 0) batch_out = std::move(pkts);
    }
  }

  r.equivalent = true;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!samePacket(ref_out[i], plan_out[i]) ||
        !samePacket(ref_out[i], batch_out[i])) {
      r.equivalent = false;
      break;
    }
  }
  r.median_reference_pps = bench::medianOf(ref_pps);
  r.median_plan_pps = bench::medianOf(plan_pps);
  r.median_batch_pps = bench::medianOf(batch_pps);
  r.speedup_plan = r.median_reference_pps > 0
                       ? r.median_plan_pps / r.median_reference_pps
                       : 0;
  r.speedup_batch = r.median_reference_pps > 0
                        ? r.median_batch_pps / r.median_reference_pps
                        : 0;
  return r;
}

}  // namespace
}  // namespace clickinc

int main() {
  using namespace clickinc;
  const bool smoke = std::getenv("CLICKINC_BENCH_SMOKE") != nullptr;
  bench::printHeader(
      "Fig. 13 — sparse MLAgg goodput and INC latency across device mixes",
      "Emulated reproduction; compare ordering/shape with the paper, not "
      "absolute Gbps.\nPaper shape: DPDK < SmartNIC < 1 Switch < 2 Switches "
      "< 1 Switch+SmartNIC (goodput);\nSmartNIC adds the highest INC "
      "latency, switches the lowest.");

  const ConfigRun configs[] = {
      {"DPDK (no INC)", false, 1, false, false, false, 16, 1, false},
      {"SmartNIC", true, 1, false, true, false, 16, 1, false},
      {"1 Switch", false, 1, true, false, true, 16, 1, false},
      // Case 4: two interconnected switches, each fronting half the
      // workers; the vector doubles and each switch aggregates its local
      // subgroup (hierarchical, ATP-style).
      {"2 Switches", false, 2, true, false, true, 32, 2, true},
      {"1 Switch+SmartNIC", true, 1, true, true, true, 32, 1, false},
  };

  TextTable table({"configuration", "goodput (Gbps)", "INC latency (ns)",
                   "rounds in-network", "server-link MB"});
  const int workers = 4;
  const int rounds = smoke ? 20 : 200;
  std::vector<ConfigResult> config_results;

  for (const auto& cfg : configs) {
    auto topo = configTopology(workers, cfg.smartnic, cfg.switches,
                               cfg.prog_switch, cfg.workers_split);
    core::ClickIncService svc(std::move(topo));

    apps::MlaggConfig run;
    for (int w = 0; w < workers; ++w) {
      run.worker_hosts.push_back(svc.topology().findNode(cat("worker", w)));
    }
    run.server_host = svc.topology().findNode("server");
    run.rounds = rounds;
    run.dim = cfg.dim;
    run.block_size = 4;
    run.sparsity = 0.5;
    run.use_sparse = cfg.use_sparse;
    run.use_mlagg = cfg.use_mlagg;
    run.num_agg = 512;
    run.worker_groups = cfg.groups;
    run.check_overflow = false;  // workers pre-scale gradients (DESIGN.md)

    const auto r = apps::runMlagg(svc, run);
    ConfigResult cr;
    cr.label = cfg.label;
    cr.deployed = r.deployed;
    if (!r.deployed) {
      cr.failure = r.failure;
      config_results.push_back(cr);
      table.addRow({cfg.label, "placement failed: " + r.failure, "-", "-",
                    "-"});
      continue;
    }
    cr.goodput_gbps = r.goodput_gbps;
    cr.inc_latency_ns = r.avg_inc_latency_ns;
    cr.inc_aggregated = r.inc_aggregated;
    cr.rounds_done = r.rounds_done;
    cr.server_link_mb = r.server_link_bytes / 1e6;
    config_results.push_back(cr);
    table.addRow({cfg.label, fmtDouble(r.goodput_gbps, 2),
                  fmtDouble(r.avg_inc_latency_ns, 0),
                  cat(r.inc_aggregated, "/", r.rounds_done),
                  fmtDouble(r.server_link_bytes / 1e6, 3)});
  }
  bench::printTable(table);

  // Interpreter fast path: the same application programs, executed as raw
  // packet streams through the reference switch interpreter vs the
  // precompiled ExecPlan (per-packet and batched). The largest Fig. 13
  // workload is the dim-32 MLAgg program of cases 4/5.
  bench::printHeader(
      "Interpreter fast path — precompiled ExecPlan vs reference switch",
      "Median packets/sec over repeated runs; plans are bit-identical to "
      "the reference (ExecPlan equivalence tests + in-run spot check).");

  const std::size_t npackets = smoke ? 500 : 20000;
  const int reps = smoke ? 3 : 7;
  modules::ModuleLibrary lib;
  std::vector<std::pair<std::string, ir::IrProgram>> programs;
  programs.emplace_back(
      "mlagg_dim4",
      lib.compileTemplate("MLAgg", "agg_s", {{"NumAgg", 128},
                                             {"Dim", 4},
                                             {"NumWorker", 2},
                                             {"IsConvert", 0}}));
  programs.emplace_back(
      "mlagg_dim32_largest_fig13",
      lib.compileTemplate("MLAgg", "agg_l", {{"NumAgg", 512},
                                             {"Dim", 32},
                                             {"NumWorker", 2},
                                             {"IsConvert", 0}}));
  programs.emplace_back(
      "kvs", lib.compileTemplate(
                 "KVS", "kvs",
                 {{"CacheSize", 100000}, {"ValDim", 4}, {"TH", 64}}));
  programs.emplace_back(
      "dqacc", lib.compileTemplate("DQAcc", "dq",
                                   {{"CacheDepth", 1024}, {"CacheLen", 4}}));

  std::vector<InterpResult> interp_results;
  for (const auto& [name, prog] : programs) {
    interp_results.push_back(measureInterp(name, prog, npackets, reps));
  }

  TextTable interp_table({"workload", "instrs", "reference (pkt/s)",
                          "plan (pkt/s)", "batch (pkt/s)", "speedup",
                          "batch speedup", "identical"});
  for (const auto& r : interp_results) {
    interp_table.addRow(
        {r.name, cat(r.instrs), fmtDouble(r.median_reference_pps, 0),
         fmtDouble(r.median_plan_pps, 0), fmtDouble(r.median_batch_pps, 0),
         cat(fmtDouble(r.speedup_plan, 2), "x"),
         cat(fmtDouble(r.speedup_batch, 2), "x"),
         r.equivalent ? "yes" : "NO"});
  }
  bench::printTable(interp_table);

  // End-to-end emulator execution: the retained reference path re-copies
  // and re-decodes the deployed segment per packet (the seed behavior);
  // the fast path runs precompiled plans, optionally fused (the
  // superinstruction peephole) and batched.
  bench::printHeader(
      "Emulator execution fast path — compiled plans, fusion sweep, "
      "batched sends",
      "Packets/sec through Emulator::send/sendBurst with the program "
      "deployed on one emulated Tofino.\nReference = retained seed path "
      "(per-packet segment copy + switch interpreter); compiled/burst = "
      "the PR 2 unfused plans;\nfused = superinstruction peephole on "
      "(bit-identical, fewer dispatches).");

  std::vector<EmuPathResult> emu_results;
  for (const auto& [name, prog] : programs) {
    emu_results.push_back(measureEmuPath(name, prog, npackets, reps));
  }
  TextTable emu_table({"workload", "instrs", "fused pairs",
                       "reference (pkt/s)", "compiled (pkt/s)",
                       "fused (pkt/s)", "burst (pkt/s)",
                       "fused burst (pkt/s)", "burst speedup",
                       "fusion speedup"});
  for (const auto& r : emu_results) {
    emu_table.addRow(
        {r.name, cat(r.instrs), cat(r.fused_pairs),
         fmtDouble(r.median_reference_pps, 0),
         fmtDouble(r.median_compiled_pps, 0),
         fmtDouble(r.median_fused_pps, 0),
         fmtDouble(r.median_burst_pps, 0),
         fmtDouble(r.median_burst_fused_pps, 0),
         cat(fmtDouble(r.speedup_burst, 2), "x"),
         cat(fmtDouble(r.speedup_fusion, 2), "x")});
  }
  bench::printTable(emu_table);

  // Parallel emulation: device-disjoint flows across a worker pool. The
  // aggregate throughput scales with min(threads, flows) when the
  // hardware provides the cores; results stay bit-identical.
  bench::printHeader(
      "Parallel emulation — device-disjoint flows via sendBursts",
      cat("4 flows on disjoint client-device-server chains, one burst "
          "each; aggregate pkt/s.\nHardware threads on this machine: ",
          util::ThreadPool::hardwareConcurrency(), "."));

  const int par_flows = 4;
  const std::size_t par_packets = npackets / 2;
  std::vector<ParEmuResult> par_results;
  par_results.push_back(measureParallelEmu(
      "mlagg_dim32_largest_fig13", programs[1].second, par_flows,
      par_packets, reps));
  par_results.push_back(measureParallelEmu("kvs", programs[2].second,
                                           par_flows, par_packets, reps));

  TextTable par_table({"workload", "1 thread (pkt/s)", "2 threads (pkt/s)",
                       "4 threads (pkt/s)", "speedup 2t", "speedup 4t",
                       "identical"});
  for (const auto& r : par_results) {
    par_table.addRow(
        {r.name, fmtDouble(r.median_1t_pps, 0),
         fmtDouble(r.median_2t_pps, 0), fmtDouble(r.median_4t_pps, 0),
         cat(fmtDouble(r.speedup_2t, 2), "x"),
         cat(fmtDouble(r.speedup_4t, 2), "x"),
         r.identical ? "yes" : "NO"});
  }
  bench::printTable(par_table);

  // Converging traffic: the MLAgg many-to-one regime — per-flow smartNIC
  // compression feeding one shared aggregation switch. Every flow aliases
  // the switch, so sendBursts runs them one group at a time even with a
  // pool. Baseline = the PR 2 compiled path (sequential, unfused).
  bench::printHeader(
      "Converging traffic — fused sendBursts on shared-device flows",
      cat("Per-flow NIC compression -> one aggregation switch -> server; "
          "aggregate pkt/s across flows.\nHardware threads on this "
          "machine: ", util::ThreadPool::hardwareConcurrency(),
          " (aliasing flows serialize, so the pool columns stay ~1x)."));

  const auto conv = measureConverging(programs[1].second, 32, par_flows,
                                      par_packets, reps);
  TextTable conv_table({"flows", "seq unfused (pkt/s)",
                        "seq fused (pkt/s)", "pool 2t (pkt/s)",
                        "pool 4t (pkt/s)", "fusion speedup",
                        "fused+pool speedup",
                        "identical"});
  conv_table.addRow({cat(conv.flows),
                     fmtDouble(conv.median_seq_unfused_pps, 0),
                     fmtDouble(conv.median_seq_fused_pps, 0),
                     fmtDouble(conv.median_pool_2t_pps, 0),
                     fmtDouble(conv.median_pool_4t_pps, 0),
                     cat(fmtDouble(conv.speedup_fused, 2), "x"),
                     cat(fmtDouble(conv.speedup_fused_pool, 2), "x"),
                     conv.identical ? "yes" : "NO"});
  bench::printTable(conv_table);

  // Machine-readable trajectory record (schema: docs/benchmarks.md).
  bench::JsonWriter json;
  json.beginObject();
  json.kv("bench", "fig13_performance");
  json.kv("hardware_threads", util::ThreadPool::hardwareConcurrency());
  bench::writeHostObject(json, 4);  // largest pool the sweeps attach
  json.kv("smoke", smoke);
  json.kv("rounds", rounds);
  json.key("configs").beginArray();
  for (const auto& c : config_results) {
    json.beginObject();
    json.kv("label", c.label);
    json.kv("deployed", c.deployed);
    if (!c.deployed) {
      json.kv("failure", c.failure);
    } else {
      json.kv("goodput_gbps", c.goodput_gbps);
      json.kv("inc_latency_ns", c.inc_latency_ns);
      json.kv("rounds_in_network", static_cast<long>(c.inc_aggregated));
      json.kv("rounds_done", static_cast<long>(c.rounds_done));
      json.kv("server_link_mb", c.server_link_mb);
    }
    json.endObject();
  }
  json.endArray();
  json.key("interpreter").beginObject();
  json.kv("packets", static_cast<long>(npackets));
  json.kv("reps", reps);
  json.key("workloads").beginArray();
  for (const auto& r : interp_results) {
    json.beginObject();
    json.kv("name", r.name);
    json.kv("instrs", static_cast<long>(r.instrs));
    json.kv("median_reference_pps", r.median_reference_pps);
    json.kv("median_plan_pps", r.median_plan_pps);
    json.kv("median_batch_pps", r.median_batch_pps);
    json.kv("speedup_plan", r.speedup_plan);
    json.kv("speedup_batch", r.speedup_batch);
    json.kv("equivalent", r.equivalent);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.key("emulator").beginObject();
  json.kv("packets", static_cast<long>(npackets));
  json.kv("reps", reps);
  json.key("workloads").beginArray();
  for (const auto& r : emu_results) {
    json.beginObject();
    json.kv("name", r.name);
    json.kv("instrs", static_cast<long>(r.instrs));
    json.kv("fused_pairs", static_cast<long>(r.fused_pairs));
    json.kv("median_reference_pps", r.median_reference_pps);
    json.kv("median_compiled_pps", r.median_compiled_pps);
    json.kv("median_fused_pps", r.median_fused_pps);
    json.kv("median_burst_pps", r.median_burst_pps);
    json.kv("median_burst_fused_pps", r.median_burst_fused_pps);
    json.kv("speedup_compiled", r.speedup_compiled);
    json.kv("speedup_burst", r.speedup_burst);
    json.kv("speedup_fusion", r.speedup_fusion);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.key("parallel_emulator").beginObject();
  json.kv("flows", par_flows);
  json.kv("packets_per_flow", static_cast<long>(par_packets));
  json.kv("reps", reps);
  json.key("workloads").beginArray();
  for (const auto& r : par_results) {
    json.beginObject();
    json.kv("name", r.name);
    json.kv("median_1t_pps", r.median_1t_pps);
    json.kv("median_2t_pps", r.median_2t_pps);
    json.kv("median_4t_pps", r.median_4t_pps);
    json.kv("speedup_2t", r.speedup_2t);
    json.kv("speedup_4t", r.speedup_4t);
    json.kv("identical", r.identical);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.key("converging").beginObject();
  json.kv("flows", conv.flows);
  json.kv("packets_per_flow", static_cast<long>(conv.packets_per_flow));
  json.kv("reps", reps);
  json.kv("nic_instrs", static_cast<long>(conv.nic_instrs));
  json.kv("switch_instrs", static_cast<long>(conv.switch_instrs));
  json.kv("median_seq_unfused_pps", conv.median_seq_unfused_pps);
  json.kv("median_seq_fused_pps", conv.median_seq_fused_pps);
  json.kv("median_pool_2t_pps", conv.median_pool_2t_pps);
  json.kv("median_pool_4t_pps", conv.median_pool_4t_pps);
  json.kv("speedup_fused", conv.speedup_fused);
  json.kv("speedup_fused_pool", conv.speedup_fused_pool);
  json.kv("identical", conv.identical);
  json.endObject();
  json.endObject();
  if (json.writeFile("BENCH_fig13.json")) {
    std::printf("wrote BENCH_fig13.json\n");
  } else {
    std::printf("WARNING: could not write BENCH_fig13.json\n");
  }
  return 0;
}
