#include "durable/serialize.h"

#include <algorithm>

#include "util/crc.h"

namespace clickinc::durable {

namespace {

// --- IR pieces ----------------------------------------------------------

void writeOperand(BinWriter& w, const ir::Operand& o) {
  w.u8(static_cast<std::uint8_t>(o.kind));
  w.str(o.name);
  w.u64(o.value);
  w.i32(o.width);
}

ir::Operand readOperand(BinReader& r) {
  ir::Operand o;
  const std::uint8_t kind = r.u8();
  // Untrusted bytes: a kind past kField would read as a variable to the
  // compiled engine and as 0 to the reference interpreter.
  if (kind > static_cast<std::uint8_t>(ir::OperandKind::kField)) {
    throw Error("durable: operand kind " + std::to_string(kind) +
                " out of range");
  }
  o.kind = static_cast<ir::OperandKind>(kind);
  o.name = r.str();
  o.value = r.u64();
  o.width = r.i32();
  return o;
}

void writeIntVec(BinWriter& w, const std::vector<int>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (int x : v) w.i32(x);
}

std::vector<int> readIntVec(BinReader& r) {
  const std::uint32_t n = r.count(4);
  std::vector<int> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.i32());
  return v;
}

void writeInstruction(BinWriter& w, const ir::Instruction& ins) {
  w.u16(static_cast<std::uint16_t>(ins.op));
  writeOperand(w, ins.dest);
  writeOperand(w, ins.dest2);
  w.u32(static_cast<std::uint32_t>(ins.srcs.size()));
  for (const auto& s : ins.srcs) writeOperand(w, s);
  w.boolean(ins.pred.has_value());
  if (ins.pred.has_value()) writeOperand(w, *ins.pred);
  w.boolean(ins.pred_negate);
  w.i32(ins.state_id);
  writeIntVec(w, ins.owners);
  w.i32(ins.step);
}

ir::Instruction readInstruction(BinReader& r) {
  ir::Instruction ins;
  ins.op = static_cast<ir::Opcode>(r.u16());
  ins.dest = readOperand(r);
  ins.dest2 = readOperand(r);
  const std::uint32_t n = r.count(17);
  ins.srcs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ins.srcs.push_back(readOperand(r));
  if (r.boolean()) ins.pred = readOperand(r);
  ins.pred_negate = r.boolean();
  ins.state_id = r.i32();
  ins.owners = readIntVec(r);
  ins.step = r.i32();
  return ins;
}

void writeState(BinWriter& w, const ir::StateObject& st) {
  w.i32(st.id);
  w.str(st.name);
  w.u8(static_cast<std::uint8_t>(st.kind));
  w.boolean(st.stateful);
  w.u64(st.depth);
  w.i32(st.key_width);
  w.i32(st.value_width);
  writeIntVec(w, st.owners);
}

ir::StateObject readState(BinReader& r) {
  ir::StateObject st;
  st.id = r.i32();
  st.name = r.str();
  st.kind = static_cast<ir::StateKind>(r.u8());
  st.stateful = r.boolean();
  st.depth = r.u64();
  st.key_width = r.i32();
  st.value_width = r.i32();
  st.owners = readIntVec(r);
  return st;
}

// --- placement pieces ---------------------------------------------------

void writeIntra(BinWriter& w, const place::IntraPlacement& p) {
  w.boolean(p.feasible);
  w.str(p.why);
  writeIntVec(w, p.instr_idxs);
  writeIntVec(w, p.stage_of);
  w.i32(p.stages_used);
  writeDemand(w, p.total);
  // steps is a search diagnostic (memo hits report 0), not semantics.
}

place::IntraPlacement readIntra(BinReader& r) {
  place::IntraPlacement p;
  p.feasible = r.boolean();
  p.why = r.str();
  p.instr_idxs = readIntVec(r);
  p.stage_of = readIntVec(r);
  p.stages_used = r.i32();
  p.total = readDemand(r);
  return p;
}

void writeIntraMap(BinWriter& w,
                   const std::map<int, place::IntraPlacement>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [dev, p] : m) {
    w.i32(dev);
    writeIntra(w, p);
  }
}

std::map<int, place::IntraPlacement> readIntraMap(BinReader& r) {
  std::map<int, place::IntraPlacement> m;
  const std::uint32_t n = r.count(8);
  for (std::uint32_t i = 0; i < n; ++i) {
    const int dev = r.i32();
    m.emplace(dev, readIntra(r));
  }
  return m;
}

void writeTenant(BinWriter& w, const CheckpointTenant& t) {
  w.i32(t.user);
  writeProgram(w, t.prog);
  writePlan(w, t.plan);
  writeTraffic(w, t.traffic);
  writeOptions(w, t.options);
  w.u64(t.plan_fp);
}

CheckpointTenant readTenant(BinReader& r) {
  CheckpointTenant t;
  t.user = r.i32();
  t.prog = readProgram(r);
  t.plan = readPlan(r);
  t.traffic = readTraffic(r);
  t.options = readOptions(r);
  t.plan_fp = r.u64();
  return t;
}

void writeDeferred(BinWriter& w,
                   const std::map<std::uint64_t, DeferredHeal>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [key, d] : m) {
    w.u64(key);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.i32(d.node);
    w.i32(d.link_a);
    w.i32(d.link_b);
    w.u8(static_cast<std::uint8_t>(d.from));
    w.u64(d.version);
  }
}

std::map<std::uint64_t, DeferredHeal> readDeferred(BinReader& r) {
  std::map<std::uint64_t, DeferredHeal> m;
  const std::uint32_t n = r.count(16);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t key = r.u64();
    DeferredHeal d;
    d.kind = static_cast<topo::FailureEvent::Kind>(r.u8());
    d.node = r.i32();
    d.link_a = r.i32();
    d.link_b = r.i32();
    d.from = static_cast<topo::Health>(r.u8());
    d.version = r.u64();
    m.emplace(key, d);
  }
  return m;
}

}  // namespace

// --- public round-trips -------------------------------------------------

void writeProgram(BinWriter& w, const ir::IrProgram& prog) {
  w.str(prog.name);
  w.u32(static_cast<std::uint32_t>(prog.fields.size()));
  for (const auto& f : prog.fields) {
    w.str(f.name);
    w.i32(f.width);
  }
  w.u32(static_cast<std::uint32_t>(prog.states.size()));
  for (const auto& st : prog.states) writeState(w, st);
  w.u32(static_cast<std::uint32_t>(prog.instrs.size()));
  for (const auto& ins : prog.instrs) writeInstruction(w, ins);
}

ir::IrProgram readProgram(BinReader& r) {
  ir::IrProgram prog;
  prog.name = r.str();
  const std::uint32_t nf = r.count(8);
  prog.fields.reserve(nf);
  for (std::uint32_t i = 0; i < nf; ++i) {
    ir::HeaderField f;
    f.name = r.str();
    f.width = r.i32();
    prog.fields.push_back(std::move(f));
  }
  const std::uint32_t ns = r.count(16);
  prog.states.reserve(ns);
  for (std::uint32_t i = 0; i < ns; ++i) prog.states.push_back(readState(r));
  const std::uint32_t ni = r.count(32);
  prog.instrs.reserve(ni);
  for (std::uint32_t i = 0; i < ni; ++i) {
    prog.instrs.push_back(readInstruction(r));
  }
  return prog;
}

void writeDemand(BinWriter& w, const device::ResourceDemand& d) {
  w.i32(d.salus);
  w.i32(d.alus);
  w.i32(d.hash_units);
  w.i32(d.tables);
  w.i32(d.gateways);
  w.i32(d.special_fns);
  w.u64(d.sram_bits);
  w.u64(d.tcam_bits);
  w.i32(d.micro_instrs);
  w.i32(d.dsps);
  w.u64(d.luts);
  w.u64(d.ffs);
}

device::ResourceDemand readDemand(BinReader& r) {
  device::ResourceDemand d;
  d.salus = r.i32();
  d.alus = r.i32();
  d.hash_units = r.i32();
  d.tables = r.i32();
  d.gateways = r.i32();
  d.special_fns = r.i32();
  d.sram_bits = r.u64();
  d.tcam_bits = r.u64();
  d.micro_instrs = r.i32();
  d.dsps = r.i32();
  d.luts = r.u64();
  d.ffs = r.u64();
  return d;
}

void writePlan(BinWriter& w, const place::PlacementPlan& plan) {
  w.boolean(plan.feasible);
  w.str(plan.failure);
  w.boolean(plan.resource_limited);
  w.u32(static_cast<std::uint32_t>(plan.assignments.size()));
  for (const auto& a : plan.assignments) {
    w.i32(a.tree_node);
    w.i32(a.from_block);
    w.i32(a.to_block);
    w.i32(a.bypass_from);
    writeIntraMap(w, a.on_device);
    writeIntraMap(w, a.on_bypass);
  }
  w.f64(plan.gain);
  w.f64(plan.ht);
  w.f64(plan.hr);
  w.f64(plan.hp);
  w.f64(plan.weights_used.wt);
  w.f64(plan.weights_used.wr);
  w.f64(plan.weights_used.wp);
  // steps, elapsed_ms and stats are run diagnostics, not plan semantics:
  // steps varies with placement-arena memo warmth even when the chosen
  // plan is identical, and fingerprints must not.
}

place::PlacementPlan readPlan(BinReader& r) {
  place::PlacementPlan plan;
  plan.feasible = r.boolean();
  plan.failure = r.str();
  plan.resource_limited = r.boolean();
  const std::uint32_t n = r.count(16);
  plan.assignments.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    place::NodeAssignment a;
    a.tree_node = r.i32();
    a.from_block = r.i32();
    a.to_block = r.i32();
    a.bypass_from = r.i32();
    a.on_device = readIntraMap(r);
    a.on_bypass = readIntraMap(r);
    plan.assignments.push_back(std::move(a));
  }
  plan.gain = r.f64();
  plan.ht = r.f64();
  plan.hr = r.f64();
  plan.hp = r.f64();
  plan.weights_used.wt = r.f64();
  plan.weights_used.wr = r.f64();
  plan.weights_used.wp = r.f64();
  return plan;
}

void writeTraffic(BinWriter& w, const topo::TrafficSpec& spec) {
  w.u32(static_cast<std::uint32_t>(spec.sources.size()));
  for (const auto& s : spec.sources) {
    w.i32(s.host);
    w.f64(s.volume);
  }
  w.i32(spec.dst_host);
}

topo::TrafficSpec readTraffic(BinReader& r) {
  topo::TrafficSpec spec;
  const std::uint32_t n = r.count(12);
  spec.sources.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    topo::TrafficSource s;
    s.host = r.i32();
    s.volume = r.f64();
    spec.sources.push_back(s);
  }
  spec.dst_host = r.i32();
  return spec;
}

void writeOptions(BinWriter& w, const place::PlacementOptions& opts) {
  w.f64(opts.weights.wt);
  w.f64(opts.weights.wr);
  w.f64(opts.weights.wp);
  w.boolean(opts.adaptive);
  w.boolean(opts.prune);
  w.boolean(opts.fast);
  w.i64(opts.max_steps);
}

place::PlacementOptions readOptions(BinReader& r) {
  place::PlacementOptions opts;
  opts.weights.wt = r.f64();
  opts.weights.wr = r.f64();
  opts.weights.wp = r.f64();
  opts.adaptive = r.boolean();
  opts.prune = r.boolean();
  opts.fast = r.boolean();
  opts.max_steps = static_cast<long>(r.i64());
  opts.pool = nullptr;          // borrowed, never serialized
  opts.ratio_devices = nullptr;
  return opts;
}

void writeEvent(BinWriter& w, const topo::FailureEvent& ev) {
  w.u64(ev.version);
  w.u8(static_cast<std::uint8_t>(ev.kind));
  w.i32(ev.node);
  w.i32(ev.link_a);
  w.i32(ev.link_b);
  w.u8(static_cast<std::uint8_t>(ev.from));
  w.u8(static_cast<std::uint8_t>(ev.to));
}

topo::FailureEvent readEvent(BinReader& r) {
  topo::FailureEvent ev;
  ev.version = r.u64();
  ev.kind = static_cast<topo::FailureEvent::Kind>(r.u8());
  ev.node = r.i32();
  ev.link_a = r.i32();
  ev.link_b = r.i32();
  ev.from = static_cast<topo::Health>(r.u8());
  ev.to = static_cast<topo::Health>(r.u8());
  return ev;
}

std::uint64_t planFingerprint(const place::PlacementPlan& plan) {
  BinWriter w;
  writePlan(w, plan);
  std::uint64_t h = 0xC11C'14C0'F1A6'0001ULL;  // fingerprint domain seed
  const auto& bytes = w.bytes();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    for (int k = 0; k < 8; ++k) {
      chunk |= static_cast<std::uint64_t>(bytes[i + static_cast<std::size_t>(k)])
               << (8 * k);
    }
    h = mix64(h ^ chunk);
  }
  std::uint64_t tail = 1;  // length-extension guard
  for (; i < bytes.size(); ++i) tail = (tail << 8) | bytes[i];
  return mix64(h ^ tail ^ bytes.size());
}

std::uint64_t entityKey(const topo::FailureEvent& ev) {
  if (ev.kind == topo::FailureEvent::Kind::kNode) {
    return static_cast<std::uint64_t>(ev.node);
  }
  // Tag links into a disjoint key space, normalizing endpoint order so the
  // same physical link maps to one key regardless of (a, b) vs (b, a).
  const std::uint64_t lo =
      static_cast<std::uint64_t>(std::min(ev.link_a, ev.link_b));
  const std::uint64_t hi =
      static_cast<std::uint64_t>(std::max(ev.link_a, ev.link_b));
  return (1ULL << 48) | (lo << 24) | hi;
}

// --- record payloads ----------------------------------------------------

std::vector<std::uint8_t> encodeCommit(const CommitRecord& rec) {
  BinWriter w;
  w.i32(rec.user);
  writeProgram(w, rec.prog);
  writePlan(w, rec.plan);
  writeTraffic(w, rec.traffic);
  writeOptions(w, rec.options);
  return w.take();
}

CommitRecord decodeCommit(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  CommitRecord rec;
  rec.user = r.i32();
  rec.prog = readProgram(r);
  rec.plan = readPlan(r);
  rec.traffic = readTraffic(r);
  rec.options = readOptions(r);
  return rec;
}

std::vector<std::uint8_t> encodeAbort(const AbortRecord& rec) {
  BinWriter w;
  w.i32(rec.user);
  return w.take();
}

AbortRecord decodeAbort(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  AbortRecord rec;
  rec.user = r.i32();
  return rec;
}

std::vector<std::uint8_t> encodeRemove(const RemoveRecord& rec) {
  BinWriter w;
  w.i32(rec.user);
  w.boolean(rec.lazy);
  return w.take();
}

RemoveRecord decodeRemove(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  RemoveRecord rec;
  rec.user = r.i32();
  rec.lazy = r.boolean();
  return rec;
}

std::vector<std::uint8_t> encodeHealth(const HealthRecord& rec) {
  BinWriter w;
  writeEvent(w, rec.event);
  return w.take();
}

HealthRecord decodeHealth(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  HealthRecord rec;
  rec.event = readEvent(r);
  return rec;
}

std::vector<std::uint8_t> encodeFailover(const FailoverRecord& rec) {
  BinWriter w;
  w.u64(rec.processed_version);
  w.u32(rec.damped_events);
  w.u32(rec.tenants);
  return w.take();
}

FailoverRecord decodeFailover(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  FailoverRecord rec;
  rec.processed_version = r.u64();
  rec.damped_events = r.u32();
  rec.tenants = r.u32();
  return rec;
}

std::vector<std::uint8_t> encodeMigrate(const MigrateRecord& rec) {
  BinWriter w;
  w.i32(rec.user);
  writePlan(w, rec.plan);
  w.u64(rec.old_plan_fp);
  return w.take();
}

MigrateRecord decodeMigrate(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  MigrateRecord rec;
  rec.user = r.i32();
  rec.plan = readPlan(r);
  rec.old_plan_fp = r.u64();
  return rec;
}

std::vector<std::uint8_t> encodeMigrateAbort(const MigrateAbortRecord& rec) {
  BinWriter w;
  w.i32(rec.user);
  writePlan(w, rec.plan);
  return w.take();
}

MigrateAbortRecord decodeMigrateAbort(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  MigrateAbortRecord rec;
  rec.user = r.i32();
  rec.plan = readPlan(r);
  return rec;
}

std::vector<std::uint8_t> encodeCheckpoint(const CheckpointRecord& rec) {
  BinWriter w;
  w.i32(rec.next_user);
  w.u64(rec.health_version);
  w.u64(rec.processed_health_version);
  w.blob(std::span<const std::uint8_t>(rec.node_health));
  w.blob(std::span<const std::uint8_t>(rec.link_health));
  w.u32(static_cast<std::uint32_t>(rec.devices.size()));
  for (const auto& d : rec.devices) {
    w.i32(d.node);
    w.u32(static_cast<std::uint32_t>(d.free_stage.size()));
    for (const auto& s : d.free_stage) writeDemand(w, s);
    writeDemand(w, d.free_whole);
  }
  w.u32(static_cast<std::uint32_t>(rec.tenants.size()));
  for (const auto& t : rec.tenants) writeTenant(w, t);
  writeDeferred(w, rec.deferred_heals);
  w.u32(static_cast<std::uint32_t>(rec.last_disturb.size()));
  for (const auto& [key, v] : rec.last_disturb) {
    w.u64(key);
    w.u64(v);
  }
  return w.take();
}

CheckpointRecord decodeCheckpoint(std::span<const std::uint8_t> payload) {
  BinReader r(payload);
  CheckpointRecord rec;
  rec.next_user = r.i32();
  rec.health_version = r.u64();
  rec.processed_health_version = r.u64();
  rec.node_health = r.blob();
  rec.link_health = r.blob();
  const std::uint32_t nd = r.count(8);
  rec.devices.reserve(nd);
  for (std::uint32_t i = 0; i < nd; ++i) {
    CheckpointDevice d;
    d.node = r.i32();
    const std::uint32_t ns = r.count(8);
    d.free_stage.reserve(ns);
    for (std::uint32_t s = 0; s < ns; ++s) {
      d.free_stage.push_back(readDemand(r));
    }
    d.free_whole = readDemand(r);
    rec.devices.push_back(std::move(d));
  }
  const std::uint32_t nt = r.count(8);
  rec.tenants.reserve(nt);
  for (std::uint32_t i = 0; i < nt; ++i) rec.tenants.push_back(readTenant(r));
  rec.deferred_heals = readDeferred(r);
  const std::uint32_t nl = r.count(16);
  for (std::uint32_t i = 0; i < nl; ++i) {
    const std::uint64_t key = r.u64();
    rec.last_disturb[key] = r.u64();
  }
  return rec;
}

}  // namespace clickinc::durable
