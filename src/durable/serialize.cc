#include "durable/serialize.h"

#include <algorithm>
#include <optional>

#include "durable/wire.h"
#include "util/crc.h"

namespace clickinc::durable {

namespace {

// The wire format is one `fields(a, x)` list per type, naming x's fields in
// wire order. Enc walks a list writing through BinWriter and Dec walks the
// same list reading through BinReader, so the encoder and the decoder cannot
// disagree. Both take x by non-const reference; Enc never writes to it.
//
// Every repeated field carries the minimum encoded size of one element, so
// BinReader::count rejects a corrupt count before a container is sized.

// Writes an enum (or any integer) at the fixed width `Wire`. Decoding casts
// the wire value back unchecked; range checks belong to the reader of the
// decoded record (the service's restore path), except for Operand::kind.
template <class Wire, class A, class T>
void fixed(A& a, T& v) {
  Wire wire = static_cast<Wire>(v);
  a(wire);
  if constexpr (A::kDecoding) v = static_cast<T>(wire);
}

template <class A, class T>
void vec(A& a, std::vector<T>& v, std::size_t min_elem) {
  const std::uint32_t n = a.count(v.size(), min_elem);
  if constexpr (A::kDecoding) v.resize(n);
  for (auto& x : v) a(x);
}

template <class A, class T>
void opt(A& a, std::optional<T>& o) {
  bool has = o.has_value();
  a(has);
  if constexpr (A::kDecoding) {
    if (has) o.emplace();
  }
  if (has) a(*o);
}

// Which entry a decoded map keeps when a crafted payload repeats a key.
enum class OnDup { kKeepFirst, kKeepLast };

template <class A, class K, class V, class Value>
void mapOf(A& a, std::map<K, V>& m, std::size_t min_elem, OnDup dup,
           Value value) {
  const std::uint32_t n = a.count(m.size(), min_elem);
  if constexpr (A::kDecoding) {
    for (std::uint32_t i = 0; i < n; ++i) {
      K key{};
      a(key);
      V v{};
      value(v);
      if (dup == OnDup::kKeepLast) {
        m.insert_or_assign(key, std::move(v));
      } else {
        m.emplace(key, std::move(v));
      }
    }
  } else {
    for (auto& [k, v] : m) {
      K key = k;
      a(key);
      value(v);
    }
  }
}

template <class A, class K, class V>
void mapOf(A& a, std::map<K, V>& m, std::size_t min_elem, OnDup dup) {
  mapOf(a, m, min_elem, dup, [&a](V& v) { a(v); });
}

// --- IR -----------------------------------------------------------------

template <class A>
void fields(A& a, ir::Operand& o) {
  fixed<std::uint8_t>(a, o.kind);
  // Untrusted bytes: a kind past kField would read as a variable to the
  // compiled engine and as 0 to the reference interpreter.
  if constexpr (A::kDecoding) {
    if (o.kind > ir::OperandKind::kField) {
      throw Error("durable: operand kind " +
                  std::to_string(static_cast<int>(o.kind)) + " out of range");
    }
  }
  a(o.name, o.value, o.width);
}

template <class A>
void fields(A& a, ir::Instruction& ins) {
  fixed<std::uint16_t>(a, ins.op);
  a(ins.dest, ins.dest2);
  vec(a, ins.srcs, 17);
  opt(a, ins.pred);
  a(ins.pred_negate, ins.state_id);
  vec(a, ins.owners, 4);
  a(ins.step);
}

template <class A>
void fields(A& a, ir::StateObject& st) {
  a(st.id, st.name);
  fixed<std::uint8_t>(a, st.kind);
  a(st.stateful, st.depth, st.key_width, st.value_width);
  vec(a, st.owners, 4);
}

template <class A>
void fields(A& a, ir::HeaderField& f) {
  a(f.name, f.width);
}

template <class A>
void fields(A& a, ir::IrProgram& prog) {
  a(prog.name);
  vec(a, prog.fields, 8);
  vec(a, prog.states, 16);
  vec(a, prog.instrs, 32);
}

// --- placement ----------------------------------------------------------

template <class A>
void fields(A& a, device::ResourceDemand& d) {
  a(d.salus, d.alus, d.hash_units, d.tables, d.gateways, d.special_fns,
    d.sram_bits, d.tcam_bits, d.micro_instrs, d.dsps, d.luts, d.ffs);
}

// steps is a search diagnostic (memo hits report 0), not semantics.
template <class A>
void fields(A& a, place::IntraPlacement& p) {
  a(p.feasible, p.why);
  vec(a, p.instr_idxs, 4);
  vec(a, p.stage_of, 4);
  a(p.stages_used, p.total);
}

template <class A>
void fields(A& a, place::NodeAssignment& n) {
  a(n.tree_node, n.from_block, n.to_block, n.bypass_from);
  mapOf(a, n.on_device, 8, OnDup::kKeepFirst);
  mapOf(a, n.on_bypass, 8, OnDup::kKeepFirst);
}

template <class A>
void fields(A& a, place::Weights& w) {
  a(w.wt, w.wr, w.wp);
}

// steps, elapsed_ms and stats are run diagnostics, not plan semantics:
// steps varies with placement-arena memo warmth even when the chosen plan
// is identical, and fingerprints must not.
template <class A>
void fields(A& a, place::PlacementPlan& plan) {
  a(plan.feasible, plan.failure, plan.resource_limited);
  vec(a, plan.assignments, 16);
  a(plan.gain, plan.ht, plan.hr, plan.hp, plan.weights_used);
}

template <class A>
void fields(A& a, topo::TrafficSource& s) {
  a(s.host, s.volume);
}

template <class A>
void fields(A& a, topo::TrafficSpec& spec) {
  vec(a, spec.sources, 12);
  a(spec.dst_host);
}

// `pool` and `ratio_devices` are borrowed pointers and are not serialized;
// a decoded PlacementOptions has them null.
template <class A>
void fields(A& a, place::PlacementOptions& opts) {
  a(opts.weights, opts.adaptive, opts.prune, opts.fast);
  fixed<std::int64_t>(a, opts.max_steps);
}

// --- health -------------------------------------------------------------

template <class A>
void fields(A& a, topo::FailureEvent& ev) {
  a(ev.version);
  fixed<std::uint8_t>(a, ev.kind);
  a(ev.node, ev.link_a, ev.link_b);
  fixed<std::uint8_t>(a, ev.from);
  fixed<std::uint8_t>(a, ev.to);
}

// A checkpointed deferred heal: its own entry order, and no `to` (every
// deferred event is a heal, so a decoded one keeps the default kUp).
template <class A>
void deferredFields(A& a, DeferredHeal& d) {
  fixed<std::uint8_t>(a, d.kind);
  a(d.node, d.link_a, d.link_b);
  fixed<std::uint8_t>(a, d.from);
  a(d.version);
}

// --- records ------------------------------------------------------------

template <class A>
void fields(A& a, CommitRecord& rec) {
  a(rec.user, rec.prog, rec.plan, rec.traffic, rec.options);
}

template <class A>
void fields(A& a, AbortRecord& rec) {
  a(rec.user);
}

template <class A>
void fields(A& a, RemoveRecord& rec) {
  a(rec.user, rec.lazy);
}

template <class A>
void fields(A& a, HealthRecord& rec) {
  a(rec.event);
}

template <class A>
void fields(A& a, FailoverRecord& rec) {
  a(rec.processed_version, rec.damped_events, rec.tenants);
}

template <class A>
void fields(A& a, MigrateRecord& rec) {
  a(rec.user, rec.plan, rec.old_plan_fp);
}

template <class A>
void fields(A& a, MigrateAbortRecord& rec) {
  a(rec.user, rec.plan);
}

template <class A>
void fields(A& a, CheckpointTenant& t) {
  a(t.user, t.prog, t.plan, t.traffic, t.options, t.plan_fp);
}

template <class A>
void fields(A& a, CheckpointDevice& d) {
  a(d.node);
  vec(a, d.free_stage, 8);
  a(d.free_whole);
}

template <class A>
void fields(A& a, CheckpointRecord& rec) {
  a(rec.next_user, rec.health_version, rec.processed_health_version);
  vec(a, rec.node_health, 1);
  vec(a, rec.link_health, 1);
  vec(a, rec.devices, 8);
  vec(a, rec.tenants, 8);
  mapOf(a, rec.deferred_heals, 16, OnDup::kKeepFirst,
        [&a](DeferredHeal& d) { deferredFields(a, d); });
  mapOf(a, rec.last_disturb, 16, OnDup::kKeepLast);
}

// --- the two archives ---------------------------------------------------

// `a(x, y, ...)` visits each argument in order: a primitive goes straight
// to the wire, anything else through its own `fields` list.
struct Enc {
  static constexpr bool kDecoding = false;
  BinWriter w;

  template <class... T>
  void operator()(T&... v) {
    (one(v), ...);
  }
  std::uint32_t count(std::size_t n, std::size_t /*min_elem*/) {
    w.u32(static_cast<std::uint32_t>(n));
    return static_cast<std::uint32_t>(n);
  }

 private:
  void one(bool& v) { w.boolean(v); }
  void one(std::uint8_t& v) { w.u8(v); }
  void one(std::uint16_t& v) { w.u16(v); }
  void one(std::int32_t& v) { w.i32(v); }
  void one(std::uint32_t& v) { w.u32(v); }
  void one(std::int64_t& v) { w.i64(v); }
  void one(std::uint64_t& v) { w.u64(v); }
  void one(double& v) { w.f64(v); }
  void one(std::string& v) { w.str(v); }
  template <class T>
  void one(T& v) {
    fields(*this, v);
  }
};

struct Dec {
  static constexpr bool kDecoding = true;
  BinReader r;

  template <class... T>
  void operator()(T&... v) {
    (one(v), ...);
  }
  std::uint32_t count(std::size_t /*n*/, std::size_t min_elem) {
    return r.count(min_elem);
  }

 private:
  void one(bool& v) { v = r.boolean(); }
  void one(std::uint8_t& v) { v = r.u8(); }
  void one(std::uint16_t& v) { v = r.u16(); }
  void one(std::int32_t& v) { v = r.i32(); }
  void one(std::uint32_t& v) { v = r.u32(); }
  void one(std::int64_t& v) { v = r.i64(); }
  void one(std::uint64_t& v) { v = r.u64(); }
  void one(double& v) { v = r.f64(); }
  void one(std::string& v) { v = r.str(); }
  template <class T>
  void one(T& v) {
    fields(*this, v);
  }
};

using Bytes = std::vector<std::uint8_t>;
using Payload = std::span<const std::uint8_t>;

template <class T>
Bytes encode(const T& x) {
  Enc enc;
  enc(const_cast<T&>(x));
  return enc.w.take();
}

// Trailing bytes past the last field are ignored.
template <class T>
T decode(Payload payload) {
  Dec dec{BinReader(payload)};
  T x;
  dec(x);
  return x;
}

}  // namespace

std::uint64_t planFingerprint(const place::PlacementPlan& plan) {
  const auto bytes = encode(plan);
  std::uint64_t h = 0xC11C'14C0'F1A6'0001ULL;  // fingerprint domain seed
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

Bytes encodeCommit(const CommitRecord& rec) { return encode(rec); }
CommitRecord decodeCommit(Payload p) { return decode<CommitRecord>(p); }

Bytes encodeAbort(const AbortRecord& rec) { return encode(rec); }
AbortRecord decodeAbort(Payload p) { return decode<AbortRecord>(p); }

Bytes encodeRemove(const RemoveRecord& rec) { return encode(rec); }
RemoveRecord decodeRemove(Payload p) { return decode<RemoveRecord>(p); }

Bytes encodeHealth(const HealthRecord& rec) { return encode(rec); }
HealthRecord decodeHealth(Payload p) { return decode<HealthRecord>(p); }

Bytes encodeFailover(const FailoverRecord& rec) { return encode(rec); }
FailoverRecord decodeFailover(Payload p) {
  return decode<FailoverRecord>(p);
}

Bytes encodeMigrate(const MigrateRecord& rec) { return encode(rec); }
MigrateRecord decodeMigrate(Payload p) { return decode<MigrateRecord>(p); }

Bytes encodeMigrateAbort(const MigrateAbortRecord& rec) { return encode(rec); }
MigrateAbortRecord decodeMigrateAbort(Payload p) {
  return decode<MigrateAbortRecord>(p);
}

Bytes encodeCheckpoint(const CheckpointRecord& rec) { return encode(rec); }
CheckpointRecord decodeCheckpoint(Payload p) {
  return decode<CheckpointRecord>(p);
}

}  // namespace clickinc::durable
