// Deterministic IR interpreter.
//
// This is the execution substrate standing in for the vendor chip
// simulators (Tofino SDE, BCM TD4 sim, NFP simulator, VNetP4 — see
// DESIGN.md substitutions): emulated devices run their deployed IR
// snippets through this interpreter against a per-device StateStore.
//
// Packet-action opcodes set a *verdict* that is carried in the packet and
// applied by the last INC hop, so distributing a program over several
// devices preserves single-device semantics (first verdict wins, matching
// the disjoint if/elif predicates the frontend generates).
//
// Hot path discipline: no exceptions, no allocation beyond the hash-map
// operations inherent to table state.
//
// This switch interpreter is the *reference path*: it re-decodes every
// operand on every packet and is kept as the executable specification.
// The emulator's default engine is the precompiled fast path in
// exec_plan.h, which is cross-checked against this implementation for
// bit-identical results (see docs/interpreter.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/param_frame.h"
#include "ir/program.h"
#include "ir/valuemap.h"
#include "util/crc.h"

namespace clickinc::ir {

enum class Verdict : std::uint8_t {
  kNone,       // fall through to base forwarding
  kForward,    // explicit fwd()
  kDrop,
  kSendBack,   // bounce to sender (e.g. aggregated result, cache hit reply)
  kMulticast,
};

// The mutable view of one packet as it traverses INC devices. Header
// fields are a flat name-keyed ValueMap (see valuemap.h); Params are a
// slot frame indexed by the tenant's ParamLayout, with a name view for
// callers that set or read them by name (see param_frame.h).
struct PacketView {
  ValueMap fields;    // header fields
  ParamFrame params;  // Param carry-over
  Verdict verdict = Verdict::kNone;
  bool mirrored = false;    // a mirror copy was emitted
  bool cpu_copied = false;  // a copy was punted to the control CPU
  int step = 0;         // next block step expected (§6 replicated blocks)
  int user_id = -1;     // owning INC program; -1 = plain traffic

  std::uint64_t field(const std::string& name) const {
    auto it = fields.find(name);
    return it == fields.end() ? 0 : it->second;
  }
  void setField(const std::string& name, std::uint64_t v) {
    fields[name] = v;
  }
};

// Runtime instance of one StateObject on one device.
class StateInstance {
 public:
  explicit StateInstance(StateObject spec);

  // Register-array interface.
  std::uint64_t regRead(std::uint64_t idx) const;
  void regWrite(std::uint64_t idx, std::uint64_t v);
  std::uint64_t regAdd(std::uint64_t idx, std::uint64_t delta);  // returns new
  void regClear(std::uint64_t idx);

  // Exact / direct table interface.
  bool lookup(std::uint64_t key, std::uint64_t* val) const;
  void insert(std::uint64_t key, std::uint64_t val);
  void erase(std::uint64_t key);

  // Ternary / LPM interface (first match in priority order).
  void insertTernary(std::uint64_t key, std::uint64_t mask, std::uint64_t val,
                     int priority);
  void insertLpm(std::uint64_t prefix, int prefix_len, std::uint64_t val);
  bool matchTernary(std::uint64_t key, std::uint64_t* val) const;

  std::uint64_t entryCount() const;
  const StateObject& spec() const { return spec_; }

 private:
  StateObject spec_;
  std::vector<std::uint64_t> cells_;                    // registers
  std::unordered_map<std::uint64_t, std::uint64_t> map_;  // exact/direct
  struct TEntry {
    std::uint64_t key, mask, val;
    int priority;
  };
  std::vector<TEntry> ternary_;  // kept sorted by descending priority
};

// All state instances living on one device, keyed by state-object name.
// Names are already user-isolated by the synthesizer (kvs_0_mtb style), so
// one flat namespace per device is faithful to the paper's memory model.
class StateStore {
 public:
  StateInstance& instantiate(const StateObject& spec);
  StateInstance* find(const std::string& name);
  const StateInstance* find(const std::string& name) const;
  std::size_t size() const { return by_name_.size(); }
  void remove(const std::string& name);

 private:
  std::unordered_map<std::string, std::unique_ptr<StateInstance>> by_name_;
};

struct ExecStats {
  std::uint64_t executed = 0;  // instructions whose predicate held
  std::uint64_t skipped = 0;   // predicated off
};

class Interpreter {
 public:
  Interpreter(StateStore* store, Rng* rng) : store_(store), rng_(rng) {}

  // Executes a snippet of `prog` against `pkt`. Variables are read from
  // and written to pkt.params by name, so downstream devices see shared
  // temporaries (the Param mechanism of §6).
  ExecStats run(const IrProgram& prog, std::span<const Instruction> instrs,
                PacketView& pkt);

  // Whole-program single-device execution (the reference semantics that
  // distributed placements must match).
  ExecStats runAll(const IrProgram& prog, PacketView& pkt);

 private:
  StateStore* store_;
  Rng* rng_;
};

// Toy invertible 64-bit block cipher backing aes/ecs opcodes in emulation.
std::uint64_t toyEncrypt(std::uint64_t v, std::uint64_t key);
std::uint64_t toyDecrypt(std::uint64_t v, std::uint64_t key);

}  // namespace clickinc::ir
