// Precompiled execution plans: the emulator's interpreter fast path.
//
// ir::Interpreter (interp.h) re-decodes every operand on every packet —
// each read is a name lookup into the Param frame or the field map, and
// each instruction allocates a source-value vector. That per-packet
// decode cost is pure overhead once a snippet is deployed: the
// instruction list never changes between packets.
//
// ExecPlan::compile() runs the decode exactly once. Every operand is
// resolved to either an immediate-pool index or a dense *slot* in a flat
// register file (one slot per distinct variable / header-field name), and
// every instruction becomes a fixed-size DecodedInstr record. Execution is
// a tight loop over the records with per-opcode threaded dispatch
// (computed goto on GCC/Clang, an indexed function-pointer handler table
// elsewhere) — no string hashing, no per-instruction allocation, no
// re-decode.
//
// Semantics are bit-identical to the reference interpreter (proved by the
// randomized equivalence tests in tests/test_ir.cc): identical Params
// (including *which* names exist — writes predicated off leave no trace),
// identical header-field maps, identical verdict/mirror/CPU flags and
// ExecStats, identical state-store contents (states are bound lazily, on
// first executed touch, exactly like Interpreter::run).
//
// runBatch() amortizes the remaining per-packet setup (state binding,
// scratch buffers) across a burst — the entry point the emulator's
// sendBurst() and the Fig. 13 bench drive.
//
// Superinstruction fusion (ExecPlanOptions::fuse, on by default): after
// the one-time decode, a peephole pass over the flat DecodedInstr stream
// fuses hot adjacent pairs — cmp+select, ALU+cmp, cmp/land chains,
// hash+mask, back-to-back register-array ops, table-lookup+dependent-ALU
// (the execution-side mirror of the match-action fusion the intra-device
// placement model already exploits) — into single superinstruction
// records with their own threaded-dispatch handlers. A fused record
// performs *both* component writes and counts both instructions in
// ExecStats, so fused plans stay bit-identical to the reference
// interpreter and to unfused plans (asserted by the randomized
// fused-vs-unfused suites in tests/test_ir.cc); only dispatch-loop
// iterations are saved. instrCount() keeps reporting the *source*
// instruction count so the emulator's latency model is unaffected by
// fusion.
//
// Plans are self-contained (they copy the StateObject specs they
// reference), so one plan can serve any StateStore and outlive the
// IrProgram it was compiled from. ExecPlanCache memoizes plans under a
// 128-bit content fingerprint of the compiled segment; core::Service
// threads one cache through the emulator the way PlacementArena is
// threaded through the placer, so replicas and repeated submissions of
// identical templates pay the decode cost once.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/interp.h"
#include "ir/program.h"

namespace clickinc::ir {

// A compile-time-resolved operand reference: either an index into the
// plan's immediate pool (top bit set) or a register-file slot index.
using OpRef = std::uint32_t;
inline constexpr OpRef kOpRefImmBit = 0x8000'0000u;
inline constexpr std::uint32_t opRefIndex(OpRef r) {
  return r & ~kOpRefImmBit;
}
inline constexpr bool opRefIsImm(OpRef r) { return (r & kOpRefImmBit) != 0; }

// One fully-decoded instruction (or fused pair). Fixed 40-byte layout,
// sources live contiguously in the plan's ref pool at [srcs, srcs+nsrc).
//
// For a plain record, `op` is the Opcode value and the sub-op fields are
// unused. For a fused record, `op` is a superinstruction id past the
// Opcode range and the record carries *two* component instructions:
// sub-op A (opcode op_a, sources [0, nsrc_a), writes dest/dest2, state
// `state`) followed by sub-op B (opcode op_b, sources [nsrc_a, nsrc),
// writes dest3, state `state_b`). B's sources are re-read from the
// register file after A's writes land, so A→B dataflow (and aliasing)
// behaves exactly as in sequential execution.
struct DecodedInstr {
  std::uint16_t op = static_cast<std::uint16_t>(Opcode::kNop);
  std::uint16_t nsrc = 0;
  OpRef pred = 0;             // valid iff flags bit 0
  std::uint32_t srcs = 0;     // index of first source in the ref pool
  std::int32_t dest = -1;     // slot, or -1 for no destination
  std::int32_t dest2 = -1;    // hit/miss flag slot of table lookups
  std::int32_t dest3 = -1;    // fused sub-op B's destination slot
  std::int16_t dest_width = 0;   // truncation width; 0 = none
  std::int16_t dest2_width = 0;
  std::int16_t dest3_width = 0;
  std::int16_t state = -1;    // index into the plan's state-spec list
  std::int16_t state_b = -1;  // fused sub-op B's state-spec index
  std::uint8_t flags = 0;  // bit 0: has predicate, bit 1: predicate negated
  std::uint8_t nfused = 1;    // source instructions this record covers
  std::uint8_t nsrc_a = 0;    // sources consumed by fused sub-op A
  std::uint8_t op_a = 0;      // fused sub-op A opcode (an Opcode value)
  std::uint8_t op_b = 0;      // fused sub-op B opcode (an Opcode value)

  static constexpr std::uint8_t kHasPred = 1;
  static constexpr std::uint8_t kPredNegate = 2;
  bool hasPred() const { return (flags & kHasPred) != 0; }
  bool predNegate() const { return (flags & kPredNegate) != 0; }
};

// Plan-compilation knobs. `fuse` enables the superinstruction peephole —
// semantics-preserving (fused plans are bit-identical to unfused ones),
// so it is on by default; the off position exists for the reference
// sweeps and for debugging. The ExecPlanCache keys on the knob, so
// toggling it can never serve a plan compiled under the other setting.
struct ExecPlanOptions {
  bool fuse = true;

  // TEST-ONLY: skip fusePeephole's pred-clobber legality guard so the
  // verifier's negative suites can manufacture corrupted plans (a fused
  // record whose first sub-op writes the shared predicate slot). Such
  // plans are semantically WRONG — never set this outside tests. The
  // ExecPlanCache keys on it like any other option bit.
  bool unsafe_fuse_ignore_pred_guard = false;

  friend bool operator==(const ExecPlanOptions&,
                         const ExecPlanOptions&) = default;
};

// A plan's variable slots bound to one ParamLayout: variable slot s reads
// and writes the packet frame's id ids[s]. The emulator binds each
// deployment entry's plan to its tenant's layout once, at deploy; plans
// stay layout-free, so one cached plan serves every tenant running the
// same segment.
struct ParamBinding {
  std::shared_ptr<const ParamLayout> layout;
  std::vector<std::uint32_t> ids;
};

class ExecPlan {
 public:
  // One register-file slot: a distinct variable or header-field name.
  // Variable slots come first, header fields after.
  // A field's ValueMap hash is computed once here so per-packet binds and
  // write-backs never re-hash key strings.
  struct Slot {
    std::string name;
    std::uint32_t hash = 0;
    bool is_field = false;
  };

  // Compiles the whole program / a segment of it (indices into
  // prog.instrs, in execution order — the same order the emulator's
  // DeploymentEntry carries).
  static ExecPlan compile(const IrProgram& prog, ExecPlanOptions opts = {});
  static ExecPlan compile(const IrProgram& prog,
                          std::span<const int> instr_idxs,
                          ExecPlanOptions opts = {});

  // Reusable per-run buffers (register file, dirty bits, state bindings,
  // hash scratch). Passing the same instance across calls keeps run() and
  // runBatch() allocation-free after warm-up — the emulator owns one and
  // threads it through every deployed snippet. The overloads without a
  // Scratch use a call-local one.
  struct Scratch {
    std::vector<std::uint64_t> regs;
    std::vector<std::uint8_t> dirty;
    std::vector<StateInstance*> bound;
    std::vector<std::uint8_t> bytes;
    std::vector<PacketView*> ptrs;
  };

  // Executes the plan against one packet. Same contract as
  // Interpreter::run: the register file is loaded from pkt.params/fields
  // and the written slots are stored back afterwards. `params` binds the
  // variable slots to the packet frame's layout; null uses the plan's
  // own layout (frames bound elsewhere are remapped by name).
  ExecStats run(StateStore* store, Rng* rng, PacketView& pkt) const;
  ExecStats run(StateStore* store, Rng* rng, PacketView& pkt,
                Scratch& scratch,
                const ParamBinding* params = nullptr) const;

  // Batched execution: state binding and scratch buffers are set up once
  // and reused for every packet. Packets execute in order, so stateful
  // results match back-to-back run() calls exactly.
  ExecStats runBatch(StateStore* store, Rng* rng,
                     std::span<PacketView> pkts) const;
  ExecStats runBatch(StateStore* store, Rng* rng,
                     std::span<PacketView> pkts, Scratch& scratch) const;
  ExecStats runBatch(StateStore* store, Rng* rng,
                     std::span<PacketView* const> pkts) const;
  ExecStats runBatch(StateStore* store, Rng* rng,
                     std::span<PacketView* const> pkts, Scratch& scratch,
                     const ParamBinding* params = nullptr) const;

  // Binds the variable slots to `layout`, which must name every variable
  // of the plan (a tenant's layout covers all its segments).
  ParamBinding bind(std::shared_ptr<const ParamLayout> layout) const;
  // The binding to the plan's own layout: its variable names, sorted.
  const ParamBinding& ownBinding() const;

  // Source instruction count of the compiled segment — the unit the
  // emulator's per-instruction latency model charges. Invariant under
  // fusion (a fused record covers two source instructions).
  std::size_t instrCount() const { return source_count_; }
  // Decoded records actually dispatched (== instrCount() minus fused
  // pairs).
  std::size_t decodedCount() const { return code_.size(); }
  // Adjacent pairs the peephole fused into superinstructions.
  std::size_t fusedPairs() const { return fused_pairs_; }
  // The decoded record stream, for static inspection (the plan verifier's
  // pred-clobber check walks it).
  std::span<const DecodedInstr> code() const { return code_; }
  const ExecPlanOptions& options() const { return options_; }
  std::size_t slotCount() const { return slots_.size(); }
  const StateObject& stateSpec(int idx) const {
    return states_[static_cast<std::size_t>(idx)];
  }

  // 128-bit content fingerprint of a segment — the plan-cache key. Covers
  // everything execution consults: opcodes, predicates, operand kinds /
  // names / widths / immediates, and referenced state specs. Two segments
  // with equal fingerprints compile to interchangeable plans.
  static std::array<std::uint64_t, 2> fingerprint(
      const IrProgram& prog, std::span<const int> instr_idxs);

 private:
  // The superinstruction peephole: greedy left-to-right pairing of
  // adjacent fusable records (see exec_plan.cc for the legality rules).
  void fusePeephole();
  // Renumbers the register file so variable slots come first: the Param
  // bind and write-back loops then run over one dense prefix.
  void varsFirst();

  std::vector<DecodedInstr> code_;
  std::vector<OpRef> refs_;             // source-operand pool
  std::vector<std::uint64_t> imms_;     // immediate pool
  std::vector<Slot> slots_;             // register-file layout
  std::size_t var_count_ = 0;           // slots_[0, var_count_) are vars
  struct OwnParams {
    std::once_flag once;
    ParamBinding binding;
  };
  std::shared_ptr<OwnParams> own_params_ = std::make_shared<OwnParams>();
  std::vector<StateObject> states_;     // copied specs, bound lazily at run
  std::size_t source_count_ = 0;
  std::size_t fused_pairs_ = 0;
  ExecPlanOptions options_;
};

// Fingerprint-keyed plan memo shared across deployments. Like the
// placement memo it is capped and cleared wholesale; entries are
// shared_ptr so a clear never invalidates plans already handed out.
// Keys cover the compile options alongside the content fingerprint, so
// toggling fusion between deployments can never serve a plan compiled
// under the other setting.
class ExecPlanCache {
 public:
  struct Stats {
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    std::uint64_t compiles = 0;
    double hitRate() const {
      return probes == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(probes);
    }
  };

  // Returns the cached plan for this segment and option set, compiling
  // on miss.
  std::shared_ptr<const ExecPlan> get(const IrProgram& prog,
                                      std::span<const int> instr_idxs,
                                      ExecPlanOptions opts = {});

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return plans_.size(); }
  void clear() { plans_.clear(); }

 private:
  // fingerprint[0], fingerprint[1], option bits.
  using Key = std::array<std::uint64_t, 3>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          (k[0] ^ (k[1] * 0x9E3779B97F4A7C15ULL)) + k[2]);
    }
  };
  static constexpr std::size_t kMaxEntries = 1u << 16;

  std::unordered_map<Key, std::shared_ptr<const ExecPlan>, KeyHash> plans_;
  Stats stats_;
};

}  // namespace clickinc::ir
