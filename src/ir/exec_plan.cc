#include "ir/exec_plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/bits.h"
#include "util/crc.h"
#include "util/error.h"

// Threaded dispatch: GCC/Clang support computed goto (&&label), which
// gives each opcode its own indirect-branch site and lets handlers inline
// into the dispatch loop. Elsewhere we fall back to an indexed
// function-pointer handler table.
#if defined(__GNUC__) || defined(__clang__)
#define CLICKINC_THREADED_DISPATCH 1
// The component evaluators must inline into the per-opcode handlers so
// their switch folds away under the handlers' compile-time-constant
// opcode — `inline` alone is a hint GCC sometimes declines for
// functions this large.
#define CLICKINC_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define CLICKINC_THREADED_DISPATCH 0
#define CLICKINC_ALWAYS_INLINE inline
#endif

namespace clickinc::ir {
namespace {

// Every opcode, in exact enum order (static_assert below keeps it
// honest). Drives the jump-label table, the function-pointer table, and
// the handler definitions, so adding an opcode is one list entry plus one
// handler (see docs/interpreter.md).
#define CLICKINC_OPCODES(X)                                                  \
  X(kAssign) X(kAdd) X(kSub) X(kAnd) X(kOr) X(kXor) X(kNot) X(kShl)          \
  X(kShr) X(kSlice) X(kCmpLt) X(kCmpLe) X(kCmpEq) X(kCmpNe) X(kCmpGe)        \
  X(kCmpGt) X(kMin) X(kMax) X(kSelect) X(kLAnd) X(kLOr) X(kLNot) X(kMul)     \
  X(kDiv) X(kMod) X(kFAdd) X(kFSub) X(kFMul) X(kFDiv) X(kFtoI) X(kItoF)      \
  X(kFSqrt) X(kFCmpLt) X(kRegRead) X(kRegWrite) X(kRegAdd) X(kRegClear)      \
  X(kEmtLookup) X(kSemtLookup) X(kSemtWrite) X(kSemtDelete) X(kTmtLookup)    \
  X(kLpmLookup) X(kStmtLookup) X(kStmtWrite) X(kDmtLookup) X(kDrop)          \
  X(kForward) X(kSendBack) X(kCopyToCpu) X(kMirror) X(kMulticast)            \
  X(kHashCrc16) X(kHashCrc32) X(kHashIdentity) X(kChecksum) X(kRandInt)      \
  X(kAesEnc) X(kAesDec) X(kEcsEnc) X(kEcsDec) X(kNop)

// Superinstructions: fused adjacent pairs, appended to the dispatch table
// past the Opcode range. The first ten mirror the hottest pairs of the
// Fig. 13 application programs (MLAgg: cmp.eq+land, shr+cmp.eq, add+add,
// lor+lor, assign+assign, reg.{write,read,clear} runs; KVS:
// hash.crc32+and; DQAcc: cmp.eq+select) with fully specialized handlers;
// the last six are role-generic fallbacks that dispatch their component
// sub-ops through compact evaluators. A fused record performs both
// component writes in program order and counts both instructions in
// ExecStats (nfused), so fusion is invisible except in dispatch count.
#define CLICKINC_SUPEROPS(X)                                                 \
  X(kFuseCmpEqLAnd) X(kFuseShrCmpEq) X(kFuseAddAdd) X(kFuseCmpEqSelect)      \
  X(kFuseLOrLOr) X(kFuseAssignAssign) X(kFuseHashCrc32And)                   \
  X(kFuseRegWriteRegWrite) X(kFuseRegReadRegRead) X(kFuseRegClearRegClear)   \
  X(kFusePair) X(kFuseHashAlu) X(kFuseRegAlu) X(kFuseAluReg)                 \
  X(kFuseRegReg) X(kFuseLookupAlu)

#define CLICKINC_EXECOPS(X) CLICKINC_OPCODES(X) CLICKINC_SUPEROPS(X)

#define CLICKINC_COUNT_OP(op) +1
constexpr std::size_t kOpcodeCount = 0 CLICKINC_OPCODES(CLICKINC_COUNT_OP);
constexpr std::size_t kExecOpCount = 0 CLICKINC_EXECOPS(CLICKINC_COUNT_OP);
#undef CLICKINC_COUNT_OP
static_assert(kOpcodeCount == static_cast<std::size_t>(Opcode::kNop) + 1,
              "opcode dispatch list out of sync with the Opcode enum");

// Dispatch ids of the superinstructions: contiguous after the last
// Opcode, in exact CLICKINC_SUPEROPS order (the label table is generated
// from the same list).
enum SuperOpId : std::uint16_t {
  kSuperOpBase = static_cast<std::uint16_t>(Opcode::kNop),
#define CLICKINC_SUPEROP_ID(op) op,
  CLICKINC_SUPEROPS(CLICKINC_SUPEROP_ID)
#undef CLICKINC_SUPEROP_ID
  kSuperOpEnd
};
static_assert(static_cast<std::size_t>(kSuperOpEnd) == kExecOpCount,
              "superop ids out of sync with the dispatch list");

float asF32(std::uint64_t bits) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}
std::uint64_t fromF32(float f) {
  return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(f));
}

// Per-run execution context: flat register file plus lazily-bound state
// instances. Everything the handlers touch is a raw pointer — no map
// lookups on the hot path.
struct Ctx {
  const ExecPlan* plan = nullptr;
  const DecodedInstr* code = nullptr;
  std::size_t ncode = 0;
  const OpRef* refs = nullptr;
  const std::uint64_t* imms = nullptr;
  StateStore* store = nullptr;
  Rng* rng = nullptr;
  PacketView* pkt = nullptr;
  std::uint64_t* regs = nullptr;
  std::uint8_t* dirty = nullptr;
  StateInstance** bound = nullptr;
  std::vector<std::uint8_t>* bytes = nullptr;  // hash scratch, reused
  ExecStats stats;
};

inline std::uint64_t rdRef(const Ctx& c, OpRef r) {
  const std::uint32_t i = opRefIndex(r);
  return opRefIsImm(r) ? c.imms[i] : c.regs[i];
}

// Source k of the current instruction.
inline std::uint64_t src(const Ctx& c, const DecodedInstr& d, unsigned k) {
  return rdRef(c, c.refs[d.srcs + k]);
}

inline void wr(Ctx& c, std::int32_t slot, std::int16_t width,
               std::uint64_t v) {
  if (slot < 0) return;
  c.regs[slot] = width > 0 ? truncToWidth(v, width) : v;
  c.dirty[slot] = 1;
}

inline void wrDest(Ctx& c, const DecodedInstr& d, std::uint64_t v) {
  wr(c, d.dest, d.dest_width, v);
}

// Lazily binds a state instance — on first *executed* touch, exactly like
// the reference interpreter, so a store never grows instances for
// instructions that were predicated off.
inline StateInstance* stateAt(Ctx& c, std::int16_t idx) {
  if (idx < 0) return nullptr;
  StateInstance*& b = c.bound[idx];
  if (b == nullptr) b = &c.store->instantiate(c.plan->stateSpec(idx));
  return b;
}

inline StateInstance* stateOf(Ctx& c, const DecodedInstr& d) {
  return stateAt(c, d.state);
}

inline void setVerdict(Ctx& c, Verdict v) {
  if (c.pkt->verdict == Verdict::kNone) c.pkt->verdict = v;
}

// Serializes sources [base, base+n) little-endian byte-wise (matching the
// reference hashValues) into the reused scratch buffer, then hashes.
template <typename HashFn>
std::uint64_t hashSrcs(Ctx& c, const DecodedInstr& d, unsigned base,
                       unsigned n, HashFn fn) {
  auto& bytes = *c.bytes;
  bytes.clear();
  for (unsigned k = 0; k < n; ++k) {
    const std::uint64_t v = src(c, d, base + k);
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return fn(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

// --- component evaluators ------------------------------------------------
//
// The single executable copy of every pure-ALU and register-array
// opcode's semantics on the compiled path (the other copy is the
// reference interpreter switch in interp.cc). The plain per-opcode
// handlers below delegate here with a compile-time-constant opcode —
// the switch constant-folds under inlining, so their codegen is the
// open-coded body — and the fused superinstructions call the same
// evaluators with runtime sub-opcodes. Sources are read from
// [base, base+n) of the record's ref range.

CLICKINC_ALWAYS_INLINE std::uint64_t aluEval(Ctx& c, const DecodedInstr& d,
                             std::uint8_t op8, unsigned base, unsigned n) {
  auto S = [&](unsigned k) { return src(c, d, base + k); };
  switch (static_cast<Opcode>(op8)) {
    case Opcode::kAssign: return S(0);
    case Opcode::kAdd: return S(0) + S(1);
    case Opcode::kSub: return S(0) - S(1);
    case Opcode::kAnd: return S(0) & S(1);
    case Opcode::kOr: return S(0) | S(1);
    case Opcode::kXor: return S(0) ^ S(1);
    case Opcode::kNot: return ~S(0);
    case Opcode::kShl: {
      const std::uint64_t s1 = S(1);
      return s1 >= 64 ? 0 : S(0) << s1;
    }
    case Opcode::kShr: {
      const std::uint64_t s1 = S(1);
      return s1 >= 64 ? 0 : S(0) >> s1;
    }
    case Opcode::kSlice: {
      const std::uint64_t s1 = S(1);
      return (s1 >= 64 ? 0 : S(0) >> s1) & lowMask(static_cast<int>(S(2)));
    }
    case Opcode::kCmpLt: return S(0) < S(1) ? 1 : 0;
    case Opcode::kCmpLe: return S(0) <= S(1) ? 1 : 0;
    case Opcode::kCmpEq: return S(0) == S(1) ? 1 : 0;
    case Opcode::kCmpNe: return S(0) != S(1) ? 1 : 0;
    case Opcode::kCmpGe: return S(0) >= S(1) ? 1 : 0;
    case Opcode::kCmpGt: return S(0) > S(1) ? 1 : 0;
    case Opcode::kMin: return std::min(S(0), S(1));
    case Opcode::kMax: return std::max(S(0), S(1));
    case Opcode::kSelect: return (S(0) & 1) ? S(1) : S(2);
    case Opcode::kLAnd: return (S(0) & 1) & (S(1) & 1);
    case Opcode::kLOr: return (S(0) & 1) | (S(1) & 1);
    case Opcode::kLNot: return (S(0) & 1) ^ 1;
    case Opcode::kMul: return S(0) * S(1);
    case Opcode::kDiv: {
      const std::uint64_t s1 = S(1);
      return s1 == 0 ? 0 : S(0) / s1;
    }
    case Opcode::kMod: {
      const std::uint64_t s1 = S(1);
      return s1 == 0 ? 0 : S(0) % s1;
    }
    case Opcode::kFAdd: return fromF32(asF32(S(0)) + asF32(S(1)));
    case Opcode::kFSub: return fromF32(asF32(S(0)) - asF32(S(1)));
    case Opcode::kFMul: return fromF32(asF32(S(0)) * asF32(S(1)));
    case Opcode::kFDiv: {
      const float b = asF32(S(1));
      return b == 0.0f ? 0 : fromF32(asF32(S(0)) / b);
    }
    case Opcode::kFtoI: {
      const float scale = n > 1 ? static_cast<float>(S(1)) : 1.0f;
      return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(asF32(S(0)) * scale));
    }
    case Opcode::kItoF: {
      const float scale = n > 1 ? static_cast<float>(S(1)) : 1.0f;
      return fromF32(
          static_cast<float>(static_cast<std::int64_t>(S(0))) / scale);
    }
    case Opcode::kFSqrt: {
      const float f = asF32(S(0));
      return f < 0 ? 0 : fromF32(std::sqrt(f));
    }
    case Opcode::kFCmpLt: return asF32(S(0)) < asF32(S(1)) ? 1 : 0;
    case Opcode::kHashIdentity: return S(0);
    case Opcode::kChecksum: {
      std::uint64_t sum = 0;
      for (unsigned k = 0; k < n; ++k) {
        const std::uint64_t v = S(k);
        sum += (v & 0xFFFF) + ((v >> 16) & 0xFFFF) + ((v >> 32) & 0xFFFF) +
               ((v >> 48) & 0xFFFF);
      }
      while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
      return (~sum) & 0xFFFF;
    }
    case Opcode::kAesEnc:
    case Opcode::kEcsEnc:
      return toyEncrypt(S(0), n > 1 ? S(1) : 0);
    case Opcode::kAesDec:
    case Opcode::kEcsDec:
      return toyDecrypt(S(0), n > 1 ? S(1) : 0);
    default: return 0;  // unreachable: the ALU set is closed
  }
}

CLICKINC_ALWAYS_INLINE void regExec(Ctx& c, const DecodedInstr& d, std::uint8_t op8,
                    std::int16_t state_idx, unsigned base,
                    std::int32_t dest, std::int16_t dest_width) {
  StateInstance* st = stateAt(c, state_idx);
  switch (static_cast<Opcode>(op8)) {
    case Opcode::kRegRead:
      wr(c, dest, dest_width, st ? st->regRead(src(c, d, base)) : 0);
      break;
    case Opcode::kRegWrite:
      if (st) st->regWrite(src(c, d, base), src(c, d, base + 1));
      break;
    case Opcode::kRegAdd:
      wr(c, dest, dest_width,
         st ? st->regAdd(src(c, d, base), src(c, d, base + 1)) : 0);
      break;
    case Opcode::kRegClear:
      if (st) st->regClear(src(c, d, base));
      break;
    default: break;  // unreachable
  }
}

// --- per-opcode handlers (bit-identical to the Interpreter switch) ---

#define H(name)                                  \
  inline void h_##name([[maybe_unused]] Ctx& c,  \
                       [[maybe_unused]] const DecodedInstr& d)

// Pure-ALU and register-array handlers delegate to the component
// evaluators with a constant opcode (folds to the open-coded body).
#define H_ALU(name)                                                       \
  H(name) {                                                               \
    wrDest(c, d,                                                          \
           aluEval(c, d, static_cast<std::uint8_t>(Opcode::name), 0,      \
                   d.nsrc));                                              \
  }
#define H_REG(name)                                                       \
  H(name) {                                                               \
    regExec(c, d, static_cast<std::uint8_t>(Opcode::name), d.state, 0,    \
            d.dest, d.dest_width);                                        \
  }

H_ALU(kAssign) H_ALU(kAdd) H_ALU(kSub) H_ALU(kAnd) H_ALU(kOr)
H_ALU(kXor) H_ALU(kNot) H_ALU(kShl) H_ALU(kShr) H_ALU(kSlice)
H_ALU(kCmpLt) H_ALU(kCmpLe) H_ALU(kCmpEq) H_ALU(kCmpNe) H_ALU(kCmpGe)
H_ALU(kCmpGt) H_ALU(kMin) H_ALU(kMax) H_ALU(kSelect) H_ALU(kLAnd)
H_ALU(kLOr) H_ALU(kLNot) H_ALU(kMul) H_ALU(kDiv) H_ALU(kMod)
H_ALU(kFAdd) H_ALU(kFSub) H_ALU(kFMul) H_ALU(kFDiv) H_ALU(kFtoI)
H_ALU(kItoF) H_ALU(kFSqrt) H_ALU(kFCmpLt)
H_ALU(kHashIdentity) H_ALU(kChecksum)
H_ALU(kAesEnc) H_ALU(kAesDec) H_ALU(kEcsEnc) H_ALU(kEcsDec)
H_REG(kRegRead) H_REG(kRegWrite) H_REG(kRegAdd) H_REG(kRegClear)

#undef H_ALU
#undef H_REG

inline void lookupCommon(Ctx& c, const DecodedInstr& d) {
  auto* st = stateOf(c, d);
  std::uint64_t val = 0;
  const bool hit = st != nullptr && st->lookup(src(c, d, 0), &val);
  wr(c, d.dest, d.dest_width, hit ? val : 0);
  wr(c, d.dest2, d.dest2_width, hit ? 1 : 0);
}
H(kEmtLookup) { lookupCommon(c, d); }
H(kSemtLookup) { lookupCommon(c, d); }
H(kTmtLookup) { lookupCommon(c, d); }
H(kLpmLookup) { lookupCommon(c, d); }
H(kStmtLookup) { lookupCommon(c, d); }
H(kDmtLookup) { lookupCommon(c, d); }
H(kSemtWrite) {
  if (auto* st = stateOf(c, d)) st->insert(src(c, d, 0), src(c, d, 1));
}
H(kStmtWrite) {
  if (auto* st = stateOf(c, d)) st->insert(src(c, d, 0), src(c, d, 1));
}
H(kSemtDelete) {
  if (auto* st = stateOf(c, d)) st->erase(src(c, d, 0));
}
H(kDrop) { setVerdict(c, Verdict::kDrop); }
H(kForward) { setVerdict(c, Verdict::kForward); }
H(kSendBack) { setVerdict(c, Verdict::kSendBack); }
H(kCopyToCpu) { c.pkt->cpu_copied = true; }
H(kMirror) { c.pkt->mirrored = true; }
H(kMulticast) { setVerdict(c, Verdict::kMulticast); }
H(kHashCrc16) {
  wrDest(c, d, hashSrcs(c, d, 0, d.nsrc, [](auto span) {
    return static_cast<std::uint64_t>(crc16(span));
  }));
}
H(kHashCrc32) {
  wrDest(c, d, hashSrcs(c, d, 0, d.nsrc, [](auto span) {
    return static_cast<std::uint64_t>(crc32(span));
  }));
}
H(kRandInt) {
  const std::uint64_t bound = d.nsrc == 0 ? 0 : src(c, d, 0);
  std::uint64_t r = c.rng ? c.rng->next() : 0;
  if (bound > 0) r %= bound;
  wrDest(c, d, r);
}
H(kNop) {}

// --- superinstruction handlers ------------------------------------------
//
// Specialized hot pairs first (no inner dispatch at all), then the
// role-generic fallbacks. Every handler executes sub-op A (writes
// dest/dest2) before reading sub-op B's sources, so a B source naming
// A's destination slot picks up the fresh value — sequential semantics.

H(kFuseCmpEqLAnd) {
  wr(c, d.dest, d.dest_width, src(c, d, 0) == src(c, d, 1) ? 1 : 0);
  wr(c, d.dest3, d.dest3_width, (src(c, d, 2) & 1) & (src(c, d, 3) & 1));
}
H(kFuseShrCmpEq) {
  const std::uint64_t s1 = src(c, d, 1);
  wr(c, d.dest, d.dest_width, s1 >= 64 ? 0 : src(c, d, 0) >> s1);
  wr(c, d.dest3, d.dest3_width, src(c, d, 2) == src(c, d, 3) ? 1 : 0);
}
H(kFuseAddAdd) {
  wr(c, d.dest, d.dest_width, src(c, d, 0) + src(c, d, 1));
  wr(c, d.dest3, d.dest3_width, src(c, d, 2) + src(c, d, 3));
}
H(kFuseCmpEqSelect) {
  wr(c, d.dest, d.dest_width, src(c, d, 0) == src(c, d, 1) ? 1 : 0);
  wr(c, d.dest3, d.dest3_width,
     (src(c, d, 2) & 1) ? src(c, d, 3) : src(c, d, 4));
}
H(kFuseLOrLOr) {
  wr(c, d.dest, d.dest_width, (src(c, d, 0) & 1) | (src(c, d, 1) & 1));
  wr(c, d.dest3, d.dest3_width, (src(c, d, 2) & 1) | (src(c, d, 3) & 1));
}
H(kFuseAssignAssign) {
  wr(c, d.dest, d.dest_width, src(c, d, 0));
  wr(c, d.dest3, d.dest3_width, src(c, d, 1));
}
H(kFuseHashCrc32And) {
  wr(c, d.dest, d.dest_width, hashSrcs(c, d, 0, d.nsrc_a, [](auto span) {
       return static_cast<std::uint64_t>(crc32(span));
     }));
  wr(c, d.dest3, d.dest3_width,
     src(c, d, d.nsrc_a) & src(c, d, d.nsrc_a + 1u));
}
H(kFuseRegWriteRegWrite) {
  if (auto* st = stateAt(c, d.state)) {
    st->regWrite(src(c, d, 0), src(c, d, 1));
  }
  if (auto* st = stateAt(c, d.state_b)) {
    st->regWrite(src(c, d, 2), src(c, d, 3));
  }
}
H(kFuseRegReadRegRead) {
  auto* sa = stateAt(c, d.state);
  wr(c, d.dest, d.dest_width, sa ? sa->regRead(src(c, d, 0)) : 0);
  auto* sb = stateAt(c, d.state_b);
  wr(c, d.dest3, d.dest3_width, sb ? sb->regRead(src(c, d, 1)) : 0);
}
H(kFuseRegClearRegClear) {
  if (auto* st = stateAt(c, d.state)) st->regClear(src(c, d, 0));
  if (auto* st = stateAt(c, d.state_b)) st->regClear(src(c, d, 1));
}
H(kFusePair) {
  wr(c, d.dest, d.dest_width, aluEval(c, d, d.op_a, 0, d.nsrc_a));
  wr(c, d.dest3, d.dest3_width,
     aluEval(c, d, d.op_b, d.nsrc_a, d.nsrc - d.nsrc_a));
}
H(kFuseHashAlu) {
  const std::uint64_t h =
      static_cast<Opcode>(d.op_a) == Opcode::kHashCrc16
          ? hashSrcs(c, d, 0, d.nsrc_a,
                     [](auto span) {
                       return static_cast<std::uint64_t>(crc16(span));
                     })
          : hashSrcs(c, d, 0, d.nsrc_a, [](auto span) {
              return static_cast<std::uint64_t>(crc32(span));
            });
  wr(c, d.dest, d.dest_width, h);
  wr(c, d.dest3, d.dest3_width,
     aluEval(c, d, d.op_b, d.nsrc_a, d.nsrc - d.nsrc_a));
}
H(kFuseRegAlu) {
  regExec(c, d, d.op_a, d.state, 0, d.dest, d.dest_width);
  wr(c, d.dest3, d.dest3_width,
     aluEval(c, d, d.op_b, d.nsrc_a, d.nsrc - d.nsrc_a));
}
H(kFuseAluReg) {
  wr(c, d.dest, d.dest_width, aluEval(c, d, d.op_a, 0, d.nsrc_a));
  regExec(c, d, d.op_b, d.state_b, d.nsrc_a, d.dest3, d.dest3_width);
}
H(kFuseRegReg) {
  regExec(c, d, d.op_a, d.state, 0, d.dest, d.dest_width);
  regExec(c, d, d.op_b, d.state_b, d.nsrc_a, d.dest3, d.dest3_width);
}
H(kFuseLookupAlu) {
  lookupCommon(c, d);  // key = src 0, writes dest (value) + dest2 (hit)
  wr(c, d.dest3, d.dest3_width,
     aluEval(c, d, d.op_b, d.nsrc_a, d.nsrc - d.nsrc_a));
}

#undef H

#if !CLICKINC_THREADED_DISPATCH
using Handler = void (*)(Ctx&, const DecodedInstr&);
constexpr Handler kHandlers[kExecOpCount] = {
#define CLICKINC_HANDLER_ENTRY(op) &h_##op,
    CLICKINC_EXECOPS(CLICKINC_HANDLER_ENTRY)
#undef CLICKINC_HANDLER_ENTRY
};
#endif

// Executes the whole decoded sequence for the packet bound in `c`.
void execPacket(Ctx& c) {
  const DecodedInstr* code = c.code;
  const std::size_t n = c.ncode;
#if CLICKINC_THREADED_DISPATCH
  static const void* const kLabels[kExecOpCount] = {
#define CLICKINC_LABEL_ENTRY(op) &&L_##op,
      CLICKINC_EXECOPS(CLICKINC_LABEL_ENTRY)
#undef CLICKINC_LABEL_ENTRY
  };
#endif
  for (std::size_t ip = 0; ip < n; ++ip) {
    const DecodedInstr& d = code[ip];
    if (d.hasPred()) {
      const bool hold = (rdRef(c, d.pred) & 1) != 0;
      if (hold == d.predNegate()) {
        // A fused record stands for nfused source instructions, all
        // sharing the predicate — count them all (ExecStats parity with
        // the reference interpreter).
        c.stats.skipped += d.nfused;
        continue;
      }
    }
    c.stats.executed += d.nfused;
#if CLICKINC_THREADED_DISPATCH
    goto* kLabels[static_cast<std::size_t>(d.op)];
#define CLICKINC_LABEL_CASE(op) \
  L_##op : h_##op(c, d);        \
  continue;
    CLICKINC_EXECOPS(CLICKINC_LABEL_CASE)
#undef CLICKINC_LABEL_CASE
#else
    kHandlers[static_cast<std::size_t>(d.op)](c, d);
#endif
  }
}

// --- fusion legality ----------------------------------------------------

// Role a decoded record can play in a fused pair. kAlu ops are pure
// register-file functions (the aluEval set); kHash/kReg/kLookup need
// scratch or state access and get dedicated component evaluators. A
// record outside every role (packet actions, table writes, RandInt —
// whose shared-Rng draw order the emulator reasons about per source
// instruction — and anything with an unexpected dest2/state) never
// fuses.
enum class FuseRole : std::uint8_t { kNone, kAlu, kHash, kReg, kLookup };

bool aluFusable(Opcode op) {
  switch (op) {
    case Opcode::kAssign:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kNot:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSlice:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpGe:
    case Opcode::kCmpGt:
    case Opcode::kMin:
    case Opcode::kMax:
    case Opcode::kSelect:
    case Opcode::kLAnd:
    case Opcode::kLOr:
    case Opcode::kLNot:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kFAdd:
    case Opcode::kFSub:
    case Opcode::kFMul:
    case Opcode::kFDiv:
    case Opcode::kFtoI:
    case Opcode::kItoF:
    case Opcode::kFSqrt:
    case Opcode::kFCmpLt:
    case Opcode::kHashIdentity:
    case Opcode::kChecksum:
    case Opcode::kAesEnc:
    case Opcode::kAesDec:
    case Opcode::kEcsEnc:
    case Opcode::kEcsDec:
      return true;
    default:
      return false;
  }
}

FuseRole roleOf(const DecodedInstr& d) {
  const Opcode op = static_cast<Opcode>(d.op);
  switch (op) {
    case Opcode::kHashCrc16:
    case Opcode::kHashCrc32:
      return d.state < 0 && d.dest2 < 0 ? FuseRole::kHash : FuseRole::kNone;
    case Opcode::kRegRead:
    case Opcode::kRegWrite:
    case Opcode::kRegAdd:
    case Opcode::kRegClear:
      return d.dest2 < 0 ? FuseRole::kReg : FuseRole::kNone;
    case Opcode::kEmtLookup:
    case Opcode::kSemtLookup:
    case Opcode::kTmtLookup:
    case Opcode::kLpmLookup:
    case Opcode::kStmtLookup:
    case Opcode::kDmtLookup:
      return FuseRole::kLookup;
    default:
      return aluFusable(op) && d.state < 0 && d.dest2 < 0 ? FuseRole::kAlu
                                                          : FuseRole::kNone;
  }
}

// Dispatch id of the superinstruction for (a, b), or 0 when the pair is
// not fusable. Specialized pairs (exact opcode + arity match) beat the
// role-generic fallbacks.
std::uint16_t superFor(const DecodedInstr& a, const DecodedInstr& b) {
  const FuseRole ra = roleOf(a);
  const FuseRole rb = roleOf(b);
  if (ra == FuseRole::kNone) return 0;
  const Opcode oa = static_cast<Opcode>(a.op);
  const Opcode ob = static_cast<Opcode>(b.op);
  if (rb == FuseRole::kAlu) {
    switch (ra) {
      case FuseRole::kAlu:
        if (a.nsrc == 2 && b.nsrc == 2) {
          if (oa == Opcode::kCmpEq && ob == Opcode::kLAnd) {
            return kFuseCmpEqLAnd;
          }
          if (oa == Opcode::kShr && ob == Opcode::kCmpEq) {
            return kFuseShrCmpEq;
          }
          if (oa == Opcode::kAdd && ob == Opcode::kAdd) return kFuseAddAdd;
          if (oa == Opcode::kLOr && ob == Opcode::kLOr) return kFuseLOrLOr;
        }
        if (oa == Opcode::kCmpEq && ob == Opcode::kSelect && a.nsrc == 2 &&
            b.nsrc == 3) {
          return kFuseCmpEqSelect;
        }
        if (oa == Opcode::kAssign && ob == Opcode::kAssign && a.nsrc == 1 &&
            b.nsrc == 1) {
          return kFuseAssignAssign;
        }
        return kFusePair;
      case FuseRole::kHash:
        if (oa == Opcode::kHashCrc32 && ob == Opcode::kAnd && b.nsrc == 2) {
          return kFuseHashCrc32And;
        }
        return kFuseHashAlu;
      case FuseRole::kReg:
        return kFuseRegAlu;
      case FuseRole::kLookup:
        return kFuseLookupAlu;
      default:
        return 0;
    }
  }
  if (rb == FuseRole::kReg) {
    if (ra == FuseRole::kReg) {
      if (oa == ob) {
        if (oa == Opcode::kRegWrite) return kFuseRegWriteRegWrite;
        if (oa == Opcode::kRegRead) return kFuseRegReadRegRead;
        if (oa == Opcode::kRegClear) return kFuseRegClearRegClear;
      }
      return kFuseRegReg;
    }
    if (ra == FuseRole::kAlu) return kFuseAluReg;
  }
  return 0;
}

}  // namespace

ExecPlan ExecPlan::compile(const IrProgram& prog, ExecPlanOptions opts) {
  std::vector<int> idxs(prog.instrs.size());
  std::iota(idxs.begin(), idxs.end(), 0);
  return compile(prog, idxs, opts);
}

ExecPlan ExecPlan::compile(const IrProgram& prog,
                           std::span<const int> instr_idxs,
                           ExecPlanOptions opts) {
  ExecPlan p;
  p.options_ = opts;
  p.source_count_ = instr_idxs.size();
  p.code_.reserve(instr_idxs.size());
  std::unordered_map<std::string, std::uint32_t> vars, fields;
  std::unordered_map<int, std::int16_t> state_of;  // program id -> plan idx

  auto slotFor = [&](const Operand& o) -> std::uint32_t {
    auto& tab = o.isField() ? fields : vars;
    auto it = tab.find(o.name);
    if (it != tab.end()) return it->second;
    const auto s = static_cast<std::uint32_t>(p.slots_.size());
    p.slots_.push_back(
        {o.name, o.isField() ? ValueMap::hashKey(o.name) : 0, o.isField()});
    tab.emplace(o.name, s);
    return s;
  };
  auto refFor = [&](const Operand& o) -> OpRef {
    if (o.isConst() || o.isNone()) {
      const auto i = static_cast<std::uint32_t>(p.imms_.size());
      p.imms_.push_back(o.isConst() ? o.value : 0);
      return kOpRefImmBit | i;
    }
    return slotFor(o);
  };

  for (int idx : instr_idxs) {
    const Instruction& ins = prog.instrs[static_cast<std::size_t>(idx)];
    DecodedInstr d;
    d.op = static_cast<std::uint16_t>(ins.op);
    if (ins.pred) {
      d.flags = DecodedInstr::kHasPred;
      if (ins.pred_negate) d.flags |= DecodedInstr::kPredNegate;
      d.pred = refFor(*ins.pred);
    }
    d.srcs = static_cast<std::uint32_t>(p.refs_.size());
    d.nsrc = static_cast<std::uint16_t>(ins.srcs.size());
    for (const Operand& s : ins.srcs) p.refs_.push_back(refFor(s));
    if (!ins.dest.isNone()) {
      d.dest = static_cast<std::int32_t>(slotFor(ins.dest));
      d.dest_width = static_cast<std::int16_t>(std::max(ins.dest.width, 0));
    }
    if (!ins.dest2.isNone()) {
      d.dest2 = static_cast<std::int32_t>(slotFor(ins.dest2));
      d.dest2_width = static_cast<std::int16_t>(std::max(ins.dest2.width, 0));
    }
    if (ins.state_id >= 0 &&
        ins.state_id < static_cast<int>(prog.states.size())) {
      auto [it, inserted] = state_of.try_emplace(
          ins.state_id, static_cast<std::int16_t>(p.states_.size()));
      if (inserted) {
        p.states_.push_back(
            prog.states[static_cast<std::size_t>(ins.state_id)]);
      }
      d.state = it->second;
    }
    p.code_.push_back(d);
  }
  p.varsFirst();
  if (opts.fuse) p.fusePeephole();
  return p;
}

void ExecPlan::varsFirst() {
  std::vector<std::uint32_t> to(slots_.size());
  std::uint32_t next = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].is_field) to[s] = next++;
  }
  var_count_ = next;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].is_field) to[s] = next++;
  }
  std::vector<Slot> slots(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    slots[to[s]] = std::move(slots_[s]);
  }
  slots_ = std::move(slots);
  const auto slotRef = [&](OpRef r) { return opRefIsImm(r) ? r : to[r]; };
  const auto slotDest = [&](std::int32_t d) {
    return d < 0 ? d
                 : static_cast<std::int32_t>(to[static_cast<std::size_t>(d)]);
  };
  for (OpRef& r : refs_) r = slotRef(r);
  for (DecodedInstr& d : code_) {
    if (d.hasPred()) d.pred = slotRef(d.pred);
    d.dest = slotDest(d.dest);
    d.dest2 = slotDest(d.dest2);
  }
}

ParamBinding ExecPlan::bind(std::shared_ptr<const ParamLayout> layout) const {
  ParamBinding b;
  b.ids.reserve(var_count_);
  for (std::size_t v = 0; v < var_count_; ++v) {
    const std::uint32_t id = layout->idOf(slots_[v].name);
    CLICKINC_CHECK(id != ParamLayout::kNoId,
                   "param layout lacks plan variable " + slots_[v].name);
    b.ids.push_back(id);
  }
  b.layout = std::move(layout);
  return b;
}

const ParamBinding& ExecPlan::ownBinding() const {
  // Built on first use: deployed plans run through their tenant's
  // binding and never need one.
  std::call_once(own_params_->once, [this] {
    std::vector<std::string> names;
    names.reserve(var_count_);
    for (std::size_t v = 0; v < var_count_; ++v) {
      names.push_back(slots_[v].name);
    }
    own_params_->binding = bind(ParamLayout::of(std::move(names)));
  });
  return own_params_->binding;
}

// Greedy left-to-right pairing of adjacent records. Legality:
//  - both records carry the *same* predicate (same ref value — slot, or
//    equal immediates — and same negate bit), so one gate decides both;
//  - the first record does not write the shared predicate slot (the
//    reference evaluates B's predicate after A executed);
//  - both records' opcodes fall into fusable roles (see superFor).
// A fused record keeps both component writes and both ExecStats counts,
// so the transformation is unobservable outside dispatch counts.
void ExecPlan::fusePeephole() {
  constexpr std::uint8_t kPredMask =
      DecodedInstr::kHasPred | DecodedInstr::kPredNegate;
  auto samePred = [&](const DecodedInstr& a, const DecodedInstr& b) {
    if ((a.flags & kPredMask) != (b.flags & kPredMask)) return false;
    if (!a.hasPred()) return true;
    if (a.pred == b.pred) return true;
    if (opRefIsImm(a.pred) && opRefIsImm(b.pred)) {
      return imms_[opRefIndex(a.pred)] == imms_[opRefIndex(b.pred)];
    }
    return false;
  };
  auto clobbersPred = [](const DecodedInstr& a) {
    if (!a.hasPred() || opRefIsImm(a.pred)) return false;
    const auto slot = static_cast<std::int32_t>(opRefIndex(a.pred));
    return a.dest == slot || a.dest2 == slot;
  };

  std::vector<DecodedInstr> out;
  out.reserve(code_.size());
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const DecodedInstr& a = code_[i];
    if (i + 1 < code_.size()) {
      const DecodedInstr& b = code_[i + 1];
      const bool legal =
          samePred(a, b) &&
          (options_.unsafe_fuse_ignore_pred_guard || !clobbersPred(a)) &&
          a.nsrc <= 0xFF && b.nsrc <= 0xFF;
      const std::uint16_t super = legal ? superFor(a, b) : 0;
      if (super != 0) {
        // Source refs of adjacent records are contiguous by construction.
        CLICKINC_CHECK(b.srcs == a.srcs + a.nsrc,
                       "fused pair with non-contiguous source refs");
        DecodedInstr f;
        f.op = super;
        f.flags = a.flags;
        f.pred = a.pred;
        f.nfused = 2;
        f.srcs = a.srcs;
        f.nsrc = static_cast<std::uint16_t>(a.nsrc + b.nsrc);
        f.nsrc_a = static_cast<std::uint8_t>(a.nsrc);
        f.op_a = static_cast<std::uint8_t>(a.op);
        f.op_b = static_cast<std::uint8_t>(b.op);
        f.dest = a.dest;
        f.dest_width = a.dest_width;
        f.dest2 = a.dest2;
        f.dest2_width = a.dest2_width;
        f.dest3 = b.dest;
        f.dest3_width = b.dest_width;
        f.state = a.state;
        f.state_b = b.state;
        out.push_back(f);
        ++fused_pairs_;
        ++i;
        continue;
      }
    }
    out.push_back(a);
  }
  code_ = std::move(out);
}

ExecStats ExecPlan::run(StateStore* store, Rng* rng, PacketView& pkt) const {
  Scratch scratch;
  return run(store, rng, pkt, scratch);
}

ExecStats ExecPlan::run(StateStore* store, Rng* rng, PacketView& pkt,
                        Scratch& scratch, const ParamBinding* params) const {
  PacketView* p = &pkt;
  return runBatch(store, rng, std::span<PacketView* const>(&p, 1), scratch,
                  params);
}

ExecStats ExecPlan::runBatch(StateStore* store, Rng* rng,
                             std::span<PacketView> pkts) const {
  Scratch scratch;
  return runBatch(store, rng, pkts, scratch);
}

ExecStats ExecPlan::runBatch(StateStore* store, Rng* rng,
                             std::span<PacketView> pkts,
                             Scratch& scratch) const {
  scratch.ptrs.clear();
  scratch.ptrs.reserve(pkts.size());
  for (PacketView& p : pkts) scratch.ptrs.push_back(&p);
  return runBatch(store, rng, std::span<PacketView* const>(scratch.ptrs),
                  scratch);
}

ExecStats ExecPlan::runBatch(StateStore* store, Rng* rng,
                             std::span<PacketView* const> pkts) const {
  Scratch scratch;
  return runBatch(store, rng, pkts, scratch);
}

ExecStats ExecPlan::runBatch(StateStore* store, Rng* rng,
                             std::span<PacketView* const> pkts,
                             Scratch& scratch,
                             const ParamBinding* params) const {
  const ParamBinding& binding = params != nullptr ? *params : ownBinding();
  const std::uint32_t* ids = binding.ids.data();
  const std::size_t nvars = var_count_;
  const std::size_t nslots = slots_.size();
  // The bind loops write every slot, so regs need sizing only; dirty bits
  // are cleared per packet. State bindings must reset per call — the
  // store can differ between calls.
  auto& regs = scratch.regs;
  auto& dirty = scratch.dirty;
  regs.resize(nslots);
  dirty.resize(nslots);
  scratch.bound.assign(states_.size(), nullptr);

  Ctx c;
  c.plan = this;
  c.code = code_.data();
  c.ncode = code_.size();
  c.refs = refs_.data();
  c.imms = imms_.data();
  c.store = store;
  c.rng = rng;
  c.regs = regs.data();
  c.dirty = dirty.data();
  c.bound = scratch.bound.data();
  c.bytes = &scratch.bytes;

  ExecStats total;
  for (PacketView* pv : pkts) {
    // Bind: variables load by id from the Param frame (unwritten ids hold
    // 0); header fields probe by their precomputed hash (missing names
    // read as 0, like the reference lookups).
    ParamFrame& frame = pv->params;
    if (nvars > 0) frame.bind(binding.layout);
    const std::uint64_t* vals = frame.values();
    for (std::size_t s = 0; s < nvars; ++s) regs[s] = vals[ids[s]];
    for (std::size_t s = nvars; s < nslots; ++s) {
      const Slot& sl = slots_[s];
      auto it = pv->fields.findHashed(sl.name, sl.hash);
      regs[s] = it == pv->fields.end() ? 0 : it->second;
    }
    std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
    c.pkt = pv;
    c.stats = ExecStats{};
    execPacket(c);
    // Write back only runtime-written slots, so the packet's name sets
    // match the reference exactly (reads and predicated-off writes leave
    // no trace). A variable is one word and one written bit.
    for (std::size_t s = 0; s < nvars; ++s) {
      if (dirty[s]) frame.setId(ids[s], regs[s]);
    }
    std::size_t dirty_fields = 0;
    for (std::size_t s = nvars; s < nslots; ++s) dirty_fields += dirty[s];
    if (dirty_fields > 0) {
      // A fresh field map (the common first-device case) takes the
      // probe-free bulk path: slot names are distinct by construction,
      // so every dirty slot is a guaranteed-new key.
      const bool fields_fresh = pv->fields.empty();
      pv->fields.reserve(pv->fields.size() + dirty_fields);
      for (std::size_t s = nvars; s < nslots; ++s) {
        if (!dirty[s]) continue;
        const Slot& sl = slots_[s];
        if (fields_fresh) {
          pv->fields.insertUnique(sl.name, sl.hash, regs[s]);
        } else {
          pv->fields.refHashed(sl.name, sl.hash) = regs[s];
        }
      }
    }
    total.executed += c.stats.executed;
    total.skipped += c.stats.skipped;
  }
  return total;
}

namespace {

// Two independently-salted mix64 chains.
struct Fp128 {
  std::uint64_t a = 0x9AE16A3B2F90404FULL;
  std::uint64_t b = 0xC3A5C85C97CB3127ULL;
  void mixIn(std::uint64_t v) {
    a = mix64(a ^ v);
    b = mix64(b + v);
  }
  void mixStr(const std::string& s) {
    mixIn(s.size());
    std::uint64_t w = 0;
    int k = 0;
    for (char ch : s) {
      w |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(ch))
           << (8 * k);
      if (++k == 8) {
        mixIn(w);
        w = 0;
        k = 0;
      }
    }
    if (k != 0) mixIn(w);
  }
  void mixOperand(const Operand& o) {
    mixIn(static_cast<std::uint64_t>(o.kind));
    mixIn(static_cast<std::uint64_t>(o.width));
    if (o.isConst()) {
      mixIn(o.value);
    } else {
      mixStr(o.name);
    }
  }
};

}  // namespace

std::array<std::uint64_t, 2> ExecPlan::fingerprint(
    const IrProgram& prog, std::span<const int> instr_idxs) {
  Fp128 fp;
  fp.mixIn(instr_idxs.size());
  for (int idx : instr_idxs) {
    const Instruction& ins = prog.instrs[static_cast<std::size_t>(idx)];
    fp.mixIn(static_cast<std::uint64_t>(ins.op));
    fp.mixIn(ins.pred ? (ins.pred_negate ? 2u : 1u) : 0u);
    if (ins.pred) fp.mixOperand(*ins.pred);
    fp.mixOperand(ins.dest);
    fp.mixOperand(ins.dest2);
    fp.mixIn(ins.srcs.size());
    for (const Operand& s : ins.srcs) fp.mixOperand(s);
    if (ins.state_id >= 0 &&
        ins.state_id < static_cast<int>(prog.states.size())) {
      const StateObject& st =
          prog.states[static_cast<std::size_t>(ins.state_id)];
      fp.mixIn(static_cast<std::uint64_t>(st.kind));
      fp.mixIn(st.stateful ? 1u : 0u);
      fp.mixIn(st.depth);
      fp.mixIn(static_cast<std::uint64_t>(st.key_width));
      fp.mixIn(static_cast<std::uint64_t>(st.value_width));
      fp.mixStr(st.name);
    } else {
      fp.mixIn(~0ULL);
    }
  }
  return {fp.a, fp.b};
}

std::shared_ptr<const ExecPlan> ExecPlanCache::get(
    const IrProgram& prog, std::span<const int> instr_idxs,
    ExecPlanOptions opts) {
  const auto fp = ExecPlan::fingerprint(prog, instr_idxs);
  // Option bits ride in the key: a plan compiled with fusion off can
  // never be served for a fusion-on deployment (or vice versa), no
  // matter when the knob was toggled.
  const Key key{fp[0], fp[1],
                (opts.fuse ? 1ULL : 0ULL) |
                    (opts.unsafe_fuse_ignore_pred_guard ? 2ULL : 0ULL)};
  ++stats_.probes;
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.hits;
    return it->second;
  }
  if (plans_.size() >= kMaxEntries) plans_.clear();
  auto plan = std::make_shared<const ExecPlan>(
      ExecPlan::compile(prog, instr_idxs, opts));
  ++stats_.compiles;
  plans_.emplace(key, plan);
  return plan;
}

}  // namespace clickinc::ir
