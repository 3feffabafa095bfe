// Reference-parity contract: this switch interpreter is the executable
// specification the compiled path (exec_plan.cc) is tested against, at
// *source-instruction* granularity. ExecStats counts one executed or
// skipped per IR instruction here; a fused superinstruction record in a
// compiled plan stands for two source instructions and must add 2 to
// the same counters. Any semantic change to a case below therefore
// needs a matching change on the compiled path — for ALU/register ops
// that is the single component evaluator (aluEval / regExec, which the
// plain handlers delegate to), plus any specialized superop handler
// that open-codes the pair — and the randomized ExecPlan/ExecPlanFusion
// suites in tests/test_ir.cc catch drift.
#include "ir/interp.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bits.h"
#include "util/error.h"

namespace clickinc::ir {

StateInstance::StateInstance(StateObject spec) : spec_(std::move(spec)) {
  if (spec_.kind == StateKind::kRegister ||
      spec_.kind == StateKind::kDirectTable) {
    cells_.assign(spec_.depth, 0);
  }
}

std::uint64_t StateInstance::regRead(std::uint64_t idx) const {
  if (cells_.empty()) return 0;
  return cells_[idx % cells_.size()];
}

void StateInstance::regWrite(std::uint64_t idx, std::uint64_t v) {
  if (cells_.empty()) return;
  cells_[idx % cells_.size()] = truncToWidth(v, spec_.value_width);
}

std::uint64_t StateInstance::regAdd(std::uint64_t idx, std::uint64_t delta) {
  if (cells_.empty()) return 0;
  auto& cell = cells_[idx % cells_.size()];
  cell = truncToWidth(cell + delta, spec_.value_width);
  return cell;
}

void StateInstance::regClear(std::uint64_t idx) {
  if (cells_.empty()) return;
  cells_[idx % cells_.size()] = 0;
}

bool StateInstance::lookup(std::uint64_t key, std::uint64_t* val) const {
  if (spec_.kind == StateKind::kRegister ||
      spec_.kind == StateKind::kDirectTable) {
    if (cells_.empty()) return false;
    *val = cells_[key % cells_.size()];
    return true;
  }
  if (spec_.kind == StateKind::kTernaryTable ||
      spec_.kind == StateKind::kLpmTable) {
    return matchTernary(key, val);
  }
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  *val = it->second;
  return true;
}

void StateInstance::insert(std::uint64_t key, std::uint64_t val) {
  if (spec_.kind == StateKind::kRegister ||
      spec_.kind == StateKind::kDirectTable) {
    regWrite(key, val);
    return;
  }
  // Capacity model: a full exact table rejects new keys (cache semantics);
  // overwriting an existing key is always allowed.
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second = truncToWidth(val, spec_.value_width);
    return;
  }
  if (spec_.depth != 0 && map_.size() >= spec_.depth) return;
  map_.emplace(key, truncToWidth(val, spec_.value_width));
}

void StateInstance::erase(std::uint64_t key) { map_.erase(key); }

void StateInstance::insertTernary(std::uint64_t key, std::uint64_t mask,
                                  std::uint64_t val, int priority) {
  ternary_.push_back({key & mask, mask, val, priority});
  std::stable_sort(ternary_.begin(), ternary_.end(),
                   [](const TEntry& a, const TEntry& b) {
                     return a.priority > b.priority;
                   });
}

void StateInstance::insertLpm(std::uint64_t prefix, int prefix_len,
                              std::uint64_t val) {
  const std::uint64_t mask =
      prefix_len >= spec_.key_width
          ? lowMask(spec_.key_width)
          : lowMask(spec_.key_width) ^ lowMask(spec_.key_width - prefix_len);
  insertTernary(prefix, mask, val, prefix_len);
}

bool StateInstance::matchTernary(std::uint64_t key, std::uint64_t* val) const {
  for (const auto& e : ternary_) {
    if ((key & e.mask) == e.key) {
      *val = e.val;
      return true;
    }
  }
  return false;
}

std::uint64_t StateInstance::entryCount() const {
  if (!cells_.empty()) return cells_.size();
  return map_.size() + ternary_.size();
}

StateInstance& StateStore::instantiate(const StateObject& spec) {
  auto it = by_name_.find(spec.name);
  if (it != by_name_.end()) return *it->second;
  auto inst = std::make_unique<StateInstance>(spec);
  auto* raw = inst.get();
  by_name_.emplace(spec.name, std::move(inst));
  return *raw;
}

StateInstance* StateStore::find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

const StateInstance* StateStore::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

void StateStore::remove(const std::string& name) { by_name_.erase(name); }

namespace {

float asF32(std::uint64_t bits) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(bits));
}
std::uint64_t fromF32(float f) {
  return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(f));
}

// 4-round Feistel over 2x32b halves with mix64-derived round keys.
std::uint32_t feistelF(std::uint32_t half, std::uint64_t rk) {
  return static_cast<std::uint32_t>(mix64(half ^ rk) & 0xFFFFFFFFu);
}

}  // namespace

std::uint64_t toyEncrypt(std::uint64_t v, std::uint64_t key) {
  std::uint32_t l = static_cast<std::uint32_t>(v >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(v);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t rk = mix64(key + static_cast<std::uint64_t>(round));
    const std::uint32_t nl = r;
    r = l ^ feistelF(r, rk);
    l = nl;
  }
  return (static_cast<std::uint64_t>(l) << 32) | r;
}

std::uint64_t toyDecrypt(std::uint64_t v, std::uint64_t key) {
  std::uint32_t l = static_cast<std::uint32_t>(v >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(v);
  for (int round = 3; round >= 0; --round) {
    const std::uint64_t rk = mix64(key + static_cast<std::uint64_t>(round));
    const std::uint32_t nr = l;
    l = r ^ feistelF(l, rk);
    r = nr;
  }
  return (static_cast<std::uint64_t>(l) << 32) | r;
}

namespace {

// Hashes a sequence of operand values byte-wise (little-endian per value).
template <typename HashFn>
std::uint64_t hashValues(const std::vector<std::uint64_t>& vals, HashFn fn) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(vals.size() * 8);
  for (std::uint64_t v : vals) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return fn(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

}  // namespace

ExecStats Interpreter::run(const IrProgram& prog,
                           std::span<const Instruction> instrs,
                           PacketView& pkt) {
  ExecStats stats;
  // Variables live in the packet's Param frame, looked up by name.
  ParamFrame& env = pkt.params;

  auto read = [&](const Operand& o) -> std::uint64_t {
    switch (o.kind) {
      case OperandKind::kConst: return o.value;
      case OperandKind::kVar: return env.get(o.name);
      case OperandKind::kField: return pkt.field(o.name);
      case OperandKind::kNone: return 0;
    }
    return 0;
  };
  auto write = [&](const Operand& o, std::uint64_t v) {
    if (o.isNone()) return;
    const std::uint64_t t = o.width > 0 ? truncToWidth(v, o.width) : v;
    if (o.isField()) {
      pkt.setField(o.name, t);
    } else {
      env.set(o.name, t);
    }
  };
  auto setVerdict = [&](Verdict v) {
    if (pkt.verdict == Verdict::kNone) pkt.verdict = v;
  };
  auto stateFor = [&](const Instruction& ins) -> StateInstance* {
    if (ins.state_id < 0 ||
        ins.state_id >= static_cast<int>(prog.states.size())) {
      return nullptr;
    }
    return &store_->instantiate(
        prog.states[static_cast<std::size_t>(ins.state_id)]);
  };

  for (const Instruction& ins : instrs) {
    if (ins.pred) {
      const bool hold = (read(*ins.pred) & 1) != 0;
      if (hold == ins.pred_negate) {
        ++stats.skipped;
        continue;
      }
    }
    ++stats.executed;
    std::vector<std::uint64_t> s;
    s.reserve(ins.srcs.size());
    for (const auto& src : ins.srcs) s.push_back(read(src));

    switch (ins.op) {
      case Opcode::kAssign: write(ins.dest, s[0]); break;
      case Opcode::kAdd: write(ins.dest, s[0] + s[1]); break;
      case Opcode::kSub: write(ins.dest, s[0] - s[1]); break;
      case Opcode::kAnd: write(ins.dest, s[0] & s[1]); break;
      case Opcode::kOr: write(ins.dest, s[0] | s[1]); break;
      case Opcode::kXor: write(ins.dest, s[0] ^ s[1]); break;
      case Opcode::kNot: write(ins.dest, ~s[0]); break;
      case Opcode::kShl: write(ins.dest, s[1] >= 64 ? 0 : s[0] << s[1]); break;
      case Opcode::kShr: write(ins.dest, s[1] >= 64 ? 0 : s[0] >> s[1]); break;
      case Opcode::kSlice:
        write(ins.dest, (s[1] >= 64 ? 0 : s[0] >> s[1]) &
                            lowMask(static_cast<int>(s[2])));
        break;
      case Opcode::kCmpLt: write(ins.dest, s[0] < s[1] ? 1 : 0); break;
      case Opcode::kCmpLe: write(ins.dest, s[0] <= s[1] ? 1 : 0); break;
      case Opcode::kCmpEq: write(ins.dest, s[0] == s[1] ? 1 : 0); break;
      case Opcode::kCmpNe: write(ins.dest, s[0] != s[1] ? 1 : 0); break;
      case Opcode::kCmpGe: write(ins.dest, s[0] >= s[1] ? 1 : 0); break;
      case Opcode::kCmpGt: write(ins.dest, s[0] > s[1] ? 1 : 0); break;
      case Opcode::kMin: write(ins.dest, std::min(s[0], s[1])); break;
      case Opcode::kMax: write(ins.dest, std::max(s[0], s[1])); break;
      case Opcode::kSelect: write(ins.dest, (s[0] & 1) ? s[1] : s[2]); break;
      case Opcode::kLAnd: write(ins.dest, (s[0] & 1) & (s[1] & 1)); break;
      case Opcode::kLOr: write(ins.dest, (s[0] & 1) | (s[1] & 1)); break;
      case Opcode::kLNot: write(ins.dest, (s[0] & 1) ^ 1); break;
      case Opcode::kMul: write(ins.dest, s[0] * s[1]); break;
      case Opcode::kDiv: write(ins.dest, s[1] == 0 ? 0 : s[0] / s[1]); break;
      case Opcode::kMod: write(ins.dest, s[1] == 0 ? 0 : s[0] % s[1]); break;
      case Opcode::kFAdd: write(ins.dest, fromF32(asF32(s[0]) + asF32(s[1]))); break;
      case Opcode::kFSub: write(ins.dest, fromF32(asF32(s[0]) - asF32(s[1]))); break;
      case Opcode::kFMul: write(ins.dest, fromF32(asF32(s[0]) * asF32(s[1]))); break;
      case Opcode::kFDiv:
        write(ins.dest,
              asF32(s[1]) == 0.0f ? 0 : fromF32(asF32(s[0]) / asF32(s[1])));
        break;
      case Opcode::kFtoI: {
        // Optional second source: fixed-point scale factor.
        const float scale = s.size() > 1 ? static_cast<float>(s[1]) : 1.0f;
        write(ins.dest, static_cast<std::uint64_t>(static_cast<std::int64_t>(
                            asF32(s[0]) * scale)));
        break;
      }
      case Opcode::kItoF: {
        const float scale = s.size() > 1 ? static_cast<float>(s[1]) : 1.0f;
        write(ins.dest, fromF32(static_cast<float>(
                            static_cast<std::int64_t>(s[0])) / scale));
        break;
      }
      case Opcode::kFSqrt: {
        const float f = asF32(s[0]);
        write(ins.dest, f < 0 ? 0 : fromF32(std::sqrt(f)));
        break;
      }
      case Opcode::kFCmpLt:
        write(ins.dest, asF32(s[0]) < asF32(s[1]) ? 1 : 0);
        break;
      case Opcode::kRegRead: {
        auto* st = stateFor(ins);
        write(ins.dest, st ? st->regRead(s[0]) : 0);
        break;
      }
      case Opcode::kRegWrite: {
        if (auto* st = stateFor(ins)) st->regWrite(s[0], s[1]);
        break;
      }
      case Opcode::kRegAdd: {
        auto* st = stateFor(ins);
        write(ins.dest, st ? st->regAdd(s[0], s[1]) : 0);
        break;
      }
      case Opcode::kRegClear: {
        if (auto* st = stateFor(ins)) st->regClear(s[0]);
        break;
      }
      case Opcode::kEmtLookup:
      case Opcode::kSemtLookup:
      case Opcode::kTmtLookup:
      case Opcode::kLpmLookup:
      case Opcode::kStmtLookup:
      case Opcode::kDmtLookup: {
        auto* st = stateFor(ins);
        std::uint64_t val = 0;
        const bool hit = st != nullptr && st->lookup(s[0], &val);
        write(ins.dest, hit ? val : 0);
        write(ins.dest2, hit ? 1 : 0);
        break;
      }
      case Opcode::kSemtWrite:
      case Opcode::kStmtWrite: {
        if (auto* st = stateFor(ins)) st->insert(s[0], s[1]);
        break;
      }
      case Opcode::kSemtDelete: {
        if (auto* st = stateFor(ins)) st->erase(s[0]);
        break;
      }
      case Opcode::kDrop: setVerdict(Verdict::kDrop); break;
      case Opcode::kForward: setVerdict(Verdict::kForward); break;
      case Opcode::kSendBack: setVerdict(Verdict::kSendBack); break;
      case Opcode::kCopyToCpu: pkt.cpu_copied = true; break;
      case Opcode::kMirror: pkt.mirrored = true; break;
      case Opcode::kMulticast: setVerdict(Verdict::kMulticast); break;
      case Opcode::kHashCrc16:
        write(ins.dest, hashValues(s, [](auto span) {
          return static_cast<std::uint64_t>(crc16(span));
        }));
        break;
      case Opcode::kHashCrc32:
        write(ins.dest, hashValues(s, [](auto span) {
          return static_cast<std::uint64_t>(crc32(span));
        }));
        break;
      case Opcode::kHashIdentity: write(ins.dest, s[0]); break;
      case Opcode::kChecksum: {
        std::uint64_t sum = 0;
        for (std::uint64_t v : s) {
          sum += (v & 0xFFFF) + ((v >> 16) & 0xFFFF) + ((v >> 32) & 0xFFFF) +
                 ((v >> 48) & 0xFFFF);
        }
        while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
        write(ins.dest, (~sum) & 0xFFFF);
        break;
      }
      case Opcode::kRandInt: {
        const std::uint64_t bound = s.empty() ? 0 : s[0];
        std::uint64_t r = rng_ ? rng_->next() : 0;
        if (bound > 0) r %= bound;
        write(ins.dest, r);
        break;
      }
      case Opcode::kAesEnc:
      case Opcode::kEcsEnc:
        write(ins.dest, toyEncrypt(s[0], s.size() > 1 ? s[1] : 0));
        break;
      case Opcode::kAesDec:
      case Opcode::kEcsDec:
        write(ins.dest, toyDecrypt(s[0], s.size() > 1 ? s[1] : 0));
        break;
      case Opcode::kNop: break;
    }
  }

  return stats;
}

ExecStats Interpreter::runAll(const IrProgram& prog, PacketView& pkt) {
  return run(prog, std::span<const Instruction>(prog.instrs), pkt);
}

}  // namespace clickinc::ir
