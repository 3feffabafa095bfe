#include "synth/synthesizer.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace clickinc::synth {

using ir::Instruction;
using ir::Opcode;
using ir::Operand;

BaseProgram makeDefaultBase() {
  BaseProgram base;

  // Head: packet validation the user programs rely on.
  auto& head = base.head;
  head.name = "base_head";
  head.addField("hdr.eth_type", 16);
  head.addField("hdr.ipv4_ttl", 8);
  head.addField("hdr.ipv4_dst", 32);
  head.addField("hdr.ipv4_csum", 16);
  {
    Instruction valid(Opcode::kCmpNe, Operand::var("base_ttl_ok", 1),
                      {Operand::field("hdr.ipv4_ttl", 8),
                       Operand::constant(0, 8)});
    head.instrs.push_back(valid);
    Instruction is_ip(Opcode::kCmpEq, Operand::var("base_is_ip", 1),
                      {Operand::field("hdr.eth_type", 16),
                       Operand::constant(0x0800, 16)});
    head.instrs.push_back(is_ip);
    Instruction ok(Opcode::kLAnd, Operand::var("base_pkt_ok", 1),
                   {Operand::var("base_ttl_ok", 1),
                    Operand::var("base_is_ip", 1)});
    head.instrs.push_back(ok);
    Instruction drop_bad(Opcode::kDrop, Operand::none(), {});
    drop_bad.pred = Operand::var("base_pkt_ok", 1);
    drop_bad.pred_negate = true;
    drop_bad.owners = {kOperatorOwner};
    head.instrs.push_back(drop_bad);
  }
  for (auto& ins : head.instrs) ins.addOwner(kOperatorOwner);

  // Tail: L3 forwarding that depends on whatever user programs did to the
  // packet (address rewrites, drops, replies).
  auto& tail = base.tail;
  tail.name = "base_tail";
  tail.addField("hdr.ipv4_dst", 32);
  tail.addField("hdr.ipv4_ttl", 8);
  {
    ir::StateObject fwd;
    fwd.name = "base_fwd_tbl";
    fwd.kind = ir::StateKind::kLpmTable;
    fwd.stateful = false;  // control-plane populated, replicable
    fwd.depth = 1024;
    fwd.key_width = 32;
    fwd.value_width = 16;
    const int fwd_id = tail.addState(fwd);
    Instruction lookup(Opcode::kLpmLookup, Operand::var("base_port", 16),
                       {Operand::field("hdr.ipv4_dst", 32)}, fwd_id);
    tail.instrs.push_back(lookup);
    Instruction ttl(Opcode::kSub, Operand::field("hdr.ipv4_ttl", 8),
                    {Operand::field("hdr.ipv4_ttl", 8),
                     Operand::constant(1, 8)});
    tail.instrs.push_back(ttl);
    Instruction fwd_ins(Opcode::kForward, Operand::none(), {});
    tail.instrs.push_back(fwd_ins);
  }
  for (auto& ins : tail.instrs) ins.addOwner(kOperatorOwner);

  base.parser.addPath({"ethernet", "ipv4", "udp"}, kOperatorOwner);
  return base;
}

ir::IrProgram isolateVariables(const ir::IrProgram& prog, int user_id) {
  ir::IrProgram out = prog;
  const std::string prefix = cat("u", user_id, "_");
  auto rename = [&](Operand& o) {
    if (o.isVar()) o.name = prefix + o.name;
  };
  for (auto& ins : out.instrs) {
    rename(ins.dest);
    rename(ins.dest2);
    for (auto& s : ins.srcs) rename(s);
    if (ins.pred) rename(*ins.pred);
    ins.addOwner(user_id);
  }
  for (auto& st : out.states) {
    if (std::find(st.owners.begin(), st.owners.end(), user_id) ==
        st.owners.end()) {
      st.owners.push_back(user_id);
    }
  }
  return out;
}

ParseTree parserFor(const std::string& name, int user_id) {
  ParseTree tree;
  tree.addPath({"ethernet", "ipv4", "udp"}, user_id);
  tree.addPath({"ethernet", "ipv4", "udp", "inc"}, user_id);
  tree.addPath({"ethernet", "ipv4", "udp", "inc", name}, user_id);
  return tree;
}

DeviceProgram::DeviceProgram(const BaseProgram* base,
                             const device::DeviceModel* model)
    : base_(base), model_(model) {
  parser_.mergeFrom(base->parser, kOperatorOwner);
}

ChangeStats DeviceProgram::addSnippet(UserSnippet snippet) {
  ChangeStats stats;
  // Lazy removals are enforced when the next program arrives (§6).
  for (int user : lazily_removed_) strip(user);
  lazily_removed_.clear();

  for (const auto& s : snippets_) {
    if (s.user_id != snippet.user_id) {
      stats.other_users_affected.push_back(s.user_id);
    }
  }
  std::sort(stats.other_users_affected.begin(),
            stats.other_users_affected.end());
  stats.other_users_affected.erase(
      std::unique(stats.other_users_affected.begin(),
                  stats.other_users_affected.end()),
      stats.other_users_affected.end());

  parser_.mergeFrom(parserFor(snippet.prog->name, snippet.user_id),
                    snippet.user_id);
  snippets_.push_back(std::move(snippet));
  dirty_ = true;
  return stats;
}

ChangeStats DeviceProgram::removeUser(int user_id, bool lazy) {
  ChangeStats stats;
  if (!hostsUser(user_id)) return stats;
  if (lazy) {
    // Disable the traffic filter only; instructions stay until the next
    // add enforces the strip, so other traffic is not interrupted.
    lazily_removed_.insert(user_id);
    dirty_ = true;
    return stats;
  }
  for (const auto& s : snippets_) {
    if (s.user_id != user_id) stats.other_users_affected.push_back(s.user_id);
  }
  strip(user_id);
  dirty_ = true;
  return stats;
}

void DeviceProgram::strip(int user_id) {
  std::erase_if(snippets_,
                [&](const UserSnippet& s) { return s.user_id == user_id; });
  parser_.removeOwner(user_id);
}

std::vector<int> DeviceProgram::activeUsers() const {
  std::vector<int> out;
  for (const auto& s : snippets_) {
    if (lazily_removed_.count(s.user_id)) continue;
    if (std::find(out.begin(), out.end(), s.user_id) == out.end()) {
      out.push_back(s.user_id);
    }
  }
  return out;
}

bool DeviceProgram::hostsUser(int user_id) const {
  for (const auto& s : snippets_) {
    if (s.user_id == user_id && !lazily_removed_.count(user_id)) return true;
  }
  return false;
}

const ir::IrProgram& DeviceProgram::executable() const {
  if (dirty_) rebuild();
  return merged_;
}

void DeviceProgram::rebuild() const {
  merged_ = ir::IrProgram{};
  merged_.name = cat("dev_", model_->name);
  merged_.addField("hdr._uid", 16);
  merged_.addField("hdr._step", 16);

  auto appendProgram = [&](const ir::IrProgram& src,
                           const std::vector<int>* subset,
                           const Operand* guard) {
    // Import fields and states (by name, deduplicated).
    for (const auto& f : src.fields) merged_.addField(f.name, f.width);
    std::map<int, int> state_remap;
    for (const auto& st : src.states) {
      if (const auto* existing = merged_.findState(st.name)) {
        state_remap[st.id] = existing->id;
      } else {
        ir::StateObject copy = st;
        state_remap[st.id] = merged_.addState(copy);
      }
    }
    auto emit = [&](Instruction ins) {
      if (ins.state_id >= 0) ins.state_id = state_remap.at(ins.state_id);
      if (guard != nullptr) {
        const bool effectful =
            ins.info().packet_action ||
            ins.info().state == ir::StateAccess::kWrite ||
            ins.info().state == ir::StateAccess::kReadWrite ||
            ins.dest.isField();
        if (effectful) {
          if (ins.pred) {
            // pred' = guard && pred  (respecting negation).
            Instruction combine(Opcode::kLAnd,
                                Operand::var(cat(guard->name, "_",
                                                 merged_.instrs.size()),
                                             1),
                                {*guard, *ins.pred});
            if (ins.pred_negate) {
              combine.op = Opcode::kLAnd;
              Instruction neg(Opcode::kLNot,
                              Operand::var(cat(guard->name, "_n",
                                               merged_.instrs.size()),
                                           1),
                              {*ins.pred});
              neg.owners = ins.owners;
              merged_.instrs.push_back(neg);
              combine.srcs[1] = merged_.instrs.back().dest;
            }
            combine.owners = ins.owners;
            merged_.instrs.push_back(combine);
            ins.pred = merged_.instrs.back().dest;
            ins.pred_negate = false;
          } else {
            ins.pred = *guard;
            ins.pred_negate = false;
          }
        }
      }
      merged_.instrs.push_back(std::move(ins));
    };
    if (subset == nullptr) {
      for (const auto& ins : src.instrs) emit(ins);
    } else {
      for (int i : *subset) {
        emit(src.instrs[static_cast<std::size_t>(i)]);
      }
    }
  };

  // Base head first.
  appendProgram(base_->head, nullptr, nullptr);

  // User snippets, guarded by their user-id filter (§6 compiler backend:
  // "adds a user ID match to filter out the user's traffic").
  for (const auto& s : snippets_) {
    if (lazily_removed_.count(s.user_id)) continue;
    const ir::IrProgram isolated = isolateVariables(*s.prog, s.user_id);
    Instruction match(Opcode::kCmpEq,
                      Operand::var(cat("u", s.user_id, "_active"), 1),
                      {Operand::field("hdr._uid", 16),
                       Operand::constant(
                           static_cast<std::uint64_t>(s.user_id), 16)});
    match.addOwner(s.user_id);
    merged_.instrs.push_back(match);
    const Operand guard = merged_.instrs.back().dest;
    appendProgram(isolated, &s.instr_idxs, &guard);
  }

  // Base tail last.
  appendProgram(base_->tail, nullptr, nullptr);
  merged_.verify();
  dirty_ = false;
}

}  // namespace clickinc::synth
