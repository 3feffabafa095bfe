#include "ir/program.h"

#include <unordered_set>

#include "util/error.h"
#include "util/strings.h"

namespace clickinc::ir {

const char* stateKindName(StateKind k) {
  switch (k) {
    case StateKind::kRegister: return "register";
    case StateKind::kExactTable: return "exact";
    case StateKind::kTernaryTable: return "ternary";
    case StateKind::kLpmTable: return "lpm";
    case StateKind::kDirectTable: return "direct";
  }
  return "?";
}

std::string StateObject::toString() const {
  return cat(name, "{", stateKindName(kind), stateful ? ",stateful" : "",
             ",depth=", depth, ",key=", key_width, "b,val=", value_width,
             "b}");
}

int IrProgram::addState(StateObject s) {
  s.id = static_cast<int>(states.size());
  states.push_back(std::move(s));
  return states.back().id;
}

const StateObject* IrProgram::findState(const std::string& state_name) const {
  for (const auto& s : states) {
    if (s.name == state_name) return &s;
  }
  return nullptr;
}

StateObject* IrProgram::findState(const std::string& state_name) {
  for (auto& s : states) {
    if (s.name == state_name) return &s;
  }
  return nullptr;
}

void IrProgram::addField(const std::string& field_name, int width) {
  for (const auto& f : fields) {
    if (f.name == field_name) return;
  }
  fields.push_back({field_name, width});
}

int IrProgram::fieldWidth(const std::string& field_name) const {
  for (const auto& f : fields) {
    if (f.name == field_name) return f.width;
  }
  return -1;
}

void IrProgram::verify() const {
  std::unordered_set<std::string> defined;
  for (const auto& f : fields) defined.insert(f.name);

  for (std::size_t i = 0; i < instrs.size(); ++i) {
    const Instruction& ins = instrs[i];
    const OpcodeInfo& info = ins.info();
    // Built only when a check fails: stringifying every instruction
    // dominated verify() on large unrolled programs.
    const auto where = [&] {
      return cat("instr #", i, " (", ins.toString(), ")");
    };

    if (info.has_dest) {
      CLICKINC_CHECK(!ins.dest.isNone(), where() + ": missing dest");
    }
    const int nsrc = static_cast<int>(ins.srcs.size());
    CLICKINC_CHECK(nsrc >= info.min_srcs, where() + ": too few sources");
    if (info.max_srcs >= 0) {
      CLICKINC_CHECK(nsrc <= info.max_srcs, where() + ": too many sources");
    }
    if (info.state != StateAccess::kNone) {
      CLICKINC_CHECK(ins.state_id >= 0 &&
                         ins.state_id < static_cast<int>(states.size()),
                     where() + ": bad state reference");
    }
    if (ins.pred) {
      CLICKINC_CHECK(ins.pred->isNamed() || ins.pred->isConst(),
                     where() + ": predicate must be named or const");
      CLICKINC_CHECK(ins.pred->width == 1, where() + ": predicate must be 1b");
      if (ins.pred->isVar()) {
        CLICKINC_CHECK(defined.count(ins.pred->name) > 0,
                       where() + ": predicate use before def");
      }
    }
    for (const auto& s : ins.srcs) {
      if (s.isVar()) {
        CLICKINC_CHECK(defined.count(s.name) > 0,
                       where() + ": use of " + s.name + " before def");
      }
    }
    if (ins.dest.isNamed()) defined.insert(ins.dest.name);
    if (ins.dest2.isNamed()) defined.insert(ins.dest2.name);
  }
}

std::string IrProgram::toString() const {
  std::string out = cat("program ", name, " {\n");
  for (const auto& f : fields) out += cat("  field ", f.name, ":", f.width, "\n");
  for (const auto& s : states) out += cat("  state s", s.id, " = ", s.toString(), "\n");
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    out += cat("  ", i, ": ", instrs[i].toString(), "\n");
  }
  out += "}\n";
  return out;
}

}  // namespace clickinc::ir
