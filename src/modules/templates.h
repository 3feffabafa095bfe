// The INC module / template library (§4.1 "Modular Programming",
// Appendix A.1): KVS, MLAgg and DQAcc encoded as ClickINC source with
// configurable parameters, plus a resolver so user programs can
// instantiate them (Fig. 7's `agg = MLAgg(...)`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lang/lower.h"

namespace clickinc::modules {

// A template plus its default parameter values (overridable by profiles).
struct TemplateEntry {
  lang::TemplateDef def;
  std::map<std::string, std::uint64_t> defaults;
};

// Library of provider-implemented templates; implements the frontend's
// TemplateResolver so `MLAgg(...)` instantiates from here.
class ModuleLibrary : public lang::TemplateResolver {
 public:
  ModuleLibrary();

  const lang::TemplateDef* find(const std::string& name) const override;
  const TemplateEntry* entry(const std::string& name) const;
  std::vector<std::string> names() const;

  // Compiles a template as a standalone program with the given parameter
  // overrides (missing ones take defaults). `program_name` doubles as the
  // state-isolation prefix seed: every state is `<program_name>_<suffix>`.
  ir::IrProgram compileTemplate(
      const std::string& name, const std::string& program_name,
      const std::map<std::string, std::uint64_t>& overrides = {}) const;

  // Compiles arbitrary user source against this library (templates can be
  // instantiated from inside the program).
  ir::IrProgram compileUser(
      const std::string& source, const std::string& program_name,
      const lang::HeaderSpec& hdr,
      const std::map<std::string, std::uint64_t>& constants = {}) const;

 private:
  std::map<std::string, TemplateEntry> entries_;
};

// Names a program compiled above after its tenant: `<base>` becomes
// `<base>_<user>` and each state `<base>_<suffix>` becomes
// `<base>_<user>_<suffix>`, the names a compile with program_name
// `<base>_<user>` gives. Lowering never sees a user id; the service stamps
// at commit, where the id is assigned.
void stampUser(ir::IrProgram& prog, int user);

// Raw template sources (exported for the LoC comparison of Table 1).
const std::string& kvsSource();
const std::string& mlaggSource();
const std::string& dqaccSource();
// The sparse-gradient user program of Fig. 7, built on the MLAgg template.
const std::string& sparseMlaggSource();

}  // namespace clickinc::modules
