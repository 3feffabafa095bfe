// Lowering from the ClickINC AST to platform-independent IR.
//
// Implements the frontend passes of §4.2 in one walk:
//   (1) module/template inlining (through a TemplateResolver),
//   (2) constant loop unrolling (non-constant trip counts are rejected),
//   (3) branch conversion to predication (`cond ? instr`),
//   (4) three-address / SSA form: every sub-expression lands in a fresh
//       temp, and script-variable reassignment under a predicate merges via
//       `select`, so the emitted IR has single-assignment temporaries.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/program.h"
#include "lang/ast.h"

namespace clickinc::lang {

// Declared packet-header layout (from the profile's packet_format, Fig. 6).
// count > 1 declares a vector field expanded to `name.0 .. name.count-1`.
struct HeaderFieldSpec {
  std::string name;  // without the "hdr." prefix
  int width = 32;
  int count = 1;
};

struct HeaderSpec {
  std::vector<HeaderFieldSpec> fields;

  void add(std::string name, int width, int count = 1) {
    fields.push_back({std::move(name), width, count});
  }
  const HeaderFieldSpec* find(const std::string& name) const;
};

// A named, parameterized ClickINC template (MLAgg, KVS, DQAcc, or
// user-defined modules). `params` lists formal parameter names bound at
// instantiation; `source` is ClickINC code.
struct TemplateDef {
  std::string name;
  std::vector<std::string> params;
  std::string source;
  HeaderSpec header;  // fields the template requires
};

// Resolves template names at lowering time; implemented by the module
// library (src/modules) so lang stays independent of it.
class TemplateResolver {
 public:
  virtual ~TemplateResolver() = default;
  virtual const TemplateDef* find(const std::string& name) const = 0;
};

// Lowering limits. A source past one fails with CompileError (the
// service's kLowerError) before it can hang the compile or exhaust memory.
// Unrolling is budgeted per program, so nested loops multiply against one
// budget rather than each passing its own check.
inline constexpr std::uint64_t kMaxUnrollIterations = 100'000;
// State objects per program: one per Array/Seq `row`, Sketch `rows` and
// Table, counted across every constructor (a loop of constructors too).
inline constexpr std::uint64_t kMaxStateObjects = 4096;
inline constexpr std::uint64_t kMaxStateDepth = 1ULL << 32;  // `size`
inline constexpr std::uint64_t kMaxValueWidth = 64;          // `w`, bits
// Instructions per program, counted as lowering appends them (before
// optimization): the unroll budget counts iterations, not the body each
// one repeats. Room for a two-instruction body at the full unroll budget;
// the largest template, example or fuzz-seed program is far smaller.
inline constexpr std::uint64_t kMaxInstructions = 1ULL << 18;

struct CompileOptions {
  std::string program_name = "prog";
  // Profile-provided compile-time constants (e.g. TH, Num_agg, REQUEST).
  std::unordered_map<std::string, std::uint64_t> constants;
  // Prefix applied to every state-object name. The module library seeds it
  // with `<program_name>_`; the service stamps the tenant's user id into
  // both at commit (modules::stampUser), and synthesis finalizes
  // multi-user isolation.
  std::string state_prefix;
};

// Parses and lowers in one step. Throws ParseError / CompileError.
ir::IrProgram compileSource(const std::string& source, const HeaderSpec& hdr,
                            const CompileOptions& opts,
                            const TemplateResolver* resolver = nullptr);

// Lowers an already-parsed module.
ir::IrProgram lowerModule(const Module& mod, const HeaderSpec& hdr,
                          const CompileOptions& opts,
                          const TemplateResolver* resolver = nullptr);

}  // namespace clickinc::lang
