// Container for a compiled IR program: header fields, state objects, and a
// straight-line sequence of predicated instructions.
#pragma once

#include <string>
#include <vector>

#include "ir/instr.h"
#include "ir/state.h"

namespace clickinc::ir {

struct HeaderField {
  std::string name;  // "hdr.<x>"
  int width = 0;
};

class IrProgram {
 public:
  std::string name;
  std::vector<HeaderField> fields;
  std::vector<StateObject> states;
  std::vector<Instruction> instrs;

  // Registers a state object, assigning its id. Returns the id.
  int addState(StateObject s);

  const StateObject* findState(const std::string& state_name) const;
  StateObject* findState(const std::string& state_name);

  // Declares a header field if not already present.
  void addField(const std::string& field_name, int width);
  int fieldWidth(const std::string& field_name) const;  // -1 if unknown

  // Structural validation: operand arity per opcode, predicate widths,
  // state references, and use-before-def of temporaries. Throws
  // InternalError on violation.
  void verify() const;

  std::string toString() const;
};

}  // namespace clickinc::ir
