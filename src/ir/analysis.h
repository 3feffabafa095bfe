// Dependency and data-flow analysis over IR programs.
//
// Used by block-DAG construction (§5.2 step 1) and by the placement
// objective's cross-device parameter cost h_p (temporary variables that
// must ride the Param header field between devices).
#pragma once

#include <string>
#include <vector>

#include "ir/program.h"

namespace clickinc::ir {

// Direct dependency graph over instruction indices.
//
// Edges cover: read-after-write of temporaries and header fields,
// write-after-read / write-after-write on the same storage, predicate
// uses, and — crucially for INC (§5.2 step 1) — *mutual* dependencies
// between all instructions touching the same stateful object, encoded as a
// cycle so SCC merging groups them into one inseparable unit.
struct DepGraph {
  int n = 0;
  std::vector<std::vector<int>> deps;   // deps[i]: instrs i depends on
  std::vector<std::vector<int>> users;  // users[i]: instrs depending on i

  bool hasEdge(int from, int to) const;  // `to` depends on `from`
};

DepGraph buildDepGraph(const IrProgram& prog);

// Names defined / used by one instruction (vars and fields; predicates
// count as uses).
std::vector<std::string> defNames(const Instruction& ins);
std::vector<std::string> useNames(const Instruction& ins);

// Bits of *temporary variables* (not header fields) defined in the index
// set `before` and used in `after`: the Param payload a cut between the two
// sets would add to every packet (§6 "Refine Runtime Data Plane").
int paramBitsAcrossCut(const IrProgram& prog,
                       const std::vector<int>& before,
                       const std::vector<int>& after);

// Strongly connected components of the dependency graph, in topological
// order of the condensation. Each component lists instruction indices in
// program order.
std::vector<std::vector<int>> stronglyConnectedComponents(const DepGraph& g);

// Combined analysis reused across placement calls.
//
// scc_of[i] gives instruction i's SCC id. Instructions in one SCC form a
// *fused stateful group*: the read/compare/conditional-write feedback of a
// register array (or a clique of arrays) that hardware executes inside
// predicated stateful ALU operations. Placement treats such a group as one
// atom — internal ordering is not stage-ordered (the SALU resolves it),
// while dependencies into and out of the group remain strict.
struct Analysis {
  DepGraph dep;
  std::vector<int> scc_of;

  bool sameScc(int a, int b) const {
    return scc_of[static_cast<std::size_t>(a)] ==
           scc_of[static_cast<std::size_t>(b)];
  }
};

// `comps`, when given, receives the SCCs as stronglyConnectedComponents
// lists them, so a caller that also needs the components pays for one
// dependency graph and one SCC pass.
Analysis analyzeProgram(const IrProgram& prog,
                        std::vector<std::vector<int>>* comps = nullptr);

}  // namespace clickinc::ir
