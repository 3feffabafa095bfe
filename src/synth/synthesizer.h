// Program synthesis (paper §6): weaving user snippets into the operator's
// base program on each device, with memory and control-flow isolation,
// per-instruction ownership annotations, and incremental merge / lazy
// removal.
//
// Isolation:
//  - memory: every temporary of user u is renamed "u<u>_<name>" (state
//    objects already carry the program-name prefix from the frontend), so
//    two instances of the same template never alias.
//  - control flow: a user-id match guard is synthesized in front of each
//    snippet; the snippet's effectful instructions execute only for
//    packets whose INC header carries that user id.
//
// Step numbers (§6) are not the synthesizer's concern: the emulator's
// emu::DeploymentEntry records the block range [step_from, step_to) each
// deployed segment implements and gates execution on the packet's step
// field, giving exactly-once semantics under replication and
// skip-on-failure.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "device/model.h"
#include "ir/program.h"
#include "synth/parsetree.h"

namespace clickinc::synth {

// The operator's base program: head (validation — user programs depend on
// it) and tail (forwarding — depends on user programs), plus its parser.
struct BaseProgram {
  ir::IrProgram head;
  ir::IrProgram tail;
  ParseTree parser;
};

// Standard L2/L3 base: ethernet/ipv4/udp parse, TTL validation, LPM
// forwarding.
BaseProgram makeDefaultBase();

// One user program fragment bound for one device. The program is shared
// with the tenant's ledger entry and emulator deployments, never copied.
struct UserSnippet {
  int user_id = -1;
  std::shared_ptr<const ir::IrProgram> prog;  // full user program
  std::vector<int> instr_idxs;  // the subset deployed on this device
};

// Effect of one add/remove on a device (drives the Table 6 accounting).
struct ChangeStats {
  std::vector<int> other_users_affected;  // co-resident programs touched
};

// The synthesized program of one device, supporting incremental updates.
class DeviceProgram {
 public:
  DeviceProgram(const BaseProgram* base, const device::DeviceModel* model);

  // Incrementally merges a snippet. Triggers enforcement of pending lazy
  // removals first (the paper's "enforce on next add").
  ChangeStats addSnippet(UserSnippet snippet);

  // Removes a user. Lazy removal only disables the traffic filter and
  // records resources as released; the strip happens on the next add.
  ChangeStats removeUser(int user_id, bool lazy = true);

  // The merged executable: base head, user snippets (guarded, renamed,
  // annotated), base tail. Rebuilt on demand.
  const ir::IrProgram& executable() const;
  const ParseTree& parser() const { return parser_; }

  std::vector<int> activeUsers() const;
  bool hostsUser(int user_id) const;

 private:
  void strip(int user_id);  // drops the user's snippets and parser paths
  void rebuild() const;

  const BaseProgram* base_;
  const device::DeviceModel* model_;
  std::vector<UserSnippet> snippets_;
  std::set<int> lazily_removed_;
  ParseTree parser_;
  mutable ir::IrProgram merged_;
  mutable bool dirty_ = true;
};

// Renames a user program's temporaries (not header fields) with the
// "u<id>_" prefix. Returns a transformed copy.
ir::IrProgram isolateVariables(const ir::IrProgram& prog, int user_id);

// Builds a parse tree for a user program: network headers plus one INC
// header node named after the program.
ParseTree parserFor(const std::string& name, int user_id);

}  // namespace clickinc::synth
