// Device-neutral resource demand of IR instructions and instruction sets.
//
// Demands are expressed in the units the Appendix E constraints bound
// (SALUs, stateless ALUs, hash units, match tables, SRAM/TCAM bits,
// micro-instructions, DSPs, LUTs); the validator and placer interpret them
// against a concrete DeviceModel.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.h"

namespace clickinc::device {

struct ResourceDemand {
  int salus = 0;         // stateful ALU slots
  int alus = 0;          // stateless ALU slots
  int hash_units = 0;    // hash distribution units
  int tables = 0;        // match-action tables
  int gateways = 0;      // predicate/conditional resources
  int special_fns = 0;   // mirror/multicast special units
  std::uint64_t sram_bits = 0;
  std::uint64_t tcam_bits = 0;
  int micro_instrs = 0;  // RTC micro-instruction count
  int dsps = 0;
  std::uint64_t luts = 0;
  std::uint64_t ffs = 0;

  // Field-wise sum, saturating at each field's max: INT_MAX / UINT64_MAX
  // are the "non-binding" budget sentinels (device/validate.cc), so a sum
  // over budgets stays non-binding instead of wrapping.
  void add(const ResourceDemand& other);
  bool fitsWithin(const ResourceDemand& budget) const;
  std::uint64_t memoryBits() const { return sram_bits + tcam_bits; }

  friend bool operator==(const ResourceDemand&,
                         const ResourceDemand&) = default;
};

// Demand of one instruction, excluding its state object's storage.
ResourceDemand instrDemand(const ir::Instruction& ins);

// Storage demand of a state object (utilization-adjusted per Appendix E:
// exact tables reserve 1/0.9 for hash-conflict slack).
ResourceDemand stateDemand(const ir::StateObject& st);

// Combined demand of an instruction set; each referenced state object is
// counted exactly once (state-sharing instructions live in one block, so a
// block's demand carries its states').
ResourceDemand demandOfInstrs(const ir::IrProgram& prog,
                              const std::vector<int>& instr_idxs);

}  // namespace clickinc::device
