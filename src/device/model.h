// Heterogeneous programmable-device models (paper §2.1, Appendix D/E).
//
// Four chip families are modeled with their architecture (pipeline, RTC,
// hybrid), capability-class support (Appendix E compatibility equations
// over Table 9 classes), and per-stage / per-core resource budgets used by
// the placement algorithms and the independent placement validator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.h"

namespace clickinc::device {

enum class Arch : std::uint8_t {
  kPipeline,  // fixed stages, per-stage resources (Tofino, TD4)
  kRtc,       // run-to-completion cores (NFP smartNIC)
  kHybrid,    // configurable pipeline of cores / fabric (FPGA)
};

enum class ChipKind : std::uint8_t {
  kTofino,
  kTofino2,
  kTrident4,
  kNfp,       // Netronome NFP multi-core smartNIC
  kFpga,      // Xilinx Alveo accelerator card
  kFpgaNic,   // Xilinx SN1000-class FPGA smartNIC
};

// Per-stage budget of a pipeline device (Appendix E.1/E.2 resources,
// condensed to the quantities the constraints actually bound).
struct StageResources {
  int sram_blocks = 0;     // exact-match / register memory blocks
  int tcam_blocks = 0;     // ternary/LPM memory blocks
  int salus = 0;           // stateful ALUs (register ops per stage)
  int alus = 0;            // stateless ALUs / FSL data-logic floors
  int hash_units = 0;      // hash distribution units
  int gateways = 0;        // predicate/conditional resources
  int tables = 0;          // simultaneous match-action tables
  int special_fns = 0;     // TD4-style special function units (mirror, ...)
};

struct DeviceModel {
  std::string name;
  ChipKind chip = ChipKind::kTofino;
  Arch arch = Arch::kPipeline;
  ir::ClassMask supported = 0;  // capability classes (Table 9)

  // Pipeline parameters.
  int num_stages = 0;
  StageResources per_stage;
  std::uint64_t sram_block_bits = 128 * 1024;  // one SRAM block
  std::uint64_t tcam_block_bits = 22528;       // one TCAM block
  int phv_bits = 0;                            // header+param budget

  // RTC parameters (NFP).
  int islands = 0;
  int cores_per_island = 0;
  int micro_instrs_per_core = 0;
  std::uint64_t local_mem_bits = 0;    // per-core LM
  std::uint64_t island_mem_bits = 0;   // CLS+CTM per island
  std::uint64_t global_mem_bits = 0;   // IM+EM

  // FPGA parameters.
  std::uint64_t luts = 0;
  std::uint64_t ffs = 0;
  int bram_blocks = 0;                 // 36 Kb each
  int uram_blocks = 0;                 // 288 Kb each
  int dsps = 0;

  // Performance model used by the emulator (relative shapes, not vendor
  // datasheet precision).
  double port_gbps = 100.0;
  double base_latency_ns = 400.0;      // pipe traversal / service latency
  double per_instr_ns = 0.0;           // extra per-instruction cost (RTC)

  bool supportsClass(ir::InstrClass c) const {
    return (supported & ir::classBit(c)) != 0;
  }
  bool supportsOpcode(ir::Opcode op) const;

  // Total stateful memory bits this device can dedicate to INC programs.
  std::uint64_t totalMemoryBits() const;
  // Coarse "one number" resource capacity for gain normalization (h_r).
  double capacityScore() const;
};

// Chip factories (Appendix E parameterizations).
DeviceModel makeTofino();
DeviceModel makeTofino2();
DeviceModel makeTrident4();
DeviceModel makeNfp();
DeviceModel makeFpga();
DeviceModel makeFpgaNic();

// All-classes mask helper.
ir::ClassMask allClasses();

}  // namespace clickinc::device
