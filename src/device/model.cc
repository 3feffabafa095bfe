#include "device/model.h"

namespace clickinc::device {

using ir::ClassMask;
using ir::classBit;
using ir::InstrClass;

ClassMask allClasses() {
  ClassMask m = 0;
  for (int i = 0; i < ir::kNumInstrClasses; ++i) {
    m |= static_cast<ClassMask>(1u << i);
  }
  return m;
}

namespace {

constexpr ClassMask maskOf(std::initializer_list<InstrClass> classes) {
  ClassMask m = 0;
  for (InstrClass c : classes) m |= classBit(c);
  return m;
}

}  // namespace

bool DeviceModel::supportsOpcode(ir::Opcode op) const {
  if (!supportsClass(ir::opcodeClass(op))) return false;
  // Table 8 per-unit refinements beyond the class masks.
  switch (op) {
    case ir::Opcode::kAesEnc:
    case ir::Opcode::kAesDec:
      return chip == ChipKind::kFpga || chip == ChipKind::kFpgaNic;
    case ir::Opcode::kEcsEnc:
    case ir::Opcode::kEcsDec:
      return chip == ChipKind::kNfp;
    case ir::Opcode::kHashIdentity:
      return chip == ChipKind::kTofino || chip == ChipKind::kTofino2 ||
             chip == ChipKind::kFpga || chip == ChipKind::kFpgaNic ||
             chip == ChipKind::kNfp;
    case ir::Opcode::kMulticast:
      return chip == ChipKind::kTofino || chip == ChipKind::kTofino2 ||
             chip == ChipKind::kTrident4;
    default:
      return true;
  }
}

std::uint64_t DeviceModel::totalMemoryBits() const {
  switch (arch) {
    case Arch::kPipeline:
      return static_cast<std::uint64_t>(num_stages) *
             (static_cast<std::uint64_t>(per_stage.sram_blocks) *
                  sram_block_bits +
              static_cast<std::uint64_t>(per_stage.tcam_blocks) *
                  tcam_block_bits);
    case Arch::kRtc:
      return global_mem_bits;
    case Arch::kHybrid:
      return static_cast<std::uint64_t>(bram_blocks) * 36 * 1024 +
             static_cast<std::uint64_t>(uram_blocks) * 288 * 1024;
  }
  return 0;
}

double DeviceModel::capacityScore() const {
  // Memory dominates INC placement pressure; fold in compute lightly.
  double compute = 0;
  switch (arch) {
    case Arch::kPipeline:
      compute = static_cast<double>(num_stages) *
                (per_stage.salus + per_stage.alus);
      break;
    case Arch::kRtc:
      compute = static_cast<double>(islands * cores_per_island) * 16.0;
      break;
    case Arch::kHybrid:
      compute = static_cast<double>(dsps);
      break;
  }
  return static_cast<double>(totalMemoryBits()) / 1e6 + compute;
}

DeviceModel makeTofino() {
  DeviceModel d;
  d.name = "Tofino";
  d.chip = ChipKind::kTofino;
  d.arch = Arch::kPipeline;
  // Eq. 9: no BIC, BCA, BDM, BSEM, BSNEM, BCF.
  d.supported = maskOf({InstrClass::kBIN, InstrClass::kBSO, InstrClass::kBEM,
                        InstrClass::kBNEM, InstrClass::kBBPF,
                        InstrClass::kBAPF, InstrClass::kBAF});
  d.num_stages = 12;
  d.per_stage = {.sram_blocks = 80,
                 .tcam_blocks = 24,
                 .salus = 4,
                 .alus = 16,
                 .hash_units = 6,
                 .gateways = 16,
                 .tables = 16,
                 .special_fns = 2};
  d.phv_bits = 768 * 8;
  d.port_gbps = 100.0;
  d.base_latency_ns = 400.0;
  return d;
}

DeviceModel makeTofino2() {
  DeviceModel d = makeTofino();
  d.name = "Tofino2";
  d.chip = ChipKind::kTofino2;
  d.num_stages = 20;
  d.per_stage.sram_blocks = 96;
  d.phv_bits = 1024 * 8;
  d.port_gbps = 200.0;
  d.base_latency_ns = 450.0;
  return d;
}

DeviceModel makeTrident4() {
  DeviceModel d;
  d.name = "TD4";
  d.chip = ChipKind::kTrident4;
  d.arch = Arch::kPipeline;
  // Eq. 21: no BIC, BCA, BSEM, BSNEM, BCF; BDM is supported.
  d.supported = maskOf({InstrClass::kBIN, InstrClass::kBSO, InstrClass::kBEM,
                        InstrClass::kBNEM, InstrClass::kBDM,
                        InstrClass::kBBPF, InstrClass::kBAPF,
                        InstrClass::kBAF});
  d.num_stages = 16;
  // Unbalanced tiles: modeled as the average budget; the validator applies
  // the per-stage skew via stageResources().
  d.per_stage = {.sram_blocks = 48,
                 .tcam_blocks = 12,
                 .salus = 2,
                 .alus = 12,
                 .hash_units = 4,
                 .gateways = 12,
                 .tables = 12,
                 .special_fns = 1};
  d.phv_bits = 512 * 8;
  d.port_gbps = 100.0;
  d.base_latency_ns = 500.0;
  return d;
}

DeviceModel makeNfp() {
  DeviceModel d;
  d.name = "NFP";
  d.chip = ChipKind::kNfp;
  d.arch = Arch::kRtc;
  // Eq. 31: no BCA (floating point) and no BAPF (mirror/multicast).
  d.supported = static_cast<ClassMask>(
      allClasses() &
      ~(classBit(InstrClass::kBCA) | classBit(InstrClass::kBAPF)));
  d.islands = 5;
  d.cores_per_island = 12;
  d.micro_instrs_per_core = 8192;
  d.local_mem_bits = 4ull * 1024 * 8;              // LM 4 KB / core
  d.island_mem_bits = (64ull + 256ull) * 1024 * 8; // CLS + CTM
  d.global_mem_bits = 4ull * 1024 * 1024 * 8 +     // IM 4 MB
                      2ull * 1024 * 1024 * 1024 * 8;  // EM 2 GB
  d.port_gbps = 40.0;
  d.base_latency_ns = 1200.0;
  d.per_instr_ns = 4.0;
  return d;
}

DeviceModel makeFpga() {
  DeviceModel d;
  d.name = "FPGA";
  d.chip = ChipKind::kFpga;
  d.arch = Arch::kHybrid;
  d.supported = allClasses();
  d.luts = 1303680;
  d.ffs = 2607360;
  d.bram_blocks = 2016;
  d.uram_blocks = 960;
  d.dsps = 9024;
  d.num_stages = 64;  // synthesized pipeline depth budget
  d.port_gbps = 100.0;
  d.base_latency_ns = 800.0;
  d.per_instr_ns = 1.0;
  return d;
}

DeviceModel makeFpgaNic() {
  DeviceModel d = makeFpga();
  d.name = "FPGA-NIC";
  d.chip = ChipKind::kFpgaNic;
  d.luts = 400000;
  d.ffs = 800000;
  d.bram_blocks = 800;
  d.uram_blocks = 256;
  d.dsps = 2000;
  d.num_stages = 32;
  d.port_gbps = 100.0;
  d.base_latency_ns = 900.0;
  return d;
}

}  // namespace clickinc::device
