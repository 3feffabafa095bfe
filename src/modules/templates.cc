#include "modules/templates.h"

#include "util/error.h"
#include "util/strings.h"

namespace clickinc::modules {
namespace {

// ---------------------------------------------------------------------------
// KVS (paper Fig. 15 / Appendix A.1). NetCache-style layout: an exact-match
// table maps keys to a cache slot; per-dimension value registers hold the
// cached value vector; a count-min sketch plus bloom filter form the heavy
// hitter reporting missed hot keys to the CPU.
// Parameters: CacheSize, ValDim, CmsRows, CmsSize, BfRows, BfSize, TH,
// op codes REQUEST/REPLY/UPDATE.
// ---------------------------------------------------------------------------
const char* kKvs = R"(from Funclib import *
cache = Table(type="exact", keys=hdr.key, size=CacheSize, stateful=CacheStateful)
vals_t = Array(row=ValDim, size=CacheSize, w=32)
cms = Sketch(type="count-min", rows=CmsRows, size=CmsSize, w=32)
bf = Sketch(type="bloom-filter", rows=BfRows, size=BfSize)
if hdr.op == REQUEST:
    slot = get(cache, hdr.key)
    if slot != None:
        v = read(vals_t, slot)
        back(hdr={op: REPLY, val: v})
    else:
        count(cms, hdr.key, 1)
        if get(cms, hdr.key) > TH:
            write(bf, hdr.key, 1)
            copyto("CPU", hdr.key)
        fwd()
elif hdr.op == UPDATE:
    if CacheStateful == 1:
        slot = get(cache, hdr.key)
        if slot != None:
            write(vals_t, slot, hdr.val)
    drop()
else:
    fwd()
)";

// ---------------------------------------------------------------------------
// MLAgg (paper Fig. 16). Aggregator array keyed by job sequence number,
// worker bitmap, validity flags, overflow mirroring, ACK-driven cleanup.
// Parameters: NumAgg, Dim, NumWorker, IsConvert, Scale, op codes DATA/ACK.
// ---------------------------------------------------------------------------
const char* kMlagg = R"(from Funclib import *
agg_seq_t = Array(row=1, size=NumAgg, w=32)
bitmap_t = Array(row=1, size=NumAgg, w=32)
agg_data_t = Array(row=Dim, size=NumAgg, w=32)
valid_t = Array(row=1, size=NumAgg, w=1)
if IsConvert == 1:
    for i in range(Dim):
        hdr.data[i] = ftoi(hdr.data[i], Scale)
hash_f = Hash(type="identity", key=hdr.seq, ceil=NumAgg)
index = get(hash_f, hdr.seq)
seq = read(agg_seq_t, index)
isvalid = read(valid_t, index)
deleted = 0
overflow = 0
if hdr.op == ACK:
    if isvalid == 1 and seq == hdr.seq:
        deleted = 1
    fwd()
else:
    if isvalid == 0 and hdr.overflow == 0:
        write(agg_seq_t, index, hdr.seq)
        write(bitmap_t, index, hdr.bitmap)
        write(agg_data_t, index, hdr.data)
        write(valid_t, index, 1)
        drop()
    elif seq == hdr.seq:
        bitmap = read(bitmap_t, index)
        if bitmap & hdr.bitmap == 0:
            vals = read(agg_data_t, index)
            new_vals = vals + hdr.data
            if CheckOverflow == 1:
                for i in range(Dim):
                    if new_vals[i] < 0:
                        overflow = 1
            new_bit = bitmap | hdr.bitmap
            if overflow == 1:
                deleted = 1
                mirror(hdr={overflow: 1})
                fwd()
            elif new_bit == 2 ** NumWorker - 1:
                back(hdr={op: ACK, bitmap: new_bit, data: new_vals})
                deleted = 1
            else:
                write(agg_data_t, index, new_vals)
                write(bitmap_t, index, new_bit)
                drop()
        else:
            fwd()
    else:
        fwd()
if deleted == 1:
    del(agg_seq_t, index)
    del(bitmap_t, index)
    del(agg_data_t, index)
    del(valid_t, index)
)";

// ---------------------------------------------------------------------------
// DQAcc (SQL DISTINCT acceleration, Appendix A.1). Hash-bucketed rolling
// cache: CacheLen ways per bucket with a rolling replacement pointer
// approximating LRU; duplicate values are filtered in-network.
// Parameters: CacheDepth, CacheLen.
// ---------------------------------------------------------------------------
const char* kDqacc = R"(from Funclib import *
cachearr = Array(row=CacheLen, size=CacheDepth, w=32)
ptr_t = Array(row=1, size=CacheDepth, w=8)
hash_f = Hash(type="crc_32", key=hdr.value, ceil=CacheDepth)
b = get(hash_f, hdr.value)
vals = read(cachearr, b)
dup = 0
for i in range(CacheLen):
    if vals[i] == hdr.value:
        dup = 1
if dup == 1:
    drop()
else:
    p = read(ptr_t, b)
    for i in range(CacheLen):
        if p == i:
            write(cachearr[i], b, hdr.value)
    pn = p + 1
    if pn == CacheLen:
        pn = 0
    write(ptr_t, b, pn)
    fwd()
)";

// ---------------------------------------------------------------------------
// Sparse gradient aggregation (paper Fig. 7): drops all-zero blocks of the
// parameter vector before handing the dense remainder to an MLAgg instance.
// Constants: BlockNum, BlockSize (Dim = BlockNum * BlockSize), plus MLAgg's.
// ---------------------------------------------------------------------------
const char* kSparseMlagg = R"(agg = MLAgg(NumAgg, Dim, IsConvert, Scale)
for i in range(BlockNum):
    sparse = 1
    for j in range(BlockSize):
        index = BlockSize * i + j
        if hdr.data[index] != 0:
            sparse = 0
    if sparse == 1:
        for j in range(BlockSize):
            index = BlockSize * i + j
            del(hdr.data[index])
agg(hdr)
)";

lang::HeaderSpec kvsHeader(std::uint64_t val_dim) {
  lang::HeaderSpec h;
  h.add("op", 8);
  h.add("key", 64);
  h.add("val", 32, static_cast<int>(val_dim));
  return h;
}

lang::HeaderSpec mlaggHeader(std::uint64_t dim) {
  lang::HeaderSpec h;
  h.add("op", 8);
  h.add("seq", 32);
  h.add("bitmap", 32);
  h.add("overflow", 8);
  h.add("data", 32, static_cast<int>(dim));
  return h;
}

lang::HeaderSpec dqaccHeader() {
  lang::HeaderSpec h;
  h.add("op", 8);
  h.add("value", 32);
  return h;
}

}  // namespace

const std::string& kvsSource() {
  static const std::string s = kKvs;
  return s;
}
const std::string& mlaggSource() {
  static const std::string s = kMlagg;
  return s;
}
const std::string& dqaccSource() {
  static const std::string s = kDqacc;
  return s;
}
const std::string& sparseMlaggSource() {
  static const std::string s = kSparseMlagg;
  return s;
}

ModuleLibrary::ModuleLibrary() {
  {
    TemplateEntry e;
    e.def.name = "KVS";
    e.def.params = {"CacheSize", "ValDim", "TH"};
    e.def.source = kvsSource();
    e.defaults = {{"CacheSize", 5000}, {"ValDim", 16},   {"CmsRows", 3},
                  {"CacheStateful", 1},
                  {"CmsSize", 1024},   {"BfRows", 3},    {"BfSize", 4096},
                  {"TH", 64},          {"REQUEST", 1},   {"REPLY", 2},
                  {"UPDATE", 3}};
    e.def.header = kvsHeader(e.defaults.at("ValDim"));
    entries_.emplace("KVS", std::move(e));
  }
  {
    TemplateEntry e;
    e.def.name = "MLAgg";
    e.def.params = {"NumAgg", "Dim", "IsConvert", "Scale"};
    e.def.source = mlaggSource();
    e.defaults = {{"NumAgg", 5000}, {"Dim", 24},   {"NumWorker", 4},
                  {"IsConvert", 0}, {"Scale", 256}, {"DATA", 1},
                  {"ACK", 2},       {"CheckOverflow", 1}};
    e.def.header = mlaggHeader(e.defaults.at("Dim"));
    entries_.emplace("MLAgg", std::move(e));
  }
  {
    TemplateEntry e;
    e.def.name = "DQAcc";
    e.def.params = {"CacheDepth", "CacheLen"};
    e.def.source = dqaccSource();
    e.defaults = {{"CacheDepth", 5000}, {"CacheLen", 8}};
    e.def.header = dqaccHeader();
    entries_.emplace("DQAcc", std::move(e));
  }
}

const lang::TemplateDef* ModuleLibrary::find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second.def;
}

const TemplateEntry* ModuleLibrary::entry(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> ModuleLibrary::names() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : entries_) {
    (void)v;
    out.push_back(k);
  }
  return out;
}

ir::IrProgram ModuleLibrary::compileTemplate(
    const std::string& name, const std::string& program_name,
    const std::map<std::string, std::uint64_t>& overrides) const {
  const TemplateEntry* e = entry(name);
  if (e == nullptr) throw UnknownTemplateError("unknown template: " + name);

  std::map<std::string, std::uint64_t> params = e->defaults;
  for (const auto& [k, v] : overrides) params[k] = v;

  lang::CompileOptions opts;
  opts.program_name = program_name;
  opts.state_prefix = program_name + "_";
  for (const auto& [k, v] : params) opts.constants[k] = v;

  // Dimension-dependent header fields honour overrides.
  lang::HeaderSpec hdr = e->def.header;
  if (name == "KVS") hdr = kvsHeader(params.at("ValDim"));
  if (name == "MLAgg") hdr = mlaggHeader(params.at("Dim"));

  return lang::compileSource(e->def.source, hdr, opts, this);
}

ir::IrProgram ModuleLibrary::compileUser(
    const std::string& source, const std::string& program_name,
    const lang::HeaderSpec& hdr,
    const std::map<std::string, std::uint64_t>& constants) const {
  lang::CompileOptions opts;
  opts.program_name = program_name;
  opts.state_prefix = program_name + "_";
  for (const auto& [k, v] : constants) opts.constants[k] = v;
  return lang::compileSource(source, hdr, opts, this);
}

void stampUser(ir::IrProgram& prog, int user) {
  const std::string base = prog.name + "_";
  const std::string stamped = cat(base, user, "_");
  for (auto& s : prog.states) {
    CLICKINC_CHECK(s.name.starts_with(base),
                   cat("state ", s.name, " lacks the prefix ", base));
    s.name.replace(0, base.size(), stamped);
  }
  prog.name = cat(prog.name, "_", user);
}

}  // namespace clickinc::modules
