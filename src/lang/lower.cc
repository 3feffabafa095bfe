#include "lang/lower.h"

#include "lang/optimize.h"

#include <bit>
#include <cmath>
#include <memory>

#include "util/bits.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::lang {
namespace {

using ir::Instruction;
using ir::Opcode;
using ir::Operand;
using ir::StateKind;
using ir::StateObject;

// --- lowering-time value model -------------------------------------------

enum class ObjKind {
  kArray,   // register array (possibly multi-row)
  kTable,   // match table
  kHash,    // hash function handle
  kCms,     // count-min sketch
  kBloom,   // bloom filter
  kSeq,     // sequence store (register-backed)
  kCrypto,  // crypto unit handle
};

struct ObjectHandle {
  ObjKind kind = ObjKind::kArray;
  std::vector<int> state_ids;       // one per row
  std::vector<std::uint64_t> seeds; // per-row hash seed (sketches)
  std::uint64_t depth = 0;
  int value_width = 32;
  int key_width = 32;
  std::string hash_type = "crc_32";
  std::uint64_t hash_ceil = 0;      // Hash(...) modulo bound; 0 = none
  bool table_stateful = true;
};

struct TemplateInstance;

struct Binding {
  enum class Kind {
    kUnbound,
    kConst,
    kFloatConst,
    kString,
    kOperand,
    kList,
    kObject,
    kTemplate,
    kFunction,
    kHeaderMarker,
    kNoneLit,
  };
  Kind kind = Kind::kUnbound;
  std::uint64_t cval = 0;
  double fval = 0.0;
  std::string sval;
  Operand op;
  bool is_float = false;   // operand holds f32 bits
  std::string hit_var;     // hit-flag variable of a table lookup result
  std::shared_ptr<std::vector<Binding>> list;
  std::shared_ptr<ObjectHandle> obj;
  std::shared_ptr<TemplateInstance> tmpl;
  const Stmt* func = nullptr;

  static Binding constant(std::uint64_t v) {
    Binding b;
    b.kind = Kind::kConst;
    b.cval = v;
    return b;
  }
  static Binding operand(Operand o, bool flt = false) {
    Binding b;
    b.kind = Kind::kOperand;
    b.op = std::move(o);
    b.is_float = flt;
    return b;
  }
  bool isConst() const { return kind == Kind::kConst; }
  bool isList() const { return kind == Kind::kList; }
};

struct TemplateInstance {
  const TemplateDef* def = nullptr;
  std::unordered_map<std::string, Binding> bound;
  std::string prefix;
};

std::uint64_t f32bits(double v) {
  return std::bit_cast<std::uint32_t>(static_cast<float>(v));
}

// --- the lowerer -----------------------------------------------------------

class Lowerer {
 public:
  Lowerer(const HeaderSpec& hdr, const CompileOptions& opts,
          const TemplateResolver* resolver)
      : hdr_(hdr), opts_(opts), resolver_(resolver) {
    prog_.name = opts.program_name;
    prefix_ = opts.state_prefix;
    registerHeader(hdr_);
    scopes_.emplace_back();
    for (const auto& [k, v] : opts.constants) {
      scopes_.back()[k] = Binding::constant(v);
    }
  }

  ir::IrProgram run(const Module& mod) {
    execStmts(mod.stmts);
    prog_.verify();
    optimizeProgram(&prog_);
    return std::move(prog_);
  }

 private:
  ir::IrProgram prog_;
  HeaderSpec hdr_;
  CompileOptions opts_;
  const TemplateResolver* resolver_;
  std::vector<std::unordered_map<std::string, Binding>> scopes_;
  Operand pred_;           // current guard (none = unconditional)
  int tmp_ = 0;
  std::string prefix_;
  std::string target_hint_ = "obj";
  int inline_depth_ = 0;
  std::uint64_t unrolled_ = 0;  // loop iterations unrolled so far

  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw CompileError(cat(prog_.name, ":", line, ": ", msg));
  }

  void registerHeader(const HeaderSpec& spec) {
    for (const auto& f : spec.fields) {
      if (f.count <= 1) {
        prog_.addField("hdr." + f.name, f.width);
      } else {
        for (int i = 0; i < f.count; ++i) {
          prog_.addField(cat("hdr.", f.name, ".", i), f.width);
        }
      }
    }
  }

  // --- scope management ---

  Binding* lookupName(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return &found->second;
    }
    return nullptr;
  }
  void bindName(const std::string& name, Binding b) {
    scopes_.back()[name] = std::move(b);
  }

  // --- instruction emission ---

  Operand newTmp(int width) { return Operand::var(cat("t", tmp_++), width); }

  bool effectful(Opcode op, const Operand& dest) const {
    const auto& info = ir::opcodeInfo(op);
    if (info.packet_action) return true;
    if (info.state == ir::StateAccess::kWrite ||
        info.state == ir::StateAccess::kReadWrite) {
      return true;
    }
    return dest.isField();
  }

  // Emits `op` into the program; side-effecting instructions inherit the
  // current predicate, pure value computations run unconditionally.
  Operand emit(Opcode op, int width, std::vector<Operand> srcs,
               int state = -1, Operand* dest2 = nullptr,
               Operand dest = Operand::none()) {
    Instruction ins;
    ins.op = op;
    ins.srcs = std::move(srcs);
    ins.state_id = state;
    if (ir::opcodeInfo(op).has_dest) {
      ins.dest = dest.isNone() ? newTmp(width) : dest;
    } else if (!dest.isNone()) {
      ins.dest = dest;
    }
    if (dest2 != nullptr) {
      *dest2 = newTmp(1);
      ins.dest2 = *dest2;
    }
    if (!pred_.isNone() && effectful(op, ins.dest)) {
      ins.pred = pred_;
    }
    append(std::move(ins));
    return prog_.instrs.back().dest;
  }

  // Emits a plain assignment (used for header-field writes; predicated).
  void emitFieldWrite(const Operand& field, const Operand& value) {
    Instruction ins;
    ins.op = Opcode::kAssign;
    ins.dest = field;
    ins.srcs = {value};
    if (!pred_.isNone()) ins.pred = pred_;
    append(std::move(ins));
  }

  // Every instruction lands here, within the program's budget.
  void append(Instruction ins) {
    if (prog_.instrs.size() >= kMaxInstructions) {
      throw CompileError(cat(prog_.name, ": instruction budget exceeded (at ",
                             "most ", kMaxInstructions, " per program)"));
    }
    prog_.instrs.push_back(std::move(ins));
  }

  // --- value materialization ---

  Operand materialize(const Binding& b, int line, int width_hint = 32) {
    switch (b.kind) {
      case Binding::Kind::kConst:
        return Operand::constant(b.cval, width_hint);
      case Binding::Kind::kFloatConst:
        return Operand::constant(f32bits(b.fval), 32);
      case Binding::Kind::kOperand:
        return b.op;
      default:
        fail(line, "expected a value");
    }
  }

  bool isFloatBinding(const Binding& b) const {
    return b.kind == Binding::Kind::kFloatConst ||
           (b.kind == Binding::Kind::kOperand && b.is_float);
  }

  // Lowers a binding to a 1-bit truth operand. Constants fold.
  Operand toBool(const Binding& b, int line) {
    if (b.isConst()) return Operand::constant(b.cval != 0 ? 1 : 0, 1);
    if (b.kind == Binding::Kind::kOperand) {
      if (b.op.width == 1) return b.op;
      return emit(Opcode::kCmpNe, 1, {b.op, Operand::constant(0, b.op.width)});
    }
    fail(line, "expected a boolean value");
  }

  Operand combinePred(const Operand& outer, const Operand& cond,
                      bool negate) {
    Operand c = cond;
    if (negate) {
      if (c.isConst()) {
        c = Operand::constant(c.value ? 0 : 1, 1);
      } else {
        c = emit(Opcode::kLNot, 1, {c});
      }
    }
    if (outer.isNone()) return c;
    if (c.isConst()) return c.value ? outer : c;
    return emit(Opcode::kLAnd, 1, {outer, c});
  }

  // --- statements ---

  void execStmts(const std::vector<StmtPtr>& stmts) {
    for (const auto& s : stmts) execStmt(*s);
  }

  void execStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kImport:
        return;
      case StmtKind::kDef: {
        Binding b;
        b.kind = Binding::Kind::kFunction;
        b.func = &s;
        bindName(s.def_name, std::move(b));
        return;
      }
      case StmtKind::kReturn:
        fail(s.line, "return outside of a module definition");
      case StmtKind::kExpr:
        evalExpr(*s.value);
        return;
      case StmtKind::kAssign: {
        if (s.target->kind == ExprKind::kName) target_hint_ = s.target->str;
        Binding v = evalExpr(*s.value);
        assignTo(*s.target, std::move(v), s.line);
        target_hint_ = "obj";
        return;
      }
      case StmtKind::kAugAssign: {
        execAugAssign(s);
        return;
      }
      case StmtKind::kIf: {
        execIf(s);
        return;
      }
      case StmtKind::kFor: {
        execFor(s);
        return;
      }
    }
  }

  void execIf(const Stmt& s) {
    Binding cb = evalExpr(*s.cond);
    // Compile-time branch folding: configuration conditions vanish.
    if (cb.isConst()) {
      execStmts(cb.cval != 0 ? s.body : s.orelse);
      return;
    }
    const Operand c = toBool(cb, s.line);
    const Operand saved = pred_;
    pred_ = combinePred(saved, c, /*negate=*/false);
    execStmts(s.body);
    if (!s.orelse.empty()) {
      pred_ = combinePred(saved, c, /*negate=*/true);
      execStmts(s.orelse);
    }
    pred_ = saved;
  }

  void execFor(const Stmt& s) {
    std::uint64_t lo = 0, hi = 0, step = 1;
    std::vector<std::uint64_t> vals;
    for (const auto& a : s.range_args) {
      Binding b = evalExpr(*a);
      if (b.isList()) {
        vals.push_back(b.list->size());
      } else if (b.isConst()) {
        vals.push_back(b.cval);
      } else {
        fail(s.line,
             "loop bound is not a compile-time constant; cannot unroll");
      }
    }
    if (vals.size() == 1) {
      hi = vals[0];
    } else if (vals.size() == 2) {
      lo = vals[0];
      hi = vals[1];
    } else {
      lo = vals[0];
      hi = vals[1];
      step = vals[2];
      if (step == 0) fail(s.line, "range() step must be non-zero");
    }
    const std::uint64_t trips = hi > lo ? (hi - lo - 1) / step + 1 : 0;
    if (trips > kMaxUnrollIterations - unrolled_) {
      fail(s.line, cat("loop unroll budget exceeded: ", trips,
                       " more iterations after ", unrolled_, " (at most ",
                       kMaxUnrollIterations, " per program)"));
    }
    unrolled_ += trips;
    // Loop bodies are lexically scoped per iteration: names first bound in
    // the body are iteration-local (assignments to outer names still merge
    // in place through lookupName). This keeps unrolled index arithmetic
    // compile-time constant across iterations.
    for (std::uint64_t t = 0; t < trips; ++t) {
      scopes_.emplace_back();
      bindName(s.loop_var, Binding::constant(lo + t * step));
      execStmts(s.body);
      scopes_.pop_back();
    }
  }

  void execAugAssign(const Stmt& s) {
    // target <op>= value  ==>  target = target <op> value, with a direct
    // reg.add fast path for array cells.
    if (s.target->kind == ExprKind::kIndex && s.aug_op == "+") {
      Binding base = evalExpr(*s.target->base);
      if (base.kind == Binding::Kind::kObject &&
          (base.obj->kind == ObjKind::kArray ||
           base.obj->kind == ObjKind::kSeq) &&
          base.obj->state_ids.size() == 1) {
        Binding idx = evalExpr(*s.target->index);
        Binding delta = evalExpr(*s.value);
        emit(Opcode::kRegAdd, base.obj->value_width,
             {materialize(idx, s.line, base.obj->key_width),
              materialize(delta, s.line, base.obj->value_width)},
             base.obj->state_ids[0]);
        return;
      }
    }
    Binding lhs = evalExpr(*s.target);
    Binding rhs = evalExpr(*s.value);
    Binding result = evalBinaryOnValues(s.aug_op, lhs, rhs, s.line);
    assignTo(*s.target, std::move(result), s.line);
  }

  // --- assignment targets ---

  void assignTo(const Expr& target, Binding value, int line) {
    switch (target.kind) {
      case ExprKind::kName: {
        assignToName(target.str, std::move(value), line);
        return;
      }
      case ExprKind::kAttr: {
        const Operand field = fieldOperand(target, line);
        emitFieldWrite(field, materialize(value, line, field.width));
        return;
      }
      case ExprKind::kIndex: {
        // hdr.vec[i] = v, or arr[i] = v.
        Binding base = evalExpr(*target.base);
        Binding idx = evalExpr(*target.index);
        if (base.kind == Binding::Kind::kObject &&
            (base.obj->kind == ObjKind::kArray ||
             base.obj->kind == ObjKind::kSeq)) {
          if (base.obj->state_ids.size() != 1) {
            fail(line, "cannot assign to a multi-row array without a row");
          }
          emit(Opcode::kRegWrite, 0,
               {materialize(idx, line, base.obj->key_width),
                materialize(value, line, base.obj->value_width)},
               base.obj->state_ids[0]);
          return;
        }
        if (base.isList()) {
          if (!idx.isConst()) fail(line, "list index must be constant");
          if (idx.cval >= base.list->size()) fail(line, "list index range");
          Binding& slot = (*base.list)[idx.cval];
          if (slot.kind == Binding::Kind::kOperand && slot.op.isField()) {
            emitFieldWrite(slot.op, materialize(value, line, slot.op.width));
          } else {
            slot = mergeAssign(slot, value, line);
          }
          return;
        }
        fail(line, "unsupported assignment target");
      }
      default:
        fail(line, "unsupported assignment target");
    }
  }

  // Predicated SSA merge: under a guard, new value = select(p, new, old).
  Binding mergeAssign(const Binding& old, const Binding& val, int line) {
    if (pred_.isNone()) return val;
    if (old.kind == Binding::Kind::kUnbound) return val;
    if (old.isList() || val.isList()) {
      if (!old.isList() || !val.isList() ||
          old.list->size() != val.list->size()) {
        fail(line, "conditional list assignment shape mismatch");
      }
      auto merged = std::make_shared<std::vector<Binding>>();
      for (std::size_t i = 0; i < old.list->size(); ++i) {
        merged->push_back(mergeAssign((*old.list)[i], (*val.list)[i], line));
      }
      Binding b;
      b.kind = Binding::Kind::kList;
      b.list = std::move(merged);
      return b;
    }
    const Operand ov = materialize(old, line);
    const Operand nv = materialize(val, line, ov.width);
    const int w = std::max(ov.width, nv.width);
    Operand sel = emit(Opcode::kSelect, w, {pred_, nv, ov});
    Binding out =
        Binding::operand(sel, isFloatBinding(val) || isFloatBinding(old));
    // Preserve lookup hit flags across the merge so `x != None` still works
    // after a conditional reassignment.
    if (!val.hit_var.empty() || !old.hit_var.empty()) {
      const Operand vh = val.hit_var.empty() ? Operand::constant(0, 1)
                                             : Operand::var(val.hit_var, 1);
      const Operand oh = old.hit_var.empty() ? Operand::constant(0, 1)
                                             : Operand::var(old.hit_var, 1);
      out.hit_var = emit(Opcode::kSelect, 1, {pred_, vh, oh}).name;
    }
    return out;
  }

  void assignToName(const std::string& name, Binding value, int line) {
    Binding* old = lookupName(name);
    if (old == nullptr) {
      bindName(name, std::move(value));
      return;
    }
    if (old->kind == Binding::Kind::kObject ||
        old->kind == Binding::Kind::kTemplate) {
      // Rebinding an object name is a plain rebind (configuration time).
      *old = std::move(value);
      return;
    }
    *old = mergeAssign(*old, value, line);
  }

  // --- header fields ---

  // Resolves `hdr.x` (or nested) to a field operand; registers the field.
  Operand fieldOperand(const Expr& e, int line) {
    const std::string path = e.dottedPath();
    if (path.empty() || !startsWith(path, "hdr.")) {
      fail(line, "expected a header field (hdr.*)");
    }
    const std::string name = path.substr(4);
    const HeaderFieldSpec* spec = hdr_.find(name);
    if (spec == nullptr) {
      // Unknown fields are implicitly declared 32-bit (INC header scratch).
      prog_.addField(path, 32);
      return Operand::field(path, 32);
    }
    if (spec->count > 1) fail(line, "vector field used without an index");
    return Operand::field(path, spec->width);
  }

  // --- expressions ---

  Binding evalExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kInt:
        return Binding::constant(e.int_value);
      case ExprKind::kFloat: {
        Binding b;
        b.kind = Binding::Kind::kFloatConst;
        b.fval = e.float_value;
        return b;
      }
      case ExprKind::kString: {
        Binding b;
        b.kind = Binding::Kind::kString;
        b.sval = e.str;
        return b;
      }
      case ExprKind::kNone: {
        Binding b;
        b.kind = Binding::Kind::kNoneLit;
        return b;
      }
      case ExprKind::kName: {
        if (e.str == "hdr") {
          Binding b;
          b.kind = Binding::Kind::kHeaderMarker;
          return b;
        }
        Binding* found = lookupName(e.str);
        if (found == nullptr) fail(e.line, "undefined name '" + e.str + "'");
        return *found;
      }
      case ExprKind::kAttr:
        return evalAttr(e);
      case ExprKind::kIndex:
        return evalIndex(e);
      case ExprKind::kCall:
        return evalCall(e);
      case ExprKind::kBinary:
        return evalBinary(e);
      case ExprKind::kUnary:
        return evalUnary(e);
      case ExprKind::kDict: {
        // Dicts appear only as packet-action arguments; pass through.
        fail(e.line, "dict literal outside of a packet action");
      }
      case ExprKind::kListLit: {
        Binding b;
        b.kind = Binding::Kind::kList;
        b.list = std::make_shared<std::vector<Binding>>();
        for (const auto& a : e.args) b.list->push_back(evalExpr(*a));
        return b;
      }
    }
    fail(e.line, "unsupported expression");
  }

  Binding evalAttr(const Expr& e) {
    const std::string path = e.dottedPath();
    if (!path.empty() && startsWith(path, "hdr.")) {
      const std::string name = path.substr(4);
      const HeaderFieldSpec* spec = hdr_.find(name);
      if (spec != nullptr && spec->count > 1) {
        // Vector field: expand to a list of element operands.
        Binding b;
        b.kind = Binding::Kind::kList;
        b.list = std::make_shared<std::vector<Binding>>();
        for (int i = 0; i < spec->count; ++i) {
          b.list->push_back(Binding::operand(
              Operand::field(cat(path, ".", i), spec->width)));
        }
        return b;
      }
      return Binding::operand(fieldOperand(e, e.line));
    }
    fail(e.line, "unsupported attribute access");
  }

  Binding evalIndex(const Expr& e) {
    Binding base = evalExpr(*e.base);
    Binding idx = evalExpr(*e.index);
    if (base.isList()) {
      if (!idx.isConst()) fail(e.line, "list index must be constant");
      if (idx.cval >= base.list->size()) {
        fail(e.line, cat("index ", idx.cval, " out of range (size ",
                         base.list->size(), ")"));
      }
      return (*base.list)[idx.cval];
    }
    if (base.kind == Binding::Kind::kObject) {
      auto& obj = *base.obj;
      if ((obj.kind == ObjKind::kArray || obj.kind == ObjKind::kSeq) &&
          obj.state_ids.size() > 1) {
        // Row selection: mem[i] picks one register row.
        if (!idx.isConst()) fail(e.line, "array row index must be constant");
        if (idx.cval >= obj.state_ids.size()) {
          fail(e.line, "array row out of range");
        }
        Binding b;
        b.kind = Binding::Kind::kObject;
        b.obj = std::make_shared<ObjectHandle>(obj);
        b.obj->state_ids = {obj.state_ids[idx.cval]};
        if (!obj.seeds.empty()) b.obj->seeds = {obj.seeds[idx.cval]};
        return b;
      }
      // Single-row array: arr[i] reads the cell.
      if (obj.kind == ObjKind::kArray || obj.kind == ObjKind::kSeq) {
        Operand v = emit(Opcode::kRegRead, obj.value_width,
                         {materialize(idx, e.line, obj.key_width)},
                         obj.state_ids[0]);
        return Binding::operand(v);
      }
    }
    fail(e.line, "unsupported subscript");
  }

  Binding evalUnary(const Expr& e) {
    Binding v = evalExpr(*e.base);
    if (e.str == "-") {
      if (v.isConst()) return Binding::constant(~v.cval + 1);
      if (v.kind == Binding::Kind::kFloatConst) {
        Binding b;
        b.kind = Binding::Kind::kFloatConst;
        b.fval = -v.fval;
        return b;
      }
      const Operand o = materialize(v, e.line);
      return Binding::operand(
          emit(Opcode::kSub, o.width, {Operand::constant(0, o.width), o}));
    }
    if (e.str == "~") {
      if (v.isConst()) return Binding::constant(~v.cval);
      const Operand o = materialize(v, e.line);
      return Binding::operand(emit(Opcode::kNot, o.width, {o}));
    }
    if (e.str == "not") {
      if (v.isConst()) return Binding::constant(v.cval == 0 ? 1 : 0);
      return Binding::operand(emit(Opcode::kLNot, 1, {toBool(v, e.line)}));
    }
    fail(e.line, "unsupported unary operator " + e.str);
  }

  Binding evalBinary(const Expr& e) {
    // None comparisons consult the hit flag of a table lookup.
    if (e.index->kind == ExprKind::kNone || e.base->kind == ExprKind::kNone) {
      const Expr& other = e.index->kind == ExprKind::kNone ? *e.base : *e.index;
      Binding v = evalExpr(other);
      if (v.hit_var.empty()) {
        fail(e.line, "None comparison requires a table lookup result");
      }
      Operand hit = Operand::var(v.hit_var, 1);
      if (e.str == "==") return Binding::operand(emit(Opcode::kLNot, 1, {hit}));
      if (e.str == "!=") return Binding::operand(hit);
      fail(e.line, "unsupported None comparison");
    }
    Binding lhs = evalExpr(*e.base);
    Binding rhs = evalExpr(*e.index);
    return evalBinaryOnValues(e.str, lhs, rhs, e.line);
  }

  Binding evalBinaryOnValues(const std::string& op, const Binding& lhs,
                             const Binding& rhs, int line) {
    // Element-wise list semantics (vector gradients in MLAgg).
    if (lhs.isList() || rhs.isList()) {
      return evalListBinary(op, lhs, rhs, line);
    }
    // Constant folding.
    if (lhs.isConst() && rhs.isConst()) {
      return Binding::constant(foldConst(op, lhs.cval, rhs.cval, line));
    }
    if ((lhs.kind == Binding::Kind::kFloatConst ||
         rhs.kind == Binding::Kind::kFloatConst) &&
        (lhs.isConst() || lhs.kind == Binding::Kind::kFloatConst) &&
        (rhs.isConst() || rhs.kind == Binding::Kind::kFloatConst)) {
      return foldFloatConst(op, lhs, rhs, line);
    }

    const bool flt = isFloatBinding(lhs) || isFloatBinding(rhs);
    if (flt) return evalFloatBinary(op, lhs, rhs, line);

    Operand a = materialize(lhs, line);
    Operand b = materialize(rhs, line, a.width);
    const int w = std::max(a.width, b.width);

    // `x < 0` on fixed-width data means "sign bit set" (overflow checks in
    // the MLAgg template); plain unsigned compare would constant-fold.
    if (op == "<" && b.isConst() && b.value == 0) {
      Operand sh = emit(Opcode::kShr, w, {a, Operand::constant(
                                                 static_cast<std::uint64_t>(
                                                     a.width - 1),
                                                 8)});
      return Binding::operand(
          emit(Opcode::kCmpEq, 1, {sh, Operand::constant(1, 1)}));
    }

    static const std::unordered_map<std::string, Opcode> kMap = {
        {"+", Opcode::kAdd},   {"-", Opcode::kSub},  {"*", Opcode::kMul},
        {"/", Opcode::kDiv},   {"//", Opcode::kDiv}, {"%", Opcode::kMod},
        {"&", Opcode::kAnd},   {"|", Opcode::kOr},   {"^", Opcode::kXor},
        {"<<", Opcode::kShl},  {">>", Opcode::kShr}, {"<", Opcode::kCmpLt},
        {"<=", Opcode::kCmpLe},{">", Opcode::kCmpGt},{">=", Opcode::kCmpGe},
        {"==", Opcode::kCmpEq},{"!=", Opcode::kCmpNe},
    };
    if (op == "and" || op == "or") {
      Operand la = toBool(lhs, line);
      Operand lb = toBool(rhs, line);
      return Binding::operand(
          emit(op == "and" ? Opcode::kLAnd : Opcode::kLOr, 1, {la, lb}));
    }
    auto it = kMap.find(op);
    if (it == kMap.end()) fail(line, "unsupported operator '" + op + "'");
    const Opcode opc = it->second;
    const bool is_cmp = opc >= Opcode::kCmpLt && opc <= Opcode::kCmpGt;
    return Binding::operand(emit(opc, is_cmp ? 1 : w, {a, b}));
  }

  Binding evalListBinary(const std::string& op, const Binding& lhs,
                         const Binding& rhs, int line) {
    const std::size_t n = lhs.isList() ? lhs.list->size() : rhs.list->size();
    if (lhs.isList() && rhs.isList() && lhs.list->size() != rhs.list->size()) {
      fail(line, "vector length mismatch");
    }
    Binding out;
    out.kind = Binding::Kind::kList;
    out.list = std::make_shared<std::vector<Binding>>();
    for (std::size_t i = 0; i < n; ++i) {
      const Binding& a = lhs.isList() ? (*lhs.list)[i] : lhs;
      const Binding& b = rhs.isList() ? (*rhs.list)[i] : rhs;
      out.list->push_back(evalBinaryOnValues(op, a, b, line));
    }
    return out;
  }

  Binding evalFloatBinary(const std::string& op, const Binding& lhs,
                          const Binding& rhs, int line) {
    Operand a = materialize(lhs, line, 32);
    Operand b = materialize(rhs, line, 32);
    static const std::unordered_map<std::string, Opcode> kMap = {
        {"+", Opcode::kFAdd}, {"-", Opcode::kFSub},
        {"*", Opcode::kFMul}, {"/", Opcode::kFDiv},
    };
    auto it = kMap.find(op);
    if (it != kMap.end()) {
      return Binding::operand(emit(it->second, 32, {a, b}), /*flt=*/true);
    }
    if (op == "<") return Binding::operand(emit(Opcode::kFCmpLt, 1, {a, b}));
    if (op == ">") return Binding::operand(emit(Opcode::kFCmpLt, 1, {b, a}));
    if (op == "==") return Binding::operand(emit(Opcode::kCmpEq, 1, {a, b}));
    if (op == "!=") return Binding::operand(emit(Opcode::kCmpNe, 1, {a, b}));
    fail(line, "unsupported float operator '" + op + "'");
  }

  std::uint64_t foldConst(const std::string& op, std::uint64_t a,
                          std::uint64_t b, int line) {
    if (op == "+") return a + b;
    if (op == "-") return a - b;
    if (op == "*") return a * b;
    if (op == "/" || op == "//") return b == 0 ? 0 : a / b;
    if (op == "%") return b == 0 ? 0 : a % b;
    if (op == "&") return a & b;
    if (op == "|") return a | b;
    if (op == "^") return a ^ b;
    if (op == "<<") return b >= 64 ? 0 : a << b;
    if (op == ">>") return b >= 64 ? 0 : a >> b;
    if (op == "<") return a < b;
    if (op == "<=") return a <= b;
    if (op == ">") return a > b;
    if (op == ">=") return a >= b;
    if (op == "==") return a == b;
    if (op == "!=") return a != b;
    if (op == "and") return (a != 0 && b != 0) ? 1 : 0;
    if (op == "or") return (a != 0 || b != 0) ? 1 : 0;
    if (op == "**") {
      std::uint64_t r = 1;
      for (std::uint64_t i = 0; i < b; ++i) r *= a;
      return r;
    }
    fail(line, "unsupported constant operator '" + op + "'");
  }

  Binding foldFloatConst(const std::string& op, const Binding& lhs,
                         const Binding& rhs, int line) {
    const double a = lhs.kind == Binding::Kind::kFloatConst
                         ? lhs.fval
                         : static_cast<double>(lhs.cval);
    const double b = rhs.kind == Binding::Kind::kFloatConst
                         ? rhs.fval
                         : static_cast<double>(rhs.cval);
    Binding out;
    out.kind = Binding::Kind::kFloatConst;
    if (op == "+") out.fval = a + b;
    else if (op == "-") out.fval = a - b;
    else if (op == "*") out.fval = a * b;
    else if (op == "/") out.fval = b == 0 ? 0 : a / b;
    else if (op == "<") return Binding::constant(a < b);
    else if (op == ">") return Binding::constant(a > b);
    else if (op == "==") return Binding::constant(a == b);
    else if (op == "!=") return Binding::constant(a != b);
    else fail(line, "unsupported float constant operator '" + op + "'");
    return out;
  }

  // --- calls: builtins, object methods, templates, user functions ---

  Binding evalCall(const Expr& e) {
    // Method call: obj.method(args).
    if (e.base->kind == ExprKind::kAttr) {
      const Expr& attr = *e.base;
      // hdr has no methods; anything else with an attr base is a method.
      if (attr.base->dottedPath() != "hdr") {
        Binding recv = evalExpr(*attr.base);
        return evalMethod(recv, attr.str, e);
      }
    }
    if (e.base->kind == ExprKind::kName) {
      const std::string& name = e.base->str;
      Binding* bound = lookupName(name);
      if (bound != nullptr) {
        if (bound->kind == Binding::Kind::kTemplate) {
          return inlineTemplateCall(*bound->tmpl, e);
        }
        if (bound->kind == Binding::Kind::kFunction) {
          return inlineFunction(*bound->func, e);
        }
      }
      return evalBuiltinOrCtor(name, e);
    }
    fail(e.line, "unsupported call target");
  }

  std::vector<const Expr*> callArgs(const Expr& e) const {
    std::vector<const Expr*> args;
    for (const auto& a : e.args) args.push_back(a.get());
    for (const auto& kw : e.kwargs) args.push_back(kw.value.get());
    return args;
  }

  const Expr* kwArg(const Expr& e, const std::string& name) const {
    for (const auto& kw : e.kwargs) {
      if (kw.name == name) return kw.value.get();
    }
    return nullptr;
  }

  std::uint64_t constArg(const Expr& e, const std::string& name,
                         std::uint64_t def) {
    const Expr* a = kwArg(e, name);
    if (a == nullptr) return def;
    Binding b = evalExpr(*a);
    if (b.isList()) return b.list->size();
    if (!b.isConst()) fail(e.line, "'" + name + "' must be constant");
    return b.cval;
  }

  // constArg bounded by a lowering limit.
  std::uint64_t cappedArg(const Expr& e, const std::string& name,
                          std::uint64_t def, std::uint64_t max) {
    const std::uint64_t v = constArg(e, name, def);
    if (v > max) {
      fail(e.line, cat("'", name, "' = ", v, " exceeds the limit of ", max));
    }
    return v;
  }

  // Fails unless `count` more state objects fit the program's budget.
  void checkStateBudget(const Expr& e, std::uint64_t count) {
    if (count > kMaxStateObjects - prog_.states.size()) {
      fail(e.line, cat(count, " more state objects after ",
                       prog_.states.size(), " exceed the limit of ",
                       kMaxStateObjects, " per program"));
    }
  }

  std::string strArg(const Expr& e, const std::string& name,
                     const std::string& def) {
    const Expr* a = kwArg(e, name);
    if (a == nullptr) return def;
    Binding b = evalExpr(*a);
    if (b.kind != Binding::Kind::kString) {
      fail(e.line, "'" + name + "' must be a string");
    }
    return b.sval;
  }

  int operandWidthOf(const Expr& ex, int line) {
    Binding b = evalExpr(ex);
    if (b.isList()) {
      if (b.list->empty()) return 32;
      return materialize((*b.list)[0], line).width;
    }
    return materialize(b, line).width;
  }

  Binding evalBuiltinOrCtor(const std::string& name, const Expr& e) {
    // --- object constructors ---
    if (name == "Array" || name == "Seq") return ctorArray(name, e);
    if (name == "Table") return ctorTable(e);
    if (name == "Hash") return ctorHash(e);
    if (name == "Sketch") return ctorSketch(e);
    if (name == "Crypto") return ctorCrypto(e);

    // --- templates resolved through the module library ---
    if (resolver_ != nullptr) {
      const TemplateDef* td = resolver_->find(name);
      if (td != nullptr) return instantiateTemplate(*td, e);
    }

    // --- primitives and Python built-ins ---
    return evalPrimitive(name, e);
  }

  Binding ctorArray(const std::string& name, const Expr& e) {
    const std::uint64_t rows = constArg(e, "row", 1);
    checkStateBudget(e, rows);
    const std::uint64_t size = cappedArg(e, "size", 1024, kMaxStateDepth);
    const std::uint64_t w = cappedArg(e, "w", 32, kMaxValueWidth);
    auto obj = std::make_shared<ObjectHandle>();
    obj->kind = name == "Seq" ? ObjKind::kSeq : ObjKind::kArray;
    obj->depth = size;
    obj->value_width = static_cast<int>(w);
    obj->key_width = bitsFor(size);
    for (std::uint64_t r = 0; r < rows; ++r) {
      StateObject s;
      s.name = rows == 1 ? prefix_ + target_hint_
                         : cat(prefix_, target_hint_, "_r", r);
      s.kind = StateKind::kRegister;
      s.stateful = true;
      s.depth = size;
      s.key_width = obj->key_width;
      s.value_width = obj->value_width;
      obj->state_ids.push_back(prog_.addState(s));
    }
    Binding b;
    b.kind = Binding::Kind::kObject;
    b.obj = std::move(obj);
    return b;
  }

  Binding ctorTable(const Expr& e) {
    const std::string type = strArg(e, "type", "exact");
    checkStateBudget(e, 1);
    const std::uint64_t size = cappedArg(e, "size", 1024, kMaxStateDepth);
    auto obj = std::make_shared<ObjectHandle>();
    obj->kind = ObjKind::kTable;
    obj->depth = size;
    const Expr* keys = kwArg(e, "keys");
    const Expr* vals = kwArg(e, "vals");
    obj->key_width = keys != nullptr ? operandWidthOf(*keys, e.line) : 32;
    obj->value_width = vals != nullptr ? operandWidthOf(*vals, e.line) : 32;
    obj->table_stateful = constArg(e, "stateful", 1) != 0;
    StateObject s;
    s.name = prefix_ + target_hint_;
    s.kind = type == "ternary"
                 ? StateKind::kTernaryTable
                 : (type == "lpm" ? StateKind::kLpmTable
                                  : StateKind::kExactTable);
    s.stateful = obj->table_stateful;
    s.depth = size;
    s.key_width = obj->key_width;
    s.value_width = obj->value_width;
    obj->state_ids.push_back(prog_.addState(s));
    Binding b;
    b.kind = Binding::Kind::kObject;
    b.obj = std::move(obj);
    return b;
  }

  Binding ctorHash(const Expr& e) {
    auto obj = std::make_shared<ObjectHandle>();
    obj->kind = ObjKind::kHash;
    obj->hash_type = strArg(e, "type", "crc_32");
    obj->hash_ceil = constArg(e, "ceil", 0);
    Binding b;
    b.kind = Binding::Kind::kObject;
    b.obj = std::move(obj);
    return b;
  }

  Binding ctorSketch(const Expr& e) {
    const std::string type = strArg(e, "type", "count-min");
    const std::uint64_t rows = constArg(e, "rows", 3);
    checkStateBudget(e, rows);
    const std::uint64_t size = cappedArg(e, "size", 65536, kMaxStateDepth);
    auto obj = std::make_shared<ObjectHandle>();
    obj->kind = type == "bloom-filter" ? ObjKind::kBloom : ObjKind::kCms;
    obj->depth = size;
    obj->value_width =
        obj->kind == ObjKind::kBloom
            ? 1
            : static_cast<int>(cappedArg(e, "w", 32, kMaxValueWidth));
    obj->key_width = bitsFor(size);
    obj->hash_type = strArg(e, "hash", "crc_32");
    for (std::uint64_t r = 0; r < rows; ++r) {
      StateObject s;
      s.name = cat(prefix_, target_hint_, "_r", r);
      s.kind = StateKind::kRegister;
      s.stateful = true;
      s.depth = size;
      s.key_width = obj->key_width;
      s.value_width = obj->value_width;
      obj->state_ids.push_back(prog_.addState(s));
      obj->seeds.push_back(0x9E37u * (r + 1));
    }
    Binding b;
    b.kind = Binding::Kind::kObject;
    b.obj = std::move(obj);
    return b;
  }

  Binding ctorCrypto(const Expr& e) {
    auto obj = std::make_shared<ObjectHandle>();
    obj->kind = ObjKind::kCrypto;
    obj->hash_type = strArg(e, "type", "aes");
    Binding b;
    b.kind = Binding::Kind::kObject;
    b.obj = std::move(obj);
    return b;
  }

  // Hash of `key` through handle: crc16/crc32/identity (+ optional seed),
  // reduced modulo `ceil` (masked when ceil is a power of two — the form a
  // switch pipeline supports without BIC div/mod).
  Operand emitHash(const ObjectHandle& h, const Operand& key,
                   std::uint64_t seed, std::uint64_t ceil) {
    Opcode op = Opcode::kHashCrc32;
    int w = 32;
    if (h.hash_type == "crc_16" || h.hash_type == "crc16") {
      op = Opcode::kHashCrc16;
      w = 16;
    } else if (h.hash_type == "identity") {
      op = Opcode::kHashIdentity;
      w = key.width;
    }
    std::vector<Operand> srcs = {key};
    if (seed != 0) srcs.push_back(Operand::constant(seed, 32));
    Operand hv = emit(op, w, std::move(srcs));
    if (ceil == 0) return hv;
    if ((ceil & (ceil - 1)) == 0) {
      return emit(Opcode::kAnd, bitsFor(ceil),
                  {hv, Operand::constant(ceil - 1, w)});
    }
    return emit(Opcode::kMod, bitsFor(ceil),
                {hv, Operand::constant(ceil, w)});
  }

  // get/read on any object.
  Binding objRead(const ObjectHandle& obj, const Operand& key, int line) {
    switch (obj.kind) {
      case ObjKind::kHash:
        return Binding::operand(emitHash(obj, key, 0, obj.hash_ceil));
      case ObjKind::kArray:
      case ObjKind::kSeq: {
        if (obj.state_ids.size() == 1) {
          return Binding::operand(
              emit(Opcode::kRegRead, obj.value_width, {key},
                   obj.state_ids[0]));
        }
        Binding out;
        out.kind = Binding::Kind::kList;
        out.list = std::make_shared<std::vector<Binding>>();
        for (int sid : obj.state_ids) {
          out.list->push_back(Binding::operand(
              emit(Opcode::kRegRead, obj.value_width, {key}, sid)));
        }
        return out;
      }
      case ObjKind::kTable: {
        const auto& st = prog_.states[static_cast<std::size_t>(
            obj.state_ids[0])];
        const Opcode op =
            st.kind == StateKind::kExactTable
                ? (st.stateful ? Opcode::kSemtLookup : Opcode::kEmtLookup)
                : (st.stateful ? Opcode::kStmtLookup : Opcode::kTmtLookup);
        Operand hit;
        Operand v = emit(op, obj.value_width, {key}, obj.state_ids[0], &hit);
        Binding b = Binding::operand(v);
        b.hit_var = hit.name;
        return b;
      }
      case ObjKind::kCms: {
        Operand best;
        for (std::size_t r = 0; r < obj.state_ids.size(); ++r) {
          Operand idx = emitHash(obj, key, obj.seeds[r], obj.depth);
          Operand v = emit(Opcode::kRegRead, obj.value_width, {idx},
                           obj.state_ids[r]);
          best = r == 0 ? v : emit(Opcode::kMin, obj.value_width, {best, v});
        }
        return Binding::operand(best);
      }
      case ObjKind::kBloom: {
        Operand all;
        for (std::size_t r = 0; r < obj.state_ids.size(); ++r) {
          Operand idx = emitHash(obj, key, obj.seeds[r], obj.depth);
          Operand v = emit(Opcode::kRegRead, 1, {idx}, obj.state_ids[r]);
          all = r == 0 ? v : emit(Opcode::kLAnd, 1, {all, v});
        }
        return Binding::operand(all);
      }
      case ObjKind::kCrypto:
        fail(line, "crypto objects use encrypt()/decrypt()");
    }
    fail(line, "unreadable object");
  }

  void objWrite(const ObjectHandle& obj, const Operand& key,
                const Binding& val, int line) {
    switch (obj.kind) {
      case ObjKind::kArray:
      case ObjKind::kSeq: {
        if (obj.state_ids.size() == 1) {
          emit(Opcode::kRegWrite, 0,
               {key, materialize(val, line, obj.value_width)},
               obj.state_ids[0]);
          return;
        }
        if (!val.isList() || val.list->size() != obj.state_ids.size()) {
          fail(line, "multi-row array write needs a matching vector");
        }
        for (std::size_t r = 0; r < obj.state_ids.size(); ++r) {
          emit(Opcode::kRegWrite, 0,
               {key, materialize((*val.list)[r], line, obj.value_width)},
               obj.state_ids[r]);
        }
        return;
      }
      case ObjKind::kTable: {
        const auto& st = prog_.states[static_cast<std::size_t>(
            obj.state_ids[0])];
        const Opcode op = st.kind == StateKind::kExactTable
                              ? Opcode::kSemtWrite
                              : Opcode::kStmtWrite;
        emit(op, 0, {key, materialize(val, line, obj.value_width)},
             obj.state_ids[0]);
        return;
      }
      case ObjKind::kBloom: {
        for (std::size_t r = 0; r < obj.state_ids.size(); ++r) {
          Operand idx = emitHash(obj, key, obj.seeds[r], obj.depth);
          emit(Opcode::kRegWrite, 0, {idx, Operand::constant(1, 1)},
               obj.state_ids[r]);
        }
        return;
      }
      case ObjKind::kCms: {
        for (std::size_t r = 0; r < obj.state_ids.size(); ++r) {
          Operand idx = emitHash(obj, key, obj.seeds[r], obj.depth);
          emit(Opcode::kRegWrite, 0,
               {idx, materialize(val, line, obj.value_width)},
               obj.state_ids[r]);
        }
        return;
      }
      default:
        fail(line, "unwritable object");
    }
  }

  Binding objCount(const ObjectHandle& obj, const Operand& key,
                   const Operand& delta, int line) {
    switch (obj.kind) {
      case ObjKind::kArray:
      case ObjKind::kSeq: {
        if (obj.state_ids.size() != 1) {
          fail(line, "count() on a multi-row array needs a row index");
        }
        return Binding::operand(emit(Opcode::kRegAdd, obj.value_width,
                                     {key, delta}, obj.state_ids[0]));
      }
      case ObjKind::kCms: {
        Operand best;
        for (std::size_t r = 0; r < obj.state_ids.size(); ++r) {
          Operand idx = emitHash(obj, key, obj.seeds[r], obj.depth);
          Operand v = emit(Opcode::kRegAdd, obj.value_width, {idx, delta},
                           obj.state_ids[r]);
          best = r == 0 ? v : emit(Opcode::kMin, obj.value_width, {best, v});
        }
        return Binding::operand(best);
      }
      default:
        fail(line, "count() expects an Array or count-min Sketch");
    }
  }

  void objDelete(const ObjectHandle& obj, const Operand& key, int line) {
    switch (obj.kind) {
      case ObjKind::kArray:
      case ObjKind::kSeq:
        for (int sid : obj.state_ids) {
          emit(Opcode::kRegClear, 0, {key}, sid);
        }
        return;
      case ObjKind::kTable:
        emit(Opcode::kSemtDelete, 0, {key}, obj.state_ids[0]);
        return;
      default:
        fail(line, "del() expects an Array or Table");
    }
  }

  // Packet actions with optional header-update dict: back(hdr={...}).
  Binding packetAction(Opcode op, const Expr& e) {
    for (const auto& kw : e.kwargs) {
      if (kw.name != "hdr") continue;
      if (kw.value->kind != ExprKind::kDict) {
        fail(e.line, "packet action expects hdr={field: value, ...}");
      }
      for (const auto& fieldkw : kw.value->kwargs) {
        const std::string path = "hdr." + fieldkw.name;
        int width = prog_.fieldWidth(path);
        Binding v = evalExpr(*fieldkw.value);
        if (v.isList()) {
          // Vector header update: hdr.data = new_vals.
          const HeaderFieldSpec* spec = hdr_.find(fieldkw.name);
          if (spec == nullptr || spec->count != static_cast<int>(v.list->size())) {
            fail(e.line, "vector header update shape mismatch");
          }
          for (std::size_t i = 0; i < v.list->size(); ++i) {
            emitFieldWrite(Operand::field(cat(path, ".", i), spec->width),
                           materialize((*v.list)[i], e.line, spec->width));
          }
          continue;
        }
        if (width < 0) {
          prog_.addField(path, 32);
          width = 32;
        }
        emitFieldWrite(Operand::field(path, width),
                       materialize(v, e.line, width));
      }
    }
    emit(op, 0, {});
    return {};
  }

  Binding evalPrimitive(const std::string& name, const Expr& e) {
    const auto args = callArgs(e);
    auto argBind = [&](std::size_t i) -> Binding {
      if (i >= args.size()) fail(e.line, name + ": missing argument");
      return evalExpr(*args[i]);
    };
    auto argOp = [&](std::size_t i, int width_hint = 32) -> Operand {
      return materialize(argBind(i), e.line, width_hint);
    };

    // -- object primitives (Fig. 5) --
    if (name == "get" || name == "read") {
      Binding o = argBind(0);
      if (o.kind != Binding::Kind::kObject) fail(e.line, name + ": not an object");
      return objRead(*o.obj, argOp(1, o.obj->key_width), e.line);
    }
    if (name == "write") {
      Binding o = argBind(0);
      if (o.kind != Binding::Kind::kObject) fail(e.line, "write: not an object");
      objWrite(*o.obj, argOp(1, o.obj->key_width), argBind(2), e.line);
      return {};
    }
    if (name == "count") {
      Binding o = argBind(0);
      if (o.kind != Binding::Kind::kObject) fail(e.line, "count: not an object");
      return objCount(*o.obj, argOp(1, o.obj->key_width),
                      argOp(2, o.obj->value_width), e.line);
    }
    if (name == "del" || name == "delete") {
      // del(hdr.f[i]) — sparse-value elimination shrinks the packet.
      if (!args.empty() && (args[0]->kind == ExprKind::kIndex ||
                            args[0]->kind == ExprKind::kAttr)) {
        Binding v = argBind(0);
        if (v.kind == Binding::Kind::kOperand && v.op.isField()) {
          emitFieldWrite(v.op, Operand::constant(0, v.op.width));
          prog_.addField("hdr._len", 16);
          Operand len = Operand::field("hdr._len", 16);
          Instruction dec;
          dec.op = Opcode::kSub;
          dec.dest = len;
          dec.srcs = {len, Operand::constant(
                               static_cast<std::uint64_t>(v.op.width / 8),
                               16)};
          if (!pred_.isNone()) dec.pred = pred_;
          append(std::move(dec));
          return {};
        }
      }
      Binding o = argBind(0);
      if (o.kind != Binding::Kind::kObject) fail(e.line, "del: not an object");
      objDelete(*o.obj, argOp(1, o.obj->key_width), e.line);
      return {};
    }
    if (name == "clear") {
      Binding o = argBind(0);
      if (o.kind != Binding::Kind::kObject) fail(e.line, "clear: not an object");
      objDelete(*o.obj, argOp(1, o.obj->key_width), e.line);
      return {};
    }
    if (name == "encrypt" || name == "decrypt") {
      Binding o = argBind(0);
      const bool aes =
          o.kind != Binding::Kind::kObject || o.obj->hash_type != "ecs";
      const Opcode op = name == "encrypt"
                            ? (aes ? Opcode::kAesEnc : Opcode::kEcsEnc)
                            : (aes ? Opcode::kAesDec : Opcode::kEcsDec);
      std::vector<Operand> srcs = {argOp(1)};
      if (args.size() > 2) srcs.push_back(argOp(2));
      return Binding::operand(emit(op, srcs[0].width, std::move(srcs)));
    }

    // -- packet actions --
    if (name == "drop") return packetAction(Opcode::kDrop, e);
    if (name == "fwd" || name == "forward") {
      return packetAction(Opcode::kForward, e);
    }
    if (name == "back") return packetAction(Opcode::kSendBack, e);
    if (name == "mirror") return packetAction(Opcode::kMirror, e);
    if (name == "multicast") return packetAction(Opcode::kMulticast, e);
    if (name == "copyto") {
      // copyto("CPU", value...) — report fields ride the copy.
      emit(Opcode::kCopyToCpu, 0, {});
      return {};
    }

    // -- Python built-ins / ClickINC extensions (Table 7) --
    if (name == "min" || name == "max") {
      const Opcode op = name == "min" ? Opcode::kMin : Opcode::kMax;
      std::vector<Binding> items;
      if (args.size() == 1) {
        Binding l = argBind(0);
        if (!l.isList()) fail(e.line, name + "(x) expects a list");
        items = *l.list;
      } else {
        for (std::size_t i = 0; i < args.size(); ++i) {
          items.push_back(argBind(i));
        }
      }
      if (items.empty()) fail(e.line, name + "() of empty sequence");
      Operand acc = materialize(items[0], e.line);
      for (std::size_t i = 1; i < items.size(); ++i) {
        acc = emit(op, acc.width, {acc, materialize(items[i], e.line)});
      }
      return Binding::operand(acc);
    }
    if (name == "sum") {
      Binding l = argBind(0);
      if (!l.isList()) fail(e.line, "sum(x) expects a list");
      if (l.list->empty()) return Binding::constant(0);
      Operand acc = materialize((*l.list)[0], e.line);
      for (std::size_t i = 1; i < l.list->size(); ++i) {
        acc = emit(Opcode::kAdd, acc.width,
                   {acc, materialize((*l.list)[i], e.line)});
      }
      return Binding::operand(acc);
    }
    if (name == "len") {
      Binding v = argBind(0);
      if (v.isList()) return Binding::constant(v.list->size());
      if (v.kind == Binding::Kind::kObject) {
        return Binding::constant(v.obj->depth);
      }
      fail(e.line, "len() expects a list or object");
    }
    if (name == "width") {
      Binding v = argBind(0);
      if (v.isList() && !v.list->empty()) {
        return Binding::constant(
            static_cast<std::uint64_t>(materialize((*v.list)[0], e.line).width));
      }
      return Binding::constant(
          static_cast<std::uint64_t>(materialize(v, e.line).width));
    }
    if (name == "list") {
      Binding b;
      b.kind = Binding::Kind::kList;
      b.list = std::make_shared<std::vector<Binding>>();
      return b;
    }
    if (name == "abs") {
      Binding v = argBind(0);
      if (v.isConst()) {
        const auto sv = static_cast<std::int64_t>(v.cval);
        return Binding::constant(static_cast<std::uint64_t>(sv < 0 ? -sv : sv));
      }
      // Two's-complement abs: sign-select between x and -x.
      Operand x = materialize(v, e.line);
      Operand sh = emit(Opcode::kShr, x.width,
                        {x, Operand::constant(
                                static_cast<std::uint64_t>(x.width - 1), 8)});
      Operand neg = emit(Opcode::kSub, x.width,
                         {Operand::constant(0, x.width), x});
      Operand isneg = emit(Opcode::kCmpEq, 1, {sh, Operand::constant(1, 1)});
      return Binding::operand(emit(Opcode::kSelect, x.width, {isneg, neg, x}));
    }
    if (name == "pow") {
      Binding a = argBind(0), b = argBind(1);
      if (a.isConst() && b.isConst()) {
        return Binding::constant(foldConst("**", a.cval, b.cval, e.line));
      }
      fail(e.line, "pow() requires constants");
    }
    if (name == "ceil" || name == "floor" || name == "round") {
      Binding v = argBind(0);
      if (v.kind == Binding::Kind::kFloatConst) {
        const double r = name == "ceil" ? std::ceil(v.fval)
                         : name == "floor" ? std::floor(v.fval)
                                           : std::round(v.fval);
        return Binding::constant(static_cast<std::uint64_t>(r));
      }
      if (v.isConst()) return v;
      fail(e.line, name + "() requires a constant");
    }
    if (name == "sqrt") {
      Binding v = argBind(0);
      if (v.kind == Binding::Kind::kFloatConst) {
        Binding out;
        out.kind = Binding::Kind::kFloatConst;
        out.fval = std::sqrt(v.fval);
        return out;
      }
      return Binding::operand(emit(Opcode::kFSqrt, 32, {argOp(0)}),
                              /*flt=*/true);
    }
    if (name == "randint") {
      std::vector<Operand> srcs;
      if (!args.empty()) srcs.push_back(argOp(0));
      return Binding::operand(emit(Opcode::kRandInt, 32, std::move(srcs)));
    }
    if (name == "slice") {
      return Binding::operand(
          emit(Opcode::kSlice, 32, {argOp(0), argOp(1), argOp(2)}));
    }
    if (name == "checksum") {
      std::vector<Operand> srcs;
      for (std::size_t i = 0; i < args.size(); ++i) srcs.push_back(argOp(i));
      return Binding::operand(emit(Opcode::kChecksum, 16, std::move(srcs)));
    }
    if (name == "itof") {
      std::vector<Operand> srcs = {argOp(0)};
      if (args.size() > 1) srcs.push_back(argOp(1));
      return Binding::operand(emit(Opcode::kItoF, 32, std::move(srcs)),
                              /*flt=*/true);
    }
    if (name == "ftoi") {
      std::vector<Operand> srcs = {argOp(0)};
      if (args.size() > 1) srcs.push_back(argOp(1));
      return Binding::operand(emit(Opcode::kFtoI, 32, std::move(srcs)));
    }
    fail(e.line, "unknown function '" + name + "'");
  }

  Binding evalMethod(Binding& recv, const std::string& method, const Expr& e) {
    const auto args = callArgs(e);
    auto argBind = [&](std::size_t i) -> Binding {
      if (i >= args.size()) fail(e.line, method + ": missing argument");
      return evalExpr(*args[i]);
    };

    if (recv.isList()) {
      if (method == "append") {
        recv.list->push_back(argBind(0));
        return {};
      }
      fail(e.line, "unknown list method '" + method + "'");
    }
    if (recv.kind == Binding::Kind::kObject) {
      const auto& obj = *recv.obj;
      auto key = [&](std::size_t i) {
        return materialize(argBind(i), e.line, obj.key_width);
      };
      if (method == "read" || method == "get") {
        return objRead(obj, key(0), e.line);
      }
      if (method == "write") {
        objWrite(obj, key(0), argBind(1), e.line);
        return {};
      }
      if (method == "count") {
        return objCount(obj, key(0),
                        materialize(argBind(1), e.line, obj.value_width),
                        e.line);
      }
      if (method == "del" || method == "clear") {
        objDelete(obj, key(0), e.line);
        return {};
      }
      fail(e.line, "unknown object method '" + method + "'");
    }
    if (recv.kind == Binding::Kind::kTemplate) {
      return inlineTemplateCall(*recv.tmpl, e);
    }
    fail(e.line, "receiver has no methods");
  }

  // --- template & function inlining ---

  Binding instantiateTemplate(const TemplateDef& td, const Expr& e) {
    auto inst = std::make_shared<TemplateInstance>();
    inst->def = &td;
    inst->prefix = cat(prefix_, toLower(td.name), "_");
    // Bind positionally then by keyword.
    for (std::size_t i = 0; i < e.args.size() && i < td.params.size(); ++i) {
      inst->bound[td.params[i]] = evalExpr(*e.args[i]);
    }
    for (const auto& kw : e.kwargs) {
      inst->bound[kw.name] = evalExpr(*kw.value);
    }
    // Make the template's header fields available.
    for (const auto& f : td.header.fields) {
      if (hdr_.find(f.name) == nullptr) {
        hdr_.fields.push_back(f);
      }
    }
    registerHeader(td.header);
    Binding b;
    b.kind = Binding::Kind::kTemplate;
    b.tmpl = std::move(inst);
    return b;
  }

  Binding inlineTemplateCall(const TemplateInstance& inst, const Expr& e) {
    if (++inline_depth_ > 8) fail(e.line, "template inlining too deep");
    Module mod = parseModule(inst.def->source);
    scopes_.emplace_back();
    for (const auto& [k, v] : inst.bound) scopes_.back()[k] = v;
    const std::string saved_prefix = prefix_;
    const std::string saved_hint = target_hint_;
    prefix_ = inst.prefix;
    execStmts(mod.stmts);
    prefix_ = saved_prefix;
    target_hint_ = saved_hint;
    scopes_.pop_back();
    --inline_depth_;
    return {};
  }

  Binding inlineFunction(const Stmt& def, const Expr& e) {
    if (++inline_depth_ > 8) fail(e.line, "function inlining too deep");
    scopes_.emplace_back();
    for (std::size_t i = 0; i < def.def_params.size(); ++i) {
      Binding v = i < e.args.size() ? evalExpr(*e.args[i]) : Binding{};
      scopes_.back()[def.def_params[i]] = std::move(v);
    }
    Binding ret;
    for (const auto& s : def.body) {
      if (s->kind == StmtKind::kReturn) {
        if (s->value) ret = evalExpr(*s->value);
        break;
      }
      execStmt(*s);
    }
    scopes_.pop_back();
    --inline_depth_;
    return ret;
  }
};

}  // namespace

const HeaderFieldSpec* HeaderSpec::find(const std::string& name) const {
  for (const auto& f : fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

ir::IrProgram lowerModule(const Module& mod, const HeaderSpec& hdr,
                          const CompileOptions& opts,
                          const TemplateResolver* resolver) {
  Lowerer lw(hdr, opts, resolver);
  return lw.run(mod);
}

ir::IrProgram compileSource(const std::string& source, const HeaderSpec& hdr,
                            const CompileOptions& opts,
                            const TemplateResolver* resolver) {
  const Module mod = parseModule(source);
  return lowerModule(mod, hdr, opts, resolver);
}

}  // namespace clickinc::lang
