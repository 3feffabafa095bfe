#include <unordered_map>

#include "lang/ast.h"
#include "lang/token.h"
#include "util/error.h"
#include "util/strings.h"

namespace clickinc::lang {

std::string Expr::dottedPath() const {
  if (kind == ExprKind::kName) return str;
  if (kind == ExprKind::kAttr && base) {
    const std::string b = base->dottedPath();
    if (!b.empty()) return b + "." + str;
  }
  return {};
}

namespace {

// Binding powers for binary operators (higher binds tighter).
int binaryPrecedence(const std::string& op) {
  static const std::unordered_map<std::string, int> prec = {
      {"or", 1},  {"and", 2},
      {"<", 4},   {"<=", 4}, {">", 4},  {">=", 4}, {"==", 4}, {"!=", 4},
      {"in", 4},
      {"|", 5},   {"^", 6},  {"&", 7},
      {"<<", 8},  {">>", 8},
      {"+", 9},   {"-", 9},
      {"*", 10},  {"/", 10}, {"%", 10}, {"//", 10},
      {"**", 11},
  };
  auto it = prec.find(op);
  return it == prec.end() ? -1 : it->second;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Module parse() {
    Module m;
    skipNewlines();
    while (peek().kind != TokKind::kEof) {
      m.stmts.push_back(parseStatement());
      skipNewlines();
    }
    return m;
  }

 private:
  // Nesting caps. Unary operators, parentheses, subscripts and call
  // arguments each recurse once per expression level; every indented block
  // and every `elif` arm (which adds no indentation) recurses once per
  // statement level, in the parser, in lowering and in the AST's
  // destructors. Unbounded tenant input would overflow the stack; past a
  // cap the parse fails like any other syntax error.
  static constexpr int kMaxExprDepth = 256;
  static constexpr int kMaxStmtDepth = 256;

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int expr_depth_ = 0;
  int stmt_depth_ = 0;

  // One level of nesting, counted in `depth`, for the guard's lifetime.
  class Nest {
   public:
    Nest(const Parser& p, int& depth, int cap, const char* what)
        : depth_(depth) {
      if (depth_ >= cap) p.fail(cat(what, " nested deeper than ", cap));
      ++depth_;
    }
    ~Nest() { --depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    int& depth_;
  };

  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& advance() { return toks_[pos_++]; }
  bool check(TokKind k) const { return peek().kind == k; }
  bool checkOp(const char* s) const { return peek().isOp(s); }
  bool checkKw(const char* s) const { return peek().isKeyword(s); }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg + " (got '" + peek().text + "')", peek().line,
                     peek().col);
  }
  void expectOp(const char* s) {
    if (!checkOp(s)) fail(cat("expected '", s, "'"));
    advance();
  }
  void expectKw(const char* s) {
    if (!checkKw(s)) fail(cat("expected '", s, "'"));
    advance();
  }
  void expectNewline() {
    if (check(TokKind::kEof)) return;
    if (!check(TokKind::kNewline)) fail("expected end of line");
    advance();
  }
  void skipNewlines() {
    while (check(TokKind::kNewline)) advance();
  }

  ExprPtr makeExpr(ExprKind kind, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->line = line;
    return e;
  }

  std::vector<StmtPtr> parseBlock() {
    const Nest nest(*this, stmt_depth_, kMaxStmtDepth, "statement");
    expectOp(":");
    expectNewline();
    skipNewlines();
    if (!check(TokKind::kIndent)) fail("expected indented block");
    advance();
    std::vector<StmtPtr> body;
    skipNewlines();
    while (!check(TokKind::kDedent) && !check(TokKind::kEof)) {
      body.push_back(parseStatement());
      skipNewlines();
    }
    if (check(TokKind::kDedent)) advance();
    return body;
  }

  StmtPtr parseStatement() {
    const int line = peek().line;
    if (checkKw("if")) return parseIf();
    if (checkKw("for")) return parseFor();
    if (checkKw("def")) return parseDef();
    if (checkKw("import") || checkKw("from")) {
      // Swallow the import line; modules resolve through the registry.
      while (!check(TokKind::kNewline) && !check(TokKind::kEof)) advance();
      expectNewline();
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kImport;
      s->line = line;
      return s;
    }
    if (checkKw("return")) {
      advance();
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kReturn;
      s->line = line;
      if (!check(TokKind::kNewline) && !check(TokKind::kEof)) {
        s->value = parseExpr();
      }
      expectNewline();
      return s;
    }

    // Simple statement: expression, assignment, or augmented assignment.
    ExprPtr first = parseExpr();
    auto s = std::make_unique<Stmt>();
    s->line = line;
    if (checkOp("=")) {
      advance();
      s->kind = StmtKind::kAssign;
      s->target = std::move(first);
      s->value = parseExpr();
    } else if (peek().kind == TokKind::kOp && peek().text.size() >= 2 &&
               peek().text.back() == '=' && peek().text != "==" &&
               peek().text != "!=" && peek().text != "<=" &&
               peek().text != ">=") {
      std::string op = advance().text;
      op.pop_back();  // drop '='
      s->kind = StmtKind::kAugAssign;
      s->aug_op = op;
      s->target = std::move(first);
      s->value = parseExpr();
    } else {
      s->kind = StmtKind::kExpr;
      s->value = std::move(first);
    }
    expectNewline();
    return s;
  }

  StmtPtr parseIf() {
    const int line = peek().line;
    advance();  // if / elif
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kIf;
    s->line = line;
    s->cond = parseExpr();
    s->body = parseBlock();
    skipNewlines();
    if (checkKw("elif")) {
      const Nest arm(*this, stmt_depth_, kMaxStmtDepth, "statement");
      s->orelse.push_back(parseIf());
    } else if (checkKw("else")) {
      advance();
      s->orelse = parseBlock();
    }
    return s;
  }

  StmtPtr parseFor() {
    const int line = peek().line;
    expectKw("for");
    if (!peek().isName()) fail("expected loop variable");
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kFor;
    s->line = line;
    s->loop_var = advance().text;
    expectKw("in");
    // Only `range(...)` loops are supported (paper §4.2: constant-pass
    // loops are unrolled, otherwise an error is reported).
    if (!peek().isName() || peek().text != "range") {
      fail("only 'for <v> in range(...)' loops are supported");
    }
    advance();
    expectOp("(");
    while (!checkOp(")")) {
      s->range_args.push_back(parseExpr());
      if (checkOp(",")) advance();
    }
    expectOp(")");
    if (s->range_args.empty() || s->range_args.size() > 3) {
      fail("range() takes 1 to 3 arguments");
    }
    s->body = parseBlock();
    return s;
  }

  StmtPtr parseDef() {
    const int line = peek().line;
    expectKw("def");
    if (!peek().isName()) fail("expected function name");
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kDef;
    s->line = line;
    s->def_name = advance().text;
    expectOp("(");
    while (!checkOp(")")) {
      if (!peek().isName()) fail("expected parameter name");
      s->def_params.push_back(advance().text);
      if (checkOp(",")) advance();
    }
    expectOp(")");
    s->body = parseBlock();
    return s;
  }

  ExprPtr parseExpr() {
    const Nest nest(*this, expr_depth_, kMaxExprDepth, "expression");
    return parseBinary(0);
  }

  ExprPtr parseBinary(int min_prec) {
    ExprPtr left = parseUnary();
    while (true) {
      std::string op;
      if (peek().kind == TokKind::kOp) {
        op = peek().text;
      } else if (checkKw("and") || checkKw("or") || checkKw("in")) {
        op = peek().text;
      } else {
        break;
      }
      const int prec = binaryPrecedence(op);
      if (prec < 0 || prec < min_prec) break;
      const int line = peek().line;
      advance();
      ExprPtr right = parseBinary(prec + 1);
      auto e = makeExpr(ExprKind::kBinary, line);
      e->str = op;
      e->base = std::move(left);
      e->index = std::move(right);
      left = std::move(e);
    }
    return left;
  }

  ExprPtr parseUnary() {
    const int line = peek().line;
    if (checkOp("-") || checkOp("~") || checkOp("!") || checkKw("not")) {
      std::string op = advance().text;
      if (op == "!") op = "not";
      auto e = makeExpr(ExprKind::kUnary, line);
      e->str = op;
      const Nest nest(*this, expr_depth_, kMaxExprDepth, "expression");
      e->base = parseUnary();
      return e;
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr e = parsePrimary();
    while (true) {
      const int line = peek().line;
      if (checkOp(".")) {
        advance();
        if (!peek().isName()) fail("expected attribute name");
        auto a = makeExpr(ExprKind::kAttr, line);
        a->str = advance().text;
        a->base = std::move(e);
        e = std::move(a);
      } else if (checkOp("[")) {
        advance();
        auto ix = makeExpr(ExprKind::kIndex, line);
        ix->base = std::move(e);
        ix->index = parseExpr();
        expectOp("]");
        e = std::move(ix);
      } else if (checkOp("(")) {
        advance();
        auto call = makeExpr(ExprKind::kCall, line);
        call->base = std::move(e);
        while (!checkOp(")")) {
          // keyword argument: name = expr
          if (peek().isName() && peek(1).isOp("=") && !peek(2).isOp("=")) {
            Keyword kw;
            kw.name = advance().text;
            advance();  // '='
            kw.value = parseExpr();
            call->kwargs.push_back(std::move(kw));
          } else {
            call->args.push_back(parseExpr());
          }
          if (checkOp(",")) advance();
        }
        expectOp(")");
        e = std::move(call);
      } else {
        break;
      }
    }
    return e;
  }

  ExprPtr parsePrimary() {
    const Token& t = peek();
    const int line = t.line;
    switch (t.kind) {
      case TokKind::kInt: {
        auto e = makeExpr(ExprKind::kInt, line);
        e->int_value = advance().int_value;
        return e;
      }
      case TokKind::kFloat: {
        auto e = makeExpr(ExprKind::kFloat, line);
        e->float_value = advance().float_value;
        return e;
      }
      case TokKind::kString: {
        auto e = makeExpr(ExprKind::kString, line);
        e->str = advance().text;
        return e;
      }
      case TokKind::kName: {
        auto e = makeExpr(ExprKind::kName, line);
        e->str = advance().text;
        return e;
      }
      case TokKind::kKeyword:
        if (t.text == "None") {
          advance();
          return makeExpr(ExprKind::kNone, line);
        }
        if (t.text == "True" || t.text == "False") {
          auto e = makeExpr(ExprKind::kInt, line);
          e->int_value = t.text == "True" ? 1 : 0;
          advance();
          return e;
        }
        fail("unexpected keyword in expression");
      case TokKind::kOp:
        if (t.text == "(") {
          advance();
          ExprPtr inner = parseExpr();
          expectOp(")");
          return inner;
        }
        if (t.text == "[") {
          advance();
          auto e = makeExpr(ExprKind::kListLit, line);
          while (!checkOp("]")) {
            e->args.push_back(parseExpr());
            if (checkOp(",")) advance();
          }
          expectOp("]");
          return e;
        }
        if (t.text == "{") {
          advance();
          auto e = makeExpr(ExprKind::kDict, line);
          while (!checkOp("}")) {
            Keyword kw;
            if (peek().isName() || peek().kind == TokKind::kString) {
              kw.name = advance().text;
            } else {
              fail("expected dict key");
            }
            expectOp(":");
            kw.value = parseExpr();
            e->kwargs.push_back(std::move(kw));
            if (checkOp(",")) advance();
          }
          expectOp("}");
          return e;
        }
        fail("unexpected token in expression");
      default:
        fail("unexpected token in expression");
    }
  }
};

}  // namespace

Module parseModule(const std::string& source) {
  Parser p(tokenize(source));
  return p.parse();
}

int countLoc(const std::string& source) {
  int loc = 0;
  for (const auto& raw : splitString(source, '\n')) {
    const std::string line = trimString(raw);
    if (line.empty() || line[0] == '#') continue;
    ++loc;
  }
  return loc;
}

}  // namespace clickinc::lang
