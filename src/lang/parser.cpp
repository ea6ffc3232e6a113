#include "lang/parser.hpp"

#include <cassert>

#include "lang/lexer.hpp"
#include "lang/sema.hpp"

namespace dce::lang {

/** Counts nesting levels for its lifetime: @p levels on construction,
 * one more per deeper() (a loop that wraps its result once per
 * iteration). Past kMaxNesting the parse fails instead of going on. */
class Parser::NestingGuard {
  public:
    explicit NestingGuard(Parser &parser, unsigned levels = 1)
        : parser_(parser)
    {
        while (levels_ < levels)
            deeper();
    }
    ~NestingGuard() { parser_.depth_ -= levels_; }
    NestingGuard(const NestingGuard &) = delete;
    NestingGuard &operator=(const NestingGuard &) = delete;

    void
    deeper()
    {
        if (parser_.depth_ >= kMaxNesting)
            parser_.fail("nesting too deep");
        ++parser_.depth_;
        ++levels_;
    }

  private:
    Parser &parser_;
    unsigned levels_ = 0;
};

Parser::Parser(std::string_view source, DiagnosticEngine &diags,
               ErrorRecovery recovery)
    : diags_(diags), recovery_(recovery)
{
    if (recovery == ErrorRecovery::Resync) {
        tokens_ = Lexer(source, diags).lexAll();
        return;
    }
    // First-error mode: only the lexer's first error reaches @p diags,
    // and parseTranslationUnit then parses nothing.
    DiagnosticEngine lex_diags;
    tokens_ = Lexer(source, lex_diags).lexAll();
    lexFailed_ = lex_diags.hasErrors();
    if (lexFailed_) {
        const Diagnostic &first = lex_diags.all().front();
        diags.error(first.loc, first.message);
    }
}

const Token &
Parser::peek(size_t ahead) const
{
    size_t index = pos_ + ahead;
    if (index >= tokens_.size())
        index = tokens_.size() - 1; // Eof token
    return tokens_[index];
}

const Token &
Parser::consume()
{
    const Token &tok = current();
    if (pos_ + 1 < tokens_.size())
        ++pos_;
    return tok;
}

bool
Parser::accept(TokKind kind)
{
    if (!check(kind))
        return false;
    consume();
    return true;
}

const Token &
Parser::expect(TokKind kind, const char *context)
{
    if (!check(kind)) {
        diags_.error(current().loc,
                     std::string("expected ") + tokKindName(kind) + " " +
                         context + ", found " + tokKindName(current().kind));
        throw ParseError{};
    }
    return consume();
}

void
Parser::fail(const char *message)
{
    diags_.error(current().loc, message);
    throw ParseError{};
}

//===------------------------------------------------------------------===//
// Types
//===------------------------------------------------------------------===//

bool
Parser::startsType() const
{
    switch (current().kind) {
      case TokKind::KwVoid:
      case TokKind::KwChar:
      case TokKind::KwShort:
      case TokKind::KwInt:
      case TokKind::KwLong:
      case TokKind::KwUnsigned:
      case TokKind::KwSigned:
        return true;
      default:
        return false;
    }
}

const Type *
Parser::parseTypeSpecifier(bool allow_void)
{
    bool is_signed = true;
    bool saw_sign = false;
    if (accept(TokKind::KwUnsigned)) {
        is_signed = false;
        saw_sign = true;
    } else if (accept(TokKind::KwSigned)) {
        saw_sign = true;
    }

    switch (current().kind) {
      case TokKind::KwVoid:
        if (!allow_void || saw_sign)
            fail("'void' not allowed here");
        consume();
        return types_->voidType();
      case TokKind::KwChar:
        consume();
        return types_->intType(8, is_signed);
      case TokKind::KwShort:
        consume();
        accept(TokKind::KwInt); // "short int"
        return types_->intType(16, is_signed);
      case TokKind::KwInt:
        consume();
        return types_->intType(32, is_signed);
      case TokKind::KwLong:
        consume();
        accept(TokKind::KwLong); // "long long" == long
        accept(TokKind::KwInt);  // "long int"
        return types_->intType(64, is_signed);
      default:
        if (saw_sign) // bare "unsigned" / "signed" == int
            return types_->intType(32, is_signed);
        fail("expected a type specifier");
    }
}

const Type *
Parser::parsePointerSuffix(const Type *base)
{
    const Type *type = base;
    while (accept(TokKind::Star))
        type = types_->pointerTo(type);
    return type;
}

//===------------------------------------------------------------------===//
// Declarations
//===------------------------------------------------------------------===//

std::unique_ptr<TranslationUnit>
Parser::parseTranslationUnit()
{
    auto unit = std::make_unique<TranslationUnit>();
    types_ = unit->types;
    if (lexFailed_) // first-error mode: the lexer's error is the one
        return unit;
    while (!check(TokKind::Eof)) {
        try {
            parseTopLevel(*unit);
        } catch (ParseError &) {
            if (recovery_ == ErrorRecovery::FirstError)
                break;
            // Skip to the next ';' or '}' at file scope and resume, so
            // one bad declaration yields one diagnostic, not a cascade.
            while (!check(TokKind::Eof) && !accept(TokKind::Semicolon) &&
                   !accept(TokKind::RBrace)) {
                consume();
            }
        }
    }
    return unit;
}

void
Parser::parseTopLevel(TranslationUnit &unit)
{
    SourceLoc loc = current().loc;
    bool is_static = accept(TokKind::KwStatic);
    bool is_extern = !is_static && accept(TokKind::KwExtern);
    (void)is_extern; // extern is the default linkage; accepted, ignored
    const Type *base = parseTypeSpecifier(/*allow_void=*/true);

    for (;;) {
        const Type *decl_type = parsePointerSuffix(base);
        const Token &name = expect(TokKind::Identifier, "in declaration");

        if (check(TokKind::LParen)) {
            unit.addFunction(
                parseFunctionRest(decl_type, name.text, is_static, loc));
            return;
        }

        if (decl_type->isVoid())
            fail("variable cannot have type void");
        Storage storage =
            is_static ? Storage::StaticGlobal : Storage::Global;
        unit.addGlobal(parseVarRest(decl_type, name.text, storage, loc));
        if (accept(TokKind::Comma))
            continue;
        expect(TokKind::Semicolon, "after global declaration");
        return;
    }
}

std::unique_ptr<FunctionDecl>
Parser::parseFunctionRest(const Type *ret_type, std::string_view name,
                          bool is_static, SourceLoc loc)
{
    auto fn = std::make_unique<FunctionDecl>(std::string(name), ret_type);
    fn->isStatic = is_static;
    fn->loc = loc;

    expect(TokKind::LParen, "in function declaration");
    if (check(TokKind::KwVoid) && peek(1).is(TokKind::RParen)) {
        consume(); // (void)
    } else if (!check(TokKind::RParen)) {
        for (;;) {
            SourceLoc param_loc = current().loc;
            const Type *base = parseTypeSpecifier(/*allow_void=*/false);
            const Type *param_type = parsePointerSuffix(base);
            const Token &param_name =
                expect(TokKind::Identifier, "in parameter");
            auto param = std::make_unique<VarDecl>(
                std::string(param_name.text), param_type, Storage::Param);
            param->loc = param_loc;
            fn->params.push_back(std::move(param));
            if (!accept(TokKind::Comma))
                break;
        }
    }
    expect(TokKind::RParen, "after parameters");

    if (accept(TokKind::Semicolon))
        return fn; // extern declaration, no body
    fn->body = parseBlock();
    return fn;
}

std::unique_ptr<VarDecl>
Parser::parseVarRest(const Type *decl_type, std::string_view name,
                     Storage storage, SourceLoc loc)
{
    const Type *type = decl_type;
    if (accept(TokKind::LBracket)) {
        uint64_t size = expect(TokKind::IntLiteral, "as array size").intValue;
        expect(TokKind::RBracket, "after array size");
        if (size == 0)
            fail("array size must be positive");
        type = types_->arrayOf(decl_type, size);
    }
    auto decl = std::make_unique<VarDecl>(std::string(name), type, storage);
    decl->loc = loc;

    if (accept(TokKind::Assign)) {
        if (accept(TokKind::LBrace)) {
            if (!type->isArray())
                fail("brace initializer requires an array type");
            if (!check(TokKind::RBrace)) {
                for (;;) {
                    decl->initList.push_back(parseAssignment());
                    if (!accept(TokKind::Comma))
                        break;
                }
            }
            expect(TokKind::RBrace, "after array initializer");
        } else {
            decl->init = parseAssignment();
        }
    }
    return decl;
}

//===------------------------------------------------------------------===//
// Statements
//===------------------------------------------------------------------===//

std::unique_ptr<BlockStmt>
Parser::parseBlock()
{
    auto block = std::make_unique<BlockStmt>();
    block->loc = current().loc;
    expect(TokKind::LBrace, "to open block");
    while (!check(TokKind::RBrace) && !check(TokKind::Eof)) {
        if (startsType() || check(TokKind::KwStatic)) {
            parseLocalDecls(block->stmts);
        } else {
            block->stmts.push_back(parseStmt());
        }
    }
    expect(TokKind::RBrace, "to close block");
    return block;
}

void
Parser::parseLocalDecls(std::vector<StmtPtr> &out)
{
    SourceLoc loc = current().loc;
    bool is_static = accept(TokKind::KwStatic);
    // MiniC restricts function-scope statics to keep the interpreter's
    // storage model simple; Csmith-style programs declare statics at
    // file scope.
    if (is_static)
        fail("function-scope static variables are not supported");
    const Type *base = parseTypeSpecifier(/*allow_void=*/false);
    for (;;) {
        const Type *decl_type = parsePointerSuffix(base);
        const Token &name =
            expect(TokKind::Identifier, "in local declaration");
        auto decl =
            parseVarRest(decl_type, name.text, Storage::Local, loc);
        auto stmt = std::make_unique<DeclStmt>(std::move(decl));
        stmt->loc = loc;
        out.push_back(std::move(stmt));
        if (accept(TokKind::Comma))
            continue;
        expect(TokKind::Semicolon, "after local declaration");
        return;
    }
}

StmtPtr
Parser::parseStmt()
{
    NestingGuard nesting(*this);
    SourceLoc loc = current().loc;
    switch (current().kind) {
      case TokKind::LBrace:
        return parseBlock();
      case TokKind::KwIf:
        return parseIf();
      case TokKind::KwWhile:
        return parseWhile();
      case TokKind::KwDo:
        return parseDoWhile();
      case TokKind::KwFor:
        return parseFor();
      case TokKind::KwSwitch:
        return parseSwitch();
      case TokKind::KwReturn:
        return parseReturn();
      case TokKind::KwBreak: {
        consume();
        expect(TokKind::Semicolon, "after break");
        auto stmt = std::make_unique<BreakStmt>();
        stmt->loc = loc;
        return stmt;
      }
      case TokKind::KwContinue: {
        consume();
        expect(TokKind::Semicolon, "after continue");
        auto stmt = std::make_unique<ContinueStmt>();
        stmt->loc = loc;
        return stmt;
      }
      case TokKind::Semicolon: {
        consume();
        auto stmt = std::make_unique<EmptyStmt>();
        stmt->loc = loc;
        return stmt;
      }
      default: {
        ExprPtr expr = parseExpr();
        expect(TokKind::Semicolon, "after expression statement");
        auto stmt = std::make_unique<ExprStmt>(std::move(expr));
        stmt->loc = loc;
        return stmt;
      }
    }
}

StmtPtr
Parser::parseIf()
{
    SourceLoc loc = current().loc;
    expect(TokKind::KwIf, "");
    expect(TokKind::LParen, "after if");
    ExprPtr cond = parseExpr();
    expect(TokKind::RParen, "after if condition");
    StmtPtr then_stmt = parseStmt();
    StmtPtr else_stmt;
    if (accept(TokKind::KwElse))
        else_stmt = parseStmt();
    auto stmt = std::make_unique<IfStmt>(std::move(cond),
                                         std::move(then_stmt),
                                         std::move(else_stmt));
    stmt->loc = loc;
    return stmt;
}

StmtPtr
Parser::parseWhile()
{
    SourceLoc loc = current().loc;
    expect(TokKind::KwWhile, "");
    expect(TokKind::LParen, "after while");
    ExprPtr cond = parseExpr();
    expect(TokKind::RParen, "after while condition");
    StmtPtr body = parseStmt();
    auto stmt = std::make_unique<WhileStmt>(std::move(cond),
                                            std::move(body));
    stmt->loc = loc;
    return stmt;
}

StmtPtr
Parser::parseDoWhile()
{
    SourceLoc loc = current().loc;
    expect(TokKind::KwDo, "");
    StmtPtr body = parseStmt();
    expect(TokKind::KwWhile, "after do body");
    expect(TokKind::LParen, "after while");
    ExprPtr cond = parseExpr();
    expect(TokKind::RParen, "after do-while condition");
    expect(TokKind::Semicolon, "after do-while");
    auto stmt = std::make_unique<DoWhileStmt>(std::move(body),
                                              std::move(cond));
    stmt->loc = loc;
    return stmt;
}

StmtPtr
Parser::parseFor()
{
    SourceLoc loc = current().loc;
    expect(TokKind::KwFor, "");
    expect(TokKind::LParen, "after for");

    auto stmt = std::make_unique<ForStmt>();
    stmt->loc = loc;
    if (accept(TokKind::Semicolon)) {
        // no init
    } else if (startsType()) {
        const Type *base = parseTypeSpecifier(/*allow_void=*/false);
        const Type *decl_type = parsePointerSuffix(base);
        const Token &name = expect(TokKind::Identifier, "in for-init");
        auto decl = parseVarRest(decl_type, name.text, Storage::Local, loc);
        stmt->init = std::make_unique<DeclStmt>(std::move(decl));
        expect(TokKind::Semicolon, "after for-init");
    } else {
        stmt->init = std::make_unique<ExprStmt>(parseExpr());
        expect(TokKind::Semicolon, "after for-init");
    }
    if (!check(TokKind::Semicolon))
        stmt->cond = parseExpr();
    expect(TokKind::Semicolon, "after for-condition");
    if (!check(TokKind::RParen))
        stmt->step = parseExpr();
    expect(TokKind::RParen, "after for-step");
    stmt->body = parseStmt();
    return stmt;
}

StmtPtr
Parser::parseSwitch()
{
    SourceLoc loc = current().loc;
    expect(TokKind::KwSwitch, "");
    expect(TokKind::LParen, "after switch");
    ExprPtr cond = parseExpr();
    expect(TokKind::RParen, "after switch value");
    auto stmt = std::make_unique<SwitchStmt>(std::move(cond));
    stmt->loc = loc;

    expect(TokKind::LBrace, "to open switch body");
    while (!check(TokKind::RBrace)) {
        SwitchCase arm;
        arm.loc = current().loc;
        if (accept(TokKind::KwCase)) {
            bool negative = accept(TokKind::Minus);
            int64_t v = static_cast<int64_t>(
                expect(TokKind::IntLiteral, "after case").intValue);
            arm.value = negative ? -v : v;
        } else if (accept(TokKind::KwDefault)) {
            arm.value = std::nullopt;
        } else {
            fail("expected 'case' or 'default' in switch body");
        }
        expect(TokKind::Colon, "after case label");

        // MiniC switch arms do not fall through: the body runs until the
        // mandatory trailing 'break;', which we consume here.
        arm.body = std::make_unique<BlockStmt>();
        arm.body->loc = arm.loc;
        for (;;) {
            if (check(TokKind::KwBreak)) {
                consume();
                expect(TokKind::Semicolon, "after break");
                break;
            }
            if (check(TokKind::RBrace) || check(TokKind::KwCase) ||
                check(TokKind::KwDefault)) {
                fail("MiniC switch arms must end with 'break;'");
            }
            if (startsType())
                parseLocalDecls(arm.body->stmts);
            else
                arm.body->stmts.push_back(parseStmt());
        }
        stmt->cases.push_back(std::move(arm));
    }
    expect(TokKind::RBrace, "to close switch body");
    return stmt;
}

StmtPtr
Parser::parseReturn()
{
    SourceLoc loc = current().loc;
    expect(TokKind::KwReturn, "");
    ExprPtr value;
    if (!check(TokKind::Semicolon))
        value = parseExpr();
    expect(TokKind::Semicolon, "after return");
    auto stmt = std::make_unique<ReturnStmt>(std::move(value));
    stmt->loc = loc;
    return stmt;
}

//===------------------------------------------------------------------===//
// Expressions
//===------------------------------------------------------------------===//

ExprPtr
Parser::parseExpr()
{
    return parseAssignment();
}

ExprPtr
Parser::parseAssignment()
{
    ExprPtr lhs = parseConditional();

    AssignOp op;
    switch (current().kind) {
      case TokKind::Assign: op = AssignOp::Assign; break;
      case TokKind::PlusAssign: op = AssignOp::Add; break;
      case TokKind::MinusAssign: op = AssignOp::Sub; break;
      case TokKind::StarAssign: op = AssignOp::Mul; break;
      case TokKind::SlashAssign: op = AssignOp::Div; break;
      case TokKind::PercentAssign: op = AssignOp::Rem; break;
      case TokKind::AmpAssign: op = AssignOp::And; break;
      case TokKind::PipeAssign: op = AssignOp::Or; break;
      case TokKind::CaretAssign: op = AssignOp::Xor; break;
      case TokKind::ShlAssign: op = AssignOp::Shl; break;
      case TokKind::ShrAssign: op = AssignOp::Shr; break;
      default:
        return lhs;
    }
    SourceLoc loc = consume().loc;
    NestingGuard nesting(*this);
    ExprPtr rhs = parseAssignment(); // right-associative
    auto expr = std::make_unique<AssignExpr>(op, std::move(lhs),
                                             std::move(rhs));
    expr->loc = loc;
    return expr;
}

ExprPtr
Parser::parseConditional()
{
    ExprPtr cond = parseBinary(0);
    if (!check(TokKind::Question))
        return cond;
    SourceLoc loc = consume().loc;
    ExprPtr then_expr = parseExpr();
    expect(TokKind::Colon, "in conditional expression");
    NestingGuard nesting(*this);
    ExprPtr else_expr = parseConditional();
    auto expr = std::make_unique<ConditionalExpr>(
        std::move(cond), std::move(then_expr), std::move(else_expr));
    expr->loc = loc;
    return expr;
}

namespace {

/** Binary operator precedence table; higher binds tighter. Returns -1
 * for tokens that are not binary operators. */
int
binaryPrecedence(TokKind kind)
{
    switch (kind) {
      case TokKind::PipePipe: return 1;
      case TokKind::AmpAmp: return 2;
      case TokKind::Pipe: return 3;
      case TokKind::Caret: return 4;
      case TokKind::Amp: return 5;
      case TokKind::EqEq:
      case TokKind::NotEq: return 6;
      case TokKind::Lt:
      case TokKind::Le:
      case TokKind::Gt:
      case TokKind::Ge: return 7;
      case TokKind::Shl:
      case TokKind::Shr: return 8;
      case TokKind::Plus:
      case TokKind::Minus: return 9;
      case TokKind::Star:
      case TokKind::Slash:
      case TokKind::Percent: return 10;
      default: return -1;
    }
}

BinaryOp
binaryOpForToken(TokKind kind)
{
    switch (kind) {
      case TokKind::PipePipe: return BinaryOp::LogicalOr;
      case TokKind::AmpAmp: return BinaryOp::LogicalAnd;
      case TokKind::Pipe: return BinaryOp::BitOr;
      case TokKind::Caret: return BinaryOp::BitXor;
      case TokKind::Amp: return BinaryOp::BitAnd;
      case TokKind::EqEq: return BinaryOp::Eq;
      case TokKind::NotEq: return BinaryOp::Ne;
      case TokKind::Lt: return BinaryOp::Lt;
      case TokKind::Le: return BinaryOp::Le;
      case TokKind::Gt: return BinaryOp::Gt;
      case TokKind::Ge: return BinaryOp::Ge;
      case TokKind::Shl: return BinaryOp::Shl;
      case TokKind::Shr: return BinaryOp::Shr;
      case TokKind::Plus: return BinaryOp::Add;
      case TokKind::Minus: return BinaryOp::Sub;
      case TokKind::Star: return BinaryOp::Mul;
      case TokKind::Slash: return BinaryOp::Div;
      case TokKind::Percent: return BinaryOp::Rem;
      default:
        assert(false && "not a binary operator token");
        return BinaryOp::Add;
    }
}

} // namespace

ExprPtr
Parser::parseBinary(int min_precedence)
{
    ExprPtr lhs = parseUnary();
    NestingGuard nesting(*this, 0);
    for (;;) {
        int precedence = binaryPrecedence(current().kind);
        if (precedence < 0 || precedence < min_precedence)
            return lhs;
        nesting.deeper(); // each operator wraps lhs once more
        const Token &op_tok = consume();
        ExprPtr rhs = parseBinary(precedence + 1);
        auto expr = std::make_unique<BinaryExpr>(
            binaryOpForToken(op_tok.kind), std::move(lhs), std::move(rhs));
        expr->loc = op_tok.loc;
        lhs = std::move(expr);
    }
}

ExprPtr
Parser::parseUnary()
{
    NestingGuard nesting(*this);
    SourceLoc loc = current().loc;
    UnaryOp op;
    switch (current().kind) {
      case TokKind::Minus: op = UnaryOp::Neg; break;
      case TokKind::Bang: op = UnaryOp::LogicalNot; break;
      case TokKind::Tilde: op = UnaryOp::BitNot; break;
      case TokKind::Amp: op = UnaryOp::AddrOf; break;
      case TokKind::Star: op = UnaryOp::Deref; break;
      case TokKind::PlusPlus: op = UnaryOp::PreInc; break;
      case TokKind::MinusMinus: op = UnaryOp::PreDec; break;
      case TokKind::Plus: // unary plus is a no-op; parse and drop
        consume();
        return parseUnary();
      case TokKind::LParen:
        // Cast: '(' starts a type.
        if (peek(1).is(TokKind::KwVoid) || peek(1).is(TokKind::KwChar) ||
            peek(1).is(TokKind::KwShort) || peek(1).is(TokKind::KwInt) ||
            peek(1).is(TokKind::KwLong) ||
            peek(1).is(TokKind::KwUnsigned) ||
            peek(1).is(TokKind::KwSigned)) {
            consume(); // (
            const Type *base = parseTypeSpecifier(/*allow_void=*/false);
            const Type *target = parsePointerSuffix(base);
            expect(TokKind::RParen, "after cast type");
            ExprPtr sub = parseUnary();
            auto expr = std::make_unique<CastExpr>(target, std::move(sub),
                                                   /*implicit=*/false);
            expr->loc = loc;
            return expr;
        }
        return parsePostfix();
      default:
        return parsePostfix();
    }
    consume();
    ExprPtr sub = parseUnary();
    auto expr = std::make_unique<UnaryExpr>(op, std::move(sub));
    expr->loc = loc;
    return expr;
}

ExprPtr
Parser::parsePostfix()
{
    ExprPtr expr = parsePrimary();
    NestingGuard nesting(*this, 0);
    for (;;) {
        SourceLoc loc = current().loc;
        if (accept(TokKind::LBracket)) {
            nesting.deeper(); // each suffix wraps expr once more
            ExprPtr index = parseExpr();
            expect(TokKind::RBracket, "after subscript");
            auto indexed = std::make_unique<IndexExpr>(std::move(expr),
                                                       std::move(index));
            indexed->loc = loc;
            expr = std::move(indexed);
        } else if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            nesting.deeper();
            UnaryOp op = check(TokKind::PlusPlus) ? UnaryOp::PostInc
                                                  : UnaryOp::PostDec;
            consume();
            auto unary = std::make_unique<UnaryExpr>(op, std::move(expr));
            unary->loc = loc;
            expr = std::move(unary);
        } else {
            return expr;
        }
    }
}

ExprPtr
Parser::parsePrimary()
{
    SourceLoc loc = current().loc;
    switch (current().kind) {
      case TokKind::IntLiteral: {
        auto expr = std::make_unique<IntLit>(consume().intValue);
        expr->loc = loc;
        return expr;
      }
      case TokKind::Identifier: {
        std::string_view name = consume().text;
        if (accept(TokKind::LParen)) {
            std::vector<ExprPtr> args;
            if (!check(TokKind::RParen)) {
                for (;;) {
                    args.push_back(parseAssignment());
                    if (!accept(TokKind::Comma))
                        break;
                }
            }
            expect(TokKind::RParen, "after call arguments");
            auto expr = std::make_unique<CallExpr>(std::string(name),
                                                   std::move(args));
            expr->loc = loc;
            return expr;
        }
        auto expr = std::make_unique<VarRef>(std::string(name));
        expr->loc = loc;
        return expr;
      }
      case TokKind::LParen: {
        consume();
        ExprPtr expr = parseExpr();
        expect(TokKind::RParen, "after parenthesized expression");
        return expr;
      }
      default:
        fail("expected an expression");
    }
}

std::unique_ptr<TranslationUnit>
parseAndCheck(std::string_view source, DiagnosticEngine &diags)
{
    Parser parser(source, diags, ErrorRecovery::FirstError);
    std::unique_ptr<TranslationUnit> unit = parser.parseTranslationUnit();
    if (diags.hasErrors())
        return nullptr;
    Sema sema(diags);
    sema.check(*unit);
    if (diags.hasErrors())
        return nullptr;
    return unit;
}

} // namespace dce::lang
