/**
 * @file
 * Recursive-descent parser for MiniC. Produces an un-annotated AST;
 * run Sema afterwards to resolve names and install types.
 */
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "lang/token.hpp"
#include "support/diagnostics.hpp"

namespace dce::lang {

/** What the parser does after a syntax error. */
enum class ErrorRecovery {
    /** Abandon the current top-level declaration, skip to the next
     * file-scope ';' or '}', and go on: one diagnostic per bad
     * declaration. */
    Resync,
    /** Stop at the first error, lexical or syntactic: exactly one
     * diagnostic (the lexer still reads the whole buffer, but only its
     * first error is reported). What parseAndCheck uses. */
    FirstError,
};

/**
 * Parses one MiniC source buffer into a TranslationUnit.
 *
 * On a syntax error a diagnostic is emitted and, by @p recovery,
 * parsing resynchronises or stops; the returned unit contains
 * everything successfully parsed before the error. Callers should treat
 * the unit as unusable when diags.hasErrors(). Constructs nested more
 * than kMaxNesting deep end parsing with "nesting too deep" rather than
 * exhausting the stack.
 *
 * The parser's tokens view @p source, which must outlive the Parser;
 * the AST it returns owns copies of every name and outlives both.
 */
class Parser {
  public:
    /** Nested statements plus nested expression levels (a prefix
     * operator, a parenthesis, an assignment or ?: chain link, a
     * binary operator or a postfix suffix in a chain) the parser
     * follows before giving up, so the AST it builds is bounded in
     * depth too. A fixed limit, far above any generated program
     * (generator depths are 3). */
    static constexpr unsigned kMaxNesting = 256;

    Parser(std::string_view source, DiagnosticEngine &diags,
           ErrorRecovery recovery = ErrorRecovery::Resync);

    std::unique_ptr<TranslationUnit> parseTranslationUnit();

  private:
    struct ParseError {};
    class NestingGuard;

    const Token &peek(size_t ahead = 0) const;
    const Token &current() const { return tokens_[pos_]; }
    const Token &consume();
    bool check(TokKind kind) const { return current().is(kind); }
    bool accept(TokKind kind);
    const Token &expect(TokKind kind, const char *context);
    [[noreturn]] void fail(const char *message);

    // Types.
    bool startsType() const;
    const Type *parseTypeSpecifier(bool allow_void);
    const Type *parsePointerSuffix(const Type *base);

    // Declarations.
    void parseTopLevel(TranslationUnit &unit);
    std::unique_ptr<FunctionDecl> parseFunctionRest(const Type *ret_type,
                                                    std::string_view name,
                                                    bool is_static,
                                                    SourceLoc loc);
    std::unique_ptr<VarDecl> parseVarRest(const Type *decl_type,
                                          std::string_view name,
                                          Storage storage, SourceLoc loc);

    // Statements.
    StmtPtr parseStmt();
    std::unique_ptr<BlockStmt> parseBlock();
    StmtPtr parseIf();
    StmtPtr parseWhile();
    StmtPtr parseDoWhile();
    StmtPtr parseFor();
    StmtPtr parseSwitch();
    StmtPtr parseReturn();
    void parseLocalDecls(std::vector<StmtPtr> &out);

    // Expressions (precedence climbing).
    ExprPtr parseExpr();
    ExprPtr parseAssignment();
    ExprPtr parseConditional();
    ExprPtr parseBinary(int min_precedence);
    ExprPtr parseUnary();
    ExprPtr parsePostfix();
    ExprPtr parsePrimary();

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    unsigned depth_ = 0; ///< levels held by open NestingGuards
    DiagnosticEngine &diags_;
    ErrorRecovery recovery_;
    bool lexFailed_ = false; ///< set only in first-error mode
    std::shared_ptr<TypeContext> types_;
};

/**
 * Convenience: lex + parse + run sema in one call, stopping at the
 * first error: a Parser in ErrorRecovery::FirstError keeps only the
 * lexer's first error and does not parse after it, does not
 * resynchronise, and Sema does not run after a lexical or syntax error
 * (it stops at its own first error too).
 * @return the unit, or null when diagnostics contain errors (then
 * @p diags holds exactly one error from this call).
 */
std::unique_ptr<TranslationUnit> parseAndCheck(std::string_view source,
                                               DiagnosticEngine &diags);

} // namespace dce::lang
