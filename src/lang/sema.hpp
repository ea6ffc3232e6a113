/**
 * @file
 * Semantic analysis for MiniC: name resolution, type checking,
 * insertion of implicit conversions, and validation of global
 * initializers. Sema is idempotent and re-runnable — the instrumenter
 * and the reducer mutate the AST and re-run Sema to refresh
 * annotations.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.hpp"
#include "support/diagnostics.hpp"

namespace dce::lang {

/** Runs semantic analysis over a TranslationUnit. */
class Sema {
  public:
    explicit Sema(DiagnosticEngine &diags) : diags_(diags) {}

    /**
     * Analyze @p unit in place: resolve every VarRef/CallExpr, install
     * Expr::type / Expr::lvalue, wrap operands in implicit CastExprs,
     * and validate declarations. The check ends at the first error,
     * which goes to the DiagnosticEngine, and leaves the unit partly
     * annotated (parseAndCheck discards it).
     */
    void check(TranslationUnit &unit);

  private:
    struct FirstErrorStop {};

    /** One visible variable; the name views the AST's VarDecl::name. */
    struct ScopedVar {
        std::string_view name;
        VarDecl *decl;
    };
    /** One function; the index holds these sorted by (name, order). */
    struct FunctionEntry {
        std::string_view name;
        size_t order; ///< position in TranslationUnit::functions
        FunctionDecl *decl;
    };

    void checkUnit(TranslationUnit &unit);

    void checkGlobal(VarDecl &decl);
    void checkFunction(FunctionDecl &fn);
    void checkStmt(Stmt &stmt);
    void checkVarDecl(VarDecl &decl);

    /** Type-check an expression tree; returns its type (null on error). */
    const Type *checkExpr(ExprPtr &expr);
    const Type *checkUnary(ExprPtr &slot);
    const Type *checkBinary(ExprPtr &slot);
    const Type *checkAssign(ExprPtr &slot);
    const Type *checkIndex(ExprPtr &slot);
    const Type *checkCall(ExprPtr &slot);
    const Type *checkConditional(ExprPtr &slot);

    /** Check an expression used as a branch condition (must be scalar). */
    void checkCondition(ExprPtr &expr, const char *construct);

    /** Insert an implicit cast so @p expr has exactly @p target type.
     * Also performs array-to-pointer decay. Reports an error and leaves
     * the tree unchanged if no implicit conversion exists. */
    void convertTo(ExprPtr &expr, const Type *target);

    /** Apply array-to-pointer decay if @p expr has array type. */
    void decay(ExprPtr &expr);

    /** Integer promotion: types narrower than int are widened to int. */
    const Type *promoted(const Type *type) const;
    /** C's usual arithmetic conversions (simplified, see DESIGN.md). */
    const Type *commonType(const Type *a, const Type *b) const;

    void openScope() { scopeStarts_.push_back(vars_.size()); }
    void closeScope()
    {
        vars_.resize(scopeStarts_.back());
        scopeStarts_.pop_back();
    }
    void declare(VarDecl &decl) { vars_.push_back({decl.name, &decl}); }
    bool declaredInInnermostScope(std::string_view name) const;
    /** Innermost-first search of every open scope. */
    VarDecl *lookupVar(std::string_view name) const;
    /** The first-declared function named @p name other than
     * @p except, or null. */
    FunctionDecl *lookupFunction(std::string_view name,
                                 const FunctionDecl *except = nullptr) const;

    /** Report @p message and end the check: throws FirstErrorStop,
     * which check() catches. */
    void error(SourceLoc loc, std::string message);

    DiagnosticEngine &diags_;
    TranslationUnit *unit_ = nullptr;
    FunctionDecl *currentFunction_ = nullptr;
    /** Visible variables, innermost last; scope i starts at
     * vars_[scopeStarts_[i]]. One flat vector instead of a hash map per
     * block: lookups neither hash nor allocate. */
    std::vector<ScopedVar> vars_;
    std::vector<size_t> scopeStarts_;
    /** Function index, built once per check. */
    std::vector<FunctionEntry> functions_;
    int loopDepth_ = 0;
    int switchDepth_ = 0;
};

/**
 * Constant-expression evaluation with MiniC semantics. Returns the
 * canonical integer value of @p expr if it is a constant integer
 * expression, nullopt otherwise. Requires sema annotations.
 */
std::optional<int64_t> evalConstInt(const Expr &expr);

} // namespace dce::lang
