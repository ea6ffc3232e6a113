#include "equiv/transforms.hpp"

#include <algorithm>

#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "support/diagnostics.hpp"

namespace dce::equiv {

using lang::AssignExpr;
using lang::AssignOp;
using lang::BinaryExpr;
using lang::BinaryOp;
using lang::BlockStmt;
using lang::CallExpr;
using lang::CastExpr;
using lang::ConditionalExpr;
using lang::DeclStmt;
using lang::DoWhileStmt;
using lang::Expr;
using lang::ExprKind;
using lang::ExprPtr;
using lang::ExprStmt;
using lang::ForStmt;
using lang::IfStmt;
using lang::IndexExpr;
using lang::IntLit;
using lang::ReturnStmt;
using lang::Stmt;
using lang::StmtKind;
using lang::StmtPtr;
using lang::SwitchStmt;
using lang::TranslationUnit;
using lang::UnaryExpr;
using lang::UnaryOp;
using lang::VarDecl;
using lang::VarRef;
using lang::WhileStmt;

const char *
transformKindName(TransformKind kind)
{
    switch (kind) {
    case TransformKind::LoopRotate:
        return "loop-rotate";
    case TransformKind::Reassociate:
        return "reassociate";
    case TransformKind::BranchSwap:
        return "branch-swap";
    case TransformKind::BranchFlatten:
        return "branch-flatten";
    case TransformKind::ConstantReexpr:
        return "constant-reexpr";
    case TransformKind::StmtCommute:
        return "stmt-commute";
    }
    return "unknown";
}

std::optional<TransformKind>
transformKindFromName(std::string_view name)
{
    for (TransformKind kind : allTransforms()) {
        if (name == transformKindName(kind))
            return kind;
    }
    return std::nullopt;
}

const std::vector<TransformKind> &
allTransforms()
{
    static const std::vector<TransformKind> kinds = {
        TransformKind::LoopRotate,     TransformKind::Reassociate,
        TransformKind::BranchSwap,     TransformKind::BranchFlatten,
        TransformKind::ConstantReexpr, TransformKind::StmtCommute,
    };
    return kinds;
}

namespace {

//===------------------------------------------------------------------===//
// Site collection
//===------------------------------------------------------------------===//

/** Wrapping integer ops: fully associative and commutative in MiniC
 * (support/ints.hpp two's-complement semantics), and free of
 * short-circuiting — the only ops Reassociate touches. */
bool
isAssociativeOp(BinaryOp op)
{
    switch (op) {
    case BinaryOp::Add:
    case BinaryOp::Mul:
    case BinaryOp::BitAnd:
    case BinaryOp::BitOr:
    case BinaryOp::BitXor:
        return true;
    default:
        return false;
    }
}

/** No side effects at all: commuting two pure expressions only
 * reorders reads, which MiniC's memory model cannot observe. */
bool
isPureExpr(const Expr *expr)
{
    if (!expr)
        return true;
    switch (expr->kind()) {
    case ExprKind::IntLit:
    case ExprKind::VarRef:
        return true;
    case ExprKind::Unary: {
        const auto *unary = static_cast<const UnaryExpr *>(expr);
        switch (unary->op) {
        case UnaryOp::PreInc:
        case UnaryOp::PreDec:
        case UnaryOp::PostInc:
        case UnaryOp::PostDec:
            return false;
        default:
            return isPureExpr(unary->sub.get());
        }
    }
    case ExprKind::Binary: {
        const auto *bin = static_cast<const BinaryExpr *>(expr);
        return isPureExpr(bin->lhs.get()) && isPureExpr(bin->rhs.get());
    }
    case ExprKind::Assign:
    case ExprKind::Call:
        return false;
    case ExprKind::Index: {
        const auto *index = static_cast<const IndexExpr *>(expr);
        return isPureExpr(index->base.get()) &&
               isPureExpr(index->index.get());
    }
    case ExprKind::Conditional: {
        const auto *cond = static_cast<const ConditionalExpr *>(expr);
        return isPureExpr(cond->cond.get()) &&
               isPureExpr(cond->thenExpr.get()) &&
               isPureExpr(cond->elseExpr.get());
    }
    case ExprKind::Cast:
        return isPureExpr(static_cast<const CastExpr *>(expr)->sub.get());
    }
    return false;
}

/** Reassociation requires every participant to carry the same
 * (sema-installed) integer type — identical types mean sema inserted
 * no conversions, so regrouping is exact wrap-around arithmetic. */
bool
sameIntType(const Expr *a, const Expr *b)
{
    return a->type && a->type->isInt() && a->type == b->type;
}

/** The inner no-else `if` of a flattenable no-else outer `if`: its
 * direct then-statement, or the sole statement of its then-block. */
IfStmt *
flattenableInner(IfStmt &outer)
{
    if (outer.elseStmt)
        return nullptr;
    Stmt *then_stmt = outer.thenStmt.get();
    if (then_stmt->kind() == StmtKind::Block) {
        auto &block = static_cast<BlockStmt &>(*then_stmt);
        if (block.stmts.size() != 1)
            return nullptr;
        then_stmt = block.stmts.front().get();
    }
    if (then_stmt->kind() != StmtKind::If)
        return nullptr;
    auto *inner = static_cast<IfStmt *>(then_stmt);
    return inner->elseStmt ? nullptr : inner;
}

/**
 * Variable-footprint analysis for StmtCommute. Two adjacent
 * statements commute when both are "tame" — expression or scalar-
 * declaration statements whose effects are fully described by reads
 * and writes of resolved scalar VarDecls (no calls, no memory ops) —
 * and their footprints do not conflict.
 */
struct Footprint {
    std::vector<const VarDecl *> reads;
    std::vector<const VarDecl *> writes;
    bool tame = true;
};

void
footprintExpr(const Expr *expr, Footprint &fp, bool written = false)
{
    if (!expr || !fp.tame)
        return;
    switch (expr->kind()) {
    case ExprKind::IntLit:
        return;
    case ExprKind::VarRef: {
        const auto *ref = static_cast<const VarRef *>(expr);
        if (!ref->decl) {
            fp.tame = false;
            return;
        }
        (written ? fp.writes : fp.reads).push_back(ref->decl);
        return;
    }
    case ExprKind::Unary: {
        const auto *unary = static_cast<const UnaryExpr *>(expr);
        switch (unary->op) {
        case UnaryOp::AddrOf:
        case UnaryOp::Deref:
            fp.tame = false; // memory: identity-based tracking ends
            return;
        case UnaryOp::PreInc:
        case UnaryOp::PreDec:
        case UnaryOp::PostInc:
        case UnaryOp::PostDec:
            footprintExpr(unary->sub.get(), fp, /*written=*/true);
            footprintExpr(unary->sub.get(), fp, /*written=*/false);
            return;
        default:
            footprintExpr(unary->sub.get(), fp);
            return;
        }
    }
    case ExprKind::Binary: {
        const auto *bin = static_cast<const BinaryExpr *>(expr);
        // Short-circuit rhs effects are conditional; the superset is
        // fine — footprints only ever gate a swap conservatively.
        footprintExpr(bin->lhs.get(), fp);
        footprintExpr(bin->rhs.get(), fp);
        return;
    }
    case ExprKind::Assign: {
        const auto *assign = static_cast<const AssignExpr *>(expr);
        if (assign->lhs->kind() != ExprKind::VarRef) {
            fp.tame = false; // array/pointer store
            return;
        }
        footprintExpr(assign->lhs.get(), fp, /*written=*/true);
        if (assign->op != AssignOp::Assign)
            footprintExpr(assign->lhs.get(), fp, /*written=*/false);
        footprintExpr(assign->rhs.get(), fp);
        return;
    }
    case ExprKind::Index:
    case ExprKind::Call:
        fp.tame = false;
        return;
    case ExprKind::Conditional: {
        const auto *cond = static_cast<const ConditionalExpr *>(expr);
        footprintExpr(cond->cond.get(), fp);
        footprintExpr(cond->thenExpr.get(), fp);
        footprintExpr(cond->elseExpr.get(), fp);
        return;
    }
    case ExprKind::Cast:
        footprintExpr(static_cast<const CastExpr *>(expr)->sub.get(),
                      fp, written);
        return;
    }
    fp.tame = false;
}

Footprint
footprintStmt(const Stmt &stmt)
{
    Footprint fp;
    switch (stmt.kind()) {
    case StmtKind::ExprStmt:
        footprintExpr(static_cast<const ExprStmt &>(stmt).expr.get(),
                      fp);
        return fp;
    case StmtKind::DeclStmt: {
        const VarDecl *decl =
            static_cast<const DeclStmt &>(stmt).decl.get();
        if (!decl->initList.empty() || !decl->type ||
            !decl->type->isInt()) {
            fp.tame = false;
            return fp;
        }
        fp.writes.push_back(decl);
        footprintExpr(decl->init.get(), fp);
        return fp;
    }
    default:
        fp.tame = false;
        return fp;
    }
}

bool
intersects(const std::vector<const VarDecl *> &a,
           const std::vector<const VarDecl *> &b)
{
    for (const VarDecl *decl : a) {
        if (std::find(b.begin(), b.end(), decl) != b.end())
            return true;
    }
    return false;
}

bool
commutable(const Stmt &first, const Stmt &second)
{
    Footprint a = footprintStmt(first);
    if (!a.tame)
        return false;
    Footprint b = footprintStmt(second);
    if (!b.tame)
        return false;
    return !intersects(a.writes, b.writes) &&
           !intersects(a.writes, b.reads) &&
           !intersects(b.writes, a.reads);
}

/** Everything one unit offers each transform, collected in one
 * deterministic pre-order walk. */
struct Sites {
    std::vector<StmtPtr *> whiles;            ///< LoopRotate
    std::vector<BinaryExpr *> rotations;      ///< Reassociate (a op b) op c
    std::vector<BinaryExpr *> commutations;   ///< Reassociate a op b
    std::vector<IfStmt *> swappable;          ///< BranchSwap (has else)
    std::vector<IfStmt *> flattenable;        ///< BranchFlatten
    std::vector<ExprPtr *> literals;          ///< ConstantReexpr
    std::vector<std::pair<BlockStmt *, size_t>> commutes; ///< StmtCommute
};

/** Literals above this never re-express: keeps both addends well
 * inside int range and the printed program shapes small. */
constexpr uint64_t kMaxReexprLiteral = 1023;

void
collectExpr(ExprPtr *slot, Sites &sites)
{
    Expr *expr = slot->get();
    if (!expr)
        return;
    switch (expr->kind()) {
    case ExprKind::IntLit:
        if (static_cast<IntLit *>(expr)->value <= kMaxReexprLiteral)
            sites.literals.push_back(slot);
        return;
    case ExprKind::VarRef:
        return;
    case ExprKind::Unary:
        collectExpr(&static_cast<UnaryExpr *>(expr)->sub, sites);
        return;
    case ExprKind::Binary: {
        auto *bin = static_cast<BinaryExpr *>(expr);
        if (isAssociativeOp(bin->op) &&
            sameIntType(bin, bin->lhs.get()) &&
            sameIntType(bin, bin->rhs.get())) {
            if (bin->lhs->kind() == ExprKind::Binary) {
                auto *inner = static_cast<BinaryExpr *>(bin->lhs.get());
                if (inner->op == bin->op &&
                    sameIntType(bin, inner->lhs.get()) &&
                    sameIntType(bin, inner->rhs.get())) {
                    sites.rotations.push_back(bin);
                }
            }
            if (isPureExpr(bin->lhs.get()) && isPureExpr(bin->rhs.get()))
                sites.commutations.push_back(bin);
        }
        collectExpr(&bin->lhs, sites);
        collectExpr(&bin->rhs, sites);
        return;
    }
    case ExprKind::Assign: {
        auto *assign = static_cast<AssignExpr *>(expr);
        collectExpr(&assign->lhs, sites);
        collectExpr(&assign->rhs, sites);
        return;
    }
    case ExprKind::Index: {
        auto *index = static_cast<IndexExpr *>(expr);
        collectExpr(&index->base, sites);
        collectExpr(&index->index, sites);
        return;
    }
    case ExprKind::Call:
        for (ExprPtr &arg : static_cast<CallExpr *>(expr)->args)
            collectExpr(&arg, sites);
        return;
    case ExprKind::Conditional: {
        auto *cond = static_cast<ConditionalExpr *>(expr);
        collectExpr(&cond->cond, sites);
        collectExpr(&cond->thenExpr, sites);
        collectExpr(&cond->elseExpr, sites);
        return;
    }
    case ExprKind::Cast:
        collectExpr(&static_cast<CastExpr *>(expr)->sub, sites);
        return;
    }
}

void collectStmt(StmtPtr *slot, Sites &sites);

void
collectBlock(BlockStmt &block, Sites &sites)
{
    for (size_t i = 0; i + 1 < block.stmts.size(); ++i) {
        if (commutable(*block.stmts[i], *block.stmts[i + 1]))
            sites.commutes.emplace_back(&block, i);
    }
    for (StmtPtr &child : block.stmts)
        collectStmt(&child, sites);
}

void
collectStmt(StmtPtr *slot, Sites &sites)
{
    Stmt *stmt = slot->get();
    if (!stmt)
        return;
    switch (stmt->kind()) {
    case StmtKind::Block:
        collectBlock(static_cast<BlockStmt &>(*stmt), sites);
        return;
    case StmtKind::ExprStmt:
        collectExpr(&static_cast<ExprStmt &>(*stmt).expr, sites);
        return;
    case StmtKind::DeclStmt: {
        VarDecl *decl = static_cast<DeclStmt &>(*stmt).decl.get();
        if (decl->init)
            collectExpr(&decl->init, sites);
        // initList stays literal: array initializers must remain
        // constant expressions.
        return;
    }
    case StmtKind::If: {
        auto &if_stmt = static_cast<IfStmt &>(*stmt);
        if (if_stmt.elseStmt)
            sites.swappable.push_back(&if_stmt);
        if (flattenableInner(if_stmt))
            sites.flattenable.push_back(&if_stmt);
        collectExpr(&if_stmt.cond, sites);
        collectStmt(&if_stmt.thenStmt, sites);
        if (if_stmt.elseStmt)
            collectStmt(&if_stmt.elseStmt, sites);
        return;
    }
    case StmtKind::While: {
        auto &loop = static_cast<WhileStmt &>(*stmt);
        sites.whiles.push_back(slot);
        collectExpr(&loop.cond, sites);
        collectStmt(&loop.body, sites);
        return;
    }
    case StmtKind::DoWhile: {
        auto &loop = static_cast<DoWhileStmt &>(*stmt);
        collectStmt(&loop.body, sites);
        collectExpr(&loop.cond, sites);
        return;
    }
    case StmtKind::For: {
        auto &loop = static_cast<ForStmt &>(*stmt);
        if (loop.init)
            collectStmt(&loop.init, sites);
        if (loop.cond)
            collectExpr(&loop.cond, sites);
        if (loop.step)
            collectExpr(&loop.step, sites);
        collectStmt(&loop.body, sites);
        return;
    }
    case StmtKind::Switch: {
        auto &switch_stmt = static_cast<SwitchStmt &>(*stmt);
        collectExpr(&switch_stmt.cond, sites);
        for (lang::SwitchCase &arm : switch_stmt.cases)
            collectBlock(*arm.body, sites);
        return;
    }
    case StmtKind::Return: {
        auto &ret = static_cast<ReturnStmt &>(*stmt);
        if (ret.value)
            collectExpr(&ret.value, sites);
        return;
    }
    default:
        return;
    }
}

Sites
collectSites(TranslationUnit &unit)
{
    Sites sites;
    // Global initializers are never touched: they must stay constant
    // expressions for sema, and re-expressing them would perturb the
    // optimizer-visible initial state, not the code.
    for (const auto &fn : unit.functions) {
        if (fn->body)
            collectBlock(*fn->body, sites);
    }
    return sites;
}

//===------------------------------------------------------------------===//
// Applications
//===------------------------------------------------------------------===//

/** Wrap @p slot in a BlockStmt unless it already is one — branch
 * bodies that change position must keep their brace structure so the
 * printed form re-parses unambiguously (dangling else). */
void
ensureBlock(StmtPtr &slot)
{
    if (slot->kind() == StmtKind::Block)
        return;
    auto wrapper = std::make_unique<BlockStmt>();
    wrapper->loc = slot->loc;
    wrapper->stmts.push_back(std::move(slot));
    slot = std::move(wrapper);
}

/** while (c) B  =>  if (c) { do B while (c); } — identical condition
 * evaluation count and order, identical body trip count, break and
 * continue land in the same places. */
void
applyLoopRotate(StmtPtr *slot)
{
    auto *loop = static_cast<WhileStmt *>(slot->get());
    ExprPtr entry_cond = loop->cond->clone();
    auto rotated = std::make_unique<DoWhileStmt>(
        std::move(loop->body), std::move(loop->cond));
    rotated->loc = loop->loc;
    auto guard_body = std::make_unique<BlockStmt>();
    guard_body->loc = loop->loc;
    guard_body->stmts.push_back(std::move(rotated));
    auto guard = std::make_unique<IfStmt>(
        std::move(entry_cond), std::move(guard_body), nullptr);
    guard->loc = (*slot)->loc;
    *slot = std::move(guard);
}

/** (a op b) op c => a op (b op c): left-to-right evaluation of a, b, c
 * is preserved, so this is exact for wrapping associative ops even
 * with effectful operands. */
void
applyRotation(BinaryExpr *outer)
{
    auto *inner = static_cast<BinaryExpr *>(outer->lhs.get());
    ExprPtr a = std::move(inner->lhs);
    ExprPtr b = std::move(inner->rhs);
    ExprPtr c = std::move(outer->rhs);
    auto regrouped = std::make_unique<BinaryExpr>(
        outer->op, std::move(b), std::move(c));
    regrouped->loc = outer->loc;
    outer->lhs = std::move(a);
    outer->rhs = std::move(regrouped);
}

void
applyBranchSwap(IfStmt *if_stmt)
{
    auto negated = std::make_unique<UnaryExpr>(
        UnaryOp::LogicalNot, std::move(if_stmt->cond));
    negated->loc = if_stmt->loc;
    if_stmt->cond = std::move(negated);
    std::swap(if_stmt->thenStmt, if_stmt->elseStmt);
    ensureBlock(if_stmt->thenStmt);
    ensureBlock(if_stmt->elseStmt);
}

/** if (a) { if (b) S } => if (a && b) S: short-circuit && evaluates b
 * exactly when a holds — the same condition the nesting imposed. */
void
applyBranchFlatten(IfStmt *outer)
{
    IfStmt *inner = flattenableInner(*outer);
    auto combined = std::make_unique<BinaryExpr>(
        lang::BinaryOp::LogicalAnd, std::move(outer->cond),
        std::move(inner->cond));
    combined->loc = outer->loc;
    StmtPtr body = std::move(inner->thenStmt);
    outer->cond = std::move(combined);
    outer->thenStmt = std::move(body);
    ensureBlock(outer->thenStmt);
}

/** k => (k - d) + d (0 => d - d): value-identical, so safe in any
 * position including divisors and shift amounts. */
void
applyConstantReexpr(ExprPtr *slot, Rng &rng)
{
    uint64_t value = static_cast<IntLit *>(slot->get())->value;
    SourceLoc loc = (*slot)->loc;
    ExprPtr replacement;
    if (value == 0) {
        uint64_t d = 1 + rng.below(7);
        replacement = std::make_unique<BinaryExpr>(
            lang::BinaryOp::Sub, std::make_unique<IntLit>(d),
            std::make_unique<IntLit>(d));
    } else {
        uint64_t d = 1 + rng.below(std::min<uint64_t>(value, 7));
        replacement = std::make_unique<BinaryExpr>(
            lang::BinaryOp::Add, std::make_unique<IntLit>(value - d),
            std::make_unique<IntLit>(d));
    }
    replacement->loc = loc;
    *slot = std::move(replacement);
}

} // namespace

bool
applyTransform(TranslationUnit &unit, TransformKind kind, Rng &rng)
{
    Sites sites = collectSites(unit);
    switch (kind) {
    case TransformKind::LoopRotate:
        if (sites.whiles.empty())
            return false;
        applyLoopRotate(rng.pick(sites.whiles));
        return true;
    case TransformKind::Reassociate: {
        // One site pool: rotations first, then commutations, so the
        // draw is uniform over every reassociation opportunity.
        size_t total =
            sites.rotations.size() + sites.commutations.size();
        if (total == 0)
            return false;
        size_t choice = rng.below(total);
        if (choice < sites.rotations.size()) {
            applyRotation(sites.rotations[choice]);
        } else {
            BinaryExpr *bin =
                sites.commutations[choice - sites.rotations.size()];
            std::swap(bin->lhs, bin->rhs);
        }
        return true;
    }
    case TransformKind::BranchSwap:
        if (sites.swappable.empty())
            return false;
        applyBranchSwap(rng.pick(sites.swappable));
        return true;
    case TransformKind::BranchFlatten:
        if (sites.flattenable.empty())
            return false;
        applyBranchFlatten(rng.pick(sites.flattenable));
        return true;
    case TransformKind::ConstantReexpr:
        if (sites.literals.empty())
            return false;
        applyConstantReexpr(rng.pick(sites.literals), rng);
        return true;
    case TransformKind::StmtCommute: {
        if (sites.commutes.empty())
            return false;
        auto [block, index] = rng.pick(sites.commutes);
        std::swap(block->stmts[index], block->stmts[index + 1]);
        return true;
    }
    }
    return false;
}

namespace {

/** Decorrelate the variant stream from the generator's (both
 * splitmix64 over campaign-derived seeds). */
constexpr uint64_t kEquivStream = 0x6571756976786672ULL; // "equivxfr"

} // namespace

std::unique_ptr<TranslationUnit>
deriveVariant(const TranslationUnit &stripped_base, uint64_t seed,
              unsigned max_chain, std::vector<TransformKind> *chain)
{
    Rng rng(seed ^ kEquivStream);
    // Round-trip the base first: transforms rely on sema annotations
    // (types, resolved decls), and the clone a caller may hand us
    // carries stale cross-references by AST contract.
    std::string text = lang::printUnit(stripped_base);
    DiagnosticEngine diags;
    std::unique_ptr<TranslationUnit> unit =
        lang::parseAndCheck(text, diags);
    if (!unit)
        return nullptr;

    unsigned edits = 1 + static_cast<unsigned>(
                             rng.below(std::max(1u, max_chain)));
    std::vector<TransformKind> applied;
    for (unsigned edit = 0; edit < edits; ++edit) {
        TransformKind kind = rng.pick(allTransforms());
        if (!applyTransform(*unit, kind, rng))
            continue; // no site for this kind; try another draw
        std::string candidate = lang::printUnit(*unit);
        DiagnosticEngine reparse_diags;
        std::unique_ptr<TranslationUnit> reparsed =
            lang::parseAndCheck(candidate, reparse_diags);
        if (!reparsed) {
            // The edit broke sema (e.g. a commute surfaced an
            // ordering constraint): revert to the last good state and
            // stop the chain there.
            DiagnosticEngine revert_diags;
            unit = lang::parseAndCheck(text, revert_diags);
            break;
        }
        text = std::move(candidate);
        unit = std::move(reparsed);
        applied.push_back(kind);
    }
    if (applied.empty())
        return nullptr;
    if (chain)
        *chain = std::move(applied);
    return unit;
}

} // namespace dce::equiv
