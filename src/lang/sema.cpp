#include "lang/sema.hpp"

#include <algorithm>
#include <cassert>

#include "support/ints.hpp"

namespace dce::lang {

void
Sema::error(SourceLoc loc, std::string message)
{
    diags_.error(loc, std::move(message));
    throw FirstErrorStop{};
}

//===------------------------------------------------------------------===//
// Top level
//===------------------------------------------------------------------===//

void
Sema::check(TranslationUnit &unit)
{
    unit_ = &unit;
    try {
        checkUnit(unit);
    } catch (const FirstErrorStop &) {
        // The one error is reported; the unit is abandoned mid-check.
    }
    vars_.clear();
    scopeStarts_.clear();
    functions_.clear();
    currentFunction_ = nullptr;
    loopDepth_ = 0;
    switchDepth_ = 0;
    unit_ = nullptr;
}

void
Sema::checkUnit(TranslationUnit &unit)
{
    openScope(); // file scope

    // Register all file-scope names first so functions can reference
    // globals and call functions declared later in the file.
    for (auto &global : unit.globals) {
        if (declaredInInnermostScope(global->name)) {
            error(global->loc, "redefinition of '" + global->name + "'");
            continue;
        }
        declare(*global);
    }
    functions_.reserve(unit.functions.size());
    for (size_t i = 0; i < unit.functions.size(); ++i)
        functions_.push_back(
            {unit.functions[i]->name, i, unit.functions[i].get()});
    std::sort(functions_.begin(), functions_.end(),
              [](const FunctionEntry &a, const FunctionEntry &b) {
                  return a.name != b.name ? a.name < b.name
                                          : a.order < b.order;
              });
    for (auto &fn : unit.functions) {
        // Multiple declarations of the same function are allowed if at
        // most one has a body; calls resolve to the first, so the
        // definition must come first or be unique. We check signature
        // compatibility only loosely (arity + return type).
        FunctionDecl *previous = lookupFunction(fn->name, fn.get());
        if (previous &&
            (previous->returnType != fn->returnType ||
             previous->params.size() != fn->params.size())) {
            error(fn->loc,
                  "conflicting declaration of '" + fn->name + "'");
        }
        if (previous && previous->isDefinition() && fn->isDefinition())
            error(fn->loc, "redefinition of function '" + fn->name + "'");
    }

    for (auto &global : unit.globals)
        checkGlobal(*global);
    for (auto &fn : unit.functions)
        checkFunction(*fn);
}

void
Sema::checkGlobal(VarDecl &decl)
{
    if (decl.init) {
        const Type *init_type = checkExpr(decl.init);
        if (!init_type)
            return;
        if (decl.type->isArray()) {
            error(decl.loc, "array global '" + decl.name +
                                "' requires a brace initializer");
            return;
        }
        convertTo(decl.init, decl.type);
        if (decl.type->isInt() && !evalConstInt(*decl.init)) {
            error(decl.loc, "initializer of global '" + decl.name +
                                "' is not a constant expression");
        }
        // Pointer globals may be initialized by address constants
        // (&global or &global[k]); lowering validates the exact shape.
    }
    for (ExprPtr &element : decl.initList) {
        if (!decl.type->isArray()) {
            error(decl.loc, "brace initializer requires an array type");
            return;
        }
        if (!checkExpr(element))
            return;
        convertTo(element, decl.type->element());
        if (decl.type->element()->isInt() && !evalConstInt(*element)) {
            error(decl.loc, "array initializer element is not constant");
        }
    }
    if (decl.type->isArray() &&
        decl.initList.size() > decl.type->arraySize()) {
        error(decl.loc, "too many initializers for '" + decl.name + "'");
    }
}

void
Sema::checkFunction(FunctionDecl &fn)
{
    if (!fn.body)
        return;
    currentFunction_ = &fn;
    openScope();
    for (auto &param : fn.params) {
        if (declaredInInnermostScope(param->name))
            error(param->loc, "duplicate parameter '" + param->name + "'");
        declare(*param);
    }
    // The body's statements are checked in the parameter scope plus one
    // nested block scope (opened by checkStmt for the BlockStmt).
    checkStmt(*fn.body);
    closeScope();
    currentFunction_ = nullptr;
}

//===------------------------------------------------------------------===//
// Statements
//===------------------------------------------------------------------===//

void
Sema::checkVarDecl(VarDecl &decl)
{
    if (declaredInInnermostScope(decl.name)) {
        error(decl.loc,
              "redefinition of local variable '" + decl.name + "'");
    }
    declare(decl);
    if (decl.init) {
        if (checkExpr(decl.init))
            convertTo(decl.init, decl.type);
    }
    for (ExprPtr &element : decl.initList) {
        if (!decl.type->isArray()) {
            error(decl.loc, "brace initializer requires an array type");
            return;
        }
        if (checkExpr(element))
            convertTo(element, decl.type->element());
    }
}

void
Sema::checkStmt(Stmt &stmt)
{
    switch (stmt.kind()) {
      case StmtKind::Block: {
        auto &block = static_cast<BlockStmt &>(stmt);
        openScope();
        for (StmtPtr &child : block.stmts)
            checkStmt(*child);
        closeScope();
        break;
      }
      case StmtKind::ExprStmt:
        checkExpr(static_cast<ExprStmt &>(stmt).expr);
        break;
      case StmtKind::DeclStmt:
        checkVarDecl(*static_cast<DeclStmt &>(stmt).decl);
        break;
      case StmtKind::If: {
        auto &if_stmt = static_cast<IfStmt &>(stmt);
        checkCondition(if_stmt.cond, "if");
        checkStmt(*if_stmt.thenStmt);
        if (if_stmt.elseStmt)
            checkStmt(*if_stmt.elseStmt);
        break;
      }
      case StmtKind::While: {
        auto &while_stmt = static_cast<WhileStmt &>(stmt);
        checkCondition(while_stmt.cond, "while");
        ++loopDepth_;
        checkStmt(*while_stmt.body);
        --loopDepth_;
        break;
      }
      case StmtKind::DoWhile: {
        auto &do_stmt = static_cast<DoWhileStmt &>(stmt);
        ++loopDepth_;
        checkStmt(*do_stmt.body);
        --loopDepth_;
        checkCondition(do_stmt.cond, "do-while");
        break;
      }
      case StmtKind::For: {
        auto &for_stmt = static_cast<ForStmt &>(stmt);
        openScope(); // for-init declarations scope
        if (for_stmt.init)
            checkStmt(*for_stmt.init);
        if (for_stmt.cond)
            checkCondition(for_stmt.cond, "for");
        if (for_stmt.step)
            checkExpr(for_stmt.step);
        ++loopDepth_;
        checkStmt(*for_stmt.body);
        --loopDepth_;
        closeScope();
        break;
      }
      case StmtKind::Switch: {
        auto &switch_stmt = static_cast<SwitchStmt &>(stmt);
        const Type *cond_type = checkExpr(switch_stmt.cond);
        if (cond_type && !cond_type->isInt()) {
            error(switch_stmt.loc, "switch value must be an integer");
        } else if (cond_type) {
            convertTo(switch_stmt.cond, promoted(cond_type));
        }
        bool saw_default = false;
        std::vector<int64_t> seen_values;
        for (SwitchCase &arm : switch_stmt.cases) {
            if (!arm.value) {
                if (saw_default)
                    error(arm.loc, "multiple default cases");
                saw_default = true;
            } else {
                for (int64_t seen : seen_values) {
                    if (seen == *arm.value)
                        error(arm.loc, "duplicate case value");
                }
                seen_values.push_back(*arm.value);
            }
            ++switchDepth_;
            checkStmt(*arm.body);
            --switchDepth_;
        }
        break;
      }
      case StmtKind::Return: {
        auto &ret = static_cast<ReturnStmt &>(stmt);
        assert(currentFunction_);
        const Type *expected = currentFunction_->returnType;
        if (ret.value) {
            if (expected->isVoid()) {
                error(ret.loc, "void function cannot return a value");
            } else if (checkExpr(ret.value)) {
                convertTo(ret.value, expected);
            }
        } else if (!expected->isVoid()) {
            error(ret.loc, "non-void function must return a value");
        }
        break;
      }
      case StmtKind::Break:
        if (loopDepth_ == 0 && switchDepth_ == 0)
            error(stmt.loc, "break outside of loop or switch");
        break;
      case StmtKind::Continue:
        if (loopDepth_ == 0)
            error(stmt.loc, "continue outside of loop");
        break;
      case StmtKind::Empty:
        break;
    }
}

void
Sema::checkCondition(ExprPtr &expr, const char *construct)
{
    const Type *type = checkExpr(expr);
    if (!type)
        return;
    decay(expr);
    if (!expr->type->isScalar()) {
        error(expr->loc, std::string(construct) +
                             " condition must have scalar type, got " +
                             type->str());
    }
}

//===------------------------------------------------------------------===//
// Conversions
//===------------------------------------------------------------------===//

const Type *
Sema::promoted(const Type *type) const
{
    if (type->isInt() && type->bits() < 32)
        return unit_->types->intType(32, true);
    return type;
}

const Type *
Sema::commonType(const Type *a, const Type *b) const
{
    assert(a->isInt() && b->isInt());
    a = promoted(a);
    b = promoted(b);
    if (a == b)
        return a;
    if (a->isSigned() == b->isSigned())
        return a->bits() >= b->bits() ? a : b;
    const Type *unsigned_type = a->isSigned() ? b : a;
    const Type *signed_type = a->isSigned() ? a : b;
    if (unsigned_type->bits() >= signed_type->bits())
        return unsigned_type;
    // The signed type is strictly wider, so it represents every value
    // of the unsigned type.
    return signed_type;
}

void
Sema::decay(ExprPtr &expr)
{
    if (!expr->type || !expr->type->isArray())
        return;
    const Type *ptr = unit_->types->pointerTo(expr->type->element());
    auto cast = std::make_unique<CastExpr>(ptr, std::move(expr),
                                           /*implicit=*/true);
    cast->loc = cast->sub->loc;
    cast->type = ptr;
    cast->lvalue = false;
    expr = std::move(cast);
}

void
Sema::convertTo(ExprPtr &expr, const Type *target)
{
    if (!expr->type)
        return; // a prior error; stay quiet
    decay(expr);
    const Type *from = expr->type;
    if (from == target)
        return;
    bool ok = false;
    if (from->isInt() && target->isInt()) {
        ok = true;
    } else if (from->isPtr() && target->isPtr()) {
        ok = (from == target);
    } else if (target->isPtr() && from->isInt()) {
        // Only the null pointer constant converts.
        std::optional<int64_t> value = evalConstInt(*expr);
        ok = value && *value == 0;
    }
    if (!ok) {
        error(expr->loc, "cannot convert " + from->str() + " to " +
                             target->str());
        return;
    }
    auto cast = std::make_unique<CastExpr>(target, std::move(expr),
                                           /*implicit=*/true);
    cast->loc = cast->sub->loc;
    cast->type = target;
    cast->lvalue = false;
    expr = std::move(cast);
}

//===------------------------------------------------------------------===//
// Expressions
//===------------------------------------------------------------------===//

bool
Sema::declaredInInnermostScope(std::string_view name) const
{
    for (size_t i = vars_.size(); i-- > scopeStarts_.back();) {
        if (vars_[i].name == name)
            return true;
    }
    return false;
}

VarDecl *
Sema::lookupVar(std::string_view name) const
{
    for (size_t i = vars_.size(); i-- > 0;) {
        if (vars_[i].name == name)
            return vars_[i].decl;
    }
    return nullptr;
}

FunctionDecl *
Sema::lookupFunction(std::string_view name, const FunctionDecl *except) const
{
    auto it = std::lower_bound(
        functions_.begin(), functions_.end(), name,
        [](const FunctionEntry &entry, std::string_view key) {
            return entry.name < key;
        });
    for (; it != functions_.end() && it->name == name; ++it) {
        if (it->decl != except)
            return it->decl;
    }
    return nullptr;
}

const Type *
Sema::checkExpr(ExprPtr &expr)
{
    assert(expr);
    switch (expr->kind()) {
      case ExprKind::IntLit: {
        auto &lit = static_cast<IntLit &>(*expr);
        // Literals that fit in int are int; otherwise long. Unsigned
        // 64-bit literals above INT64_MAX become unsigned long.
        if (lit.value <= INT32_MAX)
            lit.type = unit_->types->intType(32, true);
        else if (lit.value <= INT64_MAX)
            lit.type = unit_->types->intType(64, true);
        else
            lit.type = unit_->types->intType(64, false);
        lit.lvalue = false;
        return lit.type;
      }
      case ExprKind::VarRef: {
        auto &ref = static_cast<VarRef &>(*expr);
        ref.decl = lookupVar(ref.name);
        if (!ref.decl) {
            error(ref.loc, "use of undeclared variable '" + ref.name + "'");
            return nullptr;
        }
        ref.type = ref.decl->type;
        ref.lvalue = true;
        return ref.type;
      }
      case ExprKind::Unary:
        return checkUnary(expr);
      case ExprKind::Binary:
        return checkBinary(expr);
      case ExprKind::Assign:
        return checkAssign(expr);
      case ExprKind::Index:
        return checkIndex(expr);
      case ExprKind::Call:
        return checkCall(expr);
      case ExprKind::Conditional:
        return checkConditional(expr);
      case ExprKind::Cast: {
        auto &cast = static_cast<CastExpr &>(*expr);
        const Type *sub_type = checkExpr(cast.sub);
        if (!sub_type)
            return nullptr;
        decay(cast.sub);
        sub_type = cast.sub->type;
        bool ok = (sub_type->isInt() && cast.target->isInt()) ||
                  (sub_type->isPtr() && cast.target == sub_type);
        if (!ok) {
            error(cast.loc, "invalid cast from " + sub_type->str() +
                                " to " + cast.target->str());
            return nullptr;
        }
        cast.type = cast.target;
        cast.lvalue = false;
        return cast.type;
      }
    }
    return nullptr;
}

const Type *
Sema::checkUnary(ExprPtr &slot)
{
    auto &unary = static_cast<UnaryExpr &>(*slot);
    const Type *sub_type = checkExpr(unary.sub);
    if (!sub_type)
        return nullptr;

    switch (unary.op) {
      case UnaryOp::Neg:
      case UnaryOp::BitNot: {
        decay(unary.sub);
        if (!unary.sub->type->isInt()) {
            error(unary.loc, "operand of unary " +
                                 std::string(unaryOpSpelling(unary.op)) +
                                 " must be an integer");
            return nullptr;
        }
        const Type *result = promoted(unary.sub->type);
        convertTo(unary.sub, result);
        unary.type = result;
        unary.lvalue = false;
        return result;
      }
      case UnaryOp::LogicalNot: {
        decay(unary.sub);
        if (!unary.sub->type->isScalar()) {
            error(unary.loc, "operand of ! must be scalar");
            return nullptr;
        }
        unary.type = unit_->types->intType(32, true);
        unary.lvalue = false;
        return unary.type;
      }
      case UnaryOp::AddrOf: {
        if (!unary.sub->lvalue) {
            error(unary.loc, "cannot take address of rvalue");
            return nullptr;
        }
        // &array yields a pointer to the first element (MiniC collapses
        // T(*)[N] into T*; see DESIGN.md).
        const Type *pointee = sub_type->isArray() ? sub_type->element()
                                                  : sub_type;
        unary.type = unit_->types->pointerTo(pointee);
        unary.lvalue = false;
        return unary.type;
      }
      case UnaryOp::Deref: {
        decay(unary.sub);
        if (!unary.sub->type->isPtr()) {
            error(unary.loc, "cannot dereference non-pointer type " +
                                 sub_type->str());
            return nullptr;
        }
        unary.type = unary.sub->type->element();
        if (unary.type->isVoid()) {
            error(unary.loc, "cannot dereference void pointer");
            return nullptr;
        }
        unary.lvalue = true;
        return unary.type;
      }
      case UnaryOp::PreInc:
      case UnaryOp::PreDec:
      case UnaryOp::PostInc:
      case UnaryOp::PostDec: {
        if (!unary.sub->lvalue || !sub_type->isInt()) {
            error(unary.loc,
                  "operand of ++/-- must be an integer lvalue");
            return nullptr;
        }
        unary.type = sub_type;
        unary.lvalue = false;
        return unary.type;
      }
    }
    return nullptr;
}

const Type *
Sema::checkBinary(ExprPtr &slot)
{
    auto &binary = static_cast<BinaryExpr &>(*slot);
    const Type *lhs_type = checkExpr(binary.lhs);
    const Type *rhs_type = checkExpr(binary.rhs);
    if (!lhs_type || !rhs_type)
        return nullptr;
    decay(binary.lhs);
    decay(binary.rhs);
    lhs_type = binary.lhs->type;
    rhs_type = binary.rhs->type;
    const Type *int_type = unit_->types->intType(32, true);

    switch (binary.op) {
      case BinaryOp::LogicalAnd:
      case BinaryOp::LogicalOr:
        if (!lhs_type->isScalar() || !rhs_type->isScalar()) {
            error(binary.loc, "operands of &&/|| must be scalar");
            return nullptr;
        }
        binary.type = int_type;
        binary.lvalue = false;
        return binary.type;

      case BinaryOp::Eq:
      case BinaryOp::Ne:
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge: {
        if (lhs_type->isPtr() || rhs_type->isPtr()) {
            // Pointer comparison: both pointers of the same type, or
            // one side a null constant.
            if (lhs_type->isInt())
                convertTo(binary.lhs, rhs_type);
            else if (rhs_type->isInt())
                convertTo(binary.rhs, lhs_type);
            if (binary.lhs->type != binary.rhs->type ||
                !binary.lhs->type->isPtr()) {
                error(binary.loc, "invalid pointer comparison between " +
                                      lhs_type->str() + " and " +
                                      rhs_type->str());
                return nullptr;
            }
        } else {
            const Type *common = commonType(lhs_type, rhs_type);
            convertTo(binary.lhs, common);
            convertTo(binary.rhs, common);
        }
        binary.type = int_type;
        binary.lvalue = false;
        return binary.type;
      }

      case BinaryOp::Shl:
      case BinaryOp::Shr: {
        if (!lhs_type->isInt() || !rhs_type->isInt()) {
            error(binary.loc, "shift operands must be integers");
            return nullptr;
        }
        const Type *result = promoted(lhs_type);
        convertTo(binary.lhs, result);
        convertTo(binary.rhs, promoted(rhs_type));
        binary.type = result;
        binary.lvalue = false;
        return result;
      }

      default: { // arithmetic and bitwise
        if (!lhs_type->isInt() || !rhs_type->isInt()) {
            error(binary.loc,
                  std::string("operands of ") +
                      binaryOpSpelling(binary.op) +
                      " must be integers, got " + lhs_type->str() +
                      " and " + rhs_type->str());
            return nullptr;
        }
        const Type *common = commonType(lhs_type, rhs_type);
        convertTo(binary.lhs, common);
        convertTo(binary.rhs, common);
        binary.type = common;
        binary.lvalue = false;
        return common;
      }
    }
}

const Type *
Sema::checkAssign(ExprPtr &slot)
{
    auto &assign = static_cast<AssignExpr &>(*slot);
    const Type *lhs_type = checkExpr(assign.lhs);
    const Type *rhs_type = checkExpr(assign.rhs);
    if (!lhs_type || !rhs_type)
        return nullptr;
    if (!assign.lhs->lvalue) {
        error(assign.loc, "left side of assignment is not an lvalue");
        return nullptr;
    }
    if (lhs_type->isArray()) {
        error(assign.loc, "cannot assign to an array");
        return nullptr;
    }
    if (assign.op != AssignOp::Assign && !lhs_type->isInt()) {
        error(assign.loc, "compound assignment requires integer lvalue");
        return nullptr;
    }
    convertTo(assign.rhs, assign.op == AssignOp::Assign
                              ? lhs_type
                              : promoted(assign.rhs->type));
    assign.type = lhs_type;
    assign.lvalue = false;
    return lhs_type;
}

const Type *
Sema::checkIndex(ExprPtr &slot)
{
    auto &index = static_cast<IndexExpr &>(*slot);
    const Type *base_type = checkExpr(index.base);
    const Type *index_type = checkExpr(index.index);
    if (!base_type || !index_type)
        return nullptr;
    if (!index_type->isInt()) {
        error(index.loc, "array subscript must be an integer");
        return nullptr;
    }
    convertTo(index.index, unit_->types->intType(64, true));

    const Type *element = nullptr;
    if (base_type->isArray()) {
        // Arrays are indexed in place (no decay needed).
        element = base_type->element();
    } else {
        decay(index.base);
        if (!index.base->type->isPtr()) {
            error(index.loc, "subscripted value is not array or pointer");
            return nullptr;
        }
        element = index.base->type->element();
    }
    index.type = element;
    index.lvalue = true;
    return element;
}

const Type *
Sema::checkCall(ExprPtr &slot)
{
    auto &call = static_cast<CallExpr &>(*slot);
    call.decl = lookupFunction(call.callee);
    if (!call.decl) {
        error(call.loc, "call to undeclared function '" + call.callee +
                            "'");
        return nullptr;
    }
    if (call.args.size() != call.decl->params.size()) {
        error(call.loc, "wrong number of arguments to '" + call.callee +
                            "': expected " +
                            std::to_string(call.decl->params.size()) +
                            ", got " + std::to_string(call.args.size()));
        return nullptr;
    }
    for (size_t i = 0; i < call.args.size(); ++i) {
        if (checkExpr(call.args[i]))
            convertTo(call.args[i], call.decl->params[i]->type);
    }
    call.type = call.decl->returnType;
    call.lvalue = false;
    return call.type;
}

const Type *
Sema::checkConditional(ExprPtr &slot)
{
    auto &cond = static_cast<ConditionalExpr &>(*slot);
    checkCondition(cond.cond, "conditional");
    const Type *then_type = checkExpr(cond.thenExpr);
    const Type *else_type = checkExpr(cond.elseExpr);
    if (!then_type || !else_type)
        return nullptr;
    decay(cond.thenExpr);
    decay(cond.elseExpr);
    then_type = cond.thenExpr->type;
    else_type = cond.elseExpr->type;

    const Type *result = nullptr;
    if (then_type->isInt() && else_type->isInt()) {
        result = commonType(then_type, else_type);
        convertTo(cond.thenExpr, result);
        convertTo(cond.elseExpr, result);
    } else if (then_type->isPtr() && then_type == else_type) {
        result = then_type;
    } else {
        error(cond.loc, "incompatible conditional operand types " +
                            then_type->str() + " and " + else_type->str());
        return nullptr;
    }
    cond.type = result;
    cond.lvalue = false;
    return result;
}

//===------------------------------------------------------------------===//
// Constant evaluation
//===------------------------------------------------------------------===//

std::optional<int64_t>
evalConstInt(const Expr &expr)
{
    if (!expr.type || !expr.type->isInt())
        return std::nullopt;
    unsigned bits = expr.type->bits();
    bool is_signed = expr.type->isSigned();

    switch (expr.kind()) {
      case ExprKind::IntLit: {
        const auto &lit = static_cast<const IntLit &>(expr);
        return wrapInt(static_cast<int64_t>(lit.value), bits, is_signed);
      }
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        std::optional<int64_t> sub = evalConstInt(*cast.sub);
        if (!sub)
            return std::nullopt;
        return wrapInt(*sub, bits, is_signed);
      }
      case ExprKind::Unary: {
        const auto &unary = static_cast<const UnaryExpr &>(expr);
        std::optional<int64_t> sub = evalConstInt(*unary.sub);
        if (!sub)
            return std::nullopt;
        switch (unary.op) {
          case UnaryOp::Neg:
            return subInt(0, *sub, bits, is_signed);
          case UnaryOp::BitNot:
            return wrapInt(~*sub, bits, is_signed);
          case UnaryOp::LogicalNot:
            return *sub == 0 ? 1 : 0;
          default:
            return std::nullopt;
        }
      }
      case ExprKind::Binary: {
        const auto &binary = static_cast<const BinaryExpr &>(expr);
        std::optional<int64_t> lhs = evalConstInt(*binary.lhs);
        // && and || short-circuit even in constant expressions.
        if (binary.op == BinaryOp::LogicalAnd) {
            if (!lhs)
                return std::nullopt;
            if (*lhs == 0)
                return 0;
            std::optional<int64_t> rhs = evalConstInt(*binary.rhs);
            if (!rhs)
                return std::nullopt;
            return *rhs != 0 ? 1 : 0;
        }
        if (binary.op == BinaryOp::LogicalOr) {
            if (!lhs)
                return std::nullopt;
            if (*lhs != 0)
                return 1;
            std::optional<int64_t> rhs = evalConstInt(*binary.rhs);
            if (!rhs)
                return std::nullopt;
            return *rhs != 0 ? 1 : 0;
        }
        std::optional<int64_t> rhs = evalConstInt(*binary.rhs);
        if (!lhs || !rhs)
            return std::nullopt;
        // Operands share the expression's operation type except for
        // shifts, where the rhs was converted independently; either
        // way the lhs type drives the semantics below.
        const Type *op_type = binary.lhs->type;
        unsigned op_bits = op_type->bits();
        bool op_signed = op_type->isSigned();
        switch (binary.op) {
          case BinaryOp::Add:
            return addInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::Sub:
            return subInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::Mul:
            return mulInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::Div:
            return divInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::Rem:
            return remInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::Shl:
            return shlInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::Shr:
            return shrInt(*lhs, *rhs, op_bits, op_signed);
          case BinaryOp::BitAnd:
            return wrapInt(*lhs & *rhs, op_bits, op_signed);
          case BinaryOp::BitOr:
            return wrapInt(*lhs | *rhs, op_bits, op_signed);
          case BinaryOp::BitXor:
            return wrapInt(*lhs ^ *rhs, op_bits, op_signed);
          case BinaryOp::Lt:
            return ltInt(*lhs, *rhs, op_signed) ? 1 : 0;
          case BinaryOp::Gt:
            return ltInt(*rhs, *lhs, op_signed) ? 1 : 0;
          case BinaryOp::Le:
            return ltInt(*rhs, *lhs, op_signed) ? 0 : 1;
          case BinaryOp::Ge:
            return ltInt(*lhs, *rhs, op_signed) ? 0 : 1;
          case BinaryOp::Eq:
            return *lhs == *rhs ? 1 : 0;
          case BinaryOp::Ne:
            return *lhs != *rhs ? 1 : 0;
          default:
            return std::nullopt;
        }
      }
      case ExprKind::Conditional: {
        const auto &cond = static_cast<const ConditionalExpr &>(expr);
        std::optional<int64_t> selector = evalConstInt(*cond.cond);
        if (!selector)
            return std::nullopt;
        return evalConstInt(*selector ? *cond.thenExpr : *cond.elseExpr);
      }
      default:
        return std::nullopt;
    }
}

} // namespace dce::lang
