/**
 * @file
 * "Vectorizer"-style loop store rewrite: a counted loop whose body
 * only stores loop-invariant values at induction-indexed addresses is
 * replaced by straight-line stores in the preheader (the loop-idiom /
 * vectorization family of transforms).
 *
 * R3 `loopRewriteInsertsFreeze`: the regressed variant launders each
 * stored value through a freeze — modelling GCC's vectorizer rewriting
 * pointer data through `unsigned long`, which blocked the constant
 * folding that -O1 performed (Listing 9e / PR99776, fixed with
 * 7d6bb80931b). With the flag off the rewrite is clean and the
 * downstream folds work.
 */
#include <optional>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/loop_info.hpp"
#include "opt/pass.hpp"
#include "support/ints.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::CmpPred;
using ir::Constant;
using ir::Function;
using ir::Instr;
using ir::IrType;
using ir::Loop;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class LoopStoreRewrite : public Pass {
  public:
    std::string name() const override { return "loopstorerewrite"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.loopStoreRewrite)
            return false;
        config_ = &config;
        module_ = &module;
        ctx_ = &ctx;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (fn->isDeclaration())
                continue;
            unsigned budget = 8;
            while (budget-- > 0 && rewriteOne(*fn)) {
                ctx.analyses.invalidate(*fn);
                changed = true;
            }
        }
        ctx_ = nullptr;
        return changed;
    }

  private:
    bool
    rewriteOne(Function &fn)
    {
        const ir::LoopInfo &loop_info = ctx_->analyses.loopInfo(fn);
        const ir::PredecessorMap &preds = ctx_->analyses.preds(fn);
        for (const auto &loop : loop_info.loops()) {
            if (tryRewrite(fn, *loop, preds))
                return true;
        }
        return false;
    }

    bool
    definedInLoop(const Value *value, const Loop &loop) const
    {
        return value->isInstruction() &&
               loop.contains(
                   static_cast<const Instr *>(value)->parent());
    }

    bool
    tryRewrite(Function &fn, const Loop &loop,
               const ir::PredecessorMap &preds)
    {
        // Shape: two blocks (header + body/latch), counted by a phi.
        if (loop.blocks.size() != 2 || loop.latches.size() != 1 ||
            !loop.subloops.empty()) {
            return false;
        }
        BasicBlock *header = loop.header;
        BasicBlock *body = loop.latches[0];
        BasicBlock *preheader = loop.preheader(preds);
        if (!preheader || body == header)
            return false;

        Instr *term = header->terminator();
        if (!term || term->opcode() != Opcode::CondBr)
            return false;
        BasicBlock *exit;
        bool exit_on_true;
        if (term->blockOperands()[0] == body &&
            !loop.contains(term->blockOperands()[1])) {
            exit = term->blockOperands()[1];
            exit_on_true = false;
        } else if (term->blockOperands()[1] == body &&
                   !loop.contains(term->blockOperands()[0])) {
            exit = term->blockOperands()[0];
            exit_on_true = true;
        } else {
            return false;
        }

        // Header: phis + cmp + condbr only.
        Instr *cmp = nullptr;
        for (const auto &instr : header->instrs()) {
            if (instr->opcode() == Opcode::Phi || instr.get() == term)
                continue;
            if (instr->opcode() == Opcode::Cmp && !cmp &&
                term->operand(0) == instr.get()) {
                cmp = instr.get();
                continue;
            }
            return false;
        }
        if (!cmp || !cmp->operand(1)->isConstant())
            return false;
        Instr *phi = cmp->operand(0)->isInstruction()
                         ? static_cast<Instr *>(cmp->operand(0))
                         : nullptr;
        if (!phi || phi->opcode() != Opcode::Phi ||
            phi->parent() != header || header->phis().size() != 1) {
            return false;
        }

        // Body: geps on invariant bases indexed by the phi or
        // constants, stores of invariant values, one induction update,
        // and the back edge.
        Instr *step_instr = nullptr;
        std::vector<Instr *> stores;
        for (const auto &instr : body->instrs()) {
            switch (instr->opcode()) {
              case Opcode::Gep: {
                Value *base = instr->operand(0);
                Value *index = instr->operand(1);
                if (definedInLoop(base, loop))
                    return false;
                if (index != phi && !index->isConstant()) {
                    // Allow casts of the phi as the index.
                    if (!(index->isInstruction() &&
                          static_cast<Instr *>(index)->opcode() ==
                              Opcode::Cast &&
                          static_cast<Instr *>(index)->operand(0) ==
                              phi)) {
                        return false;
                    }
                }
                break;
              }
              case Opcode::Cast:
                if (instr->operand(0) != phi)
                    return false;
                break;
              case Opcode::Store: {
                Value *value = instr->operand(0);
                Value *ptr = instr->operand(1);
                if (definedInLoop(value, loop))
                    return false;
                // Pointer must be a gep in this body or invariant.
                if (definedInLoop(ptr, loop) &&
                    (!ptr->isInstruction() ||
                     static_cast<Instr *>(ptr)->opcode() !=
                         Opcode::Gep)) {
                    return false;
                }
                stores.push_back(instr.get());
                break;
              }
              case Opcode::Bin:
                if (step_instr || instr->operand(0) != phi ||
                    !instr->operand(1)->isConstant() ||
                    (instr->binOp != ir::BinOp::Add &&
                     instr->binOp != ir::BinOp::Sub)) {
                    return false;
                }
                step_instr = instr.get();
                break;
              case Opcode::Br:
                break;
              case Opcode::Call:
                // Opaque argument-less calls (optimization markers!)
                // are preserved per iteration by the rewrite; anything
                // with arguments or a body is out of scope.
                if (!instr->callee->isDeclaration() ||
                    instr->numOperands() != 0 ||
                    !instr->type().isVoid()) {
                    return false;
                }
                break;
              default:
                return false;
            }
        }
        if (!step_instr || stores.empty())
            return false;
        if (phi->incomingValueFor(body) != step_instr)
            return false;
        Value *init = phi->incomingValueFor(preheader);
        if (!init || !init->isConstant())
            return false;

        // No loop value may be used outside.
        for (BasicBlock *block : loop.blocks) {
            for (const auto &instr : block->instrs()) {
                for (const Instr *user : instr->users()) {
                    if (!loop.contains(user->parent()))
                        return false;
                }
            }
        }
        if (!exit->phis().empty())
            return false;

        // Simulate the trip count.
        IrType type = phi->type();
        int64_t value = static_cast<Constant *>(init)->value();
        int64_t bound =
            static_cast<Constant *>(cmp->operand(1))->value();
        int64_t step =
            static_cast<Constant *>(step_instr->operand(1))->value();
        std::vector<int64_t> iteration_values;
        for (;;) {
            bool cond = evalPred(cmp->cmpPred, value, bound);
            if (exit_on_true ? cond : !cond)
                break;
            iteration_values.push_back(value);
            if (iteration_values.size() > 16)
                return false;
            value = step_instr->binOp == ir::BinOp::Add
                        ? addInt(value, step, type.bits, type.isSigned)
                        : subInt(value, step, type.bits, type.isSigned);
        }

        emitStraightLine(*preheader, *body, iteration_values, stores,
                         phi, exit, header, fn);
        return true;
    }

    static bool
    evalPred(CmpPred pred, int64_t a, int64_t b)
    {
        switch (pred) {
          case CmpPred::Eq: return a == b;
          case CmpPred::Ne: return a != b;
          case CmpPred::Slt: return a < b;
          case CmpPred::Sle: return a <= b;
          case CmpPred::Sgt: return a > b;
          case CmpPred::Sge: return a >= b;
          case CmpPred::Ult:
            return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
          case CmpPred::Ule:
            return static_cast<uint64_t>(a) <= static_cast<uint64_t>(b);
          case CmpPred::Ugt:
            return static_cast<uint64_t>(a) > static_cast<uint64_t>(b);
          case CmpPred::Uge:
            return static_cast<uint64_t>(a) >= static_cast<uint64_t>(b);
        }
        return false;
    }

    void
    emitStraightLine(BasicBlock &preheader, BasicBlock &body,
                     const std::vector<int64_t> &iteration_values,
                     const std::vector<Instr *> &stores, Instr *phi,
                     BasicBlock *exit, BasicBlock *header, Function &fn)
    {
        size_t insert_at = preheader.size() - 1; // before terminator
        auto emit = [&](ir::InstrPtr instr) -> Instr * {
            Instr *placed =
                preheader.insertBefore(insert_at++, std::move(instr));
            return placed;
        };

        for (int64_t iteration : iteration_values) {
            // Replay the body's stores and opaque calls in order, so
            // the observable call trace is preserved exactly.
            for (const auto &owned : body.instrs()) {
                Instr *instr = owned.get();
                if (instr->opcode() == Opcode::Call) {
                    auto call = module_->newInstr(
                        Opcode::Call, IrType::voidTy());
                    call->callee = instr->callee;
                    emit(std::move(call));
                    continue;
                }
                if (instr->opcode() != Opcode::Store)
                    continue;
                Instr *store = instr;
                Value *ptr = store->operand(1);
                Value *concrete_ptr = ptr;
                if (ptr->isInstruction() &&
                    static_cast<Instr *>(ptr)->parent() == &body) {
                    // Clone the gep with a concrete index.
                    Instr *gep = static_cast<Instr *>(ptr);
                    Value *index = gep->operand(1);
                    Value *concrete_index;
                    if (index == phi) {
                        concrete_index = module_->constant(
                            phi->type(), iteration);
                    } else if (index->isConstant()) {
                        concrete_index = index;
                    } else {
                        // cast(phi): apply the cast to the concrete
                        // value.
                        Instr *cast = static_cast<Instr *>(index);
                        IrType to = cast->type();
                        concrete_index = module_->constant(
                            to, wrapInt(iteration, to.bits,
                                        to.isSigned));
                    }
                    auto cloned = module_->newInstr(
                        Opcode::Gep, IrType::ptrTy());
                    cloned->addOperand(gep->operand(0));
                    cloned->addOperand(concrete_index);
                    cloned->gepElemSize = gep->gepElemSize;
                    cloned->setId(module_->nextValueId());
                    concrete_ptr = emit(std::move(cloned));
                }
                Value *stored = store->operand(0);
                if (config_->loopRewriteInsertsFreeze) {
                    auto freeze = module_->newInstr(
                        Opcode::Freeze, stored->type());
                    freeze->addOperand(stored);
                    freeze->setId(module_->nextValueId());
                    stored = emit(std::move(freeze));
                }
                auto new_store = module_->newInstr(
                    Opcode::Store, IrType::voidTy());
                new_store->addOperand(stored);
                new_store->addOperand(concrete_ptr);
                emit(std::move(new_store));
            }
        }
        (void)stores;

        // Jump straight to the exit; the loop becomes unreachable.
        preheader.terminator()->replaceSuccessor(header, exit);
        removeUnreachableBlocks(fn, name(), *ctx_,
                                "loop rewritten to straight-line stores");
    }

    const PassConfig *config_ = nullptr;
    Module *module_ = nullptr;
    PassContext *ctx_ = nullptr;
};

} // namespace

std::unique_ptr<Pass>
createLoopStoreRewritePass()
{
    return std::make_unique<LoopStoreRewrite>();
}

} // namespace dce::opt
