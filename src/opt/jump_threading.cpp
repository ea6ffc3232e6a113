/**
 * @file
 * Jump threading: when a block's conditional branch depends on a phi
 * with constant incomings, predecessors contributing those constants
 * can jump straight to the decided target. The block stays behind for
 * the remaining (non-constant) predecessors.
 *
 * R4 `threadThroughDeadPhis`: the regressed variant wraps the residual
 * branch condition in a freeze when it threads — modelling the freeze
 * insertion of modern jump threading that subsequently blocks constant
 * folding of the residual branch (the mechanism behind Listing 9d's
 * leftover dead code at -O3).
 */
#include "ir/cfg.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::CmpPred;
using ir::Constant;
using ir::Function;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class JumpThreading : public Pass {
  public:
    std::string name() const override { return "jumpthreading"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.jumpThreading)
            return false;
        config_ = &config;
        module_ = &module;
        ctx_ = &ctx;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (fn->isDeclaration())
                continue;
            bool fn_changed = false;
            while (threadOne(*fn))
                fn_changed = true;
            if (fn_changed) {
                ctx.analyses.invalidate(*fn);
                changed = true;
            }
        }
        ctx_ = nullptr;
        return changed;
    }

  private:
    /** Decide the branch for incoming constant @p value; returns the
     * taken successor of @p term, which must be a CondBr whose
     * condition is @p phi, or cmp(phi, const). */
    BasicBlock *
    decide(const Instr &term, const Instr &phi, int64_t value) const
    {
        Value *cond = term.operand(0);
        bool truth;
        if (cond == &phi) {
            truth = value != 0;
        } else {
            const auto *cmp = static_cast<const Instr *>(cond);
            // The phi may sit on either side of the comparison; the
            // constant is the other operand.
            bool phi_is_lhs = cmp->operand(0) == &phi;
            int64_t other = static_cast<const Constant *>(
                                cmp->operand(phi_is_lhs ? 1 : 0))
                                ->value();
            int64_t lhs = phi_is_lhs ? value : other;
            int64_t rhs = phi_is_lhs ? other : value;
            switch (cmp->cmpPred) {
              case CmpPred::Eq: truth = lhs == rhs; break;
              case CmpPred::Ne: truth = lhs != rhs; break;
              case CmpPred::Slt: truth = lhs < rhs; break;
              case CmpPred::Sle: truth = lhs <= rhs; break;
              case CmpPred::Sgt: truth = lhs > rhs; break;
              case CmpPred::Sge: truth = lhs >= rhs; break;
              case CmpPred::Ult:
                truth = static_cast<uint64_t>(lhs) <
                        static_cast<uint64_t>(rhs);
                break;
              case CmpPred::Ule:
                truth = static_cast<uint64_t>(lhs) <=
                        static_cast<uint64_t>(rhs);
                break;
              case CmpPred::Ugt:
                truth = static_cast<uint64_t>(lhs) >
                        static_cast<uint64_t>(rhs);
                break;
              default:
                truth = static_cast<uint64_t>(lhs) >=
                        static_cast<uint64_t>(rhs);
                break;
            }
        }
        return term.blockOperands()[truth ? 0 : 1];
    }

    bool
    threadOne(Function &fn)
    {
        auto preds = ir::predecessorMap(fn);
        for (const auto &owned : fn.blocks()) {
            BasicBlock *block = owned.get();
            Instr *term = block->terminator();
            if (!term || term->opcode() != Opcode::CondBr)
                continue;

            // The threadable shape: condition is a phi of this block,
            // or a single-use cmp(phi, const) defined in this block.
            Value *cond = term->operand(0);
            Instr *phi = nullptr;
            if (cond->isInstruction()) {
                Instr *cond_instr = static_cast<Instr *>(cond);
                if (cond_instr->opcode() == Opcode::Phi &&
                    cond_instr->parent() == block) {
                    phi = cond_instr;
                } else if (cond_instr->opcode() == Opcode::Cmp &&
                           cond_instr->parent() == block) {
                    Instr *maybe_phi = nullptr;
                    if (cond_instr->operand(0)->isInstruction() &&
                        cond_instr->operand(1)->isConstant()) {
                        maybe_phi =
                            static_cast<Instr *>(cond_instr->operand(0));
                    } else if (cond_instr->operand(1)->isInstruction() &&
                               cond_instr->operand(0)->isConstant()) {
                        maybe_phi =
                            static_cast<Instr *>(cond_instr->operand(1));
                    }
                    if (maybe_phi &&
                        maybe_phi->opcode() == Opcode::Phi &&
                        maybe_phi->parent() == block) {
                        phi = maybe_phi;
                    }
                }
            }
            if (!phi || phi->type().isPtr())
                continue;

            // Only thread when the block does nothing else: all
            // instructions must be phis or the condition cmp — anything
            // with effects must execute on the original path.
            bool threadable = true;
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == Opcode::Phi ||
                    instr.get() == term || instr.get() == cond) {
                    continue;
                }
                threadable = false;
                break;
            }
            if (!threadable || block == fn.entry())
                continue;

            // Find a predecessor contributing a constant.
            BasicBlock *from = nullptr;
            int64_t constant_value = 0;
            for (size_t i = 0; i < phi->numOperands(); ++i) {
                if (!phi->operand(i)->isConstant())
                    continue;
                BasicBlock *pred = phi->blockOperands()[i];
                // Multi-edge preds (condbr with both edges here) are
                // rare and fiddly; skip them.
                size_t edge_count = 0;
                for (BasicBlock *succ : pred->successors())
                    edge_count += succ == block ? 1 : 0;
                if (edge_count != 1)
                    continue;
                from = pred;
                constant_value = static_cast<Constant *>(phi->operand(i))
                                     ->value();
                break;
            }
            if (!from)
                continue;
            // Threading a loop header's back edge to itself is not
            // productive; avoid self-edges.
            BasicBlock *target = decide(*term, *phi, constant_value);
            if (target == block || from == block)
                continue;

            // Other phis in `block` would need their `from` values
            // forwarded into `target`'s phis; support the common case
            // where `block` has exactly the branch phi (plus cmp).
            if (block->phis().size() != 1)
                continue;

            // Threading must not skip definitions that the rest of the
            // CFG still needs: every user of the block's own values
            // must live in the block itself (loop-header phis used by
            // the loop body are the classic counter-example).
            bool values_leak = false;
            for (const auto &instr : block->instrs()) {
                for (const Instr *user : instr->users()) {
                    if (user->parent() != block) {
                        values_leak = true;
                        break;
                    }
                }
                if (values_leak)
                    break;
            }
            if (values_leak)
                continue;

            // Every value target's phis receive via `block` must be
            // available in `from`: the branch phi becomes its constant;
            // anything else defined in `block` (the cmp) blocks the
            // thread.
            bool feasible = true;
            for (Instr *target_phi : target->phis()) {
                Value *via = target_phi->incomingValueFor(block);
                if (via == phi)
                    continue;
                if (via && via->isInstruction() &&
                    static_cast<Instr *>(via)->parent() == block) {
                    feasible = false;
                    break;
                }
            }
            if (!feasible)
                continue;

            // Redirect: from now jumps straight to target.
            if (ctx_ && ctx_->wantRemarks()) {
                ctx_->remark(support::RemarkKind::Note, name(),
                             support::Remark::kNoMarker,
                             "threaded '" + from->name() +
                                 "' around '" + block->name() +
                                 "' to '" + target->name() +
                                 "' in '" + fn.name() + "'");
            }
            from->terminator()->replaceSuccessor(block, target);
            // target's phis gain an incoming from `from`, carrying the
            // value they would have received via `block`.
            for (Instr *target_phi : target->phis()) {
                Value *via = target_phi->incomingValueFor(block);
                if (via == phi) {
                    via = module_->constant(phi->type(),
                                            constant_value);
                }
                target_phi->addIncoming(via, from);
            }
            // block loses the pred.
            block->removePhiIncomingFor(from);

            // R4: the residual branch condition gets frozen.
            if (config_->threadThroughDeadPhis &&
                cond->isInstruction() && !phi->operands().empty()) {
                Instr *term_now = block->terminator();
                auto freeze = module_->newInstr(
                    Opcode::Freeze, term_now->operand(0)->type());
                freeze->addOperand(term_now->operand(0));
                freeze->setId(module_->nextValueId());
                Instr *frozen = block->insertBefore(
                    block->indexOf(term_now), std::move(freeze));
                term_now->setOperand(0, frozen);
            }
            return true;
        }
        return false;
    }

    const PassConfig *config_ = nullptr;
    Module *module_ = nullptr;
    PassContext *ctx_ = nullptr;
};

} // namespace

std::unique_ptr<Pass>
createJumpThreadingPass()
{
    return std::make_unique<JumpThreading>();
}

} // namespace dce::opt
