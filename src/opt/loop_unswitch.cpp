/**
 * @file
 * Loop unswitching, preceded by a mini-LICM that hoists clobber-free
 * loads of loop-invariant addresses to the preheader (real compilers
 * run LICM first too; without it no load-based condition is ever
 * loop-invariant as an SSA value).
 *
 * Unswitching duplicates the loop: the preheader branches on the
 * invariant condition and each copy runs with the branch decided.
 *
 * R1 `unswitchInsertsFreeze`: the hoisted condition is wrapped in a
 * freeze, exactly like LLVM >= 12's SimpleLoopUnswitch. Combined with
 * constant folding that refuses to look through freeze, this is the
 * paper's Listing 7 / 8a regression: -O3 (with unswitch) leaves dead
 * calls that -O2 (without) eliminates.
 */
#include <vector>

#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "ir/loop_info.hpp"
#include "opt/alias.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::CloneMap;
using ir::Function;
using ir::Instr;
using ir::IrType;
using ir::Loop;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class LoopUnswitch : public Pass {
  public:
    std::string name() const override { return "loopunswitch"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.loopUnswitch)
            return false;
        config_ = &config;
        module_ = &module;
        ctx_ = &ctx;
        escape_ = &ctx.analyses.escapeInfo(module);
        summary_ = &ctx.analyses.memorySummary(module);
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (fn->isDeclaration())
                continue;
            // One unswitch per function per run keeps growth bounded;
            // pipeline iteration picks up the rest. Hoisting loads
            // leaves the CFG alone, so unswitchOne reuses licmLoads'
            // loops; unswitching itself rewires the CFG.
            changed |= licmLoads(*fn);
            if (unswitchOne(*fn)) {
                ctx.analyses.invalidate(*fn);
                changed = true;
            }
        }
        escape_ = nullptr;
        summary_ = nullptr;
        ctx_ = nullptr;
        return changed;
    }

  private:
    bool
    definedInLoop(const Value *value, const Loop &loop) const
    {
        if (!value->isInstruction())
            return false;
        return loop.contains(
            static_cast<const Instr *>(value)->parent());
    }

    /** Hoist loads of invariant, un-clobbered addresses into loop
     * preheaders. */
    bool
    licmLoads(Function &fn)
    {
        const ir::LoopInfo &loop_info = ctx_->analyses.loopInfo(fn);
        const ir::PredecessorMap &preds = ctx_->analyses.preds(fn);
        bool changed = false;
        for (const auto &loop : loop_info.loops()) {
            BasicBlock *preheader = loop->preheader(preds);
            if (!preheader)
                continue;
            // Collect loop memory effects once.
            std::vector<const Instr *> stores;
            std::vector<const Instr *> calls;
            for (BasicBlock *block : loop->blocks) {
                for (const auto &instr : block->instrs()) {
                    if (instr->opcode() == Opcode::Store)
                        stores.push_back(instr.get());
                    else if (instr->opcode() == Opcode::Call)
                        calls.push_back(instr.get());
                }
            }
            for (BasicBlock *block : loop->blocks) {
                for (size_t i = 0; i < block->size();) {
                    Instr *load = block->instrs()[i].get();
                    if (load->opcode() != Opcode::Load ||
                        definedInLoop(load->operand(0), *loop) ||
                        clobbered(load->operand(0), stores, calls)) {
                        ++i;
                        continue;
                    }
                    // Hoist: move before the preheader terminator.
                    ir::InstrPtr owned = block->detach(load);
                    preheader->insertBefore(preheader->size() - 1,
                                            std::move(owned));
                    changed = true;
                    // Do not advance i: the next instr shifted down.
                }
            }
        }
        return changed;
    }

    bool
    clobbered(const Value *ptr, const std::vector<const Instr *> &stores,
              const std::vector<const Instr *> &calls) const
    {
        for (const Instr *store : stores) {
            if (alias(store->operand(1), ptr) != AliasResult::NoAlias)
                return true;
        }
        PtrBase base = resolvePtrBase(ptr);
        for (const Instr *call : calls) {
            if (base.kind == PtrBase::Kind::Global) {
                const auto *g =
                    static_cast<const ir::GlobalVar *>(base.object);
                if (summary_->mayWrite(call->callee, g) ||
                    (escape_->escapes(g) &&
                     summary_->writesUnknown(call->callee))) {
                    return true;
                }
            } else if (base.kind == PtrBase::Kind::Alloca) {
                if (escape_->escapes(base.object) &&
                    summary_->writesUnknown(call->callee)) {
                    return true;
                }
            } else {
                return true;
            }
        }
        return false;
    }

    /** Any value defined inside @p loop used outside it? */
    bool
    valuesEscapeLoop(const Loop &loop) const
    {
        for (BasicBlock *block : loop.blocks) {
            for (const auto &instr : block->instrs()) {
                for (const Instr *user : instr->users()) {
                    if (!loop.contains(user->parent()))
                        return true;
                }
            }
        }
        return false;
    }

    bool
    unswitchOne(Function &fn)
    {
        const ir::LoopInfo &loop_info = ctx_->analyses.loopInfo(fn);
        const ir::PredecessorMap &preds = ctx_->analyses.preds(fn);

        for (const auto &loop : loop_info.loops()) {
            if (loop->blocks.size() > 40)
                continue; // growth guard
            BasicBlock *preheader = loop->preheader(preds);
            if (!preheader || valuesEscapeLoop(*loop))
                continue;

            // Find a conditional branch on a loop-invariant,
            // non-constant condition.
            for (BasicBlock *block : loop->blocks) {
                Instr *term = block->terminator();
                if (!term || term->opcode() != Opcode::CondBr)
                    continue;
                Value *cond = term->operand(0);
                if (cond->isConstant() || definedInLoop(cond, *loop))
                    continue;
                if (term->blockOperands()[0] ==
                    term->blockOperands()[1]) {
                    continue;
                }
                applyUnswitch(fn, *loop, preheader, block, term, cond);
                return true;
            }
        }
        return false;
    }

    void
    applyUnswitch(Function &fn, const Loop &loop, BasicBlock *preheader,
                  BasicBlock *branch_block, Instr *term, Value *cond)
    {
        const std::vector<BasicBlock *> &region = loop.blocks;
        CloneMap map =
            ir::cloneRegion(region, fn, *module_, CloneMap{}, ".us");

        // Exit blocks gain one edge per cloned exiting block; register
        // their phi incomings *before* the terminators are rewritten
        // (rewriting drops entries for the decided-away edges). The
        // incoming values are outside-defined (valuesEscapeLoop
        // checked), so the clone contributes the same value.
        for (BasicBlock *exiting : region) {
            BasicBlock *clone_exiting = map.blocks.at(exiting);
            for (BasicBlock *succ : exiting->successors()) {
                if (loop.contains(succ))
                    continue;
                for (Instr *phi : succ->phis()) {
                    Value *via = phi->incomingValueFor(exiting);
                    if (via)
                        phi->addIncoming(via, clone_exiting);
                }
            }
        }

        BasicBlock *true_succ = term->blockOperands()[0];
        BasicBlock *false_succ = term->blockOperands()[1];

        // Original copy: condition decided true.
        rewriteToUnconditional(branch_block, term, true_succ,
                               false_succ);
        // Clone: condition decided false.
        BasicBlock *clone_branch = map.blocks.at(branch_block);
        Instr *clone_term = clone_branch->terminator();
        BasicBlock *clone_true = clone_term->blockOperands()[0];
        BasicBlock *clone_false = clone_term->blockOperands()[1];
        rewriteToUnconditional(clone_branch, clone_term, clone_false,
                               clone_true);

        // Preheader now dispatches on the (possibly frozen) condition.
        Instr *pre_term = preheader->terminator();
        BasicBlock *header = pre_term->blockOperands()[0];
        BasicBlock *clone_header = map.blocks.at(header);
        preheader->erase(pre_term);
        Value *dispatch = cond;
        if (config_->unswitchInsertsFreeze) {
            auto freeze = module_->newInstr(Opcode::Freeze,
                                                  cond->type());
            freeze->addOperand(cond);
            freeze->setId(module_->nextValueId());
            dispatch = preheader->append(std::move(freeze));
        }
        Value *int_dispatch = dispatch;
        if (dispatch->type().isPtr()) {
            auto cmp = module_->newInstr(Opcode::Cmp,
                                               IrType::i32());
            cmp->cmpPred = ir::CmpPred::Ne;
            cmp->addOperand(dispatch);
            cmp->addOperand(module_->constant(IrType::ptrTy(), 0));
            cmp->setId(module_->nextValueId());
            int_dispatch = preheader->append(std::move(cmp));
        }
        auto condbr = module_->newInstr(Opcode::CondBr,
                                              IrType::voidTy());
        condbr->addOperand(int_dispatch);
        condbr->addBlockOperand(header);
        condbr->addBlockOperand(clone_header);
        preheader->append(std::move(condbr));

        if (ctx_->wantRemarks()) {
            ctx_->remark(support::RemarkKind::Note, name(),
                         support::Remark::kNoMarker,
                         std::string("unswitched loop at '") +
                             header->name() + "' in '" + fn.name() +
                             (config_->unswitchInsertsFreeze
                                  ? "' (condition frozen)"
                                  : "'"));
        }
        removeUnreachableBlocks(fn, name(), *ctx_, "loop unswitch cleanup");
    }

    /** Replace @p term (CondBr) with an unconditional branch to
     * @p kept; @p dropped loses the phi entries for this block. */
    void
    rewriteToUnconditional(BasicBlock *block, Instr *term,
                           BasicBlock *kept, BasicBlock *dropped)
    {
        block->erase(term);
        auto br =
            module_->newInstr(Opcode::Br, IrType::voidTy());
        br->addBlockOperand(kept);
        block->append(std::move(br));
        if (dropped != kept)
            dropped->removePhiIncomingFor(block);
    }

    const PassConfig *config_ = nullptr;
    Module *module_ = nullptr;
    PassContext *ctx_ = nullptr;
    const EscapeInfo *escape_ = nullptr;
    const MemorySummary *summary_ = nullptr;
};

} // namespace

std::unique_ptr<Pass>
createLoopUnswitchPass()
{
    return std::make_unique<LoopUnswitch>();
}

} // namespace dce::opt
