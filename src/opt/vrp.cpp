/**
 * @file
 * Value-range / correlated value propagation. A dominator-tree walk
 * collects predicate facts from branch edges ("on this path, v == 3",
 * "v != 0", "v < 10") and uses them to (a) substitute known-equal
 * constants into dominated instructions and (b) decide dominated
 * comparisons outright.
 *
 * Engineered knobs (DESIGN.md §6):
 *  - R8 `shiftNonzeroRelation`: from a dominating (x << y) != 0 fact,
 *    also record x != 0 (GCC PR102546 / Listing 9a — GCC was missing
 *    this relation; fixed with 5f9ccf17de7).
 *  - D5/R2 `vrpFoldsRem`: when off, equality facts are not substituted
 *    into Rem instructions — LLVM's constant-range modulo omission
 *    (PR49731 / Listing 8b; fixed with 611a02cce509).
 */
#include <optional>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
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

/** A predicate fact about an SSA value vs a constant. */
struct Fact {
    const Value *subject = nullptr;
    CmpPred pred = CmpPred::Eq;
    int64_t bound = 0;
};

class Vrp : public Pass {
  public:
    std::string name() const override { return "vrp"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        config_ = &config;
        module_ = &module;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (!fn->isDeclaration()) {
                changed |= runOnFunction(*fn, ctx.analyses.domtree(*fn),
                                         ctx.analyses.preds(*fn));
            }
        }
        return changed;
    }

  private:
    /** Facts derived from taking @p term's @p taken_true edge. */
    std::vector<Fact>
    edgeFacts(const Instr &term, bool taken_true) const
    {
        std::vector<Fact> facts;
        if (term.opcode() != Opcode::CondBr)
            return facts;
        const Value *cond = term.operand(0);
        if (!cond->isInstruction())
            return facts;
        const auto *cmp = static_cast<const Instr *>(cond);
        if (cmp->opcode() != Opcode::Cmp ||
            cmp->operand(0)->type().isPtr()) {
            // Branch on a raw integer: v != 0 on the true edge,
            // v == 0 on the false edge.
            if (!cond->type().isPtr()) {
                facts.push_back({cond, taken_true ? CmpPred::Ne
                                                  : CmpPred::Eq,
                                 0});
            }
        } else {
            const Value *lhs = cmp->operand(0);
            const Value *rhs = cmp->operand(1);
            CmpPred pred = cmp->cmpPred;
            if (!taken_true)
                pred = ir::cmpPredInverse(pred);
            if (rhs->isConstant()) {
                facts.push_back(
                    {lhs, pred,
                     static_cast<const Constant *>(rhs)->value()});
            } else if (lhs->isConstant()) {
                facts.push_back(
                    {rhs, ir::cmpPredSwapped(pred),
                     static_cast<const Constant *>(lhs)->value()});
            }
        }

        // R8: (x << y) != 0 implies x != 0 (if x were 0, the shift
        // would be 0 at any amount). Applies to facts from both raw
        // integer branches and comparisons.
        if (config_->shiftNonzeroRelation) {
            for (size_t i = facts.size(); i-- > 0;) {
                const Fact &fact = facts[i];
                if (fact.pred != CmpPred::Ne || fact.bound != 0)
                    continue;
                if (!fact.subject->isInstruction())
                    continue;
                const auto *shift =
                    static_cast<const Instr *>(fact.subject);
                if (shift->opcode() == Opcode::Bin &&
                    shift->binOp == ir::BinOp::Shl) {
                    facts.push_back(
                        {shift->operand(0), CmpPred::Ne, 0});
                }
            }
        }
        return facts;
    }

    /** Try to decide cmp(subject pred bound) from active facts. */
    std::optional<bool>
    decideCmp(const Instr &cmp, const std::vector<Fact> &facts) const
    {
        if (cmp.operand(0)->type().isPtr())
            return std::nullopt;
        const Value *subject;
        CmpPred pred = cmp.cmpPred;
        int64_t bound;
        if (cmp.operand(1)->isConstant()) {
            subject = cmp.operand(0);
            bound =
                static_cast<const Constant *>(cmp.operand(1))->value();
        } else if (cmp.operand(0)->isConstant()) {
            subject = cmp.operand(1);
            pred = ir::cmpPredSwapped(pred);
            bound =
                static_cast<const Constant *>(cmp.operand(0))->value();
        } else {
            return std::nullopt;
        }

        for (const Fact &fact : facts) {
            if (fact.subject != subject)
                continue;
            // Equality facts decide everything.
            if (fact.pred == CmpPred::Eq) {
                int64_t v = fact.bound;
                switch (pred) {
                  case CmpPred::Eq: return v == bound;
                  case CmpPred::Ne: return v != bound;
                  case CmpPred::Slt: return v < bound;
                  case CmpPred::Sle: return v <= bound;
                  case CmpPred::Sgt: return v > bound;
                  case CmpPred::Sge: return v >= bound;
                  case CmpPred::Ult:
                    return static_cast<uint64_t>(v) <
                           static_cast<uint64_t>(bound);
                  case CmpPred::Ule:
                    return static_cast<uint64_t>(v) <=
                           static_cast<uint64_t>(bound);
                  case CmpPred::Ugt:
                    return static_cast<uint64_t>(v) >
                           static_cast<uint64_t>(bound);
                  case CmpPred::Uge:
                    return static_cast<uint64_t>(v) >=
                           static_cast<uint64_t>(bound);
                }
            }
            // Nonzero facts decide zero comparisons.
            if (fact.pred == CmpPred::Ne && fact.bound == 0 &&
                bound == 0) {
                if (pred == CmpPred::Eq)
                    return false;
                if (pred == CmpPred::Ne)
                    return true;
            }
            // Matching inequality facts decide identical predicates.
            if (fact.pred == pred && fact.bound == bound)
                return true;
            if (fact.pred == ir::cmpPredInverse(pred) &&
                fact.bound == bound) {
                return false;
            }
        }
        return std::nullopt;
    }

    bool
    runOnFunction(Function &fn, const ir::DominatorTree &domtree,
                  const ir::PredecessorMap &preds)
    {
        bool changed = false;
        struct Frame {
            BasicBlock *block;
            size_t fact_count; ///< facts_ size to restore on exit
            bool entering;
        };
        std::vector<Frame> stack{{fn.entry(), 0, true}};
        while (!stack.empty()) {
            Frame frame = stack.back();
            stack.pop_back();
            if (!frame.entering) {
                facts_.resize(frame.fact_count);
                continue;
            }
            size_t saved = facts_.size();
            stack.push_back({frame.block, saved, false});

            // Facts from the dominating edge: the block's single CFG
            // predecessor branching here conditionally.
            BasicBlock *block = frame.block;
            const auto &block_preds = preds.at(block);
            if (block_preds.size() == 1) {
                BasicBlock *pred = block_preds[0];
                Instr *term = pred->terminator();
                if (term && term->opcode() == Opcode::CondBr &&
                    term->blockOperands()[0] !=
                        term->blockOperands()[1]) {
                    bool taken_true = term->blockOperands()[0] == block;
                    for (Fact fact : edgeFacts(*term, taken_true))
                        facts_.push_back(fact);
                }
            }

            changed |= applyFacts(*block);

            for (BasicBlock *child : domtree.children(block))
                stack.push_back({child, 0, true});
        }
        facts_.clear();
        return changed;
    }

    bool
    applyFacts(BasicBlock &block)
    {
        bool changed = false;
        for (size_t i = 0; i < block.size();) {
            Instr *instr = block.instrs()[i].get();
            // Decide comparisons.
            if (instr->opcode() == Opcode::Cmp) {
                if (std::optional<bool> decided =
                        decideCmp(*instr, facts_)) {
                    instr->replaceAllUsesWith(module_->constant(
                        IrType::i32(), *decided ? 1 : 0));
                    block.erase(instr);
                    changed = true;
                    continue;
                }
            }
            // Substitute known-equal constants into operands.
            if (instr->opcode() != Opcode::Phi) {
                bool is_rem = instr->opcode() == Opcode::Bin &&
                              instr->binOp == ir::BinOp::Rem;
                if (!is_rem || config_->vrpFoldsRem) {
                    for (size_t op = 0; op < instr->numOperands();
                         ++op) {
                        Value *operand = instr->operand(op);
                        if (operand->isConstant() ||
                            operand->type().isPtr()) {
                            continue;
                        }
                        for (const Fact &fact : facts_) {
                            if (fact.subject == operand &&
                                fact.pred == CmpPred::Eq) {
                                instr->setOperand(
                                    op, module_->constant(
                                            operand->type(),
                                            fact.bound));
                                changed = true;
                                break;
                            }
                        }
                    }
                }
            }
            ++i;
        }
        return changed;
    }

    const PassConfig *config_ = nullptr;
    Module *module_ = nullptr;
    std::vector<Fact> facts_;
};

} // namespace

std::unique_ptr<Pass>
createVrpPass()
{
    return std::make_unique<Vrp>();
}

} // namespace dce::opt
