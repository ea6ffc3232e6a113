/**
 * @file
 * Full loop unrolling for counted loops. The trip count is computed by
 * simulating the induction phi with the same integer semantics the
 * interpreter uses; the loop body is then cloned once per iteration
 * with the header phis concretized, and the constant-folding passes
 * collapse the unrolled chain. Unrolling is what turns Listing 9e's
 * two-iteration pointer-store loop into straight-line stores that
 * EarlyCSE can forward.
 */
#include <optional>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "ir/loop_info.hpp"
#include "opt/pass.hpp"
#include "support/ints.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::CloneMap;
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

/** Static description of an unrollable counted loop. */
struct CountedLoop {
    BasicBlock *preheader = nullptr;
    BasicBlock *header = nullptr;
    BasicBlock *latch = nullptr;
    BasicBlock *exit = nullptr;
    Instr *induction = nullptr;   ///< header phi driving the branch
    unsigned tripCount = 0;
    bool exitOnTrue = false;      ///< header condbr: true edge exits
};

class LoopUnroll : public Pass {
  public:
    std::string name() const override { return "loopunroll"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (config.unrollMaxTripCount == 0)
            return false;
        config_ = &config;
        module_ = &module;
        ctx_ = &ctx;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (fn->isDeclaration())
                continue;
            // Unroll loops one at a time (analyses go stale after each
            // transform) under a growth budget.
            unsigned budget = 8;
            while (budget-- > 0 && unrollOne(*fn)) {
                ctx.analyses.invalidate(*fn);
                changed = true;
            }
        }
        ctx_ = nullptr;
        return changed;
    }

  private:
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

    /** Match the unrollable shape and compute the trip count. */
    std::optional<CountedLoop>
    match(const Loop &loop, const ir::PredecessorMap &preds) const
    {
        if (!loop.subloops.empty() || loop.latches.size() != 1 ||
            loop.blocks.size() > 12) {
            return std::nullopt;
        }
        CountedLoop info;
        info.header = loop.header;
        info.latch = loop.latches[0];
        info.preheader = loop.preheader(preds);
        if (!info.preheader)
            return std::nullopt;

        // Header terminates in condbr(cmp(phi, const)) with exactly one
        // edge leaving the loop; no other block may exit.
        Instr *term = info.header->terminator();
        if (!term || term->opcode() != Opcode::CondBr)
            return std::nullopt;
        BasicBlock *true_succ = term->blockOperands()[0];
        BasicBlock *false_succ = term->blockOperands()[1];
        bool true_in = loop.contains(true_succ);
        bool false_in = loop.contains(false_succ);
        if (true_in == false_in)
            return std::nullopt;
        info.exitOnTrue = !true_in;
        info.exit = info.exitOnTrue ? true_succ : false_succ;
        for (BasicBlock *block : loop.blocks) {
            if (block == info.header)
                continue;
            for (BasicBlock *succ : block->successors()) {
                if (!loop.contains(succ))
                    return std::nullopt; // second exit
            }
        }
        // Exit block phis would need careful multi-edge handling.
        if (!info.exit->phis().empty())
            return std::nullopt;

        Value *cond = term->operand(0);
        if (!cond->isInstruction())
            return std::nullopt;
        Instr *cmp = static_cast<Instr *>(cond);
        if (cmp->opcode() != Opcode::Cmp)
            return std::nullopt;
        Instr *phi = nullptr;
        Constant *bound = nullptr;
        if (cmp->operand(0)->isInstruction() &&
            cmp->operand(1)->isConstant()) {
            phi = static_cast<Instr *>(cmp->operand(0));
            bound = static_cast<Constant *>(cmp->operand(1));
        } else {
            return std::nullopt;
        }
        if (phi->opcode() != Opcode::Phi || phi->parent() != info.header)
            return std::nullopt;
        info.induction = phi;

        // The phi: [init const from preheader], [phi +/- step const
        // from latch].
        Value *init = phi->incomingValueFor(info.preheader);
        Value *next = phi->incomingValueFor(info.latch);
        if (!init || !next || !init->isConstant() ||
            !next->isInstruction()) {
            return std::nullopt;
        }
        Instr *step_instr = static_cast<Instr *>(next);
        if (step_instr->opcode() != Opcode::Bin ||
            (step_instr->binOp != ir::BinOp::Add &&
             step_instr->binOp != ir::BinOp::Sub) ||
            step_instr->operand(0) != phi ||
            !step_instr->operand(1)->isConstant()) {
            return std::nullopt;
        }

        // No value defined inside may be used outside (the exit block
        // has no phis, so any such use would break dominance anyway —
        // check to be exact).
        for (BasicBlock *block : loop.blocks) {
            for (const auto &instr : block->instrs()) {
                for (const Instr *user : instr->users()) {
                    if (!loop.contains(user->parent()))
                        return std::nullopt;
                }
            }
        }

        // Simulate the induction variable.
        IrType type = phi->type();
        int64_t value = static_cast<Constant *>(init)->value();
        int64_t bound_value = bound->value();
        int64_t step =
            static_cast<Constant *>(step_instr->operand(1))->value();
        CmpPred pred = cmp->cmpPred;
        unsigned trips = 0;
        for (;;) {
            bool cond_true = evalPred(pred, value, bound_value);
            bool continues = info.exitOnTrue ? !cond_true : cond_true;
            if (!continues)
                break;
            ++trips;
            if (trips > config_->unrollMaxTripCount)
                return std::nullopt;
            value = step_instr->binOp == ir::BinOp::Add
                        ? addInt(value, step, type.bits, type.isSigned)
                        : subInt(value, step, type.bits, type.isSigned);
        }
        info.tripCount = trips;
        return info;
    }

    bool
    unrollOne(Function &fn)
    {
        const ir::LoopInfo &loop_info = ctx_->analyses.loopInfo(fn);
        const ir::PredecessorMap &preds = ctx_->analyses.preds(fn);
        for (const auto &loop : loop_info.loops()) {
            std::optional<CountedLoop> info = match(*loop, preds);
            if (!info)
                continue;
            applyUnroll(fn, *loop, *info);
            return true;
        }
        return false;
    }

    void
    applyUnroll(Function &fn, const Loop &loop, const CountedLoop &info)
    {
        const std::vector<BasicBlock *> &region = loop.blocks;
        std::vector<Instr *> header_phis = info.header->phis();

        // Current value of each header phi entering the next iteration.
        std::unordered_map<Instr *, Value *> current;
        for (Instr *phi : header_phis)
            current[phi] = phi->incomingValueFor(info.preheader);

        BasicBlock *entry_edge_from = info.preheader;
        BasicBlock *entry_edge_old_target = info.header;

        // tripCount body executions plus the final header evaluation
        // that exits. Each clone's header still contains the (now
        // concrete) comparison, so semantics are preserved even before
        // the folds collapse it.
        for (unsigned k = 0; k <= info.tripCount; ++k) {
            CloneMap map = ir::cloneRegion(
                region, fn, *module_, CloneMap{},
                ".u" + std::to_string(k));
            BasicBlock *cloned_header = map.blocks.at(info.header);

            // Concretize the cloned header phis.
            for (Instr *phi : header_phis) {
                Instr *clone = static_cast<Instr *>(map.values.at(phi));
                clone->replaceAllUsesWith(current.at(phi));
                cloned_header->erase(clone);
            }
            // Hook the incoming edge.
            entry_edge_from->terminator()->replaceSuccessor(
                entry_edge_old_target, cloned_header);

            // Next iteration's phi values come from this clone's latch
            // incomings.
            BasicBlock *cloned_latch = map.blocks.at(info.latch);
            std::unordered_map<Instr *, Value *> next;
            for (Instr *phi : header_phis) {
                Value *via = phi->incomingValueFor(info.latch);
                // A header phi carried into the next iteration maps to
                // its concretized value (the cloned phi was erased).
                if (via->isInstruction() &&
                    current.count(static_cast<Instr *>(via))) {
                    next[phi] = current.at(static_cast<Instr *>(via));
                    continue;
                }
                auto mapped = map.values.find(via);
                next[phi] =
                    mapped != map.values.end() ? mapped->second : via;
            }
            current = std::move(next);
            entry_edge_from = cloned_latch;
            entry_edge_old_target = cloned_header;
        }

        // The last clone's latch still targets its own header (a
        // back-edge that can never execute, because the final header
        // comparison exits); leave it for SCCP/SimplifyCFG, but the
        // *original* loop is now unreachable.
        removeUnreachableBlocks(fn, name(), *ctx_, "loop fully unrolled");
    }

    const PassConfig *config_ = nullptr;
    Module *module_ = nullptr;
    PassContext *ctx_ = nullptr;
};

} // namespace

std::unique_ptr<Pass>
createLoopUnrollPass()
{
    return std::make_unique<LoopUnroll>();
}

} // namespace dce::opt
