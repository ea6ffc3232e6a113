/**
 * @file
 * Function inlining. Calls to small defined callees are replaced by a
 * clone of the callee body; the call block is split at the call site
 * and returns become branches to the continuation (with a phi merging
 * return values). Inlined allocas stay at their cloned positions —
 * mem2reg treats an alloca as a def of 0 where it executes, so
 * re-executing an inlined body in a loop keeps the exact fresh-locals
 * semantics of a real call.
 *
 * Inlining is what lets intraprocedural analyses see through the
 * paper's multi-function cases (Listings 8b, 9b, 9c).
 */
#include <vector>

#include "ir/clone.hpp"
#include "opt/pass.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::CloneMap;
using ir::Function;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class Inliner : public Pass {
  public:
    std::string name() const override { return "inline"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (config.inlineThreshold == 0)
            return false;
        bool changed = false;
        // Budget bounds pathological chains (mutual recursion keeps
        // producing new call sites).
        unsigned budget = 100;
        bool progress = true;
        while (progress && budget > 0) {
            progress = false;
            for (const auto &fn : module.functions()) {
                if (fn->isDeclaration())
                    continue;
                Instr *site = findInlinableCall(*fn, config);
                if (site) {
                    if (config.keepInlinedHusks &&
                        site->callee->isInternal() &&
                        callSiteCount(module, site->callee) == 1) {
                        // Single-call-site internal callees are the
                        // ones IPA-SRA specializes; the husk of the
                        // transformed clone stays behind (Listing 9b).
                        site->callee->setNoDce(true);
                    }
                    inlineCall(*fn, site, module);
                    ctx.analyses.invalidate(*fn);
                    changed = true;
                    progress = true;
                    --budget;
                    break; // iterators invalidated; rescan
                }
            }
        }
        return changed;
    }

  private:
    static size_t
    callSiteCount(const Module &module, const Function *callee)
    {
        size_t count = 0;
        for (const auto &fn : module.functions()) {
            for (const auto &block : fn->blocks()) {
                for (const auto &instr : block->instrs()) {
                    if (instr->opcode() == Opcode::Call &&
                        instr->callee == callee) {
                        ++count;
                    }
                }
            }
        }
        return count;
    }

    static size_t
    instructionCount(const Function &fn)
    {
        size_t count = 0;
        for (const auto &block : fn.blocks())
            count += block->size();
        return count;
    }

    Instr *
    findInlinableCall(Function &caller, const PassConfig &config)
    {
        for (const auto &block : caller.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() != Opcode::Call)
                    continue;
                Function *callee = instr->callee;
                if (callee->isDeclaration() || callee == &caller)
                    continue;
                if (instructionCount(*callee) > config.inlineThreshold)
                    continue;
                return instr.get();
            }
        }
        return nullptr;
    }

    void
    inlineCall(Function &caller, Instr *call, Module &module)
    {
        BasicBlock *call_block = call->parent();
        Function *callee = call->callee;

        // 1. Split the call block: everything after the call moves to a
        //    continuation block.
        BasicBlock *continuation =
            caller.addBlock(call_block->name() + ".cont");
        size_t call_index = call_block->indexOf(call);
        while (call_block->size() > call_index + 1) {
            ir::InstrPtr moved = call_block->detach(
                call_block->instrs()[call_index + 1].get());
            continuation->reattach(std::move(moved));
        }
        // CFG successors' phis must now name the continuation.
        for (BasicBlock *succ : continuation->successors())
            succ->replacePhiIncomingBlock(call_block, continuation);

        // 2. Clone the callee body, mapping params to arguments.
        CloneMap seed;
        for (size_t i = 0; i < callee->params().size(); ++i)
            seed.values[callee->params()[i].get()] = call->operand(i);
        std::vector<BasicBlock *> region;
        region.reserve(callee->numBlocks());
        for (const auto &block : callee->blocks())
            region.push_back(block.get());
        CloneMap map = ir::cloneRegion(region, caller, module,
                                       std::move(seed), ".i");

        // 3. Replace cloned returns with branches to the continuation,
        //    collecting returned values.
        std::vector<std::pair<Value *, BasicBlock *>> returns;
        for (BasicBlock *block : region) {
            BasicBlock *clone = map.blocks.at(block);
            Instr *term = clone->terminator();
            if (!term || term->opcode() != Opcode::Ret)
                continue;
            Value *returned =
                term->numOperands() == 1 ? term->operand(0) : nullptr;
            clone->erase(term);
            auto br = module.newInstr(Opcode::Br,
                                              IrType::voidTy());
            br->addBlockOperand(continuation);
            clone->append(std::move(br));
            returns.emplace_back(returned, clone);
        }

        // 4. Merge return values for the call's result.
        if (!call->type().isVoid() && call->hasUsers()) {
            Value *result = nullptr;
            if (returns.size() == 1) {
                result = returns[0].first;
            } else if (!returns.empty()) {
                auto phi = module.newInstr(Opcode::Phi,
                                                   call->type());
                phi->setId(module.nextValueId());
                for (auto &[value, block] : returns)
                    phi->addIncoming(value, block);
                result = continuation->insertBefore(0, std::move(phi));
            }
            if (result) {
                call->replaceAllUsesWith(result);
            } else {
                // No returning path (infinite loop in callee): the
                // continuation is unreachable; feed a dummy constant.
                call->replaceAllUsesWith(
                    module.constant(call->type(), 0));
            }
        }

        // 5. The call block now ends by entering the inlined entry.
        call_block->erase(call);
        auto enter = module.newInstr(Opcode::Br,
                                             IrType::voidTy());
        enter->addBlockOperand(map.blocks.at(callee->entry()));
        call_block->append(std::move(enter));
    }
};

} // namespace

std::unique_ptr<Pass>
createInlinePass()
{
    return std::make_unique<Inliner>();
}

} // namespace dce::opt
