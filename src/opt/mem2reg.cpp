/**
 * @file
 * mem2reg: promote scalar allocas whose address does not escape into
 * SSA values, inserting phis at iterated dominance frontiers (the
 * classic Cytron et al. construction). This is the first pass of every
 * -O1+ pipeline; everything downstream (SCCP, GVN, VRP, ...) operates
 * on the SSA form it produces.
 *
 * MiniC allocas are zero-initialized, so the "live-in at entry" value
 * of a promoted alloca is the constant 0 of its type (not undef).
 */
#include <utility>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "opt/pass.hpp"
#include "support/small_vector.hpp"

namespace dce::opt {

using ir::BasicBlock;
using ir::Constant;
using ir::Function;
using ir::Instr;
using ir::IrType;
using ir::Module;
using ir::Opcode;
using ir::Value;

namespace {

class Mem2Reg : public Pass {
  public:
    std::string name() const override { return "mem2reg"; }

    bool
    run(Module &module, const PassConfig &config,
        PassContext &ctx) override
    {
        if (!config.mem2reg)
            return false;
        ctx_ = &ctx;
        bool changed = false;
        for (const auto &fn : module.functions()) {
            if (!fn->isDeclaration())
                changed |= runOnFunction(*fn, module);
        }
        ctx_ = nullptr;
        return changed;
    }

  private:
    static bool
    isPromotable(const Instr &alloca_instr)
    {
        if (alloca_instr.allocaIsArray || alloca_instr.allocatedCount != 1)
            return false;
        for (const Instr *user : alloca_instr.users()) {
            switch (user->opcode()) {
              case Opcode::Load:
                break;
              case Opcode::Store:
                if (user->operand(0) == &alloca_instr)
                    return false; // address stored somewhere
                break;
              default:
                return false; // gep / call / cmp / phi: address taken
            }
        }
        return true;
    }

    bool
    runOnFunction(Function &fn, Module &module)
    {
        // Dropping unreachable blocks is a change even when nothing
        // gets promoted.
        const bool removed_blocks =
            removeUnreachableBlocks(fn, name(), *ctx_,
                                    "pre-promotion CFG cleanup") > 0;
        if (removed_blocks)
            ctx_->analyses.invalidate(fn);

        // Collect promotable allocas (lowering clusters them in entry,
        // but the inliner may leave them elsewhere; accept any block).
        std::vector<Instr *> allocas;
        for (const auto &block : fn.blocks()) {
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() == Opcode::Alloca &&
                    isPromotable(*instr)) {
                    allocas.push_back(instr.get());
                }
            }
        }
        if (allocas.empty())
            return removed_blocks;

        const ir::DominatorTree &domtree = ctx_->analyses.domtree(fn);
        const ir::PredecessorMap &preds = ctx_->analyses.preds(fn);
        const size_t num_blocks = fn.numBlocks();

        // Dominance frontiers (Cooper-Harvey-Kennedy), flat by block
        // index with small-list dedup.
        std::vector<support::SmallVector<BasicBlock *, 2>> frontier(
            num_blocks);
        for (BasicBlock *block : domtree.rpo()) {
            const auto &block_preds = preds.at(block);
            if (block_preds.size() < 2)
                continue;
            for (BasicBlock *pred : block_preds) {
                if (!domtree.isReachable(pred))
                    continue;
                const BasicBlock *runner = pred;
                while (runner && runner != domtree.idom(block)) {
                    auto &list = frontier[runner->indexInFn()];
                    bool seen = false;
                    for (BasicBlock *b : list)
                        seen |= b == block;
                    if (!seen)
                        list.push_back(block);
                    runner = domtree.idom(runner);
                }
            }
        }

        // Which alloca (if any) a value id names; sized before phi
        // creation, so lookups bounds-check against it.
        const unsigned id_bound = module.valueIdBound();
        std::vector<int> alloca_of_id(id_bound, -1);
        for (size_t i = 0; i < allocas.size(); ++i)
            alloca_of_id[allocas[i]->id()] = static_cast<int>(i);
        auto alloca_index = [&](const Value *value) -> int {
            if (!value->isInstruction() || value->id() >= id_bound)
                return -1;
            return alloca_of_id[value->id()];
        };

        // Phi placement at iterated dominance frontiers of defs.
        // phi_for[block][..] are the (alloca, phi) pairs merging at
        // that block.
        struct PhiSlot {
            size_t index;
            Instr *phi;
        };
        std::vector<support::SmallVector<PhiSlot, 2>> phi_for(
            num_blocks);
        std::vector<unsigned char> has_def(num_blocks);
        std::vector<unsigned char> has_phi(num_blocks);
        for (size_t i = 0; i < allocas.size(); ++i) {
            std::vector<BasicBlock *> worklist;
            has_def.assign(num_blocks, 0);
            has_phi.assign(num_blocks, 0);
            // The alloca itself defines the value 0 at its position
            // (MiniC zero-initialization): an alloca re-executed in a
            // loop resets its slot, and renaming below honours that.
            has_def[allocas[i]->parent()->indexInFn()] = 1;
            worklist.push_back(allocas[i]->parent());
            for (const Instr *user : allocas[i]->users()) {
                unsigned char &defined =
                    has_def[user->parent()->indexInFn()];
                if (user->opcode() == Opcode::Store && !defined) {
                    defined = 1;
                    worklist.push_back(user->parent());
                }
            }
            while (!worklist.empty()) {
                BasicBlock *def_block = worklist.back();
                worklist.pop_back();
                for (BasicBlock *join :
                     frontier[def_block->indexInFn()]) {
                    unsigned char &placed_here =
                        has_phi[join->indexInFn()];
                    if (placed_here)
                        continue;
                    placed_here = 1;
                    auto phi = module.newInstr(
                        Opcode::Phi, allocas[i]->allocatedType);
                    phi->setId(module.nextValueId());
                    Instr *placed = join->insertBefore(0, std::move(phi));
                    phi_for[join->indexInFn()].push_back({i, placed});
                    unsigned char &defined =
                        has_def[join->indexInFn()];
                    if (!defined) {
                        defined = 1;
                        worklist.push_back(join);
                    }
                }
            }
        }

        // Rename along the dominator tree.
        std::vector<Instr *> to_erase;
        std::vector<Value *> initial(allocas.size());
        for (size_t i = 0; i < allocas.size(); ++i) {
            IrType type = allocas[i]->allocatedType;
            initial[i] =
                type.isPtr()
                    ? static_cast<Value *>(module.constant(type, 0))
                    : module.constant(type, 0);
        }

        struct Frame {
            BasicBlock *block;
            std::vector<Value *> values;
        };
        std::vector<Frame> stack;
        stack.push_back({fn.entry(), initial});

        while (!stack.empty()) {
            Frame frame = std::move(stack.back());
            stack.pop_back();
            BasicBlock *block = frame.block;
            std::vector<Value *> &values = frame.values;

            for (auto &[index, phi] : phi_for[block->indexInFn()])
                values[index] = phi;

            for (const auto &owned : block->instrs()) {
                Instr *instr = owned.get();
                if (instr->opcode() == Opcode::Alloca) {
                    int index = alloca_index(instr);
                    if (index >= 0)
                        values[index] = initial[index];
                } else if (instr->opcode() == Opcode::Load) {
                    int index = alloca_index(instr->operand(0));
                    if (index >= 0) {
                        instr->replaceAllUsesWith(values[index]);
                        to_erase.push_back(instr);
                    }
                } else if (instr->opcode() == Opcode::Store) {
                    int index = alloca_index(instr->operand(1));
                    if (index >= 0) {
                        values[index] = instr->operand(0);
                        to_erase.push_back(instr);
                    }
                }
            }

            // Feed successors' phis.
            for (BasicBlock *succ : block->successors()) {
                for (auto &[index, phi] : phi_for[succ->indexInFn()])
                    phi->addIncoming(values[index], block);
            }

            for (BasicBlock *child : domtree.children(block))
                stack.push_back({child, values});
        }

        for (Instr *instr : to_erase)
            instr->parent()->erase(instr);
        for (Instr *alloca_instr : allocas)
            alloca_instr->parent()->erase(alloca_instr);

        // A CondBr with both edges to the same block makes its target's
        // phis receive the same incoming twice — consistent with the
        // predecessor multiset, so nothing special is needed here.
        return true;
    }

    PassContext *ctx_ = nullptr;
};

} // namespace

std::unique_ptr<Pass>
createMem2RegPass()
{
    return std::make_unique<Mem2Reg>();
}

} // namespace dce::opt
