#include "ir/dominators.hpp"

#include <cassert>

#include "ir/cfg.hpp"
#include "support/trace.hpp"

namespace dce::ir {

DominatorTree::DominatorTree(const Function &fn, const PredecessorMap &preds)
{
    support::TraceSpan span("domtree", "analysis");
    idomOf_.assign(fn.numBlocks(), nullptr);
    rpoIndexOf_.assign(fn.numBlocks(), kUnreachable);
    childStart_.assign(fn.numBlocks() + 1, 0);
    if (fn.isDeclaration())
        return;
    rpo_ = reversePostorder(fn);
    for (size_t i = 0; i < rpo_.size(); ++i)
        rpoIndexOf_[rpo_[i]->indexInFn()] = static_cast<uint32_t>(i);

    // Cooper-Harvey-Kennedy: iterate to a fixed point over RPO.
    const BasicBlock *entry = fn.entry();
    idomOf_[entry->indexInFn()] = entry; // self until the final fix-up

    auto rpo_index = [this](const BasicBlock *block) {
        return rpoIndexOf_[block->indexInFn()];
    };
    auto intersect = [&](const BasicBlock *a,
                         const BasicBlock *b) -> const BasicBlock * {
        while (a != b) {
            while (rpo_index(a) > rpo_index(b))
                a = idomOf_[a->indexInFn()];
            while (rpo_index(b) > rpo_index(a))
                b = idomOf_[b->indexInFn()];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (BasicBlock *block : rpo_) {
            if (block == entry)
                continue;
            const BasicBlock *new_idom = nullptr;
            for (BasicBlock *pred : preds.at(block)) {
                if (rpo_index(pred) == kUnreachable ||
                    !idomOf_[pred->indexInFn()])
                    continue; // unreachable or not yet processed
                if (!new_idom)
                    new_idom = pred;
                else
                    new_idom = intersect(new_idom, pred);
            }
            assert(new_idom && "reachable block without processed pred");
            const BasicBlock *&slot = idomOf_[block->indexInFn()];
            if (slot != new_idom) {
                slot = new_idom;
                changed = true;
            }
        }
    }
    idomOf_[entry->indexInFn()] = nullptr;

    // Children lists, bucketed by parent in one flat array.
    for (BasicBlock *block : rpo_) {
        if (const BasicBlock *parent = idom(block))
            ++childStart_[parent->indexInFn() + 1];
    }
    for (size_t i = 1; i < childStart_.size(); ++i)
        childStart_[i] += childStart_[i - 1];
    childList_.resize(childStart_.back());
    std::vector<uint32_t> next(childStart_.begin(), childStart_.end() - 1);
    for (BasicBlock *block : rpo_) {
        if (const BasicBlock *parent = idom(block))
            childList_[next[parent->indexInFn()]++] = block;
    }
}

bool
DominatorTree::dominates(const BasicBlock *a, const BasicBlock *b) const
{
    if (!isReachable(a) || !isReachable(b))
        return a == b;
    uint32_t a_index = rpoIndexOf_[a->indexInFn()];
    const BasicBlock *runner = b;
    // Walk up the tree; idom RPO indexes strictly decrease.
    while (runner) {
        if (runner == a)
            return true;
        if (rpoIndexOf_[runner->indexInFn()] < a_index)
            return false;
        runner = idom(runner);
    }
    return false;
}

bool
DominatorTree::valueDominatesUse(const Instr *def, const Instr *user) const
{
    const BasicBlock *def_block = def->parent();
    const BasicBlock *use_block = user->parent();

    if (user->opcode() == Opcode::Phi) {
        // A phi use must dominate the end of the matching incoming
        // edge's predecessor.
        for (size_t i = 0; i < user->numOperands(); ++i) {
            if (user->operand(i) != def)
                continue;
            const BasicBlock *pred = user->blockOperands()[i];
            if (def_block == pred)
                continue; // defined in pred, fine
            if (!dominates(def_block, pred))
                return false;
        }
        return true;
    }

    if (def_block != use_block)
        return dominates(def_block, use_block);
    // Same block: def must come first.
    return def_block->indexOf(def) < use_block->indexOf(user);
}

} // namespace dce::ir
