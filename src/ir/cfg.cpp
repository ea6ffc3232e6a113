#include "ir/cfg.hpp"

#include <algorithm>

namespace dce::ir {

PredecessorMap::PredecessorMap(const Function &fn)
{
    lists_.resize(fn.numBlocks());
    for (const auto &block : fn.blocks()) {
        for (BasicBlock *succ : block->successors())
            lists_[succ->indexInFn()].push_back(block.get());
    }
}

std::vector<unsigned char>
reachableBlockFlags(const Function &fn)
{
    std::vector<unsigned char> reachable(fn.numBlocks(), 0);
    if (fn.isDeclaration())
        return reachable;
    support::SmallVector<const BasicBlock *, 32> worklist;
    worklist.push_back(fn.entry());
    reachable[fn.entry()->indexInFn()] = 1;
    while (!worklist.empty()) {
        const BasicBlock *block = worklist.back();
        worklist.pop_back();
        for (BasicBlock *succ : block->successors()) {
            unsigned char &seen = reachable[succ->indexInFn()];
            if (!seen) {
                seen = 1;
                worklist.push_back(succ);
            }
        }
    }
    return reachable;
}

std::vector<BasicBlock *>
reversePostorder(const Function &fn)
{
    std::vector<BasicBlock *> order;
    if (fn.isDeclaration())
        return order;

    // Iterative DFS to avoid stack overflow on long CFG chains. Each
    // frame walks the block's successor list in place — terminators
    // are not mutated during the walk.
    struct Frame {
        BasicBlock *block;
        const support::SmallVector<BasicBlock *, 2> *succs;
        size_t next = 0;
    };
    std::vector<unsigned char> visited(fn.numBlocks(), 0);
    std::vector<Frame> stack;
    visited[fn.entry()->indexInFn()] = 1;
    stack.push_back({fn.entry(), &fn.entry()->successors(), 0});
    while (!stack.empty()) {
        Frame &frame = stack.back();
        if (frame.next < frame.succs->size()) {
            BasicBlock *succ = (*frame.succs)[frame.next++];
            unsigned char &seen = visited[succ->indexInFn()];
            if (!seen) {
                seen = 1;
                stack.push_back({succ, &succ->successors(), 0});
            }
        } else {
            order.push_back(frame.block);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

unsigned
removeUnreachableBlocks(
    Function &fn, const std::function<void(const BasicBlock &)> &on_doomed)
{
    if (fn.isDeclaration())
        return 0;
    std::vector<unsigned char> reachable = reachableBlockFlags(fn);

    // Collect doomed blocks first; then fix phis in survivors; then
    // erase (eraseBlock drops operand uses, so cross-references among
    // doomed blocks are fine in any order).
    std::vector<BasicBlock *> doomed;
    for (const auto &block : fn.blocks()) {
        if (!reachable[block->indexInFn()])
            doomed.push_back(block.get());
    }
    if (doomed.empty())
        return 0;
    if (on_doomed) {
        for (const BasicBlock *dead : doomed)
            on_doomed(*dead);
    }

    // Phi incomings name predecessors, so only the reachable
    // successors of doomed blocks can hold entries to drop.
    for (BasicBlock *dead : doomed) {
        for (BasicBlock *succ : dead->successors()) {
            if (reachable[succ->indexInFn()])
                succ->removePhiIncomingFor(dead);
        }
    }

    // Values defined in doomed blocks may still be referenced by
    // instructions of *other* doomed blocks. Sever every doomed
    // instruction's operand links first, so that no dropOperands call
    // during block destruction touches an already-destroyed value.
    for (BasicBlock *dead : doomed) {
        for (const auto &instr : dead->instrs())
            instr->dropOperands();
    }
    for (BasicBlock *dead : doomed)
        fn.eraseBlock(dead);
    return static_cast<unsigned>(doomed.size());
}

} // namespace dce::ir
