#include "ir/loop_info.hpp"

#include <algorithm>

#include "ir/cfg.hpp"
#include "support/trace.hpp"

namespace dce::ir {

namespace {

bool
byBlockIndex(const BasicBlock *a, const BasicBlock *b)
{
    return a->indexInFn() < b->indexInFn();
}

} // namespace

bool
Loop::contains(const BasicBlock *block) const
{
    auto it = std::lower_bound(blocks.begin(), blocks.end(), block,
                               byBlockIndex);
    return it != blocks.end() && *it == block;
}

BasicBlock *
Loop::preheader(const PredecessorMap &preds) const
{
    BasicBlock *candidate = nullptr;
    for (BasicBlock *pred : preds.at(header)) {
        if (contains(pred))
            continue;
        if (candidate && candidate != pred)
            return nullptr; // multiple outside predecessors
        candidate = pred;
    }
    if (!candidate)
        return nullptr;
    if (candidate->successors().size() != 1)
        return nullptr;
    return candidate;
}

LoopInfo::LoopInfo(const Function &fn, const DominatorTree &domtree,
                   const PredecessorMap &preds)
{
    support::TraceSpan span("loopinfo", "analysis");
    if (fn.isDeclaration())
        return;

    // Find back edges: latch -> header where header dominates latch.
    // Group by header (a header can have several latches); headers are
    // visited in reverse postorder.
    std::vector<std::vector<BasicBlock *>> latches_of(fn.numBlocks());
    std::vector<BasicBlock *> headers;
    for (BasicBlock *block : domtree.rpo()) {
        for (BasicBlock *succ : block->successors()) {
            if (!domtree.dominates(succ, block))
                continue;
            auto &latches = latches_of[succ->indexInFn()];
            if (latches.empty())
                headers.push_back(succ);
            latches.push_back(block);
        }
    }
    auto rpo_less = [&](const BasicBlock *a, const BasicBlock *b) {
        return domtree.rpoIndex(a) < domtree.rpoIndex(b);
    };
    std::sort(headers.begin(), headers.end(), rpo_less);

    // Build each loop body by walking predecessors from the latches.
    // in_loop holds the 1-based number of the last loop that claimed a
    // block, so the marks never need clearing.
    std::vector<uint32_t> in_loop(fn.numBlocks(), 0);
    for (BasicBlock *header : headers) {
        const uint32_t stamp = static_cast<uint32_t>(loops_.size() + 1);
        auto loop = std::make_unique<Loop>();
        loop->header = header;
        loop->latches = latches_of[header->indexInFn()];
        loop->blocks.push_back(header);
        in_loop[header->indexInFn()] = stamp;
        std::vector<BasicBlock *> worklist(loop->latches.begin(),
                                           loop->latches.end());
        while (!worklist.empty()) {
            BasicBlock *block = worklist.back();
            worklist.pop_back();
            if (in_loop[block->indexInFn()] == stamp)
                continue;
            in_loop[block->indexInFn()] = stamp;
            loop->blocks.push_back(block);
            for (BasicBlock *pred : preds.at(block)) {
                if (domtree.isReachable(pred) &&
                    in_loop[pred->indexInFn()] != stamp)
                    worklist.push_back(pred);
            }
        }
        std::sort(loop->blocks.begin(), loop->blocks.end(), byBlockIndex);
        loops_.push_back(std::move(loop));
    }

    // Outermost (largest) first so nesting links are easy to set;
    // equal sizes keep header RPO order.
    std::sort(loops_.begin(), loops_.end(),
              [&](const auto &a, const auto &b) {
                  if (a->blocks.size() != b->blocks.size())
                      return a->blocks.size() > b->blocks.size();
                  return rpo_less(a->header, b->header);
              });

    // Nesting: the innermost loop containing a header (other than the
    // loop itself) is the parent.
    for (size_t i = 0; i < loops_.size(); ++i) {
        for (size_t j = i + 1; j < loops_.size(); ++j) {
            if (loops_[i]->contains(loops_[j]->header)) {
                // loops_ sorted by size descending, so j is nested in i;
                // keep the innermost parent (latest i that contains j).
                loops_[j]->parent = loops_[i].get();
            }
        }
    }
    for (auto &loop : loops_) {
        if (loop->parent)
            loop->parent->subloops.push_back(loop.get());
    }
}

} // namespace dce::ir
