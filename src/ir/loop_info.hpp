/**
 * @file
 * Natural-loop detection from back edges. Consumed by the loop
 * optimizations (rotation, unswitching, unrolling, the vectorizer-like
 * rewrite) and by the generator's termination reasoning in tests.
 *
 * Everything here is ordered by the function's block layout, never by
 * pointer value, so passes that walk loops or loop blocks transform the
 * same module the same way whatever the heap layout.
 */
#pragma once

#include <memory>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "ir/ir.hpp"

namespace dce::ir {

/** One natural loop: header plus the set of blocks that reach the back
 * edge without leaving the header's dominance region. */
struct Loop {
    BasicBlock *header = nullptr;
    /** Blocks in the loop, header included, in function block order
     * (ascending indexInFn() at construction). */
    std::vector<BasicBlock *> blocks;
    /** Back-edge sources (latches), in reverse postorder. */
    std::vector<BasicBlock *> latches;
    /** Enclosing loop, or null for top-level loops. */
    Loop *parent = nullptr;
    std::vector<Loop *> subloops;

    /** Membership by binary search over the block-ordered list. Valid
     * while the function's existing blocks keep their positions
     * (appending new blocks is fine; erasing or moving is not). */
    bool contains(const BasicBlock *block) const;

    /** The unique pre-header predecessor (outside block whose only
     * successor is the header), or null. */
    BasicBlock *preheader(const PredecessorMap &preds) const;
};

/** All natural loops of a function, outermost (largest) first; loops of
 * equal size keep the reverse-postorder order of their headers. */
class LoopInfo {
  public:
    LoopInfo(const Function &fn, const DominatorTree &domtree)
        : LoopInfo(fn, domtree, PredecessorMap(fn))
    {
    }
    /** @p preds must be @p fn's current predecessor lists. */
    LoopInfo(const Function &fn, const DominatorTree &domtree,
             const PredecessorMap &preds);

    const std::vector<std::unique_ptr<Loop>> &loops() const
    {
        return loops_;
    }

  private:
    std::vector<std::unique_ptr<Loop>> loops_;
};

} // namespace dce::ir
