/**
 * @file
 * Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.
 * Used by the SSA verifier, GVN's scoped hash table, loop detection,
 * jump threading, and the primary-missed-block analysis.
 *
 * The snapshot keys all per-block state by BasicBlock::indexInFn()
 * into flat vectors; queries are array loads, not hash lookups. Like
 * every CFG snapshot it is invalidated by CFG mutation.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/ir.hpp"

namespace dce::ir {

/** Immutable dominator-tree snapshot of one function. */
class DominatorTree {
  public:
    explicit DominatorTree(const Function &fn)
        : DominatorTree(fn, PredecessorMap(fn))
    {
    }
    /** @p preds must be @p fn's current predecessor lists. */
    DominatorTree(const Function &fn, const PredecessorMap &preds);

    /** Immediate dominator; null for entry and unreachable blocks. */
    const BasicBlock *
    idom(const BasicBlock *block) const
    {
        return idomOf_[block->indexInFn()];
    }

    /** True if @p a dominates @p b (reflexive). Unreachable blocks are
     * dominated by nothing and dominate nothing (except themselves). */
    bool dominates(const BasicBlock *a, const BasicBlock *b) const;

    /** True if instruction @p def is available at (dominates) the use
     * site (@p user, operand position irrelevant except for phis). */
    bool valueDominatesUse(const Instr *def, const Instr *user) const;

    bool isReachable(const BasicBlock *block) const
    {
        return rpoIndexOf_[block->indexInFn()] != kUnreachable;
    }

    /** Position of @p block in rpo(); ~0u when unreachable. */
    uint32_t rpoIndex(const BasicBlock *block) const
    {
        return rpoIndexOf_[block->indexInFn()];
    }

    /** Reverse postorder of reachable blocks (entry first). */
    const std::vector<BasicBlock *> &rpo() const { return rpo_; }

    /** Blocks whose immediate dominator is @p block, in reverse
     * postorder. */
    std::span<BasicBlock *const>
    children(const BasicBlock *block) const
    {
        const uint32_t index = block->indexInFn();
        return {childList_.data() + childStart_[index],
                childList_.data() + childStart_[index + 1]};
    }

    /** Same idoms and reverse postorder, block for block. */
    bool operator==(const DominatorTree &) const = default;

  private:
    static constexpr uint32_t kUnreachable = ~uint32_t{0};

    /** Immediate dominator per block index (null = entry/unreachable). */
    std::vector<const BasicBlock *> idomOf_;
    /** RPO position per block index; kUnreachable when not in rpo_. */
    std::vector<uint32_t> rpoIndexOf_;
    std::vector<BasicBlock *> rpo_;
    /** children(b) is childList_[childStart_[i], childStart_[i + 1])
     * for b's index i. */
    std::vector<uint32_t> childStart_;
    std::vector<BasicBlock *> childList_;
};

} // namespace dce::ir
