/**
 * @file
 * CFG utilities computed on demand: predecessor maps, reverse
 * postorder, reachability. These are throwaway snapshots — passes that
 * mutate the CFG must recompute them.
 *
 * All of them key per-block state by BasicBlock::indexInFn() into flat
 * vectors; building one is two linear walks with no hashing, which
 * matters because the cleanup passes rebuild these snapshots at every
 * fixpoint round.
 */
#pragma once

#include <functional>
#include <vector>

#include "ir/ir.hpp"
#include "support/small_vector.hpp"

namespace dce::ir {

/**
 * Predecessor lists for every block in one function, indexed by
 * BasicBlock::indexInFn(). A block appears once per incoming edge (a
 * CondBr with both edges to B contributes B twice). Invalidated by any
 * CFG mutation.
 */
class PredecessorMap {
  public:
    explicit PredecessorMap(const Function &fn);

    const support::SmallVector<BasicBlock *, 4> &
    at(const BasicBlock *block) const
    {
        return lists_[block->indexInFn()];
    }
    const support::SmallVector<BasicBlock *, 4> &
    operator[](const BasicBlock *block) const
    {
        return at(block);
    }

    bool operator==(const PredecessorMap &) const = default;

  private:
    std::vector<support::SmallVector<BasicBlock *, 4>> lists_;
};

/** Predecessor lists for every block in @p fn. */
inline PredecessorMap
predecessorMap(const Function &fn)
{
    return PredecessorMap(fn);
}

/** Per-block reachable-from-entry flags, indexed by indexInFn(). */
std::vector<unsigned char> reachableBlockFlags(const Function &fn);

/** Reverse postorder over reachable blocks, starting at entry. */
std::vector<BasicBlock *> reversePostorder(const Function &fn);

/**
 * Remove blocks unreachable from entry (updating phis in survivors).
 * This is the *mechanical* part of unreachable-code elimination that
 * every pipeline is allowed to use; making blocks unreachable in the
 * first place is what the optimizations under test compete on.
 * @p on_doomed, when set, sees each doomed block (in block order)
 * before anything is erased.
 * @return number of blocks removed.
 */
unsigned removeUnreachableBlocks(
    Function &fn,
    const std::function<void(const BasicBlock &)> &on_doomed = nullptr);

} // namespace dce::ir
