/**
 * @file
 * Analyses shared between the passes of one pipeline run (DESIGN.md
 * §18): per function the predecessor lists, dominator tree and
 * LoopInfo, per module the EscapeInfo and MemorySummary. A pass asks
 * the cache instead of constructing them; the first request builds,
 * later ones reuse.
 *
 * Invalidation follows what passes report, not a mutation epoch (the
 * IR's mutators are public, so no epoch could be complete):
 *  - the PassManager drops the module analyses after a pass that
 *    returns true;
 *  - a pass that edits a function's blocks or edges calls
 *    invalidate(fn) before anything queries the function again, and
 *    calls it before erasing a function. The CFG analyses of every
 *    other function stay valid across passes.
 *
 * In checking mode (the PassManager's verify_each) every cache hit
 * recomputes the analysis and compares it with the cached copy; the
 * first mismatch is kept in error(). The cached copy is still what the
 * caller gets, so checking never changes what a pass does.
 *
 * One cache serves one PassManager::run on one thread.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/ir.hpp"
#include "ir/loop_info.hpp"
#include "opt/alias.hpp"

namespace dce::opt {

class AnalysisCache {
  public:
    explicit AnalysisCache(bool checking = false) : checking_(checking) {}
    AnalysisCache(const AnalysisCache &) = delete;
    AnalysisCache &operator=(const AnalysisCache &) = delete;

    const ir::PredecessorMap &preds(const ir::Function &fn);
    const ir::DominatorTree &domtree(const ir::Function &fn);
    const ir::LoopInfo &loopInfo(const ir::Function &fn);
    const EscapeInfo &escapeInfo(const ir::Module &module);
    /** Builds (or reuses) the EscapeInfo it depends on. */
    const MemorySummary &memorySummary(const ir::Module &module);

    /** Drop @p fn's predecessor lists, dominator tree and LoopInfo.
     * References obtained for @p fn before the call dangle
     * afterwards. */
    void invalidate(const ir::Function &fn);

    /** Drop EscapeInfo and MemorySummary. */
    void invalidateModule();

    /** First stale analysis found in checking mode; empty if none. */
    const std::string &error() const { return error_; }

  private:
    struct FunctionAnalyses {
        const ir::Function *fn = nullptr;
        std::unique_ptr<ir::PredecessorMap> preds;
        std::unique_ptr<ir::DominatorTree> domtree;
        std::unique_ptr<ir::LoopInfo> loops;
    };

    FunctionAnalyses &entryFor(const ir::Function &fn);
    void stale(const std::string &what);

    bool checking_;
    std::string error_;
    std::vector<FunctionAnalyses> functions_;
    std::unique_ptr<EscapeInfo> escape_;
    std::unique_ptr<MemorySummary> summary_;
};

} // namespace dce::opt
