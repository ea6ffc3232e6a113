#include "opt/analysis_cache.hpp"

namespace dce::opt {

namespace {

/** Same loops in the same order: headers, blocks, latches, nesting. */
bool
sameLoops(const ir::LoopInfo &a, const ir::LoopInfo &b)
{
    if (a.loops().size() != b.loops().size())
        return false;
    auto parent_header = [](const ir::Loop &loop) {
        return loop.parent ? loop.parent->header : nullptr;
    };
    for (size_t i = 0; i < a.loops().size(); ++i) {
        const ir::Loop &x = *a.loops()[i];
        const ir::Loop &y = *b.loops()[i];
        if (x.header != y.header || x.blocks != y.blocks ||
            x.latches != y.latches ||
            parent_header(x) != parent_header(y) ||
            x.subloops.size() != y.subloops.size())
            return false;
    }
    return true;
}

} // namespace

AnalysisCache::FunctionAnalyses &
AnalysisCache::entryFor(const ir::Function &fn)
{
    for (FunctionAnalyses &entry : functions_) {
        if (entry.fn == &fn)
            return entry;
    }
    functions_.push_back({&fn, nullptr, nullptr, nullptr});
    return functions_.back();
}

void
AnalysisCache::stale(const std::string &what)
{
    if (error_.empty())
        error_ = "stale cached " + what;
}

const ir::PredecessorMap &
AnalysisCache::preds(const ir::Function &fn)
{
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.preds) {
        entry.preds = std::make_unique<ir::PredecessorMap>(fn);
    } else if (checking_ && !(ir::PredecessorMap(fn) == *entry.preds)) {
        stale("predecessor lists of '" + fn.name() + "'");
    }
    return *entry.preds;
}

const ir::DominatorTree &
AnalysisCache::domtree(const ir::Function &fn)
{
    const ir::PredecessorMap &pred_lists = preds(fn);
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.domtree) {
        entry.domtree = std::make_unique<ir::DominatorTree>(fn, pred_lists);
    } else if (checking_ && !(ir::DominatorTree(fn) == *entry.domtree)) {
        stale("dominator tree of '" + fn.name() + "'");
    }
    return *entry.domtree;
}

const ir::LoopInfo &
AnalysisCache::loopInfo(const ir::Function &fn)
{
    const ir::DominatorTree &tree = domtree(fn);
    FunctionAnalyses &entry = entryFor(fn);
    if (!entry.loops) {
        entry.loops = std::make_unique<ir::LoopInfo>(fn, tree, *entry.preds);
    } else if (checking_ &&
               !sameLoops(ir::LoopInfo(fn, ir::DominatorTree(fn)),
                          *entry.loops)) {
        stale("LoopInfo of '" + fn.name() + "'");
    }
    return *entry.loops;
}

const EscapeInfo &
AnalysisCache::escapeInfo(const ir::Module &module)
{
    if (!escape_)
        escape_ = std::make_unique<EscapeInfo>(module);
    else if (checking_ && !(EscapeInfo(module) == *escape_))
        stale("EscapeInfo");
    return *escape_;
}

const MemorySummary &
AnalysisCache::memorySummary(const ir::Module &module)
{
    const EscapeInfo &escape = escapeInfo(module);
    if (!summary_) {
        summary_ = std::make_unique<MemorySummary>(module, escape);
    } else if (checking_ &&
               !(MemorySummary(module, EscapeInfo(module)) == *summary_)) {
        stale("MemorySummary");
    }
    return *summary_;
}

void
AnalysisCache::invalidate(const ir::Function &fn)
{
    for (FunctionAnalyses &entry : functions_) {
        if (entry.fn == &fn) {
            entry.loops.reset();
            entry.domtree.reset();
            entry.preds.reset();
        }
    }
}

void
AnalysisCache::invalidateModule()
{
    summary_.reset();
    escape_.reset();
}

} // namespace dce::opt
