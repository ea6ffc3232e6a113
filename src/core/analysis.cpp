#include "core/analysis.hpp"

#include <vector>

#include "compiler/compilation.hpp"
#include "ir/lowering.hpp"

namespace dce::core {

using instrument::Instrumented;
using instrument::markerIndex;

std::set<unsigned>
aliveMarkers(const lang::TranslationUnit &unit,
             const compiler::Compiler &comp)
{
    return comp.compile(unit).survivingMarkers();
}

std::set<unsigned>
aliveMarkers(const ir::Module &lowered, const compiler::Compiler &comp,
             compiler::BuildObservers observers)
{
    return comp.compileLowered(lowered, /*verify_each=*/false, observers)
        .survivingMarkers();
}

GroundTruth
groundTruthFor(const ir::Module &lowered, unsigned marker_count)
{
    GroundTruth truth;
    interp::ExecLimits limits;
    limits.recordBlocks = true;
    interp::ExecResult result = interp::execute(lowered, "main", limits);
    truth.status = result.status;
    if (!result.ok())
        return truth; // timeout/trap: unusable for ground truth
    truth.valid = true;
    truth.executedBlocks = std::move(result.executedBlocks);
    for (const std::string &name : result.calledExternals) {
        if (auto index = markerIndex(name))
            truth.aliveMarkers.insert(*index);
    }
    for (unsigned m = 0; m < marker_count; ++m) {
        if (!truth.aliveMarkers.count(m))
            truth.deadMarkers.insert(m);
    }
    return truth;
}

GroundTruth
groundTruth(const Instrumented &prog)
{
    auto module = ir::lowerToIr(*prog.unit);
    return groundTruthFor(*module, prog.markerCount());
}

//===------------------------------------------------------------------===//
// Primary missed-block analysis (§3.2)
//===------------------------------------------------------------------===//

PrimaryAnalysis::PrimaryAnalysis(const ir::Module &lowered)
    : PrimaryAnalysis(lowered, groundTruthFor(lowered, 0))
{
}

PrimaryAnalysis::PrimaryAnalysis(const ir::Module &lowered,
                                 const GroundTruth &truth)
    : valid_(truth.valid), executedBlocks_(truth.executedBlocks)
{
    // Interprocedural CFG view over the O0 module: per-block
    // predecessor lists, where a function entry's predecessors are all
    // blocks containing calls to it.
    for (const auto &fn : lowered.functions()) {
        for (const auto &block : fn->blocks()) {
            preds_[block.get()]; // materialize every node
            for (ir::BasicBlock *succ : block->successors())
                preds_[succ].push_back(block.get());
            for (const auto &instr : block->instrs()) {
                if (instr->opcode() != ir::Opcode::Call)
                    continue;
                const ir::Function *callee = instr->callee;
                if (callee->isDeclaration()) {
                    if (auto index = markerIndex(callee->name())) {
                        markerBlock_[*index] = block.get();
                        blockMarkers_[block.get()].push_back(*index);
                    }
                    continue;
                }
                // Call edge: the calling block reaches the callee's
                // entry.
                preds_[callee->entry()].push_back(block.get());
            }
        }
    }
}

std::set<unsigned>
PrimaryAnalysis::primary(const std::set<unsigned> &missed) const
{
    if (missed.empty())
        return {};
    if (!valid_)
        return missed; // no block truth: be safe, keep everything

    auto block_state = [&](const ir::BasicBlock *block)
        -> std::pair<bool, bool> {
        // (contains_missed_dead_marker, contains_any_marker).
        bool has_missed = false;
        auto it = blockMarkers_.find(block);
        if (it != blockMarkers_.end()) {
            for (unsigned m : it->second)
                has_missed |= missed.count(m) != 0;
        }
        return {has_missed, it != blockMarkers_.end()};
    };

    std::set<unsigned> primary;
    for (unsigned marker : missed) {
        auto block_it = markerBlock_.find(marker);
        if (block_it == markerBlock_.end())
            continue; // marker vanished at lowering (front-end DCE)
        const ir::BasicBlock *origin = block_it->second;

        // Backwards reachability from the marker's block through dead
        // territory. Hitting an executed (live) block ends that path
        // per the Definition (live predecessors are fine); hitting a
        // block with a *detected* dead marker also ends it; hitting a
        // block with another *missed* dead marker makes `marker`
        // secondary.
        bool secondary = false;
        auto origin_preds = preds_.find(origin);
        std::vector<const ir::BasicBlock *> worklist;
        if (origin_preds != preds_.end()) {
            worklist.assign(origin_preds->second.begin(),
                            origin_preds->second.end());
        }
        std::unordered_set<const ir::BasicBlock *> visited{origin};
        while (!worklist.empty() && !secondary) {
            const ir::BasicBlock *block = worklist.back();
            worklist.pop_back();
            if (!visited.insert(block).second)
                continue;
            if (executedBlocks_.count(block))
                continue; // live predecessor: fine
            auto [has_missed, has_any_marker] = block_state(block);
            if (has_missed) {
                secondary = true;
                break;
            }
            if (has_any_marker)
                continue; // detected dead marker: root cause resolved
            // Dead, markerless: keep walking up.
            auto it = preds_.find(block);
            if (it != preds_.end()) {
                for (const ir::BasicBlock *pred : it->second)
                    worklist.push_back(pred);
            }
        }
        if (!secondary)
            primary.insert(marker);
    }
    return primary;
}

std::set<unsigned>
primaryMissedMarkers(const ir::Module &lowered,
                     const std::set<unsigned> &missed,
                     const GroundTruth &truth)
{
    if (missed.empty() || !truth.valid)
        return {};
    return PrimaryAnalysis(lowered).primary(missed);
}

std::set<unsigned>
primaryMissedMarkers(const Instrumented &prog,
                     const std::set<unsigned> &missed,
                     const GroundTruth &truth)
{
    if (missed.empty() || !truth.valid)
        return {};
    auto module = ir::lowerToIr(*prog.unit);
    return primaryMissedMarkers(*module, missed, truth);
}

} // namespace dce::core
