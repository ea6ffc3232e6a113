/**
 * @file
 * The paper's core machinery (§3): marker liveness per compiler build,
 * execution-derived ground truth, missed-marker differentials, and the
 * primary-missed-block analysis (§3.2).
 *
 * Terminology matches the paper:
 *  - Comp(M) = alive  <=>  `call DCEMarkerM` appears in Comp's assembly;
 *  - a marker is *truly dead* iff it never executes (the programs are
 *    deterministic and input-free, so one run decides);
 *  - Comp *misses* M iff Comp(M) = alive but M is truly dead;
 *  - a missed M is *primary* iff no CFG-predecessor block of M's block
 *    is itself missed-dead (Definition, §3.2).
 */
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "compiler/compiler.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"

namespace dce::core {

/**
 * Compile the instrumented unit with @p comp and return the alive
 * marker set Comp(M) — step (2)+(3) of Figure 1 for one build.
 */
std::set<unsigned> aliveMarkers(const lang::TranslationUnit &unit,
                                const compiler::Compiler &comp);

/**
 * Same, but from an already-lowered O0 module (not modified): the
 * build's pipeline runs over an ir::cloneModule copy. Lower once with
 * ir::lowerToIr, then call this once per build — the campaign engine's
 * lowering cache in miniature.
 *
 * Survival is read from the optimized IR, which equals grepping the
 * emitted assembly (the paper's black-box recipe) by construction —
 * the backend emits every call of every function with a body (see
 * compiler::survivingMarkersInIr). The IrVsAsmEquivalence test keeps
 * that equality checked.
 *
 * @param observers optional remark/metric sinks for the build's
 *        pipeline run (DESIGN.md §9).
 */
std::set<unsigned>
aliveMarkers(const ir::Module &lowered, const compiler::Compiler &comp,
             compiler::BuildObservers observers = {});

/** Ground truth from execution. */
struct GroundTruth {
    bool valid = false; ///< program executed to completion
    /** Why execution failed when !valid (Ok when valid). */
    interp::ExecStatus status = interp::ExecStatus::Ok;
    std::set<unsigned> aliveMarkers; ///< executed at least once
    std::set<unsigned> deadMarkers;  ///< never executed
    /** Blocks of the executed module entered at least once — the
     * block-level truth PrimaryAnalysis needs. Pointers into that
     * module; keep it alive while using them. */
    std::unordered_set<const ir::BasicBlock *> executedBlocks;
};

GroundTruth groundTruth(const instrument::Instrumented &prog);

/** Ground truth from an already-lowered O0 module of a program with
 * @p marker_count markers: one execution, recording its blocks. */
GroundTruth groundTruthFor(const ir::Module &lowered,
                           unsigned marker_count);

/** Set helpers over markers. */
inline std::set<unsigned>
setMinus(const std::set<unsigned> &a, const std::set<unsigned> &b)
{
    std::set<unsigned> out;
    for (unsigned m : a) {
        if (!b.count(m))
            out.insert(m);
    }
    return out;
}

inline std::set<unsigned>
setIntersect(const std::set<unsigned> &a, const std::set<unsigned> &b)
{
    std::set<unsigned> out;
    for (unsigned m : a) {
        if (b.count(m))
            out.insert(m);
    }
    return out;
}

/** Markers a build failed to eliminate although they are truly dead. */
inline std::set<unsigned>
missedMarkers(const std::set<unsigned> &alive_in_asm,
              const GroundTruth &truth)
{
    return setIntersect(alive_in_asm, truth.deadMarkers);
}

/**
 * §3.2's primary-missed-block analysis, factored so its per-program
 * setup — the interprocedural CFG over the O0 lowering plus the
 * execution's block-level truth — is built once and then queried per
 * build. A missed marker is secondary when a backwards walk from its
 * block, through dead detected-or-markerless blocks, reaches another
 * missed marker's block.
 *
 * Holds pointers into @p lowered; keep the module alive while using.
 */
class PrimaryAnalysis {
  public:
    /** Reuses @p truth's executed blocks; @p truth must come from
     * groundTruthFor(@p lowered, ...). */
    PrimaryAnalysis(const ir::Module &lowered, const GroundTruth &truth);
    /** Executes @p lowered for its block truth. */
    explicit PrimaryAnalysis(const ir::Module &lowered);

    /** Block-level ground truth executed cleanly; when false,
     * primary() degrades to the identity (be safe, report all). */
    bool valid() const { return valid_; }

    /** The primary subset of @p missed (a build's dead-but-alive-in-
     * assembly markers). */
    std::set<unsigned> primary(const std::set<unsigned> &missed) const;

  private:
    bool valid_ = false;
    std::unordered_map<const ir::BasicBlock *,
                       std::vector<const ir::BasicBlock *>>
        preds_;
    std::unordered_map<unsigned, const ir::BasicBlock *> markerBlock_;
    std::unordered_map<const ir::BasicBlock *, std::vector<unsigned>>
        blockMarkers_;
    std::unordered_set<const ir::BasicBlock *> executedBlocks_;
};

/**
 * §3.2 one-shot convenience: lower @p prog at O0 and run the analysis.
 * Prefer PrimaryAnalysis (or the lowered-module overload) when
 * filtering several builds of the same program.
 *
 * @param prog     the instrumented program
 * @param missed   the build's missed (dead but alive-in-asm) markers
 * @param truth    execution ground truth (must be valid)
 */
std::set<unsigned> primaryMissedMarkers(
    const instrument::Instrumented &prog,
    const std::set<unsigned> &missed, const GroundTruth &truth);

/** Same over an existing O0 lowering of the instrumented program. */
std::set<unsigned> primaryMissedMarkers(
    const ir::Module &lowered, const std::set<unsigned> &missed,
    const GroundTruth &truth);

} // namespace dce::core
