/**
 * @file
 * Optimization pass framework: PassConfig (the feature flags that make
 * the two simulated compilers differ, per DESIGN.md §6), the Pass
 * interface, the PassContext (observability handles plus the shared
 * analysis cache) threaded through every pass, and the PassManager that
 * runs a pipeline (optionally verifying the IR after every pass).
 *
 * Change-driven pipeline (DESIGN.md §18): the PassManager skips a pass
 * that provably cannot change the module — one whose last run, with
 * the same key (name plus flavour), changed nothing and nothing has
 * changed since. Passes must therefore report changes honestly and be
 * deterministic functions of (module, config).
 *
 * Observability (DESIGN.md §9): a PassManager can carry a
 * RemarkCollector and a MetricsRegistry. When a collector is attached
 * the manager takes a census of live `DCEMarkerN` calls before the
 * pipeline and after every pass; a marker whose call count transitions
 * >0 → 0 during pass P gets exactly one authoritative
 * `MarkerEliminated` remark naming P. Passes additionally emit detail
 * remarks from their mechanical deletion/proof sites through the
 * PassContext. With neither attached the pipeline runs the same hot
 * path as before — no census walks, no span bookkeeping beyond a
 * disabled-tracer check.
 */
#pragma once

#include <memory>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "ir/ir.hpp"
#include "opt/analysis_cache.hpp"
#include "support/metrics.hpp"
#include "support/remarks.hpp"

namespace dce::opt {

/**
 * Feature flags and thresholds that parameterize the pass library.
 * Every flag models a documented capability difference or regression of
 * GCC/LLVM from the paper (the Dn/Rn ids reference DESIGN.md section 6).
 * Defaults are the "strongest correct" settings; compiler definitions
 * in src/compiler weaken/regress them per compiler and commit.
 */
struct PassConfig {
    // --- Global value analysis (globalopt) ----------------------------
    /** D1: fold loads of internal globals that are never stored to.
     * This is the baseline every compiler has. */
    bool foldNeverStoredGlobals = true;
    /** D4: additionally fold loads when every store to the global
     * stores a value equal to its initializer (LLVM globalopt's
     * "stored once same value"). */
    bool foldStoredEqualsInitGlobals = true;
    /** R7 (when true): full flow-sensitive load-before-store analysis
     * from main for internal globals (LLVM <= 3.7 behaviour). */
    bool flowSensitiveGlobalLoads = false;
    /** D6: fold loads with *variable* index from never-stored all-zero
     * internal arrays (Listing 9f). Constant in-bounds indexes always
     * fold when foldNeverStoredGlobals is on. */
    bool foldUniformZeroArrays = true;
    /** Localize internal scalar globals accessed by exactly one
     * function into allocas (LLVM globalopt), making them eligible for
     * mem2reg/SSA and hence loop analyses (the Listing 9e chain). */
    bool localizeGlobals = true;

    // --- Peephole / instcombine ---------------------------------------
    /** D2: fold &a == &b[k] for any constant k. When false, only k == 0
     * folds (LLVM EarlyCSE's miss, Listing 3 / PR49434). */
    bool foldPtrCmpAnyOffset = true;
    /** Fold freeze(constant) -> constant. Off models LLVM's historical
     * omission that made unswitch-inserted freezes block constant
     * folding (Listings 7/8a). */
    bool foldFreezeOfConstant = false;

    // --- Value range / correlated value propagation -------------------
    /** R8: derive X != 0 from a dominating (X << Y) != 0 fact
     * (Listing 9a / GCC PR102546). */
    bool shiftNonzeroRelation = true;
    /** D5/R2: allow equality facts to fold through rem instructions
     * (Listing 8b / LLVM PR49731). */
    bool vrpFoldsRem = true;

    // --- Redundancy elimination (EarlyCSE/GVN) -------------------------
    /** R5: use precise may-alias reasoning when forwarding loads across
     * stores. When false, any intervening pointer store clobbers
     * (Listing 9c / GCC PR100051). */
    bool preciseAliasForwarding = true;

    // --- Dead store elimination ----------------------------------------
    /** DSE within a basic block (overwritten stores). */
    bool dseIntraBlock = true;
    /** D3: remove stores to internal globals that can never be read
     * again before program exit (Listing 1's trailing `c = 0;`). */
    bool dseAtExit = true;

    // --- Jump threading -------------------------------------------------
    /** Enable jump threading over phis of constants. */
    bool jumpThreading = true;
    /** R4: thread even when the phi has incomings from blocks the
     * thread makes dead, leaving threaded copies of dead code
     * (Listing 9d / GCC PR102703). */
    bool threadThroughDeadPhis = false;

    // --- Loop transformations --------------------------------------------
    /** Unswitch loop-invariant conditions out of loops. */
    bool loopUnswitch = false;
    /** R1: aggressive unswitching inserts freeze on the hoisted
     * condition (LLVM >= 12), which blocks later constant folds when
     * foldFreezeOfConstant is off (Listings 7/8a). */
    bool unswitchInsertsFreeze = false;
    /** Fully unroll loops with constant trip count <= this (0 = off). */
    unsigned unrollMaxTripCount = 0;
    /** "Vectorizer" loop-store rewrite (loop idiom): turn constant-trip
     * loops that store an invariant value into straight-line stores. */
    bool loopStoreRewrite = false;
    /** R3: the rewrite launders the stored value through freeze,
     * modelling GCC's unsigned-long type mismatch that blocked constant
     * folding (Listing 9e / GCC PR99776). */
    bool loopRewriteInsertsFreeze = false;

    // --- Inlining and IPA -------------------------------------------------
    /** Inline internal defined callees at or below this instruction
     * count (0 = no inlining). */
    unsigned inlineThreshold = 0;
    /** Remove unreferenced internal functions and globals. */
    bool globalDce = true;
    /** R6: the inliner marks fully-inlined internal callees as
     * kept-alive (their transformed husk stays in the binary), the
     * mechanism behind GCC's uncleaned IPA-SRA clone (Listing 9b /
     * PR100034). */
    bool keepInlinedHusks = false;

    // --- Generic scalar passes ---------------------------------------------
    bool mem2reg = true;
    bool sccp = true;
    bool earlyCse = true;
    bool instCombine = true;
    bool simplifyCfg = true;
    bool instructionDce = true;
};

/**
 * Per-run state handed to every pass: the observability handles and the
 * analysis cache. Both sinks are optional; null means "don't bother"
 * and passes must keep their hot path free of remark bookkeeping in
 * that case (check wantRemarks() before gathering evidence).
 */
struct PassContext {
    explicit PassContext(bool checking = false) : analyses(checking) {}

    support::RemarkCollector *remarks = nullptr;
    support::MetricsRegistry *metrics = nullptr;
    /// Position of the currently running pass in the pipeline.
    unsigned passIndex = 0;
    /// Dominator trees, LoopInfo, EscapeInfo and MemorySummary shared
    /// across the run; see analysis_cache.hpp for the rules.
    AnalysisCache analyses;

    bool wantRemarks() const { return remarks != nullptr; }

    /** Emit a detail remark attributed to @p pass_name at the current
     * pipeline position. No-op when no collector is attached. */
    void remark(support::RemarkKind kind, std::string pass_name,
                unsigned marker, std::string message) const
    {
        if (remarks) {
            remarks->emit(kind, std::move(pass_name), passIndex,
                          marker, std::move(message));
        }
    }
};

/** A transformation over a whole module. */
class Pass {
  public:
    virtual ~Pass() = default;

    virtual std::string name() const = 0;
    /** Distinguishes instances of one pass that behave differently
     * under the same config (dse with and without exit DSE). Name plus
     * flavour is the key the PassManager's skip rule tracks. */
    virtual std::string flavour() const { return {}; }
    /** @return true if the module was changed. Must be true whenever
     * anything in the module changed, and the run must be a
     * deterministic function of (module, config). */
    virtual bool run(ir::Module &module, const PassConfig &config,
                     PassContext &ctx) = 0;
};

/**
 * ir::removeUnreachableBlocks for passes: with a remark collector
 * attached, every marker call in a doomed block first gets a
 * MarkerCallRemoved detail remark naming @p pass_name and @p why.
 * @return number of blocks removed.
 */
unsigned removeUnreachableBlocks(ir::Function &fn,
                                 const std::string &pass_name,
                                 const PassContext &ctx, const char *why);

/** True when a GlobalDCE pass erases @p fn once nothing calls it: an
 * internal, defined function that is not `main` and not kept alive by
 * the inliner (noDce). */
bool erasableWhenUncalled(const ir::Function &fn);

/**
 * The early-exit rule (DESIGN.md §21): true when no call to @p callee
 * can survive the rest of a pipeline. Either no call is left, or
 * @p globaldce_ahead holds and every remaining call sits in a function
 * that nothing calls and that the GlobalDCE still ahead must erase
 * (erasableWhenUncalled). A function that calls itself has a call
 * site, so it never counts as doomed here (nor is it erased).
 */
bool callsDoomed(const ir::Module &module, const ir::Function *callee,
                 bool globaldce_ahead);

/** Runs a pass sequence, skipping passes that cannot change the
 * module; optionally verifies after every pass. */
class PassManager {
  public:
    explicit PassManager(PassConfig config) : config_(std::move(config)) {}

    void add(std::unique_ptr<Pass> pass);

    const PassConfig &config() const { return config_; }

    /** Attach an optimization-remark sink (null to detach). Enables
     * the per-pass marker census; see the file comment. */
    void setRemarks(support::RemarkCollector *remarks)
    {
        remarks_ = remarks;
    }

    /** Attach a metrics registry (null to detach). Enables per-pass
     * IR-instruction delta counters `pass.instrs_{removed,added}`. */
    void setMetrics(support::MetricsRegistry *metrics)
    {
        metrics_ = metrics;
    }

    /**
     * Run the passes in order. A pass is skipped when the last pass
     * with its key returned false without a remark and no pass has
     * changed the module since.
     *
     * When @p verify_each is true (tests) the run is in checking mode:
     * the IR is verified after each pass; every analysis-cache hit is
     * recomputed and compared; a pass that returns false must leave
     * the printed module and the value-id counter unchanged; every pass
     * that would have been skipped runs anyway and must report no
     * change, change nothing and emit no remark. The first failure
     * stops the run with the offending pass named in `lastError`.
     * Checking mode also checks the early-exit rule: after every pass
     * that changed the module it applies callsDoomed to every marker,
     * and a marker declared doomed that still has a call at the end
     * fails the run, naming the pass after which it was declared.
     *
     * @param watched optional callee whose survival is the only
     *        question asked (a marker declaration of @p module).
     *        Outside checking mode the run returns as soon as
     *        callsDoomed holds for it — before the first pass or
     *        after a pass that changed the module — and stoppedEarly()
     *        says so. The module is then only partly optimized, and
     *        attached sinks see only the passes that ran.
     * @return true if any pass changed the module.
     */
    bool run(ir::Module &module, bool verify_each = false,
             const ir::Function *watched = nullptr);

    /** Non-empty when a verification failure was detected. */
    const std::string &lastError() const { return lastError_; }

    /** True when the last run returned early because every call to
     * its watched callee was doomed. */
    bool stoppedEarly() const { return stoppedEarly_; }

  private:
    PassConfig config_;
    std::vector<std::unique_ptr<Pass>> passes_;
    /// Per pass, a dense index of its key (name + flavour).
    std::vector<unsigned> keyOf_;
    std::vector<std::pair<std::type_index, std::string>> keys_;
    /// One past the index of the last globaldce pass (0 = none).
    size_t globalDceEnd_ = 0;
    std::string lastError_;
    bool stoppedEarly_ = false;
    support::RemarkCollector *remarks_ = nullptr;
    support::MetricsRegistry *metrics_ = nullptr;
};

// Factory functions, one per pass (implementations in their own files).
std::unique_ptr<Pass> createMem2RegPass();
std::unique_ptr<Pass> createSimplifyCfgPass();
std::unique_ptr<Pass> createInstCombinePass();
std::unique_ptr<Pass> createSccpPass();
std::unique_ptr<Pass> createGlobalOptPass();
std::unique_ptr<Pass> createEarlyCsePass();
std::unique_ptr<Pass> createDcePass();
/** @param allow_exit_dse permit the exit-DSE flavour (D3). Pipelines
 * pass false for the in-loop scalar rounds and true only for the final
 * cleanup, after the last globalopt — deleting an exit store earlier
 * would turn stored globals into never-stored ones and erase the
 * flow-sensitivity differences under study. */
std::unique_ptr<Pass> createDsePass(bool allow_exit_dse = true);
std::unique_ptr<Pass> createInlinePass();
std::unique_ptr<Pass> createGlobalDcePass();
std::unique_ptr<Pass> createJumpThreadingPass();
std::unique_ptr<Pass> createVrpPass();
std::unique_ptr<Pass> createLoopUnswitchPass();
std::unique_ptr<Pass> createLoopUnrollPass();
std::unique_ptr<Pass> createLoopStoreRewritePass();

} // namespace dce::opt
