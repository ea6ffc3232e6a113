#include "compiler/compiler.hpp"

#include <cassert>

#include "ir/clone.hpp"
#include "ir/lowering.hpp"
#include "support/markers.hpp"
#include "support/trace.hpp"

namespace dce::compiler {

using opt::PassConfig;

const char *
compilerName(CompilerId id)
{
    return id == CompilerId::Alpha ? "alpha" : "beta";
}

const char *
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::O0: return "O0";
      case OptLevel::O1: return "O1";
      case OptLevel::Os: return "Os";
      case OptLevel::O2: return "O2";
      case OptLevel::O3: return "O3";
    }
    return "?";
}

const std::vector<OptLevel> &
allOptLevels()
{
    static const std::vector<OptLevel> levels = {
        OptLevel::O0, OptLevel::O1, OptLevel::Os, OptLevel::O2,
        OptLevel::O3};
    return levels;
}

//===------------------------------------------------------------------===//
// Compiler specs: capabilities and commit histories
//===------------------------------------------------------------------===//

CompilerSpec::CompilerSpec(CompilerId id)
    : id_(id), name_(compilerName(id))
{
    auto noop = [](PassConfig &, OptLevel) {};

    if (id == CompilerId::Alpha) {
        // alpha ~ GCC. Flow-insensitive global value analysis (D1),
        // pointer compares fold at any offset (D2 strength), no exit
        // DSE (D3), no uniform-zero-array folding (D6 miss), no
        // shift-nonzero relation pre-fix (R8).
        history_.push_back(
            {"9f21ab04e31", "Initial import", "Build System", {},
             false,
             [](PassConfig &cfg, OptLevel) {
                 cfg.foldStoredEqualsInitGlobals = false;
                 cfg.flowSensitiveGlobalLoads = false;
                 cfg.foldUniformZeroArrays = false;
                 cfg.foldPtrCmpAnyOffset = true;
                 cfg.dseAtExit = false;
                 cfg.shiftNonzeroRelation = false;
                 cfg.inlineThreshold = 30;
                 cfg.unrollMaxTripCount = 8;
             }});
        history_.push_back(
            {"1c44d92ab07",
             "ipa: raise the -O2/-O3 inline growth limits", "Inlining",
             {"gcc/ipa-inline.c", "gcc/params.opt"}, false,
             [](PassConfig &cfg, OptLevel level) {
                 if (level == OptLevel::O2 || level == OptLevel::O3)
                     cfg.inlineThreshold = 45;
             }});
        history_.push_back(
            {"7e80fa0c662",
             "tree-ssa-sccvn: cache value numbers across iterations",
             "Value Numbering",
             {"gcc/tree-ssa-sccvn.c", "gcc/tree-ssa-pre.c"}, false,
             noop});
        history_.push_back(
            {"d44ab3a6f19",
             "alias: rework oracle caching for partial overlaps",
             "Alias Analysis", {"gcc/tree-ssa-alias.c"}, true,
             [](PassConfig &cfg, OptLevel level) {
                 // R5: lost base-object precision at -O3 (Listing 9c).
                 if (level == OptLevel::O3)
                     cfg.preciseAliasForwarding = false;
             }});
        history_.push_back(
            {"b7a3310f254",
             "vect: vectorize constant-step pointer stores at -O3",
             "Loop Transformations",
             {"gcc/tree-vect-stmts.c", "gcc/tree-vect-loop.c"}, true,
             [](PassConfig &cfg, OptLevel level) {
                 // R3: vectorized pointer data goes through unsigned
                 // long, blocking later folds (Listing 9e).
                 if (level == OptLevel::O3) {
                     cfg.loopStoreRewrite = true;
                     cfg.loopRewriteInsertsFreeze = true;
                 }
             }});
        history_.push_back(
            {"02e9c73aa80",
             "gimple-fold: fold memcmp of small constant buffers",
             "Peephole Optimizations", {"gcc/gimple-fold.c"}, false,
             noop});
        history_.push_back(
            {"e5cc0481a3b",
             "ipa-sra: create parameter-pruned specialized clones",
             "Interprocedural SRoA", {"gcc/ipa-sra.c"}, true,
             [](PassConfig &cfg, OptLevel level) {
                 // R6: transformed copies of inlined statics stay in
                 // the binary (Listing 9b).
                 if (level == OptLevel::O3)
                     cfg.keepInlinedHusks = true;
             }});
        history_.push_back(
            {"44ba20ee1ac",
             "threader: replace the forward threader with the "
             "backwards threader",
             "Jump Threading",
             {"gcc/tree-ssa-threadbackward.c",
              "gcc/tree-ssa-threadupdate.c",
              "gcc/tree-ssa-threadedge.c"},
             true,
             [](PassConfig &cfg, OptLevel level) {
                 // R4: threads through dead code, leaving opaque
                 // residual conditions (Listing 9d).
                 if (level == OptLevel::O3)
                     cfg.threadThroughDeadPhis = true;
             }});
        history_.push_back(
            {"a81f5c30d97",
             "cfg: compact block layout before expansion",
             "Control Flow Graph Analysis", {"gcc/cfgcleanup.c",
                                             "gcc/cfglayout.c"},
             false, noop});
        headIndex_ = history_.size() - 1;
        // Fix commits landed in response to reported bugs (Table 5).
        history_.push_back(
            {"5f9ccf17de7",
             "match.pd: derive X != 0 from (X << Y) != 0",
             "Value Propagation", {"gcc/match.pd"}, false,
             [](PassConfig &cfg, OptLevel) {
                 cfg.shiftNonzeroRelation = true; // fixes Listing 9a
             }});
        history_.push_back(
            {"d1d01a66012",
             "alias: restore precision for distinct base objects",
             "Alias Analysis", {"gcc/tree-ssa-alias.c"}, false,
             [](PassConfig &cfg, OptLevel) {
                 cfg.preciseAliasForwarding = true; // fixes Listing 9c
             }});
        history_.push_back(
            {"113860301f4",
             "threader: clean leftover phis before threading",
             "Jump Threading", {"gcc/tree-ssa-threadbackward.c"},
             false,
             [](PassConfig &cfg, OptLevel) {
                 cfg.threadThroughDeadPhis = false; // fixes Listing 9d
             }});
        history_.push_back(
            {"7d6bb80931b",
             "vect: keep pointer types for vectorized pointer data",
             "Loop Transformations", {"gcc/tree-vect-stmts.c"}, false,
             [](PassConfig &cfg, OptLevel) {
                 cfg.loopRewriteInsertsFreeze = false; // fixes 9e
             }});
        return;
    }

    // beta ~ LLVM. Flow-sensitive global loads in its early history
    // (pre-R7), stored-equals-init afterwards (D4), exit DSE (D3),
    // shift-nonzero relation (R8 present), uniform-zero arrays (D6),
    // but pointer compares fold only at offset 0 (D2 miss).
    history_.push_back(
        {"3a90bb71c5e", "Initial import", "Build System", {}, false,
         [](PassConfig &cfg, OptLevel) {
             cfg.foldStoredEqualsInitGlobals = false;
             cfg.flowSensitiveGlobalLoads = true; // LLVM <= 3.7
             cfg.foldUniformZeroArrays = false;
             cfg.foldPtrCmpAnyOffset = false; // D2: EarlyCSE miss
             cfg.dseAtExit = true;
             cfg.shiftNonzeroRelation = true;
             cfg.inlineThreshold = 50;
             cfg.unrollMaxTripCount = 10;
         }});
    history_.push_back(
        {"8d1f4e2ba93",
         "GlobalOpt: fold variable-index loads of all-zero constants",
         "Instruction Operand Folding",
         {"llvm/lib/Transforms/IPO/GlobalOpt.cpp"}, false,
         [](PassConfig &cfg, OptLevel) {
             cfg.foldUniformZeroArrays = true;
         }});
    history_.push_back(
        {"65c02df91e4",
         "GlobalOpt: replace flow-sensitive initializer propagation "
         "with the stored-value heuristic",
         "Value Propagation",
         {"llvm/lib/Transforms/IPO/GlobalOpt.cpp"}, true,
         [](PassConfig &cfg, OptLevel) {
             // R7: the Listing 6a regression (LLVM 3.7 -> 3.8).
             cfg.flowSensitiveGlobalLoads = false;
             cfg.foldStoredEqualsInitGlobals = true;
         }});
    history_.push_back(
        {"f02ce317ab8",
         "InstCombine: canonicalize boolean compare chains",
         "Peephole Optimizations",
         {"llvm/lib/Transforms/InstCombine/InstCombineCompares.cpp"},
         false, noop});
    history_.push_back(
        {"a99cf2e07d4",
         "SimpleLoopUnswitch: unswitch non-trivial invariant "
         "conditions at -O3, freezing the hoisted condition",
         "Loop Transformations",
         {"llvm/lib/Transforms/Scalar/SimpleLoopUnswitch.cpp"}, true,
         [](PassConfig &cfg, OptLevel level) {
             // R1: Listings 7/8a — freeze blocks later constant folds.
             if (level == OptLevel::O3)
                 cfg.unswitchInsertsFreeze = true;
         }});
    history_.push_back(
        {"c4b8aa016f3",
         "ConstantRange: tighten binary operator range math",
         "Value Constraint Analysis",
         {"llvm/lib/IR/ConstantRange.cpp"}, true,
         [](PassConfig &cfg, OptLevel level) {
             // R2: singleton ranges no longer fold through rem
             // (Listing 8b).
             if (level == OptLevel::O3)
                 cfg.vrpFoldsRem = false;
         }});
    history_.push_back(
        {"90be2d10f77", "NewPM: re-order GVN in the -O3 pipeline",
         "Pass Management",
         {"llvm/lib/Passes/PassBuilderPipelines.cpp",
          "llvm/lib/Passes/PassRegistry.def"},
         false, noop});
    headIndex_ = history_.size() - 1;
    history_.push_back(
        {"611a02cce509",
         "ConstantRange: handle rem of singleton ranges",
         "Value Constraint Analysis",
         {"llvm/lib/IR/ConstantRange.cpp"}, false,
         [](PassConfig &cfg, OptLevel) {
             cfg.vrpFoldsRem = true; // fixes Listing 8b
         }});
}

opt::PassConfig
CompilerSpec::configAt(OptLevel level, size_t commit_index) const
{
    assert(commit_index < history_.size());
    PassConfig cfg;
    for (size_t i = 0; i <= commit_index; ++i)
        history_[i].apply(cfg, level);
    return cfg;
}

const CompilerSpec &
spec(CompilerId id)
{
    static const CompilerSpec alpha(CompilerId::Alpha);
    static const CompilerSpec beta(CompilerId::Beta);
    return id == CompilerId::Alpha ? alpha : beta;
}

//===------------------------------------------------------------------===//
// Pipelines
//===------------------------------------------------------------------===//

opt::PassConfig
adjustForLevel(opt::PassConfig config, OptLevel level)
{
    switch (level) {
      case OptLevel::O0:
        break; // no pipeline at all
      case OptLevel::O1:
        config.inlineThreshold = std::min(config.inlineThreshold, 12u);
        // -O1 still fully unrolls tiny constant-trip loops (GCC's
        // cunroll runs at -O1), which is how Listing 9e is clean there.
        config.unrollMaxTripCount =
            std::min(config.unrollMaxTripCount, 4u);
        config.dseAtExit = false;
        config.loopUnswitch = false;
        config.loopStoreRewrite = false;
        config.keepInlinedHusks = false;
        break;
      case OptLevel::Os:
        config.inlineThreshold = std::min(config.inlineThreshold, 20u);
        config.unrollMaxTripCount = 0;
        config.loopUnswitch = false;
        config.loopStoreRewrite = false;
        break;
      case OptLevel::O2:
        // -O2 full-unrolls more cautiously than -O3 (matching the
        // growing unroll budgets of real compilers).
        config.unrollMaxTripCount =
            std::min(config.unrollMaxTripCount, 4u);
        config.loopUnswitch = false;
        config.loopStoreRewrite = false;
        break;
      case OptLevel::O3:
        config.loopUnswitch = true;
        break;
    }
    return config;
}

void
buildPipeline(opt::PassManager &pm, OptLevel level)
{
    using namespace opt;
    if (level == OptLevel::O0)
        return;

    auto scalar_round = [&pm] {
        pm.add(createInstCombinePass());
        pm.add(createSccpPass());
        pm.add(createSimplifyCfgPass());
        pm.add(createGlobalOptPass());
        pm.add(createMem2RegPass()); // promote localized globals
        pm.add(createEarlyCsePass());
        pm.add(createInstCombinePass());
        pm.add(createSccpPass());
        pm.add(createSimplifyCfgPass());
        pm.add(createDcePass());
        pm.add(createDsePass(/*allow_exit_dse=*/false));
    };

    pm.add(createInlinePass());
    pm.add(createMem2RegPass());
    pm.add(createSimplifyCfgPass());

    if (level == OptLevel::O1) {
        pm.add(createInstCombinePass());
        pm.add(createSccpPass());
        pm.add(createSimplifyCfgPass());
        pm.add(createGlobalOptPass());
        pm.add(createMem2RegPass());
        pm.add(createEarlyCsePass());
        pm.add(createInstCombinePass());
        pm.add(createSccpPass());
        pm.add(createDcePass());
        pm.add(createDsePass());
        pm.add(createSimplifyCfgPass());
        pm.add(createLoopUnrollPass());
        pm.add(createInstCombinePass());
        pm.add(createSccpPass());
        pm.add(createSimplifyCfgPass());
        pm.add(createEarlyCsePass());
        pm.add(createInstCombinePass());
        pm.add(createDcePass());
        pm.add(createSimplifyCfgPass());
        pm.add(createGlobalDcePass());
        return;
    }

    // Os / O2 / O3.
    if (level == OptLevel::O3) {
        // Unswitching runs *before* the scalar rounds discover the
        // condition's constant value — the pass-ordering interplay
        // behind the unswitch regression (Listings 7/8a): the freeze
        // it inserts then blocks the later folds.
        pm.add(createLoopUnswitchPass());
    }
    scalar_round();
    if (level == OptLevel::O3) {
        // The vectorizer-style rewrite claims store loops before the
        // unroller sees them (Listing 9e).
        pm.add(createLoopStoreRewritePass());
    }
    pm.add(createLoopUnrollPass());
    scalar_round();
    pm.add(createVrpPass());
    pm.add(createJumpThreadingPass());
    pm.add(createInstCombinePass());
    pm.add(createSccpPass());
    pm.add(createSimplifyCfgPass());
    pm.add(createEarlyCsePass());
    pm.add(createDcePass());
    pm.add(createDsePass());
    pm.add(createSimplifyCfgPass());
    pm.add(createGlobalDcePass());
}

//===------------------------------------------------------------------===//
// Compiler facade
//===------------------------------------------------------------------===//

Compiler::Compiler(CompilerId id, OptLevel level, size_t commit_index)
    : id_(id), level_(level),
      commitIndex_(commit_index == SIZE_MAX ? spec(id).headIndex()
                                            : commit_index)
{
    assert(commitIndex_ < spec(id).history().size());
}

std::string
Compiler::describe() const
{
    return std::string(compilerName(id_)) + "-" + optLevelName(level_) +
           "@" + spec(id_).history()[commitIndex_].hash;
}

Compilation
Compiler::compile(const lang::TranslationUnit &unit, bool verify_each,
                  BuildObservers observers) const
{
    std::unique_ptr<ir::Module> module = ir::lowerToIr(unit);
    std::string error = optimize(*module, verify_each, observers);
    return Compilation(std::move(module), std::move(error));
}

Compilation
Compiler::compileLowered(const ir::Module &lowered, bool verify_each,
                         BuildObservers observers) const
{
    std::unique_ptr<ir::Module> module = ir::cloneModule(lowered);
    std::string error = optimize(*module, verify_each, observers);
    return Compilation(std::move(module), std::move(error));
}

bool
Compiler::eliminates(const ir::Module &lowered, unsigned marker) const
{
    // survivingMarkersInIr counts calls to the marker's declaration.
    const std::string name = support::markerName(marker);
    auto declaration = [&](const ir::Module &module) {
        const ir::Function *fn = module.getFunction(name);
        return fn && fn->isDeclaration() ? fn : nullptr;
    };
    const ir::Function *callee = declaration(lowered);
    if (!callee)
        return true;
    if (level_ == OptLevel::O0)
        return opt::callsDoomed(lowered, callee, /*globaldce_ahead=*/false);

    std::unique_ptr<ir::Module> module = ir::cloneModule(lowered);
    callee = declaration(*module);
    support::TraceSpan span("optimize", "compile");
    opt::PassManager pm = pipeline();
    pm.run(*module, /*verify_each=*/false, callee);
    return pm.stoppedEarly() ||
           opt::callsDoomed(*module, callee, /*globaldce_ahead=*/false);
}

opt::PassManager
Compiler::pipeline() const
{
    opt::PassManager pm(
        adjustForLevel(spec(id_).configAt(level_, commitIndex_), level_));
    buildPipeline(pm, level_);
    return pm;
}

std::string
Compiler::optimize(ir::Module &module, bool verify_each,
                   BuildObservers observers) const
{
    if (level_ == OptLevel::O0)
        return {};
    support::TraceSpan span("optimize", "compile");
    opt::PassManager pm = pipeline();
    pm.setRemarks(observers.remarks);
    pm.setMetrics(observers.metrics);
    pm.run(module, verify_each);
    return pm.lastError();
}

} // namespace dce::compiler
