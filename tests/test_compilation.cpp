/**
 * @file
 * Compilation-API tests (DESIGN.md §13): the IR-walk/assembly-grep
 * survival equivalence against the reference backend, error-as-value
 * semantics, the shared-Compiler thread-safety regression (the old
 * `mutable lastError_` data race), the byte-identity of campaign
 * records across thread counts, and the early-exit single-marker query
 * against the full compile (§21).
 */
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "backend/codegen.hpp"
#include "compiler/compiler.hpp"
#include "core/campaign.hpp"
#include "helpers.hpp"
#include "ir/builder.hpp"
#include "ir/clone.hpp"
#include "ir/lowering.hpp"

namespace dce {
namespace {

using compiler::Compilation;
using compiler::Compiler;
using compiler::CompilerId;
using compiler::OptLevel;
using test::parseOk;

/** An IR module the verifier rejects: main is i32 but returns void. */
std::unique_ptr<ir::Module>
invalidModule()
{
    auto module = std::make_unique<ir::Module>();
    ir::Function *main_fn = module->addFunction(
        "main", ir::IrType::i32(), /*internal=*/false);
    ir::BasicBlock *entry = main_fn->addBlock("entry");
    ir::IrBuilder builder(*module);
    builder.setInsertionBlock(entry);
    builder.retVoid();
    return module;
}

//===------------------------------------------------------------------===//
// Error-as-value
//===------------------------------------------------------------------===//

TEST(Compilation, ErrorIsPartOfTheValue)
{
    auto bad = invalidModule();
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    Compilation result = comp.compileLowered(*bad,
                                             /*verify_each=*/true);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.error().empty());
    // The module is still inspectable — failure diagnostics need it.
    EXPECT_NE(result.module().getFunction("main"), nullptr);
}

TEST(Compilation, DefaultConstructedIsEmpty)
{
    Compilation empty;
    EXPECT_FALSE(empty.ok());
    EXPECT_TRUE(empty.error().empty());
}

//===------------------------------------------------------------------===//
// IR walk == assembly grep (the fast-path contract)
//===------------------------------------------------------------------===//

TEST(Compilation, SurvivalIsConsistentBeforeAndAfterEmission)
{
    // Emission runs phi demotion (a module mutation), which must not
    // change the marker-call population: survivingMarkers() memoized
    // before emission equals a fresh IR walk afterwards.
    instrument::Instrumented prog = core::makeProgram(42);
    Compiler comp(CompilerId::Beta, OptLevel::O2);
    Compilation result = comp.compile(*prog.unit);
    ASSERT_TRUE(result.ok());
    std::set<unsigned> before = result.survivingMarkers();
    backend::emitAssembly(result.module());
    EXPECT_EQ(compiler::survivingMarkersInIr(result.module()), before);
}

class IrVsAsmEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IrVsAsmEquivalence, SurvivingMarkersMatchAssemblyGrep)
{
    uint64_t seed = GetParam();
    instrument::Instrumented prog = core::makeProgram(seed);
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        for (OptLevel level : compiler::allOptLevels()) {
            Compiler comp(id, level);
            Compilation result = comp.compile(*prog.unit);
            ASSERT_TRUE(result.ok()) << comp.describe() << " seed "
                                     << seed << ": " << result.error();
            // Read the IR first: emission demotes phis in place.
            const std::set<unsigned> &from_ir = result.survivingMarkers();
            EXPECT_EQ(from_ir, backend::aliveMarkersInAsm(
                                   backend::emitAssembly(result.module())))
                << comp.describe() << " seed " << seed
                << ": IR walk and assembly grep disagree";
        }
    }
}

// 200 seeds x 2 compilers x 5 levels = 2000 IR-vs-asm comparisons.
INSTANTIATE_TEST_SUITE_P(Seeds, IrVsAsmEquivalence,
                         ::testing::Range<uint64_t>(8000, 8200));
// Campaigns and triage read survival from the IR only, so the
// end-to-end seeds get the assembly-grep check too: the campaign seeds
// of RecordsIdenticalAcrossThreads and a small triage corpus.
INSTANTIATE_TEST_SUITE_P(CampaignSeeds, IrVsAsmEquivalence,
                         ::testing::Range<uint64_t>(500, 524));
INSTANTIATE_TEST_SUITE_P(TriageSeeds, IrVsAsmEquivalence,
                         ::testing::Range<uint64_t>(200, 212));

//===------------------------------------------------------------------===//
// Byte-identity across thread counts
//===------------------------------------------------------------------===//

TEST(Compilation, RecordsIdenticalAcrossThreads)
{
    std::vector<core::BuildSpec> builds = {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
    std::vector<core::Campaign> runs;
    for (unsigned threads : {1u, 8u}) {
        core::CampaignOptions options;
        options.threads = threads;
        options.computePrimary = true;
        options.collectRemarks = true;
        runs.push_back(core::runCampaign(500, 24, builds, options));
    }
    EXPECT_EQ(runs[0].programs, runs[1].programs)
        << "records diverge between 1 and 8 threads";
}

//===------------------------------------------------------------------===//
// Single-marker early exit == full compile (DESIGN.md §21)
//===------------------------------------------------------------------===//

/** Every build the triage probes: each compiler at each level, at head
 * and at every fix commit after it. */
std::vector<Compiler>
probedBuilds()
{
    std::vector<Compiler> builds;
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        const compiler::CompilerSpec &spec = compiler::spec(id);
        for (OptLevel level : compiler::allOptLevels()) {
            for (size_t commit = spec.headIndex();
                 commit < spec.history().size(); ++commit)
                builds.emplace_back(id, level, commit);
        }
    }
    return builds;
}

/** Seeds [first, first + 5) per shard, 40 shards: 200 seeds. */
class EliminatesMatchesFullCompile
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EliminatesMatchesFullCompile, ForEveryMarkerAndProbedBuild)
{
    const std::vector<Compiler> builds = probedBuilds();
    for (uint64_t seed = GetParam(); seed < GetParam() + 5; ++seed) {
        instrument::Instrumented prog = core::makeProgram(seed);
        auto lowered = ir::lowerToIr(*prog.unit);
        for (const Compiler &comp : builds) {
            const std::set<unsigned> alive =
                comp.compileLowered(*lowered).survivingMarkers();
            for (unsigned m = 0; m < prog.markerCount(); ++m) {
                ASSERT_EQ(comp.eliminates(*lowered, m), !alive.count(m))
                    << comp.describe() << " seed " << seed << " marker "
                    << m;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminatesMatchesFullCompile,
                         ::testing::Range<uint64_t>(7000, 7200, 5));

/** Run @p id's head pipeline at @p level over a clone of @p lowered,
 * watching DCEMarker0; true when the run stopped early. */
bool
stopsEarly(const ir::Module &lowered, CompilerId id, OptLevel level)
{
    auto module = ir::cloneModule(lowered);
    const compiler::CompilerSpec &spec = compiler::spec(id);
    opt::PassManager pm(compiler::adjustForLevel(
        spec.configAt(level, spec.headIndex()), level));
    compiler::buildPipeline(pm, level);
    pm.run(*module, /*verify_each=*/false,
           module->getFunction("DCEMarker0"));
    return pm.stoppedEarly();
}

/** For every head build: eliminates() on DCEMarker0 of @p source
 * against the full compile, the early stop against @p stops, and a
 * clean checking-mode run (which checks the rule for every marker). */
using BuildPredicate = std::function<bool(CompilerId, OptLevel)>;

void
expectEliminates(const std::string &source,
                 const BuildPredicate &eliminated,
                 const BuildPredicate &stops)
{
    auto unit = parseOk(source);
    ASSERT_TRUE(unit);
    auto lowered = ir::lowerToIr(*unit);
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        for (OptLevel level : compiler::allOptLevels()) {
            Compiler comp(id, level);
            Compilation full =
                comp.compileLowered(*lowered, /*verify_each=*/true);
            ASSERT_TRUE(full.ok()) << comp.describe() << full.error();
            EXPECT_EQ(!full.survivingMarkers().count(0),
                      eliminated(id, level))
                << comp.describe();
            EXPECT_EQ(comp.eliminates(*lowered, 0), eliminated(id, level))
                << comp.describe();
            if (level != OptLevel::O0) {
                EXPECT_EQ(stopsEarly(*lowered, id, level), stops(id, level))
                    << comp.describe();
            }
        }
    }
}

bool
optimizing(CompilerId, OptLevel level)
{
    return level != OptLevel::O0;
}

bool
never(CompilerId, OptLevel)
{
    return false;
}

TEST(Eliminates, MarkerInUncalledInternalFunctionIsEliminated)
{
    // Doomed before the first pass: only the final GlobalDCE removes
    // the call, yet the answer is fixed from the start.
    expectEliminates(R"(
        void DCEMarker0(void);
        static void unused(void) { DCEMarker0(); }
        int main() { return 0; }
    )",
                     optimizing, optimizing);
}

TEST(Eliminates, MarkerInUncalledExternalFunctionSurvives)
{
    expectEliminates(R"(
        void DCEMarker0(void);
        void exported(void) { DCEMarker0(); }
        int main() { return 0; }
    )",
                     never, never);
}

TEST(Eliminates, MarkerInNoDceHuskSurvives)
{
    // Listing 9b: alpha-O3 inlines helper's one call and keeps the
    // husk (noDce), so the call inside it survives; every other
    // optimizing build erases the uncalled husk, and knows it can
    // stop once the call in main is folded away.
    auto kept = [](CompilerId id, OptLevel level) {
        return id == CompilerId::Alpha && level == OptLevel::O3;
    };
    expectEliminates(R"(
        void DCEMarker0(void);
        static int helper(int p) {
            if (p) { DCEMarker0(); }
            return 0;
        }
        int main() {
            helper(0);
            return 0;
        }
    )",
                     [&](CompilerId id, OptLevel level) {
                         return level != OptLevel::O0 && !kept(id, level);
                     },
                     [&](CompilerId id, OptLevel level) {
                         return !kept(id, level);
                     });
}

TEST(Eliminates, SelfRecursiveInternalFunctionIsNotDoomedEarly)
{
    // Uncalled but calling itself: GlobalDCE counts the self call as a
    // reference and keeps the function, so the marker survives and
    // the rule must not declare it doomed.
    expectEliminates(R"(
        void DCEMarker0(void);
        static void spin(int n) {
            if (n) {
                DCEMarker0();
                spin(n - 1);
            }
        }
        int main() { return 0; }
    )",
                     never, never);
}

//===------------------------------------------------------------------===//
// Thread-safety regression (the old mutable lastError_ race)
//===------------------------------------------------------------------===//

TEST(Compilation, SharedConstCompilerIsRaceFree)
{
    // The redesign's TSan regression: 8 threads share one const
    // Compiler. Under the old API every compile wrote the Compiler's
    // mutable lastError_ — a data race even on success. Now errors are
    // part of each thread's Compilation value. Run one valid and one
    // verifier-failing compile per thread; every thread must see the
    // same (per-input) outcome.
    auto unit = parseOk(R"(
        void DCEMarker0(void);
        static int a = 0;
        int main() {
            if (a) { DCEMarker0(); }
            return 0;
        }
    )");
    ASSERT_TRUE(unit);
    auto lowered = ir::lowerToIr(*unit);
    auto bad = invalidModule();

    const Compiler comp(CompilerId::Beta, OptLevel::O2);
    const std::string expected_error =
        comp.compileLowered(*bad, /*verify_each=*/true).error();
    ASSERT_FALSE(expected_error.empty());

    constexpr unsigned kThreads = 8;
    std::vector<std::string> errors(kThreads);
    std::vector<int> ok_flags(kThreads, 0);
    {
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < kThreads; ++t) {
            workers.emplace_back([&, t] {
                Compilation good =
                    comp.compileLowered(*lowered,
                                        /*verify_each=*/true);
                ok_flags[t] = good.ok() ? 1 : 0;
                Compilation failed =
                    comp.compileLowered(*bad, /*verify_each=*/true);
                errors[t] = failed.error();
            });
        }
        for (std::thread &worker : workers)
            worker.join();
    }
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(ok_flags[t], 1) << "thread " << t;
        EXPECT_EQ(errors[t], expected_error) << "thread " << t;
    }
}

} // namespace
} // namespace dce
