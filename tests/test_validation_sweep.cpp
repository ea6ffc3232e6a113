/** @file The heavyweight correctness property: for randomly generated
 * programs, every compiler at every level must (a) produce verifier-
 * clean IR after each pass, (b) preserve observable behaviour (exit
 * value, external-call trace, final external-global memory), and (c)
 * never eliminate a marker that actually executes. This is the
 * translation-validation harness that keeps the whole 15-pass
 * optimizer honest against the interpreter. */
#include <gtest/gtest.h>

#include "compiler/compiler.hpp"
#include "gen/generator.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/lowering.hpp"
#include "ir/printer.hpp"
#include "lang/printer.hpp"

namespace dce {
namespace {

using compiler::Compiler;
using compiler::CompilerId;
using compiler::OptLevel;

instrument::Instrumented
makeInstrumented(uint64_t seed)
{
    auto unit = gen::generateProgram(seed);
    return instrument::instrumentUnit(*unit);
}

class GeneratedValidation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedValidation, AllBuildsPreserveBehaviour)
{
    uint64_t seed = GetParam();
    instrument::Instrumented prog = makeInstrumented(seed);
    auto baseline_module = ir::lowerToIr(*prog.unit);
    // Generated programs terminate without trapping, but some run past
    // the production step budget (seed 7077 takes 4,305,805 steps at
    // O0), so this sweep gives every run a larger one.
    interp::ExecLimits limits;
    limits.maxSteps = 8'000'000;
    interp::ExecResult expected =
        interp::execute(*baseline_module, "main", limits);
    ASSERT_EQ(expected.status, interp::ExecStatus::Ok)
        << "seed " << seed << " did not run to completion";

    std::set<std::string> executed_markers;
    for (const std::string &name : expected.calledExternals) {
        if (instrument::markerIndex(name))
            executed_markers.insert(name);
    }

    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        for (OptLevel level : compiler::allOptLevels()) {
            Compiler comp(id, level);
            compiler::Compilation result =
                comp.compile(*prog.unit, /*verify_each=*/true);
            ASSERT_TRUE(result.ok())
                << comp.describe() << " seed " << seed
                << " verifier failure:\n"
                << result.error();
            interp::ExecResult actual =
                interp::execute(result.module(), "main", limits);
            ASSERT_TRUE(interp::observablyEqual(expected, actual))
                << comp.describe() << " miscompiled seed " << seed
                << ":\n"
                << interp::explainDifference(expected, actual)
                << "\nsource:\n"
                << lang::printUnit(*prog.unit);
            // Soundness: every executed marker must still be called in
            // the optimized module's behaviour (already implied by the
            // trace equality, but assert explicitly for clarity).
            for (const std::string &name : executed_markers) {
                EXPECT_TRUE(actual.calledExternals.count(name))
                    << comp.describe() << " dropped live marker "
                    << name << " (seed " << seed << ")";
            }
        }
    }
}

// 120 seeds x 2 compilers x 5 levels = 1200 full pipeline validations.
INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedValidation,
                         ::testing::Range<uint64_t>(7000, 7120));

} // namespace
} // namespace dce
