/** @file Property tests for the random program generator: validity,
 * determinism, termination, and dead-code abundance; and the marker
 * stripping of gen/canon. */
#include <gtest/gtest.h>

#include "corpus/serialize.hpp"
#include "gen/canon.hpp"
#include "gen/generator.hpp"
#include "helpers.hpp"
#include "instrument/instrument.hpp"
#include "interp/interpreter.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"

namespace dce::gen {
namespace {

TEST(Gen, DeterministicFromSeed)
{
    for (uint64_t seed : {0ull, 1ull, 42ull, 987654321ull}) {
        EXPECT_EQ(generateSource(seed), generateSource(seed))
            << "seed " << seed;
    }
    EXPECT_NE(generateSource(1), generateSource(2));
}

TEST(Gen, HasMainAndGlobals)
{
    auto unit = generateProgram(7);
    ASSERT_TRUE(unit);
    EXPECT_NE(unit->findFunction("main"), nullptr);
    EXPECT_FALSE(unit->globals.empty());
}

/** The generator's core contract, swept over many seeds: output
 * parses, type-checks, lowers to verifiable IR, and terminates. */
class GenProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GenProperty, ValidAndTerminating)
{
    uint64_t seed = GetParam();
    std::string source = generateSource(seed);

    // Printed output must round-trip through the frontend.
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck(source, diags);
    ASSERT_TRUE(unit != nullptr)
        << "seed " << seed << " produced invalid MiniC:\n"
        << diags.str() << "\n"
        << source;

    auto module = ir::lowerToIr(*unit);
    interp::ExecResult result = interp::execute(*module);
    EXPECT_EQ(result.status, interp::ExecStatus::Ok)
        << "seed " << seed << " did not terminate cleanly:\n"
        << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenProperty,
                         ::testing::Range<uint64_t>(0, 60));

TEST(Gen, ProducesSubstantialDeadCode)
{
    // Over a small corpus, most generated branch arms should never
    // execute (the paper measures 89.59% dead blocks on Csmith
    // output; we only require a healthy majority here).
    unsigned programs = 30;
    unsigned with_branches = 0;
    for (uint64_t seed = 100; seed < 100 + programs; ++seed) {
        std::string source = generateSource(seed);
        if (source.find("if (") != std::string::npos)
            ++with_branches;
    }
    EXPECT_GT(with_branches, programs * 2 / 3);
}

TEST(Gen, ConfigControlsShape)
{
    GenConfig tiny;
    tiny.numGlobals = 2;
    tiny.numHelpers = 0;
    tiny.maxStmtsPerBlock = 2;
    tiny.maxBlockDepth = 1;
    auto unit = generateProgram(5, tiny);
    ASSERT_TRUE(unit);
    // 2 regular globals plus the fixed pattern/read-only objects.
    EXPECT_GE(unit->globals.size(), 2u);
    EXPECT_LT(unit->globals.size(), 15u);
    // main plus the fixed tiny-helper gadget.
    EXPECT_EQ(unit->functions.size(), 2u);
}

/** The store's content-address input for @p seed. */
std::string
canonicalText(uint64_t seed)
{
    return corpus::canonicalProgramText(seed, {});
}

TEST(Canon, StripMarkersRemovesCallsAndDeclarations)
{
    std::string text = canonicalText(3);
    ASSERT_NE(text.find("DCEMarker"), std::string::npos);
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck(text, diags);
    ASSERT_TRUE(unit);
    gen::stripMarkers(*unit);
    std::string stripped = lang::printUnit(*unit);
    EXPECT_EQ(stripped.find("DCEMarker"), std::string::npos)
        << stripped;
    // The stripped program still parses and checks.
    DiagnosticEngine diags2;
    EXPECT_TRUE(lang::parseAndCheck(stripped, diags2));
}

TEST(Canon, StripThenInstrumentRoundTripsCanonically)
{
    // Stripping an instrumented program and re-instrumenting must give
    // back the identical canonical text — that is what makes the stale
    // filter sound (an edit-free round trip hashes into the pool).
    std::string text = canonicalText(5);
    DiagnosticEngine diags;
    auto unit = lang::parseAndCheck(text, diags);
    ASSERT_TRUE(unit);
    gen::stripMarkers(*unit);
    instrument::Instrumented again = instrument::instrumentUnit(*unit);
    EXPECT_EQ(lang::printUnit(*again.unit), text);
}

} // namespace
} // namespace dce::gen
