/** @file Tests for the core DCE-oracle framework: marker liveness,
 * ground truth, differential detection, primary-marker analysis
 * (Figure 2 / Listing 5), campaigns, reduction, bisection, triage. */
#include <gtest/gtest.h>

#include "backend/codegen.hpp"
#include "bisect/bisect.hpp"
#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "helpers.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "reduce/reducer.hpp"

namespace dce::core {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using dce::test::parseOk;
using instrument::instrumentSource;

TEST(Core, AliveMarkersInAsmParsesCalls)
{
    std::string assembly = "\tcall DCEMarker0\n"
                           "\tmovq %rax, %rcx\n"
                           "\tcall helper2\n"
                           "\tcall DCEMarker17\n";
    std::set<unsigned> alive = backend::aliveMarkersInAsm(assembly);
    EXPECT_EQ(alive, (std::set<unsigned>{0, 17}));
}

TEST(Core, GroundTruthSeparatesDeadAndAlive)
{
    auto prog = instrumentSource(R"(
        int a = 1;
        int main() {
            if (a) { a = 2; } else { a = 3; }
            return a;
        }
    )");
    GroundTruth truth = groundTruth(prog);
    ASSERT_TRUE(truth.valid);
    EXPECT_EQ(truth.aliveMarkers.size(), 1u);
    EXPECT_EQ(truth.deadMarkers.size(), 1u);
}

TEST(Core, DifferentialDetectsStoredEqualsInitMiss)
{
    // Listing 4a shape: beta eliminates, alpha misses.
    auto prog = instrumentSource(R"(
        static int a = 0;
        int x;
        int main() {
            if (a) { x = 5; }
            a = 0;
            return 0;
        }
    )");
    GroundTruth truth = groundTruth(prog);
    ASSERT_TRUE(truth.valid);
    ASSERT_EQ(truth.deadMarkers.size(), 1u);

    compiler::Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    compiler::Compiler beta(CompilerId::Beta, OptLevel::O3);
    std::set<unsigned> alpha_alive = aliveMarkers(*prog.unit, alpha);
    std::set<unsigned> beta_alive = aliveMarkers(*prog.unit, beta);

    EXPECT_EQ(missedMarkers(alpha_alive, truth).size(), 1u);
    EXPECT_TRUE(missedMarkers(beta_alive, truth).empty());
}

TEST(Core, MarkersInAliveBlocksAreNeverMissed)
{
    auto prog = instrumentSource(R"(
        int a = 1;
        int main() {
            if (a) { a = 2; }
            return a;
        }
    )");
    GroundTruth truth = groundTruth(prog);
    ASSERT_TRUE(truth.valid);
    for (CompilerId id : {CompilerId::Alpha, CompilerId::Beta}) {
        for (OptLevel level : compiler::allOptLevels()) {
            compiler::Compiler comp(id, level);
            std::set<unsigned> alive = aliveMarkers(*prog.unit, comp);
            // Truly alive markers must be in the assembly (soundness).
            for (unsigned m : truth.aliveMarkers)
                EXPECT_TRUE(alive.count(m)) << comp.describe();
        }
    }
}

TEST(Core, PrimaryAnalysisMatchesListing5)
{
    // Listing 5 / Figure 2: nested dead ifs. If a compiler misses both
    // the outer (B2) and inner (B3) blocks, only the outer is primary.
    auto prog = instrumentSource(R"(
        int x;
        static int a = 0;
        int main() {
            if (a) {
                x = 1;
                if (x == 1) { x = 2; }
            }
            a = 0;
            return 0;
        }
    )");
    GroundTruth truth = groundTruth(prog);
    ASSERT_TRUE(truth.valid);
    ASSERT_EQ(truth.deadMarkers.size(), 2u);

    // alpha misses both (flow-insensitive global analysis).
    compiler::Compiler alpha(CompilerId::Alpha, OptLevel::O3);
    std::set<unsigned> missed =
        missedMarkers(aliveMarkers(*prog.unit, alpha), truth);
    ASSERT_EQ(missed.size(), 2u);

    std::set<unsigned> primary =
        primaryMissedMarkers(prog, missed, truth);
    ASSERT_EQ(primary.size(), 1u);
    // The primary one is the outer marker, which was inserted into the
    // if-then of `if (a)` — the one the inner marker's walk reaches.
    unsigned outer = *primary.begin();
    EXPECT_TRUE(missed.count(outer));

    // If only the inner block were missed (outer detected), the inner
    // becomes primary: simulate by passing a singleton missed set.
    unsigned inner = 0;
    for (unsigned m : missed) {
        if (m != outer)
            inner = m;
    }
    std::set<unsigned> only_inner{inner};
    EXPECT_EQ(primaryMissedMarkers(prog, only_inner, truth),
              only_inner);
}

TEST(Core, CampaignAggregatesAcrossSeeds)
{
    std::vector<BuildSpec> builds = {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
    Campaign campaign = runCampaign(0, 10, builds);
    ASSERT_EQ(campaign.programs.size(), 10u);
    ASSERT_EQ(campaign.builds.size(), builds.size());
    EXPECT_GT(campaign.totalMarkers(), 0u);
    EXPECT_GT(campaign.totalDead(), 0u);
    // Dead markers should dominate (§4.1: ~90% on random programs).
    EXPECT_GT(campaign.totalDead(), campaign.totalAlive());
    // Compilers at O3 eliminate the large majority of dead markers.
    for (const BuildSpec &spec : builds) {
        std::optional<BuildId> build = campaign.findBuild(spec);
        ASSERT_TRUE(build.has_value()) << spec.name();
        EXPECT_LT(campaign.totalMissed(*build),
                  campaign.totalDead() / 2)
            << spec.name();
    }
}

TEST(Core, CampaignHandlesResolveByNameAndSpec)
{
    std::vector<BuildSpec> builds = {
        {CompilerId::Alpha, OptLevel::O2, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
    // BuildSpec::name() must match the (Compiler-constructing)
    // describe() it replaced.
    for (const BuildSpec &spec : builds)
        EXPECT_EQ(spec.name(), spec.make().describe());

    Campaign campaign = runCampaign(0, 6, builds);
    EXPECT_EQ(campaign.buildNames(),
              (std::vector<std::string>{builds[0].name(),
                                        builds[1].name()}));
    EXPECT_EQ(campaign.findBuild(builds[1].name()), BuildId{1});
    EXPECT_EQ(campaign.findBuild(builds[1]), BuildId{1});
    EXPECT_FALSE(campaign.findBuild("no-such-build").has_value());
    EXPECT_FALSE(campaign.idOf("no-such-build").valid());
    // An invalid handle is a safe argument to the totals.
    EXPECT_EQ(campaign.totalMissed(campaign.idOf("no-such-build")),
              0u);
    EXPECT_EQ(campaign.idOf(builds[0].name()), BuildId{0});
}

TEST(Core, CampaignPrimarySubset)
{
    std::vector<BuildSpec> builds = {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
    };
    CampaignOptions options;
    options.computePrimary = true;
    Campaign campaign = runCampaign(50, 8, builds, options);
    BuildId build{0};
    EXPECT_LE(campaign.totalPrimaryMissed(build),
              campaign.totalMissed(build));
    for (const ProgramRecord &record : campaign.programs) {
        if (!record.valid)
            continue;
        for (unsigned m : record.primaryFor(build))
            EXPECT_TRUE(record.missedFor(build).count(m));
    }
}

TEST(Reduce, ShrinksWhilePreservingInterestingness)
{
    std::string source;
    for (int i = 0; i < 30; ++i)
        source += "int g" + std::to_string(i) + ";\n";
    source += "int main() { return g7; }\n";

    // Interesting = parses and mentions g7 in main.
    auto interesting = [](const std::string &candidate) {
        DiagnosticEngine diags;
        auto unit = lang::parseAndCheck(candidate, diags);
        return unit != nullptr &&
               candidate.find("return g7;") != std::string::npos;
    };
    reduce::ReduceResult result =
        reduce::reduceSource(source, interesting);
    EXPECT_TRUE(interesting(result.source));
    EXPECT_LT(result.linesAfter, 5u) << result.source;
}

TEST(Reduce, UninterestingInputReturnedUnchanged)
{
    reduce::ReduceResult result = reduce::reduceSource(
        "int main() { return 0; }",
        [](const std::string &) { return false; });
    EXPECT_EQ(result.testsRun, 1u);
    EXPECT_EQ(result.source, "int main() { return 0; }");
}

TEST(Bisect, FindsTheOffendingCommit)
{
    // The VRP rem regression (beta commit c4b8aa016f3): at O3, the
    // Listing-8b essence stops being eliminated at exactly that commit.
    auto unit = parseOk(R"(
        void DCEMarker0(void);
        int x;
        int main() {
            int v = x;
            if (v == 7) {
                if (v % 3 == 0) { DCEMarker0(); }
            }
            return 0;
        }
    )");
    ASSERT_TRUE(unit);
    const compiler::CompilerSpec &spec =
        compiler::spec(CompilerId::Beta);
    bisect::BisectResult result = bisect::bisectRegression(
        CompilerId::Beta, OptLevel::O3, *unit, 0, 0, spec.headIndex());
    EXPECT_EQ(result.status, bisect::BisectStatus::Found);
    ASSERT_TRUE(result.valid);
    ASSERT_TRUE(result.commit != nullptr);
    EXPECT_EQ(result.commit->hash, "c4b8aa016f3");
    EXPECT_EQ(result.commit->component, "Value Constraint Analysis");
    EXPECT_TRUE(result.commit->knownRegression);
}

TEST(Bisect, RejectsBadEndpoints)
{
    auto unit = parseOk(R"(
        void DCEMarker0(void);
        int a = 1;
        int main() {
            if (a) { DCEMarker0(); }
            return 0;
        }
    )");
    ASSERT_TRUE(unit);
    // Marker is alive everywhere: "good" endpoint already misses.
    bisect::BisectResult result = bisect::bisectRegression(
        CompilerId::Beta, OptLevel::O3, *unit, 0, 0,
        compiler::spec(CompilerId::Beta).headIndex());
    EXPECT_FALSE(result.valid);
    EXPECT_EQ(result.status, bisect::BisectStatus::AlreadyBadAtGood);
    EXPECT_EQ(result.commit, nullptr);
}

TEST(Bisect, DistinguishesEndpointEdgeCases)
{
    // Trivially dead marker every build folds away: "bad" endpoint is
    // not actually bad.
    auto dead_unit = parseOk(R"(
        void DCEMarker0(void);
        int main() {
            if (0) { DCEMarker0(); }
            return 0;
        }
    )");
    ASSERT_TRUE(dead_unit);
    size_t head = compiler::spec(CompilerId::Beta).headIndex();
    bisect::BisectResult result = bisect::bisectRegression(
        CompilerId::Beta, OptLevel::O3, *dead_unit, 0, 0, head);
    EXPECT_FALSE(result.valid);
    EXPECT_EQ(result.status, bisect::BisectStatus::NotBadAtBad);

    // Degenerate ranges never touch a compiler at all.
    EXPECT_EQ(bisect::bisectRegression(CompilerId::Beta, OptLevel::O3,
                                       *dead_unit, 0, head, head)
                  .status,
              bisect::BisectStatus::EmptyRange);
    EXPECT_EQ(bisect::bisectRegression(CompilerId::Beta, OptLevel::O3,
                                       *dead_unit, 0, head, 0)
                  .status,
              bisect::BisectStatus::EmptyRange);
}

TEST(Triage, ClassifiesAndDeduplicates)
{
    // Two findings with the same root cause (alpha's flow-insensitive
    // global analysis) must deduplicate to one confirmed report.
    std::vector<BuildSpec> builds = {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
    CampaignOptions options;
    options.computePrimary = true;
    Campaign campaign = runCampaign(200, 12, builds, options);
    std::vector<Finding> findings = collectFindings(
        campaign, builds[0], builds[1], /*max_findings=*/4);
    if (findings.empty())
        GTEST_SKIP() << "corpus produced no alpha-vs-beta findings";

    TriageSummary summary = triageFindings(findings);
    EXPECT_EQ(summary.reports.size(), findings.size());
    unsigned reported = summary.reported(CompilerId::Alpha);
    unsigned confirmed =
        summary.count(CompilerId::Alpha, &Report::confirmed);
    unsigned duplicates =
        summary.count(CompilerId::Alpha, &Report::duplicate);
    EXPECT_EQ(reported, confirmed + duplicates);
    for (const Report &report : summary.reports) {
        EXPECT_FALSE(report.signature.empty());
        EXPECT_FALSE(report.reducedSource.empty());
        // The reduced case must be smaller or equal to the original.
        EXPECT_GT(report.reductionTests, 0u);
    }
}

} // namespace
} // namespace dce::core
