/** @file Tests for the metamorphic-testing subsystem (DESIGN.md §16):
 * the semantics-preserving transform property (every variant of every
 * corpus program re-parses Sema-clean and behaves identically), the
 * positive control (a handicapped pass pipeline regresses on a crafted
 * pair the stock pipeline handles), the count-based oracle's
 * determinism across thread counts and kill + resume, summary
 * persistence, the campaign-report section, the /equiv ops endpoint,
 * and the triage bridge for variant-sourced findings. */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "compiler/compiler.hpp"
#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "equiv/engine.hpp"
#include "equiv/transforms.hpp"
#include "gen/canon.hpp"
#include "gen/generator.hpp"
#include "interp/interpreter.hpp"
#include "ir/lowering.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "opt/pass.hpp"
#include "report/event_log.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace fs = std::filesystem;

namespace dce::equiv {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

/** Fresh scratch directory, removed on destruction. */
class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_equiv_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

corpus::CampaignPlan
smallPlan()
{
    corpus::CampaignPlan plan;
    plan.count = 12;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 1609;
    plan.builds = {{CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
                   {CompilerId::Beta, OptLevel::O3, SIZE_MAX}};
    plan.computePrimary = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

EquivOptions
smallEquivOptions()
{
    EquivOptions options;
    options.variantsPerProgram = 2;
    options.maxChainLength = 2;
    options.seed = 77;
    return options;
}

// The crafted positive-control pair: `g` is a non-static global, so
// every configuration treats its load as opaque and the else arm's
// marker is missed on both sides. In the base the second branch tests
// `0 == 3` — constant-folded dead by everything. The variant routes
// the phi `t` into the comparison: only jump threading can prove
// t ∈ {1, 4} excludes 3, so a pipeline with jumpThreading disabled
// misses one *more* truly-dead marker on the variant than on the base.
const char kControlBase[] = "int g = 1;\n"
                            "int main(void) {\n"
                            "  int t;\n"
                            "  if (g) { t = 1; } else { t = 4; }\n"
                            "  if (0 == 3) { return 5; }\n"
                            "  return 0;\n"
                            "}\n";

const char kControlVariant[] = "int g = 1;\n"
                               "int main(void) {\n"
                               "  int t;\n"
                               "  if (g) { t = 1; } else { t = 4; }\n"
                               "  if (t == 3) { return 5; }\n"
                               "  return 0;\n"
                               "}\n";

//===------------------------------------------------------------------===//
// Transforms: the metamorphic property
//===------------------------------------------------------------------===//

// Every transform, applied at a random site of every corpus program,
// must produce a unit that (a) pretty-prints to Sema-clean source and
// (b) behaves observably identically under the interpreter. This is
// the soundness property the oracle leans on; the engine re-checks it
// per variant, but a transform that often fails equivalence would
// silently gut the subsystem's coverage.
TEST(EquivTransforms, EveryTransformPreservesBehaviorOnCorpus)
{
    constexpr uint64_t kSeeds = 200;
    std::map<TransformKind, uint64_t> applied;
    uint64_t checked = 0;

    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        std::unique_ptr<lang::TranslationUnit> base =
            gen::generateProgram(seed);
        ASSERT_TRUE(base) << "seed " << seed;
        const std::string base_text = lang::printUnit(*base);
        std::unique_ptr<ir::Module> base_lowered = ir::lowerToIr(*base);
        interp::ExecResult base_behavior =
            interp::execute(*base_lowered);
        ASSERT_TRUE(base_behavior.ok()) << "seed " << seed;

        for (TransformKind kind : allTransforms()) {
            // Fresh sema-checked copy per transform: applyTransform
            // edits in place and invalidates annotations.
            DiagnosticEngine diags;
            std::unique_ptr<lang::TranslationUnit> unit =
                lang::parseAndCheck(base_text, diags);
            ASSERT_TRUE(unit) << "seed " << seed;

            Rng rng(seed * 1031 + static_cast<uint64_t>(kind));
            if (!applyTransform(*unit, kind, rng))
                continue; // no site for this kind — not a failure
            ++applied[kind];

            const std::string variant_text = lang::printUnit(*unit);
            DiagnosticEngine vdiags;
            std::unique_ptr<lang::TranslationUnit> reparsed =
                lang::parseAndCheck(variant_text, vdiags);
            ASSERT_TRUE(reparsed)
                << "seed " << seed << " " << transformKindName(kind)
                << " variant no longer sema-checks:\n"
                << variant_text;

            std::unique_ptr<ir::Module> lowered =
                ir::lowerToIr(*reparsed);
            interp::ExecResult behavior = interp::execute(*lowered);
            ASSERT_TRUE(
                interp::observablyEqual(base_behavior, behavior))
                << "seed " << seed << " " << transformKindName(kind)
                << ": " << interp::explainDifference(base_behavior,
                                                     behavior)
                << "\n"
                << variant_text;
            ++checked;
        }
    }

    // The corpus must actually exercise every transform; a kind that
    // never finds a site is a dead transform, not a passing one.
    for (TransformKind kind : allTransforms())
        EXPECT_GE(applied[kind], 1u) << transformKindName(kind);
    EXPECT_GE(checked, kSeeds) << "too few variants exercised";
}

TEST(EquivTransforms, DeriveVariantIsDeterministic)
{
    std::unique_ptr<lang::TranslationUnit> base =
        gen::generateProgram(42);
    ASSERT_TRUE(base);

    std::vector<TransformKind> chain_a, chain_b;
    std::unique_ptr<lang::TranslationUnit> a =
        deriveVariant(*base, 9001, 3, &chain_a);
    std::unique_ptr<lang::TranslationUnit> b =
        deriveVariant(*base, 9001, 3, &chain_b);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_EQ(chain_a, chain_b);
    EXPECT_EQ(lang::printUnit(*a), lang::printUnit(*b));

    // A different stream seed is allowed to coincide, but across a
    // handful of seeds at least one distinct variant must appear.
    bool distinct = false;
    for (uint64_t seed = 1; seed <= 8 && !distinct; ++seed) {
        std::vector<TransformKind> chain;
        std::unique_ptr<lang::TranslationUnit> other =
            deriveVariant(*base, seed, 3, &chain);
        distinct = other &&
                   lang::printUnit(*other) != lang::printUnit(*a);
    }
    EXPECT_TRUE(distinct);
}

TEST(EquivTransforms, TransformKindNamesRoundTrip)
{
    for (TransformKind kind : allTransforms()) {
        std::optional<TransformKind> back =
            transformKindFromName(transformKindName(kind));
        ASSERT_TRUE(back.has_value()) << transformKindName(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(transformKindFromName("no-such-transform"));
}

// Canonicalization is a projection: stripping a canonical text and
// re-canonicalizing it must reproduce the same bytes and hash. The
// engine's stale filter and the store's dedup both assume this.
TEST(EquivTransforms, CanonicalizeIsIdempotent)
{
    for (uint64_t seed : {3u, 17u, 90u}) {
        std::unique_ptr<lang::TranslationUnit> unit =
            gen::generateProgram(seed);
        ASSERT_TRUE(unit);
        gen::Canonical first = gen::canonicalize(*unit);
        std::unique_ptr<lang::TranslationUnit> stripped =
            gen::parseStripped(first.text);
        ASSERT_TRUE(stripped);
        gen::Canonical second = gen::canonicalize(*stripped);
        EXPECT_EQ(first.text, second.text);
        EXPECT_EQ(first.hash, second.hash);
    }
}

//===------------------------------------------------------------------===//
// The positive control
//===------------------------------------------------------------------===//

// A regression the oracle must catch: with jump threading disabled the
// pipeline cannot prove `t == 3` false after the phi of {1, 4}, so the
// crafted variant misses one more truly-dead marker than its base.
// The stock pipeline threads the comparison and stays clean — the same
// pair, no finding. This is the end-to-end proof the subsystem detects
// what it claims to detect.
TEST(EquivEngine, PositiveControlCatchesHandicappedPipeline)
{
    opt::PassConfig stock;
    PairOutcome clean = checkEquivPair(kControlBase, kControlVariant,
                                       stock, OptLevel::O2);
    ASSERT_TRUE(clean.valid);
    ASSERT_TRUE(clean.equivalent);
    EXPECT_EQ(clean.missedBase.size(), clean.missedVariant.size());
    EXPECT_FALSE(clean.findingMarker.has_value())
        << "stock pipeline must not regress on the control pair";

    opt::PassConfig handicapped;
    handicapped.jumpThreading = false;
    PairOutcome weak = checkEquivPair(kControlBase, kControlVariant,
                                      handicapped, OptLevel::O2);
    ASSERT_TRUE(weak.valid);
    ASSERT_TRUE(weak.equivalent);
    EXPECT_GT(weak.missedVariant.size(), weak.missedBase.size());
    ASSERT_TRUE(weak.findingMarker.has_value())
        << "handicapped pipeline must regress on the control pair";
    // The witness is the then-arm marker of the `t == 3` branch — the
    // site kind whose missed count grew.
    EXPECT_EQ(*weak.findingMarker, 2u);
}

TEST(EquivEngine, PairProbeRejectsInvalidAndInequivalentSources)
{
    opt::PassConfig stock;
    PairOutcome broken = checkEquivPair(
        "int main(void) { return undeclared; }", kControlVariant,
        stock, OptLevel::O2);
    EXPECT_FALSE(broken.valid);

    PairOutcome different = checkEquivPair(
        "int main(void) { return 1; }",
        "int main(void) { return 2; }", stock, OptLevel::O2);
    ASSERT_TRUE(different.valid);
    EXPECT_FALSE(different.equivalent);
    EXPECT_FALSE(different.findingMarker.has_value());
}

//===------------------------------------------------------------------===//
// The engine: determinism and persistence
//===------------------------------------------------------------------===//

TEST(EquivEngine, AnalysisRequiresCheckpoint)
{
    TempDir dir("nockpt");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    EXPECT_FALSE(runEquivAnalysis(*store, smallEquivOptions()));
}

TEST(EquivEngine, SummaryByteIdenticalAcrossThreadCounts)
{
    TempDir dir("threads");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    {
        corpus::CheckpointRunOptions options;
        options.threads = 2;
        support::MetricsRegistry campaign_registry;
        options.metrics = &campaign_registry;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
    }

    std::string serial_summary, serial_events, serial_metrics;
    {
        support::MetricsRegistry registry;
        report::EventLog log(&registry);
        EquivOptions options = smallEquivOptions();
        options.threads = 1;
        options.metrics = &registry;
        options.events = &log;
        std::optional<EquivSummary> summary =
            runEquivAnalysis(*store, options);
        ASSERT_TRUE(summary);
        EXPECT_GT(summary->programs, 0u);
        EXPECT_GT(summary->variants, 0u);
        serial_summary = serializeEquivSummary(*summary);
        serial_events = log.toJsonl();
        serial_metrics = registry.expose();
    }
    ASSERT_FALSE(serial_summary.empty());
    ASSERT_FALSE(serial_events.empty());

    for (unsigned threads : {4u, 8u}) {
        support::MetricsRegistry registry;
        report::EventLog log(&registry);
        EquivOptions options = smallEquivOptions();
        options.threads = threads;
        options.metrics = &registry;
        options.events = &log;
        std::optional<EquivSummary> summary =
            runEquivAnalysis(*store, options);
        ASSERT_TRUE(summary);
        EXPECT_EQ(serializeEquivSummary(*summary), serial_summary)
            << "summary diverged at " << threads << " threads";
        EXPECT_EQ(log.toJsonl(), serial_events)
            << "events diverged at " << threads << " threads";
        EXPECT_EQ(registry.expose(), serial_metrics)
            << "metrics diverged at " << threads << " threads";
    }
}

// The summary is a pure function of (checkpointed store, options), so
// a campaign killed mid-run and resumed to completion must yield the
// same equiv bytes as an uninterrupted one.
TEST(EquivEngine, SummaryByteIdenticalAfterKillAndResume)
{
    auto summarize = [](corpus::CorpusStore &store) {
        EquivOptions options = smallEquivOptions();
        options.threads = 2;
        support::MetricsRegistry registry;
        options.metrics = &registry;
        std::optional<EquivSummary> summary =
            runEquivAnalysis(store, options);
        EXPECT_TRUE(summary);
        return summary ? serializeEquivSummary(*summary)
                       : std::string();
    };

    corpus::StoreError error;
    std::string full_bytes;
    {
        TempDir dir("full");
        auto store = corpus::CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        corpus::CheckpointRunOptions options;
        options.threads = 2;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
        full_bytes = summarize(*store);
    }
    ASSERT_FALSE(full_bytes.empty());

    TempDir dir("resume");
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    corpus::CheckpointRunOptions halted;
    halted.threads = 2;
    halted.checkpointEveryChunks = 1;
    halted.haltAfterChunks = 2;
    auto first = corpus::runCheckpointed(*store, smallPlan(), halted,
                                         &error);
    ASSERT_TRUE(first) << error.message;
    ASSERT_FALSE(first->completed);
    corpus::CheckpointRunOptions resume;
    resume.threads = 2;
    auto second = corpus::runCheckpointed(*store, smallPlan(), resume,
                                          &error);
    ASSERT_TRUE(second) << error.message;
    ASSERT_TRUE(second->completed);
    EXPECT_EQ(summarize(*store), full_bytes);
}

TEST(EquivEngine, SummarySerializationRoundTripsAndDetectsDamage)
{
    EquivSummary summary;
    summary.variantsPerProgram = 3;
    summary.seed = 123;
    summary.programs = 7;
    summary.variants = 19;
    summary.rejects["no-edit"] = 2;
    summary.rejects["not-equivalent"] = 1;

    EquivFinding finding;
    finding.slot = 4;
    finding.seed = 9999;
    finding.baseHash = "aaaa";
    finding.variantHash = "bbbb";
    finding.variantIndex = 1;
    finding.chain = {TransformKind::LoopRotate,
                     TransformKind::ConstantReexpr};
    finding.spec = {CompilerId::Alpha, OptLevel::O2, SIZE_MAX};
    finding.build = finding.spec.name();
    finding.buildIndex = 0;
    finding.marker = 5;
    finding.missedBase = 1;
    finding.missedVariant = 2;
    finding.variantText = "int main(void) { return 0; }\n";
    finding.signature = "sig";
    finding.confirmed = true;
    finding.reductionTests = 41;
    summary.findings.push_back(finding);

    EquivOutlier outlier;
    outlier.slot = 6;
    outlier.baseHash = "cccc";
    outlier.variantHash = "dddd";
    outlier.variantIndex = 0;
    outlier.chain = {TransformKind::StmtCommute};
    outlier.build = "beta-O3";
    outlier.baseInstrs = 40;
    outlier.variantInstrs = 55;
    summary.outliers.push_back(outlier);

    const std::string line = serializeEquivSummary(summary);
    std::optional<EquivSummary> back = readEquivSummary(line);
    ASSERT_TRUE(back);
    EXPECT_EQ(serializeEquivSummary(*back), line);
    EXPECT_EQ(back->rejected(), 3u);
    ASSERT_EQ(back->findings.size(), 1u);
    EXPECT_EQ(back->findings[0].chain, finding.chain);
    EXPECT_EQ(back->findings[0].spec, finding.spec);
    EXPECT_EQ(back->findings[0].variantText, finding.variantText);
    EXPECT_TRUE(back->findings[0].confirmed);
    ASSERT_EQ(back->outliers.size(), 1u);
    EXPECT_EQ(back->outliers[0].variantInstrs, 55u);

    // Any flipped payload byte must fail the seal, not half-parse.
    std::string damaged = line;
    damaged[line.size() / 2] ^= 0x20;
    EXPECT_FALSE(readEquivSummary(damaged));
    EXPECT_FALSE(readEquivSummary("not json"));

    const std::string text = equivSummaryText(summary);
    EXPECT_NE(text.find("== metamorphic =="), std::string::npos);
    EXPECT_NE(text.find("findings"), std::string::npos);
}

TEST(EquivEngine, StorePersistsEquivState)
{
    TempDir dir("state");
    corpus::StoreError error;
    EquivSummary summary;
    summary.variantsPerProgram = 2;
    summary.seed = 5;
    summary.programs = 1;
    const std::string line = serializeEquivSummary(summary);
    {
        auto store = corpus::CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        EXPECT_FALSE(store->hasEquivState());
        EXPECT_FALSE(store->readEquivState());

        ASSERT_TRUE(store->writeEquivState(line, &error))
            << error.message;
        ASSERT_TRUE(store->hasEquivState());
        std::optional<std::string> read = store->readEquivState();
        ASSERT_TRUE(read);
        EXPECT_EQ(*read, line);
    }

    // Reopen (the live lock released): the state is on disk, not in
    // memory.
    auto reopened = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(reopened) << error.message;
    std::optional<std::string> again = reopened->readEquivState();
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, line);
}

//===------------------------------------------------------------------===//
// Report + ops-server integration
//===------------------------------------------------------------------===//

TEST(EquivReport, CampaignReportRendersMetamorphicSection)
{
    TempDir dir("report");
    TempDir report_dir("reportout");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    {
        corpus::CheckpointRunOptions options;
        options.threads = 2;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
    }

    // No equiv state yet: the report must not grow the section.
    report::CampaignReportOptions options;
    options.dossiers = false;
    ASSERT_TRUE(report::writeCampaignReport(*store, report_dir.str(),
                                            options, &error))
        << error.message;
    std::string without =
        readFile(report_dir.str() + "/report.md");
    ASSERT_FALSE(without.empty());
    EXPECT_EQ(without.find("## Metamorphic testing"),
              std::string::npos);

    std::optional<EquivSummary> summary =
        runEquivAnalysis(*store, smallEquivOptions());
    ASSERT_TRUE(summary);
    ASSERT_TRUE(store->writeEquivState(
        serializeEquivSummary(*summary), &error))
        << error.message;

    ASSERT_TRUE(report::writeCampaignReport(*store, report_dir.str(),
                                            options, &error))
        << error.message;
    std::string with = readFile(report_dir.str() + "/report.md");
    EXPECT_NE(with.find("## Metamorphic testing"), std::string::npos);
    EXPECT_NE(with.find("programs analysed"), std::string::npos);
    EXPECT_NE(with.find("variants per program"), std::string::npos);
}

TEST(EquivServe, EquivEndpointServesSealedStateOr404)
{
    TempDir dir("serve");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;

    support::MetricsRegistry registry;
    serve::OpsServerOptions options;
    options.metrics = &registry;
    serve::OpsServer server(options);
    server.attachStore(store.get());

    serve::HttpRequest request;
    request.method = "GET";
    request.path = "/equiv";
    serve::HttpResponse missing = server.handle(request);
    EXPECT_EQ(missing.status, 404);

    EquivSummary summary;
    summary.variantsPerProgram = 2;
    summary.seed = 11;
    summary.programs = 3;
    summary.variants = 5;
    const std::string line = serializeEquivSummary(summary);
    ASSERT_TRUE(store->writeEquivState(line, &error)) << error.message;

    serve::HttpResponse ok = server.handle(request);
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(ok.body, line + "\n");
    EXPECT_NE(ok.contentType.find("application/json"),
              std::string::npos);

    // No store attached: the endpoint 404s instead of crashing.
    serve::OpsServerOptions bare;
    bare.metrics = &registry;
    serve::OpsServer bare_server(bare);
    EXPECT_EQ(bare_server.handle(request).status, 404);
}

//===------------------------------------------------------------------===//
// Triage bridge
//===------------------------------------------------------------------===//

// A variant-sourced finding flows through the real reduce + signature
// pipeline: TriageOptions::sourceFor supplies the variant text (no
// seed regenerates it), and reference == missedBy makes the
// reference-eliminates probe vacuous instead of contradictory.
TEST(EquivTriage, TriageConfirmsVariantSourcedFinding)
{
    // `g` is opaque (non-static global), so the else arm is truly
    // dead at runtime yet survives every pipeline: a stable
    // missed-optimization to hang a variant finding on.
    const std::string source =
        "int g = 1;\n"
        "int main(void) {\n"
        "  if (g) { return 1; } else { return 2; }\n"
        "}\n";
    opt::PassConfig stock;
    PairOutcome probe =
        checkEquivPair(source, source, stock, OptLevel::O2);
    ASSERT_TRUE(probe.valid);
    ASSERT_EQ(probe.missedBase.size(), 1u);
    const unsigned marker = *probe.missedBase.begin();

    DiagnosticEngine diags;
    std::unique_ptr<lang::TranslationUnit> unit =
        lang::parseAndCheck(source, diags);
    ASSERT_TRUE(unit);
    gen::Canonical canon = gen::canonicalize(*unit);

    EquivSummary summary;
    summary.variantsPerProgram = 1;
    summary.seed = 1;
    summary.programs = 1;
    summary.variants = 1;
    EquivFinding finding;
    finding.slot = 0;
    finding.seed = 424242; // regenerates nothing relevant: sourceFor wins
    finding.baseHash = "base";
    finding.variantHash = canon.hash;
    finding.variantIndex = 0;
    finding.chain = {TransformKind::BranchSwap};
    finding.spec = {CompilerId::Alpha, OptLevel::O2, SIZE_MAX};
    finding.build = finding.spec.name();
    finding.marker = marker;
    finding.missedBase = 0;
    finding.missedVariant = 1;
    finding.variantText = canon.text;
    summary.findings.push_back(std::move(finding));

    std::vector<core::Finding> bridged = toTriageFindings(summary);
    ASSERT_EQ(bridged.size(), 1u);
    EXPECT_EQ(bridged[0].marker, marker);
    EXPECT_EQ(bridged[0].missedBy, summary.findings[0].spec);
    EXPECT_EQ(bridged[0].reference, summary.findings[0].spec);

    support::MetricsRegistry registry;
    core::TriageOptions options;
    options.threads = 1;
    options.maxTests = 300;
    options.metrics = &registry;
    core::TriageSummary triaged =
        triageEquivFindings(summary, options);
    EXPECT_EQ(triaged.reports.size(), 1u);
    EXPECT_TRUE(summary.findings[0].confirmed);
    EXPECT_FALSE(summary.findings[0].signature.empty());
    EXPECT_GT(summary.findings[0].reductionTests, 0u);
    EXPECT_FALSE(summary.findings[0].fixed);
}

} // namespace
} // namespace dce::equiv
