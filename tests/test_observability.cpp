/** @file Tests for the observability layer (DESIGN.md §9): remark
 * attribution of marker eliminations, the Chrome-trace tracer, and the
 * metrics registry — plus the end-to-end wiring of all three through
 * the campaign engine. */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "ir/builder.hpp"
#include "ir/ir.hpp"
#include "opt/pass.hpp"
#include "support/metrics.hpp"
#include "support/remarks.hpp"
#include "support/trace.hpp"

//===------------------------------------------------------------------===//
// Allocation counting (for the disabled-tracer zero-allocation test)
//===------------------------------------------------------------------===//

static std::atomic<uint64_t> g_heap_allocations{0};

// Replaceable global allocation functions that count every scalar and
// array new in the test binary. Deallocation is untouched malloc/free.
// GCC can't see that the matching operator new is malloc-based, hence
// the suppressed mismatch warning.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *ptr = std::malloc(size ? size : 1))
        return ptr;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
#pragma GCC diagnostic pop

namespace dce {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;

//===------------------------------------------------------------------===//
// A minimal JSON syntax checker (no external deps) for schema tests
//===------------------------------------------------------------------===//

class JsonChecker {
public:
    explicit JsonChecker(std::string_view text) : text_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return true;
        do {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            skipWs();
            if (!value())
                return false;
            skipWs();
        } while (consume(','));
        return consume('}');
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return true;
        do {
            skipWs();
            if (!value())
                return false;
            skipWs();
        } while (consume(','));
        return consume(']');
    }

    bool
    string()
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (static_cast<unsigned char>(text_[pos_]) < 0x20)
                return false; // control chars must be escaped
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                if (std::string_view("\"\\/bfnrtu").find(
                        text_[pos_]) == std::string_view::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return consume('"');
    }

    bool
    number()
    {
        size_t start = pos_;
        consume('-');
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::string_view view(word);
        if (text_.substr(pos_, view.size()) != view)
            return false;
        pos_ += view.size();
        return true;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
};

//===------------------------------------------------------------------===//
// Remark attribution
//===------------------------------------------------------------------===//

TEST(Remarks, SimplifyCfgKillGetsAttributedByTheCensus)
{
    // Hand-built module: entry cond-branches on constant 0 into a
    // block whose only side effect is a marker call. SimplifyCfg folds
    // the branch and deletes the block; the PassManager census must
    // attribute the marker's disappearance to simplifycfg.
    ir::Module module;
    ir::Function *marker =
        module.addFunction("DCEMarker0", ir::IrType::voidTy(),
                           /*internal=*/false); // declaration
    ir::Function *main_fn =
        module.addFunction("main", ir::IrType::i32(),
                           /*internal=*/false);
    ir::BasicBlock *entry = main_fn->addBlock("entry");
    ir::BasicBlock *dead = main_fn->addBlock("dead");
    ir::BasicBlock *exit = main_fn->addBlock("exit");

    ir::IrBuilder builder(module);
    builder.setInsertionBlock(entry);
    builder.condBr(module.i32Const(0), dead, exit);
    builder.setInsertionBlock(dead);
    builder.call(marker, {});
    builder.br(exit);
    builder.setInsertionBlock(exit);
    builder.ret(module.i32Const(0));

    support::RemarkCollector remarks;
    support::MetricsRegistry registry;
    opt::PassManager pm{opt::PassConfig{}};
    pm.add(opt::createSimplifyCfgPass());
    pm.setRemarks(&remarks);
    pm.setMetrics(&registry);
    EXPECT_TRUE(pm.run(module, /*verify_each=*/true))
        << pm.lastError();

    // Exactly one authoritative MarkerEliminated remark for marker 0,
    // naming the killing pass and its pipeline position.
    const support::Remark *killer = remarks.killerOf(0);
    ASSERT_NE(killer, nullptr);
    EXPECT_EQ(killer->pass, "simplifycfg");
    EXPECT_EQ(killer->passIndex, 0u);
    unsigned authoritative = 0;
    bool saw_detail = false;
    for (const support::Remark &remark : remarks.remarks()) {
        if (remark.kind == support::RemarkKind::MarkerEliminated) {
            ++authoritative;
            EXPECT_EQ(remark.marker, 0u);
        }
        if (remark.kind == support::RemarkKind::MarkerCallRemoved)
            saw_detail = true;
    }
    EXPECT_EQ(authoritative, 1u);
    // The pass's own deletion site reported the unreachable call too.
    EXPECT_TRUE(saw_detail);

    auto histogram = remarks.killerHistogram();
    ASSERT_EQ(histogram.size(), 1u);
    EXPECT_EQ(histogram["simplifycfg"], 1u);

    // The per-pass instruction-delta counter saw the shrink.
    EXPECT_GT(
        registry.counterValue("pass.instrs_removed", "simplifycfg"),
        0u);
}

TEST(Remarks, CampaignAttributesEveryEliminatedMarkerExactlyOnce)
{
    support::MetricsRegistry registry;
    std::vector<core::BuildSpec> builds = {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
    core::CampaignOptions options;
    options.collectRemarks = true;
    options.threads = 2;
    options.metrics = &registry;
    core::Campaign campaign =
        core::runCampaign(1000, 20, builds, options);

    uint64_t attributed_total = 0;
    for (const core::ProgramRecord &record : campaign.programs) {
        if (!record.valid)
            continue;
        ASSERT_EQ(record.kills.size(), builds.size());
        for (size_t b = 0; b < builds.size(); ++b) {
            core::BuildId build{b};
            std::set<unsigned> eliminated = core::setMinus(
                record.trueDead, record.missedFor(build));
            std::set<unsigned> attributed;
            for (const core::MarkerKill &kill :
                 record.killsFor(build)) {
                // Exactly one kill per eliminated marker, never for a
                // missed or alive one, always naming a pass.
                EXPECT_TRUE(attributed.insert(kill.marker).second)
                    << "duplicate attribution for marker "
                    << kill.marker;
                EXPECT_TRUE(eliminated.count(kill.marker));
                EXPECT_FALSE(kill.pass.empty());
            }
            EXPECT_EQ(attributed.size(), eliminated.size())
                << "seed " << record.seed << " build "
                << builds[b].name();
            attributed_total += attributed.size();
        }
    }
    ASSERT_GT(attributed_total, 0u);

    // The registry's elimination counters agree with the records.
    EXPECT_EQ(
        registry.counterTotal("campaign.markers_eliminated"),
        attributed_total);

    // And triage can fold the kills into a per-pass histogram.
    core::KillerHistogram histogram =
        core::killerHistogram(campaign, core::BuildId{0});
    ASSERT_FALSE(histogram.empty());
    uint64_t by_pass_total = 0;
    for (const auto &[pass, count] : histogram.byPass) {
        EXPECT_FALSE(pass.empty());
        by_pass_total += count;
    }
    EXPECT_EQ(by_pass_total, histogram.totalEliminated);
}

//===------------------------------------------------------------------===//
// Tracing
//===------------------------------------------------------------------===//

TEST(Trace, EmitsWellFormedChromeTraceJson)
{
    support::Tracer tracer;
    tracer.setEnabled(true);
    {
        support::TraceSpan outer("outer \"quoted\"\\slash", "cat\n",
                                 tracer);
        outer.setArg("seed", 7);
        support::TraceSpan inner("inner", "cat", tracer);
        EXPECT_TRUE(inner.active());
    }
    ASSERT_EQ(tracer.events().size(), 2u);

    std::string json = tracer.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"seed\":7}"), std::string::npos);
    // The quote and backslash in the span name were escaped.
    EXPECT_NE(json.find("outer \\\"quoted\\\"\\\\slash"),
              std::string::npos);

    // Inner closed before outer, within outer's window.
    std::vector<support::Tracer::Event> events = tracer.events();
    const support::Tracer::Event &inner_event = events[0];
    const support::Tracer::Event &outer_event = events[1];
    EXPECT_EQ(inner_event.name, "inner");
    EXPECT_GE(inner_event.startUs, outer_event.startUs);
    EXPECT_EQ(outer_event.arg, 7u);
    EXPECT_EQ(outer_event.argName, "seed");
}

TEST(Trace, CampaignEmitsSpansForEveryPipelineStage)
{
    support::Tracer &tracer = support::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    support::MetricsRegistry registry;
    core::CampaignOptions options;
    options.threads = 2;
    options.metrics = &registry;
    core::Campaign campaign = core::runCampaign(
        1000, 4, {{CompilerId::Beta, OptLevel::O3, SIZE_MAX}},
        options);
    tracer.setEnabled(false);
    std::vector<support::Tracer::Event> events = tracer.events();
    std::string json = tracer.toJson();
    tracer.clear();

    EXPECT_EQ(campaign.metrics.seedsDone, 4u);
    std::set<std::string> names;
    for (const support::Tracer::Event &event : events)
        names.insert(event.name);
    // One span per layer: campaign chunking, per-seed stages, and the
    // optimizer (plus its individual passes). No "codegen" span: a
    // plain campaign reads surviving markers from the IR and never
    // materializes assembly.
    for (const char *expected :
         {"campaign", "chunk", "seed", "generate", "instrument",
          "lower", "execute", "optimize", "mem2reg",
          "simplifycfg"}) {
        EXPECT_TRUE(names.count(expected))
            << "no span named " << expected;
    }
    EXPECT_FALSE(names.count("codegen"))
        << "campaign materialized assembly on the plain path";
    EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(Trace, DisabledSpanDoesNoWork)
{
    support::Tracer tracer; // disabled is the default state
    unsigned active_spans = 0;
    uint64_t before = g_heap_allocations.load();
    for (int i = 0; i < 100; ++i) {
        support::TraceSpan span("hot-path", "test", tracer);
        span.setArg("iteration", static_cast<uint64_t>(i));
        active_spans += span.active() ? 1 : 0;
    }
    uint64_t after = g_heap_allocations.load();
    // The guard must not touch the heap when tracing is off — it is
    // constructed on the engine's per-seed/per-pass hot path.
    EXPECT_EQ(after, before);
    EXPECT_EQ(active_spans, 0u);
    EXPECT_TRUE(tracer.events().empty());
}

//===------------------------------------------------------------------===//
// Metrics registry
//===------------------------------------------------------------------===//

TEST(Metrics, ConcurrentUpdatesKeepExactTotals)
{
    support::MetricsRegistry registry;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIters = 20000;
    support::Counter &shared = registry.counter("test.shared");
    support::Histogram &histogram = registry.histogram("test.hist");

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&registry, &shared, &histogram, t] {
            // Get-or-create races with the other workers; the labeled
            // reference must be the same instrument for the same key.
            support::Counter &labeled = registry.counter(
                "test.labeled", t % 2 ? "odd" : "even");
            for (uint64_t i = 0; i < kIters; ++i) {
                shared.add();
                labeled.add();
                histogram.observe(i);
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    EXPECT_EQ(shared.value(), kThreads * kIters);
    EXPECT_EQ(registry.counterTotal("test.labeled"),
              kThreads * kIters);
    EXPECT_EQ(registry.counterValue("test.labeled", "even"),
              kThreads / 2 * kIters);
    EXPECT_EQ(registry.counterValue("test.labeled", "odd"),
              kThreads / 2 * kIters);
    EXPECT_EQ(histogram.count(), kThreads * kIters);
    EXPECT_EQ(histogram.sum(),
              kThreads * (kIters * (kIters - 1) / 2));

    std::string text = registry.dumpText();
    EXPECT_NE(text.find("test.labeled{even}"), std::string::npos);
    EXPECT_NE(text.find("test.shared"), std::string::npos);

    registry.reset();
    EXPECT_EQ(shared.value(), 0u); // references survive reset
    EXPECT_EQ(histogram.count(), 0u);
}

TEST(Metrics, HistogramBucketsByBitWidth)
{
    EXPECT_EQ(support::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(support::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(support::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(support::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(support::Histogram::bucketOf(1024), 11u);
    support::Histogram histogram;
    histogram.observe(0);
    histogram.observe(5);
    histogram.observe(5);
    EXPECT_EQ(histogram.bucket(0), 1u);
    EXPECT_EQ(histogram.bucket(3), 2u);
    EXPECT_DOUBLE_EQ(histogram.mean(), 10.0 / 3.0);
}

TEST(Metrics, InvalidSeedsAreClassifiedByReason)
{
    support::MetricsRegistry registry;
    core::CampaignOptions options;
    options.metrics = &registry;
    core::Campaign campaign = core::runCampaign(
        0, 60, {{CompilerId::Alpha, OptLevel::O1, SIZE_MAX}},
        options);

    uint64_t invalid_records = 0;
    for (const core::ProgramRecord &record : campaign.programs) {
        if (record.valid) {
            EXPECT_EQ(record.invalidReason,
                      core::InvalidReason::None);
        } else {
            ++invalid_records;
            EXPECT_NE(record.invalidReason,
                      core::InvalidReason::None);
        }
    }
    EXPECT_EQ(registry.counterTotal("campaign.invalid"),
              invalid_records);
    // Every invalid seed lands in exactly one labeled reason bucket.
    uint64_t by_reason = 0;
    for (core::InvalidReason reason :
         {core::InvalidReason::Timeout, core::InvalidReason::Trap,
          core::InvalidReason::NoEntry,
          core::InvalidReason::VerifierReject}) {
        by_reason += registry.counterValue(
            "campaign.invalid", core::invalidReasonName(reason));
    }
    EXPECT_EQ(by_reason, invalid_records);
    EXPECT_EQ(registry.counterValue("campaign.seeds"), 60u);
}

} // namespace
} // namespace dce
