/** @file Tests for the speculative parallel reducer (ddmin-with-
 * complement + memoization) and the classified triage interestingness
 * predicate: sweep/restart policy cost bounds, predicate preservation,
 * idempotence, serial/parallel bit-identity, memo effectiveness,
 * rejection classification, and parallel batch triage determinism. */
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "core/campaign.hpp"
#include "core/triage.hpp"
#include "corpus/store.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "reduce/reducer.hpp"
#include "report/event_log.hpp"
#include "support/hash.hpp"

namespace dce::reduce {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;

/** Parses and still textually calls DCEMarker0 — cheap enough to run
 * hundreds of times, strict enough that reduction has real structure
 * to preserve (the declaration must survive for the call to check). */
bool
parsesAndCallsMarker0(const std::string &candidate)
{
    if (candidate.find("DCEMarker0();") == std::string::npos)
        return false;
    DiagnosticEngine diags;
    return lang::parseAndCheck(candidate, diags) != nullptr;
}

std::string
declsFixture(unsigned decls)
{
    // `decls` removable lines plus two that must survive.
    std::string source;
    for (unsigned i = 0; i < decls; ++i)
        source += "int g" + std::to_string(i) + ";\n";
    source += "int main() { return g7; }\n";
    return source;
}

bool
keepsG7(const std::string &candidate)
{
    if (candidate.find("return g7;") == std::string::npos)
        return false;
    DiagnosticEngine diags;
    return lang::parseAndCheck(candidate, diags) != nullptr;
}

/** Dependency-chain predicate over declsFixture(63): every even-
 * numbered decl and main() must stay, and the odd decls are removable
 * only as a contiguous topmost group (g61 first, then g59, ...), the
 * shape of a use-def chain where only the last unreferenced line can
 * go. Exactly one line is removable per left-to-right sweep. */
bool
chainPredicate(const std::string &candidate)
{
    auto has = [&](int i) {
        return candidate.find("int g" + std::to_string(i) + ";") !=
               std::string::npos;
    };
    if (candidate.find("int main()") == std::string::npos)
        return false;
    for (int i = 0; i < 63; i += 2)
        if (!has(i))
            return false;
    bool lower_must_stay = false;
    for (int i = 61; i >= 1; i -= 2) {
        if (has(i))
            lower_must_stay = true; // gap below a kept odd decl
        else if (lower_must_stay)
            return false; // not a topmost contiguous removal
    }
    return true;
}

TEST(Reduce, TestsRunUpperBoundOnKnownInput)
{
    // Regression test for the seed sweep/restart bug: the seed
    // restarted the full halving cascade after *any* productive pass,
    // so on this chain input — one removable line per sweep — it paid
    // the whole cascade per removed line: 2728 predicate tests
    // (measured). The fixed sweep repeats only the size-1 sweep until
    // unproductive and decides the same reduction in 1713 canonical
    // tests.
    std::string source = declsFixture(63);
    ReduceResult result = reduceSource(source, chainPredicate);
    EXPECT_TRUE(chainPredicate(result.source));
    EXPECT_EQ(result.linesAfter, 33u) << result.source;
    EXPECT_LE(result.testsRun, 1800u);
}

TEST(Reduce, ParallelBitIdenticalAndIdempotentOnGeneratorSeeds)
{
    // The ISSUE 3 property triplet, over >= 20 generator programs:
    // (1) the reduced output still satisfies the predicate;
    // (2) reduction is idempotent (re-reducing changes nothing);
    // (3) 8-worker speculative reduction is bit-identical to serial.
    unsigned reduced_nontrivially = 0;
    for (uint64_t seed = 7000; seed < 7020; ++seed) {
        instrument::Instrumented prog = core::makeProgram(seed);
        std::string source = lang::printUnit(*prog.unit);
        if (!parsesAndCallsMarker0(source))
            continue; // marker 0 not present in this program's text

        ReduceOptions serial_options;
        serial_options.workers = 1;
        ReduceResult serial = ParallelReducer(serial_options)
                                  .reduce(source, parsesAndCallsMarker0);
        EXPECT_TRUE(parsesAndCallsMarker0(serial.source)) << seed;
        if (serial.linesAfter < serial.linesBefore)
            ++reduced_nontrivially;

        ReduceOptions parallel_options;
        parallel_options.workers = 8;
        ReduceResult parallel =
            ParallelReducer(parallel_options)
                .reduce(source, parsesAndCallsMarker0);
        EXPECT_EQ(parallel.source, serial.source) << seed;
        EXPECT_EQ(parallel.testsRun, serial.testsRun) << seed;
        EXPECT_EQ(parallel.linesAfter, serial.linesAfter) << seed;
        EXPECT_EQ(parallel.passes, serial.passes) << seed;

        ReduceResult again = ParallelReducer(serial_options)
                                 .reduce(serial.source,
                                         parsesAndCallsMarker0);
        EXPECT_EQ(again.source, serial.source) << seed;
        EXPECT_EQ(again.linesAfter, serial.linesAfter) << seed;
    }
    // The corpus must actually exercise the reducer.
    EXPECT_GE(reduced_nontrivially, 15u);
}

TEST(Reduce, MemoizationMakesFixpointPassFree)
{
    support::MetricsRegistry registry;
    ReduceOptions options;
    options.metrics = &registry;
    ReduceResult result = ParallelReducer(options).reduce(
        declsFixture(31), keepsG7);
    EXPECT_EQ(result.linesAfter, 2u);
    EXPECT_GE(result.passes, 2u); // final pass verifies the fixpoint

    // Canonical decisions >= real predicate invocations: the memo
    // answered the difference without re-running the predicate.
    uint64_t invocations = registry.counterValue("reduce.tests");
    uint64_t memo_hits = registry.counterValue("reduce.cache_hits");
    EXPECT_GT(memo_hits, 0u);
    EXPECT_LT(invocations, result.testsRun);
    EXPECT_GT(registry.histogram("reduce.wall_us").count(), 0u);
}

TEST(Reduce, BudgetBoundsCanonicalTests)
{
    ReduceOptions options;
    options.maxTests = 10;
    ReduceResult result =
        ParallelReducer(options).reduce(declsFixture(63), keepsG7);
    EXPECT_LE(result.testsRun, 10u);
    EXPECT_TRUE(keepsG7(result.source)); // partial but still valid
}

TEST(Reduce, UninterestingInputUnchangedWithOneTest)
{
    ReduceResult result = reduceSource(
        "int main() { return 0; }",
        [](const std::string &) { return false; });
    EXPECT_EQ(result.testsRun, 1u);
    EXPECT_EQ(result.passes, 0u);
    EXPECT_EQ(result.source, "int main() { return 0; }");
}

} // namespace
} // namespace dce::reduce

namespace dce::core {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;

BuildSpec
alphaO3()
{
    return {CompilerId::Alpha, OptLevel::O3, SIZE_MAX};
}

BuildSpec
betaO3()
{
    return {CompilerId::Beta, OptLevel::O3, SIZE_MAX};
}

TEST(Triage, InterestingnessClassifiesEveryRejection)
{
    support::MetricsRegistry registry;
    InterestingnessTest interesting(0, alphaO3(), betaO3(), &registry);
    auto reject_count = [&](RejectReason reason) {
        return registry.counterValue("reduce.reject",
                                     rejectReasonName(reason));
    };

    RejectReason why = RejectReason::ParseFail;
    EXPECT_FALSE(interesting.test("int main( {", &why));
    EXPECT_EQ(why, RejectReason::ParseFail);

    EXPECT_FALSE(
        interesting.test("int main() { return 0; }", &why));
    EXPECT_EQ(why, RejectReason::MarkerAbsent);

    // The interpreter hits its step budget: previously this was lumped
    // into plain "not interesting"; now it is diagnosable.
    EXPECT_FALSE(interesting.test(R"(
        void DCEMarker0(void);
        int x;
        int main() {
            while (1) { x = x + 1; }
            DCEMarker0();
            return 0;
        }
    )",
                                  &why));
    EXPECT_EQ(why, RejectReason::TrapTimeout);

    EXPECT_FALSE(interesting.test(R"(
        void DCEMarker0(void);
        int main() { DCEMarker0(); return 0; }
    )",
                                  &why));
    EXPECT_EQ(why, RejectReason::Executed);

    // Dead, but both builds eliminate it: no differential.
    EXPECT_FALSE(interesting.test(R"(
        void DCEMarker0(void);
        int main() {
            if (0) { DCEMarker0(); }
            return 0;
        }
    )",
                                  &why));
    EXPECT_EQ(why, RejectReason::NotDifferential);

    // Listing 4a's store-equals-init shape: alpha misses, beta
    // eliminates — interesting, and `why` is left untouched.
    RejectReason untouched = RejectReason::ParseFail;
    EXPECT_TRUE(interesting.test(R"(
        void DCEMarker0(void);
        static int a = 0;
        int x;
        int main() {
            if (a) { x = 5; DCEMarker0(); }
            a = 0;
            return 0;
        }
    )",
                                 &untouched));
    EXPECT_EQ(untouched, RejectReason::ParseFail);

    EXPECT_EQ(reject_count(RejectReason::ParseFail), 1u);
    EXPECT_EQ(reject_count(RejectReason::MarkerAbsent), 1u);
    EXPECT_EQ(reject_count(RejectReason::TrapTimeout), 1u);
    EXPECT_EQ(reject_count(RejectReason::Executed), 1u);
    EXPECT_EQ(reject_count(RejectReason::NotDifferential), 1u);
    // Pipelines: 1 for the not-differential probe (alpha eliminated
    // it, reference never ran) + 2 for the accepted candidate.
    EXPECT_EQ(registry.counterValue("reduce.compiles"), 3u);
}

TEST(Triage, RejectReasonNamesAreStable)
{
    EXPECT_STREQ(rejectReasonName(RejectReason::ParseFail),
                 "parse-fail");
    EXPECT_STREQ(rejectReasonName(RejectReason::MarkerAbsent),
                 "marker-absent");
    EXPECT_STREQ(rejectReasonName(RejectReason::TrapTimeout),
                 "trap-timeout");
    EXPECT_STREQ(rejectReasonName(RejectReason::Executed), "executed");
    EXPECT_STREQ(rejectReasonName(RejectReason::NotDifferential),
                 "not-differential");
}

/** A verdict cache that also records every store() key, in order,
 * and how many events the watched log held at that moment. */
class RecordingVerdictCache : public corpus::MemoryVerdictCache {
  public:
    void watch(const report::EventLog *events) { events_ = events; }

    void
    store(const VerdictKey &key, const CachedVerdict &verdict) override
    {
        MemoryVerdictCache::store(key, verdict);
        std::lock_guard<std::mutex> lock(mutex_);
        stored_.push_back(key.fingerprint());
        eventsAtStore_.push_back(events_ ? events_->size() : 0);
    }

    std::vector<std::string>
    stored() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stored_;
    }

    std::vector<size_t>
    eventsAtStore() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return eventsAtStore_;
    }

  private:
    mutable std::mutex mutex_;
    const report::EventLog *events_ = nullptr;
    std::vector<std::string> stored_;
    std::vector<size_t> eventsAtStore_;
};

TEST(Triage, ParallelBatchTriageMatchesSerial)
{
    CampaignOptions campaign_options;
    campaign_options.computePrimary = true;
    Campaign campaign =
        runCampaign(200, 12, {alphaO3(), betaO3()}, campaign_options);
    std::vector<Finding> findings = collectFindings(
        campaign, alphaO3(), betaO3(), /*max_findings=*/3);
    if (findings.size() < 2)
        GTEST_SKIP() << "corpus produced too few alpha-vs-beta findings";

    // Sources grow with the finding index, so the longest-first order
    // the pool draws is the exact reverse of index order.
    auto source_of = [](const Finding &finding) {
        return lang::printUnit(*makeProgram(finding.seed).unit);
    };
    std::stable_sort(findings.begin(), findings.end(),
                     [&](const Finding &a, const Finding &b) {
                         return source_of(a).size() <
                                source_of(b).size();
                     });
    ASSERT_LT(source_of(findings.front()).size(),
              source_of(findings.back()).size());
    std::vector<VerdictKey> keys;
    for (const Finding &finding : findings) {
        VerdictKey key;
        key.programHash = support::fnv1a64Hex(source_of(finding));
        key.markers = {finding.marker};
        key.missedBy = finding.missedBy.name();
        key.reference = finding.reference.name();
        keys.push_back(key);
    }

    struct Run {
        support::MetricsRegistry registry;
        TriageSummary summary;
        RecordingVerdictCache cache;
        report::EventLog events{&registry};
    };
    // One thread against four (with two reduce workers each), plain
    // and with a verdict cache and an event log attached.
    auto triage = [&](bool parallel, bool cached, Run &run) {
        TriageOptions options;
        options.maxTests = 300;
        if (parallel) {
            options.threads = 4;
            options.reduceWorkers = 2;
        }
        options.metrics = &run.registry;
        if (cached) {
            run.cache.watch(&run.events);
            options.verdictCache = &run.cache;
            options.events = &run.events;
        }
        run.summary = triageFindings(findings, options);
    };
    for (bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "cache and events" : "plain");
        Run serial;
        Run parallel;
        triage(false, cached, serial);
        triage(true, cached, parallel);

        ASSERT_EQ(parallel.summary.reports.size(),
                  serial.summary.reports.size());
        for (size_t i = 0; i < serial.summary.reports.size(); ++i) {
            const Report &a = serial.summary.reports[i];
            const Report &b = parallel.summary.reports[i];
            EXPECT_EQ(b.finding.seed, a.finding.seed) << i;
            EXPECT_EQ(b.reducedSource, a.reducedSource) << i;
            EXPECT_EQ(b.signature, a.signature) << i;
            EXPECT_EQ(b.reductionTests, a.reductionTests) << i;
            EXPECT_EQ(b.confirmed, a.confirmed) << i;
            EXPECT_EQ(b.duplicate, a.duplicate) << i;
            EXPECT_EQ(b.fixed, a.fixed) << i;
        }
        if (!cached)
            continue;

        // Fresh verdicts reach the cache in findings order, whatever
        // order the pool reduced them in, and hold the same verdicts.
        std::vector<std::string> expected;
        for (const VerdictKey &key : keys)
            expected.push_back(key.fingerprint());
        EXPECT_EQ(serial.cache.stored(), expected);
        EXPECT_EQ(parallel.cache.stored(), expected);
        for (const VerdictKey &key : keys) {
            std::optional<CachedVerdict> a = serial.cache.lookup(key);
            std::optional<CachedVerdict> b = parallel.cache.lookup(key);
            ASSERT_TRUE(a && b) << key.fingerprint();
            EXPECT_EQ(b->reducedSource, a->reducedSource);
            EXPECT_EQ(b->signature, a->signature);
            EXPECT_EQ(b->fixed, a->fixed);
            EXPECT_EQ(b->reductionTests, a->reductionTests);
        }

        // Emission order differs; the key-ordered logs do not.
        EXPECT_EQ(parallel.events.toJsonl(), serial.events.toJsonl());
        EXPECT_EQ(serial.events.size(), 2 * findings.size());
        // Serially the pool reduces the last finding first, so no
        // findings-order prefix completes before every reduction has
        // finished (one reduction_finished event each).
        EXPECT_EQ(serial.cache.eventsAtStore(),
                  std::vector<size_t>(findings.size(), findings.size()));
    }

    // Findings already longest first: serially, each verdict is stored
    // as soon as its reduction finishes, before the next one's
    // reduction_finished event — a kill keeps every finished one.
    std::reverse(findings.begin(), findings.end());
    std::reverse(keys.begin(), keys.end());
    Run longest_first;
    triage(false, true, longest_first);
    std::vector<std::string> expected;
    std::vector<size_t> events_at_store;
    for (size_t i = 0; i < keys.size(); ++i) {
        expected.push_back(keys[i].fingerprint());
        events_at_store.push_back(i + 1);
    }
    EXPECT_EQ(longest_first.cache.stored(), expected);
    EXPECT_EQ(longest_first.cache.eventsAtStore(), events_at_store);
}

} // namespace
} // namespace dce::core
