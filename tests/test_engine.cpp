/** @file Tests for the parallel campaign execution engine: the thread
 * pool, module cloning (the lowering cache's workhorse), the
 * determinism contract (thread count never changes the records), and
 * the observer/metrics layer. */
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "backend/codegen.hpp"
#include "core/campaign.hpp"
#include "ir/clone.hpp"
#include "ir/lowering.hpp"
#include "ir/verifier.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dce::core {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;

std::vector<BuildSpec>
twoBuilds()
{
    return {
        {CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
        {CompilerId::Beta, OptLevel::O3, SIZE_MAX},
    };
}

TEST(ThreadPool, ForChunksCoversRangeExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 7u}) {
        support::ThreadPool pool(threads);
        constexpr size_t kCount = 103;
        std::vector<std::atomic<int>> touched(kCount);
        pool.forChunks(kCount, 4, [&](size_t begin, size_t end) {
            ASSERT_LT(begin, end);
            ASSERT_LE(end, kCount);
            for (size_t i = begin; i < end; ++i)
                touched[i].fetch_add(1);
        });
        for (size_t i = 0; i < kCount; ++i)
            EXPECT_EQ(touched[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ForChunksHandlesEmptyAndTinyRanges)
{
    support::ThreadPool pool(4);
    int calls = 0;
    pool.forChunks(0, 8, [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    std::atomic<size_t> total{0};
    pool.forChunks(3, 100, [&](size_t begin, size_t end) {
        total += end - begin;
    });
    EXPECT_EQ(total.load(), 3u);
}

TEST(ThreadPool, PropagatesWorkerExceptions)
{
    support::ThreadPool pool(4);
    EXPECT_THROW(pool.forChunks(64, 1,
                                [&](size_t begin, size_t) {
                                    if (begin == 13)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<size_t> total{0};
    pool.forChunks(10, 2, [&](size_t begin, size_t end) {
        total += end - begin;
    });
    EXPECT_EQ(total.load(), 10u);
}

TEST(ThreadPool, SubmitAndWaitRunsEverything)
{
    support::ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 20);
}

TEST(CloneModule, CloneIsIsomorphicAndIndependent)
{
    // Clone a real generated program's O0 lowering; the clone must
    // verify, emit identical assembly, and keep the original intact
    // when optimized.
    instrument::Instrumented prog = makeProgram(/*seed=*/42);
    auto lowered = ir::lowerToIr(*prog.unit);
    std::string original_asm = backend::emitAssembly(*lowered);

    auto clone = ir::cloneModule(*lowered);
    ir::VerifyResult verified = ir::verifyModule(*clone);
    EXPECT_TRUE(verified.ok()) << verified.str();
    EXPECT_EQ(backend::emitAssembly(*clone), original_asm);

    // Optimizing the clone must not touch the source module.
    compiler::Compiler beta(CompilerId::Beta, OptLevel::O3);
    beta.optimize(*clone);
    verified = ir::verifyModule(*clone);
    EXPECT_TRUE(verified.ok()) << verified.str();
    EXPECT_EQ(backend::emitAssembly(*lowered), original_asm);
}

TEST(CloneModule, LoweredPathMatchesUnitPath)
{
    // The lowering-cache compile path (clone + optimize) must report
    // the same alive markers as compiling from the AST.
    for (uint64_t seed : {7u, 42u, 99u}) {
        instrument::Instrumented prog = makeProgram(seed);
        auto lowered = ir::lowerToIr(*prog.unit);
        for (const BuildSpec &spec : twoBuilds()) {
            compiler::Compiler comp = spec.make();
            EXPECT_EQ(aliveMarkers(*lowered, comp),
                      aliveMarkers(*prog.unit, comp))
                << "seed " << seed << " build " << spec.name();
        }
    }
}

TEST(Engine, RecordsAreIdenticalAcrossThreadCounts)
{
    // The determinism contract: same seeds + builds => bit-identical
    // records, regardless of thread count or chunking.
    std::vector<BuildSpec> builds = twoBuilds();
    support::MetricsRegistry serial_registry, parallel_registry;
    CampaignOptions serial;
    serial.computePrimary = true;
    serial.collectRemarks = true; // kills are part of the contract too
    serial.threads = 1;
    serial.metrics = &serial_registry;

    CampaignOptions parallel = serial;
    parallel.threads = 8;
    parallel.chunkSize = 3; // deliberately awkward chunking
    parallel.metrics = &parallel_registry;

    Campaign one = runCampaign(0, 32, builds, serial);
    Campaign eight = runCampaign(0, 32, builds, parallel);

    ASSERT_EQ(one.programs.size(), eight.programs.size());
    for (size_t i = 0; i < one.programs.size(); ++i) {
        EXPECT_EQ(one.programs[i], eight.programs[i])
            << "seed " << one.programs[i].seed;
    }
    EXPECT_EQ(one.builds, eight.builds);
    // Count-style metrics are deterministic as well; only timings vary.
    for (const char *key :
         {"campaign.seeds", "campaign.cache_hits",
          "campaign.cache_misses"}) {
        EXPECT_EQ(serial_registry.counterValue(key),
                  parallel_registry.counterValue(key))
            << key;
    }
    EXPECT_EQ(serial_registry.counterTotal("campaign.invalid"),
              parallel_registry.counterTotal("campaign.invalid"));
    EXPECT_EQ(
        serial_registry.counterTotal("campaign.markers_eliminated"),
        parallel_registry.counterTotal("campaign.markers_eliminated"));
}

TEST(Engine, ObserverSeesMonotoneProgressAndFinalTotals)
{
    constexpr unsigned kSeeds = 24;
    std::vector<CampaignProgress> snapshots;
    std::mutex snapshots_mutex;

    support::MetricsRegistry registry;
    CampaignOptions options;
    options.threads = 4;
    options.chunkSize = 2;
    options.metrics = &registry;
    options.observer = [&](const CampaignProgress &progress) {
        std::lock_guard<std::mutex> lock(snapshots_mutex);
        snapshots.push_back(progress);
    };
    Campaign campaign = runCampaign(300, kSeeds, twoBuilds(), options);

    // One callback per seed, seedsDone strictly increasing to count.
    ASSERT_EQ(snapshots.size(), kSeeds);
    for (size_t i = 0; i < snapshots.size(); ++i) {
        EXPECT_EQ(snapshots[i].seedsDone, i + 1);
        EXPECT_EQ(snapshots[i].seedsTotal, kSeeds);
    }

    // Final snapshot agrees with the campaign's metrics registry and
    // with the records.
    const CampaignProgress &final_progress = snapshots.back();
    EXPECT_EQ(final_progress.seedsDone, campaign.metrics.seedsDone);
    EXPECT_EQ(final_progress.invalidPrograms,
              registry.counterTotal("campaign.invalid"));
    EXPECT_EQ(final_progress.cacheHits,
              registry.counterValue("campaign.cache_hits"));
    EXPECT_EQ(final_progress.cacheMisses,
              registry.counterValue("campaign.cache_misses"));
    uint64_t invalid_records = 0;
    for (const ProgramRecord &record : campaign.programs)
        invalid_records += record.valid ? 0 : 1;
    EXPECT_EQ(final_progress.invalidPrograms, invalid_records);
}

TEST(Engine, EachSeedExecutesItsO0ModuleOnce)
{
    // Ground truth records the executed blocks, and the primary
    // analysis reuses them instead of running the module again.
    constexpr unsigned kSeeds = 24;
    std::vector<BuildSpec> builds = twoBuilds();
    support::MetricsRegistry registry;
    CampaignOptions options;
    options.computePrimary = true;
    options.threads = 1;
    options.metrics = &registry;
    support::Tracer &tracer = support::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    Campaign campaign = runCampaign(0, kSeeds, builds, options);
    tracer.setEnabled(false);
    std::vector<support::Tracer::Event> events = tracer.events();
    tracer.clear();

    size_t executions = 0;
    for (const support::Tracer::Event &event : events)
        executions += event.name == "execute" && event.category == "interp";
    EXPECT_EQ(executions, kSeeds);
    size_t with_primary = 0;
    for (const ProgramRecord &record : campaign.programs) {
        for (size_t b = 0; b < builds.size(); ++b)
            with_primary += !record.primaryFor(BuildId{b}).empty();
    }
    EXPECT_GT(with_primary, 0u) << "no seed exercised the primary analysis";
}

TEST(Engine, MetricsAccountForTheLoweringCache)
{
    constexpr unsigned kSeeds = 12;
    std::vector<BuildSpec> builds = twoBuilds();
    support::MetricsRegistry registry;
    CampaignOptions options;
    options.threads = 2;
    options.metrics = &registry;
    Campaign campaign = runCampaign(0, kSeeds, builds, options);

    // Exactly one lowering (miss) per seed; at least ground truth plus
    // one clone per build per valid seed on the hit side.
    uint64_t hits = registry.counterValue("campaign.cache_hits");
    uint64_t misses = registry.counterValue("campaign.cache_misses");
    EXPECT_EQ(misses, kSeeds);
    uint64_t valid_seeds = 0;
    for (const ProgramRecord &record : campaign.programs)
        valid_seeds += record.valid ? 1 : 0;
    EXPECT_GE(hits, kSeeds + valid_seeds * builds.size());
    EXPECT_GT(double(hits) / double(hits + misses), 0.5);
    EXPECT_EQ(registry.counterValue("campaign.seeds"), kSeeds);
    EXPECT_EQ(campaign.metrics.seedsDone, kSeeds);
    EXPECT_GT(campaign.metrics.wallSeconds, 0.0);

    // Every seed contributes one sample to the generate/ground-truth
    // histograms; compile is sampled per build, valid seeds only.
    EXPECT_EQ(registry.histogram("campaign.stage_us", "generate")
                  .count(),
              kSeeds);
    EXPECT_EQ(registry.histogram("campaign.stage_us", "ground_truth")
                  .count(),
              kSeeds);
    EXPECT_EQ(registry.histogram("campaign.stage_us", "compile")
                  .count(),
              valid_seeds * builds.size());

    // Marker-elimination counters exist per opt level and only count
    // what the records say was eliminated (trueDead ∖ missed).
    uint64_t eliminated = 0;
    for (const ProgramRecord &record : campaign.programs) {
        if (!record.valid)
            continue;
        for (size_t b = 0; b < builds.size(); ++b) {
            eliminated += record.trueDead.size() -
                          record.missedFor(BuildId{b}).size();
        }
    }
    EXPECT_EQ(
        registry.counterTotal("campaign.markers_eliminated"),
        eliminated);
}

} // namespace
} // namespace dce::core
