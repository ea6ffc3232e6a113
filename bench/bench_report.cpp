/**
 * @file
 * Telemetry overhead microbenchmarks (google-benchmark): the cost of
 * the report layer's hot paths — event emission into the log, the
 * deterministic JSONL serialization, Prometheus exposition, a metrics
 * snapshot render, and a full campaign run with the event sink
 * attached versus without. The last pair is the budget that matters:
 * the event log is per-chunk/per-finding, so a campaign with events
 * on must sit within noise of one with events off.
 */
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "report/event_log.hpp"
#include "report/liveness.hpp"
#include "support/metrics.hpp"

using namespace dce;

static void
BM_EventEmit(benchmark::State &state)
{
    support::MetricsRegistry registry;
    report::EventLog log(&registry);
    uint64_t chunk = 0;
    for (auto _ : state) {
        support::Event event(
            "chunk_committed",
            {support::kPhaseChunk, chunk++,
             support::kChunkCommitMinor});
        event.num("chunk", chunk)
            .num("slots", 5)
            .num("valid", 5)
            .str("builds", "alpha-O3,beta-O3");
        log.emit(std::move(event));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventEmit);

static void
BM_EventLogSerialize(benchmark::State &state)
{
    // Serialize a log the size of a full longrun campaign (~hundreds
    // of events): sort + JSONL render.
    support::MetricsRegistry registry;
    report::EventLog log(&registry);
    for (uint64_t chunk = 120; chunk-- > 0;) {
        support::Event event(
            "chunk_committed",
            {support::kPhaseChunk, chunk,
             support::kChunkCommitMinor});
        event.num("chunk", chunk).num("slots", 5).num("findings", 1);
        log.emit(std::move(event));
        support::Event find("finding_discovered",
                            {support::kPhaseChunk, chunk, 2});
        find.num("seed", chunk * 977)
            .str("fingerprint", "prog:deadbeef|markers:3|by:a|ref:b");
        log.emit(std::move(find));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(log.toJsonl());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLogSerialize);

static support::MetricsRegistry &
populatedRegistry()
{
    static support::MetricsRegistry registry;
    static const bool initialized = [] {
        for (int i = 0; i < 24; ++i) {
            registry.counter("campaign.stage", "s" + std::to_string(i))
                .add(i * 7 + 1);
            registry
                .histogram("campaign.stage_us", "s" + std::to_string(i))
                .observe(uint64_t(1) << (i % 20));
        }
        return true;
    }();
    (void)initialized;
    return registry;
}

static void
BM_PrometheusExpose(benchmark::State &state)
{
    support::MetricsRegistry &registry = populatedRegistry();
    for (auto _ : state)
        benchmark::DoNotOptimize(registry.expose());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrometheusExpose);

static void
BM_SnapshotRender(benchmark::State &state)
{
    support::MetricsRegistry &registry = populatedRegistry();
    uint64_t seq = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            report::snapshotJsonLine(registry, seq++, 0));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotRender);

static corpus::CampaignPlan
benchPlan()
{
    corpus::CampaignPlan plan;
    plan.firstSeed = 5000;
    plan.count = 24;
    plan.chunkSize = 4;
    plan.builds = {
        {compiler::CompilerId::Alpha, compiler::OptLevel::O3,
         SIZE_MAX},
        {compiler::CompilerId::Beta, compiler::OptLevel::O3,
         SIZE_MAX},
    };
    plan.computePrimary = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

static void
BM_CheckpointedCampaignEvents(benchmark::State &state)
{
    // arg 0: events off; arg 1: events on. The pair bounds the event
    // log's overhead on a real checkpointed campaign.
    bool with_events = state.range(0) != 0;
    corpus::CampaignPlan plan = benchPlan();
    int iteration = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::string dir = "/tmp/dce_bench_report_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(iteration++);
        std::filesystem::remove_all(dir);
        state.ResumeTiming();
        {
            support::MetricsRegistry registry;
            report::EventLog log(&registry);
            auto store = corpus::CorpusStore::open(dir);
            corpus::CheckpointRunOptions options;
            options.metrics = &registry;
            options.events = with_events ? &log : nullptr;
            benchmark::DoNotOptimize(
                corpus::runCheckpointed(*store, plan, options));
        }
        state.PauseTiming();
        std::filesystem::remove_all(dir);
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * benchPlan().count);
}
BENCHMARK(BM_CheckpointedCampaignEvents)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
