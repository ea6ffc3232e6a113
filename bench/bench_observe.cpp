/**
 * @file
 * Observability-layer benchmarks (google-benchmark): what the §17
 * liveness surface costs. BM_TimeSeriesAppend / BM_TimeSeriesRead
 * price the seqlock ring's two sides; BM_SampleOnce is one liveness
 * tick (registry walk + five percentiles, ring publish, health);
 * BM_PercentileEstimate isolates the bucket-interpolation math;
 * BM_TraceMerge prices folding a fleet's per-process trace files;
 * BM_CampaignObserved mirrors bench_throughput's BM_Campaign with the
 * full liveness pipeline live — tracer on, a 50ms sampler with health
 * — so diffing the two measures the observed-campaign overhead
 * directly (budget: within noise).
 */
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include <unistd.h>

#include "core/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/trace_merge.hpp"
#include "report/liveness.hpp"
#include "support/trace.hpp"

using namespace dce;

namespace {

std::vector<core::BuildSpec>
campaignBuilds()
{
    return {
        {compiler::CompilerId::Alpha, compiler::OptLevel::O3, SIZE_MAX},
        {compiler::CompilerId::Beta, compiler::OptLevel::O3, SIZE_MAX},
    };
}

support::TimeSample
syntheticSample(uint64_t i)
{
    support::TimeSample sample;
    sample.wallMs = i;
    sample.seeds = i * 3;
    sample.findings = i / 7;
    sample.seedsPerSec = 120.0;
    sample.cacheHitRate = 0.4;
    sample.stageP99Us = {40.0, 900.0, 10000.0, 2500.0};
    sample.serveP99Us = 300.0;
    return sample;
}

/** A registry shaped like a mid-campaign one: the real counter names
 * plus populated stage histograms. */
void
fillRegistry(support::MetricsRegistry &registry)
{
    registry.counter("campaign.seeds").add(10000);
    registry.counter("campaign.progress", "findings").add(42);
    registry.counter("campaign.cache_hits").add(7000);
    registry.counter("campaign.cache_misses").add(3000);
    for (const char *stage : support::kTimeSeriesStages) {
        support::Histogram &h =
            registry.histogram("campaign.stage_us", stage);
        for (uint64_t i = 1; i <= 4096; ++i)
            h.observe(i * 11 % 20000);
    }
    support::Histogram &serve = registry.histogram("serve.request_us");
    for (uint64_t i = 1; i <= 1024; ++i)
        serve.observe(i * 13 % 4000);
}

} // namespace

static void
BM_TimeSeriesAppend(benchmark::State &state)
{
    support::TimeSeries series(512);
    uint64_t i = 0;
    for (auto _ : state)
        series.append(syntheticSample(++i));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesAppend)->Unit(benchmark::kNanosecond);

static void
BM_TimeSeriesRead(benchmark::State &state)
{
    // Read a full ring from the oldest retained sample — the
    // worst-case /timeseries request (a dashboard's first fetch).
    support::TimeSeries series(512);
    for (uint64_t i = 0; i < 1024; ++i)
        series.append(syntheticSample(i));
    for (auto _ : state)
        benchmark::DoNotOptimize(series.read(0));
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_TimeSeriesRead)->Unit(benchmark::kMicrosecond);

static void
BM_PercentileEstimate(benchmark::State &state)
{
    support::Histogram histogram;
    for (uint64_t i = 1; i <= 100000; ++i)
        histogram.observe(i * 7 % 50000);
    for (auto _ : state) {
        benchmark::DoNotOptimize(histogram.percentileEstimate(0.5));
        benchmark::DoNotOptimize(histogram.percentileEstimate(0.9));
        benchmark::DoNotOptimize(histogram.percentileEstimate(0.99));
    }
    state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_PercentileEstimate)->Unit(benchmark::kNanosecond);

static void
BM_SampleOnce(benchmark::State &state)
{
    // One liveness tick against a realistic registry: snapshot walk,
    // cache-rate division, five p99 interpolations, ring publish and
    // the health checks.
    support::MetricsRegistry registry;
    fillRegistry(registry);
    report::Liveness liveness({.registry = &registry});
    for (auto _ : state)
        benchmark::DoNotOptimize(liveness.sampleOnce());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleOnce)->Unit(benchmark::kMicrosecond);

static void
BM_TraceMerge(benchmark::State &state)
{
    // Fold a fleet's worth of per-process traces (state.range(0)
    // files x 512 spans) into one timeline — the post-run coordinator
    // step and the `longrun trace-merge` path.
    const uint64_t files = uint64_t(state.range(0));
    std::string dir = "/tmp/dce_bench_observe_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(fleet::tracesDir(dir));
    for (uint64_t f = 0; f < files; ++f) {
        support::Tracer tracer;
        tracer.setEnabled(true);
        tracer.setProcess(1000 + f,
                          "fleet-worker worker." + std::to_string(f));
        for (int i = 0; i < 512; ++i) {
            support::TraceSpan span("lease", "fleet", tracer);
            span.setArg("lease", uint64_t(i));
        }
        fleet::writeFileAtomic(fleet::workerTracePath(
                                   dir, "worker." + std::to_string(f)),
                               tracer.toJson());
    }
    std::string out = fleet::mergedTracePath(dir);
    for (auto _ : state) {
        auto merged = fleet::mergeTraces(dir, out);
        if (!merged) {
            state.SkipWithError("merge failed");
            break;
        }
        benchmark::DoNotOptimize(merged->events);
    }
    state.SetItemsProcessed(state.iterations() * files * 512);
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_TraceMerge)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

static void
BM_CampaignObserved(benchmark::State &state)
{
    // BM_Campaign (bench_throughput) with the full liveness pipeline
    // on: global tracer enabled and a 50ms sampler publishing to the
    // ring and checking health. Diff against BM_Campaign at the same
    // thread count for the observability overhead.
    constexpr unsigned kSeeds = 48;
    core::CampaignOptions options;
    options.threads = static_cast<unsigned>(state.range(0));
    core::CampaignRunner runner(campaignBuilds(), options);

    support::Tracer &tracer = support::Tracer::global();
    tracer.setEnabled(true);

    report::Liveness liveness({.intervalMs = 50});
    liveness.start();

    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(5000, kSeeds));

    liveness.stop();
    tracer.setEnabled(false);
    state.counters["spans"] = double(tracer.events().size());
    tracer.clear();
    state.SetItemsProcessed(state.iterations() * kSeeds);
}
BENCHMARK(BM_CampaignObserved)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
