/** @file Tests for the fleet-wide observability layer (DESIGN.md §17):
 * histogram percentile estimation and merge/absorb edge cases, the
 * lock-free time-series ring, the liveness sampler's derivation and
 * EWMA throughput detection (and its /readyz wiring), the /timeseries
 * and /dashboard
 * endpoints, cross-process trace merging, and a traced fleet's
 * byte-identity with the single-process reference run. */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/trace_merge.hpp"
#include "report/event_log.hpp"
#include "report/liveness.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/timeseries.hpp"
#include "support/trace.hpp"

namespace fs = std::filesystem;

namespace dce {
namespace {

using support::Histogram;
using support::MetricsRegistry;
using support::TimeSample;
using support::TimeSeries;

/** Fresh scratch directory, removed on destruction. */
class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_observe_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

corpus::CampaignPlan
smallPlan()
{
    corpus::CampaignPlan plan;
    plan.count = 18;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {
        {compiler::CompilerId::Alpha, compiler::OptLevel::O3,
         SIZE_MAX},
        {compiler::CompilerId::Beta, compiler::OptLevel::O3,
         SIZE_MAX},
    };
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

//===------------------------------------------------------------------===//
// Histogram percentiles + saturation
//===------------------------------------------------------------------===//

TEST(ObserveHistogram, BucketOfSaturatesInsteadOfOverflowing)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf((uint64_t(1) << 62) - 1), 62u);
    // Values at/above 2^63 used to index one past the bucket array;
    // they must land in the top bucket instead.
    EXPECT_EQ(Histogram::bucketOf(uint64_t(1) << 62), 63u);
    EXPECT_EQ(Histogram::bucketOf(uint64_t(1) << 63), 63u);
    EXPECT_EQ(Histogram::bucketOf(~uint64_t{0}), 63u);

    Histogram histogram;
    histogram.observe(~uint64_t{0});
    EXPECT_EQ(histogram.bucket(63), 1u);
    EXPECT_EQ(histogram.count(), 1u);
}

TEST(ObserveHistogram, PercentileExactAtBucketBoundaries)
{
    Histogram histogram;
    EXPECT_EQ(histogram.percentileEstimate(0.5), 0.0); // empty

    // All-zero samples: bucket 0 is exactly the value 0.
    for (int i = 0; i < 10; ++i)
        histogram.observe(0);
    EXPECT_EQ(histogram.percentileEstimate(0.5), 0.0);
    EXPECT_EQ(histogram.percentileEstimate(0.99), 0.0);

    // A single-value bucket ([1,1]) is exact at every quantile.
    Histogram ones;
    for (int i = 0; i < 100; ++i)
        ones.observe(1);
    EXPECT_EQ(ones.percentileEstimate(0.01), 1.0);
    EXPECT_EQ(ones.percentileEstimate(0.5), 1.0);
    EXPECT_EQ(ones.percentileEstimate(1.0), 1.0);

    // One sample: every quantile is that sample's bucket floor, which
    // for a power of two is the sample itself.
    Histogram single;
    single.observe(16);
    EXPECT_EQ(single.percentileEstimate(0.0), 16.0);
    EXPECT_EQ(single.percentileEstimate(0.5), 16.0);
    EXPECT_EQ(single.percentileEstimate(1.0), 16.0);
}

TEST(ObserveHistogram, PercentileInterpolatesWithinBuckets)
{
    // 50 fast samples (1µs) + 50 slow (1000µs, bucket [512,1023]).
    Histogram histogram;
    for (int i = 0; i < 50; ++i)
        histogram.observe(1);
    for (int i = 0; i < 50; ++i)
        histogram.observe(1000);

    EXPECT_EQ(histogram.percentileEstimate(0.5), 1.0);
    // Rank 51 is the first slow sample: exactly the bucket floor.
    EXPECT_EQ(histogram.percentileEstimate(0.51), 512.0);
    double p90 = histogram.percentileEstimate(0.9);
    EXPECT_GE(p90, 512.0);
    EXPECT_LE(p90, 1023.0);
    double p99 = histogram.percentileEstimate(0.99);
    EXPECT_GT(p99, p90);
    EXPECT_LE(p99, 1023.0);

    // The snapshot-based form sees the same state, same answer.
    MetricsRegistry registry;
    registry.histogram("campaign.stage_us", "compile")
        .merge(histogram);
    auto hists = registry.histograms();
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(Histogram::percentileFromBuckets(
                  hists[0].second.buckets, hists[0].second.count, 0.9),
              p90);
}

TEST(ObserveHistogram, MergeAndAbsorbEdgeCases)
{
    // Empty into empty: still empty, and expose() stays consistent.
    Histogram a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0u);

    // Saturated top bucket survives a merge and an absorb.
    Histogram top;
    top.observe(~uint64_t{0});
    top.observe(uint64_t(1) << 63);
    a.merge(top);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.bucket(63), 2u);

    MetricsRegistry registry;
    Histogram &target = registry.histogram("campaign.stage_us", "io");
    std::array<uint64_t, Histogram::kBuckets> buckets{};
    buckets[0] = 1;  // one zero-valued sample
    buckets[63] = 2; // two saturated samples
    target.absorb(3, 12345, buckets);
    target.absorb(0, 0, std::array<uint64_t, Histogram::kBuckets>{});
    EXPECT_EQ(target.count(), 3u);
    EXPECT_EQ(target.sum(), 12345u);
    EXPECT_EQ(target.bucket(63), 2u);

    // Exposition invariant after absorb: the cumulative +Inf bucket
    // equals _count, and _sum matches, even with a saturated top.
    std::string exposed = registry.expose();
    EXPECT_NE(exposed.find("campaign_stage_us_bucket{label=\"io\","
                           "le=\"+Inf\"} 3"),
              std::string::npos)
        << exposed;
    EXPECT_NE(exposed.find("campaign_stage_us_sum{label=\"io\"} 12345"),
              std::string::npos)
        << exposed;
    EXPECT_NE(
        exposed.find("campaign_stage_us_count{label=\"io\"} 3"),
        std::string::npos)
        << exposed;
}

//===------------------------------------------------------------------===//
// Time-series ring
//===------------------------------------------------------------------===//

TimeSample
makeSample(uint64_t seeds)
{
    TimeSample sample;
    sample.wallMs = 1000 + seeds;
    sample.seeds = seeds;
    sample.findings = seeds / 2;
    sample.seedsPerSec = double(seeds) * 0.5;
    sample.cacheHitRate = 0.25;
    sample.stageP99Us = {1.0, 2.0, 3.0, 4.0};
    sample.serveP99Us = 9.5;
    return sample;
}

TEST(ObserveTimeSeries, AppendReadRoundTripAndCursor)
{
    TimeSeries series(4);
    EXPECT_EQ(series.next(), 0u);
    EXPECT_TRUE(series.read(0).empty());

    for (uint64_t i = 0; i < 3; ++i)
        series.append(makeSample(i * 10));
    EXPECT_EQ(series.next(), 3u);

    std::vector<TimeSample> all = series.read(0);
    ASSERT_EQ(all.size(), 3u);
    for (uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(all[i].seq, i);
        EXPECT_EQ(all[i].seeds, i * 10);
        EXPECT_EQ(all[i].findings, i * 10 / 2);
        EXPECT_DOUBLE_EQ(all[i].seedsPerSec, double(i * 10) * 0.5);
        EXPECT_DOUBLE_EQ(all[i].cacheHitRate, 0.25);
        EXPECT_DOUBLE_EQ(all[i].stageP99Us[3], 4.0);
        EXPECT_DOUBLE_EQ(all[i].serveP99Us, 9.5);
    }

    // The since cursor pages incrementally, like /events.
    std::vector<TimeSample> tail = series.read(2);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].seq, 2u);
    EXPECT_TRUE(series.read(3).empty());
    EXPECT_TRUE(series.read(100).empty());
}

TEST(ObserveTimeSeries, WraparoundKeepsNewestCapacitySamples)
{
    TimeSeries series(4);
    for (uint64_t i = 0; i < 10; ++i)
        series.append(makeSample(i));
    EXPECT_EQ(series.next(), 10u);
    std::vector<TimeSample> kept = series.read(0);
    ASSERT_EQ(kept.size(), 4u);
    for (size_t i = 0; i < kept.size(); ++i) {
        EXPECT_EQ(kept[i].seq, 6 + i);
        EXPECT_EQ(kept[i].seeds, 6 + i);
    }
}

TEST(ObserveTimeSeries, ConcurrentReadersNeverSeeTornSamples)
{
    // Readers hammer the ring while the writer laps it. Every sample a
    // reader returns must be internally consistent (fields derived
    // from seeds agree), and seqs must be strictly increasing within
    // one read. Run under TSan for the memory-order claim.
    TimeSeries series(8);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> torn{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                std::vector<TimeSample> got = series.read(0);
                uint64_t last_seq = 0;
                bool have_last = false;
                for (const TimeSample &sample : got) {
                    if (have_last && sample.seq <= last_seq)
                        torn.fetch_add(1);
                    have_last = true;
                    last_seq = sample.seq;
                    if (sample.wallMs != 1000 + sample.seeds ||
                        sample.findings != sample.seeds / 2)
                        torn.fetch_add(1);
                }
            }
        });
    }
    for (uint64_t i = 0; i < 20000; ++i)
        series.append(makeSample(i));
    stop.store(true);
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(series.next(), 20000u);
}

TEST(ObserveTimeSeries, JsonShapeAndQuotedDecimals)
{
    TimeSeries series(8);
    series.append(makeSample(40));
    series.append(makeSample(60));

    std::string json = support::timeSeriesJson(series, 0);
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(json);
    ASSERT_TRUE(doc) << json;
    EXPECT_EQ(doc->getU64("capacity"), 8u);
    EXPECT_EQ(doc->getU64("next"), 2u);
    const support::JsonValue *points = doc->get("points");
    ASSERT_TRUE(points && points->isArray());
    ASSERT_EQ(points->items.size(), 2u);
    const support::JsonValue &first = points->items[0];
    EXPECT_EQ(first.getU64("seq"), 0u);
    EXPECT_EQ(first.getU64("seeds"), 40u);
    // Decimals ride as quoted "%.3f" strings, the repo's JSON rule.
    EXPECT_EQ(first.getString("seeds_per_sec"), "20.000");
    EXPECT_EQ(first.getString("cache_hit_rate"), "0.250");
    const support::JsonValue *stages = first.get("stage_p99_us");
    ASSERT_TRUE(stages && stages->isObject());
    EXPECT_EQ(stages->getString("generate"), "1.000");
    EXPECT_EQ(stages->getString("primary"), "4.000");

    // since=1 returns only the newer point.
    std::optional<support::JsonValue> tail =
        support::JsonValue::parse(support::timeSeriesJson(series, 1));
    ASSERT_TRUE(tail);
    EXPECT_EQ(tail->get("points")->items.size(), 1u);
}

TEST(ObserveTimeSeries, SamplerDerivesRatesFromRegistry)
{
    MetricsRegistry registry;
    registry.counter("campaign.seeds").add(100);
    registry.counter("campaign.progress", "findings").add(7);
    registry.counter("campaign.cache_hits").add(30);
    registry.counter("campaign.cache_misses").add(10);
    // Single samples at bucket floors so the p99 estimate is exact.
    registry.histogram("campaign.stage_us", "compile").observe(64);
    registry.histogram("serve.request_us").observe(256);

    uint64_t fake_us = 10'000'000;
    report::Liveness liveness(
        {.registry = &registry, .clock = [&] { return fake_us; }});

    TimeSample first = liveness.sampleOnce();
    EXPECT_EQ(first.seeds, 100u);
    EXPECT_EQ(first.findings, 7u);
    EXPECT_DOUBLE_EQ(first.seedsPerSec, 0.0); // no previous sample
    EXPECT_DOUBLE_EQ(first.cacheHitRate, 0.75);
    EXPECT_EQ(first.stageP99Us[2], 64.0); // compile, power of two
    EXPECT_EQ(first.serveP99Us, 256.0);

    // 50 more seeds over 2 seconds: 25 seeds/s.
    registry.counter("campaign.seeds").add(50);
    fake_us += 2'000'000;
    TimeSample second = liveness.sampleOnce();
    EXPECT_DOUBLE_EQ(second.seedsPerSec, 25.0);
    ASSERT_EQ(liveness.series().next(), 2u);
    std::vector<TimeSample> published = liveness.series().read(1);
    ASSERT_EQ(published.size(), 1u);
    EXPECT_EQ(published[0].seq, 1u);
    EXPECT_EQ(published[0].seeds, 150u);
}

TEST(ObserveTimeSeries, SamplerAugmentFoldsFleetState)
{
    // The coordinator's registry holds the fleet.* counters and the
    // campaign.progress gauges but no seed counts; the augment hook
    // (worker dumps in production) must be what the sample reflects
    // on top of it — without mutating the base.
    MetricsRegistry registry;
    registry.counter("fleet.workers_spawned").add(3);
    registry.counter("campaign.progress", "findings").add(4);

    report::Liveness liveness(
        {.registry = &registry,
         .augment =
             [](MetricsRegistry &scratch) {
                 scratch.counter("campaign.seeds").add(42);
             }});
    TimeSample sample = liveness.sampleOnce();
    EXPECT_EQ(sample.seeds, 42u);
    EXPECT_EQ(sample.findings, 4u);
    EXPECT_EQ(registry.counterValue("campaign.seeds"), 0u);
}

//===------------------------------------------------------------------===//
// Throughput anomaly detection
//===------------------------------------------------------------------===//

/** Advance the fake clock one second and sample @p per_second more
 * seeds. */
void
sampleAtRate(report::Liveness &liveness, MetricsRegistry &registry,
             uint64_t &fake_us, uint64_t per_second)
{
    fake_us += 1'000'000;
    registry.counter("campaign.seeds").add(per_second);
    liveness.sampleOnce();
}

TEST(ObserveThroughput, DegradeAndRecoverWithInjectedClock)
{
    uint64_t fake_us = 0;
    MetricsRegistry registry;
    report::EventLog log(&registry);
    report::Liveness liveness({.registry = &registry,
                               .events = &log,
                               .clock = [&] { return fake_us; }});
    liveness.sampleOnce(); // the first sample has no rate

    // Warmup and beyond: 100 seeds/s, steady. No transitions may fire.
    for (uint64_t i = 0; i <= report::kWarmupSamples; ++i)
        sampleAtRate(liveness, registry, fake_us, 100);
    EXPECT_FALSE(liveness.degraded());

    // Collapse to 10 seeds/s: below 0.5 x baseline, the latch fires.
    sampleAtRate(liveness, registry, fake_us, 10);
    EXPECT_TRUE(liveness.degraded());
    EXPECT_EQ(registry.counterValue("report.throughput_degraded"), 1u);

    // Still slow: no second fire (latched).
    sampleAtRate(liveness, registry, fake_us, 10);
    EXPECT_TRUE(liveness.degraded());
    EXPECT_EQ(registry.counterValue("report.throughput_degraded"), 1u);

    // Back to 90 seeds/s >= 0.8 x baseline: recovery fires.
    sampleAtRate(liveness, registry, fake_us, 90);
    EXPECT_FALSE(liveness.degraded());
    EXPECT_EQ(registry.counterValue("report.throughput_recovered"),
              1u);

    // Both transitions are ops-phase events with disjoint minors from
    // the stall events.
    std::vector<support::Event> events = log.sorted();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type(), "throughput_degraded");
    EXPECT_EQ(events[1].type(), "throughput_recovered");
    EXPECT_EQ(events[0].key().phase, support::kPhaseOps);
    EXPECT_EQ(events[0].key().minor, 2u);
    EXPECT_EQ(events[1].key().minor, 3u);
    EXPECT_EQ(events[0].getNum("degradation"), 1u);
    EXPECT_EQ(*events[0].getStr("rate"), "10.000");
    // The baseline stayed frozen at 100 while degraded: folding the
    // second 10 seeds/s sample in would have dragged it to 73.
    EXPECT_EQ(*events[0].getStr("baseline"), "100.000");
    EXPECT_EQ(*events[1].getStr("baseline"), "100.000");
}

TEST(ObserveThroughput, ReadyzFollowsDegradeAndRecovery)
{
    uint64_t fake_us = 0;
    MetricsRegistry registry;
    report::Liveness liveness(
        {.registry = &registry, .clock = [&] { return fake_us; }});

    serve::OpsServerOptions options;
    options.metrics = &registry;
    options.liveness = &liveness;
    serve::OpsServer ops(options);
    serve::HttpRequest request;
    request.path = "/readyz";

    EXPECT_EQ(ops.handle(request).status, 200);

    liveness.sampleOnce();
    for (uint64_t i = 0; i <= report::kWarmupSamples; ++i)
        sampleAtRate(liveness, registry, fake_us, 100);
    EXPECT_EQ(ops.handle(request).status, 200);

    sampleAtRate(liveness, registry, fake_us, 5); // collapse
    serve::HttpResponse degraded = ops.handle(request);
    EXPECT_EQ(degraded.status, 503);
    EXPECT_NE(degraded.body.find("throughput"), std::string::npos);

    sampleAtRate(liveness, registry, fake_us, 100); // recovery
    EXPECT_EQ(ops.handle(request).status, 200);
}

//===------------------------------------------------------------------===//
// /timeseries + /dashboard endpoints
//===------------------------------------------------------------------===//

TEST(ObserveServe, TimeseriesEndpointPagesWithCursor)
{
    MetricsRegistry registry;
    report::Liveness liveness({.registry = &registry});
    liveness.sampleOnce();
    liveness.sampleOnce();

    serve::OpsServerOptions options;
    options.metrics = &registry;
    options.liveness = &liveness;
    serve::OpsServer ops(options);

    serve::HttpRequest request;
    request.path = "/timeseries";
    serve::HttpResponse response = ops.handle(request);
    ASSERT_EQ(response.status, 200);
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(response.body);
    ASSERT_TRUE(doc) << response.body;
    EXPECT_EQ(doc->getU64("next"), 2u);
    EXPECT_EQ(doc->get("points")->items.size(), 2u);

    // Incremental fetch from the returned cursor: empty, then new
    // points only — the monotone-cursor contract the dashboard uses.
    request.query = "since=2";
    doc = support::JsonValue::parse(ops.handle(request).body);
    ASSERT_TRUE(doc);
    EXPECT_TRUE(doc->get("points")->items.empty());
    liveness.sampleOnce();
    doc = support::JsonValue::parse(ops.handle(request).body);
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->getU64("next"), 3u);
    ASSERT_EQ(doc->get("points")->items.size(), 1u);
    EXPECT_EQ(doc->get("points")->items[0].getU64("seq"), 2u);

    // Garbage cursors are rejected; a missing series is a 404.
    request.query = "since=banana";
    EXPECT_EQ(ops.handle(request).status, 400);
    serve::OpsServerOptions bare;
    serve::OpsServer bare_ops(bare);
    request.query.clear();
    EXPECT_EQ(bare_ops.handle(request).status, 404);
}

TEST(ObserveServe, DashboardServesSelfContainedHtml)
{
    serve::OpsServerOptions options;
    MetricsRegistry registry;
    options.metrics = &registry;
    serve::OpsServer ops(options);

    serve::HttpRequest request;
    request.path = "/dashboard";
    serve::HttpResponse response = ops.handle(request);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.contentType, "text/html; charset=utf-8");
    // Self-contained: it polls the JSON endpoints, no external assets.
    EXPECT_NE(response.body.find("/timeseries"), std::string::npos);
    EXPECT_NE(response.body.find("/progress"), std::string::npos);
    EXPECT_EQ(response.body.find("http://"), std::string::npos);
    EXPECT_EQ(response.body.find("https://"), std::string::npos);
}

TEST(ObserveServe, ProgressCarriesLatencyPercentiles)
{
    MetricsRegistry registry;
    registry.histogram("campaign.stage_us", "compile").observe(64);
    registry.histogram("serve.request_us").observe(128);

    corpus::CampaignPlan plan;
    plan.count = 10;

    serve::OpsServerOptions options;
    options.metrics = &registry;
    options.plan = &plan;
    serve::OpsServer ops(options);
    serve::HttpRequest request;
    request.path = "/progress";
    serve::HttpResponse response = ops.handle(request);
    ASSERT_EQ(response.status, 200);
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(response.body);
    ASSERT_TRUE(doc) << response.body;
    const support::JsonValue *latency = doc->get("latency");
    ASSERT_TRUE(latency && latency->isObject()) << response.body;
    const support::JsonValue *stages = latency->get("stage_us");
    ASSERT_TRUE(stages && stages->isObject());
    const support::JsonValue *compile = stages->get("compile");
    ASSERT_TRUE(compile && compile->isObject());
    EXPECT_EQ(compile->getU64("count"), 1u);
    EXPECT_EQ(compile->getString("p99"), "64.000");
    const support::JsonValue *serve_us = latency->get("serve_request_us");
    ASSERT_TRUE(serve_us && serve_us->isObject());
    EXPECT_EQ(serve_us->getU64("count"), 1u);
}

//===------------------------------------------------------------------===//
// Report latency section
//===------------------------------------------------------------------===//

TEST(ObserveReport, LatencySectionIsOptInAndRendersPercentiles)
{
    MetricsRegistry registry;
    // Single samples at bucket floors: every percentile is exact.
    registry.histogram("campaign.stage_us", "compile").observe(64);
    registry.histogram("campaign.stage_us", "generate").observe(4);
    registry.histogram("not_a_stage").observe(1);

    std::vector<report::CampaignReportData::StageLatency> latency =
        report::collectStageLatency(registry);
    ASSERT_EQ(latency.size(), 2u);
    EXPECT_EQ(latency[0].stage, "compile");
    EXPECT_EQ(latency[0].count, 1u);
    EXPECT_EQ(latency[0].p99Us, 64.0);
    EXPECT_EQ(latency[1].stage, "generate");
    EXPECT_EQ(latency[1].p50Us, 4.0);

    report::CampaignReportData data;
    std::string without =
        report::renderCampaignReportMarkdown(data);
    EXPECT_EQ(without.find("Pipeline latency"), std::string::npos);

    data.latency = latency;
    std::string with = report::renderCampaignReportMarkdown(data);
    EXPECT_NE(with.find("## Pipeline latency"), std::string::npos);
    EXPECT_NE(
        with.find("| compile | 1 | 64.0 | 64.0 | 64.0 | 64.0 |"),
        std::string::npos)
        << with;
}

//===------------------------------------------------------------------===//
// Cross-process trace merge
//===------------------------------------------------------------------===//

/** Write one synthetic per-process trace under traces/. */
void
writeTrace(const std::string &fleet_dir, const std::string &file,
           uint64_t pid, const std::string &process,
           const std::string &span)
{
    support::Tracer tracer;
    tracer.setEnabled(true);
    tracer.setProcess(pid, process);
    {
        support::TraceSpan guard(span, "fleet", tracer);
    }
    fs::create_directories(fleet::tracesDir(fleet_dir));
    ASSERT_TRUE(corpus::writeFileAtomic(
        fleet::tracesDir(fleet_dir) + "/" + file, tracer.toJson()));
}

TEST(ObserveTraceMerge, RemapsPidsDeterministically)
{
    TempDir dir("trace_merge");
    writeTrace(dir.str(), "worker.1.trace.json", 4242,
               "fleet-worker worker.1", "lease");
    writeTrace(dir.str(), "coordinator.trace.json", 9999,
               "fleet-coordinator", "supervise");
    // A truncated file (SIGKILLed worker) is skipped, not fatal.
    ASSERT_TRUE(corpus::writeFileAtomic(
        fleet::tracesDir(dir.str()) + "/worker.2.trace.json",
        "{\"traceEvents\":[{\"na"));

    std::string out = fleet::mergedTracePath(dir.str());
    corpus::StoreError error;
    std::optional<fleet::TraceMergeResult> result =
        fleet::mergeTraces(dir.str(), out, &error);
    ASSERT_TRUE(result) << error.message;
    EXPECT_EQ(result->files, 2u);
    EXPECT_EQ(result->events, 2u); // one span per parsed file

    std::optional<std::string> merged = corpus::readWholeFile(out);
    ASSERT_TRUE(merged);
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(*merged);
    ASSERT_TRUE(doc) << *merged;
    const support::JsonValue *events = doc->get("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    // Lexical filename order fixes the track mapping:
    // coordinator.trace.json -> merged pid 1, worker.1 -> pid 2.
    uint64_t coordinator_pid = 0, worker_pid = 0;
    bool coordinator_labeled = false, worker_labeled = false;
    for (const support::JsonValue &event : events->items) {
        if (event.getString("name") != "process_name")
            continue;
        const support::JsonValue *args = event.get("args");
        ASSERT_TRUE(args);
        std::string label = args->getString("name");
        if (label.rfind("fleet-coordinator", 0) == 0) {
            coordinator_pid = event.getU64("pid");
            // The real pid stays visible on the track label.
            coordinator_labeled =
                label.find("[pid 9999]") != std::string::npos;
        } else if (label.rfind("fleet-worker", 0) == 0) {
            worker_pid = event.getU64("pid");
            worker_labeled =
                label.find("[pid 4242]") != std::string::npos;
        }
    }
    EXPECT_EQ(coordinator_pid, 1u);
    EXPECT_EQ(worker_pid, 2u);
    EXPECT_TRUE(coordinator_labeled);
    EXPECT_TRUE(worker_labeled);

    // Re-merging the same inputs yields identical bytes (CI diffs the
    // coordinator's merge against `longrun trace-merge`).
    std::string out2 = dir.str() + "/again.json";
    ASSERT_TRUE(fleet::mergeTraces(dir.str(), out2, &error))
        << error.message;
    EXPECT_EQ(*corpus::readWholeFile(out), *corpus::readWholeFile(out2));
}

TEST(ObserveTraceMerge, MissingOrUnparseableInputsAreClassified)
{
    TempDir dir("trace_merge_err");
    corpus::StoreError error;
    // No traces/ directory at all.
    EXPECT_FALSE(fleet::mergeTraces(
        dir.str(), dir.str() + "/out.json", &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::NotFound);

    // A traces/ directory with only corrupt files: Corrupt, and no
    // output is written.
    fs::create_directories(fleet::tracesDir(dir.str()));
    ASSERT_TRUE(corpus::writeFileAtomic(
        fleet::tracesDir(dir.str()) + "/bad.trace.json", "not json"));
    EXPECT_FALSE(fleet::mergeTraces(
        dir.str(), dir.str() + "/out.json", &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::Corrupt);
    EXPECT_FALSE(fs::exists(dir.str() + "/out.json"));
}

//===------------------------------------------------------------------===//
// Traced fleet end to end
//===------------------------------------------------------------------===//

TEST(ObserveFleet, TracedFleetMergesTimelineAndStaysByteIdentical)
{
    // Reference: the same plan, single process, no tracing.
    TempDir reference_dir("ref");
    corpus::StoreError error;
    auto reference_store =
        corpus::CorpusStore::open(reference_dir.str(), &error);
    ASSERT_TRUE(reference_store) << error.message;
    auto reference = corpus::runCheckpointed(
        *reference_store, smallPlan(), {}, &error);
    ASSERT_TRUE(reference) << error.message;

    TempDir fleet_dir("traced_fleet");
    fleet::FleetOptions options;
    options.workers = 2;
    options.trace = true;
    fleet::FleetCoordinator coordinator(fleet_dir.str(), smallPlan(),
                                        options);
    std::optional<fleet::FleetResult> result =
        coordinator.run(&error);

    // The coordinator enabled the process-global tracer; restore it
    // before any assertion can bail out of the test early.
    support::Tracer::global().setEnabled(false);
    support::Tracer::global().clear();
    support::Tracer::global().setProcess(1, "dce-campaign");

    ASSERT_TRUE(result) << error.message;
    EXPECT_TRUE(result->merged.completed);

    // One merged Perfetto timeline covering every process: both
    // workers and the coordinator parsed into it.
    EXPECT_EQ(result->mergedTracePath,
              fleet::mergedTracePath(fleet_dir.str()));
    EXPECT_EQ(result->traceFiles, 3u);
    std::optional<std::string> merged_trace =
        corpus::readWholeFile(result->mergedTracePath);
    ASSERT_TRUE(merged_trace);
    std::optional<support::JsonValue> trace_doc =
        support::JsonValue::parse(*merged_trace);
    ASSERT_TRUE(trace_doc);
    ASSERT_TRUE(trace_doc->get("traceEvents"));
    EXPECT_TRUE(
        fs::exists(fleet::coordinatorTracePath(fleet_dir.str())));

    // Observability must not perturb the determinism boundary: the
    // merged store's summary is byte-identical to the reference.
    EXPECT_EQ(corpus::summaryText(result->merged),
              corpus::summaryText(*reference));
}

} // namespace
} // namespace dce
