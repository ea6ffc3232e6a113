/** @file Tests for the report subsystem (DESIGN.md §12): structured
 * event log determinism, JSON escaping shared with the tracer,
 * Prometheus exposition stability, provenance dossiers, the campaign
 * report generator's kill/resume byte-identity, and the liveness
 * pipeline's JSONL snapshots, single-fire stall detection and
 * shutdown order. */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "report/dossier.hpp"
#include "report/event_log.hpp"
#include "report/liveness.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/json.hpp"

namespace fs = std::filesystem;

namespace dce::report {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

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

/** Fresh scratch directory, removed on destruction. */
class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_report_" + tag + "_" +
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
    plan.count = 18;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {alphaO3(), betaO3()};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

//===------------------------------------------------------------------===//
// Event log
//===------------------------------------------------------------------===//

TEST(ReportEventLog, SerializesTypedEventsInKeyOrder)
{
    support::MetricsRegistry registry;
    EventLog log(&registry);

    // Emit out of key order, from one thread: serialization must sort.
    support::Event late("chunk_committed",
                        {support::kPhaseChunk, 2,
                         support::kChunkCommitMinor});
    late.num("chunk", 2);
    log.emit(std::move(late));
    support::Event start("campaign_started",
                         {support::kPhaseCampaign, 0, 0});
    start.num("seeds", 6).str("builds", "alpha-O3,beta-O3");
    log.emit(std::move(start));
    support::Event find("finding_discovered",
                        {support::kPhaseChunk, 2, 1});
    find.num("marker", 7).str("fingerprint", "prog:x|markers:7");
    log.emit(std::move(find));

    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(registry.counterValue("report.events"), 3u);

    std::string jsonl = log.toJsonl();
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < jsonl.size()) {
        size_t end = jsonl.find('\n', begin);
        ASSERT_NE(end, std::string::npos);
        lines.push_back(jsonl.substr(begin, end - begin));
        begin = end + 1;
    }
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"event\":\"campaign_started\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"event\":\"finding_discovered\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("\"event\":\"chunk_committed\""),
              std::string::npos);

    // Every line parses with the corpus JSON parser.
    for (const std::string &line : lines) {
        std::string error;
        EXPECT_TRUE(support::JsonValue::parse(line, &error)) << error;
    }
}

TEST(ReportEventLog, WriteIsAtomicAndRepeatable)
{
    TempDir dir("evlog");
    fs::create_directories(dir.str());
    std::string path = dir.str() + "/events.jsonl";

    support::MetricsRegistry registry;
    EventLog log(&registry);
    support::Event event("campaign_started",
                         {support::kPhaseCampaign, 0, 0});
    event.num("seeds", 1);
    log.emit(std::move(event));

    ASSERT_TRUE(log.write(path));
    std::string first = readFile(path);
    ASSERT_TRUE(log.write(path)); // full rewrite, same bytes
    EXPECT_EQ(readFile(path), first);
    EXPECT_EQ(first, log.toJsonl());
}

TEST(ReportEventLog, ByteIdenticalAcrossThreadCounts)
{
    std::string serial_log;
    {
        TempDir dir("serial");
        corpus::StoreError error;
        auto store = corpus::CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        support::MetricsRegistry registry;
        EventLog log(&registry);
        corpus::CheckpointRunOptions options;
        options.threads = 1;
        options.checkpointEveryChunks = 2;
        options.metrics = &registry;
        options.events = &log;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
        serial_log = log.toJsonl();
    }
    ASSERT_FALSE(serial_log.empty());

    for (unsigned threads : {4u, 8u}) {
        TempDir dir("mt");
        corpus::StoreError error;
        auto store = corpus::CorpusStore::open(dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        support::MetricsRegistry registry;
        EventLog log(&registry);
        corpus::CheckpointRunOptions options;
        options.threads = threads;
        options.checkpointEveryChunks = 2;
        options.metrics = &registry;
        options.events = &log;
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_TRUE(result->completed);
        EXPECT_EQ(log.toJsonl(), serial_log)
            << "event log diverged at " << threads << " threads";
    }
}

//===------------------------------------------------------------------===//
// Shared JSON escaping (support/json, used by tracer + events)
//===------------------------------------------------------------------===//

TEST(ReportEscaping, ControlTabNewlineAndNonAsciiSurvive)
{
    const std::string nasty =
        "line1\nline2\ttab \"quoted\" back\\slash\r\b\f\x01\x1f "
        "caf\xc3\xa9 \xe6\xbc\xa2";
    std::string json = "{\"v\":\"" + support::jsonEscaped(nasty) +
                       "\"}";
    std::string error;
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(json, &error);
    ASSERT_TRUE(doc) << error << " in " << json;
    EXPECT_EQ(doc->getString("v"), nasty);

    // The same escaper backs trace span serialization and event
    // fields: a field with every escape class round-trips too.
    support::Event event("probe", {support::kPhaseOps, 0, 0});
    event.str("payload", nasty);
    std::string line;
    event.appendJson(line);
    doc = support::JsonValue::parse(line, &error);
    ASSERT_TRUE(doc) << error << " in " << line;
    EXPECT_EQ(doc->getString("payload"), nasty);
}

//===------------------------------------------------------------------===//
// Prometheus exposition
//===------------------------------------------------------------------===//

TEST(ReportExposition, ExposeIsInsertionOrderIndependent)
{
    support::MetricsRegistry a;
    a.counter("campaign.seeds").add(18);
    a.counter("campaign.invalid", "trap").add(2);
    a.counter("campaign.invalid", "timeout").add(1);
    a.histogram("corpus.checkpoint_us").observe(100);
    a.histogram("campaign.stage_us", "generate").observe(7);

    support::MetricsRegistry b;
    b.histogram("campaign.stage_us", "generate").observe(7);
    b.counter("campaign.invalid", "timeout").add(1);
    b.histogram("corpus.checkpoint_us").observe(100);
    b.counter("campaign.invalid", "trap").add(2);
    b.counter("campaign.seeds").add(18);

    EXPECT_EQ(a.expose(), b.expose());

    std::string text = a.expose();
    EXPECT_NE(text.find("# TYPE campaign_seeds counter\n"
                        "campaign_seeds 18\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("campaign_invalid{label=\"timeout\"} 1\n"
                  "campaign_invalid{label=\"trap\"} 2\n"),
        std::string::npos);
    // One TYPE line per metric name, not per series.
    size_t first = text.find("# TYPE campaign_invalid");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# TYPE campaign_invalid", first + 1),
              std::string::npos);
}

TEST(ReportExposition, HostileLabelValuesAreEscapedPerSpec)
{
    // Exposition-format conformance (text format 0.0.4): label values
    // must escape backslash, double-quote, and newline — and nothing
    // else — as \\, \", and \n. A scraper fed an unescaped quote or a
    // raw newline tears the whole scrape, so this is a regression
    // fence for /metrics.
    support::MetricsRegistry registry;
    registry.counter("serve.responses", "a\\b\"c\nd").add(1);
    registry.histogram("campaign.stage_us", "tab\there").observe(4);

    std::string text = registry.expose();
    EXPECT_NE(
        text.find("serve_responses{label=\"a\\\\b\\\"c\\nd\"} 1\n"),
        std::string::npos);
    // No raw newline may survive inside a label value: a torn line
    // would start mid-value, so every line must open like a comment
    // or a metric name.
    size_t begin = 0;
    while (begin < text.size()) {
        size_t end = text.find('\n', begin);
        ASSERT_NE(end, std::string::npos) << "unterminated line";
        std::string line = text.substr(begin, end - begin);
        if (!line.empty()) {
            char first = line[0];
            EXPECT_TRUE(first == '#' || first == '_' ||
                        (first >= 'a' && first <= 'z') ||
                        (first >= 'A' && first <= 'Z'))
                << "torn exposition line: " << line;
        }
        begin = end + 1;
    }
    // Characters with no escape rule (tab) pass through verbatim.
    EXPECT_NE(
        text.find("campaign_stage_us_sum{label=\"tab\there\"} 4\n"),
        std::string::npos);
}

TEST(ReportExposition, HistogramBucketsAreCumulative)
{
    support::MetricsRegistry registry;
    support::Histogram &h = registry.histogram("reduce.tests");
    h.observe(0); // bucket 0 (le 0)
    h.observe(1); // bucket 1 (le 1)
    h.observe(2); // bucket 2 (le 3)
    h.observe(3); // bucket 2 (le 3)

    std::string text = registry.expose();
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"3\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("reduce_tests_sum 6\n"), std::string::npos);
    EXPECT_NE(text.find("reduce_tests_count 4\n"), std::string::npos);
}

//===------------------------------------------------------------------===//
// Liveness: JSONL snapshots, stall detection, shutdown
//===------------------------------------------------------------------===//

/** The lines of a text file, newline-terminated each. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t begin = 0;
    while (begin < text.size()) {
        size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        lines.push_back(text.substr(begin, end - begin));
        begin = end + 1;
    }
    return lines;
}

TEST(ReportSnapshot, AppendsParseableRegistrySamples)
{
    TempDir dir("snap");
    fs::create_directories(dir.str());
    std::string path = dir.str() + "/run.metrics.jsonl";

    support::MetricsRegistry registry;
    registry.counter("campaign.seeds").add(5);
    registry.histogram("campaign.stage_us", "generate").observe(11);

    // An hour-long cadence: the thread never ticks on its own, so the
    // file holds exactly the two explicit samples plus stop()'s final.
    Liveness liveness({.intervalMs = 3'600'000,
                       .registry = &registry,
                       .jsonlPath = path});
    liveness.start();
    liveness.sampleOnce();
    registry.counter("campaign.seeds").add(3);
    liveness.sampleOnce();
    registry.counter("campaign.seeds").add(1);
    liveness.stop();

    std::string text = readFile(path);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    EXPECT_EQ(text.rfind("{\"seq\":0,\"wall_ms\":", 0), 0u);
    std::vector<std::string> lines = splitLines(text);
    ASSERT_EQ(lines.size(), 3u);
    const uint64_t seeds[] = {5, 8, 9};
    for (size_t i = 0; i < lines.size(); ++i) {
        std::string error;
        std::optional<support::JsonValue> line =
            support::JsonValue::parse(lines[i], &error);
        ASSERT_TRUE(line) << error;
        EXPECT_EQ(line->getU64("seq", ~uint64_t{0}), i);
        EXPECT_GT(line->getU64("wall_ms"), 0u);
        EXPECT_EQ(line->get("counters")->getU64("campaign.seeds"),
                  seeds[i]);
        const support::JsonValue *generate =
            line->get("histograms")->get("campaign.stage_us{generate}");
        ASSERT_TRUE(generate);
        EXPECT_EQ(generate->getU64("count"), 1u);
        EXPECT_EQ(generate->getU64("sum"), 11u);
    }
}

TEST(ReportWatchdog, FiresOnceThenRearmsOnProgress)
{
    uint64_t fake_us = 0;
    support::MetricsRegistry registry;
    EventLog log(&registry);
    Liveness liveness({.registry = &registry,
                       .events = &log,
                       .clock = [&] { return fake_us; }});

    registry.counter("campaign.seeds").add(3);
    liveness.sampleOnce(); // the seed count moved at t=0

    // Under the threshold: quiet.
    fake_us = kStallUs / 2;
    liveness.sampleOnce();
    EXPECT_FALSE(liveness.stalled());

    // At the threshold: exactly one fire, however often sampled, and
    // the diagnostic dump goes to stderr.
    fake_us = kStallUs;
    testing::internal::CaptureStderr();
    liveness.sampleOnce();
    fake_us += 1'000'000;
    liveness.sampleOnce();
    liveness.sampleOnce();
    std::string dump = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(liveness.stalled());
    EXPECT_EQ(registry.counterValue("report.stalls"), 1u);
    EXPECT_NE(dump.find("no progress for 60000 ms at 3 seeds"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("counter campaign.seeds 3"), std::string::npos);

    // The stall event is segregated into the ops phase.
    std::vector<support::Event> events = log.sorted();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type(), "watchdog_stall");
    EXPECT_EQ(events[0].key().phase, support::kPhaseOps);
    EXPECT_EQ(events[0].key().minor, 0u);
    EXPECT_EQ(events[0].getNum("seeds_done"), 3u);
    EXPECT_EQ(events[0].getNum("silent_us"), kStallUs);

    // Progress clears the latch — and logs the stalled→ready
    // transition as watchdog_recovered, bookending the stall.
    registry.counter("campaign.seeds").add(1);
    liveness.sampleOnce();
    EXPECT_FALSE(liveness.stalled());
    events = log.sorted();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].type(), "watchdog_recovered");
    EXPECT_EQ(events[1].key().phase, support::kPhaseOps);
    EXPECT_EQ(events[1].key().minor, 1u);
    EXPECT_EQ(events[1].getNum("stall"), 1u);
    EXPECT_EQ(events[1].getNum("seeds_done"), 4u);

    // Re-armed: another silence of the threshold fires again.
    fake_us += kStallUs - 1;
    liveness.sampleOnce();
    EXPECT_FALSE(liveness.stalled());
    fake_us += 1;
    testing::internal::CaptureStderr();
    liveness.sampleOnce();
    testing::internal::GetCapturedStderr();
    EXPECT_TRUE(liveness.stalled());
    EXPECT_EQ(registry.counterValue("report.stalls"), 2u);
    EXPECT_EQ(log.size(), 3u); // stall, recovered, stall
}

TEST(ReportLiveness, StallReadsTheAugmentedSeedCount)
{
    // The fleet coordinator's stall condition: its own registry never
    // sees campaign.seeds, the augment fold supplies the fleet-wide
    // count, and the detector watches that.
    uint64_t fake_us = 0;
    uint64_t fleet_seeds = 10;
    support::MetricsRegistry registry;
    Liveness liveness(
        {.registry = &registry,
         .augment =
             [&](support::MetricsRegistry &scratch) {
                 scratch.counter("campaign.seeds").add(fleet_seeds);
             },
         .clock = [&] { return fake_us; }});
    liveness.sampleOnce();
    fake_us = kStallUs - 1;
    fleet_seeds = 20;
    liveness.sampleOnce();
    fake_us += kStallUs - 1;
    liveness.sampleOnce();
    EXPECT_FALSE(liveness.stalled());
    fake_us += 1;
    testing::internal::CaptureStderr();
    liveness.sampleOnce();
    testing::internal::GetCapturedStderr();
    EXPECT_TRUE(liveness.stalled());
    EXPECT_EQ(registry.counterValue("report.stalls"), 1u);
}

TEST(ReportLiveness, StopDetachesHealthBeforeTheFinalSample)
{
    // A finished campaign's rate collapses to zero; the final sample
    // stop() takes must not read that as a degradation, so a server
    // held open afterwards keeps answering /readyz with 200.
    uint64_t fake_us = 0;
    support::MetricsRegistry registry;
    EventLog log(&registry);
    Liveness liveness({.intervalMs = 3'600'000,
                       .registry = &registry,
                       .events = &log,
                       .clock = [&] { return fake_us; }});
    liveness.start();
    for (uint64_t i = 0; i <= kWarmupSamples + 1; ++i) {
        fake_us += 1'000'000;
        registry.counter("campaign.seeds").add(100);
        liveness.sampleOnce();
    }

    fake_us += 1'000'000; // no new seeds: a zero rate
    liveness.stop();
    EXPECT_EQ(liveness.series().next(), kWarmupSamples + 3);
    EXPECT_DOUBLE_EQ(liveness.series().read(0).back().seedsPerSec, 0.0);
    EXPECT_FALSE(liveness.degraded());
    EXPECT_EQ(registry.counterValue("report.throughput_degraded"), 0u);
    EXPECT_EQ(log.size(), 0u);

    serve::OpsServerOptions options;
    options.metrics = &registry;
    options.liveness = &liveness;
    serve::OpsServer ops(options);
    serve::HttpRequest request;
    request.path = "/readyz";
    EXPECT_EQ(ops.handle(request).status, 200);
}

TEST(ReportLiveness, SamplerThreadTicksUntilStop)
{
    // The real thread: 1 ms ticks publish to the ring while this
    // thread bumps the registry and polls the ring and the health
    // flags, as the ops server's handlers do. stop() joins the thread
    // and takes the final sample; nothing ticks after it.
    support::MetricsRegistry registry;
    Liveness liveness({.intervalMs = 1, .registry = &registry});
    liveness.start();
    size_t seen = 0;
    for (int i = 0; i < 2000 && seen < 5; ++i) {
        registry.counter("campaign.seeds").add();
        seen = liveness.series().read(0).size();
        EXPECT_FALSE(liveness.stalled());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(seen, 5u);
    liveness.stop();
    std::vector<support::TimeSample> samples = liveness.series().read(0);
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(samples.back().seeds,
              registry.counterValue("campaign.seeds"));
    uint64_t after_stop = liveness.series().next();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(liveness.series().next(), after_stop);
}

TEST(ReportLiveness, StopClearsALatchedCondition)
{
    // Degraded at the end of the run (a slow tail): once the campaign
    // is over, /readyz must not keep reporting it.
    uint64_t fake_us = 0;
    support::MetricsRegistry registry;
    Liveness liveness({.intervalMs = 3'600'000,
                       .registry = &registry,
                       .clock = [&] { return fake_us; }});
    liveness.start();
    for (uint64_t i = 0; i <= kWarmupSamples + 1; ++i) {
        fake_us += 1'000'000;
        registry.counter("campaign.seeds").add(100);
        liveness.sampleOnce();
    }
    fake_us += 1'000'000;
    registry.counter("campaign.seeds").add(1);
    liveness.sampleOnce();
    ASSERT_TRUE(liveness.degraded());
    liveness.stop();
    EXPECT_FALSE(liveness.degraded());
    EXPECT_FALSE(liveness.stalled());
}

//===------------------------------------------------------------------===//
// Dossiers
//===------------------------------------------------------------------===//

TEST(ReportDossier, AssemblesFullLineage)
{
    TempDir dir("dossier");
    corpus::StoreError error;
    auto store = corpus::CorpusStore::open(dir.str(), &error);
    ASSERT_TRUE(store) << error.message;

    support::MetricsRegistry registry;
    EventLog log(&registry);
    corpus::CheckpointRunOptions options;
    options.threads = 2;
    options.metrics = &registry;
    options.events = &log;
    auto result = corpus::runCheckpointed(*store, smallPlan(),
                                          options, &error);
    ASSERT_TRUE(result) << error.message;
    ASSERT_FALSE(result->findings.empty());

    // Triage through the store's verdict cache, with events on, so
    // the dossier can pick up both the verdict and the trajectory.
    corpus::StoreVerdictCache cache(*store);
    core::TriageOptions triage;
    triage.maxTests = 120;
    triage.metrics = &registry;
    triage.verdictCache = &cache;
    triage.events = &log;
    core::TriageSummary summary =
        core::triageFindings(result->findings, triage);
    ASSERT_FALSE(summary.reports.empty());

    // The fingerprint of finding 0, as the report generator forms it.
    std::optional<CampaignReportData> data =
        collectReportData(*store, &error);
    ASSERT_TRUE(data) << error.message;
    ASSERT_FALSE(data->fingerprints.empty());
    const std::string &fingerprint = data->fingerprints[0];
    ASSERT_FALSE(fingerprint.empty());

    std::optional<Dossier> dossier =
        buildDossier(*store, &log, fingerprint, &error);
    ASSERT_TRUE(dossier) << error.message;

    const core::Finding &finding = result->findings[0];
    EXPECT_EQ(dossier->seed, finding.seed);
    ASSERT_EQ(dossier->markers.size(), 1u);
    EXPECT_EQ(dossier->markers[0], finding.marker);
    EXPECT_EQ(dossier->missedBy, finding.missedBy.name());
    EXPECT_EQ(dossier->reference, finding.reference.name());
    EXPECT_FALSE(dossier->source.empty());
    ASSERT_EQ(dossier->builds.size(), 2u);
    EXPECT_EQ(dossier->builds[0].name, alphaO3().name());
    EXPECT_TRUE(dossier->builds[0].missesMarker);
    EXPECT_FALSE(dossier->builds[1].missesMarker);
    // The reference eliminated it under collectRemarks, so the killer
    // pass is attributed.
    EXPECT_FALSE(dossier->builds[1].killerPass.empty());
    ASSERT_TRUE(dossier->verdict.has_value());
    EXPECT_FALSE(dossier->verdict->signature.empty());
    ASSERT_TRUE(dossier->reduction.has_value());
    EXPECT_GT(dossier->reduction->tests, 0u);

    // Both renderings carry the lineage and stay parseable/readable.
    std::string json = dossierJson(*dossier);
    std::string parse_error;
    std::optional<support::JsonValue> doc =
        support::JsonValue::parse(json, &parse_error);
    ASSERT_TRUE(doc) << parse_error;
    EXPECT_EQ(doc->getString("fingerprint"), fingerprint);
    EXPECT_EQ(doc->getU64("seed"), finding.seed);
    std::string markdown = dossierMarkdown(*dossier);
    EXPECT_NE(markdown.find(fingerprint), std::string::npos);
    EXPECT_NE(markdown.find("killer pass"), std::string::npos);

    EXPECT_FALSE(buildDossier(*store, nullptr, "not-a-fingerprint",
                              &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::NotFound);
}

//===------------------------------------------------------------------===//
// Report generator
//===------------------------------------------------------------------===//

TEST(ReportGenerator, ReportFromStoreMatchesAfterKillResume)
{
    auto run_and_render = [](const std::string &store_dir,
                             const std::string &report_dir,
                             uint64_t halt_after) {
        corpus::StoreError error;
        {
            auto store =
                corpus::CorpusStore::open(store_dir, &error);
            ASSERT_TRUE(store) << error.message;
            corpus::CheckpointRunOptions options;
            options.threads = 2;
            options.checkpointEveryChunks = 2;
            options.haltAfterChunks = halt_after;
            auto result = corpus::runCheckpointed(
                *store, smallPlan(), options, &error);
            ASSERT_TRUE(result) << error.message;
            if (halt_after) {
                ASSERT_FALSE(result->completed);
                // Second leg: resume to completion, like a restart
                // after SIGKILL.
                corpus::CheckpointRunOptions resume;
                resume.threads = 2;
                resume.checkpointEveryChunks = 2;
                auto resumed = corpus::runCheckpointed(
                    *store, smallPlan(), resume, &error);
                ASSERT_TRUE(resumed) << error.message;
                ASSERT_TRUE(resumed->completed);
            }
        }
        auto store = corpus::CorpusStore::open(store_dir, &error);
        ASSERT_TRUE(store) << error.message;
        CampaignReportOptions options;
        options.html = true;
        ASSERT_TRUE(writeCampaignReport(*store, report_dir, options,
                                        &error))
            << error.message;
    };

    TempDir full_store("full");
    TempDir full_report("fullrep");
    run_and_render(full_store.str(), full_report.str(), 0);

    TempDir killed_store("killed");
    TempDir killed_report("killedrep");
    run_and_render(killed_store.str(), killed_report.str(), 2);

    // Same files, same bytes — the report derives from checkpointed
    // state only, which the resume contract makes bit-identical.
    std::vector<std::string> names;
    for (const auto &entry :
         fs::directory_iterator(full_report.str()))
        names.push_back(entry.path().filename().string());
    ASSERT_FALSE(names.empty());
    EXPECT_NE(std::find(names.begin(), names.end(), "report.md"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "report.html"),
              names.end());
    for (const std::string &name : names) {
        std::string full = readFile(full_report.str() + "/" + name);
        std::string killed =
            readFile(killed_report.str() + "/" + name);
        EXPECT_EQ(full, killed) << "report file " << name
                                << " diverged after kill/resume";
    }
    size_t killed_count = std::distance(
        fs::directory_iterator(killed_report.str()),
        fs::directory_iterator{});
    EXPECT_EQ(names.size(), killed_count);

    // Sanity on the content: the report names the builds and links
    // the findings index to dossier files that exist.
    std::string markdown =
        readFile(full_report.str() + "/report.md");
    EXPECT_NE(markdown.find("# Campaign report"), std::string::npos);
    EXPECT_NE(markdown.find("**complete**"), std::string::npos);
    EXPECT_NE(markdown.find(alphaO3().name()), std::string::npos);
    EXPECT_NE(markdown.find(betaO3().name()), std::string::npos);
    if (markdown.find("finding-0.md") != std::string::npos) {
        EXPECT_TRUE(
            fs::exists(full_report.str() + "/finding-0.md"));
        EXPECT_TRUE(
            fs::exists(full_report.str() + "/finding-0.json"));
    }
}

TEST(ReportGenerator, IncompleteStoreRendersPartialReport)
{
    TempDir store_dir("partial");
    TempDir report_dir("partialrep");
    corpus::StoreError error;
    {
        auto store =
            corpus::CorpusStore::open(store_dir.str(), &error);
        ASSERT_TRUE(store) << error.message;
        corpus::CheckpointRunOptions options;
        options.checkpointEveryChunks = 2;
        options.haltAfterChunks = 2; // killed mid-run, never resumed
        auto result = corpus::runCheckpointed(*store, smallPlan(),
                                              options, &error);
        ASSERT_TRUE(result) << error.message;
        ASSERT_FALSE(result->completed);
    }
    auto store = corpus::CorpusStore::open(store_dir.str(), &error);
    ASSERT_TRUE(store) << error.message;
    ASSERT_TRUE(writeCampaignReport(*store, report_dir.str(), {},
                                    &error))
        << error.message;
    std::string markdown =
        readFile(report_dir.str() + "/report.md");
    EXPECT_NE(markdown.find("**incomplete**"), std::string::npos);

    // A store with no checkpoint at all is a classified error.
    TempDir empty("empty");
    auto fresh = corpus::CorpusStore::open(empty.str(), &error);
    ASSERT_TRUE(fresh) << error.message;
    TempDir out("emptyrep");
    EXPECT_FALSE(
        writeCampaignReport(*fresh, out.str(), {}, &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::NoCheckpoint);
}

} // namespace
} // namespace dce::report
