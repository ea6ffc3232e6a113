/** @file Tests for the multi-process campaign fleet: lease table
 * claim/steal/fencing semantics, merged-output byte-identity against
 * a single-process run across worker counts and mid-lease crashes,
 * plan pinning of a fleet directory, and the metrics dump transport.
 *
 * Coordinator tests fork real worker processes; each gtest TEST runs
 * in its own process (gtest_discover_tests), and the in-process
 * worker path uses ThreadPool(1), which runs inline — so the forked
 * children never touch inherited threads. */
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "fleet/merge.hpp"
#include "fleet/metrics_io.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace fs = std::filesystem;

namespace dce::fleet {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;
using core::BuildSpec;

class TempDir {
  public:
    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("dce_fleet_" + tag + "_" +
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
fleetPlan()
{
    corpus::CampaignPlan plan;
    plan.count = 18;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {{CompilerId::Alpha, OptLevel::O3, SIZE_MAX},
                   {CompilerId::Beta, OptLevel::O3, SIZE_MAX}};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

/** Reference single-process run: summary + report markdown. */
void
runReference(const std::string &dir, std::string &summary,
             std::string &report)
{
    corpus::StoreError error;
    support::MetricsRegistry registry;
    corpus::OpenOptions open_options;
    open_options.metrics = &registry;
    auto store = corpus::CorpusStore::open(dir, &error, open_options);
    ASSERT_TRUE(store) << error.message;
    corpus::CheckpointRunOptions run;
    run.metrics = &registry;
    run.checkpointEveryChunks = 2;
    std::optional<corpus::CheckpointedCampaign> result =
        corpus::runCheckpointed(*store, fleetPlan(), run, &error);
    ASSERT_TRUE(result) << error.message;
    ASSERT_TRUE(result->completed);
    summary = corpus::summaryText(*result);
    std::optional<report::CampaignReportData> data =
        report::collectReportData(*store, &error);
    ASSERT_TRUE(data) << error.message;
    report = report::renderCampaignReportMarkdown(*data);
}

std::string
renderMergedReport(const std::string &merged_dir)
{
    corpus::StoreError error;
    support::MetricsRegistry registry;
    corpus::OpenOptions open_options;
    open_options.createIfMissing = false;
    open_options.metrics = &registry;
    auto store =
        corpus::CorpusStore::open(merged_dir, &error, open_options);
    EXPECT_TRUE(store) << error.message;
    if (!store)
        return "";
    std::optional<report::CampaignReportData> data =
        report::collectReportData(*store, &error);
    EXPECT_TRUE(data) << error.message;
    if (!data)
        return "";
    return report::renderCampaignReportMarkdown(*data);
}

//===------------------------------------------------------------------===//
// Lease table semantics
//===------------------------------------------------------------------===//

TEST(Fleet, LeaseTableClaimsInOrderAndCompletes)
{
    TempDir dir("lease");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 6, 2, &error))
        << error.message;
    LeaseTable table(dir.str());

    std::optional<std::vector<Lease>> leases = table.list(&error);
    ASSERT_TRUE(leases) << error.message;
    ASSERT_EQ(leases->size(), 3u);
    EXPECT_EQ((*leases)[2].beginChunk, 4u);
    EXPECT_EQ((*leases)[2].endChunk, 6u);

    std::optional<Lease> first =
        table.claim(::getpid(), "worker.0", &error);
    ASSERT_TRUE(first) << error.message;
    EXPECT_EQ(first->index, 0u);
    EXPECT_EQ(first->epoch, 1u);

    // A second claimant skips our live claim and gets the next lease.
    std::optional<Lease> second =
        table.claim(::getpid(), "worker.1", &error);
    ASSERT_TRUE(second) << error.message;
    EXPECT_EQ(second->index, 1u);

    first->counters.emplace_back("campaign.seeds_done", 6);
    first->findings.push_back({0, 2, 99, 1});
    bool stolen = true;
    ASSERT_TRUE(table.complete(*first, &stolen, &error))
        << error.message;
    EXPECT_FALSE(stolen);

    leases = table.list(&error);
    ASSERT_TRUE(leases) << error.message;
    EXPECT_EQ((*leases)[0].state, LeaseState::Done);
    ASSERT_EQ((*leases)[0].counters.size(), 1u);
    EXPECT_EQ((*leases)[0].counters[0].second, 6u);
    ASSERT_EQ((*leases)[0].findings.size(), 1u);
    EXPECT_EQ((*leases)[0].findings[0].seed, 99u);
}

TEST(Fleet, OlderDoneLeaseWithStageUsReads)
{
    // A done lease as written while payloads still carried stage_us.
    TempDir dir("older_lease");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 2, 2, &error));
    ASSERT_TRUE(corpus::writeFileAtomic(
        leasePath(dir.str(), 0),
        support::sealJsonLine(
            R"({"lease":0,"begin":0,"end":2,"epoch":1,"state":"done",)"
            R"("pid":4242,"store":"worker.0","claim_ms":7,)"
            R"("stage_us":123,"counters":[{"k":"campaign.seeds","v":6}],)"
            R"("findings":[{"chunk":0,"slot":2,"seed":99,"marker":1}]})") +
            "\n"));
    std::optional<std::vector<Lease>> leases =
        LeaseTable(dir.str()).list(&error);
    ASSERT_TRUE(leases) << error.message;
    ASSERT_EQ(leases->size(), 1u);
    const Lease &lease = (*leases)[0];
    EXPECT_EQ(lease.state, LeaseState::Done);
    EXPECT_EQ(lease.store, "worker.0");
    ASSERT_EQ(lease.counters.size(), 1u);
    EXPECT_EQ(lease.counters[0].first, "campaign.seeds");
    EXPECT_EQ(lease.counters[0].second, 6u);
    ASSERT_EQ(lease.findings.size(), 1u);
    EXPECT_EQ(lease.findings[0].seed, 99u);
}

TEST(Fleet, DeadOwnerLeaseIsStolenAndStaleCompletionFenced)
{
    TempDir dir("fence");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 2, 2, &error));
    LeaseTable table(dir.str());

    // A child that exits immediately gives us a genuinely dead pid.
    pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);

    std::optional<Lease> stale =
        table.claim(int64_t(dead), "worker.dead", &error);
    ASSERT_TRUE(stale) << error.message;
    EXPECT_EQ(stale->epoch, 1u);

    // The dead owner's lease is immediately claimable; the steal
    // bumps the epoch.
    std::optional<Lease> stolen_lease =
        table.claim(::getpid(), "worker.live", &error);
    ASSERT_TRUE(stolen_lease) << error.message;
    EXPECT_EQ(stolen_lease->index, stale->index);
    EXPECT_EQ(stolen_lease->epoch, 2u);

    // The original owner's completion arrives late: fenced out,
    // payload discarded, not an error.
    bool stolen = false;
    ASSERT_TRUE(table.complete(*stale, &stolen, &error))
        << error.message;
    EXPECT_TRUE(stolen);
    std::optional<std::vector<Lease>> leases = table.list(&error);
    ASSERT_TRUE(leases);
    EXPECT_EQ((*leases)[0].state, LeaseState::Claimed);

    // The thief's completion (current epoch) lands.
    ASSERT_TRUE(table.complete(*stolen_lease, &stolen, &error));
    EXPECT_FALSE(stolen);
    leases = table.list(&error);
    ASSERT_TRUE(leases);
    EXPECT_EQ((*leases)[0].state, LeaseState::Done);
}

TEST(Fleet, ReclaimOwnedByReturnsOnlyThatPidsLeases)
{
    // Owners must look *alive* to pidAlive() or the next claim would
    // simply steal their lease: pid 1 (init — kill() yields EPERM,
    // which counts as alive) plays the crashed-but-unreaped worker,
    // our own pid plays the healthy one.
    TempDir dir("reclaim");
    corpus::StoreError error;
    ASSERT_TRUE(LeaseTable::init(dir.str(), 4, 1, &error));
    LeaseTable table(dir.str());
    ASSERT_TRUE(table.claim(1, "worker.a", &error));
    ASSERT_TRUE(table.claim(1, "worker.a", &error));
    ASSERT_TRUE(table.claim(::getpid(), "worker.b", &error));

    std::optional<size_t> reclaimed =
        table.reclaimOwnedBy(1, &error);
    ASSERT_TRUE(reclaimed) << error.message;
    EXPECT_EQ(*reclaimed, 2u);
    std::optional<std::vector<Lease>> leases = table.list(&error);
    ASSERT_TRUE(leases);
    EXPECT_EQ((*leases)[0].state, LeaseState::Available);
    EXPECT_EQ((*leases)[1].state, LeaseState::Available);
    EXPECT_EQ((*leases)[2].state, LeaseState::Claimed);
    // Epochs survive the reclaim, so the old owner stays fenced.
    EXPECT_EQ((*leases)[0].epoch, 1u);
}

//===------------------------------------------------------------------===//
// Metrics dump transport
//===------------------------------------------------------------------===//

TEST(Fleet, RegistryDumpRoundTripsExactly)
{
    support::MetricsRegistry source;
    source.counter("campaign.seeds_done").add(42);
    source.counter("corpus.records").add(7);
    source.histogram("campaign.stage_us", "compile").observe(100);
    source.histogram("campaign.stage_us", "compile").observe(3000);

    std::string dump = encodeRegistryDump(source.counters(),
                                          source.histograms());
    support::MetricsRegistry target;
    ASSERT_TRUE(absorbRegistryDump(dump, target));
    // Absorbing a second worker's identical dump doubles everything.
    ASSERT_TRUE(absorbRegistryDump(dump, target));
    EXPECT_EQ(target.counterValue("campaign.seeds_done"), 84u);
    EXPECT_EQ(target.counterValue("corpus.records"), 14u);
    EXPECT_EQ(
        target.histogram("campaign.stage_us", "compile").count(), 4u);
    EXPECT_EQ(target.histogram("campaign.stage_us", "compile").sum(),
              6200u);

    EXPECT_FALSE(absorbRegistryDump("{\"counters\":[]}", target));
}

//===------------------------------------------------------------------===//
// Fleet end-to-end byte-identity
//===------------------------------------------------------------------===//

TEST(Fleet, MergedOutputMatchesSingleProcessAcrossWorkerCounts)
{
    TempDir ref("ref");
    std::string reference_summary, reference_report;
    runReference(ref.str(), reference_summary, reference_report);
    ASSERT_FALSE(reference_summary.empty());

    for (unsigned workers : {1u, 2u, 4u}) {
        TempDir dir("fleet");
        FleetOptions options;
        options.workers = workers;
        options.leaseChunks = 1;
        options.workerCheckpointEveryChunks = 1;
        corpus::StoreError error;
        FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
        std::optional<FleetResult> result =
            coordinator.run(&error);
        ASSERT_TRUE(result) << error.message;
        EXPECT_EQ(result->workersSpawned, workers);
        EXPECT_EQ(result->workersCrashed, 0u);
        EXPECT_TRUE(result->merged.completed);
        EXPECT_EQ(corpus::summaryText(result->merged),
                  reference_summary)
            << "workers=" << workers;
        EXPECT_EQ(renderMergedReport(result->mergedStoreDir),
                  reference_report)
            << "workers=" << workers;
    }
}

TEST(Fleet, CrashedWorkerIsReclaimedAndMergeIsUnchanged)
{
    TempDir ref("ref");
    std::string reference_summary, reference_report;
    runReference(ref.str(), reference_summary, reference_report);

    // Crash the first worker one chunk into its first lease — the
    // worst case: a claimed lease with durable-but-incomplete store
    // state. The lease must return to the pool, a fresh-store
    // replacement must finish it, and the merge must not change.
    for (uint64_t crash_after : {1u, 2u}) {
        TempDir dir("crash");
        FleetOptions options;
        options.workers = 2;
        options.leaseChunks = 2;
        options.workerCheckpointEveryChunks = 1;
        options.crashFirstWorkerAfterChunks = crash_after;
        corpus::StoreError error;
        FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
        std::optional<FleetResult> result =
            coordinator.run(&error);
        ASSERT_TRUE(result) << error.message;
        EXPECT_EQ(result->workersCrashed, 1u);
        EXPECT_GE(result->leasesReclaimed, 1u);
        EXPECT_EQ(result->workersSpawned, 3u); // 2 + 1 respawn
        EXPECT_EQ(corpus::summaryText(result->merged),
                  reference_summary)
            << "crash_after=" << crash_after;
        EXPECT_EQ(renderMergedReport(result->mergedStoreDir),
                  reference_report)
            << "crash_after=" << crash_after;
    }
}

TEST(Fleet, FleetDirPinsItsPlan)
{
    TempDir dir("pin");
    FleetOptions options;
    options.workers = 1;
    corpus::StoreError error;
    {
        FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
        ASSERT_TRUE(coordinator.run(&error)) << error.message;
    }
    corpus::CampaignPlan other = fleetPlan();
    other.streamSeed += 1;
    FleetCoordinator mismatched(dir.str(), other, options);
    EXPECT_FALSE(mismatched.run(&error));
    EXPECT_EQ(error.status, corpus::StoreStatus::PlanMismatch);
}

TEST(Fleet, OlderPlanJsonWithRetiredKeysReadsAndResumes)
{
    // fleetPlan() with 2-chunk leases, as written before lease_ttl_ms,
    // steal_after_ms and worker_threads became constants, by a fleet
    // whose workers ran a 500 ms sampler (snapshot_interval_ms, since
    // retired).
    const std::string older_plan_json =
        R"({"version":1,"plan":{"firstSeed":0,"count":18,"random":true,)"
        R"("stream":2024,"chunk":3,"builds":[{"compiler":"alpha",)"
        R"("level":"O3","commit":"head"},{"compiler":"beta",)"
        R"("level":"O3","commit":"head"}],"primary":true,)"
        R"("remarks":true,"gen":{"globals":10,"helpers":3,"stmts":5,)"
        R"("depth":3,"expr":3,"trip":12,"bias":60},"by":0,"ref":1,)"
        R"("maxFindings":4294967295},"lease_chunks":2,)"
        R"("lease_ttl_ms":120000,"steal_after_ms":0,"worker_threads":1,)"
        R"("worker_checkpoint_every_chunks":1,"trace":false,)"
        R"("snapshot_interval_ms":500,"c":"474c310f"})"
        "\n";
    TempDir dir("older");
    ASSERT_TRUE(corpus::writeFileAtomic(planPath(dir.str()),
                                        older_plan_json));
    corpus::StoreError error;
    std::optional<FleetConfig> config = readFleetConfig(dir.str(), &error);
    ASSERT_TRUE(config) << error.message;
    EXPECT_EQ(corpus::serializePlan(config->plan),
              corpus::serializePlan(fleetPlan()));
    EXPECT_EQ(config->leaseChunks, 2u);
    EXPECT_EQ(config->workerCheckpointEveryChunks, 1u);

    TempDir ref("ref");
    std::string reference_summary, reference_report;
    runReference(ref.str(), reference_summary, reference_report);
    FleetOptions options;
    options.workers = 2;
    FleetCoordinator coordinator(dir.str(), fleetPlan(), options);
    std::optional<FleetResult> result = coordinator.run(&error);
    ASSERT_TRUE(result) << error.message;
    EXPECT_EQ(result->leases, 3u); // the file's geometry, not auto
    EXPECT_EQ(corpus::summaryText(result->merged), reference_summary);
    EXPECT_EQ(renderMergedReport(result->mergedStoreDir),
              reference_report);
    // The retired key starts no sampler.
    EXPECT_FALSE(fs::exists(workerDir(dir.str(), "worker.0") +
                            "/metrics.jsonl"));
}

TEST(Fleet, LiveProgressMatchesMetricsAndMerge)
{
    // The coordinator sets the campaign.progress gauges from its lease
    // scans, so once the fleet is done its ops view reads complete and
    // agrees with the merge.
    const corpus::CampaignPlan plan = fleetPlan();
    TempDir dir("live_progress");
    support::MetricsRegistry registry;
    FleetOptions options;
    options.workers = 2;
    options.metrics = &registry;
    FleetCoordinator coordinator(dir.str(), plan, options);
    corpus::StoreError error;
    std::optional<FleetResult> result = coordinator.run(&error);
    ASSERT_TRUE(result) << error.message;
    const uint64_t merged_findings = result->merged.metrics->counterValue(
        "campaign.progress", "findings");
    EXPECT_EQ(merged_findings, result->merged.findings.size());

    serve::OpsServer ops(
        {.metrics = &registry, .plan = &plan, .fleet = &coordinator});
    serve::HttpRequest request;
    request.path = "/progress";
    serve::HttpResponse response = ops.handle(request);
    ASSERT_EQ(response.status, 200);
    std::optional<support::JsonValue> progress =
        support::JsonValue::parse(response.body);
    ASSERT_TRUE(progress) << response.body;
    EXPECT_TRUE(progress->getBool("complete")) << response.body;
    EXPECT_FALSE(progress->getBool("active")); // no sampler attached
    EXPECT_EQ(progress->getString("plan_hash"),
              support::fnv1a64Hex(corpus::serializePlan(plan)));
    EXPECT_EQ(progress->getU64("seeds_total"), plan.count);
    EXPECT_EQ(progress->getU64("chunks_total"), plan.numChunks());
    EXPECT_EQ(progress->getU64("completed_chunks"), plan.numChunks());
    EXPECT_EQ(progress->getU64("watermark"), plan.numChunks());
    EXPECT_EQ(progress->getU64("seeds_committed"), plan.count);
    EXPECT_EQ(progress->getU64("findings"), merged_findings);
    // Worker dumps fold in: every worker checkpoint and stage counts.
    EXPECT_GE(progress->getU64("checkpoints"), result->leases);
    EXPECT_GT(progress->getU64("stage_us"), 0u);

    request.path = "/metrics";
    std::string metrics = ops.handle(request).body;
    for (const auto &[label, value] :
         {std::pair<std::string, uint64_t>{"completed_chunks",
                                           plan.numChunks()},
          {"watermark", plan.numChunks()},
          {"seeds_committed", plan.count},
          {"findings", merged_findings}})
        EXPECT_NE(metrics.find("campaign_progress{label=\"" + label +
                               "\"} " + std::to_string(value) + "\n"),
                  std::string::npos)
            << label << "\n"
            << metrics;
}

TEST(Fleet, MergeRefusesAnIncompleteFleet)
{
    TempDir dir("incomplete");
    corpus::StoreError error;
    FleetConfig config;
    config.plan = fleetPlan();
    config.leaseChunks = 3;
    ASSERT_TRUE(writeFleetConfig(dir.str(), config, &error));
    ASSERT_TRUE(LeaseTable::init(dir.str(), config.plan.numChunks(),
                                 config.leaseChunks, &error));
    EXPECT_FALSE(mergeFleet(dir.str(), &error));
    EXPECT_EQ(error.status, corpus::StoreStatus::IoError);
    EXPECT_NE(error.message.find("lease 0"), std::string::npos);
}

} // namespace
} // namespace dce::fleet
