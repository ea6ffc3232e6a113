#include "session/session.hpp"

#include <memory>
#include <optional>

#include "corpus/store.hpp"
#include "equiv/engine.hpp"
#include "fleet/coordinator.hpp"
#include "report/event_log.hpp"
#include "report/liveness.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/trace.hpp"

namespace dce::session {

namespace {

int
complain(const std::string &message)
{
    std::fprintf(stderr, "error: %s\n", message.c_str());
    return 1;
}

int
fail(const corpus::StoreError &error)
{
    return complain(error.message + " (" +
                    corpus::storeStatusName(error.status) + ")");
}

} // namespace

int
Session::run(std::FILE *out, corpus::StoreError *error) const
{
    const SessionOptions &o = options;
    corpus::StoreError local_error;
    if (!error)
        error = &local_error;
    if (o.fleetWorkers > 0 && (o.mode != Mode::Full || !o.eventsPath.empty()))
        return complain("a fleet runs mode full, without an event log");

    support::MetricsRegistry registry;
    report::EventLog log(&registry);
    corpus::CampaignPlan pinned = plan;
    // One store handle for the whole process: the campaign writes
    // through it while /report and /dossier read through it (the store
    // is mutex-guarded). A fleet opens its merged store after the run
    // and attaches it then, so a --serve-wait hold serves the merge.
    std::unique_ptr<corpus::CorpusStore> store;
    std::unique_ptr<fleet::FleetCoordinator> coordinator;
    if (o.fleetWorkers > 0) {
        fleet::FleetOptions fleet_options;
        fleet_options.workers = o.fleetWorkers;
        fleet_options.workerExecArgv = workerArgv;
        fleet_options.metrics = &registry;
        fleet_options.trace = !o.tracePath.empty();
        fleet_options.logLine = [](const std::string &line) {
            std::fprintf(stderr, "%s\n", line.c_str());
        };
        coordinator = std::make_unique<fleet::FleetCoordinator>(
            o.dir, plan, fleet_options);
    } else {
        // Tracing keeps the default process identity (pid 1,
        // "dce-campaign"); a fleet traces through its own options.
        if (!o.tracePath.empty())
            support::Tracer::global().setEnabled(true);
        store = corpus::CorpusStore::open(
            o.dir, error,
            {.createIfMissing = o.mode != Mode::Resume, .metrics = &registry});
        if (!store)
            return fail(*error);
        if (o.mode == Mode::Resume) {
            std::optional<corpus::CheckpointState> state =
                corpus::readCheckpointState(*store, error);
            if (!state)
                return fail(*error);
            pinned = state->plan;
        }
    }

    // A fleet's registry has the fleet.* counters and the
    // coordinator's campaign.progress gauges; each sample folds in the
    // workers' latest dumps, so the series and the health behind
    // /readyz are fleet-wide.
    std::function<void(support::MetricsRegistry &)> fold;
    if (coordinator)
        fold = [&coordinator](support::MetricsRegistry &scratch) {
            coordinator->mergeWorkerMetrics(scratch);
        };
    report::Liveness liveness({.intervalMs = o.sampleMs,
                               .registry = &registry,
                               .augment = fold,
                               .jsonlPath = o.metricsPath,
                               .events = &log});
    // /progress reports the run as active while the sampler runs:
    // from here until right after the backend returns.
    liveness.start();
    serve::OpsServer ops({.port = o.servePort,
                          .metrics = &registry,
                          .events = coordinator ? nullptr : &log,
                          .plan = &pinned,
                          .allowRemoteShutdown = o.serveWait,
                          .fleet = coordinator.get(),
                          .liveness = &liveness});
    // Null under --fleet: the merged store is attached once it opens.
    ops.attachStore(store.get());
    std::string serve_error;
    if (o.serve && !ops.start(&serve_error))
        return complain("serve: " + serve_error);
    if (o.serve)
        std::fprintf(stderr, "serving ops on 127.0.0.1:%u\n",
                     unsigned(ops.port()));

    std::optional<corpus::CheckpointedCampaign> result;
    support::MetricsRegistry worker_metrics;
    if (coordinator) {
        std::optional<fleet::FleetResult> ran = coordinator->run(error);
        liveness.stop();
        if (!ran)
            return fail(*error);
        if (!o.tracePath.empty() && !ran->mergedTracePath.empty() &&
            ran->mergedTracePath != o.tracePath) {
            std::optional<std::string> bytes =
                corpus::readWholeFile(ran->mergedTracePath, error);
            if (!bytes ||
                !corpus::writeFileAtomic(o.tracePath, *bytes, error))
                return fail(*error);
        }
        store = corpus::CorpusStore::open(
            ran->mergedStoreDir, error,
            {.createIfMissing = false, .metrics = &registry});
        if (!store)
            return fail(*error);
        ops.attachStore(store.get());
        if (o.latencyReport)
            coordinator->mergeWorkerMetrics(worker_metrics);
        result = std::move(ran->merged);
    } else {
        corpus::CheckpointRunOptions run_options;
        run_options.checkpointEveryChunks = 2;
        run_options.metrics = &registry;
        run_options.events = &log;
        if (o.mode == Mode::Run)
            run_options.haltAfterChunks = o.haltChunks;
        result = corpus::runCheckpointed(*store, pinned, run_options,
                                         error);
        liveness.stop();
        if (!o.tracePath.empty() &&
            !corpus::writeFileAtomic(o.tracePath,
                                     support::Tracer::global().toJson()))
            return complain("writing trace " + o.tracePath + " failed");
        if (!result)
            return fail(*error);
    }

    // The shared tail. The metamorphic analysis, like the report, is
    // pure in (store contents, options), so full, kill/resume and
    // fleet runs write the same equiv.json, summary and report.
    std::optional<equiv::EquivSummary> equiv_summary;
    if (o.equivVariants > 0 && result->completed) {
        equiv::EquivOptions equiv_options;
        equiv_options.variantsPerProgram = o.equivVariants;
        equiv_options.metrics = &registry;
        equiv_options.events = &log;
        equiv_summary = equiv::runEquivAnalysis(*store, equiv_options);
        if (equiv_summary) {
            corpus::StoreVerdictCache cache(*store);
            core::TriageOptions triage_options;
            triage_options.metrics = &registry;
            triage_options.verdictCache = &cache;
            equiv::triageEquivFindings(*equiv_summary, triage_options);
            if (!store->writeEquivState(
                    equiv::serializeEquivSummary(*equiv_summary), error))
                return fail(*error);
        }
    }
    if (!o.eventsPath.empty() && !log.write(o.eventsPath))
        return complain("writing event log " + o.eventsPath + " failed");
    if (!o.reportDir.empty()) {
        // The report derives from the durable store alone, so every
        // schedule renders the bytes the /report endpoint serves.
        report::CampaignReportOptions report_options;
        report_options.html = true;
        if (o.latencyReport)
            report_options.latencyMetrics =
                coordinator ? &worker_metrics : &registry;
        if (!report::writeCampaignReport(*store, o.reportDir,
                                         report_options, error))
            return fail(*error);
    }

    if (result->completed)
        std::fputs(corpus::summaryText(*result).c_str(), out);
    else
        std::fprintf(out, "halted after %llu chunks (checkpointed)\n",
                     (unsigned long long)result->chunksRun);
    if (equiv_summary)
        std::fputs(equiv::equivSummaryText(*equiv_summary).c_str(), out);
    // The summary and every artifact are out before the endpoints are
    // held open for drills.
    std::fflush(out);
    if (o.serve && o.serveWait)
        ops.waitForShutdownRequest();
    return 0;
}

} // namespace dce::session
